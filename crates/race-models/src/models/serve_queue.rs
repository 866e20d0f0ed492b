//! The bounded job queue of `chason_serve::dispatch`, the core both
//! `chason serve` and `chason route` run on, reduced to its sync skeleton:
//! producers `try_send` and count a *shed* on `Full` (the loop thread's
//! enqueue), and a worker takes one job per `recv` until disconnect (the
//! worker loop).
//!
//! Mutants:
//! * `racy-shed-counter` — the shed counter becomes a plain read-modify-write
//!   on an unsynchronized cell; two shedding producers race on it.
//! * `lost-job-on-full` — a full queue drops the job without counting it, so
//!   the conservation invariant `processed + shed == submitted` breaks.

use std::sync::Arc;

use chason_race::atomic::{AtomicUsize, Ordering};
use chason_race::cell::RaceCell;
use chason_race::thread;
use crossbeam::channel;

use crate::{join, ModelDef};

/// A job is its serial; serials are globally unique.
type Job = usize;

const PRODUCERS: usize = 2;
const JOBS_PER_PRODUCER: usize = 2;

fn drain(rx: &channel::Receiver<Job>) -> Vec<Job> {
    let mut processed = Vec::new();
    while let Ok(job) = rx.recv() {
        processed.push(job);
    }
    processed
}

/// Correct extract: shed on `Full` via an atomic counter; every submitted
/// job is either processed or shed, and serials never duplicate.
fn ok() {
    let (tx, rx) = channel::bounded::<Job>(2);
    let shed = Arc::new(AtomicUsize::new(0));
    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
        let tx = tx.clone();
        let shed = Arc::clone(&shed);
        producers.push(thread::spawn(move || {
            for i in 0..JOBS_PER_PRODUCER {
                if tx.try_send(p * 10 + i).is_err() {
                    shed.fetch_add(1, Ordering::SeqCst);
                }
            }
        }));
    }
    drop(tx); // the worker's recv loop ends when the last producer exits
    let worker = thread::spawn(move || drain(&rx));
    for handle in producers {
        join(handle);
    }
    let processed = join(worker);
    let shed = shed.load(Ordering::SeqCst);
    assert_eq!(
        processed.len() + shed,
        PRODUCERS * JOBS_PER_PRODUCER,
        "jobs lost or duplicated (processed {processed:?}, shed {shed})"
    );
    let mut unique = processed.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        processed.len(),
        "duplicate serials {processed:?}"
    );
}

/// Mutant: the shed counter is a naive load-then-store on a shared cell.
/// The queue is pre-filled so both producers shed, and their unsynchronized
/// read-modify-writes race.
fn racy_shed_counter() {
    let (tx, rx) = channel::bounded::<Job>(1);
    assert!(tx.try_send(99).is_ok()); // pre-fill: every producer send sheds
    let shed = Arc::new(RaceCell::new(0usize));
    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
        let tx = tx.clone();
        let shed = Arc::clone(&shed);
        producers.push(thread::spawn(move || {
            if tx.try_send(p).is_err() {
                let seen = shed.get(); // BUG: unsynchronized RMW
                shed.set(seen + 1);
            }
        }));
    }
    for handle in producers {
        join(handle);
    }
    drop(rx);
}

/// Mutant: a full queue silently drops the job instead of counting a shed,
/// breaking `processed + shed == submitted`.
fn lost_job_on_full() {
    let (tx, rx) = channel::bounded::<Job>(2);
    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
        let tx = tx.clone();
        producers.push(thread::spawn(move || {
            for i in 0..JOBS_PER_PRODUCER {
                let _ = tx.try_send(p * 10 + i); // BUG: Full is dropped uncounted
            }
        }));
    }
    drop(tx);
    let worker = thread::spawn(move || drain(&rx));
    for handle in producers {
        join(handle);
    }
    let processed = join(worker);
    assert_eq!(
        processed.len(),
        PRODUCERS * JOBS_PER_PRODUCER,
        "jobs vanished (processed {processed:?})"
    );
}

/// The `serve-queue` suite.
pub fn models() -> Vec<ModelDef> {
    vec![
        ModelDef {
            suite: "serve-queue",
            name: "ok",
            about: "bounded queue + atomic shed + one job per recv",
            expect_violation: false,
            spurious: 0,
            run: ok,
        },
        ModelDef {
            suite: "serve-queue",
            name: "racy-shed-counter",
            about: "shed counter as unsynchronized load-then-store",
            expect_violation: true,
            spurious: 0,
            run: racy_shed_counter,
        },
        ModelDef {
            suite: "serve-queue",
            name: "lost-job-on-full",
            about: "Full drops the job without counting a shed",
            expect_violation: true,
            spurious: 0,
            run: lost_job_on_full,
        },
    ]
}
