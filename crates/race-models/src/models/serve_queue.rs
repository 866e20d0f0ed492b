//! The bounded job queue of `chason_serve::dispatch`, the core both
//! `chason serve` and `chason route` run on, reduced to its sync skeleton:
//! producers `try_send` and count a *shed* on `Full` (the loop thread's
//! enqueue), a worker drains until disconnect and batches same-key jobs
//! with `try_recv_if` (the worker-loop batching).
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

/// Jobs are `(key, serial)`; serials are globally unique.
type Job = (usize, usize);

const PRODUCERS: usize = 2;
const JOBS_PER_PRODUCER: usize = 2;
const BATCH_LIMIT: usize = 2;

fn drain_batching(rx: &channel::Receiver<Job>) -> (Vec<usize>, usize) {
    let mut processed = Vec::new();
    let mut max_batch = 0;
    while let Ok(head) = rx.recv() {
        let key = head.0;
        let mut batch = vec![head];
        while batch.len() < BATCH_LIMIT {
            match rx.try_recv_if(|job| job.0 == key) {
                Some(job) => batch.push(job),
                None => break,
            }
        }
        max_batch = max_batch.max(batch.len());
        processed.extend(batch.into_iter().map(|job| job.1));
    }
    (processed, max_batch)
}

/// Correct extract: shed on `Full` via an atomic counter; every submitted
/// job is either processed or shed, serials never duplicate, and key
/// batching never exceeds its limit.
fn ok() {
    let (tx, rx) = channel::bounded::<Job>(2);
    let shed = Arc::new(AtomicUsize::new(0));
    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
        let tx = tx.clone();
        let shed = Arc::clone(&shed);
        producers.push(thread::spawn(move || {
            for i in 0..JOBS_PER_PRODUCER {
                if tx.try_send((p, p * 10 + i)).is_err() {
                    shed.fetch_add(1, Ordering::SeqCst);
                }
            }
        }));
    }
    drop(tx); // the worker's recv loop ends when the last producer exits
    let worker = thread::spawn(move || drain_batching(&rx));
    for handle in producers {
        join(handle);
    }
    let (processed, max_batch) = join(worker);
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
    assert!(max_batch <= BATCH_LIMIT, "batch overrun: {max_batch}");
}

/// Mutant: the shed counter is a naive load-then-store on a shared cell.
/// The queue is pre-filled so both producers shed, and their unsynchronized
/// read-modify-writes race.
fn racy_shed_counter() {
    let (tx, rx) = channel::bounded::<Job>(1);
    assert!(tx.try_send((9, 99)).is_ok()); // pre-fill: every producer send sheds
    let shed = Arc::new(RaceCell::new(0usize));
    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
        let tx = tx.clone();
        let shed = Arc::clone(&shed);
        producers.push(thread::spawn(move || {
            if tx.try_send((p, p)).is_err() {
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
                let _ = tx.try_send((p, p * 10 + i)); // BUG: Full is dropped uncounted
            }
        }));
    }
    drop(tx);
    let worker = thread::spawn(move || drain_batching(&rx));
    for handle in producers {
        join(handle);
    }
    let (processed, _) = join(worker);
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
            about: "bounded queue + atomic shed + try_recv_if key batching",
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
