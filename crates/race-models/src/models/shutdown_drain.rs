//! Producer/consumer shutdown drain: the dispatch core's exit path. The
//! producer enqueues its last jobs and hangs up; the worker drains until
//! disconnect and *publishes* its tally with a release store that a
//! concurrent observer reads through an acquire load.
//!
//! Mutants:
//! * `relaxed-publish` — the `done` flag is stored `Relaxed`, so the
//!   observer's read of the (non-atomic) tally has no happens-before edge to
//!   the worker's write: a data race the dropped fence was hiding.
//! * `missing-drain` — the worker polls `try_recv` instead of blocking until
//!   disconnect, so it can exit before the producer has enqueued anything.

use std::sync::Arc;

use chason_race::atomic::{AtomicBool, Ordering};
use chason_race::cell::RaceCell;
use chason_race::thread;
use crossbeam::channel;

use crate::{join, ModelDef};

const SUBMITTED: usize = 2;

struct Shared {
    done: AtomicBool,
    tally: RaceCell<usize>,
}

fn run_with(publish: Ordering, drain: fn(&channel::Receiver<u32>) -> usize) {
    let (tx, rx) = channel::bounded::<u32>(4);
    let shared = Arc::new(Shared {
        done: AtomicBool::new(false),
        tally: RaceCell::new(0),
    });

    let producer = thread::spawn(move || {
        assert!(tx.try_send(1).is_ok());
        assert!(tx.try_send(2).is_ok());
        // tx drops here: the disconnect is the shutdown signal
    });

    let worker_shared = Arc::clone(&shared);
    let worker = thread::spawn(move || {
        let drained = drain(&rx);
        worker_shared.tally.set(drained);
        worker_shared.done.store(true, publish);
    });

    let observer_shared = Arc::clone(&shared);
    let observer = thread::spawn(move || {
        // One-shot check, not a spin loop: the scheduler explores both the
        // flag-up and flag-down interleavings (DESIGN.md §12).
        if observer_shared.done.load(Ordering::Acquire) {
            assert_eq!(
                observer_shared.tally.get(),
                SUBMITTED,
                "tally read before drain"
            );
        }
    });

    join(producer);
    join(worker);
    join(observer);
    assert_eq!(shared.tally.get(), SUBMITTED, "drain incomplete at join");
}

fn drain_blocking(rx: &channel::Receiver<u32>) -> usize {
    let mut drained = 0;
    while rx.recv().is_ok() {
        drained += 1;
    }
    drained
}

fn drain_polling(rx: &channel::Receiver<u32>) -> usize {
    let mut drained = 0;
    // BUG: `Err(Empty)` and `Err(Disconnected)` are conflated, so an empty
    // queue ends the drain while the producer is still running.
    while rx.try_recv().is_ok() {
        drained += 1;
    }
    drained
}

fn ok() {
    run_with(Ordering::Release, drain_blocking);
}

fn relaxed_publish() {
    // relaxed: seeded bug under test — the checker must flag the missing
    // release edge as a data race on the tally cell.
    run_with(Ordering::Relaxed, drain_blocking);
}

fn missing_drain() {
    run_with(Ordering::Release, drain_polling);
}

/// The `shutdown-drain` suite.
pub fn models() -> Vec<ModelDef> {
    vec![
        ModelDef {
            suite: "shutdown-drain",
            name: "ok",
            about: "blocking drain to disconnect, release/acquire publish",
            expect_violation: false,
            spurious: 0,
            run: ok,
        },
        ModelDef {
            suite: "shutdown-drain",
            name: "relaxed-publish",
            about: "done flag stored Relaxed: tally read races worker write",
            expect_violation: true,
            spurious: 0,
            run: relaxed_publish,
        },
        ModelDef {
            suite: "shutdown-drain",
            name: "missing-drain",
            about: "try_recv poll conflates Empty with Disconnected",
            expect_violation: true,
            spurious: 0,
            run: missing_drain,
        },
    ]
}
