//! Concurrent use of the real [`chason_core::LruCache`] behind a mutex —
//! the idiom of the resident tables in `chason serve` and `chason route`.
//! Exhaustively checks that the hit/miss/eviction counters stay consistent
//! across every interleaving of two clients, and that per-op locking
//! (lock, touch, unlock) is enough.
//!
//! Mutant:
//! * `toctou-insert` — a check-then-insert spans two lock acquisitions; two
//!   clients both observe the key absent and both insert, breaking the
//!   "exactly one freshness miss" accounting that per-op locking appears to
//!   provide.

use std::sync::Arc;

use chason_core::LruCache;
use chason_race::atomic::{AtomicUsize, Ordering};
use chason_race::sync::Mutex;
use chason_race::thread;

use crate::{join, lock, ModelDef};

/// Correct extract: each cache op takes the lock for its full duration.
/// Three distinct keys into capacity 2 force exactly one eviction no matter
/// the order; two `get`s contribute exactly two hit-or-miss ticks.
fn ok() {
    let cache = Arc::new(Mutex::new(LruCache::<u32, u32>::new(2)));

    let c1 = Arc::clone(&cache);
    let t1 = thread::spawn(move || {
        let _ = lock(&c1).insert(1, 10);
        let _ = lock(&c1).get(&1);
        let _ = lock(&c1).insert(2, 20);
    });
    let c2 = Arc::clone(&cache);
    let t2 = thread::spawn(move || {
        let _ = lock(&c2).insert(3, 30);
        let _ = lock(&c2).get(&2);
    });
    join(t1);
    join(t2);

    let guard = lock(&cache);
    let stats = guard.stats();
    assert_eq!(stats.capacity, 2);
    assert_eq!(stats.len, 2, "3 distinct keys into capacity 2");
    assert_eq!(stats.evictions, 1, "exactly one eviction in every order");
    assert_eq!(stats.hits + stats.misses, 2, "two gets, two ticks");
}

/// Mutant: `contains` check and `insert` under *separate* lock
/// acquisitions. Both clients can pass the check before either inserts.
fn toctou_insert() {
    let cache = Arc::new(Mutex::new(LruCache::<u32, u32>::new(2)));
    let fresh_inserts = Arc::new(AtomicUsize::new(0));
    let mut clients = Vec::new();
    for _ in 0..2 {
        let cache = Arc::clone(&cache);
        let fresh_inserts = Arc::clone(&fresh_inserts);
        clients.push(thread::spawn(move || {
            if !lock(&cache).contains(&7) {
                // BUG: the key can appear between the check and this insert
                let _ = lock(&cache).insert(7, 1);
                fresh_inserts.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    for handle in clients {
        join(handle);
    }
    assert_eq!(
        fresh_inserts.load(Ordering::SeqCst),
        1,
        "double fresh insert of key 7"
    );
}

/// The `lru-cache` suite.
pub fn models() -> Vec<ModelDef> {
    vec![
        ModelDef {
            suite: "lru-cache",
            name: "ok",
            about: "per-op locking keeps hit/miss/eviction counters coherent",
            expect_violation: false,
            spurious: 0,
            run: ok,
        },
        ModelDef {
            suite: "lru-cache",
            name: "toctou-insert",
            about: "contains/insert under separate locks double-inserts",
            expect_violation: true,
            spurious: 0,
            run: toctou_insert,
        },
    ]
}
