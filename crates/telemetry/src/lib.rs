//! Zero-cost observability for the Chason workspace.
//!
//! Three layers, all pure `std`:
//!
//! * [`metrics`] — a lock-free [`Registry`](metrics::Registry) of atomic
//!   [`Counter`](metrics::Counter)s, [`Gauge`](metrics::Gauge)s and
//!   fixed-bucket [`Histogram`](metrics::Histogram)s, plus a
//!   Prometheus-style text exposition;
//! * [`trace`] — span tracing into a bounded ring-buffer
//!   [`FlightRecorder`](trace::FlightRecorder) with lossless JSONL export,
//!   deterministic under the [`Clock::fixed`](trace::Clock::fixed) source
//!   so traces can be committed as golden files;
//! * a process-wide [`Telemetry`] instance ([`global`]) so deep call sites
//!   (solver iterations, worker threads) can emit without plumbing.
//!
//! The JSONL export parses back through [`json`], the fixed-schema byte
//! cursor and string escaper the bench crate's `BENCH_*.json` reports
//! share.
//!
//! # The `telemetry-off` feature
//!
//! With `--features telemetry-off` every recording site compiles to a
//! no-op: [`enabled`] is a `const fn` returning `false`, and all record
//! paths branch on it, so the optimizer deletes them. Read paths (renders,
//! snapshots) still exist and report zeros; callers never need `cfg`
//! guards.
//!
//! # Example
//!
//! ```
//! use chason_telemetry::metrics::Registry;
//! use chason_telemetry::trace::{Clock, FlightRecorder, SpanEvent};
//!
//! let registry = Registry::new();
//! let served = registry.counter("chsp_requests_spmv_total");
//! served.add(1);
//!
//! let clock = Clock::fixed();
//! let recorder = FlightRecorder::new(16);
//! let start = clock.now();
//! // ... work ...
//! recorder.record(SpanEvent::new("spmv", start, clock.now()));
//! # if chason_telemetry::enabled() {
//! assert!(registry.render_prometheus().contains("chsp_requests_spmv_total 1"));
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// `true` unless the crate was built with the `telemetry-off` feature.
///
/// A `const fn`, so `if enabled() { ... }` folds away entirely in
/// disabled builds — use it to skip argument construction ahead of a
/// record call.
pub const fn enabled() -> bool {
    cfg!(not(feature = "telemetry-off"))
}

/// Locks a mutex, continuing through poisoning: these are observability
/// structures, and a panicking worker must not take telemetry down with
/// it.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bundled registry + flight recorder + clock: one observability
/// surface an instrumented component hangs everything on.
#[derive(Debug)]
pub struct Telemetry {
    registry: metrics::Registry,
    recorder: trace::FlightRecorder,
    clock: trace::Clock,
}

impl Telemetry {
    /// Creates a telemetry surface with the given clock and flight-recorder
    /// capacity (spans kept before the oldest are dropped).
    pub fn new(clock: trace::Clock, recorder_capacity: usize) -> Self {
        Telemetry {
            registry: metrics::Registry::new(),
            recorder: trace::FlightRecorder::new(recorder_capacity),
            clock,
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &metrics::Registry {
        &self.registry
    }

    /// The span flight recorder.
    pub fn recorder(&self) -> &trace::FlightRecorder {
        &self.recorder
    }

    /// The clock timestamps are drawn from.
    pub fn clock(&self) -> &trace::Clock {
        &self.clock
    }
}

/// Spans the process-global recorder keeps before dropping the oldest.
pub const GLOBAL_RECORDER_CAPACITY: usize = 4096;

/// The process-wide telemetry instance (wall clock, bounded recorder).
///
/// Deep call sites — solver iteration loops, worker threads — emit here
/// rather than threading a `&Telemetry` through every signature.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(|| Telemetry::new(trace::Clock::wall(), GLOBAL_RECORDER_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_a_singleton() {
        let a = global() as *const Telemetry;
        let b = global() as *const Telemetry;
        assert_eq!(a, b);
        assert_eq!(global().recorder().capacity(), GLOBAL_RECORDER_CAPACITY);
    }

    #[test]
    fn lock_unpoisoned_survives_a_panicked_holder() {
        let shared = std::sync::Arc::new(Mutex::new(7u32));
        let clone = shared.clone();
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        assert_eq!(*lock_unpoisoned(&shared), 7);
    }

    #[test]
    fn enabled_matches_the_feature() {
        assert_eq!(enabled(), cfg!(not(feature = "telemetry-off")));
    }
}
