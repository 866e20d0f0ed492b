//! Lock-free metrics: counters, gauges, fixed-bucket histograms, and the
//! registry that names and renders them.
//!
//! Registration takes a short-lived lock on a name map and hands back an
//! `Arc` handle; every subsequent record on the handle is a relaxed atomic
//! op, so the hot path never contends. Histograms use power-of-two
//! buckets (`[0]`, `[1]`, `[2,3]`, `[4,7]`, …) — coarse at the top, exact
//! at the bottom — and additionally track the exact sum, count and
//! maximum, so single-mode distributions report exact maxima and quantile
//! estimates are clamped to observed values.

use crate::lock_unpoisoned;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed bucket count of every [`Histogram`]: one bucket per power of two
/// of `u64`, so any value indexes without range checks.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Bucket a value lands in: `0 → 0`, and `v ∈ [2^(k-1), 2^k) → k`,
/// saturating at the last bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of a bucket (the Prometheus `le` label).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`. A no-op under `telemetry-off`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An atomic gauge: a value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value. A no-op under `telemetry-off`.
    #[inline]
    pub fn set(&self, value: u64) {
        if crate::enabled() {
            self.value.store(value, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `value` if it is higher (high-water marks).
    /// A no-op under `telemetry-off`.
    #[inline]
    pub fn observe_max(&self, value: u64) {
        if crate::enabled() {
            self.value.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket concurrent histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. A no-op under `telemetry-off`.
    #[inline]
    pub fn record(&self, value: u64) {
        if crate::enabled() {
            self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(value, Ordering::Relaxed);
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the upper
    /// bound of the first bucket whose cumulative count reaches the rank,
    /// clamped to the exact observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return bucket_upper_bound(i).min(self.max());
            }
        }
        self.max()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Named metric handles plus a deterministic text exposition.
///
/// `counter`/`gauge`/`histogram` are get-or-register: the first call for a
/// name creates the metric, later calls return the same handle, so
/// instrument sites need no coordination. Names should follow the
/// `snake_case` scheme of DESIGN.md §10 (`<component>_<what>[_total]`).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock_unpoisoned(&self.counters);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge registered under `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock_unpoisoned(&self.gauges);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Returns the histogram registered under `name`, creating it if
    /// absent.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock_unpoisoned(&self.histograms);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Renders every metric as Prometheus-style text exposition.
    ///
    /// Families are sorted by name (counters, then gauges, then
    /// histograms), so the output is deterministic for a given state.
    /// Histograms emit cumulative `_bucket{le="…"}` lines for non-empty
    /// buckets, `_sum`, `_count`, and a non-standard `_max` line carrying
    /// the exact maximum.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, counter) in lock_unpoisoned(&self.counters).iter() {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", counter.get());
        }
        for (name, gauge) in lock_unpoisoned(&self.gauges).iter() {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", gauge.get());
        }
        for (name, histogram) in lock_unpoisoned(&self.histograms).iter() {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, n) in histogram.bucket_counts().iter().enumerate() {
                if *n > 0 {
                    cumulative += n;
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{le=\"{}\"}} {cumulative}",
                        bucket_upper_bound(i)
                    );
                }
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", histogram.count());
            let _ = writeln!(out, "{name}_sum {}", histogram.sum());
            let _ = writeln!(out, "{name}_count {}", histogram.count());
            let _ = writeln!(out, "{name}_max {}", histogram.max());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(feature = "telemetry-off"))]
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // The exposition format bakes the bucket count in; a change must
        // be deliberate.
        assert_eq!(HISTOGRAM_BUCKETS, 64);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every value is ≤ its bucket's upper bound and > the previous
        // bucket's.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn counter_and_gauge_record() {
        let c = Counter::new();
        c.add(2);
        c.add(3);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(9);
        g.observe_max(4); // lower: no effect
        assert_eq!(g.get(), 9);
        g.observe_max(11);
        assert_eq!(g.get(), 11);
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn histogram_tracks_exact_aggregates_and_bounded_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // Quantile estimates are bucket upper bounds: never below the true
        // quantile, never above the observed max.
        let p50 = h.quantile(0.50);
        assert!((50..=100).contains(&p50), "{p50}");
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), h.quantile(1e-9));
        // A single sample is reported exactly at every quantile.
        let one = Histogram::new();
        one.record(40);
        assert_eq!(one.quantile(0.5), 40);
        assert_eq!(one.quantile(0.99), 40);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[cfg(not(feature = "telemetry-off"))]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Quantile estimates never under-report: the estimate is an upper
        /// bound of the true quantile and never exceeds the true maximum.
        #[test]
        fn quantile_estimates_bound_the_truth(
            mut samples in proptest::collection::vec(any::<u64>(), 1..300),
            q in 0.0f64..=1.0,
        ) {
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            samples.sort_unstable();
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            let estimate = h.quantile(q);
            prop_assert!(estimate >= truth, "estimate {estimate} < true quantile {truth}");
            prop_assert!(estimate <= *samples.last().expect("non-empty"));
        }
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let r = Registry::new();
        let c1 = r.counter("x_total");
        let c2 = r.counter("x_total");
        assert!(Arc::ptr_eq(&c1, &c2));
        c1.add(1);
        assert_eq!(c2.get(), c1.get());
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn exposition_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").add(1);
        r.gauge("depth").set(5);
        r.histogram("lat_micros").record(3);
        let text = r.render_prometheus();
        let a = text.find("a_total 1").expect("a_total");
        let b = text.find("b_total 2").expect("b_total");
        assert!(a < b, "families must be name-sorted:\n{text}");
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("lat_micros_bucket{le=\"3\"} 1"));
        assert!(text.contains("lat_micros_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_micros_sum 3"));
        assert!(text.contains("lat_micros_count 1"));
        assert!(text.contains("lat_micros_max 3"));
    }

    #[cfg(feature = "telemetry-off")]
    #[test]
    fn disabled_build_records_nothing() {
        let c = Counter::new();
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = Histogram::new();
        h.record(10);
        assert_eq!(h.count(), 0);
    }
}
