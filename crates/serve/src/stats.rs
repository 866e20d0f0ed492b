//! Server-side metrics behind [`Reply::Stats`](crate::proto::Reply) and
//! the Prometheus-style exposition behind
//! [`Reply::MetricsText`](crate::proto::Reply).
//!
//! All counters live in a [`chason_telemetry`] [`Registry`] under the
//! `chsp_*` namespace (DESIGN.md §10); the struct fields here are `Arc`
//! handles resolved once at startup, so the request hot path is a relaxed
//! atomic op with no name lookup and no lock. Service times feed a
//! fixed-bucket [`Histogram`] — quantiles are power-of-two upper-bound
//! estimates clamped to the exact observed maximum, over the full history
//! rather than a sliding window.

use crate::proto::StatsSnapshot;
use chason_core::cache::CacheStats;
use chason_telemetry::metrics::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Instant;

pub use chason_telemetry::lock_unpoisoned;

/// Request-type counters a connection thread bumps when it accepts work.
#[derive(Debug)]
pub struct RequestCounters {
    /// `LoadMatrix` accepted (`chsp_requests_load_total`).
    pub load: Arc<Counter>,
    /// `Spmv` accepted (`chsp_requests_spmv_total`).
    pub spmv: Arc<Counter>,
    /// `Solve` accepted (`chsp_requests_solve_total`).
    pub solve: Arc<Counter>,
    /// `Plan` accepted (`chsp_requests_plan_total`).
    pub plan: Arc<Counter>,
    /// `Stats` served inline (`chsp_requests_stats_total`).
    pub stats: Arc<Counter>,
    /// `Sleep` accepted (`chsp_requests_sleep_total`).
    pub sleep: Arc<Counter>,
    /// `Metrics` served inline (`chsp_requests_metrics_total`).
    pub metrics: Arc<Counter>,
    /// `Update` accepted (`chsp_requests_update_total`).
    pub update: Arc<Counter>,
}

impl RequestCounters {
    fn new(registry: &Registry) -> Self {
        RequestCounters {
            load: registry.counter("chsp_requests_load_total"),
            spmv: registry.counter("chsp_requests_spmv_total"),
            solve: registry.counter("chsp_requests_solve_total"),
            plan: registry.counter("chsp_requests_plan_total"),
            stats: registry.counter("chsp_requests_stats_total"),
            sleep: registry.counter("chsp_requests_sleep_total"),
            metrics: registry.counter("chsp_requests_metrics_total"),
            update: registry.counter("chsp_requests_update_total"),
        }
    }
}

/// All mutable server telemetry; shared by every connection and worker
/// thread.
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    registry: Registry,
    /// Per-opcode acceptance counters.
    pub requests: RequestCounters,
    /// Requests rejected with `Busy` (`chsp_shed_total`).
    pub shed: Arc<Counter>,
    /// Cached plans incrementally respliced after matrix updates
    /// (`chsp_plans_spliced_total`).
    pub plans_spliced: Arc<Counter>,
    /// Column windows re-scheduled across all splices
    /// (`chsp_replan_windows_total`).
    pub replan_windows: Arc<Counter>,
    queue_depth_hwm: Arc<Gauge>,
    service: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
}

impl ServerStats {
    /// Creates zeroed counters with the clock starting now.
    pub fn new() -> Self {
        let registry = Registry::new();
        let requests = RequestCounters::new(&registry);
        let shed = registry.counter("chsp_shed_total");
        let plans_spliced = registry.counter("chsp_plans_spliced_total");
        let replan_windows = registry.counter("chsp_replan_windows_total");
        let queue_depth_hwm = registry.gauge("chsp_queue_depth_hwm");
        let service = registry.histogram("chsp_service_micros");
        let queue_wait = registry.histogram("chsp_queue_wait_micros");
        ServerStats {
            started: Instant::now(),
            registry,
            requests,
            shed,
            plans_spliced,
            replan_windows,
            queue_depth_hwm,
            service,
            queue_wait,
        }
    }

    /// The registry every `chsp_*` metric lives in. A frontend embedding
    /// these stats (e.g. the CHSP router) registers its own metrics here
    /// so one `Metrics` reply exposes both families.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one completed request's execution time (queue wait
    /// excluded — that goes to [`record_queue_wait_micros`]).
    ///
    /// [`record_queue_wait_micros`]: ServerStats::record_queue_wait_micros
    pub fn record_service_micros(&self, micros: u64) {
        self.service.record(micros);
    }

    /// Records how long one request sat in the queue before a worker
    /// dequeued it.
    pub fn record_queue_wait_micros(&self, micros: u64) {
        self.queue_wait.record(micros);
    }

    /// Raises the queue-depth high-water mark to `depth` if it is higher.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth_hwm.observe_max(depth);
    }

    /// Assembles the wire snapshot from these counters plus the two
    /// caches' state (sampled by the caller under the cache locks).
    pub fn snapshot(
        &self,
        plan_cache: CacheStats,
        matrices_resident: u64,
        matrix_evictions: u64,
    ) -> StatsSnapshot {
        StatsSnapshot {
            uptime_millis: self.started.elapsed().as_millis() as u64,
            requests_load: self.requests.load.get(),
            requests_spmv: self.requests.spmv.get(),
            requests_solve: self.requests.solve.get(),
            requests_plan: self.requests.plan.get(),
            requests_stats: self.requests.stats.get(),
            requests_sleep: self.requests.sleep.get(),
            shed: self.shed.get(),
            batched: 0,
            queue_depth_hwm: self.queue_depth_hwm.get(),
            plan_cache_hits: plan_cache.hits,
            plan_cache_misses: plan_cache.misses,
            plan_cache_evictions: plan_cache.evictions,
            plan_cache_len: plan_cache.len as u64,
            plan_cache_capacity: plan_cache.capacity as u64,
            matrices_resident,
            matrix_evictions,
            service_p50_micros: self.service.quantile(0.50),
            service_p99_micros: self.service.quantile(0.99),
            service_max_micros: self.service.max(),
            service_samples: self.service.count(),
            queue_p50_micros: self.queue_wait.quantile(0.50),
            queue_p99_micros: self.queue_wait.quantile(0.99),
            queue_max_micros: self.queue_wait.max(),
            requests_update: self.requests.update.get(),
            plans_spliced: self.plans_spliced.get(),
            replan_windows: self.replan_windows.get(),
        }
    }

    /// Renders the full registry as Prometheus-style text, first copying
    /// the caller-sampled cache state and uptime into gauges so every
    /// `Stats` field also appears in the exposition.
    pub fn render_exposition(
        &self,
        plan_cache: CacheStats,
        matrices_resident: u64,
        matrix_evictions: u64,
    ) -> String {
        let set = |name: &str, value: u64| self.registry.gauge(name).set(value);
        set(
            "chsp_uptime_millis",
            self.started.elapsed().as_millis() as u64,
        );
        set("chsp_plan_cache_hits", plan_cache.hits);
        set("chsp_plan_cache_misses", plan_cache.misses);
        set("chsp_plan_cache_evictions", plan_cache.evictions);
        set("chsp_plan_cache_len", plan_cache.len as u64);
        set("chsp_plan_cache_capacity", plan_cache.capacity as u64);
        set("chsp_matrices_resident", matrices_resident);
        set("chsp_matrix_evictions", matrix_evictions);
        self.registry.render_prometheus()
    }
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::new()
    }
}

#[cfg(all(test, not(feature = "telemetry-off")))]
mod tests {
    use super::*;

    fn cache_stats() -> CacheStats {
        CacheStats {
            hits: 8,
            misses: 2,
            evictions: 1,
            len: 1,
            capacity: 4,
        }
    }

    #[test]
    fn snapshot_reflects_counters() {
        let stats = ServerStats::new();
        stats.requests.spmv.add(3);
        stats.shed.add(2);
        stats.observe_queue_depth(5);
        stats.observe_queue_depth(3); // lower: must not regress the HWM
        stats.record_service_micros(40);
        stats.record_queue_wait_micros(7);
        let snap = stats.snapshot(cache_stats(), 6, 1);
        assert_eq!(snap.requests_spmv, 3);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.queue_depth_hwm, 5);
        assert_eq!(snap.plan_cache_hits, 8);
        assert!((snap.plan_hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(snap.matrices_resident, 6);
        // A single sample is exact at every quantile (clamped to the max).
        assert_eq!(snap.service_p50_micros, 40);
        assert_eq!(snap.service_p99_micros, 40);
        assert_eq!(snap.service_max_micros, 40);
        assert_eq!(snap.service_samples, 1);
        // Queue wait is tracked separately, not folded into service time.
        assert_eq!(snap.queue_p50_micros, 7);
        assert_eq!(snap.queue_max_micros, 7);
        assert_eq!(snap.requests_executed(), 3);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let stats = ServerStats::new();
        for micros in 1..=1000u64 {
            stats.record_service_micros(micros);
        }
        let snap = stats.snapshot(cache_stats(), 0, 0);
        // Estimates are power-of-two upper bounds: at or above the true
        // quantile, never above the exact maximum.
        assert!((500..=1000).contains(&snap.service_p50_micros));
        assert!((990..=1000).contains(&snap.service_p99_micros));
        assert_eq!(snap.service_max_micros, 1000);
        assert_eq!(snap.service_samples, 1000);
    }

    #[test]
    fn exposition_covers_every_snapshot_field() {
        let stats = ServerStats::new();
        stats.requests.load.add(1);
        stats.requests.metrics.add(2);
        stats.observe_queue_depth(7);
        stats.record_service_micros(100);
        stats.record_queue_wait_micros(9);
        let text = stats.render_exposition(cache_stats(), 6, 1);
        for needle in [
            "chsp_requests_load_total 1",
            "chsp_requests_metrics_total 2",
            "chsp_queue_depth_hwm 7",
            "chsp_plan_cache_hits 8",
            "chsp_matrices_resident 6",
            "chsp_service_micros_count 1",
            "chsp_service_micros_max 100",
            "# TYPE chsp_service_micros histogram",
            "chsp_queue_wait_micros_count 1",
            "chsp_queue_wait_micros_max 9",
            "# TYPE chsp_queue_wait_micros histogram",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
