//! Deterministic load generator for a CHSP server.
//!
//! `chason loadgen` drives a mixed workload — roughly 60% SpMV across all
//! three backends, 20% iterative solves, 10% plan fetches, 10% stats
//! polls — from N concurrent connections. Every connection runs the same
//! driver: it keeps up to `--pipeline DEPTH` requests in flight, so the
//! default depth 1 is a closed loop (next request only after the previous
//! reply), and `--open-loop RPS` switches to scheduled arrivals that do
//! not wait for replies at all, so a single loadgen process can drive 1k+
//! connections against the readiness loop. The request schedule is a pure
//! function of `(seed, connection index)`, so a run is reproducible
//! end-to-end; the only nondeterminism is timing. `Busy` replies are
//! retried once their `retry_after_ms` hint has passed and counted, never
//! treated as errors: shedding is the server behaving as specified.

use crate::client::{Client, ClientError};
use crate::proto::{
    decode_reply, encode_request, read_frame_blocking, write_frame, Engine, FrameEvent,
    FrameReader, ProtoError, Reply, Request, SolverKind, StatsSnapshot, DEFAULT_MAX_FRAME,
};
use crate::server::{ServeConfig, Server};
use chason_sparse::CooMatrix;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Knobs of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Concurrent connections.
    pub connections: usize,
    /// Total requests across all connections (setup `LoadMatrix` uploads
    /// are extra).
    pub requests: usize,
    /// Workload seed; same seed, same request schedule.
    pub seed: u64,
    /// Server to drive; `None` starts an in-process server on an
    /// ephemeral port and shuts it down afterwards.
    pub addr: Option<String>,
    /// Fail the run unless the server reports at least one plan-cache
    /// hit.
    pub require_hits: bool,
    /// Percentage (0–100) of requests that are `Update` deltas churning
    /// the shared matrices. Churn revalues diagonal entries upward, so
    /// any interleaving across connections stays valid and every system
    /// stays SPD.
    pub churn: u64,
    /// The target is a `chason route` frontend: `Plan` requests (which a
    /// router refuses — plans live on the shards) become extra `Stats`
    /// polls, and the report gains a router section parsed from the
    /// `router_*` metrics (per-shard request balance, gather-latency
    /// percentiles, scatter failures). Requires `addr`.
    pub router: bool,
    /// Most requests kept in flight per connection. `1` (the default) is
    /// the classic closed loop; larger depths pipeline requests — each
    /// connection writes up to `pipeline` frames before reading, matching
    /// replies FIFO (CHSP replies are strictly ordered per connection).
    /// A `Busy` drops the window to one; it grows back by one per success
    /// once a further `retry_after_ms` has passed without a `Busy`.
    pub pipeline: usize,
    /// Open-loop arrival mode: requests are sent on a fixed schedule of
    /// this many requests per second (aggregate, split evenly across
    /// connections) instead of waiting for replies. Latency is measured
    /// from the *scheduled* arrival, so queueing delay from a slow server
    /// is not hidden (no coordinated omission). The in-flight window is
    /// still capped at `pipeline.max(1)` per connection so unread replies
    /// stay bounded; a send that misses its slot goes out late and the
    /// lateness shows up in the percentiles.
    pub open_loop_rps: Option<u64>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            connections: 4,
            requests: 1000,
            seed: 7,
            addr: None,
            require_hits: false,
            churn: 0,
            router: false,
            pipeline: 1,
            open_loop_rps: None,
        }
    }
}

/// Outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests that completed with the expected reply type.
    pub completed: u64,
    /// Requests that failed at the protocol level (decode failures,
    /// unexpected reply types, typed server errors, dropped
    /// connections).
    pub protocol_errors: u64,
    /// `Busy` replies absorbed by retrying.
    pub busy_retries: u64,
    /// Completed requests by type: `[spmv, solve, plan, stats, update]`.
    pub by_type: [u64; 5],
    /// Wall-clock of the whole run in seconds.
    pub elapsed_seconds: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Client-observed request latency percentiles `(p50, p90, p99,
    /// max)`, in microseconds.
    pub latency_micros: (u64, u64, u64, u64),
    /// The server's own counters, fetched after the run.
    pub server_stats: StatsSnapshot,
    /// Router fan-out summary, parsed from the `router_*` metrics after a
    /// `--router` run; `None` against a plain server.
    pub router: Option<RouterLoadReport>,
}

/// Fan-out summary of a load-generation run against a `chason route`
/// frontend, parsed from its Prometheus-style metrics exposition.
#[derive(Debug, Clone)]
pub struct RouterLoadReport {
    /// Requests each shard received (retries included), by shard index.
    pub shard_requests: Vec<u64>,
    /// Shards the router currently reports up.
    pub shards_up: u64,
    /// Shards configured.
    pub shards_total: u64,
    /// `max/mean` of `shard_requests` — 1.0 is a perfectly balanced
    /// fan-out.
    pub request_balance: f64,
    /// Scatter-to-gather latency percentiles `(p50, p90, p99, max)` in
    /// microseconds. Percentiles are power-of-two bucket upper bounds
    /// (clamped to the exact max); the max is exact.
    pub gather_micros: (u64, u64, u64, u64),
    /// `max/mean` nnz balance of the most recently sharded matrix, in
    /// percent (100 = perfectly balanced).
    pub nnz_balance_pct: u64,
    /// Fan-outs that failed on at least one shard.
    pub scatter_failures: u64,
    /// `Busy` replies retried against shards.
    pub shard_retries: u64,
    /// Reconnect-and-resend recoveries on stale pooled connections.
    pub shard_reconnects: u64,
}

impl RouterLoadReport {
    fn render(&self) -> String {
        let (p50, p90, p99, max) = self.gather_micros;
        let mut out = String::from("--- router ---\n");
        out.push_str(&format!(
            "shards up            : {}/{}\n",
            self.shards_up, self.shards_total
        ));
        out.push_str(&format!(
            "shard requests       : {:?} (balance {:.2} max/mean)\n",
            self.shard_requests, self.request_balance
        ));
        out.push_str(&format!(
            "gather latency       : p50 {p50} us, p90 {p90} us, p99 {p99} us, max {max} us\n"
        ));
        out.push_str(&format!(
            "nnz balance          : {}% max/mean\n",
            self.nnz_balance_pct
        ));
        out.push_str(&format!(
            "scatter failures     : {} (busy retries {}, reconnects {})\n",
            self.scatter_failures, self.shard_retries, self.shard_reconnects
        ));
        out
    }

    fn render_json(&self) -> String {
        let (p50, p90, p99, max) = self.gather_micros;
        let requests = self
            .shard_requests
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"shards_up\":{},\"shards_total\":{},\"shard_requests\":[{}],",
                "\"request_balance\":{:.4},\"gather_micros\":{{\"p50\":{},\"p90\":{},",
                "\"p99\":{},\"max\":{}}},\"nnz_balance_pct\":{},\"scatter_failures\":{},",
                "\"shard_retries\":{},\"shard_reconnects\":{}}}"
            ),
            self.shards_up,
            self.shards_total,
            requests,
            self.request_balance,
            p50,
            p90,
            p99,
            max,
            self.nnz_balance_pct,
            self.scatter_failures,
            self.shard_retries,
            self.shard_reconnects,
        )
    }
}

/// The value of one exactly-named metric in a Prometheus-style
/// exposition (labels, if any, are part of `name`).
fn metric_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Nearest-rank percentiles of a rendered power-of-two-bucket histogram:
/// each percentile is the upper bound of the bucket containing its rank
/// (clamped to the exact recorded max), so reported tails are never
/// understated.
fn histogram_quantiles(text: &str, name: &str) -> (u64, u64, u64, u64) {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets: Vec<(u64, u64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let Some((bound, cumulative)) = rest.split_once("\"} ") else {
            continue;
        };
        if let (Ok(bound), Ok(cumulative)) = (bound.parse(), cumulative.trim().parse()) {
            buckets.push((bound, cumulative));
        }
    }
    let count = metric_value(text, &format!("{name}_count")).unwrap_or(0);
    let max = metric_value(text, &format!("{name}_max")).unwrap_or(0);
    let quantile = |p: u64| -> u64 {
        if count == 0 {
            return 0;
        }
        let rank = (count * p).div_ceil(100).max(1);
        buckets
            .iter()
            .find(|&&(_, cumulative)| cumulative >= rank)
            .map_or(max, |&(bound, _)| bound.min(max))
    };
    (quantile(50), quantile(90), quantile(99), max)
}

/// Parses the `router_*` family out of a metrics exposition. Returns
/// `None` when the text carries no `router_shards` gauge (i.e. the target
/// was a plain server).
pub fn parse_router_metrics(text: &str) -> Option<RouterLoadReport> {
    let shards_total = metric_value(text, "router_shards")?;
    let mut shard_requests = Vec::with_capacity(shards_total as usize);
    let mut shards_up = 0u64;
    for k in 0..shards_total {
        shard_requests.push(
            metric_value(
                text,
                &format!("router_shard_requests_total{{shard=\"{k}\"}}"),
            )
            .unwrap_or(0),
        );
        shards_up += metric_value(text, &format!("router_shard_up{{shard=\"{k}\"}}")).unwrap_or(0);
    }
    let max = shard_requests.iter().copied().max().unwrap_or(0);
    let mean = shard_requests.iter().sum::<u64>() as f64 / shard_requests.len().max(1) as f64;
    let request_balance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
    Some(RouterLoadReport {
        shard_requests,
        shards_up,
        shards_total,
        request_balance,
        gather_micros: histogram_quantiles(text, "router_gather_micros"),
        nnz_balance_pct: metric_value(text, "router_nnz_balance_pct").unwrap_or(0),
        scatter_failures: metric_value(text, "router_scatter_failures_total").unwrap_or(0),
        shard_retries: metric_value(text, "router_shard_retries_total").unwrap_or(0),
        shard_reconnects: metric_value(text, "router_shard_reconnects_total").unwrap_or(0),
    })
}

impl LoadgenReport {
    /// Renders the human-readable report `chason loadgen` prints (and the
    /// CI job uploads).
    pub fn render(&self) -> String {
        let (p50, p90, p99, max) = self.latency_micros;
        let mut out = String::new();
        out.push_str(&format!(
            "completed            : {} ({} spmv, {} solve, {} plan, {} stats, {} update)\n",
            self.completed,
            self.by_type[0],
            self.by_type[1],
            self.by_type[2],
            self.by_type[3],
            self.by_type[4]
        ));
        out.push_str(&format!(
            "protocol errors      : {}\n",
            self.protocol_errors
        ));
        out.push_str(&format!("busy retries         : {}\n", self.busy_retries));
        out.push_str(&format!(
            "throughput           : {:.1} req/s over {:.2} s\n",
            self.throughput_rps, self.elapsed_seconds
        ));
        out.push_str(&format!(
            "latency (client)     : p50 {p50} us, p90 {p90} us, p99 {p99} us, max {max} us\n"
        ));
        out.push_str("--- server stats ---\n");
        out.push_str(&self.server_stats.render_table());
        if let Some(router) = &self.router {
            out.push_str(&router.render());
        }
        out
    }

    /// Renders the report as one JSON object (`chason loadgen --format
    /// json`), so CI and scripts can assert on fields instead of grepping
    /// the human text.
    pub fn render_json(&self) -> String {
        let (p50, p90, p99, max) = self.latency_micros;
        let s = &self.server_stats;
        let mut out = String::from("{");
        let mut first = true;
        let mut field = |key: &str, value: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{key}\":{value}"));
        };
        field("completed", self.completed.to_string());
        field("protocol_errors", self.protocol_errors.to_string());
        field("busy_retries", self.busy_retries.to_string());
        field(
            "by_type",
            format!(
                "{{\"spmv\":{},\"solve\":{},\"plan\":{},\"stats\":{},\"update\":{}}}",
                self.by_type[0], self.by_type[1], self.by_type[2], self.by_type[3], self.by_type[4]
            ),
        );
        field("elapsed_seconds", format!("{:.6}", self.elapsed_seconds));
        field("throughput_rps", format!("{:.3}", self.throughput_rps));
        field(
            "latency_micros",
            format!("{{\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"max\":{max}}}"),
        );
        field(
            "server_stats",
            format!(
                concat!(
                    "{{\"uptime_millis\":{},\"requests_load\":{},\"requests_spmv\":{},",
                    "\"requests_solve\":{},\"requests_plan\":{},\"requests_stats\":{},",
                    "\"requests_sleep\":{},\"shed\":{},\"queue_depth_hwm\":{},",
                    "\"plan_cache_hits\":{},\"plan_cache_misses\":{},\"plan_cache_evictions\":{},",
                    "\"plan_cache_len\":{},\"plan_cache_capacity\":{},\"matrices_resident\":{},",
                    "\"matrix_evictions\":{},\"service_p50_micros\":{},\"service_p99_micros\":{},",
                    "\"service_max_micros\":{},\"service_samples\":{},\"queue_p50_micros\":{},",
                    "\"queue_p99_micros\":{},\"queue_max_micros\":{},\"requests_update\":{},",
                    "\"plans_spliced\":{},\"replan_windows\":{}}}"
                ),
                s.uptime_millis,
                s.requests_load,
                s.requests_spmv,
                s.requests_solve,
                s.requests_plan,
                s.requests_stats,
                s.requests_sleep,
                s.shed,
                s.queue_depth_hwm,
                s.plan_cache_hits,
                s.plan_cache_misses,
                s.plan_cache_evictions,
                s.plan_cache_len,
                s.plan_cache_capacity,
                s.matrices_resident,
                s.matrix_evictions,
                s.service_p50_micros,
                s.service_p99_micros,
                s.service_max_micros,
                s.service_samples,
                s.queue_p50_micros,
                s.queue_p99_micros,
                s.queue_max_micros,
                s.requests_update,
                s.plans_spliced,
                s.replan_windows
            ),
        );
        if let Some(router) = &self.router {
            field("router", router.render_json());
        }
        out.push('}');
        out
    }
}

struct ConnOutcome {
    completed: u64,
    protocol_errors: u64,
    busy_retries: u64,
    by_type: [u64; 5],
    latencies: Vec<u64>,
}

/// SplitMix64: tiny, seedable, and good enough to shuffle a workload.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A symmetric, strictly diagonally dominant system (hence SPD), so both
/// CG and Jacobi converge on it. Deterministic in `(n, seed)`.
fn workload_matrix(n: usize, seed: u64) -> CooMatrix {
    let mut rng = seed;
    let mut triplets: Vec<(usize, usize, f32)> = Vec::new();
    let mut row_sum = vec![0.0f32; n];
    for i in 0..n {
        for _ in 0..3 {
            let j = (splitmix64(&mut rng) as usize) % n;
            if i == j {
                continue;
            }
            let v = 0.05 + (splitmix64(&mut rng) % 400) as f32 / 1000.0;
            triplets.push((i, j, v));
            triplets.push((j, i, v));
            row_sum[i] += v;
            row_sum[j] += v;
        }
    }
    for (i, &sum) in row_sum.iter().enumerate() {
        triplets.push((i, i, sum + 1.0));
    }
    #[allow(clippy::expect_used)] // coordinates are in-bounds by construction
    CooMatrix::from_triplets_summing(n, n, triplets).expect("workload matrix is well-formed")
}

/// The shared matrices every connection uploads and then works against.
fn workload_matrices(seed: u64) -> Vec<CooMatrix> {
    vec![
        workload_matrix(48, seed ^ 0x11),
        workload_matrix(72, seed ^ 0x22),
        workload_matrix(96, seed ^ 0x33),
    ]
}

const ENGINES: [Engine; 3] = [Engine::Cpu, Engine::Chason, Engine::Serpens];

/// The as-loaded diagonal values of a workload matrix, the floor churn
/// revalues stay above so strict diagonal dominance (hence SPD) is
/// preserved under any interleaving.
fn diagonal_of(matrix: &CooMatrix) -> Vec<f32> {
    let mut diag = vec![1.0f32; matrix.rows()];
    for &(r, c, v) in matrix.iter() {
        if r == c {
            diag[r] = v;
        }
    }
    diag
}

/// A countdown gate lining every connection up after setup, so
/// the server demonstrably holds all of them open at once before the
/// first request flies. Unlike [`std::sync::Barrier`], a participant that
/// never starts (spawn failure, failed setup) can be forfeited without
/// deadlocking the rest.
struct StartGate {
    remaining: Mutex<usize>,
    all_ready: Condvar,
}

impl StartGate {
    fn new(participants: usize) -> StartGate {
        StartGate {
            remaining: Mutex::new(participants),
            all_ready: Condvar::new(),
        }
    }

    /// Marks this participant ready and blocks until every other one has
    /// arrived (or been forfeited).
    fn arrive(&self) {
        #[allow(clippy::expect_used)] // gate mutex is never poisoned: no panics under the lock
        let mut remaining = self.remaining.lock().expect("gate lock");
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.all_ready.notify_all();
            return;
        }
        while *remaining > 0 {
            #[allow(clippy::expect_used)] // gate mutex is never poisoned: no panics under the lock
            {
                remaining = self.all_ready.wait(remaining).expect("gate wait");
            }
        }
    }

    /// Removes a participant that will never arrive, without blocking.
    fn forfeit(&self) {
        #[allow(clippy::expect_used)] // gate mutex is never poisoned: no panics under the lock
        let mut remaining = self.remaining.lock().expect("gate lock");
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.all_ready.notify_all();
        }
    }
}

/// One pre-planned request: the encoded frame plus what reply
/// shape counts as success.
struct Scheduled {
    payload: Vec<u8>,
    /// `by_type` slot the request belongs to: `[spmv, solve, plan,
    /// stats, update]`.
    slot: usize,
    /// Expected result-vector length for SpMV (0: no length check).
    n: usize,
}

/// Draws one request from the mixed workload, already encoded so the
/// connection loop only moves bytes.
fn draw_request(
    matrices: &[CooMatrix],
    handles: &[u64],
    diagonals: &[Vec<f32>],
    churn: u64,
    router: bool,
    rng: &mut u64,
) -> Scheduled {
    let which = (splitmix64(rng) as usize) % matrices.len();
    let (matrix, handle) = (&matrices[which], handles[which]);
    let n = matrix.rows();
    // The first `churn`% of the roll space is matrix churn; the remainder
    // maps onto the classic 60/20/10/10 mix.
    let roll = splitmix64(rng) % 100;
    let kind = if roll < churn {
        10
    } else {
        (roll - churn) * 10 / (100 - churn).max(1)
    };
    let (request, slot, expect_n) = match kind {
        10 => {
            // Revalue a handful of diagonal entries upward. The diagonal
            // always exists whatever other connections have churned, and
            // only ever grows past its as-loaded value, so concurrent
            // deltas can never conflict and every system stays SPD.
            let count = 1 + (splitmix64(rng) as usize) % 3;
            let mut revalues: Vec<(u64, u64, f32)> = Vec::with_capacity(count);
            for _ in 0..count {
                let i = (splitmix64(rng) as usize) % n;
                if revalues.iter().any(|&(r, _, _)| r == i as u64) {
                    continue; // a delta batch may touch a coordinate once
                }
                let bump = 0.5 + (splitmix64(rng) % 1000) as f32 / 1000.0;
                revalues.push((i as u64, i as u64, diagonals[which][i] + bump));
            }
            (
                Request::Update {
                    handle,
                    inserts: Vec::new(),
                    revalues,
                    deletes: Vec::new(),
                },
                4,
                0,
            )
        }
        0..=5 => {
            let phase = (splitmix64(rng) % 1000) as f32 / 1000.0;
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37 + phase).sin()).collect();
            let engine = ENGINES[(splitmix64(rng) as usize) % ENGINES.len()];
            (Request::Spmv { handle, engine, x }, 0, n)
        }
        6 | 7 => {
            let b: Vec<f32> = (0..n).map(|i| 1.0 + (i % 5) as f32 * 0.25).collect();
            let engine = ENGINES[1 + (splitmix64(rng) as usize) % 2];
            let solver = if splitmix64(rng).is_multiple_of(2) {
                SolverKind::Jacobi
            } else {
                SolverKind::Cg
            };
            (
                Request::Solve {
                    handle,
                    engine,
                    solver,
                    max_iterations: 8,
                    tolerance: 1e-4,
                    b,
                },
                1,
                0,
            )
        }
        8 if !router => {
            let engine = ENGINES[1 + (splitmix64(rng) as usize) % 2];
            (Request::Plan { handle, engine }, 2, 0)
        }
        // A router refuses Plan (artifacts are per-shard), so the plan
        // slot becomes an extra stats poll there.
        _ => (Request::Stats, 3, 0),
    };
    Scheduled {
        payload: encode_request(&request),
        slot,
        n: expect_n,
    }
}

/// Checks a reply against what its request expected. `Ok(true)`
/// is success, `Ok(false)` is `Busy` (retry the request), `Err` is a
/// protocol error.
fn check_reply(reply: &Reply, expected: &Scheduled) -> Result<bool, String> {
    match (expected.slot, reply) {
        (_, Reply::Busy { .. }) => Ok(false),
        (0, Reply::Vector { y, .. }) if y.len() == expected.n => Ok(true),
        (0, Reply::Vector { y, .. }) => Err(format!(
            "spmv returned {} values for {} rows",
            y.len(),
            expected.n
        )),
        (1, Reply::Solved { .. }) => Ok(true),
        (2, Reply::PlanArtifact { bytes }) if bytes.starts_with(b"CHPL") => Ok(true),
        (2, Reply::PlanArtifact { .. }) => Err("plan artifact missing CHPL magic".to_string()),
        (3, Reply::Stats(_)) => Ok(true),
        (4, Reply::Updated { version, .. }) if *version > 0 => Ok(true),
        (4, Reply::Updated { .. }) => Err("update did not advance the version".to_string()),
        (_, Reply::Error { code, message }) => Err(format!("server error ({code:?}): {message}")),
        (slot, other) => Err(format!("slot {slot} got unexpected reply {other:?}")),
    }
}

/// One blocking request/reply exchange on a raw stream, retrying `Busy`
/// per the server's hint. Used for per-connection setup (matrix uploads)
/// before the request loop takes over the socket.
fn setup_request(stream: &mut TcpStream, request: &Request) -> Result<Reply, ClientError> {
    loop {
        write_frame(stream, &encode_request(request))?;
        let payload = read_frame_blocking(stream, DEFAULT_MAX_FRAME)?;
        match decode_reply(&payload)? {
            Reply::Busy { retry_after_ms } => {
                thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
            }
            reply => return Ok(reply),
        }
    }
}

/// Drives one connection with up to `depth` requests in flight (depth 1
/// is the closed loop), or on a fixed arrival schedule when `interval` is
/// set (open loop). Replies are matched FIFO: CHSP carries no sequence
/// numbers because replies are strictly ordered per connection.
/// `start_gate` lines every connection up after setup so the server
/// really holds all of them open at once.
///
/// The in-flight window is `depth`. A `Busy` reply pauses the
/// connection's sends until its `retry_after_ms` hint has passed and
/// collapses the window to one; after one more hint without a `Busy` it
/// grows back by one per success. Shed requests go out again first, in
/// their original order. A shedding server so sees about one request per
/// connection per hint instead of a window of immediate resends.
#[allow(clippy::too_many_arguments)] // one parameter per run option
fn run_connection(
    addr: &str,
    matrices: &[CooMatrix],
    requests: usize,
    churn: u64,
    router: bool,
    mut rng: u64,
    depth: usize,
    interval: Option<Duration>,
    start_gate: &StartGate,
) -> Result<ConnOutcome, ClientError> {
    let result = (|| {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut handles = Vec::with_capacity(matrices.len());
        for matrix in matrices {
            let request = Request::LoadMatrix {
                rows: matrix.rows() as u64,
                cols: matrix.cols() as u64,
                triplets: matrix
                    .iter()
                    .map(|&(r, c, v)| (r as u64, c as u64, v))
                    .collect(),
            };
            match setup_request(&mut stream, &request)? {
                Reply::Loaded { handle, .. } => handles.push(handle),
                other => return Err(ClientError::Unexpected(format!("LoadMatrix got {other:?}"))),
            }
        }
        Ok((stream, handles))
    })();
    // Every connection reaches the gate even on a failed setup, so the
    // others are not stuck waiting on a gate that will never fill.
    start_gate.arrive();
    let (mut stream, handles) = result?;

    let diagonals: Vec<Vec<f32>> = matrices.iter().map(diagonal_of).collect();
    let churn = churn.min(100);
    let depth = depth.max(1);
    let mut outcome = ConnOutcome {
        completed: 0,
        protocol_errors: 0,
        busy_retries: 0,
        by_type: [0; 5],
        latencies: Vec::with_capacity(requests),
    };
    // Pre-draw the whole schedule: the wire loop below then only moves
    // bytes, and `Busy` retries re-enqueue without disturbing the rng, so
    // the request mix is independent of depth and shedding.
    let mut to_send: VecDeque<Scheduled> = (0..requests)
        .map(|_| draw_request(matrices, &handles, &diagonals, churn, router, &mut rng))
        .collect();
    let mut in_flight: VecDeque<(Scheduled, Instant)> = VecDeque::new();

    // Short read timeout: `FrameReader` keeps partial-frame progress
    // across timeouts, so the loop can interleave scheduled sends with
    // reply reads on one blocking socket.
    stream.set_read_timeout(Some(Duration::from_millis(2)))?;
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
    let started = Instant::now();
    let mut next_arrival = started;
    // No send before `resume_at` (the latest `Busy` hint); no window
    // growth before `calm_at` (one more hint without a `Busy`).
    let mut resume_at = started;
    let mut calm_at = started;
    let mut window = depth;
    // Shed requests waiting at the front of `to_send`, in schedule order.
    let mut requeued = 0usize;
    while !(to_send.is_empty() && in_flight.is_empty()) {
        // Admit sends: closed loop tops the window up; open loop sends
        // when the schedule says so (window-capped so unread replies stay
        // bounded).
        while !to_send.is_empty() && in_flight.len() < window {
            let now = Instant::now();
            if now < resume_at {
                break;
            }
            let sent_at = match interval {
                Some(gap) => {
                    if now < next_arrival {
                        break;
                    }
                    let scheduled = next_arrival;
                    next_arrival += gap;
                    scheduled // latency includes any send-slot lateness
                }
                None => now,
            };
            #[allow(clippy::expect_used)] // non-empty checked above
            let scheduled = to_send.pop_front().expect("to_send is non-empty");
            requeued = requeued.saturating_sub(1);
            write_frame(&mut stream, &scheduled.payload)?;
            in_flight.push_back((scheduled, sent_at));
        }
        if in_flight.is_empty() {
            // Backing off, or open loop ahead of schedule: nothing to
            // read back until the next send is due.
            let due = match interval {
                Some(_) => resume_at.max(next_arrival),
                None => resume_at,
            };
            thread::sleep(due.saturating_duration_since(Instant::now()));
            continue;
        }
        match reader.poll(&mut stream) {
            Ok(FrameEvent::Frame(payload)) => {
                #[allow(clippy::expect_used)] // non-empty checked above
                let (expected, sent_at) = in_flight.pop_front().expect("in_flight is non-empty");
                match decode_reply(&payload) {
                    Ok(reply) => match check_reply(&reply, &expected) {
                        Ok(true) => {
                            if Instant::now() >= calm_at {
                                window = (window + 1).min(depth);
                            }
                            outcome.latencies.push(sent_at.elapsed().as_micros() as u64);
                            outcome.completed += 1;
                            outcome.by_type[expected.slot] += 1;
                        }
                        Ok(false) => {
                            // Shed: honour the hint before sending anything
                            // else, then retry this request after any shed
                            // ahead of it.
                            outcome.busy_retries += 1;
                            window = 1;
                            if let Reply::Busy { retry_after_ms } = reply {
                                let hint = Duration::from_millis(u64::from(retry_after_ms.max(1)));
                                resume_at = resume_at.max(Instant::now() + hint);
                                calm_at = resume_at + hint;
                            }
                            to_send.insert(requeued, expected);
                            requeued += 1;
                        }
                        Err(_) => outcome.protocol_errors += 1,
                    },
                    Err(_) => outcome.protocol_errors += 1,
                }
            }
            Ok(FrameEvent::Timeout) => {}
            Ok(FrameEvent::Eof) => {
                return Err(ClientError::Unexpected(format!(
                    "server closed the connection with {} replies outstanding",
                    in_flight.len()
                )))
            }
            Err(ProtoError::Io(e)) => return Err(ClientError::Io(e)),
            Err(e) => return Err(ClientError::Proto(e)),
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    Ok(outcome)
}

/// Runs the load generator.
///
/// # Errors
///
/// A human-readable message when the run cannot start, a connection dies,
/// or (`require_hits`) the server reports zero plan-cache hits.
pub fn run(options: &LoadgenOptions) -> Result<LoadgenReport, String> {
    let connections = options.connections.max(1);
    if options.router {
        if options.addr.is_none() {
            return Err("--router requires --addr (start `chason route` first)".to_string());
        }
        if options.require_hits {
            return Err(
                "--require-hits is meaningless against a router: plans live on the shards"
                    .to_string(),
            );
        }
    }
    if options.open_loop_rps == Some(0) {
        return Err("--open-loop requires a positive arrival rate".to_string());
    }
    let depth = options.pipeline.max(1);
    // Open loop: split the aggregate arrival rate evenly across
    // connections.
    let interval = options
        .open_loop_rps
        .map(|rps| Duration::from_secs_f64(connections as f64 / rps as f64));
    let local_server = match &options.addr {
        Some(_) => None,
        None => Some(Server::start(ServeConfig::default()).map_err(|e| e.to_string())?),
    };
    let addr = match (&options.addr, &local_server) {
        (Some(addr), _) => addr.clone(),
        (None, Some(server)) => server.local_addr().to_string(),
        (None, None) => unreachable!("local server started above"),
    };
    let matrices = workload_matrices(options.seed);
    // Every connection's first request waits on all of them being
    // connected, so the server demonstrably holds `connections` sockets
    // open at once (the CI smoke asserts its high-water mark).
    let start_gate = StartGate::new(connections);
    let started = Instant::now();
    let outcomes: Vec<Result<ConnOutcome, ClientError>> = thread::scope(|scope| {
        let mut joins = Vec::with_capacity(connections);
        for conn in 0..connections {
            // Spread the total request budget across connections.
            let share =
                options.requests / connections + usize::from(conn < options.requests % connections);
            let rng = options
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(conn as u64 + 1);
            let addr = addr.clone();
            let matrices = &matrices;
            let start_gate = &start_gate;
            // Default thread stacks are 2-8 MiB; a 1k-connection run only
            // needs a shallow call tree per connection, so a small stack
            // keeps the whole fan-out cheap.
            let builder = thread::Builder::new()
                .name(format!("loadgen-{conn}"))
                .stack_size(256 * 1024);
            let spawned = builder.spawn_scoped(scope, move || {
                run_connection(
                    &addr,
                    matrices,
                    share,
                    options.churn,
                    options.router,
                    rng,
                    depth,
                    interval,
                    start_gate,
                )
            });
            if spawned.is_err() {
                // This participant will never reach the start gate;
                // release the others before reporting the failure.
                start_gate.forfeit();
            }
            joins.push(spawned.map_err(ClientError::Io));
        }
        joins
            .into_iter()
            .map(|j| match j {
                Ok(join) => match join.join() {
                    Ok(outcome) => outcome,
                    Err(_) => Err(ClientError::Unexpected(
                        "loadgen connection thread panicked".to_string(),
                    )),
                },
                Err(e) => Err(e),
            })
            .collect()
    });
    let elapsed_seconds = started.elapsed().as_secs_f64();

    let mut completed = 0u64;
    let mut protocol_errors = 0u64;
    let mut busy_retries = 0u64;
    let mut by_type = [0u64; 5];
    let mut latencies = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(o) => {
                completed += o.completed;
                protocol_errors += o.protocol_errors;
                busy_retries += o.busy_retries;
                for (total, n) in by_type.iter_mut().zip(o.by_type) {
                    *total += n;
                }
                latencies.extend(o.latencies);
            }
            Err(e) => return Err(format!("connection failed: {e}")),
        }
    }

    let mut final_client = Client::connect(&addr).map_err(|e| e.to_string())?;
    let server_stats = final_client
        .stats()
        .map_err(|e| format!("final stats fetch failed: {e}"))?;
    let router = if options.router {
        let text = final_client
            .metrics()
            .map_err(|e| format!("router metrics fetch failed: {e}"))?;
        Some(
            parse_router_metrics(&text)
                .ok_or("target exposes no router_* metrics; is it a chason route frontend?")?,
        )
    } else {
        None
    };
    if let Some(server) = local_server {
        final_client
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        server.join();
    }

    latencies.sort_unstable();
    let p50 = percentile_sorted(&latencies, 50);
    let p90 = percentile_sorted(&latencies, 90);
    let p99 = percentile_sorted(&latencies, 99);
    let max = latencies.last().copied().unwrap_or(0);
    let report = LoadgenReport {
        completed,
        protocol_errors,
        busy_retries,
        by_type,
        elapsed_seconds,
        throughput_rps: completed as f64 / elapsed_seconds.max(1e-9),
        latency_micros: (p50, p90, p99, max),
        server_stats,
        router,
    };
    if report.protocol_errors > 0 {
        return Err(format!(
            "{} protocol errors\n{}",
            report.protocol_errors,
            report.render()
        ));
    }
    if options.require_hits && server_stats.plan_cache_hits == 0 {
        return Err(format!(
            "server reported zero plan-cache hits\n{}",
            report.render()
        ));
    }
    Ok(report)
}

/// Ceiling nearest-rank percentile over an already-sorted sample set: the
/// smallest value v such that at least `p`% of the samples are `<= v`.
/// The previous floor-biased index (`(len-1)*p/100`) understated tail
/// latency — for 100 samples its p99 was the 98th-smallest value.
fn percentile_sorted(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * p).div_ceil(100).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_matrices_are_deterministic_and_solvable() {
        let a = workload_matrices(7);
        let b = workload_matrices(7);
        for (m1, m2) in a.iter().zip(&b) {
            assert_eq!(m1.triplets(), m2.triplets());
        }
        let c = workload_matrices(8);
        assert_ne!(a[0].triplets(), c[0].triplets());
        for m in &a {
            assert_eq!(m.rows(), m.cols());
            // Strict diagonal dominance: diag exceeds the off-diag row sum.
            let n = m.rows();
            let mut diag = vec![0.0f32; n];
            let mut off = vec![0.0f32; n];
            for &(r, c, v) in m.iter() {
                if r == c {
                    diag[r] = v;
                } else {
                    off[r] += v.abs();
                }
            }
            for i in 0..n {
                assert!(diag[i] > off[i], "row {i}: {} <= {}", diag[i], off[i]);
            }
        }
    }

    #[test]
    fn router_metrics_parse_into_a_balanced_report() {
        let text = concat!(
            "# TYPE router_shard_requests_total{shard=\"0\"} counter\n",
            "router_shard_requests_total{shard=\"0\"} 120\n",
            "router_shard_requests_total{shard=\"1\"} 100\n",
            "router_shard_requests_total{shard=\"2\"} 80\n",
            "router_shard_up{shard=\"0\"} 1\n",
            "router_shard_up{shard=\"1\"} 1\n",
            "router_shard_up{shard=\"2\"} 0\n",
            "router_shards 3\n",
            "router_nnz_balance_pct 104\n",
            "router_scatter_failures_total 2\n",
            "router_shard_retries_total 5\n",
            "router_shard_reconnects_total 1\n",
            "# TYPE router_gather_micros histogram\n",
            "router_gather_micros_bucket{le=\"127\"} 6\n",
            "router_gather_micros_bucket{le=\"255\"} 9\n",
            "router_gather_micros_bucket{le=\"1023\"} 10\n",
            "router_gather_micros_bucket{le=\"+Inf\"} 10\n",
            "router_gather_micros_sum 1850\n",
            "router_gather_micros_count 10\n",
            "router_gather_micros_max 900\n",
        );
        let report = parse_router_metrics(text).expect("router metrics parse");
        assert_eq!(report.shard_requests, vec![120, 100, 80]);
        assert_eq!(report.shards_up, 2);
        assert_eq!(report.shards_total, 3);
        assert!((report.request_balance - 1.2).abs() < 1e-9);
        // p50 rank 5 lands in the first bucket; p99 rank 10 lands in the
        // 1023 bucket but is clamped to the exact max.
        assert_eq!(report.gather_micros, (127, 255, 900, 900));
        assert_eq!(report.nnz_balance_pct, 104);
        assert_eq!(report.scatter_failures, 2);
        assert_eq!(report.shard_retries, 5);
        assert_eq!(report.shard_reconnects, 1);
        // A plain server exposition has no router family.
        assert!(parse_router_metrics("chsp_requests_spmv_total 4\n").is_none());
    }

    #[test]
    fn percentile_uses_ceiling_nearest_rank() {
        // 100 samples 1..=100: pN is exactly N.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&hundred, 50), 50);
        assert_eq!(percentile_sorted(&hundred, 90), 90);
        assert_eq!(percentile_sorted(&hundred, 99), 99);
        assert_eq!(percentile_sorted(&hundred, 100), 100);
        // 10 samples: the old floor-biased index reported the 9th-smallest
        // for p99; nearest-rank must report the maximum.
        let ten: Vec<u64> = (1..=10).map(|k| k * 10).collect();
        assert_eq!(percentile_sorted(&ten, 50), 50);
        assert_eq!(percentile_sorted(&ten, 90), 90);
        assert_eq!(percentile_sorted(&ten, 91), 100);
        assert_eq!(percentile_sorted(&ten, 99), 100);
        // Degenerate inputs.
        assert_eq!(percentile_sorted(&[42], 1), 42);
        assert_eq!(percentile_sorted(&[42], 99), 42);
        assert_eq!(percentile_sorted(&[], 99), 0);
    }

    #[test]
    fn small_end_to_end_run_is_clean() {
        // The request mix is a function of the seed alone: the closed
        // loop and a deep pipeline send the same requests.
        for pipeline in [1, 8] {
            let report = run(&LoadgenOptions {
                connections: 2,
                requests: 40,
                seed: 3,
                addr: None,
                require_hits: true,
                churn: 0,
                pipeline,
                ..LoadgenOptions::default()
            })
            .expect("loadgen run");
            assert_eq!(report.completed, 40);
            assert_eq!(report.protocol_errors, 0);
            assert_eq!(report.by_type, [24, 9, 4, 3, 0], "depth {pipeline}");
            assert_eq!(report.by_type[4], 0, "churn defaults off");
            assert!(report.server_stats.plan_cache_hits > 0);
            assert!(report.render().contains("protocol errors      : 0"));
            let json = report.render_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(json.contains("\"completed\":40"), "{json}");
            assert!(json.contains("\"protocol_errors\":0"), "{json}");
            assert!(json.contains("\"server_stats\":{"), "{json}");
        }
    }

    #[test]
    fn churned_run_updates_matrices_and_stays_clean() {
        for pipeline in [1, 8] {
            let report = run(&LoadgenOptions {
                connections: 3,
                requests: 60,
                seed: 5,
                addr: None,
                require_hits: true,
                churn: 25,
                pipeline,
                ..LoadgenOptions::default()
            })
            .expect("churned loadgen run");
            assert_eq!(report.completed, 60);
            assert_eq!(report.protocol_errors, 0);
            assert_eq!(report.by_type, [18, 13, 6, 5, 18], "depth {pipeline}");
            assert!(
                report.by_type[4] > 0,
                "25% churn over 60 requests must send updates: {:?}",
                report.by_type
            );
            assert_eq!(report.server_stats.requests_update, report.by_type[4]);
            assert!(
                report.server_stats.plans_spliced > 0,
                "churn against warm plans must splice: {:?}",
                report.server_stats
            );
            let json = report.render_json();
            assert!(json.contains("\"update\":"), "{json}");
            assert!(json.contains("\"plans_spliced\":"), "{json}");
        }
    }

    /// A server that sheds almost everything: one worker behind a
    /// one-slot queue.
    fn shedding_server() -> Server {
        Server::start(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        })
        .expect("shedding server")
    }

    fn shed_run(server: &Server, pipeline: usize) -> LoadgenReport {
        run(&LoadgenOptions {
            connections: 8,
            requests: 160,
            seed: 7,
            addr: Some(server.local_addr().to_string()),
            pipeline,
            ..LoadgenOptions::default()
        })
        .expect("a shedding server must not abort the run")
    }

    #[test]
    fn closed_loop_survives_busy_during_setup() {
        // Eight connections upload their matrices at once into a one-slot
        // queue, so setup itself is shed and must retry.
        let server = shedding_server();
        let report = shed_run(&server, 1);
        assert_eq!(report.completed, 160);
        assert_eq!(report.protocol_errors, 0);
        server.shutdown();
        server.join();
    }

    #[test]
    fn shed_requests_wait_out_the_retry_hint() {
        let server = shedding_server();
        let retry_after_ms = ServeConfig::default().retry_after_ms;
        for pipeline in [2, 8] {
            let report = shed_run(&server, pipeline);
            assert_eq!(report.completed, 160);
            assert_eq!(report.protocol_errors, 0);
            assert!(report.server_stats.shed > 0, "the run must be shed");
            // Each connection backs off for the hint after a Busy, so it
            // sees about one Busy per hint interval at most, plus its first
            // window of `pipeline` requests, sent before any hint is known.
            let elapsed_ms = (report.elapsed_seconds * 1e3) as u64;
            let bound = 8 * (elapsed_ms / u64::from(retry_after_ms) + pipeline as u64);
            assert!(
                report.busy_retries <= bound,
                "depth {pipeline}: {} busy retries over {elapsed_ms} ms exceed {bound}",
                report.busy_retries
            );
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn pipelined_run_is_clean() {
        let report = run(&LoadgenOptions {
            connections: 3,
            requests: 90,
            seed: 11,
            churn: 10,
            pipeline: 8,
            ..LoadgenOptions::default()
        })
        .expect("pipelined loadgen run");
        assert_eq!(report.completed, 90);
        assert_eq!(report.protocol_errors, 0);
        // The mixed schedule exercised every request type over 90 draws.
        assert!(report.by_type[0] > 0, "{:?}", report.by_type);
        assert!(report.by_type[3] > 0, "{:?}", report.by_type);
    }

    #[test]
    fn open_loop_run_is_clean() {
        let report = run(&LoadgenOptions {
            connections: 2,
            requests: 30,
            seed: 13,
            pipeline: 4,
            open_loop_rps: Some(2000),
            ..LoadgenOptions::default()
        })
        .expect("open-loop loadgen run");
        assert_eq!(report.completed, 30);
        assert_eq!(report.protocol_errors, 0);
        // 30 requests at 2000 req/s arrive over ~15 ms of schedule; the
        // run can be slower than that but never faster.
        assert!(
            report.elapsed_seconds >= 0.014,
            "{}",
            report.elapsed_seconds
        );
    }

    #[test]
    fn open_loop_rejects_a_zero_rate() {
        let err = run(&LoadgenOptions {
            open_loop_rps: Some(0),
            ..LoadgenOptions::default()
        })
        .expect_err("zero arrival rate must be rejected");
        assert!(err.contains("positive arrival rate"), "{err}");
    }
}
