//! The `chason route` daemon: scatter-gather executors and the shard
//! health checker over the shared dispatch core.
//!
//! # Threading model
//!
//! Connections, the bounded worker queue, `Busy` shedding, the worker
//! threads, and drain are `chason serve`'s, through the same
//! [`chason_serve::dispatch`] core, so a router drops into any deployment
//! script that already drives a server. The difference is inside the
//! workers: instead of executing kernels, each worker owns one pooled
//! [`ShardConn`] per backend and scatters sub-requests across them with
//! scoped threads, so an N-shard fan-out costs one round trip, not N.
//!
//! # Consistency
//!
//! The router is the only writer its shards see (clients must not address
//! backends directly while a router fronts them). Loads and updates
//! serialize under the resident-table lock, so the per-shard matrix
//! versions the router records stay in lockstep with the shards' own
//! version counters; any observed divergence — a shard reporting a
//! version the router did not produce — fails the request with
//! [`ErrorCode::PartialGather`] and drops the mapping, forcing the next
//! `LoadMatrix` to re-scatter a consistent snapshot.

use crate::shards::{HealthBoard, ShardConn, ShardError, ShardErrorKind};
use crate::stats::RouterStats;
use chason::solvers::{conjugate_gradient, jacobi, CgOptions, SpmvBackend};
use chason_core::cache::{CacheStats, LruCache};
use chason_core::plan::matrix_fingerprint;
use chason_serve::admit::{self, Outcome};
use chason_serve::client::{Client, RetryPolicy};
use chason_serve::dispatch::{Daemon, PoolConfig, WorkerPool};
use chason_serve::proto::{
    encode_load_matrix, encode_request, encode_spmv, Engine, ErrorCode, Reply, Request, SolverKind,
    StatsSnapshot, DEFAULT_MAX_FRAME,
};
use chason_serve::stats::{lock_unpoisoned, ServerStats};
use chason_sim::SimError;
use chason_sparse::shard::ShardSpec;
use chason_sparse::CooMatrix;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tunable knobs of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Backend shard addresses, in row-block order: shard 0 owns the
    /// lowest row range.
    pub shards: Vec<String>,
    /// Worker threads executing queued requests. Each owns one pooled
    /// connection per shard.
    pub workers: usize,
    /// Bounded queue capacity between connections and workers; the
    /// load-shedding threshold.
    pub queue_capacity: usize,
    /// Sharded-resident table capacity (matrices the router can route
    /// without a reload).
    pub matrix_cache_capacity: usize,
    /// How long a client connection may sit idle before the router hangs
    /// up.
    pub idle_timeout: Duration,
    /// Largest accepted frame payload.
    pub max_frame_len: usize,
    /// Back-off hint carried by [`Reply::Busy`] when the router itself
    /// sheds.
    pub retry_after_ms: u32,
    /// Retry policy for `Busy` replies from shards.
    pub shard_retry: RetryPolicy,
    /// Interval between background shard health probes.
    pub health_interval: Duration,
    /// Whether a wire `Shutdown` request is forwarded to every shard
    /// before the router drains (one `chason client shutdown` tears the
    /// whole deployment down).
    pub shutdown_shards: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            workers: 4,
            queue_capacity: 64,
            matrix_cache_capacity: 32,
            idle_timeout: Duration::from_secs(30),
            max_frame_len: DEFAULT_MAX_FRAME,
            retry_after_ms: 20,
            shard_retry: RetryPolicy::default(),
            health_interval: Duration::from_secs(2),
            shutdown_shards: false,
        }
    }
}

/// One sharded matrix the router can route: the full-matrix source of
/// truth (the solver outer loops and update validation need it), the
/// row-block partition, and per-shard handle/version bookkeeping.
///
/// `spec.shards()` may be smaller than the configured backend count: a
/// matrix with fewer rows than shards is spread over the first
/// `min(rows, shards)` backends.
#[derive(Debug, Clone)]
struct ShardedResident {
    matrix: Arc<CooMatrix>,
    spec: ShardSpec,
    /// Shard-local handle of each slice, indexed by shard.
    shard_handles: Arc<Vec<u64>>,
    /// Last acknowledged shard-side version of each slice.
    shard_versions: Arc<Vec<u64>>,
    /// Router-side lineage version; bumps on every successful update,
    /// mirroring a single server's counter for the same request sequence.
    version: u64,
}

/// The router's state, shared by the loop thread, every worker, and the
/// health checker.
struct Shared {
    /// Sharded residents keyed by full-matrix structural fingerprint —
    /// the same handle a single `chason serve` would mint, so clients are
    /// oblivious to the sharding.
    residents: Mutex<LruCache<u64, ShardedResident>>,
    stats: RouterStats,
    health: Arc<HealthBoard>,
    config: RouterConfig,
    /// Set when the router drains. The health checker waits on
    /// `health_wake` between probe rounds, so a drain ends that wait at
    /// once instead of after the interval.
    stopping: Mutex<bool>,
    health_wake: Condvar,
}

impl Shared {
    /// Tells the health checker to exit, waking it if it is waiting.
    fn stop_health(&self) {
        *lock_unpoisoned(&self.stopping) = true;
        self.health_wake.notify_all();
    }
}

impl Daemon for Shared {
    /// Each worker owns one pooled connection per shard, so concurrent
    /// scatters from different workers never contend on a socket. After a
    /// panic the pool is rebuilt: a connection may have been left
    /// mid-frame.
    type Worker = Vec<ShardConn>;
    const WORKER_NAME: &'static str = "chason-router-worker";
    const DRAINING: &'static str = "router is draining";

    fn stats(&self) -> &ServerStats {
        &self.stats.inner
    }

    /// Router stats reuse the server snapshot layout; the plan-cache
    /// words are zero (plans live on the shards) and the matrix words
    /// describe the sharded-resident table.
    fn snapshot(&self) -> StatsSnapshot {
        let m = lock_unpoisoned(&self.residents).stats();
        self.stats
            .inner
            .snapshot(CacheStats::default(), m.len as u64, m.evictions)
    }

    fn exposition(&self) -> String {
        // Sync the per-shard gauges with the live board so a scrape never
        // lags the most recent worker observation.
        for (k, gauge) in self.stats.shard_up.iter().enumerate() {
            gauge.set(u64::from(self.health.is_up(k)));
        }
        let m = lock_unpoisoned(&self.residents).stats();
        self.stats
            .inner
            .render_exposition(CacheStats::default(), m.len as u64, m.evictions)
    }

    fn worker(&self, index: usize) -> Vec<ShardConn> {
        self.config
            .shards
            .iter()
            .enumerate()
            .map(|(k, addr)| {
                ShardConn::new(
                    k,
                    addr.clone(),
                    self.config.shard_retry,
                    self.config.shard_retry.seed ^ ((index as u64) << 32) ^ k as u64,
                    Arc::clone(&self.health),
                    Arc::clone(&self.stats.shard_requests[k]),
                    Arc::clone(&self.stats.shard_retries),
                    Arc::clone(&self.stats.shard_reconnects),
                )
            })
            .collect()
    }

    fn execute(&self, conns: &mut Vec<ShardConn>, request: Request) -> Reply {
        match request {
            Request::LoadMatrix {
                rows,
                cols,
                triplets,
            } => execute_load(self, conns, rows, cols, triplets),
            Request::Spmv { handle, engine, x } => execute_spmv(self, conns, handle, engine, &x),
            Request::Solve {
                handle,
                engine,
                solver,
                max_iterations,
                tolerance,
                b,
            } => execute_solve(
                self,
                conns,
                handle,
                engine,
                solver,
                max_iterations,
                tolerance,
                &b,
            ),
            Request::Plan { .. } => Err(admit::bad_request(
                "plan artifacts are per-shard; request Plan from a backend shard directly",
            )),
            Request::Update {
                handle,
                inserts,
                revalues,
                deletes,
            } => execute_update(self, conns, handle, &inserts, &revalues, &deletes),
            Request::Sleep { .. } | Request::Stats | Request::Metrics | Request::Shutdown => {
                unreachable!("the dispatch core answers Sleep and inline requests")
            }
        }
        .unwrap_or_else(|rejected| *rejected)
    }

    fn on_shutdown(&self) {
        self.stop_health();
        if self.config.shutdown_shards {
            // Forward before acknowledging so "client shutdown; wait for
            // the router pid" is a complete drain of the whole deployment.
            forward_shutdown(self);
        }
    }
}

/// A running `chason route` instance.
pub struct Router {
    pool: WorkerPool<Shared>,
    health_thread: JoinHandle<()>,
}

impl Router {
    /// Binds, spawns the worker pool, connection loop, and health
    /// checker, and returns immediately. Shards are probed lazily — a
    /// router starts fine with every backend down and reports them via
    /// `Metrics`.
    ///
    /// # Errors
    ///
    /// An empty shard list, or I/O failures binding the listener.
    pub fn start(config: RouterConfig) -> std::io::Result<Router> {
        if config.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router requires at least one shard address",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let pool_config = PoolConfig {
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            retry_after_ms: config.retry_after_ms,
            idle_timeout: config.idle_timeout,
            max_frame_len: config.max_frame_len,
        };
        let shared = Arc::new(Shared {
            residents: Mutex::new(LruCache::new(config.matrix_cache_capacity)),
            stats: RouterStats::new(config.shards.len()),
            health: Arc::new(HealthBoard::new(config.shards.len())),
            config,
            stopping: Mutex::new(false),
            health_wake: Condvar::new(),
        });
        let pool = WorkerPool::start(listener, Arc::clone(&shared), pool_config)?;
        let spawned = thread::Builder::new()
            .name("chason-router-health".to_string())
            .spawn(move || health_loop(&shared));
        match spawned {
            Ok(health_thread) => Ok(Router {
                pool,
                health_thread,
            }),
            Err(err) => {
                pool.shutdown();
                pool.join();
                Err(err)
            }
        }
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.pool.local_addr()
    }

    /// A point-in-time copy of the router's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.pool.daemon().snapshot()
    }

    /// Shards currently marked up by the health board.
    pub fn shards_up(&self) -> usize {
        self.pool.daemon().health.up_count()
    }

    /// Initiates a graceful drain of the router itself. Shards are left
    /// running — programmatic callers own their backend lifecycles; only
    /// a wire `Shutdown` with
    /// [`shutdown_shards`](RouterConfig::shutdown_shards) set tears the
    /// backends down too.
    pub fn shutdown(&self) {
        self.pool.shutdown();
        self.pool.daemon().stop_health();
    }

    /// Blocks until the connection loop, every connection, every worker,
    /// and the health checker have exited. Call
    /// [`shutdown`](Self::shutdown) first (or send a `Shutdown` request)
    /// or this blocks forever.
    pub fn join(self) {
        self.pool.join();
        let _ = self.health_thread.join();
    }
}

/// Best-effort `Shutdown` fan-out over fresh connections (worker conns
/// may be mid-request). A dead shard is already down; errors are ignored.
fn forward_shutdown(shared: &Shared) {
    for addr in &shared.config.shards {
        if let Ok(mut client) = Client::connect(addr.as_str()) {
            let _ = client.request(&Request::Shutdown);
        }
    }
}

// ---------------------------------------------------------------------------
// Scatter-gather plumbing
// ---------------------------------------------------------------------------

/// Sends one request to each shard with a `Some` slot, concurrently on
/// scoped threads. Slot `k` of the result mirrors slot `k` of the input;
/// a panicked request thread is reported as that shard being unavailable.
fn scatter(
    conns: &mut [ShardConn],
    payloads: Vec<Option<Vec<u8>>>,
    resend_safe: bool,
) -> Vec<Option<Result<Reply, ShardError>>> {
    debug_assert_eq!(conns.len(), payloads.len());
    thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(payloads)
            .map(|(conn, payload)| {
                payload.map(|payload| {
                    let index = conn.index();
                    (index, scope.spawn(move || conn.call(&payload, resend_safe)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|slot| {
                slot.map(|(index, handle)| {
                    handle.join().unwrap_or_else(|_| {
                        Err(ShardError {
                            shard: index,
                            kind: ShardErrorKind::Unavailable(
                                "scatter thread panicked".to_string(),
                            ),
                        })
                    })
                })
            })
            .collect()
    })
}

/// Splits scatter results into indexed successes and failures.
fn partition_results(
    results: Vec<Option<Result<Reply, ShardError>>>,
) -> (Vec<(usize, Reply)>, Vec<ShardError>) {
    let mut oks = Vec::new();
    let mut errors = Vec::new();
    for (k, slot) in results.into_iter().enumerate() {
        match slot {
            Some(Ok(reply)) => oks.push((k, reply)),
            Some(Err(err)) => errors.push(err),
            None => {}
        }
    }
    (oks, errors)
}

/// Maps a non-empty set of shard failures to the client-facing reply.
///
/// Priority: any transport-level failure wins (`ShardUnavailable` — the
/// gather is incomplete no matter what the others said); otherwise a
/// typed shard error propagates with its original code; otherwise every
/// failure was `Busy`, and the router relays `Busy` with the largest
/// back-off hint.
fn scatter_failure_reply(errors: &[ShardError], stats: &RouterStats) -> Reply {
    stats.scatter_failures.add(1);
    if let Some(err) = errors.iter().find(|e| {
        matches!(
            e.kind,
            ShardErrorKind::Unavailable(_) | ShardErrorKind::Unexpected(_)
        )
    }) {
        return Reply::Error {
            code: ErrorCode::ShardUnavailable,
            message: err.to_string(),
        };
    }
    for err in errors {
        if let ShardErrorKind::Server { code, message } = &err.kind {
            return Reply::Error {
                code: *code,
                message: format!("shard {}: {message}", err.shard),
            };
        }
    }
    let hint = errors
        .iter()
        .map(|e| match e.kind {
            ShardErrorKind::Busy { retry_after_ms } => retry_after_ms,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    Reply::Busy {
        retry_after_ms: hint,
    }
}

fn unexpected_reply(shard: usize, reply: &Reply) -> Reply {
    Reply::Error {
        code: ErrorCode::Internal,
        message: format!("shard {shard} sent an unexpected reply variant: {reply:?}"),
    }
}

/// One distributed SpMV: broadcast `x`, run each shard's slice, reduce
/// the partials by row-range placement. Returns the gathered vector and
/// the max per-shard simulated latency (the shards run concurrently in
/// the modeled hardware, so the slowest one bounds the distributed op).
///
/// # Errors
///
/// The client-facing error reply.
fn scatter_spmv(
    conns: &mut [ShardConn],
    resident: &ShardedResident,
    engine: Engine,
    x: &[f32],
    stats: &RouterStats,
) -> Result<(Vec<f32>, u64), Box<Reply>> {
    let n = resident.spec.shards();
    let mut requests: Vec<Option<Vec<u8>>> = vec![None; conns.len()];
    for (k, slot) in requests.iter_mut().take(n).enumerate() {
        *slot = Some(encode_spmv(resident.shard_handles[k], engine, x));
    }
    let started = Instant::now();
    let results = scatter(conns, requests, true);
    stats
        .gather_micros
        .record(started.elapsed().as_micros() as u64);
    let (oks, errors) = partition_results(results);
    if !errors.is_empty() {
        return Err(Box::new(scatter_failure_reply(&errors, stats)));
    }
    let mut partials: Vec<Vec<f32>> = vec![Vec::new(); n];
    let mut max_nanos = 0u64;
    for (k, reply) in oks {
        match reply {
            Reply::Vector {
                y, simulated_nanos, ..
            } => {
                max_nanos = max_nanos.max(simulated_nanos);
                partials[k] = y;
            }
            other => return Err(Box::new(unexpected_reply(k, &other))),
        }
    }
    match resident.spec.gather(&partials) {
        Ok(y) => Ok((y, max_nanos)),
        Err(err) => Err(Box::new(Reply::Error {
            code: ErrorCode::PartialGather,
            message: format!("reduction failed: {err}"),
        })),
    }
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

fn execute_load(
    shared: &Shared,
    conns: &mut [ShardConn],
    rows: u64,
    cols: u64,
    triplets: Vec<(u64, u64, f32)>,
) -> Outcome {
    let matrix = admit::load_matrix(rows, cols, triplets, shared.config.max_frame_len)?;
    let handle = matrix_fingerprint(&matrix);
    let nnz = matrix.nnz() as u64;
    // Loads serialize under the resident lock so two identical concurrent
    // loads scatter once, and no update interleaves with the scatter.
    let mut residents = lock_unpoisoned(&shared.residents);
    if let Some(resident) = residents.get(&handle) {
        // Same lineage semantics as a single server: the handle resolves
        // to the resident (possibly updated) copy, and the version tells
        // the caller whether the content moved past the sent triplets.
        return Ok(Reply::Loaded {
            handle,
            rows,
            cols,
            nnz,
            fresh: false,
            version: resident.version,
        });
    }
    let shard_count = conns.len().min(matrix.rows());
    let spec = ShardSpec::nnz_balanced(&matrix, shard_count)
        .map_err(|err| admit::bad_request(format!("sharding failed: {err}")))?;
    let mut requests: Vec<Option<Vec<u8>>> = vec![None; conns.len()];
    for (k, slot) in requests.iter_mut().take(shard_count).enumerate() {
        let slice = spec.slice(&matrix, k).map_err(|err| {
            Box::new(Reply::Error {
                code: ErrorCode::Internal,
                message: format!("slicing shard {k} failed: {err}"),
            })
        })?;
        *slot = Some(encode_load_matrix(&slice));
    }
    let started = Instant::now();
    let results = scatter(conns, requests, true);
    shared
        .stats
        .gather_micros
        .record(started.elapsed().as_micros() as u64);
    let (oks, errors) = partition_results(results);
    if !errors.is_empty() {
        return Err(Box::new(scatter_failure_reply(&errors, &shared.stats)));
    }
    let mut shard_handles = vec![0u64; shard_count];
    for (k, reply) in oks {
        match reply {
            Reply::Loaded {
                handle: shard_handle,
                version,
                ..
            } => {
                if version != 0 {
                    // The shard already holds this slice lineage at a
                    // later version: someone updated the backend out of
                    // band. Routing against it would mix generations.
                    return Err(Box::new(Reply::Error {
                        code: ErrorCode::PartialGather,
                        message: format!(
                            "shard {k} holds a diverged copy of this slice (version \
                             {version}); restart the shard or route updates through \
                             the router only"
                        ),
                    }));
                }
                shard_handles[k] = shard_handle;
            }
            other => return Err(Box::new(unexpected_reply(k, &other))),
        }
    }
    if let Ok(imbalance) = spec.nnz_imbalance(&matrix) {
        shared
            .stats
            .nnz_balance_pct
            .set((imbalance * 100.0).round() as u64);
    }
    residents.insert(
        handle,
        ShardedResident {
            matrix: Arc::new(matrix),
            spec,
            shard_handles: Arc::new(shard_handles),
            shard_versions: Arc::new(vec![0; shard_count]),
            version: 0,
        },
    );
    Ok(Reply::Loaded {
        handle,
        rows,
        cols,
        nnz,
        fresh: true,
        version: 0,
    })
}

/// The sharded resident behind `handle`.
fn resident(shared: &Shared, handle: u64) -> Result<ShardedResident, Box<Reply>> {
    lock_unpoisoned(&shared.residents)
        .get(&handle)
        .cloned()
        .ok_or_else(|| admit::unknown_handle(handle))
}

fn execute_spmv(
    shared: &Shared,
    conns: &mut [ShardConn],
    handle: u64,
    engine: Engine,
    x: &[f32],
) -> Outcome {
    let resident = resident(shared, handle)?;
    admit::spmv(&resident.matrix, x)?;
    let start = Instant::now();
    let (y, simulated_nanos) = scatter_spmv(conns, &resident, engine, x, &shared.stats)?;
    Ok(Reply::Vector {
        y,
        service_micros: start.elapsed().as_micros() as u64,
        simulated_nanos,
    })
}

/// The distributed Reduction Unit as a solver backend: every product the
/// CG/Jacobi outer loop requests is scattered across the shards and the
/// partials are gathered by row placement. Row-block sharding keeps each
/// output row on exactly one shard, so the gathered product is exactly
/// the vector a single instance would produce (bit-identical on `cpu`,
/// where slicing preserves per-row accumulation order).
///
/// [`SimError`] has no transport variant, so a scatter failure stashes
/// the client-facing reply in `failure` and surfaces a placeholder error
/// to the solver; `execute_solve` unstashes it.
struct DistributedBackend<'a> {
    conns: &'a mut [ShardConn],
    resident: &'a ShardedResident,
    engine: Engine,
    stats: &'a RouterStats,
    simulated_nanos: u64,
    failure: Option<Reply>,
}

impl SpmvBackend for DistributedBackend<'_> {
    fn spmv(&mut self, _matrix: &CooMatrix, x: &[f32]) -> Result<Vec<f32>, SimError> {
        match scatter_spmv(self.conns, self.resident, self.engine, x, self.stats) {
            Ok((y, nanos)) => {
                self.simulated_nanos += nanos;
                Ok(y)
            }
            Err(reply) => {
                self.failure = Some(*reply);
                Err(SimError::InvalidConfig(
                    "distributed SpMV failed; see the stashed router reply".to_string(),
                ))
            }
        }
    }

    fn elapsed_seconds(&self) -> f64 {
        self.simulated_nanos as f64 * 1e-9
    }

    fn name(&self) -> &'static str {
        self.engine.name()
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_solve(
    shared: &Shared,
    conns: &mut [ShardConn],
    handle: u64,
    engine: Engine,
    solver: SolverKind,
    max_iterations: u32,
    tolerance: f64,
    b: &[f32],
) -> Outcome {
    let resident = resident(shared, handle)?;
    let matrix = Arc::clone(&resident.matrix);
    admit::solve(&matrix, solver, tolerance, b)?;
    let options = CgOptions {
        max_iterations: max_iterations as usize,
        tolerance,
    };
    let start = Instant::now();
    let mut backend = DistributedBackend {
        conns,
        resident: &resident,
        engine,
        stats: &shared.stats,
        simulated_nanos: 0,
        failure: None,
    };
    let result = match solver {
        SolverKind::Cg => conjugate_gradient(&mut backend, &matrix, b, options),
        SolverKind::Jacobi => jacobi(&mut backend, &matrix, b, options),
    };
    let simulated_nanos = backend.simulated_nanos;
    let failure = backend.failure.take();
    let result = result
        .map_err(|err| failure.map_or_else(|| admit::bad_request(err.to_string()), Box::new))?;
    Ok(Reply::Solved {
        solution: result.solution,
        iterations: result.iterations as u64,
        residual: result.residual,
        converged: result.converged,
        service_micros: start.elapsed().as_micros() as u64,
        simulated_nanos,
    })
}

fn execute_update(
    shared: &Shared,
    conns: &mut [ShardConn],
    handle: u64,
    inserts: &[(u64, u64, f32)],
    revalues: &[(u64, u64, f32)],
    deletes: &[(u64, u64)],
) -> Outcome {
    admit::update_values(inserts, revalues)?;
    // Updates serialize under the resident lock (held across the scatter)
    // so shard version N+1 is always derived from N and concurrent
    // loads/updates cannot interleave with a half-applied delta.
    let mut residents = lock_unpoisoned(&shared.residents);
    let resident = residents
        .get(&handle)
        .cloned()
        .ok_or_else(|| admit::unknown_handle(handle))?;
    // Validate the whole delta against the full matrix up front: a
    // rejected op must not reach any shard, or the fleet diverges.
    let (_, updated) = admit::update(&resident.matrix, inserts, revalues, deletes)?;
    // Partition the ops by row footprint; only touched shards see a
    // sub-update. Rows are shard-local (offset by the range start).
    let n = resident.spec.shards();
    let mut shard_inserts: Vec<Vec<(u64, u64, f32)>> = vec![Vec::new(); n];
    let mut shard_revalues: Vec<Vec<(u64, u64, f32)>> = vec![Vec::new(); n];
    let mut shard_deletes: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    let route = |r: u64| -> Result<(usize, u64), Box<Reply>> {
        let k = resident
            .spec
            .shard_of_row(r as usize)
            .ok_or_else(|| admit::bad_request(format!("row {r} outside the sharded matrix")))?;
        let (start, _) = resident.spec.range(k);
        Ok((k, r - start as u64))
    };
    for &(r, c, v) in inserts {
        let (k, local) = route(r)?;
        shard_inserts[k].push((local, c, v));
    }
    for &(r, c, v) in revalues {
        let (k, local) = route(r)?;
        shard_revalues[k].push((local, c, v));
    }
    for &(r, c) in deletes {
        let (k, local) = route(r)?;
        shard_deletes[k].push((local, c));
    }
    let mut requests: Vec<Option<Vec<u8>>> = vec![None; conns.len()];
    for k in 0..n {
        if shard_inserts[k].is_empty()
            && shard_revalues[k].is_empty()
            && shard_deletes[k].is_empty()
        {
            continue;
        }
        requests[k] = Some(encode_request(&Request::Update {
            handle: resident.shard_handles[k],
            inserts: std::mem::take(&mut shard_inserts[k]),
            revalues: std::mem::take(&mut shard_revalues[k]),
            deletes: std::mem::take(&mut shard_deletes[k]),
        }));
    }
    let started = Instant::now();
    // Updates are not idempotent: never resend on a broken pooled
    // connection — the shard may already have applied the delta.
    let results = scatter(conns, requests, false);
    shared
        .stats
        .gather_micros
        .record(started.elapsed().as_micros() as u64);
    let (oks, errors) = partition_results(results);
    if !errors.is_empty() {
        // Some shards may have applied their sub-delta and some not: the
        // fleet no longer matches any single matrix generation. Drop the
        // mapping (poisoned); the next LoadMatrix re-scatters a
        // consistent snapshot from the client's triplets.
        residents.remove(&handle);
        shared.stats.scatter_failures.add(1);
        let first = &errors[0];
        return Err(Box::new(Reply::Error {
            code: ErrorCode::PartialGather,
            message: format!(
                "update reached only part of the shard set ({} of {} sub-updates \
                 failed; first: {first}); the sharded mapping was dropped — reload \
                 the matrix to re-shard",
                errors.len(),
                oks.len() + errors.len(),
            ),
        }));
    }
    let mut new_versions = resident.shard_versions.as_ref().clone();
    let mut plans_spliced: u32 = 0;
    let mut windows_replanned: u64 = 0;
    let mut windows_total: u64 = 0;
    let mut shard_nnz: Vec<Option<u64>> = vec![None; n];
    for (k, reply) in oks {
        match reply {
            Reply::Updated {
                version,
                nnz,
                plans_spliced: spliced,
                windows_replanned: replanned,
                windows_total: total,
            } => {
                let expected = resident.shard_versions[k] + 1;
                if version != expected {
                    residents.remove(&handle);
                    return Err(Box::new(Reply::Error {
                        code: ErrorCode::PartialGather,
                        message: format!(
                            "version skew on shard {k}: it reports v{version}, the \
                             router expected v{expected} — the shard was updated out \
                             of band; the sharded mapping was dropped"
                        ),
                    }));
                }
                new_versions[k] = version;
                plans_spliced += spliced;
                windows_replanned += replanned;
                windows_total = windows_total.max(total);
                shard_nnz[k] = Some(nnz);
            }
            other => {
                residents.remove(&handle);
                return Err(Box::new(unexpected_reply(k, &other)));
            }
        }
    }
    // Cross-check: every touched shard's post-update nnz must match the
    // router's own application of the same delta.
    match resident.spec.nnz_per_shard(&updated) {
        Ok(counts) => {
            for (k, reported) in shard_nnz.iter().enumerate() {
                if let Some(reported) = reported {
                    if *reported != counts[k] as u64 {
                        residents.remove(&handle);
                        return Err(Box::new(Reply::Error {
                            code: ErrorCode::PartialGather,
                            message: format!(
                                "shard {k} reports {reported} nnz after the update, \
                                 the router expected {}; the sharded mapping was \
                                 dropped",
                                counts[k]
                            ),
                        }));
                    }
                }
            }
        }
        Err(err) => {
            residents.remove(&handle);
            return Err(Box::new(Reply::Error {
                code: ErrorCode::Internal,
                message: format!("post-update nnz audit failed: {err}"),
            }));
        }
    }
    let version = resident.version + 1;
    let nnz = updated.nnz() as u64;
    residents.insert(
        handle,
        ShardedResident {
            matrix: Arc::new(updated),
            spec: resident.spec,
            shard_handles: resident.shard_handles,
            shard_versions: Arc::new(new_versions),
            version,
        },
    );
    Ok(Reply::Updated {
        version,
        nnz,
        plans_spliced,
        windows_replanned,
        windows_total,
    })
}

// ---------------------------------------------------------------------------
// Health checker
// ---------------------------------------------------------------------------

/// Periodically pings every shard with `Stats` over its own persistent
/// connections, updating the board and the per-shard gauges. Between
/// rounds it waits on [`Shared::health_wake`], so it exits as soon as the
/// router drains.
fn health_loop(shared: &Shared) {
    let mut clients: Vec<Option<Client>> = shared.config.shards.iter().map(|_| None).collect();
    loop {
        for (k, slot) in clients.iter_mut().enumerate() {
            if *lock_unpoisoned(&shared.stopping) {
                return;
            }
            if slot.is_none() {
                *slot = Client::connect(shared.config.shards[k].as_str()).ok();
            }
            let up = match slot.as_mut() {
                Some(client) => match client.request(&Request::Stats) {
                    Ok(Reply::Error {
                        code: ErrorCode::ShuttingDown,
                        ..
                    }) => {
                        *slot = None;
                        false
                    }
                    Ok(_) => true,
                    Err(_) => {
                        *slot = None;
                        false
                    }
                },
                None => false,
            };
            shared.health.set(k, up);
            shared.stats.shard_up[k].set(u64::from(up));
        }
        let stopping = lock_unpoisoned(&shared.stopping);
        let (stopping, _) = shared
            .health_wake
            .wait_timeout_while(stopping, shared.config.health_interval, |stop| !*stop)
            .unwrap_or_else(PoisonError::into_inner);
        if *stopping {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A drain wakes the health checker out of its wait: `join` does not
    /// sit out the probe interval.
    #[test]
    fn shutdown_does_not_wait_out_the_health_interval() {
        // A port nothing listens on: the shard is simply down.
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let router = Router::start(RouterConfig {
            shards: vec![dead.to_string()],
            workers: 1,
            health_interval: Duration::from_secs(3600),
            ..RouterConfig::default()
        })
        .unwrap();
        // Let the first probe round finish and the checker start waiting.
        thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        router.shutdown();
        router.join();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(50), "stop took {took:?}");
    }

    #[test]
    fn router_refuses_empty_shard_list() {
        let err = match Router::start(RouterConfig::default()) {
            Err(err) => err,
            Ok(_) => panic!("a shardless router must not start"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn failure_reply_priority() {
        let stats = RouterStats::new(2);
        let unavailable = ShardError {
            shard: 0,
            kind: ShardErrorKind::Unavailable("gone".to_string()),
        };
        let busy = ShardError {
            shard: 1,
            kind: ShardErrorKind::Busy { retry_after_ms: 7 },
        };
        let server = ShardError {
            shard: 1,
            kind: ShardErrorKind::Server {
                code: ErrorCode::UnknownHandle,
                message: "no such matrix".to_string(),
            },
        };
        // Transport failure dominates.
        let reply = scatter_failure_reply(&[busy, unavailable], &stats);
        assert!(matches!(
            reply,
            Reply::Error {
                code: ErrorCode::ShardUnavailable,
                ..
            }
        ));
        // A typed shard error propagates its code.
        let busy = ShardError {
            shard: 0,
            kind: ShardErrorKind::Busy { retry_after_ms: 7 },
        };
        let reply = scatter_failure_reply(&[busy, server], &stats);
        assert!(matches!(
            reply,
            Reply::Error {
                code: ErrorCode::UnknownHandle,
                ..
            }
        ));
        // All-busy relays Busy with the largest hint.
        let busy_small = ShardError {
            shard: 0,
            kind: ShardErrorKind::Busy { retry_after_ms: 7 },
        };
        let busy_large = ShardError {
            shard: 1,
            kind: ShardErrorKind::Busy { retry_after_ms: 40 },
        };
        let reply = scatter_failure_reply(&[busy_small, busy_large], &stats);
        assert!(matches!(reply, Reply::Busy { retry_after_ms: 40 }));
        assert_eq!(stats.scatter_failures.get(), 3);
    }
}
