//! The `chason serve` daemon: the shared dispatch core plus the SpMV,
//! solver, plan, and update executors.
//!
//! Connections, the bounded worker queue, shedding, worker threads, and
//! drain all live in [`crate::dispatch`]; this module supplies the
//! [`Daemon`] parts that are serve's own: executing requests against the
//! shared table of resident matrices and their plans, and the `Stats`/`Metrics` content.

use crate::admit::{self, Outcome};
use crate::dispatch::{Daemon, PoolConfig, WorkerPool};
use crate::proto::{
    Engine, ErrorCode, Reply, Request, SolverKind, StatsSnapshot, DEFAULT_MAX_FRAME,
};
use crate::stats::{lock_unpoisoned, ServerStats};
use chason::solvers::{conjugate_gradient, jacobi, CgOptions, SpmvBackend};
use chason_core::cache::{CacheStats, LruCache};
use chason_core::plan::{matrix_fingerprint, SpmvPlan};
use chason_core::replan::ReplanReport;
use chason_core::schedule::SchedulerConfig;
use chason_sim::{Accelerator, AcceleratorConfig, SimError};
use chason_sparse::CooMatrix;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Tunable knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing queued requests.
    pub workers: usize,
    /// Bounded queue capacity between connections and workers; the
    /// load-shedding threshold.
    pub queue_capacity: usize,
    /// Resident-matrix cache capacity. Each resident also holds at most
    /// one plan per simulated engine, so this bounds the plans too.
    pub matrix_cache_capacity: usize,
    /// How long a connection may sit idle (no frame progress) before the
    /// server hangs up.
    pub idle_timeout: Duration,
    /// Largest accepted frame payload.
    pub max_frame_len: usize,
    /// Back-off hint carried by [`Reply::Busy`].
    pub retry_after_ms: u32,
    /// Scheduler configuration both simulated engines run under.
    pub sched: SchedulerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            matrix_cache_capacity: 32,
            idle_timeout: Duration::from_secs(30),
            max_frame_len: DEFAULT_MAX_FRAME,
            retry_after_ms: 20,
            sched: SchedulerConfig::paper(),
        }
    }
}

/// Simulated engines, hence plan slots per resident matrix.
const PLAN_SLOTS: usize = 2;

/// The Chasoň slot of [`Shared::engines`] and [`Resident::plans`].
const CHASON: usize = 0;

/// The Serpens slot, whose plan the Chasoň plan is migrated from.
const SERPENS: usize = 1;

/// `wire`'s index into [`Shared::engines`] and [`Resident::plans`], or
/// `None` for the CPU backend, which has no plan.
fn slot(wire: Engine) -> Option<usize> {
    match wire {
        Engine::Cpu => None,
        Engine::Chason => Some(CHASON),
        Engine::Serpens => Some(SERPENS),
    }
}

/// A resident matrix: the one copy of its content, row-sorted COO that the
/// CPU backend multiplies and the engines plan from, a version counter
/// that `Update` bumps, and each simulated engine's plan of exactly this
/// content. The cache key (the load-time fingerprint) never changes; an
/// update or a reload after eviction installs a new `Resident`, so a plan
/// can never outlive the content it was scheduled from.
///
/// The Chasoň plan is the Serpens plan with every window migrated, so it
/// is derived from the Serpens slot, which it fills first when empty: a
/// filled Chasoň slot implies a filled Serpens slot.
#[derive(Debug)]
struct Resident {
    matrix: Arc<CooMatrix>,
    version: u64,
    /// Filled on the first lookup that schedules, by a Chasoň lookup's
    /// by-product (the Serpens slot), or by an update's splice.
    plans: [OnceLock<Arc<SpmvPlan>>; PLAN_SLOTS],
}

impl Resident {
    fn new(matrix: CooMatrix, version: u64, plans: [OnceLock<Arc<SpmvPlan>>; PLAN_SLOTS]) -> Self {
        Resident {
            matrix: Arc::new(matrix),
            version,
            plans,
        }
    }

    /// Plans this resident holds.
    fn plan_count(&self) -> usize {
        self.plans.iter().filter_map(OnceLock::get).count()
    }
}

/// The serve daemon's state, shared by the loop thread and every worker.
struct Shared {
    /// The simulated engines, indexed by [`slot`].
    engines: [Accelerator; PLAN_SLOTS],
    /// Resident matrices, with their plans, keyed by load-time structural
    /// fingerprint.
    matrices: Mutex<LruCache<u64, Arc<Resident>>>,
    /// Plan-slot lookups that found a plan.
    plan_hits: AtomicU64,
    /// Plan-slot lookups that had to schedule.
    plan_misses: AtomicU64,
    /// Plans dropped because their matrix was evicted.
    plan_evictions: AtomicU64,
    stats: ServerStats,
}

impl Shared {
    fn matrix(&self, handle: u64) -> Result<Arc<Resident>, Box<Reply>> {
        lock_unpoisoned(&self.matrices)
            .get(&handle)
            .cloned()
            .ok_or_else(|| admit::unknown_handle(handle))
    }

    /// Returns `resident`'s plan in `slot`, building and filling the slot
    /// on a miss. A Chasoň miss migrates the Serpens slot's plan when it
    /// is filled; otherwise it schedules each window PE-aware once and
    /// fills the Serpens slot with that by-product before its own. Hits
    /// and misses count lookups of `slot` only. Planning runs outside
    /// every lock, so concurrent misses on one slot may plan twice; the
    /// loser's plan is dropped.
    fn resolve_plan(&self, slot: usize, resident: &Resident) -> Result<Arc<SpmvPlan>, SimError> {
        let cached = &resident.plans[slot];
        if let Some(plan) = cached.get() {
            // relaxed: a statistics counter; it orders nothing.
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        // relaxed: a statistics counter; it orders nothing.
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        let engine = &self.engines[slot];
        let plan = if slot != CHASON {
            engine.plan(&resident.matrix)?
        } else if let Some(baseline) = resident.plans[SERPENS].get() {
            engine.migrate_plan(baseline)?
        } else {
            let (plan, baseline) = engine.plan_with_baseline(&resident.matrix)?;
            if let Some(baseline) = baseline {
                resident.plans[SERPENS].get_or_init(|| Arc::new(baseline));
            }
            plan
        };
        Ok(Arc::clone(cached.get_or_init(|| Arc::new(plan))))
    }

    /// Samples the plan and matrix statistics under the matrices lock.
    /// The plans' `len` counts those resident entries hold, and their
    /// capacity is one plan per engine per resident.
    fn cache_stats(&self) -> (CacheStats, CacheStats) {
        let matrices = lock_unpoisoned(&self.matrices);
        let plans = CacheStats {
            // relaxed: statistics; evictions are written under this lock.
            hits: self.plan_hits.load(Ordering::Relaxed),
            misses: self.plan_misses.load(Ordering::Relaxed),
            evictions: self.plan_evictions.load(Ordering::Relaxed),
            len: matrices.values().map(|r| r.plan_count()).sum(),
            capacity: PLAN_SLOTS * matrices.capacity(),
        };
        (plans, matrices.stats())
    }
}

impl Daemon for Shared {
    /// Serve workers keep no state of their own: everything lives in the
    /// shared resident table.
    type Worker = ();
    const WORKER_NAME: &'static str = "chason-worker";
    const DRAINING: &'static str = "server is draining";

    fn stats(&self) -> &ServerStats {
        &self.stats
    }

    fn snapshot(&self) -> StatsSnapshot {
        let (plans, m) = self.cache_stats();
        self.stats.snapshot(plans, m.len as u64, m.evictions)
    }

    fn exposition(&self) -> String {
        let (plans, m) = self.cache_stats();
        self.stats
            .render_exposition(plans, m.len as u64, m.evictions)
    }

    fn worker(&self, _index: usize) {}

    fn execute(&self, _worker: &mut (), request: Request) -> Reply {
        match request {
            Request::LoadMatrix {
                rows,
                cols,
                triplets,
            } => execute_load(self, rows, cols, triplets),
            Request::Spmv { handle, engine, x } => execute_spmv(self, handle, engine, &x),
            Request::Solve {
                handle,
                engine,
                solver,
                max_iterations,
                tolerance,
                b,
            } => execute_solve(self, handle, engine, solver, max_iterations, tolerance, &b),
            Request::Plan { handle, engine } => execute_plan(self, handle, engine),
            Request::Update {
                handle,
                inserts,
                revalues,
                deletes,
            } => execute_update(self, handle, &inserts, &revalues, &deletes),
            Request::Sleep { .. } | Request::Stats | Request::Metrics | Request::Shutdown => {
                unreachable!("the dispatch core answers Sleep and inline requests")
            }
        }
        .unwrap_or_else(|rejected| *rejected)
    }
}

/// A running `chason serve` instance.
pub struct Server {
    pool: WorkerPool<Shared>,
}

impl Server {
    /// Binds, spawns the worker pool and the connection loop, and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// I/O failures binding the listener or starting the pool.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let engine = |base: AcceleratorConfig| {
            Accelerator::new(AcceleratorConfig {
                sched: config.sched,
                ..base
            })
        };
        let shared = Arc::new(Shared {
            engines: [
                engine(AcceleratorConfig::chason()),
                engine(AcceleratorConfig::serpens()),
            ],
            matrices: Mutex::new(LruCache::new(config.matrix_cache_capacity)),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plan_evictions: AtomicU64::new(0),
            stats: ServerStats::new(),
        });
        let pool = WorkerPool::start(
            listener,
            shared,
            PoolConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
                retry_after_ms: config.retry_after_ms,
                idle_timeout: config.idle_timeout,
                max_frame_len: config.max_frame_len,
            },
        )?;
        Ok(Server { pool })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.pool.local_addr()
    }

    /// A point-in-time copy of the server's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.pool.daemon().snapshot()
    }

    /// Initiates the same graceful drain a `Shutdown` request does.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }

    /// Blocks until the connection loop, every connection, and every
    /// worker have exited. Call [`shutdown`](Self::shutdown) first (or
    /// send a `Shutdown` request) or this blocks forever.
    pub fn join(self) {
        self.pool.join();
    }
}

fn sim_error_reply(err: SimError) -> Box<Reply> {
    admit::bad_request(err.to_string())
}

fn execute_load(shared: &Shared, rows: u64, cols: u64, triplets: Vec<(u64, u64, f32)>) -> Outcome {
    let matrix = admit::load_matrix(rows, cols, triplets)?;
    // Hashed once here; the engines' plan keys reuse the memo.
    let handle = matrix_fingerprint(&matrix);
    let nnz = matrix.nnz() as u64;
    let mut matrices = lock_unpoisoned(&shared.matrices);
    // Re-loading a matrix whose resident copy has since been updated keeps
    // the updated (current-version) copy: the handle names a lineage. The
    // reply carries the lineage's current version so the caller can tell
    // the resident content has moved past the triplets it sent.
    let (fresh, version) = match matrices.peek(&handle) {
        Some(resident) => (false, resident.version),
        None => {
            let resident = Resident::new(matrix, 0, Default::default());
            // The key is absent, so anything displaced was evicted, and
            // its plans leave with it.
            if let Some((_, evicted)) = matrices.insert(handle, Arc::new(resident)) {
                // relaxed: a statistics counter, read under this lock.
                shared
                    .plan_evictions
                    .fetch_add(evicted.plan_count() as u64, Ordering::Relaxed);
            }
            (true, 0)
        }
    };
    Ok(Reply::Loaded {
        handle,
        rows,
        cols,
        nnz,
        fresh,
        version,
    })
}

fn execute_spmv(shared: &Shared, handle: u64, engine: Engine, x: &[f32]) -> Outcome {
    let resident = shared.matrix(handle)?;
    admit::spmv(&resident.matrix, x)?;
    let start = Instant::now();
    let (y, simulated_nanos) = match slot(engine) {
        None => (resident.matrix.spmv(x), 0),
        Some(slot) => run_engine_spmv(shared, slot, &resident, x).map_err(sim_error_reply)?,
    };
    Ok(Reply::Vector {
        y,
        service_micros: start.elapsed().as_micros() as u64,
        simulated_nanos,
    })
}

fn run_engine_spmv(
    shared: &Shared,
    slot: usize,
    resident: &Resident,
    x: &[f32],
) -> Result<(Vec<f32>, u64), SimError> {
    let plan = shared.resolve_plan(slot, resident)?;
    let exec = shared.engines[slot].run_planned(&plan, x)?;
    let nanos = (exec.latency_seconds() * 1e9) as u64;
    Ok((exec.y, nanos))
}

/// A solver backend that routes every product through the resident's plan
/// slot, so a solve warms the same slot later `Spmv` requests hit.
struct SharedPlanBackend<'a> {
    shared: &'a Shared,
    wire: Engine,
    slot: usize,
    resident: Arc<Resident>,
    elapsed: f64,
}

impl SpmvBackend for SharedPlanBackend<'_> {
    /// `matrix` is the resident's own matrix: the solver multiplies the
    /// content the slot plans.
    fn spmv(&mut self, _matrix: &CooMatrix, x: &[f32]) -> Result<Vec<f32>, SimError> {
        let plan = self.shared.resolve_plan(self.slot, &self.resident)?;
        let exec = self.shared.engines[self.slot].run_planned(&plan, x)?;
        self.elapsed += exec.latency_seconds();
        Ok(exec.y)
    }

    fn elapsed_seconds(&self) -> f64 {
        self.elapsed
    }

    fn name(&self) -> &'static str {
        self.wire.name()
    }
}

fn execute_solve(
    shared: &Shared,
    handle: u64,
    engine: Engine,
    solver: SolverKind,
    max_iterations: u32,
    tolerance: f64,
    b: &[f32],
) -> Outcome {
    let resident = shared.matrix(handle)?;
    let matrix = Arc::clone(&resident.matrix);
    admit::solve(&matrix, solver, tolerance, b)?;
    let options = CgOptions {
        max_iterations: max_iterations as usize,
        tolerance,
    };
    let start = Instant::now();
    let run = |backend: &mut dyn SpmvBackend| match solver {
        SolverKind::Cg => conjugate_gradient(backend, &matrix, b, options),
        SolverKind::Jacobi => jacobi(backend, &matrix, b, options),
    };
    let (result, simulated_nanos) = match slot(engine) {
        None => {
            let mut backend = chason::solvers::CpuBackend::default();
            (run(&mut backend), 0)
        }
        Some(slot) => {
            let mut backend = SharedPlanBackend {
                shared,
                wire: engine,
                slot,
                resident,
                elapsed: 0.0,
            };
            let result = run(&mut backend);
            (result, (backend.elapsed * 1e9) as u64)
        }
    };
    let result = result.map_err(sim_error_reply)?;
    Ok(Reply::Solved {
        solution: result.solution,
        iterations: result.iterations as u64,
        residual: result.residual,
        converged: result.converged,
        service_micros: start.elapsed().as_micros() as u64,
        simulated_nanos,
    })
}

fn execute_plan(shared: &Shared, handle: u64, engine: Engine) -> Outcome {
    let resident = shared.matrix(handle)?;
    let slot =
        slot(engine).ok_or_else(|| admit::bad_request("the cpu backend has no schedule plan"))?;
    let plan = shared
        .resolve_plan(slot, &resident)
        .map_err(sim_error_reply)?;
    let mut bytes = Vec::new();
    chason_core::export::write_plan(&mut bytes, &plan).map_err(|err| {
        Box::new(Reply::Error {
            code: ErrorCode::Internal,
            message: format!("plan serialization failed: {err}"),
        })
    })?;
    Ok(Reply::PlanArtifact { bytes })
}

fn execute_update(
    shared: &Shared,
    handle: u64,
    inserts: &[(u64, u64, f32)],
    revalues: &[(u64, u64, f32)],
    deletes: &[(u64, u64)],
) -> Outcome {
    admit::update_values(inserts, revalues)?;
    // Updates to a handle serialize under the matrices lock so version
    // N+1 is always derived from version N.
    let mut matrices = lock_unpoisoned(&shared.matrices);
    let resident = matrices
        .get(&handle)
        .cloned()
        .ok_or_else(|| admit::unknown_handle(handle))?;
    let (delta, updated) = admit::update(&resident.matrix, inserts, revalues, deletes)?;
    // The outgoing resident's Serpens plan is respliced in its dirty
    // windows for the new resident, and its Chasoň plan, if any, migrates
    // just those windows of the spliced Serpens plan. A failed splice
    // leaves the new slot empty (the Chasoň one too when the Serpens
    // splice fails), so the next request plans from scratch.
    let mut plans_spliced: u32 = 0;
    let mut windows_replanned: u64 = 0;
    let mut windows_total: u64 = 0;
    let plans: [OnceLock<Arc<SpmvPlan>>; PLAN_SLOTS] = Default::default();
    let mut count = |report: ReplanReport| {
        plans_spliced += 1;
        windows_replanned += report.windows_replanned as u64;
        windows_total = windows_total.max(report.windows_total as u64);
    };
    if let Some(plan) = resident.plans[SERPENS].get() {
        let mut baseline = (**plan).clone();
        if let Ok(report) = shared.engines[SERPENS].replan_delta(&mut baseline, &updated, &delta) {
            count(report);
            if let Some(plan) = resident.plans[CHASON].get() {
                let mut spliced = (**plan).clone();
                if let Ok(report) =
                    shared.engines[CHASON].migrate_delta(&mut spliced, &baseline, &delta)
                {
                    count(report);
                    plans[CHASON].get_or_init(|| Arc::new(spliced));
                }
            }
            plans[SERPENS].get_or_init(|| Arc::new(baseline));
        }
    }
    shared.stats.plans_spliced.add(u64::from(plans_spliced));
    shared.stats.replan_windows.add(windows_replanned);
    let version = resident.version + 1;
    let nnz = updated.nnz() as u64;
    matrices.insert(handle, Arc::new(Resident::new(updated, version, plans)));
    Ok(Reply::Updated {
        version,
        nnz,
        plans_spliced,
        windows_replanned,
        windows_total,
    })
}
