//! The `chason serve` daemon: the shared dispatch core plus the SpMV,
//! solver, plan, and update executors.
//!
//! Connections, the bounded worker queue, shedding, worker threads, and
//! drain all live in [`crate::dispatch`]; this module supplies the
//! [`Daemon`] parts that are serve's own: executing requests against the
//! shared matrix and plan caches, and the `Stats`/`Metrics` content.

use crate::admit::{self, Outcome};
use crate::dispatch::{Daemon, PoolConfig, WorkerPool};
use crate::proto::{
    Engine, ErrorCode, Reply, Request, SolverKind, StatsSnapshot, DEFAULT_MAX_FRAME,
};
use crate::stats::{lock_unpoisoned, ServerStats};
use chason::solvers::{conjugate_gradient, jacobi, CgOptions, SpmvBackend};
use chason_core::cache::LruCache;
use chason_core::plan::{matrix_fingerprint, SpmvPlan};
use chason_core::schedule::SchedulerConfig;
use chason_sim::{AcceleratorConfig, ChasonEngine, PlanningEngine, SerpensEngine, SimError};
use chason_sparse::{CooMatrix, MatrixDelta};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    /// Plan-cache capacity (one entry per engine and resident matrix
    /// generation).
    pub plan_cache_capacity: usize,
    /// Resident-matrix cache capacity.
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
            plan_cache_capacity: 64,
            matrix_cache_capacity: 32,
            idle_timeout: Duration::from_secs(30),
            max_frame_len: DEFAULT_MAX_FRAME,
            retry_after_ms: 20,
            sched: SchedulerConfig::paper(),
        }
    }
}

/// A resident matrix: the one copy of its content, row-sorted COO that the
/// CPU backend multiplies and the engines plan from, and a version counter
/// that `Update` bumps. The cache key (the load-time fingerprint) never
/// changes; the version distinguishes delta generations.
#[derive(Debug, Clone)]
struct ResidentMatrix {
    matrix: Arc<CooMatrix>,
    version: u64,
    /// Server-unique name of this exact content, the plan-cache key.
    generation: u64,
}

/// The serve daemon's state, shared by the loop thread and every worker.
///
/// Lock ordering: `matrices` before `plans` (updates splice plans while
/// serialized under the matrices lock); no path acquires them in the
/// opposite nesting.
struct Shared {
    chason: ChasonEngine,
    serpens: SerpensEngine,
    /// Resident matrices keyed by load-time structural fingerprint.
    matrices: Mutex<LruCache<u64, ResidentMatrix>>,
    /// Plans keyed by engine family and resident generation. Every load
    /// and every update gives the resident content a fresh generation, so
    /// the key names one `(handle, version)` without hashing the matrix
    /// per request — and, unlike the version, it is never reused when an
    /// evicted handle is loaded again and its versions restart at 0. Both
    /// engines share one scheduler configuration, so the engine tag is
    /// what keeps their plans apart.
    plans: Mutex<LruCache<(Engine, u64), Arc<SpmvPlan>>>,
    /// Source of [`ResidentMatrix::generation`].
    generations: AtomicU64,
    stats: ServerStats,
}

impl Shared {
    fn matrix(&self, handle: u64) -> Result<ResidentMatrix, Box<Reply>> {
        lock_unpoisoned(&self.matrices)
            .get(&handle)
            .cloned()
            .ok_or_else(|| admit::unknown_handle(handle))
    }

    /// A generation number no resident content has carried before.
    fn next_generation(&self) -> u64 {
        // relaxed: only uniqueness matters, and fetch_add is atomic at
        // every ordering; the matrices lock publishes the number.
        self.generations.fetch_add(1, Ordering::Relaxed)
    }

    /// The simulated engine behind `wire`, or `None` for the CPU backend.
    fn planner(&self, wire: Engine) -> Option<&dyn PlanningEngine> {
        match wire {
            Engine::Cpu => None,
            Engine::Chason => Some(&self.chason),
            Engine::Serpens => Some(&self.serpens),
        }
    }

    /// Returns the cached plan for (`engine`, `matrix` at `generation`),
    /// scheduling and inserting it on a miss. Scheduling runs outside the
    /// cache lock, so concurrent misses on the same key may schedule
    /// twice; the loser's insert is a harmless replace.
    fn resolve_plan(
        &self,
        wire: Engine,
        generation: u64,
        planner: &dyn PlanningEngine,
        matrix: &CooMatrix,
    ) -> Result<Arc<SpmvPlan>, SimError> {
        let key = (wire, generation);
        if let Some(plan) = lock_unpoisoned(&self.plans).get(&key) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(planner.plan(matrix)?);
        lock_unpoisoned(&self.plans).insert(key, Arc::clone(&plan));
        Ok(plan)
    }
}

impl Daemon for Shared {
    /// Serve workers keep no state of their own: everything lives in the
    /// shared caches.
    type Worker = ();
    const WORKER_NAME: &'static str = "chason-worker";
    const DRAINING: &'static str = "server is draining";

    fn stats(&self) -> &ServerStats {
        &self.stats
    }

    fn snapshot(&self) -> StatsSnapshot {
        let plan_stats = lock_unpoisoned(&self.plans).stats();
        let matrices = lock_unpoisoned(&self.matrices);
        let m = matrices.stats();
        drop(matrices);
        self.stats.snapshot(plan_stats, m.len as u64, m.evictions)
    }

    fn exposition(&self) -> String {
        let plan_stats = lock_unpoisoned(&self.plans).stats();
        let matrices = lock_unpoisoned(&self.matrices);
        let m = matrices.stats();
        drop(matrices);
        self.stats
            .render_exposition(plan_stats, m.len as u64, m.evictions)
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
        let shared = Arc::new(Shared {
            chason: ChasonEngine::new(AcceleratorConfig {
                sched: config.sched,
                ..AcceleratorConfig::chason()
            }),
            serpens: SerpensEngine::new(AcceleratorConfig {
                sched: config.sched,
                ..AcceleratorConfig::serpens()
            }),
            matrices: Mutex::new(LruCache::new(config.matrix_cache_capacity)),
            plans: Mutex::new(LruCache::new(config.plan_cache_capacity)),
            generations: AtomicU64::new(0),
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
            matrices.insert(
                handle,
                ResidentMatrix {
                    matrix: Arc::new(matrix),
                    version: 0,
                    generation: shared.next_generation(),
                },
            );
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
    let (y, simulated_nanos) = match shared.planner(engine) {
        None => (resident.matrix.spmv(x), 0),
        Some(planner) => {
            run_engine_spmv(shared, engine, planner, &resident, x).map_err(sim_error_reply)?
        }
    };
    Ok(Reply::Vector {
        y,
        service_micros: start.elapsed().as_micros() as u64,
        simulated_nanos,
    })
}

fn run_engine_spmv(
    shared: &Shared,
    wire: Engine,
    planner: &dyn PlanningEngine,
    resident: &ResidentMatrix,
    x: &[f32],
) -> Result<(Vec<f32>, u64), SimError> {
    let plan = shared.resolve_plan(wire, resident.generation, planner, &resident.matrix)?;
    let exec = planner.run_planned(&plan, x)?;
    let nanos = (exec.latency_seconds() * 1e9) as u64;
    Ok((exec.y, nanos))
}

/// A solver backend that routes every product through the server's shared
/// plan cache, so a solve warms the same cache later `Spmv` requests hit.
struct SharedPlanBackend<'a> {
    shared: &'a Shared,
    wire: Engine,
    generation: u64,
    planner: &'a dyn PlanningEngine,
    elapsed: f64,
}

impl SpmvBackend for SharedPlanBackend<'_> {
    fn spmv(&mut self, matrix: &CooMatrix, x: &[f32]) -> Result<Vec<f32>, SimError> {
        let plan = self
            .shared
            .resolve_plan(self.wire, self.generation, self.planner, matrix)?;
        let exec = self.planner.run_planned(&plan, x)?;
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
    let (result, simulated_nanos) = match shared.planner(engine) {
        None => {
            let mut backend = chason::solvers::CpuBackend::default();
            (run(&mut backend), 0)
        }
        Some(planner) => {
            let mut backend = SharedPlanBackend {
                shared,
                wire: engine,
                generation: resident.generation,
                planner,
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
    let planner = shared
        .planner(engine)
        .ok_or_else(|| admit::bad_request("the cpu backend has no schedule plan"))?;
    let plan = shared
        .resolve_plan(engine, resident.generation, planner, &resident.matrix)
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

/// Takes `wire`'s cached plan for the outgoing matrix generation (if any),
/// resplices its dirty windows in place, and re-inserts it under the
/// `incoming` generation's key. Returns `(windows_replanned,
/// windows_total)`, or `None` when there was no cached plan or the splice
/// failed — either way the stale plan is gone and the next request
/// schedules from scratch.
fn splice_plan(
    shared: &Shared,
    wire: Engine,
    outgoing: &ResidentMatrix,
    incoming: u64,
    updated: &CooMatrix,
    delta: &MatrixDelta,
) -> Option<(u64, u64)> {
    let planner = shared.planner(wire)?;
    let plan = lock_unpoisoned(&shared.plans).remove(&(wire, outgoing.generation))?;
    let mut spliced = (*plan).clone();
    match planner.replan_delta(&mut spliced, updated, delta) {
        Ok(report) => {
            let windows_total = spliced.window_count() as u64;
            lock_unpoisoned(&shared.plans).insert((wire, incoming), Arc::new(spliced));
            Some((report.windows_replanned as u64, windows_total))
        }
        Err(_) => None,
    }
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
    // N+1 is always derived from version N (lock ordering: matrices
    // before plans).
    let mut matrices = lock_unpoisoned(&shared.matrices);
    let resident = matrices
        .get(&handle)
        .cloned()
        .ok_or_else(|| admit::unknown_handle(handle))?;
    let (delta, updated) = admit::update(&resident.matrix, inserts, revalues, deletes)?;
    let mut plans_spliced: u32 = 0;
    let mut windows_replanned: u64 = 0;
    let mut windows_total: u64 = 0;
    let generation = shared.next_generation();
    let splices = [Engine::Chason, Engine::Serpens]
        .map(|wire| splice_plan(shared, wire, &resident, generation, &updated, &delta));
    for (replanned, total) in splices.into_iter().flatten() {
        plans_spliced += 1;
        windows_replanned += replanned;
        windows_total = windows_total.max(total);
    }
    shared.stats.plans_spliced.add(u64::from(plans_spliced));
    shared.stats.replan_windows.add(windows_replanned);
    let version = resident.version + 1;
    let nnz = updated.nnz() as u64;
    matrices.insert(
        handle,
        ResidentMatrix {
            matrix: Arc::new(updated),
            version,
            generation,
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
