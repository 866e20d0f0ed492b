//! The simulated accelerator, split into a *planning* half (schedule every
//! column window — vector-independent, parallelizable) and an *execution*
//! half (replay a plan against dense vectors).
//!
//! One [`Accelerator`] models both designs; its configuration's
//! [`Design`](crate::Design) decides the rest. `run`, `run_partitioned`
//! and `run_planned` share one pass loop, SpMM replays the same per-pass
//! kernel once per column of `B`, and one function
//! (`Accelerator::pass_cost`) owns the cycle model. `run` composes planning
//! and replay, so planned and unplanned execution are bit-identical by
//! construction.

use crate::config::{
    AcceleratorConfig, CycleBreakdown, Execution, INVOCATION_OVERHEAD_CYCLES, MERGE_WIDTH,
    STREAM_II, X_RELOAD_LANES,
};
use crate::replay::{rows_per_pe, Datapath, Replay, URAM_PARTIALS};
use crate::spmm::{SpmmExecution, TILE_COLS};
use crate::{Design, SimError};
use chason_core::plan::{PassPlan, PlanKey, PlanWindow, SpmvPlan};
use chason_core::replan::ReplanReport;
use chason_core::schedule::{migrated, Crhcs, PeAware, ScheduledMatrix, Scheduler, WindowRows};
use chason_core::window::{deal_windows, DealtPass, DealtWindow};
use chason_sparse::{CooMatrix, DenseMatrix, MatrixDelta};
use std::sync::OnceLock;

fn check_config(config: &AcceleratorConfig) -> Result<(), SimError> {
    if config.is_valid() {
        Ok(())
    } else {
        Err(SimError::InvalidConfig(
            "accelerator configuration failed validation".to_string(),
        ))
    }
}

fn check_len(got: usize, expected: usize) -> Result<(), SimError> {
    if got == expected {
        Ok(())
    } else {
        Err(SimError::VectorLengthMismatch { got, expected })
    }
}

/// Derates `beats` memory-path beats by the calibrated initiation-interval
/// inflation ([`STREAM_II`]).
fn derate(beats: u64) -> u64 {
    (beats as f64 * STREAM_II).ceil() as u64
}

/// Stall slots as a fraction of all stream slots (Eq. 4).
fn underutilization(stalls: usize, nnz: usize) -> f64 {
    if nnz + stalls == 0 {
        0.0
    } else {
        stalls as f64 / (nnz + stalls) as f64
    }
}

/// Concatenates row-partition passes into one execution: outputs are
/// stacked, every cost adds up, and each pass has paid its own invocation
/// and reload overheads (§4.5).
fn combine(parts: Vec<Execution>) -> Option<Execution> {
    let mut parts = parts.into_iter();
    let mut total = parts.next()?;
    for e in parts {
        total.y.extend_from_slice(&e.y);
        total.cycles.stream += e.cycles.stream;
        total.cycles.fill_drain += e.cycles.fill_drain;
        total.cycles.x_reload += e.cycles.x_reload;
        total.cycles.reduction += e.cycles.reduction;
        total.cycles.merge += e.cycles.merge;
        total.cycles.invocation += e.cycles.invocation;
        total.stalls += e.stalls;
        total.nnz += e.nnz;
        total.bytes_streamed += e.bytes_streamed;
        total.bytes_auxiliary += e.bytes_auxiliary;
        total.windows += e.windows;
        total.mac_ops += e.mac_ops;
    }
    total.rows = total.y.len();
    total.underutilization = underutilization(total.stalls, total.nnz);
    Some(total)
}

/// A simulated streaming SpMV accelerator: Chasoň or its Serpens baseline,
/// as its configuration's [`Design`](crate::Design) says.
///
/// Both designs stream the same column-window schedules through the same
/// datapath model. A [`Design::Chason`](crate::Design::Chason) machine
/// migrates each PE-aware window with CrHCS and gives its PEs a ScUG of
/// [`Design::scug_size`](crate::Design::scug_size) banks and its PEGs a
/// Reduction Unit; a [`Design::Serpens`](crate::Design::Serpens) machine
/// does neither.
///
/// # Example
///
/// ```
/// use chason_sim::{Accelerator, AcceleratorConfig};
/// use chason_sparse::generators::uniform_random;
///
/// # fn main() -> Result<(), chason_sim::SimError> {
/// let m = uniform_random(256, 256, 1000, 1);
/// let x = vec![1.0f32; 256];
/// let exec = Accelerator::new(AcceleratorConfig::chason()).run(&m, &x)?;
/// assert_eq!(exec.mac_ops, 1000);
/// assert_eq!(exec.engine, "chason");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AcceleratorConfig,
}

impl Accelerator {
    /// Creates an accelerator with the given configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        Accelerator { config }
    }

    /// The accelerator's configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The design's tag, stamped on executions and plans.
    fn name(&self) -> &'static str {
        self.config.design.name()
    }

    /// Deployed `URAM_sh` banks per PE: 0 for Serpens, whose PEs carry no
    /// ScUG and whose PEGs have no Reduction Unit.
    fn scug_size(&self) -> usize {
        self.config.design.scug_size(&self.config.sched)
    }

    /// Executes `y = A·x`, returning the result vector and the
    /// cycle/traffic accounting.
    ///
    /// # Errors
    ///
    /// * [`SimError::VectorLengthMismatch`] if `x.len() != matrix.cols()`;
    /// * [`SimError::RowCapacityExceeded`] if the matrix needs more
    ///   partial-sum rows per PE than a URAM holds (use
    ///   [`run_partitioned`](Self::run_partitioned));
    /// * [`SimError::InvalidConfig`] for inconsistent configurations.
    pub fn run(&self, matrix: &CooMatrix, x: &[f32]) -> Result<Execution, SimError> {
        self.plan_and_run(matrix, x, false)
    }

    /// Executes `y = A·x`, automatically row-partitioning matrices whose
    /// per-PE row count exceeds the partial-sum URAM capacity (§4.5). Each
    /// pass pays its own invocation and x-reload overheads, exactly as the
    /// hardware would.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run), except that
    /// [`SimError::RowCapacityExceeded`] can no longer occur.
    pub fn run_partitioned(&self, matrix: &CooMatrix, x: &[f32]) -> Result<Execution, SimError> {
        self.plan_and_run(matrix, x, true)
    }

    /// Schedules `matrix` into a reusable [`SpmvPlan`] without executing
    /// it.
    ///
    /// The plan captures every column window's schedule (grouped into the
    /// same row-partition passes [`run_partitioned`](Self::run_partitioned)
    /// uses when the matrix exceeds the per-PE partial-sum capacity), keyed
    /// by the matrix fingerprint and scheduler configuration. Windows are
    /// scheduled in parallel across all available cores; the result is
    /// independent of the thread count.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for inconsistent configurations.
    pub fn plan(&self, matrix: &CooMatrix) -> Result<SpmvPlan, SimError> {
        self.plan_with_threads(matrix, available_threads())
    }

    /// [`plan`](Self::plan) with an explicit window-scheduling thread count
    /// (`1` forces serial planning).
    ///
    /// # Errors
    ///
    /// Same conditions as [`plan`](Self::plan).
    pub fn plan_with_threads(
        &self,
        matrix: &CooMatrix,
        threads: usize,
    ) -> Result<SpmvPlan, SimError> {
        let passes = self.plan_passes(matrix, threads, true)?;
        Ok(self.spmv_plan(matrix, passes))
    }

    /// Derives this Chasoň machine's plan from `baseline`, a Serpens plan
    /// built under the same scheduler configuration and window width, by
    /// migrating each window's schedule out of place, in parallel across
    /// windows. Nothing is dealt or scheduled PE-aware, and `baseline` is
    /// left as it was. The result equals [`plan`](Self::plan) of the
    /// baseline's matrix.
    ///
    /// # Errors
    ///
    /// [`SimError::PlanMismatch`] on a Serpens machine, which has no ScUG
    /// to migrate into, and for a baseline built by another design or
    /// configuration.
    pub fn migrate_plan(&self, baseline: &SpmvPlan) -> Result<SpmvPlan, SimError> {
        self.migrate_plan_with_threads(baseline, available_threads())
    }

    /// [`migrate_plan`](Self::migrate_plan) with an explicit thread count
    /// (`1` migrates serially).
    ///
    /// # Errors
    ///
    /// Same conditions as [`migrate_plan`](Self::migrate_plan).
    pub fn migrate_plan_with_threads(
        &self,
        baseline: &SpmvPlan,
        threads: usize,
    ) -> Result<SpmvPlan, SimError> {
        self.check_baseline(baseline)?;
        let passes = baseline
            .passes
            .iter()
            .map(|pass| PassPlan {
                windows: parallel_map(&pass.windows, threads, |w| {
                    PlanWindow::new(w.col_start, w.col_end, migrated(&w.schedule).0)
                }),
                ..*pass
            })
            .collect();
        Ok(SpmvPlan {
            engine: self.name().to_string(),
            passes,
            ..*baseline
        })
    }

    /// This machine's plan of `matrix` holding `passes`.
    fn spmv_plan(&self, matrix: &CooMatrix, passes: Vec<PassPlan>) -> SpmvPlan {
        SpmvPlan {
            key: self.plan_key(matrix),
            engine: self.name().to_string(),
            window: self.config.window,
            rows: matrix.rows(),
            cols: matrix.cols(),
            nnz: matrix.nnz(),
            passes,
        }
    }

    /// The cache key identifying `matrix` scheduled under this
    /// accelerator's configuration.
    pub fn plan_key(&self, matrix: &CooMatrix) -> PlanKey {
        PlanKey::new(matrix, self.config.sched)
    }

    /// Splices `delta` into `plan` by re-scheduling only the column windows
    /// the delta's row/column footprint dirties, leaving every other
    /// window's schedule untouched.
    ///
    /// `updated` must be the delta applied to the plan's source matrix
    /// (`MatrixDelta::apply`). Because the pass/window skeleton depends
    /// only on the matrix shape — which deltas never change — and dirty
    /// windows are re-scheduled the deterministic way
    /// [`plan`](Self::plan) schedules them, the spliced plan is
    /// bit-identical to [`plan`](Self::plan) of `updated`; the conformance
    /// suite's delta oracle asserts exactly that across the corpus. The
    /// report says how many windows were re-scheduled.
    ///
    /// # Errors
    ///
    /// * [`SimError::PlanMismatch`] if the plan was built by a different
    ///   design or configuration, or if `updated`/`delta` are inconsistent
    ///   with the plan (shape or non-zero count disagreement).
    pub fn replan_delta(
        &self,
        plan: &mut SpmvPlan,
        updated: &CooMatrix,
        delta: &MatrixDelta,
    ) -> Result<ReplanReport, SimError> {
        self.check_plan(plan, self.config.design, "be respliced on")?;
        plan.apply_delta(updated, delta, |rows| self.schedule_window(rows))
            .map_err(|e| SimError::PlanMismatch(e.to_string()))
    }

    /// Splices `delta` into `plan`, this Chasoň machine's plan, from
    /// `baseline`: the Serpens plan of the same matrix that
    /// [`replan_delta`](Self::replan_delta) has already spliced `delta`
    /// into. Only the windows the delta dirties are migrated again, out of
    /// place from the baseline's; nothing is dealt or scheduled PE-aware.
    /// The spliced plan equals [`plan`](Self::plan) of the updated matrix.
    ///
    /// # Errors
    ///
    /// [`SimError::PlanMismatch`] if `plan` is not this machine's, if
    /// `baseline` is not a Serpens plan of the same configuration, or if
    /// the two plans and `delta` disagree on shape, windows or non-zeros.
    pub fn migrate_delta(
        &self,
        plan: &mut SpmvPlan,
        baseline: &SpmvPlan,
        delta: &MatrixDelta,
    ) -> Result<ReplanReport, SimError> {
        self.check_plan(plan, self.config.design, "be respliced on")?;
        self.check_baseline(baseline)?;
        plan.splice_from(baseline, delta, |schedule| migrated(schedule).0)
            .map_err(|e| SimError::PlanMismatch(e.to_string()))
    }

    /// Executes `y = A·x` from a plan built by [`plan`](Self::plan),
    /// without rescheduling. The result is bit-identical to
    /// [`run`](Self::run) (or [`run_partitioned`](Self::run_partitioned)
    /// for matrices that needed row partitioning) on the plan's source
    /// matrix.
    ///
    /// # Errors
    ///
    /// * [`SimError::PlanMismatch`] if the plan was built by a different
    ///   design or under a different scheduler configuration or window
    ///   width;
    /// * [`SimError::VectorLengthMismatch`] if `x.len() != plan.cols`;
    /// * [`SimError::InvalidConfig`] for inconsistent configurations.
    pub fn run_planned(&self, plan: &SpmvPlan, x: &[f32]) -> Result<Execution, SimError> {
        self.check_plan(plan, self.config.design, "run on")?;
        self.execute_passes(&plan.passes, plan.cols, x)
    }

    /// Executes `C = α·A·B + β·C0` on this accelerator's datapath (§7.2):
    /// `A` is planned once as a single pass; the columns of a tile run
    /// concurrently in hardware (widened URAM slots), and since the result
    /// is column-separable each column of `B` is replayed through the SpMV
    /// kernel while the cycle model charges one stream per 8-column tile.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run), plus shape mismatches between
    /// `A`, `B` and `C`.
    pub fn run_spmm(
        &self,
        a: &CooMatrix,
        b: &DenseMatrix,
        alpha: f32,
        beta: f32,
        c0: &DenseMatrix,
    ) -> Result<SpmmExecution, SimError> {
        let config = &self.config;
        check_config(config)?;
        check_len(b.rows(), a.cols())?;
        if c0.rows() != a.rows() || c0.cols() != b.cols() {
            return Err(SimError::InvalidConfig(format!(
                "C shape {}x{} must be {}x{}",
                c0.rows(),
                c0.cols(),
                a.rows(),
                b.cols()
            )));
        }
        // Unpartitioned planning deals exactly one pass.
        let passes = self.plan_passes(a, 1, false)?;
        let pass = &passes[0];
        self.verify(pass)?;
        let n = b.cols();
        let tiles = n.div_ceil(TILE_COLS).max(usize::from(n == 0));
        // C read-modify-write goes through the 8 output channels (§7.2).
        let (mut cycles, bytes_streamed) = self.pass_cost(pass, tiles as u64, a.rows() * n);
        // B-tile loading between windows (4 channels stream B in §7.2): a
        // full window per tile, unlike SpMV's per-slice x reload.
        let reload = (pass.windows.len() * tiles)
            .max(1)
            .saturating_mul(config.window.div_ceil(X_RELOAD_LANES));
        cycles.x_reload += derate(reload as u64);

        let mut c = DenseMatrix::zeros(a.rows(), n);
        let mut mac_ops = 0u64;
        for j in 0..n {
            let column = self.replay(pass, &b.column(j), replay_threads(pass))?;
            mac_ops += column.mac_ops;
            for (r, &v) in column.y.iter().enumerate() {
                c.set(r, j, alpha * v + beta * c0.get(r, j));
            }
        }
        Ok(SpmmExecution {
            engine: self.name(),
            c,
            cycles,
            clock_mhz: config.clock_mhz,
            tiles,
            mac_ops,
            bytes_streamed,
        })
    }

    /// Schedules one dealt column window: with [`Crhcs`] exactly when the
    /// PEs carry a ScUG to hold migrated partial sums, with [`PeAware`]
    /// (Serpens) otherwise.
    fn schedule_window(&self, rows: &WindowRows) -> ScheduledMatrix {
        if self.scug_size() > 0 {
            Crhcs::new().schedule_rows(rows, &self.config.sched)
        } else {
            PeAware::new().schedule_rows(rows, &self.config.sched)
        }
    }

    /// Schedules every dealt column window of `pass` into a [`PassPlan`].
    ///
    /// Windows are independent — each is scheduled from its own lanes — so
    /// with `threads > 1` they are scheduled concurrently
    /// ([`parallel_map`]); the plan is identical for every thread count.
    fn plan_pass(&self, pass: DealtPass, threads: usize) -> PassPlan {
        let windows = parallel_map(&pass.windows, threads, |window: &DealtWindow| {
            PlanWindow::new(
                window.col_start,
                window.col_end,
                self.schedule_window(&window.rows),
            )
        });
        PassPlan {
            row_start: pass.row_start,
            row_end: pass.row_end,
            nnz: windows.iter().map(|w| w.nnz).sum(),
            windows,
        }
    }

    /// Plans `matrix` pass by pass, dealing every window's entries to its
    /// lanes in one sweep of the matrix. With `partition` set, a matrix
    /// needing more partial-sum rows per PE than a URAM holds is split on
    /// capacity boundaries into row-partition passes (§4.5); otherwise it
    /// is planned as one pass and replay reports the overflow.
    fn plan_passes(
        &self,
        matrix: &CooMatrix,
        threads: usize,
        partition: bool,
    ) -> Result<Vec<PassPlan>, SimError> {
        check_config(&self.config)?;
        let sched = &self.config.sched;
        let rows_per_pe = if partition {
            URAM_PARTIALS
        } else {
            matrix.rows().div_ceil(sched.total_pes()).max(1)
        };
        Ok(
            deal_windows(matrix, sched, rows_per_pe, self.config.window, |_, _| true)
                .into_iter()
                .map(|pass| self.plan_pass(pass, threads))
                .collect(),
        )
    }

    /// Plans (serially) and replays in one go; see `plan_passes` for
    /// `partition`.
    fn plan_and_run(
        &self,
        matrix: &CooMatrix,
        x: &[f32],
        partition: bool,
    ) -> Result<Execution, SimError> {
        check_len(x.len(), matrix.cols())?;
        let passes = self.plan_passes(matrix, 1, partition)?;
        self.execute_passes(&passes, matrix.cols(), x)
    }

    /// Rejects a plan built by another design than `design` or under
    /// another configuration.
    fn check_plan(&self, plan: &SpmvPlan, design: Design, action: &str) -> Result<(), SimError> {
        if plan.engine != design.name() {
            return Err(SimError::PlanMismatch(format!(
                "plan built by the {} engine cannot {action} {}",
                plan.engine,
                self.name()
            )));
        }
        if plan.key.config != self.config.sched || plan.window != self.config.window {
            return Err(SimError::PlanMismatch(
                "plan was built under a different configuration".to_string(),
            ));
        }
        Ok(())
    }

    /// Rejects a `baseline` this machine cannot migrate: one not built by
    /// Serpens under this configuration, or any baseline when this machine
    /// has no ScUG.
    fn check_baseline(&self, baseline: &SpmvPlan) -> Result<(), SimError> {
        if self.scug_size() == 0 {
            return Err(SimError::PlanMismatch(format!(
                "the {} engine has no ScUG to migrate a baseline plan into",
                self.name()
            )));
        }
        self.check_plan(baseline, Design::Serpens, "be migrated on")
    }

    /// The pass loop: replays every pass against `x` and concatenates them.
    fn execute_passes(
        &self,
        passes: &[PassPlan],
        cols: usize,
        x: &[f32],
    ) -> Result<Execution, SimError> {
        check_len(x.len(), cols)?;
        check_config(&self.config)?;
        let parts = passes
            .iter()
            .map(|pass| self.execute_pass(pass, cols, x))
            .collect::<Result<Vec<_>, _>>()?;
        combine(parts).ok_or_else(|| SimError::PlanMismatch("plan contains no passes".to_string()))
    }

    /// In debug builds (and under the `strict-verify` feature) a pass is run
    /// through the `chason-verify` static checker before it executes; a
    /// pass with rule violations is rejected with
    /// [`SimError::InvalidSchedule`] instead of producing silently wrong
    /// numbers.
    fn verify(&self, pass: &PassPlan) -> Result<(), SimError> {
        if cfg!(any(debug_assertions, feature = "strict-verify")) {
            let report = chason_verify::verify_pass(pass, &self.config.sched, self.config.window);
            if report.has_errors() {
                return Err(SimError::InvalidSchedule(report.to_string()));
            }
        }
        Ok(())
    }

    /// Executes one planned SpMV pass against `x`: the cycle model with one
    /// stream replay, the per-window x reload, and one functional replay.
    fn execute_pass(&self, pass: &PassPlan, cols: usize, x: &[f32]) -> Result<Execution, SimError> {
        self.verify(pass)?;
        let config = &self.config;
        let rows = pass.rows();
        let (mut cycles, bytes_streamed) = self.pass_cost(pass, 1, rows);
        let mut bytes_auxiliary = (rows * 4) as u64; // y writeback
        for window in &pass.windows {
            // Every PEG's x buffer is reloaded with the window's slice,
            // broadcast from one HBM channel at `X_RELOAD_LANES` words/cycle.
            let width = window.col_end - window.col_start;
            cycles.x_reload += derate(width.div_ceil(X_RELOAD_LANES) as u64);
            bytes_auxiliary += (width * 4) as u64;
        }
        let stalls = pass.windows.iter().map(|w| w.schedule.stalls()).sum();
        let replay = self.replay(pass, x, replay_threads(pass))?;
        Ok(Execution {
            engine: self.name(),
            y: replay.y,
            cycles,
            clock_mhz: config.clock_mhz,
            nnz: pass.nnz,
            rows,
            cols,
            stalls,
            underutilization: underutilization(stalls, pass.nnz),
            bytes_streamed,
            bytes_auxiliary,
            windows: pass.windows.len(),
            mac_ops: replay.mac_ops,
        })
    }

    /// The cycle model of one pass whose non-zero stream is replayed
    /// `tiles` times (once for SpMV, once per 8-column tile of `B` for
    /// SpMM) and which writes `outputs` values through the Arbiter/Merger.
    /// Returns the cycles — every term but the x reload, which SpMV charges
    /// per window slice and SpMM per `B` tile — and the bytes streamed from
    /// the sparse-matrix channels.
    fn pass_cost(&self, pass: &PassPlan, tiles: u64, outputs: usize) -> (CycleBreakdown, u64) {
        let sched = &self.config.sched;
        let mut cycles = CycleBreakdown::default();
        let mut bytes_streamed = 0u64;
        for window in &pass.windows {
            // All channels stream their (equalized) lists in lockstep, one
            // 64-bit word per lane per beat; each replay drains the pipeline.
            let beats = window.schedule.stream_cycles() as u64 * tiles;
            cycles.stream += derate(beats);
            cycles.fill_drain += sched.dependency_distance as u64 * tiles;
            bytes_streamed += beats * (sched.channels * sched.pes_per_channel * 8) as u64;
        }
        // Reduction Unit sweep (Chasoň only): the adder tree consolidates
        // one `P`-bank ScUG group per migration hop, visiting every
        // partial-sum address once per group, plus the tree's own depth
        // (§4.2.2).
        let scug_size = self.scug_size();
        if scug_size > 0 {
            let hop_groups = (scug_size / sched.pes_per_channel) as u64;
            let sweep = hop_groups * rows_per_pe(sched, pass.rows()) as u64;
            let tree_depth = (sched.pes_per_channel as f64).log2().ceil() as u64;
            cycles.reduction += derate((sweep + tree_depth) * tiles);
        }
        // Arbiter/Merger drain: 16 FP32 output values per cycle (§4.3).
        cycles.merge += derate(outputs.div_ceil(MERGE_WIDTH) as u64);
        cycles.invocation += INVOCATION_OVERHEAD_CYCLES;
        (cycles, bytes_streamed)
    }

    /// Replays `pass`'s stored schedules against `x` on fresh PEGs and
    /// merges their partial sums into `y` (see [`Datapath::replay`]).
    fn replay(&self, pass: &PassPlan, x: &[f32], threads: usize) -> Result<Replay, SimError> {
        let config = &self.config;
        let windows: Vec<_> = pass
            .windows
            .iter()
            .map(|w| (w.col_start..w.col_end, &w.schedule))
            .collect();
        Datapath::new(config.sched, self.scug_size(), pass.rows())?.replay(
            &windows,
            x,
            config.window,
            threads,
        )
    }
}

/// Maps `f` over `items` on up to `threads` scoped workers, each owning one
/// contiguous chunk, and returns the results in item order, so they are the
/// same for every thread count.
fn parallel_map<T: Sync, U: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    let chunks = crossbeam::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(move |_| part.iter().map(f).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // A panic in a worker can only come from a scheduler bug;
                // propagating it (rather than discarding the plan) is the
                // correct surface for that failure.
                #[allow(clippy::expect_used)] // xtask: propagates worker panics
                h.join().expect("window planner threads do not panic")
            })
            .collect::<Vec<_>>()
    });
    #[allow(clippy::expect_used)] // xtask: scope only errs if a child panicked
    let chunks = chunks.expect("window planner scope does not panic");
    chunks.into_iter().flatten().collect()
}

/// Threads used by `plan` when the caller does not choose a count: the
/// host's available parallelism, read once.
fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Occupied slots a replay thread must have to pay for starting it: a slot
/// costs tens of nanoseconds to replay, a thread tens of microseconds to
/// start.
const SLOTS_PER_REPLAY_THREAD: usize = 1 << 15;

/// Threads replaying `pass`: the available parallelism, but none that
/// would have fewer than [`SLOTS_PER_REPLAY_THREAD`] slots.
fn replay_threads(pass: &PassPlan) -> usize {
    available_threads()
        .min(pass.nnz / SLOTS_PER_REPLAY_THREAD)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chason_core::schedule::{NzSlot, SchedulerConfig};
    use chason_sparse::generators::{power_law, uniform_random};

    fn chason() -> Accelerator {
        Accelerator::new(AcceleratorConfig::chason())
    }

    fn serpens() -> Accelerator {
        Accelerator::new(AcceleratorConfig::serpens())
    }

    /// A tiny machine (4 PEs) makes partitioning kick in at small sizes
    /// without allocating million-row URAM mirrors.
    fn tiny_engine() -> Accelerator {
        Accelerator::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            ..AcceleratorConfig::chason()
        })
    }

    #[test]
    fn replay_is_the_same_on_every_thread_count() {
        let m = power_law(3000, 20_000, 40_000, 1.6, 11);
        let x: Vec<f32> = (0..m.cols()).map(|i| 0.5 + (i % 7) as f32 * 0.25).collect();
        let chason = chason();
        let serpens = serpens();
        let chason_plan = chason.plan_with_threads(&m, 1).unwrap();
        let serpens_plan = serpens.plan_with_threads(&m, 1).unwrap();
        let replays = |threads: usize| {
            [
                chason.replay(&chason_plan.passes[0], &x, threads),
                serpens.replay(&serpens_plan.passes[0], &x, threads),
            ]
            .map(Result::unwrap)
        };
        let serial = replays(1);
        assert!(serial.iter().all(|r| r.mac_ops == 40_000));
        for threads in [2, 3, 5, 16, 64] {
            for (one, many) in serial.iter().zip(replays(threads)) {
                assert_eq!(one.y.len(), many.y.len());
                assert!(one
                    .y
                    .iter()
                    .zip(&many.y)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                assert_eq!(one.mac_ops, many.mac_ops);
            }
        }
    }

    /// Every window of `plan`, in (pass, window) order.
    fn plan_windows(plan: &SpmvPlan) -> Vec<&PlanWindow> {
        plan.passes.iter().flat_map(|p| &p.windows).collect()
    }

    #[test]
    fn replay_reports_the_first_failure_in_serial_order() {
        let m = uniform_random(512, 300, 2_000, 4);
        let x = vec![1.0f32; 300];
        let engine = chason();
        let mut plan = engine.plan_with_threads(&m, 1).unwrap();
        let pass = &mut plan.passes[0];
        // Misroute one slot in each of channels 3 and 12: lane 9 does not
        // exist in an 8-PE group.
        for c in [12, 3] {
            let channel = &mut pass.windows[0].schedule.channels[c];
            let (cycle, lane, nz) = channel.occupied().next().unwrap();
            channel.take(cycle, lane);
            channel.insert(cycle, 9, nz);
        }
        for threads in [1, 2, 16] {
            match engine.replay(pass, &x, threads) {
                Err(SimError::RoutingViolation(msg)) => {
                    assert!(msg.contains("PEG 3 "), "{threads} threads: {msg}")
                }
                _ => panic!("{threads} threads: misrouted slot not rejected"),
            }
        }
        // A plan read from a file may carry more channels than PEGs: a
        // typed error, not an out-of-bounds panic.
        let extra = pass.windows[0].schedule.channels[0].clone();
        pass.windows[0].schedule.channels.push(extra);
        assert!(matches!(
            engine.replay(pass, &x, 2),
            Err(SimError::RoutingViolation(msg)) if msg.contains("17 channels to 16 PEGs")
        ));
    }

    /// Rewrites the first occupied slot of window `w` through `edit`.
    fn edit_first_slot(pass: &mut PassPlan, w: usize, edit: impl FnOnce(&mut NzSlot)) {
        let channel = pass.windows[w]
            .schedule
            .channels
            .iter_mut()
            .find(|ch| ch.nonzeros() > 0)
            .unwrap();
        let (cycle, lane, _) = channel.occupied().next().unwrap();
        assert!(channel.edit(cycle, lane, edit));
    }

    #[test]
    fn malformed_slots_and_windows_are_routing_violations() {
        // 4 PEs and 16-column windows: 64 rows are 16 per PE, and 40
        // columns are windows 0..16, 16..32 and the narrower 32..40.
        let engine = Accelerator::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            window: 16,
            ..AcceleratorConfig::chason()
        });
        let plan = engine
            .plan_with_threads(&uniform_random(64, 40, 400, 8), 1)
            .unwrap();
        let x: Vec<f32> = (0..40).map(|i| 1.0 + i as f32).collect();
        type Corrupt = fn(&mut PassPlan);
        let cases: [(Corrupt, &str); 3] = [
            // Inside the 16-word buffer, past the last window's 8 columns:
            // no x word of this window lives there.
            (
                |pass| edit_first_slot(pass, 2, |nz| nz.col = 8),
                "x window holds 8 words",
            ),
            // Same PE, one URAM's worth of rows further on.
            (
                |pass| edit_first_slot(pass, 0, |nz| nz.row += 64),
                "in a pass of 64 rows",
            ),
            (
                |pass| pass.windows[0].col_end = 17,
                "window at columns 0..17 does not fit a 16-word x buffer",
            ),
        ];
        for (corrupt, expected) in cases {
            let mut pass = plan.passes[0].clone();
            corrupt(&mut pass);
            for threads in [1, 2] {
                match engine.replay(&pass, &x, threads) {
                    Err(SimError::RoutingViolation(msg)) => {
                        assert!(msg.contains(expected), "{msg}")
                    }
                    Err(other) => panic!("{expected}: wrong error {other}"),
                    Ok(_) => panic!("{expected}: replayed without an error"),
                }
            }
        }
    }

    #[test]
    fn a_crhcs_pass_needs_a_scug() {
        // Every row lives on channel 1, so CrHCS migrates into channel 0.
        let sched = SchedulerConfig::toy(2, 2, 4);
        let t: Vec<_> = (0..30)
            .map(|i| (2 + (i % 2) + 4 * (i / 2), i % 8, 1.0 + i as f32))
            .collect();
        let m = CooMatrix::from_triplets(64, 8, t).unwrap();
        let x = vec![1.0f32; 8];
        let chason = Accelerator::new(AcceleratorConfig {
            sched,
            ..AcceleratorConfig::chason()
        });
        let serpens = Accelerator::new(AcceleratorConfig {
            sched,
            ..AcceleratorConfig::serpens()
        });
        let crhcs = chason.plan_with_threads(&m, 1).unwrap();
        let pe_aware = serpens.plan_with_threads(&m, 1).unwrap();
        assert!(crhcs.passes[0].windows[0].schedule.channels[0]
            .occupied()
            .any(|(_, _, nz)| !nz.pvt));
        // Serpens PEs have no ScUG: a migrated element has nowhere to go.
        assert!(matches!(
            serpens.replay(&crhcs.passes[0], &x, 1),
            Err(SimError::RoutingViolation(msg)) if msg.contains("with ScUG size 0")
        ));
        let replay = serpens.replay(&pe_aware.passes[0], &x, 1).unwrap();
        assert_eq!(replay.y, m.spmv(&x));
        assert_eq!(replay.mac_ops, 30);
    }

    #[test]
    fn one_uram_bounds_the_rows_of_a_pass() {
        // One PE: a pass of URAM_PARTIALS rows fits, one more does not.
        let engine = Accelerator::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(1, 1, 4),
            ..AcceleratorConfig::chason()
        });
        let matrix = |rows| CooMatrix::from_triplets(rows, 1, vec![(rows - 1, 0, 2.0)]).unwrap();
        let exec = engine.run(&matrix(URAM_PARTIALS), &[1.5]).unwrap();
        assert_eq!(exec.y[URAM_PARTIALS - 1], 3.0);
        assert_eq!(
            engine.run(&matrix(URAM_PARTIALS + 1), &[1.5]),
            Err(SimError::RowCapacityExceeded {
                rows_per_pe: URAM_PARTIALS + 1,
                capacity: URAM_PARTIALS,
            })
        );
    }

    #[test]
    fn small_matrices_take_the_single_pass_path() {
        let m = uniform_random(128, 64, 400, 3);
        let x = vec![1.0f32; 64];
        let direct = chason().run(&m, &x).unwrap();
        let auto = chason().run_partitioned(&m, &x).unwrap();
        assert_eq!(direct, auto);
    }

    #[test]
    fn oversized_matrix_is_partitioned_and_correct() {
        // 4 PEs x 8192 rows/PE = 32_768 rows per pass; use 70_000 rows.
        let m = uniform_random(70_000, 128, 30_000, 5);
        let x: Vec<f32> = (0..128).map(|i| 0.25 + (i % 3) as f32).collect();
        let engine = tiny_engine();
        assert!(matches!(
            engine.run(&m, &x),
            Err(SimError::RowCapacityExceeded { .. })
        ));
        let exec = engine.run_partitioned(&m, &x).unwrap();
        assert_eq!(exec.y.len(), 70_000);
        assert_eq!(exec.mac_ops, 30_000);
        let oracle = m.spmv(&x);
        for (i, (a, b)) in exec.y.iter().zip(&oracle).enumerate() {
            let scale = a.abs().max(b.abs()).max(1.0);
            assert!((a - b).abs() / scale < 1e-4, "row {i}: {a} vs {b}");
        }
        // Three passes, each paying an invocation overhead.
        let passes = 70_000usize.div_ceil(32_768) as u64;
        assert_eq!(exec.cycles.invocation, passes * INVOCATION_OVERHEAD_CYCLES);
    }

    #[test]
    fn serpens_partitions_too() {
        let m = uniform_random(40_000, 64, 10_000, 7);
        let x = vec![0.5f32; 64];
        let engine = Accelerator::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            clock_mhz: 223.0,
            ..AcceleratorConfig::serpens()
        });
        let exec = engine.run_partitioned(&m, &x).unwrap();
        assert_eq!(exec.engine, "serpens");
        assert_eq!(exec.y.len(), 40_000);
        let oracle = m.spmv(&x);
        let err: f32 = exec
            .y
            .iter()
            .zip(&oracle)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(err < 1e-2, "max abs err {err}");
    }

    #[test]
    fn vector_mismatch_is_still_detected() {
        let m = uniform_random(10, 10, 10, 1);
        let err = chason().run_partitioned(&m, &[1.0; 3]).unwrap_err();
        assert!(matches!(err, SimError::VectorLengthMismatch { .. }));
    }

    fn reference(m: &CooMatrix, x: &[f32]) -> Vec<f32> {
        m.spmv(x)
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!(
                (x - y).abs() / scale < 1e-4,
                "row {i}: {x} vs {y} differ beyond FP reassociation tolerance"
            );
        }
    }

    #[test]
    fn result_matches_reference_on_random_matrix() {
        let m = uniform_random(300, 300, 2500, 11);
        let x: Vec<f32> = (0..300).map(|i| (i as f32 * 0.37).sin()).collect();
        let exec = chason().run(&m, &x).unwrap();
        assert_close(&exec.y, &reference(&m, &x));
        assert_eq!(exec.mac_ops, 2500);
        assert_eq!(exec.engine, "chason");
    }

    #[test]
    fn result_matches_reference_on_skewed_matrix() {
        let m = power_law(500, 500, 4000, 1.9, 23);
        let x: Vec<f32> = (0..500).map(|i| 1.0 + (i % 7) as f32).collect();
        let exec = chason().run(&m, &x).unwrap();
        assert_close(&exec.y, &reference(&m, &x));
    }

    #[test]
    fn wide_matrix_spans_multiple_windows() {
        // 20_000 columns -> 3 windows of W = 8192.
        let m = uniform_random(64, 20_000, 5_000, 3);
        let x = vec![0.5f32; 20_000];
        let exec = chason().run(&m, &x).unwrap();
        assert_eq!(exec.windows, 3);
        assert_close(&exec.y, &reference(&m, &x));
        assert!(exec.cycles.x_reload >= 3);
    }

    #[test]
    fn vector_length_is_validated() {
        let m = uniform_random(10, 10, 10, 1);
        let err = chason().run(&m, &[1.0; 9]).unwrap_err();
        assert!(matches!(err, SimError::VectorLengthMismatch { .. }));
    }

    #[test]
    fn oversized_matrix_reports_capacity() {
        // 128 PEs * 8192 rows/PE = 1_048_576 rows max; exceed it.
        let m = CooMatrix::new(1_100_000, 4);
        let err = chason().run(&m, &[0.0; 4]).unwrap_err();
        assert!(matches!(err, SimError::RowCapacityExceeded { .. }));
    }

    #[test]
    fn empty_matrix_executes_cleanly() {
        let m = CooMatrix::new(16, 16);
        let exec = chason().run(&m, &[1.0; 16]).unwrap();
        assert_eq!(exec.y, vec![0.0; 16]);
        assert_eq!(exec.cycles.stream, 0);
    }

    #[test]
    fn multi_hop_deploys_a_linearly_larger_scug() {
        // scug_size is the per-PE partial-sum group count the PEGs deploy;
        // it must scale linearly with the hop count (§6.1's cost model,
        // mirrored by `ResourceConfig::chason_with_hops`).
        let mut config = AcceleratorConfig::chason();
        config.sched.migration_hops = 2;
        let engine = Accelerator::new(config);
        assert_eq!(engine.scug_size(), 2 * config.sched.pes_per_channel);
        assert_eq!(chason().scug_size(), config.sched.pes_per_channel);
        // A two-hop machine still executes correctly end to end.
        let m = power_law(400, 400, 3000, 1.9, 7);
        let x: Vec<f32> = (0..400).map(|i| 0.5 + (i % 5) as f32).collect();
        let exec = engine.run(&m, &x).unwrap();
        assert_close(&exec.y, &reference(&m, &x));
        // More migration reach can only help utilization.
        let one_hop = chason().run(&m, &x).unwrap();
        assert!(exec.underutilization <= one_hop.underutilization + 1e-12);
    }

    #[test]
    fn reduction_cycles_grow_with_migration_hops() {
        let m = uniform_random(256, 256, 500, 2);
        let x = vec![1.0; 256];
        let reduction = |config: AcceleratorConfig, hops| {
            let sched = SchedulerConfig {
                migration_hops: hops,
                ..config.sched
            };
            let exec = Accelerator::new(AcceleratorConfig { sched, ..config });
            exec.run(&m, &x).unwrap().cycles.reduction
        };
        for hops in 1..=3u64 {
            // One 2-row sweep per hop's ScUG bank group, plus tree depth 3.
            assert_eq!(
                reduction(AcceleratorConfig::chason(), hops as usize),
                ((2 * hops + 3) as f64 * crate::STREAM_II).ceil() as u64
            );
            assert_eq!(reduction(AcceleratorConfig::serpens(), hops as usize), 0);
        }
    }

    #[test]
    fn reduction_cycles_are_charged() {
        let m = uniform_random(256, 256, 500, 2);
        let exec = chason().run(&m, &vec![1.0; 256]).unwrap();
        // 256 rows / 128 PEs = 2 rows per PE + tree depth 3, derated by the
        // memory-path initiation interval.
        assert_eq!(
            exec.cycles.reduction,
            ((2.0 + 3.0) * crate::STREAM_II).ceil() as u64
        );
    }

    #[test]
    fn result_matches_reference() {
        let m = uniform_random(300, 300, 2500, 7);
        let x: Vec<f32> = (0..300).map(|i| (i as f32 * 0.11).cos()).collect();
        let exec = serpens().run(&m, &x).unwrap();
        assert_close(&exec.y, &m.spmv(&x));
        assert_eq!(exec.engine, "serpens");
        assert_eq!(exec.cycles.reduction, 0, "serpens has no reduction unit");
    }

    #[test]
    fn both_engines_agree_on_the_same_problem() {
        let m = power_law(600, 600, 5000, 1.7, 31);
        let x: Vec<f32> = (0..600).map(|i| 0.25 + (i % 13) as f32 * 0.5).collect();
        let chason = chason().run(&m, &x).unwrap();
        let serpens = serpens().run(&m, &x).unwrap();
        assert_close(&chason.y, &serpens.y);
    }

    #[test]
    fn chason_streams_no_more_cycles_than_serpens() {
        let m = power_law(1000, 1000, 8000, 1.8, 5);
        let x = vec![1.0f32; 1000];
        let chason = chason().run(&m, &x).unwrap();
        let serpens = serpens().run(&m, &x).unwrap();
        assert!(chason.cycles.stream <= serpens.cycles.stream);
        assert!(chason.bytes_streamed <= serpens.bytes_streamed);
        assert!(chason.underutilization <= serpens.underutilization);
    }

    #[test]
    fn serpens_is_slower_in_wall_clock_on_skewed_input() {
        let m = power_law(2000, 2000, 10_000, 1.9, 9);
        let x = vec![1.0f32; 2000];
        let chason = chason().run(&m, &x).unwrap();
        let serpens = serpens().run(&m, &x).unwrap();
        assert!(
            chason.latency_seconds() < serpens.latency_seconds(),
            "chason {} s vs serpens {} s",
            chason.latency_seconds(),
            serpens.latency_seconds()
        );
    }

    #[test]
    fn planned_run_is_bit_identical_to_direct_run() {
        let m = power_law(400, 400, 3000, 1.8, 17);
        let x: Vec<f32> = (0..400).map(|i| (i as f32 * 0.21).cos()).collect();
        for threads in [1, 4] {
            let engine = chason();
            let plan = engine.plan_with_threads(&m, threads).unwrap();
            assert_eq!(
                engine.run_planned(&plan, &x).unwrap(),
                engine.run(&m, &x).unwrap()
            );
        }
        let serpens = serpens();
        let plan = serpens.plan(&m).unwrap();
        assert_eq!(
            serpens.run_planned(&plan, &x).unwrap(),
            serpens.run(&m, &x).unwrap()
        );
    }

    #[test]
    fn parallel_planning_matches_serial() {
        let m = uniform_random(64, 60_000, 20_000, 3); // 8 windows of W = 8192
        let engine = chason();
        let serial = engine.plan_with_threads(&m, 1).unwrap();
        for threads in [2, 3, 8, 64] {
            assert_eq!(engine.plan_with_threads(&m, threads).unwrap(), serial);
        }
    }

    #[test]
    fn oversized_matrix_plans_in_passes_matching_run_partitioned() {
        let engine = Accelerator::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            ..AcceleratorConfig::chason()
        });
        // 4 PEs x 8192 rows/PE = 32_768 rows per pass.
        let m = uniform_random(70_000, 128, 30_000, 5);
        let x: Vec<f32> = (0..128).map(|i| 0.25 + (i % 3) as f32).collect();
        let plan = engine.plan(&m).unwrap();
        assert_eq!(plan.passes.len(), 3);
        assert_eq!(plan.passes.iter().map(|p| p.nnz).sum::<usize>(), 30_000);
        let planned = engine.run_planned(&plan, &x).unwrap();
        assert_eq!(planned, engine.run_partitioned(&m, &x).unwrap());
    }

    #[test]
    fn plan_records_key_and_stats() {
        let m = uniform_random(128, 20_000, 5_000, 3);
        let engine = chason();
        let plan = engine.plan(&m).unwrap();
        assert_eq!(
            plan.key,
            chason_core::plan::PlanKey::new(&m, engine.config().sched)
        );
        assert_eq!(plan.window_count(), 3); // 20_000 cols / W = 8192
        assert_eq!(plan.nnz, 5_000);
        let exec = engine.run_planned(&plan, &vec![1.0; 20_000]).unwrap();
        assert_eq!(plan.stalls(), exec.stalls);
    }

    /// Debug builds (and `strict-verify` release builds) run the static
    /// checker before executing a pass; a corrupted schedule is rejected
    /// with the rendered diagnostic report instead of mis-executing.
    #[test]
    #[cfg(any(debug_assertions, feature = "strict-verify"))]
    fn corrupted_plan_is_rejected_before_execution() {
        let m = uniform_random(64, 64, 300, 1);
        let engine = chason();
        let mut plan = engine.plan(&m).unwrap();
        let schedule = &mut plan.passes[0].windows[0].schedule;
        assert!(chason_verify::mutate::Corruption::TagFlip.apply(schedule));
        match engine.run_planned(&plan, &vec![1.0; 64]) {
            Err(SimError::InvalidSchedule(report)) => {
                assert!(report.contains("S005"), "{report}");
                assert!(report.contains("verification failed"), "{report}");
            }
            other => panic!("expected InvalidSchedule, got {other:?}"),
        }
    }

    /// A small structural delta against a multi-window matrix: revalue and
    /// delete existing entries, insert at a vacant coordinate.
    fn sample_delta(m: &CooMatrix) -> MatrixDelta {
        let mut delta = MatrixDelta::for_matrix(m);
        let t = m.triplets();
        let (r, c, _) = t[t.len() / 3];
        delta.push_revalue(r, c, 2.75).unwrap();
        let (r, c, _) = t[2 * t.len() / 3];
        delta.push_delete(r, c).unwrap();
        let vacant = (0..m.cols())
            .find(|&c| !t.iter().any(|&(tr, tc, _)| tr == 0 && tc == c))
            .unwrap();
        delta.push_insert(0, vacant, -4.5).unwrap();
        delta
    }

    #[test]
    fn respliced_plan_equals_scratch_plan_for_both_engines() {
        let m = uniform_random(256, 20_000, 8_000, 21); // 3 windows of W = 8192
        let delta = sample_delta(&m);
        let updated = delta.apply(&m).unwrap();

        let chason = chason();
        let mut spliced = chason.plan(&m).unwrap();
        let report = chason.replan_delta(&mut spliced, &updated, &delta).unwrap();
        assert_eq!(spliced, chason.plan(&updated).unwrap());
        assert!(report.windows_replanned < report.windows_total);

        let serpens = serpens();
        let mut spliced = serpens.plan(&m).unwrap();
        serpens
            .replan_delta(&mut spliced, &updated, &delta)
            .unwrap();
        assert_eq!(spliced, serpens.plan(&updated).unwrap());
    }

    #[test]
    fn respliced_plan_replays_like_the_updated_matrix() {
        let m = power_law(300, 17_000, 4_000, 1.8, 29);
        let delta = sample_delta(&m);
        let updated = delta.apply(&m).unwrap();
        let engine = chason();
        let mut plan = engine.plan(&m).unwrap();
        engine.replan_delta(&mut plan, &updated, &delta).unwrap();
        let x: Vec<f32> = (0..m.cols()).map(|i| (i as f32 * 0.19).sin()).collect();
        assert_eq!(
            engine.run_planned(&plan, &x).unwrap(),
            engine.run(&updated, &x).unwrap()
        );
    }

    #[test]
    fn resplice_spans_row_partition_passes() {
        let engine = Accelerator::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            ..AcceleratorConfig::chason()
        });
        // 4 PEs x 8192 rows/PE = 32_768 rows per pass -> 3 passes.
        let m = uniform_random(70_000, 128, 30_000, 5);
        let delta = sample_delta(&m);
        let updated = delta.apply(&m).unwrap();
        let mut spliced = engine.plan(&m).unwrap();
        let report = engine.replan_delta(&mut spliced, &updated, &delta).unwrap();
        assert_eq!(spliced, engine.plan(&updated).unwrap());
        assert!(report.passes_touched >= 1);
        assert_eq!(
            spliced.passes.iter().map(|p| p.nnz).sum::<usize>(),
            updated.nnz()
        );
    }

    #[test]
    fn resplice_rejects_foreign_or_inconsistent_inputs() {
        let m = uniform_random(64, 64, 300, 1);
        let delta = sample_delta(&m);
        let updated = delta.apply(&m).unwrap();
        let chason = chason();
        let serpens = serpens();
        let mut plan = chason.plan(&m).unwrap();
        assert!(matches!(
            serpens.replan_delta(&mut plan, &updated, &delta),
            Err(SimError::PlanMismatch(_))
        ));
        // Updated matrix inconsistent with the delta (nnz disagreement).
        assert!(matches!(
            chason.replan_delta(&mut plan, &m, &delta),
            Err(SimError::PlanMismatch(_))
        ));
        // Plan untouched by the failed attempts.
        assert_eq!(plan, chason.plan(&m).unwrap());
    }

    /// The Chasoň plan is derived from the Serpens plan two ways — a
    /// whole-plan migration and a splice of the dirty windows — and each
    /// equals planning from scratch, on one pass and across row-partition
    /// passes, at every hop count. Serpens has no ScUG, so its hop count
    /// changes nothing: every slot is private and lands where one hop puts
    /// it.
    #[test]
    fn chason_plans_derived_from_the_serpens_plan_equal_scratch_plans() {
        let check = |sched: SchedulerConfig, m: &CooMatrix, windows: usize, passes: usize| {
            let chason = Accelerator::new(AcceleratorConfig {
                sched,
                ..AcceleratorConfig::chason()
            });
            let serpens = Accelerator::new(AcceleratorConfig {
                sched,
                ..AcceleratorConfig::serpens()
            });
            let one_hop_serpens = Accelerator::new(AcceleratorConfig {
                sched: SchedulerConfig {
                    migration_hops: 1,
                    ..sched
                },
                ..AcceleratorConfig::serpens()
            });
            let own = chason.plan_with_threads(m, 1).unwrap();
            let baseline = serpens.plan_with_threads(m, 1).unwrap();
            assert_eq!(own.passes.len(), passes);
            assert!(
                plan_windows(&own)
                    .into_iter()
                    .zip(plan_windows(&baseline))
                    .all(|(c, s)| c.schedule != s.schedule),
                "every window migrates: {sched:?}"
            );
            let one_hop = one_hop_serpens.plan_with_threads(m, 1).unwrap();
            for (w, one) in plan_windows(&baseline)
                .into_iter()
                .zip(plan_windows(&one_hop))
            {
                assert_eq!(w.schedule.channels, one.schedule.channels, "{sched:?}");
                assert!(w
                    .schedule
                    .channels
                    .iter()
                    .flat_map(|ch| ch.occupied())
                    .all(|(_, _, nz)| nz.pvt));
            }
            assert_eq!(chason.migrate_plan(&baseline).unwrap(), own);
            for threads in [1, 2, 4] {
                let migrated = chason
                    .migrate_plan_with_threads(&baseline, threads)
                    .unwrap();
                assert_eq!(migrated, own, "{sched:?}, {threads} threads");
            }

            let delta = sample_delta(m);
            let updated = delta.apply(m).unwrap();
            let mut spliced_baseline = baseline.clone();
            serpens
                .replan_delta(&mut spliced_baseline, &updated, &delta)
                .unwrap();
            let mut spliced = own.clone();
            let report = chason
                .migrate_delta(&mut spliced, &spliced_baseline, &delta)
                .unwrap();
            assert_eq!(spliced, chason.plan_with_threads(&updated, 1).unwrap());
            assert_eq!(
                (report.windows_total, report.nnz_after),
                (windows, updated.nnz())
            );
            assert!(
                report.windows_replanned < report.windows_total,
                "{report:?}"
            );
        };
        for hops in 1..=3 {
            let sched = SchedulerConfig {
                migration_hops: hops,
                ..SchedulerConfig::paper()
            };
            // Three column windows of 8192.
            let m = power_law(600, 20_000, 12_000, 1.8, hops as u64);
            check(sched, &m, 3, 1);
        }
        let sched = SchedulerConfig {
            migration_hops: 2,
            ..SchedulerConfig::toy(4, 4, 6)
        };
        check(sched, &uniform_random(3000, 20_000, 40_000, 5), 3, 1);
        // 4 PEs x 8192 rows/PE = 32_768 rows per pass -> 2 passes of three
        // column windows each.
        let sched = SchedulerConfig::toy(2, 2, 4);
        assert!(40_000 > URAM_PARTIALS * sched.total_pes());
        let m = uniform_random(40_000, 20_000, 30_000, 8);
        check(sched, &m, 6, 2);
    }

    #[test]
    fn only_a_chason_machine_migrates_and_only_a_serpens_baseline() {
        let m = uniform_random(64, 64, 300, 1);
        let chason = chason();
        let serpens = serpens();
        let own = chason.plan(&m).unwrap();
        let baseline = serpens.plan(&m).unwrap();
        let mismatch = |r: Result<SpmvPlan, SimError>| matches!(r, Err(SimError::PlanMismatch(_)));
        assert!(mismatch(serpens.migrate_plan(&baseline)));
        assert!(mismatch(chason.migrate_plan(&own)));
        let toy = Accelerator::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            ..AcceleratorConfig::chason()
        });
        assert!(mismatch(toy.migrate_plan(&baseline)));
        // An insert-only delta: the baseline was not spliced, so its
        // non-zeros disagree with it, and a failed splice leaves the plan
        // as it was.
        let mut delta = MatrixDelta::for_matrix(&m);
        let vacant = (0..m.cols())
            .find(|&c| !m.triplets().iter().any(|&(r, tc, _)| r == 0 && tc == c))
            .unwrap();
        delta.push_insert(0, vacant, 1.5).unwrap();
        let mut plan = own.clone();
        for source in [&baseline, &own] {
            assert!(matches!(
                chason.migrate_delta(&mut plan, source, &delta),
                Err(SimError::PlanMismatch(_))
            ));
        }
        assert_eq!(plan, own);
    }

    #[test]
    fn mismatched_plan_is_rejected() {
        let m = uniform_random(64, 64, 300, 1);
        let chason = chason();
        let serpens = serpens();
        let plan = chason.plan(&m).unwrap();
        assert!(matches!(
            serpens.run_planned(&plan, &[0.0; 64]),
            Err(SimError::PlanMismatch(_))
        ));
        let toy = Accelerator::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            ..AcceleratorConfig::chason()
        });
        assert!(matches!(
            toy.run_planned(&plan, &[0.0; 64]),
            Err(SimError::PlanMismatch(_))
        ));
        assert!(matches!(
            chason.run_planned(&plan, &[0.0; 63]),
            Err(SimError::VectorLengthMismatch { .. })
        ));
    }
}
