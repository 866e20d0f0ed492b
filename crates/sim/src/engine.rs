//! The execution core of both accelerator engines, split into a *planning*
//! half (schedule every column window — vector-independent, parallelizable)
//! and an *execution* half (replay a plan against dense vectors).
//!
//! Everything an engine does goes through `Core`: `run`,
//! `run_partitioned` and `run_planned` share one pass loop, SpMM replays the
//! same per-pass kernel once per column of `B`, and one function
//! (`Core::pass_cost`) owns the cycle model. `run` composes planning and
//! replay, so planned and unplanned execution are bit-identical by
//! construction. `impl_engine!` turns a `Core` into each engine's public
//! methods.

use crate::config::{
    AcceleratorConfig, CycleBreakdown, Execution, INVOCATION_OVERHEAD_CYCLES, MERGE_WIDTH,
    STREAM_II, X_RELOAD_LANES,
};
use crate::plan::PlanningEngine;
use crate::replay::{rows_per_pe, Datapath, Replay, URAM_PARTIALS};
use crate::spmm::{SpmmExecution, TILE_COLS};
use crate::{ChasonEngine, SerpensEngine, SimError};
use chason_core::plan::{PassPlan, PlanKey, PlanWindow, SpmvPlan};
use chason_core::replan::ReplanReport;
use chason_core::schedule::{migrate, PeAware, ScheduledMatrix, Scheduler, WindowRows};
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

/// One engine as the execution core sees it.
struct Core<'a> {
    /// Engine name, stamped on executions and plans.
    name: &'static str,
    config: &'a AcceleratorConfig,
    /// Deployed `URAM_sh` banks per PE: 0 for Serpens, whose PEs carry no
    /// ScUG and whose PEGs have no Reduction Unit.
    scug_size: usize,
}

impl Core<'_> {
    /// Schedules one dealt column window: the PE-aware (Serpens) schedule,
    /// then CrHCS's migration pass exactly when the PEs carry a ScUG to
    /// hold migrated partial sums.
    fn schedule_window(&self, rows: &WindowRows) -> ScheduledMatrix {
        let mut schedule = PeAware::new().schedule_rows(rows, &self.config.sched);
        if self.scug_size > 0 {
            migrate(&mut schedule);
        }
        schedule
    }

    /// Schedules every dealt column window of `pass` into a [`PassPlan`].
    ///
    /// Windows are independent — each is scheduled from its own lanes — so
    /// with `threads > 1` they are scheduled concurrently. Workers own
    /// disjoint contiguous chunks of the window list and results are
    /// reassembled in window order, so the plan is identical for every
    /// thread count.
    fn plan_pass(&self, pass: DealtPass, threads: usize) -> PassPlan {
        let windows = pass.windows;
        let plan_one = |window: &DealtWindow| {
            PlanWindow::new(
                window.col_start,
                window.col_end,
                self.schedule_window(&window.rows),
            )
        };

        let threads = threads.clamp(1, windows.len().max(1));
        let planned: Vec<PlanWindow> = if threads <= 1 {
            windows.iter().map(plan_one).collect()
        } else {
            let chunk = windows.len().div_ceil(threads);
            let chunks = crossbeam::scope(|scope| {
                let handles: Vec<_> = windows
                    .chunks(chunk)
                    .map(|ws| scope.spawn(move |_| ws.iter().map(plan_one).collect::<Vec<_>>()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        // A panic in a worker can only come from a scheduler
                        // bug; propagating it (rather than discarding the
                        // plan) is the correct surface for that failure.
                        #[allow(clippy::expect_used)] // xtask: propagates worker panics
                        h.join().expect("window planner threads do not panic")
                    })
                    .collect()
            });
            #[allow(clippy::expect_used)] // xtask: scope only errs if a child panicked
            let chunks: Vec<Vec<PlanWindow>> = chunks.expect("window planner scope does not panic");
            chunks.into_iter().flatten().collect()
        };

        PassPlan {
            row_start: pass.row_start,
            row_end: pass.row_end,
            nnz: planned.iter().map(|w| w.nnz).sum(),
            windows: planned,
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
        check_config(self.config)?;
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

    fn plan(&self, matrix: &CooMatrix, threads: usize) -> Result<SpmvPlan, SimError> {
        let config = self.config;
        Ok(SpmvPlan {
            key: PlanKey::new(matrix, config.sched),
            engine: self.name.to_string(),
            window: config.window,
            rows: matrix.rows(),
            cols: matrix.cols(),
            nnz: matrix.nnz(),
            passes: self.plan_passes(matrix, threads, true)?,
        })
    }

    /// Plans (serially) and replays in one go; see `plan_passes` for
    /// `partition`.
    fn run(&self, matrix: &CooMatrix, x: &[f32], partition: bool) -> Result<Execution, SimError> {
        check_len(x.len(), matrix.cols())?;
        let passes = self.plan_passes(matrix, 1, partition)?;
        self.execute_passes(&passes, matrix.cols(), x)
    }

    /// Rejects a plan built by another engine family or configuration.
    fn check_plan(&self, plan: &SpmvPlan, action: &str) -> Result<(), SimError> {
        if plan.engine != self.name {
            return Err(SimError::PlanMismatch(format!(
                "plan built by the {} engine cannot {action} {}",
                plan.engine, self.name
            )));
        }
        if plan.key.config != self.config.sched || plan.window != self.config.window {
            return Err(SimError::PlanMismatch(
                "plan was built under a different configuration".to_string(),
            ));
        }
        Ok(())
    }

    fn run_planned(&self, plan: &SpmvPlan, x: &[f32]) -> Result<Execution, SimError> {
        self.check_plan(plan, "run on")?;
        self.execute_passes(&plan.passes, plan.cols, x)
    }

    fn replan_delta(
        &self,
        plan: &mut SpmvPlan,
        updated: &CooMatrix,
        delta: &MatrixDelta,
    ) -> Result<ReplanReport, SimError> {
        self.check_plan(plan, "be respliced on")?;
        plan.apply_delta(updated, delta, |rows| self.schedule_window(rows))
            .map_err(|e| SimError::PlanMismatch(e.to_string()))
    }

    /// The pass loop: replays every pass against `x` and concatenates them.
    fn execute_passes(
        &self,
        passes: &[PassPlan],
        cols: usize,
        x: &[f32],
    ) -> Result<Execution, SimError> {
        check_len(x.len(), cols)?;
        check_config(self.config)?;
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
        let config = self.config;
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
            engine: self.name,
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
        let config = self.config;
        let sched = &config.sched;
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
        // Reduction Unit sweep (Chasoň only): the adder tree visits every
        // partial-sum address once per source lane's consolidated URAM,
        // plus the tree's own depth (§4.2.2).
        if self.scug_size > 0 {
            let tree_depth = (sched.pes_per_channel as f64).log2().ceil() as u64;
            cycles.reduction +=
                derate((rows_per_pe(sched, pass.rows()) as u64 + tree_depth) * tiles);
        }
        // Arbiter/Merger drain: 16 FP32 output values per cycle (§4.3).
        cycles.merge += derate(outputs.div_ceil(MERGE_WIDTH) as u64);
        cycles.invocation += INVOCATION_OVERHEAD_CYCLES;
        (cycles, bytes_streamed)
    }

    /// Replays `pass`'s stored schedules against `x` on fresh PEGs and
    /// merges their partial sums into `y` (see [`Datapath::replay`]).
    fn replay(&self, pass: &PassPlan, x: &[f32], threads: usize) -> Result<Replay, SimError> {
        let config = self.config;
        let windows: Vec<_> = pass
            .windows
            .iter()
            .map(|w| (w.col_start..w.col_end, &w.schedule))
            .collect();
        Datapath::new(config.sched, self.scug_size, pass.rows())?.replay(
            &windows,
            x,
            config.window,
            threads,
        )
    }

    /// `C = α·A·B + β·C0` (§7.2). `A` is planned once as a single pass; the
    /// columns of a tile run concurrently in hardware (widened URAM slots),
    /// and since the result is column-separable each column of `B` is
    /// replayed through the SpMV kernel while the cycle model charges one
    /// stream per 8-column tile.
    fn run_spmm(
        &self,
        a: &CooMatrix,
        b: &DenseMatrix,
        alpha: f32,
        beta: f32,
        c0: &DenseMatrix,
    ) -> Result<SpmmExecution, SimError> {
        let config = self.config;
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
            engine: self.name,
            c,
            cycles,
            clock_mhz: config.clock_mhz,
            tiles,
            mac_ops,
            bytes_streamed,
        })
    }
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

/// Generates an engine's public API on top of its `Core`: the direct,
/// row-partitioned, planned and SpMM entry points, and its
/// [`PlanningEngine`] impl.
macro_rules! impl_engine {
    ($engine:ty, $name:literal) => {
        impl $engine {
            fn core(&self) -> Core<'_> {
                Core {
                    name: $name,
                    config: self.config(),
                    scug_size: self.scug_size(),
                }
            }

            /// Executes `y = A·x`, returning the result vector and the
            /// cycle/traffic accounting.
            ///
            /// # Errors
            ///
            /// * [`SimError::VectorLengthMismatch`] if
            ///   `x.len() != matrix.cols()`;
            /// * [`SimError::RowCapacityExceeded`] if the matrix needs more
            ///   partial-sum rows per PE than a URAM holds (use
            ///   [`run_partitioned`](Self::run_partitioned));
            /// * [`SimError::InvalidConfig`] for inconsistent
            ///   configurations.
            pub fn run(&self, matrix: &CooMatrix, x: &[f32]) -> Result<Execution, SimError> {
                self.core().run(matrix, x, false)
            }

            /// Executes `y = A·x`, automatically row-partitioning matrices
            /// whose per-PE row count exceeds the partial-sum URAM capacity
            /// (§4.5). Each pass pays its own invocation and x-reload
            /// overheads, exactly as the hardware would.
            ///
            /// # Errors
            ///
            /// Same conditions as [`run`](Self::run), except that
            /// [`SimError::RowCapacityExceeded`] can no longer occur.
            pub fn run_partitioned(
                &self,
                matrix: &CooMatrix,
                x: &[f32],
            ) -> Result<Execution, SimError> {
                self.core().run(matrix, x, true)
            }

            /// Schedules `matrix` into a reusable [`SpmvPlan`] without
            /// executing it.
            ///
            /// The plan captures every column window's schedule (grouped
            /// into the same row-partition passes
            /// [`run_partitioned`](Self::run_partitioned) uses when the
            /// matrix exceeds the per-PE partial-sum capacity), keyed by
            /// the matrix fingerprint and scheduler configuration. Windows
            /// are scheduled in parallel across all available cores; the
            /// result is independent of the thread count.
            ///
            /// # Errors
            ///
            /// [`SimError::InvalidConfig`] for inconsistent configurations.
            pub fn plan(&self, matrix: &CooMatrix) -> Result<SpmvPlan, SimError> {
                self.plan_with_threads(matrix, available_threads())
            }

            /// [`plan`](Self::plan) with an explicit window-scheduling
            /// thread count (`1` forces serial planning).
            ///
            /// # Errors
            ///
            /// Same conditions as [`plan`](Self::plan).
            pub fn plan_with_threads(
                &self,
                matrix: &CooMatrix,
                threads: usize,
            ) -> Result<SpmvPlan, SimError> {
                self.core().plan(matrix, threads)
            }

            /// Splices `delta` into `plan` by re-scheduling only the column
            /// windows the delta's row/column footprint dirties, leaving
            /// every other window's schedule untouched.
            ///
            /// `updated` must be the delta applied to the plan's source
            /// matrix (`MatrixDelta::apply`). Because the pass/window
            /// skeleton depends only on the matrix shape — which deltas
            /// never change — and dirty windows are re-scheduled the
            /// deterministic way [`plan`](Self::plan) schedules them, the
            /// spliced plan is bit-identical to
            /// [`plan`](Self::plan) of `updated`; the conformance suite's
            /// delta oracle asserts exactly that across the corpus. The
            /// report says how many windows were re-scheduled.
            ///
            /// # Errors
            ///
            /// * [`SimError::PlanMismatch`] if the plan was built by a
            ///   different engine family or configuration, or if
            ///   `updated`/`delta` are inconsistent with the plan (shape or
            ///   non-zero count disagreement).
            pub fn replan_delta(
                &self,
                plan: &mut SpmvPlan,
                updated: &CooMatrix,
                delta: &MatrixDelta,
            ) -> Result<ReplanReport, SimError> {
                self.core().replan_delta(plan, updated, delta)
            }

            /// Executes `y = A·x` from a plan built by
            /// [`plan`](Self::plan), without rescheduling. The result is
            /// bit-identical to [`run`](Self::run) (or
            /// [`run_partitioned`](Self::run_partitioned) for matrices that
            /// needed row partitioning) on the plan's source matrix.
            ///
            /// # Errors
            ///
            /// * [`SimError::PlanMismatch`] if the plan was built by a
            ///   different engine family or under a different scheduler
            ///   configuration or window width;
            /// * [`SimError::VectorLengthMismatch`] if
            ///   `x.len() != plan.cols`;
            /// * [`SimError::InvalidConfig`] for inconsistent
            ///   configurations.
            pub fn run_planned(&self, plan: &SpmvPlan, x: &[f32]) -> Result<Execution, SimError> {
                self.core().run_planned(plan, x)
            }

            /// Executes `C = α·A·B + β·C` on this engine's datapath (§7.2):
            /// `A` is scheduled once and its stream is replayed for every
            /// 8-column tile of `B`.
            ///
            /// # Errors
            ///
            /// Same conditions as [`run`](Self::run), plus shape
            /// mismatches between `A`, `B` and `C`.
            pub fn run_spmm(
                &self,
                a: &CooMatrix,
                b: &DenseMatrix,
                alpha: f32,
                beta: f32,
                c: &DenseMatrix,
            ) -> Result<SpmmExecution, SimError> {
                self.core().run_spmm(a, b, alpha, beta, c)
            }
        }

        impl PlanningEngine for $engine {
            fn config(&self) -> &AcceleratorConfig {
                <$engine>::config(self)
            }

            fn run(&self, matrix: &CooMatrix, x: &[f32]) -> Result<Execution, SimError> {
                <$engine>::run(self, matrix, x)
            }

            fn plan(&self, matrix: &CooMatrix) -> Result<SpmvPlan, SimError> {
                <$engine>::plan(self, matrix)
            }

            fn plan_with_threads(
                &self,
                matrix: &CooMatrix,
                threads: usize,
            ) -> Result<SpmvPlan, SimError> {
                <$engine>::plan_with_threads(self, matrix, threads)
            }

            fn run_planned(&self, plan: &SpmvPlan, x: &[f32]) -> Result<Execution, SimError> {
                <$engine>::run_planned(self, plan, x)
            }

            fn plan_key(&self, matrix: &CooMatrix) -> PlanKey {
                PlanKey::new(matrix, self.config().sched)
            }

            fn replan_delta(
                &self,
                plan: &mut SpmvPlan,
                updated: &CooMatrix,
                delta: &MatrixDelta,
            ) -> Result<ReplanReport, SimError> {
                <$engine>::replan_delta(self, plan, updated, delta)
            }
        }
    };
}

impl_engine!(ChasonEngine, "chason");
impl_engine!(SerpensEngine, "serpens");

#[cfg(test)]
mod tests {
    use super::*;
    use chason_core::schedule::{NzSlot, SchedulerConfig};
    use chason_sparse::generators::uniform_random;

    /// A tiny machine (4 PEs) makes partitioning kick in at small sizes
    /// without allocating million-row URAM mirrors.
    fn tiny_engine() -> ChasonEngine {
        ChasonEngine::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            ..AcceleratorConfig::chason()
        })
    }

    #[test]
    fn replay_is_the_same_on_every_thread_count() {
        use chason_sparse::generators::power_law;
        let m = power_law(3000, 20_000, 40_000, 1.6, 11);
        let x: Vec<f32> = (0..m.cols()).map(|i| 0.5 + (i % 7) as f32 * 0.25).collect();
        let chason = ChasonEngine::default();
        let serpens = SerpensEngine::default();
        let chason_plan = chason.plan_with_threads(&m, 1).unwrap();
        let serpens_plan = serpens.plan_with_threads(&m, 1).unwrap();
        let replays = |threads: usize| {
            [
                chason.core().replay(&chason_plan.passes[0], &x, threads),
                serpens.core().replay(&serpens_plan.passes[0], &x, threads),
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

    #[test]
    fn chason_plan_is_the_serpens_plan_migrated() {
        use chason_sparse::generators::power_law;
        for m in [
            power_law(2000, 2000, 30_000, 1.8, 5),
            // Three column windows of 8192.
            uniform_random(3000, 20_000, 40_000, 5),
        ] {
            let chason = ChasonEngine::default().plan_with_threads(&m, 1).unwrap();
            let serpens = SerpensEngine::default().plan_with_threads(&m, 1).unwrap();
            let migrated: Vec<PlanWindow> = serpens
                .passes
                .iter()
                .flat_map(|p| &p.windows)
                .map(|w| {
                    let mut schedule = w.schedule.clone();
                    assert!(migrate(&mut schedule).migrated > 0);
                    PlanWindow::new(w.col_start, w.col_end, schedule)
                })
                .collect();
            let planned: Vec<&PlanWindow> = chason.passes.iter().flat_map(|p| &p.windows).collect();
            assert_eq!(planned.len(), m.cols().div_ceil(8192));
            assert!(planned.into_iter().eq(&migrated));
        }
    }

    #[test]
    fn replay_reports_the_first_failure_in_serial_order() {
        let m = uniform_random(512, 300, 2_000, 4);
        let x = vec![1.0f32; 300];
        let engine = ChasonEngine::default();
        let mut plan = engine.plan_with_threads(&m, 1).unwrap();
        let pass = &mut plan.passes[0];
        // Misroute one slot in each of channels 3 and 12: lane 9 does not
        // exist in an 8-PE group.
        for c in [12, 3] {
            let channel = &mut pass.windows[0].schedule.channels[c];
            let (cycle, lane, nz) = channel
                .occupied()
                .next()
                .map(|(c, l, nz)| (c, l, *nz))
                .unwrap();
            channel.take(cycle, lane);
            channel.insert(cycle, 9, nz);
        }
        for threads in [1, 2, 16] {
            match engine.core().replay(pass, &x, threads) {
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
            engine.core().replay(pass, &x, 2),
            Err(SimError::RoutingViolation(msg)) if msg.contains("17 channels to 16 PEGs")
        ));
    }

    /// The first occupied slot of window `w`.
    fn first_slot(pass: &mut PassPlan, w: usize) -> &mut NzSlot {
        pass.windows[w]
            .schedule
            .channels
            .iter_mut()
            .flat_map(|ch| ch.occupied_mut())
            .map(|(_, _, nz)| nz)
            .next()
            .unwrap()
    }

    #[test]
    fn malformed_slots_and_windows_are_routing_violations() {
        // 4 PEs and 16-column windows: 64 rows are 16 per PE, and 40
        // columns are windows 0..16, 16..32 and the narrower 32..40.
        let engine = ChasonEngine::new(AcceleratorConfig {
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
            (|pass| first_slot(pass, 2).col = 8, "x window holds 8 words"),
            // Same PE, one URAM's worth of rows further on.
            (|pass| first_slot(pass, 0).row += 64, "in a pass of 64 rows"),
            (
                |pass| pass.windows[0].col_end = 17,
                "window at columns 0..17 does not fit a 16-word x buffer",
            ),
        ];
        for (corrupt, expected) in cases {
            let mut pass = plan.passes[0].clone();
            corrupt(&mut pass);
            for threads in [1, 2] {
                match engine.core().replay(&pass, &x, threads) {
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
        let chason = ChasonEngine::new(AcceleratorConfig {
            sched,
            ..AcceleratorConfig::chason()
        });
        let serpens = SerpensEngine::new(AcceleratorConfig {
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
            serpens.core().replay(&crhcs.passes[0], &x, 1),
            Err(SimError::RoutingViolation(msg)) if msg.contains("with ScUG size 0")
        ));
        let replay = serpens.core().replay(&pe_aware.passes[0], &x, 1).unwrap();
        assert_eq!(replay.y, m.spmv(&x));
        assert_eq!(replay.mac_ops, 30);
    }

    #[test]
    fn one_uram_bounds_the_rows_of_a_pass() {
        // One PE: a pass of URAM_PARTIALS rows fits, one more does not.
        let engine = ChasonEngine::new(AcceleratorConfig {
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
        let direct = ChasonEngine::default().run(&m, &x).unwrap();
        let auto = ChasonEngine::default().run_partitioned(&m, &x).unwrap();
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
        let engine = SerpensEngine::new(AcceleratorConfig {
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
        let err = ChasonEngine::default()
            .run_partitioned(&m, &[1.0; 3])
            .unwrap_err();
        assert!(matches!(err, SimError::VectorLengthMismatch { .. }));
    }
}
