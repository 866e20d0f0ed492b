//! The plan/execute split: build an [`SpmvPlan`] once, run it many times.
//!
//! `plan` schedules every column window of a matrix (row-partitioning first
//! when it exceeds the partial-sum URAM capacity, exactly as
//! `run_partitioned` does) and packages the result with the matrix
//! fingerprint and scheduler configuration. `run_planned` replays the plan
//! against a dense vector without touching a scheduler, producing an
//! [`Execution`] bit-identical to `run` / `run_partitioned` on the source
//! matrix. Window scheduling is fanned out across threads — windows are
//! independent — with results reassembled in window order, so the plan is
//! the same at every thread count.
//!
//! The engines implement all of this in the shared execution core
//! (`engine.rs`); this module holds [`PlanningEngine`], the object-safe
//! view of an engine that callers generic over the family use, and
//! sharded planning and replay on top of it.

use crate::{AcceleratorConfig, Execution, SimError};
use chason_core::plan::{PlanKey, SpmvPlan};
use chason_core::replan::ReplanReport;
use chason_core::shard::ShardedPlan;
use chason_sparse::shard::ShardSpec;
use chason_sparse::{CooMatrix, MatrixDelta};

/// Engines supporting the plan/execute split, for callers generic over the
/// accelerator family (solver backends caching plans per matrix, the
/// serve daemon, the conformance harness).
pub trait PlanningEngine {
    /// The engine's configuration.
    fn config(&self) -> &AcceleratorConfig;

    /// Executes `y = A·x` directly. See `ChasonEngine::run`.
    fn run(&self, matrix: &CooMatrix, x: &[f32]) -> Result<Execution, SimError>;

    /// Schedules `matrix` into a reusable plan. See `ChasonEngine::plan`.
    fn plan(&self, matrix: &CooMatrix) -> Result<SpmvPlan, SimError>;

    /// [`plan`](Self::plan) with an explicit window-scheduling thread
    /// count. See `ChasonEngine::plan_with_threads`.
    fn plan_with_threads(&self, matrix: &CooMatrix, threads: usize) -> Result<SpmvPlan, SimError>;

    /// Executes a previously built plan against `x`. See
    /// `ChasonEngine::run_planned`.
    fn run_planned(&self, plan: &SpmvPlan, x: &[f32]) -> Result<Execution, SimError>;

    /// The cache key identifying `matrix` scheduled under this engine's
    /// configuration.
    fn plan_key(&self, matrix: &CooMatrix) -> PlanKey;

    /// Splices `delta` into `plan` by re-scheduling only the dirty windows.
    /// See `ChasonEngine::replan_delta`.
    fn replan_delta(
        &self,
        plan: &mut SpmvPlan,
        updated: &CooMatrix,
        delta: &MatrixDelta,
    ) -> Result<ReplanReport, SimError>;
}

/// Result of executing a [`ShardedPlan`]'s shards and reducing the
/// partials, with the latency accounting a distributed deployment would
/// observe.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedExecution {
    /// The gathered output vector `y = A·x`.
    pub y: Vec<f32>,
    /// Makespan: the slowest shard's modeled latency (shards run
    /// concurrently in a deployment).
    pub max_latency_seconds: f64,
    /// Aggregate device time: sum of every shard's modeled latency.
    pub total_latency_seconds: f64,
}

/// Plans each row-block slice of `matrix` under `spec` with `engine`.
///
/// The spec's slices keep the full column width, so each per-shard plan
/// consumes the same dense input vector as a full-matrix plan would.
pub fn plan_shards<E: PlanningEngine>(
    engine: &E,
    matrix: &CooMatrix,
    spec: &ShardSpec,
) -> Result<ShardedPlan, SimError> {
    let mut plans = Vec::with_capacity(spec.shards());
    for k in 0..spec.shards() {
        let slice = spec
            .slice(matrix, k)
            .map_err(|e| SimError::InvalidConfig(format!("shard {k}: {e}")))?;
        plans.push(engine.plan(&slice)?);
    }
    ShardedPlan::assemble(spec.clone(), plans).map_err(|e| SimError::InvalidConfig(e.to_string()))
}

/// Executes every shard plan against `x` and reduces the partial vectors.
///
/// The gather is a pure placement (each output row is owned by exactly one
/// shard), so the result matches running the shards on separate machines
/// and concatenating their replies.
pub fn run_sharded<E: PlanningEngine>(
    engine: &E,
    sharded: &ShardedPlan,
    x: &[f32],
) -> Result<ShardedExecution, SimError> {
    let mut partials = Vec::with_capacity(sharded.shards());
    let mut max_latency = 0.0f64;
    let mut total_latency = 0.0f64;
    for plan in sharded.plans() {
        let exec = engine.run_planned(plan, x)?;
        let latency = exec.latency_seconds();
        max_latency = max_latency.max(latency);
        total_latency += latency;
        partials.push(exec.y);
    }
    let y = sharded
        .reduce_partials(&partials)
        .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
    Ok(ShardedExecution {
        y,
        max_latency_seconds: max_latency,
        total_latency_seconds: total_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChasonEngine, SerpensEngine};
    use chason_core::schedule::SchedulerConfig;
    use chason_sparse::generators::{power_law, uniform_random};

    #[test]
    fn planned_run_is_bit_identical_to_direct_run() {
        let m = power_law(400, 400, 3000, 1.8, 17);
        let x: Vec<f32> = (0..400).map(|i| (i as f32 * 0.21).cos()).collect();
        for threads in [1, 4] {
            let engine = ChasonEngine::default();
            let plan = engine.plan_with_threads(&m, threads).unwrap();
            assert_eq!(
                engine.run_planned(&plan, &x).unwrap(),
                engine.run(&m, &x).unwrap()
            );
        }
        let serpens = SerpensEngine::default();
        let plan = serpens.plan(&m).unwrap();
        assert_eq!(
            serpens.run_planned(&plan, &x).unwrap(),
            serpens.run(&m, &x).unwrap()
        );
    }

    #[test]
    fn parallel_planning_matches_serial() {
        let m = uniform_random(64, 60_000, 20_000, 3); // 8 windows of W = 8192
        let engine = ChasonEngine::default();
        let serial = engine.plan_with_threads(&m, 1).unwrap();
        for threads in [2, 3, 8, 64] {
            assert_eq!(engine.plan_with_threads(&m, threads).unwrap(), serial);
        }
    }

    #[test]
    fn oversized_matrix_plans_in_passes_matching_run_partitioned() {
        let engine = ChasonEngine::new(AcceleratorConfig {
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
        let engine = ChasonEngine::default();
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
        let engine = ChasonEngine::default();
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

        let chason = ChasonEngine::default();
        let mut spliced = chason.plan(&m).unwrap();
        let report = chason.replan_delta(&mut spliced, &updated, &delta).unwrap();
        assert_eq!(spliced, chason.plan(&updated).unwrap());
        assert!(report.windows_replanned < report.windows_total);

        let serpens = SerpensEngine::default();
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
        let engine = ChasonEngine::default();
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
        let engine = ChasonEngine::new(AcceleratorConfig {
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
        let chason = ChasonEngine::default();
        let serpens = SerpensEngine::default();
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

    #[test]
    fn mismatched_plan_is_rejected() {
        let m = uniform_random(64, 64, 300, 1);
        let chason = ChasonEngine::default();
        let serpens = SerpensEngine::default();
        let plan = chason.plan(&m).unwrap();
        assert!(matches!(
            serpens.run_planned(&plan, &[0.0; 64]),
            Err(SimError::PlanMismatch(_))
        ));
        let toy = ChasonEngine::new(AcceleratorConfig {
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
