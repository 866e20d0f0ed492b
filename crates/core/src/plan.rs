//! Reusable SpMV schedule plans.
//!
//! Scheduling dominates preprocessing cost, yet it depends only on the
//! matrix structure and the [`SchedulerConfig`] — not on the dense vector.
//! Iterative solvers therefore re-pay it on every iteration for nothing.
//! This module defines the *plan artifact* produced once per matrix: the
//! full per-window [`ScheduledMatrix`] list (grouped into row-partition
//! passes for matrices that exceed the partial-sum URAM capacity), the
//! window partition bounds, per-window stats, and a cache key combining a
//! fingerprint of the matrix with the scheduler configuration. Engines
//! consume a plan with `run_planned`, which executes without rescheduling
//! and reproduces the unplanned run bit for bit.

use crate::schedule::{ScheduledMatrix, SchedulerConfig};
use chason_sparse::CooMatrix;
use serde::{Deserialize, Serialize};

/// FNV-1a fingerprint of a matrix's dimensions and triplets
/// ([`CooMatrix::fingerprint`], hashed once per content and memoized).
///
/// Collisions are astronomically unlikely for distinct real matrices, and a
/// collision can at worst serve a stale schedule for a *different* matrix of
/// identical dimensions — detectable because plans carry their nnz — so a
/// 64-bit structural hash is an adequate cache identity.
pub fn matrix_fingerprint(matrix: &CooMatrix) -> u64 {
    matrix.fingerprint()
}

/// Identity of a plan in a cache: *which matrix* (by structural
/// fingerprint) scheduled under *which architecture*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanKey {
    /// [`matrix_fingerprint`] of the source matrix.
    pub fingerprint: u64,
    /// Scheduler configuration the plan targets.
    pub config: SchedulerConfig,
}

impl PlanKey {
    /// Computes the key for `matrix` under `config`.
    pub fn new(matrix: &CooMatrix, config: SchedulerConfig) -> Self {
        PlanKey {
            fingerprint: matrix_fingerprint(matrix),
            config,
        }
    }
}

/// One scheduled column window of a pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanWindow {
    /// First source column covered (inclusive).
    pub col_start: usize,
    /// One past the last source column covered.
    pub col_end: usize,
    /// Non-zeros in this window.
    pub nnz: usize,
    /// Stall slots left after scheduling (virtual padding included).
    pub stalls: usize,
    /// Cycles the window occupies the stream (longest equalized channel).
    pub stream_cycles: usize,
    /// The window's schedule, ready to execute.
    pub schedule: ScheduledMatrix,
}

/// One row-partition pass of a plan (§4.5). Single-pass plans have one
/// entry covering every row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassPlan {
    /// First source row covered (inclusive).
    pub row_start: usize,
    /// One past the last source row covered.
    pub row_end: usize,
    /// Non-zeros in this pass.
    pub nnz: usize,
    /// The pass's column windows in stream order.
    pub windows: Vec<PlanWindow>,
}

impl PlanWindow {
    /// The window of columns `col_start..col_end` holding `schedule`, with
    /// the schedule's statistics cached beside it.
    pub fn new(col_start: usize, col_end: usize, schedule: ScheduledMatrix) -> Self {
        PlanWindow {
            col_start,
            col_end,
            nnz: schedule.nnz,
            stalls: schedule.stalls(),
            stream_cycles: schedule.stream_cycles(),
            schedule,
        }
    }
}

impl PassPlan {
    /// Rows this pass covers.
    pub fn rows(&self) -> usize {
        self.row_end - self.row_start
    }
}

/// A complete reusable SpMV schedule plan for one (matrix, configuration)
/// pair: execute it any number of times against different dense vectors
/// without rescheduling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpmvPlan {
    /// Cache identity: matrix fingerprint + scheduler configuration.
    pub key: PlanKey,
    /// Engine family that produced (and may execute) the plan.
    pub engine: String,
    /// Column window width the plan was partitioned with.
    pub window: usize,
    /// Source matrix row count.
    pub rows: usize,
    /// Source matrix column count.
    pub cols: usize,
    /// Source matrix non-zero count.
    pub nnz: usize,
    /// Row-partition passes in row order.
    pub passes: Vec<PassPlan>,
}

impl SpmvPlan {
    /// Total column windows across all passes.
    pub fn window_count(&self) -> usize {
        self.passes.iter().map(|p| p.windows.len()).sum()
    }

    /// Total stall slots across all windows.
    pub fn stalls(&self) -> usize {
        self.passes
            .iter()
            .flat_map(|p| &p.windows)
            .map(|w| w.stalls)
            .sum()
    }

    /// Total stream cycles across all windows (before initiation-interval
    /// derating).
    pub fn stream_cycles(&self) -> usize {
        self.passes
            .iter()
            .flat_map(|p| &p.windows)
            .map(|w| w.stream_cycles)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chason_sparse::generators::uniform_random;

    #[test]
    fn fingerprint_is_structural() {
        let a = uniform_random(64, 64, 300, 9);
        let b = uniform_random(64, 64, 300, 9);
        assert_eq!(matrix_fingerprint(&a), matrix_fingerprint(&b));
        let c = uniform_random(64, 64, 300, 10);
        assert_ne!(matrix_fingerprint(&a), matrix_fingerprint(&c));
    }

    #[test]
    fn plan_key_distinguishes_configs() {
        let m = uniform_random(32, 32, 100, 1);
        let paper = PlanKey::new(&m, SchedulerConfig::paper());
        let toy = PlanKey::new(&m, SchedulerConfig::toy(2, 2, 4));
        assert_eq!(paper.fingerprint, toy.fingerprint);
        assert_ne!(paper, toy);
    }
}
