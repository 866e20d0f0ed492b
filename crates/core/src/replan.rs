//! Incremental re-planning: splice a [`MatrixDelta`]'s dirty windows into an
//! existing [`SpmvPlan`] instead of rescheduling the whole matrix.
//!
//! The accelerator's plan structure is a function of the matrix *shape*
//! alone: row-partition passes cover `max_rows_per_pe · total_PEs` rows each
//! and column windows cover `W` columns each, regardless of where the
//! non-zeros sit. A delta never changes the shape (see
//! [`MatrixDelta`]), so applying one leaves the pass/window skeleton intact
//! — only windows whose `(row span, column span)` intersect the delta's
//! footprint can schedule differently. [`SpmvPlan::apply_delta`] computes
//! that dirty set, re-schedules exactly those windows, and splices the
//! results in place, updating the per-pass and plan-level non-zero counts
//! and the plan key's fingerprint.
//!
//! For deterministic schedulers (all four in-tree schedulers are:
//! `RowBased`, `PeAware`, `Crhcs` and `HybridRowSplit`) the
//! spliced plan is **bit-identical** to a from-scratch plan of the updated
//! matrix; `crates/conformance` proves this across the whole corpus.

use crate::plan::{matrix_fingerprint, PassPlan, PlanWindow, SpmvPlan};
use crate::schedule::{ScheduledMatrix, WindowRows};
use crate::window::deal_windows;
use chason_sparse::{CooMatrix, MatrixDelta};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Error type for incremental re-planning.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplanError {
    /// The updated matrix or delta shape disagrees with the plan's.
    ShapeMismatch(String),
    /// The updated matrix's non-zero count is inconsistent with
    /// `plan.nnz + delta.nnz_change()` — the caller paired a delta with the
    /// wrong matrix.
    NnzMismatch {
        /// Non-zeros the spliced plan would record.
        expected: usize,
        /// Non-zeros the supplied updated matrix actually holds.
        got: usize,
    },
    /// The plan's pass/window skeleton cannot place a delta coordinate
    /// (corrupt or hand-built plan).
    Structure(String),
    /// The updated matrix disagrees with the delta at a coordinate the
    /// delta claims to change — the caller paired a delta with the wrong
    /// matrix.
    InconsistentUpdate {
        /// Row of the disagreeing coordinate.
        row: usize,
        /// Column of the disagreeing coordinate.
        col: usize,
    },
}

impl fmt::Display for ReplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplanError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            ReplanError::NnzMismatch { expected, got } => write!(
                f,
                "updated matrix has {got} non-zeros but plan + delta imply {expected}"
            ),
            ReplanError::Structure(msg) => write!(f, "plan structure error: {msg}"),
            ReplanError::InconsistentUpdate { row, col } => write!(
                f,
                "updated matrix disagrees with the delta at ({row}, {col})"
            ),
        }
    }
}

impl Error for ReplanError {}

/// What an incremental re-plan did, for telemetry and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplanReport {
    /// Column windows in the plan (all passes).
    pub windows_total: usize,
    /// Windows the delta dirtied and that were re-scheduled.
    pub windows_replanned: usize,
    /// Row-partition passes containing at least one dirty window.
    pub passes_touched: usize,
    /// Plan non-zeros before the splice.
    pub nnz_before: usize,
    /// Plan non-zeros after the splice.
    pub nnz_after: usize,
}

impl ReplanReport {
    /// Fraction of windows that had to be re-scheduled, in `[0, 1]`.
    pub fn replanned_fraction(&self) -> f64 {
        if self.windows_total == 0 {
            0.0
        } else {
            self.windows_replanned as f64 / self.windows_total as f64
        }
    }
}

/// Locates the pass index covering source row `r`, relying on passes being
/// contiguous and sorted (which `plan_pass` construction guarantees).
fn pass_of_row(plan: &SpmvPlan, r: usize) -> Result<usize, ReplanError> {
    let idx = plan.passes.partition_point(|p| p.row_end <= r);
    match plan.passes.get(idx) {
        Some(p) if p.row_start <= r && r < p.row_end => Ok(idx),
        _ => Err(ReplanError::Structure(format!(
            "no pass covers row {r} (plan has {} passes over {} rows)",
            plan.passes.len(),
            plan.rows
        ))),
    }
}

/// Computes the set of `(pass index, window index)` pairs whose schedules a
/// delta can change: every window whose row span and column span contain at
/// least one delta coordinate.
///
/// # Errors
///
/// [`ReplanError::ShapeMismatch`] when the delta targets a different shape
/// and [`ReplanError::Structure`] when the plan's skeleton cannot place a
/// coordinate (zero window width, missing pass or window).
pub fn dirty_windows(
    plan: &SpmvPlan,
    delta: &MatrixDelta,
) -> Result<BTreeSet<(usize, usize)>, ReplanError> {
    if delta.rows() != plan.rows || delta.cols() != plan.cols {
        return Err(ReplanError::ShapeMismatch(format!(
            "delta targets a {}x{} matrix but the plan covers {}x{}",
            delta.rows(),
            delta.cols(),
            plan.rows,
            plan.cols
        )));
    }
    let mut dirty = BTreeSet::new();
    for (r, c) in delta.coords() {
        if plan.window == 0 {
            return Err(ReplanError::Structure(
                "plan has zero window width but a non-empty delta".to_string(),
            ));
        }
        let pi = pass_of_row(plan, r)?;
        let wi = c / plan.window;
        if wi >= plan.passes[pi].windows.len() {
            return Err(ReplanError::Structure(format!(
                "column {c} maps to window {wi} but pass {pi} has only {} windows",
                plan.passes[pi].windows.len()
            )));
        }
        dirty.insert((pi, wi));
    }
    Ok(dirty)
}

impl SpmvPlan {
    /// Splices `delta` into the plan by re-scheduling only the dirty
    /// windows, leaving every untouched window's schedule byte-for-byte as
    /// it was.
    ///
    /// `updated` must be the result of applying `delta` to the plan's
    /// source matrix, and `schedule_window` must schedule a dealt window
    /// the way the plan's windows were scheduled, under the plan's own
    /// [`SchedulerConfig`](crate::schedule::SchedulerConfig) — under those
    /// conditions, and a deterministic scheduler, the spliced plan equals a
    /// from-scratch plan of `updated` exactly. The plan's key takes
    /// `updated`'s fingerprint, as a from-scratch plan's would, so the
    /// spliced plan matches `updated` and no longer the matrix it came from.
    ///
    /// On error the plan is left unchanged.
    ///
    /// # Errors
    ///
    /// * [`ReplanError::ShapeMismatch`] — `updated` or `delta` disagrees
    ///   with the plan's dimensions;
    /// * [`ReplanError::NnzMismatch`] — `updated` is not `plan matrix +
    ///   delta` (wrong non-zero count);
    /// * [`ReplanError::Structure`] — the plan skeleton cannot place a
    ///   delta coordinate.
    pub fn apply_delta(
        &mut self,
        updated: &CooMatrix,
        delta: &MatrixDelta,
        schedule_window: impl Fn(&WindowRows) -> ScheduledMatrix,
    ) -> Result<ReplanReport, ReplanError> {
        if updated.rows() != self.rows || updated.cols() != self.cols {
            return Err(ReplanError::ShapeMismatch(format!(
                "updated matrix is {}x{} but the plan covers {}x{}",
                updated.rows(),
                updated.cols(),
                self.rows,
                self.cols
            )));
        }
        let expected = (self.nnz as isize + delta.nnz_change()).max(0) as usize;
        if updated.nnz() != expected {
            return Err(ReplanError::NnzMismatch {
                expected,
                got: updated.nnz(),
            });
        }
        // Spot-check `updated` really is `plan matrix + delta`: every
        // written value must be present bit-for-bit, every deletion absent.
        let lookup = |r: usize, c: usize| {
            updated
                .triplets()
                .binary_search_by_key(&(r, c), |&(tr, tc, _)| (tr, tc))
                .ok()
                .map(|i| updated.triplets()[i].2)
        };
        for (r, c, v) in delta.inserts().into_iter().chain(delta.revalues()) {
            if lookup(r, c).map(f32::to_bits) != Some(v.to_bits()) {
                return Err(ReplanError::InconsistentUpdate { row: r, col: c });
            }
        }
        for (r, c) in delta.deletes() {
            if lookup(r, c).is_some() {
                return Err(ReplanError::InconsistentUpdate { row: r, col: c });
            }
        }
        let dirty = dirty_windows(self, delta)?;
        let report = self.replan_report(&dirty, updated.nnz());
        if dirty.is_empty() {
            return Ok(report);
        }

        // Deal the dirty windows' entries straight from `updated`, under
        // the skeleton the engines plan with: passes of the first pass's
        // height (one pass when it covers every row), windows of the
        // plan's width.
        let config = self.key.config;
        let rows_per_pe = self
            .passes
            .first()
            .map_or(0, PassPlan::rows)
            .div_ceil(config.total_pes())
            .max(1);
        let dealt = deal_windows(updated, &config, rows_per_pe, self.window, |pi, wi| {
            dirty.contains(&(pi, wi))
        });
        let skeleton_matches = dealt.len() == self.passes.len()
            && dealt.iter().zip(&self.passes).all(|(d, p)| {
                (d.row_start, d.row_end) == (p.row_start, p.row_end)
                    && d.windows.iter().all(|w| {
                        p.windows.get(w.index).is_some_and(|pw| {
                            (pw.col_start, pw.col_end) == (w.col_start, w.col_end)
                        })
                    })
            });
        if !skeleton_matches {
            return Err(ReplanError::Structure(
                "plan passes or windows do not follow the engines' partition rule".to_string(),
            ));
        }
        let schedule_window = &schedule_window;
        let windows = dealt.into_iter().enumerate().flat_map(|(pi, pass)| {
            pass.windows.into_iter().map(move |w| {
                let window = PlanWindow::new(w.col_start, w.col_end, schedule_window(&w.rows));
                (pi, w.index, window)
            })
        });
        self.install(windows, updated.nnz(), matrix_fingerprint(updated));
        Ok(report)
    }

    /// Splices `delta` into the plan from `source`, a plan of the same
    /// shape and pass/window skeleton that `delta` has already been spliced
    /// into: each window the delta dirties becomes `derive` of `source`'s
    /// window, and every other window is left as it was. The plan takes
    /// `source`'s non-zero count and fingerprint.
    ///
    /// A Chasoň plan is spliced this way from its Serpens plan, with
    /// `derive` the CrHCS migration pass, so no dirty window is dealt or
    /// scheduled PE-aware a second time.
    ///
    /// On error the plan is left unchanged.
    ///
    /// # Errors
    ///
    /// * [`ReplanError::ShapeMismatch`] — `source` or `delta` disagrees with
    ///   the plan's dimensions or window width;
    /// * [`ReplanError::NnzMismatch`] — `source` does not hold `plan + delta`
    ///   non-zeros;
    /// * [`ReplanError::Structure`] — the two skeletons differ, or the plan's
    ///   cannot place a delta coordinate.
    pub fn splice_from(
        &mut self,
        source: &SpmvPlan,
        delta: &MatrixDelta,
        derive: impl Fn(&ScheduledMatrix) -> ScheduledMatrix,
    ) -> Result<ReplanReport, ReplanError> {
        if (source.rows, source.cols, source.window) != (self.rows, self.cols, self.window) {
            return Err(ReplanError::ShapeMismatch(format!(
                "source plan is {}x{} in windows of {} but the plan is {}x{} in windows of {}",
                source.rows, source.cols, source.window, self.rows, self.cols, self.window
            )));
        }
        let expected = (self.nnz as isize + delta.nnz_change()).max(0) as usize;
        if source.nnz != expected {
            return Err(ReplanError::NnzMismatch {
                expected,
                got: source.nnz,
            });
        }
        let same_skeleton = source.passes.len() == self.passes.len()
            && source.passes.iter().zip(&self.passes).all(|(s, p)| {
                (s.row_start, s.row_end) == (p.row_start, p.row_end)
                    && s.windows.len() == p.windows.len()
                    && s.windows
                        .iter()
                        .zip(&p.windows)
                        .all(|(sw, pw)| (sw.col_start, sw.col_end) == (pw.col_start, pw.col_end))
            });
        if !same_skeleton {
            return Err(ReplanError::Structure(
                "source plan passes or windows differ from the plan's".to_string(),
            ));
        }
        let dirty = dirty_windows(self, delta)?;
        let report = self.replan_report(&dirty, source.nnz);
        let windows = dirty.iter().map(|&(pi, wi)| {
            let w = &source.passes[pi].windows[wi];
            let window = PlanWindow::new(w.col_start, w.col_end, derive(&w.schedule));
            (pi, wi, window)
        });
        self.install(windows, source.nnz, source.key.fingerprint);
        Ok(report)
    }

    /// The splice's last step: puts each `(pass, window, new window)` in
    /// place, re-totals every pass's non-zeros, and takes `nnz` and
    /// `fingerprint` as the plan's.
    fn install(
        &mut self,
        windows: impl IntoIterator<Item = (usize, usize, PlanWindow)>,
        nnz: usize,
        fingerprint: u64,
    ) {
        for (pi, wi, window) in windows {
            self.passes[pi].windows[wi] = window;
        }
        for pass in &mut self.passes {
            pass.nnz = pass.windows.iter().map(|w| w.nnz).sum();
        }
        self.nnz = nnz;
        self.key.fingerprint = fingerprint;
    }

    /// What splicing the `dirty` windows does to this plan when the
    /// updated matrix holds `nnz_after` non-zeros.
    fn replan_report(&self, dirty: &BTreeSet<(usize, usize)>, nnz_after: usize) -> ReplanReport {
        ReplanReport {
            windows_total: self.window_count(),
            windows_replanned: dirty.len(),
            passes_touched: dirty
                .iter()
                .map(|&(pi, _)| pi)
                .collect::<BTreeSet<_>>()
                .len(),
            nnz_before: self.nnz,
            nnz_after,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanKey;
    use crate::schedule::{Crhcs, PeAware, Scheduler, SchedulerConfig};
    use crate::window::{partition_columns, partition_rows_capacity};
    use chason_sparse::generators::{power_law, uniform_random};

    /// Builds a plan with the same recipe the engines use (single pass when
    /// `rows_per_pass` covers the matrix, row partitions otherwise).
    fn build_plan<S: Scheduler>(
        matrix: &CooMatrix,
        scheduler: &S,
        config: SchedulerConfig,
        window: usize,
        rows_per_pass: usize,
    ) -> SpmvPlan {
        let total_pes = config.total_pes();
        let max_rows_per_pe = rows_per_pass.div_ceil(total_pes.max(1)).max(1);
        let plan_one = |m: &CooMatrix, row_start: usize| PassPlan {
            row_start,
            row_end: row_start + m.rows(),
            nnz: m.nnz(),
            windows: partition_columns(m, window)
                .iter()
                .map(|w| {
                    PlanWindow::new(
                        w.col_start,
                        w.col_end,
                        scheduler.schedule(&w.matrix, &config),
                    )
                })
                .collect(),
        };
        let passes = if matrix.rows() <= max_rows_per_pe * total_pes {
            vec![plan_one(matrix, 0)]
        } else {
            partition_rows_capacity(matrix, max_rows_per_pe, total_pes)
                .iter()
                .map(|p| plan_one(&p.matrix, p.row_start))
                .collect()
        };
        SpmvPlan {
            key: PlanKey::new(matrix, config),
            engine: "test".to_string(),
            window,
            rows: matrix.rows(),
            cols: matrix.cols(),
            nnz: matrix.nnz(),
            passes,
        }
    }

    /// `scheduler` under `config` as the window-scheduling function
    /// `apply_delta` takes.
    fn by<S: Scheduler>(
        scheduler: &S,
        config: SchedulerConfig,
    ) -> impl Fn(&WindowRows) -> ScheduledMatrix + '_ {
        move |rows| scheduler.schedule_rows(rows, &config)
    }

    fn sample_delta(matrix: &CooMatrix, seed: usize) -> MatrixDelta {
        let mut delta = MatrixDelta::for_matrix(matrix);
        let t = matrix.triplets();
        // Revalue one entry, delete another, insert at a vacant coordinate.
        let (r, c, _) = t[seed % t.len()];
        delta.push_revalue(r, c, 7.25).unwrap();
        let (r, c, _) = t[(seed + 3) % t.len()];
        if delta.push_delete(r, c).is_err() {
            // fell on the revalued coordinate; pick the next entry instead
            let (r, c, _) = t[(seed + 4) % t.len()];
            delta.push_delete(r, c).unwrap();
        }
        'outer: for r in 0..matrix.rows() {
            for c in 0..matrix.cols() {
                if !t.iter().any(|&(tr, tc, _)| (tr, tc) == (r, c)) {
                    delta.push_insert(r, c, -1.5).unwrap();
                    break 'outer;
                }
            }
        }
        delta
    }

    #[test]
    fn spliced_plan_is_bit_identical_to_scratch() {
        let config = SchedulerConfig::toy(2, 2, 4);
        for window in [16, 64] {
            let m = uniform_random(48, 96, 400, 11);
            let scheduler = Crhcs::new();
            let mut plan = build_plan(&m, &scheduler, config, window, m.rows());
            let delta = sample_delta(&m, 1);
            let updated = delta.apply(&m).unwrap();
            let report = plan
                .apply_delta(&updated, &delta, by(&scheduler, config))
                .unwrap();
            let scratch = build_plan(&updated, &scheduler, config, window, m.rows());
            assert_eq!(plan, scratch, "splice diverged at window width {window}");
            assert!(report.windows_replanned >= 1);
            assert!(report.windows_replanned <= report.windows_total);
        }
    }

    #[test]
    fn splice_matches_scratch_across_row_partition_passes() {
        let config = SchedulerConfig::toy(2, 2, 4);
        let m = power_law(90, 60, 500, 1.8, 23);
        let scheduler = PeAware::new();
        // Force 3 passes of 32 rows each (4 PEs x 8 rows per PE).
        let mut plan = build_plan(&m, &scheduler, config, 25, 32);
        assert_eq!(plan.passes.len(), 3);
        let delta = sample_delta(&m, 7);
        let updated = delta.apply(&m).unwrap();
        let report = plan
            .apply_delta(&updated, &delta, by(&scheduler, config))
            .unwrap();
        let scratch = build_plan(&updated, &scheduler, config, 25, 32);
        assert_eq!(plan, scratch);
        assert_eq!(plan.nnz, updated.nnz());
        assert_eq!(
            plan.passes.iter().map(|p| p.nnz).sum::<usize>(),
            updated.nnz()
        );
        assert!(report.passes_touched >= 1);
        assert_eq!(plan.key.fingerprint, matrix_fingerprint(&updated));
    }

    #[test]
    fn untouched_windows_are_not_rescheduled() {
        let config = SchedulerConfig::toy(2, 2, 4);
        let m = uniform_random(32, 64, 250, 5);
        let scheduler = Crhcs::new();
        let mut plan = build_plan(&m, &scheduler, config, 16, m.rows());
        assert_eq!(plan.window_count(), 4);
        // A delta confined to columns [0, 16) dirties only window 0.
        let (r, c, _) = *m
            .triplets()
            .iter()
            .find(|&&(_, c, _)| c < 16)
            .expect("matrix has entries in the first window");
        let mut delta = MatrixDelta::for_matrix(&m);
        delta.push_revalue(r, c, 3.75).unwrap();
        let dirty = dirty_windows(&plan, &delta).unwrap();
        assert_eq!(dirty, BTreeSet::from([(0, 0)]));
        let before: Vec<_> = plan.passes[0].windows[1..].to_vec();
        let updated = delta.apply(&m).unwrap();
        let report = plan
            .apply_delta(&updated, &delta, by(&scheduler, config))
            .unwrap();
        assert_eq!(report.windows_replanned, 1);
        assert_eq!(&plan.passes[0].windows[1..], &before[..]);
        assert!((report.replanned_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_delta_only_refreshes_bookkeeping() {
        let config = SchedulerConfig::toy(2, 2, 4);
        let m = uniform_random(32, 32, 150, 3);
        let scheduler = Crhcs::new();
        let mut plan = build_plan(&m, &scheduler, config, 16, m.rows());
        let before = plan.clone();
        let delta = MatrixDelta::for_matrix(&m);
        let report = plan
            .apply_delta(&m, &delta, by(&scheduler, config))
            .unwrap();
        assert_eq!(report.windows_replanned, 0);
        assert_eq!(report.replanned_fraction(), 0.0);
        assert_eq!(plan, before);
    }

    #[test]
    fn mismatched_inputs_are_rejected_and_plan_unchanged() {
        let config = SchedulerConfig::toy(2, 2, 4);
        let m = uniform_random(32, 32, 150, 3);
        let scheduler = Crhcs::new();
        let mut plan = build_plan(&m, &scheduler, config, 16, m.rows());
        let before = plan.clone();

        let wrong_shape = MatrixDelta::new(33, 32);
        assert!(matches!(
            plan.apply_delta(&m, &wrong_shape, by(&scheduler, config)),
            Err(ReplanError::ShapeMismatch(_))
        ));

        // Delta claims an insert but `updated` is the unchanged matrix.
        let mut delta = MatrixDelta::for_matrix(&m);
        let vacant = (0..m.cols())
            .find(|&c| !m.triplets().iter().any(|&(r, tc, _)| r == 0 && tc == c))
            .expect("row 0 has a vacant column");
        delta.push_insert(0, vacant, 1.0).unwrap();
        assert!(matches!(
            plan.apply_delta(&m, &delta, by(&scheduler, config)),
            Err(ReplanError::NnzMismatch { .. })
        ));
        assert_eq!(plan, before);
    }

    #[test]
    fn replan_error_display_is_specific() {
        let err = ReplanError::NnzMismatch {
            expected: 10,
            got: 9,
        };
        let msg = err.to_string();
        assert!(msg.contains("10") && msg.contains("9"));
        assert!(ReplanError::ShapeMismatch("x".into())
            .to_string()
            .starts_with("shape mismatch"));
    }
}
