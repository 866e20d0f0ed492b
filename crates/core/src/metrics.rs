//! PE-underutilization metrics (Eq. 4) and scheduler comparisons.
//!
//! The paper's key metric is measured *offline* on the scheduled data lists:
//! every stall word in a channel list is one idle-PE instance, so
//!
//! ```text
//! underutilization % = Σ stalls / (NNZ + Σ stalls) × 100        (Eq. 4)
//! ```
//!
//! These helpers bundle the per-schedule numbers needed by the Figure 3 /
//! 11 / 12 / 13 experiment binaries.

use crate::schedule::{migrated, Crhcs, PeAware, ScheduledMatrix, Scheduler, SchedulerConfig};
use chason_sparse::CooMatrix;
use serde::{Deserialize, Serialize};

/// Summary metrics of one schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleMetrics {
    /// Scheduler name.
    pub scheduler: String,
    /// Source-matrix non-zeros.
    pub nnz: usize,
    /// Total stall slots.
    pub stalls: usize,
    /// Stream length in cycles (equalized channel-list length).
    pub cycles: usize,
    /// PE underutilization in percent (Eq. 4).
    pub underutilization_pct: f64,
    /// Per-channel (per-PEG) underutilization in percent.
    pub per_peg_pct: Vec<f64>,
    /// Throughput upper bound in non-zeros per cycle per PE.
    pub nz_per_cycle_per_pe: f64,
}

impl ScheduleMetrics {
    /// Computes the metrics of a schedule produced by `scheduler_name`.
    pub fn from_schedule(scheduler_name: &str, schedule: &ScheduledMatrix) -> Self {
        let nnz = schedule.scheduled_nonzeros();
        let stalls = schedule.stalls();
        let cycles = schedule.stream_cycles();
        let total_pes = schedule.config.total_pes();
        let slots = cycles * total_pes;
        ScheduleMetrics {
            scheduler: scheduler_name.to_string(),
            nnz,
            stalls,
            cycles,
            underutilization_pct: schedule.underutilization() * 100.0,
            per_peg_pct: schedule
                .per_channel_underutilization()
                .iter()
                .map(|u| u * 100.0)
                .collect(),
            nz_per_cycle_per_pe: if slots == 0 {
                0.0
            } else {
                nnz as f64 / slots as f64
            },
        }
    }
}

/// Side-by-side comparison of two schedulers on the same matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerComparison {
    /// Metrics of the baseline scheduler.
    pub baseline: ScheduleMetrics,
    /// Metrics of the improved scheduler.
    pub improved: ScheduleMetrics,
    /// `baseline.cycles / improved.cycles` — the stream-length speedup the
    /// improved schedule enables at equal clock frequency.
    pub cycle_reduction: f64,
    /// `baseline` stalls minus `improved` stalls.
    pub stalls_removed: isize,
}

/// Runs two schedulers on a matrix and compares them.
///
/// # Example
///
/// ```
/// use chason_core::metrics::compare;
/// use chason_core::schedule::{Crhcs, PeAware, SchedulerConfig};
/// use chason_sparse::generators::power_law;
///
/// let m = power_law(256, 256, 2000, 1.8, 3);
/// let cmp = compare(&PeAware::new(), &Crhcs::new(), &m, &SchedulerConfig::default());
/// assert!(cmp.cycle_reduction >= 1.0);
/// ```
pub fn compare<A: Scheduler, B: Scheduler>(
    baseline: &A,
    improved: &B,
    matrix: &CooMatrix,
    config: &SchedulerConfig,
) -> SchedulerComparison {
    let b = baseline.schedule(matrix, config);
    let i = improved.schedule(matrix, config);
    let bm = ScheduleMetrics::from_schedule(baseline.name(), &b);
    let im = ScheduleMetrics::from_schedule(improved.name(), &i);
    let cycle_reduction = if im.cycles == 0 {
        1.0
    } else {
        bm.cycles as f64 / im.cycles as f64
    };
    SchedulerComparison {
        stalls_removed: bm.stalls as isize - im.stalls as isize,
        cycle_reduction,
        baseline: bm,
        improved: im,
    }
}

/// Aggregate metrics of scheduling a matrix one column window at a time
/// (§4.1) — how the hardware actually consumes wide matrices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedMetrics {
    /// Scheduler name.
    pub scheduler: String,
    /// Source-matrix non-zeros (summed across windows).
    pub nnz: usize,
    /// Stall slots summed across windows.
    pub stalls: usize,
    /// Stream cycles summed across windows.
    pub stream_cycles: usize,
    /// Number of column windows.
    pub windows: usize,
    /// Per-channel stalls summed across windows.
    pub per_channel_stalls: Vec<usize>,
    /// Per-channel scheduled non-zeros summed across windows.
    pub per_channel_nnz: Vec<usize>,
}

impl WindowedMetrics {
    fn empty(scheduler: &str, windows: usize, config: &SchedulerConfig) -> Self {
        WindowedMetrics {
            scheduler: scheduler.to_string(),
            nnz: 0,
            stalls: 0,
            stream_cycles: 0,
            windows,
            per_channel_stalls: vec![0; config.channels],
            per_channel_nnz: vec![0; config.channels],
        }
    }

    /// Adds one window's schedule.
    fn add(&mut self, s: &ScheduledMatrix, config: &SchedulerConfig) {
        let cycles = s.stream_cycles();
        self.nnz += s.scheduled_nonzeros();
        self.stalls += s.stalls();
        self.stream_cycles += cycles;
        for (i, ch) in s.channels.iter().enumerate() {
            // Per-channel stalls include the virtual padding to the
            // window's longest channel (§3.1).
            self.per_channel_stalls[i] += cycles * config.pes_per_channel - ch.nonzeros();
            self.per_channel_nnz[i] += ch.nonzeros();
        }
    }

    /// PE underutilization per Eq. 4 over the whole run.
    pub fn underutilization_pct(&self) -> f64 {
        let total = self.nnz + self.stalls;
        if total == 0 {
            0.0
        } else {
            100.0 * self.stalls as f64 / total as f64
        }
    }

    /// Per-channel (PEG) underutilization percentages.
    pub fn per_peg_underutilization_pct(&self) -> Vec<f64> {
        self.per_channel_stalls
            .iter()
            .zip(&self.per_channel_nnz)
            .map(|(&s, &n)| {
                if s + n == 0 {
                    0.0
                } else {
                    100.0 * s as f64 / (s + n) as f64
                }
            })
            .collect()
    }
}

/// Schedules `matrix` window-by-window with `scheduler` and aggregates the
/// stall metrics — the offline measurement procedure of §5.3.
pub fn windowed_metrics<S: Scheduler>(
    scheduler: &S,
    matrix: &CooMatrix,
    config: &SchedulerConfig,
    window: usize,
) -> WindowedMetrics {
    let windows = crate::window::partition_columns(matrix, window);
    let mut out = WindowedMetrics::empty(scheduler.name(), windows.len(), config);
    for w in &windows {
        out.add(&scheduler.schedule(&w.matrix, config), config);
    }
    out
}

/// [`windowed_metrics`] of [`PeAware`] and of [`Crhcs`] from one PE-aware
/// pass per window: the CrHCS schedule is [`migrated`] from that window's
/// PE-aware schedule, so no window is scheduled PE-aware twice.
pub fn windowed_metrics_pe_aware_and_crhcs(
    matrix: &CooMatrix,
    config: &SchedulerConfig,
    window: usize,
) -> (WindowedMetrics, WindowedMetrics) {
    let windows = crate::window::partition_columns(matrix, window);
    let mut pe_aware = WindowedMetrics::empty(PeAware::new().name(), windows.len(), config);
    let mut crhcs = WindowedMetrics::empty(Crhcs::new().name(), windows.len(), config);
    for w in &windows {
        let s = PeAware::new().schedule(&w.matrix, config);
        pe_aware.add(&s, config);
        crhcs.add(&migrated(&s).0, config);
    }
    (pe_aware, crhcs)
}

/// Structural insights into one schedule: where the stalls sit and how far
/// values migrated — the diagnostic view behind the Eq.-4 scalar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleInsights {
    /// Histogram of stall-run lengths per PE timeline: `run_lengths[k]` =
    /// number of maximal idle bursts of length `k + 1` (the last bucket
    /// aggregates longer runs).
    pub stall_run_lengths: Vec<usize>,
    /// Longest idle burst observed on any PE.
    pub longest_stall_run: usize,
    /// Non-zeros that were migrated (`pvt = 0`).
    pub migrated: usize,
    /// Migrated values per ring hop (`index 0` = hop 1).
    pub migrated_per_hop: Vec<usize>,
    /// Mean cycle distance a migrated value moved *earlier* relative to the
    /// stream length (0 when nothing migrated).
    pub mean_fill_position: f64,
}

/// Number of explicit stall-run buckets (runs of `BUCKETS` cycles or more
/// share the final bucket).
pub const STALL_RUN_BUCKETS: usize = 16;

/// Computes [`ScheduleInsights`] for a schedule.
pub fn schedule_insights(schedule: &ScheduledMatrix) -> ScheduleInsights {
    let config = &schedule.config;
    let mut run_lengths = vec![0usize; STALL_RUN_BUCKETS];
    let mut longest = 0usize;
    let mut migrated = 0usize;
    let mut migrated_per_hop = vec![0usize; config.channels.max(1)];
    let mut fill_positions = 0.0f64;
    let global = schedule.stream_cycles();
    let mut record_run = |run: usize| {
        if run > 0 {
            longest = longest.max(run);
            run_lengths[(run - 1).min(STALL_RUN_BUCKETS - 1)] += 1;
        }
    };
    for ch in &schedule.channels {
        // A channel with no cycles has no lanes to report runs for.
        let lanes = if ch.cycles() == 0 { 0 } else { ch.lanes() };
        // Lane by lane, so the fill positions are summed in a fixed order.
        for lane in 0..lanes {
            let mut next = 0usize; // first cycle after the lane's last value
            for (cycle, _, nz) in ch.occupied().filter(|&(_, l, _)| l == lane) {
                record_run(cycle - next);
                next = cycle + 1;
                if !nz.pvt {
                    migrated += 1;
                    let hop = config.hop_for(ch.channel, config.channel_for_row(nz.row));
                    if hop >= 1 {
                        migrated_per_hop[hop - 1] += 1;
                    }
                    if global > 0 {
                        fill_positions += cycle as f64 / global as f64;
                    }
                }
            }
            record_run(global.saturating_sub(next));
        }
    }
    migrated_per_hop.truncate(config.migration_hops.max(1));
    ScheduleInsights {
        stall_run_lengths: run_lengths,
        longest_stall_run: longest,
        migrated,
        migrated_per_hop,
        mean_fill_position: if migrated == 0 {
            0.0
        } else {
            fill_positions / migrated as f64
        },
    }
}

/// Geometric mean of a set of strictly positive values.
///
/// Values `<= 0` are skipped (they would poison the log sum); returns 0 when
/// no valid values remain.
pub fn geometric_mean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| *v > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Crhcs, PeAware};
    use chason_sparse::generators::power_law;

    #[test]
    fn metrics_match_schedule_accessors() {
        let config = SchedulerConfig::paper();
        let m = power_law(512, 512, 3000, 1.7, 2);
        let s = PeAware::new().schedule(&m, &config);
        let metrics = ScheduleMetrics::from_schedule("pe-aware", &s);
        assert_eq!(metrics.nnz, 3000);
        assert_eq!(metrics.stalls, s.stalls());
        assert_eq!(metrics.per_peg_pct.len(), 16);
        assert!((metrics.underutilization_pct / 100.0 - s.underutilization()).abs() < 1e-12);
    }

    #[test]
    fn comparison_favors_crhcs_on_skewed_input() {
        let config = SchedulerConfig::paper();
        let m = power_law(1024, 1024, 6000, 1.9, 8);
        let cmp = compare(&PeAware::new(), &Crhcs::new(), &m, &config);
        assert!(cmp.cycle_reduction >= 1.0);
        assert!(cmp.stalls_removed >= 0);
        assert!(cmp.improved.underutilization_pct <= cmp.baseline.underutilization_pct);
    }

    #[test]
    fn nz_per_cycle_per_pe_is_bounded_by_one() {
        let config = SchedulerConfig::paper();
        let m = power_law(512, 512, 3000, 1.5, 4);
        let s = Crhcs::new().schedule(&m, &config);
        let metrics = ScheduleMetrics::from_schedule("crhcs", &s);
        assert!(metrics.nz_per_cycle_per_pe <= 1.0);
        assert!(metrics.nz_per_cycle_per_pe > 0.0);
    }

    #[test]
    fn windowed_metrics_match_single_window_for_narrow_matrices() {
        let config = SchedulerConfig::paper();
        let m = power_law(512, 512, 3000, 1.6, 6);
        let s = PeAware::new().schedule(&m, &config);
        let w = windowed_metrics(&PeAware::new(), &m, &config, 8192);
        assert_eq!(w.windows, 1);
        assert_eq!(w.nnz, s.scheduled_nonzeros());
        assert_eq!(w.stalls, s.stalls());
        assert!((w.underutilization_pct() / 100.0 - s.underutilization()).abs() < 1e-12);
    }

    #[test]
    fn windowed_metrics_cover_all_nonzeros_across_windows() {
        let config = SchedulerConfig::paper();
        let m = power_law(256, 2000, 4000, 1.5, 6);
        let w = windowed_metrics(&Crhcs::new(), &m, &config, 512);
        assert_eq!(w.windows, 4);
        assert_eq!(w.nnz, 4000);
        assert_eq!(w.per_channel_nnz.iter().sum::<usize>(), 4000);
        assert_eq!(w.per_channel_stalls.iter().sum::<usize>(), w.stalls);
    }

    #[test]
    fn one_pe_aware_pass_gives_both_schedulers_metrics() {
        let m = power_law(256, 2000, 4000, 1.5, 6);
        for hops in [1, 2] {
            let config = SchedulerConfig {
                migration_hops: hops,
                ..SchedulerConfig::paper()
            };
            let (pa, cr) = windowed_metrics_pe_aware_and_crhcs(&m, &config, 512);
            assert_eq!(pa, windowed_metrics(&PeAware::new(), &m, &config, 512));
            assert_eq!(cr, windowed_metrics(&Crhcs::new(), &m, &config, 512));
        }
    }

    #[test]
    fn insights_count_stall_runs_and_migrations() {
        let config = SchedulerConfig::toy(2, 2, 4);
        // Channel 1 rich, channel 0 poor: migration guaranteed.
        let triplets: Vec<_> = (0..20)
            .map(|i| (2 + (i % 2) + 4 * (i / 2), i % 8, 1.0 + i as f32))
            .collect();
        let m = chason_sparse::CooMatrix::from_triplets(64, 8, triplets).unwrap();
        let serpens = PeAware::new().schedule(&m, &config);
        let chason = Crhcs::new().schedule(&m, &config);
        let si = schedule_insights(&serpens);
        let ci = schedule_insights(&chason);
        assert_eq!(si.migrated, 0, "pe-aware never migrates");
        assert!(ci.migrated > 0);
        assert_eq!(ci.migrated_per_hop.iter().sum::<usize>(), ci.migrated);
        // CrHCS shortens the worst idle burst.
        assert!(ci.longest_stall_run <= si.longest_stall_run);
        assert!((0.0..=1.0).contains(&ci.mean_fill_position));
    }

    #[test]
    fn insights_on_empty_schedule_are_zero() {
        let config = SchedulerConfig::toy(2, 2, 4);
        let s = PeAware::new().schedule(&chason_sparse::CooMatrix::new(8, 8), &config);
        let i = schedule_insights(&s);
        assert_eq!(i.migrated, 0);
        assert_eq!(i.longest_stall_run, 0);
        assert_eq!(i.stall_run_lengths.iter().sum::<usize>(), 0);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert_eq!(geometric_mean(&[0.0, -1.0]), 0.0);
        assert!((geometric_mean(&[5.0, 0.0]) - 5.0).abs() < 1e-12);
    }
}
