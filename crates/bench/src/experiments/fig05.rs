//! Fig. 5 — the CrHCS worked example: 3 channels × 4 PEs, no RAW pressure.
//!
//! The paper's walkthrough starts from a PE-aware schedule with 19 stalls
//! in 36 slots (52% underutilization, 3 cycles) and ends, after ring
//! migration, at 7 stalls in 24 slots (29%, 2 cycles).

use chason_core::schedule::{
    migrated, MigrationReport, PeAware, ScheduledMatrix, Scheduler, SchedulerConfig,
};
use chason_sparse::CooMatrix;
use chason_verify::verify_scheduler_contract;
use serde::{Deserialize, Serialize};

/// Result of the Fig. 5 walkthrough.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig05Result {
    /// PE-aware stream length in cycles (paper: 3).
    pub cycles_before: usize,
    /// PE-aware stall count including synchronization padding (paper: 19).
    pub stalls_before: usize,
    /// PE-aware underutilization percent (paper: 52%).
    pub underutilization_before_pct: f64,
    /// CrHCS stream length in cycles (paper: 2).
    pub cycles_after: usize,
    /// CrHCS stall count (paper: 7).
    pub stalls_after: usize,
    /// CrHCS underutilization percent (paper: 29%).
    pub underutilization_after_pct: f64,
    /// Values migrated across channels.
    pub migrated: usize,
}

/// The Fig. 5 configuration: 3 channels × 4 PEs, dependency distance 1
/// (the example assumes no RAW constraints among migrated data).
pub fn config() -> SchedulerConfig {
    SchedulerConfig::toy(3, 4, 1)
}

/// The Fig. 5 matrix: 17 non-zeros distributed so PE-aware scheduling
/// produces per-lane populations of `[3,1,2,1] / [2,1,1,1] / [2,1,1,1]`
/// across the three channels — 19 stalls in 36 slots.
pub fn example_matrix() -> CooMatrix {
    // Lane populations per channel (total PEs = 12; row `k*12 + ch*4 + lane`
    // is the k-th row owned by (channel ch, lane)).
    let populations: [[usize; 4]; 3] = [[3, 1, 2, 1], [2, 1, 1, 1], [2, 1, 1, 1]];
    let mut t = Vec::new();
    let mut value = 1.0f32;
    for (ch, lanes) in populations.iter().enumerate() {
        for (lane, &count) in lanes.iter().enumerate() {
            for k in 0..count {
                // One value per row: singleton rows, so D = 1 never binds.
                let row = k * 12 + ch * 4 + lane;
                t.push((row, k, value));
                value += 1.0;
            }
        }
    }
    #[allow(clippy::expect_used)] // literal in-range triplets
    CooMatrix::from_triplets(36, 3, t).expect("example triplets are valid")
}

/// The example's PE-aware schedule, its CrHCS schedule (the PE-aware one
/// migrated), and the migration statistics.
fn schedules() -> (ScheduledMatrix, ScheduledMatrix, MigrationReport) {
    let matrix = example_matrix();
    let before = PeAware::new().schedule(&matrix, &config());
    let (after, report) = migrated(&before);
    for s in [&before, &after] {
        let report = verify_scheduler_contract(s, &matrix);
        assert!(report.is_clean(), "{report}");
    }
    (before, after, report)
}

/// Runs the walkthrough.
pub fn run() -> Fig05Result {
    let (before, after, report) = schedules();
    Fig05Result {
        cycles_before: before.stream_cycles(),
        stalls_before: before.stalls(),
        underutilization_before_pct: before.underutilization() * 100.0,
        cycles_after: after.stream_cycles(),
        stalls_after: after.stalls(),
        underutilization_after_pct: after.underutilization() * 100.0,
        migrated: report.migrated,
    }
}

/// Renders the walkthrough summary plus the actual schedule grids
/// (the reproduction's version of Fig. 5's panels).
pub fn report_with_grids() -> String {
    let (before, after, _) = schedules();
    let mut out = report(&run());
    out.push_str("\npe-aware schedule:\n");
    out.push_str(&chason_core::viz::render_schedule(&before));
    out.push_str("\ncrhcs schedule:\n");
    out.push_str(&chason_core::viz::render_schedule(&after));
    out
}

/// Renders the walkthrough summary.
pub fn report(r: &Fig05Result) -> String {
    format!(
        "Fig. 5 — CrHCS walkthrough (3 channels x 4 PEs, 17 non-zeros)\n\
         (paper: 19/36 = 52% -> 7/24 = 29%, 3 cycles -> 2 cycles)\n\n\
         pe-aware : {} cycles, {} stalls, {:.0}% underutilization\n\
         crhcs    : {} cycles, {} stalls, {:.0}% underutilization ({} values migrated)\n",
        r.cycles_before,
        r.stalls_before,
        r.underutilization_before_pct,
        r.cycles_after,
        r.stalls_after,
        r.underutilization_after_pct,
        r.migrated,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn before_matches_the_paper_exactly() {
        let r = run();
        assert_eq!(r.cycles_before, 3);
        assert_eq!(r.stalls_before, 19);
        assert!((r.underutilization_before_pct - 52.0).abs() < 1.0);
    }

    #[test]
    fn after_matches_the_paper_exactly() {
        let r = run();
        assert_eq!(r.cycles_after, 2, "paper compacts the example to 2 cycles");
        assert_eq!(r.stalls_after, 7);
        assert!((r.underutilization_after_pct - 29.17).abs() < 0.5);
        assert!(r.migrated >= 1);
    }

    #[test]
    fn report_quotes_both_states() {
        let s = report(&run());
        assert!(s.contains("52%"));
        assert!(s.contains("29%"));
    }
}
