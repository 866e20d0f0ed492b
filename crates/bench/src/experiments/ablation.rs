//! Ablations over the design choices the paper calls out.
//!
//! * [`hops`] — §6.1: extending CrHCS's migration scope beyond the
//!   immediate next channel reduces residual underutilization at the cost
//!   of more `URAM_sh` banks per PE;
//! * [`dependency_distance`] — §2.2: the accumulator depth `D` is what
//!   creates RAW stalls in the first place (an RTL design with a shorter
//!   adder would stall less);
//! * [`scan_limit`] — §3.3: how far CrHCS searches past RAW-blocked
//!   candidates before leaving a stall in place;
//! * [`precision`] — §5.5: 64-bit values with 32-bit metadata fit only 5
//!   elements in a 512-bit beat, shrinking each PEG to 5 PEs.

use chason_core::schedule::{migrated, PeAware, Scheduler, SchedulerConfig};
use chason_core::window::partition_columns;
use chason_sim::resources::uram_count;
use chason_sparse::generators::{arrow_with_nnz, power_law};
use chason_sparse::permute::{degree_interleave, permute_rows, Permutation};
use chason_sparse::CooMatrix;
use serde::{Deserialize, Serialize};

/// One row of an ablation sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// The swept parameter's value.
    pub parameter: usize,
    /// Serpens (PE-aware) underutilization percent.
    pub serpens_pct: f64,
    /// Chasoň (CrHCS) underutilization percent.
    pub chason_pct: f64,
    /// Chasoň stream cycles.
    pub chason_cycles: usize,
    /// Secondary cost metric (URAMs for `hops`, migrated values for
    /// `scan_limit`, 0 otherwise).
    pub cost: u64,
}

/// A full ablation sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationResult {
    /// Name of the swept parameter.
    pub parameter_name: &'static str,
    /// Sweep rows in parameter order.
    pub rows: Vec<AblationRow>,
}

/// The skewed workload all ablations run on: an optimal-control-style
/// arrow matrix where migration matters.
pub fn workload(seed: u64) -> CooMatrix {
    arrow_with_nnz(4096, 4, 16, 80_000, seed)
}

/// Both engines' Eq. 4 underutilization percent and stream cycles, and the
/// values CrHCS migrated, summed window by window (§5.3's offline
/// procedure). Each window is scheduled PE-aware once and migrated in
/// place; its [`MigrationReport`](chason_core::schedule::MigrationReport)
/// carries the stalls and cycles before and after.
struct Measured {
    serpens_pct: f64,
    chason_pct: f64,
    serpens_cycles: usize,
    chason_cycles: usize,
    migrated: usize,
}

impl Measured {
    fn row(&self, parameter: usize, cost: u64) -> AblationRow {
        AblationRow {
            parameter,
            serpens_pct: self.serpens_pct,
            chason_pct: self.chason_pct,
            chason_cycles: self.chason_cycles,
            cost,
        }
    }
}

fn measure(matrix: &CooMatrix, config: &SchedulerConfig) -> Measured {
    let (mut stalls_before, mut stalls_after) = (0, 0);
    let (mut serpens_cycles, mut chason_cycles, mut moved) = (0, 0, 0);
    for w in partition_columns(matrix, chason_core::element::WINDOW) {
        let (_, r) = migrated(&PeAware::new().schedule(&w.matrix, config));
        stalls_before += r.stalls_before;
        stalls_after += r.stalls_after;
        serpens_cycles += r.cycles_before;
        chason_cycles += r.cycles_after;
        moved += r.migrated;
    }
    let pct = |stalls: usize| {
        let slots = matrix.nnz() + stalls;
        if slots == 0 {
            0.0
        } else {
            100.0 * stalls as f64 / slots as f64
        }
    };
    Measured {
        serpens_pct: pct(stalls_before),
        chason_pct: pct(stalls_after),
        serpens_cycles,
        chason_cycles,
        migrated: moved,
    }
}

/// §6.1: sweep the migration scope (ring hops).
pub fn hops(max_hops: usize, seed: u64) -> AblationResult {
    let matrix = workload(seed);
    let rows = (1..=max_hops)
        .map(|h| {
            let config = SchedulerConfig {
                migration_hops: h,
                ..SchedulerConfig::paper()
            };
            // One URAM_sh bank group per hop plus the private bank.
            measure(&matrix, &config).row(h, uram_count(16, 8, (3 * h) as u64))
        })
        .collect();
    AblationResult {
        parameter_name: "migration hops",
        rows,
    }
}

/// §2.2: sweep the accumulator dependency distance `D`.
pub fn dependency_distance(values: &[usize], seed: u64) -> AblationResult {
    let matrix = workload(seed);
    let rows = values
        .iter()
        .map(|&d| {
            let config = SchedulerConfig {
                dependency_distance: d,
                ..SchedulerConfig::paper()
            };
            measure(&matrix, &config).row(d, 0)
        })
        .collect();
    AblationResult {
        parameter_name: "dependency distance D",
        rows,
    }
}

/// §3.3: sweep CrHCS's candidate scan limit.
pub fn scan_limit(values: &[usize], seed: u64) -> AblationResult {
    let matrix = workload(seed);
    let rows = values
        .iter()
        .map(|&limit| {
            let config = SchedulerConfig {
                migration_scan_limit: limit,
                ..SchedulerConfig::paper()
            };
            let m = measure(&matrix, &config);
            m.row(limit, m.migrated as u64)
        })
        .collect();
    AblationResult {
        parameter_name: "migration scan limit",
        rows,
    }
}

/// §5.5: data precision — FP32 (8 elements/beat, 8 PEs) vs FP64 + 32-bit
/// metadata (5 elements/beat, 5 PEs).
pub fn precision(seed: u64) -> AblationResult {
    let matrix = power_law(4096, 4096, 80_000, 1.6, seed);
    let rows = [8usize, 5]
        .iter()
        .map(|&pes| {
            let config = SchedulerConfig {
                pes_per_channel: pes,
                ..SchedulerConfig::paper()
            };
            measure(&matrix, &config).row(pes, 0)
        })
        .collect();
    AblationResult {
        parameter_name: "PEs per PEG (precision)",
        rows,
    }
}

/// Software-only alternative: static row reordering vs CrHCS.
///
/// Prior work (§7.1) reorders non-zeros in software instead of migrating
/// them in hardware. This sweep compares PE-aware scheduling on (0) the
/// natural row order, (1) a random shuffle, and (2) a degree-interleaved
/// balance, against CrHCS on the natural order. Static reordering narrows
/// the gap on load imbalance but cannot break a hub row's RAW chain —
/// which only cross-channel migration does.
pub fn row_order(seed: u64) -> AblationResult {
    let matrix = workload(seed);
    let config = SchedulerConfig::paper();
    let orders: [(&str, CooMatrix); 3] = [
        ("natural", matrix.clone()),
        (
            "shuffled",
            permute_rows(&matrix, &Permutation::random(matrix.rows(), seed ^ 0xA5)),
        ),
        (
            "interleaved",
            permute_rows(&matrix, &degree_interleave(&matrix, config.total_pes())),
        ),
    ];
    let rows = orders
        .iter()
        .enumerate()
        .map(|(i, (_, m))| {
            let m = measure(m, &config);
            m.row(i, m.serpens_cycles as u64)
        })
        .collect();
    AblationResult {
        parameter_name: "row order (0 natural, 1 shuffled, 2 interleaved)",
        rows,
    }
}

/// Renders a sweep table.
pub fn report(r: &AblationResult) -> String {
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                row.parameter.to_string(),
                format!("{:.1}%", row.serpens_pct),
                format!("{:.1}%", row.chason_pct),
                row.chason_cycles.to_string(),
                row.cost.to_string(),
            ]
        })
        .collect();
    let mut out = format!("Ablation — {}\n\n", r.parameter_name);
    out.push_str(&crate::util::format_table(
        &[r.parameter_name, "serpens", "chason", "cycles", "cost"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_hops_never_hurt() {
        let r = hops(3, 5);
        assert_eq!(r.rows.len(), 3);
        for pair in r.rows.windows(2) {
            // The per-pass quota split is a heuristic: improvement is
            // near-monotone, within a small tolerance.
            assert!(
                pair[1].chason_pct <= pair[0].chason_pct + 1.0,
                "hops {} -> {} raised underutilization {} -> {}",
                pair[0].parameter,
                pair[1].parameter,
                pair[0].chason_pct,
                pair[1].chason_pct
            );
            assert!(pair[1].cost > pair[0].cost, "more hops must cost more URAM");
        }
        // The extended scope must show a real gain somewhere (§6.1).
        assert!(
            r.rows.last().unwrap().chason_pct < r.rows[0].chason_pct - 1.0,
            "hops 3 ({}) should beat hops 1 ({})",
            r.rows.last().unwrap().chason_pct,
            r.rows[0].chason_pct
        );
        // Serpens is hop-independent.
        let s0 = r.rows[0].serpens_pct;
        assert!(r.rows.iter().all(|row| (row.serpens_pct - s0).abs() < 1e-9));
    }

    #[test]
    fn shorter_distance_reduces_stalls() {
        let r = dependency_distance(&[1, 10], 7);
        assert!(r.rows[0].serpens_pct <= r.rows[1].serpens_pct);
        assert!(r.rows[0].chason_pct <= r.rows[1].chason_pct + 1e-9);
    }

    #[test]
    fn tiny_scan_limit_migrates_less() {
        let r = scan_limit(&[1, 256], 3);
        assert!(
            r.rows[0].cost <= r.rows[1].cost,
            "limit 1 migrated {} vs limit 256 {}",
            r.rows[0].cost,
            r.rows[1].cost
        );
        assert!(r.rows[1].chason_pct <= r.rows[0].chason_pct + 1e-9);
    }

    #[test]
    fn static_reordering_cannot_replace_migration() {
        let r = row_order(5);
        assert_eq!(r.rows.len(), 3);
        // CrHCS on the natural order beats PE-aware under *every* static
        // reorder: the hub rows' RAW chains survive any permutation.
        let crhcs_natural = r.rows[0].chason_pct;
        for row in &r.rows {
            assert!(
                crhcs_natural < row.serpens_pct,
                "crhcs ({crhcs_natural}) should beat pe-aware on order {} ({})",
                row.parameter,
                row.serpens_pct
            );
        }
    }

    #[test]
    fn fp64_config_is_valid_and_reported() {
        let r = precision(9);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].parameter, 8);
        assert_eq!(r.rows[1].parameter, 5);
    }

    #[test]
    fn report_renders_all_rows() {
        let s = report(&dependency_distance(&[1, 5, 10], 2));
        assert!(s.lines().count() >= 6, "{s}");
    }
}
