//! Table 3 — detailed per-matrix performance of Chasoň and Serpens:
//! latency, throughput, bandwidth efficiency, and energy efficiency.

use chason_sim::power::MeasuredPower;
use chason_sim::report::PerformanceReport;
use chason_sim::{hbm_bandwidth_gbps, AcceleratorConfig, ChasonEngine, SerpensEngine};
use chason_sparse::datasets::table2;
use serde::{Deserialize, Serialize};

/// One Table 3 row: both engines on one matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Dataset ID.
    pub id: String,
    /// Dataset name.
    pub name: String,
    /// Source collection.
    pub collection: String,
    /// Chasoň's derived metrics.
    pub chason: PerformanceReport,
    /// Serpens' derived metrics.
    pub serpens: PerformanceReport,
    /// Bandwidth-efficiency improvement factor.
    pub bandwidth_improvement: f64,
    /// Energy-efficiency improvement factor.
    pub energy_improvement: f64,
}

/// Result of the Table 3 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Result {
    /// Per-matrix rows in paper order.
    pub rows: Vec<Table3Row>,
}

/// Runs both engines over `limit` Table 2 matrices.
pub fn run(limit: usize) -> Table3Result {
    let chason = ChasonEngine::new(AcceleratorConfig::chason());
    let serpens = SerpensEngine::new(AcceleratorConfig::serpens());
    // Both designs stream matrix A over 16 channels at 14.37 GB/s each.
    let bandwidth = hbm_bandwidth_gbps(16);
    let rows = table2()
        .into_iter()
        .take(limit)
        .map(|spec| {
            let matrix = spec.generate();
            let x = vec![1.0f32; matrix.cols()];
            #[allow(clippy::expect_used)] // catalog matrices fit the accelerator
            let ce = chason.run(&matrix, &x).expect("catalog matrices fit");
            #[allow(clippy::expect_used)] // catalog matrices fit the accelerator
            let se = serpens.run(&matrix, &x).expect("catalog matrices fit");
            let cr = PerformanceReport::from_execution(&ce, bandwidth, MeasuredPower::chason());
            let sr = PerformanceReport::from_execution(&se, bandwidth, MeasuredPower::serpens());
            Table3Row {
                id: spec.id.to_string(),
                name: spec.name.to_string(),
                collection: spec.collection.to_string(),
                bandwidth_improvement: if sr.bandwidth_efficiency > 0.0 {
                    cr.bandwidth_efficiency / sr.bandwidth_efficiency
                } else {
                    0.0
                },
                energy_improvement: cr.energy_gain_over(&sr),
                chason: cr,
                serpens: sr,
            }
        })
        .collect();
    Table3Result { rows }
}

/// Renders the paper-style table.
pub fn report(r: &Table3Result) -> String {
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                row.id.clone(),
                format!("{:.3}", row.chason.latency_ms),
                format!("{:.3}", row.serpens.latency_ms),
                format!("{:.2}", row.chason.throughput_gflops),
                format!("{:.2}", row.serpens.throughput_gflops),
                format!("{:.3}", row.chason.energy_efficiency),
                format!("{:.3}", row.serpens.energy_efficiency),
                format!("{:.2}x", row.energy_improvement),
            ]
        })
        .collect();
    let mut out = String::from(
        "Table 3 — detailed performance, Chason (C) vs Serpens (S)\n\
         (paper: chason ~0.33 GFLOPS/W vs serpens ~0.16, i.e. ~2x energy efficiency)\n\n",
    );
    out.push_str(&crate::util::format_table(
        &[
            "ID",
            "lat C (ms)",
            "lat S (ms)",
            "GFLOPS C",
            "GFLOPS S",
            "GF/W C",
            "GF/W S",
            "energy gain",
        ],
        &rows,
    ));
    let mean_c: f64 = r
        .rows
        .iter()
        .map(|x| x.chason.energy_efficiency)
        .sum::<f64>()
        / r.rows.len().max(1) as f64;
    let mean_s: f64 = r
        .rows
        .iter()
        .map(|x| x.serpens.energy_efficiency)
        .sum::<f64>()
        / r.rows.len().max(1) as f64;
    out.push_str(&format!(
        "\nmean energy efficiency: chason {mean_c:.3} GFLOPS/W, serpens {mean_s:.3} GFLOPS/W\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chason_dominates_on_catalog_prefix() {
        let r = run(2);
        for row in &r.rows {
            assert!(
                row.chason.latency_ms < row.serpens.latency_ms,
                "{}",
                row.name
            );
            assert!(row.chason.throughput_gflops > row.serpens.throughput_gflops);
            assert!(row.energy_improvement > 1.0);
        }
    }

    #[test]
    fn bandwidth_improvement_tracks_throughput_ratio() {
        let r = run(1);
        let row = &r.rows[0];
        let expected = row.chason.throughput_gflops / row.serpens.throughput_gflops;
        assert!((row.bandwidth_improvement - expected).abs() < 1e-9);
    }

    #[test]
    fn report_has_one_line_per_matrix() {
        let r = run(2);
        let s = report(&r);
        assert!(s.contains("DY"));
        assert!(s.contains("RE"));
    }
}
