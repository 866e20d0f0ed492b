//! Fig. 15 — speedup and data-transfer reduction over Serpens for the
//! Table 2 matrices.
//!
//! Paper targets: geometric-mean latency speedup ≈6.1× (SuiteSparse) and
//! ≈4.1× (SNAP), peak 8.4×; data-transfer reduction ≈7× on average for
//! both collections.

use chason_core::metrics::geometric_mean;
use chason_sim::{Accelerator, AcceleratorConfig};
use chason_sparse::datasets::{table2, Collection};
use serde::{Deserialize, Serialize};

/// Per-matrix comparison row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig15Row {
    /// Dataset ID.
    pub id: String,
    /// Dataset name.
    pub name: String,
    /// Source collection.
    pub collection: String,
    /// Latency speedup of Chasoň over Serpens.
    pub speedup: f64,
    /// Data-transfer reduction (Serpens bytes / Chasoň bytes).
    pub transfer_reduction: f64,
}

/// Result of the Fig. 15 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig15Result {
    /// Per-matrix rows in paper order.
    pub rows: Vec<Fig15Row>,
    /// Geomean speedup over the SuiteSparse half.
    pub geomean_speedup_suitesparse: f64,
    /// Geomean speedup over the SNAP half.
    pub geomean_speedup_snap: f64,
    /// Geomean transfer reduction over the SuiteSparse half.
    pub geomean_transfer_suitesparse: f64,
    /// Geomean transfer reduction over the SNAP half.
    pub geomean_transfer_snap: f64,
    /// Peak speedup across all matrices.
    pub peak_speedup: f64,
}

/// Runs both engines over `limit` Table 2 matrices (20 = the full figure).
pub fn run(limit: usize) -> Fig15Result {
    let chason = Accelerator::new(AcceleratorConfig::chason());
    let serpens = Accelerator::new(AcceleratorConfig::serpens());
    let mut rows = Vec::new();
    for spec in table2().into_iter().take(limit) {
        let matrix = spec.generate();
        let x = vec![1.0f32; matrix.cols()];
        let ce = chason.run(&matrix, &x);
        #[allow(clippy::expect_used)] // catalog matrices fit the accelerator
        let ce = ce.expect("catalog matrices fit the accelerator");
        let se = serpens.run(&matrix, &x);
        #[allow(clippy::expect_used)] // catalog matrices fit the accelerator
        let se = se.expect("catalog matrices fit the accelerator");
        rows.push(Fig15Row {
            id: spec.id.to_string(),
            name: spec.name.to_string(),
            collection: spec.collection.to_string(),
            speedup: se.latency_seconds() / ce.latency_seconds(),
            transfer_reduction: se.bytes_streamed as f64 / ce.bytes_streamed.max(1) as f64,
        });
    }
    summarize(rows)
}

/// Aggregates per-matrix rows into the figure's summary statistics.
pub fn summarize(rows: Vec<Fig15Row>) -> Fig15Result {
    let of = |collection: &str, f: fn(&Fig15Row) -> f64| -> Vec<f64> {
        rows.iter()
            .filter(|r| r.collection == collection)
            .map(f)
            .collect()
    };
    let ss = Collection::SuiteSparse.to_string();
    let snap = Collection::Snap.to_string();
    Fig15Result {
        geomean_speedup_suitesparse: geometric_mean(&of(&ss, |r| r.speedup)),
        geomean_speedup_snap: geometric_mean(&of(&snap, |r| r.speedup)),
        geomean_transfer_suitesparse: geometric_mean(&of(&ss, |r| r.transfer_reduction)),
        geomean_transfer_snap: geometric_mean(&of(&snap, |r| r.transfer_reduction)),
        peak_speedup: rows.iter().map(|r| r.speedup).fold(0.0, f64::max),
        rows,
    }
}

/// Renders the per-matrix table and the geomeans.
pub fn report(r: &Fig15Result) -> String {
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                format!("{} {}", row.id, row.name),
                row.collection.clone(),
                format!("{:.2}x", row.speedup),
                format!("{:.2}x", row.transfer_reduction),
            ]
        })
        .collect();
    let mut out = String::from(
        "Fig. 15 — Chason vs Serpens on the Table 2 matrices\n\
         (paper: geomean speedup 6.1x SuiteSparse / 4.1x SNAP, peak 8.4x;\n\
          transfer reduction ~7x average)\n\n",
    );
    out.push_str(&crate::util::format_table(
        &["dataset", "collection", "speedup", "transfers"],
        &rows,
    ));
    out.push_str(&format!(
        "\ngeomean speedup: SuiteSparse {:.2}x, SNAP {:.2}x (peak {:.2}x)\n\
         geomean transfer reduction: SuiteSparse {:.2}x, SNAP {:.2}x\n",
        r.geomean_speedup_suitesparse,
        r.geomean_speedup_snap,
        r.peak_speedup,
        r.geomean_transfer_suitesparse,
        r.geomean_transfer_snap,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chason_wins_on_the_catalog_prefix() {
        let r = run(3);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert!(row.speedup > 1.0, "{}: speedup {}", row.name, row.speedup);
            assert!(row.transfer_reduction >= 1.0);
        }
    }

    #[test]
    fn summarize_splits_by_collection() {
        let rows = vec![
            Fig15Row {
                id: "A".into(),
                name: "a".into(),
                collection: "SuiteSparse".into(),
                speedup: 4.0,
                transfer_reduction: 8.0,
            },
            Fig15Row {
                id: "B".into(),
                name: "b".into(),
                collection: "SNAP".into(),
                speedup: 2.0,
                transfer_reduction: 3.0,
            },
        ];
        let r = summarize(rows);
        assert!((r.geomean_speedup_suitesparse - 4.0).abs() < 1e-12);
        assert!((r.geomean_speedup_snap - 2.0).abs() < 1e-12);
        assert!((r.peak_speedup - 4.0).abs() < 1e-12);
    }
}
