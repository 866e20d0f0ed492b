//! Fig. 12 — per-PEG underutilization distributions for the 20 Table 2
//! matrices, Chasoň vs Serpens.
//!
//! Paper reading: Serpens' per-PEG underutilization concentrates high
//! (80–100% for most of these matrices); Chasoň's curves shift left and
//! widen, showing the stalls being rebalanced across PEGs.

use chason_core::metrics::windowed_metrics_pe_aware_and_crhcs;
use chason_core::schedule::SchedulerConfig;
use chason_sparse::datasets::table2;
use serde::{Deserialize, Serialize};

/// Per-matrix, per-scheduler PEG underutilization vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixPegs {
    /// Dataset ID (Table 2).
    pub id: String,
    /// Dataset name.
    pub name: String,
    /// Serpens per-PEG underutilization % (16 entries).
    pub serpens_pct: Vec<f64>,
    /// Chasoň per-PEG underutilization % (16 entries).
    pub chason_pct: Vec<f64>,
}

impl MatrixPegs {
    /// `(min, mean, max)` of a PEG vector.
    pub fn summary(values: &[f64]) -> (f64, f64, f64) {
        if values.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        (min, mean, max)
    }
}

/// Result of the Fig. 12 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12Result {
    /// One entry per Table 2 matrix, in paper order.
    pub matrices: Vec<MatrixPegs>,
}

/// Computes per-PEG underutilization for `limit` Table 2 matrices (pass 20
/// for the full figure; tests use fewer).
pub fn run(limit: usize) -> Fig12Result {
    let config = SchedulerConfig::paper();
    let window = chason_core::element::WINDOW;
    let matrices = table2()
        .into_iter()
        .take(limit)
        .map(|spec| {
            let (s, c) = windowed_metrics_pe_aware_and_crhcs(&spec.generate(), &config, window);
            MatrixPegs {
                id: spec.id.to_string(),
                name: spec.name.to_string(),
                serpens_pct: s.per_peg_underutilization_pct(),
                chason_pct: c.per_peg_underutilization_pct(),
            }
        })
        .collect();
    Fig12Result { matrices }
}

/// Renders min/mean/max per matrix.
pub fn report(r: &Fig12Result) -> String {
    let rows: Vec<Vec<String>> = r
        .matrices
        .iter()
        .map(|m| {
            let (smin, smean, smax) = MatrixPegs::summary(&m.serpens_pct);
            let (cmin, cmean, cmax) = MatrixPegs::summary(&m.chason_pct);
            vec![
                format!("{} {}", m.id, m.name),
                format!("{smin:.0}/{smean:.0}/{smax:.0}"),
                format!("{cmin:.0}/{cmean:.0}/{cmax:.0}"),
            ]
        })
        .collect();
    let mut out = String::from(
        "Fig. 12 — per-PEG underutilization %% (min/mean/max over 16 PEGs)\n\
         (paper: serpens concentrates at 80-100%; chason shifts left)\n\n",
    );
    out.push_str(&crate::util::format_table(
        &["dataset", "serpens", "chason"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chason_means_are_lower() {
        let r = run(3);
        for m in &r.matrices {
            let (_, smean, _) = MatrixPegs::summary(&m.serpens_pct);
            let (_, cmean, _) = MatrixPegs::summary(&m.chason_pct);
            assert!(
                cmean <= smean + 1e-9,
                "{}: chason mean {cmean} vs serpens {smean}",
                m.name
            );
        }
    }

    #[test]
    fn sixteen_pegs_per_matrix() {
        let r = run(2);
        for m in &r.matrices {
            assert_eq!(m.serpens_pct.len(), 16);
            assert_eq!(m.chason_pct.len(), 16);
        }
    }

    #[test]
    fn summary_math() {
        let (min, mean, max) = MatrixPegs::summary(&[10.0, 20.0, 30.0]);
        assert_eq!((min, mean, max), (10.0, 20.0, 30.0));
        assert_eq!(MatrixPegs::summary(&[]), (0.0, 0.0, 0.0));
    }
}
