//! Fig. 11 — PE underutilization of Chasoň vs Serpens over the corpus.
//!
//! Paper targets: Serpens' most likely underutilization ≈69% with range
//! 19–96%; Chasoň's distribution shifts to ≈30% with range 5–66% and most
//! matrices below 50%.

use chason_core::metrics::windowed_metrics_pe_aware_and_crhcs;
use chason_core::schedule::SchedulerConfig;
use chason_sparse::datasets::corpus;
use chason_sparse::stats::{histogram, histogram_to_pdf};
use serde::{Deserialize, Serialize};

/// Distribution summary for one scheduler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Distribution {
    /// Scheduler name.
    pub name: String,
    /// Per-matrix underutilization percentages.
    pub values_pct: Vec<f64>,
    /// PDF over 20 bins spanning 0..100%.
    pub pdf: Vec<f64>,
    /// Minimum observed percentage.
    pub min_pct: f64,
    /// Maximum observed percentage.
    pub max_pct: f64,
    /// Median percentage.
    pub median_pct: f64,
    /// Centre of the most likely bin.
    pub mode_pct: f64,
}

impl Distribution {
    /// Builds the summary from raw percentages.
    pub fn from_values(name: &str, mut values: Vec<f64>) -> Self {
        let counts = histogram(&values, 0.0, 100.0, 20);
        let pdf = histogram_to_pdf(&counts, 0.0, 100.0);
        let mode_bin = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        #[allow(clippy::expect_used)] // simulated latencies are finite
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = if values.is_empty() {
            0.0
        } else {
            values[values.len() / 2]
        };
        Distribution {
            name: name.to_string(),
            min_pct: values.first().copied().unwrap_or(0.0),
            max_pct: values.last().copied().unwrap_or(0.0),
            median_pct: median,
            mode_pct: (mode_bin as f64 + 0.5) * 5.0,
            pdf,
            values_pct: values,
        }
    }
}

/// Result of the Fig. 11 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Result {
    /// Matrices evaluated.
    pub matrices: usize,
    /// Serpens (PE-aware) distribution.
    pub serpens: Distribution,
    /// Chasoň (CrHCS) distribution.
    pub chason: Distribution,
}

/// Runs both schedulers over `count` corpus matrices.
pub fn run(count: usize, seed: u64) -> Fig11Result {
    run_specs(&corpus(count, seed))
}

/// Runs both schedulers over an explicit spec list (tests use a filtered,
/// smaller population).
pub fn run_specs(specs: &[chason_sparse::datasets::CorpusSpec]) -> Fig11Result {
    let config = SchedulerConfig::paper();
    let window = chason_core::element::WINDOW;
    let mut serpens = Vec::with_capacity(specs.len());
    let mut chason = Vec::with_capacity(specs.len());
    for spec in specs {
        let (s, c) = windowed_metrics_pe_aware_and_crhcs(&spec.generate(), &config, window);
        serpens.push(s.underutilization_pct());
        chason.push(c.underutilization_pct());
    }
    Fig11Result {
        matrices: specs.len(),
        serpens: Distribution::from_values("serpens (pe-aware)", serpens),
        chason: Distribution::from_values("chason (crhcs)", chason),
    }
}

/// Renders both PDFs and the range summary.
pub fn report(r: &Fig11Result) -> String {
    let mut out = format!(
        "Fig. 11 — PE underutilization over {} matrices (lower is better)\n\
         (paper: serpens mode ~69%, range 19-96%; chason ~30%, range 5-66%)\n",
        r.matrices
    );
    for d in [&r.serpens, &r.chason] {
        out.push_str(&format!(
            "\n{}: mode {:.0}%  median {:.1}%  range {:.1}%..{:.1}%\n",
            d.name, d.mode_pct, d.median_pct, d.min_pct, d.max_pct
        ));
        out.push_str(&crate::util::render_pdf(0.0, 100.0, &d.pdf));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_specs(count: usize, seed: u64) -> Vec<chason_sparse::datasets::CorpusSpec> {
        corpus(count, seed)
            .into_iter()
            .filter(|s| s.nnz <= 60_000)
            .collect()
    }

    #[test]
    fn chason_distribution_sits_left_of_serpens() {
        let r = run_specs(&small_specs(12, 3));
        assert!(
            r.chason.median_pct < r.serpens.median_pct,
            "chason median {} vs serpens {}",
            r.chason.median_pct,
            r.serpens.median_pct
        );
        assert!(r.chason.max_pct <= r.serpens.max_pct + 1e-9);
    }

    #[test]
    fn per_matrix_improvement_never_regresses() {
        let config = SchedulerConfig::paper();
        let window = chason_core::element::WINDOW;
        for spec in small_specs(6, 5) {
            let (s, c) = windowed_metrics_pe_aware_and_crhcs(&spec.generate(), &config, window);
            let (s, c) = (s.underutilization_pct(), c.underutilization_pct());
            assert!(
                c <= s + 1e-9,
                "matrix {}: chason {c} vs serpens {s}",
                spec.index
            );
        }
    }

    #[test]
    fn distribution_summary_statistics() {
        let d = Distribution::from_values("x", vec![10.0, 20.0, 30.0, 90.0]);
        assert_eq!(d.min_pct, 10.0);
        assert_eq!(d.max_pct, 90.0);
        assert_eq!(d.median_pct, 30.0);
    }
}
