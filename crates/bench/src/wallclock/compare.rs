//! Regression comparator: current run vs committed baseline.
//!
//! A benchmark is flagged as a regression when its median ns/iter exceeds
//! the baseline's by more than the relative threshold AND the absolute
//! slowdown clears a noise guard of three combined MADs (capped at half
//! the baseline median) — a run that is 25% "slower" inside measurement
//! noise is not a regression, and a genuine 2× slowdown always clears
//! both gates regardless of noise. Benchmarks present in the
//! baseline but missing from the current run are reported separately so a
//! silently dropped benchmark cannot pass CI. A row whose `-tN` id suffix
//! asks for more threads than the current run's host has CPUs is
//! reported as ungated instead: its threads time-share the cores, so its
//! time says nothing about the code. Its input fingerprint is still
//! checked.

use super::report::BenchReport;

/// One benchmark's baseline-vs-current delta.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Benchmark id.
    pub id: String,
    /// Baseline median ns/iter.
    pub baseline_ns: f64,
    /// Current median ns/iter.
    pub current_ns: f64,
    /// `current / baseline` (1.0 = unchanged, 2.0 = twice as slow).
    pub ratio: f64,
    /// Whether the two runs measured the same input.
    pub fingerprint_match: bool,
    /// Whether this delta is a flagged regression (never for an ungated
    /// row).
    pub regressed: bool,
    /// Whether the row runs more threads than the current host has CPUs,
    /// so its time is not gated.
    pub ungated: bool,
}

/// The comparator's verdict over two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Relative threshold used (0.2 = flag beyond +20%).
    pub threshold: f64,
    /// Per-benchmark deltas for ids present in both reports.
    pub deltas: Vec<Delta>,
    /// Ids in the baseline but not the current run.
    pub missing: Vec<String>,
    /// Ids in the current run but not the baseline (informational).
    pub added: Vec<String>,
    /// CPUs of the current run's host.
    pub cpus: u64,
}

impl Comparison {
    /// Whether the comparison should fail a gate: any flagged regression,
    /// any dropped benchmark, or any fingerprint mismatch, ungated rows
    /// included.
    pub fn is_failure(&self) -> bool {
        !self.missing.is_empty()
            || self
                .deltas
                .iter()
                .any(|d| d.regressed || !d.fingerprint_match)
    }

    /// Flagged regressions only.
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.regressed)
    }

    /// Renders the verdict as an aligned human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>14} {:>14} {:>8}  verdict\n",
            "benchmark", "baseline ns", "current ns", "ratio"
        ));
        for d in &self.deltas {
            let verdict = if !d.fingerprint_match {
                "FINGERPRINT MISMATCH".to_string()
            } else if d.ungated {
                let threads = threads_of(&d.id).unwrap_or_default();
                format!("ungated ({threads} threads > {} cpus)", self.cpus)
            } else if d.regressed {
                "REGRESSION".to_string()
            } else if d.ratio < 1.0 - self.threshold {
                "improved".to_string()
            } else {
                "ok".to_string()
            };
            out.push_str(&format!(
                "{:<22} {:>14.1} {:>14.1} {:>8.3}  {verdict}\n",
                d.id, d.baseline_ns, d.current_ns, d.ratio
            ));
        }
        for id in &self.missing {
            out.push_str(&format!("{id:<22} missing from current run: FAIL\n"));
        }
        for id in &self.added {
            out.push_str(&format!("{id:<22} new benchmark (no baseline)\n"));
        }
        let n_reg = self.regressions().count();
        out.push_str(&format!(
            "{} compared, {} regression(s) beyond +{:.0}%, {} missing, {} new\n",
            self.deltas.len(),
            n_reg,
            self.threshold * 100.0,
            self.missing.len(),
            self.added.len()
        ));
        out
    }
}

/// The thread count a benchmark id's `-tN` suffix names
/// (`plan/chason-t4` → 4), if it has one.
fn threads_of(id: &str) -> Option<u64> {
    id.rsplit_once("-t")?.1.parse().ok()
}

/// Compares `current` against `baseline` with a relative `threshold`
/// (0.2 = flag anything more than 20% slower, subject to the noise
/// guard). Rows asking for more threads than `current.host.cpus` are
/// ungated.
pub fn compare(baseline: &BenchReport, current: &BenchReport, threshold: f64) -> Comparison {
    let cpus = current.host.cpus;
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for b in &baseline.results {
        let Some(c) = current.get(&b.id) else {
            missing.push(b.id.clone());
            continue;
        };
        let ratio = if b.median_ns_per_iter > 0.0 {
            c.median_ns_per_iter / b.median_ns_per_iter
        } else {
            f64::INFINITY
        };
        // Three combined MADs of slack, but never more than half the
        // baseline itself: a ≥1.5× slowdown is flagged no matter how
        // noisy the samples were.
        let noise_guard =
            (3.0 * (b.mad_ns_per_iter + c.mad_ns_per_iter)).min(0.5 * b.median_ns_per_iter);
        let slowdown = c.median_ns_per_iter - b.median_ns_per_iter;
        let ungated = threads_of(&b.id).is_some_and(|threads| threads > cpus);
        let regressed = !ungated && ratio > 1.0 + threshold && slowdown > noise_guard;
        deltas.push(Delta {
            id: b.id.clone(),
            baseline_ns: b.median_ns_per_iter,
            current_ns: c.median_ns_per_iter,
            ratio,
            fingerprint_match: b.fingerprint == c.fingerprint,
            regressed,
            ungated,
        });
    }
    let added = current
        .results
        .iter()
        .filter(|c| baseline.get(&c.id).is_none())
        .map(|c| c.id.clone())
        .collect();
    Comparison {
        threshold,
        deltas,
        missing,
        added,
        cpus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wallclock::report::{BenchResult, HostInfo, SCHEMA_VERSION};

    fn report_with(results: Vec<BenchResult>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            name: "test".to_string(),
            profile: "smoke".to_string(),
            host: HostInfo {
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
                cpus: 4,
            },
            results,
        }
    }

    fn result(id: &str, median: f64, mad: f64) -> BenchResult {
        BenchResult {
            id: id.to_string(),
            fingerprint: 99,
            warmup_iters: 1,
            samples: 8,
            iters_per_sample: 10,
            median_ns_per_iter: median,
            mad_ns_per_iter: mad,
            bytes_per_iter: 0,
        }
    }

    #[test]
    fn detects_a_2x_slowdown() {
        let baseline = report_with(vec![result("spmv/static-t1", 1000.0, 5.0)]);
        let current = report_with(vec![result("spmv/static-t1", 2000.0, 5.0)]);
        let cmp = compare(&baseline, &current, 0.2);
        assert!(cmp.is_failure());
        let d = &cmp.deltas[0];
        assert!(d.regressed);
        assert!((d.ratio - 2.0).abs() < 1e-12);
        assert!(cmp.render().contains("REGRESSION"), "{}", cmp.render());
    }

    #[test]
    fn noise_inside_the_guard_is_not_a_regression() {
        // +30% relative but within 3 combined MADs: not flagged.
        let baseline = report_with(vec![result("chsp/reply-vector", 100.0, 20.0)]);
        let current = report_with(vec![result("chsp/reply-vector", 130.0, 20.0)]);
        let cmp = compare(&baseline, &current, 0.2);
        assert!(!cmp.is_failure());
        assert!(!cmp.deltas[0].regressed);
    }

    #[test]
    fn small_shifts_under_the_threshold_pass() {
        let baseline = report_with(vec![result("plan/chason-t1", 1000.0, 1.0)]);
        let current = report_with(vec![result("plan/chason-t1", 1100.0, 1.0)]);
        let cmp = compare(&baseline, &current, 0.2);
        assert!(!cmp.is_failure());
    }

    #[test]
    fn dropped_benchmarks_fail_and_new_ones_inform() {
        let baseline = report_with(vec![
            result("spmv/static-t1", 1000.0, 5.0),
            result("spmv/static-t2", 600.0, 5.0),
        ]);
        let current = report_with(vec![
            result("spmv/static-t1", 1000.0, 5.0),
            result("replay/chason", 3000.0, 5.0),
        ]);
        let cmp = compare(&baseline, &current, 0.2);
        assert!(cmp.is_failure());
        assert_eq!(cmp.missing, vec!["spmv/static-t2".to_string()]);
        assert_eq!(cmp.added, vec!["replay/chason".to_string()]);
    }

    #[test]
    fn rows_with_more_threads_than_cpus_are_ungated_not_passed() {
        let rows = |scale: f64| {
            vec![
                result("spmv/static-t4", 1000.0 * scale, 5.0),
                result("plan/chason-from-serpens-t1", 1000.0 * scale, 5.0),
                result("replay/chason", 1000.0, 5.0),
            ]
        };
        let baseline = report_with(rows(1.0));
        let mut current = report_with(rows(3.0));
        current.host.cpus = 2;
        let cmp = compare(&baseline, &current, 0.2);
        assert_eq!(threads_of("spmv/static-t4"), Some(4));
        assert_eq!(threads_of("replay/chason"), None);
        let t4 = &cmp.deltas[0];
        assert!(t4.ungated && !t4.regressed, "{t4:?}");
        let t1 = &cmp.deltas[1];
        assert!(!t1.ungated && t1.regressed, "a 1-thread row stays gated");
        assert!(cmp.is_failure());
        let table = cmp.render();
        assert!(table.contains("ungated (4 threads > 2 cpus)"), "{table}");

        // Without the gated regression the ungated slowdown passes, but a
        // fingerprint mismatch on the ungated row still fails.
        current.results[1].median_ns_per_iter = 1000.0;
        assert!(!compare(&baseline, &current, 0.2).is_failure());
        current.results[0].fingerprint = 7;
        let cmp = compare(&baseline, &current, 0.2);
        assert!(cmp.is_failure());
        assert!(cmp.render().contains("FINGERPRINT MISMATCH"));
        // A missing ungated row fails too.
        current.results.remove(0);
        assert!(compare(&baseline, &current, 0.2).is_failure());
    }

    #[test]
    fn fingerprint_mismatch_is_a_failure() {
        let baseline = report_with(vec![result("spmv/static-t1", 1000.0, 5.0)]);
        let mut current = report_with(vec![result("spmv/static-t1", 1000.0, 5.0)]);
        current.results[0].fingerprint = 7;
        let cmp = compare(&baseline, &current, 0.2);
        assert!(cmp.is_failure());
        assert!(!cmp.deltas[0].fingerprint_match);
    }
}
