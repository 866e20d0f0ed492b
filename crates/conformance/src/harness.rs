//! The differential harness: one corpus case through every execution path.
//!
//! Paths compared, per case:
//!
//! | path | oracle vs. |
//! |------|------------|
//! | `reference::spmv` (COO, serial) | — (the oracle) |
//! | `reference::spmv_csr` (CSR, serial) | ULP vs. oracle |
//! | Serpens `Accelerator::run` | ULP vs. oracle |
//! | Serpens `Accelerator::run_planned` | bit-identical vs. direct |
//! | Chasoň `Accelerator::run` | ULP vs. oracle |
//! | Chasoň `Accelerator::run_planned` (twice) | bit-identical vs. direct, idempotent |
//!
//! plus the metamorphic cycle-report invariants: Chasoň never slower than
//! Serpens (latency, stream cycles, streamed bytes), plan↔execution cycle
//! conservation, and thread-count-independent planning.

use crate::corpus::CorpusCase;
use crate::ulp::{compare, row_scales, UlpTolerance};
use chason_baselines::reference;
use chason_core::schedule::SchedulerConfig;
use chason_sim::{Accelerator, AcceleratorConfig, Execution};
use chason_sparse::{CooMatrix, CsrMatrix};

/// Options controlling a harness run.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Scheduler geometry both engines run under.
    pub sched: SchedulerConfig,
    /// Numeric tolerance for engine-vs-reference comparisons.
    pub tol: UlpTolerance,
    /// Thread counts exercised by the parallel window planner.
    pub thread_counts: Vec<usize>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            sched: SchedulerConfig::paper(),
            tol: UlpTolerance::default(),
            thread_counts: vec![1, 2, 5],
        }
    }
}

/// One oracle violation found by the harness.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Corpus case the violation occurred on.
    pub case: String,
    /// Oracle kind (`"numeric"`, `"metamorphic"`, or `"execution"`).
    pub oracle: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.oracle, self.case, self.detail)
    }
}

/// The result of one case: the engine executions (for golden traces) and
/// every violation found.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Case name.
    pub name: String,
    /// Execution paths compared.
    pub paths: usize,
    /// Chasoň execution (when it ran).
    pub chason: Option<Execution>,
    /// Serpens execution (when it ran).
    pub serpens: Option<Execution>,
    /// Violations found across all oracles.
    pub violations: Vec<Violation>,
}

/// The deterministic probe vector fed to every path: signed, irrational
/// spacing, no zeros — exercises cancellation without being adversarial.
pub fn probe_vector(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let v = ((i as f32) * 0.37).sin() * 4.0;
            if v == 0.0 {
                0.5
            } else {
                v
            }
        })
        .collect()
}

fn push(violations: &mut Vec<Violation>, case: &str, oracle: &'static str, detail: String) {
    violations.push(Violation {
        case: case.to_string(),
        oracle,
        detail,
    });
}

/// Runs one corpus case through every execution path and every oracle.
pub fn run_case(case: &CorpusCase, options: &HarnessOptions) -> CaseOutcome {
    let m = &case.matrix;
    let name = &case.name;
    let x = probe_vector(m.cols());
    let mut violations = Vec::new();
    let mut paths = 1usize; // the COO reference itself

    // --- CPU paths -------------------------------------------------------
    let oracle = reference::spmv(m, &x);
    let scales = row_scales(m, &x);
    let csr = CsrMatrix::from(m);
    let csr_serial = reference::spmv_csr(&csr, &x);
    paths += 1;
    for (i, w, g) in compare(&oracle, &csr_serial, &scales, &options.tol) {
        push(
            &mut violations,
            name,
            "numeric",
            format!("CSR serial row {i}: reference {w:e} vs {g:e}"),
        );
    }

    // --- Engine paths ----------------------------------------------------
    let chason_engine = Accelerator::new(AcceleratorConfig {
        sched: options.sched,
        ..AcceleratorConfig::chason()
    });
    let serpens_engine = Accelerator::new(AcceleratorConfig {
        sched: options.sched,
        ..AcceleratorConfig::serpens()
    });

    let chason = run_engine_paths(
        name,
        "chason",
        &chason_engine,
        m,
        &x,
        &oracle,
        &scales,
        options,
        &mut paths,
        &mut violations,
    );
    let serpens = run_engine_paths(
        name,
        "serpens",
        &serpens_engine,
        m,
        &x,
        &oracle,
        &scales,
        options,
        &mut paths,
        &mut violations,
    );

    // --- Cross-engine metamorphic invariants (§4/Fig. 5) -----------------
    if let (Some(ce), Some(se)) = (&chason, &serpens) {
        if ce.latency_seconds() > se.latency_seconds() {
            push(
                &mut violations,
                name,
                "metamorphic",
                format!(
                    "Chasoň latency {:.3e}s exceeds Serpens {:.3e}s",
                    ce.latency_seconds(),
                    se.latency_seconds()
                ),
            );
        }
        if ce.cycles.stream > se.cycles.stream {
            push(
                &mut violations,
                name,
                "metamorphic",
                format!(
                    "Chasoň stream cycles {} exceed Serpens {}",
                    ce.cycles.stream, se.cycles.stream
                ),
            );
        }
        if ce.bytes_streamed > se.bytes_streamed {
            push(
                &mut violations,
                name,
                "metamorphic",
                format!(
                    "Chasoň streams {} bytes, more than Serpens' {}",
                    ce.bytes_streamed, se.bytes_streamed
                ),
            );
        }
    }

    CaseOutcome {
        name: name.clone(),
        paths,
        chason,
        serpens,
        violations,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_engine_paths(
    case: &str,
    engine_name: &str,
    engine: &Accelerator,
    m: &CooMatrix,
    x: &[f32],
    oracle: &[f32],
    scales: &[f32],
    options: &HarnessOptions,
    paths: &mut usize,
    violations: &mut Vec<Violation>,
) -> Option<Execution> {
    // Direct execution + numeric oracle.
    *paths += 1;
    let direct = match engine.run(m, x) {
        Ok(e) => e,
        Err(e) => {
            push(
                violations,
                case,
                "execution",
                format!("{engine_name} direct run failed: {e}"),
            );
            return None;
        }
    };
    for (i, w, g) in compare(oracle, &direct.y, scales, &options.tol) {
        push(
            violations,
            case,
            "numeric",
            format!("{engine_name} row {i}: reference {w:e} vs {g:e}"),
        );
    }

    // Planning: serial is the baseline; every thread count must agree.
    let plan = match engine.plan_with_threads(m, 1) {
        Ok(p) => p,
        Err(e) => {
            push(
                violations,
                case,
                "execution",
                format!("{engine_name} planning failed: {e}"),
            );
            return Some(direct);
        }
    };
    for &threads in &options.thread_counts {
        if threads <= 1 {
            continue;
        }
        match engine.plan_with_threads(m, threads) {
            Ok(p) if p == plan => {}
            Ok(_) => push(
                violations,
                case,
                "metamorphic",
                format!("{engine_name} plan differs between 1 and {threads} planning threads"),
            ),
            Err(e) => push(
                violations,
                case,
                "execution",
                format!("{engine_name} planning with {threads} threads failed: {e}"),
            ),
        }
    }

    // Plan ↔ execution cycle conservation.
    if direct.stalls != plan.stalls() {
        push(
            violations,
            case,
            "metamorphic",
            format!(
                "{engine_name} executed {} stalls but the plan schedules {}",
                direct.stalls,
                plan.stalls()
            ),
        );
    }
    if direct.windows != plan.window_count() {
        push(
            violations,
            case,
            "metamorphic",
            format!(
                "{engine_name} executed {} windows but the plan holds {}",
                direct.windows,
                plan.window_count()
            ),
        );
    }
    if direct.mac_ops as usize != m.nnz() {
        push(
            violations,
            case,
            "metamorphic",
            format!(
                "{engine_name} performed {} MACs for {} non-zeros",
                direct.mac_ops,
                m.nnz()
            ),
        );
    }
    let ii = chason_sim::STREAM_II;
    let expected_stream: u64 = plan
        .passes
        .iter()
        .flat_map(|p| p.windows.iter())
        .map(|w| (w.stream_cycles as f64 * ii).ceil() as u64)
        .sum();
    if direct.cycles.stream != expected_stream {
        push(
            violations,
            case,
            "metamorphic",
            format!(
                "{engine_name} stream cycles {} != Σ ceil(window · II) = {expected_stream}",
                direct.cycles.stream
            ),
        );
    }

    // Planned replay: bit-identical to direct, and idempotent.
    *paths += 1;
    match (engine.run_planned(&plan, x), engine.run_planned(&plan, x)) {
        (Ok(first), Ok(second)) => {
            if first != direct {
                push(
                    violations,
                    case,
                    "metamorphic",
                    format!("{engine_name} planned replay diverges from direct execution"),
                );
            }
            if first != second {
                push(
                    violations,
                    case,
                    "metamorphic",
                    format!("{engine_name} planned replay is not idempotent"),
                );
            }
        }
        (Err(e), _) | (_, Err(e)) => push(
            violations,
            case,
            "execution",
            format!("{engine_name} planned replay failed: {e}"),
        ),
    }

    Some(direct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{corpus, CorpusSize};

    #[test]
    fn probe_vector_is_deterministic_and_zero_free() {
        let a = probe_vector(64);
        assert_eq!(a, probe_vector(64));
        assert!(a.iter().all(|&v| v != 0.0));
    }

    /// A single small case runs clean end to end under a toy geometry.
    #[test]
    fn one_case_passes_all_oracles() {
        let case = &corpus(CorpusSize::Small)[0];
        let options = HarnessOptions {
            sched: chason_core::schedule::SchedulerConfig::toy(4, 4, 6),
            ..HarnessOptions::default()
        };
        let outcome = run_case(case, &options);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(outcome.paths, 6);
        assert!(outcome.chason.is_some() && outcome.serpens.is_some());
    }
}
