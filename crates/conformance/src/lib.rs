//! `chason-conformance`: the differential testing harness.
//!
//! PR 2's `chason-verify` is a *static* checker: it proves a schedule obeys
//! the wire-format and scheduling rules without running it. This crate is
//! the *dynamic* half — it actually executes every path the workspace
//! offers for computing `y = A·x` and cross-checks them against each other
//! with three oracle kinds:
//!
//! 1. **Numeric equivalence** ([`ulp`]): every engine's output must match
//!    the CPU reference within an explicit ULP tolerance (with a
//!    cancellation-aware absolute fallback, since FP32 reassociation is the
//!    only legitimate source of divergence).
//! 2. **Metamorphic cycle-report invariants** ([`harness`]): Chasoň's
//!    latency never exceeds Serpens' on the same matrix (CrHCS fills
//!    Serpens' stall slots — §4/Fig. 5), window cycle accounting is
//!    conserved between a plan and its execution, replaying a plan is
//!    idempotent, and planning is thread-count independent.
//! 3. **Golden snapshot traces** ([`golden`]): integer-only cycle traces
//!    committed under `tests/golden/`, byte-compared on every run and
//!    re-blessed with `UPDATE_GOLDEN=1`.
//!
//! On top sit two adversarial stages:
//!
//! * a deterministic schedule [`fuzz`](mod@fuzz)er that reuses the ten-corruption
//!   mutation library from `chason-verify` as fault injection: every
//!   injected corruption must be caught by the static checker or by a
//!   dynamic oracle, proving the two layers compose into a net with no
//!   holes; and
//! * the [`delta`] oracles for dynamic matrices: every spliced plan
//!   (`Accelerator::replan_delta`), across random insert/delete/revalue
//!   batches and drawn scheduler geometries, must be bit-identical to a
//!   from-scratch plan of the updated matrix, replay to the reference
//!   SpMV, conserve its cycle report, and pass `chason-verify`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod delta;
pub mod fuzz;
pub mod golden;
pub mod harness;
pub mod ulp;

pub use corpus::{corpus, load_fixtures, CorpusCase, CorpusSize};
pub use delta::{random_delta, run_delta_cases, DeltaKind, DeltaOptions, DeltaReport, SplitMix64};
pub use fuzz::{fuzz, CaughtBy, FuzzOutcome};
pub use harness::{run_case, CaseOutcome, HarnessOptions, Violation};
pub use ulp::UlpTolerance;

/// The aggregate result of running the differential harness over a corpus.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// Cases executed.
    pub cases: usize,
    /// Execution paths compared across all cases.
    pub paths: usize,
    /// Every violation found, in corpus order.
    pub violations: Vec<Violation>,
}

impl ConformanceReport {
    /// True when every case passed every oracle.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "conformance: {} case(s), {} path comparison(s), {} violation(s)",
            self.cases,
            self.paths,
            self.violations.len()
        )
    }
}

/// Runs the full differential harness over the given corpus size.
///
/// This is the library entry behind `chason conformance`: build the seeded
/// corpus, run every case through every execution path, and collect all
/// oracle violations.
pub fn run_corpus(size: CorpusSize, options: &HarnessOptions) -> ConformanceReport {
    run_cases(&corpus(size), options)
}

/// Runs the differential harness over an explicit case list (the corpus,
/// `.mtx` fixtures, or both).
pub fn run_cases(cases: &[CorpusCase], options: &HarnessOptions) -> ConformanceReport {
    let mut report = ConformanceReport::default();
    for case in cases {
        let outcome = run_case(case, options);
        report.cases += 1;
        report.paths += outcome.paths;
        report.violations.extend(outcome.violations);
    }
    report
}
