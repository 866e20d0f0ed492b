//! `chason-verify`: a rule-based static checker for schedules, plans, and
//! configurations.
//!
//! This crate is the one checker of the rules schedules, plans, and
//! configurations must uphold. It runs the full rule set over an artifact
//! and reports **all** violations as typed [`Diagnostic`]s with stable
//! [`RuleId`]s, severities, and source locations, rendered `rustc`-style.
//! It backs the `chason verify` CLI subcommand, the engines' debug-mode
//! pre-execution check, the schedulers' tests, and the mutation test
//! suite.
//!
//! | Entry point | Artifact | Rules |
//! |-------------|----------|-------|
//! | [`verify_config`] | [`SchedulerConfig`] | R001 (+ P001 on an invalid config) |
//! | [`verify_schedule`] | [`ScheduledMatrix`] | S001–S006, R001 (S002 needs the source matrix) |
//! | [`verify_scheduler_contract`] | [`ScheduledMatrix`] + source | S002, S003 |
//! | [`verify_pass`] | [`PassPlan`] | P001 + the schedule rules per window |
//! | [`verify_plan`] | [`SpmvPlan`] | P001 + everything above (+ global conservation with the source) |
//!
//! See [`RuleId`] for what each rule enforces and the paper section it
//! models.
//!
//! # Example
//!
//! ```
//! use chason_core::schedule::{PeAware, Scheduler, SchedulerConfig};
//! use chason_sparse::generators::uniform_random;
//! use chason_verify::{verify_schedule, RuleId};
//!
//! let m = uniform_random(32, 32, 120, 7);
//! let cfg = SchedulerConfig::toy(2, 4, 6);
//! let mut s = PeAware::new().schedule(&m, &cfg);
//! assert!(verify_schedule(&s, Some(&m)).is_clean());
//!
//! // Corrupt it: drop one scheduled non-zero.
//! chason_verify::mutate::Corruption::DropElement.apply(&mut s);
//! let report = verify_schedule(&s, Some(&m));
//! assert!(report.has_errors());
//! assert!(report.has_rule(RuleId::S002));
//! println!("{report}");
//! ```

mod diag;
pub mod mutate;
mod report;
mod rules;

pub use diag::{Location, RuleId, Severity};
pub use report::{Diagnostic, Report};

use chason_core::plan::{PassPlan, SpmvPlan};
use chason_core::schedule::{ScheduledMatrix, SchedulerConfig};
use chason_sparse::CooMatrix;

/// Checks a configuration against the device resource model (R001); an
/// outright invalid configuration is a single P001 error.
pub fn verify_config(config: &SchedulerConfig) -> Report {
    let mut report = Report::new();
    rules::check_config(config, &mut report);
    report.sort();
    report
}

/// Runs the full schedule rule set (S001–S006, R001) over one schedule.
///
/// Conservation (S002) needs the source matrix; pass `None` to verify an
/// artifact whose source is unavailable — every structural rule still runs.
pub fn verify_schedule(schedule: &ScheduledMatrix, source: Option<&CooMatrix>) -> Report {
    let mut report = Report::new();
    rules::check_config(&schedule.config, &mut report);
    rules::check_schedule(schedule, source, &mut report);
    report.sort();
    report
}

/// The findings of [`verify_schedule`] under the two rules every
/// [`Scheduler`](chason_core::schedule::Scheduler) promises on any input:
/// conservation (S002) and RAW distance within each destination PE (S003).
///
/// A schedule can keep this contract and still fail [`verify_schedule`]:
/// a whole-matrix schedule wider than one column window trips S001, which
/// planning avoids by windowing every matrix before it reaches hardware.
pub fn verify_scheduler_contract(schedule: &ScheduledMatrix, source: &CooMatrix) -> Report {
    let mut contract = Report::new();
    for d in verify_schedule(schedule, Some(source)).diagnostics() {
        if matches!(d.rule, RuleId::S002 | RuleId::S003) {
            contract.push(d.clone());
        }
    }
    contract
}

/// Verifies one row-partition pass of a plan: P001 coherence of the stored
/// stats and window bounds, plus the structural schedule rules per window.
///
/// `max_width` is the column-window width the plan was partitioned with.
pub fn verify_pass(pass: &PassPlan, config: &SchedulerConfig, max_width: usize) -> Report {
    let mut report = Report::new();
    rules::check_pass(pass, config, max_width, 0, &mut report);
    report.sort();
    report
}

/// Verifies a complete plan artifact: configuration, pass/window coverage,
/// stored stats, every window's schedule, and — with the source matrix —
/// the fingerprint and global conservation across all passes and windows.
pub fn verify_plan(plan: &SpmvPlan, source: Option<&CooMatrix>) -> Report {
    let mut report = Report::new();
    rules::check_plan(plan, source, &mut report);
    report.sort();
    report
}
