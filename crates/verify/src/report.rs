//! Diagnostic collection and `rustc`-style rendering.
//!
//! The verifier never stops at the first violation: it accumulates every
//! finding into a [`Report`] so one run paints the complete picture of
//! what is wrong with an artifact.

use crate::diag::{Location, RuleId, Severity};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One finding of the static checker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// The violated (or suspicious) rule.
    pub rule: RuleId,
    /// Whether the artifact is illegal or merely wasteful.
    pub severity: Severity,
    /// Where in the artifact the finding sits.
    pub location: Location,
    /// Human-readable description of the specific violation.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(rule: RuleId, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            location,
            message: message.into(),
        }
    }

    /// A warning-severity finding.
    pub fn warning(rule: RuleId, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Warn,
            location,
            message: message.into(),
        }
    }

    /// Renders the finding in `rustc` style:
    ///
    /// ```text
    /// error[S003]: RAW violation: row 7 re-enters its PE after 1 cycle
    ///   --> channel 0, cycle 4, lane 1
    ///   = note: §3.3 — RAW dependency distance within every destination PE
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.rule, self.message);
        if !self.location.is_empty() {
            out.push_str(&format!("\n  --> {}", self.location));
        }
        out.push_str(&format!(
            "\n  = note: {} — {}",
            self.rule.paper_section(),
            self.rule.title()
        ));
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Every finding of one verification run, ready to render or query.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records one finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Absorbs another report's findings unchanged.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Absorbs another report's findings, tagging every location with the
    /// plan-window index it came from.
    pub fn merge_window(&mut self, other: Report, window: usize) {
        for mut d in other.diagnostics {
            d.location = d.location.in_window(window);
            self.diagnostics.push(d);
        }
    }

    /// The findings, in location order (errors and warnings interleaved by
    /// where they point, so neighbouring problems read together).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Sorts findings by location, then rule. The verifier entry points
    /// call this before returning; only hand-assembled reports need it.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.location, a.rule, a.severity).cmp(&(b.location, b.rule, b.severity))
        });
    }

    /// Whether the run found nothing at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any finding is an error (the artifact is illegal).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// The distinct rules that fired, in ID order.
    pub fn rules_fired(&self) -> BTreeSet<RuleId> {
        self.diagnostics.iter().map(|d| d.rule).collect()
    }

    /// Whether a specific rule fired at least once.
    pub fn has_rule(&self, rule: RuleId) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// The one-line verdict closing a rendered report.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "verification passed: no diagnostics".to_string();
        }
        let errors = self.error_count();
        let warnings = self.warning_count();
        let mut parts = Vec::with_capacity(2);
        if errors > 0 {
            parts.push(format!(
                "{errors} error{}",
                if errors == 1 { "" } else { "s" }
            ));
        }
        if warnings > 0 {
            parts.push(format!(
                "{warnings} warning{}",
                if warnings == 1 { "" } else { "s" }
            ));
        }
        let rules: Vec<&str> = self.rules_fired().into_iter().map(RuleId::code).collect();
        format!(
            "verification {}: {} ({})",
            if errors > 0 { "failed" } else { "passed" },
            parts.join(", "),
            rules.join(", ")
        )
    }

    /// Renders every finding followed by the summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push_str("\n\n");
        }
        out.push_str(&self.summary());
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_passes() {
        let r = Report::new();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        assert_eq!(r.summary(), "verification passed: no diagnostics");
        assert_eq!(r.render(), r.summary());
    }

    #[test]
    fn diagnostic_renders_rustc_style() {
        let d = Diagnostic::error(RuleId::S003, Location::slot(0, 4, 1), "row 7 re-entered");
        let text = d.render();
        assert!(text.starts_with("error[S003]: row 7 re-entered"), "{text}");
        assert!(text.contains("--> channel 0, cycle 4, lane 1"), "{text}");
        assert!(text.contains("= note: §3.3"), "{text}");
    }

    #[test]
    fn artifact_level_diagnostic_has_no_arrow_line() {
        let d = Diagnostic::warning(RuleId::P001, Location::whole_artifact(), "stale stats");
        assert!(!d.render().contains("-->"));
        assert!(d.render().starts_with("warning[P001]"));
    }

    #[test]
    fn report_counts_and_rules() {
        let mut r = Report::new();
        r.push(Diagnostic::error(RuleId::S002, Location::channel(1), "dup"));
        r.push(Diagnostic::error(RuleId::S002, Location::channel(0), "dup"));
        r.push(Diagnostic::warning(
            RuleId::R001,
            Location::whole_artifact(),
            "hops",
        ));
        assert_eq!(r.error_count(), 2);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(r.has_rule(RuleId::S002));
        assert!(!r.has_rule(RuleId::S001));
        assert_eq!(
            r.rules_fired().into_iter().collect::<Vec<_>>(),
            vec![RuleId::S002, RuleId::R001]
        );
        let summary = r.summary();
        assert!(summary.contains("failed"), "{summary}");
        assert!(summary.contains("2 errors, 1 warning"), "{summary}");
        assert!(summary.contains("S002, R001"), "{summary}");
    }

    #[test]
    fn sort_orders_by_location_then_rule() {
        let mut r = Report::new();
        r.push(Diagnostic::error(
            RuleId::S003,
            Location::slot(1, 0, 0),
            "b",
        ));
        r.push(Diagnostic::error(
            RuleId::S001,
            Location::slot(0, 2, 0),
            "a",
        ));
        r.push(Diagnostic::error(
            RuleId::P001,
            Location::whole_artifact(),
            "c",
        ));
        r.sort();
        // The artifact-level finding (all-None location) sorts first.
        assert_eq!(r.diagnostics()[0].rule, RuleId::P001);
        assert_eq!(r.diagnostics()[1].location.channel, Some(0));
        assert_eq!(r.diagnostics()[2].location.channel, Some(1));
    }

    #[test]
    fn merge_window_tags_locations() {
        let mut inner = Report::new();
        inner.push(Diagnostic::error(
            RuleId::S001,
            Location::slot(0, 1, 2),
            "x",
        ));
        let mut outer = Report::new();
        outer.merge_window(inner, 3);
        assert_eq!(outer.diagnostics()[0].location.window, Some(3));
    }
}
