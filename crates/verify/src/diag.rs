//! The rule catalog: the stable [`RuleId`]s, the [`Severity`] levels and
//! the [`Location`]s every [`Diagnostic`](crate::Diagnostic) carries.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable identifier of one verification rule.
///
/// Every invariant a schedule, plan, or configuration must uphold has a
/// rule ID. The IDs are the contract between this crate's checkers, the
/// `chason verify` CLI subcommand, and the mutation test suite; they never
/// change meaning once published.
///
/// | ID | Checks | Paper |
/// |----|--------|-------|
/// | `S001` | wire-format packability: `local_row < 2^15`, `col < 8192`, `PE_src < 8`, value ≠ `+0.0` | §3.2 |
/// | `S002` | conservation: every source non-zero scheduled exactly once with its value | §3 |
/// | `S003` | RAW distance ≥ accumulator depth per destination PE | §3.3 |
/// | `S004` | neighbour-only migration within the hop budget (incl. §3.4's last-channel rule) | §3.1, §3.4 |
/// | `S005` | `pvt`/`PE_src` tags consistent with the element's home channel/lane | §3.2 |
/// | `S006` | channel-list shape: uniform lane width, trimmed-or-equalized lists | §3.1 |
/// | `P001` | plan coherence: fingerprint, config, pass/window bounds and stats | §4.1, §4.5 |
/// | `R001` | ScUG capacity: bank indices and URAM budget vs the device | §4.5, §6.1 |
///
/// Every scheduler promises S002 and S003 on any input it is given;
/// [`verify_scheduler_contract`](crate::verify_scheduler_contract) checks
/// exactly those two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // the variants are documented by `title`/`paper_section`
pub enum RuleId {
    S001,
    S002,
    S003,
    S004,
    S005,
    S006,
    P001,
    R001,
}

impl RuleId {
    /// Every rule, in ID order (for documentation and CLI listings).
    pub const ALL: [RuleId; 8] = [
        RuleId::S001,
        RuleId::S002,
        RuleId::S003,
        RuleId::S004,
        RuleId::S005,
        RuleId::S006,
        RuleId::P001,
        RuleId::R001,
    ];

    /// The stable textual code (`"S001"`, ...).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::S001 => "S001",
            RuleId::S002 => "S002",
            RuleId::S003 => "S003",
            RuleId::S004 => "S004",
            RuleId::S005 => "S005",
            RuleId::S006 => "S006",
            RuleId::P001 => "P001",
            RuleId::R001 => "R001",
        }
    }

    /// One-line summary of what the rule enforces.
    pub fn title(self) -> &'static str {
        match self {
            RuleId::S001 => "wire-format packability of every scheduled slot",
            RuleId::S002 => "conservation: every source non-zero scheduled exactly once",
            RuleId::S003 => "RAW dependency distance within every destination PE",
            RuleId::S004 => "migration only from ring neighbours within the hop budget",
            RuleId::S005 => "pvt/PE_src tags consistent with the home channel and lane",
            RuleId::S006 => "channel lists uniformly shaped and trimmed or equalized",
            RuleId::P001 => "plan artifact coherent with its fingerprint and config",
            RuleId::R001 => "ScUG capacity and URAM budget within the device",
        }
    }

    /// The paper section the rule models.
    pub fn paper_section(self) -> &'static str {
        match self {
            RuleId::S001 => "§3.2",
            RuleId::S002 => "§3",
            RuleId::S003 => "§3.3",
            RuleId::S004 => "§3.1/§3.4",
            RuleId::S005 => "§3.2",
            RuleId::S006 => "§3.1",
            RuleId::P001 => "§4.1/§4.5",
            RuleId::R001 => "§4.5/§6.1",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// The artifact is illegal: executing it would corrupt results or
    /// overflow hardware structures.
    Error,
    /// The artifact is suspicious or wasteful but executable.
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => f.write_str("error"),
            Severity::Warn => f.write_str("warning"),
        }
    }
}

/// Where in an artifact a diagnostic points (all coordinates optional: a
/// plan-level finding has none, a slot-level finding has all of them).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Location {
    /// Column-window index within a plan.
    pub window: Option<usize>,
    /// HBM channel index.
    pub channel: Option<usize>,
    /// Stream cycle (beat) within the channel's data list.
    pub cycle: Option<usize>,
    /// Lane (PE index within the channel).
    pub lane: Option<usize>,
}

impl Location {
    /// A location carrying no coordinates (artifact-level findings).
    pub fn whole_artifact() -> Self {
        Location::default()
    }

    /// A channel-level location.
    pub fn channel(channel: usize) -> Self {
        Location {
            channel: Some(channel),
            ..Location::default()
        }
    }

    /// A slot-level location.
    pub fn slot(channel: usize, cycle: usize, lane: usize) -> Self {
        Location {
            window: None,
            channel: Some(channel),
            cycle: Some(cycle),
            lane: Some(lane),
        }
    }

    /// The same location tagged with a plan window index.
    pub fn in_window(mut self, window: usize) -> Self {
        self.window = Some(window);
        self
    }

    /// Whether the location carries any coordinate at all.
    pub fn is_empty(&self) -> bool {
        *self == Location::default()
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::with_capacity(4);
        if let Some(w) = self.window {
            parts.push(format!("window {w}"));
        }
        if let Some(c) = self.channel {
            parts.push(format!("channel {c}"));
        }
        if let Some(c) = self.cycle {
            parts.push(format!("cycle {c}"));
        }
        if let Some(l) = self.lane {
            parts.push(format!("lane {l}"));
        }
        if parts.is_empty() {
            f.write_str("whole artifact")
        } else {
            f.write_str(&parts.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_codes_are_stable_and_distinct() {
        let codes: Vec<&str> = RuleId::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(
            codes,
            vec!["S001", "S002", "S003", "S004", "S005", "S006", "P001", "R001"]
        );
        for r in RuleId::ALL {
            assert!(!r.title().is_empty());
            assert!(r.paper_section().starts_with('§'));
            assert_eq!(format!("{r}"), r.code());
        }
    }

    #[test]
    fn location_renders_present_coordinates_only() {
        assert_eq!(Location::whole_artifact().to_string(), "whole artifact");
        assert_eq!(Location::channel(3).to_string(), "channel 3");
        assert_eq!(
            Location::slot(1, 14, 5).to_string(),
            "channel 1, cycle 14, lane 5"
        );
        assert_eq!(
            Location::slot(1, 14, 5).in_window(2).to_string(),
            "window 2, channel 1, cycle 14, lane 5"
        );
    }

    #[test]
    fn severity_orders_errors_first() {
        assert!(Severity::Error < Severity::Warn);
        assert_eq!(Severity::Error.to_string(), "error");
        assert_eq!(Severity::Warn.to_string(), "warning");
    }
}
