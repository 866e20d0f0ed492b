//! The rule implementations behind the public `verify_*` entry points.
//!
//! Each checker appends to a shared [`Report`] and never bails early: the
//! point of the static analyzer is to paint the complete picture of an
//! artifact's problems in one run. See [`RuleId`] for the rule vocabulary
//! and the paper sections each rule models.

use crate::diag::{Location, RuleId};
use crate::report::{Diagnostic, Report};
use chason_core::element::{MAX_LOCAL_ROWS, PE_SRC_BITS, WINDOW};
use chason_core::plan::{matrix_fingerprint, PassPlan, SpmvPlan};
use chason_core::schedule::{ChannelSchedule, ScheduledMatrix, SchedulerConfig};
use chason_sparse::CooMatrix;
use std::collections::HashMap;

/// URAM blocks on the Alveo U55c, the paper's deployment device (§5.1).
///
/// Mirrored from `chason-sim`'s resource model (which sits *above* this
/// crate in the dependency graph and cannot be imported here).
const ALVEO_U55C_URAMS: usize = 960;

/// URAM banks one PE needs for `hops` migration hops: 3 `URAM_sh` banks per
/// hop (§4.5's consolidated-buffer triplication) plus its partial-sum URAM.
fn urams_per_pe(hops: usize) -> usize {
    3 * hops + 1
}

/// A channel+cycle location (a whole beat, no specific lane).
fn cycle_loc(channel: usize, cycle: usize) -> Location {
    Location {
        window: None,
        channel: Some(channel),
        cycle: Some(cycle),
        lane: None,
    }
}

/// R001 (and structural sanity) over a configuration alone.
pub(crate) fn check_config(config: &SchedulerConfig, report: &mut Report) {
    if !config.is_valid() {
        report.push(Diagnostic::error(
            RuleId::P001,
            Location::whole_artifact(),
            format!(
                "scheduler configuration is invalid: {} channels × {} PEs, \
                 dependency distance {}, {} migration hops",
                config.channels,
                config.pes_per_channel,
                config.dependency_distance,
                config.migration_hops
            ),
        ));
        return;
    }
    let urams = config.total_pes() * urams_per_pe(config.migration_hops);
    if urams > ALVEO_U55C_URAMS {
        report.push(Diagnostic::error(
            RuleId::R001,
            Location::whole_artifact(),
            format!(
                "{} channels × {} PEs at {} migration hop(s) need {} URAM banks \
                 (3 per hop + 1 partial-sum per PE); the Alveo U55c has {}",
                config.channels,
                config.pes_per_channel,
                config.migration_hops,
                urams,
                ALVEO_U55C_URAMS
            ),
        ));
    }
    if config.migration_hops > 1 {
        report.push(Diagnostic::warning(
            RuleId::R001,
            Location::whole_artifact(),
            format!(
                "{} migration hops exceed what the 3-bit PE_src tag can attribute; \
                 the wire format needs an explicit hop field (§6.1 projection)",
                config.migration_hops
            ),
        ));
    }
}

/// S001/S003/S004/S005/S006 and the slot-level half of R001 over one
/// schedule; S002 when the source matrix is supplied.
pub(crate) fn check_schedule(
    schedule: &ScheduledMatrix,
    source: Option<&CooMatrix>,
    report: &mut Report,
) {
    let cfg = &schedule.config;
    let pes = cfg.pes_per_channel;

    // S006: channel-list shape.
    if schedule.channels.len() != cfg.channels {
        report.push(Diagnostic::error(
            RuleId::S006,
            Location::whole_artifact(),
            format!(
                "schedule carries {} channel lists for a {}-channel configuration",
                schedule.channels.len(),
                cfg.channels
            ),
        ));
    }
    for (c, ch) in schedule.channels.iter().enumerate() {
        if ch.channel != c {
            report.push(Diagnostic::error(
                RuleId::S006,
                Location::channel(c),
                format!(
                    "channel list at position {c} is labelled channel {}",
                    ch.channel
                ),
            ));
        }
        if ch.cycles() > 0 && ch.lanes() != pes {
            report.push(Diagnostic::error(
                RuleId::S006,
                Location::channel(c),
                format!(
                    "every cycle carries {} lanes; the PEG has {pes} PEs",
                    ch.lanes()
                ),
            ));
        }
    }
    // S006: trimmed-or-equalized channel lengths. The equalized stream is as
    // long as the longest channel, so a trailing all-stall cycle on every
    // longest channel inflates the whole stream for nothing (Error); a
    // shorter channel carrying physical trailing stalls is wasteful but does
    // not lengthen the stream (Warn) — schedulers keep that padding virtual.
    let stream = schedule.stream_cycles();
    if stream > 0 {
        let ends_stalled = |ch: &ChannelSchedule| {
            ch.cycles() > 0
                && ch
                    .occupied()
                    .next_back()
                    .is_none_or(|(cycle, _, _)| cycle + 1 < ch.cycles())
        };
        let longest_all_end_stalled = schedule
            .channels
            .iter()
            .filter(|ch| ch.cycles() == stream)
            .all(ends_stalled);
        for (c, ch) in schedule.channels.iter().enumerate() {
            if !ends_stalled(ch) {
                continue;
            }
            if ch.cycles() == stream && longest_all_end_stalled {
                report.push(Diagnostic::error(
                    RuleId::S006,
                    cycle_loc(c, ch.cycles() - 1),
                    "trailing all-stall cycle inflates the equalized stream length; \
                     trim it before packing"
                        .to_string(),
                ));
            } else if ch.cycles() < stream {
                report.push(Diagnostic::warning(
                    RuleId::S006,
                    cycle_loc(c, ch.cycles() - 1),
                    "channel carries physical trailing stall padding; the equalized \
                     length is implied, keep the padding virtual"
                        .to_string(),
                ));
            }
        }
    }

    // Per-slot rules: S001 packability, S004 hop budget, S005 tag
    // consistency, R001 ScUG bank addressing.
    for (c, ch) in schedule.channels.iter().enumerate() {
        for (cycle, lane, nz) in ch.occupied() {
            let here = Location::slot(c, cycle, lane);
            if nz.value.to_bits() == 0 {
                report.push(Diagnostic::error(
                    RuleId::S001,
                    here,
                    format!(
                        "entry ({}, {}) has value +0.0, whose packed word collides \
                         with the reserved stall word",
                        nz.row, nz.col
                    ),
                ));
            }
            let local = cfg.local_row(nz.row);
            if local >= MAX_LOCAL_ROWS {
                report.push(Diagnostic::error(
                    RuleId::S001,
                    here,
                    format!(
                        "row {} has per-PE address {local}, beyond the 15-bit row \
                         field ({MAX_LOCAL_ROWS} rows per PE); row-partition the matrix",
                        nz.row
                    ),
                ));
            }
            if nz.col >= WINDOW {
                report.push(Diagnostic::error(
                    RuleId::S001,
                    here,
                    format!(
                        "column {} exceeds the 13-bit in-window budget (W = {WINDOW}); \
                         schedule one column window at a time",
                        nz.col
                    ),
                ));
            }
            if (nz.pe_src as u32) >= (1 << PE_SRC_BITS) {
                report.push(Diagnostic::error(
                    RuleId::S001,
                    here,
                    format!("PE_src {} exceeds the 3-bit source-PE tag", nz.pe_src),
                ));
            }

            let home = cfg.channel_for_row(nz.row);
            if nz.pvt {
                if home != c {
                    report.push(Diagnostic::error(
                        RuleId::S005,
                        here,
                        format!(
                            "slot tagged private, but row {} belongs to channel {home}, \
                             not the streaming channel {c}",
                            nz.row
                        ),
                    ));
                }
                if nz.pe_src != 0 {
                    report.push(Diagnostic::error(
                        RuleId::S005,
                        here,
                        format!(
                            "private slot carries PE_src {} (private elements set 0)",
                            nz.pe_src
                        ),
                    ));
                }
            } else if home == c {
                report.push(Diagnostic::error(
                    RuleId::S005,
                    here,
                    format!(
                        "slot tagged migrated, but row {}'s home is the streaming \
                         channel {c} itself",
                        nz.row
                    ),
                ));
            } else {
                let hop = cfg.hop_for(c, home);
                if hop > cfg.migration_hops {
                    report.push(Diagnostic::error(
                        RuleId::S004,
                        here,
                        format!(
                            "row {} migrated {hop} hop(s) from home channel {home} to \
                             channel {c}; the budget is {} neighbour hop(s), and lists \
                             never wrap past the last channel (§3.4)",
                            nz.row, cfg.migration_hops
                        ),
                    ));
                }
                let expected_lane = cfg.lane_for_row(nz.row);
                if (nz.pe_src as usize) != expected_lane {
                    report.push(Diagnostic::error(
                        RuleId::S005,
                        here,
                        format!(
                            "migrated slot carries PE_src {}, but row {}'s home lane \
                             is {expected_lane}",
                            nz.pe_src, nz.row
                        ),
                    ));
                }
                // R001: the Reduction Unit resolves a migrated element to
                // ScUG bank (hop-1)·PEs + PE_src; a tag outside the lane
                // range addresses a bank the hardware does not have.
                if hop >= 1 && hop <= cfg.migration_hops && (nz.pe_src as usize) >= pes {
                    report.push(Diagnostic::error(
                        RuleId::R001,
                        here,
                        format!(
                            "PE_src {} addresses ScUG bank {}, but the channel's ScUG \
                             has {} banks ({pes} lanes × {} hop(s))",
                            nz.pe_src,
                            (hop - 1) * pes + nz.pe_src as usize,
                            pes * cfg.migration_hops,
                            cfg.migration_hops
                        ),
                    ));
                }
            }
        }
    }

    // S003: RAW distance within every destination PE, all violations, in
    // one pass per channel: occupied slots arrive in cycle order, so every
    // lane sees its own slots in stream order.
    let d = cfg.dependency_distance;
    for (c, ch) in schedule.channels.iter().enumerate() {
        let mut last: HashMap<(usize, usize), usize> = HashMap::new();
        for (cycle, lane, nz) in ch.occupied() {
            if let Some(prev) = last.insert((lane, nz.row), cycle) {
                if cycle - prev < d {
                    report.push(Diagnostic::error(
                        RuleId::S003,
                        Location::slot(c, cycle, lane),
                        format!(
                            "RAW violation: row {} re-enters its PE at cycle {cycle}, \
                             only {} cycle(s) after cycle {prev} (accumulator depth {d})",
                            nz.row,
                            cycle - prev
                        ),
                    ));
                }
            }
        }
    }

    // S002: conservation against the source matrix.
    if let Some(source) = source {
        let slots = schedule.channels.iter().enumerate().flat_map(|(c, ch)| {
            ch.occupied().map(move |(cycle, lane, nz)| {
                (nz.row, nz.col, nz.value, Location::slot(c, cycle, lane))
            })
        });
        check_conservation(slots, source, report);
    }
}

/// S002 over an arbitrary slot stream in *source* coordinates (shared by the
/// schedule-level check and the plan-level global check, which offsets rows
/// and columns by the pass/window origin first).
pub(crate) fn check_conservation(
    slots: impl Iterator<Item = (usize, usize, f32, Location)>,
    source: &CooMatrix,
    report: &mut Report,
) {
    let mut seen: HashMap<(usize, usize), Vec<(f32, Location)>> = HashMap::new();
    for (row, col, value, loc) in slots {
        seen.entry((row, col)).or_default().push((value, loc));
    }
    let mut source_at: HashMap<(usize, usize), f32> = HashMap::with_capacity(source.nnz());
    for &(r, c, v) in source.iter() {
        source_at.insert((r, c), v);
    }
    // Duplicates and foreign entries, in deterministic location order.
    let mut keys: Vec<&(usize, usize)> = seen.keys().collect();
    keys.sort();
    for &&(r, c) in &keys {
        let copies = &seen[&(r, c)];
        if copies.len() > 1 {
            let identical = copies.windows(2).all(|w| w[0].0 == w[1].0);
            let first = copies[0].1;
            for &(_, loc) in &copies[1..] {
                report.push(Diagnostic::error(
                    RuleId::S002,
                    loc,
                    format!(
                        "entry ({r}, {c}) scheduled more than once{}: first at {first}",
                        if identical {
                            " with an identical value"
                        } else {
                            ""
                        }
                    ),
                ));
            }
        }
        match source_at.get(&(r, c)) {
            None => {
                report.push(Diagnostic::error(
                    RuleId::S002,
                    copies[0].1,
                    format!("entry ({r}, {c}) does not exist in the source matrix"),
                ));
            }
            Some(&sv) if copies[0].0 != sv => {
                report.push(Diagnostic::error(
                    RuleId::S002,
                    copies[0].1,
                    format!(
                        "entry ({r}, {c}) scheduled with value {}, but the source holds {sv}",
                        copies[0].0
                    ),
                ));
            }
            Some(_) => {}
        }
    }
    for &(r, c, v) in source.iter() {
        if !seen.contains_key(&(r, c)) {
            report.push(Diagnostic::error(
                RuleId::S002,
                Location::whole_artifact(),
                format!("source entry ({r}, {c}) = {v} is missing from the schedule"),
            ));
        }
    }
}

/// P001 over one pass (window bounds, stored stats, config coherence) plus
/// the full structural rule set over each window's schedule. `window_base`
/// is the global index of the pass's first window within its plan;
/// `max_width` is the plan's column-window width.
pub(crate) fn check_pass(
    pass: &PassPlan,
    config: &SchedulerConfig,
    max_width: usize,
    window_base: usize,
    report: &mut Report,
) {
    if pass.row_end < pass.row_start || (pass.row_end == pass.row_start && pass.nnz > 0) {
        report.push(Diagnostic::error(
            RuleId::P001,
            Location::whole_artifact(),
            format!(
                "pass covers rows {}..{} yet records {} non-zeros",
                pass.row_start, pass.row_end, pass.nnz
            ),
        ));
    }
    let window_nnz: usize = pass.windows.iter().map(|w| w.nnz).sum();
    if window_nnz != pass.nnz {
        report.push(Diagnostic::error(
            RuleId::P001,
            Location::whole_artifact(),
            format!(
                "pass records {} non-zeros but its windows sum to {window_nnz}",
                pass.nnz
            ),
        ));
    }
    for (j, pair) in pass.windows.windows(2).enumerate() {
        if pair[0].col_end != pair[1].col_start {
            report.push(Diagnostic::error(
                RuleId::P001,
                Location::whole_artifact().in_window(window_base + j + 1),
                format!(
                    "windows are not contiguous: previous ends at column {}, next \
                     starts at {}",
                    pair[0].col_end, pair[1].col_start
                ),
            ));
        }
    }
    for (j, w) in pass.windows.iter().enumerate() {
        let widx = window_base + j;
        let wloc = Location::whole_artifact().in_window(widx);
        if w.col_end <= w.col_start {
            report.push(Diagnostic::error(
                RuleId::P001,
                wloc,
                format!(
                    "window covers the empty column range {}..{}",
                    w.col_start, w.col_end
                ),
            ));
        } else if w.col_end - w.col_start > max_width {
            report.push(Diagnostic::error(
                RuleId::P001,
                wloc,
                format!(
                    "window spans {} columns; the plan was partitioned at width {max_width}",
                    w.col_end - w.col_start
                ),
            ));
        }
        if w.schedule.config != *config {
            report.push(Diagnostic::error(
                RuleId::P001,
                wloc,
                "window was scheduled under a different configuration than the plan key"
                    .to_string(),
            ));
        }
        if w.nnz != w.schedule.scheduled_nonzeros() {
            report.push(Diagnostic::error(
                RuleId::P001,
                wloc,
                format!(
                    "window records {} non-zeros but its schedule holds {}",
                    w.nnz,
                    w.schedule.scheduled_nonzeros()
                ),
            ));
        }
        if w.stalls != w.schedule.stalls() {
            report.push(Diagnostic::error(
                RuleId::P001,
                wloc,
                format!(
                    "window records {} stalls but its schedule implies {}",
                    w.stalls,
                    w.schedule.stalls()
                ),
            ));
        }
        if w.stream_cycles != w.schedule.stream_cycles() {
            report.push(Diagnostic::error(
                RuleId::P001,
                wloc,
                format!(
                    "window records {} stream cycles but its schedule implies {}",
                    w.stream_cycles,
                    w.schedule.stream_cycles()
                ),
            ));
        }
        let mut inner = Report::new();
        check_schedule(&w.schedule, None, &mut inner);
        report.merge_window(inner, widx);
    }
}

/// P001 over a whole plan: key/fingerprint coherence, pass/window coverage,
/// stored stats, and (with the source matrix) global conservation.
pub(crate) fn check_plan(plan: &SpmvPlan, source: Option<&CooMatrix>, report: &mut Report) {
    check_config(&plan.key.config, report);
    if plan.window == 0 || plan.window > WINDOW {
        report.push(Diagnostic::error(
            RuleId::P001,
            Location::whole_artifact(),
            format!(
                "plan window width {} is outside the 13-bit budget (1..={WINDOW})",
                plan.window
            ),
        ));
    }
    if plan.engine != "chason" && plan.engine != "serpens" {
        report.push(Diagnostic::warning(
            RuleId::P001,
            Location::whole_artifact(),
            format!("plan names unknown engine family {:?}", plan.engine),
        ));
    }
    if plan.passes.is_empty() {
        if plan.rows > 0 {
            report.push(Diagnostic::error(
                RuleId::P001,
                Location::whole_artifact(),
                format!("plan covers {} rows but contains no passes", plan.rows),
            ));
        }
        return;
    }
    // Row-partition coverage: contiguous, ascending, spanning 0..rows.
    if plan.passes[0].row_start != 0 {
        report.push(Diagnostic::error(
            RuleId::P001,
            Location::whole_artifact(),
            format!(
                "first pass starts at row {}, not 0",
                plan.passes[0].row_start
            ),
        ));
    }
    for pair in plan.passes.windows(2) {
        if pair[0].row_end != pair[1].row_start {
            report.push(Diagnostic::error(
                RuleId::P001,
                Location::whole_artifact(),
                format!(
                    "passes are not contiguous: previous ends at row {}, next starts at {}",
                    pair[0].row_end, pair[1].row_start
                ),
            ));
        }
    }
    // `row_end` is rounded up to the partition span for every pass but the
    // last, which must land exactly on the matrix height.
    if let Some(last) = plan.passes.last() {
        if last.row_end != plan.rows {
            report.push(Diagnostic::error(
                RuleId::P001,
                Location::whole_artifact(),
                format!(
                    "last pass ends at row {}, but the plan covers {} rows",
                    last.row_end, plan.rows
                ),
            ));
        }
    }
    let pass_nnz: usize = plan.passes.iter().map(|p| p.nnz).sum();
    if pass_nnz != plan.nnz {
        report.push(Diagnostic::error(
            RuleId::P001,
            Location::whole_artifact(),
            format!(
                "plan records {} non-zeros but its passes sum to {pass_nnz}",
                plan.nnz
            ),
        ));
    }
    let mut window_base = 0usize;
    for pass in &plan.passes {
        if let (Some(first), Some(last)) = (pass.windows.first(), pass.windows.last()) {
            if first.col_start != 0 || last.col_end != plan.cols {
                report.push(Diagnostic::error(
                    RuleId::P001,
                    Location::whole_artifact().in_window(window_base),
                    format!(
                        "pass windows cover columns {}..{}, but the plan spans 0..{}",
                        first.col_start, last.col_end, plan.cols
                    ),
                ));
            }
        } else if pass.nnz > 0 {
            report.push(Diagnostic::error(
                RuleId::P001,
                Location::whole_artifact(),
                format!("pass records {} non-zeros but has no windows", pass.nnz),
            ));
        }
        check_pass(pass, &plan.key.config, plan.window, window_base, report);
        window_base += pass.windows.len();
    }

    if let Some(source) = source {
        if plan.key.fingerprint != matrix_fingerprint(source) {
            report.push(Diagnostic::error(
                RuleId::P001,
                Location::whole_artifact(),
                "plan fingerprint does not match the supplied source matrix".to_string(),
            ));
        }
        for (got, want, what) in [
            (plan.rows, source.rows(), "rows"),
            (plan.cols, source.cols(), "columns"),
            (plan.nnz, source.nnz(), "non-zeros"),
        ] {
            if got != want {
                report.push(Diagnostic::error(
                    RuleId::P001,
                    Location::whole_artifact(),
                    format!("plan records {got} {what}, the source matrix has {want}"),
                ));
            }
        }
        // Global conservation: map every slot back to source coordinates
        // through its pass's row origin and window's column origin.
        let mut window_base = 0usize;
        let mut slots: Vec<(usize, usize, f32, Location)> = Vec::with_capacity(plan.nnz);
        for pass in &plan.passes {
            for (j, w) in pass.windows.iter().enumerate() {
                for (c, ch) in w.schedule.channels.iter().enumerate() {
                    for (cycle, lane, nz) in ch.occupied() {
                        slots.push((
                            pass.row_start + nz.row,
                            w.col_start + nz.col,
                            nz.value,
                            Location::slot(c, cycle, lane).in_window(window_base + j),
                        ));
                    }
                }
            }
            window_base += pass.windows.len();
        }
        check_conservation(slots.into_iter(), source, report);
    }
}
