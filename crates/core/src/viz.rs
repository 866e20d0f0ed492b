//! ASCII rendering of schedules, in the style of the paper's Figures 4/5.
//!
//! Each channel is drawn as a `PEs × cycles` grid: private values print as
//! their row number, migrated values as `row'` (with hop count apostrophes),
//! and stalls as `·`. Intended for small worked examples and debugging —
//! the renderer truncates wide schedules.

use crate::schedule::ScheduledMatrix;
use std::fmt::Write as _;

/// Maximum cycles rendered before truncation.
pub const MAX_RENDER_CYCLES: usize = 64;

/// Renders every channel of a schedule as an ASCII grid.
///
/// # Example
///
/// ```
/// use chason_core::schedule::{PeAware, Scheduler, SchedulerConfig};
/// use chason_core::viz::render_schedule;
/// use chason_sparse::CooMatrix;
///
/// # fn main() -> Result<(), chason_sparse::SparseError> {
/// let m = CooMatrix::from_triplets(4, 2, vec![(0, 0, 1.0), (1, 1, 2.0)])?;
/// let s = PeAware::new().schedule(&m, &SchedulerConfig::toy(1, 2, 4));
/// let art = render_schedule(&s);
/// assert!(art.contains("channel 0"));
/// # Ok(())
/// # }
/// ```
pub fn render_schedule(schedule: &ScheduledMatrix) -> String {
    let mut out = String::new();
    let global = schedule.stream_cycles();
    let shown = global.min(MAX_RENDER_CYCLES);
    for ch in &schedule.channels {
        let _ = writeln!(
            out,
            "channel {} ({} cycles{}):",
            ch.channel,
            global,
            if global > shown { ", truncated" } else { "" }
        );
        let pes = schedule.config.pes_per_channel;
        for lane in 0..pes {
            let mut line = format!("  PE{lane}: ");
            for cycle in 0..shown {
                let token = match ch.slot(cycle, lane) {
                    Some(nz) => {
                        if nz.pvt {
                            format!("{:>4}", nz.row)
                        } else {
                            let hop = schedule
                                .config
                                .hop_for(ch.channel, schedule.config.channel_for_row(nz.row));
                            format!("{:>4}", format!("{}{}", nz.row, "'".repeat(hop)))
                        }
                    }
                    None => format!("{:>4}", "·"),
                };
                line.push_str(&token);
            }
            let _ = writeln!(out, "{line}");
        }
    }
    let _ = writeln!(
        out,
        "legend: <row> private | <row>' migrated (one ' per hop) | · stall"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Crhcs, PeAware, Scheduler, SchedulerConfig};
    use chason_sparse::CooMatrix;

    fn example() -> (CooMatrix, SchedulerConfig) {
        // Channel 1 rich, channel 0 poor: migration shows up as r' tokens.
        let mut t = vec![(0usize, 0usize, 1.0f32)];
        for k in 0..6 {
            t.push((2 + 4 * k, k % 3, 2.0 + k as f32));
        }
        (
            CooMatrix::from_triplets(32, 3, t).unwrap(),
            SchedulerConfig::toy(2, 2, 3),
        )
    }

    #[test]
    fn renders_private_migrated_and_stalls() {
        let (m, cfg) = example();
        let s = Crhcs::new().schedule(&m, &cfg);
        let art = render_schedule(&s);
        assert!(art.contains("channel 0"));
        assert!(art.contains("channel 1"));
        assert!(art.contains('·'), "stalls should render");
        if s.channels[0].occupied().any(|(_, _, nz)| !nz.pvt) {
            assert!(art.contains('\''), "migrated values should be marked");
        }
        assert!(art.contains("legend:"));
    }

    #[test]
    fn truncates_wide_schedules() {
        let cfg = SchedulerConfig::toy(1, 1, 10);
        // One 20-value row: 191-cycle RAW chain.
        let t: Vec<_> = (0..20).map(|c| (0usize, c, 1.0f32)).collect();
        let m = CooMatrix::from_triplets(1, 20, t).unwrap();
        let s = PeAware::new().schedule(&m, &cfg);
        assert!(s.stream_cycles() > MAX_RENDER_CYCLES);
        let art = render_schedule(&s);
        assert!(art.contains("truncated"));
    }

    #[test]
    fn empty_schedule_renders_legend_only_channels() {
        let cfg = SchedulerConfig::toy(2, 2, 3);
        let s = PeAware::new().schedule(&CooMatrix::new(8, 8), &cfg);
        let art = render_schedule(&s);
        assert!(art.contains("channel 0 (0 cycles)"));
    }
}
