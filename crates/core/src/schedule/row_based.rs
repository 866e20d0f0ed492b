use super::{ChannelSchedule, Placed, ScheduledMatrix, Scheduler, SchedulerConfig, WindowRows};

/// Row-based (in-order) non-zero scheduling — Fig. 2a.
///
/// Each PE processes its assigned rows one after another, emitting each
/// row's non-zeros in order. Because consecutive values of the same row
/// carry a RAW dependency through the `D`-stage accumulator, the PE inserts
/// `D − 1` stalls between them; rows with many entries therefore run the
/// pipeline at `1/D` of its throughput (the paper's example: 0.10 non-zeros
/// per cycle, 90% underutilization).
///
/// This scheduler exists as the historical baseline the OoO schemes improve
/// on; it is exercised by the Fig. 2 experiment binary.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowBased {
    _private: (),
}

impl RowBased {
    /// Creates the scheduler.
    pub fn new() -> Self {
        RowBased { _private: () }
    }
}

impl Scheduler for RowBased {
    fn name(&self) -> &'static str {
        "row-based"
    }

    fn schedule_rows(&self, rows: &WindowRows, config: &SchedulerConfig) -> ScheduledMatrix {
        assert!(config.is_valid(), "invalid scheduler configuration");
        let d = config.dependency_distance;
        let mut masks = Vec::new();
        let mut channels = Vec::with_capacity(config.channels);
        for (ch_idx, lanes) in rows.channels(config).enumerate() {
            // Per lane, lay out the occupied slots independently.
            let mut lane_timelines: Vec<Vec<Placed>> = Vec::with_capacity(lanes.len());
            for (lane, rows) in lanes.iter().enumerate() {
                let mut timeline = Vec::with_capacity(rows.entries.len());
                let mut cycle = 0usize;
                for (idx, &(row, _, _)) in rows.spans.iter().enumerate() {
                    for (i, &(col, value)) in rows.row_entries(idx).iter().enumerate() {
                        if i > 0 {
                            // RAW gap of D − 1 stalls to the row's previous value.
                            cycle += d - 1;
                        }
                        timeline.push(Placed::private(cycle as u32, lane, row, col, value));
                        cycle += 1;
                    }
                }
                // Cycles only grow, so a lane that stayed within range ends here.
                assert!(
                    cycle <= u32::MAX as usize,
                    "channel exceeds u32::MAX cycles"
                );
                lane_timelines.push(timeline);
            }
            channels.push(ChannelSchedule::from_lanes(
                ch_idx,
                &lane_timelines,
                &mut masks,
            ));
        }
        rows.scheduled(config, channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_is_stable() {
        assert_eq!(RowBased::new().name(), "row-based");
    }
}
