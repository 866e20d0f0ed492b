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
    use chason_sparse::CooMatrix;

    /// Fig. 2a: one PE owning a 3-entry row runs at ~0.1 nz/cycle with D=10.
    #[test]
    fn dense_row_leaves_d_minus_one_stalls() {
        let config = SchedulerConfig::toy(1, 1, 10);
        let m =
            CooMatrix::from_triplets(1, 3, vec![(0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0)]).unwrap();
        let s = RowBased::new().schedule(&m, &config);
        // 3 values with two 9-stall gaps: 21 cycles.
        assert_eq!(s.stream_cycles(), 21);
        assert_eq!(s.stalls(), 18);
        s.validate(&m).unwrap();
    }

    #[test]
    fn independent_rows_on_same_pe_still_serialize() {
        // Rows 0 and 4 both map to PE 0 of a 1-channel/4-PE config.
        let config = SchedulerConfig::toy(1, 4, 10);
        let m =
            CooMatrix::from_triplets(8, 2, vec![(0, 0, 1.0), (0, 1, 2.0), (4, 0, 3.0)]).unwrap();
        let s = RowBased::new().schedule(&m, &config);
        // Row 0: cycles 0 and 10; row 4 immediately after at cycle 11.
        let lane0: Vec<usize> = s.channels[0]
            .occupied()
            .filter(|&(_, lane, _)| lane == 0)
            .map(|(c, _, _)| c)
            .collect();
        assert_eq!(lane0, vec![0, 10, 11]);
        s.validate(&m).unwrap();
    }

    #[test]
    fn singleton_rows_run_back_to_back() {
        // Every row has one value: no RAW gaps at all.
        let config = SchedulerConfig::toy(1, 2, 10);
        let m = CooMatrix::from_triplets(
            6,
            1,
            vec![(0, 0, 1.0), (2, 0, 2.0), (4, 0, 3.0), (1, 0, 4.0)],
        )
        .unwrap();
        let s = RowBased::new().schedule(&m, &config);
        // Lane 0 owns rows 0,2,4 (3 values), lane 1 owns row 1 (1 value).
        assert_eq!(s.stream_cycles(), 3);
        s.validate(&m).unwrap();
    }

    #[test]
    fn empty_matrix_schedules_to_nothing() {
        let config = SchedulerConfig::toy(2, 2, 10);
        let m = CooMatrix::new(8, 8);
        let s = RowBased::new().schedule(&m, &config);
        assert_eq!(s.stream_cycles(), 0);
        assert_eq!(s.underutilization(), 0.0);
        s.validate(&m).unwrap();
    }

    #[test]
    fn virtual_equalization_counts_padding_stalls() {
        let config = SchedulerConfig::toy(2, 1, 4);
        // Channel 0 (row 0) gets 3 values; channel 1 (row 1) gets 1.
        let m = CooMatrix::from_triplets(
            2,
            3,
            vec![(0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0), (1, 0, 4.0)],
        )
        .unwrap();
        let s = RowBased::new().schedule(&m, &config);
        // Channel 0's RAW chain: values at cycles 0, 4, 8 -> 9 cycles.
        assert_eq!(s.stream_cycles(), 9);
        // Stalls include channel 1's virtual padding: (9-3) + (9-1) = 14.
        assert_eq!(s.stalls(), 14);
        // Padded data lists materialize the synchronized-finish rule.
        let lists = s.data_lists_padded();
        assert_eq!(lists[0].len(), lists[1].len());
        s.validate(&m).unwrap();
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(RowBased::new().name(), "row-based");
    }
}
