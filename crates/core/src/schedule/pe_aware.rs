use super::{
    ChannelSchedule, FlatLaneRows, LaneScratch, Placed, ScheduledMatrix, Scheduler,
    SchedulerConfig, WindowRows, NEVER,
};

/// PE-aware out-of-order non-zero scheduling — Serpens' scheme (Fig. 2b).
///
/// Rows mapped to a PE are served **round-robin**: at every cycle the PE
/// emits the next value of the first eligible row, where a row is eligible
/// once `dependency_distance` cycles have passed since its previous value.
/// Interleaving independent rows hides the accumulator latency, but the
/// scheme is *intra-channel*: when a PE's rows run dry (or are empty, as in
/// skewed matrices) the hardware stream carries explicit zero slots — the
/// stalls that leave ~70% of PEs idle across SuiteSparse (Fig. 3) and that
/// CrHCS exists to fill. The scheduler itself never writes them: it emits
/// only the occupied slots and the stalls stay implicit.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeAware {
    _private: (),
}

impl PeAware {
    /// Creates the scheduler.
    pub fn new() -> Self {
        PeAware { _private: () }
    }

    /// Schedules the rows of `lane` round-robin into `timeline`, which is
    /// cleared first and receives the lane's occupied slots in cycle order.
    ///
    /// Rows are consumed through cursors into the lane's flat entry arena
    /// — no queues are materialized — and `scratch` is reused across lanes
    /// (and across windows during planning) instead of reallocated.
    ///
    /// The round-robin scan walks a ring of *live* rows only: a row is
    /// unlinked in O(1) when its last entry is emitted, so long rows that
    /// outlive their siblings never re-scan the dead ones. At most `D − 1`
    /// live rows can be RAW-blocked at any cycle (one emission per cycle),
    /// so each emitted slot passes at most `D − 1` rows; when every live
    /// row is blocked, the scan jumps over the whole stall run to the
    /// earliest unblocking cycle in one step.
    ///
    /// # Panics
    ///
    /// Panics if the lane runs past `u32::MAX` cycles.
    pub(crate) fn schedule_lane(
        rows: &FlatLaneRows,
        lane: usize,
        dependency_distance: usize,
        scratch: &mut LaneScratch,
        timeline: &mut Vec<Placed>,
    ) {
        scratch.reset(rows);
        let mut remaining = rows.entries.len();
        timeline.clear();
        timeline.reserve(remaining);
        let mut head = 0usize; // live row the round-robin scan starts at
        let mut cycle = 0usize;
        while remaining > 0 {
            let mut idx = head;
            let mut unblock = usize::MAX;
            let eligible = loop {
                let last = scratch.last_cycle[idx];
                if last == NEVER || cycle >= last as usize + dependency_distance {
                    break Some(idx);
                }
                unblock = unblock.min(last as usize + dependency_distance);
                idx = scratch.next[idx] as usize;
                if idx == head {
                    break None;
                }
            };
            let Some(idx) = eligible else {
                // Every live row is RAW-blocked: stall until the first frees.
                cycle = unblock;
                continue;
            };
            let (row, _, end) = rows.spans[idx];
            let cur = scratch.cursor[idx];
            let (col, value) = rows.entries[cur as usize];
            // Checked per slot: the 32-bit `last_cycle` would wrap past it.
            assert!(cycle < u32::MAX as usize, "channel exceeds u32::MAX cycles");
            timeline.push(Placed::private(cycle as u32, lane, row, col, value));
            scratch.cursor[idx] = cur + 1;
            scratch.last_cycle[idx] = cycle as u32;
            remaining -= 1;
            head = scratch.next[idx] as usize;
            if cur + 1 == end {
                scratch.unlink(idx);
            }
            cycle += 1;
        }
    }
}

impl Scheduler for PeAware {
    fn name(&self) -> &'static str {
        "pe-aware (serpens)"
    }

    fn schedule_rows(&self, rows: &WindowRows, config: &SchedulerConfig) -> ScheduledMatrix {
        assert!(config.is_valid(), "invalid scheduler configuration");
        let d = config.dependency_distance;
        let mut scratch = LaneScratch::default();
        let mut timelines = vec![Vec::new(); config.pes_per_channel];
        let mut masks = Vec::new();
        let mut channels = Vec::with_capacity(config.channels);
        for (ch_idx, lanes) in rows.channels(config).enumerate() {
            for (lane, (rows, timeline)) in lanes.iter().zip(&mut timelines).enumerate() {
                Self::schedule_lane(rows, lane, d, &mut scratch, timeline);
            }
            channels.push(ChannelSchedule::from_lanes(ch_idx, &timelines, &mut masks));
        }
        rows.scheduled(config, channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chason_sparse::generators::{power_law, uniform_random};
    use chason_sparse::CooMatrix;

    /// Two interleavable rows let the PE emit on consecutive cycles even
    /// with a long dependency distance (the Fig. 2b improvement).
    #[test]
    fn round_robin_interleaves_independent_rows() {
        let config = SchedulerConfig::toy(1, 4, 10);
        // Rows 0 and 4 both map to lane 0.
        let m = CooMatrix::from_triplets(
            8,
            2,
            vec![(0, 0, 1.0), (0, 1, 2.0), (4, 0, 3.0), (4, 1, 4.0)],
        )
        .unwrap();
        let s = PeAware::new().schedule(&m, &config);
        let lane0: Vec<(usize, usize)> = s.channels[0]
            .occupied()
            .filter(|&(_, lane, _)| lane == 0)
            .map(|(c, _, nz)| (c, nz.row))
            .collect();
        // cycle 0: row 0; cycle 1: row 4; then both blocked until D elapses.
        assert_eq!(lane0[0], (0, 0));
        assert_eq!(lane0[1], (1, 4));
        assert_eq!(lane0[2], (10, 0));
        assert_eq!(lane0[3], (11, 4));
        s.validate(&m).unwrap();
    }

    #[test]
    fn single_row_degrades_to_row_based_behaviour() {
        let config = SchedulerConfig::toy(1, 1, 10);
        let m =
            CooMatrix::from_triplets(1, 3, vec![(0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0)]).unwrap();
        let s = PeAware::new().schedule(&m, &config);
        assert_eq!(s.stream_cycles(), 21);
        s.validate(&m).unwrap();
    }

    #[test]
    fn enough_rows_fully_hide_the_latency() {
        // 10 singleton-entry rows on one PE with D = 10: zero stalls.
        let config = SchedulerConfig::toy(1, 1, 10);
        let triplets: Vec<_> = (0..10).map(|r| (r, 0, (r + 1) as f32)).collect();
        let m = CooMatrix::from_triplets(10, 1, triplets).unwrap();
        let s = PeAware::new().schedule(&m, &config);
        assert_eq!(s.stream_cycles(), 10);
        assert_eq!(s.stalls(), 0);
        s.validate(&m).unwrap();
    }

    #[test]
    fn never_beats_the_nz_per_cycle_bound_and_conserves() {
        let config = SchedulerConfig::toy(2, 2, 4);
        let m = uniform_random(64, 64, 300, 3);
        let s = PeAware::new().schedule(&m, &config);
        assert_eq!(s.scheduled_nonzeros(), 300);
        assert!(s.stream_cycles() * config.total_pes() >= 300);
        s.validate(&m).unwrap();
    }

    #[test]
    fn skewed_matrices_leave_many_stalls() {
        let config = SchedulerConfig::paper();
        let m = power_law(512, 512, 2000, 1.8, 13);
        let s = PeAware::new().schedule(&m, &config);
        assert!(
            s.underutilization() > 0.4,
            "expected heavy stalling on a skewed matrix, got {}",
            s.underutilization()
        );
        s.validate(&m).unwrap();
    }

    #[test]
    fn balanced_matrices_beat_skewed_ones() {
        let config = SchedulerConfig::paper();
        let balanced = uniform_random(2048, 2048, 40_000, 5);
        let skewed = power_law(2048, 2048, 40_000, 1.9, 5);
        let ub = PeAware::new()
            .schedule(&balanced, &config)
            .underutilization();
        let us = PeAware::new().schedule(&skewed, &config).underutilization();
        assert!(ub < us, "balanced {ub} should stall less than skewed {us}");
    }

    #[test]
    fn empty_matrix_is_fine() {
        let config = SchedulerConfig::paper();
        let s = PeAware::new().schedule(&CooMatrix::new(100, 100), &config);
        assert_eq!(s.stream_cycles(), 0);
        assert_eq!(s.stalls(), 0);
    }
}
