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
