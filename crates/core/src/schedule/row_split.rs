use super::{
    ChannelSchedule, FlatLaneRows, LaneScratch, PeAware, ScheduledMatrix, Scheduler,
    SchedulerConfig, WindowRows,
};
use chason_sparse::CooMatrix;

/// Hybrid row-split scheduling — the HiSpMV-style alternative (§2.1).
///
/// HiSpMV attacks imbalance *within* a channel: a row whose population
/// dwarfs its siblings is split into `P` interleaved sub-rows, one per lane
/// of the owning PEG, and a dedicated intra-PEG adder tree recombines the
/// sub-row partial sums. This breaks the RAW chain (each lane sees every
/// `P`-th value of the row, so consecutive same-row values on one lane are
/// naturally `P` apart) without any cross-channel traffic.
///
/// Two properties matter for the comparison with CrHCS:
///
/// * it fixes *intra-channel* imbalance (a hub row no longer serializes on
///   one PE), but the hub channel as a whole still holds all of the hub's
///   work — *inter-channel* imbalance remains, which is exactly the gap
///   CrHCS closes;
/// * it needs different hardware (the sub-row adder tree). Neither design
///   of `chason-sim`'s `Accelerator` implements that tree, so this
///   scheduler is a **metrics-level baseline**: its schedules satisfy the
///   conservation and RAW invariants and are compared via Eq. 4, but they
///   are not executable on the simulated datapaths (the split values sit in
///   lanes that do not own their rows).
#[derive(Debug, Clone, Copy)]
pub struct HybridRowSplit {
    /// Rows with at least this many non-zeros are split across the PEG.
    pub split_threshold: usize,
}

impl HybridRowSplit {
    /// Creates the scheduler with HiSpMV's heuristic threshold: split a row
    /// when it alone exceeds `dependency_distance` times the lane average.
    pub fn new(split_threshold: usize) -> Self {
        HybridRowSplit { split_threshold }
    }

    /// Threshold tuned for a matrix: split a row when its serialized RAW
    /// chain (`h × D` cycles) would exceed roughly twice the lane's mean
    /// load — i.e. when the row alone would set the channel's critical
    /// path.
    pub fn auto(matrix: &CooMatrix, config: &SchedulerConfig) -> Self {
        let mean_per_pe = matrix.nnz() / config.total_pes().max(1);
        let chain_dominates = (2 * mean_per_pe) / config.dependency_distance.max(1);
        HybridRowSplit {
            split_threshold: chain_dominates.max(16),
        }
    }
}

impl Default for HybridRowSplit {
    fn default() -> Self {
        HybridRowSplit {
            split_threshold: 256,
        }
    }
}

impl Scheduler for HybridRowSplit {
    fn name(&self) -> &'static str {
        "hybrid row-split (hispmv)"
    }

    fn schedule_rows(&self, rows: &WindowRows, config: &SchedulerConfig) -> ScheduledMatrix {
        assert!(config.is_valid(), "invalid scheduler configuration");
        let d = config.dependency_distance;
        let pes = config.pes_per_channel;
        let mut scratch = LaneScratch::default();
        let mut sub_starts = vec![0usize; pes];
        let mut timelines = vec![Vec::new(); pes];
        let mut masks = Vec::new();
        let mut channels = Vec::with_capacity(config.channels);
        for (ch_idx, lanes) in rows.channels(config).enumerate() {
            // Pull heavy rows out of their home lane and deal their values
            // across all lanes of the PEG round-robin: lane `l` receives
            // the sub-row holding every `P`-th value. Each sub-row then
            // joins the lane's ordinary round-robin schedule, so sub-rows
            // of different hubs interleave and hide each other's RAW gaps
            // exactly like independent rows do.
            let mut lane_rows: Vec<FlatLaneRows> = vec![FlatLaneRows::default(); pes];
            for (lane, owned) in lanes.iter().enumerate() {
                for (idx, &(row, _, _)) in owned.spans.iter().enumerate() {
                    let entries = owned.row_entries(idx);
                    if entries.len() >= self.split_threshold.max(2) {
                        // Rows are dealt one at a time, so each target
                        // arena receives its sub-row's entries
                        // consecutively; remembering the arena lengths
                        // beforehand delimits the new spans without any
                        // per-sub-row buffer.
                        for (target, start) in sub_starts.iter_mut().enumerate() {
                            *start = lane_rows[target].entries.len();
                        }
                        for (k, &entry) in entries.iter().enumerate() {
                            lane_rows[(lane + k) % pes].entries.push(entry);
                        }
                        for (target, arena) in lane_rows.iter_mut().enumerate() {
                            let end = arena.entries.len();
                            if end > sub_starts[target] {
                                arena.spans.push((row, sub_starts[target], end));
                            }
                        }
                    } else {
                        for &(col, value) in entries {
                            lane_rows[lane].push_entry(row, col, value);
                        }
                    }
                }
            }
            for (dealt, timeline) in lane_rows.iter().zip(&mut timelines) {
                PeAware::schedule_lane(dealt, d, &mut scratch, timeline);
            }
            channels.push(ChannelSchedule::from_lanes(ch_idx, &timelines, &mut masks));
        }
        rows.scheduled(config, channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Crhcs;
    use chason_sparse::generators::{arrow_with_nnz, uniform_random};

    #[test]
    fn conserves_and_respects_raw() {
        let config = SchedulerConfig::toy(2, 4, 6);
        let m = arrow_with_nnz(256, 3, 2, 3_000, 7);
        let s = HybridRowSplit::auto(&m, &config).schedule(&m, &config);
        assert_eq!(s.scheduled_nonzeros(), 3_000);
        s.validate(&m).unwrap();
    }

    #[test]
    fn splitting_breaks_the_intra_channel_chain() {
        // One hub row on one PE: PE-aware serializes it, splitting spreads it.
        let config = SchedulerConfig::toy(2, 4, 10);
        let t: Vec<_> = (0..400).map(|k| (0usize, k, 1.0 + k as f32)).collect();
        let m = CooMatrix::from_triplets(8, 400, t).unwrap();
        let pe_aware = PeAware::new().schedule(&m, &config);
        let split = HybridRowSplit::new(16).schedule(&m, &config);
        split.validate(&m).unwrap();
        assert!(
            split.stream_cycles() < pe_aware.stream_cycles() / 2,
            "split {} vs pe-aware {}",
            split.stream_cycles(),
            pe_aware.stream_cycles()
        );
    }

    #[test]
    fn inter_channel_imbalance_still_needs_migration() {
        // All hubs on one channel: splitting helps within the channel, but
        // CrHCS (which also rebalances across channels) does better.
        let config = SchedulerConfig::paper();
        let m = arrow_with_nnz(2048, 3, 8, 40_000, 3);
        let split = HybridRowSplit::auto(&m, &config).schedule(&m, &config);
        let crhcs = Crhcs::new().schedule(&m, &config);
        split.validate(&m).unwrap();
        assert!(
            crhcs.underutilization() < split.underutilization(),
            "crhcs {} should beat row-splitting {} on cross-channel imbalance",
            crhcs.underutilization(),
            split.underutilization()
        );
    }

    #[test]
    fn balanced_matrices_are_untouched() {
        let config = SchedulerConfig::toy(2, 4, 6);
        let m = uniform_random(256, 256, 2_000, 5);
        let threshold = HybridRowSplit::auto(&m, &config).split_threshold;
        // No row reaches the auto threshold on a uniform matrix...
        let pe_aware = PeAware::new().schedule(&m, &config);
        let split = HybridRowSplit::auto(&m, &config).schedule(&m, &config);
        assert!(threshold > 8);
        // ... so the schedules have identical length.
        assert_eq!(split.stream_cycles(), pe_aware.stream_cycles());
    }
}
