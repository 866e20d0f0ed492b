//! Scheduler behaviour on hand-picked and generated matrices, each schedule
//! checked by `chason-verify` for the two rules every scheduler promises:
//! conservation (S002) and RAW distance (S003).

use chason_core::schedule::ScheduledMatrix;
use chason_sparse::CooMatrix;
use chason_verify::verify_scheduler_contract;

/// Asserts that `s` schedules every non-zero of `m` exactly once and never
/// brings a row back to its PE sooner than the dependency distance allows.
fn assert_contract(s: &ScheduledMatrix, m: &CooMatrix) {
    let report = verify_scheduler_contract(s, m);
    assert!(report.is_clean(), "{report}");
}

/// Serpens' PE-aware out-of-order scheduler (Fig. 2b).
mod pe_aware {
    use super::assert_contract;
    use chason_core::schedule::{PeAware, Scheduler, SchedulerConfig};
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
        assert_contract(&s, &m);
    }

    #[test]
    fn single_row_degrades_to_row_based_behaviour() {
        let config = SchedulerConfig::toy(1, 1, 10);
        let m =
            CooMatrix::from_triplets(1, 3, vec![(0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0)]).unwrap();
        let s = PeAware::new().schedule(&m, &config);
        assert_eq!(s.stream_cycles(), 21);
        assert_contract(&s, &m);
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
        assert_contract(&s, &m);
    }

    #[test]
    fn never_beats_the_nz_per_cycle_bound_and_conserves() {
        let config = SchedulerConfig::toy(2, 2, 4);
        let m = uniform_random(64, 64, 300, 3);
        let s = PeAware::new().schedule(&m, &config);
        assert_eq!(s.scheduled_nonzeros(), 300);
        assert!(s.stream_cycles() * config.total_pes() >= 300);
        assert_contract(&s, &m);
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
        assert_contract(&s, &m);
    }
}

/// The row-based scheduler (Fig. 2a).
mod row_based {
    use super::assert_contract;
    use chason_core::schedule::{RowBased, Scheduler, SchedulerConfig};
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
        assert_contract(&s, &m);
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
        assert_contract(&s, &m);
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
        assert_contract(&s, &m);
    }

    #[test]
    fn empty_matrix_schedules_to_nothing() {
        let config = SchedulerConfig::toy(2, 2, 10);
        let m = CooMatrix::new(8, 8);
        let s = RowBased::new().schedule(&m, &config);
        assert_eq!(s.stream_cycles(), 0);
        assert_eq!(s.underutilization(), 0.0);
        assert_contract(&s, &m);
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
        assert_contract(&s, &m);
    }
}

/// The HiSpMV-style row-splitting scheduler (§2.1).
mod row_split {
    use super::assert_contract;
    use chason_core::schedule::{Crhcs, HybridRowSplit, PeAware, Scheduler, SchedulerConfig};
    use chason_sparse::generators::arrow_with_nnz;
    use chason_sparse::CooMatrix;

    #[test]
    fn conserves_and_respects_raw() {
        let config = SchedulerConfig::toy(2, 4, 6);
        let m = arrow_with_nnz(256, 3, 2, 3_000, 7);
        let s = HybridRowSplit::auto(&m, &config).schedule(&m, &config);
        assert_eq!(s.scheduled_nonzeros(), 3_000);
        assert_contract(&s, &m);
    }

    #[test]
    fn splitting_breaks_the_intra_channel_chain() {
        // One hub row on one PE: PE-aware serializes it, splitting spreads it.
        let config = SchedulerConfig::toy(2, 4, 10);
        let t: Vec<_> = (0..400).map(|k| (0usize, k, 1.0 + k as f32)).collect();
        let m = CooMatrix::from_triplets(8, 400, t).unwrap();
        let pe_aware = PeAware::new().schedule(&m, &config);
        let split = HybridRowSplit::new(16).schedule(&m, &config);
        assert_contract(&split, &m);
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
        assert_contract(&split, &m);
        assert!(
            crhcs.underutilization() < split.underutilization(),
            "crhcs {} should beat row-splitting {} on cross-channel imbalance",
            crhcs.underutilization(),
            split.underutilization()
        );
    }
}

/// CrHCS: the PE-aware schedule plus cross-channel migration (Fig. 2c, §3).
mod crhcs {
    use super::assert_contract;
    use chason_core::schedule::{
        migrated, ChannelSchedule, Crhcs, MigrationReport, PeAware, ScheduledMatrix, Scheduler,
        SchedulerConfig,
    };
    use chason_sparse::generators::{power_law, uniform_random};
    use chason_sparse::CooMatrix;

    #[test]
    fn migration_reduces_or_preserves_underutilization() {
        let config = SchedulerConfig::paper();
        let m = power_law(1024, 1024, 8000, 1.8, 21);
        let serpens = PeAware::new().schedule(&m, &config);
        let (chason, report) = migrated(&serpens);
        assert!(chason.underutilization() <= serpens.underutilization());
        assert!(
            report.migrated > 0,
            "skewed matrix should trigger migration"
        );
        assert!(report.stalls_after <= report.stalls_before);
        assert_contract(&chason, &m);
    }

    #[test]
    fn conserves_every_nonzero() {
        let config = SchedulerConfig::toy(4, 4, 6);
        let m = uniform_random(128, 128, 700, 9);
        let s = Crhcs::new().schedule(&m, &config);
        assert_eq!(s.scheduled_nonzeros(), 700);
        assert_contract(&s, &m);
    }

    #[test]
    fn migrated_slots_carry_pvt_and_pe_src() {
        let config = SchedulerConfig::toy(2, 2, 4);
        // Channel 0 owns rows {0,1} mod 4; channel 1 owns rows {2,3} mod 4.
        // Give channel 0 nothing and channel 1 plenty: all of channel 0's
        // slots must be filled by migrated (pvt = 0) values.
        let triplets: Vec<_> = (0..12)
            .map(|i| (2 + 4 * (i % 3), i, 1.0 + i as f32))
            .collect();
        let m = CooMatrix::from_triplets(16, 16, triplets).unwrap();
        let s = Crhcs::new().schedule(&m, &config);
        let migrated: Vec<_> = s.channels[0].occupied().map(|(_, _, nz)| nz).collect();
        assert!(!migrated.is_empty(), "channel 0 should receive migrants");
        for nz in &migrated {
            assert!(!nz.pvt);
            // Rows 2, 6, 10 all map to lane 0 of channel 1.
            assert_eq!(nz.pe_src, 0);
        }
        assert_contract(&s, &m);
    }

    #[test]
    fn raw_distance_is_respected_in_migrants() {
        // One source row with many values; destination has many stalls.
        // the verifier checks the per-PE distance; the report shows that
        // migration still happens under the constraint, and that the RAW
        // distance held some candidates back.
        let config = SchedulerConfig::toy(2, 1, 5);
        let mut triplets: Vec<(usize, usize, f32)> =
            (0..10).map(|c| (1usize, c, c as f32 + 1.0)).collect();
        triplets.push((0, 0, 99.0));
        let m = CooMatrix::from_triplets(2, 10, triplets).unwrap();
        let (s, report) = migrated(&PeAware::new().schedule(&m, &config));
        assert_contract(&s, &m);
        assert!(report.migrated > 0 && report.raw_skips > 0, "{report:?}");
    }

    #[test]
    fn shortens_the_stream_for_imbalanced_channels() {
        let config = SchedulerConfig::toy(2, 2, 4);
        // All rows belong to channel 1 (rows 2, 3 mod 4): channel 0 is all
        // stalls under PE-aware; CrHCS moves half the work over.
        let triplets: Vec<_> = (0..40)
            .map(|i| (2 + (i % 2) + 4 * (i / 2), i % 16, 1.0 + i as f32))
            .collect();
        let m = CooMatrix::from_triplets(128, 16, triplets).unwrap();
        let serpens = PeAware::new().schedule(&m, &config);
        let (chason, report) = migrated(&serpens);
        assert!(
            chason.stream_cycles() < serpens.stream_cycles(),
            "chason {} vs serpens {}",
            chason.stream_cycles(),
            serpens.stream_cycles()
        );
        assert!(report.cycles_after < report.cycles_before);
        assert_contract(&chason, &m);
    }

    /// A matrix of one value per listed row, all in column 0: PE-aware
    /// scheduling gives each lane its rows in ascending order, one per
    /// cycle.
    fn one_value_per_row(rows: usize, listed: impl IntoIterator<Item = usize>) -> CooMatrix {
        let triplets = listed.into_iter().map(|r| (r, 0, 1.0 + r as f32)).collect();
        CooMatrix::from_triplets(rows, 1, triplets).unwrap()
    }

    fn channel_lengths(s: &ScheduledMatrix) -> Vec<usize> {
        s.channels.iter().map(ChannelSchedule::cycles).collect()
    }

    /// The quota is a 1/hop share of every private value left in the
    /// source, movable or not. Channel 0 (rows 0, 1 mod 6) holds 20 values
    /// over 10 cycles and channel 1 (rows 2, 3 mod 6) 8 over 4; channel 2
    /// is empty. The 2-hop pass into channel 1 may take ceil(20 / 2) = 10
    /// values, and takes 6 before the tails meet the free slots; the 10
    /// values past its first free cycle (4) would allow only 5. Likewise
    /// channel 2 takes 4 of channel 1's 8 values, where a quota from the
    /// 6 it can move would allow 3.
    #[test]
    fn the_quota_counts_values_that_cannot_move() {
        let config = SchedulerConfig {
            migration_hops: 2,
            ..SchedulerConfig::toy(3, 2, 2)
        };
        let rows = (0..10)
            .flat_map(|i| [6 * i, 6 * i + 1])
            .chain((0..4).flat_map(|i| [6 * i + 2, 6 * i + 3]));
        let m = one_value_per_row(60, rows);
        let pe_aware = PeAware::new().schedule(&m, &config);
        assert_eq!(channel_lengths(&pe_aware), [10, 4, 0]);
        let (s, report) = migrated(&pe_aware);
        assert_contract(&s, &m);
        assert_eq!(
            report,
            MigrationReport {
                migrated: 14,
                stalls_before: 32,
                stalls_after: 14,
                raw_skips: 0,
                cycles_before: 10,
                cycles_after: 7,
            }
        );
        assert_eq!(channel_lengths(&s), [5, 7, 4]);
        let migrants = |ch: usize| {
            s.channels[ch]
                .occupied()
                .filter(|(_, _, nz)| !nz.pvt)
                .count()
        };
        assert_eq!((migrants(0), migrants(1), migrants(2)), (0, 6, 8));
    }

    /// Channel 0 is full through cycle 9, past channel 1's last value
    /// (cycle 5), so the pass into channel 0 offers nothing, exactly as the
    /// unpruned pass moved nothing. The pass into channel 1 then moves
    /// channel 0's four values past cycle 7.
    #[test]
    fn a_destination_full_past_the_source_moves_nothing() {
        let config = SchedulerConfig::toy(2, 2, 2);
        let lane = |offset: usize, count: usize| (0..count).map(move |i| 4 * i + offset);
        let rows = lane(0, 12)
            .chain(lane(1, 10))
            .chain(lane(2, 6))
            .chain(lane(3, 6));
        let m = one_value_per_row(48, rows);
        let pe_aware = PeAware::new().schedule(&m, &config);
        assert_eq!(channel_lengths(&pe_aware), [12, 6]);
        let (s, report) = migrated(&pe_aware);
        assert_contract(&s, &m);
        assert_eq!(
            report,
            MigrationReport {
                migrated: 4,
                stalls_before: 14,
                stalls_after: 2,
                raw_skips: 0,
                cycles_before: 12,
                cycles_after: 9,
            }
        );
        assert_eq!(channel_lengths(&s), [9, 8]);
        assert!(s.channels[0].occupied().all(|(_, _, nz)| nz.pvt));
    }
}
