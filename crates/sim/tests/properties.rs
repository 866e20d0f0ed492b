//! Property-based and failure-injection tests of the architecture model.

use chason_core::schedule::{
    ChannelSchedule, Crhcs, NzSlot, PeAware, ScheduledMatrix, Scheduler, SchedulerConfig,
};
use chason_sim::{replay_schedule, AcceleratorConfig, ChasonEngine, SerpensEngine, SimError};
use chason_sparse::CooMatrix;
use chason_testutil::sparse_matrix;
use proptest::prelude::*;

fn matrix_strategy() -> impl Strategy<Value = CooMatrix> {
    sparse_matrix(48, 120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's MAC counter always equals the matrix's non-zero count:
    /// no element is dropped or processed twice, under any configuration.
    #[test]
    fn mac_count_equals_nnz(
        m in matrix_strategy(),
        channels in 1usize..4,
        pes in 1usize..5,
        d in 1usize..12,
        hops in 1usize..3,
    ) {
        let hops = hops.min(channels.saturating_sub(1)).max(1);
        let sched = SchedulerConfig {
            migration_hops: hops,
            ..SchedulerConfig::toy(channels, pes, d)
        };
        prop_assume!(sched.is_valid());
        let config = AcceleratorConfig { sched, ..AcceleratorConfig::chason() };
        let x = vec![1.0f32; m.cols()];
        let exec = ChasonEngine::new(config).run(&m, &x).expect("run succeeds");
        prop_assert_eq!(exec.mac_ops as usize, m.nnz());
        prop_assert_eq!(exec.y.len(), m.rows());
    }

    /// Chasoň's stream never exceeds Serpens' for the same problem and
    /// parallelism (CrHCS starts from the PE-aware schedule and only trims).
    #[test]
    fn chason_stream_never_longer(m in matrix_strategy(), channels in 2usize..4, pes in 1usize..5) {
        let sched = SchedulerConfig::toy(channels, pes, 6);
        let chason = ChasonEngine::new(AcceleratorConfig { sched, ..AcceleratorConfig::chason() });
        let serpens = SerpensEngine::new(AcceleratorConfig { sched, ..AcceleratorConfig::serpens() });
        let x = vec![0.5f32; m.cols()];
        let ce = chason.run(&m, &x).expect("chason runs");
        let se = serpens.run(&m, &x).expect("serpens runs");
        prop_assert!(ce.cycles.stream <= se.cycles.stream);
        prop_assert!(ce.bytes_streamed <= se.bytes_streamed);
    }
}

/// A schedule of `rows × cols` under `sched` streaming only `slots`, each
/// `(channel, cycle, lane, non-zero)`.
fn hand_schedule(
    sched: SchedulerConfig,
    rows: usize,
    cols: usize,
    slots: &[(usize, usize, usize, NzSlot)],
) -> ScheduledMatrix {
    let mut channels: Vec<_> = (0..sched.channels)
        .map(|c| ChannelSchedule::new(c, sched.pes_per_channel))
        .collect();
    for &(c, cycle, lane, nz) in slots {
        channels[c].insert(cycle, lane, nz);
    }
    ScheduledMatrix {
        config: sched,
        channels,
        rows,
        cols,
        nnz: slots.len(),
    }
}

fn migrant(value: f32, row: usize, col: usize, pe_src: u8) -> NzSlot {
    NzSlot {
        value,
        row,
        col,
        pvt: false,
        pe_src,
    }
}

/// Failure injection: the Router refuses every slot the hardware cannot
/// route instead of silently corrupting a partial sum. Under `toy(C, 2, _)`
/// row `r` belongs to channel `(r % 2C) / 2`, lane `r % 2`; every case
/// streams one slot from channel 0 at cycle 0 on the given lane.
#[test]
fn misrouted_slots_are_routing_violations() {
    let two = SchedulerConfig::toy(2, 2, 4);
    let three = SchedulerConfig::toy(3, 2, 4);
    let hop2 = SchedulerConfig {
        migration_hops: 2,
        ..three
    };
    let pvt = |row| NzSlot::private(1.0, row, 0);
    let mig = |row, pe_src| migrant(1.0, row, 0, pe_src);
    let wide = NzSlot { col: 3, ..pvt(0) };
    let cases = [
        (two, 0, pvt(1), "private element of row 1 reached PE (0, 0)"),
        (two, 0, pvt(2), "private element of row 2 reached PE (0, 0)"),
        (two, 0, mig(0, 0), "migrated inside its home channel 0"),
        // PE_src past the ScUG, and past the PEs into a later hop's banks.
        (two, 1, mig(2, 2), "(hop 1, PE_src 2) reached PE (0, 1)"),
        (hop2, 1, mig(2, 2), "(hop 1, PE_src 2) reached PE (0, 1)"),
        // Two hops on a one-hop datapath.
        (three, 0, mig(4, 0), "(hop 2, PE_src 0) reached PE (0, 0)"),
        (two, 2, pvt(0), "slot for lane 2 reached PEG 0 of 2 PEs"),
        (two, 0, wide, "element of column 3 reached PEG 0"),
        (two, 0, pvt(8), "row 8 reached PE (0, 0) in a pass"),
    ];
    for (sched, lane, nz, expected) in cases {
        let schedule = hand_schedule(sched, 8, 3, &[(0, 0, lane, nz)]);
        match replay_schedule(&schedule, &[1.0; 3]) {
            Err(SimError::RoutingViolation(msg)) => assert!(msg.contains(expected), "{msg}"),
            other => panic!("{expected}: {other:?}"),
        }
    }
}

/// Each PE multiplies by its window's `x` word and accumulates in its own
/// banks; the Reduction Unit sums every PE's bank for a source lane, and the
/// Merger adds that sum to the home PE's private sum in the ring successor.
#[test]
fn shared_banks_merge_into_the_ring_successor() {
    let sched = SchedulerConfig::toy(2, 2, 4);
    let x = [1.0, 10.0, 20.0];
    let slots = [
        // Row 2 (channel 1, lane 0): 100·1 private, plus 5·10 and 7·20
        // migrated into both PEs of channel 0.
        (1, 0, 0, NzSlot::private(100.0, 2, 0)),
        (0, 0, 0, migrant(5.0, 2, 1, 0)),
        (0, 1, 1, migrant(7.0, 2, 2, 0)),
        // Row 7 (channel 1, lane 1, local row 1): migrated only.
        (0, 1, 0, migrant(0.5, 7, 0, 1)),
        // Row 5 (channel 0, lane 1, local row 1): private only.
        (0, 2, 1, NzSlot::private(3.0, 5, 2)),
        // Row 0 (channel 0, lane 0) migrated into channel 1: on a
        // two-channel ring channel 1 precedes channel 0 as well.
        (1, 1, 1, migrant(0.25, 0, 1, 0)),
    ];
    let y = replay_schedule(&hand_schedule(sched, 8, 3, &slots), &x).unwrap();
    assert_eq!(y, [2.5, 0.0, 290.0, 0.0, 0.0, 60.0, 0.0, 0.5]);
}

/// The merged `y` of real schedules equals the CPU reference on both
/// datapath flavours (CrHCS through the ScUGs, PE-aware through `URAM_pvt`
/// only), and on one channel, which has no ring neighbour to merge from.
#[test]
fn real_schedules_replay_to_the_reference() {
    let m = chason_sparse::generators::arrow_with_nnz(512, 3, 4, 6_000, 7);
    let x: Vec<f32> = (0..m.cols()).map(|i| 0.5 + (i % 5) as f32).collect();
    let want = m.spmv(&x);
    for sched in [
        SchedulerConfig::toy(2, 4, 10),
        SchedulerConfig::toy(1, 2, 4),
    ] {
        for schedule in [
            PeAware::new().schedule(&m, &sched),
            Crhcs::new().schedule(&m, &sched),
        ] {
            let y = replay_schedule(&schedule, &x).unwrap();
            for (row, (a, b)) in y.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-3 * b.abs().max(1.0),
                    "{sched:?} row {row}: {a} vs {b}"
                );
            }
        }
    }
}
