//! Property-based and failure-injection tests of the architecture model.

use chason_core::schedule::{Crhcs, NzSlot, PeAware, Scheduler, SchedulerConfig};
use chason_sim::{AcceleratorConfig, ChasonEngine, Peg, SerpensEngine};
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

/// Failure injection: hand the Chasoň PEG a slot whose `pvt` flag was
/// corrupted (claims to be private but belongs to another channel's row).
/// The Router must refuse instead of silently corrupting a partial sum.
#[test]
fn corrupted_pvt_flag_is_caught() {
    let sched = SchedulerConfig::toy(2, 2, 4);
    let mut peg = Peg::new(0, 2, 16, 8, 2).unwrap();
    peg.load_x(&[1.0; 16]);
    // Row 2 belongs to channel 1; claim it is private to channel 0.
    let corrupted = NzSlot {
        value: 1.0,
        row: 2,
        col: 0,
        pvt: true,
        pe_src: 0,
    };
    let err = peg.consume_slot(0, &corrupted, &sched, None).unwrap_err();
    assert!(err.to_string().contains("routing violation"), "{err}");
}

/// Failure injection: a migrated element whose home channel equals the
/// streaming channel is structurally impossible; the Router must refuse.
#[test]
fn migrated_flag_inside_home_channel_is_caught() {
    let sched = SchedulerConfig::toy(2, 2, 4);
    let mut peg = Peg::new(0, 2, 16, 8, 2).unwrap();
    peg.load_x(&[1.0; 16]);
    // Row 0 belongs to channel 0, but the slot claims it migrated.
    let corrupted = NzSlot {
        value: 1.0,
        row: 0,
        col: 0,
        pvt: false,
        pe_src: 0,
    };
    let err = peg.consume_slot(0, &corrupted, &sched, None).unwrap_err();
    assert!(err.to_string().contains("home channel"), "{err}");
}

/// Failure injection: running a CrHCS schedule on the Serpens datapath
/// (no ScUGs) must fail loudly whenever migration actually happened —
/// mirrors §4.4's point that Serpens cannot support cross-channel data.
#[test]
fn crhcs_schedule_on_serpens_hardware_is_rejected() {
    let sched = SchedulerConfig::toy(2, 2, 4);
    // A matrix that forces migration: all rows on channel 1, many values.
    let t: Vec<_> = (0..30)
        .map(|i| (2 + (i % 2) + 4 * (i / 2), i % 8, 1.0 + i as f32))
        .collect();
    let m = CooMatrix::from_triplets(64, 8, t).unwrap();
    let schedule = Crhcs::new().schedule(&m, &sched);
    let migrated = schedule
        .channels
        .iter()
        .flat_map(|c| c.occupied())
        .any(|(_, _, nz)| !nz.pvt);
    assert!(migrated, "test needs actual migration");
    // Serpens-style PEG: scug_size = 0.
    let mut peg0 = Peg::new(0, 2, 32, 16, 0).unwrap();
    peg0.load_x(&[1.0; 8]);
    let mut failed = false;
    for (_, lane, nz) in schedule.channels[0].occupied() {
        if peg0.consume_slot(lane, nz, &sched, None).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "Serpens hardware must reject migrated elements");
}

/// Failure injection: a hand-built schedule that violates the RAW distance
/// (two values of one row on one PE in consecutive cycles) trips the PEs'
/// pipeline-hazard detector.
#[test]
fn raw_violating_schedule_trips_the_hazard_detector() {
    let sched = SchedulerConfig::toy(1, 1, 10);
    let mut peg = Peg::new(0, 1, 8, 8, 0).unwrap();
    peg.load_x(&[1.0; 8]);
    let v1 = NzSlot::private(1.0, 0, 0);
    let v2 = NzSlot::private(2.0, 0, 1);
    peg.consume_slot(0, &v1, &sched, Some(0)).unwrap();
    peg.consume_slot(0, &v2, &sched, Some(1)).unwrap();
    assert_eq!(
        peg.hazards(),
        1,
        "back-to-back same-row values must be flagged"
    );
    // A third value at the full distance is fine.
    let v3 = NzSlot::private(3.0, 0, 2);
    peg.consume_slot(0, &v3, &sched, Some(11)).unwrap();
    assert_eq!(peg.hazards(), 1);
}

/// Every scheduler's real output executes hazard-free (the detector stays
/// at zero when driven by the actual schedulers).
#[test]
fn real_schedules_are_hazard_free() {
    let sched = SchedulerConfig::toy(2, 4, 10);
    let m = chason_sparse::generators::arrow_with_nnz(512, 3, 4, 6_000, 7);
    for schedule in [
        PeAware::new().schedule(&m, &sched),
        Crhcs::new().schedule(&m, &sched),
    ] {
        let mut pegs: Vec<Peg> = (0..2)
            .map(|c| Peg::new(c, 4, 512, 64, 8).unwrap())
            .collect();
        for peg in &mut pegs {
            peg.load_x(&vec![1.0; 512]);
        }
        for (c, channel) in schedule.channels.iter().enumerate() {
            for (cycle, lane, nz) in channel.occupied() {
                pegs[c]
                    .consume_slot(lane, nz, &sched, Some(cycle as u64))
                    .unwrap();
            }
        }
        let hazards: u64 = pegs.iter().map(Peg::hazards).sum();
        assert_eq!(hazards, 0, "scheduler produced a hazardous stream");
    }
}

/// The PE-aware scheduler's output on Serpens hardware is always accepted
/// (the complementary positive case).
#[test]
fn pe_aware_schedule_on_serpens_hardware_is_accepted() {
    let sched = SchedulerConfig::toy(2, 2, 4);
    let m = chason_sparse::generators::uniform_random(64, 8, 100, 3);
    let schedule = PeAware::new().schedule(&m, &sched);
    for (ch, channel) in schedule.channels.iter().enumerate() {
        let mut peg = Peg::new(ch, 2, 32, 16, 0).unwrap();
        peg.load_x(&[1.0; 8]);
        for (_, lane, nz) in channel.occupied() {
            peg.consume_slot(lane, nz, &sched, None)
                .expect("private-only schedule runs");
        }
    }
}
