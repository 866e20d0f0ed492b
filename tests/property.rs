//! Property-based tests over the core invariants, spanning crates.

use chason::baselines::reference;
use chason::core::element::SparseElement;
use chason::core::schedule::{
    Crhcs, HybridRowSplit, PeAware, RowBased, ScheduledMatrix, Scheduler, SchedulerConfig,
};
use chason::sim::{Accelerator, AcceleratorConfig};
use chason::sparse::CooMatrix;
use chason_testutil::{config_grid, sparse_matrix, toy_config};
use chason_verify::verify_scheduler_contract;
use proptest::prelude::*;

/// Every channel's length and every occupied slot's position: channel,
/// cycle, lane, row, col, `pvt` and `PE_src` — everything but the value.
#[allow(clippy::type_complexity)]
fn slot_positions(
    s: &ScheduledMatrix,
) -> (
    Vec<usize>,
    Vec<(usize, usize, usize, usize, usize, bool, u8)>,
) {
    let lengths = s.channels.iter().map(|ch| ch.cycles()).collect();
    let slots = s
        .channels
        .iter()
        .flat_map(|ch| {
            ch.occupied().map(move |(cycle, lane, nz)| {
                (ch.channel, cycle, lane, nz.row, nz.col, nz.pvt, nz.pe_src)
            })
        })
        .collect();
    (lengths, slots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scheduling reads only the sparsity pattern: a copy of the matrix
    /// with every value scrambled (and still non-zero) schedules to the
    /// same slot positions, for every scheduler over the configuration
    /// grid at 1–3 migration hops.
    #[test]
    fn scheduling_is_value_invariant(m in sparse_matrix(48, 200), salt in any::<u64>()) {
        let scrambled: Vec<(usize, usize, f32)> = m
            .triplets()
            .iter()
            .enumerate()
            .map(|(i, &(r, c, _))| {
                let h = (i as u64 ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let magnitude = (1 + (h >> 40) % 4_000) as f32 * 0.125;
                (r, c, if h >> 63 == 0 { magnitude } else { -magnitude })
            })
            .collect();
        let scrambled = CooMatrix::from_triplets(m.rows(), m.cols(), scrambled)
            .expect("same coordinates as a valid matrix");
        let split = HybridRowSplit::default();
        for base in config_grid() {
            for hops in 1..=3 {
                let cfg = SchedulerConfig { migration_hops: hops, ..base };
                if !cfg.is_valid() {
                    continue;
                }
                for scheduler in [&RowBased::new() as &dyn Scheduler, &PeAware::new(), &split, &Crhcs::new()] {
                    prop_assert_eq!(
                        slot_positions(&scheduler.schedule(&m, &cfg)),
                        slot_positions(&scheduler.schedule(&scrambled, &cfg)),
                        "{} at {:?}", scheduler.name(), cfg
                    );
                }
            }
        }
    }

    /// The wire codec round-trips every representable element.
    #[test]
    fn element_codec_round_trips(
        bits in any::<u32>().prop_filter("value must not collide with the stall word", |b| *b != 0),
        row in 0u16..32_768,
        pvt in any::<bool>(),
        pe_src in 0u8..8,
        col in 0u16..8_192,
    ) {
        let e = SparseElement { value: f32::from_bits(bits), local_row: row, pvt, pe_src, local_col: col };
        let unpacked = SparseElement::unpack(e.pack()).expect("non-stall word");
        prop_assert_eq!(unpacked.value.to_bits(), e.value.to_bits());
        prop_assert_eq!(unpacked.local_row, e.local_row);
        prop_assert_eq!(unpacked.pvt, e.pvt);
        prop_assert_eq!(unpacked.pe_src, e.pe_src);
        prop_assert_eq!(unpacked.local_col, e.local_col);
    }

    /// Every scheduler conserves non-zeros and respects RAW distances.
    #[test]
    fn schedulers_uphold_invariants(m in sparse_matrix(48, 160), cfg in toy_config()) {
        let row_split = HybridRowSplit::auto(&m, &cfg);
        for scheduler in [&RowBased::new() as &dyn Scheduler, &PeAware::new(), &Crhcs::new(), &row_split] {
            let s = scheduler.schedule(&m, &cfg);
            prop_assert_eq!(s.scheduled_nonzeros(), m.nnz());
            let report = verify_scheduler_contract(&s, &m);
            prop_assert!(report.is_clean(), "{} violated:\n{}", scheduler.name(), report);
        }
    }

    /// CrHCS never increases underutilization or stream length relative to
    /// the PE-aware baseline it starts from.
    #[test]
    fn crhcs_never_regresses(m in sparse_matrix(48, 160), cfg in toy_config()) {
        let base = PeAware::new().schedule(&m, &cfg);
        let improved = Crhcs::new().schedule(&m, &cfg);
        prop_assert!(improved.stream_cycles() <= base.stream_cycles());
        prop_assert!(improved.underutilization() <= base.underutilization() + 1e-12);
    }

    /// Both simulated engines agree with the CPU reference on arbitrary
    /// inputs (FP32 reassociation tolerance).
    #[test]
    fn engines_match_reference(m in sparse_matrix(40, 120), xs in proptest::collection::vec(-4.0f32..4.0, 40)) {
        let x: Vec<f32> = (0..m.cols()).map(|i| xs[i % xs.len()]).collect();
        let oracle = reference::spmv(&m, &x);
        let chason = Accelerator::new(AcceleratorConfig::chason()).run(&m, &x).expect("chason runs");
        let serpens = Accelerator::new(AcceleratorConfig::serpens()).run(&m, &x).expect("serpens runs");
        prop_assert!(reference::max_relative_error(&chason.y, &oracle) < 1e-3);
        prop_assert!(reference::max_relative_error(&serpens.y, &oracle) < 1e-3);
    }

    /// Planning then executing reproduces direct execution *bit for bit* —
    /// result vector, cycle breakdown, traffic, and stall accounting alike —
    /// for both engine families.
    #[test]
    fn planned_execution_is_bit_identical(m in sparse_matrix(48, 200), xs in proptest::collection::vec(-4.0f32..4.0, 48)) {
        let x: Vec<f32> = (0..m.cols()).map(|i| xs[i % xs.len()]).collect();
        let chason = Accelerator::new(AcceleratorConfig::chason());
        let direct = chason.run(&m, &x).expect("chason runs");
        let planned = chason
            .run_planned(&chason.plan(&m).expect("chason plans"), &x)
            .expect("chason replays");
        prop_assert_eq!(direct, planned);
        let serpens = Accelerator::new(AcceleratorConfig::serpens());
        let direct = serpens.run(&m, &x).expect("serpens runs");
        let planned = serpens
            .run_planned(&serpens.plan(&m).expect("serpens plans"), &x)
            .expect("serpens replays");
        prop_assert_eq!(direct, planned);
    }

    /// Parallel window planning produces the same plan as serial planning
    /// for any thread count: workers own disjoint contiguous window chunks
    /// and results are reassembled in window order.
    #[test]
    fn parallel_planning_matches_serial(m in sparse_matrix(48, 200), threads in 2usize..9) {
        // A small window width forces several windows even on small inputs.
        let engine = Accelerator::new(AcceleratorConfig {
            window: 16,
            ..AcceleratorConfig::chason()
        });
        let serial = engine.plan_with_threads(&m, 1).expect("serial plan");
        let parallel = engine.plan_with_threads(&m, threads).expect("parallel plan");
        prop_assert_eq!(serial, parallel);
    }

    /// Windowing covers every entry exactly once for arbitrary widths.
    #[test]
    fn windows_partition_entries(m in sparse_matrix(40, 150), width in 1usize..64) {
        let windows = chason::core::window::partition_columns(&m, width);
        let total: usize = windows.iter().map(|w| w.matrix.nnz()).sum();
        prop_assert_eq!(total, m.nnz());
        for w in &windows {
            prop_assert!(w.width() <= width);
        }
    }
}
