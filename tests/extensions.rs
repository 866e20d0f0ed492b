//! Integration tests for the paper's extension features: multi-hop
//! migration (§6.1), SpMM (§7.2), and row partitioning (§4.5).

use chason::baselines::reference;
use chason::core::schedule::{Crhcs, PeAware, Scheduler, SchedulerConfig};
use chason::sim::spmm::reference_spmm;
use chason::sim::{Accelerator, AcceleratorConfig};
use chason::sparse::generators::{arrow_with_nnz, power_law};
use chason::sparse::DenseMatrix;

fn hops_config(hops: usize) -> SchedulerConfig {
    SchedulerConfig {
        migration_hops: hops,
        ..SchedulerConfig::paper()
    }
}

/// Multi-hop migration preserves every scheduler invariant and keeps
/// improving (or at least not regressing) the schedule.
#[test]
fn multi_hop_scheduling_is_sound_and_monotone() {
    let matrix = arrow_with_nnz(2048, 4, 8, 30_000, 11);
    let baseline = PeAware::new().schedule(&matrix, &hops_config(1));
    let mut prev = baseline.underutilization();
    for hops in 1..=3 {
        let config = hops_config(hops);
        let s = Crhcs::new().schedule(&matrix, &config);
        s.validate(&matrix)
            .unwrap_or_else(|e| panic!("hops = {hops}: {e}"));
        let u = s.underutilization();
        assert!(u <= prev + 1e-12, "hops {hops} regressed: {u} > {prev}");
        prev = u;
    }
}

/// The engine executes multi-hop schedules correctly: migrated partial sums
/// from *two* donor channels route through distinct ScUG bank groups and
/// still reduce to the right rows.
#[test]
fn multi_hop_execution_matches_reference() {
    let matrix = arrow_with_nnz(1500, 4, 6, 20_000, 13);
    let x: Vec<f32> = (0..1500).map(|i| 0.5 + (i % 11) as f32 * 0.125).collect();
    let oracle = reference::spmv(&matrix, &x);
    for hops in 1..=3 {
        let config = AcceleratorConfig {
            sched: hops_config(hops),
            ..AcceleratorConfig::chason()
        };
        let exec = Accelerator::new(config).run(&matrix, &x).unwrap();
        let err = reference::max_relative_error(&exec.y, &oracle);
        assert!(err < 1e-3, "hops = {hops}: error {err}");
        assert_eq!(exec.mac_ops as usize, matrix.nnz());
    }
}

/// SpMM on both engines agrees with the dense oracle, including the α/β
/// scaling, and Chasoň is no slower than Serpens.
#[test]
fn spmm_extension_end_to_end() {
    let a = power_law(400, 400, 3_000, 1.7, 3);
    let b = DenseMatrix::from_fn(400, 20, |r, c| ((r + 3 * c) % 9) as f32 * 0.25 - 1.0);
    let c0 = DenseMatrix::from_fn(400, 20, |r, c| ((r ^ c) % 4) as f32);
    let oracle = reference_spmm(&a, &b, 1.25, -0.5, &c0);

    let chason = Accelerator::new(AcceleratorConfig::chason())
        .run_spmm(&a, &b, 1.25, -0.5, &c0)
        .unwrap();
    let serpens = Accelerator::new(AcceleratorConfig::serpens())
        .run_spmm(&a, &b, 1.25, -0.5, &c0)
        .unwrap();
    assert!(chason.c.max_abs_diff(&oracle) < 1e-2);
    assert!(serpens.c.max_abs_diff(&oracle) < 1e-2);
    assert_eq!(chason.tiles, 3);
    assert_eq!(chason.mac_ops, 3_000 * 20);
    assert!(chason.latency_seconds() <= serpens.latency_seconds());
}

/// Row partitioning composes with windowing: a matrix that is both too tall
/// (URAM capacity) and too wide (several column windows) still executes
/// correctly.
#[test]
fn partitioned_and_windowed_execution_composes() {
    use chason::sparse::generators::uniform_random;
    // Tiny machine: 2 channels x 2 PEs, capacity forces 3 row passes; the
    // 20_000 columns force 3 column windows per pass.
    let config = AcceleratorConfig {
        sched: SchedulerConfig::toy(2, 2, 4),
        ..AcceleratorConfig::chason()
    };
    let matrix = uniform_random(70_000, 20_000, 40_000, 17);
    let x: Vec<f32> = (0..20_000).map(|i| ((i % 13) as f32) * 0.2).collect();
    let exec = Accelerator::new(config)
        .run_partitioned(&matrix, &x)
        .unwrap();
    let oracle = reference::spmv(&matrix, &x);
    let err = reference::max_relative_error(&exec.y, &oracle);
    assert!(err < 1e-3, "error {err}");
    assert!(
        exec.windows >= 9,
        "expected >= 3 passes x 3 windows, got {}",
        exec.windows
    );
}
