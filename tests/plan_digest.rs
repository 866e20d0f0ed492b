//! Plan-digest goldens: the CHPL bytes of Chasoň and Serpens plans (all but
//! the header's version and matrix fingerprint), and the CHSN bytes of a
//! row-split schedule, are pinned as FNV-1a digests for
//! inputs that stress the scheduler's corner cases. A faster scheduler must
//! reproduce every plan byte for byte, so these digests only change when
//! the scheduling policy itself changes on purpose. SpMM runs are pinned
//! the same way: their modeled cycles, streamed bytes, tile count and the
//! bits of `C` for both engines at several dense widths. SpMV replay is
//! pinned by the bits of `run_planned`'s `y` on multi-hop, row-partitioned
//! and sim-spmv-sized inputs, so any change to the replay kernel's
//! accumulation order shows up here.
//!
//! CrHCS's migration statistics are pinned per column window as well: the
//! `MigrationReport` of every window of the digest matrices.
//!
//! The 16384² SPD case mirrors the size of the end-to-end benchmark's
//! `sim-spmv` matrix and is `#[ignore]`d in debug runs; run it with
//! `cargo test --release --test plan_digest -- --include-ignored`.

use chason_core::export::{write_plan, write_schedule};
use chason_core::schedule::{
    migrated, HybridRowSplit, MigrationReport, Scheduler, SchedulerConfig,
};
use chason_sim::{Accelerator, AcceleratorConfig};
use chason_sparse::generators::{power_law, uniform_random};
use chason_sparse::{CooMatrix, DenseMatrix};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a CHPL file without bytes 4..16, its format version and the
/// matrix fingerprint: both name the format and the matrix hash, not the
/// schedule, so the digest moves only when a plan byte does.
fn chpl_digest(bytes: &[u8]) -> u64 {
    fnv1a(&[&bytes[..4], &bytes[16..]].concat())
}

/// `(chason, serpens)` CHPL digests of `matrix` under `sched`.
fn plan_digests(matrix: &CooMatrix, sched: SchedulerConfig) -> (u64, u64) {
    let chason = Accelerator::new(AcceleratorConfig {
        sched,
        ..AcceleratorConfig::chason()
    });
    let serpens = Accelerator::new(AcceleratorConfig {
        sched,
        ..AcceleratorConfig::serpens()
    });
    let digest = |plan| {
        let mut bytes = Vec::new();
        write_plan(&mut bytes, &plan).unwrap();
        chpl_digest(&bytes)
    };
    (
        digest(chason.plan_with_threads(matrix, 1).unwrap()),
        digest(serpens.plan_with_threads(matrix, 1).unwrap()),
    )
}

fn assert_digests(matrix: &CooMatrix, sched: SchedulerConfig, expected: (u64, u64)) {
    let got = plan_digests(matrix, sched);
    assert_eq!(
        got, expected,
        "plan bytes changed: got (chason, serpens) = ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

/// A power-law matrix plus one hub row long enough that its RAW chain
/// outlives every other row of its lane: the lane spends most of its
/// stream in stall runs behind the hub.
fn hub_matrix() -> CooMatrix {
    let mut triplets = power_law(2048, 2048, 30_000, 1.9, 11).triplets().to_vec();
    triplets.extend(
        (0..2048)
            .step_by(2)
            .map(|c| (130, c, 0.5 + c as f32 / 4096.0)),
    );
    CooMatrix::from_triplets_summing(2048, 2048, triplets).unwrap()
}

/// Symmetric power-law pattern with a strictly dominant diagonal.
fn spd_matrix(n: usize, pattern_nnz: usize, seed: u64) -> CooMatrix {
    let pattern = power_law(n, n, pattern_nnz, 1.6, seed);
    let mut triplets = Vec::with_capacity(2 * pattern.nnz() + n);
    let mut row_sum = vec![0.0f32; n];
    for (k, &(i, j, _)) in pattern.iter().enumerate() {
        if i == j {
            continue;
        }
        let v = 0.05 + (k % 400) as f32 / 1000.0;
        triplets.push((i, j, v));
        triplets.push((j, i, v));
        row_sum[i] += v;
        row_sum[j] += v;
    }
    for (i, &sum) in row_sum.iter().enumerate() {
        triplets.push((i, i, sum + 1.0));
    }
    CooMatrix::from_triplets_summing(n, n, triplets).unwrap()
}

#[test]
fn hub_row_with_long_stall_runs() {
    assert_digests(
        &hub_matrix(),
        SchedulerConfig::paper(),
        (0x9c581e9386a47242, 0x3ed7f02a2717d0ea),
    );
}

#[test]
fn matrix_wider_than_one_window() {
    let m = uniform_random(3000, 20_000, 40_000, 5);
    assert_digests(
        &m,
        SchedulerConfig::paper(),
        (0x71a9e12851c46393, 0xa9fceacd3248c5f7),
    );
}

/// Only rows 16k and 16k + 3 carry entries: under the paper's 128 PEs,
/// lanes 0 and 3 of every other channel are busy and the rest are empty.
fn sparse_lanes_matrix() -> CooMatrix {
    let mut triplets = Vec::new();
    for r in (0..1024).flat_map(|r| [16 * r, 16 * r + 3]) {
        for k in 0..1 + r % 7 {
            triplets.push((r, (r * 31 + k * 97) % 4096, 1.0 + k as f32));
        }
    }
    CooMatrix::from_triplets_summing(16_384, 4096, triplets).unwrap()
}

#[test]
fn lanes_with_no_rows() {
    assert_digests(
        &sparse_lanes_matrix(),
        SchedulerConfig::paper(),
        (0x3ebf2e8f9384371b, 0x2e593d8363a7e7ee),
    );
}

#[test]
fn unit_dependency_distance() {
    let m = power_law(256, 256, 3000, 1.8, 3);
    assert_digests(
        &m,
        SchedulerConfig::toy(4, 4, 1),
        (0xc826f104224c0287, 0xcc70598f0e0d60a6),
    );
}

#[test]
fn multi_hop_migration() {
    let sched = SchedulerConfig {
        migration_hops: 3,
        ..SchedulerConfig::paper()
    };
    assert_digests(
        &hub_matrix(),
        sched,
        (0xf86214b539cf3281, 0xb7d090ff921e5052),
    );
}

#[test]
fn migration_scan_limit_one() {
    let sched = SchedulerConfig {
        migration_scan_limit: 1,
        ..SchedulerConfig::paper()
    };
    assert_digests(
        &hub_matrix(),
        sched,
        (0x24346dc82a3a7e94, 0x4e80702827372f12),
    );
}

#[test]
fn migration_scan_limit_three() {
    let sched = SchedulerConfig {
        migration_scan_limit: 3,
        ..SchedulerConfig::paper()
    };
    assert_digests(
        &hub_matrix(),
        sched,
        (0x024f03068aeb67d0, 0x21f2c19918720a16),
    );
}

#[test]
fn odd_toy_geometry() {
    // Five channels of three lanes: P is not a power of two and the ring
    // wraps at an odd channel count.
    let m = power_law(600, 600, 6000, 1.8, 17);
    assert_digests(
        &m,
        SchedulerConfig::toy(5, 3, 6),
        (0x5d5dba7c8b1efa76, 0xcb6f95d3c5012b46),
    );
}

#[test]
fn two_hop_migration() {
    let sched = SchedulerConfig {
        migration_hops: 2,
        ..SchedulerConfig::paper()
    };
    assert_digests(
        &hub_matrix(),
        sched,
        (0x0f13fb69af80f23e, 0xb069f0182b4eb6f8),
    );
}

#[test]
fn row_split_schedule() {
    let config = SchedulerConfig::paper();
    let m = hub_matrix();
    let schedule = HybridRowSplit::auto(&m, &config).schedule(&m, &config);
    let mut bytes = Vec::new();
    write_schedule(&mut bytes, &schedule).unwrap();
    assert_eq!(
        fnv1a(&bytes),
        0x8430061744107dc4,
        "got {:#018x}",
        fnv1a(&bytes)
    );
}

#[test]
#[ignore = "sim-spmv-sized; run in release with --include-ignored"]
fn sim_spmv_sized_spd_matrix() {
    let m = spd_matrix(16_384, 120_000, 2);
    assert_digests(
        &m,
        SchedulerConfig::paper(),
        (0x538d9e654647e398, 0xe5a6c64332d037a6),
    );
    assert_spmv_digests(
        &m,
        SchedulerConfig::paper(),
        (0xb3898fb92e507218, 0xd481cd06c5cab4c5),
    );
    assert_migration_reports(
        &m,
        SchedulerConfig::paper(),
        &[
            [36346, 539986, 25938, 119975, 5218, 1202],
            [36117, 534378, 26858, 120172, 5178, 1213],
        ],
    );
}

/// `(chason, serpens)` digests of the bits of `y = A·x` replayed from a
/// serially built plan of `matrix` under `sched`.
fn spmv_digests(matrix: &CooMatrix, sched: SchedulerConfig) -> (u64, u64) {
    // Mixed signs and magnitudes, so a changed summation order changes bits.
    let x: Vec<f32> = (0..matrix.cols())
        .map(|i| ((i * 7 + 3) % 13) as f32 * 0.375 - 2.0)
        .collect();
    let digest = |y: Vec<f32>| {
        let bytes: Vec<u8> = y.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        fnv1a(&bytes)
    };
    let chason = Accelerator::new(AcceleratorConfig {
        sched,
        ..AcceleratorConfig::chason()
    });
    let serpens = Accelerator::new(AcceleratorConfig {
        sched,
        ..AcceleratorConfig::serpens()
    });
    let chason_plan = chason.plan_with_threads(matrix, 1).unwrap();
    let serpens_plan = serpens.plan_with_threads(matrix, 1).unwrap();
    (
        digest(chason.run_planned(&chason_plan, &x).unwrap().y),
        digest(serpens.run_planned(&serpens_plan, &x).unwrap().y),
    )
}

fn assert_spmv_digests(matrix: &CooMatrix, sched: SchedulerConfig, expected: (u64, u64)) {
    let got = spmv_digests(matrix, sched);
    assert_eq!(
        got, expected,
        "SpMV y bits changed: got (chason, serpens) = ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn spmv_y_two_hop_migration() {
    let sched = SchedulerConfig {
        migration_hops: 2,
        ..SchedulerConfig::paper()
    };
    assert_spmv_digests(
        &hub_matrix(),
        sched,
        (0x1aa444aa31a5d5e2, 0xa00400ab094dc1c9),
    );
}

#[test]
fn spmv_y_three_hop_migration() {
    let sched = SchedulerConfig {
        migration_hops: 3,
        ..SchedulerConfig::paper()
    };
    assert_spmv_digests(
        &hub_matrix(),
        sched,
        (0xf38a93a3912600f9, 0xa00400ab094dc1c9),
    );
}

#[test]
fn spmv_y_row_partitioned_toy_geometry() {
    // Three channels of two lanes hold 6 × 8192 rows per pass, so 60 000
    // rows replay as two row-partition passes over three column windows.
    let m = power_law(60_000, 20_000, 50_000, 1.7, 23);
    let sched = SchedulerConfig::toy(3, 2, 5);
    let plan = Accelerator::new(AcceleratorConfig {
        sched,
        ..AcceleratorConfig::chason()
    })
    .plan_with_threads(&m, 1)
    .unwrap();
    assert_eq!(plan.passes.len(), 2);
    assert_spmv_digests(&m, sched, (0xcdb18b3dc1dc8d76, 0x8488b36375e735cb));
}

/// Digest of `C = 1.5·A·B + 0.5·C0` on both engines for a `width`-column
/// `B`: `(chason, serpens)`, each over the cycle breakdown,
/// `bytes_streamed`, `tiles` and the bits of `C`.
fn spmm_digests(width: usize) -> (u64, u64) {
    // Three column windows of a skewed matrix: x reload, fill/drain and
    // the Reduction Unit all scale with the tile count.
    let a = power_law(2000, 20_000, 30_000, 1.8, 9);
    let b = DenseMatrix::from_fn(a.cols(), width, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.25);
    let c0 = DenseMatrix::from_fn(a.rows(), width, |r, c| ((r + c) % 5) as f32 - 2.0);
    let digest = |exec: chason_sim::SpmmExecution| {
        let cy = exec.cycles;
        let mut bytes = Vec::new();
        for word in [
            cy.stream,
            cy.fill_drain,
            cy.x_reload,
            cy.reduction,
            cy.merge,
            cy.invocation,
            exec.bytes_streamed,
            exec.tiles as u64,
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        for v in exec.c.data() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        fnv1a(&bytes)
    };
    let chason = Accelerator::new(AcceleratorConfig::chason()).run_spmm(&a, &b, 1.5, 0.5, &c0);
    let serpens = Accelerator::new(AcceleratorConfig::serpens()).run_spmm(&a, &b, 1.5, 0.5, &c0);
    (digest(chason.unwrap()), digest(serpens.unwrap()))
}

fn assert_spmm_digests(width: usize, expected: (u64, u64)) {
    let got = spmm_digests(width);
    assert_eq!(
        got, expected,
        "SpMM at N = {width} changed: got (chason, serpens) = ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn spmm_single_column() {
    assert_spmm_digests(1, (0xb83bade832b41947, 0x326b7c42dd5c0888));
}

#[test]
fn spmm_one_full_tile() {
    assert_spmm_digests(8, (0x8846ee4b462f2a37, 0x72620cbae76a8603));
}

#[test]
fn spmm_three_tiles() {
    assert_spmm_digests(24, (0x36aecc7fe2afa153, 0x9e41e2497a40391f));
}

/// The CrHCS [`MigrationReport`] of every column window of `matrix` under
/// `sched`, in (pass, window) order, as `[migrated, stalls_before,
/// stalls_after, raw_skips, cycles_before, cycles_after]`: each window of
/// the Serpens plan, migrated.
fn migration_reports(matrix: &CooMatrix, sched: SchedulerConfig) -> Vec<[usize; 6]> {
    Accelerator::new(AcceleratorConfig {
        sched,
        ..AcceleratorConfig::serpens()
    })
    .plan_with_threads(matrix, 1)
    .unwrap()
    .passes
    .iter()
    .flat_map(|p| &p.windows)
    .map(|w| report_row(&migrated(&w.schedule).1))
    .collect()
}

fn report_row(r: &MigrationReport) -> [usize; 6] {
    [
        r.migrated,
        r.stalls_before,
        r.stalls_after,
        r.raw_skips,
        r.cycles_before,
        r.cycles_after,
    ]
}

fn assert_migration_reports(matrix: &CooMatrix, sched: SchedulerConfig, expected: &[[usize; 6]]) {
    assert_eq!(migration_reports(matrix, sched), expected);
}

#[test]
fn migration_reports_of_every_digest_window() {
    let hub = hub_matrix();
    let paper = SchedulerConfig::paper();
    let hops = |migration_hops| SchedulerConfig {
        migration_hops,
        ..paper
    };
    let scan = |migration_scan_limit| SchedulerConfig {
        migration_scan_limit,
        ..paper
    };
    let hub_report = |migrated, stalls_after, raw_skips, cycles_after| {
        [[
            migrated,
            1278545,
            stalls_after,
            raw_skips,
            10231,
            cycles_after,
        ]]
    };
    assert_migration_reports(&hub, paper, &hub_report(24164, 115025, 122579, 1141));
    assert_migration_reports(&hub, hops(2), &hub_report(24993, 85329, 110851, 909));
    assert_migration_reports(&hub, hops(3), &hub_report(25359, 83665, 107320, 896));
    assert_migration_reports(&hub, scan(1), &hub_report(20131, 115025, 38548, 1141));
    assert_migration_reports(&hub, scan(3), &hub_report(22309, 115025, 86859, 1141));
    assert_migration_reports(
        &uniform_random(3000, 20_000, 40_000, 5),
        paper,
        &[
            [868, 12820, 660, 166, 227, 132],
            [894, 9341, 893, 121, 202, 136],
            [621, 6703, 431, 80, 109, 60],
        ],
    );
    assert_migration_reports(
        &sparse_lanes_matrix(),
        paper,
        &[[6543, 57858, 4994, 58, 516, 103]],
    );
    assert_migration_reports(
        &power_law(256, 256, 3000, 1.8, 3),
        SchedulerConfig::toy(4, 4, 1),
        &[[685, 2504, 152, 0, 344, 197]],
    );
    assert_migration_reports(
        &power_law(600, 600, 6000, 1.8, 17),
        SchedulerConfig::toy(5, 3, 6),
        &[[2599, 12990, 1725, 3120, 1266, 515]],
    );
    // Two row-partition passes of three windows each.
    assert_migration_reports(
        &power_law(60_000, 20_000, 50_000, 1.7, 23),
        SchedulerConfig::toy(3, 2, 5),
        &[
            [1124, 3987, 837, 235, 3275, 2750],
            [1141, 4815, 639, 194, 3443, 2747],
            [513, 1876, 370, 61, 1481, 1230],
            [1560, 5258, 686, 773, 1658, 896],
            [1560, 5298, 738, 751, 1670, 910],
            [667, 2614, 286, 567, 781, 393],
        ],
    );
}
