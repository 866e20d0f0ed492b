//! The sharding law behind the router: row-block sharded SpMV equals
//! single-instance SpMV.
//!
//! Stated without sockets, through the composition the router runs: for
//! any matrix and any shard count, slicing the rows with
//! [`ShardSpec::slice`], letting each shard plan and run its own slice, and
//! reducing the partials with [`ShardSpec::gather`] yields the same vector
//! as one full-matrix plan — bit-identical on the CPU reference (slicing
//! preserves per-row accumulation order) and ULP-equivalent on the modeled
//! engines (whose column windows re-associate sums within a slice).

use chason_conformance::ulp::{compare, row_scales, UlpTolerance};
use chason_sim::{Accelerator, AcceleratorConfig};
use chason_sparse::shard::ShardSpec;
use chason_sparse::CooMatrix;
use chason_testutil::{archetype_corpus, dense_x, sparse_matrix_nonempty};
use proptest::prelude::*;

fn check_engine(
    engine: &Accelerator,
    name: &str,
    matrix: &CooMatrix,
    spec: &ShardSpec,
    x: &[f32],
    scales: &[f32],
) {
    let full_plan = engine.plan(matrix).expect("full plan");
    let full = engine.run_planned(&full_plan, x).expect("full run");
    let partials: Vec<Vec<f32>> = (0..spec.shards())
        .map(|k| {
            let slice = spec.slice(matrix, k).expect("slice");
            let plan = engine.plan(&slice).expect("shard plan");
            engine.run_planned(&plan, x).expect("shard run").y
        })
        .collect();
    let sharded = spec.gather(&partials).expect("gather");
    let rejects = compare(&full.y, &sharded, scales, &UlpTolerance::default());
    assert!(
        rejects.is_empty(),
        "{name}: sharded result diverges from full run over {} shards at {} rows: {:?}",
        spec.shards(),
        matrix.rows(),
        &rejects[..rejects.len().min(5)]
    );
}

fn check_all(matrix: &CooMatrix, shards: usize) {
    let shards = shards.clamp(1, matrix.rows());
    let spec = ShardSpec::nnz_balanced(matrix, shards).expect("nnz-balanced spec");
    let x = dense_x(matrix.cols());
    let scales = row_scales(matrix, &x);

    // CPU reference: slicing preserves the per-row accumulation order, so
    // the gathered vector is bit-identical, not merely close.
    let full_cpu = matrix.spmv(&x);
    let partials: Vec<Vec<f32>> = (0..spec.shards())
        .map(|k| spec.slice(matrix, k).expect("slice").spmv(&x))
        .collect();
    let gathered = spec.gather(&partials).expect("gather");
    assert_eq!(
        full_cpu.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        gathered.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "cpu gather must be bit-identical over {shards} shards"
    );

    check_engine(
        &Accelerator::new(AcceleratorConfig::chason()),
        "chason",
        matrix,
        &spec,
        &x,
        &scales,
    );
    check_engine(
        &Accelerator::new(AcceleratorConfig::serpens()),
        "serpens",
        matrix,
        &spec,
        &x,
        &scales,
    );
}

#[test]
fn archetype_corpus_obeys_the_sharding_law() {
    for (name, matrix) in archetype_corpus() {
        for shards in [1, 2, 3, 5] {
            if matrix.nnz() == 0 {
                continue;
            }
            eprintln!("corpus {name}: {shards} shards");
            check_all(&matrix, shards);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_matrices_obey_the_sharding_law(
        matrix in sparse_matrix_nonempty(40, 200),
        shards in 1usize..5,
    ) {
        check_all(&matrix, shards);
    }
}
