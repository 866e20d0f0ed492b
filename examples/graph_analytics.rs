//! Graph analytics on the accelerator: PageRank-style power iteration over
//! a SNAP-like social graph, the workload family motivating the paper's
//! SNAP half of Table 2.
//!
//! Each PageRank iteration is one SpMV (`rank' = d·Aᵀ·rank + (1-d)/n`), so
//! accelerator speedup compounds across iterations. The example runs the
//! iteration on the Chasoň engine and reports convergence plus the
//! accumulated simulated time against Serpens.
//!
//! ```sh
//! cargo run --example graph_analytics
//! ```

use chason::sim::{Accelerator, AcceleratorConfig};
use chason::sparse::generators::power_law;
use chason::sparse::stats::row_stats;
use chason::sparse::CooMatrix;

/// Column-normalizes the adjacency transpose so each column sums to 1
/// (the "out-degree" normalization of PageRank).
fn normalize_columns(graph: &CooMatrix) -> CooMatrix {
    let mut col_sums = vec![0.0f32; graph.cols()];
    for &(_, c, v) in graph.iter() {
        col_sums[c] += v.abs();
    }
    let triplets = graph
        .iter()
        .map(|&(r, c, v)| (r, c, v.abs() / col_sums[c].max(1e-12)))
        .collect();
    CooMatrix::from_triplets(graph.rows(), graph.cols(), triplets)
        .expect("normalization preserves coordinates")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A wiki-Vote-scale power-law graph (Table 2's WI row).
    let n = 8192;
    let graph = power_law(n, n, 103_689, 1.6, 7);
    let stats = row_stats(&graph);
    println!(
        "graph: {} nodes, {} edges, max degree {}, gini {:.2}",
        n,
        graph.nnz(),
        stats.max_row_nnz,
        stats.gini
    );

    let matrix = normalize_columns(&graph);
    let damping = 0.85f32;
    let chason = Accelerator::new(AcceleratorConfig::chason());
    let serpens = Accelerator::new(AcceleratorConfig::serpens());

    let mut rank = vec![1.0f32 / n as f32; n];
    let mut chason_time = 0.0f64;
    let mut serpens_time = 0.0f64;
    let teleport = (1.0 - damping) / n as f32;

    for iteration in 1..=20 {
        let exec = chason.run(&matrix, &rank)?;
        chason_time += exec.latency_seconds();
        // Accumulate what the baseline would have spent on the same SpMV.
        serpens_time += serpens.run(&matrix, &rank)?.latency_seconds();

        let next: Vec<f32> = exec.y.iter().map(|&v| damping * v + teleport).collect();
        let delta: f32 = next.iter().zip(&rank).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
        if iteration % 5 == 0 || delta < 1e-7 {
            println!("iteration {iteration:2}: L1 delta {delta:.3e}");
        }
        if delta < 1e-7 {
            break;
        }
    }

    let mut top: Vec<(usize, f32)> = rank.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("ranks are finite"));
    println!("\ntop-5 ranked nodes:");
    for (node, score) in top.iter().take(5) {
        println!("  node {node:5}: {score:.5}");
    }

    println!(
        "\nsimulated SpMV time: chason {:.3} ms vs serpens {:.3} ms ({:.2}x)",
        chason_time * 1e3,
        serpens_time * 1e3,
        serpens_time / chason_time
    );
    Ok(())
}
