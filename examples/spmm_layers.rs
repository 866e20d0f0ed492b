//! SpMM extension (§7.2): a sparse "GNN-style" layer stack,
//! `H' = A · H · (scaling)`, where the adjacency matrix A is sparse and the
//! feature matrix H is dense — the workload family Sextans targets and
//! §7.2 extends Chasoň toward.
//!
//! ```sh
//! cargo run --release --example spmm_layers
//! ```

use chason::sim::spmm::reference_spmm;
use chason::sim::{Accelerator, AcceleratorConfig};
use chason::sparse::generators::power_law;
use chason::sparse::DenseMatrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A social-graph adjacency (SNAP-like) and 32 dense feature columns.
    let n = 2048;
    let features = 32;
    let adjacency = power_law(n, n, 40_000, 1.6, 21);
    let mut h = DenseMatrix::from_fn(n, features, |r, c| {
        ((r * 31 + c * 17) % 64) as f32 / 64.0 - 0.5
    });

    let chason = Accelerator::new(AcceleratorConfig::chason());
    let serpens = Accelerator::new(AcceleratorConfig::serpens());
    let zero = DenseMatrix::zeros(n, features);

    let mut chason_time = 0.0f64;
    let mut serpens_time = 0.0f64;
    for layer in 1..=3 {
        let exec = chason.run_spmm(&adjacency, &h, 0.5, 0.0, &zero)?;
        chason_time += exec.latency_seconds();
        serpens_time += serpens
            .run_spmm(&adjacency, &h, 0.5, 0.0, &zero)?
            .latency_seconds();

        // Verify the layer against the dense oracle before proceeding.
        let oracle = reference_spmm(&adjacency, &h, 0.5, 0.0, &zero);
        let diff = exec.c.max_abs_diff(&oracle);
        println!(
            "layer {layer}: {} tiles, {:.1} M MACs, {:.3} ms, {:.2} GFLOPS (oracle diff {diff:.2e})",
            exec.tiles,
            exec.mac_ops as f64 / 1e6,
            exec.latency_seconds() * 1e3,
            exec.throughput_gflops(),
        );
        assert!(diff < 1e-2, "layer {layer} diverged from the oracle");
        h = exec.c;
    }

    println!(
        "\n3-layer propagation: chason {:.3} ms vs serpens {:.3} ms ({:.2}x)",
        chason_time * 1e3,
        serpens_time * 1e3,
        serpens_time / chason_time
    );
    Ok(())
}
