//! Ablation (§7.2): SpMM scaling — cycles and throughput vs dense-column
//! count N for both engines (stream cycles scale with ceil(N / 8) tiles).
use chason_sim::{Accelerator, AcceleratorConfig};
use chason_sparse::generators::power_law;
use chason_sparse::DenseMatrix;

fn main() {
    let a = power_law(2048, 2048, 30_000, 1.7, 5);
    let chason = Accelerator::new(AcceleratorConfig::chason());
    let serpens = Accelerator::new(AcceleratorConfig::serpens());
    println!("Ablation — SpMM dense-column scaling (A: 2048x2048, 30k nnz)\n");
    println!(
        "{:>4} {:>6} {:>12} {:>12} {:>9} {:>9}",
        "N", "tiles", "chason cyc", "serpens cyc", "GF chason", "speedup"
    );
    for n in [1usize, 8, 16, 32, 64, 128] {
        let b = DenseMatrix::from_fn(2048, n, |r, c| ((r + c) % 7) as f32 * 0.25);
        let c0 = DenseMatrix::zeros(2048, n);
        #[allow(clippy::expect_used)] // fixed in-range ablation inputs
        let ce = chason.run_spmm(&a, &b, 1.0, 0.0, &c0).expect("chason runs");
        let se = serpens.run_spmm(&a, &b, 1.0, 0.0, &c0);
        #[allow(clippy::expect_used)] // fixed in-range ablation inputs
        let se = se.expect("serpens runs");
        println!(
            "{:>4} {:>6} {:>12} {:>12} {:>9.2} {:>8.2}x",
            n,
            ce.tiles,
            ce.cycles.total(),
            se.cycles.total(),
            ce.throughput_gflops(),
            se.latency_seconds() / ce.latency_seconds()
        );
    }
}
