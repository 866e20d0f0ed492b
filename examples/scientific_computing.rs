//! Scientific computing on the accelerator: a Jacobi iterative solver whose
//! inner kernel is SpMV over a stage-structured optimal-control-style
//! system — the SuiteSparse half of the paper's evaluation.
//!
//! Solves `A·u = b` for a diagonally dominant arrow-structured system,
//! running every iteration's SpMV on the Chasoň engine and verifying the
//! final residual on the CPU.
//!
//! ```sh
//! cargo run --example scientific_computing
//! ```

use chason::baselines::reference;
use chason::sim::{Accelerator, AcceleratorConfig};
use chason::sparse::generators::arrow_with_nnz;
use chason::sparse::CooMatrix;

/// Makes an arrow matrix strictly diagonally dominant so Jacobi converges:
/// every diagonal entry is set to (row L1 norm + 1).
fn diagonally_dominant(base: &CooMatrix) -> CooMatrix {
    let n = base.rows();
    let mut row_norm = vec![0.0f32; n];
    for &(r, c, v) in base.iter() {
        if r != c {
            row_norm[r] += v.abs();
        }
    }
    let mut triplets: Vec<(usize, usize, f32)> =
        base.iter().filter(|&&(r, c, _)| r != c).copied().collect();
    for (r, &norm) in row_norm.iter().enumerate() {
        triplets.push((r, r, norm + 1.0));
    }
    CooMatrix::from_triplets(n, n, triplets).expect("coordinates stay valid")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A lowThrust-style stage-structured system.
    let n = 4000;
    let base = arrow_with_nnz(n, 6, 4, 60_000, 11);
    let a = diagonally_dominant(&base);
    println!("system: {} unknowns, {} non-zeros", n, a.nnz());

    // Ground-truth solution and right-hand side b = A·u*.
    let u_star: Vec<f32> = (0..n).map(|i| ((i % 17) as f32 - 8.0) * 0.25).collect();
    let b = reference::spmv(&a, &u_star);

    // Jacobi: u' = u + D^-1 (b - A·u). Extract the diagonal.
    let mut diag = vec![0.0f32; n];
    for &(r, c, v) in a.iter() {
        if r == c {
            diag[r] = v;
        }
    }

    let engine = Accelerator::new(AcceleratorConfig::chason());
    let mut u = vec![0.0f32; n];
    let mut simulated_time = 0.0f64;
    let b_norm: f64 = b
        .iter()
        .map(|&v| (v as f64) * (v as f64))
        .sum::<f64>()
        .sqrt();

    for iteration in 1..=60 {
        let exec = engine.run(&a, &u)?;
        simulated_time += exec.latency_seconds();
        let mut residual_norm = 0.0f64;
        for i in 0..n {
            let r = b[i] - exec.y[i];
            residual_norm += (r as f64) * (r as f64);
            u[i] += r / diag[i];
        }
        let rel = residual_norm.sqrt() / b_norm;
        if iteration % 10 == 0 || rel < 1e-6 {
            println!("iteration {iteration:2}: relative residual {rel:.3e}");
        }
        if rel < 1e-6 {
            break;
        }
    }

    // Verify against the CPU reference solution.
    let final_residual = {
        let ax = reference::spmv(&a, &u);
        let mut num = 0.0f64;
        for i in 0..n {
            let r = (b[i] - ax[i]) as f64;
            num += r * r;
        }
        num.sqrt() / b_norm
    };
    println!("\nfinal CPU-verified relative residual: {final_residual:.3e}");
    println!(
        "total simulated accelerator time: {:.3} ms",
        simulated_time * 1e3
    );
    assert!(final_residual < 1e-4, "Jacobi failed to converge");
    Ok(())
}
