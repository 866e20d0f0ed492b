//! Quickstart: schedule a sparse matrix with CrHCS, execute it on the
//! Chasoň engine, and compare against the Serpens baseline.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use chason::baselines::reference;
use chason::core::schedule::{Crhcs, PeAware, Scheduler, SchedulerConfig};
use chason::sim::{Accelerator, AcceleratorConfig};
use chason::sparse::generators::power_law;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A skewed 2048x2048 matrix with 30k non-zeros — the regime where
    // intra-channel scheduling starves PEs.
    let matrix = power_law(2048, 2048, 30_000, 1.7, 42);
    let x: Vec<f32> = (0..matrix.cols())
        .map(|i| 1.0 + (i % 10) as f32 * 0.1)
        .collect();

    // 1. Offline scheduling: PE-aware (Serpens) vs CrHCS (Chasoň).
    let config = SchedulerConfig::paper();
    let serpens_schedule = PeAware::new().schedule(&matrix, &config);
    let chason_schedule = Crhcs::new().schedule(&matrix, &config);
    println!("== offline scheduling (16 channels x 8 PEs, D = 10) ==");
    println!(
        "pe-aware : {:6} cycles, {:7} stalls, {:5.1}% PE underutilization",
        serpens_schedule.stream_cycles(),
        serpens_schedule.stalls(),
        serpens_schedule.underutilization() * 100.0
    );
    println!(
        "crhcs    : {:6} cycles, {:7} stalls, {:5.1}% PE underutilization",
        chason_schedule.stream_cycles(),
        chason_schedule.stalls(),
        chason_schedule.underutilization() * 100.0
    );

    // 2. Architecture simulation: run both engines end to end.
    let chason = Accelerator::new(AcceleratorConfig::chason()).run(&matrix, &x)?;
    let serpens = Accelerator::new(AcceleratorConfig::serpens()).run(&matrix, &x)?;
    println!("\n== simulated execution ==");
    for exec in [&serpens, &chason] {
        println!(
            "{:8}: {:.3} ms | {:.2} GFLOPS | {:.2} MB streamed",
            exec.engine,
            exec.latency_ms(),
            exec.throughput_gflops(),
            exec.bytes_streamed as f64 / 1e6
        );
    }
    println!(
        "\nspeedup {:.2}x, transfer reduction {:.2}x",
        serpens.latency_seconds() / chason.latency_seconds(),
        serpens.bytes_streamed as f64 / chason.bytes_streamed as f64
    );

    // 3. Functional correctness: both engines must agree with the CPU
    //    reference within FP32 reassociation tolerance.
    let reference = reference::spmv(&matrix, &x);
    let err_c = reference::max_relative_error(&chason.y, &reference);
    let err_s = reference::max_relative_error(&serpens.y, &reference);
    println!("max relative error vs reference: chason {err_c:.2e}, serpens {err_s:.2e}");
    assert!(
        err_c < 1e-4 && err_s < 1e-4,
        "engines disagree with the reference"
    );
    Ok(())
}
