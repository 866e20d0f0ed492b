//! PE-occupancy profile: how busy the 128 PEs are over the stream, for
//! Serpens vs Chasoň — the time-resolved view behind the paper's Eq. 4
//! scalar.
//!
//! ```sh
//! cargo run --release --example occupancy_profile
//! ```

use chason::sim::profile::busy_pes_per_beat;
use chason::sim::{Accelerator, AcceleratorConfig, SimError};
use chason::sparse::generators::arrow_with_nnz;

/// Downsamples an occupancy trace into `buckets` means (fraction of busy
/// PEs per bucket).
fn profile(occupancy: &[u16], total_pes: f64, buckets: usize) -> Vec<f64> {
    if occupancy.is_empty() {
        return vec![0.0; buckets];
    }
    let chunk = occupancy.len().div_ceil(buckets);
    occupancy
        .chunks(chunk)
        .map(|c| c.iter().map(|&b| b as f64).sum::<f64>() / (c.len() as f64 * total_pes))
        .collect()
}

fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .iter()
        .map(|&v| LEVELS[((v * 7.0).round() as usize).min(7)])
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A hub-heavy optimal-control-style matrix: the worst case for
    // intra-channel scheduling.
    let matrix = arrow_with_nnz(4096, 4, 12, 60_000, 3);
    let x = vec![1.0f32; 4096];
    // Plans each design, runs the plan, and counts its busy PEs per beat.
    let occupancy = |engine: &Accelerator| -> Result<_, SimError> {
        let plan = engine.plan(&matrix)?;
        let exec = engine.run_planned(&plan, &x)?;
        Ok((exec.engine, busy_pes_per_beat(&plan)))
    };
    let serpens = occupancy(&Accelerator::new(AcceleratorConfig::serpens()))?;
    let chason = occupancy(&Accelerator::new(AcceleratorConfig::chason()))?;
    let total_pes = 128.0;

    println!("matrix: 4096 x 4096, {} nnz (12 hub rows)\n", matrix.nnz());
    for (engine, busy) in [&serpens, &chason] {
        let p = profile(busy, total_pes, 64);
        let mean = p.iter().sum::<f64>() / p.len() as f64;
        println!(
            "{:8} | {} | stream {:6} cycles, mean occupancy {:4.1}%",
            engine,
            sparkline(&p),
            busy.len(),
            mean * 100.0
        );
    }
    println!(
        "\nSerpens idles through the hub rows' RAW chains; CrHCS's migrated\n\
         values keep the other PEGs busy, compressing the same work into\n\
         {:.1}x fewer stream cycles.",
        serpens.1.len() as f64 / chason.1.len().max(1) as f64
    );
    Ok(())
}
