//! Fig. 14 — Chasoň vs GPU/CPU baselines over the corpus: latency speedup
//! (top) and energy-efficiency gain (bottom).
//!
//! Paper targets: geomean speedups ≈4× (RTX 4090), ≈1.28× (RTX A6000),
//! <1 (i9); peak speedups 20.33× / 11.65× / 2.67×; peak energy-efficiency
//! gains 34.72× / 19.48× / 14.61×; peak throughputs 30.23 / 19.83 / 44.20
//! / 23.88 GFLOPS for Chasoň / 4090 / A6000 / i9.

use chason_baselines::cpu::core_i9_11980hk;
use chason_baselines::gpu::{rtx4090, rtx_a6000};
use chason_baselines::DeviceModel;
use chason_core::metrics::geometric_mean;
use chason_sim::power::MeasuredPower;
use chason_sim::{Accelerator, AcceleratorConfig};
use chason_sparse::datasets::corpus;
use serde::{Deserialize, Serialize};

/// Aggregate comparison against one baseline device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceComparison {
    /// Baseline device name.
    pub device: String,
    /// Geometric-mean latency speedup of Chasoň over the device.
    pub geomean_speedup: f64,
    /// Peak latency speedup.
    pub peak_speedup: f64,
    /// Geometric-mean energy-efficiency gain.
    pub geomean_energy_gain: f64,
    /// Peak energy-efficiency gain.
    pub peak_energy_gain: f64,
    /// Peak baseline throughput observed, in GFLOPS.
    pub peak_device_gflops: f64,
}

/// Result of the Fig. 14 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig14Result {
    /// Matrices evaluated.
    pub matrices: usize,
    /// Peak Chasoň throughput observed, in GFLOPS.
    pub peak_chason_gflops: f64,
    /// One comparison per baseline device.
    pub devices: Vec<DeviceComparison>,
}

/// Runs Chasoň and the three device models over `count` corpus matrices.
pub fn run(count: usize, seed: u64) -> Fig14Result {
    run_specs(&corpus(count, seed))
}

/// Runs the comparison over an explicit spec list.
pub fn run_specs(specs: &[chason_sparse::datasets::CorpusSpec]) -> Fig14Result {
    let engine = Accelerator::new(AcceleratorConfig::chason());
    let chason_power = MeasuredPower::chason();
    let devices: Vec<DeviceModel> = vec![rtx4090(), rtx_a6000(), core_i9_11980hk()];
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); devices.len()];
    let mut energy_gains: Vec<Vec<f64>> = vec![Vec::new(); devices.len()];
    let mut peak_device = vec![0.0f64; devices.len()];
    let mut peak_chason = 0.0f64;
    let mut evaluated = 0usize;

    for spec in specs {
        let matrix = spec.generate();
        let x = vec![1.0f32; matrix.cols()];
        let exec = match engine.run(&matrix, &x) {
            Ok(e) => e,
            Err(_) => continue, // capacity-exceeded shapes are skipped
        };
        evaluated += 1;
        let chason_latency = exec.latency_seconds();
        let chason_gflops = exec.throughput_gflops();
        let chason_eff = chason_power.energy_efficiency(chason_gflops);
        peak_chason = peak_chason.max(chason_gflops);
        for (i, dev) in devices.iter().enumerate() {
            let p = dev.predict(matrix.rows(), matrix.cols(), matrix.nnz());
            speedups[i].push(p.latency_s / chason_latency);
            if p.energy_efficiency > 0.0 {
                energy_gains[i].push(chason_eff / p.energy_efficiency);
            }
            peak_device[i] = peak_device[i].max(p.throughput_gflops);
        }
    }

    let devices = devices
        .into_iter()
        .enumerate()
        .map(|(i, dev)| DeviceComparison {
            device: dev.name.to_string(),
            geomean_speedup: geometric_mean(&speedups[i]),
            peak_speedup: speedups[i].iter().cloned().fold(0.0, f64::max),
            geomean_energy_gain: geometric_mean(&energy_gains[i]),
            peak_energy_gain: energy_gains[i].iter().cloned().fold(0.0, f64::max),
            peak_device_gflops: peak_device[i],
        })
        .collect();

    Fig14Result {
        matrices: evaluated,
        peak_chason_gflops: peak_chason,
        devices,
    }
}

/// Renders the comparison table.
pub fn report(r: &Fig14Result) -> String {
    let rows: Vec<Vec<String>> = r
        .devices
        .iter()
        .map(|d| {
            vec![
                d.device.clone(),
                format!("{:.2}x", d.geomean_speedup),
                format!("{:.2}x", d.peak_speedup),
                format!("{:.2}x", d.geomean_energy_gain),
                format!("{:.2}x", d.peak_energy_gain),
                format!("{:.2}", d.peak_device_gflops),
            ]
        })
        .collect();
    let mut out = format!(
        "Fig. 14 — Chason vs GPU/CPU baselines over {} matrices\n\
         (paper: geomean speedup ~4x / ~1.28x / <1x; peaks 20.33x / 11.65x / 2.67x;\n\
          peak energy gains 34.72x / 19.48x / 14.61x)\n\n",
        r.matrices
    );
    out.push_str(&crate::util::format_table(
        &[
            "baseline",
            "gm speedup",
            "peak",
            "gm energy",
            "peak",
            "peak GFLOPS",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "\npeak Chason throughput: {:.2} GFLOPS (paper: 30.23)\n",
        r.peak_chason_gflops
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_specs(count: usize, seed: u64) -> Vec<chason_sparse::datasets::CorpusSpec> {
        corpus(count, seed)
            .into_iter()
            .filter(|s| s.nnz <= 60_000)
            .collect()
    }

    #[test]
    fn shape_holds_on_a_small_corpus() {
        let r = run_specs(&small_specs(14, 11));
        assert!(r.matrices > 0);
        let g4090 = &r.devices[0];
        let a6000 = &r.devices[1];
        let i9 = &r.devices[2];
        // The 4090 is the weakest baseline, the i9 the strongest.
        assert!(
            g4090.geomean_speedup > a6000.geomean_speedup,
            "4090 {} vs A6000 {}",
            g4090.geomean_speedup,
            a6000.geomean_speedup
        );
        assert!(a6000.geomean_speedup > i9.geomean_speedup);
        // Chasoň beats the 4090 on average.
        assert!(g4090.geomean_speedup > 1.0);
        // Energy efficiency gains are large everywhere (39 W vs 65-132 W).
        for d in &r.devices {
            assert!(
                d.geomean_energy_gain > 1.0,
                "{}: {}",
                d.device,
                d.geomean_energy_gain
            );
        }
    }

    #[test]
    fn peak_speedup_exceeds_geomean() {
        let r = run_specs(&small_specs(10, 2));
        for d in &r.devices {
            assert!(d.peak_speedup >= d.geomean_speedup);
        }
    }

    #[test]
    fn report_mentions_all_devices() {
        let s = report(&run_specs(&small_specs(6, 1)));
        assert!(s.contains("RTX 4090"));
        assert!(s.contains("RTX A6000"));
        assert!(s.contains("i9-11980HK"));
    }
}
