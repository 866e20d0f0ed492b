//! Ablation (§2.1/§2.2): the full scheduler family — row-based, PE-aware
//! (Serpens), HiSpMV-style hybrid row splitting, and CrHCS — across
//! imbalance regimes. Row splitting fixes intra-channel hub rows; only
//! CrHCS also fixes inter-channel imbalance.
use chason_core::metrics::{windowed_metrics, windowed_metrics_pe_aware_and_crhcs};
use chason_core::schedule::{HybridRowSplit, RowBased, SchedulerConfig};
use chason_sparse::generators::{arrow_with_nnz, power_law, uniform_random};
use chason_sparse::CooMatrix;

fn main() {
    let config = SchedulerConfig::paper();
    let window = chason_core::element::WINDOW;
    let workloads: Vec<(&str, CooMatrix)> = vec![
        ("balanced (uniform)", uniform_random(4096, 4096, 80_000, 3)),
        ("skewed (power-law)", power_law(4096, 4096, 80_000, 1.7, 3)),
        ("hub rows (arrow)", arrow_with_nnz(4096, 4, 16, 80_000, 3)),
    ];
    println!("Ablation — scheduler family (PE underutilization %, lower is better)\n");
    println!(
        "{:22} {:>10} {:>10} {:>10} {:>10}",
        "workload", "row-based", "pe-aware", "row-split", "crhcs"
    );
    for (name, m) in &workloads {
        let rb = windowed_metrics(&RowBased::new(), m, &config, window).underutilization_pct();
        let (pa, ch) = windowed_metrics_pe_aware_and_crhcs(m, &config, window);
        let (pa, ch) = (pa.underutilization_pct(), ch.underutilization_pct());
        let rs = windowed_metrics(&HybridRowSplit::auto(m, &config), m, &config, window)
            .underutilization_pct();
        println!("{name:22} {rb:>9.1}% {pa:>9.1}% {rs:>9.1}% {ch:>9.1}%");
    }
    println!("\n(row splitting needs HiSpMV's intra-PEG adder tree; it is a\n metrics-level baseline, not executable on the Chason datapath)");
}
