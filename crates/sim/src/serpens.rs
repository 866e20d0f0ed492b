//! The Serpens baseline engine (§4.4).

use crate::config::AcceleratorConfig;

/// The Serpens streaming SpMV accelerator (Song et al., DAC 2022) — the
/// paper's primary baseline.
///
/// Serpens schedules each window with the intra-channel PE-aware OoO scheme
/// and executes on PEGs whose PEs have only a private partial-sum URAM: no
/// ScUGs, no Reduction Unit, and an Arbiter/Merger that merely concatenates
/// private streams. Its U55c implementation closes timing at 223 MHz
/// (§5.2). Running a CrHCS schedule on this engine is a routing violation —
/// the hardware cannot segregate migrated partial sums.
#[derive(Debug, Clone)]
pub struct SerpensEngine {
    config: AcceleratorConfig,
}

impl SerpensEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        SerpensEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Serpens PEs carry no ScUG.
    pub(crate) fn scug_size(&self) -> usize {
        0
    }
}

impl Default for SerpensEngine {
    fn default() -> Self {
        SerpensEngine::new(AcceleratorConfig::serpens())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChasonEngine;
    use chason_sparse::generators::{power_law, uniform_random};

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!(
                (x - y).abs() / scale < 1e-4,
                "row {i}: {x} vs {y} differ beyond FP reassociation tolerance"
            );
        }
    }

    #[test]
    fn result_matches_reference() {
        let m = uniform_random(300, 300, 2500, 7);
        let x: Vec<f32> = (0..300).map(|i| (i as f32 * 0.11).cos()).collect();
        let exec = SerpensEngine::default().run(&m, &x).unwrap();
        assert_close(&exec.y, &m.spmv(&x));
        assert_eq!(exec.engine, "serpens");
        assert_eq!(exec.cycles.reduction, 0, "serpens has no reduction unit");
    }

    #[test]
    fn both_engines_agree_on_the_same_problem() {
        let m = power_law(600, 600, 5000, 1.7, 31);
        let x: Vec<f32> = (0..600).map(|i| 0.25 + (i % 13) as f32 * 0.5).collect();
        let chason = ChasonEngine::default().run(&m, &x).unwrap();
        let serpens = SerpensEngine::default().run(&m, &x).unwrap();
        assert_close(&chason.y, &serpens.y);
    }

    #[test]
    fn chason_streams_no_more_cycles_than_serpens() {
        let m = power_law(1000, 1000, 8000, 1.8, 5);
        let x = vec![1.0f32; 1000];
        let chason = ChasonEngine::default().run(&m, &x).unwrap();
        let serpens = SerpensEngine::default().run(&m, &x).unwrap();
        assert!(chason.cycles.stream <= serpens.cycles.stream);
        assert!(chason.bytes_streamed <= serpens.bytes_streamed);
        assert!(chason.underutilization <= serpens.underutilization);
    }

    #[test]
    fn serpens_is_slower_in_wall_clock_on_skewed_input() {
        let m = power_law(2000, 2000, 10_000, 1.9, 9);
        let x = vec![1.0f32; 2000];
        let chason = ChasonEngine::default().run(&m, &x).unwrap();
        let serpens = SerpensEngine::default().run(&m, &x).unwrap();
        assert!(
            chason.latency_seconds() < serpens.latency_seconds(),
            "chason {} s vs serpens {} s",
            chason.latency_seconds(),
            serpens.latency_seconds()
        );
    }
}
