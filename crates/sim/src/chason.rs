//! The Chasoň accelerator engine (§4).

use crate::config::AcceleratorConfig;

/// The Chasoň streaming SpMV accelerator.
///
/// Chasoň schedules each column window like Serpens, then runs CrHCS's
/// cross-channel migration pass ([`chason_core::schedule::migrate`]) over
/// it, because its ScUG can hold migrated partial sums. It executes the
/// window on PEGs whose PEs carry a full ScUG (one
/// `URAM_sh` per neighbour-channel PE), a Reduction Unit, and the extended
/// Rearrange/Arbiter/Merger path. Runs at 301 MHz post-route on the Alveo
/// U55c.
///
/// # Example
///
/// ```
/// use chason_sim::{AcceleratorConfig, ChasonEngine};
/// use chason_sparse::generators::uniform_random;
///
/// # fn main() -> Result<(), chason_sim::SimError> {
/// let m = uniform_random(256, 256, 1000, 1);
/// let x = vec![1.0f32; 256];
/// let exec = ChasonEngine::new(AcceleratorConfig::chason()).run(&m, &x)?;
/// assert_eq!(exec.mac_ops, 1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChasonEngine {
    config: AcceleratorConfig,
}

impl ChasonEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        ChasonEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Deployed ScUG size: `URAM_sh` banks per PE.
    ///
    /// Scales *linearly* with the migration-hop count: accepting elements
    /// from `h` ring neighbours requires segregated partial-sum storage for
    /// each neighbour channel's `pes_per_channel` source PEs, i.e.
    /// `h × pes_per_channel` banks. This is exactly the cost §6.1 cites for
    /// deploying only one hop on the U55c ("each extra hop costs another
    /// set of `URAM_sh` banks per PE"); no sharing across hops is modelled
    /// because partial sums from different home channels can never merge
    /// before the Reduction Unit.
    pub(crate) fn scug_size(&self) -> usize {
        self.config.sched.pes_per_channel * self.config.sched.migration_hops
    }
}

impl Default for ChasonEngine {
    fn default() -> Self {
        ChasonEngine::new(AcceleratorConfig::chason())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimError;
    use chason_sparse::generators::{power_law, uniform_random};
    use chason_sparse::CooMatrix;

    fn reference(m: &CooMatrix, x: &[f32]) -> Vec<f32> {
        m.spmv(x)
    }

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
    fn result_matches_reference_on_random_matrix() {
        let m = uniform_random(300, 300, 2500, 11);
        let x: Vec<f32> = (0..300).map(|i| (i as f32 * 0.37).sin()).collect();
        let exec = ChasonEngine::default().run(&m, &x).unwrap();
        assert_close(&exec.y, &reference(&m, &x));
        assert_eq!(exec.mac_ops, 2500);
        assert_eq!(exec.engine, "chason");
    }

    #[test]
    fn result_matches_reference_on_skewed_matrix() {
        let m = power_law(500, 500, 4000, 1.9, 23);
        let x: Vec<f32> = (0..500).map(|i| 1.0 + (i % 7) as f32).collect();
        let exec = ChasonEngine::default().run(&m, &x).unwrap();
        assert_close(&exec.y, &reference(&m, &x));
    }

    #[test]
    fn wide_matrix_spans_multiple_windows() {
        // 20_000 columns -> 3 windows of W = 8192.
        let m = uniform_random(64, 20_000, 5_000, 3);
        let x = vec![0.5f32; 20_000];
        let exec = ChasonEngine::default().run(&m, &x).unwrap();
        assert_eq!(exec.windows, 3);
        assert_close(&exec.y, &reference(&m, &x));
        assert!(exec.cycles.x_reload >= 3);
    }

    #[test]
    fn vector_length_is_validated() {
        let m = uniform_random(10, 10, 10, 1);
        let err = ChasonEngine::default().run(&m, &[1.0; 9]).unwrap_err();
        assert!(matches!(err, SimError::VectorLengthMismatch { .. }));
    }

    #[test]
    fn oversized_matrix_reports_capacity() {
        // 128 PEs * 8192 rows/PE = 1_048_576 rows max; exceed it.
        let m = CooMatrix::new(1_100_000, 4);
        let err = ChasonEngine::default().run(&m, &[0.0; 4]).unwrap_err();
        assert!(matches!(err, SimError::RowCapacityExceeded { .. }));
    }

    #[test]
    fn empty_matrix_executes_cleanly() {
        let m = CooMatrix::new(16, 16);
        let exec = ChasonEngine::default().run(&m, &[1.0; 16]).unwrap();
        assert_eq!(exec.y, vec![0.0; 16]);
        assert_eq!(exec.cycles.stream, 0);
    }

    #[test]
    fn multi_hop_deploys_a_linearly_larger_scug() {
        // scug_size is the per-PE partial-sum group count the PEGs deploy;
        // it must scale linearly with the hop count (§6.1's cost model,
        // mirrored by `ResourceConfig::chason_with_hops`).
        let mut config = AcceleratorConfig::chason();
        config.sched.migration_hops = 2;
        let engine = ChasonEngine::new(config);
        assert_eq!(engine.scug_size(), 2 * config.sched.pes_per_channel);
        assert_eq!(
            ChasonEngine::default().scug_size(),
            config.sched.pes_per_channel
        );
        // A two-hop machine still executes correctly end to end.
        let m = power_law(400, 400, 3000, 1.9, 7);
        let x: Vec<f32> = (0..400).map(|i| 0.5 + (i % 5) as f32).collect();
        let exec = engine.run(&m, &x).unwrap();
        assert_close(&exec.y, &reference(&m, &x));
        // More migration reach can only help utilization.
        let one_hop = ChasonEngine::default().run(&m, &x).unwrap();
        assert!(exec.underutilization <= one_hop.underutilization + 1e-12);
    }

    #[test]
    fn reduction_cycles_are_charged() {
        let m = uniform_random(256, 256, 500, 2);
        let exec = ChasonEngine::default().run(&m, &vec![1.0; 256]).unwrap();
        // 256 rows / 128 PEs = 2 rows per PE + tree depth 3, derated by the
        // memory-path initiation interval.
        assert_eq!(
            exec.cycles.reduction,
            ((2.0 + 3.0) * crate::STREAM_II).ceil() as u64
        );
    }
}
