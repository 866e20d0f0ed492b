//! SpMM extension (§7.2): `C = α·A·B + β·C` on the Chasoň/Serpens
//! datapaths.
//!
//! The paper sketches the SpMM configuration: the same non-zero schedule
//! for `A` is streamed while each PE multiplies against a *tile* of dense
//! `B` columns (the prior OoO SpMM accelerator, Sextans, uses 8-column
//! tiles), with the ScUG URAMs widened to hold one partial sum per tile
//! column. This module reproduces that execution model:
//!
//! * `A` is scheduled exactly once per column window (CrHCS for Chasoň,
//!   PE-aware for Serpens);
//! * the stream is re-played once per 8-column tile of `B`, so stream
//!   cycles scale with `⌈N / 8⌉` while the schedule (and its stalls) is
//!   shared;
//! * functionally, every column of `B` is replayed through the SpMV
//!   replay kernel (PEG/ScUG/Reduction/Merge), so the `pvt`/`PE_src`
//!   routing is exercised for every output column and each column of `C`
//!   is bit-identical to the SpMV of that column of `B` when `α = 1`,
//!   `β = 0`.
//!
//! The engines' `run_spmm` lives in the shared execution core
//! (`engine.rs`); this module holds the result type and the dense
//! reference.

use crate::config::CycleBreakdown;
use chason_sparse::{CooMatrix, DenseMatrix};
use serde::{Deserialize, Serialize};

/// Dense-column tile width: one URAM slot pair per tile column (Sextans'
/// and §7.2's operating point).
pub const TILE_COLS: usize = 8;

/// The result of one simulated SpMM execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpmmExecution {
    /// Engine name.
    pub engine: &'static str,
    /// The computed `C = α·A·B + β·C`.
    pub c: DenseMatrix,
    /// Cycle accounting (stream scales with the number of tiles).
    pub cycles: CycleBreakdown,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Number of 8-column tiles of `B`.
    pub tiles: usize,
    /// Multiply-accumulate operations performed (`nnz × N`).
    pub mac_ops: u64,
    /// Bytes streamed from the sparse-matrix channels (all tiles).
    pub bytes_streamed: u64,
}

impl SpmmExecution {
    /// Wall-clock latency in seconds.
    pub fn latency_seconds(&self) -> f64 {
        self.cycles.total() as f64 / (self.clock_mhz * 1e6)
    }

    /// Throughput in GFLOPS: `2·nnz·N` useful FLOPs over the latency
    /// (the SpMM analogue of Eq. 5).
    pub fn throughput_gflops(&self) -> f64 {
        let latency_ns = self.latency_seconds() * 1e9;
        if latency_ns == 0.0 {
            0.0
        } else {
            2.0 * self.mac_ops as f64 / latency_ns
        }
    }
}

/// Dense reference SpMM oracle: `α·A·B + β·C0`.
pub fn reference_spmm(
    a: &CooMatrix,
    b: &DenseMatrix,
    alpha: f32,
    beta: f32,
    c0: &DenseMatrix,
) -> DenseMatrix {
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        for j in 0..b.cols() {
            c.set(r, j, beta * c0.get(r, j));
        }
    }
    for &(r, k, v) in a.iter() {
        for j in 0..b.cols() {
            let cur = c.get(r, j);
            c.set(r, j, cur + alpha * v * b.get(k, j));
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AcceleratorConfig, ChasonEngine, SerpensEngine, SimError};
    use chason_sparse::generators::power_law;

    fn operands(n_cols: usize) -> (CooMatrix, DenseMatrix, DenseMatrix) {
        let a = power_law(300, 300, 2200, 1.6, 17);
        let b = DenseMatrix::from_fn(300, n_cols, |r, c| ((r + 2 * c) % 7) as f32 * 0.5 - 1.0);
        let c0 = DenseMatrix::from_fn(300, n_cols, |r, c| ((r * c) % 5) as f32 * 0.25);
        (a, b, c0)
    }

    fn assert_close(a: &DenseMatrix, b: &DenseMatrix, tol: f32) {
        let diff = a.max_abs_diff(b);
        assert!(diff < tol, "max abs diff {diff}");
    }

    #[test]
    fn chason_spmm_matches_reference() {
        let (a, b, c0) = operands(12);
        let oracle = reference_spmm(&a, &b, 1.5, 0.5, &c0);
        let exec = ChasonEngine::default()
            .run_spmm(&a, &b, 1.5, 0.5, &c0)
            .unwrap();
        assert_close(&exec.c, &oracle, 1e-2);
        assert_eq!(exec.mac_ops, 2200 * 12);
        assert_eq!(exec.tiles, 2);
    }

    #[test]
    fn serpens_spmm_matches_reference_and_is_slower() {
        let (a, b, c0) = operands(8);
        let oracle = reference_spmm(&a, &b, 1.0, 0.0, &c0);
        let serpens = SerpensEngine::default()
            .run_spmm(&a, &b, 1.0, 0.0, &c0)
            .unwrap();
        let chason = ChasonEngine::default()
            .run_spmm(&a, &b, 1.0, 0.0, &c0)
            .unwrap();
        assert_close(&serpens.c, &oracle, 1e-2);
        assert_close(&chason.c, &serpens.c, 1e-2);
        assert!(chason.latency_seconds() <= serpens.latency_seconds());
    }

    #[test]
    fn stream_cycles_scale_with_tiles() {
        let (a, b1, c1) = operands(8);
        let (_, b3, c3) = operands(24);
        let e1 = ChasonEngine::default()
            .run_spmm(&a, &b1, 1.0, 0.0, &c1)
            .unwrap();
        let e3 = ChasonEngine::default()
            .run_spmm(&a, &b3, 1.0, 0.0, &c3)
            .unwrap();
        assert_eq!(e1.tiles, 1);
        assert_eq!(e3.tiles, 3);
        // Up to a cycle of II rounding per window.
        let expected = 3 * e1.cycles.stream;
        assert!(
            e3.cycles.stream.abs_diff(expected) <= 3,
            "stream {} vs 3x {}",
            e3.cycles.stream,
            e1.cycles.stream
        );
    }

    /// With `α = 1, β = 0` every column of `C` is the SpMV of that column
    /// of `B`, bit for bit: SpMM replays the same schedule through the same
    /// PEGs, once per column.
    #[test]
    fn every_spmm_column_equals_spmv() {
        let (a, b, c0) = operands(11);
        let mut two_hops = AcceleratorConfig::chason();
        two_hops.sched.migration_hops = 2;
        let check = |spmm: SpmmExecution, spmv: &dyn Fn(&[f32]) -> Vec<f32>| {
            for j in 0..b.cols() {
                let column: Vec<u32> = (0..a.rows()).map(|r| spmm.c.get(r, j).to_bits()).collect();
                let y: Vec<u32> = spmv(&b.column(j)).iter().map(|v| v.to_bits()).collect();
                assert_eq!(column, y, "{} column {j}", spmm.engine);
            }
        };
        for chason in [ChasonEngine::default(), ChasonEngine::new(two_hops)] {
            check(chason.run_spmm(&a, &b, 1.0, 0.0, &c0).unwrap(), &|x| {
                chason.run(&a, x).unwrap().y
            });
        }
        let serpens = SerpensEngine::default();
        check(serpens.run_spmm(&a, &b, 1.0, 0.0, &c0).unwrap(), &|x| {
            serpens.run(&a, x).unwrap().y
        });
    }

    #[test]
    fn beta_zero_ignores_initial_c() {
        let (a, b, _) = operands(4);
        let garbage = DenseMatrix::from_fn(300, 4, |_, _| f32::from_bits(0x7f7fffff));
        let oracle = reference_spmm(&a, &b, 2.0, 0.0, &DenseMatrix::zeros(300, 4));
        let exec = ChasonEngine::default()
            .run_spmm(&a, &b, 2.0, 0.0, &garbage)
            .unwrap();
        assert_close(&exec.c, &oracle, 1e-2);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let (a, b, c0) = operands(4);
        let bad_b = DenseMatrix::zeros(299, 4);
        assert!(matches!(
            ChasonEngine::default().run_spmm(&a, &bad_b, 1.0, 0.0, &c0),
            Err(SimError::VectorLengthMismatch { .. })
        ));
        let bad_c = DenseMatrix::zeros(300, 5);
        assert!(matches!(
            ChasonEngine::default().run_spmm(&a, &b, 1.0, 0.0, &bad_c),
            Err(SimError::InvalidConfig(_))
        ));
        let _ = AcceleratorConfig::chason();
    }

    #[test]
    fn empty_b_is_a_noop() {
        let (a, _, _) = operands(4);
        let b = DenseMatrix::zeros(300, 0);
        let c0 = DenseMatrix::zeros(300, 0);
        let exec = ChasonEngine::default()
            .run_spmm(&a, &b, 1.0, 1.0, &c0)
            .unwrap();
        assert_eq!(exec.mac_ops, 0);
        assert_eq!(exec.c.cols(), 0);
    }
}
