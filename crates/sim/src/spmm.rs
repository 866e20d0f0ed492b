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
//! * functionally, every tile column is executed through the same
//!   PEG/ScUG/Reduction/Merge pipeline as SpMV, so the `pvt`/`PE_src`
//!   routing is exercised for every output column.

use crate::config::{AcceleratorConfig, CycleBreakdown};
use crate::peg::Peg;
use crate::rearrange::merge_outputs;
use crate::SimError;
use chason_core::schedule::{Crhcs, PeAware, ScheduledMatrix, Scheduler};
use chason_core::window::partition_columns;
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

/// Shared SpMM executor (see module docs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_spmm<S: Scheduler>(
    engine: &'static str,
    scheduler: &S,
    config: &AcceleratorConfig,
    scug_size: usize,
    has_reduction: bool,
    a: &CooMatrix,
    b: &DenseMatrix,
    alpha: f32,
    beta: f32,
    c0: &DenseMatrix,
) -> Result<SpmmExecution, SimError> {
    if !config.is_valid() {
        return Err(SimError::InvalidConfig(
            "accelerator configuration failed validation".to_string(),
        ));
    }
    if b.rows() != a.cols() {
        return Err(SimError::VectorLengthMismatch {
            got: b.rows(),
            expected: a.cols(),
        });
    }
    if c0.rows() != a.rows() || c0.cols() != b.cols() {
        return Err(SimError::InvalidConfig(format!(
            "C shape {}x{} must be {}x{}",
            c0.rows(),
            c0.cols(),
            a.rows(),
            b.cols()
        )));
    }
    let sched = &config.sched;
    let rows_per_pe = a.rows().div_ceil(sched.total_pes().max(1));
    let n = b.cols();
    let tiles = n.div_ceil(TILE_COLS).max(usize::from(n == 0));

    // Schedule every window of A exactly once; the schedule is shared by
    // all tiles (§7.2: the non-zero stream is independent of B).
    let windows = partition_columns(a, config.window);
    let schedules: Vec<ScheduledMatrix> = windows
        .iter()
        .map(|w| scheduler.schedule(&w.matrix, sched))
        .collect();

    let mut cycles = CycleBreakdown::default();
    let mut bytes_streamed = 0u64;
    for s in &schedules {
        let stream = s.stream_cycles() as u64;
        cycles.stream += ((stream * tiles as u64) as f64 * config.stream_ii).ceil() as u64;
        cycles.fill_drain += (sched.dependency_distance * tiles.max(1)) as u64;
        bytes_streamed +=
            stream * (sched.channels * sched.pes_per_channel * 8) as u64 * tiles as u64;
    }

    let mut c = DenseMatrix::zeros(a.rows(), n);
    let mut mac_ops = 0u64;
    // Execute each output column through the full PEG pipeline. Columns of
    // a tile run concurrently in hardware (widened URAM slots); the
    // functional result is column-separable, so we drive them one plane at
    // a time while the cycle model above charges per-tile streams.
    for j in 0..n {
        let mut pegs = (0..sched.channels)
            .map(|ch| {
                Peg::new(
                    ch,
                    sched.pes_per_channel,
                    config.window,
                    rows_per_pe,
                    scug_size,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let b_col = b.column(j);
        for (window, schedule) in windows.iter().zip(&schedules) {
            let slice = &b_col[window.col_start..window.col_end];
            for peg in &mut pegs {
                peg.load_x(slice);
            }
            for (ch, channel) in schedule.channels.iter().enumerate() {
                for (_, lane, nz) in channel.occupied() {
                    pegs[ch].consume_slot(lane, nz, sched, None)?;
                }
            }
        }
        mac_ops += pegs.iter().map(Peg::mac_ops).sum::<u64>();
        let outputs: Vec<_> = pegs.iter().map(Peg::reduce).collect();
        let column = merge_outputs(&outputs, sched, a.rows());
        for (r, &v) in column.iter().enumerate() {
            c.set(r, j, alpha * v + beta * c0.get(r, j));
        }
    }

    // B-tile loading between windows (4 channels stream B in §7.2).
    let reload = (windows.len() * tiles)
        .max(1)
        .saturating_mul(config.window.div_ceil(config.x_reload_lanes));
    cycles.x_reload += (reload as f64 * config.stream_ii).ceil() as u64;
    if has_reduction && scug_size > 0 {
        let tree_depth = (sched.pes_per_channel as f64).log2().ceil() as u64;
        cycles.reduction += (((rows_per_pe as u64 + tree_depth) * tiles as u64) as f64
            * config.stream_ii)
            .ceil() as u64;
    }
    // C read-modify-write through the 8 output channels (§7.2).
    cycles.merge +=
        (((a.rows() * n).div_ceil(config.merge_width)) as f64 * config.stream_ii).ceil() as u64;
    cycles.invocation += config.invocation_overhead_cycles;

    Ok(SpmmExecution {
        engine,
        c,
        cycles,
        clock_mhz: config.clock_mhz,
        tiles,
        mac_ops,
        bytes_streamed,
    })
}

impl crate::ChasonEngine {
    /// Executes `C = α·A·B + β·C` on the Chasoň datapath (§7.2).
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::ChasonEngine::run`], plus shape
    /// mismatches between `A`, `B` and `C`.
    pub fn run_spmm(
        &self,
        a: &CooMatrix,
        b: &DenseMatrix,
        alpha: f32,
        beta: f32,
        c: &DenseMatrix,
    ) -> Result<SpmmExecution, SimError> {
        let config = *self.config();
        execute_spmm(
            "chason",
            &Crhcs::new(),
            &config,
            config.sched.pes_per_channel * config.sched.migration_hops,
            true,
            a,
            b,
            alpha,
            beta,
            c,
        )
    }
}

impl crate::SerpensEngine {
    /// Executes `C = α·A·B + β·C` on the Serpens-style datapath (as in
    /// Sextans, the prior OoO SpMM accelerator).
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::SerpensEngine::run`], plus shape
    /// mismatches between `A`, `B` and `C`.
    pub fn run_spmm(
        &self,
        a: &CooMatrix,
        b: &DenseMatrix,
        alpha: f32,
        beta: f32,
        c: &DenseMatrix,
    ) -> Result<SpmmExecution, SimError> {
        let config = *self.config();
        execute_spmm(
            "serpens",
            &PeAware::new(),
            &config,
            0,
            false,
            a,
            b,
            alpha,
            beta,
            c,
        )
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
    use crate::{AcceleratorConfig, ChasonEngine, SerpensEngine};
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
