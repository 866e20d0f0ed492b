//! Cycle-level architecture model of the **Chasoň** and **Serpens** HBM
//! streaming SpMV accelerators (§4 of the paper).
//!
//! One [`Accelerator`] models both; its [`AcceleratorConfig`]'s
//! [`Design`] picks which. It consumes schedules produced by `chason-core`
//! and executes them *functionally* — every multiply-accumulate lands in
//! the on-chip memory the real datapath would use (`URAM_pvt`, the per-PE
//! Shared-Channel URAM Groups, the Reduction Unit adder tree, the
//! Rearrange/Arbiter/Merger path) — while a cycle model accounts for
//! stream, drain, reduction and merge time at the implemented clock
//! frequency (301 MHz for Chasoň, 223 MHz for Serpens).
//!
//! Companion modules reproduce the paper's static artifacts:
//!
//! * [`power`] — the Fig. 10 power breakdown and the measured operating
//!   points used for energy efficiency;
//! * [`resources`] — the Table 1 FPGA resource algebra (Eq. 3);
//! * [`report`] — latency / throughput / bandwidth / energy metrics
//!   (Eqs. 5–7).
//!
//! # Example
//!
//! ```
//! use chason_sim::{Accelerator, AcceleratorConfig};
//! use chason_sparse::generators::power_law;
//!
//! # fn main() -> Result<(), chason_sim::SimError> {
//! let matrix = power_law(512, 512, 4000, 1.8, 42);
//! let x = vec![1.0f32; matrix.cols()];
//!
//! let chason = Accelerator::new(AcceleratorConfig::chason()).run(&matrix, &x)?;
//! let serpens = Accelerator::new(AcceleratorConfig::serpens()).run(&matrix, &x)?;
//!
//! // Both designs compute the same SpMV result ...
//! assert_eq!(chason.y.len(), serpens.y.len());
//! // ... but Chasoň streams fewer cycles at a higher clock.
//! assert!(chason.latency_seconds() <= serpens.latency_seconds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
pub mod power;
pub mod profile;
mod replay;
pub mod report;
pub mod resources;
pub mod spmm;

pub use config::{
    hbm_bandwidth_gbps, AcceleratorConfig, CycleBreakdown, Design, Execution, StreamTiming,
    INVOCATION_OVERHEAD_CYCLES, MERGE_WIDTH, STREAM_II, X_RELOAD_LANES,
};
pub use engine::Accelerator;
pub use error::SimError;
pub use profile::{Attribution, LaneSlots, ProfiledExecution};
pub use replay::{replay_schedule, URAM_PARTIALS};
pub use spmm::SpmmExecution;

/// Former name of a Chasoň [`Accelerator`], kept only because the
/// `e2e-bench` benchmark still builds with it.
#[deprecated(note = "use `Accelerator::new(AcceleratorConfig::chason())`")]
pub type ChasonEngine = Accelerator;

/// Former name of a Serpens [`Accelerator`], kept only because the
/// `e2e-bench` benchmark still builds with it.
#[deprecated(note = "use `Accelerator::new(AcceleratorConfig::serpens())`")]
pub type SerpensEngine = Accelerator;
