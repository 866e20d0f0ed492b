//! Cycle-level architecture models of the **Chasoň** and **Serpens** HBM
//! streaming SpMV accelerators (§4 of the paper).
//!
//! The two engines consume schedules produced by `chason-core` and execute
//! them *functionally* — every multiply-accumulate lands in the on-chip
//! memory the real datapath would use (`URAM_pvt`, the per-PE Shared-Channel
//! URAM Groups, the Reduction Unit adder tree, the Rearrange/Arbiter/Merger
//! path) — while a cycle model accounts for stream, drain, reduction and
//! merge time at the implemented clock frequency (301 MHz for Chasoň,
//! 223 MHz for Serpens).
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
//! use chason_sim::{AcceleratorConfig, ChasonEngine, SerpensEngine};
//! use chason_sparse::generators::power_law;
//!
//! # fn main() -> Result<(), chason_sim::SimError> {
//! let matrix = power_law(512, 512, 4000, 1.8, 42);
//! let x = vec![1.0f32; matrix.cols()];
//!
//! let chason = ChasonEngine::new(AcceleratorConfig::chason()).run(&matrix, &x)?;
//! let serpens = SerpensEngine::new(AcceleratorConfig::serpens()).run(&matrix, &x)?;
//!
//! // Both engines compute the same SpMV result ...
//! assert_eq!(chason.y.len(), serpens.y.len());
//! // ... but Chasoň streams fewer cycles at a higher clock.
//! assert!(chason.latency_seconds() <= serpens.latency_seconds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chason;
mod config;
mod engine;
mod error;
mod memory;
mod pe;
mod peg;
mod plan;
pub mod power;
pub mod profile;
mod rearrange;
pub mod report;
pub mod resources;
mod serpens;
pub mod spmm;

pub use chason::ChasonEngine;
pub use config::{AcceleratorConfig, CycleBreakdown, Execution};
pub use error::SimError;
pub use memory::{Bram, Uram, BRAM18K_WORDS, URAM_PARTIALS};
pub use pe::Pe;
pub use peg::Peg;
pub use plan::PlanningEngine;
pub use profile::{Attribution, LaneSlots, ProfiledExecution};
pub use serpens::SerpensEngine;
pub use spmm::SpmmExecution;
