//! Baseline SpMV implementations and device models for the Chasoň
//! evaluation (§5.2).
//!
//! Two kinds of baselines live here:
//!
//! * The **executable** CPU kernel, [`reference`](mod@crate::reference)
//!   (serial CSR, the functional ground truth for every engine test);
//! * **Analytic device models** ([`gpu`], [`cpu`]) reproducing the
//!   *published measurements* of the paper's Nvidia RTX 4090 / RTX A6000
//!   (cuSparse) and Intel Core i9-11980HK (MKL) baselines. We have none of
//!   that hardware, so each model is a roofline-with-overheads curve fit:
//!   kernel-launch latency + cache-aware memory traffic + a short-row
//!   efficiency derating (see `DESIGN.md` §2 for the substitution
//!   rationale). The fit targets are the paper's quoted peaks and geomean
//!   speedups, and the *shape* — GPUs lose on small/irregular matrices
//!   because launch overhead and idle SM pipelines dominate; the
//!   cache-rich CPU is the strongest baseline — follows §6.2.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod gpu;
pub mod reference;

mod device;

pub use device::{DeviceModel, DevicePrediction};
