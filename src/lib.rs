//! # Chasoň
//!
//! A pure-Rust reproduction of *"Chasoň: Supporting Cross HBM Channel Data
//! Migration to Enable Efficient Sparse Algebraic Acceleration"*
//! (MICRO 2025): the CrHCS non-zero scheduler, cycle-level models of the
//! Chasoň and Serpens HBM streaming SpMV accelerators, the synthetic
//! SuiteSparse/SNAP dataset catalogs, and the CPU/GPU baseline models the
//! paper evaluates against.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`sparse`] — matrix formats, generators, MatrixMarket IO
//!   ([`chason_sparse`]);
//! * [`core`] — the CrHCS / PE-aware / row-based schedulers
//!   ([`chason_core`]);
//! * [`sim`] — the Chasoň and Serpens architecture models
//!   ([`chason_sim`]);
//! * [`baselines`] — reference SpMV and analytic GPU/CPU device models
//!   ([`chason_baselines`]).
//!
//! # Quickstart
//!
//! ```
//! use chason::core::schedule::{Crhcs, PeAware, Scheduler, SchedulerConfig};
//! use chason::sparse::generators::power_law;
//!
//! let matrix = power_law(512, 512, 4000, 1.8, 42);
//! let config = SchedulerConfig::default();
//!
//! let serpens = PeAware::new().schedule(&matrix, &config);
//! let chason = Crhcs::new().schedule(&matrix, &config);
//!
//! println!(
//!     "PE underutilization: serpens {:.1}% -> chason {:.1}%",
//!     serpens.underutilization() * 100.0,
//!     chason.underutilization() * 100.0,
//! );
//! assert!(chason.underutilization() <= serpens.underutilization());
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! binaries regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod solvers;

pub use chason_baselines as baselines;
pub use chason_core as core;
pub use chason_sim as sim;
pub use chason_sparse as sparse;
