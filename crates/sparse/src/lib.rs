//! Sparse-matrix substrate for the Chasoň accelerator simulation.
//!
//! This crate provides everything the scheduler and architecture models need
//! from the "data" side of the paper:
//!
//! * validated sparse-matrix containers ([`CooMatrix`], [`CsrMatrix`],
//!   [`CscMatrix`]) with conversions between them,
//! * a MatrixMarket reader/writer ([`market`]) so real SuiteSparse / SNAP
//!   files can be used when they are available on disk,
//! * deterministic synthetic generators ([`generators`]) standing in for the
//!   SuiteSparse and SNAP collections (see `DESIGN.md` §2 for the
//!   substitution rationale),
//! * the evaluation catalogs ([`datasets`]) mirroring Table 2 of the paper
//!   and the 800-matrix corpus used by Figures 3, 11 and 14,
//! * row/column population statistics ([`stats`]) used to characterise
//!   workload imbalance,
//! * row-block sharding ([`shard`]) splitting a matrix into contiguous,
//!   nnz-balanced row ranges for multi-instance serving.
//!
//! # Example
//!
//! ```
//! use chason_sparse::{CooMatrix, CsrMatrix};
//!
//! # fn main() -> Result<(), chason_sparse::SparseError> {
//! let coo = CooMatrix::from_triplets(3, 3, vec![(0, 0, 2.0), (1, 2, -1.0), (2, 1, 0.5)])?;
//! let csr = CsrMatrix::from(&coo);
//! let y = csr.spmv(&[1.0, 2.0, 3.0]);
//! assert_eq!(y, vec![2.0, -3.0, 1.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csc;
mod csr;
pub mod datasets;
mod delta;
mod dense;
mod error;
pub mod generators;
pub mod market;
pub mod permute;
pub mod shard;
pub mod stats;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use delta::{CowCsr, MatrixDelta};
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use shard::ShardSpec;

/// A single explicit entry of a sparse matrix: `(row, column, value)`.
///
/// Triplets are the interchange currency between the container types and the
/// scheduler: the scheduler consumes matrices entry-by-entry in row order.
pub type Triplet = (usize, usize, f32);
