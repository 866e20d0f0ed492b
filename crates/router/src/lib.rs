//! `chason route`: a CHSP scatter-gather frontend over sharded
//! `chason serve` backends.
//!
//! The router speaks CHSP v1 to clients — the same wire protocol, the
//! same [`chason_serve::client::Client`] works against it — and fans each
//! request out to N backend shards, each a stock `chason serve` process
//! owning one contiguous row block of every matrix (the software analogue
//! of the paper's per-channel data placement; see DESIGN.md §14):
//!
//! * `LoadMatrix` partitions the matrix with an nnz-balancing
//!   [`ShardSpec`](chason_sparse::shard::ShardSpec) and scatters one
//!   row-block slice per shard, remembering each shard's handle and
//!   matrix version. The versions are what `UpdateMatrix` checks each
//!   shard's reply against, and a load that finds a shard's slice at a
//!   version the router did not produce is refused as diverged.
//! * `Spmv` broadcasts the dense vector, gathers the per-shard partial
//!   products, and reduces them by row-range placement — the distributed
//!   Reduction Unit. Row-block partitioning keeps every output row on
//!   exactly one shard, so the reduction adds no floating-point ops and
//!   the gathered vector is bit-identical to a single-instance run on
//!   the `cpu` engine (ULP-equivalent on the modeled accelerators).
//! * `Solve` runs the CG/Jacobi outer loop in the router, distributing
//!   every per-iteration SpMV.
//! * `UpdateMatrix` routes delta operations by row footprint to only the
//!   shards they touch, then cross-checks the returned versions.
//! * Failures surface as the typed
//!   [`ErrorCode::ShardUnavailable`](chason_serve::proto::ErrorCode) /
//!   [`ErrorCode::PartialGather`](chason_serve::proto::ErrorCode) wire
//!   errors; per-shard `Busy` replies are retried with bounded jittered
//!   back-off before being propagated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod router;
pub mod shards;
pub mod stats;

pub use router::{Router, RouterConfig};
pub use shards::{HealthBoard, ShardConn, ShardError, ShardErrorKind};
pub use stats::RouterStats;
