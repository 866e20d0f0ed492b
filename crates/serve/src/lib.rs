//! `chason-serve`: a long-lived SpMV/solver service over the simulated
//! accelerators.
//!
//! An accelerator's scheduling preprocessing (§4 of the paper) only pays
//! off when it is amortized — the same plan replayed across many products
//! and many callers. This crate turns the repo's batch pipeline into that
//! amortizing process: a TCP daemon speaking **CHSP v1** (a length-prefixed
//! binary protocol, [`proto`]), keeping matrices and schedule plans in
//! shared bounded LRU caches, executing requests on a fixed worker pool
//! behind a bounded queue, and shedding load with `Busy` replies instead
//! of collapsing when oversubscribed.
//!
//! The pieces:
//!
//! * [`proto`] — wire format: frames, requests, replies, the incremental
//!   [`FrameReader`](proto::FrameReader).
//! * [`admit`] — the request rules `chason serve` and `chason route`
//!   share: value, dimension, solve and update checks and their replies.
//! * [`dispatch`] — the dispatch and worker-pool core `chason serve` and
//!   `chason route` share: the readiness-loop service, bounded queue and
//!   shedding, worker threads, graceful drain.
//! * [`server`] — [`Server`]: the SpMV/solver/plan/update
//!   executors and shared caches over that core.
//! * [`client`] — blocking [`Client`] with typed helpers.
//! * [`loadgen`] — deterministic load generator (`chason loadgen`):
//!   closed loop, pipelined, or open loop.
//! * [`stats`] — lock-free counters behind the `Stats` request.
//!
//! Built entirely on `std` networking and the repo's vendored shims; see
//! `DESIGN.md` §9 for the wire format, threading model, and shedding
//! policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admit;
pub mod client;
pub mod dispatch;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod stats;

pub use client::{Client, ClientError, RetryPolicy, UpdateOutcome};
pub use loadgen::{LoadgenOptions, LoadgenReport, RouterLoadReport};
pub use proto::{Engine, ErrorCode, Reply, Request, SolverKind, StatsSnapshot};
pub use server::{ServeConfig, Server};
