//! chason-net: a readiness-driven connection layer for CHSP servers.
//!
//! The one connection layer `chason serve` and `chason route` run on:
//! two threads total — one blocking accept thread and one event loop —
//! for any number of connections, instead of an OS thread (stack,
//! scheduler slot, context switches) per idle connection. The worker
//! pool, shedding, batching, and drain stay with the embedding server
//! (`chason_serve::dispatch`).
//!
//! Layers, bottom up:
//!
//! - [`polling`] (vendored shim): portable oneshot readiness over
//!   epoll/kqueue/poll(2).
//! - [`assembler::FrameAssembler`]: incremental CHSP frame reassembly
//!   across arbitrary byte splits.
//! - [`wheel::TimerWheel`]: hashed idle-deadline wheel, O(1) reschedule.
//! - [`server::NetServer`]: the loop itself — registration handshake,
//!   reply sequencing for pipelined requests, write backpressure, drain.
//!
//! An embedding server implements [`server::Service`] (decode a frame,
//! answer inline or hand to a pool and [`server::LoopHandle::complete`]
//! later).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assembler;
pub mod metrics;
pub mod server;
pub mod wheel;

pub use assembler::{FrameAssembler, FrameTooLarge, READ_CHUNK};
pub use metrics::NetMetrics;
pub use server::{FrameOutcome, LoopHandle, NetConfig, NetServer, Service};
pub use wheel::TimerWheel;
