//! The Chasoň paper's primary contribution: non-zero scheduling for
//! HBM-based streaming SpMV accelerators, including **CrHCS** — cross-HBM
//! channel out-of-order scheduling with data migration.
//!
//! Four schedulers are provided: three match §2.2 and §3 of the paper, and
//! one is the §2.1 related-work alternative:
//!
//! * [`schedule::RowBased`] — all non-zeros of a row go to the row's PE in
//!   order (Fig. 2a); RAW dependencies between consecutive values of the same
//!   row leave the accumulator pipeline almost empty.
//! * [`schedule::PeAware`] — Serpens' out-of-order scheme (Fig. 2b): rows
//!   mapped to a PE are served round-robin so independent rows hide the
//!   accumulator latency. Stalls remain whenever a PE's rows run dry.
//! * [`schedule::Crhcs`] — the contribution (Fig. 2c, §3): stall slots are
//!   filled by *migrating* non-zeros from the neighbouring HBM channel,
//!   tagged with `pvt`/`PE_src` flags so the architecture can segregate the
//!   partial sums. It is `PeAware` followed by [`schedule::migrate`], the
//!   migration pass over a PE-aware schedule, which callers holding a
//!   PE-aware schedule can run on a copy of it directly.
//! * [`schedule::HybridRowSplit`] — the HiSpMV-style alternative (§2.1):
//!   a row that dwarfs its siblings is split into `P` interleaved sub-rows
//!   recombined by an intra-PEG adder tree. That fixes imbalance within a
//!   channel but not across channels, and the simulated datapath has no
//!   such tree, so it is a metrics-level baseline only.
//!
//! Supporting modules: [`element`] packs scheduled non-zeros into the 64-bit
//! wire format of §3.2; [`metrics`] computes PE underutilization (Eq. 4);
//! [`window`] partitions wide matrices into the `W = 8192` column segments
//! of §4.1.
//!
//! # Example
//!
//! ```
//! use chason_core::schedule::{migrate, Crhcs, PeAware, Scheduler, SchedulerConfig};
//! use chason_sparse::generators::power_law;
//!
//! let matrix = power_law(256, 256, 1500, 1.8, 7);
//! let config = SchedulerConfig::default();
//! let serpens = PeAware::new().schedule(&matrix, &config);
//! let chason = Crhcs::new().schedule(&matrix, &config);
//! // CrHCS fills stalls by migrating values across channels:
//! assert!(chason.underutilization() <= serpens.underutilization());
//! // ... and is exactly the migration pass over the PE-aware schedule.
//! let mut migrated = serpens.clone();
//! let report = migrate(&mut migrated);
//! assert_eq!(migrated, chason);
//! assert_eq!(report.stalls_after, chason.stalls());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod diag;
pub mod element;
pub mod export;
pub mod metrics;
pub mod plan;
pub mod replan;
pub mod schedule;
pub mod viz;
pub mod window;

pub use cache::{CacheStats, LruCache};
pub use diag::{Location, RuleId, ScheduleError, Severity};
pub use element::SparseElement;
pub use plan::{matrix_fingerprint, PassPlan, PlanKey, PlanWindow, SpmvPlan};
pub use replan::{dirty_windows, ReplanError, ReplanReport};
pub use schedule::{
    ChannelSchedule, Crhcs, HybridRowSplit, NzSlot, PeAware, RowBased, ScheduledMatrix, Scheduler,
    SchedulerConfig,
};
