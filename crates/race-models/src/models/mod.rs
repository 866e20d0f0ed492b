//! The model suites. Each module models one real concurrent structure from
//! the workspace and ships seeded known-racy mutants next to the correct
//! (`ok*`) extract; see the module docs for what each mutant plants.

pub mod channel_semantics;
pub mod lru_cache;
pub mod net_wakeup;
pub mod serve_queue;
pub mod shutdown_drain;
