//! Model suites for `chason-race`: small extracted models of the
//! workspace's real hot concurrent structures, each paired with seeded
//! *known-racy mutants* that the checker must catch (the self-check idiom of
//! `chason verify --corrupt` and the bench comparator, applied to
//! concurrency).
//!
//! Four structure suites plus a shim-semantics suite:
//!
//! | suite             | models                                              |
//! |-------------------|-----------------------------------------------------|
//! | `serve-queue`     | `chason_serve::dispatch` queue, shed, worker drain  |
//! | `shutdown-drain`  | producer/consumer shutdown with disconnect drain    |
//! | `lru-cache`       | shared `LruCache` get/insert/evict counters         |
//! | `net-wakeup`      | `chason_net` loop notify dedupe vs. inbox drain     |
//! | `channel`         | crossbeam-shim blocking semantics under the checker |
//!
//! Every model runs the *real* `vendor/crossbeam` channel code (this crate
//! enables its `model-check` feature) and, where practical, the real
//! workspace types (`chason_core::LruCache`).
//!
//! Run via `cargo xtask race`; see DESIGN.md §12 for how to write a model.

pub mod models;

use chason_race::{Options, Report};

/// One runnable model: a real structure extract (`expect_violation: false`)
/// or a seeded known-racy mutant (`expect_violation: true`).
pub struct ModelDef {
    /// Suite name (kebab-case, stable CLI identifier).
    pub suite: &'static str,
    /// Model name within the suite; real models are named `ok*`.
    pub name: &'static str,
    /// What the mutant seeds (or what the real model protects), one line.
    pub about: &'static str,
    /// Mutants must be caught; real models must explore clean.
    pub expect_violation: bool,
    /// Spurious-wakeup budget per execution (exercises re-check loops).
    pub spurious: usize,
    /// The model body. Must be schedule-deterministic: no real time, no
    /// ambient randomness (see DESIGN.md §12).
    pub run: fn(),
}

impl ModelDef {
    /// Stable identifier, e.g. `serve-queue/racy-shed-counter`.
    pub fn id(&self) -> String {
        format!("{}/{}", self.suite, self.name)
    }

    /// Exploration options for this model at the given seed and budget.
    pub fn options(&self, seed: u64, budget: usize, preemption_bound: usize) -> Options {
        Options {
            seed,
            max_executions: budget,
            preemption_bound,
            spurious_wakeups: self.spurious,
            ..Options::default()
        }
    }

    /// Explore this model and judge the outcome: a real model passes when
    /// clean, a mutant passes when its seeded bug is caught.
    pub fn check(&self, seed: u64, budget: usize, preemption_bound: usize) -> (Report, bool) {
        let report = chason_race::explore(self.options(seed, budget, preemption_bound), self.run);
        let pass = report.violation.is_some() == self.expect_violation;
        (report, pass)
    }
}

/// Every model in every suite, in stable order.
pub fn all_models() -> Vec<ModelDef> {
    let mut out = Vec::new();
    out.extend(models::serve_queue::models());
    out.extend(models::shutdown_drain::models());
    out.extend(models::lru_cache::models());
    out.extend(models::channel_semantics::models());
    out.extend(models::net_wakeup::models());
    out
}

/// Look up a model by `suite/name` id.
pub fn find_model(id: &str) -> Option<ModelDef> {
    all_models().into_iter().find(|m| m.id() == id)
}

/// Lock a checker mutex, forgiving poison: in a model, any panic aborts the
/// whole execution, so poisoning carries no information.
pub fn lock<T>(m: &chason_race::sync::Mutex<T>) -> chason_race::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Join a model thread, propagating its return value.
pub fn join<T>(handle: chason_race::thread::JoinHandle<T>) -> T {
    // A child panic is already reported by the checker (Panic violation) and
    // aborts the execution before this join can observe `Err`, so unwrapping
    // here cannot mask a failure.
    #[allow(clippy::expect_used)] // see above: child panics abort the execution first
    handle.join().expect("model thread panicked")
}
