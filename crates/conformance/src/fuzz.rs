//! Deterministic schedule fuzzer: fault injection against the full net.
//!
//! Each iteration builds a clean CrHCS schedule for a small seeded matrix,
//! applies one corruption from `chason-verify`'s ten-mutation library, and
//! then checks that the corruption is *caught* — by the static checker
//! ([`chason_verify::verify_schedule`]) or, failing that, by a dynamic
//! oracle watching an unverified replay of the corrupted schedule
//! ([`chason_sim::replay_schedule`]):
//!
//! * **model** — the replay rejects a slot it cannot route;
//! * **metamorphic** — the schedule's occupied-slot count (the replay's
//!   MAC count) disagrees with the source matrix's non-zero count;
//! * **numeric** — the merged `y` deviates from the CPU reference beyond
//!   the [`UlpTolerance`].
//!
//! The replay skips the static checker on purpose: the engines re-run it
//! in debug builds, so routing a corrupted schedule through them would
//! never reach the dynamic layer. `replay_schedule` runs the engines' own
//! replay kernel without it, which lets the fuzzer attribute each catch to
//! the layer that actually made it — the evidence that the static and
//! dynamic oracles compose into a net with no holes. The RAW distance has
//! no dynamic oracle: the model accumulates in stream order whatever the
//! spacing, so only the static checker's S003 catches a squeezed lane.
//!
//! Everything is seeded: the same `(seed, iterations)` pair explores the
//! same `(matrix, config, corruption)` sequence on every machine.

// SplitMix64 lives in `crate::delta` and is shared with the delta oracles:
// tiny, deterministic, and independent of the OS — the only randomness used.
use crate::delta::SplitMix64;
use crate::ulp::{compare, row_scales, UlpTolerance};
use chason_baselines::reference;
use chason_core::schedule::{Crhcs, ScheduledMatrix, Scheduler, SchedulerConfig};
use chason_sim::replay_schedule;
use chason_sparse::generators::{banded_with_nnz, diagonal, power_law, uniform_random};
use chason_sparse::CooMatrix;
use chason_verify::mutate::Corruption;
use chason_verify::verify_schedule;
use std::collections::BTreeMap;

/// Which oracle layer detected an injected corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CaughtBy {
    /// `chason-verify`'s static rules rejected the schedule outright.
    Static,
    /// The replay rejected the schedule with a typed error.
    DynamicModel,
    /// The replay ran clean but performed a wrong number of MACs.
    DynamicMetamorphic,
    /// The replay ran clean but produced a wrong `y`.
    DynamicNumeric,
}

impl CaughtBy {
    /// Short stable label for tables and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            CaughtBy::Static => "static",
            CaughtBy::DynamicModel => "dynamic/model",
            CaughtBy::DynamicMetamorphic => "dynamic/metamorphic",
            CaughtBy::DynamicNumeric => "dynamic/numeric",
        }
    }
}

/// One fuzz iteration that escaped every oracle — a hole in the net.
#[derive(Debug, Clone)]
pub struct Escape {
    /// Iteration index (reproduce with the same seed).
    pub iteration: u64,
    /// The corruption that went undetected.
    pub corruption: Corruption,
    /// Name of the corpus matrix involved.
    pub matrix: String,
    /// Scheduler configuration of the escaped schedule.
    pub config: SchedulerConfig,
    /// The matrix itself, for minimization / `.mtx` artifact export.
    pub source: CooMatrix,
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Iterations executed.
    pub iterations: u64,
    /// Iterations where the corruption found no site and was skipped.
    pub skipped: u64,
    /// `corruption name -> (applications, layers that caught it)`.
    pub detections: BTreeMap<&'static str, (u64, Vec<CaughtBy>)>,
    /// Corruptions that escaped both layers.
    pub escapes: Vec<Escape>,
}

impl FuzzOutcome {
    /// True when every applied corruption was caught by some layer.
    pub fn is_clean(&self) -> bool {
        self.escapes.is_empty()
    }

    /// Whether every one of the ten corruptions was actually applied (and
    /// not merely attempted) at least once.
    pub fn covered_all_corruptions(&self) -> bool {
        Corruption::ALL
            .iter()
            .all(|c| self.detections.get(c.name()).is_some_and(|d| d.0 > 0))
    }

    /// Renders the per-corruption detection table required by the harness:
    /// corruption, expected static rule, applications, and the layers that
    /// caught it.
    pub fn detection_table(&self) -> String {
        let mut out = String::from(
            "corruption    rule  applied  caught by\n\
             ------------  ----  -------  ---------\n",
        );
        for c in Corruption::ALL {
            let (applied, layers) = self
                .detections
                .get(c.name())
                .cloned()
                .unwrap_or((0, Vec::new()));
            let layers = if layers.is_empty() {
                "-".to_string()
            } else {
                layers
                    .iter()
                    .map(|l| l.label())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push_str(&format!(
                "{:<12}  {:<4}  {:>7}  {}\n",
                c.name(),
                format!("{:?}", c.expected_rule()),
                applied,
                layers
            ));
        }
        out
    }
}

/// The fuzz pool: small matrices so each iteration replays in microseconds.
fn pool() -> Vec<(String, CooMatrix)> {
    vec![
        ("uniform/48x48".into(), uniform_random(48, 48, 260, 41)),
        ("power-law/56x56".into(), power_law(56, 56, 320, 1.7, 42)),
        ("banded/64x64".into(), banded_with_nnz(64, 5, 300, 43)),
        ("diagonal/40x40".into(), diagonal(40, 44)),
    ]
}

/// Runs `iterations` fuzz cycles from `seed`. Every iteration injects one
/// corruption into a clean CrHCS schedule and records which layer caught
/// it; an iteration caught by *no* layer lands in
/// [`FuzzOutcome::escapes`].
pub fn fuzz(seed: u64, iterations: u64) -> FuzzOutcome {
    let pool = pool();
    let mut rng = SplitMix64(seed);
    let mut outcome = FuzzOutcome::default();
    for i in 0..iterations {
        // Cycle through the corruptions so all ten are exercised even in
        // short runs; matrix and config stay pseudo-random.
        let corruption = Corruption::ALL[(i % Corruption::ALL.len() as u64) as usize];
        let (name, matrix) = &pool[rng.pick(pool.len())];
        let config = SchedulerConfig::toy(2 + rng.pick(3), 2 + rng.pick(3), [2, 4, 6][rng.pick(3)]);
        outcome.iterations += 1;

        let mut schedule = Crhcs::new().schedule(matrix, &config);
        if !corruption.apply(&mut schedule) {
            outcome.skipped += 1;
            continue;
        }
        let entry = outcome.detections.entry(corruption.name()).or_default();
        entry.0 += 1;

        let mut caught = Vec::new();
        if verify_schedule(&schedule, Some(matrix)).has_errors() {
            caught.push(CaughtBy::Static);
        }
        if let Some(dynamic) = replay_catches(&schedule, matrix) {
            caught.push(dynamic);
        }
        if caught.is_empty() {
            outcome.escapes.push(Escape {
                iteration: i,
                corruption,
                matrix: name.clone(),
                config,
                source: matrix.clone(),
            });
        }
        for layer in caught {
            if !entry.1.contains(&layer) {
                entry.1.push(layer);
            }
        }
    }
    for (_, layers) in outcome.detections.values_mut() {
        layers.sort();
    }
    outcome
}

/// Replays a (possibly corrupted) schedule without the static checker and
/// returns the first dynamic oracle that rejects it, or `None` when the
/// replay is indistinguishable from correct.
fn replay_catches(schedule: &ScheduledMatrix, matrix: &CooMatrix) -> Option<CaughtBy> {
    let x: Vec<f32> = (0..matrix.cols())
        .map(|i| ((i as f32) * 0.61).cos().mul_add(3.0, 3.5))
        .collect();
    let Ok(y) = replay_schedule(schedule, &x) else {
        return Some(CaughtBy::DynamicModel);
    };
    if schedule.scheduled_nonzeros() != matrix.nnz() {
        return Some(CaughtBy::DynamicMetamorphic);
    }
    let want = reference::spmv(matrix, &x);
    let scales = row_scales(matrix, &x);
    if compare(&want, &y, &scales, &UlpTolerance::default()).is_empty() {
        None
    } else {
        Some(CaughtBy::DynamicNumeric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_schedules_replay_clean() {
        for (name, matrix) in pool() {
            let config = SchedulerConfig::toy(3, 3, 4);
            let schedule = Crhcs::new().schedule(&matrix, &config);
            assert_eq!(
                replay_catches(&schedule, &matrix),
                None,
                "false positive on uncorrupted {name}"
            );
        }
    }

    #[test]
    fn fuzz_is_deterministic() {
        let a = fuzz(7, 20);
        let b = fuzz(7, 20);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.skipped, b.skipped);
        assert_eq!(a.detections, b.detections);
        assert_eq!(a.escapes.len(), b.escapes.len());
    }

    #[test]
    fn every_corruption_is_caught_by_some_layer() {
        let outcome = fuzz(1, 40);
        assert!(
            outcome.covered_all_corruptions(),
            "{:?}",
            outcome.detections
        );
        assert!(
            outcome.is_clean(),
            "escapes: {:?}\n{}",
            outcome
                .escapes
                .iter()
                .map(|e| (e.corruption.name(), e.matrix.as_str(), e.iteration))
                .collect::<Vec<_>>(),
            outcome.detection_table()
        );
        // The static checker alone must catch every corruption too — the
        // dynamic layer is defence in depth, not a crutch.
        for c in Corruption::ALL {
            let (_, layers) = &outcome.detections[c.name()];
            assert!(
                layers.contains(&CaughtBy::Static),
                "{} escaped the static checker: {layers:?}",
                c.name()
            );
        }
    }

    #[test]
    fn detection_table_lists_all_ten() {
        let table = fuzz(3, 30).detection_table();
        for c in Corruption::ALL {
            assert!(table.contains(c.name()), "{table}");
        }
    }
}
