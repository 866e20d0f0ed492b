//! Delta-splice oracles: a spliced plan must be indistinguishable from a
//! plan built from scratch.
//!
//! Dynamic matrices arrive as [`MatrixDelta`] batches (inserts at vacant
//! coordinates, deletions and revaluations of existing entries). The
//! engines splice a delta into a cached [`SpmvPlan`] by re-scheduling only
//! the column windows the delta's footprint dirties
//! (`Accelerator::replan_delta`). This module proves that splicing is
//! *sound*, per corpus case × round × delta kind × engine. Round 0 runs
//! the paper geometry; every later round draws a toy geometry and a narrow
//! column window (channels 2–4, PEs 2–4, `D ∈ {2, 4, 6}`, `W ∈ {16, 32}`):
//!
//! 1. **Splice ≡ scratch** — the spliced plan is *bit-identical*
//!    (`SpmvPlan: PartialEq`) to planning the updated matrix from scratch.
//!    Both engines' schedulers are deterministic and the pass/window
//!    skeleton depends only on the matrix shape, which deltas never
//!    change, so full structural equality is the oracle — not an
//!    approximation of it.
//! 2. **Numeric** — replaying the spliced plan reproduces the CPU
//!    reference SpMV of the *updated* matrix within the ULP tolerance.
//! 3. **Conservation** — the replay's cycle report agrees with the
//!    spliced plan (stalls, window count) and performs exactly one MAC
//!    per updated-matrix non-zero.
//! 4. **Static** — `chason-verify`'s full plan rule set (P001 and
//!    friends, plus fingerprint/conservation against the updated source)
//!    passes on every spliced plan.
//!
//! Geometries and deltas are drawn deterministically from a [`SplitMix64`]
//! stream, so a violation is reproducible from `(seed, case, round)` alone.

use crate::corpus::CorpusCase;
use crate::harness::{probe_vector, Violation};
use crate::ulp::{compare, row_scales, UlpTolerance};
use chason_baselines::reference;
use chason_core::plan::SpmvPlan;
use chason_core::schedule::SchedulerConfig;
use chason_sim::{Accelerator, AcceleratorConfig};
use chason_sparse::{CooMatrix, MatrixDelta};
use chason_verify::verify_plan;
use std::collections::BTreeSet;

/// The structural shape of a generated delta batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeltaKind {
    /// Only insertions at vacant coordinates.
    Insert,
    /// Only deletions of existing entries.
    Delete,
    /// Only revaluations of existing entries.
    Revalue,
    /// One batch mixing all three operation kinds.
    Mixed,
}

impl DeltaKind {
    /// Every kind, in table order.
    pub const ALL: [DeltaKind; 4] = [
        DeltaKind::Insert,
        DeltaKind::Delete,
        DeltaKind::Revalue,
        DeltaKind::Mixed,
    ];

    /// Short stable label for tables and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            DeltaKind::Insert => "insert",
            DeltaKind::Delete => "delete",
            DeltaKind::Revalue => "revalue",
            DeltaKind::Mixed => "mixed",
        }
    }
}

/// Options controlling a delta-oracle run.
#[derive(Debug, Clone)]
pub struct DeltaOptions {
    /// Numeric tolerance for replay-vs-reference comparisons.
    pub tol: UlpTolerance,
    /// Rounds per case. Each round draws a scheduler geometry and splices
    /// one delta batch of every kind into both engines' plans.
    pub deltas_per_case: usize,
    /// Seed for the deterministic geometry and delta generator.
    pub seed: u64,
}

impl Default for DeltaOptions {
    fn default() -> Self {
        DeltaOptions {
            tol: UlpTolerance::default(),
            deltas_per_case: 2,
            seed: 0xC0FF_EE00,
        }
    }
}

/// Aggregate result of a delta-oracle run.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Case × kind × engine checks executed.
    pub checks: usize,
    /// Delta batches generated and spliced.
    pub deltas: usize,
    /// Distinct `(channels, PEs per channel, dependency distance, window)`
    /// geometries the rounds ran under.
    pub geometries: BTreeSet<(usize, usize, usize, usize)>,
    /// Every violation found, in corpus order.
    pub violations: Vec<Violation>,
}

impl DeltaReport {
    /// True when every spliced plan passed every oracle.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "delta oracle: {} delta(s) over {} geometries, {} splice check(s), {} violation(s)",
            self.deltas,
            self.geometries.len(),
            self.checks,
            self.violations.len()
        )
    }
}

/// SplitMix64 — tiny, deterministic, and independent of the OS. The only
/// randomness the delta oracles and the schedule fuzzer use, so every run
/// is reproducible from its seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `[0, bound)` (`0` when `bound == 0`).
    pub fn pick(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    /// A finite, non-zero, schedulable value in roughly `±[0.25, 4.25]`.
    fn value(&mut self) -> f32 {
        let magnitude = 0.25 + (self.next_u64() % 1_000) as f32 / 250.0;
        if self.next_u64().is_multiple_of(2) {
            magnitude
        } else {
            -magnitude
        }
    }
}

/// Generates a random *valid* delta of the given kind against `matrix`:
/// every value finite and non-zero, inserts at vacant coordinates,
/// deletes/revalues at existing ones, each coordinate touched at most
/// once. Returns `None` when the matrix cannot host the kind (no entries
/// to delete, no vacancy to fill) — never the case on the corpus.
pub fn random_delta(
    matrix: &CooMatrix,
    kind: DeltaKind,
    rng: &mut SplitMix64,
) -> Option<MatrixDelta> {
    let triplets = matrix.triplets();
    let occupied: BTreeSet<(usize, usize)> = triplets.iter().map(|&(r, c, _)| (r, c)).collect();
    let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut delta = MatrixDelta::for_matrix(matrix);

    // 1–4 operations per selected op kind keeps batches small relative to
    // the corpus matrices (so deletion can never empty one) while still
    // exercising multi-op batches.
    let ops = 1 + rng.pick(4);
    let (inserts, deletes, revalues) = match kind {
        DeltaKind::Insert => (ops, 0, 0),
        DeltaKind::Delete => (0, ops, 0),
        DeltaKind::Revalue => (0, 0, ops),
        DeltaKind::Mixed => (1 + rng.pick(2), 1 + rng.pick(2), 1 + rng.pick(2)),
    };

    for _ in 0..inserts {
        let mut placed = false;
        for _ in 0..64 {
            let coord = (rng.pick(matrix.rows()), rng.pick(matrix.cols()));
            if occupied.contains(&coord) || used.contains(&coord) {
                continue;
            }
            let value = rng.value();
            #[allow(clippy::expect_used)] // coord proven vacant and unused above
            delta
                .push_insert(coord.0, coord.1, value)
                .expect("vacant coordinate must be insertable");
            used.insert(coord);
            placed = true;
            break;
        }
        if !placed {
            return None; // matrix too dense to find a vacancy by sampling
        }
    }
    for _ in 0..deletes.min(triplets.len().saturating_sub(used.len())) {
        let Some((r, c)) = pick_existing(triplets, &used, rng) else {
            break;
        };
        #[allow(clippy::expect_used)] // coordinate taken from the triplet list
        delta
            .push_delete(r, c)
            .expect("existing coordinate must be deletable");
        used.insert((r, c));
    }
    for _ in 0..revalues.min(triplets.len().saturating_sub(used.len())) {
        let Some((r, c)) = pick_existing(triplets, &used, rng) else {
            break;
        };
        let value = rng.value();
        #[allow(clippy::expect_used)] // coordinate taken from the triplet list
        delta
            .push_revalue(r, c, value)
            .expect("existing coordinate must be revaluable");
        used.insert((r, c));
    }

    if delta.is_empty() {
        None
    } else {
        Some(delta)
    }
}

/// Picks an existing entry's coordinate not yet used in this batch.
fn pick_existing(
    triplets: &[(usize, usize, f32)],
    used: &BTreeSet<(usize, usize)>,
    rng: &mut SplitMix64,
) -> Option<(usize, usize)> {
    for _ in 0..64 {
        let (r, c, _) = triplets[rng.pick(triplets.len())];
        if !used.contains(&(r, c)) {
            return Some((r, c));
        }
    }
    None
}

fn push(violations: &mut Vec<Violation>, case: &str, oracle: &'static str, detail: String) {
    violations.push(Violation {
        case: case.to_string(),
        oracle,
        detail,
    });
}

/// Runs all four oracles for one `(engine, base plan, delta)` triple;
/// `tag` names the engine, delta kind and geometry in every violation.
#[allow(clippy::too_many_arguments)] // internal fan-in of precomputed state
fn check_engine(
    engine: &Accelerator,
    case_name: &str,
    tag: &str,
    base_plan: &SpmvPlan,
    delta: &MatrixDelta,
    updated: &CooMatrix,
    tol: &UlpTolerance,
    violations: &mut Vec<Violation>,
) {
    // Splice the delta into a copy of the cached base plan.
    let mut spliced = base_plan.clone();
    let report = match engine.replan_delta(&mut spliced, updated, delta) {
        Ok(report) => report,
        Err(e) => {
            push(
                violations,
                case_name,
                "splice",
                format!("{tag}: replan_delta rejected a valid delta: {e}"),
            );
            return;
        }
    };

    // Oracle 1: bit-identical to a from-scratch plan of the updated matrix.
    match engine.plan(updated) {
        Ok(scratch) => {
            if spliced != scratch {
                push(
                    violations,
                    case_name,
                    "splice",
                    format!(
                        "{tag}: spliced plan diverges from scratch plan \
                         ({}/{} windows replanned)",
                        report.windows_replanned, report.windows_total
                    ),
                );
                return; // downstream oracles would only echo the divergence
            }
        }
        Err(e) => {
            push(
                violations,
                case_name,
                "splice",
                format!("{tag}: scratch planning of the updated matrix failed: {e}"),
            );
            return;
        }
    }

    // Replan-report bookkeeping must describe the plan it produced.
    if report.windows_total != spliced.window_count()
        || report.windows_replanned > report.windows_total
        || report.nnz_after != updated.nnz()
    {
        push(
            violations,
            case_name,
            "metamorphic",
            format!(
                "{tag}: replan report inconsistent with spliced plan \
                 (replanned {}/{} windows, nnz_after {} vs {})",
                report.windows_replanned,
                report.windows_total,
                report.nnz_after,
                updated.nnz()
            ),
        );
    }

    // Oracle 2: replaying the spliced plan matches the CPU reference on
    // the updated matrix.
    let x = probe_vector(updated.cols());
    let exec = match engine.run_planned(&spliced, &x) {
        Ok(exec) => exec,
        Err(e) => {
            push(
                violations,
                case_name,
                "execution",
                format!("{tag}: spliced plan failed to replay: {e}"),
            );
            return;
        }
    };
    let want = reference::spmv(updated, &x);
    let scales = row_scales(updated, &x);
    for (i, w, g) in compare(&want, &exec.y, &scales, tol) {
        push(
            violations,
            case_name,
            "numeric",
            format!("{tag}: y[{i}] = {g} vs reference {w} beyond tolerance"),
        );
    }

    // Oracle 3: cycle-report conservation between plan and replay.
    if exec.stalls != spliced.stalls() {
        push(
            violations,
            case_name,
            "metamorphic",
            format!(
                "{tag}: replay stalls {} disagree with spliced plan {}",
                exec.stalls,
                spliced.stalls()
            ),
        );
    }
    if exec.windows != spliced.window_count() {
        push(
            violations,
            case_name,
            "metamorphic",
            format!(
                "{tag}: replay processed {} windows, plan holds {}",
                exec.windows,
                spliced.window_count()
            ),
        );
    }
    if exec.mac_ops != updated.nnz() as u64 {
        push(
            violations,
            case_name,
            "metamorphic",
            format!(
                "{tag}: replay performed {} MACs for {} non-zeros",
                exec.mac_ops,
                updated.nnz()
            ),
        );
    }

    // Oracle 4: the static plan checker (P001 and the full rule set, plus
    // fingerprint/conservation against the updated source) stays clean.
    let verdict = verify_plan(&spliced, Some(updated));
    if verdict.has_errors() {
        let first = verdict
            .diagnostics()
            .iter()
            .map(|d| d.render())
            .next()
            .unwrap_or_default();
        push(
            violations,
            case_name,
            "static",
            format!("{tag}: spliced plan fails verification: {first}"),
        );
    }
}

/// The scheduler geometry and column window of one round. Round 0 runs
/// the paper geometry at `W = 8192`, where a small case is one window and
/// a splice degenerates to a full replan. Every later round draws a toy
/// geometry with a narrow window, so matrices span several windows and
/// splices are genuinely partial.
fn round_geometry(round: usize, rng: &mut SplitMix64) -> (SchedulerConfig, usize) {
    if round == 0 {
        return (SchedulerConfig::paper(), AcceleratorConfig::chason().window);
    }
    let sched = SchedulerConfig::toy(2 + rng.pick(3), 2 + rng.pick(3), [2, 4, 6][rng.pick(3)]);
    (sched, [16, 32][rng.pick(2)])
}

/// Runs the delta oracles over an explicit case list: every case ×
/// round × kind, through both engines.
pub fn run_delta_cases(cases: &[CorpusCase], options: &DeltaOptions) -> DeltaReport {
    let mut report = DeltaReport::default();
    for case in cases {
        let m = &case.matrix;
        for round in 0..options.deltas_per_case {
            // Seed from (global seed, case, round) so any single round
            // reproduces in isolation.
            let mut rng = SplitMix64(
                options
                    .seed
                    .wrapping_add(fingerprint(&case.name))
                    .wrapping_add((round as u64) << 8),
            );
            let (sched, window) = round_geometry(round, &mut rng);
            report.geometries.insert((
                sched.channels,
                sched.pes_per_channel,
                sched.dependency_distance,
                window,
            ));
            let geometry = format!(
                "{}x{} D={} W={window}",
                sched.channels, sched.pes_per_channel, sched.dependency_distance
            );
            let chason = Accelerator::new(AcceleratorConfig {
                sched,
                window,
                ..AcceleratorConfig::chason()
            });
            let serpens = Accelerator::new(AcceleratorConfig {
                sched,
                window,
                ..AcceleratorConfig::serpens()
            });
            // One base plan per engine, spliced once per kind — exactly how
            // a serving cache reuses a resident plan across updates.
            let (chason_base, serpens_base) = match (chason.plan(m), serpens.plan(m)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    push(
                        &mut report.violations,
                        &case.name,
                        "execution",
                        format!("{geometry}: base planning failed: {e}"),
                    );
                    continue;
                }
            };
            for kind in DeltaKind::ALL {
                let Some(delta) = random_delta(m, kind, &mut rng) else {
                    continue;
                };
                let updated = match delta.apply(m) {
                    Ok(updated) => updated,
                    Err(e) => {
                        push(
                            &mut report.violations,
                            &case.name,
                            "splice",
                            format!("generated delta failed to apply: {e}"),
                        );
                        continue;
                    }
                };
                report.deltas += 1;
                check_engine(
                    &chason,
                    &case.name,
                    &format!("chason/{} @ {geometry}", kind.name()),
                    &chason_base,
                    &delta,
                    &updated,
                    &options.tol,
                    &mut report.violations,
                );
                check_engine(
                    &serpens,
                    &case.name,
                    &format!("serpens/{} @ {geometry}", kind.name()),
                    &serpens_base,
                    &delta,
                    &updated,
                    &options.tol,
                    &mut report.violations,
                );
                report.checks += 2;
            }
        }
    }
    report
}

/// Tiny FNV-1a so case names perturb the per-combination seed.
fn fingerprint(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{corpus, CorpusSize};

    #[test]
    fn generated_deltas_match_their_kind_and_apply_cleanly() {
        let cases = corpus(CorpusSize::Small);
        let m = &cases[0].matrix;
        let mut rng = SplitMix64(99);
        for kind in DeltaKind::ALL {
            let delta = random_delta(m, kind, &mut rng).expect("corpus case hosts every kind");
            match kind {
                DeltaKind::Insert => {
                    assert!(!delta.inserts().is_empty());
                    assert!(delta.deletes().is_empty() && delta.revalues().is_empty());
                }
                DeltaKind::Delete => {
                    assert!(!delta.deletes().is_empty());
                    assert!(delta.inserts().is_empty() && delta.revalues().is_empty());
                }
                DeltaKind::Revalue => {
                    assert!(!delta.revalues().is_empty());
                    assert!(delta.inserts().is_empty() && delta.deletes().is_empty());
                }
                DeltaKind::Mixed => {
                    assert!(!delta.inserts().is_empty());
                    assert!(!delta.deletes().is_empty());
                    assert!(!delta.revalues().is_empty());
                }
            }
            for v in delta.written_values() {
                assert!(v.is_finite() && v != 0.0, "unschedulable value {v}");
            }
            let updated = delta.apply(m).expect("generated delta applies");
            assert_eq!(
                updated.nnz() as isize,
                m.nnz() as isize + delta.nnz_change()
            );
        }
    }

    #[test]
    fn corpus_splices_are_clean_under_paper_and_drawn_geometries() {
        let cases = corpus(CorpusSize::Small);
        let report = run_delta_cases(&cases[..4], &DeltaOptions::default());
        assert_eq!(report.deltas, 4 * 2 * DeltaKind::ALL.len());
        assert_eq!(report.checks, report.deltas * 2);
        assert!(report.geometries.contains(&(16, 8, 10, 8192)));
        assert!(report.geometries.len() > 1, "{:?}", report.geometries);
        assert!(
            report.is_clean(),
            "{}\n{}",
            report.summary(),
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn delta_runs_are_deterministic() {
        let cases = corpus(CorpusSize::Small);
        let a = run_delta_cases(&cases[..2], &DeltaOptions::default());
        let b = run_delta_cases(&cases[..2], &DeltaOptions::default());
        assert_eq!(a.deltas, b.deltas);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.geometries, b.geometries);
        assert_eq!(a.violations.len(), b.violations.len());
    }
}
