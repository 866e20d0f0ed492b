//! Root integration tests driving the `chason-conformance` harness: the
//! full small-corpus differential run, the committed golden cycle traces
//! (with the `UPDATE_GOLDEN=1` bless flow), the schedule fuzzer's
//! no-escapes guarantee, and the dynamic-matrix delta oracles
//! (spliced plans ≡ from-scratch plans across the corpus and drawn
//! scheduler geometries).

use chason_conformance::{
    corpus, fuzz, golden, run_case, run_corpus, run_delta_cases, CorpusSize, DeltaKind,
    DeltaOptions, HarnessOptions,
};
use chason_sim::report::CycleTrace;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Every execution path agrees on every small-corpus matrix: the CPU
/// kernels and the engines within ULP tolerance, planned runs bit-for-bit
/// with direct ones, and the metamorphic cycle invariants hold throughout.
#[test]
fn small_corpus_is_conformant_across_all_paths() {
    let report = run_corpus(CorpusSize::Small, &HarnessOptions::default());
    assert_eq!(report.cases, 10);
    assert_eq!(report.paths, 60, "paths compared");
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

/// Renders one golden line per small-corpus case and engine, under the
/// given planner thread counts.
fn render_traces(thread_counts: Vec<usize>) -> String {
    let options = HarnessOptions {
        thread_counts,
        ..HarnessOptions::default()
    };
    let mut out = String::new();
    for case in corpus(CorpusSize::Small) {
        let outcome = run_case(&case, &options);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        for exec in [outcome.serpens, outcome.chason].into_iter().flatten() {
            out.push_str(&format!(
                "{} {}\n",
                case.name,
                CycleTrace::from_execution(&exec)
            ));
        }
    }
    out
}

/// The committed cycle traces are byte-identical across runs and planner
/// thread counts, every line parses back losslessly, and the golden file
/// under `tests/golden/` matches (bless with `UPDATE_GOLDEN=1`).
#[test]
fn golden_cycle_traces_are_stable_and_thread_count_independent() {
    let traces = render_traces(vec![1, 2, 5]);
    let reordered = render_traces(vec![1, 3, 8]);
    assert_eq!(
        traces, reordered,
        "cycle traces must not depend on planner thread counts"
    );
    for line in traces.lines() {
        let (case, trace) = line.split_once(' ').expect("case-prefixed line");
        let parsed: CycleTrace = trace.parse().unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(parsed.to_string(), trace, "{case} round trip");
    }
    golden::check_or_bless(&golden_path("cycle_traces_small.txt"), &traces)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// The schedule fuzzer injects all ten corruption kinds and every one is
/// caught by the static checker or a dynamic oracle — no escapes.
#[test]
fn fuzzer_catches_every_injected_corruption() {
    let outcome = fuzz(1, 40);
    assert!(outcome.iterations > outcome.skipped);
    assert!(
        outcome.covered_all_corruptions(),
        "not all ten corruptions were applied: {:?}",
        outcome.detections.keys().collect::<Vec<_>>()
    );
    assert!(
        outcome.is_clean(),
        "escapes:\n{}",
        outcome
            .escapes
            .iter()
            .map(|e| format!(
                "iter {} {} on {}",
                e.iteration,
                e.corruption.name(),
                e.matrix
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The table names each corruption and at least one catching layer.
    let table = outcome.detection_table();
    assert_eq!(table.lines().count(), 12, "header + divider + ten rows");
}

/// Every spliced plan across the full small corpus — both engines and
/// serve's Chasoň route, all four delta kinds, under the paper geometry and drawn toy geometries
/// whose narrow windows make the matrices span several column windows —
/// is bit-identical to a from-scratch plan of the updated matrix, replays
/// to the CPU reference, conserves its cycle report, and passes
/// `chason-verify`.
#[test]
fn delta_splices_equal_scratch_plans_across_the_corpus() {
    let options = DeltaOptions {
        deltas_per_case: 3,
        ..DeltaOptions::default()
    };
    let cases = corpus(CorpusSize::Small);
    let report = run_delta_cases(&cases, &options);
    assert_eq!(report.deltas, cases.len() * 3 * DeltaKind::ALL.len());
    assert_eq!(
        report.checks,
        report.deltas * 3,
        "both engines and serve's Chasoň route per delta"
    );
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
    // The paper geometry, and every value of every drawn toy range.
    let g = &report.geometries;
    assert!(g.contains(&(16, 8, 10, 8192)), "{g:?}");
    let values = |pick: fn(&(usize, usize, usize, usize)) -> usize| {
        g.iter()
            .filter(|t| t.3 != 8192)
            .map(pick)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
    };
    assert_eq!(values(|t| t.0), [2, 3, 4], "channels");
    assert_eq!(values(|t| t.1), [2, 3, 4], "PEs per channel");
    assert_eq!(values(|t| t.2), [2, 4, 6], "dependency distance");
    assert_eq!(values(|t| t.3), [16, 32], "window");
}

/// The delta sweep as a fuzzer: a second seeded stream drives 48 rounds
/// over four corpus matrices, each round a fresh geometry and one random
/// insert/delete/revalue batch of every kind. No spliced plan may escape
/// any oracle, and every kind is exercised in every round.
#[test]
fn delta_fuzzer_finds_no_splice_escapes() {
    let options = DeltaOptions {
        deltas_per_case: 12,
        seed: 1,
        ..DeltaOptions::default()
    };
    let cases: Vec<_> = corpus(CorpusSize::Small).into_iter().take(4).collect();
    let report = run_delta_cases(&cases, &options);
    assert_eq!(
        report.deltas,
        48 * DeltaKind::ALL.len(),
        "every kind per round"
    );
    assert_eq!(
        report.checks,
        report.deltas * 3,
        "both engines and serve's Chasoň route per delta"
    );
    assert!(report.geometries.len() > 4, "{:?}", report.geometries);
    assert!(
        report.is_clean(),
        "escapes:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
