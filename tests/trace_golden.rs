//! Deterministic trace golden: the profiler's window spans are derived
//! entirely from the plan (simulated stream beats, no wall clock), so the
//! rendered JSONL must be byte-identical across runs *and* across planning
//! thread counts. The committed golden pins the exact bytes; re-bless with
//! `UPDATE_GOLDEN=1` after an intentional schedule or format change.

use chason_conformance::golden::check_or_bless;
use chason_core::schedule::SchedulerConfig;
use chason_sim::profile::window_spans;
use chason_sim::{Accelerator, AcceleratorConfig};
use chason_telemetry::trace::{parse_jsonl, to_jsonl};
use std::path::Path;

fn golden_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

#[test]
fn window_trace_is_byte_stable_and_matches_the_golden() {
    let sched = SchedulerConfig::toy(4, 4, 6);
    let chason = Accelerator::new(AcceleratorConfig {
        sched,
        ..AcceleratorConfig::chason()
    });
    let serpens = Accelerator::new(AcceleratorConfig {
        sched,
        ..AcceleratorConfig::serpens()
    });
    let matrix = chason_sparse::generators::power_law(128, 128, 900, 2.0, 17);

    let reference = {
        let c = chason.plan_with_threads(&matrix, 1).expect("chason plan");
        let s = serpens.plan_with_threads(&matrix, 1).expect("serpens plan");
        let mut jsonl = to_jsonl(&window_spans(&c, chason.config()));
        jsonl.push_str(&to_jsonl(&window_spans(&s, serpens.config())));
        jsonl
    };

    // Planning parallelism must not leak into the trace bytes.
    for threads in [2, 4, 8] {
        let c = chason
            .plan_with_threads(&matrix, threads)
            .expect("chason plan");
        let s = serpens
            .plan_with_threads(&matrix, threads)
            .expect("serpens plan");
        let mut jsonl = to_jsonl(&window_spans(&c, chason.config()));
        jsonl.push_str(&to_jsonl(&window_spans(&s, serpens.config())));
        assert_eq!(
            jsonl, reference,
            "trace bytes drifted at {threads} planning threads"
        );
    }

    // Lossless: the exported text parses back to the same spans.
    let spans = parse_jsonl(&reference).expect("golden trace parses");
    assert!(!spans.is_empty());
    assert_eq!(to_jsonl(&spans), reference);
    assert!(spans.iter().all(|s| s.name == "sim.window"));

    check_or_bless(&golden_path("trace_windows.jsonl"), &reference)
        .expect("window trace matches the committed golden (UPDATE_GOLDEN=1 to re-bless)");
}
