//! Smoke test: every workload at reduced size for about a second, untraced
//! and traced. Each run must fail no request and end with a result line
//! naming exactly the metrics `BENCHMARK.json` declares, in its units,
//! each above 0.

use chason_e2e_bench::json::{parse, Json};
use chason_e2e_bench::workload::Workload;
use std::process::Command;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn declared(benchmark: &Json, section: &str) -> Vec<(String, String)> {
    benchmark
        .get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_chason-e2e"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args([
            "--trace",
            trace,
            "--small",
            "--spans",
            env!("CARGO_TARGET_TMPDIR"),
        ])
        .output()
        .expect("chason-e2e runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("output")).expect("last line is JSON")
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let benchmark = benchmark();
    let names: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        names, ours,
        "BENCHMARK.json and the binary disagree on the workloads"
    );

    for workload in ours {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            let keys: Vec<&str> = result
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            let printed: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(|v| v.is_finite() && v > 0.0),
                        "{workload}: {name} must be a number above 0, got {value:?}"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(
                printed,
                declared(&benchmark, section),
                "{workload} --trace {trace}"
            );
        }
    }
}
