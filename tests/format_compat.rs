//! Backward-compatibility tests for the on-disk interchange formats:
//! the CHPL binary plan artifact (`chason_core::export::write_plan`) and
//! the bit-exact `PerformanceReport` text record. Both are pinned by
//! committed fixtures under `tests/golden/` — a format change that cannot
//! read yesterday's bytes fails here before it ships.

use chason_conformance::golden;
use chason_core::export::{read_plan, write_plan, ExportError};
use chason_core::plan::SpmvPlan;
use chason_core::schedule::SchedulerConfig;
use chason_sim::power::MeasuredPower;
use chason_sim::report::PerformanceReport;
use chason_sim::{Accelerator, AcceleratorConfig};
use chason_sparse::generators::power_law;
use chason_sparse::CooMatrix;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn sample_matrix() -> CooMatrix {
    power_law(96, 96, 700, 1.7, 31)
}

fn engine() -> Accelerator {
    Accelerator::new(AcceleratorConfig {
        sched: SchedulerConfig::toy(4, 4, 6),
        ..AcceleratorConfig::chason()
    })
}

fn sample_plan() -> SpmvPlan {
    engine().plan_with_threads(&sample_matrix(), 1).unwrap()
}

/// The CHPL codec round-trips a real planner output exactly, and the
/// committed fixture from a previous release still decodes to the same
/// plan — the format is stable, not merely self-consistent.
#[test]
fn chpl_plan_fixture_stays_readable() {
    let plan = sample_plan();
    let mut bytes = Vec::new();
    write_plan(&mut bytes, &plan).unwrap();
    assert_eq!(read_plan(&bytes[..]).unwrap(), plan, "in-memory round trip");

    let path = golden_path("plan_toy.chpl");
    golden::check_or_bless_bytes(&path, &bytes).unwrap_or_else(|e| panic!("{e}"));
    let committed = std::fs::read(&path).unwrap();
    assert_eq!(
        read_plan(&committed[..]).unwrap(),
        plan,
        "committed CHPL fixture no longer decodes to the original plan"
    );
}

/// A version 1 CHPL file carries the earlier FNV-1a matrix fingerprint,
/// which no longer names its matrix: it is refused with the typed version
/// error, not read as drift.
#[test]
fn chpl_version_one_fixture_is_refused() {
    let committed = std::fs::read(golden_path("plan_toy_v1.chpl")).unwrap();
    match read_plan(&committed[..]) {
        Err(ExportError::UnsupportedVersion {
            got: 1,
            expected: 2,
        }) => {}
        other => panic!("expected UnsupportedVersion {{ got: 1, expected: 2 }}, got {other:?}"),
    }
}

/// The performance-report record renders f64 metrics as IEEE-754 bit
/// patterns, so the committed line is byte-stable and decodes bit-exactly.
#[test]
fn report_record_fixture_stays_readable() {
    let m = sample_matrix();
    let x: Vec<f32> = (0..m.cols()).map(|i| (i % 7) as f32 * 0.5 + 1.0).collect();
    let exec = engine().run(&m, &x).unwrap();
    let report = PerformanceReport::from_execution(&exec, 460.8, MeasuredPower::chason());

    let record = report.to_record();
    assert_eq!(
        PerformanceReport::from_record(&record).unwrap(),
        report,
        "in-memory round trip"
    );

    let path = golden_path("report_record.txt");
    golden::check_or_bless(&path, &format!("{record}\n")).unwrap_or_else(|e| panic!("{e}"));
    let committed = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        PerformanceReport::from_record(committed.trim_end()).unwrap(),
        report,
        "committed record no longer decodes to the original report"
    );
}
