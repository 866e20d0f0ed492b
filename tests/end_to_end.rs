//! End-to-end integration: generate → schedule → simulate → verify, across
//! crates, on the evaluation catalogs.

use chason::baselines::reference;
use chason::core::schedule::{Crhcs, PeAware, Scheduler, SchedulerConfig};
use chason::sim::{Accelerator, AcceleratorConfig};
use chason::sparse::datasets::{corpus, table2};

/// The smaller Table 2 matrices run through both engines and must agree
/// with the CPU reference.
#[test]
fn table2_small_matrices_execute_correctly_on_both_engines() {
    let chason = Accelerator::new(AcceleratorConfig::chason());
    let serpens = Accelerator::new(AcceleratorConfig::serpens());
    for spec in table2().into_iter().filter(|s| s.nnz < 120_000) {
        let matrix = spec.generate();
        let x: Vec<f32> = (0..matrix.cols())
            .map(|i| 0.5 + (i % 5) as f32 * 0.25)
            .collect();
        let oracle = reference::spmv(&matrix, &x);

        let ce = chason
            .run(&matrix, &x)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let se = serpens
            .run(&matrix, &x)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let err_c = reference::max_relative_error(&ce.y, &oracle);
        let err_s = reference::max_relative_error(&se.y, &oracle);
        assert!(err_c < 1e-3, "{}: chason error {err_c}", spec.name);
        assert!(err_s < 1e-3, "{}: serpens error {err_s}", spec.name);
        assert_eq!(ce.mac_ops as usize, matrix.nnz(), "{}", spec.name);

        // The headline claims, per matrix.
        assert!(
            ce.underutilization <= se.underutilization + 1e-9,
            "{}: chason {} vs serpens {}",
            spec.name,
            ce.underutilization,
            se.underutilization
        );
        assert!(
            ce.latency_seconds() <= se.latency_seconds(),
            "{}: chason should not be slower",
            spec.name
        );
    }
}

/// Scheduler invariants hold over a corpus sample for both schedulers.
#[test]
fn corpus_sample_upholds_scheduler_invariants() {
    let config = SchedulerConfig::paper();
    for spec in corpus(10, 99).into_iter().filter(|s| s.nnz < 60_000) {
        let matrix = spec.generate();
        // Invariants are defined per scheduled window; narrow matrices are
        // a single window.
        if matrix.cols() > chason::core::element::WINDOW {
            continue;
        }
        let s = PeAware::new().schedule(&matrix, &config);
        s.validate(&matrix)
            .unwrap_or_else(|e| panic!("pe-aware on corpus {}: {e}", spec.index));
        let c = Crhcs::new().schedule(&matrix, &config);
        c.validate(&matrix)
            .unwrap_or_else(|e| panic!("crhcs on corpus {}: {e}", spec.index));
    }
}

/// CrHCS data lists round-trip through the wire format with flags intact.
#[test]
fn crhcs_data_lists_round_trip_the_wire_format() {
    use chason::core::element::SparseElement;
    let config = SchedulerConfig::paper();
    let matrix = chason::sparse::generators::power_law(1024, 1024, 6000, 1.8, 5);
    let schedule = Crhcs::new().schedule(&matrix, &config);
    let lists = schedule.data_lists_padded();
    assert_eq!(lists.len(), 16);
    let len = lists[0].len();
    let mut nonzeros = 0usize;
    let mut migrated = 0usize;
    for list in &lists {
        assert_eq!(list.len(), len, "padded lists are equal length");
        for &word in list {
            if let Some(e) = SparseElement::unpack(word) {
                nonzeros += 1;
                if !e.pvt {
                    migrated += 1;
                }
            }
        }
    }
    assert_eq!(nonzeros, matrix.nnz());
    assert!(migrated > 0, "skewed matrix must trigger migration");
}

/// The accelerator handles matrices wider than one window (x reloads).
#[test]
fn multi_window_execution_is_correct() {
    let matrix = chason::sparse::generators::uniform_random(256, 30_000, 20_000, 8);
    let x: Vec<f32> = (0..30_000).map(|i| ((i % 97) as f32) * 0.01).collect();
    let exec = Accelerator::new(AcceleratorConfig::chason())
        .run(&matrix, &x)
        .unwrap();
    assert_eq!(exec.windows, 4);
    let oracle = reference::spmv(&matrix, &x);
    assert!(reference::max_relative_error(&exec.y, &oracle) < 1e-3);
}

/// The engines' streamed bytes equal the scheduled data lists moved in
/// 512-bit beats: each channel pays ⌈len / 8⌉ beats of 64 bytes.
#[test]
fn traffic_accounting_is_consistent() {
    let config = SchedulerConfig::paper();
    let matrix = chason::sparse::generators::power_law(2048, 2048, 12_000, 1.6, 4);
    let x = vec![1.0; 2048];
    let beat_bytes = |schedule: &chason::core::schedule::ScheduledMatrix| -> u64 {
        schedule
            .data_lists_padded()
            .iter()
            .map(|list| list.len().div_ceil(8) as u64 * 64)
            .sum()
    };
    let serpens = Accelerator::new(AcceleratorConfig::serpens())
        .run(&matrix, &x)
        .unwrap();
    let pe_aware = PeAware::new().schedule(&matrix, &config);
    assert_eq!(serpens.bytes_streamed, beat_bytes(&pe_aware), "serpens");
    let chason = Accelerator::new(AcceleratorConfig::chason())
        .run(&matrix, &x)
        .unwrap();
    let crhcs = Crhcs::new().schedule(&matrix, &config);
    assert_eq!(chason.bytes_streamed, beat_bytes(&crhcs), "chason");
    assert!(chason.bytes_streamed < serpens.bytes_streamed);
}
