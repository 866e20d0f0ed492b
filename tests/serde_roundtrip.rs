//! C-SERDE compliance: the public data structures implement `Serialize` and
//! `DeserializeOwned`, so downstream users can archive experiment results
//! and configurations with the serde format crate of their choice (the
//! workspace itself deliberately carries no format crate).

use chason::core::schedule::{Crhcs, Scheduler, SchedulerConfig};
use chason::sim::{Accelerator, AcceleratorConfig};
use chason::sparse::{CooMatrix, CsrMatrix, DenseMatrix};

fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
fn assert_serialize<T: serde::Serialize>() {}

#[test]
fn data_structures_are_serde_compatible() {
    assert_serde::<SchedulerConfig>();
    assert_serde::<AcceleratorConfig>();
    assert_serde::<CooMatrix>();
    assert_serde::<CsrMatrix>();
    assert_serde::<DenseMatrix>();
    assert_serde::<chason::core::schedule::ScheduledMatrix>();
    assert_serde::<chason::core::schedule::ChannelSchedule>();
    assert_serde::<chason::core::schedule::NzSlot>();
    assert_serde::<chason::core::SparseElement>();
    assert_serde::<chason::core::metrics::WindowedMetrics>();
    assert_serialize::<chason::sim::Execution>(); // borrows &'static str names
    assert_serde::<chason::sim::CycleBreakdown>();
    assert_serialize::<chason::sim::SpmmExecution>(); // borrows &'static str names
    assert_serde::<chason::sim::report::PerformanceReport>();
    assert_serde::<chason::sim::power::PowerBreakdown>();
    assert_serde::<chason::sim::resources::ResourceUsage>();
    assert_serde::<chason::sim::StreamTiming>();
    assert_serialize::<chason::baselines::DeviceModel>(); // borrows &'static str names
    assert_serde::<chason::baselines::DevicePrediction>();
    assert_serialize::<chason::sparse::datasets::DatasetSpec>(); // borrows &'static str names
    assert_serde::<chason::sparse::datasets::CorpusSpec>();
    assert_serialize::<chason::sparse::stats::RowStats>();
}

/// Types are Send + Sync where users will share them across threads
/// (C-SEND-SYNC).
#[test]
fn key_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CooMatrix>();
    assert_send_sync::<CsrMatrix>();
    assert_send_sync::<chason::core::schedule::ScheduledMatrix>();
    assert_send_sync::<Accelerator>();
    assert_send_sync::<chason::sim::SimError>();
    assert_send_sync::<chason::sparse::SparseError>();
}

/// A serialized-then-restored schedule drives the engine identically: the
/// binary artifact (chason-core::export) is the supported archival format.
#[test]
fn binary_artifact_is_the_archival_path() {
    let m = chason::sparse::generators::power_law(256, 256, 1200, 1.7, 9);
    let schedule = Crhcs::new().schedule(&m, &SchedulerConfig::paper());
    let mut buf = Vec::new();
    chason::core::export::write_schedule(&mut buf, &schedule).unwrap();
    let artifact = chason::core::export::read_schedule(buf.as_slice()).unwrap();
    assert_eq!(artifact.lists, schedule.data_lists_padded());
    assert!((artifact.underutilization() - schedule.underutilization()).abs() < 1e-12);
    // And the engine still executes the same matrix correctly.
    let exec = Accelerator::new(AcceleratorConfig::chason())
        .run(&m, &vec![1.0; 256])
        .unwrap();
    assert_eq!(exec.mac_ops as usize, m.nnz());
}
