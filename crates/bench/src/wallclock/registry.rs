//! The registered wall-clock benchmarks: threaded SpMV kernels, engine
//! planning, plan replay, incremental delta re-planning, CHSP codec
//! round-trips, and pipelined echo round-trips through the chason-net
//! readiness loop.
//!
//! Every benchmark has a stable `group/case` id — the comparator matches
//! baseline to current by id — and an input fingerprint, so a baseline
//! measured on different data is detectable. Inputs are generated
//! deterministically (fixed seeds) and sized by the profile: `smoke` uses
//! small matrices so CI stays fast, `full` uses the sizes committed
//! baselines are measured on.

use super::report::BenchResult;
use super::runner::{measure, Profile};
use chason_baselines::parallel::{spmv_dynamic, spmv_static};
use chason_core::plan::matrix_fingerprint;
use chason_net::server::{FrameOutcome, NetConfig, NetServer, Service};
use chason_serve::proto::{
    decode_reply, decode_request, encode_load_matrix, encode_reply, encode_request, Engine, Reply,
    Request,
};
use chason_sim::{ChasonEngine, SerpensEngine};
use chason_sparse::generators::{power_law, uniform_random};
use chason_sparse::{CooMatrix, CsrMatrix, MatrixDelta};
use chason_telemetry::metrics::Registry;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;

/// One runnable benchmark: a stable id, its input fingerprint, the
/// nominal bytes one iteration moves (0 when throughput is not
/// meaningful), and the routine itself.
pub struct Benchmark {
    /// Stable `group/case` identifier.
    pub id: String,
    /// FNV-1a fingerprint of the benchmark's input.
    pub fingerprint: u64,
    /// Nominal bytes moved per iteration (0 = throughput not meaningful).
    pub bytes_per_iter: u64,
    /// The timed routine.
    pub routine: Box<dyn FnMut()>,
}

/// Thread counts every threaded kernel is measured at. Fixed (not derived
/// from the host) so benchmark ids are stable across machines.
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn matches(id: &str, filter: Option<&str>) -> bool {
    filter.is_none_or(|f| id.contains(f))
}

/// Nominal per-iteration traffic of one SpMV: 8 B per stored nonzero
/// (value + column index) plus 4 B per element of `x` and `y`.
fn spmv_bytes(matrix: &CooMatrix) -> u64 {
    (matrix.nnz() * 8 + matrix.cols() * 4 + matrix.rows() * 4) as u64
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The matrix the SpMV-kernel group runs on.
fn spmv_matrix(profile: &Profile) -> CooMatrix {
    if profile.name == "full" {
        power_law(16_384, 16_384, 1_000_000, 1.7, 11)
    } else {
        power_law(2_000, 2_000, 40_000, 1.7, 11)
    }
}

/// The matrix the planning and replay groups run on; wide enough to span
/// several column windows (W = 8192).
fn plan_matrix(profile: &Profile) -> CooMatrix {
    if profile.name == "full" {
        uniform_random(4_096, 60_000, 600_000, 13)
    } else {
        uniform_random(1_024, 20_000, 60_000, 13)
    }
}

fn chsp_vector_len(profile: &Profile) -> usize {
    if profile.name == "full" {
        65_536
    } else {
        4_096
    }
}

/// Builds every registered benchmark whose id contains `filter` (all of
/// them when `filter` is `None`). Construction is filter-aware: input
/// matrices for fully filtered-out groups are never generated.
pub fn benchmarks(profile: &Profile, filter: Option<&str>) -> Vec<Benchmark> {
    let mut out: Vec<Benchmark> = Vec::new();

    // (a) Threaded SpMV kernels, static and dynamic partitioning.
    let spmv_ids: Vec<(String, usize, bool)> = THREAD_COUNTS
        .iter()
        .flat_map(|&t| {
            [
                (format!("spmv/static-t{t}"), t, true),
                (format!("spmv/dynamic-t{t}"), t, false),
            ]
        })
        .collect();
    if spmv_ids.iter().any(|(id, ..)| matches(id, filter)) {
        let coo = spmv_matrix(profile);
        let fingerprint = matrix_fingerprint(&coo);
        let bytes = spmv_bytes(&coo);
        let csr = Rc::new(CsrMatrix::from(&coo));
        let x: Rc<Vec<f32>> = Rc::new((0..coo.cols()).map(|i| (i as f32 * 0.17).cos()).collect());
        for (id, threads, is_static) in spmv_ids {
            if !matches(&id, filter) {
                continue;
            }
            let csr = Rc::clone(&csr);
            let x = Rc::clone(&x);
            out.push(Benchmark {
                id,
                fingerprint,
                bytes_per_iter: bytes,
                routine: Box::new(move || {
                    let y = if is_static {
                        spmv_static(&csr, &x, threads)
                    } else {
                        spmv_dynamic(&csr, &x, threads, 256)
                    };
                    black_box(y);
                }),
            });
        }
    }

    // (b) Engine planning (schedule every column window, no execution).
    let plan_ids = [
        ("plan/chason-t1", true, 1usize),
        ("plan/chason-t4", true, 4),
        ("plan/serpens-t1", false, 1),
    ];
    if plan_ids.iter().any(|(id, ..)| matches(id, filter)) {
        let matrix = Rc::new(plan_matrix(profile));
        let fingerprint = matrix_fingerprint(&matrix);
        for (id, is_chason, threads) in plan_ids {
            if !matches(id, filter) {
                continue;
            }
            let matrix = Rc::clone(&matrix);
            out.push(Benchmark {
                id: id.to_string(),
                fingerprint,
                bytes_per_iter: 0,
                routine: Box::new(move || {
                    if is_chason {
                        let engine = ChasonEngine::default();
                        #[allow(clippy::expect_used)] // bench corpus fits the engines
                        black_box(engine.plan_with_threads(&matrix, threads).expect("plan"));
                    } else {
                        let engine = SerpensEngine::default();
                        #[allow(clippy::expect_used)] // bench corpus fits the engines
                        black_box(engine.plan_with_threads(&matrix, threads).expect("plan"));
                    }
                }),
            });
        }
    }

    // (c) Plan replay: schedule once in setup, execute many times.
    let replay_id = "replay/chason";
    if matches(replay_id, filter) {
        let matrix = plan_matrix(profile);
        let fingerprint = matrix_fingerprint(&matrix);
        let bytes = spmv_bytes(&matrix);
        let engine = ChasonEngine::default();
        #[allow(clippy::expect_used)] // bench corpus fits the engines
        let plan = engine.plan_with_threads(&matrix, 1).expect("plan");
        let x: Vec<f32> = (0..matrix.cols())
            .map(|i| (i as f32 * 0.29).sin())
            .collect();
        out.push(Benchmark {
            id: replay_id.to_string(),
            fingerprint,
            bytes_per_iter: bytes,
            routine: Box::new(move || {
                #[allow(clippy::expect_used)] // plan was built from this same matrix
                black_box(engine.run_planned(&plan, &x).expect("replay"));
            }),
        });
    }

    // (d) Incremental re-planning: a small delta (revalues confined to one
    // column window, touching well under 5% of the rows) spliced into a
    // cached plan vs. a full from-scratch re-plan of the updated matrix.
    // Same updated matrix either way, so the pair measures exactly the
    // work `replan_delta` avoids.
    let replan_ids = ["replan/full", "replan/delta"];
    if replan_ids.iter().any(|id| matches(id, filter)) {
        let matrix = plan_matrix(profile);
        let mut delta = MatrixDelta::for_matrix(&matrix);
        let budget = (matrix.rows() / 20).min(32); // <= 5% of rows
        let mut touched = 0usize;
        for &(r, c, v) in matrix.triplets().iter() {
            if touched == budget {
                break;
            }
            if c < 8192 {
                // First column window only (W = 8192).
                #[allow(clippy::expect_used)] // coordinate comes from the triplet list
                delta
                    .push_revalue(r, c, v * 1.5)
                    .expect("revalue existing entry");
                touched += 1;
            }
        }
        #[allow(clippy::expect_used)] // delta revalues existing entries only
        let updated = delta.apply(&matrix).expect("apply delta");
        let fingerprint = matrix_fingerprint(&updated);
        if matches(replan_ids[0], filter) {
            let engine = ChasonEngine::default();
            let updated = updated.clone();
            out.push(Benchmark {
                id: replan_ids[0].to_string(),
                fingerprint,
                bytes_per_iter: 0,
                routine: Box::new(move || {
                    #[allow(clippy::expect_used)] // bench corpus fits the engines
                    black_box(engine.plan_with_threads(&updated, 1).expect("plan"));
                }),
            });
        }
        if matches(replan_ids[1], filter) {
            let engine = ChasonEngine::default();
            #[allow(clippy::expect_used)] // bench corpus fits the engines
            let base = engine.plan_with_threads(&matrix, 1).expect("plan");
            out.push(Benchmark {
                id: replan_ids[1].to_string(),
                fingerprint,
                bytes_per_iter: 0,
                routine: Box::new(move || {
                    // The clone mirrors a serving cache splicing a copy of
                    // the resident plan; it is part of the splice cost.
                    let mut spliced = base.clone();
                    #[allow(clippy::expect_used)] // delta matches the base plan
                    engine
                        .replan_delta(&mut spliced, &updated, &delta)
                        .expect("splice");
                    black_box(spliced);
                }),
            });
        }
    }

    // (e) CHSP codec round-trips on realistic payload sizes.
    let chsp_ids = [
        "chsp/request-spmv",
        "chsp/reply-vector",
        "chsp/request-load",
    ];
    if chsp_ids.iter().any(|id| matches(id, filter)) {
        let n = chsp_vector_len(profile);
        let values: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
        if matches(chsp_ids[0], filter) {
            let request = Request::Spmv {
                handle: 0x1234_5678_9abc_def0,
                engine: Engine::Chason,
                x: values.clone(),
            };
            let payload = encode_request(&request);
            let fingerprint = fnv1a(&payload);
            let bytes = payload.len() as u64 * 2; // encode + decode
            out.push(Benchmark {
                id: chsp_ids[0].to_string(),
                fingerprint,
                bytes_per_iter: bytes,
                routine: Box::new(move || {
                    let wire = encode_request(&request);
                    #[allow(clippy::expect_used)] // decoding our own encoder's output
                    black_box(decode_request(&wire).expect("decode request"));
                }),
            });
        }
        if matches(chsp_ids[1], filter) {
            let reply = Reply::Vector {
                y: values,
                service_micros: 42,
                simulated_nanos: 77,
            };
            let payload = encode_reply(&reply);
            let fingerprint = fnv1a(&payload);
            let bytes = payload.len() as u64 * 2;
            out.push(Benchmark {
                id: chsp_ids[1].to_string(),
                fingerprint,
                bytes_per_iter: bytes,
                routine: Box::new(move || {
                    let wire = encode_reply(&reply);
                    #[allow(clippy::expect_used)] // decoding our own encoder's output
                    black_box(decode_reply(&wire).expect("decode reply"));
                }),
            });
        }
        if matches(chsp_ids[2], filter) {
            // A matrix upload: the client encodes the plan matrix, the
            // server decodes it.
            let matrix = plan_matrix(profile);
            let payload = encode_load_matrix(&matrix);
            let fingerprint = fnv1a(&payload);
            let bytes = payload.len() as u64 * 2;
            out.push(Benchmark {
                id: chsp_ids[2].to_string(),
                fingerprint,
                bytes_per_iter: bytes,
                routine: Box::new(move || {
                    let wire = encode_load_matrix(&matrix);
                    #[allow(clippy::expect_used)] // decoding our own encoder's output
                    black_box(decode_request(&wire).expect("decode load"));
                }),
            });
        }
    }

    // (f) Pipelined echo through the chason-net readiness loop on a real
    // loopback socket: one iteration writes `depth` frames back-to-back
    // and reads `depth` replies, so the depth sweep shows how much
    // per-round-trip latency pipelining amortises away.
    let net_ids = [
        ("net/echo-pipelined-d1", 1usize),
        ("net/echo-pipelined-d8", 8),
        ("net/echo-pipelined-d64", 64),
    ];
    if net_ids.iter().any(|(id, _)| matches(id, filter)) {
        struct Echo;
        impl Service for Echo {
            fn on_frame(&mut self, _conn: u64, _seq: u64, payload: Vec<u8>) -> FrameOutcome {
                FrameOutcome::Reply(payload)
            }
            fn on_oversized(&mut self, _conn: u64, _len: u64, _cap: u64) -> Option<Vec<u8>> {
                None
            }
        }
        let payload: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let fingerprint = fnv1a(&payload);
        for (id, depth) in net_ids {
            if !matches(id, filter) {
                continue;
            }
            let registry = Registry::new();
            #[allow(clippy::expect_used)] // bench setup; loopback never fails here
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
            #[allow(clippy::expect_used)] // bench setup; loopback never fails here
            let server = NetServer::start(listener, NetConfig::default(), &registry, |_| Echo)
                .expect("start net server");
            #[allow(clippy::expect_used)] // bench setup; loopback never fails here
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            #[allow(clippy::expect_used)] // bench setup; loopback never fails here
            stream.set_nodelay(true).expect("nodelay");
            let header = (payload.len() as u32).to_le_bytes();
            let payload = payload.clone();
            out.push(Benchmark {
                id: id.to_string(),
                fingerprint,
                // Each round trip moves the frame both ways.
                bytes_per_iter: (depth * (payload.len() + 4) * 2) as u64,
                routine: Box::new(move || {
                    // The server lives as long as the routine: the closure
                    // owns it, so the loop thread dies with the bench.
                    let _keep_alive = &server;
                    let mut burst = Vec::with_capacity(depth * (payload.len() + 4));
                    for _ in 0..depth {
                        burst.extend_from_slice(&header);
                        burst.extend_from_slice(&payload);
                    }
                    #[allow(clippy::expect_used)] // loopback echo round trip
                    stream.write_all(&burst).expect("write burst");
                    let mut reply = vec![0u8; payload.len() + 4];
                    for _ in 0..depth {
                        #[allow(clippy::expect_used)] // loopback echo round trip
                        stream.read_exact(&mut reply).expect("read reply");
                    }
                    black_box(&reply);
                }),
            });
        }
    }

    out
}

/// Runs every registered benchmark matching `filter` and returns the
/// measured results in registry order.
pub fn run_all(profile: &Profile, filter: Option<&str>) -> Vec<BenchResult> {
    benchmarks(profile, filter)
        .into_iter()
        .map(|mut bench| {
            let m = measure(profile, &mut *bench.routine);
            BenchResult {
                id: bench.id,
                fingerprint: bench.fingerprint,
                warmup_iters: m.warmup_iters,
                samples: m.samples,
                iters_per_sample: m.iters_per_sample,
                median_ns_per_iter: m.median_ns_per_iter,
                mad_ns_per_iter: m.mad_ns_per_iter,
                bytes_per_iter: bench.bytes_per_iter,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_six_groups() {
        let profile = Profile::smoke();
        let ids: Vec<String> = benchmarks(&profile, None)
            .iter()
            .map(|b| b.id.clone())
            .collect();
        for prefix in ["spmv/", "plan/", "replay/", "replan/", "chsp/", "net/"] {
            assert!(
                ids.iter().any(|id| id.starts_with(prefix)),
                "missing group {prefix} in {ids:?}"
            );
        }
        assert_eq!(ids.len(), 18);
    }

    #[test]
    fn replan_benchmarks_share_the_updated_fingerprint() {
        // Both replan benchmarks measure a path to the same updated
        // matrix's plan; the comparator relies on equal fingerprints to
        // know the inputs match.
        let profile = Profile::smoke();
        let benches = benchmarks(&profile, Some("replan/"));
        assert_eq!(benches.len(), 2);
        assert_eq!(benches[0].fingerprint, benches[1].fingerprint);
    }

    #[test]
    fn filter_prunes_construction() {
        let profile = Profile::smoke();
        let only_chsp = benchmarks(&profile, Some("chsp"));
        assert_eq!(only_chsp.len(), 3);
        assert!(only_chsp.iter().all(|b| b.id.starts_with("chsp/")));
        assert!(benchmarks(&profile, Some("no-such-bench")).is_empty());
    }
}
