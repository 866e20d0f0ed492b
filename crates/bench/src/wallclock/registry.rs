//! The registered wall-clock benchmarks: the CPU engine's SpMV, engine
//! planning, plan replay, incremental delta re-planning, CHSP codec
//! round-trips, the upload's fingerprint, admission and shard scatter
//! beside a plain memory copy, and pipelined echo round-trips through the
//! chason-net readiness loop.
//!
//! Every benchmark has a stable `group/case` id — the comparator matches
//! baseline to current by id — and an input fingerprint, so a baseline
//! measured on different data is detectable. A matrix input is keyed by
//! a hash of its `LoadMatrix` bytes, never by the matrix hash under test,
//! so a ledger survives a change to that hash. Inputs are generated
//! deterministically (fixed seeds) and sized by the profile: `smoke` uses
//! small matrices so CI stays fast, `full` uses the sizes committed
//! baselines are measured on.

use super::report::BenchResult;
use super::runner::{measure, Profile};
use chason_net::server::{FrameOutcome, NetConfig, NetServer, Service};
use chason_serve::admit;
use chason_serve::proto::{
    decode_reply, decode_request, encode_load_matrix, encode_load_run, encode_reply,
    encode_request, Engine, Reply, Request, DEFAULT_MAX_FRAME,
};
use chason_sim::{Accelerator, AcceleratorConfig};
use chason_sparse::generators::uniform_random;
use chason_sparse::shard::ShardSpec;
use chason_sparse::{CooMatrix, MatrixDelta};
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
    /// Input fingerprint of the benchmark.
    pub fingerprint: u64,
    /// Nominal bytes moved per iteration (0 = throughput not meaningful).
    pub bytes_per_iter: u64,
    /// The timed routine.
    pub routine: Box<dyn FnMut()>,
}

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

/// A matrix input's ledger key: FNV-1a of its `LoadMatrix` bytes.
fn input_key(matrix: &CooMatrix) -> u64 {
    fnv1a(&encode_load_matrix(matrix))
}

/// Shards the `upload/shard-scatter` row splits the plan matrix into, as
/// `sharded-spmv` deploys the router.
const SCATTER_SHARDS: usize = 3;

/// The matrix the SpMV, planning and replay groups run on; wide enough to
/// span several column windows (W = 8192).
fn plan_matrix(profile: &Profile) -> CooMatrix {
    if profile.name == "full" {
        uniform_random(4_096, 60_000, 600_000, 13)
    } else {
        uniform_random(1_024, 20_000, 60_000, 13)
    }
}

/// The dense vector the SpMV and replay rows multiply by.
fn replay_vector(matrix: &CooMatrix) -> Vec<f32> {
    (0..matrix.cols())
        .map(|i| (i as f32 * 0.29).sin())
        .collect()
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

    // (a) The CPU engine's SpMV, `CooMatrix::spmv` as `chason serve` runs
    // it, on the replay row's matrix and probe vector.
    let coo_id = "spmv/coo";
    if matches(coo_id, filter) {
        let matrix = plan_matrix(profile);
        let x = replay_vector(&matrix);
        out.push(Benchmark {
            id: coo_id.to_string(),
            fingerprint: input_key(&matrix),
            bytes_per_iter: spmv_bytes(&matrix),
            routine: Box::new(move || {
                black_box(black_box(&matrix).spmv(&x));
            }),
        });
    }

    // (b) Engine planning (schedule every column window, no execution).
    let plan_ids = [
        ("plan/chason-t1", AcceleratorConfig::chason(), 1usize),
        ("plan/chason-t4", AcceleratorConfig::chason(), 4),
        ("plan/serpens-t1", AcceleratorConfig::serpens(), 1),
    ];
    let migrate_id = "plan/chason-from-serpens-t1";
    if plan_ids.iter().any(|(id, ..)| matches(id, filter)) || matches(migrate_id, filter) {
        let matrix = Rc::new(plan_matrix(profile));
        let fingerprint = input_key(&matrix);
        for (id, config, threads) in plan_ids {
            if !matches(id, filter) {
                continue;
            }
            let matrix = Rc::clone(&matrix);
            out.push(Benchmark {
                id: id.to_string(),
                fingerprint,
                bytes_per_iter: 0,
                routine: Box::new(move || {
                    let engine = Accelerator::new(config);
                    #[allow(clippy::expect_used)] // bench corpus fits the engines
                    black_box(engine.plan_with_threads(&matrix, threads).expect("plan"));
                }),
            });
        }
        // The Chasoň plan derived from a built Serpens plan: the CrHCS
        // migration of every window, out of place, and nothing else.
        if matches(migrate_id, filter) {
            let engine = Accelerator::new(AcceleratorConfig::chason());
            #[allow(clippy::expect_used)] // bench corpus fits the engines
            let baseline = Accelerator::new(AcceleratorConfig::serpens())
                .plan_with_threads(&matrix, 1)
                .expect("plan");
            out.push(Benchmark {
                id: migrate_id.to_string(),
                fingerprint,
                bytes_per_iter: 0,
                routine: Box::new(move || {
                    #[allow(clippy::expect_used)] // baseline comes from the same config
                    let plan = engine
                        .migrate_plan_with_threads(&baseline, 1)
                        .expect("migrate");
                    black_box(plan);
                }),
            });
        }
    }

    // (c) Plan replay: schedule once in setup, execute many times.
    let replay_id = "replay/chason";
    if matches(replay_id, filter) {
        let matrix = plan_matrix(profile);
        let fingerprint = input_key(&matrix);
        let bytes = spmv_bytes(&matrix);
        let engine = Accelerator::new(AcceleratorConfig::chason());
        #[allow(clippy::expect_used)] // bench corpus fits the engines
        let plan = engine.plan_with_threads(&matrix, 1).expect("plan");
        let x = replay_vector(&matrix);
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
        let fingerprint = input_key(&updated);
        if matches(replan_ids[0], filter) {
            let engine = Accelerator::new(AcceleratorConfig::chason());
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
            let engine = Accelerator::new(AcceleratorConfig::chason());
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

    // (f) The upload's phases beside the host's memory roof, all on the
    // plan matrix and keyed by its wire bytes: a cold fingerprint (the
    // memo is bypassed, so every iteration hashes); admission, the decode
    // plus `admit::load_matrix` every daemon runs on a `LoadMatrix`; the
    // router's scatter, its nnz-balanced split plus one payload per
    // shard; and a plain copy of as many bytes between two preallocated
    // buffers.
    let upload_id = "upload/fingerprint";
    let admit_id = "upload/admit";
    let scatter_id = "upload/shard-scatter";
    let copy_id = "mem/stream-copy";
    let matrix_bytes = |matrix: &CooMatrix| matrix.nnz() * 24; // three 8-byte words per entry
    if matches(upload_id, filter) {
        let matrix = plan_matrix(profile);
        out.push(Benchmark {
            id: upload_id.to_string(),
            fingerprint: input_key(&matrix),
            bytes_per_iter: matrix_bytes(&matrix) as u64,
            routine: Box::new(move || {
                black_box(black_box(&matrix).compute_fingerprint());
            }),
        });
    }
    if matches(admit_id, filter) {
        let matrix = plan_matrix(profile);
        let wire = encode_load_matrix(&matrix);
        out.push(Benchmark {
            id: admit_id.to_string(),
            fingerprint: fnv1a(&wire),
            // The wire bytes are read once and the entries written once.
            bytes_per_iter: (wire.len() + matrix_bytes(&matrix)) as u64,
            routine: Box::new(move || {
                #[allow(clippy::expect_used)] // decoding our own encoder's output
                let request = decode_request(black_box(&wire)).expect("decode load");
                let Request::LoadMatrix {
                    rows,
                    cols,
                    triplets,
                } = request
                else {
                    unreachable!("a LoadMatrix payload decodes as LoadMatrix")
                };
                #[allow(clippy::expect_used)] // the encoded matrix was valid
                let admitted = admit::load_matrix(rows, cols, triplets, DEFAULT_MAX_FRAME)
                    .expect("admit load");
                black_box(admitted);
            }),
        });
    }
    if matches(scatter_id, filter) {
        let matrix = plan_matrix(profile);
        let wire = encode_load_matrix(&matrix);
        out.push(Benchmark {
            id: scatter_id.to_string(),
            fingerprint: fnv1a(&wire),
            // The entries are read once and the payloads written once.
            bytes_per_iter: (matrix_bytes(&matrix) + wire.len()) as u64,
            routine: Box::new(move || {
                let matrix = black_box(&matrix);
                #[allow(clippy::expect_used)] // the plan matrix has rows to spare
                let spec = ShardSpec::nnz_balanced(matrix, SCATTER_SHARDS).expect("split");
                for k in 0..SCATTER_SHARDS {
                    let (start, end) = spec.range(k);
                    #[allow(clippy::expect_used)] // the spec was built from this matrix
                    let run = spec.entries(matrix, k).expect("run");
                    black_box(encode_load_run(end - start, matrix.cols(), start, run));
                }
            }),
        });
    }
    if matches(copy_id, filter) {
        let words = matrix_bytes(&plan_matrix(profile)) / 8;
        let src: Vec<u64> = (0..words as u64).collect();
        let mut dst = vec![0u64; words];
        out.push(Benchmark {
            id: copy_id.to_string(),
            fingerprint: fnv1a(&(words as u64).to_le_bytes()),
            // Every byte is read once and written once.
            bytes_per_iter: (words * 8 * 2) as u64,
            routine: Box::new(move || {
                dst.copy_from_slice(black_box(&src));
                black_box(&dst);
            }),
        });
    }

    // (g) Pipelined echo through the chason-net readiness loop on a real
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
    fn registry_covers_every_group() {
        let profile = Profile::smoke();
        let ids: Vec<String> = benchmarks(&profile, None)
            .iter()
            .map(|b| b.id.clone())
            .collect();
        for prefix in [
            "spmv/", "plan/", "replay/", "replan/", "chsp/", "upload/", "mem/", "net/",
        ] {
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
    fn coo_spmv_and_replay_share_one_input() {
        // The CPU kernel and the replay are compared on one matrix: the
        // same input key and the same nominal bytes.
        let profile = Profile::smoke();
        let coo = benchmarks(&profile, Some("spmv/coo"));
        let replay = benchmarks(&profile, Some("replay/chason"));
        assert_eq!(coo.len(), 1);
        assert_eq!(replay.len(), 1);
        assert_eq!(coo[0].fingerprint, replay[0].fingerprint);
        assert_eq!(coo[0].bytes_per_iter, replay[0].bytes_per_iter);
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
