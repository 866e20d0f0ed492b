//! Property tests: every CHSP frame type survives an encode/decode round
//! trip, and the codec writes exactly the bytes of a plain field-by-field
//! reference encoder.
//!
//! The round-trip law is stated on the wire bytes —
//! `encode(decode(encode(m))) == encode(m)` — rather than on the decoded
//! values, so NaN float payloads (where `PartialEq` would lie) are covered
//! bit-exactly.

use chason_serve::proto::{
    decode_reply, decode_request, encode_load_matrix, encode_load_run, encode_reply,
    encode_request, encode_spmv, read_frame_blocking, write_frame, Engine, ErrorCode, Reply,
    Request, SolverKind, StatsSnapshot,
};
use chason_sparse::shard::ShardSpec;
use chason_sparse::CooMatrix;
use proptest::collection::vec;
use proptest::prelude::*;

/// The CHSP v1 layout written one field at a time, as each message's
/// documentation states it: the reference the bulk codec must match byte
/// for byte.
mod reference {
    use super::*;

    fn u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32s(buf: &mut Vec<u8>, v: &[f32]) {
        u64(buf, v.len() as u64);
        for &x in v {
            u32(buf, x.to_bits());
        }
    }

    fn triplets(buf: &mut Vec<u8>, t: &[(u64, u64, f32)]) {
        for &(r, c, v) in t {
            u64(buf, r);
            u64(buf, c);
            u32(buf, v.to_bits());
        }
    }

    fn text(buf: &mut Vec<u8>, s: &str) {
        u32(buf, s.len() as u32);
        buf.extend_from_slice(s.as_bytes());
    }

    pub fn request(req: &Request) -> Vec<u8> {
        let mut buf = Vec::new();
        match req {
            Request::LoadMatrix {
                rows,
                cols,
                triplets: t,
            } => {
                buf.push(0x01);
                u64(&mut buf, *rows);
                u64(&mut buf, *cols);
                u64(&mut buf, t.len() as u64);
                triplets(&mut buf, t);
            }
            Request::Spmv { handle, engine, x } => {
                buf.push(0x02);
                u64(&mut buf, *handle);
                buf.push(engine.code());
                f32s(&mut buf, x);
            }
            Request::Solve {
                handle,
                engine,
                solver,
                max_iterations,
                tolerance,
                b,
            } => {
                buf.push(0x03);
                u64(&mut buf, *handle);
                buf.push(engine.code());
                buf.push(solver.code());
                u32(&mut buf, *max_iterations);
                u64(&mut buf, tolerance.to_bits());
                f32s(&mut buf, b);
            }
            Request::Plan { handle, engine } => {
                buf.push(0x04);
                u64(&mut buf, *handle);
                buf.push(engine.code());
            }
            Request::Stats => buf.push(0x05),
            Request::Shutdown => buf.push(0x06),
            Request::Sleep { millis } => {
                buf.push(0x07);
                u32(&mut buf, *millis);
            }
            Request::Metrics => buf.push(0x08),
            Request::Update {
                handle,
                inserts,
                revalues,
                deletes,
            } => {
                buf.push(0x09);
                u64(&mut buf, *handle);
                u64(&mut buf, inserts.len() as u64);
                u64(&mut buf, revalues.len() as u64);
                u64(&mut buf, deletes.len() as u64);
                triplets(&mut buf, inserts);
                triplets(&mut buf, revalues);
                for &(r, c) in deletes {
                    u64(&mut buf, r);
                    u64(&mut buf, c);
                }
            }
        }
        buf
    }

    pub fn reply(reply: &Reply) -> Vec<u8> {
        let mut buf = Vec::new();
        match reply {
            Reply::Loaded {
                handle,
                rows,
                cols,
                nnz,
                fresh,
                version,
            } => {
                buf.push(0x81);
                for word in [*handle, *rows, *cols, *nnz] {
                    u64(&mut buf, word);
                }
                buf.push(u8::from(*fresh));
                u64(&mut buf, *version);
            }
            Reply::Vector {
                y,
                service_micros,
                simulated_nanos,
            } => {
                buf.push(0x82);
                u64(&mut buf, *service_micros);
                u64(&mut buf, *simulated_nanos);
                f32s(&mut buf, y);
            }
            Reply::Solved {
                solution,
                iterations,
                residual,
                converged,
                service_micros,
                simulated_nanos,
            } => {
                buf.push(0x83);
                u64(&mut buf, *iterations);
                u64(&mut buf, residual.to_bits());
                buf.push(u8::from(*converged));
                u64(&mut buf, *service_micros);
                u64(&mut buf, *simulated_nanos);
                f32s(&mut buf, solution);
            }
            Reply::PlanArtifact { bytes } => {
                buf.push(0x84);
                u64(&mut buf, bytes.len() as u64);
                buf.extend_from_slice(bytes);
            }
            Reply::Stats(s) => {
                buf.push(0x85);
                for word in [
                    s.uptime_millis,
                    s.requests_load,
                    s.requests_spmv,
                    s.requests_solve,
                    s.requests_plan,
                    s.requests_stats,
                    s.requests_sleep,
                    s.shed,
                    s.batched,
                    s.queue_depth_hwm,
                    s.plan_cache_hits,
                    s.plan_cache_misses,
                    s.plan_cache_evictions,
                    s.plan_cache_len,
                    s.plan_cache_capacity,
                    s.matrices_resident,
                    s.matrix_evictions,
                    s.service_p50_micros,
                    s.service_p99_micros,
                    s.service_max_micros,
                    s.service_samples,
                    s.queue_p50_micros,
                    s.queue_p99_micros,
                    s.queue_max_micros,
                    s.requests_update,
                    s.plans_spliced,
                    s.replan_windows,
                ] {
                    u64(&mut buf, word);
                }
            }
            Reply::Done => buf.push(0x86),
            Reply::Busy { retry_after_ms } => {
                buf.push(0x87);
                u32(&mut buf, *retry_after_ms);
            }
            Reply::Error { code, message } => {
                buf.push(0x88);
                buf.push(code.code());
                text(&mut buf, message);
            }
            Reply::MetricsText { text: t } => {
                buf.push(0x89);
                text(&mut buf, t);
            }
            Reply::Updated {
                version,
                nnz,
                plans_spliced,
                windows_replanned,
                windows_total,
            } => {
                buf.push(0x8A);
                u64(&mut buf, *version);
                u64(&mut buf, *nnz);
                u32(&mut buf, *plans_spliced);
                u64(&mut buf, *windows_replanned);
                u64(&mut buf, *windows_total);
            }
        }
        buf
    }
}

fn floats(bits: &[u32]) -> Vec<f32> {
    bits.iter().map(|&b| f32::from_bits(b)).collect()
}

fn snapshot_from(words: &[u64]) -> StatsSnapshot {
    StatsSnapshot {
        uptime_millis: words[0],
        requests_load: words[1],
        requests_spmv: words[2],
        requests_solve: words[3],
        requests_plan: words[4],
        requests_stats: words[5],
        requests_sleep: words[6],
        shed: words[7],
        batched: words[8],
        queue_depth_hwm: words[9],
        plan_cache_hits: words[10],
        plan_cache_misses: words[11],
        plan_cache_evictions: words[12],
        plan_cache_len: words[13],
        plan_cache_capacity: words[14],
        matrices_resident: words[15],
        matrix_evictions: words[16],
        service_p50_micros: words[17],
        service_p99_micros: words[18],
        service_max_micros: words[19],
        service_samples: words[20],
        queue_p50_micros: words[21],
        queue_p99_micros: words[22],
        queue_max_micros: words[23],
        requests_update: words[24],
        plans_spliced: words[25],
        replan_windows: words[26],
    }
}

const MESSAGES: [&str; 4] = ["", "queue full", "no such matrix", "Ω non-ascii detail ✓"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_request_variant_round_trips(
        selector in 0usize..9,
        handle in any::<u64>(),
        dims in (1u64..5000, 1u64..5000),
        engine_code in 0u8..3,
        solver_code in 0u8..2,
        max_iterations in any::<u32>(),
        tolerance_bits in any::<u64>(),
        value_bits in vec(any::<u32>(), 0..12),
        coords in vec((0u64..5000, 0u64..5000, any::<u32>()), 0..12),
        bare_coords in vec((0u64..5000, 0u64..5000), 0..12),
        millis in any::<u32>(),
    ) {
        let engine = Engine::from_code(engine_code).unwrap();
        let request = match selector {
            0 => Request::LoadMatrix {
                rows: dims.0,
                cols: dims.1,
                triplets: coords
                    .iter()
                    .map(|&(r, c, v)| (r, c, f32::from_bits(v)))
                    .collect(),
            },
            1 => Request::Spmv { handle, engine, x: floats(&value_bits) },
            2 => Request::Solve {
                handle,
                engine,
                solver: SolverKind::from_code(solver_code).unwrap(),
                max_iterations,
                tolerance: f64::from_bits(tolerance_bits),
                b: floats(&value_bits),
            },
            3 => Request::Plan { handle, engine },
            4 => Request::Stats,
            5 => Request::Shutdown,
            6 => Request::Metrics,
            7 => Request::Update {
                handle,
                inserts: coords
                    .iter()
                    .map(|&(r, c, v)| (r, c, f32::from_bits(v)))
                    .collect(),
                revalues: coords
                    .iter()
                    .rev()
                    .map(|&(r, c, v)| (c, r, f32::from_bits(v)))
                    .collect(),
                deletes: bare_coords,
            },
            _ => Request::Sleep { millis },
        };
        let wire = encode_request(&request);
        // The buffer was reserved at its exact length: it never grew.
        prop_assert_eq!(wire.capacity(), wire.len());
        prop_assert_eq!(&wire, &reference::request(&request));
        if let Request::Spmv { handle, engine, x } = &request {
            let direct = encode_spmv(*handle, *engine, x);
            prop_assert_eq!(direct.capacity(), direct.len());
            prop_assert_eq!(&direct, &wire);
        }
        let decoded = decode_request(&wire).expect("encoded request must decode");
        prop_assert_eq!(encode_request(&decoded), wire);

        // An upload encoded straight from a matrix writes the bytes of
        // the request built from the matrix's own triplets.
        let entries = coords
            .iter()
            .map(|&(r, c, v)| ((r % dims.0) as usize, (c % dims.1) as usize, f32::from_bits(v)))
            .collect();
        let matrix = CooMatrix::from_triplets_summing(dims.0 as usize, dims.1 as usize, entries)
            .expect("coordinates are in bounds");
        let direct = encode_load_matrix(&matrix);
        prop_assert_eq!(direct.capacity(), direct.len());
        let via_request = reference::request(&Request::LoadMatrix {
            rows: dims.0,
            cols: dims.1,
            triplets: matrix
                .iter()
                .map(|&(r, c, v)| (r as u64, c as u64, v))
                .collect(),
        });
        prop_assert_eq!(direct, via_request);

        // A row block encoded from its run of the matrix's entries writes
        // the bytes of the block built as a matrix of its own.
        let spec = ShardSpec::nnz_balanced(&matrix, matrix.rows().min(3))
            .expect("at most one shard per row");
        for k in 0..spec.shards() {
            let (start, end) = spec.range(k);
            let run = spec.entries(&matrix, k).expect("spec tiles the matrix");
            let from_run = encode_load_run(end - start, matrix.cols(), start, run);
            prop_assert_eq!(from_run.capacity(), from_run.len());
            let slice = spec.slice(&matrix, k).expect("spec tiles the matrix");
            prop_assert_eq!(from_run, encode_load_matrix(&slice));
        }
    }

    #[test]
    fn every_reply_variant_round_trips(
        selector in 0usize..10,
        words in vec(any::<u64>(), 27),
        flag in any::<bool>(),
        value_bits in vec(any::<u32>(), 0..12),
        artifact in vec(any::<u8>(), 0..64),
        residual_bits in any::<u64>(),
        retry_after_ms in any::<u32>(),
        error_code in 1u8..10,
        message_index in 0usize..4,
    ) {
        let reply = match selector {
            0 => Reply::Loaded {
                handle: words[0],
                rows: words[1],
                cols: words[2],
                nnz: words[3],
                fresh: flag,
                version: words[8],
            },
            1 => Reply::Vector {
                y: floats(&value_bits),
                service_micros: words[4],
                simulated_nanos: words[5],
            },
            2 => Reply::Solved {
                solution: floats(&value_bits),
                iterations: words[6],
                residual: f64::from_bits(residual_bits),
                converged: flag,
                service_micros: words[7],
                simulated_nanos: words[8],
            },
            3 => Reply::PlanArtifact { bytes: artifact },
            4 => Reply::Stats(snapshot_from(&words)),
            5 => Reply::Done,
            6 => Reply::Busy { retry_after_ms },
            7 => Reply::MetricsText {
                text: MESSAGES[message_index].to_string(),
            },
            8 => Reply::Updated {
                version: words[9],
                nnz: words[10],
                plans_spliced: retry_after_ms,
                windows_replanned: words[11],
                windows_total: words[12],
            },
            _ => Reply::Error {
                code: ErrorCode::from_code(error_code).unwrap(),
                message: MESSAGES[message_index].to_string(),
            },
        };
        let wire = encode_reply(&reply);
        prop_assert_eq!(wire.capacity(), wire.len());
        prop_assert_eq!(&wire, &reference::reply(&reply));
        let decoded = decode_reply(&wire).expect("encoded reply must decode");
        prop_assert_eq!(encode_reply(&decoded), wire);
    }

    #[test]
    fn framing_round_trips_and_truncations_fail(
        payload in vec(any::<u8>(), 0..300),
        cut in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        prop_assert_eq!(wire.len(), payload.len() + 4);
        let read = read_frame_blocking(&mut wire.as_slice(), 4096).expect("frame must read back");
        prop_assert_eq!(read, payload);
        // Any strict prefix must fail to read as a complete frame.
        let cut = (cut as usize) % wire.len();
        let truncated = &wire[..cut];
        prop_assert!(read_frame_blocking(&mut &truncated[..], 4096).is_err());
    }

    #[test]
    fn random_payload_bytes_never_panic_the_decoders(
        payload in vec(any::<u8>(), 0..200),
    ) {
        // Result is irrelevant; the property is "no panic, no unbounded
        // allocation" on arbitrary input.
        let _ = decode_request(&payload);
        let _ = decode_reply(&payload);
    }

    #[test]
    fn corrupted_encodings_never_panic(
        selector in 0usize..4,
        flip_at in any::<u64>(),
        flip_to in any::<u8>(),
        value_bits in vec(any::<u32>(), 1..8),
    ) {
        let wire = match selector {
            0 => encode_request(&Request::Spmv {
                handle: 9,
                engine: Engine::Chason,
                x: floats(&value_bits),
            }),
            1 => encode_reply(&Reply::Error {
                code: ErrorCode::BadRequest,
                message: "detail".to_string(),
            }),
            2 => encode_request(&Request::Update {
                handle: 9,
                inserts: vec![(1, 2, f32::from_bits(value_bits[0]))],
                revalues: vec![(3, 4, f32::from_bits(value_bits[0]))],
                deletes: vec![(5, 6)],
            }),
            _ => encode_reply(&Reply::Stats(StatsSnapshot::default())),
        };
        let mut corrupted = wire;
        let at = (flip_at as usize) % corrupted.len();
        corrupted[at] = flip_to;
        let _ = decode_request(&corrupted);
        let _ = decode_reply(&corrupted);
    }
}
