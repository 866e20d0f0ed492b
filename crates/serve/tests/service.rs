//! End-to-end tests of the CHSP service over real sockets on ephemeral
//! ports: happy path, malformed and oversized frames, queue-full
//! shedding, mid-request disconnects, and graceful shutdown draining.

use chason_serve::client::Client;
use chason_serve::proto::{
    decode_reply, encode_request, read_frame_blocking, write_frame, Engine, ErrorCode, Reply,
    Request, SolverKind, DEFAULT_MAX_FRAME,
};
use chason_serve::server::{ServeConfig, Server};
use chason_testutil::spd_system;
use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("server binds an ephemeral port")
}

fn small_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

/// Sends one raw frame and reads one raw reply on a bare socket.
fn raw_round_trip(stream: &mut TcpStream, payload: &[u8]) -> Reply {
    write_frame(stream, payload).expect("write frame");
    let reply = read_frame_blocking(stream, DEFAULT_MAX_FRAME).expect("read reply frame");
    decode_reply(&reply).expect("decode reply")
}

#[test]
fn happy_path_load_spmv_solve_plan_stats_over_concurrent_clients() {
    let server = start(small_config());
    let addr = server.local_addr();
    let handles: Vec<_> = (0..3)
        .map(|i| {
            thread::spawn(move || {
                let (a, b) = spd_system(64 + 8 * i, 40 + i as u64);
                let mut client = Client::connect(addr).expect("connect");
                let (handle, _) = client.load_matrix(&a).expect("load");

                // SpMV on every backend matches the local reference.
                let expected = a.spmv(&b);
                for engine in [Engine::Cpu, Engine::Chason, Engine::Serpens] {
                    let (y, _, simulated) = client.spmv(handle, engine, b.clone()).expect("spmv");
                    assert_eq!(y.len(), expected.len());
                    for (got, want) in y.iter().zip(&expected) {
                        assert!((got - want).abs() <= 1e-3 * want.abs().max(1.0));
                    }
                    if engine == Engine::Cpu {
                        assert_eq!(simulated, 0);
                    } else {
                        assert!(simulated > 0, "{engine:?} must report modeled time");
                    }
                }

                // Both solvers converge on the SPD system.
                for solver in [SolverKind::Cg, SolverKind::Jacobi] {
                    let outcome = client
                        .solve(handle, Engine::Chason, solver, 200, 1e-4, b.clone())
                        .expect("solve");
                    assert!(
                        outcome.converged,
                        "{solver:?} residual {}",
                        outcome.residual
                    );
                    assert!(outcome.simulated_nanos > 0);
                }

                // The plan artifact is a valid CHPL container for this matrix.
                let bytes = client.plan(handle, Engine::Chason).expect("plan");
                let plan = chason_core::export::read_plan(&bytes[..]).expect("artifact decodes");
                assert_eq!(plan.nnz, a.nnz());
                handle
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let stats = server.stats();
    assert_eq!(stats.requests_spmv, 9);
    assert_eq!(stats.requests_solve, 6);
    assert_eq!(stats.requests_plan, 3);
    assert_eq!(stats.matrices_resident, 3);
    assert!(
        stats.plan_cache_hits > 0,
        "solve iterations and repeat spmv must hit the shared plan cache: {stats:?}"
    );
    assert_eq!(stats.shed, 0);

    let mut client = Client::connect(addr).expect("connect");
    // The Prometheus-style exposition is served inline and agrees with the
    // Stats counters.
    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("chsp_requests_spmv_total 9"),
        "exposition must carry the spmv counter:\n{metrics}"
    );
    assert!(metrics.contains("# TYPE chsp_service_micros histogram"));
    assert!(metrics.contains("chsp_matrices_resident 3"));
    // Each worker runs one job per dequeue; the reply keeps the reserved
    // `batched` word, and it reads 0.
    assert_eq!(client.stats().expect("stats").batched, 0);
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn repeat_loads_are_idempotent_and_unknown_handles_are_typed_errors() {
    let server = start(small_config());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (a, _) = spd_system(32, 5);
    let (h1, fresh1) = client.load_matrix(&a).expect("load");
    let (h2, fresh2) = client.load_matrix(&a).expect("reload");
    assert_eq!(h1, h2);
    assert!(fresh1 && !fresh2);

    let err = client
        .spmv(0xdead_beef, Engine::Cpu, vec![1.0; 32])
        .unwrap_err();
    match err {
        chason_serve::client::ClientError::Server { code, .. } => {
            assert_eq!(code, ErrorCode::UnknownHandle)
        }
        other => panic!("expected UnknownHandle, got {other}"),
    }

    // An explicit zero value is unschedulable (§3.2 reserves the zero word).
    let reply = client
        .request(&Request::LoadMatrix {
            rows: 2,
            cols: 2,
            triplets: vec![(0, 0, 1.0), (1, 1, 0.0)],
        })
        .expect("request");
    assert!(
        matches!(&reply, Reply::Error { code: ErrorCode::BadRequest, message }
            if message.contains("unschedulable")),
        "{reply:?}"
    );

    // A rectangular solve is rejected up front instead of panicking a worker.
    let reply = client
        .request(&Request::LoadMatrix {
            rows: 2,
            cols: 3,
            triplets: vec![(0, 0, 1.0), (1, 2, 2.0)],
        })
        .expect("request");
    let Reply::Loaded { handle, .. } = reply else {
        panic!("{reply:?}")
    };
    let err = client
        .solve(handle, Engine::Cpu, SolverKind::Cg, 5, 1e-3, vec![1.0, 1.0])
        .unwrap_err();
    match err {
        chason_serve::client::ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("square"), "{message}");
        }
        other => panic!("expected BadRequest, got {other}"),
    }

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn malformed_frame_gets_a_typed_error_and_the_connection_survives() {
    let server = start(small_config());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // Garbage opcode.
    match raw_round_trip(&mut stream, &[0x6f, 1, 2, 3]) {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("{other:?}"),
    }
    // Truncated body: Spmv opcode with nothing after it.
    match raw_round_trip(&mut stream, &[0x02]) {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("{other:?}"),
    }
    // The same connection still serves valid requests.
    match raw_round_trip(&mut stream, &encode_request(&Request::Stats)) {
        Reply::Stats(snapshot) => assert_eq!(snapshot.requests_stats, 1),
        other => panic!("{other:?}"),
    }

    server.shutdown();
    server.join();
}

#[test]
fn oversized_frame_is_refused_and_the_connection_closed() {
    let server = start(ServeConfig {
        max_frame_len: 1024,
        ..small_config()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Declare a 1 MiB payload against a 1 KiB cap; the reply must arrive
    // before any payload bytes are sent.
    stream
        .write_all(&(1_048_576u32).to_le_bytes())
        .expect("send header");
    let reply = read_frame_blocking(&mut stream, DEFAULT_MAX_FRAME).expect("read reply");
    match decode_reply(&reply).expect("decode") {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("{other:?}"),
    }
    // The server cannot resynchronize, so it hangs up: the next read sees
    // EOF.
    assert!(read_frame_blocking(&mut stream, DEFAULT_MAX_FRAME).is_err());

    server.shutdown();
    server.join();
}

#[test]
fn full_queue_sheds_with_busy_and_keeps_the_connection() {
    let server = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 7,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // Occupy the single worker…
    let w1 = thread::spawn(move || {
        Client::connect(addr)
            .expect("connect")
            .sleep(600)
            .expect("sleep 1")
    });
    thread::sleep(Duration::from_millis(150));
    // …and fill the single queue slot.
    let w2 = thread::spawn(move || {
        Client::connect(addr)
            .expect("connect")
            .sleep(600)
            .expect("sleep 2")
    });
    thread::sleep(Duration::from_millis(150));

    let mut probe = Client::connect(addr).expect("connect");
    match probe
        .request(&Request::Sleep { millis: 1 })
        .expect("request")
    {
        Reply::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 7),
        other => panic!("expected Busy, got {other:?}"),
    }
    // Shedding must not cost the connection: stats still works inline, and
    // records the shed.
    let stats = probe.stats().expect("stats after Busy");
    assert!(stats.shed >= 1, "{stats:?}");
    assert!(stats.queue_depth_hwm >= 1, "{stats:?}");

    // Once the backlog drains, the same connection's work is accepted.
    w1.join().expect("sleeper 1");
    w2.join().expect("sleeper 2");
    probe.sleep(1).expect("accepted after drain");

    probe.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn mid_request_disconnects_leave_the_server_healthy() {
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // Disconnect mid-frame: header promises 100 bytes, only 10 arrive.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&100u32.to_le_bytes()).expect("header");
        stream.write_all(&[0u8; 10]).expect("partial payload");
    } // dropped here

    // Disconnect while a request is in flight: the worker's reply goes
    // nowhere, which must not hurt the pool.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(
            &mut stream,
            &encode_request(&Request::Sleep { millis: 200 }),
        )
        .expect("send sleep");
    } // dropped before the reply

    thread::sleep(Duration::from_millis(400));
    let mut client = Client::connect(addr).expect("connect");
    client.sleep(1).expect("worker pool still alive");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests_sleep, 2);

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn shutdown_drains_in_flight_work_before_exiting() {
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // A slow request in flight…
    let in_flight = thread::spawn(move || {
        Client::connect(addr)
            .expect("connect")
            .sleep(500)
            .expect("in-flight request must be answered during drain")
    });
    thread::sleep(Duration::from_millis(100));

    // …while another connection asks for shutdown.
    let mut closer = Client::connect(addr).expect("connect");
    closer.shutdown().expect("shutdown acknowledged");

    // The in-flight request completes (drain), then everything exits.
    in_flight.join().expect("drained request");
    server.join();

    // The listener is gone: new connections are refused or reset.
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut stream) => raw_is_dead(&mut stream),
    };
    assert!(refused, "server must stop accepting after drain");
}

/// After shutdown the OS may still complete a TCP handshake on the dead
/// listener's backlog; a request on such a socket must fail.
fn raw_is_dead(stream: &mut TcpStream) -> bool {
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("set timeout");
    if write_frame(stream, &encode_request(&Request::Stats)).is_err() {
        return true;
    }
    read_frame_blocking(stream, DEFAULT_MAX_FRAME).is_err()
}

#[test]
fn updates_interleave_with_spmv_on_one_connection_without_stale_plans() {
    use chason_sparse::generators::uniform_random;
    use chason_sparse::MatrixDelta;

    let server = start(small_config());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Wide enough for three column windows under the paper's W = 8192, so
    // a splice re-schedules a strict subset of windows.
    let m0 = uniform_random(128, 20_000, 4_000, 11);
    let (handle, fresh) = client.load_matrix(&m0).expect("load");
    assert!(fresh);
    let x: Vec<f32> = (0..m0.cols()).map(|i| ((i % 13) as f32) - 6.0).collect();

    let check = |client: &mut Client, reference: &chason_sparse::CooMatrix| {
        let expected = reference.spmv(&x);
        for engine in [Engine::Cpu, Engine::Chason, Engine::Serpens] {
            let (y, _, _) = client.spmv(handle, engine, x.clone()).expect("spmv");
            for (row, (got, want)) in y.iter().zip(&expected).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "{engine:?} row {row}: got {got}, want {want}"
                );
            }
        }
    };

    // Warm every engine's plan against version 0.
    check(&mut client, &m0);

    // Delta 1: revalue the first explicit entry by a large factor (so a
    // stale plan would produce a visibly wrong row), delete the last, and
    // insert at a vacant coordinate.
    let triplets: Vec<(usize, usize, f32)> = m0.iter().copied().collect();
    let &(r0, c0, v0) = triplets.first().expect("non-empty matrix");
    let &(r1, c1, _) = triplets.last().expect("non-empty matrix");
    let vacant_col = (0..m0.cols())
        .find(|&c| !triplets.iter().any(|&(r, tc, _)| r == 0 && tc == c))
        .expect("a vacant coordinate in row 0");

    let mut delta = MatrixDelta::for_matrix(&m0);
    delta.push_revalue(r0, c0, v0 * 64.0).expect("revalue");
    delta.push_delete(r1, c1).expect("delete");
    delta.push_insert(0, vacant_col, 2.5).expect("insert");
    let m1 = delta.apply(&m0).expect("reference apply");

    let outcome = client
        .update(
            handle,
            vec![(0, vacant_col as u64, 2.5)],
            vec![(r0 as u64, c0 as u64, v0 * 64.0)],
            vec![(r1 as u64, c1 as u64)],
        )
        .expect("update");
    assert_eq!(outcome.version, 1);
    assert_eq!(outcome.nnz, m1.nnz() as u64);
    // Both simulated engines had warm plans; both must have been spliced,
    // touching some but not every window.
    assert_eq!(outcome.plans_spliced, 2);
    assert!(outcome.windows_replanned >= 1);
    assert!(outcome.windows_total >= 3);
    assert!(outcome.windows_replanned < outcome.plans_spliced as u64 * outcome.windows_total);

    // The very next products on the same connection see version 1.
    check(&mut client, &m1);

    // Delta 2 against the updated matrix: put the deleted entry back.
    let mut delta2 = MatrixDelta::for_matrix(&m1);
    delta2.push_insert(r1, c1, -3.75).expect("insert back");
    let m2 = delta2.apply(&m1).expect("reference apply");
    let outcome2 = client
        .update(handle, vec![(r1 as u64, c1 as u64, -3.75)], vec![], vec![])
        .expect("second update");
    assert_eq!(outcome2.version, 2);
    assert_eq!(outcome2.nnz, m2.nnz() as u64);
    check(&mut client, &m2);

    // Bad deltas are typed errors and leave the resident version alone.
    for (ins, rev, del) in [
        // Insert over an existing entry.
        (vec![(r0 as u64, c0 as u64, 1.0)], vec![], vec![]),
        // Revalue of a vacant coordinate (row 1 may hold it: pick far row).
        (vec![], vec![(u64::MAX, 0, 1.0)], vec![]),
        // Unschedulable explicit zero.
        (vec![], vec![(r0 as u64, c0 as u64, 0.0)], vec![]),
    ] {
        let err = client.update(handle, ins, rev, del).expect_err("bad delta");
        assert!(
            matches!(
                err,
                chason_serve::client::ClientError::Server {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "wanted BadRequest, got {err}"
        );
    }
    check(&mut client, &m2);

    let stats = client.stats().expect("stats");
    // Acceptance counters count every queued Update, rejected ones
    // included: 2 applied + 3 refused.
    assert_eq!(stats.requests_update, 5);
    assert_eq!(stats.plans_spliced, outcome.plans_spliced as u64 + 2);
    assert!(stats.replan_windows >= stats.plans_spliced);

    client.shutdown().expect("shutdown");
    server.join();
}

/// An evicted handle that is loaded again restarts at version 0, so its
/// versions repeat. A plan cached for the first lineage's version 1 must
/// not serve the second lineage's different version 1.
#[test]
fn reloaded_handle_never_reuses_a_superseded_lineages_plan() {
    use chason_sparse::generators::uniform_random;

    let server = start(ServeConfig {
        matrix_cache_capacity: 1,
        ..small_config()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let m0 = uniform_random(64, 64, 400, 3);
    let other = uniform_random(64, 64, 300, 4);
    let x: Vec<f32> = (0..m0.cols()).map(|i| ((i % 7) as f32) - 3.0).collect();
    let &(r, c, v) = m0.triplets().first().expect("non-empty matrix");
    let revalued = |scale: f32| {
        let mut t = m0.triplets().to_vec();
        t[0].2 = v * scale;
        chason_sparse::CooMatrix::from_triplets(m0.rows(), m0.cols(), t).expect("valid")
    };
    let check = |client: &mut Client, handle: u64, reference: &chason_sparse::CooMatrix| {
        let (y, _, _) = client
            .spmv(handle, Engine::Chason, x.clone())
            .expect("spmv");
        for (row, (got, want)) in y.iter().zip(reference.spmv(&x)).enumerate() {
            assert!(
                (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                "row {row}: got {got}, want {want}"
            );
        }
    };

    let (handle, _) = client.load_matrix(&m0).expect("load");
    check(&mut client, handle, &m0);
    let first = client
        .update(handle, vec![], vec![(r as u64, c as u64, v * 64.0)], vec![])
        .expect("update");
    assert_eq!(first.version, 1);
    check(&mut client, handle, &revalued(64.0));

    // Evict the handle, load it again, and take it to a different version 1.
    client.load_matrix(&other).expect("load other");
    let (again, fresh) = client.load_matrix(&m0).expect("reload");
    assert_eq!((again, fresh), (handle, true));
    let second = client
        .update(
            handle,
            vec![],
            vec![(r as u64, c as u64, v * -32.0)],
            vec![],
        )
        .expect("update");
    assert_eq!(second.version, 1);
    check(&mut client, handle, &revalued(-32.0));

    client.shutdown().expect("shutdown");
    server.join();
}

/// Plans live in their matrix's resident entry, so evicting the matrix
/// drops them and counts them as plan evictions instead of leaving them
/// to hold plan slots under a handle nothing can reach.
#[test]
fn evicting_a_matrix_drops_its_plans() {
    use chason_sparse::generators::uniform_random;

    let server = start(ServeConfig {
        matrix_cache_capacity: 1,
        ..small_config()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let a = uniform_random(64, 64, 400, 3);
    let b = uniform_random(64, 64, 300, 4);

    let (handle, _) = client.load_matrix(&a).expect("load a");
    for engine in [Engine::Chason, Engine::Serpens] {
        client.plan(handle, engine).expect("plan");
    }
    let warm = client.stats().expect("stats");
    assert_eq!((warm.plan_cache_len, warm.plan_cache_evictions), (2, 0));
    assert_eq!(warm.plan_cache_capacity, 2);

    client.load_matrix(&b).expect("load b evicts a");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.matrix_evictions, 1);
    assert_eq!(stats.plan_cache_len, 0, "{stats:?}");
    assert_eq!(stats.plan_cache_evictions, 2, "{stats:?}");
    assert_eq!(stats.plan_cache_capacity, 2);

    client.shutdown().expect("shutdown");
    server.join();
}

/// The CHPL bytes a server built from `config` must send for `m` on each
/// simulated engine: a from-scratch plan under the same configuration.
fn scratch_plan_bytes(config: &ServeConfig, m: &chason_sparse::CooMatrix) -> [Vec<u8>; 2] {
    use chason_sim::{Accelerator, AcceleratorConfig};
    [AcceleratorConfig::chason(), AcceleratorConfig::serpens()].map(|base| {
        let plan = Accelerator::new(AcceleratorConfig {
            sched: config.sched,
            ..base
        })
        .plan(m)
        .expect("plan");
        let mut bytes = Vec::new();
        chason_core::export::write_plan(&mut bytes, &plan).expect("write plan");
        bytes
    })
}

/// The Chasoň plan is derived from the Serpens plan, so a Chasoň lookup
/// on a fresh handle fills both slots while counting one miss; a later
/// Serpens request is a hit. Either order serves the scratch plans' bytes.
#[test]
fn a_chason_plan_fills_the_serpens_slot_too() {
    use chason_sparse::generators::uniform_random;

    let config = small_config();
    // Three column windows under the paper's W = 8192.
    let m = uniform_random(128, 20_000, 4_000, 11);
    let expected = scratch_plan_bytes(&config, &m);
    let x = vec![1.0f32; m.cols()];
    for order in [
        [Engine::Chason, Engine::Serpens],
        [Engine::Serpens, Engine::Chason],
    ] {
        let server = start(config.clone());
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let (handle, _) = client.load_matrix(&m).expect("load");
        let first = client.plan(handle, order[0]).expect("plan");
        let stats = client.stats().expect("stats");
        let filled = if order[0] == Engine::Chason { 2 } else { 1 };
        assert_eq!(
            (
                stats.plan_cache_len,
                stats.plan_cache_misses,
                stats.plan_cache_hits
            ),
            (filled, 1, 0),
            "{order:?}"
        );
        let second = if order[1] == Engine::Serpens {
            // The by-product fill: a hit, not a second miss.
            client
                .spmv(handle, Engine::Serpens, x.clone())
                .expect("spmv");
            let stats = client.stats().expect("stats");
            assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (1, 1));
            client.plan(handle, Engine::Serpens).expect("plan")
        } else {
            client.plan(handle, Engine::Chason).expect("plan")
        };
        let stats = client.stats().expect("stats");
        assert_eq!(stats.plan_cache_len, 2, "{order:?}");
        let bytes = |engine: Engine| if engine == order[0] { &first } else { &second };
        assert!(*bytes(Engine::Chason) == expected[0], "{order:?}");
        assert!(*bytes(Engine::Serpens) == expected[1], "{order:?}");
        client.shutdown().expect("shutdown");
        server.join();
    }
}

/// An update splices the Serpens plan and migrates its dirty windows into
/// the Chasoň plan; both equal from-scratch plans of the updated matrix.
#[test]
fn an_update_splices_both_plans_from_the_serpens_plan() {
    use chason_sparse::generators::uniform_random;
    use chason_sparse::MatrixDelta;

    let config = small_config();
    let m = uniform_random(128, 20_000, 4_000, 11);
    let server = start(config.clone());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (handle, _) = client.load_matrix(&m).expect("load");
    client.plan(handle, Engine::Chason).expect("plan");

    let &(r, c, v) = m.triplets().first().expect("non-empty matrix");
    let mut delta = MatrixDelta::for_matrix(&m);
    delta.push_revalue(r, c, v * -8.0).expect("revalue");
    let updated = delta.apply(&m).expect("apply");
    let outcome = client
        .update(handle, vec![], vec![(r as u64, c as u64, v * -8.0)], vec![])
        .expect("update");
    assert_eq!(outcome.plans_spliced, 2);
    assert_eq!((outcome.windows_replanned, outcome.windows_total), (2, 3));

    let expected = scratch_plan_bytes(&config, &updated);
    let before = client.stats().expect("stats");
    assert_eq!(before.plan_cache_len, 2);
    for (engine, want) in [Engine::Chason, Engine::Serpens].into_iter().zip(&expected) {
        assert!(
            client.plan(handle, engine).expect("plan") == *want,
            "{engine:?}"
        );
    }
    let after = client.stats().expect("stats");
    assert_eq!(
        after.plan_cache_misses, before.plan_cache_misses,
        "both were spliced"
    );
    assert_eq!(after.plans_spliced, 2);

    client.shutdown().expect("shutdown");
    server.join();
}
