//! Router failure modes over real sockets: a shard down at load time, a
//! shard dying between solves, and out-of-band shard mutation detected as
//! version skew. In every case the failure must surface as a typed CHSP
//! error and the router must keep serving.

use chason_core::plan::matrix_fingerprint;
use chason_router::{Router, RouterConfig};
use chason_serve::client::{Client, ClientError, RetryPolicy};
use chason_serve::proto::{Engine, ErrorCode, SolverKind};
use chason_serve::server::{ServeConfig, Server};
use chason_sparse::shard::ShardSpec;
use chason_sparse::CooMatrix;
use chason_testutil::spd_system;
use std::time::Duration;

fn start_shard() -> Server {
    Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("shard binds an ephemeral port")
}

fn start_router(shards: &[&Server]) -> Router {
    Router::start(RouterConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        workers: 2,
        // Fail fast in tests: two attempts, millisecond back-off.
        shard_retry: RetryPolicy {
            max_attempts: 2,
            base_delay_ms: 1,
            max_delay_ms: 5,
            seed: 7,
        },
        health_interval: Duration::from_millis(200),
        ..RouterConfig::default()
    })
    .expect("router binds an ephemeral port")
}

fn server_code(err: ClientError) -> ErrorCode {
    match err {
        ClientError::Server { code, .. } => code,
        other => panic!("expected a typed server error, got {other:?}"),
    }
}

/// A 2^32-row upload is refused before the router sizes a shard split by
/// its rows, and the router keeps answering.
#[test]
fn a_dimension_no_frame_can_carry_is_refused_and_the_router_keeps_answering() {
    let shard = start_shard();
    let router = start_router(&[&shard]);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let hostile = CooMatrix::from_triplets(1 << 32, 1, vec![(0, 0, 1.0)]).expect("one triplet");
    let err = client
        .load_matrix(&hostile)
        .expect_err("load must be refused");
    assert_eq!(server_code(err), ErrorCode::BadRequest);
    let stats = client.stats().expect("stats after the refusal");
    assert_eq!((stats.requests_load, stats.matrices_resident), (1, 0));

    client.shutdown().expect("shutdown");
    router.join();
    shard.shutdown();
    shard.join();
}

#[test]
fn load_with_a_dead_shard_is_shard_unavailable_and_router_survives() {
    let alive = start_shard();
    let dead = start_shard();
    let dead_addr = dead.local_addr();
    dead.shutdown();
    dead.join();

    let router = Router::start(RouterConfig {
        shards: vec![alive.local_addr().to_string(), dead_addr.to_string()],
        workers: 2,
        shard_retry: RetryPolicy {
            max_attempts: 2,
            base_delay_ms: 1,
            max_delay_ms: 5,
            seed: 7,
        },
        ..RouterConfig::default()
    })
    .expect("router starts with a dead backend");

    let (a, _) = spd_system(32, 11);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let err = client.load_matrix(&a).expect_err("load must fail");
    assert_eq!(server_code(err), ErrorCode::ShardUnavailable);

    // The router itself stays responsive and reports the dead shard.
    let stats = client.stats().expect("stats after failed load");
    assert_eq!(stats.requests_load, 1);
    assert_eq!(stats.matrices_resident, 0, "no partial mapping is kept");
    assert!(
        router.shards_up() <= 1,
        "the dead shard must be marked down"
    );

    client.shutdown().expect("router shutdown");
    router.join();
    alive.shutdown();
    alive.join();
}

#[test]
fn shard_dying_mid_stream_fails_solves_typed_and_router_stays_up() {
    let shards = [start_shard(), start_shard(), start_shard()];
    let router = start_router(&[&shards[0], &shards[1], &shards[2]]);
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let (a, b) = spd_system(48, 3);
    let (handle, fresh) = client.load_matrix(&a).expect("load through router");
    assert!(fresh);

    // Healthy fan-out first: the distributed solve converges.
    let outcome = client
        .solve(handle, Engine::Chason, SolverKind::Cg, 200, 1e-4, b.clone())
        .expect("distributed solve");
    assert!(outcome.converged, "residual {}", outcome.residual);

    // Kill one backend, then drive the same matrix again.
    let [s0, s1, s2] = shards;
    s1.shutdown();
    s1.join();

    let err = client
        .solve(handle, Engine::Chason, SolverKind::Cg, 200, 1e-4, b.clone())
        .expect_err("solve must fail with a shard down");
    assert_eq!(server_code(err), ErrorCode::ShardUnavailable);
    let err = client
        .spmv(handle, Engine::Cpu, vec![1.0; a.cols()])
        .expect_err("spmv must fail with a shard down");
    assert_eq!(server_code(err), ErrorCode::ShardUnavailable);

    // The router survives the dead backend: inline requests still answer
    // and the counters reflect the failed fan-outs.
    let stats = client.stats().expect("stats after shard death");
    assert_eq!(stats.requests_solve, 2);
    assert_eq!(stats.requests_spmv, 1);
    let metrics = client.metrics().expect("metrics after shard death");
    assert!(
        metrics.contains("router_scatter_failures_total 2"),
        "scatter failures must be counted:\n{metrics}"
    );
    assert!(
        metrics.contains("router_shard_up{shard=\"1\"} 0"),
        "shard 1 must be reported down:\n{metrics}"
    );

    client.shutdown().expect("router shutdown");
    router.join();
    s0.shutdown();
    s0.join();
    s2.shutdown();
    s2.join();
}

#[test]
fn out_of_band_shard_update_is_detected_as_version_skew() {
    let shards = [start_shard(), start_shard(), start_shard()];
    let router = start_router(&[&shards[0], &shards[1], &shards[2]]);
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let (a, _) = spd_system(48, 5);
    let (handle, _) = client.load_matrix(&a).expect("load through router");

    // Mutate shard 0 behind the router's back: compute the slice handle
    // the router scattered and update it directly on the backend.
    let spec = ShardSpec::nnz_balanced(&a, 3).expect("spec");
    let slice0 = spec.slice(&a, 0).expect("slice");
    let shard_handle = matrix_fingerprint(&slice0);
    let &(r, c, v) = slice0.iter().next().expect("slice has entries");
    let mut backdoor = Client::connect(shards[0].local_addr()).expect("connect to shard");
    let outcome = backdoor
        .update(
            shard_handle,
            vec![],
            vec![(r as u64, c as u64, v + 1.0)],
            vec![],
        )
        .expect("direct shard update");
    assert_eq!(outcome.version, 1);

    // A router update touching shard 0 must detect the skew: the shard
    // reports v2 where the router expected v1.
    let (start0, _) = spec.range(0);
    let global_row = (start0 + r) as u64;
    let err = client
        .update(
            handle,
            vec![],
            vec![(global_row, c as u64, v + 2.0)],
            vec![],
        )
        .expect_err("update must detect version skew");
    assert_eq!(server_code(err), ErrorCode::PartialGather);

    // The poisoned mapping is gone...
    let err = client
        .spmv(handle, Engine::Cpu, vec![1.0; a.cols()])
        .expect_err("mapping must have been dropped");
    assert_eq!(server_code(err), ErrorCode::UnknownHandle);

    // ...and a reload sees the diverged slice lineage on shard 0 and
    // refuses to route against mixed generations.
    let err = client
        .load_matrix(&a)
        .expect_err("reload must refuse divergence");
    assert_eq!(server_code(err), ErrorCode::PartialGather);

    client.shutdown().expect("router shutdown");
    router.join();
    for s in shards {
        s.shutdown();
        s.join();
    }
}
