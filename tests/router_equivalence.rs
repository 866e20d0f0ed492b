//! Acceptance proof for sharded serving: a 3-shard router returns the
//! same answers as a single `chason serve` instance on the same corpus —
//! bit-identical on the `cpu` engine (row-block sharding preserves
//! per-row accumulation order), ULP-equivalent on the modeled engines —
//! including after an `UpdateMatrix` delta routed by row footprint — and
//! rejects the same malformed requests with the same code and message.

use chason_conformance::ulp::{compare, row_scales, UlpTolerance};
use chason_router::{Router, RouterConfig};
use chason_serve::client::Client;
use chason_serve::proto::{Engine, ErrorCode, Reply, Request, SolverKind};
use chason_serve::server::{ServeConfig, Server};
use chason_sparse::{CooMatrix, MatrixDelta};
use chason_testutil::{dense_x, spd_system};

struct Deployment {
    single: Server,
    shards: Vec<Server>,
    router: Router,
}

impl Deployment {
    fn start(shard_count: usize) -> Deployment {
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let single = Server::start(config.clone()).expect("single server");
        let shards: Vec<Server> = (0..shard_count)
            .map(|_| Server::start(config.clone()).expect("shard"))
            .collect();
        let router = Router::start(RouterConfig {
            shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            workers: 2,
            ..RouterConfig::default()
        })
        .expect("router");
        Deployment {
            single,
            shards,
            router,
        }
    }

    fn clients(&self) -> (Client, Client) {
        let single = Client::connect(self.single.local_addr()).expect("connect single");
        let routed = Client::connect(self.router.local_addr()).expect("connect router");
        (single, routed)
    }

    fn stop(self) {
        self.router.shutdown();
        self.router.join();
        for s in self.shards {
            s.shutdown();
            s.join();
        }
        self.single.shutdown();
        self.single.join();
    }
}

fn assert_bits_equal(want: &[f32], got: &[f32], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length mismatch");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            w.to_bits(),
            g.to_bits(),
            "{what}: bit divergence at {i}: {w} vs {g}"
        );
    }
}

fn assert_ulp_equal(matrix: &CooMatrix, x: &[f32], want: &[f32], got: &[f32], what: &str) {
    let scales = row_scales(matrix, x);
    let rejects = compare(want, got, &scales, &UlpTolerance::default());
    assert!(
        rejects.is_empty(),
        "{what}: ULP divergence: {:?}",
        &rejects[..rejects.len().min(5)]
    );
}

/// Relative residual of `A·x = b`, accumulated in f64.
fn relative_residual(a: &CooMatrix, x: &[f32], b: &[f32]) -> f64 {
    let ax = a.spmv(x);
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (axi, bi) in ax.iter().zip(b) {
        num += f64::from(axi - bi).powi(2);
        den += f64::from(*bi).powi(2);
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

/// Loads `a` into both deployments (asserting the handles agree — the
/// router mints the same full-matrix fingerprint a single server would)
/// and compares SpMV on every engine and CG/Jacobi on the deterministic
/// `cpu` backend.
fn compare_deployment(
    single: &mut Client,
    routed: &mut Client,
    a: &CooMatrix,
    b: &[f32],
    what: &str,
) -> u64 {
    let (h_single, _) = single.load_matrix(a).expect("load single");
    let (h_routed, _) = routed.load_matrix(a).expect("load routed");
    assert_eq!(
        h_single, h_routed,
        "{what}: the router must mint the single-server handle"
    );

    let x = dense_x(a.cols());

    // cpu: bit-identical, and both bit-identical to the local reference.
    let (y_single, _, _) = single
        .spmv(h_single, Engine::Cpu, x.clone())
        .expect("single cpu spmv");
    let (y_routed, _, nanos) = routed
        .spmv(h_routed, Engine::Cpu, x.clone())
        .expect("routed cpu spmv");
    assert_bits_equal(&y_single, &y_routed, &format!("{what}: cpu spmv"));
    assert_eq!(nanos, 0, "{what}: cpu reports no modeled time");

    // Modeled engines: ULP-equivalent (per-shard column windows may
    // re-associate sums within a slice).
    for engine in [Engine::Chason, Engine::Serpens] {
        let (y_single, _, _) = single
            .spmv(h_single, engine, x.clone())
            .expect("single engine spmv");
        let (y_routed, _, nanos) = routed
            .spmv(h_routed, engine, x.clone())
            .expect("routed engine spmv");
        assert!(nanos > 0, "{what}: {engine:?} must report modeled time");
        assert_ulp_equal(
            a,
            &x,
            &y_single,
            &y_routed,
            &format!("{what}: {engine:?} spmv"),
        );
    }

    // cpu solves: the distributed per-iteration products are bit-identical
    // to the single instance's, so the whole trajectory is.
    for solver in [SolverKind::Cg, SolverKind::Jacobi] {
        let s = single
            .solve(h_single, Engine::Cpu, solver, 300, 1e-5, b.to_vec())
            .expect("single cpu solve");
        let r = routed
            .solve(h_routed, Engine::Cpu, solver, 300, 1e-5, b.to_vec())
            .expect("routed cpu solve");
        assert_eq!(s.converged, r.converged, "{what}: {solver:?} convergence");
        assert_eq!(s.iterations, r.iterations, "{what}: {solver:?} iterations");
        assert_bits_equal(
            &s.solution,
            &r.solution,
            &format!("{what}: cpu {solver:?} solution"),
        );
    }

    // Engine CG: iteration-level FP differences may shift the trajectory,
    // so the claim is convergence to the same tolerance on both paths.
    let s = single
        .solve(
            h_single,
            Engine::Chason,
            SolverKind::Cg,
            300,
            1e-4,
            b.to_vec(),
        )
        .expect("single chason cg");
    let r = routed
        .solve(
            h_routed,
            Engine::Chason,
            SolverKind::Cg,
            300,
            1e-4,
            b.to_vec(),
        )
        .expect("routed chason cg");
    assert!(
        s.converged,
        "{what}: single chason cg residual {}",
        s.residual
    );
    assert!(
        r.converged,
        "{what}: routed chason cg residual {}",
        r.residual
    );
    let check = relative_residual(a, &r.solution, b);
    assert!(
        check <= 1e-3,
        "{what}: routed chason cg solution does not solve the system: {check}"
    );

    h_single
}

#[test]
fn three_shard_router_matches_single_instance_including_after_update() {
    let deployment = Deployment::start(3);
    let (mut single, mut routed) = deployment.clients();

    // Two system sizes: one divides evenly across 3 shards, one does not.
    for (n, seed) in [(64usize, 9u64), (33, 21)] {
        let what = format!("n={n}");
        let (a, b) = spd_system(n, seed);
        let handle = compare_deployment(&mut single, &mut routed, &a, &b, &what);

        // A symmetric, dominance-preserving delta: boost one diagonal,
        // insert a tiny far-off-band pair, delete one off-diagonal pair.
        let diag = a
            .iter()
            .find(|&&(r, c, _)| r == c)
            .copied()
            .expect("spd diagonal");
        let off = a
            .iter()
            .find(|&&(r, c, _)| r < c)
            .copied()
            .expect("spd off-diagonal");
        let inserts = vec![
            (0u64, (n - 1) as u64, 0.01f32),
            ((n - 1) as u64, 0u64, 0.01f32),
        ];
        let revalues = vec![(diag.0 as u64, diag.1 as u64, diag.2 + 1.0)];
        let deletes = vec![(off.0 as u64, off.1 as u64), (off.1 as u64, off.0 as u64)];

        let s = single
            .update(handle, inserts.clone(), revalues.clone(), deletes.clone())
            .expect("single update");
        let r = routed
            .update(handle, inserts.clone(), revalues.clone(), deletes.clone())
            .expect("routed update");
        assert_eq!(s.version, 1, "{what}: single update bumps to v1");
        assert_eq!(r.version, 1, "{what}: routed update bumps to v1");
        assert_eq!(s.nnz, r.nnz, "{what}: nnz after identical deltas");

        // Apply the same delta locally for references and scales.
        let mut delta = MatrixDelta::for_matrix(&a);
        for &(row, col, v) in &revalues {
            delta
                .push_revalue(row as usize, col as usize, v)
                .expect("revalue");
        }
        for &(row, col, v) in &inserts {
            delta
                .push_insert(row as usize, col as usize, v)
                .expect("insert");
        }
        for &(row, col) in &deletes {
            delta
                .push_delete(row as usize, col as usize)
                .expect("delete");
        }
        let updated = delta.apply(&a).expect("local apply");
        assert_eq!(updated.nnz() as u64, s.nnz, "{what}: local apply agrees");

        // Post-update equivalence on the same handle, all engines.
        let x = dense_x(updated.cols());
        let (y_single, _, _) = single
            .spmv(handle, Engine::Cpu, x.clone())
            .expect("single cpu spmv post-update");
        let (y_routed, _, _) = routed
            .spmv(handle, Engine::Cpu, x.clone())
            .expect("routed cpu spmv post-update");
        assert_bits_equal(
            &y_single,
            &y_routed,
            &format!("{what}: cpu spmv post-update"),
        );
        assert_bits_equal(
            &updated.spmv(&x),
            &y_routed,
            &format!("{what}: routed post-update vs local reference"),
        );
        for engine in [Engine::Chason, Engine::Serpens] {
            let (y_single, _, _) = single
                .spmv(handle, engine, x.clone())
                .expect("single engine spmv post-update");
            let (y_routed, _, _) = routed
                .spmv(handle, engine, x.clone())
                .expect("routed engine spmv post-update");
            assert_ulp_equal(
                &updated,
                &x,
                &y_single,
                &y_routed,
                &format!("{what}: {engine:?} spmv post-update"),
            );
        }

        // CG still agrees bit-for-bit on cpu against the updated system.
        let s = single
            .solve(handle, Engine::Cpu, SolverKind::Cg, 300, 1e-5, b.clone())
            .expect("single cpu cg post-update");
        let r = routed
            .solve(handle, Engine::Cpu, SolverKind::Cg, 300, 1e-5, b.clone())
            .expect("routed cpu cg post-update");
        assert_eq!(s.iterations, r.iterations, "{what}: post-update iterations");
        assert_bits_equal(
            &s.solution,
            &r.solution,
            &format!("{what}: cpu cg post-update solution"),
        );
    }

    // The router's fan-out telemetry saw every shard.
    let metrics = routed.metrics().expect("router metrics");
    for k in 0..3 {
        let needle = format!("router_shard_requests_total{{shard=\"{k}\"}} 0");
        assert!(
            !metrics.contains(&needle),
            "shard {k} must have received requests:\n{metrics}"
        );
    }

    deployment.stop();
}

/// Every admission rule answers the same through a router as from one
/// server: the code and the message text.
#[test]
fn two_shard_router_rejects_like_a_single_server() {
    let deployment = Deployment::start(2);
    let (mut single, mut routed) = deployment.clients();

    // 6x6, row 3 without a diagonal entry (Jacobi must refuse it).
    let triplets: Vec<(u64, u64, f32)> = vec![
        (0, 0, 4.0),
        (0, 1, 1.0),
        (1, 0, 1.0),
        (1, 1, 4.0),
        (2, 2, 4.0),
        (3, 4, 1.0),
        (4, 3, 1.0),
        (4, 4, 4.0),
        (5, 5, 4.0),
    ];
    let load = Request::LoadMatrix {
        rows: 6,
        cols: 6,
        triplets: triplets.clone(),
    };
    let handle = match (
        single.request(&load).expect("single load"),
        routed.request(&load).expect("routed load"),
    ) {
        (Reply::Loaded { handle: a, .. }, Reply::Loaded { handle: b, .. }) if a == b => a,
        other => panic!("both deployments must load the matrix: {other:?}"),
    };
    let missing = handle ^ 1;
    let load_with = |rows: u64, mut extra: Vec<(u64, u64, f32)>| {
        let mut t = triplets.clone();
        t.append(&mut extra);
        Request::LoadMatrix {
            rows,
            cols: 6,
            triplets: t,
        }
    };
    let update = |handle: u64,
                  inserts: Vec<(u64, u64, f32)>,
                  revalues: Vec<(u64, u64, f32)>,
                  deletes: Vec<(u64, u64)>| Request::Update {
        handle,
        inserts,
        revalues,
        deletes,
    };
    let solve = |solver: SolverKind, tolerance: f64, n: usize| Request::Solve {
        handle,
        engine: Engine::Cpu,
        solver,
        max_iterations: 10,
        tolerance,
        b: vec![1.0; n],
    };
    let bad = ErrorCode::BadRequest;
    let table: Vec<(&str, Request, ErrorCode)> = vec![
        ("load: zero rows", load_with(0, Vec::new()), bad),
        ("load: zero value", load_with(6, vec![(2, 3, 0.0)]), bad),
        ("load: NaN value", load_with(6, vec![(2, 3, f32::NAN)]), bad),
        ("load: out of bounds", load_with(6, vec![(6, 0, 1.0)]), bad),
        ("load: duplicate", load_with(6, vec![(0, 1, 2.0)]), bad),
        (
            "spmv: x length",
            Request::Spmv {
                handle,
                engine: Engine::Cpu,
                x: vec![1.0; 5],
            },
            bad,
        ),
        (
            "spmv: unknown handle",
            Request::Spmv {
                handle: missing,
                engine: Engine::Cpu,
                x: vec![1.0; 6],
            },
            ErrorCode::UnknownHandle,
        ),
        ("solve: b length", solve(SolverKind::Cg, 1e-4, 5), bad),
        (
            "solve: NaN tolerance",
            solve(SolverKind::Cg, f64::NAN, 6),
            bad,
        ),
        (
            "solve: Jacobi without diagonal",
            solve(SolverKind::Jacobi, 1e-4, 6),
            bad,
        ),
        (
            "update: zero value",
            update(handle, Vec::new(), vec![(0, 0, 0.0)], Vec::new()),
            bad,
        ),
        (
            "update: insert at occupied",
            update(handle, vec![(0, 1, 2.0)], Vec::new(), Vec::new()),
            bad,
        ),
        (
            "update: delete at vacant",
            update(handle, Vec::new(), Vec::new(), vec![(2, 5)]),
            bad,
        ),
        (
            "update: out of bounds",
            update(handle, vec![(6, 0, 1.0)], Vec::new(), Vec::new()),
            bad,
        ),
        (
            "update: same coordinate twice",
            update(handle, Vec::new(), vec![(0, 0, 5.0)], vec![(0, 0)]),
            bad,
        ),
        (
            "update: unknown handle and zero value",
            update(missing, vec![(2, 3, 0.0)], Vec::new(), Vec::new()),
            bad,
        ),
    ];
    for (what, request, want) in table {
        let reply_single = single.request(&request).expect("single reply");
        let reply_routed = routed.request(&request).expect("routed reply");
        match (&reply_single, &reply_routed) {
            (
                Reply::Error {
                    code: code_single,
                    message: message_single,
                },
                Reply::Error {
                    code: code_routed,
                    message: message_routed,
                },
            ) => {
                assert_eq!(*code_single, want, "{what}: {message_single}");
                assert_eq!(code_routed, code_single, "{what}: code");
                assert_eq!(message_routed, message_single, "{what}: message");
            }
            other => panic!("{what}: both deployments must reject: {other:?}"),
        }
    }

    deployment.stop();
}
