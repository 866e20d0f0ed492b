//! Per-layer measurements for the traced run: counter deltas scraped from
//! the program's `Metrics` exposition, and the benchmark's own timings of
//! calls into each layer's public functions on the workload's inputs.

use crate::deploy::SHARDS;
use crate::stats::median;
use crate::workload::{splitmix64, stream, Inputs, Workload, SOLVE_ITERATIONS};
use chason::sim::{AcceleratorConfig, ChasonEngine, SerpensEngine};
use chason::solvers::{conjugate_gradient, CgOptions, EngineBackend};
use chason::sparse::{CowCsr, MatrixDelta, ShardSpec};
use chason_serve::client::Client;
use chason_serve::proto::{
    decode_reply, decode_request, encode_reply, encode_request, Reply, Request,
};
use chason_serve::ServeConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One `Metrics` exposition: series name (labels included) to value.
pub type Exposition = BTreeMap<String, f64>;

/// Fetches and parses the exposition of the daemon at `addr`.
///
/// # Errors
///
/// Connect or request failures.
pub fn scrape(addr: SocketAddr) -> Result<Exposition, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("metrics connect failed: {e}"))?;
    let text = client
        .metrics()
        .map_err(|e| format!("metrics scrape failed: {e}"))?;
    Ok(parse_exposition(&text))
}

/// Parses Prometheus-style `name value` lines, skipping comments.
fn parse_exposition(text: &str) -> Exposition {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Adds `after − before` of every series into `total`.
pub fn accumulate(total: &mut Exposition, before: &Exposition, after: &Exposition) {
    for (name, &value) in after {
        *total.entry(name.clone()).or_default() += value - before.get(name).copied().unwrap_or(0.0);
    }
}

/// A layer metric measured in-process.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Calls the median is taken over.
    pub calls: usize,
}

/// The median seconds of one call of `f`, over at least `min_calls` calls
/// and at least `budget` of calling.
fn time_calls<T>(min_calls: usize, budget: Duration, mut f: impl FnMut() -> T) -> (f64, usize) {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_calls || (started.elapsed() < budget && times.len() < 100_000) {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times).unwrap_or(0.0), times.len())
}

fn record(
    out: &mut Vec<Timed>,
    name: &'static str,
    unit: &'static str,
    scale: f64,
    timed: (f64, usize),
) {
    out.push(Timed {
        name,
        unit,
        value: timed.0 * scale,
        calls: timed.1,
    });
}

/// Times each layer's public functions on `workload`'s first matrix and
/// its dominant payload (an SpMV request and its reply), with engines
/// configured as `ServeConfig::default()` configures the server's.
///
/// # Errors
///
/// Any layer call that fails on the generated inputs.
pub fn time_layers(workload: Workload, inputs: &Inputs, seed: u64) -> Result<Vec<Timed>, String> {
    let matrix = &inputs.matrices[0];
    let x = &inputs.xs[0];
    let mut out = Vec::new();
    let short = Duration::from_millis(200);
    let us = 1e6;
    let ms = 1e3;

    let request = Request::Spmv {
        handle: 1,
        engine: workload.engines()[0],
        x: x.clone(),
    };
    let reply = Reply::Vector {
        y: matrix.spmv(x),
        service_micros: 1,
        simulated_nanos: 1,
    };
    let request_bytes = encode_request(&request);
    let reply_bytes = encode_reply(&reply);
    record(
        &mut out,
        "proto.encode_request_us",
        "us",
        us,
        time_calls(20, short, || encode_request(&request)),
    );
    record(
        &mut out,
        "proto.decode_request_us",
        "us",
        us,
        time_calls(20, short, || decode_request(&request_bytes)),
    );
    record(
        &mut out,
        "proto.encode_reply_us",
        "us",
        us,
        time_calls(20, short, || encode_reply(&reply)),
    );
    record(
        &mut out,
        "proto.decode_reply_us",
        "us",
        us,
        time_calls(20, short, || decode_reply(&reply_bytes)),
    );

    let sched = ServeConfig::default().sched;
    let chason = ChasonEngine::new(AcceleratorConfig {
        sched,
        ..AcceleratorConfig::chason()
    });
    let serpens = SerpensEngine::new(AcceleratorConfig {
        sched,
        ..AcceleratorConfig::serpens()
    });
    let sim_err = |e: chason::sim::SimError| e.to_string();
    let chason_plan = chason.plan(matrix).map_err(sim_err)?;
    let serpens_plan = serpens.plan(matrix).map_err(sim_err)?;
    record(
        &mut out,
        "sim.plan_chason_ms",
        "ms",
        ms,
        time_calls(3, Duration::ZERO, || chason.plan(matrix)),
    );
    record(
        &mut out,
        "sim.plan_serpens_ms",
        "ms",
        ms,
        time_calls(3, Duration::ZERO, || serpens.plan(matrix)),
    );
    let replay = time_calls(5, short, || chason.run_planned(&chason_plan, x));
    record(&mut out, "sim.replay_chason_ms", "ms", ms, replay);
    record(
        &mut out,
        "sim.replay_serpens_ms",
        "ms",
        ms,
        time_calls(5, short, || serpens.run_planned(&serpens_plan, x)),
    );
    // Computed, not measured: the bytes a replay must move are 8 per
    // non-zero (value and index) plus 4 per x and y element.
    let bytes = 8 * matrix.nnz() + 4 * (matrix.rows() + matrix.cols());
    out.push(Timed {
        name: "sim.replay_gbps",
        unit: "GB/s",
        value: bytes as f64 / replay.0 / 1e9,
        calls: replay.1,
    });

    // A delta like the workload's updates: 1-3 revalued entries (diagonal
    // ones where the matrix has a diagonal), each grown by one.
    let entries = matrix.triplets();
    let mut rng = stream(seed, 8, 0);
    let mut delta = MatrixDelta::for_matrix(matrix);
    let mut touched = Vec::new();
    for _ in 0..3 {
        let pick = entries[(splitmix64(&mut rng) % entries.len() as u64) as usize];
        let (r, c, v) = entries
            .iter()
            .find(|&&(r, c, _)| r == pick.0 && c == r)
            .copied()
            .unwrap_or(pick);
        if !touched.contains(&(r, c)) {
            touched.push((r, c));
            let grown = if v + 1.0 == 0.0 { v + 2.0 } else { v + 1.0 };
            delta.push_revalue(r, c, grown).map_err(|e| e.to_string())?;
        }
    }
    let updated = delta.apply(matrix).map_err(|e| e.to_string())?;
    let mut spliced = chason_plan.clone();
    let report = chason
        .replan_delta(&mut spliced, &updated, &delta)
        .map_err(sim_err)?;
    // The server clones the cached plan before splicing; so does this.
    record(
        &mut out,
        "core.replan_delta_ms",
        "ms",
        ms,
        time_calls(5, short, || {
            let mut plan = chason_plan.clone();
            chason
                .replan_delta(&mut plan, &updated, &delta)
                .map(|_| plan)
        }),
    );
    out.push(Timed {
        name: "core.replan_window_share",
        unit: "ratio",
        value: report.replanned_fraction(),
        calls: 1,
    });

    let csr = CowCsr::from(matrix);
    record(
        &mut out,
        "sparse.cowcsr_spmv_us",
        "us",
        us,
        time_calls(20, short, || csr.spmv(x)),
    );
    record(
        &mut out,
        "sparse.delta_apply_us",
        "us",
        us,
        time_calls(5, short, || delta.apply(matrix)),
    );
    record(
        &mut out,
        "sparse.cowcsr_apply_delta_us",
        "us",
        us,
        time_calls(5, short, || csr.apply_delta(&delta)),
    );
    let spec = ShardSpec::nnz_balanced(matrix, SHARDS).map_err(|e| e.to_string())?;
    record(
        &mut out,
        "sparse.nnz_balanced_ms",
        "ms",
        ms,
        time_calls(5, short, || ShardSpec::nnz_balanced(matrix, SHARDS)),
    );
    let partials = (0..spec.shards())
        .map(|k| {
            spec.slice(matrix, k)
                .map(|slice| CowCsr::from(&slice).spmv(x))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    record(
        &mut out,
        "sparse.shard_gather_us",
        "us",
        us,
        time_calls(20, short, || spec.gather(&partials)),
    );

    let mut backend = EngineBackend::chason(chason);
    let options = CgOptions {
        max_iterations: SOLVE_ITERATIONS as usize,
        tolerance: 0.0,
    };
    // The first solve builds the plan; the timed ones replay it, as the
    // server's solves do against its plan cache.
    let warm = conjugate_gradient(&mut backend, matrix, &inputs.b, options).map_err(sim_err)?;
    let iterations = warm.iterations.max(1) as f64;
    let (seconds, calls) = time_calls(3, short, || {
        conjugate_gradient(&mut backend, matrix, &inputs.b, options)
    });
    record(
        &mut out,
        "solvers.cg_iter_ms",
        "ms",
        ms / iterations,
        (seconds, calls),
    );
    Ok(out)
}
