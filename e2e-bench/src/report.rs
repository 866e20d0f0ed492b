//! From a run to its numbers: end-to-end and per-layer metrics, the
//! human-readable tables, the one-line result, the spans file, result
//! sets, and the `agree` check between two result sets.

use crate::json::Json;
use crate::layers::{Exposition, Timed};
use crate::loadgen::{Class, Sample};
use crate::stats::{mean, median, percentile, sorted, spread};
use crate::workload::Workload;
use crate::{Host, TraceData, WorkloadRun, LATE_LIMIT_MS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` spells it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// How many samples the value is taken over.
    pub samples: usize,
    /// What a sample is (rounds, requests, replies, ...).
    pub basis: &'static str,
}

/// The end-to-end metrics the one-line result carries, as `(name, unit)`,
/// in `BENCHMARK.json` order. `run` prints the others too (throughput, CPU
/// per request, latency percentiles, per-class p90s, `failed_share`);
/// README.md says why they are not gated.
pub const END_TO_END: [(&str, &str); 2] = [("modeled_spmv_us", "us"), ("setup_s", "s")];

/// The per-layer metrics the traced result line carries, as `(name, unit)`,
/// in `BENCHMARK.json` order: those that every workload measures and none
/// reads as 0 or below. The traced run prints the others too (solve,
/// update, router and open-loop figures, batching, shedding, read pauses,
/// the tracing overhead).
pub const PER_LAYER: [(&str, &str); 29] = [
    ("net.wakeups_per_frame", "ratio"),
    ("net.readiness_batch_mean", "events"),
    ("proto.encode_request_us", "us"),
    ("proto.decode_request_us", "us"),
    ("proto.encode_reply_us", "us"),
    ("proto.decode_reply_us", "us"),
    ("proto.wire_bytes_per_req", "B"),
    ("serve.queue_wait_mean_us", "us"),
    ("serve.queue_depth_hwm", "count"),
    ("serve.execute_spmv_p50_us", "us"),
    ("serve.service_mean_us", "us"),
    ("client.encode_us", "us"),
    ("client.write_us", "us"),
    ("client.wait_us", "us"),
    ("client.decode_us", "us"),
    ("client.unattributed_us", "us"),
    ("sim.replay_chason_ms", "ms"),
    ("sim.replay_serpens_ms", "ms"),
    ("sim.replay_gbps", "GB/s"),
    ("sim.plan_chason_ms", "ms"),
    ("sim.plan_serpens_ms", "ms"),
    ("core.replan_delta_ms", "ms"),
    ("core.replan_window_share", "ratio"),
    ("sparse.cowcsr_spmv_us", "us"),
    ("sparse.delta_apply_us", "us"),
    ("sparse.cowcsr_apply_delta_us", "us"),
    ("sparse.nnz_balanced_ms", "ms"),
    ("sparse.shard_gather_us", "us"),
    ("solvers.cg_iter_ms", "ms"),
];

struct Sink(Vec<Metric>);

impl Sink {
    fn push(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: Option<f64>,
        samples: usize,
        basis: &'static str,
    ) {
        if let Some(value) = value.filter(|v| v.is_finite()) {
            self.0.push(Metric {
                name,
                unit,
                value,
                samples,
                basis,
            });
        }
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// A series' summed delta, 0 when the daemon never exposed it.
fn delta(map: &Exposition, name: &str) -> f64 {
    map.get(name).copied().unwrap_or(0.0)
}

fn timed<'a>(trace: &'a TraceData, name: &str) -> Option<&'a Timed> {
    trace.timed.iter().find(|t| t.name == name)
}

fn latencies_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    sorted(
        &samples
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

fn round_rates(run: &WorkloadRun, traced: bool) -> Vec<f64> {
    run.rounds
        .iter()
        .filter(|r| r.traced == traced && r.wall_s > 0.0)
        .map(|r| r.ok as f64 / r.wall_s)
        .collect()
}

/// p99 of how late the open-loop generator began sending, in ms.
pub fn late_p99_ms(run: &WorkloadRun) -> Option<f64> {
    if !run.workload.open_loop() {
        return None;
    }
    percentile(
        &sorted(
            &run.samples
                .iter()
                .map(|s| s.late_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
        99.0,
    )
}

/// Whether the run is valid and every request succeeded, with the reasons
/// when not.
pub fn verdict(run: &WorkloadRun) -> (bool, Vec<String>) {
    let mut reasons: Vec<String> = run.errors.clone();
    if run.failed > 0 {
        reasons.push(format!(
            "{} of {} requests failed",
            run.failed, run.attempted
        ));
    }
    if run.attempted == 0 {
        reasons.push("no request was attempted".to_string());
    }
    if let Some(late) = late_p99_ms(run).filter(|&late| late > LATE_LIMIT_MS) {
        reasons.push(format!(
            "open-loop generator ran {late:.1} ms late at p99 (limit {LATE_LIMIT_MS} ms): run invalid"
        ));
    }
    (reasons.is_empty(), reasons)
}

/// Every end-to-end metric that applies to the run, measured over its
/// untraced rounds.
pub fn end_to_end(run: &WorkloadRun) -> Vec<Metric> {
    let mut out = Sink(Vec::new());
    let rates = round_rates(run, false);
    out.push(
        "throughput_rps",
        "req/s",
        median(&rates),
        rates.len(),
        "rounds",
    );
    let latencies = latencies_ms(run.samples(false));
    out.push(
        "latency_p50_ms",
        "ms",
        percentile(&latencies, 50.0),
        latencies.len(),
        "requests",
    );
    out.push(
        "latency_p99_ms",
        "ms",
        percentile(&latencies, 99.0),
        latencies.len(),
        "requests",
    );
    let cpu: Vec<f64> = run
        .rounds
        .iter()
        .filter(|r| !r.traced && r.ok > 0)
        .map(|r| r.cpu_s * 1e3 / r.ok as f64)
        .collect();
    out.push("cpu_ms_per_req", "ms", median(&cpu), cpu.len(), "rounds");
    out.push(
        "setup_s",
        "s",
        median(&run.setup_s),
        run.setup_s.len(),
        "cold starts",
    );
    out.push(
        "modeled_spmv_us",
        "us",
        mean(&run.modeled_us),
        run.modeled_us.len(),
        "matrices",
    );
    for (class, name) in [
        (Class::Solve, "solve_p90_ms"),
        (Class::Update, "update_p90_ms"),
    ] {
        let of_class = latencies_ms(run.samples(false).filter(|s| s.class == class));
        out.push(
            name,
            "ms",
            percentile(&of_class, 90.0),
            of_class.len(),
            "requests",
        );
    }
    out.push(
        "failed_share",
        "ratio",
        ratio(run.failed as f64, run.attempted as f64),
        run.attempted as usize,
        "requests",
    );
    out.0
}

/// Every per-layer metric that applies to a traced run.
pub fn per_layer(run: &WorkloadRun) -> Vec<Metric> {
    let mut out = Sink(Vec::new());
    let Some(trace) = &run.trace else {
        return out.0;
    };
    let front = &trace.front;
    let serve = &trace.serve;
    let traced: Vec<&Sample> = run.samples(true).collect();
    let n = traced.len();
    let mean_of =
        |f: fn(&Sample) -> u64| mean(&traced.iter().map(|s| f(s) as f64).collect::<Vec<_>>());

    out.push(
        "net.wakeups_per_frame",
        "ratio",
        ratio(
            delta(front, "net_loop_wakeups_total"),
            delta(front, "net_frames_in_total"),
        ),
        delta(front, "net_frames_in_total") as usize,
        "frames",
    );
    out.push(
        "net.readiness_batch_mean",
        "events",
        ratio(
            delta(front, "net_readiness_batch_sum"),
            delta(front, "net_readiness_batch_count"),
        ),
        delta(front, "net_readiness_batch_count") as usize,
        "wakeups",
    );
    // The in-process timings: proto, sim, core, sparse and solvers.
    for t in &trace.timed {
        out.push(t.name, t.unit, Some(t.value), t.calls, "calls");
    }
    out.push(
        "proto.wire_bytes_per_req",
        "B",
        mean_of(|s| s.wire_bytes),
        n,
        "requests",
    );

    let queue_count = delta(serve, "chsp_queue_wait_micros_count");
    out.push(
        "serve.queue_wait_mean_us",
        "us",
        ratio(delta(serve, "chsp_queue_wait_micros_sum"), queue_count),
        queue_count as usize,
        "requests",
    );
    out.push(
        "serve.queue_depth_hwm",
        "count",
        Some(trace.queue_depth_hwm),
        1,
        "runs",
    );
    let service_of = |class: Class| {
        sorted(
            &traced
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.service_us as f64)
                .collect::<Vec<_>>(),
        )
    };
    let spmv_service = service_of(Class::Spmv);
    out.push(
        "serve.execute_spmv_p50_us",
        "us",
        percentile(&spmv_service, 50.0),
        spmv_service.len(),
        "replies",
    );
    let service_count = delta(serve, "chsp_service_micros_count");
    let service_mean = ratio(delta(serve, "chsp_service_micros_sum"), service_count);
    out.push(
        "serve.service_mean_us",
        "us",
        service_mean,
        service_count as usize,
        "requests",
    );

    let wait = mean_of(|s| s.wait_ns).map(|ns| ns / 1e3);
    out.push(
        "client.encode_us",
        "us",
        mean_of(|s| s.encode_ns).map(|ns| ns / 1e3),
        n,
        "requests",
    );
    out.push(
        "client.write_us",
        "us",
        mean_of(|s| s.write_ns).map(|ns| ns / 1e3),
        n,
        "requests",
    );
    out.push("client.wait_us", "us", wait, n, "requests");
    out.push(
        "client.decode_us",
        "us",
        mean_of(|s| s.decode_ns).map(|ns| ns / 1e3),
        n,
        "requests",
    );
    let split = wait_split(trace, &traced);
    out.push(
        "client.unattributed_us",
        "us",
        split.map(|s| s.unattributed),
        n,
        "requests",
    );

    // Figures outside the result line: each exists on some workloads only,
    // or reads 0 (or, as a difference of two rates, below 0) on some.
    out.push(
        "net.read_pauses",
        "count",
        Some(delta(front, "net_read_pauses_total")),
        1,
        "runs",
    );
    let spmv_requests = delta(serve, "chsp_requests_spmv_total");
    out.push(
        "serve.batched_share",
        "ratio",
        ratio(delta(serve, "chsp_batched_total"), spmv_requests),
        spmv_requests as usize,
        "requests",
    );
    let shed = delta(serve, "chsp_shed_total");
    let offered = shed
        + spmv_requests
        + delta(serve, "chsp_requests_solve_total")
        + delta(serve, "chsp_requests_update_total");
    out.push(
        "serve.shed_share",
        "ratio",
        ratio(shed, offered),
        offered as usize,
        "requests",
    );
    let untraced = median(&round_rates(run, false));
    let traced_rate = median(&round_rates(run, true));
    out.push(
        "bench.trace_overhead_pct",
        "%",
        untraced
            .zip(traced_rate)
            .and_then(|(u, t)| ratio((u - t) * 100.0, u)),
        run.rounds.len(),
        "rounds",
    );
    let solve_service = service_of(Class::Solve);
    out.push(
        "serve.execute_solve_p50_us",
        "us",
        percentile(&solve_service, 50.0),
        solve_service.len(),
        "replies",
    );
    let hits = delta(serve, "chsp_plan_cache_hits");
    let lookups = hits + delta(serve, "chsp_plan_cache_misses");
    out.push(
        "serve.plan_hit_ratio",
        "ratio",
        ratio(hits, lookups),
        lookups as usize,
        "lookups",
    );
    let updates = delta(serve, "chsp_requests_update_total");
    out.push(
        "serve.replan_windows_per_update",
        "windows",
        ratio(delta(serve, "chsp_replan_windows_total"), updates),
        updates as usize,
        "updates",
    );
    let gathers = delta(front, "router_gather_micros_count");
    if gathers > 0.0 {
        let gather_mean = ratio(delta(front, "router_gather_micros_sum"), gathers);
        out.push(
            "router.gather_mean_us",
            "us",
            gather_mean,
            gathers as usize,
            "scatters",
        );
        out.push(
            "router.scatter_overhead_us",
            "us",
            gather_mean.zip(service_mean).map(|(g, s)| g - s),
            gathers as usize,
            "scatters",
        );
        let per_shard: Vec<f64> = front
            .iter()
            .filter(|(name, _)| name.starts_with("router_shard_requests_total{"))
            .map(|(_, &v)| v)
            .collect();
        let balance = per_shard
            .iter()
            .copied()
            .reduce(f64::max)
            .zip(mean(&per_shard))
            .and_then(|(max, avg)| ratio(max, avg));
        out.push(
            "router.shard_request_balance",
            "ratio",
            balance,
            per_shard.len(),
            "shards",
        );
        out.push(
            "router.shard_retries",
            "count",
            Some(delta(front, "router_shard_retries_total")),
            1,
            "runs",
        );
        out.push(
            "router.scatter_failures",
            "count",
            Some(delta(front, "router_scatter_failures_total")),
            1,
            "runs",
        );
    }
    out.push(
        "bench.late_p99_ms",
        "ms",
        late_p99_ms(run),
        run.samples.len(),
        "requests",
    );
    out.0
}

/// The client's wait split into the front daemon's queue wait, execution
/// (`service_micros`), server codec and the unattributed remainder (net
/// plus dispatch), all as means in µs.
#[derive(Debug, Clone, Copy)]
struct WaitSplit {
    queue: f64,
    execute: f64,
    codec: f64,
    unattributed: f64,
}

fn wait_split(trace: &TraceData, samples: &[&Sample]) -> Option<WaitSplit> {
    let queue = ratio(
        delta(&trace.front, "chsp_queue_wait_micros_sum"),
        delta(&trace.front, "chsp_queue_wait_micros_count"),
    )?;
    let execute = mean(
        &samples
            .iter()
            .map(|s| s.service_us as f64)
            .collect::<Vec<_>>(),
    )?;
    let codec = timed(trace, "proto.decode_request_us")?.value
        + timed(trace, "proto.encode_reply_us")?.value;
    let wait = mean(
        &samples
            .iter()
            .map(|s| s.wait_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    )?;
    Some(WaitSplit {
        queue,
        execute,
        codec,
        unattributed: wait - queue - execute - codec,
    })
}

/// The SpMV layer table of a traced `sim-spmv` or `pipelined-cpu` run:
/// client encode + write + wait + decode, which add up exactly to the
/// traced mean end-to-end latency, then wait split into queue + execute +
/// server codec + unattributed.
pub fn layer_table(run: &WorkloadRun) -> Option<String> {
    if !matches!(run.workload, Workload::SimSpmv | Workload::PipelinedCpu) {
        return None;
    }
    let trace = run.trace.as_ref()?;
    let spmv: Vec<&Sample> = run
        .samples(true)
        .filter(|s| s.class == Class::Spmv)
        .collect();
    if spmv.is_empty() {
        return None;
    }
    let n = spmv.len() as f64;
    let sum = |f: fn(&Sample) -> u64| spmv.iter().map(|s| u128::from(f(s))).sum::<u128>();
    let parts = [
        ("client.encode", sum(|s| s.encode_ns)),
        ("client.write", sum(|s| s.write_ns)),
        ("client.wait", sum(|s| s.wait_ns)),
        ("client.decode", sum(|s| s.decode_ns)),
    ];
    let total = sum(|s| s.latency_ns);
    let parts_total: u128 = parts.iter().map(|(_, ns)| ns).sum();
    let split = wait_split(trace, &spmv)?;
    let us = |ns: u128| ns as f64 / n / 1e3;
    let mut out = format!(
        "SpMV layers of {} (traced means over {} requests, us)\n",
        run.workload.name(),
        spmv.len()
    );
    for (name, ns) in parts {
        let _ = writeln!(out, "  {name:<24} {:>14.6}", us(ns));
    }
    let _ = writeln!(
        out,
        "  {:<24} {:>14.6}{}",
        "= traced e2e mean",
        us(total),
        if parts_total == total {
            ""
        } else {
            "  (parts do NOT add up)"
        }
    );
    for (name, value) in [
        ("  queue (front daemon)", split.queue),
        ("  execute (service_us)", split.execute),
        ("  server codec", split.codec),
        ("  unattributed", split.unattributed),
    ] {
        let _ = writeln!(out, "  {name:<24} {value:>14.6}");
    }
    let _ = writeln!(
        out,
        "  {:<24} {:>14.6}",
        "= client.wait",
        split.queue + split.execute + split.codec + split.unattributed
    );
    Some(out)
}

/// The metrics as an aligned table under a header naming the run.
pub fn render(run: &WorkloadRun, host: &Host, seconds: f64, metrics: &[Metric]) -> String {
    let (correct, reasons) = verdict(run);
    let mut out = format!(
        "== {} seed {} | {} s in {} rounds | host.cpus {} loadavg {:.2} {:.2} {:.2} | {} of {} requests failed\n",
        run.workload.name(),
        run.seed,
        seconds,
        run.rounds.len(),
        host.cpus,
        host.loadavg[0],
        host.loadavg[1],
        host.loadavg[2],
        run.failed,
        run.attempted
    );
    let rounds: Vec<String> = run
        .rounds
        .iter()
        .map(|r| {
            let rate = ratio(r.ok as f64, r.wall_s).unwrap_or(0.0);
            format!("{rate:.1}{}", if r.traced { "t" } else { "" })
        })
        .collect();
    let _ = writeln!(out, "  rounds (req/s, t = traced): {}", rounds.join(" "));
    if let Some(late) = late_p99_ms(run) {
        let _ = writeln!(
            out,
            "  open-loop generator late at p99: {late:.3} ms (limit {LATE_LIMIT_MS} ms)"
        );
    }
    let _ = writeln!(
        out,
        "  {:<34} {:>16}  {:<8} samples",
        "metric", "value", "unit"
    );
    out.push_str(&render_rows(metrics));
    if !correct {
        for reason in reasons {
            let _ = writeln!(out, "  FAILED: {reason}");
        }
    }
    out
}

/// One aligned line per metric: name, value, unit, sample count and basis.
pub fn render_rows(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "  {:<34} {:>16.6}  {:<8} {} {}\n",
                m.name, m.value, m.unit, m.samples, m.basis
            )
        })
        .collect()
}

/// The one-line result: exactly the `declared` metrics, by name, each with
/// its value and unit.
///
/// # Errors
///
/// A declared metric the run did not measure.
pub fn result_line(
    run: &WorkloadRun,
    metrics: &[Metric],
    declared: &[(&str, &str)],
) -> Result<String, String> {
    let (correct, _) = verdict(run);
    let mut members = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let metric = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("{}: metric {name} was not measured", run.workload.name()))?;
        members.push((
            (*name).to_string(),
            Json::Obj(vec![
                ("value".to_string(), Json::Num(metric.value)),
                ("unit".to_string(), Json::Str((*unit).to_string())),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(run.attempted as f64)),
        ("failed".to_string(), Json::Num(run.failed as f64)),
        ("metrics".to_string(), Json::Obj(members)),
    ])
    .render())
}

/// Most requests a spans file holds; busier runs keep an evenly spaced
/// sample (`pipelined-cpu` traces a few hundred thousand requests).
const MAX_SPANS: usize = 50_000;

/// Writes a traced run's spans to `<dir>/<workload>.spans.jsonl`, one
/// line per request: the request span runs from `due_ns` for
/// `latency_ns`; its children start `late_ns` after it and lie end to end
/// (encode, write, wait, decode). `id` numbers the traced requests, so
/// gaps show where a sample was thinned out.
///
/// # Errors
///
/// File-system failures.
pub fn write_spans(dir: &Path, run: &WorkloadRun) -> Result<(), String> {
    let io = |e: std::io::Error| format!("writing spans to {}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let path = dir.join(format!("{}.spans.jsonl", run.workload.name()));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    let stride = run.samples(true).count().div_ceil(MAX_SPANS).max(1);
    for (id, s) in run.samples(true).enumerate().step_by(stride) {
        let class = match s.class {
            Class::Spmv => "spmv",
            Class::Solve => "solve",
            Class::Update => "update",
        };
        let engine = s.engine.map_or("", |e| e.name());
        writeln!(
            w,
            "{{\"seed\":{},\"id\":{id},\"conn\":{},\"round\":{},\"class\":\"{class}\",\"engine\":\"{engine}\",\
             \"due_ns\":{},\"latency_ns\":{},\"late_ns\":{},\"encode_ns\":{},\"write_ns\":{},\
             \"wait_ns\":{},\"decode_ns\":{},\"service_us\":{},\"simulated_ns\":{}}}",
            run.seed,
            s.conn,
            s.round,
            s.due_ns,
            s.latency_ns,
            s.late_ns,
            s.encode_ns,
            s.write_ns,
            s.wait_ns,
            s.decode_ns,
            s.service_us,
            s.simulated_ns
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)
}

/// One workload's entry in a result set.
pub fn record(run: &WorkloadRun, metrics: &[Metric]) -> Json {
    let (correct, _) = verdict(run);
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(run.attempted as f64)),
        ("failed".to_string(), Json::Num(run.failed as f64)),
        (
            "metrics".to_string(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::Obj(vec![
                                ("value".to_string(), Json::Num(m.value)),
                                ("unit".to_string(), Json::Str(m.unit.to_string())),
                                ("samples".to_string(), Json::Num(m.samples as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One run of a result set: its seed, host and workload records.
pub fn run_entry(seed: u64, host: &Host, workloads: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("seed".to_string(), Json::Num(seed as f64)),
        (
            "host".to_string(),
            Json::Obj(vec![
                ("cpus".to_string(), Json::Num(host.cpus as f64)),
                (
                    "loadavg".to_string(),
                    Json::Arr(host.loadavg.iter().map(|&l| Json::Num(l)).collect()),
                ),
            ]),
        ),
        ("workloads".to_string(), Json::Obj(workloads)),
    ])
}

/// The values of every run of a result set for each `(workload, metric)`,
/// in first-seen order.
type SetValues = Vec<((String, String), Vec<f64>)>;

/// Collects a result set's [`SetValues`].
///
/// # Errors
///
/// A malformed result set.
fn set_values(set: &Json) -> Result<SetValues, String> {
    let runs = set
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("result set has no \"runs\" array")?;
    let mut order: Vec<(String, String)> = Vec::new();
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        let workloads = run
            .get("workloads")
            .and_then(Json::as_object)
            .ok_or("run without \"workloads\"")?;
        for (workload, record) in workloads {
            let metrics = record
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or("workload record without \"metrics\"")?;
            for (metric, entry) in metrics {
                let value = entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a numeric \"value\"")?;
                let key = (workload.clone(), metric.clone());
                if !values.contains_key(&key) {
                    order.push(key.clone());
                }
                values.entry(key).or_default().push(value);
            }
        }
    }
    Ok(order
        .into_iter()
        .map(|key| {
            let v = values.remove(&key).unwrap_or_default();
            (key, v)
        })
        .collect())
}

/// An end-to-end metric's regression bound from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Largest tolerated change, as a share of the baseline median.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`.
///
/// # Errors
///
/// A malformed entry.
pub fn read_bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end array")?
        .iter()
        .map(|entry| {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("end_to_end entry without name")?;
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("entry without bound")?;
            Ok(Bound {
                name: name.to_string(),
                bound,
            })
        })
        .collect()
}

/// Checks, for every workload and bounded metric, that set `b`'s median
/// differs from set `a`'s, in either direction, by no more than the bound
/// as a share of `a`'s. Returns the report and whether all agree. The
/// spread columns are IQR / median over each set's runs.
///
/// # Errors
///
/// A malformed result set.
pub fn agree(a: &Json, b: &Json, bounds: &[Bound]) -> Result<(String, bool), String> {
    let a_values = set_values(a)?;
    let b_values: BTreeMap<_, _> = set_values(b)?.into_iter().collect();
    let mut ok = true;
    let mut out = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "B vs A", "sprd A", "sprd B", "bound"
    );
    let mut checked = 0;
    for ((workload, metric), values) in &a_values {
        let bound = bounds.iter().find(|bound| &bound.name == metric);
        let b_vals = b_values.get(&(workload.clone(), metric.clone()));
        let (Some(med_a), Some(med_b)) = (median(values), b_vals.and_then(|v| median(v))) else {
            if bound.is_some() {
                ok = false;
                let _ = writeln!(
                    out,
                    "{workload:<16} {metric:<18} missing from one set  FAIL"
                );
            }
            continue;
        };
        let fmt_spread =
            |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        let change = ratio(med_b - med_a, med_a.abs()).unwrap_or(0.0);
        let verdict = match bound {
            Some(bound) => {
                checked += 1;
                if change.abs() <= bound.bound {
                    "ok".to_string()
                } else {
                    ok = false;
                    "FAIL".to_string()
                }
            }
            None => "(unbounded)".to_string(),
        };
        let _ = writeln!(
            out,
            "{workload:<16} {metric:<18} {med_a:>14.6} {med_b:>14.6} {:>+7.1}% {:>8} {:>8} {:>6}  {verdict}",
            change * 100.0,
            fmt_spread(spread(values)),
            fmt_spread(b_vals.and_then(|v| spread(v))),
            bound.map_or("-".to_string(), |b| format!("{:.2}", b.bound)),
        );
    }
    if checked == 0 {
        ok = false;
        out.push_str("no bounded metric was compared\n");
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn set(values: &[f64]) -> Json {
        let runs = values
            .iter()
            .map(|&v| {
                parse(&format!(
                    r#"{{"workloads": {{"w": {{"metrics": {{"throughput_rps": {{"value": {v}}},
                        "latency_p50_ms": {{"value": {}}}}}}}}}}}"#,
                    1000.0 / v
                ))
                .expect("test JSON")
            })
            .collect();
        Json::Obj(vec![("runs".to_string(), Json::Arr(runs))])
    }

    #[test]
    fn agree_holds_within_bounds_and_fails_beyond() {
        let bounds = read_bounds(
            &parse(
                r#"{"end_to_end": [
                    {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.1},
                    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
            )
            .expect("test JSON"),
        )
        .expect("bounds");
        let base = set(&[100.0, 101.0, 99.0]);
        let (_, ok) = agree(&base, &set(&[96.0, 95.0, 97.0]), &bounds).expect("sets");
        assert!(ok, "5% slower is within a 10% bound");
        let (_, ok) = agree(&base, &set(&[104.0, 105.0, 103.0]), &bounds).expect("sets");
        assert!(ok, "4% faster is within a 10% bound");
        let (report, ok) = agree(&base, &set(&[80.0, 82.0, 81.0]), &bounds).expect("sets");
        assert!(!ok, "19% slower must fail:\n{report}");
        let (report, ok) = agree(&base, &set(&[150.0, 150.0, 150.0]), &bounds).expect("sets");
        assert!(!ok, "50% faster does not agree either:\n{report}");
    }
}
