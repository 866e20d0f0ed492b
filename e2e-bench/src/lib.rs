//! `chason-e2e`: the end-to-end and per-layer benchmark of `chason serve`
//! and `chason route`.
//!
//! Each workload runs against a fresh in-process deployment started
//! through the public `Server::start` / `Router::start`, driven from this
//! crate's own load generator over two connections. The measured time is
//! split into rounds; when several workloads run, their rounds interleave
//! so slow drift of the host lands on all of them alike. Every reply is
//! checked against a reference computed here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod reference;
pub mod report;
pub mod stats;
pub mod workload;

use deploy::{cold_start, Ready};
use layers::{accumulate, scrape, time_layers, Exposition, Timed};
use loadgen::{Class, Conn, Ctx, RoundPlan, Sample};
use reference::Reference;
use std::path::PathBuf;
use std::thread;
use std::time::Instant;
use workload::{Inputs, Scale, Workload, CONNECTIONS};

/// Rounds each workload's measured time is split into.
pub const ROUNDS: usize = 5;
/// Seconds of cold starts per workload and run; `setup_s` is their median.
/// They are spread over the gaps before the rounds, each gap holding at
/// least one, so that one slow stretch of the host does not set the median.
pub const COLD_START_SECONDS: f64 = 2.5;
/// The open-loop generator may start sending this late at p99 before the
/// run is declared invalid: beyond it the offered load was not offered.
pub const LATE_LIMIT_MS: f64 = 50.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workloads, in the order their rounds interleave.
    pub workloads: Vec<Workload>,
    /// Seed of every input.
    pub seed: u64,
    /// Measured seconds per workload.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Drive open-loop workloads in a closed loop instead (capacity probe).
    pub closed_loop: bool,
    /// Where a traced run writes its spans.
    pub spans_dir: Option<PathBuf>,
}

/// The host a result was measured on.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `available_parallelism`.
    pub cpus: usize,
    /// `/proc/loadavg`: 1, 5 and 15 minutes.
    pub loadavg: [f64; 3],
}

impl Host {
    /// Reads the host's CPU count and load average.
    pub fn read() -> Host {
        let cpus = thread::available_parallelism().map_or(1, usize::from);
        let mut loadavg = [0.0; 3];
        if let Ok(text) = std::fs::read_to_string("/proc/loadavg") {
            for (slot, field) in loadavg.iter_mut().zip(text.split_whitespace()) {
                *slot = field.parse().unwrap_or(0.0);
            }
        }
        Host { cpus, loadavg }
    }

    /// Refuses a host with fewer CPUs than generator threads: the numbers
    /// would measure oversubscription, not the program.
    ///
    /// # Errors
    ///
    /// The refusal.
    pub fn check(&self) -> Result<(), String> {
        if self.cpus < CONNECTIONS {
            return Err(format!(
                "host has {} CPU(s) but the benchmark drives {CONNECTIONS} generator threads; \
                 refusing to measure oversubscription",
                self.cpus
            ));
        }
        Ok(())
    }
}

/// One measured round of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Requests answered correctly.
    pub ok: u64,
    /// From the round's start to its last reply.
    pub wall_s: f64,
    /// Process CPU time (user + system) spent in the round.
    pub cpu_s: f64,
}

/// What the traced rounds observed inside the program.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Counter deltas of the daemon clients talk to (the router, when
    /// there is one).
    pub front: Exposition,
    /// Counter deltas summed over the servers that execute requests.
    pub serve: Exposition,
    /// Highest queue depth any of those servers reached.
    pub queue_depth_hwm: f64,
    /// In-process layer timings.
    pub timed: Vec<Timed>,
}

/// Everything one workload's run measured.
#[derive(Debug)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// One per cold start.
    pub setup_s: Vec<f64>,
    /// One per round.
    pub rounds: Vec<RoundStats>,
    /// Every correctly answered request.
    pub samples: Vec<Sample>,
    /// Requests attempted in measured rounds.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// Chasoň modeled SpMV latency of each matrix, µs.
    pub modeled_us: Vec<f64>,
    /// Present for a traced run.
    pub trace: Option<TraceData>,
}

impl WorkloadRun {
    /// Samples of rounds with the given tracing state.
    pub fn samples(&self, traced: bool) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(move |s| self.rounds[usize::from(s.round)].traced == traced)
    }
}

struct State {
    workload: Workload,
    inputs: Inputs,
    reference: Reference,
    ready: Ready,
    conns: Vec<Conn>,
    run: WorkloadRun,
    broken: bool,
}

/// Runs `options.workloads` with interleaved rounds.
///
/// # Errors
///
/// Set-up failures (a deployment that does not start, a matrix that does
/// not load, a wrong first reply) and scrape failures. Failed requests do
/// not error: they are counted in the returned runs.
pub fn run(options: &Options) -> Result<Vec<WorkloadRun>, String> {
    let epoch = Instant::now();
    let mut states: Vec<State> = Vec::new();
    let result = run_states(options, epoch, &mut states);
    let mut runs = Vec::new();
    for state in states {
        state.ready.deployment.stop();
        runs.push(state.run);
    }
    result.map(|()| runs)
}

fn run_states(options: &Options, epoch: Instant, states: &mut Vec<State>) -> Result<(), String> {
    // Traced runs alternate untraced and traced rounds, so the overhead of
    // tracing is measured against rounds from the same stretch of time.
    let rounds = if options.traced { 2 * ROUNDS } else { ROUNDS };
    let seconds = options.seconds / rounds as f64;
    let gap = COLD_START_SECONDS / rounds as f64;
    for &workload in &options.workloads {
        let inputs = workload::inputs(workload, options.scale, options.seed);
        let reference = Reference::new(&inputs.matrices, &inputs.xs);
        let (setup_s, ready) = cold_starts(workload, &inputs, &reference, gap)?;
        let ctx = Ctx {
            workload,
            inputs: &inputs,
            reference: &reference,
            handles: &ready.handles,
            epoch,
            seed: options.seed,
        };
        let conns = (0..CONNECTIONS)
            .map(|i| Conn::connect(ready.deployment.addr(), i, &ctx))
            .collect::<std::io::Result<Vec<_>>>();
        let conns = match conns {
            Ok(conns) => conns,
            Err(e) => {
                ready.deployment.stop();
                return Err(format!("{}: connect failed: {e}", workload.name()));
            }
        };
        states.push(State {
            workload,
            inputs,
            reference,
            ready,
            conns,
            run: WorkloadRun {
                workload,
                seed: options.seed,
                setup_s,
                rounds: Vec::new(),
                samples: Vec::new(),
                attempted: 0,
                failed: 0,
                errors: Vec::new(),
                modeled_us: Vec::new(),
                trace: options.traced.then(TraceData::default),
            },
            broken: false,
        });
    }

    for index in 0..rounds {
        let traced = options.traced && index % 2 == 1;
        for state in states.iter_mut().filter(|s| !s.broken) {
            if index > 0 {
                let (setup_s, spare) =
                    cold_starts(state.workload, &state.inputs, &state.reference, gap)?;
                spare.deployment.stop();
                state.run.setup_s.extend(setup_s);
            }
            run_round(state, options, epoch, index, seconds, traced)?;
        }
    }

    for state in states.iter_mut() {
        finish(state, options)?;
    }
    Ok(())
}

/// Cold starts, one after another, until `seconds` have passed (at least
/// one). Returns each one's `setup_s` and the last deployment, running.
fn cold_starts(
    workload: Workload,
    inputs: &Inputs,
    reference: &Reference,
    seconds: f64,
) -> Result<(Vec<f64>, Ready), String> {
    let started = Instant::now();
    let mut ready = cold_start(workload, inputs, reference)?;
    let mut setup_s = vec![ready.setup_s];
    while started.elapsed().as_secs_f64() < seconds {
        match cold_start(workload, inputs, reference) {
            Ok(next) => {
                setup_s.push(next.setup_s);
                std::mem::replace(&mut ready, next).deployment.stop();
            }
            Err(e) => {
                ready.deployment.stop();
                return Err(e);
            }
        }
    }
    Ok((setup_s, ready))
}

fn run_round(
    state: &mut State,
    options: &Options,
    epoch: Instant,
    index: usize,
    seconds: f64,
    traced: bool,
) -> Result<(), String> {
    let deployment = &state.ready.deployment;
    let scrape_all = || -> Result<(Exposition, Vec<Exposition>), String> {
        let serve = deployment
            .serve_addrs()
            .into_iter()
            .map(scrape)
            .collect::<Result<Vec<_>, _>>()?;
        Ok((scrape(deployment.addr())?, serve))
    };
    let before = if traced { Some(scrape_all()?) } else { None };
    let ctx = Ctx {
        workload: state.workload,
        inputs: &state.inputs,
        reference: &state.reference,
        handles: &state.ready.handles,
        epoch,
        seed: options.seed,
    };
    let plan = RoundPlan {
        index: index as u16,
        start: Instant::now(),
        seconds,
        traced,
        open_loop: state.workload.open_loop() && !options.closed_loop,
    };
    let cpu_before = cpu_seconds()?;
    let results = thread::scope(|scope| {
        let handles: Vec<_> = state
            .conns
            .iter_mut()
            .map(|conn| scope.spawn(|| conn.run_round(&ctx, &plan)))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|_| loadgen::RoundResult {
                    failed: 1,
                    broken: true,
                    errors: vec!["generator thread panicked".to_string()],
                    ..Default::default()
                })
            })
            .collect::<Vec<_>>()
    });
    let cpu_s = cpu_seconds()? - cpu_before;
    let finished = results
        .iter()
        .filter_map(|r| r.finished)
        .max()
        .unwrap_or(plan.start);
    let run = &mut state.run;
    let mut ok = 0;
    for result in results {
        ok += result.samples.len() as u64;
        run.samples.extend(result.samples);
        run.attempted += result.attempted;
        run.failed += result.failed;
        state.broken |= result.broken;
        for error in result.errors {
            if run.errors.len() < 8 {
                run.errors.push(error);
            }
        }
    }
    run.rounds.push(RoundStats {
        traced,
        ok,
        wall_s: (finished - plan.start).as_secs_f64(),
        cpu_s,
    });
    if let (Some((front_before, serve_before)), Some(trace)) = (before, run.trace.as_mut()) {
        let (front_after, serve_after) = scrape_all()?;
        accumulate(&mut trace.front, &front_before, &front_after);
        for (b, a) in serve_before.iter().zip(&serve_after) {
            accumulate(&mut trace.serve, b, a);
            let hwm = a.get("chsp_queue_depth_hwm").copied().unwrap_or(0.0);
            trace.queue_depth_hwm = trace.queue_depth_hwm.max(hwm);
        }
    }
    Ok(())
}

/// After the rounds: the modeled latency, the in-process layer timings
/// and the spans file.
fn finish(state: &mut State, options: &Options) -> Result<(), String> {
    let run = &mut state.run;
    if state.workload == Workload::PipelinedCpu {
        // The CPU engine models nothing; ask for one Chasoň product per
        // matrix, outside the measured rounds.
        let mut client = chason_serve::Client::connect(state.ready.deployment.addr())
            .map_err(|e| format!("probe connect failed: {e}"))?;
        for (m, &handle) in state.ready.handles.iter().enumerate() {
            let (y, _, nanos) = client
                .spmv(
                    handle,
                    chason_serve::Engine::Chason,
                    state.inputs.xs[0].clone(),
                )
                .map_err(|e| format!("modeled-latency probe failed: {e}"))?;
            state
                .reference
                .check_spmv(m, 0, &state.inputs.xs[0], &y, &reference::Held::new())?;
            run.modeled_us.push(nanos as f64 / 1e3);
        }
    } else {
        // One value per matrix, the median of its Chasoň replies: updates
        // revalue diagonals only, and the modeled latency depends on the
        // pattern alone.
        run.modeled_us = (0..state.inputs.matrices.len())
            .filter_map(|m| {
                let replies: Vec<f64> = run
                    .samples
                    .iter()
                    .filter(|s| {
                        usize::from(s.matrix) == m
                            && s.class == Class::Spmv
                            && s.engine == Some(chason_serve::Engine::Chason)
                    })
                    .map(|s| s.simulated_ns as f64 / 1e3)
                    .collect();
                stats::median(&replies)
            })
            .collect();
    }
    if let Some(trace) = run.trace.as_mut() {
        trace.timed = time_layers(state.workload, &state.inputs, options.seed)?;
        if let Some(dir) = &options.spans_dir {
            report::write_spans(dir, run)?;
        }
    }
    Ok(())
}

/// Process CPU time, user plus system, from `/proc/self/stat`. Linux
/// reports it in `USER_HZ` ticks, 100 per second on x86 and Arm.
fn cpu_seconds() -> Result<f64, String> {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (field(11), field(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / TICKS_PER_SECOND),
        _ => Err("unexpected /proc/self/stat layout".to_string()),
    }
}
