//! The benchmark's own load generator: one thread and one connection per
//! client, closed loop with a window of requests in flight or open loop on
//! a seeded arrival schedule. It shares no code with
//! `chason_serve::loadgen`, so a change to that file cannot move the
//! yardstick; it speaks CHSP through the program's public codec.

use crate::reference::{Held, Reference};
use crate::workload::{
    arrivals, stream, Inputs, Op, OpStream, Workload, CONNECTIONS, OPEN_LOOP_RPS, SOLVE_ITERATIONS,
};
use chason_serve::proto::{
    decode_reply, encode_request, write_frame, Engine, FrameEvent, FrameReader, Reply, Request,
    DEFAULT_MAX_FRAME,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// A connection that has made no progress for this long is declared
/// dropped.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `Spmv`
    Spmv,
    /// `Solve`
    Solve,
    /// `Update`
    Update,
}

/// One request answered correctly. Times are nanoseconds; the four span
/// fields are zero in untraced rounds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request class.
    pub class: Class,
    /// Engine of an SpMV (`None` for solves and updates).
    pub engine: Option<Engine>,
    /// Index of the matrix in the workload's inputs.
    pub matrix: u8,
    /// Connection index.
    pub conn: u8,
    /// Round index.
    pub round: u16,
    /// When the request was due, since the run's epoch. Closed loop: when
    /// the generator began sending it.
    pub due_ns: u64,
    /// How late the generator began sending (open loop; 0 closed loop).
    pub late_ns: u64,
    /// Encoding the request payload.
    pub encode_ns: u64,
    /// Writing the request frame.
    pub write_ns: u64,
    /// From the write until the whole reply frame was read.
    pub wait_ns: u64,
    /// Decoding the reply payload.
    pub decode_ns: u64,
    /// From due to decoded reply.
    pub latency_ns: u64,
    /// `service_micros` of the reply (0 for updates).
    pub service_us: u64,
    /// `simulated_nanos` of the reply (0 for the CPU engine and updates).
    pub simulated_ns: u64,
    /// Request plus reply frame bytes, length prefixes included.
    pub wire_bytes: u64,
}

/// What one connection did in one round.
#[derive(Debug, Default)]
pub struct RoundResult {
    /// Correctly answered requests.
    pub samples: Vec<Sample>,
    /// Requests sent (or attempted).
    pub attempted: u64,
    /// Error replies, wrong results and requests lost with the connection.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// When the last reply was settled.
    pub finished: Option<Instant>,
    /// Whether the connection was lost.
    pub broken: bool,
}

impl RoundResult {
    fn note(&mut self, error: String) {
        if self.errors.len() < 4 {
            self.errors.push(error);
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.note(error);
    }
}

/// What one round of one workload asks of its connections.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan {
    /// Round index (seeds the open-loop schedule).
    pub index: u16,
    /// When the round starts.
    pub start: Instant,
    /// Measured length.
    pub seconds: f64,
    /// Whether spans are recorded.
    pub traced: bool,
    /// Whether requests follow the arrival schedule.
    pub open_loop: bool,
}

/// Shared, read-only state of one workload's run.
pub struct Ctx<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its inputs.
    pub inputs: &'a Inputs,
    /// Their references.
    pub reference: &'a Reference,
    /// Matrix handles, in input order.
    pub handles: &'a [u64],
    /// Zero of every `due_ns`.
    pub epoch: Instant,
    /// The run's seed.
    pub seed: u64,
}

struct InFlight {
    op: Op,
    due: Instant,
    t0: Instant,
    encode_ns: u64,
    write_ns: u64,
    sent: Instant,
    request_bytes: u64,
}

/// One client connection and the state needed to check its replies.
pub struct Conn {
    index: usize,
    stream: TcpStream,
    reader: FrameReader,
    read_timeout: Option<Duration>,
    ops: OpStream,
    held: Held,
    updates_sent: BTreeMap<usize, u64>,
    versions_seen: BTreeMap<usize, BTreeSet<u64>>,
}

impl Conn {
    /// Connects client `index` of `ctx`'s workload.
    ///
    /// # Errors
    ///
    /// Connect or socket-option failures.
    pub fn connect(addr: SocketAddr, index: usize, ctx: &Ctx<'_>) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let rows = ctx.inputs.matrices[0].rows();
        Ok(Conn {
            index,
            stream,
            reader: FrameReader::new(DEFAULT_MAX_FRAME),
            read_timeout: None,
            ops: OpStream::new(ctx.workload, index, ctx.seed, rows),
            held: Held::new(),
            updates_sent: BTreeMap::new(),
            versions_seen: BTreeMap::new(),
        })
    }

    /// Runs one round: sends until the round ends (closed loop) or the
    /// schedule is exhausted (open loop), then drains every reply.
    pub fn run_round(&mut self, ctx: &Ctx<'_>, plan: &RoundPlan) -> RoundResult {
        let mut out = RoundResult::default();
        let window = ctx.workload.window();
        let end = plan.start + Duration::from_secs_f64(plan.seconds);
        let schedule: Vec<Instant> = if plan.open_loop {
            let count = (OPEN_LOOP_RPS / CONNECTIONS as f64 * plan.seconds).round() as usize;
            let mut rng = stream(
                ctx.seed,
                7,
                (u64::from(plan.index) << 8) | self.index as u64,
            );
            arrivals(count, plan.seconds, &mut rng)
                .into_iter()
                .map(|t| plan.start + Duration::from_secs_f64(t))
                .collect()
        } else {
            Vec::new()
        };
        let mut next = 0usize;
        let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(window);
        let mut progress = Instant::now();
        loop {
            while in_flight.len() < window {
                let now = Instant::now();
                // Closed loop: a request is due when the generator starts
                // encoding it.
                let due = match schedule.get(next) {
                    Some(&due) if due <= now => {
                        next += 1;
                        Some(due)
                    }
                    Some(_) => break,
                    None if !plan.open_loop && now < end => None,
                    None => break,
                };
                out.attempted += 1;
                match self.send(ctx, due, plan.traced) {
                    Ok(request) => in_flight.push_back(request),
                    Err(e) => {
                        out.fail(e);
                        return broken(out, in_flight.len());
                    }
                }
                progress = Instant::now();
            }
            if in_flight.is_empty() {
                match schedule.get(next) {
                    Some(&arrival) => {
                        thread::sleep(arrival.saturating_duration_since(Instant::now()));
                        continue;
                    }
                    None => return out,
                }
            }
            // Wait for a reply, but with room in the window only until the
            // next arrival is due.
            let wait = match schedule.get(next) {
                Some(&arrival) if in_flight.len() < window => arrival
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_micros(100)),
                _ => REPLY_TIMEOUT,
            };
            if let Some(result) =
                self.await_reply(ctx, plan, &mut in_flight, &mut out, wait, &mut progress)
            {
                return result;
            }
        }
    }

    /// Reads at most one reply, waiting up to `wait`. Returns the round's
    /// final result when the connection is lost.
    fn await_reply(
        &mut self,
        ctx: &Ctx<'_>,
        plan: &RoundPlan,
        in_flight: &mut VecDeque<InFlight>,
        out: &mut RoundResult,
        wait: Duration,
        progress: &mut Instant,
    ) -> Option<RoundResult> {
        if self.read_timeout != Some(wait) {
            if let Err(e) = self.stream.set_read_timeout(Some(wait)) {
                out.note(format!("set_read_timeout failed: {e}"));
                return Some(broken(std::mem::take(out), in_flight.len()));
            }
            self.read_timeout = Some(wait);
        }
        match self.reader.poll(&mut self.stream) {
            Ok(FrameEvent::Frame(payload)) => {
                let read = Instant::now();
                #[allow(clippy::expect_used)] // callers only wait with requests in flight
                let request = in_flight.pop_front().expect("a request is in flight");
                match self.settle(ctx, plan, request, &payload, read) {
                    Ok(sample) => out.samples.push(sample),
                    Err(e) => out.fail(e),
                }
                out.finished = Some(Instant::now());
                *progress = Instant::now();
                None
            }
            Ok(FrameEvent::Timeout) if progress.elapsed() < REPLY_TIMEOUT => None,
            Ok(FrameEvent::Timeout) => {
                out.note(format!("no reply for {} s", REPLY_TIMEOUT.as_secs()));
                Some(broken(std::mem::take(out), in_flight.len()))
            }
            Ok(FrameEvent::Eof) => {
                out.note("server closed the connection".to_string());
                Some(broken(std::mem::take(out), in_flight.len()))
            }
            Err(e) => {
                out.note(format!("connection failed: {e}"));
                Some(broken(std::mem::take(out), in_flight.len()))
            }
        }
    }

    fn send(
        &mut self,
        ctx: &Ctx<'_>,
        due: Option<Instant>,
        traced: bool,
    ) -> Result<InFlight, String> {
        let held = &self.held;
        let op = self.ops.next(|m, row| {
            held.get(&(m, row))
                .and_then(|values| values.last().copied())
                .unwrap_or_else(|| ctx.reference.diag(m, row))
        });
        let request = match &op {
            Op::Spmv { matrix, engine, x } => Request::Spmv {
                handle: ctx.handles[*matrix],
                engine: *engine,
                x: ctx.inputs.xs[*x].clone(),
            },
            Op::Solve { matrix, solver } => Request::Solve {
                handle: ctx.handles[*matrix],
                engine: Engine::Chason,
                solver: *solver,
                max_iterations: SOLVE_ITERATIONS,
                tolerance: 0.0,
                b: ctx.inputs.b.clone(),
            },
            Op::Update { matrix, revalues } => {
                // Record the new values before sending: from now on a reply
                // may reflect them.
                for &(row, value) in revalues {
                    self.held.entry((*matrix, row)).or_default().push(value);
                }
                *self.updates_sent.entry(*matrix).or_default() += 1;
                Request::Update {
                    handle: ctx.handles[*matrix],
                    inserts: Vec::new(),
                    revalues: revalues
                        .iter()
                        .map(|&(row, value)| (row as u64, row as u64, value))
                        .collect(),
                    deletes: Vec::new(),
                }
            }
        };
        let t0 = Instant::now();
        let payload = encode_request(&request);
        let encoded = traced.then(Instant::now);
        write_frame(&mut self.stream, &payload).map_err(|e| format!("write failed: {e}"))?;
        let sent = if traced { Instant::now() } else { t0 };
        let encode_ns = encoded.map_or(0, |t| nanos(t - t0));
        Ok(InFlight {
            op,
            due: due.unwrap_or(t0),
            t0,
            encode_ns,
            write_ns: encoded.map_or(0, |t| nanos(sent - t)),
            sent,
            request_bytes: payload.len() as u64 + 4,
        })
    }

    fn settle(
        &mut self,
        ctx: &Ctx<'_>,
        plan: &RoundPlan,
        request: InFlight,
        payload: &[u8],
        read: Instant,
    ) -> Result<Sample, String> {
        let reply = decode_reply(payload).map_err(|e| format!("undecodable reply: {e}"))?;
        let done = Instant::now();
        let (class, engine, service_us, simulated_ns) = self.check(ctx, &request.op, reply)?;
        let (Op::Spmv { matrix, .. } | Op::Solve { matrix, .. } | Op::Update { matrix, .. }) =
            request.op;
        Ok(Sample {
            class,
            engine,
            matrix: matrix as u8,
            conn: self.index as u8,
            round: plan.index,
            due_ns: nanos(request.due - ctx.epoch),
            late_ns: nanos(request.t0.saturating_duration_since(request.due)),
            encode_ns: request.encode_ns,
            write_ns: request.write_ns,
            wait_ns: if plan.traced {
                nanos(read - request.sent)
            } else {
                0
            },
            decode_ns: if plan.traced { nanos(done - read) } else { 0 },
            latency_ns: nanos(done - request.due),
            service_us,
            simulated_ns,
            wire_bytes: request.request_bytes + payload.len() as u64 + 4,
        })
    }

    /// Checks a reply against the reference: SpMV rows within tolerance,
    /// solve residuals recomputed, update versions advancing by exactly one
    /// per update sent to the matrix.
    fn check(
        &mut self,
        ctx: &Ctx<'_>,
        op: &Op,
        reply: Reply,
    ) -> Result<(Class, Option<Engine>, u64, u64), String> {
        match (op, reply) {
            (_, Reply::Error { code, message }) => Err(format!("error reply {code:?}: {message}")),
            (_, Reply::Busy { .. }) => Err("request shed with Busy".to_string()),
            (
                Op::Spmv { matrix, engine, x },
                Reply::Vector {
                    y,
                    service_micros,
                    simulated_nanos,
                },
            ) => {
                ctx.reference
                    .check_spmv(*matrix, *x, &ctx.inputs.xs[*x], &y, &self.held)?;
                if (*engine == Engine::Cpu) != (simulated_nanos == 0) {
                    return Err(format!(
                        "{} SpMV reported {simulated_nanos} simulated ns",
                        engine.name()
                    ));
                }
                Ok((Class::Spmv, Some(*engine), service_micros, simulated_nanos))
            }
            (
                Op::Solve { matrix, .. },
                Reply::Solved {
                    solution,
                    iterations,
                    residual,
                    service_micros,
                    simulated_nanos,
                    ..
                },
            ) => {
                ctx.reference.check_solve(
                    *matrix,
                    &ctx.inputs.b,
                    &solution,
                    residual,
                    iterations,
                    &self.held,
                )?;
                Ok((Class::Solve, None, service_micros, simulated_nanos))
            }
            (Op::Update { matrix, .. }, Reply::Updated { version, nnz, .. }) => {
                // Updates to one matrix may execute in any order among
                // themselves while pipelined, so each must acknowledge a
                // distinct version no higher than the updates sent: over a
                // drained run that is exactly one step per update.
                let sent = self.updates_sent.get(matrix).copied().unwrap_or(0);
                let fresh = self
                    .versions_seen
                    .entry(*matrix)
                    .or_default()
                    .insert(version);
                if version == 0 || version > sent || !fresh {
                    return Err(format!(
                        "update acknowledged version {version} after {sent} updates (repeat: {})",
                        !fresh
                    ));
                }
                let expected = ctx.inputs.matrices[*matrix].nnz() as u64;
                if nnz != expected {
                    return Err(format!("update left {nnz} non-zeros, expected {expected}"));
                }
                Ok((Class::Update, None, 0, 0))
            }
            (op, other) => Err(format!("unexpected {} reply to {op:?}", reply_kind(&other))),
        }
    }
}

/// Ends a round on a lost connection: the `lost` requests still in
/// flight fail with it.
fn broken(mut out: RoundResult, lost: usize) -> RoundResult {
    out.failed += lost as u64;
    out.broken = true;
    out
}

fn reply_kind(reply: &Reply) -> &'static str {
    match reply {
        Reply::Loaded { .. } => "Loaded",
        Reply::Vector { .. } => "Vector",
        Reply::Solved { .. } => "Solved",
        Reply::PlanArtifact { .. } => "PlanArtifact",
        Reply::Stats(_) => "Stats",
        Reply::MetricsText { .. } => "MetricsText",
        Reply::Done => "Done",
        Reply::Busy { .. } => "Busy",
        Reply::Error { .. } => "Error",
        Reply::Updated { .. } => "Updated",
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
