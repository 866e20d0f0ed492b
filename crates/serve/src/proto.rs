//! CHSP v1 — the Chasoň service wire protocol.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload. The payload's first byte is an opcode; the
//! rest is the fixed field layout documented on each variant. Frames are
//! symmetric (requests and replies share the framing), length-capped, and
//! self-contained — a reader never needs lookahead beyond the declared
//! length, and a malformed payload poisons only its own frame, not the
//! connection.
//!
//! Large payloads (matrices, plans) reuse the repo's existing binary
//! vocabulary: a `Plan` reply carries a verbatim `CHPL` artifact
//! ([`chason_core::export::write_plan`]), so a client can persist it or
//! feed it back to any offline tool that already speaks CHPL.

use chason_net::{FrameAssembler, FrameTooLarge, READ_CHUNK};
use chason_sparse::{CooMatrix, Triplet};
use std::fmt;
use std::io::{self, Read, Write};

/// Default ceiling on a frame's payload length (64 MiB) — enough for a
/// ~3M-non-zero matrix upload, small enough that a hostile length prefix
/// cannot make the server allocate without bound.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

/// Failure while framing or decoding a CHSP message.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket/stream failed.
    Io(io::Error),
    /// A frame declared a payload longer than the negotiated cap.
    FrameTooLarge {
        /// Declared payload length.
        len: u64,
        /// The cap it violated.
        cap: u64,
    },
    /// The payload bytes do not decode as the declared message.
    Malformed(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "CHSP I/O failed: {e}"),
            ProtoError::FrameTooLarge { len, cap } => {
                write!(f, "frame payload of {len} bytes exceeds the {cap}-byte cap")
            }
            ProtoError::Malformed(msg) => write!(f, "malformed CHSP payload: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<FrameTooLarge> for ProtoError {
    fn from(e: FrameTooLarge) -> Self {
        ProtoError::FrameTooLarge {
            len: e.len,
            cap: e.cap,
        }
    }
}

/// Which execution backend a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Serial CSR on the host CPU (no plan cache involvement).
    Cpu,
    /// The simulated Chasoň accelerator (CrHCS scheduling).
    Chason,
    /// The simulated Serpens baseline (PE-aware scheduling).
    Serpens,
}

impl Engine {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            Engine::Cpu => 0,
            Engine::Chason => 1,
            Engine::Serpens => 2,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Engine> {
        match code {
            0 => Some(Engine::Cpu),
            1 => Some(Engine::Chason),
            2 => Some(Engine::Serpens),
            _ => None,
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Engine> {
        match name {
            "cpu" => Some(Engine::Cpu),
            "chason" => Some(Engine::Chason),
            "serpens" => Some(Engine::Serpens),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Cpu => "cpu",
            Engine::Chason => "chason",
            Engine::Serpens => "serpens",
        }
    }
}

/// Which iterative solver a [`Request::Solve`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Conjugate gradient (SPD systems).
    Cg,
    /// Jacobi iteration (diagonally dominant systems).
    Jacobi,
}

impl SolverKind {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            SolverKind::Cg => 0,
            SolverKind::Jacobi => 1,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<SolverKind> {
        match code {
            0 => Some(SolverKind::Cg),
            1 => Some(SolverKind::Jacobi),
            _ => None,
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<SolverKind> {
        match name {
            "cg" => Some(SolverKind::Cg),
            "jacobi" => Some(SolverKind::Jacobi),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Cg => "cg",
            SolverKind::Jacobi => "jacobi",
        }
    }
}

/// Typed failure codes carried by [`Reply::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The payload did not decode; the frame is discarded, the connection
    /// survives.
    MalformedFrame,
    /// The opcode byte is not a CHSP v1 request.
    UnknownOpcode,
    /// No matrix with the given handle is resident (it may have been
    /// evicted — re-send `LoadMatrix`).
    UnknownHandle,
    /// The request is well-formed but semantically invalid (dimension
    /// mismatch, unsolvable system, unschedulable values).
    BadRequest,
    /// The server failed internally while executing the request.
    Internal,
    /// The frame's declared length exceeds the server's cap; the server
    /// cannot resynchronize, so it closes the connection after this reply.
    FrameTooLarge,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// A router could not reach a backend shard needed by the request
    /// (connection refused, broken mid-request, or health-checked down).
    ShardUnavailable,
    /// A router's scatter reached only part of the shard set, or shard
    /// replies disagreed (e.g. diverging matrix versions after an update);
    /// the gathered result was discarded rather than returned truncated.
    PartialGather,
}

impl ErrorCode {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::MalformedFrame => 1,
            ErrorCode::UnknownOpcode => 2,
            ErrorCode::UnknownHandle => 3,
            ErrorCode::BadRequest => 4,
            ErrorCode::Internal => 5,
            ErrorCode::FrameTooLarge => 6,
            ErrorCode::ShuttingDown => 7,
            ErrorCode::ShardUnavailable => 8,
            ErrorCode::PartialGather => 9,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<ErrorCode> {
        match code {
            1 => Some(ErrorCode::MalformedFrame),
            2 => Some(ErrorCode::UnknownOpcode),
            3 => Some(ErrorCode::UnknownHandle),
            4 => Some(ErrorCode::BadRequest),
            5 => Some(ErrorCode::Internal),
            6 => Some(ErrorCode::FrameTooLarge),
            7 => Some(ErrorCode::ShuttingDown),
            8 => Some(ErrorCode::ShardUnavailable),
            9 => Some(ErrorCode::PartialGather),
            _ => None,
        }
    }
}

/// A client-to-server CHSP message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Uploads a matrix; the reply's handle (the structural fingerprint,
    /// `CooMatrix::fingerprint`) names it in subsequent requests. Layout:
    /// `rows u64, cols u64, nnz u64, nnz × (row u64, col u64, value f32)`.
    LoadMatrix {
        /// Row count.
        rows: u64,
        /// Column count.
        cols: u64,
        /// Explicit triplets.
        triplets: Vec<(u64, u64, f32)>,
    },
    /// Computes `y = A·x` on a resident matrix. Layout: `handle u64,
    /// engine u8, n u64, n × f32`.
    Spmv {
        /// Matrix handle from a `Loaded` reply.
        handle: u64,
        /// Execution backend.
        engine: Engine,
        /// Dense input vector.
        x: Vec<f32>,
    },
    /// Runs an iterative solve of `A·x = b`. Layout: `handle u64,
    /// engine u8, solver u8, max_iterations u32, tolerance f64, n u64,
    /// n × f32`.
    Solve {
        /// Matrix handle from a `Loaded` reply.
        handle: u64,
        /// Execution backend for the inner SpMV products.
        engine: Engine,
        /// Which solver to run.
        solver: SolverKind,
        /// Iteration cap.
        max_iterations: u32,
        /// Relative-residual convergence tolerance.
        tolerance: f64,
        /// Right-hand side.
        b: Vec<f32>,
    },
    /// Requests the `CHPL` plan artifact for a resident matrix under the
    /// given engine. Layout: `handle u64, engine u8`.
    Plan {
        /// Matrix handle from a `Loaded` reply.
        handle: u64,
        /// Engine family the plan targets (`Cpu` is invalid here).
        engine: Engine,
    },
    /// Requests the server's counters. Served inline (never queued, never
    /// shed), so observability survives overload.
    Stats,
    /// Requests the full metrics registry as Prometheus-style text
    /// exposition. Served inline, like `Stats`.
    Metrics,
    /// Asks the server to drain in-flight work and exit.
    Shutdown,
    /// Diagnostic: occupies a worker for the given duration. Used by the
    /// integration tests and load generator to provoke queue-full
    /// shedding deterministically. Layout: `millis u32`.
    Sleep {
        /// How long the worker sleeps.
        millis: u32,
    },
    /// Applies a delta batch to a resident matrix: insert new entries,
    /// revalue or delete existing ones. The handle stays the same; the
    /// matrix's version is bumped and cached plans are incrementally
    /// respliced (dirty windows only) or rebuilt on next use. Layout:
    /// `handle u64, n_ins u64, n_rev u64, n_del u64,
    /// n_ins × (row u64, col u64, value f32),
    /// n_rev × (row u64, col u64, value f32),
    /// n_del × (row u64, col u64)`.
    Update {
        /// Matrix handle from a `Loaded` reply.
        handle: u64,
        /// Entries to insert (coordinates must be vacant).
        inserts: Vec<(u64, u64, f32)>,
        /// Entries to revalue (coordinates must exist).
        revalues: Vec<(u64, u64, f32)>,
        /// Entries to delete (coordinates must exist).
        deletes: Vec<(u64, u64)>,
    },
}

/// A server-to-client CHSP message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A matrix is resident under `handle`.
    Loaded {
        /// Structural fingerprint; the matrix's name in later requests.
        handle: u64,
        /// Row count as parsed.
        rows: u64,
        /// Column count as parsed.
        cols: u64,
        /// Non-zero count as parsed.
        nnz: u64,
        /// Whether this upload inserted the matrix (`false`: it was
        /// already resident and the upload was a no-op).
        fresh: bool,
        /// Current version of the resident lineage the handle names: 0
        /// for a fresh (or never-updated) matrix, bumped by every
        /// `Update`. Lets a frontend detect that a handle now names
        /// content that has diverged from the triplets it just sent.
        version: u64,
    },
    /// The result vector of a `Spmv`.
    Vector {
        /// `y = A·x`.
        y: Vec<f32>,
        /// Wall-clock execution time on the server (queue wait excluded).
        service_micros: u64,
        /// Modeled accelerator latency (0 for the CPU backend).
        simulated_nanos: u64,
    },
    /// The outcome of a `Solve`.
    Solved {
        /// Final iterate.
        solution: Vec<f32>,
        /// Iterations performed.
        iterations: u64,
        /// Final relative residual.
        residual: f64,
        /// Whether the tolerance was reached.
        converged: bool,
        /// Wall-clock execution time on the server (queue wait excluded).
        service_micros: u64,
        /// Accumulated modeled SpMV latency (0 for the CPU backend).
        simulated_nanos: u64,
    },
    /// A verbatim `CHPL` plan artifact.
    PlanArtifact {
        /// The artifact bytes ([`chason_core::export::read_plan`] decodes
        /// them).
        bytes: Vec<u8>,
    },
    /// The server's counters.
    Stats(StatsSnapshot),
    /// The metrics registry rendered as Prometheus-style text exposition.
    /// Layout: `len u32, len × UTF-8 bytes`.
    MetricsText {
        /// The exposition text ([`chason_telemetry::metrics::Registry::render_prometheus`]).
        text: String,
    },
    /// Acknowledges `Shutdown` / `Sleep`.
    Done,
    /// The request was shed: the worker queue is full. The connection
    /// survives; retry after the hinted delay.
    Busy {
        /// Suggested client back-off.
        retry_after_ms: u32,
    },
    /// The request failed.
    Error {
        /// Typed failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Acknowledges an `Update`: the matrix advanced to `version`. Layout:
    /// `version u64, nnz u64, plans_spliced u32, windows_replanned u64,
    /// windows_total u64`.
    Updated {
        /// The matrix's new version (1 for the first update).
        version: u64,
        /// Non-zero count after the delta.
        nnz: u64,
        /// Cached plans that were incrementally respliced (rather than
        /// invalidated) by this update.
        plans_spliced: u32,
        /// Column windows re-scheduled across those splices.
        windows_replanned: u64,
        /// Total column windows per plan (splice denominator).
        windows_total: u64,
    },
}

/// A point-in-time copy of every server counter, as carried by
/// [`Reply::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Milliseconds since the server started.
    pub uptime_millis: u64,
    /// `LoadMatrix` requests accepted into the queue.
    pub requests_load: u64,
    /// `Spmv` requests accepted into the queue.
    pub requests_spmv: u64,
    /// `Solve` requests accepted into the queue.
    pub requests_solve: u64,
    /// `Plan` requests accepted into the queue.
    pub requests_plan: u64,
    /// `Stats` requests served (inline).
    pub requests_stats: u64,
    /// `Sleep` requests accepted into the queue.
    pub requests_sleep: u64,
    /// Requests rejected with `Busy` because the queue was full.
    pub shed: u64,
    /// Reserved, always 0. The slot keeps the reply layout stable; no
    /// server batches requests.
    pub batched: u64,
    /// Highest queue depth observed.
    pub queue_depth_hwm: u64,
    /// Plan lookups served from a resident matrix's plan slot.
    pub plan_cache_hits: u64,
    /// Plan lookups that found the slot empty and had to schedule.
    pub plan_cache_misses: u64,
    /// Plans dropped because their matrix was evicted.
    pub plan_cache_evictions: u64,
    /// Plans currently held by resident matrices.
    pub plan_cache_len: u64,
    /// Most plans the resident matrices can hold: one per simulated
    /// engine per matrix slot.
    pub plan_cache_capacity: u64,
    /// Matrices currently resident.
    pub matrices_resident: u64,
    /// Matrices displaced by inserts into a full cache.
    pub matrix_evictions: u64,
    /// Median execution time (queue wait excluded), in microseconds.
    pub service_p50_micros: u64,
    /// 99th-percentile execution time.
    pub service_p99_micros: u64,
    /// Worst execution time.
    pub service_max_micros: u64,
    /// Execution-time samples recorded since start.
    pub service_samples: u64,
    /// Median time a request waited in the queue before a worker picked
    /// it up, in microseconds.
    pub queue_p50_micros: u64,
    /// 99th-percentile queue wait.
    pub queue_p99_micros: u64,
    /// Worst queue wait.
    pub queue_max_micros: u64,
    /// `Update` requests accepted into the queue.
    pub requests_update: u64,
    /// Cached plans incrementally respliced (rather than rebuilt) after
    /// matrix updates.
    pub plans_spliced: u64,
    /// Column windows re-scheduled across all plan splices.
    pub replan_windows: u64,
}

impl StatsSnapshot {
    /// Fraction of plan lookups served from cache.
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }

    /// Total requests accepted for execution (shed and inline stats
    /// excluded).
    pub fn requests_executed(&self) -> u64 {
        self.requests_load
            + self.requests_spmv
            + self.requests_solve
            + self.requests_plan
            + self.requests_sleep
            + self.requests_update
    }

    const FIELDS: usize = 27;

    fn to_words(self) -> [u64; Self::FIELDS] {
        [
            self.uptime_millis,
            self.requests_load,
            self.requests_spmv,
            self.requests_solve,
            self.requests_plan,
            self.requests_stats,
            self.requests_sleep,
            self.shed,
            self.batched,
            self.queue_depth_hwm,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.plan_cache_evictions,
            self.plan_cache_len,
            self.plan_cache_capacity,
            self.matrices_resident,
            self.matrix_evictions,
            self.service_p50_micros,
            self.service_p99_micros,
            self.service_max_micros,
            self.service_samples,
            self.queue_p50_micros,
            self.queue_p99_micros,
            self.queue_max_micros,
            self.requests_update,
            self.plans_spliced,
            self.replan_windows,
        ]
    }

    fn from_words(w: [u64; Self::FIELDS]) -> StatsSnapshot {
        StatsSnapshot {
            uptime_millis: w[0],
            requests_load: w[1],
            requests_spmv: w[2],
            requests_solve: w[3],
            requests_plan: w[4],
            requests_stats: w[5],
            requests_sleep: w[6],
            shed: w[7],
            batched: w[8],
            queue_depth_hwm: w[9],
            plan_cache_hits: w[10],
            plan_cache_misses: w[11],
            plan_cache_evictions: w[12],
            plan_cache_len: w[13],
            plan_cache_capacity: w[14],
            matrices_resident: w[15],
            matrix_evictions: w[16],
            service_p50_micros: w[17],
            service_p99_micros: w[18],
            service_max_micros: w[19],
            service_samples: w[20],
            queue_p50_micros: w[21],
            queue_p99_micros: w[22],
            queue_max_micros: w[23],
            requests_update: w[24],
            plans_spliced: w[25],
            replan_windows: w[26],
        }
    }

    /// Renders the snapshot as the aligned table `chason client stats`
    /// prints.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(&format!("{k:<22}: {v}\n"));
        };
        line(
            "uptime",
            format!("{:.1} s", self.uptime_millis as f64 / 1e3),
        );
        line(
            "requests executed",
            format!(
                "{} (load {}, spmv {}, solve {}, plan {}, sleep {}, update {})",
                self.requests_executed(),
                self.requests_load,
                self.requests_spmv,
                self.requests_solve,
                self.requests_plan,
                self.requests_sleep,
                self.requests_update
            ),
        );
        line("stats served inline", self.requests_stats.to_string());
        line("shed (queue full)", self.shed.to_string());
        line("queue depth hwm", self.queue_depth_hwm.to_string());
        line(
            "plan cache",
            format!(
                "{} hits / {} misses ({:.1}% hit rate), {} evictions, {}/{} resident",
                self.plan_cache_hits,
                self.plan_cache_misses,
                self.plan_hit_rate() * 100.0,
                self.plan_cache_evictions,
                self.plan_cache_len,
                self.plan_cache_capacity
            ),
        );
        line(
            "matrices resident",
            format!(
                "{} ({} evictions)",
                self.matrices_resident, self.matrix_evictions
            ),
        );
        line(
            "plan splices",
            format!(
                "{} ({} windows replanned)",
                self.plans_spliced, self.replan_windows
            ),
        );
        line(
            "service time",
            format!(
                "p50 {} us, p99 {} us, max {} us over {} samples",
                self.service_p50_micros,
                self.service_p99_micros,
                self.service_max_micros,
                self.service_samples
            ),
        );
        line(
            "queue wait",
            format!(
                "p50 {} us, p99 {} us, max {} us",
                self.queue_p50_micros, self.queue_p99_micros, self.queue_max_micros
            ),
        );
        out
    }
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

const OP_LOAD: u8 = 0x01;
const OP_SPMV: u8 = 0x02;
const OP_SOLVE: u8 = 0x03;
const OP_PLAN: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const OP_SLEEP: u8 = 0x07;
const OP_METRICS: u8 = 0x08;
const OP_UPDATE: u8 = 0x09;

const RP_LOADED: u8 = 0x81;
const RP_VECTOR: u8 = 0x82;
const RP_SOLVED: u8 = 0x83;
const RP_PLAN: u8 = 0x84;
const RP_STATS: u8 = 0x85;
const RP_DONE: u8 = 0x86;
const RP_BUSY: u8 = 0x87;
const RP_ERROR: u8 = 0x88;
const RP_METRICS: u8 = 0x89;
const RP_UPDATED: u8 = 0x8A;

/// A fixed-width element of a CHSP bulk array: `LoadMatrix` and `Update`
/// triplets, `Update` deletes, and the `f32` vectors of `Spmv`, `Solve`,
/// `Vector` and `Solved`. Every array is a `u64` count followed by that
/// many records, so one encoder and one decoder serve them all.
trait Record: Sized {
    /// Bytes of one record on the wire.
    const WIDTH: usize;
    /// Writes the record's little-endian bytes into exactly
    /// [`Record::WIDTH`] bytes.
    fn write(self, out: &mut [u8]);
    /// Decodes one record from exactly [`Record::WIDTH`] bytes.
    fn read(bytes: &[u8]) -> Self;
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes([
        bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
    ])
}

impl Record for f32 {
    const WIDTH: usize = 4;

    fn write(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_bits().to_le_bytes());
    }

    fn read(bytes: &[u8]) -> Self {
        f32::from_bits(le_u32(bytes))
    }
}

/// `(row u64, col u64, value f32)`.
impl Record for (u64, u64, f32) {
    const WIDTH: usize = 20;

    fn write(self, out: &mut [u8]) {
        let (row, col, value) = self;
        out[..8].copy_from_slice(&row.to_le_bytes());
        out[8..16].copy_from_slice(&col.to_le_bytes());
        out[16..20].copy_from_slice(&value.to_bits().to_le_bytes());
    }

    fn read(bytes: &[u8]) -> Self {
        (
            le_u64(&bytes[..8]),
            le_u64(&bytes[8..16]),
            f32::from_bits(le_u32(&bytes[16..20])),
        )
    }
}

/// `(row u64, col u64)`.
impl Record for (u64, u64) {
    const WIDTH: usize = 16;

    fn write(self, out: &mut [u8]) {
        let (row, col) = self;
        out[..8].copy_from_slice(&row.to_le_bytes());
        out[8..16].copy_from_slice(&col.to_le_bytes());
    }

    fn read(bytes: &[u8]) -> Self {
        (le_u64(&bytes[..8]), le_u64(&bytes[8..16]))
    }
}

/// Bytes of a `(row, col, value)` triplet on the wire.
const TRIPLET_BYTES: usize = <(u64, u64, f32) as Record>::WIDTH;

/// Bytes of a `(row, col)` coordinate on the wire.
const COORD_BYTES: usize = <(u64, u64) as Record>::WIDTH;

/// Bytes of `count` records of `width` bytes each; `None` when a hostile
/// count overflows `usize`.
fn bulk_len(count: u64, width: usize) -> Option<usize> {
    usize::try_from(count).ok()?.checked_mul(width)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Malformed(format!(
                "payload underrun: wanted {n} more bytes, have {}",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(le_u32(self.take(4)?))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(le_u64(self.take(8)?))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Fails unless exactly `expected` payload bytes remain (`None`: the
    /// declared counts overflow). Every bulk array is checked this way
    /// before anything is allocated for it.
    fn expect_remaining(
        &self,
        expected: Option<usize>,
        declared: impl FnOnce() -> String,
    ) -> Result<(), ProtoError> {
        if expected == Some(self.remaining()) {
            return Ok(());
        }
        Err(ProtoError::Malformed(format!(
            "{} but {} payload bytes remain",
            declared(),
            self.remaining()
        )))
    }

    /// Decodes `count` records from the next `count × WIDTH` bytes in one
    /// pass into a vector of exactly that capacity. The slice is taken
    /// before the vector is allocated, so the allocation never exceeds
    /// the bytes received.
    fn records<R: Record>(&mut self, count: u64) -> Result<Vec<R>, ProtoError> {
        let len = bulk_len(count, R::WIDTH).ok_or_else(|| {
            ProtoError::Malformed(format!("{count} records overflow the address space"))
        })?;
        Ok(self
            .take(len)?
            .chunks_exact(R::WIDTH)
            .map(R::read)
            .collect())
    }

    fn f32_vec(&mut self, what: &str) -> Result<Vec<f32>, ProtoError> {
        let n = self.u64()?;
        self.expect_remaining(bulk_len(n, f32::WIDTH), || {
            format!("{what}: declared {n} f32 values")
        })?;
        self.records(n)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::Malformed(format!(
                "{} trailing bytes after message",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `records` as whole records: the buffer grows once by their
/// total size, then each record is written into its own slot.
fn put_records<R: Record>(buf: &mut Vec<u8>, records: impl ExactSizeIterator<Item = R>) {
    let start = buf.len();
    buf.resize(start + R::WIDTH * records.len(), 0);
    for (slot, record) in buf[start..].chunks_exact_mut(R::WIDTH).zip(records) {
        record.write(slot);
    }
}

fn put_f32_vec(buf: &mut Vec<u8>, v: &[f32]) {
    put_u64(buf, v.len() as u64);
    put_records(buf, v.iter().copied());
}

/// Bytes of a length-prefixed `f32` vector on the wire.
fn f32_vec_len(v: &[f32]) -> usize {
    8 + f32::WIDTH * v.len()
}

/// Bytes of a `LoadMatrix` payload carrying `nnz` triplets.
fn load_len(nnz: usize) -> usize {
    1 + 24 + TRIPLET_BYTES * nnz
}

/// Bytes of an `Spmv` payload carrying `x`.
fn spmv_len(x: &[f32]) -> usize {
    1 + 8 + 1 + f32_vec_len(x)
}

/// Writes a whole `Spmv` payload: the one writer behind both
/// [`encode_request`] and [`encode_spmv`].
fn put_spmv(buf: &mut Vec<u8>, handle: u64, engine: Engine, x: &[f32]) {
    buf.push(OP_SPMV);
    put_u64(buf, handle);
    buf.push(engine.code());
    put_f32_vec(buf, x);
}

/// Writes a whole `LoadMatrix` payload: the one triplet writer behind
/// both [`encode_request`] and [`encode_load_run`].
fn put_load(
    buf: &mut Vec<u8>,
    rows: u64,
    cols: u64,
    triplets: impl ExactSizeIterator<Item = (u64, u64, f32)>,
) {
    buf.push(OP_LOAD);
    put_u64(buf, rows);
    put_u64(buf, cols);
    put_u64(buf, triplets.len() as u64);
    put_records(buf, triplets);
}

/// The exact payload length [`encode_request`] writes for `req`.
fn request_len(req: &Request) -> usize {
    match req {
        Request::LoadMatrix { triplets, .. } => load_len(triplets.len()),
        Request::Spmv { x, .. } => spmv_len(x),
        Request::Solve { b, .. } => 1 + 8 + 1 + 1 + 4 + 8 + f32_vec_len(b),
        Request::Plan { .. } => 1 + 8 + 1,
        Request::Stats | Request::Metrics | Request::Shutdown => 1,
        Request::Sleep { .. } => 1 + 4,
        Request::Update {
            inserts,
            revalues,
            deletes,
            ..
        } => {
            1 + 8
                + 24
                + TRIPLET_BYTES * (inserts.len() + revalues.len())
                + COORD_BYTES * deletes.len()
        }
    }
}

/// Encodes a request payload (framing is [`write_frame`]'s job) into a
/// buffer reserved at its exact length.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let len = request_len(req);
    let mut buf = Vec::with_capacity(len);
    match req {
        Request::LoadMatrix {
            rows,
            cols,
            triplets,
        } => put_load(&mut buf, *rows, *cols, triplets.iter().copied()),
        Request::Spmv { handle, engine, x } => put_spmv(&mut buf, *handle, *engine, x),
        Request::Solve {
            handle,
            engine,
            solver,
            max_iterations,
            tolerance,
            b,
        } => {
            buf.push(OP_SOLVE);
            put_u64(&mut buf, *handle);
            buf.push(engine.code());
            buf.push(solver.code());
            put_u32(&mut buf, *max_iterations);
            put_u64(&mut buf, tolerance.to_bits());
            put_f32_vec(&mut buf, b);
        }
        Request::Plan { handle, engine } => {
            buf.push(OP_PLAN);
            put_u64(&mut buf, *handle);
            buf.push(engine.code());
        }
        Request::Stats => buf.push(OP_STATS),
        Request::Metrics => buf.push(OP_METRICS),
        Request::Shutdown => buf.push(OP_SHUTDOWN),
        Request::Sleep { millis } => {
            buf.push(OP_SLEEP);
            put_u32(&mut buf, *millis);
        }
        Request::Update {
            handle,
            inserts,
            revalues,
            deletes,
        } => {
            buf.push(OP_UPDATE);
            put_u64(&mut buf, *handle);
            put_u64(&mut buf, inserts.len() as u64);
            put_u64(&mut buf, revalues.len() as u64);
            put_u64(&mut buf, deletes.len() as u64);
            put_records(&mut buf, inserts.iter().copied());
            put_records(&mut buf, revalues.iter().copied());
            put_records(&mut buf, deletes.iter().copied());
        }
    }
    debug_assert_eq!(buf.len(), len, "request length mispredicted");
    buf
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`ProtoError::Malformed`] when the bytes do not decode as exactly one
/// request.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let req = match op {
        OP_LOAD => {
            let rows = c.u64()?;
            let cols = c.u64()?;
            let nnz = c.u64()?;
            c.expect_remaining(bulk_len(nnz, TRIPLET_BYTES), || {
                format!("LoadMatrix: declared {nnz} triplets")
            })?;
            Request::LoadMatrix {
                rows,
                cols,
                triplets: c.records(nnz)?,
            }
        }
        OP_SPMV => {
            let handle = c.u64()?;
            let engine = Engine::from_code(c.u8()?)
                .ok_or_else(|| ProtoError::Malformed("bad engine code".to_string()))?;
            let x = c.f32_vec("Spmv")?;
            Request::Spmv { handle, engine, x }
        }
        OP_SOLVE => {
            let handle = c.u64()?;
            let engine = Engine::from_code(c.u8()?)
                .ok_or_else(|| ProtoError::Malformed("bad engine code".to_string()))?;
            let solver = SolverKind::from_code(c.u8()?)
                .ok_or_else(|| ProtoError::Malformed("bad solver code".to_string()))?;
            let max_iterations = c.u32()?;
            let tolerance = c.f64()?;
            let b = c.f32_vec("Solve")?;
            Request::Solve {
                handle,
                engine,
                solver,
                max_iterations,
                tolerance,
                b,
            }
        }
        OP_PLAN => {
            let handle = c.u64()?;
            let engine = Engine::from_code(c.u8()?)
                .ok_or_else(|| ProtoError::Malformed("bad engine code".to_string()))?;
            Request::Plan { handle, engine }
        }
        OP_STATS => Request::Stats,
        OP_METRICS => Request::Metrics,
        OP_SHUTDOWN => Request::Shutdown,
        OP_SLEEP => Request::Sleep { millis: c.u32()? },
        OP_UPDATE => {
            let handle = c.u64()?;
            let n_ins = c.u64()?;
            let n_rev = c.u64()?;
            let n_del = c.u64()?;
            let expect = bulk_len(n_ins, TRIPLET_BYTES)
                .zip(bulk_len(n_rev, TRIPLET_BYTES))
                .zip(bulk_len(n_del, COORD_BYTES))
                .and_then(|((ins, rev), del)| ins.checked_add(rev)?.checked_add(del));
            c.expect_remaining(expect, || {
                format!("Update: declared {n_ins}+{n_rev} triplets and {n_del} coordinates")
            })?;
            Request::Update {
                handle,
                inserts: c.records(n_ins)?,
                revalues: c.records(n_rev)?,
                deletes: c.records(n_del)?,
            }
        }
        other => {
            return Err(ProtoError::Malformed(format!(
                "unknown request opcode {other:#04x}"
            )))
        }
    };
    c.finish()?;
    Ok(req)
}

/// Encodes a reply payload (framing is [`write_frame`]'s job) into a
/// buffer reserved at its exact length.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let len = reply_len(reply);
    let mut buf = Vec::with_capacity(len);
    match reply {
        Reply::Loaded {
            handle,
            rows,
            cols,
            nnz,
            fresh,
            version,
        } => {
            buf.push(RP_LOADED);
            put_u64(&mut buf, *handle);
            put_u64(&mut buf, *rows);
            put_u64(&mut buf, *cols);
            put_u64(&mut buf, *nnz);
            buf.push(u8::from(*fresh));
            put_u64(&mut buf, *version);
        }
        Reply::Vector {
            y,
            service_micros,
            simulated_nanos,
        } => {
            buf.push(RP_VECTOR);
            put_u64(&mut buf, *service_micros);
            put_u64(&mut buf, *simulated_nanos);
            put_f32_vec(&mut buf, y);
        }
        Reply::Solved {
            solution,
            iterations,
            residual,
            converged,
            service_micros,
            simulated_nanos,
        } => {
            buf.push(RP_SOLVED);
            put_u64(&mut buf, *iterations);
            put_u64(&mut buf, residual.to_bits());
            buf.push(u8::from(*converged));
            put_u64(&mut buf, *service_micros);
            put_u64(&mut buf, *simulated_nanos);
            put_f32_vec(&mut buf, solution);
        }
        Reply::PlanArtifact { bytes } => {
            buf.push(RP_PLAN);
            put_u64(&mut buf, bytes.len() as u64);
            buf.extend_from_slice(bytes);
        }
        Reply::Stats(snapshot) => {
            buf.push(RP_STATS);
            for word in snapshot.to_words() {
                put_u64(&mut buf, word);
            }
        }
        Reply::MetricsText { text } => {
            buf.push(RP_METRICS);
            let bytes = text.as_bytes();
            put_u32(&mut buf, bytes.len() as u32);
            buf.extend_from_slice(bytes);
        }
        Reply::Done => buf.push(RP_DONE),
        Reply::Busy { retry_after_ms } => {
            buf.push(RP_BUSY);
            put_u32(&mut buf, *retry_after_ms);
        }
        Reply::Error { code, message } => {
            buf.push(RP_ERROR);
            buf.push(code.code());
            let bytes = message.as_bytes();
            put_u32(&mut buf, bytes.len() as u32);
            buf.extend_from_slice(bytes);
        }
        Reply::Updated {
            version,
            nnz,
            plans_spliced,
            windows_replanned,
            windows_total,
        } => {
            buf.push(RP_UPDATED);
            put_u64(&mut buf, *version);
            put_u64(&mut buf, *nnz);
            put_u32(&mut buf, *plans_spliced);
            put_u64(&mut buf, *windows_replanned);
            put_u64(&mut buf, *windows_total);
        }
    }
    debug_assert_eq!(buf.len(), len, "reply length mispredicted");
    buf
}

/// The longest `f32` vector that fits in a payload of `max_frame_len`
/// bytes in every message carrying one (`Spmv`, `Solve`, `Vector` and
/// `Solved`). A matrix dimension past it could never receive its `x` or
/// return its `y`.
pub fn max_vector_len(max_frame_len: usize) -> usize {
    // `Solved` has the longest fixed part of the four.
    let header = reply_len(&Reply::Solved {
        solution: Vec::new(),
        iterations: 0,
        residual: 0.0,
        converged: false,
        service_micros: 0,
        simulated_nanos: 0,
    });
    max_frame_len.saturating_sub(header) / f32::WIDTH
}

/// The exact payload length [`encode_reply`] writes for `reply`.
fn reply_len(reply: &Reply) -> usize {
    match reply {
        Reply::Loaded { .. } => 1 + 4 * 8 + 1 + 8,
        Reply::Vector { y, .. } => 1 + 8 + 8 + f32_vec_len(y),
        Reply::Solved { solution, .. } => 1 + 8 + 8 + 1 + 8 + 8 + f32_vec_len(solution),
        Reply::PlanArtifact { bytes } => 1 + 8 + bytes.len(),
        Reply::Stats(_) => 1 + 8 * StatsSnapshot::FIELDS,
        Reply::MetricsText { text } => 1 + 4 + text.len(),
        Reply::Done => 1,
        Reply::Busy { .. } => 1 + 4,
        Reply::Error { message, .. } => 1 + 1 + 4 + message.len(),
        Reply::Updated { .. } => 1 + 8 + 8 + 4 + 8 + 8,
    }
}

/// Decodes a reply payload.
///
/// # Errors
///
/// [`ProtoError::Malformed`] when the bytes do not decode as exactly one
/// reply.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtoError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let reply = match op {
        RP_LOADED => {
            let handle = c.u64()?;
            let rows = c.u64()?;
            let cols = c.u64()?;
            let nnz = c.u64()?;
            let fresh = match c.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(ProtoError::Malformed(format!("bad fresh flag {other}")));
                }
            };
            let version = c.u64()?;
            Reply::Loaded {
                handle,
                rows,
                cols,
                nnz,
                fresh,
                version,
            }
        }
        RP_VECTOR => {
            let service_micros = c.u64()?;
            let simulated_nanos = c.u64()?;
            let y = c.f32_vec("Vector")?;
            Reply::Vector {
                y,
                service_micros,
                simulated_nanos,
            }
        }
        RP_SOLVED => {
            let iterations = c.u64()?;
            let residual = c.f64()?;
            let converged = match c.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(ProtoError::Malformed(format!("bad converged flag {other}")));
                }
            };
            let service_micros = c.u64()?;
            let simulated_nanos = c.u64()?;
            let solution = c.f32_vec("Solved")?;
            Reply::Solved {
                solution,
                iterations,
                residual,
                converged,
                service_micros,
                simulated_nanos,
            }
        }
        RP_PLAN => {
            let len = c.u64()?;
            c.expect_remaining(usize::try_from(len).ok(), || {
                format!("PlanArtifact: declared {len} bytes")
            })?;
            let bytes = c.take(c.remaining())?.to_vec();
            Reply::PlanArtifact { bytes }
        }
        RP_STATS => {
            let mut words = [0u64; StatsSnapshot::FIELDS];
            for word in &mut words {
                *word = c.u64()?;
            }
            Reply::Stats(StatsSnapshot::from_words(words))
        }
        RP_METRICS => {
            let len = c.u32()? as usize;
            let bytes = c.take(len)?.to_vec();
            let text = String::from_utf8(bytes)
                .map_err(|_| ProtoError::Malformed("metrics text is not UTF-8".to_string()))?;
            Reply::MetricsText { text }
        }
        RP_DONE => Reply::Done,
        RP_BUSY => Reply::Busy {
            retry_after_ms: c.u32()?,
        },
        RP_UPDATED => {
            let version = c.u64()?;
            let nnz = c.u64()?;
            let plans_spliced = c.u32()?;
            let windows_replanned = c.u64()?;
            let windows_total = c.u64()?;
            Reply::Updated {
                version,
                nnz,
                plans_spliced,
                windows_replanned,
                windows_total,
            }
        }
        RP_ERROR => {
            let code = ErrorCode::from_code(c.u8()?)
                .ok_or_else(|| ProtoError::Malformed("bad error code".to_string()))?;
            let len = c.u32()? as usize;
            let bytes = c.take(len)?.to_vec();
            let message = String::from_utf8(bytes)
                .map_err(|_| ProtoError::Malformed("error message is not UTF-8".to_string()))?;
            Reply::Error { code, message }
        }
        other => {
            return Err(ProtoError::Malformed(format!(
                "unknown reply opcode {other:#04x}"
            )))
        }
    };
    c.finish()?;
    Ok(reply)
}

/// Encodes the `LoadMatrix` payload of `matrix` straight from its
/// entries, with no intermediate [`Request`]: the bytes are exactly
/// [`encode_request`]'s for the same rows, columns and triplets.
pub fn encode_load_matrix(matrix: &CooMatrix) -> Vec<u8> {
    encode_load_run(matrix.rows(), matrix.cols(), 0, matrix.triplets())
}

/// Encodes the `LoadMatrix` payload of a `rows × cols` matrix whose
/// entries are `run` with `row_offset` subtracted from every row: a row
/// block of a larger matrix, sent without building the block. The bytes
/// are exactly [`encode_request`]'s for the rebased triplets.
///
/// `run` must be sorted and hold rows `row_offset..row_offset + rows`
/// only, as [`chason_sparse::shard::ShardSpec::entries`] returns them.
pub fn encode_load_run(rows: usize, cols: usize, row_offset: usize, run: &[Triplet]) -> Vec<u8> {
    debug_assert!(
        run.iter()
            .all(|&(r, _, _)| (row_offset..row_offset + rows).contains(&r)),
        "run holds a row outside its block"
    );
    let mut buf = Vec::with_capacity(load_len(run.len()));
    put_load(
        &mut buf,
        rows as u64,
        cols as u64,
        run.iter()
            .map(|&(r, c, v)| ((r - row_offset) as u64, c as u64, v)),
    );
    buf
}

/// Encodes an `Spmv` payload from a borrowed `x`, with no intermediate
/// [`Request`] (which would own a copy of `x`): the bytes are exactly
/// [`encode_request`]'s for the same fields.
pub fn encode_spmv(handle: u64, engine: Engine, x: &[f32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(spmv_len(x));
    put_spmv(&mut buf, handle, engine, x);
    buf
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame: `u32` little-endian payload length, then the payload.
///
/// The header is a `u32`, so a payload longer than `u32::MAX` cannot be
/// framed at all — casting would silently truncate the declared length and
/// desynchronize the stream. Such payloads are rejected before any byte is
/// written.
///
/// # Errors
///
/// [`ProtoError::FrameTooLarge`] when the payload cannot be represented in
/// the `u32` length header; [`ProtoError::Io`] for I/O failures (including
/// write timeouts).
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), ProtoError> {
    write_frame_capped(writer, payload, u32::MAX as usize)
}

/// [`write_frame`] with an explicit payload cap, mirroring the cap
/// [`read_frame_blocking`] enforces on the read side. Nothing is written
/// when the payload is over the cap, so the stream stays synchronized.
///
/// # Errors
///
/// [`ProtoError::FrameTooLarge`] when `payload.len() > max_len`;
/// [`ProtoError::Io`] for I/O failures.
pub fn write_frame_capped<W: Write>(
    writer: &mut W,
    payload: &[u8],
    max_len: usize,
) -> Result<(), ProtoError> {
    let cap = max_len.min(u32::MAX as usize);
    if payload.len() > cap {
        return Err(ProtoError::FrameTooLarge {
            len: payload.len() as u64,
            cap: cap as u64,
        });
    }
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame, blocking until it is complete.
///
/// # Errors
///
/// [`ProtoError::FrameTooLarge`] when the declared length exceeds
/// `max_len`; [`ProtoError::Io`] for I/O failures (a clean EOF before the
/// first header byte surfaces as `UnexpectedEof`).
pub fn read_frame_blocking<R: Read>(reader: &mut R, max_len: usize) -> Result<Vec<u8>, ProtoError> {
    let mut header = [0u8; 4];
    reader.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > max_len {
        return Err(ProtoError::FrameTooLarge {
            len: len as u64,
            cap: max_len as u64,
        });
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// What one [`FrameReader::poll`] call produced.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Eof,
    /// The socket's read timeout elapsed; partial progress is retained
    /// and the next `poll` resumes where this one stopped.
    Timeout,
}

/// Incremental frame reader for sockets with a read timeout.
///
/// A timeout mid-frame must not lose the bytes already read — the server
/// polls in short ticks so it can notice shutdown — so this reader keeps
/// partial header/payload progress across calls. It is a
/// [`FrameAssembler`] fed from a blocking `Read`: each read asks for at
/// most the bytes that complete the current header or payload (payload
/// reads in chunks of at most 16 KiB), so `poll` never consumes a byte
/// past the frame it returns.
#[derive(Debug)]
pub struct FrameReader {
    assembler: FrameAssembler,
}

impl FrameReader {
    /// Creates a reader enforcing `max_len` on every frame.
    pub fn new(max_len: usize) -> Self {
        FrameReader {
            assembler: FrameAssembler::new(max_len),
        }
    }

    /// Whether a frame is partially read (EOF here is a mid-frame
    /// disconnect, not a clean close).
    pub fn mid_frame(&self) -> bool {
        self.assembler.mid_frame()
    }

    /// Advances the read state machine by at most one socket read
    /// timeout.
    ///
    /// # Errors
    ///
    /// [`ProtoError::FrameTooLarge`] for an over-cap declared length
    /// (unrecoverable: the stream cannot be resynchronized, and every
    /// later `poll` reports it again);
    /// [`ProtoError::Io`] for I/O failures other than timeouts, including
    /// mid-frame EOF.
    pub fn poll<R: Read>(&mut self, reader: &mut R) -> Result<FrameEvent, ProtoError> {
        let mut frames = Vec::new();
        // Feeding nothing is a no-op, unless an over-cap header poisoned
        // the assembler: then it reports that header again.
        self.assembler.feed(&[], &mut frames)?;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let want = self.assembler.wanted().min(READ_CHUNK);
            match reader.read(&mut chunk[..want]) {
                Ok(0) if self.assembler.mid_frame() => {
                    return Err(ProtoError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    )))
                }
                Ok(0) => return Ok(FrameEvent::Eof),
                Ok(n) => {
                    self.assembler.feed(&chunk[..n], &mut frames)?;
                    if let Some(frame) = frames.pop() {
                        return Ok(FrameEvent::Frame(frame));
                    }
                }
                Err(e) if is_timeout(&e) => return Ok(FrameEvent::Timeout),
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_vector_len_fits_every_vector_message() {
        let cap = 1000;
        let fits = |n: usize| {
            let v = vec![1.0f32; n];
            let (handle, engine) = (7, Engine::Chason);
            [
                request_len(&Request::Spmv {
                    handle,
                    engine,
                    x: v.clone(),
                }),
                request_len(&Request::Solve {
                    handle,
                    engine,
                    solver: SolverKind::Cg,
                    max_iterations: 1,
                    tolerance: 0.0,
                    b: v.clone(),
                }),
                reply_len(&Reply::Vector {
                    y: v.clone(),
                    service_micros: 0,
                    simulated_nanos: 0,
                }),
                reply_len(&Reply::Solved {
                    solution: v,
                    iterations: 0,
                    residual: 0.0,
                    converged: true,
                    service_micros: 0,
                    simulated_nanos: 0,
                }),
            ]
            .into_iter()
            .all(|len| len <= cap)
        };
        let n = max_vector_len(cap);
        assert!(fits(n) && !fits(n + 1), "{n}");
        assert_eq!(max_vector_len(0), 0);
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(buf.len(), 9);
        let payload = read_frame_blocking(&mut buf.as_slice(), 64).unwrap();
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn oversized_frame_is_rejected_by_both_readers() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        assert!(matches!(
            read_frame_blocking(&mut buf.as_slice(), 50).unwrap_err(),
            ProtoError::FrameTooLarge { len: 100, cap: 50 }
        ));
        let mut reader = FrameReader::new(50);
        assert!(matches!(
            reader.poll(&mut buf.as_slice()).unwrap_err(),
            ProtoError::FrameTooLarge { .. }
        ));
    }

    #[test]
    fn over_cap_payload_is_rejected_on_the_write_side() {
        // The cap is enforced before any byte reaches the writer, so an
        // oversized payload cannot desynchronize the stream.
        let mut buf = Vec::new();
        let err = write_frame_capped(&mut buf, &[0u8; 101], 100).unwrap_err();
        assert!(
            matches!(err, ProtoError::FrameTooLarge { len: 101, cap: 100 }),
            "{err}"
        );
        assert!(
            buf.is_empty(),
            "nothing may be written for a rejected frame"
        );
        // At the cap is fine.
        write_frame_capped(&mut buf, &[0u8; 100], 100).unwrap();
        assert_eq!(buf.len(), 104);
        // The uncapped entry point still enforces the u32 header limit;
        // requesting a larger cap clamps rather than overflows.
        let mut buf = Vec::new();
        write_frame_capped(&mut buf, b"ok", usize::MAX).unwrap();
        assert_eq!(read_frame_blocking(&mut buf.as_slice(), 16).unwrap(), b"ok");
    }

    #[test]
    fn incremental_reader_survives_byte_at_a_time_delivery() {
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut reader = FrameReader::new(16);
        let mut src = OneByte(&wire);
        match reader.poll(&mut src).unwrap() {
            FrameEvent::Frame(f) => assert_eq!(f, b"abc"),
            other => panic!("{other:?}"),
        }
        match reader.poll(&mut src).unwrap() {
            FrameEvent::Frame(f) => assert!(f.is_empty()),
            other => panic!("{other:?}"),
        }
        assert!(matches!(reader.poll(&mut src).unwrap(), FrameEvent::Eof));
    }

    #[test]
    fn poll_reads_no_further_than_the_frame_it_returns() {
        /// Serves a byte slice and records the size of every read.
        struct Counting<'a> {
            bytes: &'a [u8],
            consumed: usize,
            asks: Vec<usize>,
        }
        impl Read for Counting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.asks.push(buf.len());
                let n = buf.len().min(self.bytes.len() - self.consumed);
                buf[..n].copy_from_slice(&self.bytes[self.consumed..self.consumed + n]);
                self.consumed += n;
                Ok(n)
            }
        }
        let first = vec![7u8; 40_000];
        let mut wire = Vec::new();
        write_frame(&mut wire, &first).unwrap();
        write_frame(&mut wire, b"next").unwrap();
        let mut src = Counting {
            bytes: &wire,
            consumed: 0,
            asks: Vec::new(),
        };
        let mut reader = FrameReader::new(1 << 16);
        match reader.poll(&mut src).unwrap() {
            FrameEvent::Frame(f) => assert_eq!(f, first),
            other => panic!("{other:?}"),
        }
        assert_eq!(src.consumed, 4 + first.len());
        assert_eq!(src.asks[0], 4, "a header read asks for the header only");
        assert!(src.asks.iter().all(|&n| n <= 16 * 1024), "{:?}", src.asks);
        match reader.poll(&mut src).unwrap() {
            FrameEvent::Frame(f) => assert_eq!(f, b"next"),
            other => panic!("{other:?}"),
        }
        assert_eq!(src.consumed, wire.len());
    }

    #[test]
    fn over_cap_header_is_reported_on_every_later_poll() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0u8; 100]).unwrap();
        let mut src = wire.as_slice();
        let mut reader = FrameReader::new(50);
        for _ in 0..2 {
            let err = reader.poll(&mut src).unwrap_err();
            assert!(
                matches!(err, ProtoError::FrameTooLarge { len: 100, cap: 50 }),
                "{err}"
            );
        }
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(6);
        let mut reader = FrameReader::new(16);
        let err = reader.poll(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, ProtoError::Io(_)), "{err}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::Stats);
        payload.push(0);
        assert!(decode_request(&payload).is_err());
        let mut payload = encode_reply(&Reply::Done);
        payload.push(7);
        assert!(decode_reply(&payload).is_err());
    }

    #[test]
    fn declared_count_must_match_payload_length() {
        // A Spmv declaring 1M floats with a 4-byte body must be rejected
        // before any allocation proportional to the declared count.
        let mut payload = vec![OP_SPMV];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(1);
        payload.extend_from_slice(&1_000_000u64.to_le_bytes());
        payload.extend_from_slice(&[0u8; 4]);
        let err = decode_request(&payload).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");

        // Every bulk field, with a count one short, one over, far over,
        // and so large that its byte size overflows `usize` (the body
        // holds one record's bytes in each case).
        let overflow = |width: usize| ((usize::MAX / width) as u64).saturating_add(1);
        let cases: [(&str, Vec<u8>, usize, bool); 9] = [
            (
                "LoadMatrix",
                [&[OP_LOAD][..], &[0u8; 16]].concat(),
                20,
                true,
            ),
            ("Spmv", [&[OP_SPMV][..], &[0u8; 8], &[1]].concat(), 4, true),
            (
                "Solve",
                [&[OP_SOLVE][..], &[0u8; 8], &[1, 0], &[0u8; 12]].concat(),
                4,
                true,
            ),
            ("Vector", [&[RP_VECTOR][..], &[0u8; 16]].concat(), 4, false),
            (
                "Solved",
                [&[RP_SOLVED][..], &[0u8; 16], &[0], &[0u8; 16]].concat(),
                4,
                false,
            ),
            ("PlanArtifact", vec![RP_PLAN], 1, false),
            (
                "Update inserts",
                [&[OP_UPDATE][..], &[0u8; 8]].concat(),
                20,
                true,
            ),
            (
                "Update revalues",
                [&[OP_UPDATE][..], &[0u8; 16]].concat(),
                20,
                true,
            ),
            (
                "Update deletes",
                [&[OP_UPDATE][..], &[0u8; 24]].concat(),
                16,
                true,
            ),
        ];
        for (what, head, width, is_request) in cases {
            let update = what.starts_with("Update");
            for count in [0, 2, 1_000_000, overflow(width), u64::MAX] {
                let mut payload = head.clone();
                payload.extend_from_slice(&count.to_le_bytes());
                if update {
                    // The other Update counts follow the one under test
                    // and are zero.
                    payload.resize(1 + 8 + 24, 0);
                }
                payload.extend(std::iter::repeat_n(0xAB, width));
                let result = if is_request {
                    decode_request(&payload).map(|_| ())
                } else {
                    decode_reply(&payload).map(|_| ())
                };
                let err = result.expect_err(&format!("{what}: count {count} over {width} bytes"));
                assert!(
                    matches!(err, ProtoError::Malformed(_)),
                    "{what} count {count}: {err}"
                );
            }
            // The exact count decodes.
            let mut payload = head.clone();
            payload.extend_from_slice(&1u64.to_le_bytes());
            if update {
                payload.resize(1 + 8 + 24, 0);
            }
            payload.extend(std::iter::repeat_n(0xAB, width));
            let result = if is_request {
                decode_request(&payload).map(|_| ())
            } else {
                decode_reply(&payload).map(|_| ())
            };
            assert!(result.is_ok(), "{what}: {result:?}");
        }

        // Update counts that each fit but whose byte total overflows.
        let mut payload = vec![OP_UPDATE];
        payload.extend_from_slice(&0u64.to_le_bytes());
        for count in [overflow(40), overflow(40), 0] {
            payload.extend_from_slice(&count.to_le_bytes());
        }
        let err = decode_request(&payload).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        assert!(decode_request(&[0x42]).is_err());
        assert!(decode_reply(&[0x42]).is_err());
        assert!(decode_request(&[]).is_err());
    }
}
