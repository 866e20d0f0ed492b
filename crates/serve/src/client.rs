//! Blocking CHSP client used by `chason client`, the load generator, and
//! the integration tests.

use crate::proto::{
    decode_reply, encode_load_matrix, encode_request, read_frame_blocking, write_frame, Engine,
    ErrorCode, ProtoError, Reply, Request, SolverKind, StatsSnapshot, DEFAULT_MAX_FRAME,
};
use chason_sparse::CooMatrix;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-visible failure of one request.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(io::Error),
    /// The server's bytes did not decode as a CHSP reply.
    Proto(ProtoError),
    /// The server shed the request; retry after the hinted delay.
    Busy {
        /// Server's suggested back-off.
        retry_after_ms: u32,
    },
    /// Every attempt allowed by the client's [`RetryPolicy`] came back
    /// [`Reply::Busy`].
    RetriesExhausted {
        /// Attempts made (including the first send).
        attempts: u32,
        /// The last `Busy` reply's suggested back-off.
        retry_after_ms: u32,
    },
    /// The server answered with a typed error.
    Server {
        /// Failure class.
        code: ErrorCode,
        /// Server-rendered detail.
        message: String,
    },
    /// The server answered with a reply of the wrong type for the
    /// request.
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy; retry after {retry_after_ms} ms")
            }
            ClientError::RetriesExhausted {
                attempts,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "server still busy after {attempts} attempts; last hint: retry after {retry_after_ms} ms"
                )
            }
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            other => ClientError::Proto(other),
        }
    }
}

/// Outcome of [`Client::solve`].
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Final iterate.
    pub solution: Vec<f32>,
    /// Iterations performed.
    pub iterations: u64,
    /// Final relative residual.
    pub residual: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Server-side service time in microseconds.
    pub service_micros: u64,
    /// Modeled accelerator time in nanoseconds.
    pub simulated_nanos: u64,
}

/// Outcome of [`Client::update`].
#[derive(Debug, Clone, Copy)]
pub struct UpdateOutcome {
    /// The matrix's new version (1 for the first update).
    pub version: u64,
    /// Non-zero count after the delta.
    pub nnz: u64,
    /// Cached plans incrementally respliced by this update.
    pub plans_spliced: u32,
    /// Column windows re-scheduled across those splices.
    pub windows_replanned: u64,
    /// Total column windows per plan (splice denominator).
    pub windows_total: u64,
}

/// Bounded retry with exponential back-off and deterministic jitter for
/// [`Reply::Busy`] replies.
///
/// Each attempt `n` (0-based) sleeps for
/// `max(server_hint, jittered(base_delay_ms << n))` capped at
/// `max_delay_ms`, where `jittered` picks a value in the upper half of the
/// exponential window from a SplitMix64 stream seeded by `seed` — so two
/// clients created with different seeds desynchronise instead of
/// stampeding the server in lockstep, and a test re-running with the same
/// seed sees identical sleeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Back-off for the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Upper bound on any single sleep, in milliseconds.
    pub max_delay_ms: u64,
    /// Jitter stream seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 10,
            max_delay_ms: 500,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// SplitMix64: tiny, seedable, and good enough to jitter a backoff or
/// shuffle a workload.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based), honoring the
    /// server's hint. Pure: the jitter comes from `state`, which the
    /// caller advances.
    pub fn backoff_ms(&self, attempt: u32, hint_ms: u32, state: &mut u64) -> u64 {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(20))
            .clamp(1, self.max_delay_ms);
        // Jitter into [exp/2, exp] so the exponential shape survives but
        // concurrent clients spread out.
        let low = exp / 2;
        let jittered = low + splitmix64(state) % (exp - low + 1);
        jittered.max(u64::from(hint_ms)).min(self.max_delay_ms)
    }
}

/// A blocking CHSP connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
    retry: Option<RetryPolicy>,
    retry_state: u64,
}

impl Client {
    /// Connects and configures socket timeouts.
    ///
    /// Retries are off by default: a [`Reply::Busy`] surfaces as
    /// [`ClientError::Busy`]. Opt in with [`Client::set_retry`] or
    /// [`Client::with_retry`].
    ///
    /// # Errors
    ///
    /// I/O failures connecting.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
            retry: None,
            retry_state: 0,
        })
    }

    /// Builder-style [`Client::set_retry`].
    #[must_use]
    pub fn with_retry(mut self, policy: Option<RetryPolicy>) -> Client {
        self.set_retry(policy);
        self
    }

    /// Enables (or disables, with `None`) automatic retry of `Busy`
    /// replies for every typed helper. With a policy installed, a request
    /// that is still shed after `max_attempts` sends fails with
    /// [`ClientError::RetriesExhausted`].
    pub fn set_retry(&mut self, policy: Option<RetryPolicy>) {
        self.retry_state = policy.map_or(0, |p| p.seed);
        self.retry = policy;
    }

    /// Sends one request and reads its raw reply ([`Reply::Busy`] and
    /// [`Reply::Error`] included — the typed helpers map them to
    /// [`ClientError`]).
    ///
    /// # Errors
    ///
    /// Connection and decode failures.
    pub fn request(&mut self, request: &Request) -> Result<Reply, ClientError> {
        self.round_trip(&encode_request(request))
    }

    /// [`Client::request`] for a payload that is already encoded, so a
    /// caller that resends it (after `Busy`, or to another connection)
    /// encodes it once.
    ///
    /// # Errors
    ///
    /// Connection and decode failures.
    pub fn round_trip(&mut self, payload: &[u8]) -> Result<Reply, ClientError> {
        write_frame(&mut self.stream, payload)?;
        let reply = read_frame_blocking(&mut self.stream, self.max_frame)?;
        Ok(decode_reply(&reply)?)
    }

    fn expect(&mut self, request: &Request) -> Result<Reply, ClientError> {
        self.expect_payload(&encode_request(request))
    }

    /// Sends `payload` until it is not shed, under the retry policy; every
    /// retry resends the same bytes.
    fn expect_payload(&mut self, payload: &[u8]) -> Result<Reply, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.round_trip(payload)? {
                Reply::Busy { retry_after_ms } => {
                    let Some(policy) = self.retry else {
                        return Err(ClientError::Busy { retry_after_ms });
                    };
                    attempt += 1;
                    if attempt >= policy.max_attempts.max(1) {
                        return Err(ClientError::RetriesExhausted {
                            attempts: attempt,
                            retry_after_ms,
                        });
                    }
                    let sleep_ms =
                        policy.backoff_ms(attempt - 1, retry_after_ms, &mut self.retry_state);
                    std::thread::sleep(Duration::from_millis(sleep_ms));
                }
                Reply::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                reply => return Ok(reply),
            }
        }
    }

    /// Uploads a matrix; returns `(handle, fresh)`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] variants as for every typed helper.
    pub fn load_matrix(&mut self, matrix: &CooMatrix) -> Result<(u64, bool), ClientError> {
        match self.expect_payload(&encode_load_matrix(matrix))? {
            Reply::Loaded { handle, fresh, .. } => Ok((handle, fresh)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Computes `y = A·x`; returns `(y, service_micros, simulated_nanos)`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] variants as for every typed helper.
    pub fn spmv(
        &mut self,
        handle: u64,
        engine: Engine,
        x: Vec<f32>,
    ) -> Result<(Vec<f32>, u64, u64), ClientError> {
        match self.expect(&Request::Spmv { handle, engine, x })? {
            Reply::Vector {
                y,
                service_micros,
                simulated_nanos,
            } => Ok((y, service_micros, simulated_nanos)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Runs an iterative solve of `A·x = b`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] variants as for every typed helper.
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &mut self,
        handle: u64,
        engine: Engine,
        solver: SolverKind,
        max_iterations: u32,
        tolerance: f64,
        b: Vec<f32>,
    ) -> Result<SolveOutcome, ClientError> {
        let request = Request::Solve {
            handle,
            engine,
            solver,
            max_iterations,
            tolerance,
            b,
        };
        match self.expect(&request)? {
            Reply::Solved {
                solution,
                iterations,
                residual,
                converged,
                service_micros,
                simulated_nanos,
            } => Ok(SolveOutcome {
                solution,
                iterations,
                residual,
                converged,
                service_micros,
                simulated_nanos,
            }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Applies a delta batch to a resident matrix (see
    /// [`Request::Update`]); the handle is unchanged, the version bumps.
    ///
    /// # Errors
    ///
    /// [`ClientError`] variants as for every typed helper.
    pub fn update(
        &mut self,
        handle: u64,
        inserts: Vec<(u64, u64, f32)>,
        revalues: Vec<(u64, u64, f32)>,
        deletes: Vec<(u64, u64)>,
    ) -> Result<UpdateOutcome, ClientError> {
        let request = Request::Update {
            handle,
            inserts,
            revalues,
            deletes,
        };
        match self.expect(&request)? {
            Reply::Updated {
                version,
                nnz,
                plans_spliced,
                windows_replanned,
                windows_total,
            } => Ok(UpdateOutcome {
                version,
                nnz,
                plans_spliced,
                windows_replanned,
                windows_total,
            }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the CHPL plan artifact for a resident matrix.
    ///
    /// # Errors
    ///
    /// [`ClientError`] variants as for every typed helper.
    pub fn plan(&mut self, handle: u64, engine: Engine) -> Result<Vec<u8>, ClientError> {
        match self.expect(&Request::Plan { handle, engine })? {
            Reply::PlanArtifact { bytes } => Ok(bytes),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    ///
    /// [`ClientError`] variants as for every typed helper.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.expect(&Request::Stats)? {
            Reply::Stats(snapshot) => Ok(snapshot),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the server's metrics registry as Prometheus-style text.
    ///
    /// # Errors
    ///
    /// [`ClientError`] variants as for every typed helper.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.expect(&Request::Metrics)? {
            Reply::MetricsText { text } => Ok(text),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// [`ClientError`] variants as for every typed helper.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.expect(&Request::Shutdown)? {
            Reply::Done => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Occupies a worker for `millis` (diagnostic; see
    /// [`Request::Sleep`]).
    ///
    /// # Errors
    ///
    /// [`ClientError`] variants as for every typed helper.
    pub fn sleep(&mut self, millis: u32) -> Result<(), ClientError> {
        match self.expect(&Request::Sleep { millis })? {
            Reply::Done => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 10,
            max_delay_ms: 100,
            seed: 42,
        };
        let mut state = policy.seed;
        let mut prev_window = 0u64;
        for attempt in 0..6 {
            let ms = policy.backoff_ms(attempt, 0, &mut state);
            let window = (10u64 << attempt).min(100);
            assert!(
                ms >= window / 2 && ms <= window,
                "attempt {attempt}: {ms} outside [{}, {window}]",
                window / 2
            );
            assert!(window >= prev_window);
            prev_window = window;
        }
    }

    #[test]
    fn backoff_honors_server_hint() {
        let policy = RetryPolicy::default();
        let mut state = policy.seed;
        // Hint above the exponential window wins.
        assert!(policy.backoff_ms(0, 200, &mut state) >= 200);
        // But never beyond the cap.
        assert_eq!(policy.backoff_ms(0, 10_000, &mut state), 500);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let (mut a, mut b) = (policy.seed, policy.seed);
        for attempt in 0..5 {
            assert_eq!(
                policy.backoff_ms(attempt, 0, &mut a),
                policy.backoff_ms(attempt, 0, &mut b)
            );
        }
        // Different seeds give a different jitter stream somewhere.
        let (mut c, mut d) = (1u64, 2u64);
        let diverged = (0..8)
            .any(|n| policy.backoff_ms(n % 4, 0, &mut c) != policy.backoff_ms(n % 4, 0, &mut d));
        assert!(diverged);
    }
}
