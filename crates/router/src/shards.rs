//! Per-shard connection management: pooled blocking clients with
//! reconnect-on-failure, bounded `Busy` retry, and a shared liveness
//! board.
//!
//! Each router worker owns one [`ShardConn`] per backend, so scatter
//! traffic never contends on a shared connection lock; the only shared
//! state is the [`HealthBoard`] of atomic liveness flags, written both by
//! the background health checker and by workers observing failures
//! first-hand.

use chason_serve::client::{Client, ClientError, RetryPolicy};
use chason_serve::proto::{ErrorCode, Reply};
use chason_telemetry::metrics::Counter;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What went wrong talking to one shard.
#[derive(Debug)]
pub enum ShardErrorKind {
    /// Could not connect, the connection broke mid-request, or the shard
    /// is draining for shutdown.
    Unavailable(String),
    /// The shard still shed the request after every allowed retry.
    Busy {
        /// The shard's last back-off hint.
        retry_after_ms: u32,
    },
    /// The shard answered with a typed CHSP error.
    Server {
        /// The shard's error code.
        code: ErrorCode,
        /// The shard's rendered message.
        message: String,
    },
    /// The shard answered with a reply of the wrong type for the request.
    Unexpected(String),
}

/// A failure attributed to a specific shard.
#[derive(Debug)]
pub struct ShardError {
    /// Index of the failing shard in the router's backend list.
    pub shard: usize,
    /// Failure class.
    pub kind: ShardErrorKind,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ShardErrorKind::Unavailable(detail) => {
                write!(f, "shard {} unavailable: {detail}", self.shard)
            }
            ShardErrorKind::Busy { retry_after_ms } => write!(
                f,
                "shard {} still busy after retries; last hint {retry_after_ms} ms",
                self.shard
            ),
            ShardErrorKind::Server { code, message } => {
                write!(f, "shard {} error ({code:?}): {message}", self.shard)
            }
            ShardErrorKind::Unexpected(what) => {
                write!(f, "shard {} sent an unexpected reply: {what}", self.shard)
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Shared per-shard liveness flags.
///
/// Written by the health-check thread (periodic `Stats` pings) and by
/// workers when a request fails or succeeds; read by `Stats` reporting.
/// The board is advisory — workers always attempt the request rather than
/// fast-failing on a stale flag.
#[derive(Debug)]
pub struct HealthBoard {
    up: Vec<AtomicBool>,
}

impl HealthBoard {
    /// A board with every shard optimistically marked up.
    pub fn new(shards: usize) -> Self {
        HealthBoard {
            up: (0..shards).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// Number of shards tracked.
    pub fn shards(&self) -> usize {
        self.up.len()
    }

    /// Marks shard `k` up or down.
    pub fn set(&self, k: usize, up: bool) {
        if let Some(flag) = self.up.get(k) {
            flag.store(up, Ordering::SeqCst);
        }
    }

    /// Whether shard `k` was up at last contact.
    pub fn is_up(&self, k: usize) -> bool {
        self.up
            .get(k)
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    /// Shards currently marked up.
    pub fn up_count(&self) -> usize {
        self.up
            .iter()
            .filter(|flag| flag.load(Ordering::SeqCst))
            .count()
    }
}

/// One worker's pooled connection to one backend shard.
///
/// Connects lazily, reconnects after I/O failures (resending at most once
/// and only for idempotent requests), and retries `Busy` replies with the
/// policy's bounded jittered back-off before giving up.
#[derive(Debug)]
pub struct ShardConn {
    index: usize,
    addr: String,
    client: Option<Client>,
    retry: RetryPolicy,
    jitter: u64,
    health: Arc<HealthBoard>,
    requests: Arc<Counter>,
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
}

impl ShardConn {
    /// Creates an unconnected conn for shard `index` at `addr`.
    ///
    /// `requests` / `retries` / `reconnects` are the telemetry counters
    /// this conn bumps (resolved once so the hot path has no name
    /// lookups); `jitter_seed` desynchronises this conn's back-off from
    /// its siblings'.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        index: usize,
        addr: String,
        retry: RetryPolicy,
        jitter_seed: u64,
        health: Arc<HealthBoard>,
        requests: Arc<Counter>,
        retries: Arc<Counter>,
        reconnects: Arc<Counter>,
    ) -> Self {
        ShardConn {
            index,
            addr,
            client: None,
            retry,
            jitter: jitter_seed,
            health,
            requests,
            retries,
            reconnects,
        }
    }

    /// The shard index this conn serves.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The backend address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Drops the pooled connection (the next call reconnects).
    pub fn disconnect(&mut self) {
        self.client = None;
    }

    fn error(&self, kind: ShardErrorKind) -> ShardError {
        ShardError {
            shard: self.index,
            kind,
        }
    }

    /// Sends one encoded request, pooling the connection across calls;
    /// every resend writes the same bytes.
    ///
    /// * `Busy` replies are retried up to the policy's attempt budget,
    ///   sleeping the maximum of the shard's hint and the jittered
    ///   exponential back-off.
    /// * On an I/O or protocol failure the connection is dropped; if the
    ///   failure hit a pooled (possibly stale) connection and
    ///   `resend_safe` is set, the conn reconnects and resends once.
    ///   Non-idempotent requests (`Update`) must pass `resend_safe =
    ///   false` — a reply lost in transit may mean the shard already
    ///   applied the delta.
    /// * A `ShuttingDown` reply counts as unavailable: the shard is
    ///   refusing new work.
    ///
    /// # Errors
    ///
    /// [`ShardError`] attributing the failure to this shard.
    pub fn call(&mut self, payload: &[u8], resend_safe: bool) -> Result<Reply, ShardError> {
        let mut busy_attempts = 0u32;
        let mut resends_left = u32::from(resend_safe);
        loop {
            let pooled = self.client.is_some();
            let client = match self.client.as_mut() {
                Some(client) => client,
                None => match Client::connect(&self.addr) {
                    Ok(client) => self.client.insert(client),
                    Err(e) => {
                        self.health.set(self.index, false);
                        return Err(self.error(ShardErrorKind::Unavailable(format!(
                            "connect to {} failed: {e}",
                            self.addr
                        ))));
                    }
                },
            };
            self.requests.add(1);
            let result = client.round_trip(payload);
            match result {
                Ok(Reply::Busy { retry_after_ms }) => {
                    busy_attempts += 1;
                    if busy_attempts >= self.retry.max_attempts.max(1) {
                        return Err(self.error(ShardErrorKind::Busy { retry_after_ms }));
                    }
                    self.retries.add(1);
                    let sleep_ms =
                        self.retry
                            .backoff_ms(busy_attempts - 1, retry_after_ms, &mut self.jitter);
                    std::thread::sleep(Duration::from_millis(sleep_ms));
                }
                Ok(Reply::Error {
                    code: ErrorCode::ShuttingDown,
                    message,
                }) => {
                    self.client = None;
                    self.health.set(self.index, false);
                    return Err(self.error(ShardErrorKind::Unavailable(format!(
                        "shard is draining: {message}"
                    ))));
                }
                Ok(Reply::Error { code, message }) => {
                    // The shard is alive and answered; the request failed.
                    self.health.set(self.index, true);
                    return Err(self.error(ShardErrorKind::Server { code, message }));
                }
                Ok(reply) => {
                    self.health.set(self.index, true);
                    return Ok(reply);
                }
                Err(ClientError::Io(e)) => {
                    self.client = None;
                    if pooled && resends_left > 0 {
                        // A pooled connection may simply have gone stale
                        // (shard restarted, idle timeout): reconnect and
                        // resend once.
                        resends_left -= 1;
                        self.reconnects.add(1);
                        continue;
                    }
                    self.health.set(self.index, false);
                    return Err(self.error(ShardErrorKind::Unavailable(e.to_string())));
                }
                Err(other) => {
                    self.client = None;
                    self.health.set(self.index, false);
                    return Err(self.error(ShardErrorKind::Unavailable(other.to_string())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chason_serve::proto::{encode_request, Request};

    #[test]
    fn health_board_flags_flip() {
        let board = HealthBoard::new(3);
        assert_eq!(board.up_count(), 3);
        board.set(1, false);
        assert!(!board.is_up(1));
        assert!(board.is_up(0));
        assert_eq!(board.up_count(), 2);
        board.set(1, true);
        assert_eq!(board.up_count(), 3);
        // Out-of-range indexes are ignored, not panics.
        board.set(9, false);
        assert!(!board.is_up(9));
    }

    #[test]
    fn dead_address_is_unavailable() {
        let board = Arc::new(HealthBoard::new(1));
        let counter = || Arc::new(Counter::new());
        let mut conn = ShardConn::new(
            0,
            // Reserved port on localhost: connect fails fast.
            "127.0.0.1:1".to_string(),
            RetryPolicy::default(),
            7,
            Arc::clone(&board),
            counter(),
            counter(),
            counter(),
        );
        let err = conn
            .call(&encode_request(&Request::Stats), true)
            .unwrap_err();
        assert_eq!(err.shard, 0);
        assert!(matches!(err.kind, ShardErrorKind::Unavailable(_)), "{err}");
        assert!(!board.is_up(0));
    }
}
