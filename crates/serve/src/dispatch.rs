//! The dispatch and worker-pool core shared by `chason serve` and
//! `chason route`.
//!
//! Both daemons accept the same wire protocol over the [`chason_net`]
//! readiness loop, answer `Stats`/`Metrics`/`Shutdown` inline, refuse
//! queued work while draining, shed with [`Reply::Busy`] when their
//! bounded worker queue is full, and run everything else on a fixed pool
//! of worker threads. This module is that machinery, written once. A
//! daemon plugs in through the [`Daemon`] trait and supplies only what
//! differs: how a request executes (with per-worker state), which queued
//! requests may batch together, its `Stats`/`Metrics` content, its
//! shutdown fan-out, and its drain message.
//!
//! # Dispatch
//!
//! The loop thread decodes each frame. Inline requests are answered on
//! the spot; everything else becomes a job on one bounded MPMC queue. The
//! queue is the backpressure boundary: when it is full the job is shed
//! with `Busy` (counted in `chsp_shed_total`) instead of blocking the
//! loop, so a saturated daemon stays responsive and observable. Workers
//! encode their replies themselves and complete the frame's
//! `(conn, seq)` slot; the loop writes replies in per-connection request
//! order.
//!
//! # Drain
//!
//! A wire `Shutdown` (or [`WorkerPool::shutdown`]) sets the drain flag
//! and stops the accept path. New work is refused with
//! [`ErrorCode::ShuttingDown`]; in-flight requests finish and their
//! replies flush. The loop's service is the only holder of the queue
//! sender, so when the loop exits the sender drops, the workers drain
//! whatever is still queued, and exit: accepted work is always answered.

use crate::proto::{decode_request, encode_reply, ErrorCode, Reply, Request, StatsSnapshot};
use crate::stats::ServerStats;
use chason_net::server::{FrameOutcome, NetConfig, NetServer};
use chason_net::{LoopHandle, Service};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A batch-admission predicate: which queued requests may run along with
/// the one a worker just dequeued.
pub type Admits<'a> = Box<dyn Fn(&Request) -> bool + 'a>;

/// What a CHSP daemon plugs into the shared core.
pub trait Daemon: Send + Sync + 'static {
    /// Per-worker state: built on each worker thread before its first
    /// job, and rebuilt after a job panics (the panic may have left it
    /// half-updated).
    type Worker;
    /// Worker thread name prefix; worker `i` is named `{WORKER_NAME}-{i}`.
    const WORKER_NAME: &'static str;
    /// Refusal message for work arriving while the daemon drains.
    const DRAINING: &'static str;

    /// The `chsp_*` service counters the core records into.
    fn stats(&self) -> &ServerStats;
    /// The `Stats` reply body.
    fn snapshot(&self) -> StatsSnapshot;
    /// The `Metrics` reply body (Prometheus-style text).
    fn exposition(&self) -> String;
    /// Builds worker `index`'s state.
    fn worker(&self, index: usize) -> Self::Worker;
    /// Executes one queued request. Never sees `Sleep` or the inline
    /// requests: the core answers those itself.
    fn execute(&self, worker: &mut Self::Worker, request: Request) -> Reply;
    /// Opens a batch on a dequeued request: the predicate queued requests
    /// must meet to be taken off the queue front along with it, or `None`
    /// to run it alone.
    fn batch_with(&self, first: &Request) -> Option<Admits<'_>> {
        let _ = first;
        None
    }
    /// A wire `Shutdown` arrived. Runs after the drain flag is set and
    /// before the `Done` acknowledgement is sent.
    fn on_shutdown(&self) {}
}

/// Pool sizing and connection limits, taken from the daemon's config.
#[derive(Debug)]
pub struct PoolConfig {
    /// Worker threads (at least one runs).
    pub workers: usize,
    /// Bounded queue capacity; the load-shedding threshold.
    pub queue_capacity: usize,
    /// Most requests one dequeue may run as a batch.
    pub batch_max: usize,
    /// Back-off hint carried by [`Reply::Busy`].
    pub retry_after_ms: u32,
    /// How long a connection may sit idle before it is reaped.
    pub idle_timeout: Duration,
    /// Largest accepted frame payload.
    pub max_frame_len: usize,
}

/// A unit of queued work: the decoded request plus the loop slot its
/// reply completes.
struct Job {
    request: Request,
    handle: LoopHandle,
    conn: u64,
    seq: u64,
    /// Enqueue time, for the queue-wait histogram.
    received: Instant,
}

/// A running daemon: the readiness loop in front, the worker pool behind.
pub struct WorkerPool<D> {
    daemon: Arc<D>,
    draining: Arc<AtomicBool>,
    net: NetServer,
    workers: Vec<JoinHandle<()>>,
}

impl<D: Daemon> WorkerPool<D> {
    /// Spawns the worker pool, then the readiness loop over `listener`.
    /// `net_*` metrics register into the daemon's registry, so one
    /// `Metrics` reply exposes both families.
    ///
    /// # Errors
    ///
    /// Poller or thread-spawn failures.
    pub fn start(
        listener: TcpListener,
        daemon: Arc<D>,
        config: PoolConfig,
    ) -> std::io::Result<WorkerPool<D>> {
        let (jobs_tx, jobs_rx) = channel::bounded::<Job>(config.queue_capacity);
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let daemon = Arc::clone(&daemon);
                let jobs = jobs_rx.clone();
                let batch_max = config.batch_max;
                thread::Builder::new()
                    .name(format!("{}-{index}", D::WORKER_NAME))
                    .spawn(move || worker_loop(&*daemon, index, &jobs, batch_max))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        drop(jobs_rx);
        let draining = Arc::new(AtomicBool::new(false));
        let net_config = NetConfig {
            idle_timeout: config.idle_timeout,
            max_frame_len: config.max_frame_len,
            ..NetConfig::default()
        };
        let service_daemon = Arc::clone(&daemon);
        let service_draining = Arc::clone(&draining);
        let net = NetServer::start(
            listener,
            net_config,
            daemon.stats().registry(),
            move |handle| ChspService {
                daemon: service_daemon,
                draining: service_draining,
                jobs: jobs_tx,
                retry_after_ms: config.retry_after_ms,
                handle,
            },
        )?;
        Ok(WorkerPool {
            daemon,
            draining,
            net,
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// The daemon this pool runs.
    pub fn daemon(&self) -> &D {
        &self.daemon
    }

    /// The drain flag, for daemon threads outside the pool (the router's
    /// health checker) that must stop when the daemon drains.
    pub fn drain_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.draining)
    }

    /// Initiates the same graceful drain a wire `Shutdown` does, without
    /// the daemon's shutdown fan-out.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.net.shutdown();
    }

    /// Blocks until the loop, every connection, and every worker have
    /// exited. Call [`shutdown`](Self::shutdown) first (or send a
    /// `Shutdown` request) or this blocks forever.
    pub fn join(self) {
        // The loop's exit drops the service and with it the last queue
        // sender; only then can the workers see the queue disconnect.
        self.net.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// The loop-thread half: decodes frames, answers inline requests, and
/// enqueues the rest. Sole owner of the queue sender.
struct ChspService<D> {
    daemon: Arc<D>,
    draining: Arc<AtomicBool>,
    jobs: Sender<Job>,
    retry_after_ms: u32,
    handle: LoopHandle,
}

fn error_frame(code: ErrorCode, message: impl Into<String>) -> Vec<u8> {
    encode_reply(&Reply::Error {
        code,
        message: message.into(),
    })
}

impl<D: Daemon> Service for ChspService<D> {
    fn on_frame(&mut self, conn: u64, seq: u64, payload: Vec<u8>) -> FrameOutcome {
        let request = match decode_request(&payload) {
            Ok(request) => request,
            // A malformed payload poisons only itself; the connection
            // continues at the next frame boundary.
            Err(err) => {
                return FrameOutcome::Reply(error_frame(ErrorCode::MalformedFrame, err.to_string()))
            }
        };
        let stats = self.daemon.stats();
        match request {
            Request::Stats => {
                stats.requests.stats.add(1);
                FrameOutcome::Reply(encode_reply(&Reply::Stats(self.daemon.snapshot())))
            }
            Request::Metrics => {
                stats.requests.metrics.add(1);
                FrameOutcome::Reply(encode_reply(&Reply::MetricsText {
                    text: self.daemon.exposition(),
                }))
            }
            Request::Shutdown => {
                // The fan-out runs before the acknowledgement, so "Done"
                // means the whole drain has started; then stop accepting.
                self.draining.store(true, Ordering::SeqCst);
                self.daemon.on_shutdown();
                self.handle.begin_drain();
                FrameOutcome::ReplyThenClose(encode_reply(&Reply::Done))
            }
            request => {
                if self.draining.load(Ordering::SeqCst) {
                    return FrameOutcome::ReplyThenClose(error_frame(
                        ErrorCode::ShuttingDown,
                        D::DRAINING,
                    ));
                }
                let job = Job {
                    request,
                    handle: self.handle.clone(),
                    conn,
                    seq,
                    received: Instant::now(),
                };
                match self.jobs.try_send(job) {
                    Ok(()) => {
                        stats.observe_queue_depth(self.jobs.len() as u64);
                        FrameOutcome::Pending
                    }
                    Err(TrySendError::Full(_)) => {
                        stats.shed.add(1);
                        FrameOutcome::Reply(encode_reply(&Reply::Busy {
                            retry_after_ms: self.retry_after_ms,
                        }))
                    }
                    Err(TrySendError::Disconnected(_)) => FrameOutcome::ReplyThenClose(
                        error_frame(ErrorCode::ShuttingDown, "worker pool has stopped"),
                    ),
                }
            }
        }
    }

    fn on_oversized(&mut self, _conn: u64, len: u64, cap: u64) -> Option<Vec<u8>> {
        Some(error_frame(
            ErrorCode::FrameTooLarge,
            format!("frame of {len} bytes exceeds the {cap}-byte cap"),
        ))
    }
}

fn worker_loop<D: Daemon>(daemon: &D, index: usize, jobs: &Receiver<Job>, batch_max: usize) {
    let mut state = daemon.worker(index);
    while let Ok(first) = jobs.recv() {
        // Batching takes twins from the queue front only, so FIFO
        // fairness holds for everything else.
        let mut twins = Vec::new();
        if let Some(admits) = daemon.batch_with(&first.request) {
            while twins.len() + 1 < batch_max {
                match jobs.try_recv_if(|next| admits(&next.request)) {
                    Some(next) => twins.push(next),
                    None => break,
                }
            }
        }
        if !twins.is_empty() {
            daemon.stats().batched.add(twins.len() as u64);
        }
        for job in std::iter::once(first).chain(twins) {
            run_job(daemon, &mut state, index, job);
        }
    }
}

fn record_accepted_kind(stats: &ServerStats, request: &Request) {
    let counter = match request {
        Request::LoadMatrix { .. } => &stats.requests.load,
        Request::Spmv { .. } => &stats.requests.spmv,
        Request::Solve { .. } => &stats.requests.solve,
        Request::Plan { .. } => &stats.requests.plan,
        Request::Sleep { .. } => &stats.requests.sleep,
        Request::Update { .. } => &stats.requests.update,
        // Served inline, counted there.
        Request::Stats | Request::Metrics | Request::Shutdown => return,
    };
    counter.add(1);
}

fn run_job<D: Daemon>(daemon: &D, state: &mut D::Worker, index: usize, job: Job) {
    let stats = daemon.stats();
    record_accepted_kind(stats, &job.request);
    // Queue wait (enqueue to dequeue) and execution time feed separate
    // histograms: summing them into one "service time" conflates queue
    // pressure with execution cost.
    stats.record_queue_wait_micros(job.received.elapsed().as_micros() as u64);
    let started = Instant::now();
    // The executors validate their inputs, but a panic in a worker must
    // not take the pool down: surface it as an Internal error instead.
    let reply = catch_unwind(AssertUnwindSafe(|| match job.request {
        Request::Sleep { millis } => {
            thread::sleep(Duration::from_millis(u64::from(millis.min(10_000))));
            Reply::Done
        }
        Request::Stats | Request::Metrics | Request::Shutdown => Reply::Error {
            code: ErrorCode::Internal,
            message: "inline request reached the worker pool".to_string(),
        },
        request => daemon.execute(state, request),
    }))
    .unwrap_or_else(|_| {
        *state = daemon.worker(index);
        Reply::Error {
            code: ErrorCode::Internal,
            message: "request execution panicked".to_string(),
        }
    });
    stats.record_service_micros(started.elapsed().as_micros() as u64);
    // A closed connection drops the completion; that is not an error.
    job.handle.complete(job.conn, job.seq, encode_reply(&reply));
}
