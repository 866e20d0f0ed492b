//! The shared dispatch core, driven directly with a fake daemon: the
//! shedding, panic-isolation, and drain rules `chason serve` and
//! `chason route` both inherit, tested once without either daemon's
//! executors in the way.
//!
//! The fake executes every queued request by recording its handle and
//! replying `Done`; a gate lets a test park the workers mid-request so the
//! queue fills deterministically.

#![cfg(not(feature = "telemetry-off"))]

use chason_core::cache::CacheStats;
use chason_serve::dispatch::{Daemon, PoolConfig, WorkerPool};
use chason_serve::proto::{
    decode_reply, encode_request, read_frame_blocking, write_frame, Engine, ErrorCode, Reply,
    Request, StatsSnapshot, DEFAULT_MAX_FRAME,
};
use chason_serve::stats::{lock_unpoisoned, ServerStats};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A request handle the fake panics on.
const PANIC: u64 = 666;

struct Fake {
    stats: ServerStats,
    /// Workers block inside `execute` until this is true.
    open: Mutex<bool>,
    opened: Condvar,
    /// Handles in the order workers started executing them.
    started: Mutex<Vec<u64>>,
    workers_built: AtomicU64,
    shutdowns: AtomicU64,
}

impl Fake {
    fn new(open: bool) -> Arc<Fake> {
        Arc::new(Fake {
            stats: ServerStats::new(),
            open: Mutex::new(open),
            opened: Condvar::new(),
            started: Mutex::new(Vec::new()),
            workers_built: AtomicU64::new(0),
            shutdowns: AtomicU64::new(0),
        })
    }

    fn open_gate(&self) {
        *lock_unpoisoned(&self.open) = true;
        self.opened.notify_all();
    }

    fn started(&self) -> Vec<u64> {
        lock_unpoisoned(&self.started).clone()
    }
}

impl Daemon for Fake {
    type Worker = ();
    const WORKER_NAME: &'static str = "fake-worker";
    const DRAINING: &'static str = "fake is draining";

    fn stats(&self) -> &ServerStats {
        &self.stats
    }

    fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot(CacheStats::default(), 0, 0)
    }

    fn exposition(&self) -> String {
        self.stats.render_exposition(CacheStats::default(), 0, 0)
    }

    fn worker(&self, _index: usize) {
        self.workers_built.fetch_add(1, Ordering::SeqCst);
    }

    fn execute(&self, _worker: &mut (), request: Request) -> Reply {
        let Request::Plan { handle, .. } = request else {
            return Reply::Error {
                code: ErrorCode::BadRequest,
                message: "the fake only runs Plan".to_string(),
            };
        };
        lock_unpoisoned(&self.started).push(handle);
        let mut open = lock_unpoisoned(&self.open);
        while !*open {
            open = self.opened.wait(open).unwrap_or_else(|e| e.into_inner());
        }
        drop(open);
        assert_ne!(handle, PANIC, "the fake panics on request");
        Reply::Done
    }

    fn on_shutdown(&self) {
        self.shutdowns.fetch_add(1, Ordering::SeqCst);
    }
}

fn start(fake: &Arc<Fake>, workers: usize, queue_capacity: usize) -> WorkerPool<Fake> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    WorkerPool::start(
        listener,
        Arc::clone(fake),
        PoolConfig {
            workers,
            queue_capacity,
            retry_after_ms: 7,
            idle_timeout: Duration::from_secs(30),
            max_frame_len: DEFAULT_MAX_FRAME,
        },
    )
    .expect("pool starts")
}

fn work(handle: u64) -> Request {
    Request::Plan {
        handle,
        engine: Engine::Cpu,
    }
}

fn send(stream: &mut TcpStream, request: &Request) {
    write_frame(stream, &encode_request(request)).expect("write frame");
}

fn recv(stream: &mut TcpStream) -> Reply {
    let payload = read_frame_blocking(stream, DEFAULT_MAX_FRAME).expect("read reply frame");
    decode_reply(&payload).expect("decode reply")
}

fn connect(pool: &WorkerPool<Fake>) -> TcpStream {
    TcpStream::connect(pool.local_addr()).expect("connect")
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn full_queue_sheds_with_busy_and_counts_it() {
    let fake = Fake::new(false);
    let pool = start(&fake, 1, 1);
    // One request parks the only worker...
    let mut running = connect(&pool);
    send(&mut running, &work(1));
    wait_until("the worker to start", || fake.started() == [1]);
    // ...a second fills the queue, so a third is shed. The trailing Stats
    // is answered inline once the loop has dispatched both.
    let mut pipelined = connect(&pool);
    send(&mut pipelined, &work(2));
    send(&mut pipelined, &work(3));
    send(&mut pipelined, &Request::Stats);
    wait_until("both requests to dispatch", || {
        fake.snapshot().requests_stats == 1
    });
    assert_eq!(fake.snapshot().shed, 1);
    let mut scrape = connect(&pool);
    send(&mut scrape, &Request::Metrics);
    match recv(&mut scrape) {
        Reply::MetricsText { text } => {
            assert!(text.contains("chsp_shed_total 1"), "{text}");
        }
        other => panic!("expected metrics, got {other:?}"),
    }

    // Accepted work is still answered once the worker frees up, and the
    // shed request carries the configured back-off hint.
    fake.open_gate();
    assert!(matches!(recv(&mut running), Reply::Done));
    assert!(matches!(recv(&mut pipelined), Reply::Done));
    assert!(matches!(
        recv(&mut pipelined),
        Reply::Busy { retry_after_ms: 7 }
    ));
    assert!(matches!(recv(&mut pipelined), Reply::Stats(_)));
    assert_eq!(fake.started(), [1, 2]);
    pool.shutdown();
    pool.join();
}

#[test]
fn panicking_request_yields_internal_and_the_pool_keeps_serving() {
    let fake = Fake::new(true);
    let pool = start(&fake, 1, 8);
    let mut stream = connect(&pool);
    send(&mut stream, &work(PANIC));
    send(&mut stream, &work(5));
    match recv(&mut stream) {
        Reply::Error { code, message } => {
            assert_eq!(code, ErrorCode::Internal);
            assert_eq!(message, "request execution panicked");
        }
        other => panic!("expected an Internal error, got {other:?}"),
    }
    // The single worker survived and runs the next request.
    assert!(matches!(recv(&mut stream), Reply::Done));
    assert_eq!(fake.started(), [PANIC, 5]);
    // Its state was rebuilt after the panic.
    assert_eq!(fake.workers_built.load(Ordering::SeqCst), 2);
    let snap = fake.snapshot();
    assert_eq!(snap.requests_plan, 2);
    assert_eq!(snap.service_samples, 2);
    pool.shutdown();
    pool.join();
}

#[test]
fn shutdown_answers_every_accepted_job_before_workers_exit() {
    let fake = Fake::new(false);
    let pool = start(&fake, 1, 8);
    let mut stream = connect(&pool);
    for handle in 1..=5 {
        send(&mut stream, &work(handle));
    }
    send(&mut stream, &Request::Stats);
    wait_until("one running and four queued", || {
        fake.started() == [1] && fake.snapshot().requests_stats == 1
    });

    // A wire Shutdown runs the daemon's fan-out, acknowledges, and
    // refuses nothing already accepted.
    let mut control = connect(&pool);
    send(&mut control, &Request::Shutdown);
    assert!(matches!(recv(&mut control), Reply::Done));
    assert_eq!(fake.shutdowns.load(Ordering::SeqCst), 1);

    fake.open_gate();
    for _ in 1..=5 {
        assert!(matches!(recv(&mut stream), Reply::Done));
    }
    assert!(matches!(recv(&mut stream), Reply::Stats(_)));
    pool.join();
    assert_eq!(fake.started(), [1, 2, 3, 4, 5]);
    assert_eq!(fake.snapshot().requests_plan, 5);
}
