//! The readiness-driven connection front end.
//!
//! One accept thread blocks in `accept` and hands sockets to one event
//! loop thread through a mutex-protected inbox plus a coalesced poller
//! notification (the wakeup/registration handshake modeled by
//! `chason-race-models`). The loop owns every connection: nonblocking
//! socket, [`FrameAssembler`] read state, a bounded write queue, the
//! pipelining reorder buffer, and an idle deadline on the shared
//! [`TimerWheel`].
//!
//! # Pipelining and reply order
//!
//! CHSP frames carry no sequence field — a client matches replies to
//! requests by order. The loop therefore assigns each inbound frame a
//! per-connection sequence number and writes replies in exactly that
//! order, buffering out-of-order completions from the worker pool until
//! the gap closes. Inline replies (`Stats` and friends) go through the
//! same buffer: a `Stats` pipelined behind a slow `Solve` waits for the
//! solve's reply.
//!
//! # Backpressure
//!
//! Two per-connection limits stop the loop reading from a connection:
//! more than [`NetConfig::max_inflight`] requests awaiting completion, or
//! more than [`NetConfig::write_buffer_limit`] unsent reply bytes (a peer
//! that stops draining its socket). Paused connections keep their
//! registration but drop read interest; completions and write progress
//! un-pause them. The worker queue's own shedding (`Busy`) is unchanged
//! and sits behind this layer.
//!
//! # Drain
//!
//! [`LoopHandle::begin_drain`] stops the accept thread, lets in-flight
//! requests complete and their replies flush, closes connections as they
//! go idle, and ends the loop when none remain: accepted work is always
//! answered.

use crate::assembler::{FrameAssembler, READ_CHUNK};
use crate::metrics::NetMetrics;
use crate::wheel::{Expired, TimerWheel};
use chason_telemetry::metrics::Registry;
use chason_telemetry::trace::SpanEvent;
use polling::{Event, Poller};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Wheel granularity; also how often the loop re-checks drain progress,
/// so idle reaping and shutdown respond within about 100 ms.
const TICK: Duration = Duration::from_millis(100);

/// Wheel size: covers deadlines up to `TICK * WHEEL_SLOTS` (51.2 s)
/// without wrap-induced spurious firings.
const WHEEL_SLOTS: usize = 512;

/// How the application responded to one reassembled frame.
#[derive(Debug)]
pub enum FrameOutcome {
    /// Reply immediately with this encoded payload; keep the connection.
    Reply(Vec<u8>),
    /// Reply with this payload, then close once every reply up to and
    /// including this one has flushed (fatal protocol errors, drain
    /// refusals, `Shutdown` acknowledgements).
    ReplyThenClose(Vec<u8>),
    /// The frame was accepted for asynchronous completion; the reply
    /// arrives later through [`LoopHandle::complete`] under the same
    /// `(conn, seq)`.
    Pending,
    /// Close without replying to this frame.
    Close,
}

/// The application half of the loop: decodes frames, answers inline or
/// hands work to its own pool. Invoked only on the loop thread.
pub trait Service: Send + 'static {
    /// One reassembled frame payload. `seq` is the per-connection request
    /// sequence number the reply must be completed under.
    fn on_frame(&mut self, conn: u64, seq: u64, payload: Vec<u8>) -> FrameOutcome;

    /// A frame header exceeded the configured cap — the stream cannot be
    /// resynchronized. An encoded final reply (sent before closing), or
    /// `None` to hang up silently.
    fn on_oversized(&mut self, conn: u64, len: u64, cap: u64) -> Option<Vec<u8>>;

    /// The connection is gone (any cause). In-flight completions for it
    /// are dropped silently.
    fn on_close(&mut self, conn: u64) {
        let _ = conn;
    }
}

/// Tunable knobs of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Reap a connection this long after its last completed frame
    /// (either direction) or write progress, unless requests are still
    /// in flight.
    pub idle_timeout: Duration,
    /// Largest accepted frame payload.
    pub max_frame_len: usize,
    /// Most requests one connection may have awaiting completion before
    /// the loop stops reading from it.
    pub max_inflight: usize,
    /// Most unsent reply bytes one connection may buffer before the loop
    /// stops reading from it.
    pub write_buffer_limit: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            idle_timeout: Duration::from_secs(30),
            max_frame_len: 64 * 1024 * 1024,
            max_inflight: 128,
            write_buffer_limit: 1 << 20,
        }
    }
}

/// An asynchronous reply routed to the loop.
struct Completion {
    conn: u64,
    seq: u64,
    payload: Vec<u8>,
}

struct HandleShared {
    poller: Arc<Poller>,
    /// Wakeup coalescing: producers notify only on the false→true edge;
    /// the loop clears the flag *before* draining the inbox and
    /// completion queue, so an enqueue that races the drain re-notifies.
    notified: AtomicBool,
    draining: AtomicBool,
    inbox: Mutex<Vec<TcpStream>>,
    local_addr: SocketAddr,
}

/// A clonable handle into the event loop: asynchronous reply completion
/// and drain control. Safe to use from any thread.
pub struct LoopHandle {
    tx: mpsc::Sender<Completion>,
    shared: Arc<HandleShared>,
}

impl Clone for LoopHandle {
    fn clone(&self) -> Self {
        LoopHandle {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl std::fmt::Debug for LoopHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopHandle").finish_non_exhaustive()
    }
}

impl LoopHandle {
    /// Completes a [`FrameOutcome::Pending`] frame: `payload` is the
    /// encoded reply, written once every earlier reply of the connection
    /// has been. Completions for closed connections are dropped.
    pub fn complete(&self, conn: u64, seq: u64, payload: Vec<u8>) {
        self.send(Completion { conn, seq, payload });
    }

    /// Starts a graceful drain: stop accepting, answer everything already
    /// accepted, close connections as they go idle, end the loop when
    /// none remain. Idempotent.
    pub fn begin_drain(&self) {
        if !self.shared.draining.swap(true, Ordering::SeqCst) {
            // Nudge the accept thread out of `accept` so it can observe
            // the flag and exit.
            let _ = TcpStream::connect(self.shared.local_addr);
        }
        self.wake();
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    fn send(&self, completion: Completion) {
        // A send after the loop exited means the connection is long gone;
        // the reply has nowhere to go and is dropped.
        let _ = self.tx.send(completion);
        self.wake();
    }

    /// Edge-triggered wakeup: first caller since the loop last cleared
    /// the flag pays the `notify` syscall, the rest coalesce.
    pub(crate) fn wake(&self) {
        if !self.shared.notified.swap(true, Ordering::SeqCst) {
            let _ = self.shared.poller.notify();
        }
    }

    pub(crate) fn push_accepted(&self, stream: TcpStream) {
        self.shared
            .inbox
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(stream);
        self.wake();
    }
}

/// A running readiness-loop front end: one accept thread, one loop
/// thread, shared with the application through a [`Service`] and a
/// [`LoopHandle`].
pub struct NetServer {
    local_addr: SocketAddr,
    handle: LoopHandle,
    accept_thread: Option<JoinHandle<()>>,
    loop_thread: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Takes ownership of a bound listener and starts the accept and loop
    /// threads. `make_service` receives the [`LoopHandle`] the service
    /// needs for asynchronous completions.
    ///
    /// `net_*` metrics are registered into `registry` so they surface
    /// through the embedding server's exposition endpoint.
    ///
    /// # Errors
    ///
    /// Poller or thread-spawn failures.
    pub fn start<S, F>(
        listener: TcpListener,
        config: NetConfig,
        registry: &Registry,
        make_service: F,
    ) -> io::Result<NetServer>
    where
        S: Service,
        F: FnOnce(LoopHandle) -> S,
    {
        let local_addr = listener.local_addr()?;
        let poller = Arc::new(Poller::new()?);
        let (tx, rx) = mpsc::channel::<Completion>();
        let shared = Arc::new(HandleShared {
            poller: Arc::clone(&poller),
            notified: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            inbox: Mutex::new(Vec::new()),
            local_addr,
        });
        let handle = LoopHandle { tx, shared };
        let metrics = NetMetrics::register(registry);
        let service = make_service(handle.clone());

        let accept_handle = handle.clone();
        let accept_thread = thread::Builder::new()
            .name("chason-net-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_handle))?;

        let loop_handle = handle.clone();
        let loop_thread = thread::Builder::new()
            .name("chason-net-loop".to_string())
            .spawn(move || {
                let mut event_loop = EventLoop {
                    poller,
                    handle: loop_handle,
                    completions: rx,
                    config,
                    service,
                    metrics,
                    conns: HashMap::new(),
                    wheel: TimerWheel::new(TICK, WHEEL_SLOTS),
                    next_id: 0,
                };
                event_loop.run();
            })?;

        Ok(NetServer {
            local_addr,
            handle,
            accept_thread: Some(accept_thread),
            loop_thread: Some(loop_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle for completions and drain control.
    pub fn handle(&self) -> LoopHandle {
        self.handle.clone()
    }

    /// Starts a graceful drain (see [`LoopHandle::begin_drain`]).
    pub fn shutdown(&self) {
        self.handle.begin_drain();
    }

    /// Blocks until the accept and loop threads exit. Call
    /// [`shutdown`](Self::shutdown) first (or have a wire request trigger
    /// [`LoopHandle::begin_drain`]) or this blocks forever.
    pub fn join(mut self) {
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        if let Some(lp) = self.loop_thread.take() {
            let _ = lp.join();
        }
    }
}

/// Blocking accept: hand every socket to the loop through the inbox, stop
/// at the drain flag (checked after each accept; `begin_drain` nudges a
/// throwaway connection to guarantee progress).
fn accept_loop(listener: &TcpListener, handle: &LoopHandle) {
    for stream in listener.incoming() {
        if handle.is_draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        handle.push_accepted(stream);
    }
}

/// A queued reply awaiting its turn in the connection's write order.
struct PendingReply {
    /// Encoded reply payload; `None` writes nothing but still advances
    /// the sequence (a `Close` outcome).
    payload: Option<Vec<u8>>,
    close: bool,
}

struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    /// Next sequence number to assign to an inbound frame.
    next_seq: u64,
    /// Next sequence number whose reply may be written to the socket.
    next_write: u64,
    /// Replies completed out of order, waiting for the gap to close.
    pending: BTreeMap<u64, PendingReply>,
    /// Frames accepted as `Pending` whose completion has not arrived.
    inflight: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    peer_eof: bool,
    /// The stream can no longer be read (oversized frame, or a
    /// close-marked reply was sequenced).
    read_closed: bool,
    /// Close once `wbuf` drains.
    close_after_flush: bool,
    idle_deadline: Instant,
    paused: bool,
    /// Interest currently armed in the poller, if any (oneshot delivery
    /// disarms).
    armed: Option<(bool, bool)>,
    opened_at: u64,
    frames_in: u64,
    frames_out: u64,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn wants_read(&self) -> bool {
        !(self.paused || self.read_closed || self.peer_eof)
    }

    fn wants_write(&self) -> bool {
        self.unsent() > 0
    }
}

struct EventLoop<S: Service> {
    poller: Arc<Poller>,
    handle: LoopHandle,
    completions: mpsc::Receiver<Completion>,
    config: NetConfig,
    service: S,
    metrics: NetMetrics,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel,
    next_id: u64,
}

impl<S: Service> EventLoop<S> {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut expired: Vec<Expired> = Vec::new();
        loop {
            let timeout = self.wheel.next_wakeup(Instant::now());
            events.clear();
            let delivered = match self.poller.wait(&mut events, Some(timeout)) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                // A broken poller is unrecoverable; counting the exit
                // beats spinning on the error.
                Err(_) => {
                    self.metrics.loop_errors.add(1);
                    return;
                }
            };
            self.metrics.wakeups.add(1);
            if delivered > 0 {
                self.metrics.readiness_batch.record(delivered as u64);
            }
            // Clear the wakeup flag BEFORE draining the inbox and the
            // completion queue: a producer that enqueues after this store
            // observes `false` and re-notifies, so nothing enqueued
            // during the drain below can be stranded until the next
            // timeout tick. (The drain-then-clear order is the lost-
            // wakeup mutant in chason-race-models.)
            self.handle.shared.notified.store(false, Ordering::SeqCst);

            for &event in &events {
                self.dispatch_event(event);
            }
            self.register_accepted();
            self.route_completions();

            let now = Instant::now();
            expired.clear();
            self.wheel.expire(now, &mut expired);
            for entry in &expired {
                self.check_idle(entry.id, now);
            }

            if self.handle.is_draining() {
                self.sweep_draining();
                if self.conns.is_empty() {
                    // Every accepted connection has been answered and
                    // closed, the accept thread has stopped feeding the
                    // inbox: the drain is complete.
                    return;
                }
            }
            self.rearm_all_dirty();
        }
    }

    // ------------------------------------------------------------------
    // Readiness dispatch
    // ------------------------------------------------------------------

    fn dispatch_event(&mut self, event: Event) {
        let id = event.key as u64;
        let Some(conn) = self.conns.get_mut(&id) else {
            return; // closed earlier in this iteration
        };
        conn.armed = None; // oneshot delivery disarmed it
        if event.readable && self.pump_read(id).is_err() {
            self.close(id);
            return;
        }
        if event.writable && self.flush(id).is_err() {
            self.close(id);
            return;
        }
        self.close_if_done(id);
    }

    /// Reads until the socket would block, feeding the assembler and
    /// dispatching every completed frame. Errors mean "close now".
    fn pump_read(&mut self, id: u64) -> Result<(), ()> {
        let mut chunk = [0u8; READ_CHUNK];
        let mut frames: Vec<Vec<u8>> = Vec::new();
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return Ok(());
            };
            if !conn.wants_read() {
                return Ok(());
            }
            let n = match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    if conn.assembler.mid_frame() {
                        // Mid-frame disconnect: nothing more can be
                        // parsed, and any reply would race the reset.
                        return Err(());
                    }
                    return Ok(());
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            };
            frames.clear();
            let fed = conn.assembler.feed(&chunk[..n], &mut frames);
            for frame in frames.drain(..) {
                self.dispatch_frame(id, frame);
            }
            if let Err(over) = fed {
                self.handle_oversized(id, over.len, over.cap);
                return Ok(());
            }
            if n < chunk.len() {
                // Short read: the socket is drained. (Interest is
                // level-style on re-arm, so a race with more data is
                // only deferred, not lost.)
                return Ok(());
            }
        }
    }

    fn dispatch_frame(&mut self, id: u64, payload: Vec<u8>) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.read_closed {
            return; // a close-marked reply was already sequenced
        }
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.frames_in += 1;
        conn.idle_deadline = Instant::now() + self.config.idle_timeout;
        self.metrics.frames_in.add(1);
        match self.service.on_frame(id, seq, payload) {
            FrameOutcome::Reply(reply) => self.sequence(id, seq, Some(reply), false),
            FrameOutcome::ReplyThenClose(reply) => self.sequence(id, seq, Some(reply), true),
            FrameOutcome::Pending => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.inflight += 1;
                    self.update_pause(id);
                }
            }
            FrameOutcome::Close => self.sequence(id, seq, None, true),
        }
    }

    fn handle_oversized(&mut self, id: u64, len: u64, cap: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.read_closed = true;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        match self.service.on_oversized(id, len, cap) {
            Some(reply) => self.sequence(id, seq, Some(reply), true),
            None => self.sequence(id, seq, None, true),
        }
    }

    // ------------------------------------------------------------------
    // Reply sequencing and the write side
    // ------------------------------------------------------------------

    /// Buffers one reply under its sequence number, then moves every
    /// now-contiguous reply into the write buffer and flushes
    /// opportunistically.
    fn sequence(&mut self, id: u64, seq: u64, payload: Option<Vec<u8>>, close: bool) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if seq < conn.next_write {
            return; // duplicate completion; already written
        }
        conn.pending.insert(seq, PendingReply { payload, close });
        while let Some(reply) = conn.pending.remove(&conn.next_write) {
            conn.next_write += 1;
            if let Some(bytes) = reply.payload {
                conn.wbuf
                    .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                conn.wbuf.extend_from_slice(&bytes);
                conn.frames_out += 1;
                self.metrics.frames_out.add(1);
            }
            if reply.close {
                // Later pipelined frames are dropped, exactly as if the
                // peer had sent them after the connection closed.
                conn.close_after_flush = true;
                conn.read_closed = true;
                conn.pending.clear();
                break;
            }
        }
        self.metrics
            .write_queue_depth_hwm
            .observe_max(conn.unsent() as u64);
        if self.flush(id).is_err() {
            self.close(id);
            return;
        }
        self.update_pause(id);
        self.close_if_done(id);
    }

    /// Writes buffered bytes until the socket would block. Errors mean
    /// "close now".
    fn flush(&mut self, id: u64) -> Result<(), ()> {
        let Some(conn) = self.conns.get_mut(&id) else {
            return Ok(());
        };
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    conn.wpos += n;
                    // Write progress counts as activity: a peer slowly
                    // draining a large reply is alive, not idle.
                    conn.idle_deadline = Instant::now() + self.config.idle_timeout;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        } else if conn.wpos > READ_CHUNK {
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
        self.update_pause(id);
        Ok(())
    }

    fn update_pause(&mut self, id: u64) {
        let limit_inflight = self.config.max_inflight.max(1);
        let limit_bytes = self.config.write_buffer_limit.max(1);
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let should_pause = conn.inflight >= limit_inflight || conn.unsent() >= limit_bytes;
        if should_pause && !conn.paused {
            self.metrics.read_pauses.add(1);
        }
        conn.paused = should_pause;
    }

    // ------------------------------------------------------------------
    // Registration, completions, timers, drain
    // ------------------------------------------------------------------

    fn register_accepted(&mut self) {
        let streams: Vec<TcpStream> = {
            let mut inbox = self
                .handle
                .shared
                .inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *inbox)
        };
        let draining = self.handle.is_draining();
        for stream in streams {
            if draining {
                continue; // drop accepts that raced the drain
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            if self
                .poller
                .add(&stream, Event::readable(id as usize))
                .is_err()
            {
                continue;
            }
            let now = Instant::now();
            let deadline = now + self.config.idle_timeout;
            self.wheel.schedule(id, deadline);
            self.conns.insert(
                id,
                Conn {
                    stream,
                    assembler: FrameAssembler::new(self.config.max_frame_len),
                    next_seq: 0,
                    next_write: 0,
                    pending: BTreeMap::new(),
                    inflight: 0,
                    wbuf: Vec::new(),
                    wpos: 0,
                    peer_eof: false,
                    read_closed: false,
                    close_after_flush: false,
                    idle_deadline: deadline,
                    paused: false,
                    armed: Some((true, false)),
                    opened_at: chason_telemetry::global().clock().now(),
                    frames_in: 0,
                    frames_out: 0,
                },
            );
            self.metrics.accepted.add(1);
            self.metrics.connections_open.set(self.conns.len() as u64);
            self.metrics
                .connections_hwm
                .observe_max(self.conns.len() as u64);
        }
    }

    fn route_completions(&mut self) {
        while let Ok(completion) = self.completions.try_recv() {
            let Some(conn) = self.conns.get_mut(&completion.conn) else {
                continue; // connection died while the worker ran
            };
            if completion.seq >= conn.next_seq {
                continue; // stale id reuse guard (ids are unique, but stay safe)
            }
            conn.inflight = conn.inflight.saturating_sub(1);
            // A completed frame resets the idle clock in both
            // directions, not only on request arrival.
            conn.idle_deadline = Instant::now() + self.config.idle_timeout;
            self.sequence(
                completion.conn,
                completion.seq,
                Some(completion.payload),
                false,
            );
            self.update_pause(completion.conn);
        }
    }

    fn check_idle(&mut self, id: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if now >= conn.idle_deadline {
            if conn.inflight == 0 {
                self.metrics.idle_reaped.add(1);
                self.close(id);
                return;
            }
            // Requests in flight: not idle, just slow. Check again in one
            // timeout's time; the completion will reset the deadline.
            let deadline = now + self.config.idle_timeout;
            conn.idle_deadline = deadline;
            self.wheel.schedule(id, deadline);
        } else {
            let deadline = conn.idle_deadline;
            self.wheel.schedule(id, deadline);
        }
    }

    fn sweep_draining(&mut self) {
        let closable: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.inflight == 0
                    && c.unsent() == 0
                    && c.pending.is_empty()
                    && !c.assembler.mid_frame()
            })
            .map(|(&id, _)| id)
            .collect();
        for id in closable {
            self.close(id);
        }
    }

    fn close_if_done(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        let flushed = conn.unsent() == 0;
        let quiesced = conn.inflight == 0 && conn.pending.is_empty();
        if (conn.close_after_flush && flushed && quiesced)
            || (conn.peer_eof && flushed && quiesced && !conn.assembler.mid_frame())
        {
            self.close(id);
        }
    }

    fn close(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        let _ = self.poller.delete(&conn.stream);
        self.service.on_close(id);
        self.metrics.closed.add(1);
        self.metrics.connections_open.set(self.conns.len() as u64);
        let telemetry = chason_telemetry::global();
        telemetry.recorder().record(
            SpanEvent::new("net.connection", conn.opened_at, telemetry.clock().now())
                .attr("conn", id)
                .attr("frames_in", conn.frames_in)
                .attr("frames_out", conn.frames_out),
        );
    }

    /// Re-arms every connection whose armed interest no longer matches
    /// its desired interest (oneshot delivery, pause transitions, new
    /// write-buffer content).
    fn rearm_all_dirty(&mut self) {
        let mut broken: Vec<u64> = Vec::new();
        for (&id, conn) in &mut self.conns {
            let want = (conn.wants_read(), conn.wants_write());
            if conn.armed == Some(want) {
                continue;
            }
            let interest = Event {
                key: id as usize,
                readable: want.0,
                writable: want.1,
            };
            if self.poller.modify(&conn.stream, interest).is_err() {
                broken.push(id);
            } else {
                conn.armed = Some(want);
            }
        }
        for id in broken {
            self.close(id);
        }
    }
}
