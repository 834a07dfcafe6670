//! The TCP front end: accept loop, per-connection state machines, the
//! `/metrics` text endpoint, and graceful drain.
//!
//! ```text
//! accept thread ──▶ conn thread (reader) ──bounded channel──▶ writer thread
//!                        │ decode frame                        │ resolve handle
//!                        └─ Gateway::try_submit_* ─────────────┘ encode frame
//! ```
//!
//! Each connection is a pair of threads: the **reader** decodes frames
//! and submits to the gateway without waiting for results; the
//! **writer** resolves [`GatewayHandle`]s in submission order and writes
//! response frames. The channel between them is bounded at
//! `max_inflight`, so a client that pipelines faster than the engine
//! serves backpressures at the socket instead of growing a queue.
//!
//! Both sides move a pipelined burst per syscall, never per frame. The
//! reader owns a receive buffer (`FrameBuf`): one `read` takes
//! whatever the socket holds and every whole frame in it is parsed from
//! memory (the length prefix is still checked against `max_frame_bytes`
//! before the buffer grows for a payload, and the slow-loris clock of a
//! frame still starts at the `read` that delivered its first byte — the
//! same instant is its trace `received` stamp). The writer buffers
//! responses and flushes exactly when it would otherwise block: the
//! reply channel is empty, or the next reply's handle is not resolved
//! yet, and at exit. A response is never held across a block, so a
//! one-outstanding round trip costs the same syscalls as an unbuffered
//! server. Once a write fails the peer is gone: the writer keeps
//! resolving handles in order (the drain and the conservation laws need
//! every request accounted for) but encodes and writes nothing more.
//!
//! Shutdown mirrors the gateway's drop order, outermost layer first:
//! close the listener → stop reads at frame boundaries → resolve every
//! in-flight request (bounded by the drain deadline) → close the
//! submission ring → drain the engine. After [`NetServer::shutdown`]
//! returns, `Gateway::snapshot` is final and the lifecycle conservation
//! laws hold exactly — the e2e CI job scrapes and asserts them.

use crate::metrics::NetMetrics;
use crate::wire::{
    check_frame_len, decode_request, encode_response, InferenceRequest, Request, Response,
    ResponseBody, WireStatus, DEFAULT_MAX_FRAME_BYTES, LEN_PREFIX_BYTES,
};
use dp_gateway::{Admission, Gateway, GatewayError, GatewayHandle, SubmitOptions};
use dp_serve::{JobError, ModelKey};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads and handle waits wake up to check the
/// shutdown flag and the slow-loris clock.
const POLL_SLICE: Duration = Duration::from_millis(25);

/// Maps a terminal [`GatewayError`] onto its wire status. Every variant
/// has a distinct code — the client sees exactly the verdict the
/// gateway produced (see the README mapping table).
pub fn wire_status_of_error(e: &GatewayError) -> WireStatus {
    match e {
        GatewayError::Shed => WireStatus::Shed,
        GatewayError::Closed => WireStatus::Closed,
        GatewayError::DeadlineExceeded => WireStatus::DeadlineExceeded,
        GatewayError::Cancelled => WireStatus::Cancelled,
        GatewayError::Degraded => WireStatus::Degraded,
        GatewayError::Job(JobError::Panicked) => WireStatus::Failed,
        GatewayError::Job(JobError::Stalled) => WireStatus::Stalled,
        GatewayError::Job(JobError::Cancelled) => WireStatus::Cancelled,
    }
}

/// Configures and binds a [`NetServer`]. Start from
/// [`NetServer::builder`].
pub struct NetServerBuilder {
    gateway: Arc<Gateway>,
    max_frame_bytes: u32,
    max_connections: usize,
    max_inflight: usize,
    read_timeout: Duration,
    drain_deadline: Duration,
    allow_remote_shutdown: bool,
}

impl NetServerBuilder {
    /// Ceiling on a single frame's payload; oversized length prefixes
    /// are rejected before any buffer is allocated. Default 4 MiB.
    pub fn max_frame_bytes(mut self, bytes: u32) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Connection cap; further connections get [`WireStatus::Busy`] and
    /// are closed. Default 64.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    /// Per-connection pipelining bound: how many submitted-but-unwritten
    /// responses a connection may have before its reads backpressure.
    /// Default 16.
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n.max(1);
        self
    }

    /// Slow-loris guard: a frame whose first byte has arrived must
    /// complete within this window or the connection is closed with a
    /// protocol error. Idle connections (no partial frame) never time
    /// out. Default 2 s.
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t;
        self
    }

    /// Budget for resolving in-flight requests during shutdown; past it,
    /// unresolved requests are cancelled and answered
    /// [`WireStatus::Closed`]. Default 10 s.
    pub fn drain_deadline(mut self, t: Duration) -> Self {
        self.drain_deadline = t;
        self
    }

    /// Honour the shutdown opcode from clients (off by default — a
    /// production listener should not let any peer drain it).
    pub fn allow_remote_shutdown(mut self, allow: bool) -> Self {
        self.allow_remote_shutdown = allow;
        self
    }

    /// Binds the listener and starts the accept thread. Use port 0 to
    /// let the OS pick ([`NetServer::local_addr`] reports the result).
    pub fn bind(self, addr: impl ToSocketAddrs) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            gateway: self.gateway,
            metrics: NetMetrics::default(),
            // clock-ok: construction-time anchor for the /statusz uptime
            // line; never compared against serving-path stamps.
            started: Instant::now(),
            max_frame_bytes: self.max_frame_bytes,
            max_connections: self.max_connections,
            max_inflight: self.max_inflight,
            read_timeout: self.read_timeout,
            drain_deadline: self.drain_deadline,
            allow_remote_shutdown: self.allow_remote_shutdown,
            shutdown: AtomicBool::new(false),
            shutdown_at: Mutex::new(None),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            live_conns: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dp-net-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn accept thread") // panic-ok: thread spawn fails only on OS resource exhaustion at bind time
        };
        Ok(NetServer {
            shared,
            local_addr,
            accept: Mutex::new(Some(accept)),
        })
    }
}

struct Shared {
    gateway: Arc<Gateway>,
    metrics: NetMetrics,
    /// Bind time, for the `/statusz` uptime line.
    started: Instant,
    max_frame_bytes: u32,
    max_connections: usize,
    max_inflight: usize,
    read_timeout: Duration,
    drain_deadline: Duration,
    allow_remote_shutdown: bool,
    shutdown: AtomicBool,
    /// When the drain began; writers measure their budget from this.
    shutdown_at: Mutex<Option<Instant>>,
    /// Set by a remote shutdown opcode (or a local shutdown), watched by
    /// [`NetServer::wait_for_shutdown_request`].
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    live_conns: AtomicUsize,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        // Acquire (audited, was SeqCst): pairs with the Release store in
        // `drain`. Nothing is published through the flag (the drain
        // instant travels via `shutdown_at`'s mutex), but Acquire/Release
        // keeps the conventional flag idiom without SeqCst's total order,
        // which no site here compares against another atomic to need.
        self.shutdown.load(Ordering::Acquire)
    }

    fn drain_expired(&self) -> bool {
        // panic-ok: only poisoned if a drain path panicked mid-store;
        // the critical section is a plain Option write that cannot panic.
        match *self.shutdown_at.lock().expect("shutdown_at lock") {
            Some(t0) => t0.elapsed() >= self.drain_deadline,
            None => false,
        }
    }

    fn signal_shutdown_requested(&self) {
        // panic-ok: critical sections on this flag are single bool writes
        // that cannot panic; poisoning implies a torn unwinding already.
        let mut req = self.shutdown_requested.lock().expect("shutdown flag lock");
        *req = true;
        self.shutdown_cv.notify_all();
    }

    fn render_metrics(&self) -> String {
        let mut s = self.gateway.snapshot().to_prometheus();
        s.push_str(&self.metrics.to_prometheus());
        s
    }

    /// The `/statusz` body: uptime, build info, drain/degraded state,
    /// connection and queue occupancy, per-worker busy/idle, the
    /// queue-depth reservoir and recorder totals — the one-page "is this
    /// process healthy and why" view.
    fn render_statusz(&self) -> String {
        use std::fmt::Write as _;
        let gw = &self.gateway;
        let mut s = String::with_capacity(1024);
        let _ = writeln!(s, "dp_net statusz");
        let _ = writeln!(s, "version: {}", env!("CARGO_PKG_VERSION"));
        let _ = writeln!(s, "uptime_s: {}", self.started.elapsed().as_secs());
        let _ = writeln!(s, "draining: {}", self.shutting_down());
        let _ = writeln!(s, "degraded: {}", gw.is_degraded());
        let _ = writeln!(
            s,
            "connections: live {} / max {}",
            // relaxed-ok: debug occupancy read; see accept_loop's cap check.
            self.live_conns.load(Ordering::Relaxed),
            self.max_connections
        );
        let _ = writeln!(
            s,
            "queue: depth {} / capacity {}",
            gw.queue_depth(),
            gw.queue_capacity()
        );
        let engine = gw.engine();
        let stats = engine.stats();
        let _ = writeln!(
            s,
            "engine: workers {} jobs_run {} panics {} stalled {} respawned {}",
            stats.workers, stats.jobs_run, stats.panics, stats.stalled, stats.respawned
        );
        // Requests per engine dispatch: > 1 means the dispatcher coalesced
        // queued small requests into shared chunks.
        let coalesced = gw.metrics().coalesced.snapshot();
        let _ = writeln!(
            s,
            "coalesced: requests {} groups {} mean {:.2}",
            coalesced.sum_ns,
            coalesced.count(),
            coalesced.sum_ns as f64 / coalesced.count().max(1) as f64
        );
        for (i, busy) in engine.worker_busy_ms().iter().enumerate() {
            match busy {
                0 => {
                    let _ = writeln!(s, "worker[{i}]: idle");
                }
                ms => {
                    let _ = writeln!(s, "worker[{i}]: busy {ms}ms");
                }
            }
        }
        match gw.recorder() {
            Some(rec) => {
                let t = rec.stats();
                let _ = writeln!(
                    s,
                    "trace: begun {} terminals {} published {} slow {} dropped {} dup {}",
                    t.begun,
                    t.terminals_total(),
                    t.published,
                    t.slow_captured,
                    t.dropped_contended,
                    t.dup_terminals
                );
                match rec.queue_depth_summary() {
                    Some(d) => {
                        let _ = writeln!(
                            s,
                            "queue_depth_reservoir: min {} mean {:.1} max {} (n={})",
                            d.min, d.mean, d.max, d.count
                        );
                    }
                    None => {
                        let _ = writeln!(s, "queue_depth_reservoir: empty");
                    }
                }
            }
            None => {
                let _ = writeln!(s, "trace: disabled");
            }
        }
        s
    }
}

/// A bound TCP front end over a shared [`Gateway`].
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl NetServer {
    /// Starts configuring a server over `gateway`.
    pub fn builder(gateway: Arc<Gateway>) -> NetServerBuilder {
        NetServerBuilder {
            gateway,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_connections: 64,
            max_inflight: 16,
            read_timeout: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(10),
            allow_remote_shutdown: false,
        }
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The front end's own counters (the gateway keeps its own).
    pub fn metrics(&self) -> &NetMetrics {
        &self.shared.metrics
    }

    /// Gateway + net counters as one Prometheus text exposition — the
    /// same bytes `GET /metrics` serves.
    pub fn render_metrics(&self) -> String {
        self.shared.render_metrics()
    }

    /// Whether a shutdown has been requested (remotely or locally).
    pub fn shutdown_requested(&self) -> bool {
        *self
            .shared
            .shutdown_requested
            .lock()
            .expect("shutdown flag lock") // panic-ok: see `Shared::signal_shutdown_requested`
    }

    /// Blocks until a shutdown request arrives (remote opcode or a local
    /// [`NetServer::shutdown`]). The caller then performs the actual
    /// drain — typically `server.shutdown()`.
    pub fn wait_for_shutdown_request(&self) {
        let mut req = self
            .shared
            .shutdown_requested
            .lock()
            .expect("shutdown flag lock"); // panic-ok: see `Shared::signal_shutdown_requested`
        while !*req {
            req = self
                .shared
                .shutdown_cv
                .wait(req)
                .expect("shutdown condvar wait"); // panic-ok: see `Shared::signal_shutdown_requested`
        }
    }

    /// Graceful drain: stop accepting, stop reading at frame boundaries,
    /// resolve every in-flight request (bounded by the drain deadline),
    /// then close the gateway (ring, then engine). After this returns,
    /// [`Gateway::snapshot`] is final and conserved — and
    /// [`NetServer::render_metrics`] renders the settled totals, which
    /// is what the e2e CI job asserts conservation over. Idempotent;
    /// takes `&self` so callers can still render metrics afterwards.
    pub fn shutdown(&self) {
        self.drain(true);
    }

    fn drain(&self, close_gateway: bool) {
        // Release (audited, was SeqCst): pairs with the Acquire load in
        // `Shared::shutting_down`; see the note there.
        self.shared.shutdown.store(true, Ordering::Release);
        {
            // panic-ok: see `Shared::drain_expired`
            let mut at = self.shared.shutdown_at.lock().expect("shutdown_at lock");
            // clock-ok: real-time drain-budget anchor — shutdown must be
            // bounded in wall time even under a virtualized trace clock.
            at.get_or_insert_with(Instant::now);
        }
        self.shared.signal_shutdown_requested();
        // panic-ok: only poisoned if a concurrent drain panicked in `take`
        if let Some(h) = self.accept.lock().expect("accept handle lock").take() {
            // panic-ok: accept_loop handles every io::Error arm without
            // panicking — a panic there is a front-end bug worth surfacing.
            h.join().expect("accept thread never panics");
        }
        // panic-ok: the conns table's critical sections are Vec ops on
        // non-panicking paths; see `Shared::signal_shutdown_requested`.
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        for h in conns {
            // panic-ok: run_connection catches protocol errors as frames,
            // not panics; a panic is a front-end bug worth surfacing.
            h.join().expect("connection thread never panics");
        }
        if close_gateway {
            self.shared.gateway.close();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // Join our threads, but leave the (shared) gateway running: the
        // owner decides when serving as a whole ends.
        self.drain(false);
    }
}

// ---- accept loop -------------------------------------------------------

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutting_down() {
                    break;
                }
                let _ = stream.set_nodelay(true);
                // relaxed-ok: (audited, was SeqCst) only this accept
                // thread increments, so check-then-add cannot over-admit;
                // the count gates admission and orders no other data.
                if shared.live_conns.load(Ordering::Relaxed) >= shared.max_connections {
                    NetMetrics::inc(&shared.metrics.connections_rejected);
                    reject_busy(stream);
                    continue;
                }
                NetMetrics::inc(&shared.metrics.connections_accepted);
                shared.live_conns.fetch_add(1, Ordering::Relaxed); // relaxed-ok: see the cap check above
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("dp-net-conn".into())
                    .spawn(move || {
                        run_connection(stream, &conn_shared);
                        conn_shared.live_conns.fetch_sub(1, Ordering::Relaxed); // relaxed-ok: see the cap check in accept_loop
                        NetMetrics::inc(&conn_shared.metrics.connections_closed);
                    })
                    .expect("spawn connection thread"); // panic-ok: thread spawn fails only on OS resource exhaustion
                                                        // panic-ok: see `NetServer::drain`
                let mut conns = shared.conns.lock().expect("conns lock");
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.shutting_down() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Dropping the listener here closes it: step one of the drain.
}

fn reject_busy(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let frame = encode_response(&Response {
        id: 0,
        body: ResponseBody::Rejected {
            status: WireStatus::Busy,
            detail: "connection cap reached".into(),
        },
    });
    let _ = stream.write_all(&frame);
}

// ---- per-connection reader ---------------------------------------------

/// What the reader hands the writer, in request order.
enum Reply {
    /// An admitted forward request: resolve the handle, then encode.
    Forward(u64, GatewayHandle<Vec<u32>>),
    /// An admitted classify request: resolve the handle, then encode.
    Classify(u64, GatewayHandle<usize>),
    /// Already decided (rejections, shutdown acks): encode and write.
    Ready(Response),
    /// Pre-rendered bytes (the HTTP `/metrics` response).
    Raw(Vec<u8>),
}

enum ReadOutcome {
    Done,
    Eof,
    ShutdownFlag,
    TimedOut,
    Failed,
}

/// Receive-buffer size a connection starts with; it grows only for a
/// frame larger than this (already checked against `max_frame_bytes`).
const RECV_BUF_BYTES: usize = 16 << 10;

/// A connection's receive side: the socket plus a buffer that one `read`
/// fills with as many pipelined frames as the kernel has.
///
/// `clock` is the slow-loris clock of the frame at the front of the
/// buffer: the instant of the `read` that delivered its first byte, kept
/// while the frame is only partially buffered. A frame must arrive whole
/// within `read_timeout` of it, while a connection idling *between*
/// frames (empty buffer) waits indefinitely (until shutdown).
struct FrameBuf {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[pos..filled]`.
    pos: usize,
    filled: usize,
    clock: Option<Instant>,
    /// When the latest `read` returned — the first-byte instant of
    /// whatever frame starts in the bytes it delivered.
    last_read: Option<Instant>,
}

impl FrameBuf {
    fn new(stream: TcpStream) -> Self {
        FrameBuf {
            stream,
            buf: vec![0; RECV_BUF_BYTES],
            pos: 0,
            filled: 0,
            clock: None,
            last_read: None,
        }
    }

    fn buffered(&self) -> &[u8] {
        &self.buf[self.pos..self.filled]
    }

    /// Drops `n` bytes off the front; the next frame's clock is the read
    /// that delivered its first byte, if that byte is already here.
    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self.pos < self.filled {
            self.clock = self.last_read;
        } else {
            (self.pos, self.filled, self.clock) = (0, 0, None);
            // An oversized frame's room is not kept once it is served.
            if self.buf.len() > RECV_BUF_BYTES {
                self.buf.truncate(RECV_BUF_BYTES);
                self.buf.shrink_to_fit();
            }
        }
    }

    /// Blocks until at least `want` unconsumed bytes are buffered, taking
    /// everything the socket offers on the way. The caller has bounded
    /// `want` (a checked frame length or the HTTP head cap).
    fn fill(&mut self, want: usize, shared: &Shared) -> ReadOutcome {
        while self.filled - self.pos < want {
            // What is left is less than one frame: move it to the front
            // so the read below has the whole buffer to fill.
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.filled, 0);
                (self.pos, self.filled) = (0, self.filled - self.pos);
            }
            if want > self.buf.len() {
                self.buf.resize(want, 0);
            }
            match self.stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => {
                    // clock-ok: slow-loris guard — a wall-clock bound on hostile
                    // peers; doubles as the trace timeline's receive stamp.
                    self.last_read = Some(Instant::now());
                    self.clock = self.clock.or(self.last_read);
                    self.filled += n;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if shared.shutting_down() {
                        return ReadOutcome::ShutdownFlag;
                    }
                    if self
                        .clock
                        .is_some_and(|t0| t0.elapsed() >= shared.read_timeout)
                    {
                        return ReadOutcome::TimedOut;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Failed,
            }
        }
        ReadOutcome::Done
    }
}

fn run_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL_SLICE));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = std::sync::mpsc::sync_channel::<Reply>(shared.max_inflight);
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("dp-net-write".into())
            .spawn(move || write_loop(write_half, rx, &shared))
            .expect("spawn connection writer") // panic-ok: thread spawn fails only on OS resource exhaustion
    };

    read_loop(&mut FrameBuf::new(stream), &tx, shared);

    // Reader done (EOF, protocol error, or shutdown): close the intake
    // side so the writer drains what is in flight and exits.
    drop(tx);
    // panic-ok: write_loop treats every io::Error as connection death
    // without panicking; a panic is a front-end bug worth surfacing.
    writer.join().expect("connection writer never panics");
}

fn read_loop(rx: &mut FrameBuf, tx: &SyncSender<Reply>, shared: &Arc<Shared>) {
    loop {
        match rx.fill(LEN_PREFIX_BYTES, shared) {
            ReadOutcome::Done => {}
            ReadOutcome::TimedOut => {
                NetMetrics::inc(&shared.metrics.read_timeouts);
                protocol_error(tx, shared, 0, "frame header timed out".into());
                return;
            }
            _ => return,
        }
        let mut hdr = [0u8; LEN_PREFIX_BYTES];
        hdr.copy_from_slice(&rx.buffered()[..LEN_PREFIX_BYTES]);
        if &hdr == b"GET " {
            // An HTTP scrape. Unambiguous: as a length prefix these four
            // bytes would claim a ~0.5 GiB frame, far over any sane cap.
            serve_http(rx, tx, shared);
            return;
        }
        // Checked before the buffer grows for the payload.
        let len = match check_frame_len(u32::from_le_bytes(hdr), shared.max_frame_bytes) {
            Ok(len) => len,
            Err(e) => {
                NetMetrics::inc(&shared.metrics.oversized_frames);
                protocol_error(tx, shared, 0, e.to_string());
                return;
            }
        };
        match rx.fill(LEN_PREFIX_BYTES + len, shared) {
            ReadOutcome::Done => {}
            ReadOutcome::TimedOut => {
                NetMetrics::inc(&shared.metrics.read_timeouts);
                protocol_error(tx, shared, 0, "frame body timed out".into());
                return;
            }
            ReadOutcome::Eof => {
                // A torn frame is a protocol violation even though the
                // peer is gone; count it so truncation is observable.
                NetMetrics::inc(&shared.metrics.protocol_errors);
                return;
            }
            _ => return,
        }
        NetMetrics::inc(&shared.metrics.frames_read);
        let decoded = decode_request(&rx.buffered()[LEN_PREFIX_BYTES..LEN_PREFIX_BYTES + len]);
        // The slow-loris clock started at the frame's first byte — that
        // same instant is the trace timeline's "received" stamp.
        let received = rx.clock;
        rx.consume(LEN_PREFIX_BYTES + len);
        let req = match decoded {
            Ok(req) => req,
            Err(e) => {
                protocol_error(tx, shared, 0, e.to_string());
                return;
            }
        };
        if !handle_request(req, tx, shared, received) {
            return;
        }
    }
}

/// Counts and answers a malformed frame, after which the caller closes
/// the connection (its framing state is no longer trustworthy).
fn protocol_error(tx: &SyncSender<Reply>, shared: &Shared, id: u64, detail: String) {
    NetMetrics::inc(&shared.metrics.protocol_errors);
    let _ = tx.send(Reply::Ready(Response {
        id,
        body: ResponseBody::Rejected {
            status: WireStatus::ProtocolError,
            detail,
        },
    }));
}

/// Submits one decoded request. Returns `false` when the connection
/// should close (writer backpressure channel gone).
fn handle_request(
    req: Request,
    tx: &SyncSender<Reply>,
    shared: &Arc<Shared>,
    received: Option<Instant>,
) -> bool {
    let reply = match req {
        Request::Shutdown { id } => {
            if shared.allow_remote_shutdown {
                NetMetrics::inc(&shared.metrics.shutdown_requests);
                shared.signal_shutdown_requested();
                Reply::Ready(Response {
                    id,
                    body: ResponseBody::ShutdownOk,
                })
            } else {
                Reply::Ready(Response {
                    id,
                    body: ResponseBody::Rejected {
                        status: WireStatus::Unsupported,
                        detail: "remote shutdown is disabled on this listener".into(),
                    },
                })
            }
        }
        Request::Forward(r) => {
            let (id, key, xs, opts) = prepare(&shared.metrics, r, received);
            match shared.gateway.try_submit_forward_opts(&key, xs, opts) {
                Admission::Admitted(h) => Reply::Forward(id, h),
                other => Reply::Ready(rejection(id, &other)),
            }
        }
        Request::Classify(r) => {
            let (id, key, xs, opts) = prepare(&shared.metrics, r, received);
            match shared.gateway.try_submit_classify_opts(&key, xs, opts) {
                Admission::Admitted(h) => Reply::Classify(id, h),
                other => Reply::Ready(rejection(id, &other)),
            }
        }
    };
    // A blocking send is the per-connection inflight bound: when the
    // writer is `max_inflight` responses behind, reads stall right here
    // and TCP backpressures the client.
    tx.send(reply).is_ok()
}

fn prepare(
    metrics: &NetMetrics,
    r: InferenceRequest,
    received: Option<Instant>,
) -> (u64, ModelKey, Vec<Vec<f32>>, SubmitOptions) {
    NetMetrics::inc(&metrics.requests);
    let key = ModelKey::new(r.model, r.format);
    let mut opts = SubmitOptions::new();
    if r.deadline_ms > 0 {
        opts = opts.deadline_in(Duration::from_millis(u64::from(r.deadline_ms)));
    }
    // Wire identity for the flight recorder: `/tracez` timelines carry
    // the client's request id, starting at the frame-receive stamp.
    opts.trace_id = Some(r.id);
    opts.received = received;
    (r.id, key, r.xs, opts)
}

/// Maps an `Admission` rejection onto its wire verdict.
fn rejection<T>(id: u64, adm: &Admission<T>) -> Response {
    let (status, detail) = match adm {
        Admission::Admitted(_) => unreachable!("admitted requests carry handles"),
        Admission::QueueFull => (WireStatus::QueueFull, "submission ring full".into()),
        Admission::RateLimited => (WireStatus::RateLimited, "model rate limit exceeded".into()),
        Admission::ModelUnknown(key) => (WireStatus::ModelUnknown, format!("no model {key}")),
        Admission::Unsupported(what) => (WireStatus::Unsupported, what.clone()),
        Admission::Closed => (WireStatus::Closed, "gateway closed".into()),
        Admission::Degraded => (WireStatus::Degraded, "serving engine degraded".into()),
    };
    Response {
        id,
        body: ResponseBody::Rejected { status, detail },
    }
}

// ---- HTTP /metrics -----------------------------------------------------

fn serve_http(rx: &mut FrameBuf, tx: &SyncSender<Reply>, shared: &Arc<Shared>) {
    // Buffer the head (capped) up to the blank line, on the same
    // slow-loris clock as binary frames; then skip the "GET ".
    const HEAD_CAP: usize = 8192;
    let head_end = loop {
        let have = rx.buffered();
        if let Some(at) = have.windows(4).position(|w| w == b"\r\n\r\n") {
            break at;
        }
        if have.len() >= HEAD_CAP {
            break have.len();
        }
        let want = have.len() + 1;
        if !matches!(rx.fill(want, shared), ReadOutcome::Done) {
            return;
        }
    };
    let head = &rx.buffered()[4..head_end];
    // The first token is the request target including any query string
    // (`/tracez?format=json` arrives as one token).
    let path = head
        .split(|&b| b == b' ')
        .next()
        .map(|p| String::from_utf8_lossy(p).into_owned())
        .unwrap_or_default();
    const TEXT: &str = "text/plain; version=0.0.4";
    let (status_line, content_type, body) = if path.starts_with("/metrics") {
        NetMetrics::inc(&shared.metrics.http_scrapes);
        ("HTTP/1.1 200 OK", TEXT, shared.render_metrics())
    } else if path.starts_with("/tracez") {
        NetMetrics::inc(&shared.metrics.http_scrapes);
        // `?slow` restricts the listing to slow exemplars; composes with
        // `format=json` (`/tracez?format=json&slow`).
        let slow_only = path
            .split_once('?')
            .is_some_and(|(_, q)| q.split('&').any(|p| p == "slow" || p == "slow=1"));
        match shared.gateway.recorder() {
            Some(rec) if path.contains("format=json") => (
                "HTTP/1.1 200 OK",
                "application/json",
                rec.render_json(slow_only),
            ),
            Some(rec) => ("HTTP/1.1 200 OK", TEXT, rec.render_text(slow_only)),
            None => (
                "HTTP/1.1 404 Not Found",
                TEXT,
                "tracing disabled (gateway built with TraceConfig::off)\n".to_string(),
            ),
        }
    } else if path.starts_with("/statusz") {
        NetMetrics::inc(&shared.metrics.http_scrapes);
        ("HTTP/1.1 200 OK", TEXT, shared.render_statusz())
    } else if path.starts_with("/healthz") {
        // Readiness: a draining or degraded process should fall out of
        // its load balancer before requests start bouncing.
        NetMetrics::inc(&shared.metrics.http_scrapes);
        if shared.shutting_down() {
            (
                "HTTP/1.1 503 Service Unavailable",
                TEXT,
                "draining\n".to_string(),
            )
        } else if shared.gateway.is_degraded() {
            (
                "HTTP/1.1 503 Service Unavailable",
                TEXT,
                "degraded\n".to_string(),
            )
        } else {
            ("HTTP/1.1 200 OK", TEXT, "ok\n".to_string())
        }
    } else {
        ("HTTP/1.1 404 Not Found", TEXT, "not found\n".to_string())
    };
    let resp = format!(
        "{status_line}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = tx.send(Reply::Raw(resp.into_bytes()));
}

// ---- per-connection writer ---------------------------------------------

impl Reply {
    /// Whether turning this reply into bytes can block (its handle has
    /// not resolved yet).
    fn would_block(&self) -> bool {
        match self {
            Reply::Forward(_, h) => !h.is_done(),
            Reply::Classify(_, h) => !h.is_done(),
            Reply::Ready(_) | Reply::Raw(_) => false,
        }
    }
}

/// Buffered responses are pushed out once they reach this size even if
/// more are ready, which bounds the writer's memory.
const SEND_BUF_BYTES: usize = 64 << 10;

/// A connection's send side: response bytes waiting for the next flush.
struct SendBuf {
    stream: TcpStream,
    bytes: Vec<u8>,
    /// Response frames in `bytes` (`frames_written` counts them once the
    /// kernel has taken them).
    frames: u64,
    /// Set by the first failed write: the peer went away, nothing more
    /// is encoded or written.
    peer_gone: bool,
}

impl SendBuf {
    fn flush(&mut self, metrics: &NetMetrics) {
        if self.bytes.is_empty() || self.peer_gone {
            return;
        }
        match self.stream.write_all(&self.bytes) {
            Ok(()) => NetMetrics::add(&metrics.frames_written, self.frames),
            Err(_) => self.peer_gone = true,
        }
        self.bytes.clear();
        self.frames = 0;
    }
}

fn write_loop(stream: TcpStream, rx: Receiver<Reply>, shared: &Shared) {
    let mut out = SendBuf {
        stream,
        bytes: Vec::new(),
        frames: 0,
        peer_gone: false,
    };
    loop {
        // Flush exactly when about to block — on an empty channel here,
        // on an unresolved handle below — so a burst of ready replies
        // leaves in one write and no response is held across a wait.
        let reply = match rx.try_recv() {
            Ok(reply) => reply,
            Err(TryRecvError::Empty) => {
                out.flush(&shared.metrics);
                match rx.recv() {
                    Ok(reply) => reply,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        if reply.would_block() || out.bytes.len() >= SEND_BUF_BYTES {
            out.flush(&shared.metrics);
        }
        // A dead peer's handles are still resolved, in order (the drain
        // waits on them and the conservation laws need every request
        // accounted for); their responses are just never built.
        let response = match reply {
            Reply::Raw(bytes) => {
                out.bytes.extend_from_slice(&bytes);
                continue;
            }
            Reply::Ready(resp) => resp,
            Reply::Forward(id, h) => Response {
                id,
                body: resolve(&h, shared, ResponseBody::ForwardOk),
            },
            Reply::Classify(id, h) => Response {
                id,
                body: resolve(&h, shared, |classes| {
                    ResponseBody::ClassifyOk(classes.into_iter().map(|c| c as u32).collect())
                }),
            },
        };
        if !out.peer_gone {
            out.bytes.extend_from_slice(&encode_response(&response));
            out.frames += 1;
        }
    }
    out.flush(&shared.metrics);
}

/// Resolves one admitted request. Blocks in shutdown-aware slices: under
/// normal operation the gateway's own deadline/watchdog machinery
/// guarantees resolution; during a drain the remaining budget is the
/// drain deadline, past which the request is cancelled and reported
/// [`WireStatus::Closed`].
fn resolve<T: Clone>(
    h: &GatewayHandle<T>,
    shared: &Shared,
    ok: impl FnOnce(Vec<T>) -> ResponseBody,
) -> ResponseBody {
    loop {
        if let Some(result) = h.wait_timeout(POLL_SLICE) {
            return match result {
                Ok(v) => ok(v),
                Err(e) => ResponseBody::Rejected {
                    status: wire_status_of_error(&e),
                    detail: e.to_string(),
                },
            };
        }
        if shared.shutting_down() && shared.drain_expired() {
            h.cancel();
            // The cancel resolves the handle; report what actually
            // happened to it (usually Cancelled) rather than guessing.
            let result = h.wait();
            return match result {
                Ok(v) => ok(v),
                Err(e) => ResponseBody::Rejected {
                    status: wire_status_of_error(&e),
                    detail: format!("drain deadline passed: {e}"),
                },
            };
        }
    }
}
