//! The networked workloads: an in-process `NetServer` over a `Gateway`
//! with one worker, driven by two client threads over loopback TCP, each
//! keeping sixteen requests in flight on one connection (a closed loop
//! with a sliding window). Clients speak the wire protocol directly —
//! raw `TcpStream` plus the `dp_net::wire` codec — so the load generator
//! adds as little of its own as it can.

use crate::env;
use crate::estimator::{median_of, summarize, OpLog, SLICE_NS};
use crate::gen::RequestSpec;
use crate::replay;
use crate::report::{Outcome, Tally};
use crate::setup::Model;
use crate::spans::{self, SpanBuf, SPAN_CAPACITY};
use crate::spec::Workload;
use crate::RunArgs;
use dp_gateway::{Admission, Gateway, TerminalKind, TraceConfig};
use dp_net::wire::{
    decode_request, decode_response, encode_request, encode_response, InferenceRequest, Request,
    Response, ResponseBody, LEN_PREFIX_BYTES,
};
use dp_net::NetServer;
use dp_serve::ModelKey;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Client threads, one connection each.
const CLIENTS: usize = 2;
/// Requests each connection keeps in flight (the server's per-connection
/// bound, so the socket never backpressures).
const DEPTH: usize = 16;
/// Samples per chunk job inside the engine.
const CHUNK_SAMPLES: usize = 16;
/// Warm-up requests per client before the window opens.
const WARM_REQUESTS: usize = 512;
/// Calls per rung of the boundary ladder (after a tenth as many warm-up
/// calls).
const LADDER_CALLS: usize = 2000;
/// Most requests per second per client the latency buffer is sized for.
const MAX_OPS_PER_S: f64 = 100_000.0;

/// The server side: gateway, listener and the registered model keys.
struct Stack {
    gw: Arc<Gateway>,
    server: NetServer,
    keys: Vec<ModelKey>,
}

impl Stack {
    /// Builds the gateway (default flight-recorder sampling unless
    /// `trace` says otherwise), registers the model in its three formats
    /// and binds a loopback listener. Also returns the milliseconds each
    /// registration took (it constructs the format's EMACs).
    fn start(model: &Model, trace: Option<TraceConfig>) -> (Stack, Vec<f64>) {
        let mut builder = Gateway::builder()
            .workers(1)
            .chunk_samples(CHUNK_SAMPLES)
            .queue_capacity(128);
        if let Some(cfg) = trace {
            builder = builder.trace(cfg);
        }
        let gw = Arc::new(builder.build());
        let (keys, register_ms) = model
            .nets
            .iter()
            .map(|net| {
                let t = Instant::now();
                let key = gw
                    .registry()
                    .register(model.name, net.clone())
                    .expect("the trio has EMAC datapaths");
                (key, t.elapsed().as_secs_f64() * 1e3)
            })
            .unzip();
        let server = NetServer::builder(Arc::clone(&gw))
            .max_inflight(DEPTH)
            .bind("127.0.0.1:0")
            .expect("bind a loopback listener");
        (Stack { gw, server, keys }, register_ms)
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Drains the listener and closes the gateway.
    fn stop(self) {
        self.server.shutdown();
    }
}

/// The wire request for one generated request; its id is its position in
/// the stream.
fn wire_request(model: &Model, w: &Workload, keys: &[ModelKey], id: usize) -> Request {
    let spec = &model.stream[id];
    let body = InferenceRequest {
        id: id as u64,
        model: keys[spec.format].name().to_string(),
        format: keys[spec.format].format().to_string(),
        deadline_ms: 0,
        xs: model.rows(spec),
    };
    if w.classify {
        Request::Classify(body)
    } else {
        Request::Forward(body)
    }
}

/// Samples of `spec` an answer gets wrong, whichever boundary gave it: a
/// missing answer, a rejection or a body of the wrong kind fails every
/// sample.
fn wrong_in_body(model: &Model, spec: &RequestSpec, body: Option<&ResponseBody>) -> u64 {
    match body {
        Some(ResponseBody::ForwardOk(rows)) => model.wrong_bits_rows(spec, rows),
        Some(ResponseBody::ClassifyOk(classes)) => model.wrong_classes(spec, classes),
        _ => spec.samples.len() as u64,
    }
}

/// [`wrong_in_body`] for a wire response, which must also echo `id`.
fn wrong_in_response(model: &Model, spec: &RequestSpec, id: usize, resp: Option<&Response>) -> u64 {
    let body = resp.filter(|r| r.id == id as u64).map(|r| &r.body);
    wrong_in_body(model, spec, body)
}

/// In-process classify results in the wire's terms.
fn classify_body(classes: Vec<usize>) -> ResponseBody {
    ResponseBody::ClassifyOk(classes.iter().map(|&c| c as u32).collect())
}

/// One connection with a hand-rolled frame reader.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    filled: usize,
    pos: usize,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 << 10],
            filled: 0,
            pos: 0,
        })
    }

    /// The payload range of the next whole buffered frame.
    fn buffered_frame(&self) -> Option<(usize, usize)> {
        let avail = &self.buf[self.pos..self.filled];
        let prefix: [u8; LEN_PREFIX_BYTES] = avail.get(..LEN_PREFIX_BYTES)?.try_into().ok()?;
        let len = u32::from_le_bytes(prefix) as usize;
        let start = self.pos + LEN_PREFIX_BYTES;
        (avail.len() >= LEN_PREFIX_BYTES + len).then_some((start, start + len))
    }

    /// Blocks until a whole frame is buffered.
    fn fill_frame(&mut self) -> io::Result<()> {
        while self.buffered_frame().is_none() {
            if self.pos == self.filled {
                self.pos = 0;
                self.filled = 0;
            } else if self.filled == self.buf.len() {
                if self.pos == 0 {
                    self.buf.resize(self.buf.len() * 2, 0);
                } else {
                    self.buf.copy_within(self.pos..self.filled, 0);
                    self.filled -= self.pos;
                    self.pos = 0;
                }
            }
            match self.stream.read(&mut self.buf[self.filled..])? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.filled += n,
            }
        }
        Ok(())
    }

    /// Pops the next buffered frame's payload, if a whole one is there.
    fn pop_frame(&mut self) -> Option<&[u8]> {
        let (start, end) = self.buffered_frame()?;
        self.pos = end;
        Some(&self.buf[start..end])
    }
}

/// When a client phase stops sending.
#[derive(Clone, Copy)]
enum Stop {
    AfterRequests(usize),
    At(Instant),
}

/// What a client shares with its peers: the model, the pre-encoded
/// frames (untraced sends) and the requests (traced sends encode each).
struct Traffic<'a> {
    model: &'a Model,
    frames: &'a [Vec<u8>],
    requests: &'a [Request],
}

/// One client thread's state.
struct Client<'a> {
    traffic: &'a Traffic<'a>,
    conn: Conn,
    /// This client's share of the stream: `index, index + CLIENTS, ...`.
    index: usize,
    next: usize,
    outstanding: VecDeque<(usize, Instant, Instant, u64)>,
    seq: u64,
    tally: Tally,
}

impl<'a> Client<'a> {
    fn new(traffic: &'a Traffic<'a>, addr: SocketAddr, index: usize) -> io::Result<Client<'a>> {
        Ok(Client {
            traffic,
            conn: Conn::connect(addr)?,
            index,
            next: index,
            outstanding: VecDeque::with_capacity(DEPTH),
            seq: 0,
            tally: Tally::default(),
        })
    }

    fn send_next(&mut self, spans: &mut Option<&mut SpanBuf>) -> io::Result<()> {
        let id = self.next;
        self.next = (self.next + CLIENTS) % self.traffic.frames.len();
        self.seq += 1;
        let req = self.seq * CLIENTS as u64 + self.index as u64;
        let begun = Instant::now();
        let sent = match spans {
            Some(spans) => {
                let frame = encode_request(&self.traffic.requests[id]);
                let encoded = Instant::now();
                self.conn.stream.write_all(&frame)?;
                spans.record(spans::ENCODE, begun, encoded, req);
                spans.record(spans::SEND, encoded, Instant::now(), req);
                encoded
            }
            None => {
                self.conn.stream.write_all(&self.traffic.frames[id])?;
                begun
            }
        };
        self.outstanding.push_back((id, begun, sent, req));
        Ok(())
    }

    /// Runs the sliding window until `stop`, then drains what is in
    /// flight. Completions inside the window are logged relative to
    /// `opened`.
    fn drive(
        &mut self,
        stop: Stop,
        opened: Instant,
        mut log: Option<&mut OpLog>,
        mut spans: Option<&mut SpanBuf>,
    ) -> io::Result<()> {
        let mut sent = 0usize;
        let mut may_send = move || {
            let go = match stop {
                Stop::AfterRequests(n) => sent < n,
                Stop::At(t) => Instant::now() < t,
            };
            sent += usize::from(go);
            go
        };
        let samples = self.traffic.model.stream[0].samples.len() as u64;
        loop {
            while self.outstanding.len() < DEPTH && may_send() {
                self.send_next(&mut spans)?;
            }
            let Some(&(_, _, _, waiting_for)) = self.outstanding.front() else {
                return Ok(());
            };
            let wait_from = Instant::now();
            self.conn.fill_frame()?;
            let arrived = Instant::now();
            if let Some(spans) = spans.as_deref_mut() {
                spans.record(spans::WAIT, wait_from, arrived, waiting_for);
            }
            while let Some(payload) = self.conn.pop_frame() {
                let decoded = decode_response(payload);
                let Some((id, begun, sent_at, req)) = self.outstanding.pop_front() else {
                    return Err(io::Error::other("response without a request"));
                };
                let spec = &self.traffic.model.stream[id];
                let answer = decoded.as_ref().ok();
                self.tally
                    .note(wrong_in_response(self.traffic.model, spec, id, answer));
                if let Some(spans) = spans.as_deref_mut() {
                    let verified = Instant::now();
                    spans.record(spans::DECODE, arrived, verified, req);
                    spans.record(spans::REQUEST, begun, verified, req);
                }
                if let Some(log) = log.as_deref_mut() {
                    log.record(
                        (arrived - opened).as_nanos() as u64,
                        (arrived - sent_at).as_nanos() as u64,
                        samples,
                    );
                }
                if may_send() {
                    self.send_next(&mut spans)?;
                }
            }
        }
    }
}

/// What one client thread reports.
struct ClientReport {
    log: OpLog,
    tally: Tally,
    cpu_ns: u64,
    spans: Option<SpanBuf>,
    error: Option<io::Error>,
}

/// What one traffic phase (warm-up + window) produced.
struct Phase {
    reports: Vec<ClientReport>,
    /// When the window opened (the barrier released).
    opened: Instant,
    process_cpu_ns: u64,
    busy_share: f64,
}

/// Runs warm-up and one `slices`-slice window of saturating traffic from
/// [`CLIENTS`] threads; with a `span_epoch`, every client records spans on
/// that clock and the calling thread samples the engine's worker for its
/// busy share.
fn traffic_phase(
    traffic: &Traffic,
    stack: &Stack,
    slices: usize,
    span_epoch: Option<Instant>,
) -> Phase {
    let window = Duration::from_nanos(slices as u64 * SLICE_NS);
    let capacity = (MAX_OPS_PER_S * window.as_secs_f64()) as usize;
    let barrier = Barrier::new(CLIENTS + 1);
    let addr = stack.addr();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = OpLog::new(slices, capacity);
                    let mut error = None;
                    let mut client = Client::new(traffic, addr, index)
                        .map_err(|e| error = Some(e))
                        .ok();
                    if let Some(c) = client.as_mut() {
                        let warm = Stop::AfterRequests(WARM_REQUESTS);
                        error = c.drive(warm, Instant::now(), None, None).err();
                    }
                    // Reached on every path: the other threads wait here too.
                    barrier.wait();
                    let opened = Instant::now();
                    let mut spans =
                        span_epoch.map(|epoch| SpanBuf::new(epoch, SPAN_CAPACITY / 2 / CLIENTS));
                    let cpu = env::thread_cpu_ns();
                    if let (Some(c), None) = (client.as_mut(), &error) {
                        let stop = Stop::At(opened + window);
                        error = c.drive(stop, opened, Some(&mut log), spans.as_mut()).err();
                    }
                    log.finish();
                    let cpu_ns = env::thread_cpu_ns() - cpu;
                    // A connection that never opened is one failed attempt;
                    // requests still in flight after an error failed too.
                    let mut tally = client.as_ref().map_or(Tally::default(), |c| c.tally);
                    let lost = client.map_or(1, |c| c.outstanding.len());
                    for _ in 0..lost {
                        tally.note(1);
                    }
                    ClientReport {
                        log,
                        tally,
                        cpu_ns,
                        spans,
                        error,
                    }
                })
            })
            .collect();
        barrier.wait();
        let opened = Instant::now();
        let cpu = env::process_cpu_ns();
        let (mut busy, mut polls) = (0u64, 0u64);
        if span_epoch.is_some() {
            // `worker_busy_ms` is 0 for an idle worker: poll it through the
            // window and report the share of polls that found it busy.
            while opened.elapsed() < window {
                std::thread::sleep(Duration::from_micros(500));
                polls += 1;
                busy += u64::from(stack.gw.engine().worker_busy_ms().iter().any(|&ms| ms > 0));
            }
        }
        let reports = clients
            .into_iter()
            .map(|c| c.join().expect("client threads do not panic"))
            .collect();
        Phase {
            reports,
            opened,
            process_cpu_ns: env::process_cpu_ns() - cpu,
            busy_share: busy as f64 / polls.max(1) as f64,
        }
    })
}

/// Folds a phase's client reports into the outcome.
fn account(out: &mut Outcome, phase: &Phase) {
    for r in &phase.reports {
        out.tally.add(r.tally);
        if let Some(e) = &r.error {
            out.notes.push(format!("client_error={e}"));
        }
    }
}

/// Median nanoseconds of `f`, each timing covering `reps` calls.
fn median_ns(calls: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut time = || {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_nanos() as f64 / reps as f64
    };
    for _ in 0..calls / 10 {
        time();
    }
    let mut ns: Vec<f64> = (0..calls).map(|_| time()).collect();
    median_of(&mut ns)
}

/// The boundary ladder for this workload's request shape, one request
/// outstanding: `ServeEngine::submit_*().wait()`, then
/// `Gateway::try_submit_*().wait()`, then a loopback round trip — plus
/// the gateway's unknown-model verdict. Returns the rung medians and the
/// tally of the calls made.
fn ladder(
    model: &Model,
    w: &Workload,
    stack: &Stack,
    traffic: &Traffic,
) -> (Vec<(String, f64)>, Tally) {
    let n = model.stream.len();
    let mut tally = Tally::default();
    let mut i = 0usize;
    let engine = stack.gw.engine();
    let serve_ns = median_ns(LADDER_CALLS, 1, || {
        let spec = &model.stream[i % n];
        let (key, xs) = (&stack.keys[spec.format], model.rows(spec));
        let body = if w.classify {
            let done = engine.submit_classify(key, xs).ok();
            done.and_then(|h| h.wait().ok()).map(classify_body)
        } else {
            let done = engine.submit_forward(key, xs).ok();
            done.and_then(|h| h.wait().ok())
                .map(ResponseBody::ForwardOk)
        };
        tally.note(wrong_in_body(model, spec, body.as_ref()));
        i += 1;
    });
    let gateway_ns = median_ns(LADDER_CALLS, 1, || {
        let spec = &model.stream[i % n];
        let (key, xs) = (&stack.keys[spec.format], model.rows(spec));
        let body = if w.classify {
            let done = stack.gw.try_submit_classify(key, xs).handle();
            done.and_then(|h| h.wait().ok()).map(classify_body)
        } else {
            let done = stack.gw.try_submit_forward(key, xs).handle();
            done.and_then(|h| h.wait().ok())
                .map(ResponseBody::ForwardOk)
        };
        tally.note(wrong_in_body(model, spec, body.as_ref()));
        i += 1;
    });
    let ghost = ModelKey::new("ghost", stack.keys[0].format());
    let reject_ns = median_ns(LADDER_CALLS, 1, || {
        let xs = model.rows(&model.stream[0]);
        let verdict = stack.gw.try_submit_classify(&ghost, xs);
        tally.note(u64::from(!matches!(verdict, Admission::ModelUnknown(_))));
    });
    let mut conn = Conn::connect(stack.addr()).ok();
    let net_ns = median_ns(LADDER_CALLS, 1, || {
        let id = i % n;
        let spec = &model.stream[id];
        let round_trip = conn.as_mut().and_then(|c| {
            c.stream.write_all(&traffic.frames[id]).ok()?;
            c.fill_frame().ok()?;
            decode_response(c.pop_frame()?).ok()
        });
        tally.note(wrong_in_response(model, spec, id, round_trip.as_ref()));
        i += 1;
    });
    let rungs = vec![
        ("serve.request_ns".to_string(), serve_ns),
        ("gateway.request_ns".into(), gateway_ns),
        ("gateway.added_ns_per_request".into(), gateway_ns - serve_ns),
        ("gateway.reject_ns".into(), reject_ns),
        ("net.request_ns".into(), net_ns),
        ("net.added_ns_per_request".into(), net_ns - gateway_ns),
    ];
    (rungs, tally)
}

/// Pure codec cost and exact frame sizes for this workload's request
/// shape.
fn codec(model: &Model, w: &Workload, traffic: &Traffic) -> Vec<(String, f64)> {
    let spec = &model.stream[0];
    let request = &traffic.requests[0];
    let request_frame = &traffic.frames[0];
    let response = Response {
        id: 0,
        body: if w.classify {
            ResponseBody::ClassifyOk(
                spec.samples
                    .iter()
                    .map(|&s| model.oracle_class[spec.format][s])
                    .collect(),
            )
        } else {
            ResponseBody::ForwardOk(
                spec.samples
                    .iter()
                    .map(|&s| model.oracle_bits[spec.format][s].clone())
                    .collect(),
            )
        },
    };
    let response_frame = encode_response(&response);
    let reps = 16;
    let sink = |len: usize| {
        std::hint::black_box(len);
    };
    vec![
        (
            "net.encode_request_ns".to_string(),
            median_ns(LADDER_CALLS, reps, || {
                sink(encode_request(std::hint::black_box(request)).len())
            }),
        ),
        (
            "net.decode_request_ns".into(),
            median_ns(LADDER_CALLS, reps, || {
                sink(
                    decode_request(std::hint::black_box(&request_frame[LEN_PREFIX_BYTES..]))
                        .map_or(0, |r| r.id() as usize),
                )
            }),
        ),
        (
            "net.encode_response_ns".into(),
            median_ns(LADDER_CALLS, reps, || {
                sink(encode_response(std::hint::black_box(&response)).len())
            }),
        ),
        (
            "net.decode_response_ns".into(),
            median_ns(LADDER_CALLS, reps, || {
                sink(
                    decode_response(std::hint::black_box(&response_frame[LEN_PREFIX_BYTES..]))
                        .map_or(0, |r| r.id as usize),
                )
            }),
        ),
        ("net.request_bytes".into(), request_frame.len() as f64),
        ("net.response_bytes".into(), response_frame.len() as f64),
    ]
}

/// Counters and stage medians the server side kept over the traced
/// traffic, read back through its public surfaces.
fn server_side(stack: &Stack) -> Vec<(String, f64)> {
    let snap = stack.gw.snapshot();
    let us = |ns: u64| ns as f64 / 1e3;
    let net = stack.server.metrics();
    // Relaxed: a settled monotone counter read after the clients joined.
    let counter = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    let stats = stack.gw.engine().stats();
    let mut m = vec![
        ("serve.jobs_run".to_string(), stats.jobs_run as f64),
        (
            "serve.chunks_per_request".into(),
            stats.jobs_run as f64 / snap.completed.max(1) as f64,
        ),
        (
            "gateway.queue_wait_p50_us".into(),
            us(snap.queue_wait.quantile_ns(0.5)),
        ),
        (
            "gateway.queue_wait_p99_us".into(),
            us(snap.queue_wait.quantile_ns(0.99)),
        ),
        (
            "gateway.service_p50_us".into(),
            us(snap.service.quantile_ns(0.5)),
        ),
        (
            "gateway.queue_depth_peak".into(),
            snap.queue_depth_peak as f64,
        ),
        ("gateway.admitted".into(), snap.admitted as f64),
        ("gateway.shed".into(), snap.shed_total() as f64),
        ("gateway.completed".into(), snap.completed as f64),
        ("net.frames_read".into(), counter(&net.frames_read)),
        ("net.frames_written".into(), counter(&net.frames_written)),
        ("net.protocol_errors".into(), counter(&net.protocol_errors)),
    ];
    if let Some(rec) = stack.gw.recorder() {
        let stats = rec.stats();
        m.push(("trace.published".into(), stats.published as f64));
        m.push((
            "trace.dropped_contended".into(),
            stats.dropped_contended as f64,
        ));
        let done: Vec<_> = rec
            .timelines()
            .into_iter()
            .filter(|t| t.terminal == TerminalKind::Completed && t.received_ns != 0)
            .collect();
        let stage = |name: &str, pick: fn(&dp_gateway::Timeline) -> (u64, u64)| {
            let mut v: Vec<f64> = done
                .iter()
                .map(pick)
                .map(|(from, to)| to.saturating_sub(from) as f64 / 1e3)
                .collect();
            (format!("trace.stage_{name}_us"), median_of(&mut v))
        };
        m.push(stage("admit", |t| (t.received_ns, t.admitted_ns)));
        m.push(stage("enqueue", |t| (t.admitted_ns, t.enqueued_ns)));
        m.push(stage("ring_wait", |t| (t.enqueued_ns, t.dispatched_ns)));
        m.push(stage("engine", |t| (t.dispatched_ns, t.last_chunk_ns)));
        m.push(stage("resolve", |t| (t.last_chunk_ns, t.resolved_ns)));
    }
    m
}

/// Runs one networked workload.
pub fn run(args: &RunArgs) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();
    let mut model = Model::build(w, args.seed);
    let (stack, register_ms) = Stack::start(&model, None);
    model.times.table_build_ms.copy_from_slice(&register_ms);
    model.build_oracle();
    let requests: Vec<Request> = (0..model.stream.len())
        .map(|id| wire_request(&model, w, &stack.keys, id))
        .collect();
    let frames: Vec<Vec<u8>> = requests.iter().map(encode_request).collect();
    let traffic = Traffic {
        model: &model,
        frames: &frames,
        requests: &requests,
    };
    model.describe(&mut out);

    // Connecting and the warm-up traffic are the tail of set-up: the
    // window opens when the clients' barrier releases.
    let slices = if args.setup_only {
        0
    } else {
        args.window_slices(if args.trace { 0.3 } else { 1.0 })
    };
    let jiffies = env::machine_jiffies();
    let phase = traffic_phase(&traffic, &stack, slices, None);
    out.set(
        "setup_s",
        (phase.opened - args.started).as_secs_f64() - model.times.oracle_ms / 1e3,
    );
    account(&mut out, &phase);
    if args.setup_only {
        stack.stop();
        return out;
    }
    out.set(
        "env.steal_share",
        env::steal_share(jiffies, env::machine_jiffies()),
    );
    // Read before the summary below allocates in proportion to the ops run.
    out.set("peak_rss_mb", env::peak_rss_mb());
    let logs: Vec<OpLog> = phase.reports.into_iter().map(|r| r.log).collect();
    let summary = summarize(&logs);
    out.extend(summary.metrics(logs.iter().any(OpLog::overflowed)));

    if args.trace {
        let (rungs, tally) = ladder(&model, w, &stack, &traffic);
        out.tally.add(tally);
        out.extend(rungs);
        out.extend(codec(&model, w, &traffic));
        stack.stop();

        // The forward pass on the engine's chunk shape, from outside.
        let mut emacs: Vec<_> = model
            .nets
            .iter()
            .map(|n| n.make_layer_emacs().expect("the trio has EMAC datapaths"))
            .collect();
        let epoch = Instant::now();
        // Half the span file for the replay, a quarter per client.
        let mut spans = SpanBuf::new(epoch, SPAN_CAPACITY / 2);
        let batches = replay::batches(&model, CHUNK_SAMPLES);
        let budget = Duration::from_secs_f64(args.seconds * 0.2);
        let stats = replay::run(&model, &mut emacs, &batches, budget, &mut spans);
        out.tally.add(stats.tally);
        out.extend(stats.metrics());
        let forward_ns = stats.forward_ns_per_sample() * w.samples_per_op as f64;
        out.set(
            "serve.added_ns_per_request",
            out.get("serve.request_ns") - forward_ns,
        );
        out.set("hw.stream_cycles_per_sample", model.stream_cycles());

        // The same traffic against a gateway that records every request.
        let every = TraceConfig {
            slots: 4096,
            ..TraceConfig::every_request()
        };
        let (traced_stack, _) = Stack::start(&model, Some(every));
        let slices = args.window_slices(0.3);
        let traced = traffic_phase(&traffic, &traced_stack, slices, Some(epoch));
        account(&mut out, &traced);
        out.extend(server_side(&traced_stack));
        traced_stack.stop();
        out.set("serve.worker_busy_share", traced.busy_share);
        let client_cpu: u64 = traced.reports.iter().map(|r| r.cpu_ns).sum();
        out.set(
            "loadgen.cpu_share",
            client_cpu as f64 / traced.process_cpu_ns.max(1) as f64,
        );
        for r in &traced.reports {
            if let Some(client_spans) = &r.spans {
                spans.merge(client_spans);
            }
        }
        out.set(
            "net.wait_share",
            spans.total_ns(spans::WAIT) as f64 / spans.total_ns(spans::REQUEST).max(1) as f64,
        );
        let traced_logs: Vec<OpLog> = traced.reports.into_iter().map(|r| r.log).collect();
        let traced_summary = summarize(&traced_logs);
        out.set(
            "trace.overhead_share",
            1.0 - traced_summary.samples_per_s / summary.samples_per_s.max(f64::MIN_POSITIVE),
        );
        args.write_spans(&spans);
    } else {
        stack.stop();
    }
    out.close();
    out
}
