//! The gateway proper: non-blocking admission in front of a
//! [`ServeEngine`], with a bounded submission ring, overload policies,
//! per-model rate limits, request deadlines and cancellation.
//!
//! ```text
//! clients ──try_submit──▶ [bounded ring] ──dispatcher──▶ [worker slots] ──▶ workers
//!              │                │ (overload policy:      │ group → one chunk     │
//!              │ verdicts       │  Block / ShedNewest /  │ (throttled: at most   ▼
//!              ▼                │  ShedOldest;           │  max_inflight_chunks  demux: store every
//!        Admitted / QueueFull / │  lazy deadline expiry) │  queued + running)    member, then wake
//!        ModelUnknown / RateLimited / Unsupported / Degraded
//! ```
//!
//! Admission never blocks on [`Gateway::try_submit_forward`] /
//! [`Gateway::try_submit_classify`]: the caller gets a typed
//! [`Admission`] verdict immediately. A single dispatcher thread drains
//! the ring and forwards requests through the engine's non-blocking
//! [`ServeEngine::try_dispatch`] seam (chunk jobs go straight into the
//! pool's per-worker slots), throttled so the engine's backlog stays
//! bounded too — backpressure surfaces in the ring, where the overload
//! policy decides who pays for a burst.
//!
//! # Coalescing
//!
//! The dispatcher hands the engine **groups**. It pops the ring head,
//! and if that request is smaller than a chunk it also takes every
//! *already-queued* entry for the same model instance (`Arc::ptr_eq`, so
//! a re-registered model never shares a chunk with its predecessor) and
//! result kind that still fits in `chunk_samples` — in queue order, and
//! without ever waiting for more. The group runs as **one** engine chunk;
//! the engine assembles the dispatch's result and hands it to the demux
//! in one call, which fans it back out: every member's result is
//! stored in its completion cell (first-wins) *before* any member is
//! woken, so a waiter that owns several of them wakes to a run of ready
//! handles. An uncoalesced request is a group of one; a request larger
//! than a chunk is one member over several chunks — there is no second
//! path. What stays per request: the deadline/cancel screen (a dead
//! follower is discarded and refunded, its batch-mates run), queue-wait,
//! service time, per-model counters and the trace stamps. What is shared:
//! the chunk's fate — a panic or watchdog stall fails every member with
//! the same typed [`JobError`], exactly as the samples of one request
//! share a chunk's fate. The head is always dispatched first, so no model
//! can starve another and `ShedOldest` still evicts the true oldest.
//!
//! # Request lifecycle
//!
//! ```text
//! submitted ──▶ admitted ──▶ dispatched ──▶ completed
//!     │             │             │
//!     │             ├─▶ shed      ├─▶ failed (chunk panic / stall)
//!     │             ├─▶ expired   └─▶ cancelled (mid-flight)
//!     │             ├─▶ cancelled (while queued)
//!     │             └─▶ dropped (closed / drain deadline / degraded)
//!     └─▶ rejected (queue full / unknown / rate limited /
//!                   unsupported / closed / degraded)
//! ```
//!
//! Every admitted request resolves to exactly one typed outcome through
//! its [`GatewayHandle`] — shed, expired, cancelled and dropped requests
//! resolve promptly rather than hanging, and [`GatewayHandle::wait_timeout`]
//! bounds any residual wait.

use crate::faults;
use crate::handle::{GatewayError, GatewayHandle, HandleCell};
use crate::limiter::{RateLimit, TokenBucket};
use crate::metrics::{bump, bump_by, GatewayMetrics, MetricsSnapshot, ModelMetrics};
use crate::ring::{SubmissionRing, TryPush};
use deep_positron::QuantizedMlp;
use dp_serve::check::check_yield;
use dp_serve::{
    ChunkEval, ChunkSink, EngineConfig, JobError, ModelKey, ModelRegistry, PanicBudget,
    ServeEngine, ServeError, WatchdogConfig,
};
use dp_trace::{Clock, Recorder, TerminalKind, TraceConfig, TraceCtx};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the dispatcher sleeps per headroom-wait slice; bounds how
/// stale a deadline/drain check can get while the engine is saturated.
const DISPATCH_POLL: Duration = Duration::from_millis(20);

/// What a full submission ring does with the overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// `submit_*` blocks the producer until space frees (classic
    /// backpressure; `try_submit_*` still never blocks — it reports
    /// [`Admission::QueueFull`]). Maximizes completeness, exposes callers
    /// to burst latency.
    Block,
    /// Reject the incoming request ([`Admission::QueueFull`]); everything
    /// already admitted keeps its place. Favors requests already in
    /// flight.
    ShedNewest,
    /// Evict the **oldest** queued request (its handle resolves to
    /// [`GatewayError::Shed`]) and admit the newcomer. Favors fresh
    /// traffic — the evictee was going to be the staleset response anyway.
    ShedOldest,
}

impl OverloadPolicy {
    /// Stable lowercase name (bench metadata, logs).
    pub fn as_str(&self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::ShedNewest => "shed_newest",
            OverloadPolicy::ShedOldest => "shed_oldest",
        }
    }
}

/// Per-request submission options: a completion deadline and a trace
/// identity, carried with the request through the ring.
///
/// ```
/// use dp_gateway::SubmitOptions;
/// use std::time::Duration;
///
/// let opts = SubmitOptions::new().deadline_in(Duration::from_millis(250));
/// assert!(opts.deadline.is_some());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Absolute deadline: if the dispatcher has not handed the request to
    /// the engine by this instant, it is lazily expired — the handle
    /// resolves to [`GatewayError::DeadlineExceeded`] and the request's
    /// rate-limit tokens are refunded. `None` (the default) never expires.
    pub deadline: Option<Instant>,
    /// Request id for the flight recorder: network front ends pass the
    /// wire request id so timelines correlate with client logs; `None`
    /// makes the gateway assign one (high bit set, to keep the spaces
    /// visually apart). Also the deterministic sampler input.
    pub trace_id: Option<u64>,
    /// When the request's frame was received off the wire, so traced
    /// timelines include the pre-admission network stage. `None` for
    /// in-process submissions.
    pub received: Option<Instant>,
}

impl SubmitOptions {
    /// Default options: no deadline, a gateway-assigned trace id.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an absolute deadline.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn deadline_in(mut self, timeout: Duration) -> Self {
        // clock-ok: caller-side sugar computing an absolute wall-clock
        // deadline at the submission boundary; the gateway's seam-based
        // clock only *checks* deadlines, it does not mint them.
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Attaches a trace identity: the request id the flight recorder
    /// samples on and renders, plus the frame-receive instant (network
    /// front ends stamp this so timelines start at the wire).
    pub fn traced_from(mut self, trace_id: u64, received: Instant) -> Self {
        self.trace_id = Some(trace_id);
        self.received = Some(received);
        self
    }
}

/// Maps a gateway verdict onto its flight-recorder terminal kind.
fn terminal_of(e: &GatewayError) -> TerminalKind {
    match e {
        GatewayError::Shed => TerminalKind::Shed,
        GatewayError::Closed => TerminalKind::Closed,
        GatewayError::DeadlineExceeded => TerminalKind::Expired,
        GatewayError::Cancelled => TerminalKind::Cancelled,
        GatewayError::Degraded => TerminalKind::Degraded,
        GatewayError::Job(_) => TerminalKind::Failed,
    }
}

/// Typed admission verdict: what happened to a `submit`/`try_submit`.
pub enum Admission<T> {
    /// Admitted; results arrive through the handle (which may still
    /// resolve to [`GatewayError::Shed`] under `ShedOldest` pressure, or
    /// to [`GatewayError::DeadlineExceeded`] if its deadline passes
    /// undispatched).
    Admitted(GatewayHandle<T>),
    /// The ring was full and the policy shed this request. Nothing was
    /// enqueued; retry later or switch policy.
    QueueFull,
    /// No model is registered under the key.
    ModelUnknown(ModelKey),
    /// The model's token bucket is empty — the caller exceeded the
    /// configured samples-per-second budget.
    RateLimited,
    /// The request's shape does not fit the model: raw EMAC activations
    /// of the `F32` baseline, or a row that is not the model's input
    /// width (see [`ServeEngine::screen`]).
    Unsupported(String),
    /// The gateway is shutting down.
    Closed,
    /// The serving engine is degraded — its worker panic budget tripped
    /// (see [`PanicBudget`]) — and admission is rejected until an
    /// operator calls [`Gateway::reset_degraded`]. Metrics and
    /// already-admitted work keep draining.
    Degraded,
}

// Manual impl: the derive would demand `T: Debug`, which the payload
// types don't all provide (and the handle renders its stage anyway).
impl<T> std::fmt::Debug for Admission<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Admission::Admitted(h) => f.debug_tuple("Admitted").field(h).finish(),
            Admission::QueueFull => write!(f, "QueueFull"),
            Admission::ModelUnknown(key) => f.debug_tuple("ModelUnknown").field(key).finish(),
            Admission::RateLimited => write!(f, "RateLimited"),
            Admission::Unsupported(what) => f.debug_tuple("Unsupported").field(what).finish(),
            Admission::Closed => write!(f, "Closed"),
            Admission::Degraded => write!(f, "Degraded"),
        }
    }
}

impl<T> Admission<T> {
    /// Whether the request was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted(_))
    }

    /// The handle, if admitted.
    pub fn handle(self) -> Option<GatewayHandle<T>> {
        match self {
            Admission::Admitted(h) => Some(h),
            _ => None,
        }
    }

    /// The handle, panicking on any rejection verdict (test/bench sugar).
    pub fn expect_admitted(self) -> GatewayHandle<T> {
        match self {
            Admission::Admitted(h) => h,
            // panic-ok: documented test/bench sugar — the method name
            // promises the panic on any rejection verdict.
            other => panic!("expected admission, got {other:?}"),
        }
    }
}

/// One queued request: a ring entry.
struct Pending {
    /// Logical model name — the rate-limit bucket key (kept so an
    /// eviction or expiry can refund the tokens this request was
    /// charged) and the fault-injection scope; allocated once, at
    /// admission, and shared with the chunk jobs.
    model_name: Arc<str>,
    model: Arc<QuantizedMlp>,
    /// The request's rows; moved into the engine chunk at dispatch.
    xs: Vec<Vec<f32>>,
    /// `xs.len()` at admission (→ rate-limit tokens, chunk jobs, the
    /// member's share of a coalesced chunk).
    samples: usize,
    reply: Reply,
    model_metrics: Arc<ModelMetrics>,
    enqueued: Instant,
    /// Lazily enforced by the dispatcher; see [`SubmitOptions::deadline`].
    deadline: Option<Instant>,
    /// Flight-recorder context (`None` when tracing is off); stamped at
    /// each pipeline stage, emits the terminal event at resolution.
    trace: Option<TraceCtx>,
}

/// A queued request's completion cell, typed by its result shape.
enum Reply {
    Forward(Arc<HandleCell<Vec<u32>>>),
    Classify(Arc<HandleCell<usize>>),
}

impl Reply {
    /// Whether the handle was cancelled: screened while queued, at chunk
    /// entry and again before the demux publishes this member's result.
    fn cancelled(&self) -> bool {
        match self {
            Reply::Forward(cell) => cell.cancelled(),
            Reply::Classify(cell) => cell.cancelled(),
        }
    }
}

/// A result shape the gateway serves: its chunk evaluator, and its typed
/// cell inside a ring entry.
trait Shape: Clone + Send + Sync + 'static {
    const EVAL: ChunkEval<Self>;
    fn cell(reply: &Reply) -> &HandleCell<Self>;
}

impl Shape for Vec<u32> {
    const EVAL: ChunkEval<Self> = QuantizedMlp::forward_batch;
    fn cell(reply: &Reply) -> &HandleCell<Self> {
        match reply {
            Reply::Forward(cell) => cell,
            // panic-ok: groups are formed by `Pending::batches_with`,
            // which compares the reply shape.
            Reply::Classify(_) => unreachable!("classify entry in a forward group"),
        }
    }
}

impl Shape for usize {
    const EVAL: ChunkEval<Self> = QuantizedMlp::infer_batch;
    fn cell(reply: &Reply) -> &HandleCell<Self> {
        match reply {
            Reply::Classify(cell) => cell,
            // panic-ok: see `<Vec<u32> as Shape>::cell`.
            Reply::Forward(_) => unreachable!("forward entry in a classify group"),
        }
    }
}

impl Pending {
    /// The coalescing key: same resolved model instance (so a
    /// re-registered model never shares a chunk with its predecessor)
    /// and same result shape.
    fn batches_with(&self, other: &Pending) -> bool {
        Arc::ptr_eq(&self.model, &other.model)
            && std::mem::discriminant(&self.reply) == std::mem::discriminant(&other.reply)
    }

    /// Emits the trace terminal for `reason` and resolves the handle —
    /// every fate of an admitted request other than an engine result.
    fn fail(&self, reason: GatewayError) {
        if let Some(t) = &self.trace {
            t.resolve(terminal_of(&reason));
        }
        match &self.reply {
            Reply::Forward(cell) => cell.done.resolve(Err(reason)),
            Reply::Classify(cell) => cell.done.resolve(Err(reason)),
        }
    }

    /// Resolves the request without dispatching it.
    fn resolve_undispatched(self, reason: GatewayError) {
        match reason {
            GatewayError::Shed => bump(&self.model_metrics.shed),
            GatewayError::DeadlineExceeded => bump(&self.model_metrics.expired),
            _ => {}
        }
        self.fail(reason);
    }

    /// Settles a dispatched request — counters, then the trace terminal —
    /// from the result its cell is about to receive.
    ///
    /// The counters record what the engine's first claimant reported: a
    /// request the watchdog failed with [`JobError::Stalled`] counts as
    /// failed even if its wedged evaluation eventually finishes.
    fn settle<T>(
        &self,
        metrics: &GatewayMetrics,
        result: &Result<Vec<T>, GatewayError>,
        service_ns: u64,
    ) {
        let terminal = match result {
            Ok(_) => {
                // Service time covers completed requests only, so
                // service_ns / completed is a true per-model mean (a
                // failed request would otherwise inflate it).
                metrics.service.record_ns(service_ns);
                bump_by(&self.model_metrics.service_ns, service_ns);
                bump(&metrics.completed);
                bump(&self.model_metrics.completed);
                bump_by(&metrics.samples_completed, self.samples as u64);
                bump_by(&self.model_metrics.samples, self.samples as u64);
                TerminalKind::Completed
            }
            // Cancelled mid-flight: neither completed nor failed.
            Err(GatewayError::Cancelled) => {
                bump(&metrics.cancelled);
                TerminalKind::Cancelled
            }
            Err(_) => {
                bump(&metrics.failed);
                bump(&self.model_metrics.failed);
                TerminalKind::Failed
            }
        };
        if let Some(t) = &self.trace {
            t.resolve(terminal);
        }
    }
}

/// The completion sink of one dispatched group: fans the result the
/// engine assembled back out to the member requests. Either several
/// members share one chunk, or one member spans several chunks; both are
/// "the group's rows, in order, split by member".
struct Demux {
    members: Vec<Pending>,
    started: Instant,
    /// The gateway's clock seam: service time is measured on it so the
    /// interleaving checker can virtualize trace/metric time.
    clock: Clock,
    metrics: Arc<GatewayMetrics>,
}

impl Demux {
    /// Turns `group` (non-empty, formed by [`Pending::batches_with`])
    /// into its sink and the rows to evaluate: the members' rows in
    /// order, which the engine cuts into `chunk_samples`-sized chunks.
    /// Stamps each member's queue wait and dispatch stage.
    fn new<T: Shape>(
        mut group: Vec<Pending>,
        chunk_samples: usize,
        metrics: &Arc<GatewayMetrics>,
        clock: &Clock,
    ) -> (Arc<Self>, Vec<Vec<f32>>) {
        let now = clock.now();
        let mut xs = Vec::new();
        for m in &mut group {
            let waited = now.saturating_duration_since(m.enqueued);
            metrics.queue_wait.record_ns(waited.as_nanos() as u64);
            xs.append(&mut m.xs);
        }
        let n_chunks = xs.len().div_ceil(chunk_samples);
        for m in &group {
            if let Some(t) = &m.trace {
                t.dispatched(n_chunks as u64);
            }
            T::cell(&m.reply).dispatched();
        }
        let demux = Demux {
            members: group,
            started: now,
            clock: clock.clone(),
            metrics: Arc::clone(metrics),
        };
        (Arc::new(demux), xs)
    }

    /// Forwards `group` to the engine as one dispatch.
    fn dispatch<T: Shape>(
        group: Vec<Pending>,
        engine: &ServeEngine,
        metrics: &Arc<GatewayMetrics>,
        clock: &Clock,
    ) {
        let model = Arc::clone(&group[0].model);
        let scope = Arc::clone(&group[0].model_name);
        let size = group.len() as u64;
        let (demux, xs) = Self::new::<T>(group, engine.chunk_samples(), metrics, clock);
        match engine.try_dispatch(model, xs, Some(scope), T::EVAL, Arc::clone(&demux)) {
            Ok(()) => {
                bump_by(&metrics.dispatched, size);
                metrics.coalesced.record_ns(size);
            }
            // The panic budget tripped between admission and dispatch:
            // the admitted requests are dropped with a typed verdict.
            Err(ServeError::Degraded) => {
                demux.drop_all(&metrics.rejected_degraded, GatewayError::Degraded)
            }
            // Engine closed under still-queued requests (only possible if
            // the engine is shut down out from under the gateway):
            // resolve rather than hang the handles.
            Err(_) => demux.drop_all(&metrics.dropped_closed, GatewayError::Closed),
        }
    }

    /// Resolves every member of a group the engine refused.
    fn drop_all(&self, counter: &AtomicU64, reason: GatewayError) {
        for m in &self.members {
            bump(counter);
            m.fail(reason);
        }
    }
}

impl<T: Shape> ChunkSink<T> for Demux {
    fn cancelled(&self) -> bool {
        self.members.iter().all(|m| m.reply.cancelled())
    }

    fn chunk_done(&self) {
        for m in &self.members {
            if let Some(t) = &m.trace {
                t.chunk_done();
            }
        }
    }

    fn complete(&self, result: Result<Vec<T>, JobError>) {
        check_yield!("gateway.chunk.settle");
        let mut outcome = result.map(Vec::into_iter);
        // Resolve-then-wake: settle and store every member's result
        // (first-wins, under each cell's lock) and only then notify, so a
        // waiter that owns several members wakes to a run of ready
        // handles. Metrics settle before the cell resolves.
        let elapsed = self.clock.now().saturating_duration_since(self.started);
        let service_ns = elapsed.as_nanos() as u64;
        for m in &self.members {
            let result = match &mut outcome {
                Ok(rows) => {
                    let mine: Vec<T> = rows.by_ref().take(m.samples).collect();
                    // Looked at again before publishing: a member
                    // cancelled mid-flight keeps the verdict its handle
                    // already shows; its batch-mates are served.
                    if m.reply.cancelled() {
                        Err(GatewayError::Cancelled)
                    } else {
                        Ok(mine)
                    }
                }
                Err(e) => Err(GatewayError::from(*e)),
            };
            m.settle(&self.metrics, &result, service_ns);
            T::cell(&m.reply).done.store(result);
        }
        for m in &self.members {
            T::cell(&m.reply).done.wake();
        }
    }
}

/// Configures and builds a [`Gateway`] (engine sizing, ring capacity,
/// overload policy, rate limits, supervision, drain deadline) in one
/// place.
#[derive(Debug, Clone)]
pub struct GatewayBuilder {
    workers: usize,
    chunk_samples: usize,
    queue_capacity: usize,
    max_inflight_chunks: usize,
    policy: OverloadPolicy,
    rate_limits: Vec<(String, RateLimit)>,
    drain_deadline: Duration,
    watchdog: Option<WatchdogConfig>,
    panic_budget: Option<PanicBudget>,
    trace: TraceConfig,
    clock: Option<Clock>,
}

impl Default for GatewayBuilder {
    fn default() -> Self {
        let engine = EngineConfig::default();
        GatewayBuilder {
            workers: engine.workers,
            chunk_samples: engine.chunk_samples,
            queue_capacity: 128,
            // 0 = derive from the worker count at build time.
            max_inflight_chunks: 0,
            policy: OverloadPolicy::ShedNewest,
            rate_limits: Vec::new(),
            drain_deadline: Duration::from_secs(30),
            watchdog: None,
            panic_budget: None,
            trace: TraceConfig::default(),
            clock: None,
        }
    }
}

impl GatewayBuilder {
    /// Starts from the defaults: `DEEP_POSITRON_THREADS`-sized pool,
    /// 64-sample chunks, a 128-request ring, `ShedNewest`, no rate
    /// limits, a 30 s shutdown drain deadline, no supervision.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker thread count for the backing [`ServeEngine`] (clamped ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Samples per chunk job (see [`EngineConfig::chunk_samples`]).
    pub fn chunk_samples(mut self, chunk_samples: usize) -> Self {
        self.chunk_samples = chunk_samples.max(1);
        self
    }

    /// Submission-ring capacity in **requests** (clamped ≥ 1): the most
    /// traffic that can wait for dispatch before the overload policy
    /// engages.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Upper bound on chunk jobs queued + running inside the engine
    /// (clamped ≥ 1); the dispatcher waits until a request's chunks fit
    /// under it before dispatching, so backlog surfaces in the bounded
    /// ring instead of the engine's internal queue. A single request
    /// bigger than the whole bound is dispatched alone against a drained
    /// engine, so the engine's instantaneous job count never exceeds
    /// `max(max_inflight_chunks, ceil(largest_request / chunk_samples))`.
    /// Defaults to `4 × workers`, at least 8.
    pub fn max_inflight_chunks(mut self, chunks: usize) -> Self {
        self.max_inflight_chunks = chunks.max(1);
        self
    }

    /// What a full ring does with overflow (default:
    /// [`OverloadPolicy::ShedNewest`]).
    pub fn policy(mut self, policy: OverloadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Token-bucket rate limit for every model registered under the
    /// logical name `model` (all its format variants share the budget).
    /// Cost is one token per sample. Repeating a name replaces its limit.
    pub fn rate_limit(mut self, model: impl Into<String>, limit: RateLimit) -> Self {
        let model = model.into();
        self.rate_limits.retain(|(name, _)| *name != model);
        self.rate_limits.push((model, limit));
        self
    }

    /// Bounds how long shutdown spends draining the ring backlog through
    /// a saturated engine (default 30 s). Past the deadline the
    /// dispatcher stops feeding the engine and resolves every remaining
    /// queued request to [`GatewayError::Closed`] (counted in the
    /// `drain_aborted` metric and logged), so `Drop` cannot hang on a
    /// wedged or overloaded pool.
    pub fn drain_deadline(mut self, deadline: Duration) -> Self {
        self.drain_deadline = deadline;
        self
    }

    /// Enables the engine's stall watchdog (see [`WatchdogConfig`]): a
    /// worker stuck past the stall timeout is respawned and only the
    /// stuck chunk's request fails, with
    /// [`JobError::Stalled`].
    pub fn watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = Some(config);
        self
    }

    /// Enables the engine's panic budget (see [`PanicBudget`]): too many
    /// worker panics inside the window flip the engine — and the gateway
    /// in front of it — into degraded read-only-metrics mode
    /// ([`Admission::Degraded`]).
    pub fn panic_budget(mut self, budget: PanicBudget) -> Self {
        self.panic_budget = Some(budget);
        self
    }

    /// Flight-recorder configuration (see [`TraceConfig`]). The default
    /// records every 16th request into a 64-slot ring plus every slow
    /// exemplar; [`TraceConfig::off`] disables tracing entirely (no
    /// recorder is allocated, the hot path carries a `None`).
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = cfg;
        self
    }

    /// Overrides the gateway's clock seam (default: [`Clock::real`]).
    /// Tests pass [`Clock::manual`] so queue-wait, service time and
    /// slow-exemplar thresholds are deterministic.
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Builds the gateway: spawns the engine's worker pool (plus its
    /// watchdog, if configured) and the dispatcher thread.
    pub fn build(self) -> Gateway {
        let engine = Arc::new(ServeEngine::new(EngineConfig {
            workers: self.workers,
            chunk_samples: self.chunk_samples,
            watchdog: self.watchdog,
            panic_budget: self.panic_budget,
        }));
        let max_inflight = if self.max_inflight_chunks == 0 {
            (engine.workers() * 4).max(8)
        } else {
            self.max_inflight_chunks
        };
        let ring = Arc::new(SubmissionRing::new(self.queue_capacity));
        let metrics = Arc::new(GatewayMetrics::default());
        // Shared with the dispatcher so lazily expired requests can
        // refund the tokens admission charged them.
        let limiters: Arc<HashMap<String, TokenBucket>> = Arc::new(
            self.rate_limits
                .into_iter()
                .map(|(name, limit)| (name, TokenBucket::new(limit)))
                .collect(),
        );
        let drain_deadline = self.drain_deadline;
        let clock = self.clock.unwrap_or_default();
        let recorder = if self.trace.enabled {
            Some(Recorder::new(self.trace, clock.clone()))
        } else {
            None
        };
        let dispatcher = {
            let ring = Arc::clone(&ring);
            let engine = Arc::clone(&engine);
            let metrics = Arc::clone(&metrics);
            let limiters = Arc::clone(&limiters);
            let clock = clock.clone();
            let recorder = recorder.clone();
            std::thread::Builder::new()
                .name("dp-gateway-dispatch".into())
                .spawn(move || {
                    dispatcher_loop(
                        &ring,
                        &engine,
                        &metrics,
                        &limiters,
                        max_inflight,
                        drain_deadline,
                        &clock,
                        recorder.as_ref(),
                    )
                })
                .expect("spawn gateway dispatcher") // panic-ok: thread spawn fails only on OS resource exhaustion at construction
        };
        Gateway {
            engine,
            ring,
            metrics,
            limiters,
            policy: self.policy,
            max_inflight,
            clock,
            recorder,
            next_req_id: AtomicU64::new(1),
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }
}

/// Why the dispatcher discarded a popped entry instead of dispatching it.
/// `now` comes off the gateway's clock seam so expiry is virtualizable.
fn dead_verdict(entry: &Pending, now: Instant) -> Option<GatewayError> {
    if entry.reply.cancelled() {
        Some(GatewayError::Cancelled)
    } else if entry.deadline.is_some_and(|d| now >= d) {
        Some(GatewayError::DeadlineExceeded)
    } else {
        None
    }
}

/// Resolves a dead entry with its verdict: refunds the rate-limit tokens
/// admission charged, bumps the matching counters, resolves the handle.
fn discard(
    entry: Pending,
    reason: GatewayError,
    metrics: &GatewayMetrics,
    limiters: &HashMap<String, TokenBucket>,
) {
    if let Some(bucket) = limiters.get(&*entry.model_name) {
        bucket.refund(entry.samples as f64);
    }
    match reason {
        GatewayError::DeadlineExceeded => bump(&metrics.deadline_exceeded),
        GatewayError::Cancelled => bump(&metrics.cancelled),
        GatewayError::Closed => {
            // Only the bounded-drain abort path discards with `Closed`.
            bump(&metrics.drain_aborted);
            bump(&metrics.dropped_closed);
        }
        _ => {}
    }
    entry.resolve_undispatched(reason);
}

/// The live entries of the group `head` leads: `head` plus — when it is
/// smaller than a chunk — every already-queued entry that
/// [batches with](Pending::batches_with) it and still fits in
/// `chunk_samples`, in queue order (taking stops at the first match that
/// does not fit, so one model's requests are never reordered). It never
/// waits for more to arrive. Followers are screened like the head was:
/// dead ones are discarded (tokens refunded) while their batch-mates run.
fn take_group(
    ring: &SubmissionRing<Pending>,
    head: Pending,
    chunk_samples: usize,
    now: Instant,
    metrics: &GatewayMetrics,
    limiters: &HashMap<String, TokenBucket>,
) -> Vec<Pending> {
    let mut room = chunk_samples.saturating_sub(head.samples);
    let followers = if room == 0 {
        Vec::new()
    } else {
        ring.take_matching(|e| {
            if room == 0 || !head.batches_with(e) {
                return false;
            }
            let fits = e.samples <= room;
            room = if fits { room - e.samples } else { 0 };
            fits
        })
    };
    let mut group = vec![head];
    for e in followers {
        match dead_verdict(&e, now) {
            Some(reason) => discard(e, reason, metrics, limiters),
            None => group.push(e),
        }
    }
    group
}

/// The dispatcher: drains the ring in admission order, lazily expiring
/// dead entries (deadline passed, cancelled), coalescing small requests
/// into one engine chunk (see [`take_group`]) and throttling on the
/// engine's queue depth so the pool's unbounded worker slots never hold
/// more than `max_inflight` chunk jobs. During shutdown the backlog drain
/// is bounded by `drain_deadline`; past it, remaining entries resolve
/// `Closed` instead of feeding a saturated engine.
#[allow(clippy::too_many_arguments)] // one call site, in the builder
fn dispatcher_loop(
    ring: &SubmissionRing<Pending>,
    engine: &Arc<ServeEngine>,
    metrics: &Arc<GatewayMetrics>,
    limiters: &HashMap<String, TokenBucket>,
    max_inflight: usize,
    drain_deadline: Duration,
    clock: &Clock,
    recorder: Option<&Arc<Recorder>>,
) {
    let chunk_samples = engine.chunk_samples();
    let mut drain_logged = false;
    while let Some(entry) = ring.pop_for_dispatch() {
        // Fault seam: a planned sleep here models dispatcher latency and
        // deterministically widens the expiry-vs-dispatch race window.
        dp_serve::faults::fire(faults::DELAY_DISPATCH, Some(&entry.model_name));

        // Dispatch-side queue-depth sample for `/statusz`: together with
        // the admission-side samples this brackets the depth every request
        // saw around its ring transit.
        if let Some(rec) = recorder {
            rec.note_queue_depth(ring.len());
        }

        // Headroom accounting: this request becomes `chunks` atomic pool
        // jobs (a coalesced group is the one chunk its head already
        // counts as), so wait until they fit under the cap — not merely
        // until the current depth is under it. A single request larger
        // than the whole cap waits for a fully drained engine and is
        // dispatched alone, so the engine's instantaneous bound is
        // max(max_inflight, ceil(largest_request / chunk_samples)).
        // The wait runs in slices so entry deadlines, cancellation and
        // the shutdown drain deadline stay live while the engine is
        // saturated.
        let chunks = entry.samples.div_ceil(chunk_samples).max(1);
        let headroom = max_inflight.saturating_sub(chunks);
        let verdict = loop {
            if let Some(v) = dead_verdict(&entry, clock.now()) {
                break Some(v);
            }
            if let Some(closed_at) = ring.closing_since() {
                if closed_at.elapsed() >= drain_deadline {
                    break Some(GatewayError::Closed);
                }
            }
            if engine
                .wait_depth_below_for(headroom + 1, DISPATCH_POLL)
                .is_some()
            {
                // Final screen right before dispatch, narrowing the
                // expiry-vs-dispatch race to the engine handoff itself.
                break dead_verdict(&entry, clock.now());
            }
        };
        match verdict {
            Some(reason) => {
                if matches!(reason, GatewayError::Closed) && !drain_logged {
                    drain_logged = true;
                    eprintln!(
                        "dp-gateway: shutdown drain exceeded its {drain_deadline:?} deadline; \
                         resolving remaining queued requests as Closed"
                    );
                }
                discard(entry, reason, metrics, limiters);
            }
            None => {
                let forward = matches!(entry.reply, Reply::Forward(_));
                let now = clock.now();
                let group = take_group(ring, entry, chunk_samples, now, metrics, limiters);
                if forward {
                    Demux::dispatch::<Vec<u32>>(group, engine, metrics, clock);
                } else {
                    Demux::dispatch::<usize>(group, engine, metrics, clock);
                }
            }
        }
        ring.dispatch_done();
    }
}

/// The async admission front end: a bounded ring, a dispatcher and a
/// [`ServeEngine`] behind it. See the [module docs](self) for the
/// pipeline and [`GatewayBuilder`] for the knobs.
///
/// Dropping (or [`Gateway::shutdown`]) is graceful: admission closes, the
/// dispatcher drains every admitted request into the engine (bounded by
/// the builder's [drain deadline](GatewayBuilder::drain_deadline)), the
/// engine drains its queue, and all threads join.
pub struct Gateway {
    engine: Arc<ServeEngine>,
    ring: Arc<SubmissionRing<Pending>>,
    metrics: Arc<GatewayMetrics>,
    limiters: Arc<HashMap<String, TokenBucket>>,
    policy: OverloadPolicy,
    max_inflight: usize,
    /// The clock seam every gateway timestamp reads through.
    clock: Clock,
    /// Flight recorder (`None` when built with [`TraceConfig::off`]).
    recorder: Option<Arc<Recorder>>,
    /// Request-id generator for submissions that don't carry a wire id
    /// ([`SubmitOptions::trace_id`] `None`): ids get the high bit set so
    /// gateway-assigned and wire id spaces stay visually apart.
    next_req_id: AtomicU64,
    /// Taken (and joined) by whichever of [`Gateway::close`] / drop runs
    /// first; a `Mutex` so the close seam works through `&self` (network
    /// front ends hold the gateway in an `Arc`).
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("policy", &self.policy)
            .field("queue_capacity", &self.ring.capacity())
            .field("queue_depth", &self.ring.len())
            .field("max_inflight_chunks", &self.max_inflight)
            .field("degraded", &self.engine.is_degraded())
            .finish_non_exhaustive()
    }
}

impl Gateway {
    /// A builder with default sizing.
    pub fn builder() -> GatewayBuilder {
        GatewayBuilder::new()
    }

    /// A gateway with [`GatewayBuilder`] defaults.
    pub fn with_defaults() -> Self {
        GatewayBuilder::new().build()
    }

    /// The model registry (register/lookup/unregister models here).
    pub fn registry(&self) -> &ModelRegistry {
        self.engine.registry()
    }

    /// Unregisters a model **and prunes its per-model metrics row**, so a
    /// churny register/unregister workload doesn't grow the metrics map
    /// (and the `/metrics` exposition) without bound. Returns whether the
    /// key was registered. Prefer this over `registry().remove(..)`, which
    /// leaves the metrics row behind.
    pub fn unregister(&self, key: &ModelKey) -> bool {
        let removed = self.engine.registry().remove(key).is_some();
        // Prune unconditionally: a row can exist for a key that was
        // already unregistered through the raw registry seam.
        self.metrics.prune_model(key);
        removed
    }

    /// The flight recorder behind `/tracez`, if tracing is enabled.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// The gateway's clock seam (shared with the recorder).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The backing serving engine (pool stats, queue depth).
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// Live counters; see also [`Gateway::snapshot`].
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.metrics
    }

    /// A consistent-enough copy of every counter plus the current ring
    /// depth, the engine's supervision health (stalls, respawns,
    /// degraded flag) and the flight recorder's queue-depth reservoir,
    /// ready for [`MetricsSnapshot::to_json`] /
    /// [`MetricsSnapshot::to_prometheus`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot(self.ring.len());
        let stats = self.engine.stats();
        snap.worker_stalled = stats.stalled;
        snap.workers_respawned = stats.respawned;
        snap.degraded = stats.degraded;
        snap.queue_depth_reservoir = self
            .recorder
            .as_ref()
            .and_then(|rec| rec.queue_depth_summary());
        snap
    }

    /// Whether the engine behind this gateway is degraded (panic budget
    /// tripped); while degraded every submission returns
    /// [`Admission::Degraded`].
    pub fn is_degraded(&self) -> bool {
        self.engine.is_degraded()
    }

    /// Operator reset: clears the degraded flag and the panic window so
    /// admission resumes.
    pub fn reset_degraded(&self) {
        self.engine.reset_degraded();
    }

    /// The configured overload policy.
    pub fn policy(&self) -> OverloadPolicy {
        self.policy
    }

    /// Requests currently waiting in the submission ring.
    pub fn queue_depth(&self) -> usize {
        self.ring.len()
    }

    /// The ring's request capacity.
    pub fn queue_capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Stalls the dispatcher (admission keeps running, the ring fills).
    /// A control seam for tests and benches that need a deterministic
    /// backlog; pair with [`Gateway::resume_dispatch`].
    pub fn pause_dispatch(&self) {
        self.ring.pause();
    }

    /// Resumes dispatch after [`Gateway::pause_dispatch`].
    pub fn resume_dispatch(&self) {
        self.ring.resume();
    }

    /// Non-blocking submission for raw EMAC output activations,
    /// bit-identical to per-sample
    /// [`QuantizedMlp::forward_bits`](deep_positron::QuantizedMlp::forward_bits).
    /// Never blocks, whatever the policy: a full ring under
    /// `Block`/`ShedNewest` yields [`Admission::QueueFull`], under
    /// `ShedOldest` the oldest queued request is evicted instead.
    pub fn try_submit_forward(&self, key: &ModelKey, xs: Vec<Vec<f32>>) -> Admission<Vec<u32>> {
        self.admit(
            key,
            xs,
            SubmitOptions::default(),
            true,
            Reply::Forward,
            false,
        )
    }

    /// [`Gateway::try_submit_forward`] with per-request [`SubmitOptions`]
    /// (deadline, trace identity).
    pub fn try_submit_forward_opts(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
        opts: SubmitOptions,
    ) -> Admission<Vec<u32>> {
        self.admit(key, xs, opts, true, Reply::Forward, false)
    }

    /// Non-blocking submission for class predictions (all formats,
    /// including the `F32` baseline). See [`Gateway::try_submit_forward`]
    /// for the verdict semantics.
    pub fn try_submit_classify(&self, key: &ModelKey, xs: Vec<Vec<f32>>) -> Admission<usize> {
        self.admit(
            key,
            xs,
            SubmitOptions::default(),
            false,
            Reply::Classify,
            false,
        )
    }

    /// [`Gateway::try_submit_classify`] with per-request
    /// [`SubmitOptions`] (deadline, trace identity).
    pub fn try_submit_classify_opts(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
        opts: SubmitOptions,
    ) -> Admission<usize> {
        self.admit(key, xs, opts, false, Reply::Classify, false)
    }

    /// Policy-applying submission for raw activations: under
    /// [`OverloadPolicy::Block`] a full ring **blocks the caller** until
    /// space frees; other policies behave like
    /// [`Gateway::try_submit_forward`].
    pub fn submit_forward(&self, key: &ModelKey, xs: Vec<Vec<f32>>) -> Admission<Vec<u32>> {
        self.admit(
            key,
            xs,
            SubmitOptions::default(),
            true,
            Reply::Forward,
            true,
        )
    }

    /// Policy-applying submission for class predictions; see
    /// [`Gateway::submit_forward`].
    pub fn submit_classify(&self, key: &ModelKey, xs: Vec<Vec<f32>>) -> Admission<usize> {
        self.admit(
            key,
            xs,
            SubmitOptions::default(),
            false,
            Reply::Classify,
            true,
        )
    }

    /// Blocks until the ring is drained **and** the engine is idle: every
    /// admitted-and-not-shed request has completed.
    pub fn wait_idle(&self) {
        self.ring.wait_empty();
        self.engine.wait_idle();
    }

    /// Graceful shutdown: closes admission, drains the ring through the
    /// dispatcher (bounded by the drain deadline), drains the engine,
    /// joins every thread. Equivalent to dropping the gateway, but
    /// explicit.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Closes the gateway through a shared reference and **settles** it:
    /// admission closes (subsequent submissions report
    /// [`Admission::Closed`]), the dispatcher drains the ring backlog
    /// (bounded by the builder's drain deadline) and is joined, and the
    /// engine finishes every dispatched chunk.
    ///
    /// On return, [`Gateway::snapshot`] reports **final** counters: every
    /// submitted request has resolved to exactly one outcome, so the
    /// lifecycle conservation laws hold exactly — previously a snapshot
    /// taken after shutdown began could race the dispatcher's drain (or
    /// in-flight chunk completions) and observe admitted requests that had
    /// not yet been counted anywhere. Network front ends rely on this for
    /// their post-shutdown metrics scrape.
    ///
    /// Idempotent; later calls (and the eventual drop) are no-ops apart
    /// from joining the worker threads. Already-issued handles still
    /// resolve.
    pub fn close(&self) {
        self.ring.close();
        let dispatcher = self
            .dispatcher
            .lock()
            .expect("dispatcher handle lock") // panic-ok: only poisoned if close/drop itself panicked mid-take
            .take();
        if let Some(h) = dispatcher {
            // panic-ok: dispatcher_loop resolves every entry and catches
            // nothing — a panic there is a gateway bug worth surfacing.
            h.join().expect("gateway dispatcher never panics");
        }
        // The dispatcher has handed every surviving request to the engine;
        // wait for those chunks so completion counters are final too.
        self.engine.wait_idle();
        // Close the engine's own admission as well, mirroring the drop
        // order (ring → engine): nothing can sneak work in via
        // `self.engine()` after the gateway reports itself closed.
        self.engine.close();
    }

    /// Opens a flight-recorder context for an admitted request: wire ids
    /// pass through ([`SubmitOptions::trace_id`]), in-process submissions
    /// get a gateway-assigned id with the high bit set.
    fn begin_trace(
        &self,
        rec: &Arc<Recorder>,
        key: &ModelKey,
        samples: u64,
        opts: &SubmitOptions,
    ) -> TraceCtx {
        let req_id = opts.trace_id.unwrap_or_else(|| {
            // relaxed-ok: unique-id counter; no ordering with other memory.
            self.next_req_id.fetch_add(1, Ordering::Relaxed) | (1 << 63)
        });
        rec.begin(req_id, key, samples, opts.received)
    }

    fn admit<T>(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
        opts: SubmitOptions,
        needs_emac: bool,
        wrap: fn(Arc<HandleCell<T>>) -> Reply,
        may_block: bool,
    ) -> Admission<T> {
        let metrics = &self.metrics;
        bump(&metrics.submitted);
        if self.engine.is_degraded() {
            // Degraded read-only-metrics mode: reject before touching the
            // ring so already-admitted work keeps draining undisturbed.
            bump(&metrics.rejected_degraded);
            return Admission::Degraded;
        }
        // The engine's own admission screen, before the limiter is
        // charged and before a trace begins: a request the evaluators
        // would panic on must never reach a worker (where it would fail
        // its innocent batch-mates and spend the panic budget).
        let model = match self.engine.screen(key, &xs, needs_emac) {
            Ok(model) => model,
            Err(ServeError::UnknownModel(key)) => {
                bump(&metrics.model_unknown);
                return Admission::ModelUnknown(key);
            }
            Err(shape) => {
                bump(&metrics.unsupported);
                return Admission::Unsupported(shape.to_string());
            }
        };
        if xs.is_empty() {
            // Nothing to evaluate: resolve inline, skip the ring (and the
            // limiter — zero samples cost zero tokens).
            let model_metrics = metrics.model(key);
            let (handle, cell) = GatewayHandle::pending();
            bump(&metrics.admitted);
            bump(&metrics.completed);
            bump(&model_metrics.admitted);
            bump(&model_metrics.completed);
            // Even the inline path opens and closes a trace context, so
            // "every admitted request emits exactly one terminal event"
            // holds without carve-outs.
            if let Some(rec) = &self.recorder {
                let t = self.begin_trace(rec, key, 0, &opts);
                t.resolve(TerminalKind::Completed);
            }
            cell.done.resolve(Ok(Vec::new()));
            return Admission::Admitted(handle);
        }
        // Rate limit before any per-model bookkeeping: the rejection
        // verdict is the hot path under over-limit traffic and should not
        // pay the metrics-map lookup (an RwLock read).
        let cost = xs.len() as f64;
        let bucket = self.limiters.get(key.name());
        if let Some(bucket) = bucket {
            if !bucket.try_acquire(cost) {
                bump(&metrics.rate_limited);
                return Admission::RateLimited;
            }
        }
        let model_metrics = metrics.model(key);
        let (handle, cell) = GatewayHandle::pending();
        // The trace context opens only once every pre-admission screen has
        // passed: a rejected-before-admission request (unknown model,
        // rate-limited, degraded, unsupported) never begins a trace, so
        // recorder `begun` equals terminal events at quiescence.
        let trace = self
            .recorder
            .as_ref()
            .map(|rec| self.begin_trace(rec, key, xs.len() as u64, &opts));
        let entry = Pending {
            model_name: Arc::from(key.name()),
            model,
            samples: xs.len(),
            xs,
            reply: wrap(cell),
            model_metrics: Arc::clone(&model_metrics),
            enqueued: self.clock.now(),
            deadline: opts.deadline,
            trace: trace.clone(),
        };
        let outcome = if may_block && matches!(self.policy, OverloadPolicy::Block) {
            match self.ring.push_blocking(entry) {
                Ok(()) => TryPush::Pushed,
                Err(entry) => TryPush::Closed(entry),
            }
        } else {
            let evict = matches!(self.policy, OverloadPolicy::ShedOldest);
            self.ring.try_push(entry, evict)
        };
        match outcome {
            TryPush::Pushed => {
                bump(&metrics.admitted);
                bump(&model_metrics.admitted);
                metrics.note_depth(self.ring.len() as u64);
                if let Some(t) = &trace {
                    t.enqueued();
                }
                if let Some(rec) = &self.recorder {
                    rec.note_queue_depth(self.ring.len());
                }
                Admission::Admitted(handle)
            }
            TryPush::PushedEvicting(evicted) => {
                bump(&metrics.admitted);
                bump(&model_metrics.admitted);
                bump(&metrics.shed_evicted);
                metrics.note_depth(self.ring.len() as u64);
                if let Some(t) = &trace {
                    t.enqueued();
                }
                if let Some(rec) = &self.recorder {
                    rec.note_queue_depth(self.ring.len());
                }
                // The evictee served nothing either: refund the tokens
                // *it* was charged (its model may differ from this one's).
                if let Some(b) = self.limiters.get(&*evicted.model_name) {
                    b.refund(evicted.samples as f64);
                }
                evicted.resolve_undispatched(GatewayError::Shed);
                Admission::Admitted(handle)
            }
            TryPush::Full(entry) => {
                bump(&metrics.shed_queue_full);
                // The shed request served nothing: give its tokens back so
                // overload doesn't burn the client's rate budget on top of
                // rejecting the work.
                if let Some(bucket) = bucket {
                    bucket.refund(cost);
                }
                // Resolves the cell (bumping the model's shed counter), so
                // even a stashed clone of the handle cannot hang.
                entry.resolve_undispatched(GatewayError::Shed);
                Admission::QueueFull
            }
            TryPush::Closed(entry) => {
                bump(&metrics.rejected_closed);
                if let Some(bucket) = bucket {
                    bucket.refund(cost);
                }
                entry.resolve_undispatched(GatewayError::Closed);
                Admission::Closed
            }
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.ring.close();
        let dispatcher = self
            .dispatcher
            .lock()
            .expect("dispatcher handle lock") // panic-ok: see `Gateway::close`
            .take();
        if let Some(h) = dispatcher {
            h.join().expect("gateway dispatcher never panics"); // panic-ok: see `Gateway::close`
        }
        // `self.engine` (the last Arc once the dispatcher is gone) drops
        // after this body: the pool drains every dispatched job and joins
        // its workers — handles held by callers still complete.
    }
}

/// Seeded PCT interleave test (compiled only with `--features
/// check-yield`) over the coalescing path: producers, the dispatcher's
/// take-matching + demux, and a canceller, on the real ring, cells and
/// sink — with the pool worker's part run by the engine's real chunk jobs
/// and assembly, inline on the dispatcher body's scheduled thread.
#[cfg(all(test, feature = "check-yield"))]
mod interleave_tests {
    use super::*;
    use dp_check::sched::explore;

    const CHUNK: usize = 4;

    /// Stands in for the model: each row's id comes back as its class.
    const ROW_ID: ChunkEval<usize> = |_, chunk| chunk.iter().map(|row| row[0] as usize).collect();

    /// One single-sample classify entry whose row carries its own id, so
    /// a demuxed result names the member it belongs to.
    fn entry(
        id: u64,
        model: &Arc<QuantizedMlp>,
        metrics: &GatewayMetrics,
        rec: &Arc<Recorder>,
        clock: &Clock,
    ) -> (GatewayHandle<usize>, Pending) {
        let (handle, cell) = GatewayHandle::pending();
        let pending = Pending {
            model_name: Arc::from("m"),
            model: Arc::clone(model),
            xs: vec![vec![id as f32]],
            samples: 1,
            reply: Reply::Classify(cell),
            model_metrics: metrics.model(&ModelKey::new("m", "f")),
            enqueued: clock.now(),
            deadline: None,
            trace: Some(rec.begin(id, "m@f", 1, None)),
        };
        (handle, pending)
    }

    /// Two producers push two entries each while the dispatcher pops,
    /// takes followers and demuxes, and a canceller cancels two of the
    /// four handles at arbitrary points (queued, taken, dispatched,
    /// resolved). Under every schedule: each handle resolves to its own
    /// row or to `Cancelled`; each request emits exactly one terminal;
    /// and every entry is discarded or dispatched exactly once.
    #[test]
    fn coalesced_members_each_get_exactly_one_terminal_under_every_schedule() {
        let mlp = deep_positron::Mlp::new(&[1, 2], 1);
        let format = deep_positron::NumericFormat::Posit(
            dp_posit::PositFormat::new(8, 0).expect("posit<8,0>"),
        );
        let model = Arc::new(QuantizedMlp::quantize(&mlp, format));
        for master in [0xC0A1_0001u64, 0xC0A1_0002, 0xC0A1_0003] {
            let mut audits = Vec::new();
            let out = explore(master, 1000, 3, |_| {
                let clock = Clock::manual();
                let ring = Arc::new(SubmissionRing::new(8));
                let metrics = Arc::new(GatewayMetrics::default());
                let rec = Recorder::new(TraceConfig::every_request(), clock.clone());
                let (handles, entries): (Vec<_>, Vec<_>) = (0..4)
                    .map(|id| entry(id, &model, &metrics, &rec, &clock))
                    .unzip();
                let handles = Arc::new(handles);
                audits.push((Arc::clone(&handles), Arc::clone(&metrics), rec));
                let live = Arc::new(AtomicU64::new(2));
                let mut entries = entries.into_iter();
                let mut bodies: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                    .map(|_| {
                        let mine: Vec<Pending> = entries.by_ref().take(2).collect();
                        let (ring, live) = (Arc::clone(&ring), Arc::clone(&live));
                        Box::new(move || {
                            for e in mine {
                                assert!(matches!(ring.try_push(e, false), TryPush::Pushed));
                            }
                            // Last producer out begins shutdown (AcqRel:
                            // after both push runs), ending the drain.
                            if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                                ring.close();
                            }
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                let cancelled = Arc::clone(&handles);
                bodies.push(Box::new(move || {
                    cancelled[1].cancel();
                    cancelled[2].cancel();
                }));
                bodies.push(Box::new(move || {
                    let limiters = HashMap::new();
                    while let Some(head) = ring.pop_for_dispatch() {
                        if let Some(reason) = dead_verdict(&head, clock.now()) {
                            discard(head, reason, &metrics, &limiters);
                        } else {
                            let now = clock.now();
                            let group = take_group(&ring, head, CHUNK, now, &metrics, &limiters);
                            let size = group.len() as u64;
                            let (demux, xs) = Demux::new::<usize>(group, CHUNK, &metrics, &clock);
                            bump_by(&metrics.dispatched, size);
                            metrics.coalesced.record_ns(size);
                            let model = Arc::clone(&demux.members[0].model);
                            dp_serve::engine::run_chunks_inline(CHUNK, model, xs, ROW_ID, &demux);
                        }
                        ring.dispatch_done();
                    }
                }));
                bodies
            });
            assert_eq!(out.schedules, 1000);
            assert!(
                out.findings.is_empty(),
                "seed {master:#x}: {:?}",
                out.findings
            );
            assert!(
                out.distinct_traces >= 10,
                "seed {master:#x}: the seed is not steering the schedule \
                 ({} distinct traces)",
                out.distinct_traces
            );
            let mut coalesced_seen = false;
            for (run, (handles, metrics, rec)) in audits.iter().enumerate() {
                let at = format!("seed {master:#x} run {run}");
                for (id, h) in handles.iter().enumerate() {
                    let got = h
                        .poll()
                        .unwrap_or_else(|| panic!("{at}: handle {id} unresolved"));
                    let cancellable = id == 1 || id == 2;
                    assert!(
                        got == Ok(vec![id]) || (cancellable && got == Err(GatewayError::Cancelled)),
                        "{at}: handle {id} resolved to {got:?}"
                    );
                }
                let stats = rec.stats();
                assert_eq!((stats.begun, stats.terminals_total()), (4, 4), "{at}");
                assert_eq!(stats.dup_terminals, 0, "{at}");
                let snap = metrics.snapshot(0);
                // Dispatched or discarded, exactly once each.
                assert_eq!(snap.completed + snap.cancelled, 4, "{at}");
                assert!(snap.dispatched >= snap.completed, "{at}");
                assert_eq!(snap.coalesced.sum_ns, snap.dispatched, "{at}");
                assert_eq!(snap.failed, 0, "{at}");
                coalesced_seen |= snap.coalesced.count() < snap.dispatched;
            }
            assert!(
                coalesced_seen,
                "seed {master:#x}: no schedule ever coalesced — the test is \
                 not exercising the take-matching path"
            );
        }
    }
}
