//! The serving engine: admission control in front of the worker pool.
//!
//! A [`ServeEngine`] owns one long-lived [`WorkerPool`] and one
//! [`ModelRegistry`], and serves heterogeneous traffic — posit, minifloat
//! and fixed-point models side by side — from that single pool. Admission
//! accepts a request (a single sample or a batch against a registered
//! model), splits large batches into chunks of
//! [`EngineConfig::chunk_samples`], spreads the chunks round-robin across
//! the workers' LIFO slots (idle workers steal), and returns a completion
//! handle immediately. Each chunk job builds the model's per-layer EMAC
//! array once and sweeps its whole chunk through the weight-stationary
//! layer kernels ([`QuantizedMlp::forward_batch_bits_with`]: one
//! `dp_emac::Emac::dot_plan` call per layer over the layer's plan, compiled
//! when the model was registered, activation decode amortized across the
//! chunk's samples) — and because the tile contract is
//! per-column bit-identity, results are **bit-identical** to per-sample
//! [`QuantizedMlp::forward_bits`].
//!
//! There is **one** chunk evaluator per result shape
//! ([`QuantizedMlp::forward_batch`], [`QuantizedMlp::infer_batch`] — the
//! same calls a caller without an engine makes on its own thread), **one**
//! place chunk outcomes are reassembled
//! ([`ServeEngine::try_dispatch`] owns it) and one place the result goes:
//! a single [`ChunkSink::complete`] call per dispatch. In-process
//! `submit_*` calls pass the [`BatchHandle`]'s cell; `dp_gateway` passes
//! its demux, which fans the result out to the requests it coalesced.

use crate::check::{self, check_yield, Mutex};
use crate::faults;
use crate::handle::{BatchHandle, JobError};
use crate::pool::{Job, PanicBudget, PoolStats, WatchdogConfig, WorkerPool};
use crate::registry::{ModelKey, ModelRegistry};
use deep_positron::{NumericFormat, QuantizedMlp};
use dp_datasets::Dataset;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};

/// The environment variable overriding the pool's worker-thread count.
const THREADS_ENV: &str = "DEEP_POSITRON_THREADS";

/// Result of parsing a [`THREADS_ENV`] override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadOverride {
    /// Variable absent or empty: use the machine default.
    Unset,
    /// A valid explicit worker count (≥ 1).
    Threads(usize),
    /// Present but not a positive integer (`0`, junk, overflow): the
    /// override is rejected and the machine default applies.
    Invalid,
}

/// Parses a [`THREADS_ENV`] value. `None` and empty/whitespace strings are
/// [`ThreadOverride::Unset`]; `0`, non-numeric and overflowing values are
/// [`ThreadOverride::Invalid`] rather than being silently clamped or
/// silently ignored.
fn parse_thread_override(raw: Option<&str>) -> ThreadOverride {
    let Some(raw) = raw else {
        return ThreadOverride::Unset;
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return ThreadOverride::Unset;
    }
    match trimmed.parse::<usize>() {
        Ok(0) | Err(_) => ThreadOverride::Invalid,
        Ok(n) => ThreadOverride::Threads(n),
    }
}

/// Default pool size: a valid [`THREADS_ENV`] override when set, otherwise
/// the machine's available parallelism. An invalid override (zero or
/// non-numeric) is rejected with a one-time warning on stderr and the
/// default is used instead.
fn default_workers() -> usize {
    let raw = std::env::var(THREADS_ENV).ok();
    match parse_thread_override(raw.as_deref()) {
        ThreadOverride::Threads(n) => n,
        ThreadOverride::Unset => machine_threads(),
        ThreadOverride::Invalid => {
            static WARN: Once = Once::new();
            WARN.call_once(|| {
                eprintln!(
                    "warning: {THREADS_ENV}={:?} is not a positive integer; \
                     falling back to {} worker thread(s)",
                    raw.unwrap_or_default(),
                    machine_threads()
                );
            });
            machine_threads()
        }
    }
}

fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker thread count (clamped to ≥ 1). Defaults to the machine's
    /// available parallelism unless the `DEEP_POSITRON_THREADS`
    /// environment variable overrides it (a positive integer; `0` or junk
    /// is rejected with a one-time warning on stderr).
    pub workers: usize,
    /// Samples per chunk job when admission splits a batch (clamped to
    /// ≥ 1). The default of 64 keeps per-chunk EMAC construction amortized
    /// while still feeding every worker on serving-scale batches.
    pub chunk_samples: usize,
    /// Optional stall watchdog: a wedged worker is detected, its job's
    /// handle failed with [`JobError::Stalled`], and the worker respawned
    /// (see [`WatchdogConfig`]). `None` (the default) keeps the PR-4
    /// behaviour: a wedged worker wedges forever.
    pub watchdog: Option<WatchdogConfig>,
    /// Optional panic budget: too many worker panics inside a trailing
    /// window flip the engine to degraded mode, where every new
    /// submission is rejected with [`ServeError::Degraded`] (see
    /// [`PanicBudget`]). `None` (the default) never degrades.
    pub panic_budget: Option<PanicBudget>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: default_workers(),
            chunk_samples: 64,
            watchdog: None,
            panic_budget: None,
        }
    }
}

/// Errors surfaced at admission or completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request named a key with no registered model.
    UnknownModel(ModelKey),
    /// The operation is not defined for the model's format (e.g. raw
    /// EMAC activations of an `F32` baseline model, which has no EMAC
    /// datapath).
    UnsupportedFormat(String),
    /// The engine is closed (shutdown has begun) and rejected the whole
    /// submission — **no** chunk of the request was enqueued.
    EngineClosed,
    /// The engine is in degraded mode (the worker panic budget tripped —
    /// see [`PanicBudget`]): metrics and already-admitted work still
    /// drain, but every new submission is rejected until an operator
    /// calls [`ServeEngine::reset_degraded`].
    Degraded,
    /// A worker job failed; the failure poisoned only this request.
    Job(JobError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(key) => write!(f, "no model registered under {key}"),
            ServeError::UnsupportedFormat(what) => write!(f, "{what}"),
            ServeError::EngineClosed => write!(f, "serving engine is closed (shutting down)"),
            ServeError::Degraded => write!(
                f,
                "serving engine is degraded (worker panic budget exceeded); \
                 new submissions are rejected"
            ),
            ServeError::Job(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<JobError> for ServeError {
    fn from(e: JobError) -> Self {
        ServeError::Job(e)
    }
}

/// The per-chunk evaluator shape: [`QuantizedMlp::forward_batch`] or
/// [`QuantizedMlp::infer_batch`].
pub type ChunkEval<T> = fn(&QuantizedMlp, &[Vec<f32>]) -> Vec<T>;

/// Where one [`ServeEngine::try_dispatch`] call delivers its result. The
/// engine assembles the chunk outcomes itself and calls
/// [`complete`](ChunkSink::complete) **exactly once** per dispatch.
pub trait ChunkSink<T>: Send + Sync + 'static {
    /// Whether nobody wants the result any more (default: never); asked
    /// before a chunk is evaluated, which then is [`JobError::Cancelled`].
    fn cancelled(&self) -> bool {
        false
    }

    /// One chunk's outcome was recorded (the trace stamp). Called once per
    /// chunk, always before [`complete`](ChunkSink::complete).
    fn chunk_done(&self) {}

    /// Delivers the dispatch's outputs (in sample order) or its failure.
    fn complete(&self, result: Result<Vec<T>, JobError>);
}

/// Chunk outcomes of one dispatch until the last one lands. A chunk's
/// racing claimants (see [`ServeEngine::try_dispatch`]) meet at its slot,
/// under the one lock: the **first** fills it, every later one no-ops.
pub(crate) struct Assembly<T, S> {
    sink: Arc<S>,
    state: Mutex<AssemblyState<T>>,
}

struct AssemblyState<T> {
    /// One slot per chunk: filled in any order, read out in order, and
    /// once filled, filled for good.
    slots: Vec<Option<Result<Vec<T>, JobError>>>,
    remaining: usize,
}

impl<T, S: ChunkSink<T>> Assembly<T, S> {
    pub(crate) fn new(chunks: usize, sink: Arc<S>) -> Self {
        let state = AssemblyState {
            slots: (0..chunks).map(|_| None).collect(),
            remaining: chunks,
        };
        Assembly {
            sink,
            state: check::mutex("engine.assembly", state),
        }
    }

    fn st(&self) -> check::MutexGuard<'_, AssemblyState<T>> {
        // panic-ok: holders only move parts and call the sink's lock-free
        // stamp; no unwind, so poisoning is unreachable.
        self.state.lock().expect("assembly lock")
    }

    /// Whether some path already claimed chunk `index` (advisory: a
    /// `false` can be stale by the time the caller acts; `fill` decides).
    fn is_filled(&self, index: usize) -> bool {
        self.st().slots[index].is_some()
    }

    /// Claims chunk `index` with `result`; a no-op unless this is the
    /// chunk's first claimant. The last chunk in hands the sink the
    /// assembled result: the parts in chunk order, or the first failure in
    /// chunk order — where a failure outranks a cancellation. `point`
    /// names the claiming path for the interleaving checker.
    pub(crate) fn fill(&self, index: usize, result: Result<Vec<T>, JobError>, point: &'static str) {
        check_yield!(point);
        let mut out = Vec::new();
        let mut failed: Option<JobError> = None;
        {
            let mut st = self.st();
            if st.slots[index].is_some() {
                return;
            }
            st.slots[index] = Some(result);
            // Under the lock, so every chunk's stamp precedes whatever
            // terminal the sink emits from `complete`.
            self.sink.chunk_done();
            st.remaining -= 1;
            if st.remaining > 0 {
                return;
            }
            for slot in st.slots.iter_mut().flatten() {
                match slot {
                    // A one-chunk dispatch hands its part over as is.
                    Ok(part) if out.is_empty() => std::mem::swap(&mut out, part),
                    Ok(part) => out.append(part),
                    Err(e) if failed.is_none_or(|f| f == JobError::Cancelled) => failed = Some(*e),
                    Err(_) => {}
                }
            }
        }
        self.sink.complete(failed.map_or(Ok(out), Err));
    }
}

/// A persistent serving engine: one worker pool, one registry, many
/// formats.
#[derive(Debug)]
pub struct ServeEngine {
    pool: WorkerPool,
    registry: Arc<ModelRegistry>,
    chunk_samples: usize,
    /// Round-robin cursor for spreading chunks across worker slots.
    cursor: AtomicUsize,
}

impl ServeEngine {
    /// Builds an engine from `config`.
    pub fn new(config: EngineConfig) -> Self {
        ServeEngine {
            pool: WorkerPool::with_supervision(
                config.workers.max(1),
                config.watchdog,
                config.panic_budget,
            ),
            registry: Arc::new(ModelRegistry::new()),
            chunk_samples: config.chunk_samples.max(1),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Builds an engine with [`EngineConfig::default`] sizing.
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The model registry (register/lookup/unregister models here).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Pool observability counters.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Whether the worker panic budget has tripped (see
    /// [`EngineConfig::panic_budget`]): already-admitted work drains and
    /// metrics stay readable, but new submissions are rejected with
    /// [`ServeError::Degraded`].
    pub fn is_degraded(&self) -> bool {
        self.pool.is_degraded()
    }

    /// Operator action: leaves degraded mode and forgets the panic
    /// history that tripped it.
    pub fn reset_degraded(&self) {
        self.pool.reset_degraded();
    }

    /// Chunk size admission splits batches into (see
    /// [`EngineConfig::chunk_samples`]). Front ends use this to predict
    /// how many pool jobs a request will become.
    pub fn chunk_samples(&self) -> usize {
        self.chunk_samples
    }

    /// Per-worker busy time in milliseconds (`0` = idle); see
    /// [`WorkerPool::worker_busy_ms`](crate::pool::WorkerPool::worker_busy_ms).
    pub fn worker_busy_ms(&self) -> Vec<u64> {
        self.pool.worker_busy_ms()
    }

    /// Queued + running pool jobs — the backpressure signal a bounded
    /// front end (the `dp_gateway` dispatcher) throttles on.
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// Blocks until [`ServeEngine::queue_depth`] drops below `below` (or
    /// the pool drains): `Some(depth)` once the condition holds, `None` if
    /// `timeout` elapses first. Front ends wait in bounded slices so their
    /// drain loops stay responsive to their own deadlines even when a
    /// worker is wedged.
    pub fn wait_depth_below_for(
        &self,
        below: usize,
        timeout: std::time::Duration,
    ) -> Option<usize> {
        self.pool.wait_depth_below_for(below, timeout)
    }

    /// The admission screen every front end shares: resolves `key` and
    /// rejects, on the caller's thread, what a chunk evaluator would
    /// otherwise panic on inside a pool worker.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered key;
    /// [`ServeError::UnsupportedFormat`] for raw activations (`raw`) of the
    /// `F32` baseline, which has no EMAC datapath, and for any row whose
    /// length is not the model's input width.
    pub fn screen(
        &self,
        key: &ModelKey,
        xs: &[Vec<f32>],
        raw: bool,
    ) -> Result<Arc<QuantizedMlp>, ServeError> {
        let model = self
            .registry
            .get(key)
            .ok_or_else(|| ServeError::UnknownModel(key.clone()))?;
        if raw && matches!(model.format, NumericFormat::F32) {
            return Err(ServeError::UnsupportedFormat(format!(
                "{key}: raw EMAC activations are undefined for the f32 baseline"
            )));
        }
        let width = model.layers[0].fan_in();
        if let Some((row, x)) = xs.iter().enumerate().find(|(_, x)| x.len() != width) {
            return Err(ServeError::UnsupportedFormat(format!(
                "{key}: row {row} has {} features, the model takes {width}",
                x.len()
            )));
        }
        Ok(model)
    }

    /// The non-blocking dispatch seam: splits `xs` into chunk jobs running
    /// `eval` on the pool and returns immediately — it never waits for
    /// queue space or results. Chunk `i` covers samples
    /// `i * chunk_samples ..`; the engine puts the chunk outcomes back
    /// together in that order and calls `sink.complete` **once**, from
    /// whichever thread records the last chunk (inline for an empty `xs`).
    ///
    /// Chunk enqueueing is **atomic** (via [`WorkerPool::spawn_batch`]):
    /// either every chunk of the request is admitted or, if the engine is
    /// closed or degraded, none is (and `sink` is never called). This is
    /// the one entry point every admission path drives: the `submit_*`
    /// methods below with a [`BatchHandle`]'s cell as the sink,
    /// `dp_gateway` with its demux. Callers run [`ServeEngine::screen`]
    /// first; the evaluators panic on rows it would have rejected.
    ///
    /// `scope` is the logical model name fault-injection hits are scoped
    /// by (see the `dp_fault` crate).
    ///
    /// Per chunk, exactly **one** of normal completion, the chunk-boundary
    /// cancel check ([`ChunkSink::cancelled`]), panic poisoning, or the
    /// watchdog's stall resolution records the outcome (first claimant
    /// wins) — not even an abandoned worker's chunk finishing after the
    /// watchdog already failed it can change the result.
    ///
    /// # Errors
    ///
    /// [`ServeError::EngineClosed`] once shutdown has begun, or
    /// [`ServeError::Degraded`] while the panic budget is tripped; no
    /// chunk was enqueued either way.
    pub fn try_dispatch<T, S>(
        &self,
        model: Arc<QuantizedMlp>,
        xs: Vec<Vec<f32>>,
        scope: Option<Arc<str>>,
        eval: ChunkEval<T>,
        sink: Arc<S>,
    ) -> Result<(), ServeError>
    where
        T: Send + 'static,
        S: ChunkSink<T>,
    {
        if self.pool.is_degraded() {
            return Err(ServeError::Degraded);
        }
        let jobs: Vec<(usize, Job)> = chunk_jobs(self.chunk_samples, model, xs, scope, eval, &sink)
            .into_iter()
            // relaxed-ok: round-robin placement hint only; a torn or
            // reordered read just shifts which slot a chunk lands on.
            .map(|job| (self.cursor.fetch_add(1, Ordering::Relaxed), job))
            .collect();
        let empty = jobs.is_empty();
        self.pool
            .spawn_batch(jobs)
            .map_err(|_| ServeError::EngineClosed)?;
        if empty {
            sink.complete(Ok(Vec::new()));
        }
        Ok(())
    }

    /// [`ServeEngine::screen`], then [`ServeEngine::try_dispatch`] with a
    /// fresh [`BatchHandle`]'s cell as the sink: what the in-process
    /// `submit_*` calls return.
    fn submit_batch<T: Send + 'static>(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
        raw: bool,
        eval: ChunkEval<T>,
    ) -> Result<BatchHandle<T>, ServeError> {
        let model = self.screen(key, &xs, raw)?;
        let (handle, cell) = BatchHandle::pending();
        let scope = Some(Arc::from(key.name()));
        self.try_dispatch(model, xs, scope, eval, cell)?;
        Ok(handle)
    }

    /// Submits a batch for raw EMAC output activations (bit patterns),
    /// bit-identical to per-sample [`QuantizedMlp::forward_bits`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered key,
    /// [`ServeError::UnsupportedFormat`] for an `F32` model (no EMAC
    /// datapath) or a row of the wrong width, [`ServeError::EngineClosed`]
    /// after shutdown began, [`ServeError::Degraded`] while the panic
    /// budget is tripped.
    pub fn submit_forward(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
    ) -> Result<BatchHandle<Vec<u32>>, ServeError> {
        self.submit_batch(key, xs, true, QuantizedMlp::forward_batch)
    }

    /// Submits a batch for class predictions, identical to per-sample
    /// [`QuantizedMlp::infer`] (all formats, including the `F32`
    /// baseline).
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit_forward`], except that `F32` models are
    /// served.
    pub fn submit_classify(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
    ) -> Result<BatchHandle<usize>, ServeError> {
        self.submit_batch(key, xs, false, QuantizedMlp::infer_batch)
    }

    /// Classification accuracy of a registered model over a dataset,
    /// evaluated on the pool (the serving-path counterpart of
    /// [`QuantizedMlp::accuracy`], with which it agrees exactly).
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit_classify`].
    pub fn accuracy(&self, key: &ModelKey, data: &Dataset) -> Result<f64, ServeError> {
        if data.is_empty() {
            return Ok(0.0);
        }
        let preds = self.submit_classify(key, data.features.clone())?.wait()?;
        let correct = preds
            .iter()
            .zip(&data.labels)
            .filter(|(p, &y)| **p == y)
            .count();
        Ok(correct as f64 / data.len() as f64)
    }

    /// Blocks until every submitted job has finished.
    pub fn wait_idle(&self) {
        self.pool.wait_idle();
    }

    /// Closes admission through a shared reference: every subsequent
    /// submission returns [`ServeError::EngineClosed`] (with **zero**
    /// chunks enqueued — see [`ServeEngine::try_dispatch`]), while
    /// already-admitted jobs keep draining. Workers are joined by
    /// [`ServeEngine::shutdown`] or drop.
    pub fn close(&self) {
        self.pool.begin_shutdown();
    }

    /// Graceful shutdown: stops admission, drains every queued and
    /// in-flight request (their handles complete), joins the workers.
    /// Dropping the engine does the same.
    pub fn shutdown(mut self) {
        self.pool.shutdown();
    }
}

/// The chunk jobs of one dispatch, in chunk order, all reporting to one
/// fresh [`Assembly`] in front of `sink`.
fn chunk_jobs<T: Send + 'static, S: ChunkSink<T>>(
    chunk_samples: usize,
    model: Arc<QuantizedMlp>,
    xs: Vec<Vec<f32>>,
    scope: Option<Arc<str>>,
    eval: ChunkEval<T>,
    sink: &Arc<S>,
) -> Vec<Job> {
    let chunks = split_chunks(xs, chunk_samples);
    let assembly = Arc::new(Assembly::new(chunks.len(), Arc::clone(sink)));
    chunks
        .into_iter()
        .enumerate()
        .map(|(index, chunk)| {
            let model = Arc::clone(&model);
            let assembly = Arc::clone(&assembly);
            let stalled = Arc::clone(&assembly);
            let scope = scope.clone();
            Job::with_stall_handler(
                move || {
                    let scope = scope.as_deref();
                    // A planned sleep here wedges the worker exactly
                    // like a runaway evaluation would.
                    faults::fire(faults::points::STALL_WORKER, scope);
                    if assembly.is_filled(index) {
                        // The watchdog already failed this chunk while
                        // the worker was wedged; don't evaluate it.
                        return;
                    }
                    // Chunk-boundary cancellation check.
                    if assembly.sink.cancelled() {
                        assembly.fill(index, Err(JobError::Cancelled), "engine.chunk.cancel");
                        return;
                    }
                    // A panic inside the model evaluation (or the
                    // `panic_in_chunk` failure point in front of it)
                    // fails only this dispatch; re-raising once the slot
                    // is filled lets the pool count it (and keep its
                    // worker alive).
                    match catch_unwind(AssertUnwindSafe(|| {
                        faults::fire(faults::points::PANIC_IN_CHUNK, scope);
                        eval(&model, &chunk)
                    })) {
                        Ok(out) => {
                            if !faults::fire(faults::points::DROP_COMPLETION, scope) {
                                assembly.fill(index, Ok(out), "engine.chunk.complete");
                            }
                        }
                        Err(payload) => {
                            assembly.fill(index, Err(JobError::Panicked), "engine.chunk.panic");
                            std::panic::resume_unwind(payload);
                        }
                    }
                },
                move || stalled.fill(index, Err(JobError::Stalled), "engine.chunk.stall"),
            )
        })
        .collect()
}

/// Checker seam (`check-yield` builds only): runs the chunk jobs of one
/// dispatch on the calling — scheduled — thread instead of the pool, so a
/// schedule explores the real job body, assembly and sink.
#[cfg(feature = "check-yield")]
#[doc(hidden)]
pub fn run_chunks_inline<T: Send + 'static>(
    chunk_samples: usize,
    model: Arc<QuantizedMlp>,
    xs: Vec<Vec<f32>>,
    eval: ChunkEval<T>,
    sink: &Arc<impl ChunkSink<T>>,
) {
    for job in chunk_jobs(chunk_samples, model, xs, None, eval, sink) {
        (job.run)();
    }
}

/// Splits owned samples into chunks of at most `chunk_samples`, preserving
/// order.
fn split_chunks(xs: Vec<Vec<f32>>, chunk_samples: usize) -> Vec<Vec<Vec<f32>>> {
    let chunk_samples = chunk_samples.max(1);
    let mut chunks = Vec::with_capacity(xs.len().div_ceil(chunk_samples));
    let mut rest = xs;
    while rest.len() > chunk_samples {
        let tail = rest.split_off(chunk_samples);
        chunks.push(std::mem::replace(&mut rest, tail));
    }
    if !rest.is_empty() {
        chunks.push(rest);
    }
    chunks
}

/// Seeded PCT interleave test (compiled only with `--features
/// check-yield`): the checker drives the *real* chunk jobs, assembly and
/// cell through 1000 schedules × 3 seeds instead of hoping the OS
/// scheduler stumbles into the bad ordering.
#[cfg(all(test, feature = "check-yield"))]
mod interleave_tests {
    use super::*;
    use crate::handle::Completion;
    use dp_check::sched::explore;
    use std::sync::atomic::AtomicBool;

    type Outcome = Result<Vec<usize>, JobError>;

    /// The real cell behind counters (first-wins would hide a second
    /// `complete`, so the calls are counted in front of it) and a cancel
    /// flag.
    #[derive(Default)]
    struct Counted {
        cell: Completion<Outcome>,
        stamps: AtomicUsize,
        completes: AtomicUsize,
        cancelled: AtomicBool,
    }

    impl ChunkSink<usize> for Counted {
        fn cancelled(&self) -> bool {
            // seqcst-ok: test stand-in for the gateway's cancel flag.
            self.cancelled.load(Ordering::SeqCst)
        }

        fn chunk_done(&self) {
            // relaxed-ok: per-run test tally, read only after the schedule
            // has joined every thread.
            self.stamps.fetch_add(1, Ordering::Relaxed);
        }

        fn complete(&self, result: Outcome) {
            // relaxed-ok: see `chunk_done`.
            self.completes.fetch_add(1, Ordering::Relaxed);
            self.cell.resolve(result);
        }
    }

    /// The race the slots exist for, on one dispatch of three chunks: the
    /// three workers finish in any order, the watchdog's stall handler
    /// races chunk 1's worker, a canceller flips the sink's flag under
    /// the chunk-boundary checks, and a waiter blocks on the cell. Under
    /// every schedule each chunk has exactly one winner (three stamps)
    /// and `complete` is called exactly once — with every part in chunk
    /// order, or `Cancelled`, or (when the stall claimed chunk 1 first)
    /// `Stalled`, which chunk 1's normal completion limping in
    /// afterwards does not change.
    #[test]
    fn completion_stall_cancel_race_has_one_winner_per_schedule() {
        let mlp = deep_positron::Mlp::new(&[1, 2], 1);
        let model = Arc::new(QuantizedMlp::quantize(&mlp, NumericFormat::F32));
        // Each row carries its own index, so the parts name their order.
        let eval: ChunkEval<usize> = |_, chunk| chunk.iter().map(|row| row[0] as usize).collect();
        let outcomes: [Outcome; 3] = [
            Ok((0..6).collect()),
            Err(JobError::Stalled),
            Err(JobError::Cancelled),
        ];
        let mut seen = [0usize; 3];
        for master in [0x51AB_0001u64, 0x51AB_0002, 0x51AB_0003] {
            let mut sinks: Vec<Arc<Counted>> = Vec::new();
            let out = explore(master, 1000, 3, |_| {
                let sink = Arc::new(Counted::default());
                sinks.push(Arc::clone(&sink));
                let xs = (0..6).map(|i| vec![i as f32]).collect();
                let mut jobs = chunk_jobs(2, Arc::clone(&model), xs, None, eval, &sink);
                let stall = jobs[1].on_stalled.take().expect("chunk jobs carry one");
                let mut bodies: Vec<Box<dyn FnOnce() + Send>> =
                    jobs.into_iter().map(|job| job.run).collect();
                bodies.push(stall);
                let canceller = Arc::clone(&sink);
                bodies.push(Box::new(move || {
                    // seqcst-ok: pairs with the load in `Counted::cancelled`.
                    canceller.cancelled.store(true, Ordering::SeqCst)
                }));
                let expected = outcomes.clone();
                bodies.push(Box::new(move || {
                    let got = sink.cell.wait();
                    assert!(expected.contains(&got), "waiter woke to {got:?}");
                }));
                bodies
            });
            assert_eq!(out.schedules, 1000);
            assert!(out.findings.is_empty(), "findings: {:?}", out.findings);
            assert!(
                out.distinct_traces >= 4,
                "seed {master:#x}: the seed is not steering the schedule \
                 ({} distinct traces)",
                out.distinct_traces
            );
            for (run, sink) in sinks.iter().enumerate() {
                // relaxed-ok: see `Counted::chunk_done` — the run's threads
                // are already joined.
                let tally = [&sink.stamps, &sink.completes].map(|c| c.load(Ordering::Relaxed));
                assert_eq!(tally, [3, 1], "seed {master:#x} run {run}");
                let got = sink.cell.poll().expect("resolved");
                seen[outcomes
                    .iter()
                    .position(|o| *o == got)
                    .expect("a listed outcome")] += 1;
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "served / stalled / cancelled runs: {seen:?} — a claim path never won"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_positive_integers() {
        assert_eq!(parse_thread_override(Some("1")), ThreadOverride::Threads(1));
        assert_eq!(parse_thread_override(Some("4")), ThreadOverride::Threads(4));
        assert_eq!(
            parse_thread_override(Some(" 16 ")),
            ThreadOverride::Threads(16)
        );
    }

    #[test]
    fn parse_treats_missing_and_empty_as_unset() {
        assert_eq!(parse_thread_override(None), ThreadOverride::Unset);
        assert_eq!(parse_thread_override(Some("")), ThreadOverride::Unset);
        assert_eq!(parse_thread_override(Some("   ")), ThreadOverride::Unset);
    }

    #[test]
    fn parse_rejects_zero_and_junk() {
        for bad in ["0", "-1", "two", "4.5", "4t", "99999999999999999999999"] {
            assert_eq!(
                parse_thread_override(Some(bad)),
                ThreadOverride::Invalid,
                "{bad}"
            );
        }
    }

    #[test]
    fn default_workers_is_at_least_one() {
        // Whatever the environment says, the policy never returns zero.
        assert!(default_workers() >= 1);
    }

    #[test]
    fn split_chunks_preserves_order_and_sizes() {
        let xs: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32]).collect();
        let chunks = split_chunks(xs.clone(), 4);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 4);
        assert_eq!(chunks[1].len(), 4);
        assert_eq!(chunks[2].len(), 2);
        let flat: Vec<Vec<f32>> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, xs);
        assert!(split_chunks(Vec::new(), 4).is_empty());
        assert_eq!(split_chunks(xs.clone(), 1).len(), 10);
        assert_eq!(split_chunks(xs, 100).len(), 1);
    }
}
