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
//! `dp_emac::Emac::dot_layer` call per layer, operand decode amortized
//! across the chunk's samples) — and
//! because the tile contract is per-column bit-identity, results are
//! **bit-identical** to per-sample [`QuantizedMlp::forward_bits`].
//!
//! There is **one** chunk evaluator per result shape ([`forward_chunk`],
//! [`classify_chunk`]) and one place a chunk's outcome goes: the
//! [`ChunkSink`] handed to [`ServeEngine::try_dispatch`]. In-process
//! `submit_*` calls pass the [`BatchHandle`]'s completer; `dp_gateway`
//! passes its demux, which fans one chunk out to every request coalesced
//! into it.

use crate::claim::ClaimCell;
use crate::faults;
use crate::handle::{BatchHandle, JobError, JobHandle};
use crate::pool::{Job, PanicBudget, PoolStats, WatchdogConfig, WorkerPool};
use crate::registry::{ModelKey, ModelRegistry};
use deep_positron::{NumericFormat, QuantizedMlp};
use dp_datasets::Dataset;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Engine sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker thread count (clamped to ≥ 1). Defaults to
    /// [`deep_positron::batch::batch_threads`] — the machine's available
    /// parallelism unless `DEEP_POSITRON_THREADS` overrides it.
    pub workers: usize,
    /// Samples per chunk job when admission splits a batch (clamped to
    /// ≥ 1). The default of 64 keeps per-chunk EMAC construction amortized
    /// (cf. the scoped engine's 32-samples-per-thread spawn floor) while
    /// still feeding every worker on serving-scale batches.
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
            workers: deep_positron::batch::batch_threads(),
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

/// A shared cancellation flag for one request.
///
/// Cloning yields another handle to the same flag. The serving datapath
/// checks it at **chunk boundaries**: a sink reports it through
/// [`ChunkSink::cancelled`] before a chunk job starts its evaluation, and
/// looks again before it publishes the chunk's results — so an abandoned
/// batch stops burning workers within one chunk's latency instead of
/// finishing the whole request.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; an already-running chunk
    /// finishes, everything after the next check point is skipped and the
    /// affected handles resolve with [`JobError::Cancelled`].
    pub fn cancel(&self) {
        // seqcst-ok: standalone cancellation flag with no payload; the
        // cold full fence keeps a cancel immediately visible to every
        // chunk-boundary check.
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        // seqcst-ok: pairs with the store in `cancel`; read at chunk
        // boundaries, well off the per-MAC hot path.
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// The per-chunk evaluator shape: [`forward_chunk`] or [`classify_chunk`].
pub type ChunkEval<T> = fn(&QuantizedMlp, &[Vec<f32>]) -> Vec<T>;

/// Where the chunks of one [`ServeEngine::try_dispatch`] call deliver
/// their outcomes. Each chunk index is completed **exactly once** — by
/// whichever of normal completion, the chunk-boundary cancel check, panic
/// poisoning or the watchdog's stall resolution claims it first.
pub trait ChunkSink<T>: Send + Sync + 'static {
    /// Whether nobody wants chunk `index` any more; checked before the
    /// chunk is evaluated, which is then completed with
    /// [`JobError::Cancelled`] instead. Defaults to never.
    fn cancelled(&self, _index: usize) -> bool {
        false
    }

    /// Delivers chunk `index`'s outputs (in sample order) or its failure.
    fn complete_chunk(&self, index: usize, result: Result<Vec<T>, JobError>);
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
    /// the pool drains), returning the observed depth. See
    /// [`WorkerPool::wait_depth_below`].
    pub fn wait_depth_below(&self, below: usize) -> usize {
        self.pool.wait_depth_below(below)
    }

    /// Bounded [`ServeEngine::wait_depth_below`]: `Some(depth)` once the
    /// condition holds, `None` if `timeout` elapses first. Front ends use
    /// this to keep their drain loops responsive to their own deadlines
    /// even when a worker is wedged.
    pub fn wait_depth_below_for(
        &self,
        below: usize,
        timeout: std::time::Duration,
    ) -> Option<usize> {
        self.pool.wait_depth_below_for(below, timeout)
    }

    fn model(&self, key: &ModelKey) -> Result<Arc<QuantizedMlp>, ServeError> {
        self.registry
            .get(key)
            .ok_or_else(|| ServeError::UnknownModel(key.clone()))
    }

    /// [`ServeEngine::model`] restricted to models with an EMAC datapath
    /// (raw activations are undefined for the `F32` baseline).
    fn emac_model(&self, key: &ModelKey) -> Result<Arc<QuantizedMlp>, ServeError> {
        let model = self.model(key)?;
        if matches!(model.format, NumericFormat::F32) {
            return Err(ServeError::UnsupportedFormat(format!(
                "{key}: raw EMAC activations are undefined for the f32 baseline"
            )));
        }
        Ok(model)
    }

    /// The non-blocking dispatch seam: splits `xs` into chunk jobs running
    /// `eval` on the pool and returns immediately — it never waits for
    /// queue space or results. Chunk `i` covers samples
    /// `i * chunk_samples ..` and reports to `sink` under that index.
    ///
    /// Chunk enqueueing is **atomic** (via [`WorkerPool::spawn_batch`]):
    /// either every chunk of the request is admitted or, if the engine is
    /// closed or degraded, none is (and `sink` is never called). This is
    /// the one entry point every admission path drives: the `submit_*`
    /// methods below with a [`BatchHandle`]'s completer as the sink,
    /// `dp_gateway` with its demux.
    ///
    /// `scope` is the logical model name fault-injection hits are scoped
    /// by (see the `dp_fault` crate).
    ///
    /// Lifecycle guarantees per chunk: exactly **one** of normal
    /// completion, the chunk-boundary cancel check
    /// ([`ChunkSink::cancelled`]), panic poisoning, or the watchdog's
    /// stall resolution completes it (first claimant wins), so the sink
    /// can never see a double completion — not even when an abandoned
    /// worker's chunk eventually finishes after the watchdog already
    /// failed it.
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
        let jobs: Vec<(usize, Job)> = split_chunks(xs, self.chunk_samples)
            .into_iter()
            .enumerate()
            .map(|(index, chunk)| {
                let model = Arc::clone(&model);
                let sink = Arc::clone(&sink);
                let stall_sink = Arc::clone(&sink);
                let scope = scope.clone();
                // First claimant — normal completion, boundary cancel,
                // panic poisoning, or stall resolution — completes the
                // chunk; the rest no-op.
                let claimed = Arc::new(ClaimCell::new());
                let stall_claimed = Arc::clone(&claimed);
                // relaxed-ok: round-robin placement hint only; a torn or
                // reordered read just shifts which slot a chunk lands on.
                let slot = self.cursor.fetch_add(1, Ordering::Relaxed);
                let job = Job::with_stall_handler(
                    move || {
                        let scope = scope.as_deref();
                        // A planned sleep here wedges the worker exactly
                        // like a runaway evaluation would.
                        faults::fire(faults::points::STALL_WORKER, scope);
                        if claimed.is_claimed() {
                            // The watchdog already failed this chunk while
                            // the worker was wedged; don't evaluate it.
                            return;
                        }
                        // Chunk-boundary cancellation check.
                        if sink.cancelled(index) {
                            if claimed.claim("engine.chunk.cancel") {
                                sink.complete_chunk(index, Err(JobError::Cancelled));
                            }
                            return;
                        }
                        // A panic inside the model evaluation (or the
                        // `panic_in_chunk` failure point in front of it)
                        // fails only this chunk's share of the sink;
                        // re-raising lets the pool count it (and keep its
                        // worker alive).
                        match catch_unwind(AssertUnwindSafe(|| {
                            faults::fire(faults::points::PANIC_IN_CHUNK, scope);
                            eval(&model, &chunk)
                        })) {
                            Ok(out) => {
                                let dropped = faults::fire(faults::points::DROP_COMPLETION, scope);
                                if !dropped && claimed.claim("engine.chunk.complete") {
                                    sink.complete_chunk(index, Ok(out));
                                }
                            }
                            Err(payload) => {
                                if claimed.claim("engine.chunk.panic") {
                                    sink.complete_chunk(index, Err(JobError::Panicked));
                                }
                                std::panic::resume_unwind(payload);
                            }
                        }
                    },
                    move || {
                        if stall_claimed.claim("engine.chunk.stall") {
                            stall_sink.complete_chunk(index, Err(JobError::Stalled));
                        }
                    },
                );
                (slot, job)
            })
            .collect();
        self.pool
            .spawn_batch(jobs)
            .map_err(|_| ServeError::EngineClosed)
    }

    /// [`ServeEngine::try_dispatch`] with a fresh [`BatchHandle`] as the
    /// sink: what the in-process `submit_*` calls return.
    fn submit_batch<T: Send + 'static>(
        &self,
        model: Arc<QuantizedMlp>,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
        eval: ChunkEval<T>,
    ) -> Result<BatchHandle<T>, ServeError> {
        let chunks = xs.len().div_ceil(self.chunk_samples);
        let (handle, completer) = BatchHandle::pending(chunks);
        let scope = Some(Arc::from(key.name()));
        self.try_dispatch(model, xs, scope, eval, Arc::new(completer))?;
        Ok(handle)
    }

    /// Submits a batch for raw EMAC output activations (bit patterns),
    /// bit-identical to per-sample [`QuantizedMlp::forward_bits`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered key,
    /// [`ServeError::UnsupportedFormat`] for an `F32` model (no EMAC
    /// datapath), [`ServeError::EngineClosed`] after shutdown began.
    pub fn submit_forward(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
    ) -> Result<BatchHandle<Vec<u32>>, ServeError> {
        self.submit_batch(self.emac_model(key)?, key, xs, forward_chunk)
    }

    /// Submits a batch for class predictions, identical to per-sample
    /// [`QuantizedMlp::infer`] (all formats, including the `F32`
    /// baseline).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered key,
    /// [`ServeError::EngineClosed`] after shutdown began.
    pub fn submit_classify(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
    ) -> Result<BatchHandle<usize>, ServeError> {
        self.submit_batch(self.model(key)?, key, xs, classify_chunk)
    }

    /// Single-sample convenience: [`ServeEngine::submit_forward`] for one
    /// input, yielding the output activations directly.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit_forward`].
    pub fn submit_forward_one(
        &self,
        key: &ModelKey,
        x: Vec<f32>,
    ) -> Result<JobHandle<Vec<u32>>, ServeError> {
        let model = self.emac_model(key)?;
        self.submit_job(move || model.forward_bits(&x))
    }

    /// Single-sample convenience: class prediction for one input.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit_classify`].
    pub fn submit_classify_one(
        &self,
        key: &ModelKey,
        x: Vec<f32>,
    ) -> Result<JobHandle<usize>, ServeError> {
        let model = self.model(key)?;
        self.submit_job(move || model.infer(&x))
    }

    /// Runs an arbitrary closure on the pool, returning a handle to its
    /// value. A panic inside `f` poisons only the returned handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::EngineClosed`] after shutdown began;
    /// [`ServeError::Degraded`] while the panic budget is tripped.
    pub fn submit_job<T, F>(&self, f: F) -> Result<JobHandle<T>, ServeError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if self.pool.is_degraded() {
            return Err(ServeError::Degraded);
        }
        let (handle, completer) = JobHandle::pending();
        let stall_completer = completer.clone();
        let claimed = Arc::new(ClaimCell::new());
        let stall_claimed = Arc::clone(&claimed);
        self.pool
            .spawn(Job::with_stall_handler(
                move || match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => {
                        if claimed.claim("engine.job.complete") {
                            completer.complete(Ok(v));
                        }
                    }
                    Err(payload) => {
                        if claimed.claim("engine.job.panic") {
                            completer.complete(Err(JobError::Panicked));
                        }
                        std::panic::resume_unwind(payload);
                    }
                },
                move || {
                    if stall_claimed.claim("engine.job.stall") {
                        stall_completer.complete(Err(JobError::Stalled));
                    }
                },
            ))
            .map_err(|_| ServeError::EngineClosed)?;
        Ok(handle)
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

/// The canonical per-chunk forward evaluation: build the model's
/// per-layer EMAC array once, then run the whole chunk as one
/// weight-stationary sweep per layer
/// ([`QuantizedMlp::forward_batch_bits_with`] — one
/// `dp_emac::Emac::dot_layer` call per layer, with the chunk's samples as
/// the activation columns). This is the **single**
/// definition shared by [`ServeEngine::submit_forward`] and external front
/// ends (`dp_gateway`), so every admission path runs the identical
/// datapath and stays bit-identical to per-sample
/// [`QuantizedMlp::forward_bits`] (the tile contract).
///
/// # Panics
///
/// Panics if the model's format has no EMAC datapath. Callers must gate
/// admission the way the engine does: registration already validates EMAC
/// support ([`crate::ModelRegistry::register`]), so excluding the `F32`
/// baseline at admission makes this infallible inside a pool worker.
pub fn forward_chunk(model: &QuantizedMlp, chunk: &[Vec<f32>]) -> Vec<Vec<u32>> {
    let mut emacs = model
        .make_layer_emacs()
        .expect("admission validated the format"); // panic-ok: registry admission excludes formats without an EMAC datapath
    model.forward_batch_bits_with(&mut emacs, chunk)
}

/// The canonical per-chunk classification: the tile-sweep datapath where
/// an EMAC exists, plain float math for the `F32` baseline. Shared by
/// [`ServeEngine::submit_classify`] and external front ends (`dp_gateway`)
/// — see [`forward_chunk`].
pub fn classify_chunk(model: &QuantizedMlp, chunk: &[Vec<f32>]) -> Vec<usize> {
    match model.make_layer_emacs() {
        Some(mut emacs) => model.infer_batch_with(&mut emacs, chunk),
        None => chunk.iter().map(|x| model.infer(x)).collect(),
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

#[cfg(test)]
mod tests {
    use super::*;

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
