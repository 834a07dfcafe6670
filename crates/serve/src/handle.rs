//! Completion handles: how callers get results back out of the pool.
//!
//! Submission returns immediately with a handle; the result arrives
//! through **one** [`Completion`] cell — the only `Mutex + Condvar` result
//! slot in the serving stack. A [`BatchHandle`] is that cell holding the
//! engine's assembled `Result<Vec<T>, JobError>`; `dp_gateway`'s handle is
//! the same cell holding its own verdict type, plus a stage marker and a
//! cancel flag. Chunk reassembly is not here: [`ServeEngine::try_dispatch`]
//! owns it and calls its sink once, with the finished result. A chunk that
//! panics poisons **only its own request** ([`JobError::Panicked`]); the
//! pool and every other in-flight request are unaffected.
//!
//! [`ServeEngine::try_dispatch`]: crate::ServeEngine::try_dispatch

use crate::check::{self, check_yield, Condvar, Mutex, MutexGuard};
use crate::engine::ChunkSink;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a submitted job failed to produce a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The job's closure panicked; the panic was confined to this handle.
    Panicked,
    /// The watchdog declared the worker running this job stalled; the
    /// worker was respawned and only this job's handle failed.
    Stalled,
    /// The sink no longer wanted the result
    /// ([`ChunkSink::cancelled`]) before the job finished.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked => write!(f, "serving job panicked"),
            JobError::Stalled => write!(f, "serving job stalled its worker (worker respawned)"),
            JobError::Cancelled => write!(f, "serving job was cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

/// The one completion cell of the serving stack: a result slot that is
/// stored at most once and read any number of times.
///
/// **First resolution wins**: once stored, the value is never
/// overwritten, so a late verdict (an engine result limping in after the
/// request expired, a second stall report) can never clobber the one
/// callers may have seen. Readers get clones of the cached value, which
/// makes a second `wait` / `poll` defined behaviour rather than a panic.
pub struct Completion<R> {
    state: Mutex<Option<R>>,
    ready: Condvar,
}

impl<R> Default for Completion<R> {
    fn default() -> Self {
        Completion {
            state: check::mutex("serve.completion", None),
            ready: check::condvar(),
        }
    }
}

impl<R> Completion<R> {
    fn st(&self) -> MutexGuard<'_, Option<R>> {
        // panic-ok: the cell lock is only poisoned if a holder panicked
        // mid-section; the sections here are an `Option` store and clones
        // of caller data — a poisoned lock means the resolution state is
        // already torn and no verdict would be trustworthy.
        self.state.lock().expect("completion lock")
    }

    /// Stores the resolution **without waking anyone** — pair with
    /// [`Completion::wake`]. A sink that resolves several cells at once
    /// (the gateway's demux over a coalesced chunk) stores every one
    /// first and wakes afterwards, so a waiter that owns several of them
    /// (a connection writer) wakes to a run of ready handles. An
    /// already-resolved cell is left untouched (first wins).
    pub fn store(&self, result: R) {
        check_yield!("handle.resolve");
        self.st().get_or_insert(result);
    }

    /// Wakes every waiter (after a [`Completion::store`]).
    pub fn wake(&self) {
        self.ready.notify_all();
    }

    /// [`store`](Completion::store), then [`wake`](Completion::wake).
    pub fn resolve(&self, result: R) {
        self.store(result);
        self.wake();
    }

    /// Whether a result is available without blocking.
    pub fn is_done(&self) -> bool {
        self.st().is_some()
    }
}

impl<R: Clone> Completion<R> {
    /// Non-blocking: the resolution if there is one, `None` until then.
    pub fn poll(&self) -> Option<R> {
        check_yield!("handle.poll");
        self.st().clone()
    }

    /// Blocks until the cell resolves.
    pub fn wait(&self) -> R {
        let mut st = self.st();
        loop {
            if let Some(r) = &*st {
                return r.clone();
            }
            // panic-ok: see `Completion::st`.
            st = self.ready.wait(st).expect("completion lock");
        }
    }

    /// Bounded [`Completion::wait`]: `None` if `timeout` elapses first;
    /// the cell stays fully usable afterwards.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<R> {
        // clock-ok: caller-side wall-clock wait bound (the OS condvar wait
        // below is real-time anyway); the serving pipeline's own
        // timestamps go through the dp_trace clock seam.
        let deadline = Instant::now() + timeout;
        let mut st = self.st();
        loop {
            if let Some(r) = &*st {
                return Some(r.clone());
            }
            // clock-ok: see the deadline note above.
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timeout) = self
                .ready
                .wait_timeout(st, deadline - now)
                .expect("completion lock"); // panic-ok: see `Completion::st`
            st = guard;
        }
    }
}

/// The sink of the in-process `submit_*` calls: the engine's one
/// `complete` call resolves the cell.
impl<T: Send + 'static> ChunkSink<T> for Completion<Result<Vec<T>, JobError>> {
    fn complete(&self, result: Result<Vec<T>, JobError>) {
        self.resolve(result);
    }
}

/// Handle to a batch request submitted to the engine.
///
/// The result is the concatenation of the per-chunk outputs in the
/// original sample order — byte-for-byte the same `Vec` a serial
/// evaluation would produce. If **any** chunk fails the whole request
/// reports that chunk's [`JobError`] (after all of its chunks have left
/// the pool, so a failed request never leaves stray jobs behind).
/// Resolution is cached: `wait` / `poll` can be called repeatedly and
/// return clones of the same result.
pub struct BatchHandle<T> {
    cell: Arc<Completion<Result<Vec<T>, JobError>>>,
}

impl<T> std::fmt::Debug for BatchHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl<T> BatchHandle<T> {
    /// A pending handle and the cell that resolves it.
    #[allow(clippy::type_complexity)] // the cell type is spelled once, here
    pub(crate) fn pending() -> (Self, Arc<Completion<Result<Vec<T>, JobError>>>) {
        let cell = Arc::new(Completion::default());
        let handle = BatchHandle {
            cell: Arc::clone(&cell),
        };
        (handle, cell)
    }

    /// Whether every chunk has finished.
    pub fn is_done(&self) -> bool {
        self.cell.is_done()
    }
}

impl<T: Clone> BatchHandle<T> {
    /// The assembled result if every chunk has finished, `None` otherwise.
    pub fn poll(&self) -> Option<Result<Vec<T>, JobError>> {
        self.cell.poll()
    }

    /// Blocks until every chunk finishes and returns the assembled result.
    ///
    /// # Errors
    ///
    /// The [`JobError`] of a failed chunk (a failure outranks a
    /// cancellation when several chunks report).
    pub fn wait(&self) -> Result<Vec<T>, JobError> {
        self.cell.wait()
    }

    /// Bounded wait: the assembled result if every chunk finishes within
    /// `timeout`, `None` on timeout (the handle stays usable).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<T>, JobError>> {
        self.cell.wait_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Assembly;

    #[test]
    fn batch_handle_assembles_in_request_order() {
        let (handle, cell) = BatchHandle::<u32>::pending();
        let assembly = Assembly::new(3, cell);
        assert_eq!(handle.poll(), None);
        assembly.fill(2, Ok(vec![5, 6]), "test");
        assembly.fill(0, Ok(vec![1, 2]), "test");
        assert!(!handle.is_done());
        assembly.fill(1, Ok(vec![3, 4]), "test");
        assert_eq!(handle.poll(), Some(Ok(vec![1, 2, 3, 4, 5, 6])));
        // Cached: a second reader sees the same result.
        assert_eq!(handle.poll(), Some(Ok(vec![1, 2, 3, 4, 5, 6])));
    }

    #[test]
    fn batch_handle_failure_poisons_whole_request() {
        let (handle, cell) = BatchHandle::<u32>::pending();
        let assembly = Assembly::new(3, cell);
        assembly.fill(0, Ok(vec![1]), "test");
        assembly.fill(2, Err(JobError::Panicked), "test");
        // A failure outranks a cancellation, whichever lands last.
        assembly.fill(1, Err(JobError::Cancelled), "test");
        assert_eq!(handle.wait(), Err(JobError::Panicked));
    }

    #[test]
    fn first_claimant_of_a_chunk_wins() {
        let (handle, cell) = BatchHandle::<u32>::pending();
        let assembly = Assembly::new(2, cell);
        assembly.fill(0, Err(JobError::Stalled), "test");
        // The wedged evaluation limps in after the watchdog failed it.
        assembly.fill(0, Ok(vec![1]), "test");
        assert!(!handle.is_done(), "chunk 1 is still out");
        assembly.fill(1, Ok(vec![2]), "test");
        assert_eq!(handle.wait(), Err(JobError::Stalled));
        // ... and after the request resolved.
        assembly.fill(0, Ok(vec![1]), "test");
        assert_eq!(handle.wait(), Err(JobError::Stalled));
    }

    #[test]
    fn wait_timeout_returns_none_then_delivers() {
        let (handle, cell) = BatchHandle::<u32>::pending();
        let assembly = Assembly::new(2, cell);
        assert_eq!(handle.wait_timeout(Duration::from_millis(10)), None);
        assembly.fill(0, Ok(vec![1]), "test");
        assembly.fill(1, Ok(vec![2]), "test");
        let done = Some(Ok(vec![1, 2]));
        assert_eq!(handle.wait_timeout(Duration::from_millis(10)), done);
        assert_eq!(handle.wait_timeout(Duration::from_millis(1)), done);
    }

    #[test]
    fn empty_batch_is_immediately_ready() {
        use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
        let engine = crate::ServeEngine::with_defaults();
        let model = QuantizedMlp::quantize(&Mlp::new(&[1, 2], 1), NumericFormat::F32);
        let key = engine.registry().register("m", model).unwrap();
        // No chunk job exists to resolve it: `try_dispatch` does, inline.
        let handle = engine.submit_classify(&key, Vec::new()).unwrap();
        assert_eq!(handle.poll(), Some(Ok(vec![])));
    }
}
