//! Completion handles: how callers get results back out of the pool.
//!
//! Submission returns immediately with a handle; the result is delivered
//! by the worker through the paired completer. Two shapes exist:
//! [`JobHandle`] for a single job's value and [`BatchHandle`] for a
//! request that admission split into several chunk jobs (the handle
//! reassembles the per-chunk outputs in request order). Both support
//! non-blocking [`poll`](JobHandle::poll) and blocking
//! [`wait`](JobHandle::wait).
//!
//! A job that panics poisons **only its own handle** ([`JobError::Panicked`]);
//! the pool and every other in-flight request are unaffected.

use crate::check::{self, check_yield, Condvar, Mutex};
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
    /// The request's [`CancelToken`](crate::engine::CancelToken) was
    /// cancelled before the job finished.
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

enum CellState<T> {
    Pending,
    Done(Result<T, JobError>),
    Taken,
}

struct Cell<T> {
    state: Mutex<CellState<T>>,
    done: Condvar,
}

impl<T> Cell<T> {
    fn st(&self) -> check::MutexGuard<'_, CellState<T>> {
        // panic-ok: holders only swap the enum in place; no unwind, so
        // poisoning is unreachable.
        self.state.lock().expect("handle lock")
    }
}

/// Handle to one submitted job. Single-consumer: the value can be taken
/// exactly once (by [`JobHandle::poll`] or [`JobHandle::wait`]).
pub struct JobHandle<T> {
    cell: Arc<Cell<T>>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl<T> JobHandle<T> {
    /// Creates a pending handle and its completer side.
    pub(crate) fn pending() -> (Self, JobCompleter<T>) {
        let cell = Arc::new(Cell {
            state: check::mutex("serve.job_handle", CellState::Pending),
            done: check::condvar(),
        });
        (
            JobHandle {
                cell: Arc::clone(&cell),
            },
            JobCompleter { cell },
        )
    }

    /// Whether the job has finished (successfully or not).
    pub fn is_done(&self) -> bool {
        !matches!(*self.cell.st(), CellState::Pending)
    }

    /// Takes the result if the job has finished, `None` while it is still
    /// queued or running. A second call after the result was taken returns
    /// `None`.
    pub fn poll(&self) -> Option<Result<T, JobError>> {
        let mut st = self.cell.st();
        check_yield!("handle.job.poll");
        match std::mem::replace(&mut *st, CellState::Taken) {
            CellState::Done(r) => Some(r),
            other @ CellState::Pending => {
                *st = other;
                None
            }
            CellState::Taken => None,
        }
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// # Errors
    ///
    /// [`JobError::Panicked`] if the job's closure panicked.
    ///
    /// # Panics
    ///
    /// Panics if the result was already taken by [`JobHandle::poll`].
    pub fn wait(self) -> Result<T, JobError> {
        let mut st = self.cell.st();
        loop {
            check_yield!("handle.job.wait_take");
            match std::mem::replace(&mut *st, CellState::Taken) {
                CellState::Done(r) => return r,
                CellState::Pending => {
                    *st = CellState::Pending;
                    // panic-ok: see `Cell::st`.
                    st = self.cell.done.wait(st).expect("handle lock");
                }
                // panic-ok: documented contract — waiting after `poll`
                // took the value is a caller bug.
                CellState::Taken => panic!("job result already taken"),
            }
        }
    }

    /// Bounded wait: takes the result if the job finishes within
    /// `timeout`, returns `None` on timeout (the handle stays usable —
    /// wait again, poll, or abandon it) or if the result was already
    /// taken.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, JobError>> {
        // clock-ok: caller-side wall-clock wait bound (the OS condvar
        // wait below is real-time anyway).
        let deadline = Instant::now() + timeout;
        let mut st = self.cell.st();
        loop {
            check_yield!("handle.job.wait_take");
            match std::mem::replace(&mut *st, CellState::Taken) {
                CellState::Done(r) => return Some(r),
                CellState::Pending => {
                    *st = CellState::Pending;
                    // clock-ok: see the deadline note above.
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (guard, _timeout) = self
                        .cell
                        .done
                        .wait_timeout(st, deadline - now)
                        .expect("handle lock"); // panic-ok: see `Cell::st`
                    st = guard;
                }
                CellState::Taken => return None,
            }
        }
    }
}

/// Worker-side completer for a [`JobHandle`]; cloned when completion can
/// come from more than one place (normal path vs. watchdog stall
/// resolution — the engine's claim flag ensures only one fires).
pub(crate) struct JobCompleter<T> {
    cell: Arc<Cell<T>>,
}

impl<T> Clone for JobCompleter<T> {
    fn clone(&self) -> Self {
        JobCompleter {
            cell: Arc::clone(&self.cell),
        }
    }
}

impl<T> JobCompleter<T> {
    pub(crate) fn complete(&self, result: Result<T, JobError>) {
        let mut st = self.cell.st();
        check_yield!("handle.job.complete");
        *st = CellState::Done(result);
        drop(st);
        self.cell.done.notify_all();
    }
}

struct BatchState<T> {
    /// One slot per chunk, filled in any order, read out in order.
    parts: Vec<Option<Vec<T>>>,
    remaining: usize,
    failed: Option<JobError>,
    taken: bool,
}

struct BatchCell<T> {
    state: Mutex<BatchState<T>>,
    done: Condvar,
}

impl<T> BatchCell<T> {
    fn st(&self) -> check::MutexGuard<'_, BatchState<T>> {
        // panic-ok: holders only move parts/flags; no unwind, so
        // poisoning is unreachable.
        self.state.lock().expect("handle lock")
    }
}

/// Handle to a batch request that admission split into chunk jobs.
///
/// The result is the concatenation of the per-chunk outputs in the
/// original sample order — byte-for-byte the same `Vec` a serial
/// evaluation would produce. If **any** chunk panics the whole request
/// reports [`JobError::Panicked`] (after all of its chunks have left the
/// pool, so a failed request never leaves stray jobs behind).
pub struct BatchHandle<T> {
    cell: Arc<BatchCell<T>>,
}

impl<T> std::fmt::Debug for BatchHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.cell.st();
        f.debug_struct("BatchHandle")
            .field("chunks", &st.parts.len())
            .field("remaining", &st.remaining)
            .finish()
    }
}

impl<T> BatchHandle<T> {
    /// Creates a handle expecting `chunks` chunk completions.
    pub(crate) fn pending(chunks: usize) -> (Self, BatchCompleter<T>) {
        let cell = Arc::new(BatchCell {
            state: check::mutex(
                "serve.batch_handle",
                BatchState {
                    parts: (0..chunks).map(|_| None).collect(),
                    remaining: chunks,
                    failed: None,
                    taken: false,
                },
            ),
            done: check::condvar(),
        });
        (
            BatchHandle {
                cell: Arc::clone(&cell),
            },
            BatchCompleter { cell },
        )
    }

    /// Number of chunks still queued or running.
    pub fn chunks_remaining(&self) -> usize {
        self.cell.st().remaining
    }

    /// Whether every chunk has finished.
    pub fn is_done(&self) -> bool {
        self.chunks_remaining() == 0
    }

    /// Takes the assembled result if every chunk has finished, `None`
    /// otherwise (or after the result was already taken).
    pub fn poll(&self) -> Option<Result<Vec<T>, JobError>> {
        let mut st = self.cell.st();
        check_yield!("handle.batch.poll");
        if st.remaining > 0 || st.taken {
            return None;
        }
        Some(Self::take(&mut st))
    }

    /// Blocks until every chunk finishes and returns the assembled result.
    ///
    /// # Errors
    ///
    /// [`JobError::Panicked`] if any chunk's job panicked.
    ///
    /// # Panics
    ///
    /// Panics if the result was already taken by [`BatchHandle::poll`].
    pub fn wait(self) -> Result<Vec<T>, JobError> {
        let mut st = self.cell.st();
        while st.remaining > 0 {
            // panic-ok: see `BatchCell::st`.
            st = self.cell.done.wait(st).expect("handle lock");
        }
        check_yield!("handle.batch.wait_take");
        assert!(!st.taken, "batch result already taken");
        Self::take(&mut st)
    }

    /// Bounded wait: takes the assembled result if every chunk finishes
    /// within `timeout`, returns `None` on timeout (the handle stays
    /// usable) or if the result was already taken.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<T>, JobError>> {
        // clock-ok: caller-side wall-clock wait bound; see above.
        let deadline = Instant::now() + timeout;
        let mut st = self.cell.st();
        while st.remaining > 0 {
            // clock-ok: see the deadline note above.
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timeout) = self
                .cell
                .done
                .wait_timeout(st, deadline - now)
                .expect("handle lock"); // panic-ok: see `BatchCell::st`
            st = guard;
        }
        if st.taken {
            return None;
        }
        Some(Self::take(&mut st))
    }

    fn take(st: &mut BatchState<T>) -> Result<Vec<T>, JobError> {
        st.taken = true;
        if let Some(err) = st.failed {
            return Err(err);
        }
        let mut out = Vec::new();
        for part in st.parts.iter_mut() {
            // panic-ok: callers only reach `take` at `remaining == 0`
            // with no failure, which means every part was filled.
            out.extend(part.take().expect("all chunks completed"));
        }
        Ok(out)
    }
}

/// Worker-side completer for a [`BatchHandle`]: the [`ChunkSink`] the
/// in-process `submit_*` calls hand to
/// [`ServeEngine::try_dispatch`](crate::ServeEngine::try_dispatch).
pub(crate) struct BatchCompleter<T> {
    cell: Arc<BatchCell<T>>,
}

impl<T: Send + 'static> ChunkSink<T> for BatchCompleter<T> {
    fn complete_chunk(&self, index: usize, result: Result<Vec<T>, JobError>) {
        let mut st = self.cell.st();
        check_yield!("handle.batch.complete_chunk");
        match result {
            Ok(part) => st.parts[index] = Some(part),
            Err(err) => st.failed = Some(err),
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            self.cell.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_handle_poll_then_complete() {
        let (handle, completer) = JobHandle::<u32>::pending();
        assert!(!handle.is_done());
        assert_eq!(handle.poll(), None);
        completer.complete(Ok(7));
        assert!(handle.is_done());
        assert_eq!(handle.poll(), Some(Ok(7)));
        // Single-consumer: taken results are gone.
        assert_eq!(handle.poll(), None);
    }

    #[test]
    fn job_handle_wait_blocks_until_complete() {
        let (handle, completer) = JobHandle::<u32>::pending();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            completer.complete(Ok(42));
        });
        assert_eq!(handle.wait(), Ok(42));
        t.join().unwrap();
    }

    #[test]
    fn batch_handle_assembles_in_request_order() {
        let (handle, completer) = BatchHandle::<u32>::pending(3);
        assert_eq!(handle.chunks_remaining(), 3);
        assert_eq!(handle.poll(), None);
        completer.complete_chunk(2, Ok(vec![5, 6]));
        completer.complete_chunk(0, Ok(vec![1, 2]));
        assert_eq!(handle.poll(), None);
        completer.complete_chunk(1, Ok(vec![3, 4]));
        assert_eq!(handle.poll(), Some(Ok(vec![1, 2, 3, 4, 5, 6])));
        assert_eq!(handle.poll(), None);
    }

    #[test]
    fn batch_handle_failure_poisons_whole_request() {
        let (handle, completer) = BatchHandle::<u32>::pending(2);
        completer.complete_chunk(0, Ok(vec![1]));
        completer.complete_chunk(1, Err(JobError::Panicked));
        assert_eq!(handle.wait(), Err(JobError::Panicked));
    }

    #[test]
    fn wait_timeout_returns_none_then_delivers() {
        let (handle, completer) = JobHandle::<u32>::pending();
        assert_eq!(handle.wait_timeout(Duration::from_millis(10)), None);
        completer.complete(Ok(9));
        assert_eq!(handle.wait_timeout(Duration::from_millis(10)), Some(Ok(9)));
        // Single-consumer: taken results are gone, even via wait_timeout.
        assert_eq!(handle.wait_timeout(Duration::from_millis(1)), None);

        let (bh, bc) = BatchHandle::<u32>::pending(2);
        assert_eq!(bh.wait_timeout(Duration::from_millis(10)), None);
        bc.complete_chunk(0, Ok(vec![1]));
        bc.complete_chunk(1, Ok(vec![2]));
        assert_eq!(
            bh.wait_timeout(Duration::from_millis(10)),
            Some(Ok(vec![1, 2]))
        );
        assert_eq!(bh.wait_timeout(Duration::from_millis(1)), None);
    }

    #[test]
    fn empty_batch_is_immediately_ready() {
        let (handle, _completer) = BatchHandle::<u32>::pending(0);
        assert!(handle.is_done());
        assert_eq!(handle.poll(), Some(Ok(vec![])));
    }
}
