//! Gateway completion handles: results (or a shed verdict) come back out
//! of the admission pipeline through these.
//!
//! A [`GatewayHandle`] is handed out at admission, **before** the request
//! is dispatched to the serving engine — the request may still be sitting
//! in the submission ring, may already be running on the pool, or may have
//! been shed by an overload policy. The handle hides that lifecycle:
//! [`poll`](GatewayHandle::poll) never blocks, [`wait`](GatewayHandle::wait)
//! blocks until the request resolves,
//! [`wait_timeout`](GatewayHandle::wait_timeout) bounds the block, and a
//! shed/expired/cancelled request resolves promptly to its typed
//! [`GatewayError`] instead of hanging forever.
//!
//! The handle and the gateway share **one completion cell** — the
//! serving stack's [`dp_serve::Completion`], the same cell a
//! `dp_serve::BatchHandle` is built on; this module adds only the
//! `Queued`/`Dispatched` stage marker and the request's cancel flag.
//! Whoever decides the request's fate — the dispatcher (shed, expired,
//! closed), the demux on a pool worker (value or job failure) or the
//! caller ([`cancel`](GatewayHandle::cancel)) — stores the result there,
//! and that is the only place a request resolves.
//!
//! The cell caches its resolution: `wait` and `poll` can be called
//! repeatedly (the clone of the first resolution is returned), which
//! makes double-`wait` a defined, tested behavior rather than a panic.
//! The first resolution **wins**: once cached it is never overwritten, so
//! a request that was already expired or evicted keeps reporting the same
//! verdict however late the engine-side result limps in.

use dp_serve::check::check_yield;
use dp_serve::{Completion, JobError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why an admitted request failed to produce a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayError {
    /// An overload policy shed this request from the submission ring
    /// before it reached the serving engine (e.g. `ShedOldest` evicted it
    /// to make room for newer traffic).
    Shed,
    /// The gateway closed before this request could be dispatched.
    Closed,
    /// The request's [`SubmitOptions`](crate::gateway::SubmitOptions)
    /// deadline passed before the dispatcher could hand it to the engine;
    /// its rate-limit tokens were refunded.
    DeadlineExceeded,
    /// The request was cancelled via [`GatewayHandle::cancel`] (while
    /// queued, or mid-flight at a chunk boundary).
    Cancelled,
    /// The serving engine is degraded (worker panic budget tripped) and
    /// dropped this already-admitted request before evaluation.
    Degraded,
    /// The request was dispatched but its serving job failed.
    Job(JobError),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Shed => write!(f, "request shed by the gateway overload policy"),
            GatewayError::Closed => write!(f, "gateway closed before the request was dispatched"),
            GatewayError::DeadlineExceeded => {
                write!(f, "request deadline passed before dispatch")
            }
            GatewayError::Cancelled => write!(f, "request cancelled by the caller"),
            GatewayError::Degraded => {
                write!(f, "serving engine degraded; admitted request dropped")
            }
            GatewayError::Job(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<JobError> for GatewayError {
    fn from(e: JobError) -> Self {
        match e {
            // A job cancelled through the request's token surfaces as the
            // gateway-level cancel verdict, not a generic job failure.
            JobError::Cancelled => GatewayError::Cancelled,
            other => GatewayError::Job(other),
        }
    }
}

/// Where an admitted request currently is in the gateway pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStage {
    /// Still waiting in the submission ring (or being dispatched).
    Queued,
    /// Handed to the serving engine; chunk jobs are queued or running.
    Dispatched,
    /// Resolved: a value, a job failure, or a shed/closed verdict.
    Done,
}

pub(crate) struct HandleCell<T> {
    /// Where the request resolves. The chunk demux
    /// [`store`](Completion::store)s every member of a coalesced group
    /// first and [`wake`](Completion::wake)s them afterwards.
    pub(crate) done: Completion<Result<Vec<T>, GatewayError>>,
    /// Stage marker: handed to the engine (the demux will store the value).
    dispatched: AtomicBool,
    /// Set by [`GatewayHandle::cancel`]; looked at while the request is
    /// queued, at **chunk boundaries** (before a chunk starts evaluating)
    /// and again before the demux publishes — so an abandoned batch stops
    /// burning workers within one chunk's latency.
    cancelled: AtomicBool,
}

impl<T> HandleCell<T> {
    /// Marks `Queued` → `Dispatched` (a stage marker only).
    pub(crate) fn dispatched(&self) {
        check_yield!("handle.dispatched");
        // relaxed-ok: a stage label for `GatewayHandle::stage` / `Debug`;
        // nothing is published through it (results go through the cell's
        // lock) and `stage` checks the cell first.
        self.dispatched.store(true, Ordering::Relaxed);
    }

    /// Whether [`GatewayHandle::cancel`] was called.
    pub(crate) fn cancelled(&self) -> bool {
        // seqcst-ok: pairs with the store in `GatewayHandle::cancel`; read
        // at chunk boundaries, well off the per-MAC hot path.
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// Handle to one admitted gateway request.
///
/// Resolution is cached: after the first `wait`/successful `poll`, further
/// calls return clones of the same result.
pub struct GatewayHandle<T> {
    cell: Arc<HandleCell<T>>,
}

impl<T> std::fmt::Debug for GatewayHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayHandle")
            .field("stage", &self.stage())
            .finish()
    }
}

impl<T> GatewayHandle<T> {
    /// Creates a pending handle plus the gateway-side cell that resolves
    /// it.
    pub(crate) fn pending() -> (Self, Arc<HandleCell<T>>) {
        let cell = Arc::new(HandleCell {
            done: Completion::default(),
            dispatched: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
        });
        (
            GatewayHandle {
                cell: Arc::clone(&cell),
            },
            cell,
        )
    }

    /// Where the request currently is. `Done` covers success, job failure
    /// and shed/closed verdicts alike.
    pub fn stage(&self) -> RequestStage {
        // relaxed-ok: see `HandleCell::dispatched`.
        let dispatched = self.cell.dispatched.load(Ordering::Relaxed);
        match (self.is_done(), dispatched) {
            (true, _) => RequestStage::Done,
            (false, true) => RequestStage::Dispatched,
            (false, false) => RequestStage::Queued,
        }
    }

    /// Whether a result (or shed/failure verdict) is available without
    /// blocking.
    pub fn is_done(&self) -> bool {
        self.cell.done.is_done()
    }

    /// Requests cancellation of this request. Idempotent.
    ///
    /// * Still queued in the ring → the handle resolves **immediately** to
    ///   [`GatewayError::Cancelled`]; the dispatcher later discards the
    ///   dead ring entry and refunds its rate-limit tokens.
    /// * Already dispatched → if the engine result has already landed it
    ///   wins (cancellation is cooperative, not retroactive); otherwise
    ///   the handle resolves to [`GatewayError::Cancelled`] right away and
    ///   the flag tells the engine to skip chunks that have not started
    ///   and the demux not to publish ones that have. This also makes
    ///   `cancel` the recovery path for a request whose completion was
    ///   lost (e.g. under the `drop_completion` fault): the handle can
    ///   always be resolved.
    /// * Already resolved → no-op; the existing verdict sticks.
    pub fn cancel(&self) {
        // seqcst-ok: standalone cancellation flag with no payload; the
        // cold full fence keeps a cancel immediately visible to every
        // chunk-boundary check.
        self.cell.cancelled.store(true, Ordering::SeqCst);
        check_yield!("handle.cancel");
        self.cell.done.resolve(Err(GatewayError::Cancelled));
    }
}

impl<T: Clone> GatewayHandle<T> {
    /// Non-blocking: the resolved result if available, `None` while the
    /// request is queued or still running. Safe to call repeatedly —
    /// once resolved, every call returns a clone of the same result.
    /// A request that was shed, expired or evicted resolves promptly: its
    /// cached verdict comes back on the very next `poll`, never a spin.
    pub fn poll(&self) -> Option<Result<Vec<T>, GatewayError>> {
        self.cell.done.poll()
    }

    /// Blocks until the request resolves. A shed request returns
    /// [`GatewayError::Shed`] promptly — it never hangs. Repeatable:
    /// a second `wait` returns a clone of the cached result.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Shed`] / [`GatewayError::Closed`] when an overload
    /// policy or shutdown dropped the request,
    /// [`GatewayError::DeadlineExceeded`] when it expired undispatched,
    /// [`GatewayError::Cancelled`] after a cancel, [`GatewayError::Job`]
    /// when a dispatched chunk failed.
    pub fn wait(&self) -> Result<Vec<T>, GatewayError> {
        self.cell.done.wait()
    }

    /// Bounded [`GatewayHandle::wait`]: `Some(result)` if the request
    /// resolves within `timeout`, `None` otherwise. The handle stays
    /// fully usable after a timeout (wait again, poll, or
    /// [`cancel`](GatewayHandle::cancel) and then wait for the prompt
    /// [`GatewayError::Cancelled`]). This is the primitive that keeps
    /// chaos tests and latency-sensitive callers hang-free whatever fault
    /// is in play.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<T>, GatewayError>> {
        self.cell.done.wait_timeout(timeout)
    }
}

/// Seeded PCT interleave tests (compiled only with `--features
/// check-yield`): the checker drives double-`wait`, poll-after-cancel
/// and the cancel-vs-resolve race through ≥1000 schedules per seed.
/// Assertions run *inside* the scheduled bodies — a violated invariant
/// surfaces as a panic-in-schedule finding, so `findings.is_empty()`
/// is the pass condition for every run at once.
#[cfg(all(test, feature = "check-yield"))]
mod interleave_tests {
    use super::*;
    use dp_check::sched::explore;

    const SEEDS: [u64; 3] = [0x6A7E_0001, 0x6A7E_0002, 0x6A7E_0003];
    const RUNS: usize = 1000;

    /// Two waiters race the resolver. Both must come home with the same
    /// (only) resolution whatever order the three threads interleave in,
    /// including the ISSUE's prime suspect: both waiters parked before
    /// the resolve, or one arriving after the verdict is already cached.
    #[test]
    fn double_wait_sees_one_resolution_under_every_schedule() {
        for master in SEEDS {
            let out = explore(master, RUNS, 3, |_| {
                let (handle, cell) = GatewayHandle::<u32>::pending();
                let handle = Arc::new(handle);
                let h1 = Arc::clone(&handle);
                let h2 = Arc::clone(&handle);
                vec![
                    Box::new(move || {
                        assert_eq!(h1.wait(), Ok(vec![7]));
                    }) as Box<dyn FnOnce() + Send>,
                    Box::new(move || {
                        // The bounded-wait path: generous real-time bound,
                        // virtualized by the scheduler if the run stalls.
                        let got = h2.wait_timeout(Duration::from_secs(60));
                        assert_eq!(got, Some(Ok(vec![7])));
                    }),
                    Box::new(move || {
                        cell.done.resolve(Ok(vec![7]));
                    }),
                ]
            });
            assert_eq!(out.schedules, RUNS);
            assert!(
                out.findings.is_empty(),
                "seed {master:#x}: {:?}",
                out.findings
            );
            assert!(
                out.distinct_traces >= 4,
                "seed {master:#x}: the seed is not steering the schedule \
                 ({} distinct traces)",
                out.distinct_traces
            );
        }
    }

    /// Cancel races a late resolve while an observer waits. First
    /// resolution wins and then *sticks*: whatever verdict the observer's
    /// `wait` returns, every later `poll` and `wait` must repeat it, and
    /// `poll` directly after `cancel` returns must never be `None`.
    #[test]
    fn cancel_resolve_race_verdict_is_stable() {
        for master in SEEDS {
            let out = explore(master, RUNS, 3, |_| {
                let (handle, cell) = GatewayHandle::<u32>::pending();
                let handle = Arc::new(handle);
                let hc = Arc::clone(&handle);
                let ho = Arc::clone(&handle);
                vec![
                    Box::new(move || {
                        hc.cancel();
                        // Poll-after-cancel: cancel always leaves the
                        // handle resolved, so a spin here is a bug.
                        let polled = hc.poll();
                        assert!(polled.is_some(), "poll after cancel spun");
                    }) as Box<dyn FnOnce() + Send>,
                    Box::new(move || {
                        cell.done.resolve(Ok(vec![9]));
                    }),
                    Box::new(move || {
                        let first = ho.wait();
                        assert!(
                            first == Ok(vec![9]) || first == Err(GatewayError::Cancelled),
                            "unexpected verdict {first:?}"
                        );
                        // The cached verdict must repeat verbatim.
                        assert_eq!(ho.poll(), Some(first.clone()));
                        assert_eq!(ho.wait(), first);
                    }),
                ]
            });
            assert_eq!(out.schedules, RUNS);
            assert!(
                out.findings.is_empty(),
                "seed {master:#x}: {:?}",
                out.findings
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_before_dispatch_reports_shed() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        assert_eq!(handle.stage(), RequestStage::Queued);
        assert!(!handle.is_done());
        assert_eq!(handle.poll(), None);
        cell.done.resolve(Err(GatewayError::Shed));
        assert_eq!(handle.stage(), RequestStage::Done);
        assert_eq!(handle.wait(), Err(GatewayError::Shed));
        // Double-wait is defined: the cached verdict comes back again.
        assert_eq!(handle.wait(), Err(GatewayError::Shed));
        assert_eq!(handle.poll(), Some(Err(GatewayError::Shed)));
    }

    #[test]
    fn first_resolution_wins() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        cell.done.resolve(Err(GatewayError::DeadlineExceeded));
        // A late second verdict (e.g. an engine result limping in after
        // expiry) must not clobber what callers already saw.
        cell.done.resolve(Ok(vec![1, 2, 3]));
        assert_eq!(handle.wait(), Err(GatewayError::DeadlineExceeded));
    }

    #[test]
    fn wait_from_two_threads_returns_the_same_value() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        let handle = Arc::new(handle);
        let h2 = Arc::clone(&handle);
        let t = std::thread::spawn(move || h2.wait());
        std::thread::sleep(std::time::Duration::from_millis(5));
        cell.done.resolve(Ok(vec![1, 2, 3]));
        assert_eq!(handle.wait(), Ok(vec![1, 2, 3]));
        assert_eq!(t.join().unwrap(), Ok(vec![1, 2, 3]));
    }

    #[test]
    fn wait_timeout_times_out_then_resolves() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        assert_eq!(handle.wait_timeout(Duration::from_millis(10)), None);
        cell.done.resolve(Ok(vec![4]));
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(10)),
            Some(Ok(vec![4]))
        );
        // Cached: repeatable.
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(10)),
            Some(Ok(vec![4]))
        );
    }

    #[test]
    fn cancel_of_queued_request_resolves_immediately() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        assert!(!cell.cancelled());
        handle.cancel();
        assert!(cell.cancelled());
        assert_eq!(handle.wait(), Err(GatewayError::Cancelled));
        // Idempotent, and the verdict sticks.
        handle.cancel();
        assert_eq!(handle.poll(), Some(Err(GatewayError::Cancelled)));
    }
}
