//! The long-lived worker pool: one condvar-backed LIFO slot per worker,
//! with work stealing — now supervised.
//!
//! Workers are ordinary `std::thread`s that live for the pool's lifetime,
//! so a request stream pays thread spawn cost once rather than per batch.
//! There is one way in, [`WorkerPool::spawn_batch`]: each job lands in the
//! **LIFO slot** of the worker its hint names; the owner pops newest-first
//! (its model/EMAC state is still cache-warm) and an idle worker steals
//! oldest-first from the other slots.
//!
//! A panicking job is caught and counted; the worker thread survives and
//! keeps serving (the `engine` layer additionally poisons the panicked
//! request's completion handle). Shutdown is graceful: workers drain every
//! queued job before exiting.
//!
//! # Supervision
//!
//! Two optional supervisors harden the pool against the failure modes a
//! caught panic cannot cover:
//!
//! * A **watchdog** ([`WatchdogConfig`]) — every worker stamps a heartbeat
//!   when it picks up a job; a supervisor thread scans the stamps and,
//!   when a worker has been busy on one job beyond the stall threshold,
//!   *abandons* that worker (its thread is detached, its generation
//!   retired), runs the job's registered stall handler (which fails only
//!   the stuck job's completion handle) and respawns a fresh worker on the
//!   same slot. Queue accounting (`active`, `jobs_run`) is settled by the
//!   watchdog, so drain and depth waiters never hang on a wedged thread.
//! * A **panic budget** ([`PanicBudget`]) — worker panics are timestamped;
//!   when more than the budgeted number land inside the trailing window
//!   the pool flips to **degraded** ([`WorkerPool::is_degraded`]). The
//!   pool itself keeps draining; admission layers (`ServeEngine`,
//!   `dp_gateway`) consult the flag and reject new work with a typed
//!   error until an operator calls [`WorkerPool::reset_degraded`].

use crate::check::{self, check_yield, Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work for the pool: the job closure plus an optional stall
/// handler the watchdog runs if the job wedges its worker (see
/// [`WatchdogConfig`]). The handler's contract is to fail **only this
/// job's** completion handle; the watchdog has already settled the pool's
/// queue accounting when it runs.
pub struct Job {
    pub(crate) run: Box<dyn FnOnce() + Send + 'static>,
    pub(crate) on_stalled: Option<Box<dyn FnOnce() + Send + 'static>>,
}

impl Job {
    /// A plain job with no stall handler (a stalled worker is still
    /// respawned; there is just nothing to notify).
    pub fn new(run: impl FnOnce() + Send + 'static) -> Self {
        Job {
            run: Box::new(run),
            on_stalled: None,
        }
    }

    /// A job with a stall handler, invoked (at most once, instead of the
    /// job ever completing normally from the pool's point of view) when
    /// the watchdog abandons the worker running this job.
    pub fn with_stall_handler(
        run: impl FnOnce() + Send + 'static,
        on_stalled: impl FnOnce() + Send + 'static,
    ) -> Self {
        Job {
            run: Box::new(run),
            on_stalled: Some(Box::new(on_stalled)),
        }
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("has_stall_handler", &self.on_stalled.is_some())
            .finish()
    }
}

/// Watchdog sizing: how long a worker may sit on one job before it is
/// declared stalled, and how often the supervisor scans the heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Busy-on-one-job threshold beyond which a worker is abandoned and
    /// respawned. Must comfortably exceed the longest legitimate chunk
    /// evaluation.
    pub stall_timeout: Duration,
    /// Heartbeat scan cadence (also bounds how late a stall is detected:
    /// worst case `stall_timeout + poll_interval`).
    pub poll_interval: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(100),
        }
    }
}

/// Panic budget: how many worker panics the pool tolerates inside a
/// trailing window before flipping to degraded mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicBudget {
    /// Panics tolerated within [`PanicBudget::window`]; the
    /// `max_panics + 1`-th trips [`WorkerPool::is_degraded`].
    pub max_panics: u32,
    /// Trailing window over which panics are counted.
    pub window: Duration,
}

impl Default for PanicBudget {
    fn default() -> Self {
        PanicBudget {
            max_panics: 8,
            window: Duration::from_secs(10),
        }
    }
}

/// Error returned when submitting to a pool that is shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuttingDown;

impl std::fmt::Display for ShuttingDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool is shutting down")
    }
}

impl std::error::Error for ShuttingDown {}

/// Counters exposed for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker thread count.
    pub workers: usize,
    /// Jobs executed to completion (including panicked and stalled ones —
    /// a stalled job is counted by the watchdog when it abandons the
    /// worker, so `jobs_run` always converges to the submitted total).
    pub jobs_run: u64,
    /// Jobs whose closure panicked (caught; the worker survived).
    pub panics: u64,
    /// Workers the watchdog declared stalled and abandoned.
    pub stalled: u64,
    /// Replacement workers the watchdog spawned (equals `stalled` unless a
    /// respawn itself failed).
    pub respawned: u64,
    /// Whether the panic budget has tripped (see
    /// [`WorkerPool::is_degraded`]).
    pub degraded: bool,
}

struct State {
    /// Jobs currently sitting in per-worker LIFO slots.
    queued_local: usize,
    /// Jobs currently executing on a worker.
    active: usize,
    shutdown: bool,
}

impl State {
    /// Queued + running jobs (LIFO slots and active workers); 0 = drained.
    fn depth(&self) -> usize {
        self.queued_local + self.active
    }
}

/// Per-slot heartbeat + supervision state. A *slot* outlives any one
/// worker thread: the watchdog retires a wedged worker's generation and
/// hands the slot to a replacement.
struct WorkerWatch {
    /// Generation of the thread currently owning this slot. A worker
    /// whose spawn-time generation no longer matches has been abandoned
    /// and must exit without touching slot state or queue accounting.
    gen: AtomicU64,
    /// Heartbeat: 0 when idle, else `Shared::now_ms` at the moment the
    /// current job was picked up.
    busy_since_ms: AtomicU64,
    /// The running job's stall handler, parked here so the watchdog can
    /// take it without cooperating with the (possibly wedged) worker.
    /// Lock order: `state` before this.
    stall_handler: Mutex<Option<Box<dyn FnOnce() + Send + 'static>>>,
}

impl WorkerWatch {
    /// The parked stall handler (lock order: `state` before this).
    fn handler(&self) -> check::MutexGuard<'_, Option<Box<dyn FnOnce() + Send + 'static>>> {
        // panic-ok: holders only move the boxed handler; no unwind.
        self.stall_handler.lock().expect("stall handler lock")
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when work arrives or shutdown flips.
    work: Condvar,
    /// Signalled after every job completion, so waiters can re-check
    /// drain ([`WorkerPool::wait_idle`]) or depth
    /// ([`WorkerPool::wait_depth_below_for`]).
    progress: Condvar,
    /// Per-worker LIFO slots. Lock order: `state` before any slot.
    slots: Vec<Mutex<Vec<Job>>>,
    /// Per-worker supervision state, parallel to `slots`.
    watches: Vec<WorkerWatch>,
    /// Worker thread handles by slot, swapped by the watchdog on respawn
    /// (the wedged thread's handle is dropped, i.e. detached).
    threads: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Monotonic time base for the heartbeat stamps.
    epoch: Instant,
    jobs_run: AtomicU64,
    panics: AtomicU64,
    stalled: AtomicU64,
    respawned: AtomicU64,
    degraded: AtomicBool,
    budget: Option<PanicBudget>,
    /// Timestamps of recent panics (trimmed to the budget window).
    panic_times: Mutex<VecDeque<Instant>>,
}

impl Shared {
    /// Milliseconds since pool start, offset by 1 so 0 can mean "idle".
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64 + 1
    }

    /// The central queue/accounting lock.
    fn st(&self) -> check::MutexGuard<'_, State> {
        // panic-ok: no holder of the state lock can unwind — jobs run
        // outside every lock — so poisoning is unreachable.
        self.state.lock().expect("pool lock")
    }

    /// Worker `i`'s LIFO slot (lock order: `state` before any slot).
    fn slot(&self, i: usize) -> check::MutexGuard<'_, Vec<Job>> {
        // panic-ok: slot holders only push/pop a Vec; no unwind.
        self.slots[i].lock().expect("slot lock")
    }

    /// The worker-thread handle table (lock order: `state` before this).
    fn thread_table(&self) -> check::MutexGuard<'_, Vec<Option<JoinHandle<()>>>> {
        // panic-ok: holders only swap Option handles; no unwind.
        self.threads.lock().expect("threads lock")
    }

    /// Pops the next job for worker `me`: own slot newest-first, else steal
    /// oldest-first from the other slots. Must be called with the `state`
    /// lock held (`st` is that guard's contents). The order is
    /// load-bearing, not taste: `pool::tests::pop_order_is_newest_first_…`
    /// has the FIFO measurement.
    fn take_job(&self, st: &mut State, me: usize) -> Option<Job> {
        if st.queued_local == 0 {
            return None;
        }
        if let Some(job) = self.slot(me).pop() {
            st.queued_local -= 1;
            return Some(job);
        }
        let n = self.slots.len();
        for off in 1..n {
            let mut slot = self.slot((me + off) % n);
            if !slot.is_empty() {
                st.queued_local -= 1;
                return Some(slot.remove(0));
            }
        }
        None
    }

    /// Records one worker panic against the budget; flips `degraded` when
    /// the trailing-window count exceeds it.
    fn note_panic(&self) {
        let Some(budget) = self.budget else { return };
        // clock-ok: the panic budget's trailing window is a wall-clock
        // supervision contract, independent of the trace clock seam.
        let now = Instant::now();
        // panic-ok: holders only mutate a VecDeque; no unwind.
        let mut times = self.panic_times.lock().expect("panic budget lock");
        times.push_back(now);
        while let Some(&front) = times.front() {
            if now.duration_since(front) > budget.window {
                times.pop_front();
            } else {
                break;
            }
        }
        if times.len() as u64 > u64::from(budget.max_panics) {
            // seqcst-ok: standalone admission flag read lock-free by the
            // engine/gateway; the cold full fence keeps the degraded flip
            // immediately visible to every admission thread.
            self.degraded.store(true, Ordering::SeqCst);
        }
    }
}

/// A fixed-size pool of long-lived worker threads.
///
/// See the [module docs](self) for the scheduling scheme and optional
/// supervision. Dropping the pool performs a graceful
/// [`WorkerPool::shutdown`].
pub struct WorkerPool {
    shared: Arc<Shared>,
    watchdog: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.shared.slots.len())
            .field("supervised", &self.watchdog.is_some())
            .finish_non_exhaustive()
    }
}

fn spawn_worker(shared: &Arc<Shared>, slot: usize, gen: u64) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("dp-serve-worker-{slot}-g{gen}"))
        .spawn(move || worker_loop(&shared, slot, gen))
        // panic-ok: thread spawn fails only on resource exhaustion at
        // pool construction / respawn; no graceful degradation exists.
        .expect("spawn pool worker")
}

impl WorkerPool {
    /// Spawns an unsupervised pool with `workers` threads (clamped to
    /// ≥ 1): no watchdog, no panic budget — the PR-4 behaviour.
    pub fn new(workers: usize) -> Self {
        Self::with_supervision(workers, None, None)
    }

    /// Spawns a pool with `workers` threads (clamped to ≥ 1) and optional
    /// supervision: a stall watchdog and/or a panic budget (see the
    /// [module docs](self)).
    pub fn with_supervision(
        workers: usize,
        watchdog: Option<WatchdogConfig>,
        budget: Option<PanicBudget>,
    ) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: check::mutex(
                "pool.state",
                State {
                    queued_local: 0,
                    active: 0,
                    shutdown: false,
                },
            ),
            work: check::condvar(),
            progress: check::condvar(),
            slots: (0..workers)
                .map(|_| check::mutex("pool.slot", Vec::new()))
                .collect(),
            watches: (0..workers)
                .map(|_| WorkerWatch {
                    gen: AtomicU64::new(0),
                    busy_since_ms: AtomicU64::new(0),
                    stall_handler: check::mutex("pool.stall_handler", None),
                })
                .collect(),
            threads: check::mutex("pool.threads", (0..workers).map(|_| None).collect()),
            // clock-ok: construction-time anchor for busy-ms deltas, never compared to seam time
            epoch: Instant::now(),
            jobs_run: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            budget,
            panic_times: check::mutex("pool.panic_times", VecDeque::new()),
        });
        {
            let mut threads = shared.thread_table();
            for i in 0..workers {
                threads[i] = Some(spawn_worker(&shared, i, 0));
            }
        }
        let watchdog = watchdog.map(|cfg| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dp-serve-watchdog".to_string())
                .spawn(move || watchdog_loop(&shared, cfg))
                // panic-ok: see `spawn_worker`.
                .expect("spawn pool watchdog")
        });
        WorkerPool { shared, watchdog }
    }

    /// Worker thread count (stable across shutdown and respawns).
    pub fn workers(&self) -> usize {
        self.shared.slots.len()
    }

    /// Observability counters.
    pub fn stats(&self) -> PoolStats {
        // relaxed-ok: independent monotone counters; a stats read needs
        // no ordering against the workers that bump them.
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        PoolStats {
            workers: self.shared.slots.len(),
            jobs_run: ld(&self.shared.jobs_run),
            panics: ld(&self.shared.panics),
            stalled: ld(&self.shared.stalled),
            respawned: ld(&self.shared.respawned),
            degraded: self.is_degraded(),
        }
    }

    /// Per-worker busy time: `0` for an idle slot, else how many
    /// milliseconds the slot's current job has been running. Observability
    /// only (the `/statusz` endpoint renders it); values are heartbeat
    /// snapshots and may lag a worker's actual state by one store.
    pub fn worker_busy_ms(&self) -> Vec<u64> {
        let now = self.shared.now_ms();
        self.shared
            .watches
            .iter()
            .map(|w| {
                // relaxed-ok: single-word heartbeat observation; staleness
                // only skews a debug rendering.
                match w.busy_since_ms.load(Ordering::Relaxed) {
                    0 => 0,
                    since => now.saturating_sub(since).max(1),
                }
            })
            .collect()
    }

    /// Whether the panic budget has tripped. The pool itself still drains
    /// (and still accepts jobs — admission layers are the ones expected to
    /// consult this flag and reject with a typed error).
    pub fn is_degraded(&self) -> bool {
        // seqcst-ok: pairs with the SeqCst stores in `note_panic` /
        // `reset_degraded`; lock-free admission check off the hot loop.
        self.shared.degraded.load(Ordering::SeqCst)
    }

    /// Operator action: clears the degraded flag and forgets the panic
    /// history that tripped it.
    pub fn reset_degraded(&self) {
        self.shared
            .panic_times
            .lock()
            .expect("panic budget lock") // panic-ok: see `note_panic`
            .clear();
        // seqcst-ok: pairs with the loads in `is_degraded`.
        self.shared.degraded.store(false, Ordering::SeqCst);
    }

    /// Submits a whole batch of `(hint, job)` pairs **atomically**: either
    /// every job is enqueued (each to worker `hint % workers`'s LIFO slot —
    /// producers spreading a chunked batch round-robin keep each worker on
    /// its own chunk run while idle workers steal) or — if shutdown has
    /// begun — none are. A multi-chunk request can therefore never be
    /// split by a concurrent shutdown into "first half enqueued, second
    /// half rejected". The pool's only way in.
    ///
    /// # Errors
    ///
    /// [`ShuttingDown`] once [`WorkerPool::shutdown`] has begun; no job
    /// from the batch was enqueued.
    pub fn spawn_batch(&self, jobs: Vec<(usize, Job)>) -> Result<(), ShuttingDown> {
        let n_slots = self.shared.slots.len();
        let mut st = self.shared.st();
        if st.shutdown {
            return Err(ShuttingDown);
        }
        let n = jobs.len();
        for (hint, job) in jobs {
            let slot = hint % n_slots;
            st.queued_local += 1;
            self.shared.slot(slot).push(job);
        }
        drop(st);
        if n == 1 {
            // One waker suffices: whichever worker wakes reaches the job
            // via its own slot or the steal scan.
            self.shared.work.notify_one();
        } else if n > 1 {
            self.shared.work.notify_all();
        }
        Ok(())
    }

    /// Queued + running job count: LIFO-slot backlog and jobs currently
    /// executing. This is the pressure signal admission
    /// layers (the `dp_gateway` dispatcher) throttle on.
    pub fn queue_depth(&self) -> usize {
        self.shared.st().depth()
    }

    /// Blocks until [`WorkerPool::queue_depth`] drops below `below` (or
    /// the pool drains entirely, which covers `below == 0`): `Some(depth)`
    /// as soon as that holds, `None` if `timeout` elapses first. Progress
    /// is guaranteed: workers signal after every job completion and queued
    /// jobs always run, even during shutdown (draining semantics) — and
    /// under a watchdog even a wedged worker's accounting is settled.
    pub fn wait_depth_below_for(&self, below: usize, timeout: Duration) -> Option<usize> {
        // clock-ok: caller-side wall-clock wait bound (the OS condvar
        // wait below is real-time anyway).
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.st();
        loop {
            let depth = st.depth();
            if depth < below || depth == 0 {
                return Some(depth);
            }
            // clock-ok: see the deadline note above.
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timeout) = self
                .shared
                .progress
                .wait_timeout(st, deadline - now)
                .expect("pool lock"); // panic-ok: see `Shared::st`
            st = guard;
        }
    }

    /// Blocks until every submitted job has finished executing.
    pub fn wait_idle(&self) {
        let mut st = self.shared.st();
        while st.depth() > 0 {
            // panic-ok: see `Shared::st` — the state lock cannot poison.
            st = self.shared.progress.wait(st).expect("pool lock");
        }
    }

    /// Begins shutdown **without joining**: new submissions are rejected
    /// from this point on, while the workers keep draining every queued
    /// and in-flight job. Idempotent; [`WorkerPool::shutdown`] (or drop)
    /// later joins the workers.
    pub fn begin_shutdown(&self) {
        {
            let mut st = self.shared.st();
            if st.shutdown {
                return;
            }
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        // The watchdog re-checks its exit condition on progress signals.
        self.shared.progress.notify_all();
    }

    /// Graceful shutdown: rejects new submissions, lets the workers drain
    /// every queued and in-flight job, then joins them (and the watchdog,
    /// if any). Called implicitly on drop. A worker the watchdog abandoned
    /// is **not** joined — its thread was detached at respawn time.
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        let handles: Vec<JoinHandle<()>> = {
            let mut threads = self.shared.thread_table();
            threads.iter_mut().filter_map(Option::take).collect()
        };
        for h in handles {
            // panic-ok: the worker loop catches job panics; an unwind
            // here is a pool bug worth crashing loudly on.
            h.join().expect("pool worker never panics");
        }
        if let Some(w) = self.watchdog.take() {
            // panic-ok: same contract as the worker join above.
            w.join().expect("pool watchdog never panics");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, me: usize, my_gen: u64) {
    let watch = &shared.watches[me];
    loop {
        let job = {
            let mut st = shared.st();
            loop {
                // relaxed-ok: (audited, was SeqCst) every access to `gen`
                // — this check, the post-job check, and the watchdog's
                // bump — happens under the state lock, which already
                // orders them; the fence bought nothing.
                if watch.gen.load(Ordering::Relaxed) != my_gen {
                    // Abandoned while idle (cannot happen today — the
                    // watchdog only retires busy workers — but harmless
                    // and future-proof).
                    return;
                }
                if let Some(mut job) = shared.take_job(&mut st, me) {
                    check_yield!("pool.worker.pickup");
                    st.active += 1;
                    // Heartbeat + stall handler are published before the
                    // job runs, all under the state lock the watchdog
                    // scans under.
                    *watch.handler() = job.on_stalled.take();
                    let now = shared.now_ms();
                    // relaxed-ok: (audited, was SeqCst) only written and
                    // read under the state lock, like `gen`.
                    watch.busy_since_ms.store(now, Ordering::Relaxed);
                    break job;
                }
                if st.shutdown {
                    return;
                }
                // panic-ok: see `Shared::st` — the state lock cannot poison.
                st = shared.work.wait(st).expect("pool lock");
            }
        };
        // The job is run outside every lock; a panic is confined to the
        // job (the engine layer has already arranged for the request's
        // completion handle to be poisoned).
        let panicked = catch_unwind(AssertUnwindSafe(job.run)).is_err();
        let mut st = shared.st();
        check_yield!("pool.worker.settle");
        // relaxed-ok: under the state lock; see the pickup-loop note.
        if watch.gen.load(Ordering::Relaxed) != my_gen {
            // The watchdog declared this worker stalled while the job ran:
            // it already settled `active`/`jobs_run`, ran the stall
            // handler, and handed the slot (heartbeat included) to a
            // replacement. Exit without touching anything.
            return;
        }
        // relaxed-ok: under the state lock; see the pickup-loop note.
        watch.busy_since_ms.store(0, Ordering::Relaxed);
        *watch.handler() = None;
        if panicked {
            // relaxed-ok: monotone counter; stats reads need no ordering.
            shared.panics.fetch_add(1, Ordering::Relaxed);
            shared.note_panic();
        }
        // relaxed-ok: monotone counter; drain waiters sync via the lock.
        shared.jobs_run.fetch_add(1, Ordering::Relaxed);
        st.active -= 1;
        drop(st);
        // Every completion is progress: depth waiters re-check their
        // threshold, idle waiters re-check the drain condition.
        shared.progress.notify_all();
    }
}

/// The supervisor: scans heartbeats, abandons + respawns stalled workers,
/// and exits once the pool is shut down and drained.
fn watchdog_loop(shared: &Arc<Shared>, cfg: WatchdogConfig) {
    let stall_ms = cfg.stall_timeout.as_millis().max(1) as u64;
    loop {
        let mut handlers: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        {
            let mut st = shared.st();
            if st.shutdown && st.depth() == 0 {
                return;
            }
            let now = shared.now_ms();
            for (i, watch) in shared.watches.iter().enumerate() {
                // relaxed-ok: under the state lock; see `worker_loop`.
                let busy = watch.busy_since_ms.load(Ordering::Relaxed);
                if busy == 0 || now.saturating_sub(busy) < stall_ms {
                    continue;
                }
                check_yield!("pool.watchdog.claim");
                // Stalled: retire this worker's generation. The wedged
                // thread will see the bump when (if ever) its job returns
                // and exit without double-accounting.
                // relaxed-ok: under the state lock; see `worker_loop`.
                let next_gen = watch.gen.load(Ordering::Relaxed) + 1;
                // relaxed-ok: under the state lock; see `worker_loop`.
                watch.gen.store(next_gen, Ordering::Relaxed);
                // relaxed-ok: under the state lock; see `worker_loop`.
                watch.busy_since_ms.store(0, Ordering::Relaxed);
                st.active -= 1;
                // relaxed-ok: monotone counters; see `worker_loop`.
                shared.jobs_run.fetch_add(1, Ordering::Relaxed);
                // relaxed-ok: monotone counters; see `worker_loop`.
                shared.stalled.fetch_add(1, Ordering::Relaxed);
                if let Some(h) = watch.handler().take() {
                    handlers.push(h);
                }
                // Respawn on the same slot; dropping the old handle
                // detaches the wedged thread.
                let replacement = spawn_worker(shared, i, next_gen);
                shared.thread_table()[i] = Some(replacement);
                check_yield!("pool.watchdog.respawn");
                // relaxed-ok: monotone counter; see `worker_loop`.
                shared.respawned.fetch_add(1, Ordering::Relaxed);
            }
            if handlers.is_empty() {
                // Nothing stalled: park until progress or the next scan.
                let (guard, _timeout) = shared
                    .progress
                    .wait_timeout(st, cfg.poll_interval)
                    .expect("pool lock"); // panic-ok: see `Shared::st`
                drop(guard);
                continue;
            }
        }
        // Handlers run outside every lock (they complete request handles,
        // which take handle locks of their own).
        for h in handlers {
            h();
        }
        shared.progress.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Test-only counter bump, keeping the ordering annotation in one
    /// place.
    fn bump(c: &AtomicUsize) {
        // seqcst-ok: cross-thread test counter; SeqCst keeps the
        // assertions free of ordering caveats at test-only cost.
        c.fetch_add(1, Ordering::SeqCst);
    }

    /// Test-only counter read; see [`bump`].
    fn get(c: &AtomicUsize) -> usize {
        // seqcst-ok: pairs with `bump`.
        c.load(Ordering::SeqCst)
    }

    fn counting_job(counter: &Arc<AtomicUsize>) -> Job {
        let counter = Arc::clone(counter);
        Job::new(move || {
            std::thread::sleep(Duration::from_micros(200));
            bump(&counter);
        })
    }

    /// One job into slot `hint % workers`, through the pool's one entry.
    fn put(pool: &WorkerPool, hint: usize, job: Job) -> Result<(), ShuttingDown> {
        pool.spawn_batch(vec![(hint, job)])
    }

    /// Parks workers `0..n`, each on a gate job in its own slot — queued
    /// as one batch, so every worker finds its own slot non-empty and none
    /// steals another's — and returns once all are picked up. Dropping
    /// `gates[i]` releases worker `i`.
    fn park_workers(pool: &WorkerPool, n: usize) -> Vec<std::sync::mpsc::SyncSender<()>> {
        let (started, picked_up) = std::sync::mpsc::sync_channel(n);
        let gate = |slot| {
            let (open, gate) = std::sync::mpsc::sync_channel::<()>(1);
            let started = started.clone();
            let job = Job::new(move || {
                started.send(()).unwrap();
                let _ = gate.recv();
            });
            (open, (slot, job))
        };
        let (gates, jobs) = (0..n).map(gate).unzip();
        pool.spawn_batch(jobs).unwrap();
        (0..n).for_each(|_| picked_up.recv().unwrap());
        gates
    }

    #[test]
    fn executes_injected_and_targeted_jobs() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..40 {
            put(&pool, i, counting_job(&counter)).unwrap();
        }
        pool.wait_idle();
        assert_eq!(get(&counter), 40);
        assert_eq!(pool.stats().jobs_run, 40);
        assert_eq!(pool.stats().panics, 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let mut pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..64 {
            put(&pool, i, counting_job(&counter)).unwrap();
        }
        // Shut down immediately: every queued job must still run.
        pool.shutdown();
        assert_eq!(get(&counter), 64);
        // Submissions after shutdown are rejected.
        assert!(put(&pool, 0, counting_job(&counter)).is_err());
        assert_eq!(get(&counter), 64);
    }

    #[test]
    fn panicking_job_leaves_pool_serviceable() {
        let pool = WorkerPool::new(1);
        put(&pool, 0, Job::new(|| panic!("job blows up"))).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        put(&pool, 0, counting_job(&counter)).unwrap();
        pool.wait_idle();
        assert_eq!(get(&counter), 1);
        let stats = pool.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.jobs_run, 2);
    }

    #[test]
    fn stealing_moves_work_off_a_busy_slot() {
        // All jobs targeted at slot 0; with 4 workers the others must
        // steal for the batch to finish promptly.
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            put(&pool, 0, counting_job(&counter)).unwrap();
        }
        pool.wait_idle();
        assert_eq!(get(&counter), 32);
    }

    /// Pins the pop order the serving numbers rest on: a worker runs its
    /// own slot **newest-first**, a thief takes **oldest-first**.
    ///
    /// The obvious simplification, one FIFO, was measured (PR 19; six
    /// alternating pinned 10 s pairs, seed 42, parent → FIFO medians, every
    /// suite green): `net_large` `samples_per_s` 6.88e5 → 5.98e5 (×0.87,
    /// 0/6 pairs won), `latency_p50_us` 1 430 → 1 628; `net_small`
    /// `latency_p50_us` 232 → 288 (×1.24, 0/6, past the 15 % bound). Why: a
    /// connection's writer answers in request order, so when the one
    /// worker runs the newest chunk first the oldest finishes last and the
    /// writer wakes once to a run of ready handles (one context switch,
    /// one `write`, fuller coalesced groups); FIFO wakes it per request.
    #[test]
    fn pop_order_is_newest_first_on_the_own_slot_oldest_first_on_a_steal() {
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let named = |name: char| {
            let order = Arc::clone(&order);
            Job::new(move || order.lock().unwrap().push(name))
        };
        let abc = || vec![(0, named('A')), (0, named('B')), (0, named('C'))];

        // Own slot: A B C queued behind the one, parked, worker → C B A.
        let pool = WorkerPool::new(1);
        let gates = park_workers(&pool, 1);
        pool.spawn_batch(abc()).unwrap();
        drop(gates);
        pool.wait_idle();
        assert_eq!(std::mem::take(&mut *order.lock().unwrap()), ['C', 'B', 'A']);

        // Steal: A B C queued on parked worker 0's slot, only worker 1
        // released → it steals A B C.
        let pool = WorkerPool::new(2);
        let mut gates = park_workers(&pool, 2);
        pool.spawn_batch(abc()).unwrap();
        gates.pop();
        assert_eq!(
            pool.wait_depth_below_for(2, Duration::from_secs(10)),
            Some(1),
            "worker 1 drains slot 0 while worker 0 stays parked"
        );
        assert_eq!(*order.lock().unwrap(), ['A', 'B', 'C']);
    }

    #[test]
    fn wait_idle_on_empty_pool_returns() {
        let pool = WorkerPool::new(2);
        pool.wait_idle();
        assert_eq!(pool.stats().jobs_run, 0);
    }

    #[test]
    fn spawn_batch_runs_all_or_nothing() {
        let mut pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<(usize, Job)> = (0..10).map(|i| (i, counting_job(&counter))).collect();
        pool.spawn_batch(jobs).unwrap();
        pool.wait_idle();
        assert_eq!(get(&counter), 10);
        pool.shutdown();
        // After shutdown: the whole batch is rejected, nothing runs.
        let jobs: Vec<(usize, Job)> = (0..10).map(|i| (i, counting_job(&counter))).collect();
        assert!(pool.spawn_batch(jobs).is_err());
        assert_eq!(get(&counter), 10);
        assert_eq!(pool.stats().jobs_run, 10);
    }

    #[test]
    fn queue_depth_tracks_backlog_and_drains_to_zero() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.queue_depth(), 0);
        // A gate job holds the single worker busy while we pile up backlog.
        let gates = park_workers(&pool, 1);
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..5 {
            put(&pool, i, counting_job(&counter)).unwrap();
        }
        // Gate job active + 5 queued behind it.
        assert_eq!(pool.queue_depth(), 6);
        drop(gates);
        assert_eq!(
            pool.wait_depth_below_for(1, Duration::from_secs(10)),
            Some(0)
        );
        assert_eq!(pool.queue_depth(), 0);
        assert_eq!(get(&counter), 5);
    }

    #[test]
    fn wait_depth_below_for_times_out_while_blocked() {
        let pool = WorkerPool::new(1);
        let gates = park_workers(&pool, 1);
        // One job active forever-ish: depth never drops below 1.
        assert_eq!(
            pool.wait_depth_below_for(1, Duration::from_millis(50)),
            None
        );
        drop(gates);
        assert_eq!(
            pool.wait_depth_below_for(1, Duration::from_secs(5)),
            Some(0)
        );
    }

    #[test]
    fn watchdog_respawns_stalled_worker_and_runs_stall_handler() {
        let pool = WorkerPool::with_supervision(
            1,
            Some(WatchdogConfig {
                stall_timeout: Duration::from_millis(50),
                poll_interval: Duration::from_millis(10),
            }),
            None,
        );
        let stalled_seen = Arc::new(AtomicUsize::new(0));
        {
            let stalled_seen = Arc::clone(&stalled_seen);
            let (started, picked_up) = std::sync::mpsc::sync_channel(1);
            let wedge = Job::with_stall_handler(
                // Wedge the only worker well past the stall threshold.
                move || {
                    started.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(400));
                },
                move || {
                    bump(&stalled_seen);
                },
            );
            put(&pool, 0, wedge).unwrap();
            picked_up.recv().unwrap();
        }
        // A job queued behind the wedge: the respawned worker must run it.
        let counter = Arc::new(AtomicUsize::new(0));
        put(&pool, 0, counting_job(&counter)).unwrap();
        pool.wait_idle();
        assert_eq!(get(&counter), 1);
        assert_eq!(get(&stalled_seen), 1);
        let stats = pool.stats();
        assert_eq!(stats.stalled, 1);
        assert_eq!(stats.respawned, 1);
        // Accounting intact: both jobs counted exactly once (the stalled
        // one by the watchdog), even though the wedged thread finishes
        // later and exits silently.
        assert_eq!(stats.jobs_run, 2);
        // Let the wedged thread finish and confirm no double count.
        std::thread::sleep(Duration::from_millis(450));
        assert_eq!(pool.stats().jobs_run, 2);
    }

    #[test]
    fn panic_budget_flips_degraded() {
        let pool = WorkerPool::with_supervision(
            1,
            None,
            Some(PanicBudget {
                max_panics: 2,
                window: Duration::from_secs(30),
            }),
        );
        for _ in 0..2 {
            put(&pool, 0, Job::new(|| panic!("boom"))).unwrap();
        }
        pool.wait_idle();
        assert!(!pool.is_degraded(), "within budget");
        put(&pool, 0, Job::new(|| panic!("boom"))).unwrap();
        pool.wait_idle();
        assert!(pool.is_degraded(), "third panic exceeds max_panics = 2");
        assert!(pool.stats().degraded);
        pool.reset_degraded();
        assert!(!pool.is_degraded());
    }
}
