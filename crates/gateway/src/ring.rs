//! The bounded multi-producer submission ring between clients and the
//! dispatcher.
//!
//! Any number of producer threads push admitted requests; one dispatcher
//! thread pops them and forwards to the serving engine. Capacity is fixed
//! at construction — when the ring is full the *caller* decides what
//! gives (reject the newcomer, evict the oldest, or block), which is how
//! the gateway's overload policies stay pluggable: the ring mechanically
//! reports `Full`/returns an evictee and never sheds anything itself.
//!
//! Between a pop and its `dispatch_done` the dispatcher may also
//! [`take_matching`](SubmissionRing::take_matching) followers out of the
//! queue — the entries it coalesces into the popped head's chunk.
//!
//! The ring also carries the control plane the dispatcher needs: a
//! `closing` flag (after which pops drain the backlog and then return
//! `None`), a `paused` flag (dispatch stalls while producers keep
//! admitting — the deterministic way to build a backlog in tests and
//! benches), and an idle condition (`empty ∧ not mid-dispatch`) that
//! `wait_idle` callers block on.

use dp_serve::check::{self, check_yield, MutexGuard};
use std::collections::VecDeque;
use std::time::Instant;

/// Outcome of a non-blocking push.
pub(crate) enum TryPush<E> {
    /// Enqueued; ring had room.
    Pushed,
    /// Enqueued after evicting the oldest entry, which is returned to the
    /// caller to shed (`ShedOldest`).
    PushedEvicting(E),
    /// Ring full and eviction not requested; the entry comes back to the
    /// caller (`ShedNewest`, or `Block` on the non-blocking path).
    Full(E),
    /// The ring is closing; nothing was enqueued.
    Closed(E),
}

struct RingState<E> {
    queue: VecDeque<E>,
    closing: bool,
    /// When `close` was first called — the dispatcher's drain deadline is
    /// measured from this instant.
    closed_at: Option<Instant>,
    paused: bool,
    /// An entry has been popped but its dispatch has not finished yet —
    /// the ring is not idle even though `queue` may be empty.
    dispatching: bool,
}

pub(crate) struct SubmissionRing<E> {
    capacity: usize,
    state: check::Mutex<RingState<E>>,
    /// Wakes the dispatcher: work arrived, pause flipped, or closing.
    work: check::Condvar,
    /// Wakes producers blocked on space and idle-waiters: an entry left
    /// the queue, a dispatch finished, or closing.
    space: check::Condvar,
}

impl<E> SubmissionRing<E> {
    pub(crate) fn new(capacity: usize) -> Self {
        SubmissionRing {
            capacity: capacity.max(1),
            state: check::mutex(
                "gateway.ring",
                RingState {
                    queue: VecDeque::with_capacity(capacity.max(1)),
                    closing: false,
                    closed_at: None,
                    paused: false,
                    dispatching: false,
                },
            ),
            work: check::condvar(),
            space: check::condvar(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The ring lock.
    fn st(&self) -> MutexGuard<'_, RingState<E>> {
        // panic-ok: the ring lock is only poisoned if a holder panicked
        // inside a critical section; every section here is VecDeque/flag
        // manipulation that cannot panic, so poisoning means the state is
        // already untrustworthy and serving from it would be worse.
        self.state.lock().expect("ring lock")
    }

    pub(crate) fn len(&self) -> usize {
        self.st().queue.len()
    }

    /// Non-blocking push. With `evict_oldest`, a full ring makes room by
    /// handing the oldest entry back for the caller to shed.
    pub(crate) fn try_push(&self, entry: E, evict_oldest: bool) -> TryPush<E> {
        check_yield!("ring.try_push");
        let mut st = self.st();
        if st.closing {
            return TryPush::Closed(entry);
        }
        if st.queue.len() >= self.capacity {
            if !evict_oldest {
                return TryPush::Full(entry);
            }
            check_yield!("ring.evict");
            // panic-ok: the full branch guarantees `queue.len() >= capacity
            // >= 1`, so the queue cannot be empty here.
            let oldest = st.queue.pop_front().expect("capacity >= 1, queue full");
            st.queue.push_back(entry);
            drop(st);
            self.work.notify_one();
            return TryPush::PushedEvicting(oldest);
        }
        st.queue.push_back(entry);
        drop(st);
        self.work.notify_one();
        TryPush::Pushed
    }

    /// Blocking push (`Block` policy): waits for space instead of
    /// shedding. Returns the entry if the ring closed while waiting.
    pub(crate) fn push_blocking(&self, entry: E) -> Result<(), E> {
        check_yield!("ring.push_blocking");
        let mut st = self.st();
        loop {
            if st.closing {
                return Err(entry);
            }
            if st.queue.len() < self.capacity {
                st.queue.push_back(entry);
                drop(st);
                self.work.notify_one();
                return Ok(());
            }
            st = self.space.wait(st).expect("ring lock"); // panic-ok: see `SubmissionRing::st`
        }
    }

    /// Dispatcher side: blocks for the next entry, honoring `paused`.
    /// Returns `None` only once the ring is closing **and** drained, so
    /// shutdown never strands an admitted request. Marks the ring as
    /// mid-dispatch; pair every `Some` with [`SubmissionRing::dispatch_done`].
    pub(crate) fn pop_for_dispatch(&self) -> Option<E> {
        check_yield!("ring.pop");
        let mut st = self.st();
        loop {
            // Closing overrides pause: the backlog always drains.
            if !st.paused || st.closing {
                if let Some(entry) = st.queue.pop_front() {
                    st.dispatching = true;
                    drop(st);
                    // Space freed: wake one blocked producer (and any
                    // idle-waiter, though the ring is not idle yet).
                    self.space.notify_all();
                    return Some(entry);
                }
                if st.closing {
                    return None;
                }
            }
            st = self.work.wait(st).expect("ring lock"); // panic-ok: see `SubmissionRing::st`
        }
    }

    /// Dispatcher side, between a pop and its [`dispatch_done`]: removes
    /// every already-queued entry `want` accepts, in queue order — the
    /// followers coalesced behind the popped head. Never waits, and takes
    /// nothing while dispatch is paused (the pause holds the whole
    /// backlog; closing overrides it, as for pops). Entries it leaves
    /// keep their order, so the front of the queue is still the oldest.
    ///
    /// [`dispatch_done`]: SubmissionRing::dispatch_done
    pub(crate) fn take_matching(&self, mut want: impl FnMut(&E) -> bool) -> Vec<E> {
        check_yield!("ring.take_matching");
        let mut st = self.st();
        let mut taken = Vec::new();
        if st.paused && !st.closing {
            return taken;
        }
        let mut i = 0;
        while i < st.queue.len() {
            if want(&st.queue[i]) {
                taken.extend(st.queue.remove(i));
            } else {
                i += 1;
            }
        }
        drop(st);
        if !taken.is_empty() {
            // Space freed: wake blocked producers.
            self.space.notify_all();
        }
        taken
    }

    /// Marks the in-flight dispatch as finished (the entry reached the
    /// engine or was resolved), letting idle-waiters re-check.
    pub(crate) fn dispatch_done(&self) {
        check_yield!("ring.dispatch_done");
        let mut st = self.st();
        st.dispatching = false;
        drop(st);
        self.space.notify_all();
    }

    /// Blocks until the ring is idle: empty and not mid-dispatch.
    pub(crate) fn wait_empty(&self) {
        let mut st = self.st();
        while !st.queue.is_empty() || st.dispatching {
            st = self.space.wait(st).expect("ring lock"); // panic-ok: see `SubmissionRing::st`
        }
    }

    /// Stalls dispatch (admission continues — the backlog grows).
    pub(crate) fn pause(&self) {
        self.st().paused = true;
    }

    /// Resumes dispatch.
    pub(crate) fn resume(&self) {
        let mut st = self.st();
        st.paused = false;
        drop(st);
        self.work.notify_all();
    }

    /// Begins shutdown: rejects new pushes, lets the dispatcher drain the
    /// backlog, wakes every blocked producer and waiter.
    pub(crate) fn close(&self) {
        check_yield!("ring.close");
        let mut st = self.st();
        st.closing = true;
        if st.closed_at.is_none() {
            // clock-ok: drain-deadline anchor — shutdown must be bounded
            // in wall time even under a virtualized trace clock.
            st.closed_at = Some(Instant::now());
        }
        drop(st);
        self.work.notify_all();
        self.space.notify_all();
    }

    /// The instant shutdown began, if [`SubmissionRing::close`] has been
    /// called. The dispatcher bounds its backlog drain against this.
    pub(crate) fn closing_since(&self) -> Option<Instant> {
        self.st().closed_at
    }
}

/// Seeded PCT interleave tests (compiled only with `--features
/// check-yield`): the conservation law behind the gateway's metrics —
/// every admitted entry has exactly one fate — checked across ≥1000
/// schedules per seed with real producer/dispatcher thread bodies.
#[cfg(all(test, feature = "check-yield"))]
mod interleave_tests {
    use super::*;
    use dp_check::sched::explore;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn bump(c: &AtomicUsize) {
        // relaxed-ok: per-run test tally, read only after the schedule
        // has joined every thread.
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn get(c: &AtomicUsize) -> usize {
        // relaxed-ok: see `bump` — the run's threads are already joined.
        c.load(Ordering::Relaxed)
    }

    /// Two producers push four entries through a capacity-2 ring with
    /// `ShedOldest` eviction while one dispatcher drains; the last
    /// producer out closes the ring. Under every schedule:
    /// `popped + evicted == submitted` (no entry is lost or doubled),
    /// and neither `Full` nor `Closed` can occur (eviction always makes
    /// room; close happens only after the final push).
    #[test]
    fn every_entry_has_exactly_one_fate_under_every_schedule() {
        for master in [0x21C6_0001u64, 0x21C6_0002, 0x21C6_0003] {
            let mut audits: Vec<[Arc<AtomicUsize>; 3]> = Vec::new();
            let out = explore(master, 1000, 3, |_| {
                let ring = Arc::new(SubmissionRing::new(2));
                let popped = Arc::new(AtomicUsize::new(0));
                let evicted = Arc::new(AtomicUsize::new(0));
                let anomalies = Arc::new(AtomicUsize::new(0));
                let live_producers = Arc::new(AtomicUsize::new(2));
                audits.push([
                    Arc::clone(&popped),
                    Arc::clone(&evicted),
                    Arc::clone(&anomalies),
                ]);
                let mut bodies: Vec<Box<dyn FnOnce() + Send>> = (0..2u32)
                    .map(|p| {
                        let ring = Arc::clone(&ring);
                        let evicted = Arc::clone(&evicted);
                        let anomalies = Arc::clone(&anomalies);
                        let live = Arc::clone(&live_producers);
                        Box::new(move || {
                            for i in 0..2u32 {
                                match ring.try_push(p * 2 + i, true) {
                                    TryPush::Pushed => {}
                                    TryPush::PushedEvicting(_) => bump(&evicted),
                                    TryPush::Full(_) | TryPush::Closed(_) => bump(&anomalies),
                                }
                            }
                            // Last producer out begins shutdown, so the
                            // dispatcher's drain loop terminates. AcqRel:
                            // the close must happen-after both push runs.
                            if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                                ring.close();
                            }
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                let dispatcher_ring = Arc::clone(&ring);
                let dispatcher_popped = Arc::clone(&popped);
                bodies.push(Box::new(move || {
                    while dispatcher_ring.pop_for_dispatch().is_some() {
                        bump(&dispatcher_popped);
                        dispatcher_ring.dispatch_done();
                    }
                }));
                bodies
            });
            assert_eq!(out.schedules, 1000);
            assert!(out.findings.is_empty(), "findings: {:?}", out.findings);
            assert!(
                out.distinct_traces >= 10,
                "seed {master:#x}: the seed is not steering the schedule \
                 ({} distinct traces)",
                out.distinct_traces
            );
            let mut eviction_seen = false;
            for (run, [popped, evicted, anomalies]) in audits.iter().enumerate() {
                assert_eq!(get(anomalies), 0, "seed {master:#x} run {run}: Full/Closed");
                assert_eq!(
                    get(popped) + get(evicted),
                    4,
                    "seed {master:#x} run {run}: conservation broken \
                     (popped {}, evicted {})",
                    get(popped),
                    get(evicted)
                );
                eviction_seen |= get(evicted) > 0;
            }
            assert!(
                eviction_seen,
                "seed {master:#x}: no schedule ever filled the ring — the \
                 test is not exercising the eviction path"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bounded_push_full_and_evict() {
        let ring = SubmissionRing::new(2);
        assert!(matches!(ring.try_push(1, false), TryPush::Pushed));
        assert!(matches!(ring.try_push(2, false), TryPush::Pushed));
        // Full: rejected newcomer comes back.
        assert!(matches!(ring.try_push(3, false), TryPush::Full(3)));
        assert_eq!(ring.len(), 2);
        // Full + evict: oldest (1) comes back, newcomer admitted.
        assert!(matches!(ring.try_push(4, true), TryPush::PushedEvicting(1)));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.pop_for_dispatch(), Some(2));
        ring.dispatch_done();
        assert_eq!(ring.pop_for_dispatch(), Some(4));
        ring.dispatch_done();
    }

    #[test]
    fn close_drains_then_stops() {
        let ring = SubmissionRing::new(4);
        assert!(matches!(ring.try_push(1, false), TryPush::Pushed));
        assert!(matches!(ring.try_push(2, false), TryPush::Pushed));
        ring.close();
        assert!(matches!(ring.try_push(3, false), TryPush::Closed(3)));
        // The backlog still drains in order…
        assert_eq!(ring.pop_for_dispatch(), Some(1));
        ring.dispatch_done();
        assert_eq!(ring.pop_for_dispatch(), Some(2));
        ring.dispatch_done();
        // …then pops return None.
        assert_eq!(ring.pop_for_dispatch(), None);
    }

    #[test]
    fn pause_stalls_dispatch_but_not_admission() {
        let ring = Arc::new(SubmissionRing::new(8));
        ring.pause();
        assert!(matches!(ring.try_push(7, false), TryPush::Pushed));
        let r2 = Arc::clone(&ring);
        let t = std::thread::spawn(move || r2.pop_for_dispatch());
        // Dispatcher is parked on the paused ring; admission still works.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(matches!(ring.try_push(8, false), TryPush::Pushed));
        assert_eq!(ring.len(), 2);
        ring.resume();
        assert_eq!(t.join().unwrap(), Some(7));
        ring.dispatch_done();
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let ring = Arc::new(SubmissionRing::new(1));
        assert!(matches!(ring.try_push(1, false), TryPush::Pushed));
        let r2 = Arc::clone(&ring);
        let t = std::thread::spawn(move || r2.push_blocking(2));
        std::thread::sleep(std::time::Duration::from_millis(10));
        // Producer is blocked; popping frees space and unblocks it.
        assert_eq!(ring.pop_for_dispatch(), Some(1));
        ring.dispatch_done();
        assert!(t.join().unwrap().is_ok());
        assert_eq!(ring.pop_for_dispatch(), Some(2));
        ring.dispatch_done();
    }

    #[test]
    fn wait_empty_sees_mid_dispatch_entries() {
        let ring = Arc::new(SubmissionRing::new(4));
        assert!(matches!(ring.try_push(1, false), TryPush::Pushed));
        let popped = ring.pop_for_dispatch();
        assert_eq!(popped, Some(1));
        // Queue is empty but dispatch is in flight: wait_empty must block.
        let r2 = Arc::clone(&ring);
        let t = std::thread::spawn(move || r2.wait_empty());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!t.is_finished());
        ring.dispatch_done();
        t.join().unwrap();
    }
}
