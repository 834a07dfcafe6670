//! Deterministic chaos suite: drives the full gateway + engine stack with
//! `dp_fault` plans installed and asserts every injected failure resolves
//! to a **typed** error on exactly the affected handles — no hangs (every
//! wait in this file is a `wait_timeout`), no collateral damage, and the
//! same seed reproduces the same failure sequence.
//!
//! The fault plan is process-global, so every test takes the `serial()`
//! lock (with poison recovery — a failing chaos test must not cascade).

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, QuantizedMlp};
use dp_fault::{points, FaultAction, FaultPlan, Trigger};
use dp_gateway::{
    Admission, Gateway, GatewayBuilder, GatewayError, OverloadPolicy, RateLimit, SubmitOptions,
};
use dp_posit::PositFormat;
use dp_serve::{JobError, PanicBudget, WatchdogConfig};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Generous bound for "this resolves promptly"; a hang fails the test
/// instead of wedging the suite.
const WAIT: Duration = Duration::from_secs(10);

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn trained_iris() -> (Mlp, dp_datasets::TrainTest) {
    let split = dp_datasets::iris::load(31).split(50, 31).normalized();
    let mut mlp = Mlp::new(&[4, 8, 3], 31);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: 25,
            batch_size: 16,
            lr: 0.02,
            seed: 31,
        },
    );
    (mlp, split)
}

fn quantized(mlp: &Mlp) -> QuantizedMlp {
    QuantizedMlp::quantize(
        mlp,
        deep_positron::NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
    )
}

fn batch(split: &dp_datasets::TrainTest, n: usize) -> Vec<Vec<f32>> {
    split
        .test
        .features
        .iter()
        .cycle()
        .take(n)
        .cloned()
        .collect()
}

/// Tight supervision for fast chaos turnaround: 60 ms stall timeout,
/// 10 ms watchdog poll.
fn watchdog() -> WatchdogConfig {
    WatchdogConfig {
        stall_timeout: Duration::from_millis(60),
        poll_interval: Duration::from_millis(10),
    }
}

fn small_builder() -> GatewayBuilder {
    Gateway::builder()
        .workers(1)
        .chunk_samples(4)
        .queue_capacity(64)
}

#[test]
fn panic_storm_trips_degraded_mode_and_log_is_deterministic() {
    let _guard = serial();
    // First three chunk evaluations for "iris" panic; budget allows two
    // panics per window, so the third flips the engine to degraded.
    dp_fault::install(FaultPlan::seeded(7).inject_for_model(
        points::PANIC_IN_CHUNK,
        "iris",
        Trigger::FirstN(3),
        FaultAction::Panic,
    ));
    let (mlp, split) = trained_iris();
    let gw = small_builder()
        .panic_budget(PanicBudget {
            max_panics: 2,
            window: Duration::from_secs(30),
        })
        .build();
    let key = gw.registry().register("iris", quantized(&mlp)).unwrap();
    let xs = batch(&split, 4); // one chunk per request

    // Three sequential requests, three typed panic failures.
    for i in 0..3 {
        let h = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
        assert_eq!(
            h.wait_timeout(WAIT),
            Some(Err(GatewayError::Job(JobError::Panicked))),
            "request {i} should fail with the injected panic"
        );
    }
    // The third panic exceeds the budget; the flag is set by the worker
    // loop right after the handle resolves, so allow it a moment.
    let t0 = Instant::now();
    while !gw.is_degraded() && t0.elapsed() < WAIT {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(gw.is_degraded(), "3 panics > budget of 2 must degrade");
    assert!(matches!(
        gw.try_submit_forward(&key, xs.clone()),
        Admission::Degraded
    ));
    let snap = gw.snapshot();
    assert!(snap.degraded);
    assert_eq!(snap.failed, 3);
    assert_eq!(snap.rejected_degraded, 1);

    // The fired-fault log pins the exact failure sequence.
    let log = dp_fault::take_log();
    let fired: Vec<(u64, &str, u64)> = log
        .iter()
        .map(|f| (f.seq, f.point.as_str(), f.hit))
        .collect();
    assert_eq!(
        fired,
        vec![
            (1, points::PANIC_IN_CHUNK, 1),
            (2, points::PANIC_IN_CHUNK, 2),
            (3, points::PANIC_IN_CHUNK, 3),
        ]
    );

    // Operator reset: the gateway serves again (the FirstN(3) rule is
    // exhausted, so this evaluation runs clean).
    gw.reset_degraded();
    let h = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
    assert!(matches!(h.wait_timeout(WAIT), Some(Ok(_))));
    dp_fault::clear();
}

#[test]
fn stalled_worker_is_respawned_and_fails_only_the_stuck_request() {
    let _guard = serial();
    // The first "iris" chunk wedges its worker for 400 ms — far past the
    // 60 ms stall timeout.
    dp_fault::install(FaultPlan::seeded(11).inject_for_model(
        points::STALL_WORKER,
        "iris",
        Trigger::OnHit(1),
        FaultAction::Sleep(400),
    ));
    let (mlp, split) = trained_iris();
    let gw = small_builder().watchdog(watchdog()).build();
    let q = quantized(&mlp);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let xs = batch(&split, 4);

    // The stuck request fails with the typed stall verdict…
    let stuck = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
    assert_eq!(
        stuck.wait_timeout(WAIT),
        Some(Err(GatewayError::Job(JobError::Stalled)))
    );
    // …and the respawned worker serves the next request bit-identically.
    let healthy = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    assert_eq!(healthy.wait_timeout(WAIT), Some(Ok(direct)));

    // Let the wedged thread finish its sleep, then check accounting:
    // the abandoned worker must NOT double-count its job.
    std::thread::sleep(Duration::from_millis(500));
    let stats = gw.engine().stats();
    assert_eq!(stats.stalled, 1);
    assert_eq!(stats.respawned, 1);
    assert_eq!(
        stats.jobs_run, 2,
        "stalled job settles once; the abandoned thread adds nothing"
    );
    let snap = gw.snapshot();
    assert_eq!(snap.worker_stalled, 1);
    assert_eq!(snap.workers_respawned, 1);
    assert!(!snap.degraded, "a stall is not a panic");
    dp_fault::clear();
}

/// Queues four 1-sample requests behind a paused dispatcher (one
/// coalesced chunk once released), runs them under the installed fault
/// and checks the chunk stayed the fault-isolation unit: exactly those
/// four fail with `verdict`, and the next request is served
/// bit-identically.
fn coalesced_chunk_shares_one_fate(gw: &Gateway, verdict: JobError) {
    let (mlp, split) = trained_iris();
    let q = quantized(&mlp);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    gw.pause_dispatch();
    let members: Vec<_> = (0..4)
        .map(|i| {
            gw.try_submit_forward(&key, vec![split.test.features[i].clone()])
                .expect_admitted()
        })
        .collect();
    gw.resume_dispatch();
    for (i, h) in members.iter().enumerate() {
        assert_eq!(
            h.wait_timeout(WAIT),
            Some(Err(GatewayError::Job(verdict))),
            "member {i} of the coalesced chunk"
        );
    }
    let xs = batch(&split, 4);
    let healthy = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    assert_eq!(healthy.wait_timeout(WAIT), Some(Ok(direct)));
    gw.wait_idle();
    let snap = gw.snapshot();
    assert_eq!(snap.failed, 4, "exactly the chunk's members failed");
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.dispatched, 5);
    assert_eq!(snap.coalesced.count(), 2, "four members, one chunk");
    // One fault hit for four requests: the chunk, not the request, is
    // what the engine ran.
    assert_eq!(dp_fault::take_log().len(), 1);
    assert_eq!(gw.engine().stats().jobs_run, 2);
}

#[test]
fn panic_in_a_coalesced_chunk_fails_exactly_its_members() {
    let _guard = serial();
    dp_fault::install(FaultPlan::seeded(51).inject_for_model(
        points::PANIC_IN_CHUNK,
        "iris",
        Trigger::OnHit(1),
        FaultAction::Panic,
    ));
    let gw = small_builder().build();
    coalesced_chunk_shares_one_fate(&gw, JobError::Panicked);
    assert_eq!(gw.engine().stats().panics, 1);
    dp_fault::clear();
}

#[test]
fn stall_in_a_coalesced_chunk_fails_exactly_its_members() {
    let _guard = serial();
    dp_fault::install(FaultPlan::seeded(53).inject_for_model(
        points::STALL_WORKER,
        "iris",
        Trigger::OnHit(1),
        FaultAction::Sleep(400),
    ));
    let gw = small_builder().watchdog(watchdog()).build();
    coalesced_chunk_shares_one_fate(&gw, JobError::Stalled);
    let stats = gw.engine().stats();
    assert_eq!((stats.stalled, stats.respawned), (1, 1));
    dp_fault::clear();
    // Let the wedged (detached) sleeper finish before the next plan.
    std::thread::sleep(Duration::from_millis(450));
}

#[test]
fn deadline_expiry_vs_dispatch_race_always_resolves_typed() {
    let _guard = serial();
    // Every dispatch is delayed 30 ms, so a 10 ms deadline reliably loses
    // the race and a 10 s deadline reliably wins it — and either way the
    // handle resolves to a typed outcome.
    dp_fault::install(FaultPlan::seeded(23).inject(
        points::DELAY_DISPATCH,
        Trigger::Always,
        FaultAction::Sleep(30),
    ));
    let (mlp, split) = trained_iris();
    let gw = small_builder().build();
    let q = quantized(&mlp);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let xs = batch(&split, 4);
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();

    let doomed: Vec<_> = (0..4)
        .map(|_| {
            gw.try_submit_forward_opts(
                &key,
                xs.clone(),
                SubmitOptions::new().deadline_in(Duration::from_millis(10)),
            )
            .expect_admitted()
        })
        .collect();
    let viable: Vec<_> = (0..4)
        .map(|_| {
            gw.try_submit_forward_opts(
                &key,
                xs.clone(),
                SubmitOptions::new().deadline_in(Duration::from_secs(10)),
            )
            .expect_admitted()
        })
        .collect();
    for h in &doomed {
        assert_eq!(
            h.wait_timeout(WAIT),
            Some(Err(GatewayError::DeadlineExceeded))
        );
    }
    for h in &viable {
        assert_eq!(h.wait_timeout(WAIT), Some(Ok(direct.clone())));
    }
    gw.wait_idle();
    let snap = gw.snapshot();
    assert_eq!(snap.deadline_exceeded, 4);
    assert_eq!(snap.completed, 4);
    assert_eq!(snap.per_model[0].expired, 4);
    // The dispatcher logged a delay firing per popped entry.
    assert_eq!(dp_fault::take_log().len(), 8);
    dp_fault::clear();
}

#[test]
fn conservation_holds_under_2x_overload_with_expiry_and_cancel() {
    let _guard = serial();
    dp_fault::clear(); // pure overload run; counters do the verifying
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(2)
        .chunk_samples(4)
        .queue_capacity(8)
        .policy(OverloadPolicy::ShedNewest)
        .rate_limit(
            "iris",
            // 64 tokens, no refill: exactly enough for the admitted half
            // (8 requests × 4 samples) plus the transient charge of the
            // shed half, which refunds immediately.
            RateLimit {
                burst: 64.0,
                samples_per_sec: 0.0,
            },
        )
        .build();
    let q = quantized(&mlp);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let xs = batch(&split, 4);
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();

    // 2× ring capacity against a paused dispatcher: half admitted, half
    // shed. Of the admitted, 2 carry an already-passed deadline and 2 are
    // cancelled while queued.
    gw.pause_dispatch();
    let cap = gw.queue_capacity();
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for i in 0..2 * cap {
        let opts = if i == 1 || i == 2 {
            SubmitOptions::new().deadline(Instant::now())
        } else {
            SubmitOptions::new()
        };
        match gw.try_submit_forward_opts(&key, xs.clone(), opts) {
            Admission::Admitted(h) => admitted.push(h),
            Admission::QueueFull => shed += 1,
            other => panic!("unexpected verdict: {other:?}"),
        }
    }
    assert_eq!(admitted.len(), cap);
    assert_eq!(shed, cap);
    admitted[4].cancel();
    admitted[5].cancel();
    // Cancelled-while-queued handles resolve before dispatch even resumes.
    assert_eq!(admitted[4].poll(), Some(Err(GatewayError::Cancelled)));
    gw.resume_dispatch();

    let mut ok = 0u64;
    let mut expired = 0u64;
    let mut cancelled = 0u64;
    for h in &admitted {
        match h.wait_timeout(WAIT).expect("no admitted handle may hang") {
            Ok(bits) => {
                assert_eq!(bits, direct);
                ok += 1;
            }
            Err(GatewayError::DeadlineExceeded) => expired += 1,
            Err(GatewayError::Cancelled) => cancelled += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(expired, 2);
    assert_eq!(cancelled, 2);
    assert_eq!(ok, cap as u64 - 4);

    gw.wait_idle();
    let snap = gw.snapshot();
    // Admission conservation: submitted = admitted + shed.
    assert_eq!(snap.submitted, 2 * cap as u64);
    assert_eq!(snap.admitted + snap.shed_total(), snap.submitted);
    // Outcome conservation: every admitted request resolved exactly once.
    assert_eq!(
        snap.completed + snap.deadline_exceeded + snap.cancelled + snap.failed,
        snap.admitted
    );
    assert_eq!(snap.deadline_exceeded, 2);
    assert_eq!(snap.cancelled, 2);
    assert_eq!(snap.failed, 0);
    // Every non-completed request refunded its tokens, so exactly the
    // completed samples (16) remain charged against the non-refilling
    // 64-token bucket: a 48-sample probe squeaks in, one more sample does
    // not.
    let remaining = 64 - snap.samples_completed as usize;
    assert_eq!(remaining, 48);
    let probe = gw.try_submit_forward(&key, batch(&split, remaining));
    assert!(probe.is_admitted(), "refunds must restore the budget");
    assert!(matches!(
        gw.try_submit_forward(&key, batch(&split, 1)),
        Admission::RateLimited
    ));
    probe.expect_admitted().wait_timeout(WAIT).unwrap().unwrap();
}

#[test]
fn dropped_completion_times_out_then_cancel_recovers_the_handle() {
    let _guard = serial();
    // The first "iris" chunk evaluates fine but its completion is dropped
    // on the floor — the classic lost-wakeup. wait_timeout must return
    // None (not hang), and cancel() must recover the handle.
    dp_fault::install(FaultPlan::seeded(31).inject_for_model(
        points::DROP_COMPLETION,
        "iris",
        Trigger::OnHit(1),
        FaultAction::DropCompletion,
    ));
    let (mlp, split) = trained_iris();
    let gw = small_builder().build();
    let q = quantized(&mlp);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let xs = batch(&split, 4);

    let lost = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
    assert_eq!(
        lost.wait_timeout(Duration::from_millis(300)),
        None,
        "a dropped completion must surface as a timeout, not a hang"
    );
    lost.cancel();
    assert_eq!(
        lost.wait_timeout(WAIT),
        Some(Err(GatewayError::Cancelled)),
        "cancel recovers a handle whose completion was lost"
    );
    // Exactly one fault fired, and later traffic is untouched.
    assert_eq!(dp_fault::log().len(), 1);
    let healthy = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    assert_eq!(healthy.wait_timeout(WAIT), Some(Ok(direct)));
    dp_fault::clear();
}

#[test]
fn shutdown_under_wedged_load_is_bounded_by_the_drain_deadline() {
    let _guard = serial();
    // Every chunk wedges its worker for 1.5 s; the watchdog respawns at
    // 60 ms, and the dispatcher may hand the engine only one chunk at a
    // time — so draining the backlog would take seconds. The 150 ms drain
    // deadline must cut that short with typed Closed verdicts.
    dp_fault::install(FaultPlan::seeded(43).inject(
        points::STALL_WORKER,
        Trigger::Always,
        FaultAction::Sleep(1500),
    ));
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(1)
        .chunk_samples(4)
        .queue_capacity(16)
        .max_inflight_chunks(1)
        .watchdog(watchdog())
        .drain_deadline(Duration::from_millis(150))
        .build();
    let key = gw.registry().register("iris", quantized(&mlp)).unwrap();
    let xs = batch(&split, 4);

    gw.pause_dispatch();
    let handles: Vec<_> = (0..6)
        .map(|_| gw.try_submit_forward(&key, xs.clone()).expect_admitted())
        .collect();
    let t0 = Instant::now();
    gw.shutdown();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "bounded drain took {elapsed:?}"
    );

    // Every handle resolved to a typed outcome — dispatched ones to the
    // stall verdict, drain-aborted ones to Closed; none hang.
    let mut stalled = 0usize;
    let mut closed = 0usize;
    for h in &handles {
        match h
            .wait_timeout(WAIT)
            .expect("no handle may hang at shutdown")
        {
            Err(GatewayError::Job(JobError::Stalled)) => stalled += 1,
            Err(GatewayError::Closed) => closed += 1,
            other => panic!("unexpected shutdown outcome: {other:?}"),
        }
    }
    assert!(stalled >= 1, "at least the first request was dispatched");
    assert!(closed >= 1, "the drain deadline must abort the tail");
    assert_eq!(stalled + closed, handles.len());
    dp_fault::clear();
    // Give the last wedged (detached) sleeper time to drain before the
    // next test installs a plan.
    std::thread::sleep(Duration::from_millis(200));
}

#[test]
fn seeded_probabilistic_storm_reproduces_the_exact_outcome_sequence() {
    let _guard = serial();
    let (mlp, split) = trained_iris();
    let q = quantized(&mlp);
    let xs = batch(&split, 4);

    // One sequential pass: each request is a single chunk that panics
    // with p = 0.5, drawn from the plan's seeded RNG. Sequential waits
    // make hit order — and therefore the RNG stream — deterministic.
    let run = |seed: u64| -> (Vec<bool>, Vec<u64>) {
        dp_fault::install(FaultPlan::seeded(seed).inject_for_model(
            points::PANIC_IN_CHUNK,
            "iris",
            Trigger::WithProbability(0.5),
            FaultAction::Panic,
        ));
        let gw = small_builder().build();
        let key = gw.registry().register("iris", q.clone()).unwrap();
        let outcomes: Vec<bool> = (0..12)
            .map(|_| {
                let h = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
                match h.wait_timeout(WAIT).expect("typed outcome, never a hang") {
                    Ok(_) => true,
                    Err(GatewayError::Job(JobError::Panicked)) => false,
                    Err(other) => panic!("unexpected error: {other}"),
                }
            })
            .collect();
        let hits = dp_fault::take_log().into_iter().map(|f| f.hit).collect();
        dp_fault::clear();
        drop(gw);
        (outcomes, hits)
    };

    let (a_outcomes, a_hits) = run(1234);
    let (b_outcomes, b_hits) = run(1234);
    let (c_outcomes, _) = run(987_654_321);
    assert_eq!(a_outcomes, b_outcomes, "same seed, same failure sequence");
    assert_eq!(a_hits, b_hits);
    assert!(
        a_outcomes.iter().any(|&ok| ok) && a_outcomes.iter().any(|&ok| !ok),
        "p=0.5 over 12 requests should mix outcomes: {a_outcomes:?}"
    );
    assert_ne!(a_outcomes, c_outcomes, "different seeds should diverge");
}

#[test]
fn trace_terminals_partition_matches_counters_under_chaos() {
    let _guard = serial();
    // Chaos conservation: injected chunk panics + overload shed + expiry
    // + cancellation in one run, with the flight recorder sampling every
    // request. The recorder's terminal events must partition exactly into
    // the Prometheus counters — no double terminals, nothing unaccounted.
    // (Stalls surface through the same ChunkGuard path as failures, so
    // the panic injection covers that accounting seam too.)
    dp_fault::install(dp_fault::FaultPlan::seeded(77).inject_for_model(
        points::PANIC_IN_CHUNK,
        "iris",
        Trigger::FirstN(2),
        FaultAction::Panic,
    ));
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(2)
        .chunk_samples(4)
        .queue_capacity(8)
        .policy(OverloadPolicy::ShedNewest)
        .trace(dp_gateway::TraceConfig::every_request())
        .build();
    let key = gw.registry().register("iris", quantized(&mlp)).unwrap();
    let xs = batch(&split, 4); // one chunk per request

    gw.pause_dispatch();
    let cap = gw.queue_capacity();
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for i in 0..2 * cap {
        let opts = if i == 1 || i == 2 {
            SubmitOptions::new().deadline(Instant::now())
        } else {
            SubmitOptions::new()
        };
        match gw.try_submit_forward_opts(&key, xs.clone(), opts) {
            Admission::Admitted(h) => admitted.push(h),
            Admission::QueueFull => shed += 1,
            other => panic!("unexpected verdict: {other:?}"),
        }
    }
    admitted[4].cancel();
    admitted[5].cancel();
    gw.resume_dispatch();
    for h in &admitted {
        h.wait_timeout(WAIT)
            .expect("no admitted handle may hang")
            .ok();
    }
    gw.close();

    let snap = gw.snapshot();
    let stats = gw.recorder().expect("tracing is on").stats();
    use dp_gateway::TerminalKind;
    assert_eq!(stats.begun, cap as u64 + shed);
    assert_eq!(stats.terminals_total(), stats.begun);
    assert_eq!(stats.dup_terminals, 0);
    assert_eq!(stats.terminal(TerminalKind::Completed), snap.completed);
    assert_eq!(stats.terminal(TerminalKind::Failed), snap.failed);
    assert_eq!(
        stats.terminal(TerminalKind::Expired),
        snap.deadline_exceeded
    );
    assert_eq!(stats.terminal(TerminalKind::Cancelled), snap.cancelled);
    assert_eq!(
        stats.terminal(TerminalKind::Shed),
        snap.shed_queue_full + snap.shed_evicted
    );
    // The injected panics actually fired and were accounted as failures.
    assert_eq!(snap.failed, 2);
    assert_eq!(snap.deadline_exceeded, 2);
    assert_eq!(snap.cancelled, 2);
    dp_fault::clear();
}
