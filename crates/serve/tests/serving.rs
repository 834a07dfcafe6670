//! Integration tests: one persistent engine serving interleaved
//! posit/minifloat/fixed traffic, bit-identical to per-sample
//! `forward_bits`, with panic isolation and draining shutdown.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use dp_serve::{
    Completion, EngineConfig, JobError, ModelKey, PanicBudget, ServeEngine, ServeError,
};
use std::sync::Arc;

fn trained_iris() -> (Mlp, dp_datasets::TrainTest) {
    let split = dp_datasets::iris::load(77).split(50, 77).normalized();
    let mut mlp = Mlp::new(&[4, 8, 3], 77);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 0.02,
            seed: 77,
        },
    );
    (mlp, split)
}

fn mixed_formats() -> Vec<NumericFormat> {
    vec![
        NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
    ]
}

/// An engine small enough that chunk splitting, slot targeting and
/// stealing all actually happen on the test workload.
fn test_engine() -> ServeEngine {
    ServeEngine::new(EngineConfig {
        workers: 4,
        chunk_samples: 8,
        ..EngineConfig::default()
    })
}

#[test]
fn mixed_format_traffic_is_bit_identical_to_forward_bits() {
    let (mlp, split) = trained_iris();
    let engine = test_engine();
    let keys: Vec<(ModelKey, QuantizedMlp)> = mixed_formats()
        .into_iter()
        .map(|fmt| {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            (engine.registry().register("iris", q.clone()).unwrap(), q)
        })
        .collect();
    assert_eq!(engine.registry().len(), 3);
    assert_eq!(engine.registry().formats_of("iris").len(), 3);

    // 60 samples per format, admitted as one interleaved burst so the
    // three formats genuinely share the pool.
    let xs: Vec<Vec<f32>> = split
        .test
        .features
        .iter()
        .cycle()
        .take(60)
        .cloned()
        .collect();
    let pending: Vec<_> = keys
        .iter()
        .map(|(key, _)| engine.submit_forward(key, xs.clone()).unwrap())
        .collect();
    let classify: Vec<_> = keys
        .iter()
        .map(|(key, _)| engine.submit_classify(key, xs.clone()).unwrap())
        .collect();

    for (((key, q), forward), classes) in keys.iter().zip(pending).zip(classify) {
        let served = forward.wait().unwrap();
        let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
        assert_eq!(served, direct, "{key}: bits diverged from forward_bits");
        let served_classes = classes.wait().unwrap();
        let direct_classes: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
        assert_eq!(served_classes, direct_classes, "{key}: classes diverged");
    }
    assert!(engine.stats().jobs_run >= 3 * 2 * (60 / 8) as u64);
    assert_eq!(engine.stats().panics, 0);
}

#[test]
fn single_sample_requests_match_batch_path() {
    let (mlp, split) = trained_iris();
    let engine = test_engine();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = engine.registry().register("iris", q.clone()).unwrap();
    let x = split.test.features[3].clone();
    let bits = engine
        .submit_forward(&key, vec![x.clone()])
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(bits, [q.forward_bits(&x)]);
    let class = engine
        .submit_classify(&key, vec![x.clone()])
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(class, [q.infer(&x)]);
}

#[test]
fn a_poisoned_first_logit_does_not_win_through_the_engine() {
    // NaR at logit 0 used to win the f32 argmax by position; through the
    // pool it must lose to a real logit, exactly as `infer` says.
    let (mlp, split) = trained_iris();
    let fmt = PositFormat::new(8, 0).unwrap();
    let mut q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(fmt));
    q.layers[1].biases_mut()[0] = fmt.nar_bits();
    let engine = test_engine();
    let key = engine.registry().register("poisoned", q.clone()).unwrap();
    let xs: Vec<Vec<f32>> = split.test.features.iter().take(20).cloned().collect();
    let served = engine
        .submit_classify(&key, xs.clone())
        .unwrap()
        .wait()
        .unwrap();
    assert!(xs.iter().all(|x| q.forward_bits(x)[0] == fmt.nar_bits()));
    assert!(served.iter().all(|&class| class != 0), "{served:?}");
    assert_eq!(served, xs.iter().map(|x| q.infer(x)).collect::<Vec<_>>());
}

#[test]
fn engine_accuracy_matches_batch_accuracy() {
    let (mlp, split) = trained_iris();
    let engine = test_engine();
    for fmt in mixed_formats() {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        let key = engine.registry().register("iris", q.clone()).unwrap();
        assert_eq!(
            engine.accuracy(&key, &split.test).unwrap(),
            q.accuracy(&split.test),
            "{key}"
        );
    }
    // F32 baseline classifies through the engine too.
    let f32_model = QuantizedMlp::quantize(&mlp, NumericFormat::F32);
    let key = engine
        .registry()
        .register("iris", f32_model.clone())
        .unwrap();
    assert_eq!(
        engine.accuracy(&key, &split.test).unwrap(),
        f32_model.accuracy(&split.test)
    );
}

#[test]
fn admission_errors_are_reported() {
    let (mlp, _) = trained_iris();
    let engine = test_engine();
    let missing = ModelKey::new("ghost", "posit<8,0>");
    assert!(matches!(
        engine.submit_classify(&missing, vec![vec![0.0; 4]]),
        Err(ServeError::UnknownModel(_))
    ));
    // Raw EMAC activations are undefined for the f32 baseline.
    let key = engine
        .registry()
        .register("iris", QuantizedMlp::quantize(&mlp, NumericFormat::F32))
        .unwrap();
    assert!(matches!(
        engine.submit_forward(&key, vec![vec![0.0; 4]]),
        Err(ServeError::UnsupportedFormat(_))
    ));
}

#[test]
fn rows_of_the_wrong_width_are_rejected_at_admission_not_in_a_worker() {
    // Regression: nothing compared a row's length with the model's input
    // width, so a short row reached `forward_batch_bits_with`'s assert
    // inside the pool — a worker panic charged to the panic budget — and
    // on an `F32` model was silently zip-truncated to a wrong answer.
    let (mlp, split) = trained_iris();
    let engine = ServeEngine::new(EngineConfig {
        workers: 1,
        chunk_samples: 16,
        panic_budget: Some(PanicBudget {
            max_panics: 1,
            ..PanicBudget::default()
        }),
        ..EngineConfig::default()
    });
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = engine.registry().register("iris", q.clone()).unwrap();
    let f32_key = engine
        .registry()
        .register("iris", QuantizedMlp::quantize(&mlp, NumericFormat::F32))
        .unwrap();
    let good = split.test.features[0].clone();
    for _ in 0..10 {
        // A ragged batch: one good row, one three-feature row.
        let ragged = vec![good.clone(), good[..3].to_vec()];
        let err = engine.submit_forward(&key, ragged.clone()).unwrap_err();
        assert!(
            matches!(&err, ServeError::UnsupportedFormat(what)
                if what.contains("row 1 has 3 features") && what.contains("takes 4")),
            "{err}"
        );
        assert!(matches!(
            engine.submit_classify(&f32_key, ragged),
            Err(ServeError::UnsupportedFormat(_))
        ));
        assert!(matches!(
            engine.submit_classify(&key, vec![vec![0.5; 5]]),
            Err(ServeError::UnsupportedFormat(_))
        ));
    }
    // Nothing reached the pool; well-formed traffic is served as before.
    let served = engine.submit_forward(&key, vec![good.clone()]).unwrap();
    assert_eq!(served.wait().unwrap(), [q.forward_bits(&good)]);
    engine.wait_idle();
    assert_eq!(engine.stats().panics, 0);
    assert_eq!(engine.stats().jobs_run, 1);
    assert!(!engine.is_degraded());
}

#[test]
fn unsupported_model_is_rejected_at_registration_not_in_a_worker() {
    // Regression: a posit<8,6> model (es > n − 3, no EMAC datapath) used
    // to register fine and then panic inside the pool on its first
    // forward, poisoning that job's handle. Registration must now fail
    // with a typed error, leave the registry unchanged, and keep the pool
    // fully healthy for other traffic.
    let (mlp, split) = trained_iris();
    let engine = test_engine();
    let bad = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 6).unwrap()));
    let err = engine.registry().register("iris", bad).unwrap_err();
    assert!(matches!(
        &err,
        dp_serve::RegistryError::UnsupportedModel { key, .. }
            if key == &ModelKey::new("iris", "posit<8,6>")
    ));
    assert!(err.to_string().contains("es <= n-3"), "{err}");
    assert!(engine.registry().is_empty());
    // And the key is unknown at admission — a typed error, not a panic.
    let ghost = ModelKey::new("iris", "posit<8,6>");
    assert!(matches!(
        engine.submit_forward(&ghost, vec![vec![0.0; 4]]),
        Err(ServeError::UnknownModel(_))
    ));
    // The pool never saw a panicking job; healthy traffic still serves.
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = engine.registry().register("iris", q.clone()).unwrap();
    let served = engine
        .submit_forward(&key, split.test.features.clone())
        .unwrap()
        .wait()
        .unwrap();
    let direct: Vec<Vec<u32>> = split
        .test
        .features
        .iter()
        .map(|x| q.forward_bits(x))
        .collect();
    assert_eq!(served, direct);
    engine.wait_idle();
    assert_eq!(engine.stats().panics, 0);
}

#[test]
fn sixteen_bit_models_serve_bit_identically() {
    // The split-table datapath through the full serving stack: a
    // posit<16,1> model must serve bit-identically to forward_bits.
    let (mlp, split) = trained_iris();
    let engine = test_engine();
    let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(16, 1).unwrap()));
    let key = engine.registry().register("iris", q.clone()).unwrap();
    let xs: Vec<Vec<f32>> = split.test.features.iter().take(40).cloned().collect();
    let served = engine
        .submit_forward(&key, xs.clone())
        .unwrap()
        .wait()
        .unwrap();
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    assert_eq!(served, direct);
}

#[test]
fn panicking_job_poisons_only_its_own_handle() {
    let (mlp, split) = trained_iris();
    let engine = test_engine();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = engine.registry().register("iris", q.clone()).unwrap();

    // A chunk evaluator that panics, through the one dispatch entry,
    // reporting to a bare completion cell.
    let poisoned = Arc::new(Completion::default());
    let blows_up =
        |_: &QuantizedMlp, _: &[Vec<f32>]| -> Vec<usize> { panic!("model evaluation blows up") };
    let xs = split.test.features[..3].to_vec();
    engine
        .try_dispatch(
            Arc::new(q.clone()),
            xs,
            None,
            blows_up,
            Arc::clone(&poisoned),
        )
        .unwrap();
    let healthy = engine
        .submit_classify(&key, split.test.features.clone())
        .unwrap();

    assert_eq!(poisoned.wait(), Err(JobError::Panicked));
    // The concurrent request and the engine itself are unaffected.
    let preds = healthy.wait().unwrap();
    assert_eq!(preds.len(), split.test.len());
    // Handles complete before the worker's unwind finishes; wait_idle
    // synchronizes with the pool counters.
    engine.wait_idle();
    assert_eq!(engine.stats().panics, 1);
    let again = engine
        .submit_classify(&key, vec![split.test.features[0].clone()])
        .unwrap();
    assert_eq!(again.wait().unwrap(), [q.infer(&split.test.features[0])]);
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (mlp, split) = trained_iris();
    let engine = ServeEngine::new(EngineConfig {
        workers: 2,
        chunk_samples: 4,
        ..EngineConfig::default()
    });
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = engine.registry().register("iris", q.clone()).unwrap();
    let xs: Vec<Vec<f32>> = split
        .test
        .features
        .iter()
        .cycle()
        .take(200)
        .cloned()
        .collect();
    let handles: Vec<_> = (0..4)
        .map(|_| engine.submit_forward(&key, xs.clone()).unwrap())
        .collect();
    // Shut down immediately: every admitted request must still complete.
    engine.shutdown();
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    for h in handles {
        assert_eq!(h.wait().unwrap(), direct);
    }
}

#[test]
fn closed_engine_rejects_whole_batches_with_typed_error() {
    // Regression: batch submission used to enqueue chunks one at a time,
    // so an engine closing mid-batch could admit the first chunks and
    // silently drop the rest (the caller got a generic shutdown error and
    // no way to tell how much had leaked into the pool). Chunk admission
    // is now all-or-nothing and the rejection is the typed `EngineClosed`.
    let (mlp, split) = trained_iris();
    let engine = ServeEngine::new(EngineConfig {
        workers: 2,
        chunk_samples: 4,
        ..EngineConfig::default()
    });
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = engine.registry().register("iris", q.clone()).unwrap();
    let xs: Vec<Vec<f32>> = split
        .test
        .features
        .iter()
        .cycle()
        .take(40)
        .cloned()
        .collect();
    // 40 samples / 4-sample chunks = 10 jobs admitted before the close.
    let admitted = engine.submit_forward(&key, xs.clone()).unwrap();
    engine.close();
    // Post-close submissions fail with the typed error and enqueue
    // *zero* chunks — jobs_run stays at exactly the admitted batch.
    assert_eq!(
        engine.submit_forward(&key, xs.clone()).unwrap_err(),
        ServeError::EngineClosed
    );
    assert_eq!(
        engine.submit_classify(&key, xs.clone()).unwrap_err(),
        ServeError::EngineClosed
    );
    assert_eq!(
        engine.submit_forward(&key, Vec::new()).unwrap_err(),
        ServeError::EngineClosed
    );
    // The admitted batch still drains completely and correctly.
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    assert_eq!(admitted.wait().unwrap(), direct);
    engine.wait_idle();
    assert_eq!(engine.stats().jobs_run, 10);
}

#[test]
fn wait_after_pool_drained_still_returns_the_result() {
    // Completion-handle edge case: the pool can go fully idle (all chunks
    // done, results parked in the handle) long before the caller waits.
    let (mlp, split) = trained_iris();
    let engine = test_engine();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = engine.registry().register("iris", q.clone()).unwrap();
    let handle = engine
        .submit_forward(&key, split.test.features.clone())
        .unwrap();
    engine.wait_idle();
    assert_eq!(engine.queue_depth(), 0);
    let direct: Vec<Vec<u32>> = split
        .test
        .features
        .iter()
        .map(|x| q.forward_bits(x))
        .collect();
    assert_eq!(handle.wait().unwrap(), direct);
}

#[test]
fn wait_after_poll_returns_the_cached_result() {
    // The serving stack has one completion cell and it caches: poll()
    // and wait() hand out clones of the one resolution, so a wait() after
    // a poll() is defined behaviour (it used to be a caller bug, reported
    // as a panic, while only the dp_gateway handles cached).
    let (mlp, split) = trained_iris();
    let engine = test_engine();
    let key = engine
        .registry()
        .register("iris", QuantizedMlp::quantize(&mlp, mixed_formats()[0]))
        .unwrap();
    let handle = engine
        .submit_classify(&key, split.test.features.clone())
        .unwrap();
    engine.wait_idle();
    let polled = handle.poll().expect("done after wait_idle");
    assert_eq!(polled.as_ref().unwrap().len(), split.test.len());
    assert_eq!(handle.wait(), polled);
}

#[test]
fn poll_transitions_from_pending_to_ready() {
    let (mlp, split) = trained_iris();
    let engine = test_engine();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = engine.registry().register("iris", q).unwrap();
    let handle = engine
        .submit_classify(&key, split.test.features.clone())
        .unwrap();
    engine.wait_idle();
    assert!(handle.is_done());
    let polled = handle.poll().expect("done after wait_idle");
    assert_eq!(polled.unwrap().len(), split.test.len());
    // Cached, not taken: the next poll sees the same resolution.
    assert_eq!(handle.poll().unwrap().unwrap().len(), split.test.len());
}

#[test]
fn empty_batch_completes_immediately() {
    let (mlp, _) = trained_iris();
    let engine = test_engine();
    let key = engine
        .registry()
        .register("iris", QuantizedMlp::quantize(&mlp, mixed_formats()[0]))
        .unwrap();
    let handle = engine.submit_forward(&key, Vec::new()).unwrap();
    assert_eq!(handle.wait().unwrap(), Vec::<Vec<u32>>::new());
}

#[test]
fn chunked_tile_evaluation_is_bit_identical_to_per_sample() {
    // forward_batch/infer_batch run one weight-stationary sweep per
    // layer over the whole chunk (dot_layer, B = chunk width);
    // per sample they must match forward_bits / infer exactly — at the
    // production chunk width of 64, at ragged widths, at B = 1, and for
    // the 16-bit formats whose aligned operands are computed per element
    // (split-table posits, bit-field minifloats, sign-extended fixed
    // point).
    let (mlp, split) = trained_iris();
    let mut formats = mixed_formats();
    formats.push(NumericFormat::Posit(PositFormat::new(16, 1).unwrap()));
    formats.push(NumericFormat::Float(FloatFormat::new(5, 10).unwrap()));
    formats.push(NumericFormat::Fixed(FixedFormat::new(16, 10).unwrap()));
    let xs: Vec<Vec<f32>> = split
        .test
        .features
        .iter()
        .cycle()
        .take(64)
        .cloned()
        .collect();
    for fmt in formats {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
        let classes: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
        for width in [64usize, 13, 1] {
            let chunk = &xs[..width];
            assert_eq!(
                q.forward_batch(chunk),
                direct[..width],
                "{fmt} forward_batch B={width}"
            );
            assert_eq!(
                q.infer_batch(chunk),
                classes[..width],
                "{fmt} infer_batch B={width}"
            );
        }
    }
}
