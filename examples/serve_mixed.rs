//! One persistent serving engine, three numeric formats, interleaved
//! traffic.
//!
//! Trains one float MLP on Iris, quantizes it into the paper's three
//! 8-bit families (posit, minifloat, fixed), registers all of them in a
//! single `dp_serve` engine, then drives an interleaved request stream —
//! batches and single samples, round-robin across formats — through the
//! shared worker pool. Every response is checked bit-for-bit against the
//! per-sample `forward_bits` reference.
//!
//! Run with `cargo run --release --example serve_mixed`.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use dp_serve::{EngineConfig, ServeEngine};
use std::time::Instant;

fn main() {
    let split = dp_datasets::iris::load(9).split(50, 9).normalized();
    let mut mlp = Mlp::new(&[4, 16, 3], 9);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: 60,
            batch_size: 8,
            lr: 0.01,
            seed: 9,
        },
    );

    let engine = ServeEngine::new(EngineConfig {
        chunk_samples: 32,
        ..EngineConfig::default()
    });
    println!(
        "engine: {} worker(s), chunk = 32 samples\n",
        engine.workers()
    );

    let formats = [
        NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
    ];
    let models: Vec<(dp_serve::ModelKey, QuantizedMlp)> = formats
        .into_iter()
        .map(|fmt| {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let key = engine
                .registry()
                .register("iris", q.clone())
                .expect("paper formats have EMAC datapaths");
            (key, q)
        })
        .collect();
    println!("registry:");
    for key in engine.registry().keys() {
        println!("  {key}");
    }

    // Interleaved traffic: 30 batch requests (100 samples each) round-robin
    // across the three formats, plus a single-sample request per batch.
    let batch: Vec<Vec<f32>> = split
        .test
        .features
        .iter()
        .cycle()
        .take(100)
        .cloned()
        .collect();
    // One reference evaluation per model, shared by its ten requests
    // (computed up front so the timed region is pure serving).
    let references: Vec<Vec<Vec<u32>>> = models
        .iter()
        .map(|(_, q)| batch.iter().map(|x| q.forward_bits(x)).collect())
        .collect();
    let t = Instant::now();
    let batches: Vec<_> = (0..30)
        .map(|i| {
            let (key, _) = &models[i % models.len()];
            engine.submit_forward(key, batch.clone()).expect("admitted")
        })
        .collect();
    let singles: Vec<_> = (0..30)
        .map(|i| {
            let (key, _) = &models[i % models.len()];
            engine
                .submit_classify(key, vec![batch[i].clone()])
                .expect("admitted")
        })
        .collect();

    let mut samples = 0usize;
    for (i, pending) in batches.into_iter().enumerate() {
        let (key, _) = &models[i % models.len()];
        let served = pending.wait().expect("request completed");
        samples += served.len();
        assert_eq!(
            &served,
            &references[i % models.len()],
            "{key}: engine output diverged"
        );
    }
    for (i, pending) in singles.into_iter().enumerate() {
        let (_, q) = &models[i % models.len()];
        assert_eq!(
            pending.wait().expect("request completed"),
            [q.infer(&batch[i])]
        );
        samples += 1;
    }
    let elapsed = t.elapsed();
    let stats = engine.stats();
    println!(
        "\nserved {samples} samples across 60 mixed-format requests in {:.1} ms \
         ({:.0} samples/s)",
        elapsed.as_secs_f64() * 1e3,
        samples as f64 / elapsed.as_secs_f64()
    );
    println!(
        "pool: {} jobs on {} worker(s), {} panic(s)",
        stats.jobs_run, stats.workers, stats.panics
    );
    println!("every response was bit-identical to per-sample forward_bits ✓");

    for (key, _) in &models {
        println!(
            "{key}: test accuracy {:.1}%",
            100.0 * engine.accuracy(key, &split.test).expect("served")
        );
    }
}
