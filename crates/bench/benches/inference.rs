//! Whole-network inference throughput (Iris topology): per-sample EMAC
//! inference vs the batch engine (contiguous weights, EMACs built once,
//! one tile sweep per layer on the calling thread), plus the per-op
//! rounding path and the f32 baseline — and two shapes of the end-to-end
//! benchmark, each trained as `benchmark/` trains it on caller-owned EMACs:
//! `offline_narrow8`'s Iris 4-16-3 in batches of 16 per 8-bit format
//! (`*_iris_batch16`), and `offline_wide16`'s Mushroom 117-24-2 in batches
//! of 64 per 16-bit format (`*_mushroom_batch64`).
//!
//! Run with `cargo bench --bench inference`. Writes the committed baseline
//! `BENCH_inference.json` at the repository root.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_bench::timing::{measure, out_path, render_measurements, smoke, write_json, Measurement};
use dp_datasets::{iris, mushroom};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use std::hint::black_box;

/// [`measure`], but under `--smoke` the median of `smoke_runs`
/// measurements: the `*_iris_batch16` and `*_mushroom_batch64` rows feed
/// CI's posit/fixed ratio guards, which one smoke measurement (3 ms) leaves
/// to noise.
fn steady(name: &str, elems: u64, smoke_runs: usize, mut f: impl FnMut() -> usize) -> Measurement {
    let runs = if smoke() { smoke_runs } else { 1 };
    let mut all: Vec<Measurement> = (0..runs).map(|_| measure(name, elems, &mut f)).collect();
    all.sort_by(|a, b| a.ns_per_iter.total_cmp(&b.ns_per_iter));
    all.swap_remove(runs / 2)
}

/// Smoke measurements per `*_iris_batch16` row: a ~2 µs call, whose
/// posit8e0/fixed8q6 ratio read 1.21–1.42× over nine where a full run
/// reads 1.15×, and 1.09–1.13× over 45 against full runs' 1.11–1.17×.
const SMOKE_IRIS: usize = 45;

fn main() {
    let split = iris::load(42).split(50, 42).normalized();
    let mut mlp = Mlp::new(&[4, 16, 3], 42);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: if smoke() { 8 } else { 60 },
            batch_size: 8,
            lr: 0.01,
            seed: 42,
        },
    );
    let x = split.test.features[0].clone();
    // Batch-traffic workload: the test set cycled to serving scale.
    let batch: Vec<Vec<f32>> = split
        .test
        .features
        .iter()
        .cycle()
        .take(if smoke() { 96 } else { 2000 })
        .cloned()
        .collect();
    let b = batch.len() as u64;
    let chunk16 = &batch[..16];

    let mut rows: Vec<Measurement> = Vec::new();
    let configs = [
        (
            "posit8e0",
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        ),
        (
            "float8e4m3",
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        ),
        (
            "fixed8q6",
            NumericFormat::Fixed(FixedFormat::new(8, 6).unwrap()),
        ),
    ];
    for (name, fmt) in configs {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        rows.push(measure(&format!("{name}_emac_per_sample"), 1, || {
            q.infer(black_box(&x))
        }));
        rows.push(measure(&format!("{name}_per_op_per_sample"), 1, || {
            q.infer_inexact(black_box(&x))
        }));
        // Scalar loop over the dataset: fresh EMACs per sample, no threads.
        rows.push(measure(&format!("{name}_scalar_batch{b}"), b, || {
            batch
                .iter()
                .map(|x| q.forward_bits(black_box(x)).len())
                .sum::<usize>()
        }));
        // Batch engine: EMACs built once, one tile sweep per layer.
        rows.push(measure(&format!("{name}_batch{b}"), b, || {
            q.forward_batch(black_box(&batch)).len()
        }));
        // The narrow8 shape: 19 outputs per sample against 112 MACs, so the
        // round/encode stage weighs as much as the sweep.
        let mut emacs = q.make_layer_emacs().expect("the 8-bit trio has EMACs");
        rows.push(steady(
            &format!("{name}_iris_batch16"),
            16,
            SMOKE_IRIS,
            || {
                q.forward_batch_bits_with(&mut emacs, black_box(chunk16))
                    .len()
            },
        ));
    }
    rows.push(measure("f32_native_per_sample", 1, || {
        mlp.predict(black_box(&x))
    }));

    // The wide16 shape: layers hand each other operand words, so what
    // separates posit<16,1> from fixed<16,8> is the posit decode of the
    // weights and the round-to-word epilogue, not a pattern round trip.
    let wide = mushroom::load(42).split(2708, 42).normalized();
    let mut wide_mlp = Mlp::new(&[117, 24, 2], 42);
    let schedule = TrainConfig {
        epochs: 2,
        batch_size: 64,
        lr: 0.01,
        seed: 42,
    };
    train(&mut wide_mlp, &wide.train, schedule);
    let chunk: Vec<Vec<f32>> = wide.test.features.iter().take(64).cloned().collect();
    let wide_configs = [
        (
            "posit16e1",
            NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
        ),
        (
            "float16e5m10",
            NumericFormat::Float(FloatFormat::new(5, 10).unwrap()),
        ),
        (
            "fixed16q8",
            NumericFormat::Fixed(FixedFormat::new(16, 8).unwrap()),
        ),
    ];
    for (name, fmt) in wide_configs {
        let q = QuantizedMlp::quantize(&wide_mlp, fmt);
        let mut emacs = q.make_layer_emacs().expect("the 16-bit trio has EMACs");
        rows.push(steady(&format!("{name}_mushroom_batch64"), 64, 9, || {
            q.forward_batch_bits_with(&mut emacs, black_box(&chunk))
                .len()
        }));
    }

    println!("{}", render_measurements(&rows));

    let find = |name: &str| rows.iter().find(|m| m.name == name).unwrap();
    for (name, _) in configs {
        let scalar = find(&format!("{name}_scalar_batch{b}"));
        let swept = find(&format!("{name}_batch{b}"));
        println!(
            "{name}: batch engine {:.2}x samples/sec over the scalar loop",
            scalar.ns_per_iter / swept.ns_per_iter
        );
    }
    let fixed = find("fixed8q6_iris_batch16").ns_per_iter;
    for (name, _) in configs {
        let row = find(&format!("{name}_iris_batch16"));
        println!(
            "{name} iris 4-16-3 B=16: {:.2}x fixed8q6's time",
            row.ns_per_iter / fixed
        );
    }
    let fixed = find("fixed16q8_mushroom_batch64").ns_per_iter;
    for (name, _) in wide_configs {
        let row = find(&format!("{name}_mushroom_batch64"));
        println!(
            "{name} mushroom 117-24-2 B=64: {:.2}x fixed16q8's time",
            row.ns_per_iter / fixed
        );
    }

    let path = out_path("inference");
    let meta = [
        ("bench", "inference".to_string()),
        ("command", "cargo bench --bench inference".to_string()),
        ("topology", "iris 4-16-3".to_string()),
        ("batch", b.to_string()),
        (
            "narrow_topology",
            "iris 4-16-3, batches of 16 (*_iris_batch16)".to_string(),
        ),
        (
            "wide_topology",
            "mushroom 117-24-2, batches of 64 (*_mushroom_batch64)".to_string(),
        ),
        ("threads", "1".to_string()),
        (
            "note",
            "elems = inference samples; *_scalar_batch* is the per-sample loop (before), \
             *_batch* is the batch engine (after), on the calling thread"
                .to_string(),
        ),
    ];
    write_json(&path, &meta, &rows).expect("write BENCH_inference.json");
    println!("\nwrote {}", path.display());
}
