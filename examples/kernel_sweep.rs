//! Which MAC kernel serves each registered model?
//!
//! Trains one float MLP on Iris, quantizes it across the three format
//! families and both kernel bands (aligned integers wherever the format's
//! operands fit the aligned word — posit⟨16,1⟩'s 57-bit minpos-unit
//! operands included — the per-MAC scalar loop otherwise: posit⟨16,2⟩'s
//! 113-bit operands, float⟨6,9⟩'s six exponent bits, anything past 16
//! bits), registers everything in one `dp_serve` engine, prints the
//! kernel each model's layers run, and verifies a served batch stays
//! bit-identical to per-sample `forward_bits` on every model.
//!
//! Then the tables the README's lane counts are copied from: for every
//! format of the paper's §IV 5–8-bit grid and the 16-bit trio at k = 128,
//! the eq.-(3)/(4) register width and the static sum type the aligned
//! band holds it in (`f64` ≤ 53 bits, `i64` ≤ 63, `i128` beyond); and, for
//! the end-to-end benchmark's two models (Mushroom 117-24-2 and Iris
//! 4-16-3, trained as `benchmark/` trains them) per format and layer, how
//! much of that register the operands occupy — the share of (weight row,
//! 64-column test tile) pairs that sum in `f32` and in `f64` by the lane
//! rule over `dp_emac::SumLane::span_bound`, and the widest bound seen.
//!
//! Run with `cargo run --release --example kernel_sweep`.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_emac::{Emac, EmacEntry, EmacUnit, Family, Fixed, Float, MacKernel, Posit, SumLane};
use dp_fixed::FixedFormat;
use dp_hw::paper_grid;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use dp_serve::{EngineConfig, ServeEngine};

fn main() {
    let split = dp_datasets::iris::load(17).split(50, 17).normalized();
    let mut mlp = Mlp::new(&[4, 12, 3], 17);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: 60,
            batch_size: 8,
            lr: 0.01,
            seed: 17,
        },
    );

    let formats = [
        NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
        NumericFormat::Posit(PositFormat::new(16, 2).unwrap()),
        NumericFormat::Posit(PositFormat::new(17, 1).unwrap()),
        NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        NumericFormat::Float(FloatFormat::new(5, 10).unwrap()),
        NumericFormat::Float(FloatFormat::new(6, 9).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(16, 10).unwrap()),
    ];

    let chunk_samples = 32;
    let engine = ServeEngine::new(EngineConfig {
        chunk_samples,
        ..EngineConfig::default()
    });
    println!("kernel per registered model (layer dims 4-12-3, chunk = {chunk_samples}):\n");
    println!(
        "{:<22} {:>6}  kernel, register bits and sum type (one per layer)",
        "model", "bits"
    );
    let mut models = Vec::new();
    for fmt in formats {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        let emacs = q.make_layer_emacs().expect("low-precision format");
        let key = engine
            .registry()
            .register("iris", q.clone())
            .expect("all sweep formats have EMAC datapaths");
        let rendered: Vec<String> = emacs.iter().map(lane_of).collect();
        println!(
            "{:<22} {:>6}  {}",
            key.to_string(),
            fmt.n(),
            rendered.join(", ")
        );
        models.push((key, q));
    }

    // Every model serves a batch bit-identically to forward_bits — the
    // kernels are a speed story, never a numerics story.
    let batch: Vec<Vec<f32>> = split.test.features.iter().take(40).cloned().collect();
    for (key, q) in &models {
        let served = engine
            .submit_forward(key, batch.clone())
            .expect("registered model")
            .wait()
            .expect("serving succeeded");
        let reference: Vec<Vec<u32>> = batch.iter().map(|x| q.forward_bits(x)).collect();
        assert_eq!(served, reference, "{key}: served != forward_bits");
    }
    println!(
        "\nverified: {} models × {} samples served bit-identical to forward_bits",
        models.len(),
        batch.len()
    );

    // The lane table: the §IV grid and the 16-bit trio at the paper's
    // k = 128.
    let mut grid: Vec<NumericFormat> = (5..=8)
        .flat_map(paper_grid)
        .map(NumericFormat::from)
        .collect();
    grid.extend([
        NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
        NumericFormat::Float(FloatFormat::new(5, 10).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(16, 8).unwrap()),
    ]);
    println!("\nregister and sum type per format at k = 128:\n");
    let mut counts = std::collections::BTreeMap::new();
    for fmt in &grid {
        let unit = fmt.make_emac(128).expect("low-precision format");
        println!("{:<16} {}", fmt.to_string(), lane_of(&unit));
        *counts.entry(sum_type(&unit)).or_insert(0) += 1;
    }
    let summary: Vec<String> = counts.iter().map(|(l, n)| format!("{n} on {l}")).collect();
    println!("\n{} formats: {}", grid.len(), summary.join(", "));

    occupancy();
}

/// Seed of the benchmark's datasets, splits and training
/// (`benchmark/src/setup.rs`'s `MODEL_SEED`).
const MODEL_SEED: u64 = 42;

/// Columns per activation tile: the benchmark's offline chunk.
const TILE: usize = 64;

/// The operand-occupancy table: for the benchmark's two models, per
/// format and layer, the share of (weight row, [`TILE`]-column test tile)
/// pairs that sum in `f32` — pairs of a ≤ 53-bit register whose
/// [`SumLane::span_bound`] is ≤ 24 — and in `f64` — the other pairs of a
/// ≤ 53-bit register, else those whose bound is ≤ 53 — and the widest
/// bound seen.
fn occupancy() {
    let mushroom = dp_datasets::mushroom::load(MODEL_SEED).split(2708, MODEL_SEED);
    let iris = dp_datasets::iris::load(MODEL_SEED).split(50, MODEL_SEED);
    let models = [
        ("mushroom", mushroom, vec![117, 24, 2], 2, 64),
        ("iris", iris, vec![4, 16, 3], 60, 8),
    ];
    let formats = [
        NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        NumericFormat::Posit(PositFormat::new(8, 1).unwrap()),
        NumericFormat::Posit(PositFormat::new(8, 2).unwrap()),
        NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(8, 6).unwrap()),
        NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
        NumericFormat::Float(FloatFormat::new(5, 10).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(16, 8).unwrap()),
    ];
    println!(
        "\noperand occupancy per (weight row, {TILE}-column test tile) pair, benchmark models:\n"
    );
    println!(
        "{:<9} {:>5} {:>4} {:<16} {:>4} {:>6} {:>9} {:>9} {:>8}",
        "model", "layer", "K", "format", "W", "static", "f32 pairs", "f64 pairs", "widest"
    );
    for (name, split, dims, epochs, batch_size) in models {
        let split = split.normalized();
        let mut mlp = Mlp::new(&dims, MODEL_SEED);
        let cfg = TrainConfig {
            epochs,
            batch_size,
            lr: 0.01,
            seed: MODEL_SEED,
        };
        train(&mut mlp, &split.train, cfg);
        for fmt in formats {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let magnitude = magnitudes(fmt);
            let or = |bits: &[u32]| bits.iter().fold(0, |m, &b| m | magnitude(b));
            // Sample-major activations of the layer being measured: the
            // quantised test inputs, then each layer's ReLU'd outputs.
            let mut acts = Vec::new();
            fmt.quantize_into(&split.test.features.concat(), &mut acts);
            let samples = split.test.len();
            for (li, layer) in q.layers.iter().enumerate() {
                let k = layer.fan_in();
                let mut unit = fmt.make_emac(k as u64).expect("low-precision format");
                let width = unit.accumulator_width();
                let static_lane = SumLane::for_width(width);
                let (mut pairs, mut singles, mut doubles, mut widest) = (0, 0, 0, 0);
                for tile in acts.chunks(TILE * k) {
                    let tile_or = or(tile);
                    for row in layer.weight_rows() {
                        let bound = SumLane::span_bound(or(row), tile_or, k);
                        pairs += 1;
                        let f64_static = static_lane == SumLane::F64;
                        singles += (f64_static && bound <= 24) as usize;
                        doubles +=
                            (f64_static && bound > 24 || !f64_static && bound <= 53) as usize;
                        widest = widest.max(bound);
                    }
                }
                println!(
                    "{:<9} {:>5} {:>4} {:<16} {:>4} {:>6} {:>8.1}% {:>8.1}% {:>8}",
                    name,
                    li,
                    k,
                    fmt.to_string(),
                    width,
                    static_lane.name(),
                    100.0 * singles as f64 / pairs as f64,
                    100.0 * doubles as f64 / pairs as f64,
                    widest
                );
                let mut out = vec![0u32; samples * layer.fan_out()];
                unit.dot_layer(layer.biases(), layer.weights(), &acts, &mut out);
                fmt.relu_in_place(&mut out);
                acts = out;
            }
        }
    }
}

/// The aligned magnitude `field << scale` of one pattern of `fmt` (0 for
/// zero and specials), from the family's bit-field decode.
fn magnitudes(fmt: NumericFormat) -> Box<dyn Fn(u32) -> u64> {
    fn of<F: Family + 'static>(fmt: F::Format) -> Box<dyn Fn(u32) -> u64> {
        let family = F::new(fmt, false);
        Box::new(move |b| {
            let e: EmacEntry = family.decode(b);
            e.field() << e.scale()
        })
    }
    match fmt {
        NumericFormat::Posit(f) => of::<Posit>(f),
        NumericFormat::Float(f) => of::<Float>(f),
        NumericFormat::Fixed(f) => of::<Fixed>(f),
        NumericFormat::F32 => unreachable!("the f32 baseline has no EMAC"),
    }
}

/// The sum type of one unit's sweeps (`-` on the scalar band, which
/// accumulates in the `Accum` register itself).
fn sum_type(unit: &EmacUnit) -> &'static str {
    match unit.kernel() {
        MacKernel::Aligned => SumLane::for_width(unit.accumulator_width()).name(),
        MacKernel::Scalar => "-",
    }
}

/// `kernel register-bits sum-type` of one unit.
fn lane_of(unit: &EmacUnit) -> String {
    let (kernel, width) = (unit.kernel(), unit.accumulator_width());
    format!("{kernel} {width} {}", sum_type(unit))
}
