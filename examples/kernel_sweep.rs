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
//! Then the table the README's lane counts are copied from: for every
//! format of the paper's §IV 5–8-bit grid and the 16-bit trio at k = 128,
//! the eq.-(3)/(4) register width and the sum type the aligned band holds
//! it in (`f64` ≤ 53 bits, `i64` ≤ 63, `i128` beyond).
//!
//! Run with `cargo run --release --example kernel_sweep`.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_emac::{Emac, EmacUnit, MacKernel, SumLane};
use dp_fixed::FixedFormat;
use dp_hw::{paper_grid, FormatSpec};
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
        .map(|spec| match spec {
            FormatSpec::Posit(f) => NumericFormat::Posit(f),
            FormatSpec::Float(f) => NumericFormat::Float(f),
            FormatSpec::Fixed(f) => NumericFormat::Fixed(f),
        })
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
