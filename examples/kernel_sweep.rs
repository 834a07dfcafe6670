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
//! Run with `cargo run --release --example kernel_sweep`.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_emac::Emac;
use dp_fixed::FixedFormat;
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
    println!("{:<22} {:>6}  kernel (one per layer)", "model", "bits");
    let mut models = Vec::new();
    for fmt in formats {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        let emacs = q.make_layer_emacs().expect("low-precision format");
        let key = engine
            .registry()
            .register("iris", q.clone())
            .expect("all sweep formats have EMAC datapaths");
        let rendered: Vec<String> = emacs.iter().map(|u| u.kernel().to_string()).collect();
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
}
