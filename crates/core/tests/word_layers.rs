//! Models of operand words against the pattern path every model ran on
//! before: quantise to patterns, then per layer one `dot_layer` over
//! patterns and ReLU on the hidden ones. Hidden layers are pinned by
//! truncating each model at every layer (readout = layer `i`), at batches
//! of 1 (the lone-column kernel), 2, 7, 8, 9 (around the `f64` lane's
//! group of eight and the integer lanes' quads) and 64 (the benchmark's
//! chunk), on both trios and on posit⟨16,2⟩, whose operands do not align
//! and which keeps the pattern path. The 8-bit posit and minifloat read
//! every sum out through their rounding table on both paths, so they are
//! pinned against `new_reference()` units as well: bit-field decode,
//! `WideInt` register, the family's `encode`.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedLayer, QuantizedMlp};
use dp_emac::{Emac, EmacUnit, FixedEmac, FloatEmac, MacKernel, PositEmac};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;

const BATCHES: [usize; 6] = [1, 2, 7, 8, 9, 64];

fn posit(n: u32, es: u32) -> NumericFormat {
    NumericFormat::Posit(PositFormat::new(n, es).unwrap())
}

fn float(we: u32, wf: u32) -> NumericFormat {
    NumericFormat::Float(FloatFormat::new(we, wf).unwrap())
}

fn fixed(n: u32, q: u32) -> NumericFormat {
    NumericFormat::Fixed(FixedFormat::new(n, q).unwrap())
}

/// Both trios and posit⟨16,2⟩.
fn formats() -> Vec<NumericFormat> {
    vec![
        posit(8, 0),
        float(4, 3),
        fixed(8, 6),
        posit(16, 1),
        float(5, 10),
        fixed(16, 8),
        posit(16, 2),
    ]
}

/// The pattern path, spelled out with public pieces.
fn pattern_forward(q: &QuantizedMlp, xs: &[f32], batch: usize) -> Vec<u32> {
    let mut emacs = q.make_layer_emacs().expect("low-precision format");
    pattern_forward_on(q, &mut emacs, xs, batch)
}

/// A `new_reference()` unit of `fmt` for `k` accumulations.
fn reference_unit(fmt: NumericFormat, k: u64) -> EmacUnit {
    match fmt {
        NumericFormat::Posit(f) => EmacUnit::Posit(PositEmac::new_reference(f, k)),
        NumericFormat::Float(f) => EmacUnit::Float(FloatEmac::new_reference(f, k)),
        NumericFormat::Fixed(f) => EmacUnit::Fixed(FixedEmac::new_reference(f, k)),
        NumericFormat::F32 => unreachable!("no EMAC for the f32 baseline"),
    }
}

/// The pattern path on `new_reference()` units.
fn reference_forward(q: &QuantizedMlp, xs: &[f32], batch: usize) -> Vec<u32> {
    let mut emacs: Vec<EmacUnit> = q
        .layers
        .iter()
        .map(|l| reference_unit(q.format, l.fan_in() as u64))
        .collect();
    pattern_forward_on(q, &mut emacs, xs, batch)
}

/// Whether `q`'s units read out through rounding tables.
fn rounds_by_table(q: &QuantizedMlp) -> bool {
    let emacs = q.make_layer_emacs().expect("low-precision format");
    emacs.iter().any(EmacUnit::rounds_by_table)
}

/// The model's forward pass, checked against the pattern path — and
/// against `new_reference()` units when its units round by table.
fn forward_checked(q: &QuantizedMlp, xs: &[f32], batch: usize, ctx: &str) -> Vec<u32> {
    let out = forward(q, xs, batch);
    assert_eq!(out, pattern_forward(q, xs, batch), "{ctx}");
    if rounds_by_table(q) {
        assert_eq!(out, reference_forward(q, xs, batch), "{ctx}: reference");
    }
    out
}

/// The pattern path on `emacs`, one unit per layer.
fn pattern_forward_on(
    q: &QuantizedMlp,
    emacs: &mut [EmacUnit],
    xs: &[f32],
    batch: usize,
) -> Vec<u32> {
    let mut acts = Vec::new();
    q.format.quantize_into(xs, &mut acts);
    for (li, (layer, unit)) in q.layers.iter().zip(emacs).enumerate() {
        let mut out = vec![0; batch * layer.fan_out()];
        unit.dot_layer(layer.biases(), layer.weights(), &acts, &mut out);
        if li + 1 < q.layers.len() {
            q.format.relu_in_place(&mut out);
        }
        acts = out;
    }
    acts
}

/// The model's own forward pass.
fn forward(q: &QuantizedMlp, xs: &[f32], batch: usize) -> Vec<u32> {
    let mut emacs = q.make_layer_emacs().expect("low-precision format");
    let mut out = vec![0; batch * q.layers[q.layers.len() - 1].fan_out()];
    q.forward_into(&mut emacs, xs, batch, &mut out);
    out
}

/// `q` cut after layer `readout`, which becomes its readout.
fn truncated(q: &QuantizedMlp, readout: usize) -> QuantizedMlp {
    QuantizedMlp {
        format: q.format,
        layers: q.layers[..=readout].to_vec(),
    }
}

/// `batch` samples of `pool`, cycled, one after another.
fn batch_of(pool: &[Vec<f32>], batch: usize) -> Vec<f32> {
    pool.iter().cycle().take(batch).flatten().copied().collect()
}

/// Trained two- and three-layer Iris models, and Mushroom 117-24-2 (the
/// benchmark's topology) on a short schedule, with their test features.
fn models() -> Vec<(Mlp, Vec<Vec<f32>>)> {
    let iris = dp_datasets::iris::load(5).split(50, 5).normalized();
    let mushroom = dp_datasets::mushroom::load(5);
    // 400 training samples: trained-like spans, on a test-sized schedule.
    let mushroom = mushroom.split(mushroom.len() - 400, 5).normalized();
    let trained = |dims: &[usize], data: &dp_datasets::Dataset, epochs| {
        let mut mlp = Mlp::new(dims, 5);
        let cfg = TrainConfig {
            epochs,
            batch_size: 16,
            lr: 0.02,
            seed: 5,
        };
        train(&mut mlp, data, cfg);
        mlp
    };
    vec![
        (
            trained(&[4, 8, 3], &iris.train, 30),
            iris.test.features.clone(),
        ),
        (trained(&[4, 10, 6, 3], &iris.train, 30), iris.test.features),
        (
            trained(&[117, 24, 2], &mushroom.train, 2),
            mushroom.test.features[..200].to_vec(),
        ),
    ]
}

#[test]
fn truncated_models_match_the_pattern_path_at_every_layer() {
    for (mlp, pool) in models() {
        for fmt in formats() {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let words = q
                .make_layer_emacs()
                .unwrap()
                .iter()
                .all(|u| u.takes_words());
            assert_eq!(words, fmt != posit(16, 2), "{fmt}: word path by format");
            for readout in 0..q.layers.len() {
                let cut = truncated(&q, readout);
                for batch in BATCHES {
                    let xs = batch_of(&pool, batch);
                    let ctx = format!("{fmt} {:?} readout {readout} B={batch}", q.dims());
                    forward_checked(&cut, &xs, batch, &ctx);
                }
            }
        }
    }
}

#[test]
fn a_scalar_band_layer_inside_a_model_of_words() {
    // posit<16,1> at K = 8193: a 128-bit register, past the i128, so the
    // first layer runs the scalar band on words (WideInt register) and
    // feeds an aligned layer.
    let fmt = posit(16, 1);
    let mut next = 0x5ca1_ab1e_u64;
    let mut uniform = move || {
        next ^= next << 13;
        next ^= next >> 7;
        next ^= next << 17;
        (next >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
    };
    let fan_in = 8193;
    let weights: Vec<u32> = (0..2 * fan_in)
        .map(|_| fmt.quantize(uniform() / 64.0))
        .collect();
    let q = QuantizedMlp {
        format: fmt,
        layers: vec![
            QuantizedLayer::new(
                fan_in,
                2,
                weights,
                vec![fmt.quantize(0.25), fmt.quantize(-0.5)],
            ),
            QuantizedLayer::new(
                2,
                2,
                (0..4).map(|_| fmt.quantize(uniform())).collect(),
                vec![0, 0],
            ),
        ],
    };
    let emacs = q.make_layer_emacs().unwrap();
    assert_eq!(
        emacs[0].kernel(),
        MacKernel::Scalar,
        "K = 8193 outgrows the i128"
    );
    assert_eq!(emacs[1].kernel(), MacKernel::Aligned);
    assert!(
        emacs.iter().all(|u| u.takes_words()),
        "still a model of words"
    );
    let pool: Vec<Vec<f32>> = (0..9)
        .map(|_| (0..fan_in).map(|_| uniform()).collect())
        .collect();
    for batch in BATCHES {
        let xs = batch_of(&pool, batch);
        for cut in [truncated(&q, 0), q.clone()] {
            let want = pattern_forward(&cut, &xs, batch);
            assert_eq!(
                forward(&cut, &xs, batch),
                want,
                "{} layers B={batch}",
                cut.layers.len()
            );
        }
    }
}

#[test]
fn a_poisoned_hidden_bias_poisons_its_neuron_and_every_readout_it_feeds() {
    let (mlp, pool) = models().swap_remove(0);
    for (fmt, special) in [
        (posit(8, 0), PositFormat::new(8, 0).unwrap().nar_bits()),
        (posit(16, 1), PositFormat::new(16, 1).unwrap().nar_bits()),
        (float(4, 3), FloatFormat::new(4, 3).unwrap().nan_bits()),
        (float(5, 10), FloatFormat::new(5, 10).unwrap().nan_bits()),
    ] {
        let mut q = QuantizedMlp::quantize(&mlp, fmt);
        let clean_hidden = forward(&truncated(&q, 0), &batch_of(&pool, 64), 64);
        q.layers[0].biases_mut()[3] = special;
        let (hidden, classes) = (q.layers[0].fan_out(), q.layers[1].fan_out());
        for batch in BATCHES {
            let xs = batch_of(&pool, batch);
            let cut = truncated(&q, 0);
            let words = forward_checked(&cut, &xs, batch, &format!("{fmt} B={batch}"));
            for (j, row) in words.chunks(hidden).enumerate() {
                for (r, &bits) in row.iter().enumerate() {
                    match r {
                        3 => assert!(fmt.to_f64(bits).is_nan(), "{fmt} B={batch} sample {j}"),
                        _ => assert_eq!(bits, clean_hidden[j * hidden + r], "{fmt} B={batch}"),
                    }
                }
            }
            let readout = forward_checked(&q, &xs, batch, &format!("{fmt} B={batch}"));
            assert_eq!(readout.len(), batch * classes);
            assert!(
                readout.iter().all(|&b| fmt.to_f64(b).is_nan()),
                "{fmt} B={batch}"
            );
        }
    }
}

#[test]
fn nan_and_infinite_inputs_give_the_pattern_path_outputs() {
    let (mlp, pool) = models().swap_remove(1);
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN];
    for fmt in formats() {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        for batch in BATCHES {
            let mut xs = batch_of(&pool, batch);
            for (i, x) in xs.iter_mut().enumerate().step_by(3) {
                *x = specials[i % specials.len()];
            }
            for readout in 0..q.layers.len() {
                let cut = truncated(&q, readout);
                let ctx = format!("{fmt} readout {readout} B={batch}");
                forward_checked(&cut, &xs, batch, &ctx);
            }
        }
    }
}

#[test]
fn rounding_tables_serve_the_8_bit_posit_and_minifloat_only() {
    // The benchmark models' fan-ins: Iris 4-16-3, Mushroom 117-24-2.
    for k in [4u64, 16, 117, 24] {
        for fmt in formats() {
            let by_table = fmt == posit(8, 0) || fmt == float(4, 3);
            let unit = fmt.make_emac(k).unwrap();
            assert_eq!(unit.rounds_by_table(), by_table, "{fmt} K={k}");
            assert!(!reference_unit(fmt, k).rounds_by_table(), "{fmt} K={k}");
        }
    }
}
