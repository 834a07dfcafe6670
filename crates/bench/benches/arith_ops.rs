//! Micro-benchmarks of the software arithmetic substrates: posit vs
//! minifloat vs fixed vs native f32 add/mul throughput, and the two `f32`
//! slice quantisers of the six trio formats over 128 features, per
//! element: `*_quantize_words_f32x128` is one `EmacUnit::quantize_words`
//! call — the forward pass's first stage, straight to operand words (one
//! table read for posit8e0 and float8e4m3) — and `*_quantize_f32x128` one
//! [`NumericFormat::quantize_into`] call, the pattern quantiser that
//! quantises a model's weights and the pattern paths' inputs.
//!
//! Run with `cargo bench --bench arith_ops`. Writes the committed baseline
//! `BENCH_arith_ops.json` at the repository root (`results/smoke/` under
//! `--smoke`).

use deep_positron::NumericFormat;
use dp_bench::timing::{measure, out_path, render_measurements, write_json, Measurement};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use std::hint::black_box;

const N: usize = 256;

fn operand_patterns(mask: u32, nar: u32) -> Vec<(u32, u32)> {
    let mut s = 0x0123_4567_89ab_cdefu64;
    (0..N)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let a = (s as u32) & mask;
            let b = ((s >> 32) as u32) & mask;
            (if a == nar { 0 } else { a }, if b == nar { 0 } else { b })
        })
        .collect()
}

fn main() {
    let mut rows: Vec<Measurement> = Vec::new();

    let p8 = PositFormat::new(8, 1).unwrap();
    let ops_p = operand_patterns(p8.mask(), p8.nar_bits());
    rows.push(measure("posit8_mul", N as u64, || {
        let mut acc = 0u32;
        for &(x, y) in &ops_p {
            acc ^= dp_posit::ops::mul(p8, black_box(x), black_box(y));
        }
        acc
    }));
    rows.push(measure("posit8_add", N as u64, || {
        let mut acc = 0u32;
        for &(x, y) in &ops_p {
            acc ^= dp_posit::ops::add(p8, black_box(x), black_box(y));
        }
        acc
    }));

    let p16 = PositFormat::new(16, 1).unwrap();
    let ops_p16 = operand_patterns(p16.mask(), p16.nar_bits());
    rows.push(measure("posit16_mul", N as u64, || {
        let mut acc = 0u32;
        for &(x, y) in &ops_p16 {
            acc ^= dp_posit::ops::mul(p16, black_box(x), black_box(y));
        }
        acc
    }));
    rows.push(measure("posit16_add", N as u64, || {
        let mut acc = 0u32;
        for &(x, y) in &ops_p16 {
            acc ^= dp_posit::ops::add(p16, black_box(x), black_box(y));
        }
        acc
    }));

    let e4m3 = FloatFormat::new(4, 3).unwrap();
    let ops_f = operand_patterns(e4m3.mask(), e4m3.nan_bits());
    rows.push(measure("minifloat8_mul", N as u64, || {
        let mut acc = 0u32;
        for &(x, y) in &ops_f {
            acc ^= dp_minifloat::ops::mul(e4m3, black_box(x), black_box(y));
        }
        acc
    }));

    let f16 = FloatFormat::new(5, 10).unwrap();
    let ops_f16 = operand_patterns(f16.mask(), f16.nan_bits());
    rows.push(measure("minifloat16_mul", N as u64, || {
        let mut acc = 0u32;
        for &(x, y) in &ops_f16 {
            acc ^= dp_minifloat::ops::mul(f16, black_box(x), black_box(y));
        }
        acc
    }));

    // The truncating multiply of paper Fig. 3, which the per-op ablation
    // (`NumericFormat::mul_bits`) runs.
    let q84 = FixedFormat::new(8, 4).unwrap();
    rows.push(measure("fixed8_mul", N as u64, || {
        let mut acc = 0i64;
        for &(x, y) in &ops_p {
            let (xa, ya) = (x as i64 - 128, y as i64 - 128);
            acc ^= q84.mul_truncate(black_box(xa), black_box(ya));
        }
        acc
    }));

    let q168 = FixedFormat::new(16, 8).unwrap();
    rows.push(measure("fixed16_mul", N as u64, || {
        let mut acc = 0i64;
        for &(x, y) in &ops_p16 {
            let (xa, ya) = (x as i64 - 32768, y as i64 - 32768);
            acc ^= q168.mul_truncate(black_box(xa), black_box(ya));
        }
        acc
    }));

    let vals: Vec<(f32, f32)> = ops_p
        .iter()
        .map(|&(a, b)| (a as f32 / 64.0 - 1.5, b as f32 / 64.0 - 1.5))
        .collect();
    rows.push(measure("native_f32_mul", N as u64, || {
        let mut acc = 0f32;
        for &(x, y) in &vals {
            acc += black_box(x) * black_box(y);
        }
        acc
    }));

    // Normalised-feature-like inputs: mostly inside every trio format's
    // range, some beyond fixed point's (so the clamp runs), zeros included.
    let features: Vec<f32> = (0..128).map(|i| (i as f32 - 60.0) / 24.0).collect();
    let trio = [
        (
            "posit8e0",
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        ),
        ("float8e4m3", NumericFormat::Float(e4m3)),
        (
            "fixed8q6",
            NumericFormat::Fixed(FixedFormat::new(8, 6).unwrap()),
        ),
        ("posit16e1", NumericFormat::Posit(p16)),
        ("float16e5m10", NumericFormat::Float(f16)),
        ("fixed16q8", NumericFormat::Fixed(q168)),
    ];
    let mut bits = Vec::with_capacity(features.len());
    for (label, fmt) in trio {
        let name = format!("{label}_quantize_f32x128");
        rows.push(measure(&name, features.len() as u64, || {
            bits.clear();
            fmt.quantize_into(black_box(&features), &mut bits);
            bits[0]
        }));
    }
    let mut words = Vec::with_capacity(features.len());
    for (label, fmt) in trio {
        // A unit sized for Mushroom's first layer (fan-in 117).
        let unit = fmt.make_emac(117).expect("the trio has EMACs");
        let name = format!("{label}_quantize_words_f32x128");
        rows.push(measure(&name, features.len() as u64, || {
            words.clear();
            unit.quantize_words(black_box(&features), &mut words);
            words[0]
        }));
    }

    println!("{}", render_measurements(&rows));

    let path = out_path("arith_ops");
    let meta = [
        ("bench", "arith_ops".to_string()),
        ("command", "cargo bench --bench arith_ops".to_string()),
        ("n", N.to_string()),
        (
            "note",
            "elems = scalar add/mul operations; *_quantize_f32x128 rows: elems = f32 values \
             quantised by one NumericFormat::quantize_into call; *_quantize_words_f32x128 \
             rows: by one EmacUnit::quantize_words call"
                .to_string(),
        ),
    ];
    write_json(&path, &meta, &rows).expect("write BENCH_arith_ops.json");
    println!("\nwrote {}", path.display());
}
