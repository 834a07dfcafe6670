//! The word path's two rounding steps against the pattern path they
//! replace, per family, over every pattern of each format:
//!
//! * `word_from_f32(v) == align(decode(quantize(v)))` — probed at the `f32`
//!   nearest every value, the midpoints to both neighbours (by value and,
//!   where a posit's regime-only patterns round, by bit pattern), one `f32`
//!   ulp either side of each, and the `f32` edges: ±0, subnormals, ±inf,
//!   NaN, beyond maxpos and below minpos;
//! * `round_word(sum) == align(decode(encode(sum)))` — over the same
//!   values as registers (so exact ties, and ±1 for a sticky bit), values
//!   straddling the `i64` ↔ `i128` boundary, seeded registers of every
//!   length and the saturating extremes, on the `i128` and the `WideInt`
//!   register alike.

use deep_positron::NumericFormat;
use dp_emac::table::align;
use dp_emac::{Accum, Family, Fixed, Float, Posit};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;

/// One format's two paths: the word path, and the pattern path it must
/// equal.
struct Paths {
    fmt: NumericFormat,
    /// `align(decode(bits))`: the word of a pattern.
    word_of: Box<dyn Fn(u32) -> i64>,
    /// `word_from_f32`.
    word_from_f32: Box<dyn Fn(f32) -> i64>,
    /// `encode` of a register.
    encode: Box<dyn Fn(&Accum) -> u32>,
    /// `round_word` of a register.
    round_word: Box<dyn Fn(&Accum) -> i64>,
    /// Register position of the operand unit: a value of `u` units is the
    /// register `u << unit_shift`.
    unit_shift: u32,
}

fn paths<F: Family + 'static>(fmt: F::Format, numeric: NumericFormat) -> Paths {
    let bitfield = F::new(fmt, false);
    let (unit, rounder) = (F::new(fmt, true), F::new(fmt, true));
    Paths {
        fmt: numeric,
        unit_shift: unit.bias_shift(),
        word_of: Box::new(move |bits| align(bitfield.decode(bits))),
        word_from_f32: Box::new(move |v| F::word_from_f32(fmt, v)),
        encode: Box::new(move |acc| unit.encode(acc)),
        round_word: Box::new(move |acc| rounder.round_word(acc)),
    }
}

/// The formats the laws are pinned on.
fn all_paths() -> Vec<Paths> {
    let posit = |n, es| {
        let f = PositFormat::new(n, es).unwrap();
        paths::<Posit>(f, NumericFormat::Posit(f))
    };
    let float = |we, wf| {
        let f = FloatFormat::new(we, wf).unwrap();
        paths::<Float>(f, NumericFormat::Float(f))
    };
    let fixed = |n, q| {
        let f = FixedFormat::new(n, q).unwrap();
        paths::<Fixed>(f, NumericFormat::Fixed(f))
    };
    vec![
        posit(8, 0),
        posit(8, 1),
        posit(8, 2),
        posit(16, 1),
        float(4, 3),
        float(5, 10),
        fixed(8, 6),
        fixed(16, 8),
    ]
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// The `f32` probes of one format: every finite value, the value and bit
/// midpoints between neighbours, one ulp either side of each midpoint, and
/// the `f32` edges around the format's range.
fn f32_probes(fmt: NumericFormat) -> Vec<f32> {
    let mut values: Vec<f32> = (0..1u32 << fmt.n())
        .map(|bits| fmt.to_f64(bits))
        .filter(|v| v.is_finite())
        .map(|v| v as f32)
        .collect();
    values.sort_by(f32::total_cmp);
    values.dedup();
    let mut probes = values.clone();
    for pair in values.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let mut mids = vec![((a as f64 + b as f64) / 2.0) as f32];
        if a.is_sign_negative() == b.is_sign_negative() && a != 0.0 && b != 0.0 {
            let bits = (a.to_bits() as u64 + b.to_bits() as u64) / 2;
            mids.push(f32::from_bits(bits as u32));
        }
        for m in mids {
            probes.extend([
                m,
                f32::from_bits(m.to_bits() - 1),
                f32::from_bits(m.to_bits() + 1),
            ]);
        }
    }
    let (max, min) = (values[values.len() - 1], values[values.len() / 2 + 1]);
    probes.extend([
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        -f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MAX,
        f32::MIN,
        max * 2.0,
        -max * 3.0,
        min / 3.0,
        -min / 2.0,
    ]);
    probes
}

#[test]
fn word_from_f32_is_the_word_of_the_quantised_pattern() {
    for p in all_paths() {
        let probes = f32_probes(p.fmt);
        for &v in &probes {
            let want = (p.word_of)(p.fmt.quantize(v));
            assert_eq!(
                (p.word_from_f32)(v),
                want,
                "{}: {v:e} ({:#x})",
                p.fmt,
                v.to_bits()
            );
        }
        // The unit's slice quantiser appends the same words.
        let unit = p.fmt.make_emac(128).expect("low-precision format");
        let mut words = vec![-7];
        unit.quantize_words(&probes, &mut words);
        assert_eq!(words[0], -7, "{}: appends", p.fmt);
        for (&v, &word) in probes.iter().zip(&words[1..]) {
            assert_eq!(word, (p.word_from_f32)(v), "{}: {v:e}", p.fmt);
        }
    }
}

/// The registers whose readouts are pinned: every probe value as a
/// register — exact, and bracketed by its neighbours when it is not a
/// whole register unit — then the `i64` ↔ `i128` boundary, seeded values
/// of every bit length with arbitrary low bits, and the saturating ends.
fn registers(p: &Paths) -> Vec<i128> {
    let mut out = Vec::new();
    let scale = 2f64.powi(2 * p.unit_shift as i32);
    for v in f32_probes(p.fmt).into_iter().filter(|v| v.is_finite()) {
        let y = v as f64 * scale;
        if y.abs() >= 2f64.powi(120) {
            continue;
        }
        let (lo, hi) = (y.floor() as i128, y.ceil() as i128);
        out.extend([lo - 1, lo, hi, hi + 1]);
    }
    for k in [1i128, 2, 3, 1 << 40] {
        for edge in [1i128 << 63, (1 << 64) - 1] {
            out.extend([edge - k, edge, edge + k].map(|r| [r, -r]).concat());
        }
    }
    let mut next = xorshift(0x0b5e_55ed ^ p.unit_shift as u64);
    for bits in 1..=126 {
        for _ in 0..64 {
            let r = ((next() as u128) << 64 | next() as u128) >> (128 - bits);
            let r = r as i128 | 1 << (bits - 1);
            out.push(if next() & 1 == 0 { r } else { -r });
        }
    }
    out.extend([i128::MAX >> 1, -(i128::MAX >> 1), 1, -1, 0]);
    out
}

#[test]
fn round_word_is_the_word_of_the_encoded_register() {
    for p in all_paths() {
        for r in registers(&p) {
            let small = Accum::Small(r);
            let mut wide = Accum::new_wide(127);
            wide.add_shifted_u128(r.unsigned_abs(), 0, r < 0);
            let want = (p.word_of)((p.encode)(&small));
            assert_eq!((p.round_word)(&small), want, "{}: register {r:#x}", p.fmt);
            assert_eq!(
                (p.round_word)(&wide),
                want,
                "{}: wide register {r:#x}",
                p.fmt
            );
        }
    }
}

#[test]
fn readout_words_match_the_readout_patterns_through_the_sweep() {
    // The same through the units' sweeps: a layer read out as words is the
    // word of that layer read out as patterns, on both bands' shapes.
    use dp_emac::Emac;
    let mut next = xorshift(0x7e57_ab1e);
    for p in all_paths() {
        let mask = u32::MAX >> (32 - p.fmt.n());
        for (rows, fan_in, batch) in [(3usize, 5usize, 1usize), (2, 9, 9), (4, 17, 64)] {
            let mut unit = p
                .fmt
                .make_emac(fan_in as u64)
                .expect("low-precision format");
            let patterns = |n: usize, next: &mut dyn FnMut() -> u64| -> Vec<u32> {
                (0..n).map(|_| next() as u32 & mask).collect()
            };
            let biases = patterns(rows, &mut next);
            let weights = patterns(rows * fan_in, &mut next);
            let acts = patterns(fan_in * batch, &mut next);
            let act_words: Vec<i64> = acts.iter().map(|&b| (p.word_of)(b)).collect();
            let mut bits = vec![0u32; rows * batch];
            unit.dot_layer(&biases, &weights, &acts, &mut bits);
            let mut words = vec![0i64; rows * batch];
            unit.dot_layer(&biases, &weights, &act_words, &mut words);
            let want: Vec<i64> = bits.iter().map(|&b| (p.word_of)(b)).collect();
            assert_eq!(words, want, "{} {rows}x{fan_in}x{batch}", p.fmt);
            let mut readout = vec![0u32; rows * batch];
            unit.dot_layer(&biases, &weights, &act_words, &mut readout);
            assert_eq!(readout, bits, "{} {rows}x{fan_in}x{batch}", p.fmt);
        }
    }
}
