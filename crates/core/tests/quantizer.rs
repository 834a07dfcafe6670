//! The `f32` slice quantisers against their oracle: each family's
//! `from_f32` must equal its general `from_f64` path on `v as f64` for
//! every `v` — probed at every representable value of the format, every
//! midpoint between neighbours (where rounding decides), each ± 2 ulp in
//! `f32`, the `f32` edge values, and seeded random bit patterns — and the
//! EMAC units' word quantiser against `Family::word_from_f32` on the same
//! probes, by table for the ≤ 8-bit posits and minifloats.

use deep_positron::NumericFormat;
use dp_emac::{Family, Fixed, Float, Posit, TableEmac};
use dp_fixed::FixedFormat;
use dp_hw::paper_grid;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;

/// Random bit patterns per family, shared out over its formats.
const RANDOM_PROBES: usize = 1 << 20;

/// The §IV 5–8-bit grid plus the formats the issue singles out: the
/// 16-bit trio, posit⟨8,2⟩ (in the grid), posit⟨32,2⟩ (regimes up to 31
/// bits, 27 fraction bits — more than an `f32` carries) and float⟨8,7⟩
/// (an `f32` subnormal is a representable subnormal).
fn formats() -> Vec<NumericFormat> {
    let mut all: Vec<NumericFormat> = (5..=8)
        .flat_map(paper_grid)
        .map(NumericFormat::from)
        .collect();
    all.extend([
        NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
        NumericFormat::Posit(PositFormat::new(32, 2).unwrap()),
        NumericFormat::Float(FloatFormat::new(5, 10).unwrap()),
        NumericFormat::Float(FloatFormat::new(8, 7).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(16, 8).unwrap()),
    ]);
    all
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

/// Every probe of one format, as `f32`s.
fn probes(fmt: NumericFormat, random: usize) -> Vec<f32> {
    // The format's values in order: all of them up to 16 bits, a strided
    // sample beyond (posit⟨32,2⟩).
    let patterns = 1u64 << fmt.n();
    let stride = (patterns >> 16).max(1) | 1;
    let mut values: Vec<f64> = (0..patterns)
        .step_by(stride as usize)
        .map(|bits| fmt.to_f64(bits as u32))
        .filter(|v| v.is_finite())
        .collect();
    values.sort_by(f64::total_cmp);
    let midpoints: Vec<f64> = values.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    let mut centres: Vec<f32> = values.iter().chain(&midpoints).map(|&v| v as f32).collect();
    centres.extend([
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
    ]);
    let mut out = Vec::with_capacity(centres.len() * 5 + random);
    for c in centres {
        for step in -2i32..=2 {
            out.push(f32::from_bits(c.to_bits().wrapping_add(step as u32)));
        }
    }
    let mut next = xorshift(0x5eed_0000 ^ ((fmt.n() as u64) << 32) ^ patterns);
    out.extend((0..random).map(|_| f32::from_bits(next() as u32)));
    out
}

/// Runs `check` over the probes of every format `pick` selects.
fn for_each_probe<F: Copy>(
    pick: impl Fn(NumericFormat) -> Option<F>,
    check: impl Fn(F, f32) -> bool,
) {
    let picked: Vec<(NumericFormat, F)> = formats()
        .into_iter()
        .filter_map(|fmt| pick(fmt).map(|f| (fmt, f)))
        .collect();
    assert!(picked.len() >= 5, "the grid lost a family");
    for &(fmt, f) in &picked {
        for v in probes(fmt, RANDOM_PROBES / picked.len()) {
            assert!(check(f, v), "{fmt}: {v:e} ({:#010x})", v.to_bits());
        }
    }
}

#[test]
fn posit_from_f32_equals_from_f64() {
    use dp_posit::convert::{from_f32, from_f64};
    for_each_probe(
        |fmt| match fmt {
            NumericFormat::Posit(f) => Some(f),
            _ => None,
        },
        |f, v| from_f32(f, v) == from_f64(f, v as f64),
    );
}

#[test]
fn minifloat_from_f32_equals_from_f64() {
    use dp_minifloat::convert::{from_f32_saturating, from_f64_saturating};
    for_each_probe(
        |fmt| match fmt {
            NumericFormat::Float(f) => Some(f),
            _ => None,
        },
        |f, v| from_f32_saturating(f, v) == from_f64_saturating(f, v as f64),
    );
    // The case a flush-to-zero shortcut gets wrong: an `f32` subnormal is
    // a bfloat-like target's subnormal.
    let bf16 = FloatFormat::new(8, 7).unwrap();
    assert_eq!(from_f32_saturating(bf16, f32::from_bits(0x0001_0000)), 1);
    assert_eq!(from_f32_saturating(bf16, f32::from_bits(0x007f_ffff)), 0x80);
}

#[test]
fn fixed_from_f32_equals_from_f64() {
    for_each_probe(
        |fmt| match fmt {
            NumericFormat::Fixed(f) => Some(f),
            _ => None,
        },
        |f, v| f.from_f32(v) == f.from_f64(v as f64),
    );
}

#[test]
fn quantize_into_equals_quantize_per_element() {
    let mut all = formats();
    all.push(NumericFormat::F32);
    for fmt in all {
        let xs = probes(fmt, 4096);
        let mut bits = vec![0xdead_beef];
        fmt.quantize_into(&xs, &mut bits);
        assert_eq!(bits.len(), xs.len() + 1, "{fmt}: appends");
        assert_eq!(bits[0], 0xdead_beef, "{fmt}: appends");
        for (&v, &b) in xs.iter().zip(&bits[1..]) {
            assert_eq!(b, fmt.quantize(v), "{fmt}: {v:e}");
            assert_eq!(b & !(u32::MAX >> (32 - fmt.n())), 0, "{fmt}: {v:e}");
        }
    }
}

#[test]
fn quantize_words_reads_a_table_for_the_8_bit_posits_and_minifloats_only() {
    fn check<F: Family>(fmt: F::Format, numeric: NumericFormat) {
        let by_table = numeric.n() <= 8 && !matches!(numeric, NumericFormat::Fixed(_));
        let unit = TableEmac::<F>::new(fmt, 117);
        assert_eq!(unit.quantizes_by_table(), by_table, "{numeric}");
        let reference = TableEmac::<F>::new_reference(fmt, 117);
        assert!(!reference.quantizes_by_table(), "{numeric}: reference unit");
        if !unit.takes_words() {
            return;
        }
        let xs = probes(numeric, 4096);
        let mut words = vec![-7];
        unit.quantize_words(&xs, &mut words);
        assert_eq!(words.len(), xs.len() + 1, "{numeric}: appends");
        for (&v, &word) in xs.iter().zip(&words[1..]) {
            let bits = v.to_bits();
            assert_eq!(
                word,
                F::word_from_f32(fmt, v),
                "{numeric}: {v:e} ({bits:#010x})"
            );
        }
    }
    for fmt in formats() {
        match fmt {
            NumericFormat::Posit(f) => check::<Posit>(f, fmt),
            NumericFormat::Float(f) => check::<Float>(f, fmt),
            NumericFormat::Fixed(f) => check::<Fixed>(f, fmt),
            NumericFormat::F32 => unreachable!("no EMAC"),
        }
    }
}
