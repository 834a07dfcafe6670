//! The `f32` sum lane against the reference datapath. Trained-like layers
//! of the static-`f64` units the lane serves (the 8-bit trio and
//! fixed⟨16,8⟩) run at the Mushroom first layer's fan-in, K = 117, at
//! batch widths that leave the lane's 16-column groups full, short or
//! lone: B ∈ {2, 8, 9, 16, 17, 64}. Bell-shaped weights against a
//! one-hot-like tile (zeros and ones, as Mushroom's inputs) must be
//! admitted by [`SumLane::span_bound`] at ≤ 24 bits; the same weights
//! against a tile holding the format's largest and smallest magnitudes
//! must not, where the format's range allows. A special sits in the last column when the last group is
//! short. Every output must equal `new_reference()`.

use dp_emac::{Emac, EmacEntry, Family, Fixed, Float, Posit, SumLane, TableEmac};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// One layer of `rows` through `dot_layer` against the reference unit's
/// `set_bias → mac × K → result`, output by output.
fn layer_vs_reference<E: Emac>(unit: &mut E, reference: &mut E, layer: [&[u32]; 3], ctx: &str) {
    let [biases, weights, acts] = layer;
    let (rows, k) = (biases.len(), weights.len() / biases.len());
    let mut out = vec![0u32; rows * acts.len() / k];
    unit.dot_layer(biases, weights, acts, &mut out);
    for (j, col) in acts.chunks(k).enumerate() {
        for (r, &bias) in biases.iter().enumerate() {
            reference.set_bias(bias);
            for (&w, &a) in weights[r * k..][..k].iter().zip(col) {
                reference.mac(w, a);
            }
            let want = reference.result();
            assert_eq!(out[j * rows + r], want, "{ctx} row {r} column {j}");
        }
    }
}

/// The layers above for one format: `quantize` maps an `f32` to a pattern,
/// `(big, small)` are its largest and smallest magnitudes and `special`
/// its special pattern, if it has one.
fn one_hot_layers<F: Family>(
    fmt: F::Format,
    quantize: impl Fn(f32) -> u32,
    (big, small, special): (u32, u32, Option<u32>),
) {
    let name = fmt.to_string();
    let decoder = F::new(fmt, false);
    let magnitude = |b: u32| {
        let e: EmacEntry = decoder.decode(b);
        e.field() << e.scale()
    };
    let or = |bits: &[u32]| bits.iter().fold(0, |m, &b| m | magnitude(b));
    let mut next = xorshift(0x0f32_1a7e ^ big as u64);
    let mut bell = || {
        let r = next();
        let sum: i32 = (0..4).map(|i| ((r >> (8 * i)) & 0xff) as i32).sum();
        quantize((sum - 510) as f32 * 2f32.powi(-9))
    };
    let k = 117;
    let mut unit = TableEmac::<F>::new(fmt, k as u64);
    assert!(
        unit.accumulator_width() <= 53,
        "{name}: not a static-f64 unit"
    );
    let mut reference = TableEmac::<F>::new_reference(fmt, k as u64);
    let mut pick = xorshift(0x0ae_0001);
    for b in [2usize, 8, 9, 16, 17, 64] {
        let biases: Vec<u32> = (0..3).map(|_| bell()).collect();
        let weights: Vec<u32> = (0..3 * k).map(|_| bell()).collect();
        let mut acts: Vec<u32> = (0..b * k)
            .map(|_| quantize(pick().is_multiple_of(5) as u32 as f32))
            .collect();
        if let Some(special) = special.filter(|_| b % 16 != 0) {
            acts[(b - 1) * k + k / 4] = special;
        }
        let ctx = format!("{name} K={k} B={b}");
        for r in 0..3 {
            let bound = SumLane::span_bound(or(&weights[r * k..][..k]), or(&acts), k);
            assert!(bound <= 24, "{ctx}: row {r} needs {bound} bits");
        }
        layer_vs_reference(&mut unit, &mut reference, [&biases, &weights, &acts], &ctx);
        (acts[k / 2], acts[k / 3]) = (big, small);
        // fixed<8,6>'s whole range spans 6 bits, so its pairs always pass.
        let (bound, extremes) = (or(&acts), or(&[big, small]));
        let bound = SumLane::span_bound(or(&weights[..k]), bound, k);
        let widest = SumLane::span_bound(extremes, extremes, k);
        assert!(
            bound > 24 || widest <= 24,
            "{ctx}: a full-span tile passes at {bound} bits"
        );
        layer_vs_reference(&mut unit, &mut reference, [&biases, &weights, &acts], &ctx);
    }
}

#[test]
fn one_hot_layers_sum_in_f32_bit_identically() {
    let fmt = PositFormat::new(8, 0).unwrap();
    let extremes = (fmt.maxpos_bits(), fmt.minpos_bits(), Some(fmt.nar_bits()));
    one_hot_layers::<Posit>(fmt, |v| dp_posit::convert::from_f32(fmt, v), extremes);
    let fmt = FloatFormat::new(4, 3).unwrap();
    // Pattern 1 is the smallest subnormal.
    let extremes = (fmt.max_bits(false), 1, Some(fmt.nan_bits()));
    let quantize = |v| dp_minifloat::convert::from_f32_saturating(fmt, v);
    one_hot_layers::<Float>(fmt, quantize, extremes);
    for (n, q) in [(8, 6), (16, 8)] {
        let fmt = FixedFormat::new(n, q).unwrap();
        let mask = u32::MAX >> (32 - n);
        let quantize = |v| fmt.from_f32(v) as u32 & mask;
        one_hot_layers::<Fixed>(fmt, quantize, (mask >> 1, 1, None));
    }
}
