//! The posit register is paper eq. (4) exactly: operands are carried in
//! units of minpos, the register LSB weighs minpos², and nothing sits
//! below it.
//!
//! * **Operand unit** — every pattern of every tabulated format
//!   (n ≤ 12, es ≤ 2) and all 2^16 patterns of posit⟨16, 0..2⟩ decode to
//!   an integer count of minpos equal to the pattern's value, at most
//!   `2·max_scale + 1` bits long.
//! * **Register width** — `accumulator_width_for` and the unit's register
//!   equal eq. (4) over the §IV sweep, which puts posit⟨16,1⟩ at k = 128
//!   in a 121-bit register on the aligned band.
//! * **Tightest sums** — posit⟨16,1⟩ layers of K = 117 against
//!   [`dp_posit::Quire`], an accumulator that shares nothing with
//!   [`dp_emac::Family`], including rows of K = capacity × (±maxpos)²
//!   under a ±maxpos bias (at K = 117 and at the slack-free K = 128): the
//!   largest magnitude the exact register (and the aligned band's
//!   debug-build bound check) must hold. posit⟨16,2⟩ and ⟨10,2⟩ — whose
//!   operands are past the aligned word, so nothing but the reference
//!   band evaluates them — run the same layers against the same quire.
//!
//! The same widths for the `dp_hw` netlist are pinned in the workspace's
//! `tests/cross_crate.rs`.

use dp_emac::{Emac, Family, MacKernel, Posit, PositEmac};
use dp_posit::convert::to_f64;
use dp_posit::{PositFormat, Quire};

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Checks every pattern's operand, from the table/split decode and from
/// the bit-field decode of `new_reference()` units.
fn operands_count_minpos(fmt: PositFormat) {
    let max_scale = fmt.max_scale();
    for family in [Posit::new(fmt, true), Posit::new(fmt, false)] {
        for bits in fmt.patterns() {
            let e = family.decode(bits);
            if bits == fmt.nar_bits() {
                assert!(e.is_special(), "{fmt} {bits:#x}");
                continue;
            }
            // field has at most n − 2 − es significant bits, so the f64
            // product with a power of two is exact.
            let magnitude = e.field() as f64 * 2f64.powi(e.scale() as i32 - max_scale);
            let value = if e.sign() { -magnitude } else { magnitude };
            assert_eq!(value, to_f64(fmt, bits), "{fmt} {bits:#x}");
            let operand_bits = match e.field() {
                0 => 0,
                field => 64 - field.leading_zeros() + e.scale(),
            };
            assert!(
                operand_bits <= 2 * max_scale as u32 + 1,
                "{fmt} {bits:#x}: {operand_bits}-bit operand"
            );
        }
    }
    // minpos counts 1; maxpos = 2^(2·max_scale) minpos fills the bound.
    let count = |bits| {
        let e = Posit::new(fmt, true).decode(bits);
        (e.field() as u128) << e.scale()
    };
    assert_eq!(count(fmt.minpos_bits()), 1, "{fmt}");
    assert_eq!(count(fmt.maxpos_bits()), 1 << (2 * max_scale), "{fmt}");
}

#[test]
fn every_operand_is_an_integer_multiple_of_minpos() {
    for es in 0..=2u32 {
        for n in es + 3..=12 {
            operands_count_minpos(PositFormat::new(n, es).unwrap());
        }
        operands_count_minpos(PositFormat::new(16, es).unwrap());
    }
}

#[test]
fn register_width_is_paper_eq4_exactly() {
    for es in 0..=2u32 {
        for n in 5..=16u32 {
            let fmt = PositFormat::new(n, es).unwrap();
            let log2 = |k: u64| (k as f64).log2().ceil() as u32;
            // Past 2^53 an f64 rounds k itself (2^63 + 1 reads 2^63), so
            // the last three growths are written out.
            for (k, growth) in [1u64, 2, 3, 117, 128, 1024, 1 << 20]
                .map(|k| (k, log2(k)))
                .into_iter()
                .chain([(1 << 63, 63), ((1 << 63) + 1, 64), (u64::MAX, 64)])
            {
                let eq4 = (1 << (es + 2)) * (n - 2) + 2 + growth;
                assert_eq!(Posit::accumulator_width_for(fmt, k), eq4, "{fmt} k = {k}");
                assert_eq!(PositEmac::new(fmt, k).accumulator_width(), eq4, "{fmt}");
                assert_eq!(Quire::paper_width(fmt, k), eq4 as usize, "{fmt} k = {k}");
            }
        }
    }
    let p16 = PositEmac::new(PositFormat::new(16, 1).unwrap(), 128);
    assert_eq!(p16.accumulator_width(), 121);
    assert_eq!(p16.kernel(), MacKernel::Aligned);
}

/// One layer through `dot_layer`, every output against a fresh quire.
fn layer_vs_quire(
    unit: &mut PositEmac,
    biases: &[u32],
    weights: &[u32],
    activations: &[u32],
    batch: usize,
) {
    let fmt = unit.format();
    let rows = biases.len();
    let k = weights.len() / rows;
    let mut out = vec![0u32; rows * batch];
    unit.dot_layer(biases, weights, activations, &mut out);
    for j in 0..batch {
        for (r, &bias) in biases.iter().enumerate() {
            let mut quire = Quire::new(fmt, k as u64);
            quire.add_posit(bias);
            for (&w, &a) in weights[r * k..(r + 1) * k]
                .iter()
                .zip(&activations[j * k..(j + 1) * k])
            {
                quire.add_product(w, a);
            }
            assert_eq!(
                out[j * rows + r],
                quire.to_posit(),
                "{fmt} B = {batch}, row {r}, column {j}"
            );
        }
    }
}

/// Layers of `fmt` against the quire at K = 117 (random rows, then the
/// extremes) and at the slack-free K = 128, on the band and register
/// width the format is expected to run.
fn layers_match_the_quire(fmt: PositFormat, kernel: MacKernel, width: u32) {
    const K: usize = 117;
    let mut unit = PositEmac::new(fmt, K as u64);
    assert_eq!(
        (unit.kernel(), unit.accumulator_width()),
        (kernel, width),
        "{fmt}"
    );
    let (max, min) = (fmt.maxpos_bits(), fmt.minpos_bits());
    let neg = |bits| dp_posit::ops::neg(fmt, bits);
    let mut next = xorshift(0x9051_7e61_57e4_0eb1);
    let mut random = |len: usize| -> Vec<u32> {
        (0..len)
            .map(|_| match (next() as u32) & fmt.mask() {
                bits if bits == fmt.nar_bits() => 0,
                bits => bits,
            })
            .collect()
    };
    for batch in [1usize, 4, 64] {
        // Random rows, then the extremes: all +maxpos², all −maxpos²,
        // alternating, and minpos² under the largest bias.
        let mut weights = random(4 * K);
        let mut biases = random(4);
        for (row, bias) in [
            (vec![max; K], max),
            (vec![neg(max); K], neg(max)),
            ((0..K).map(|i| [max, neg(max)][i % 2]).collect(), max),
            (vec![min; K], neg(max)),
        ] {
            weights.extend(row);
            biases.push(bias);
        }
        let mut activations = random(batch * K);
        // Column 0 makes every product of the extreme rows ±maxpos²; the
        // last column (when there is more than one) pairs them with
        // minpos.
        activations[..K].fill(max);
        if batch > 1 {
            activations[(batch - 1) * K..].fill(min);
        }
        layer_vs_quire(&mut unit, &biases, &weights, &activations, batch);
        assert_eq!(unit.macs_done(), (K * batch) as u64);
    }
    // A power-of-two capacity leaves no slack at all: 128 × maxpos² is
    // the register's top magnitude bit, and the bias adds below it.
    let mut full = PositEmac::new(fmt, 128);
    assert_eq!(full.accumulator_width(), width, "{fmt}");
    let rows = [vec![max; 128], vec![neg(max); 128]].concat();
    for batch in [1usize, 4] {
        let mut activations = vec![max; batch * 128];
        activations[(batch - 1) * 128..].fill(neg(max));
        layer_vs_quire(&mut full, &[max, neg(max)], &rows, &activations, batch);
        layer_vs_quire(&mut full, &[neg(max), max], &rows, &activations, batch);
    }
    // The sums really are the extremes: they saturate.
    let mut out = [0u32; 2];
    full.dot_layer(&[max, neg(max)], &rows, &[max; 128], &mut out);
    assert_eq!(out, [max, neg(max)], "{fmt}");
}

#[test]
fn posit16e1_layers_match_the_quire_at_the_register_bound() {
    // ⌈log2 117⌉ = ⌈log2 128⌉ = 7, so both capacities share a width.
    let fmt = |n, es| PositFormat::new(n, es).unwrap();
    layers_match_the_quire(fmt(16, 1), MacKernel::Aligned, 121);
    layers_match_the_quire(fmt(16, 2), MacKernel::Scalar, 233);
    layers_match_the_quire(fmt(10, 2), MacKernel::Scalar, 137);
}
