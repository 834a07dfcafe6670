//! Cross-crate consistency: the three independent implementations of
//! "exact dot product then round once" — the quire (dp-posit), the
//! Algorithm-2 EMAC datapath (dp-emac) and the dyadic oracle — must agree,
//! and the DNN-layer plumbing must preserve those semantics.

use deep_positron::NumericFormat;
use dp_emac::{Emac, EmacUnit, FixedEmac, FloatEmac, PositEmac};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::exact::exact_dot;
use dp_posit::{PositFormat, Quire};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn posit_emac_quire_and_oracle_agree() {
    let fmt = PositFormat::new(8, 1).unwrap();
    let mut s = 0x1111_2222_3333_4444u64;
    for _ in 0..200 {
        let len = (xorshift(&mut s) % 16 + 1) as usize;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..len {
            let mut a = (xorshift(&mut s) as u32) & fmt.mask();
            let mut b = (xorshift(&mut s) as u32) & fmt.mask();
            if a == fmt.nar_bits() {
                a = 0;
            }
            if b == fmt.nar_bits() {
                b = 0;
            }
            xs.push(a);
            ys.push(b);
        }
        let mut emac = PositEmac::new(fmt, len as u64);
        for (&x, &y) in xs.iter().zip(&ys) {
            emac.mac(x, y);
        }
        let via_emac = emac.result();
        let via_quire = Quire::dot(fmt, &xs, &ys);
        let via_oracle = exact_dot(fmt, &xs, &ys);
        assert_eq!(via_emac, via_quire);
        assert_eq!(via_quire, via_oracle);
    }
}

#[test]
fn numeric_format_quantize_agrees_with_emac_identity() {
    // bias + 1.0 × x through each EMAC equals quantize(bias) ⊕ x exactly
    // when both are representable.
    let cases: Vec<(NumericFormat, EmacUnit)> = vec![
        (
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
            EmacUnit::Posit(PositEmac::new(PositFormat::new(8, 0).unwrap(), 1)),
        ),
        (
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            EmacUnit::Float(FloatEmac::new(FloatFormat::new(4, 3).unwrap(), 1)),
        ),
        (
            NumericFormat::Fixed(FixedFormat::new(8, 4).unwrap()),
            EmacUnit::Fixed(FixedEmac::new(FixedFormat::new(8, 4).unwrap(), 1)),
        ),
    ];
    for (fmt, mut emac) in cases {
        for (bias, x) in [(0.5f32, 0.25f32), (-1.0, 0.75), (1.5, -0.5), (0.0, 0.0)] {
            let one = fmt.quantize(1.0);
            emac.set_bias(fmt.quantize(bias));
            emac.mac(one, fmt.quantize(x));
            let got = fmt.to_f64(emac.result());
            assert_eq!(got, (bias + x) as f64, "{fmt}: {bias} + {x}");
        }
    }
}

#[test]
fn emac_accumulator_widths_match_paper_equations() {
    // eq. (3) for fixed: wa = ceil(log2 k) + 2n
    assert_eq!(
        FixedEmac::accumulator_width_for(FixedFormat::new(8, 4).unwrap(), 128),
        7 + 16
    );
    // eq. (3) for float: wa = ceil(log2 k) + 2(2^we − 2 + wf) + 2
    assert_eq!(
        FloatEmac::accumulator_width_for(FloatFormat::new(4, 3).unwrap(), 128),
        7 + 2 * 17 + 2
    );
    // eq. (4) for posit: qsize = 2^(es+2)(n−2) + 2 + ceil(log2 k)
    assert_eq!(
        PositEmac::paper_qsize(PositFormat::new(8, 0).unwrap(), 128),
        4 * 6 + 2 + 7
    );
    assert_eq!(
        PositEmac::paper_qsize(PositFormat::new(16, 1).unwrap(), 1024),
        8 * 14 + 2 + 10
    );
    // The unit's register is eq. (4) itself, not a padded superset, and
    // the quire module computes the same widths independently.
    for (n, es, k) in [(8u32, 0u32, 128u64), (8, 2, 32), (16, 1, 128), (16, 2, 117)] {
        let fmt = PositFormat::new(n, es).unwrap();
        let qsize = PositEmac::paper_qsize(fmt, k);
        assert_eq!(PositEmac::accumulator_width_for(fmt, k), qsize, "{fmt}");
        assert_eq!(PositEmac::new(fmt, k).accumulator_width(), qsize, "{fmt}");
        assert_eq!(Quire::paper_width(fmt, k), qsize as usize, "{fmt}");
    }
    let p16 = PositEmac::new(PositFormat::new(16, 1).unwrap(), 128);
    assert_eq!(p16.accumulator_width(), 121);
}

#[test]
fn float_emac_matches_independent_f64_reference() {
    // For e4m3 inputs, products and short sums are exactly representable
    // in f64, so a plain f64 accumulation rounded once is a valid
    // independent reference.
    let fmt = FloatFormat::new(4, 3).unwrap();
    let mut s = 0xaaaa_bbbb_cccc_ddddu64;
    for _ in 0..300 {
        let len = (xorshift(&mut s) % 12 + 1) as usize;
        let mut emac = FloatEmac::new(fmt, len as u64);
        let mut reference = 0f64;
        for _ in 0..len {
            let a = (xorshift(&mut s) as u32) & fmt.mask();
            let b = (xorshift(&mut s) as u32) & fmt.mask();
            let (va, vb) = (
                dp_minifloat::convert::to_f64(fmt, a),
                dp_minifloat::convert::to_f64(fmt, b),
            );
            if !va.is_finite() || !vb.is_finite() {
                continue;
            }
            emac.mac(a, b);
            reference += va * vb; // exact in f64 for these magnitudes
        }
        let got = dp_minifloat::convert::to_f64(fmt, emac.result());
        let want = dp_minifloat::convert::to_f64(
            fmt,
            dp_minifloat::convert::from_f64_saturating(fmt, reference),
        );
        let matches = got == want || (got == 0.0 && want == 0.0);
        assert!(matches, "emac {got} vs reference {want}");
    }
}

#[test]
fn quantized_network_layers_use_emac_semantics() {
    // A hand-built one-layer network must produce exactly
    // round(bias + Σ wᵢxᵢ) per neuron, which we check against the quire.
    use deep_positron::{Mlp, QuantizedMlp};
    let fmt = PositFormat::new(8, 0).unwrap();
    let nf = NumericFormat::Posit(fmt);
    let mut mlp = Mlp::new(&[3, 2], 9);
    let w = [[0.5f32, -0.25, 1.0], [0.125, 0.75, -0.5]];
    for (j, row) in w.iter().enumerate() {
        for (i, &v) in row.iter().enumerate() {
            mlp.layers[0].w.set(j, i, v);
        }
        mlp.layers[0].b[j] = 0.25 * (j as f32 + 1.0);
    }
    let q = QuantizedMlp::quantize(&mlp, nf);
    let x = [0.5f32, 0.25, 0.75];
    let out = q.forward_bits(&x);
    for j in 0..2 {
        let mut quire = Quire::new(fmt, 3);
        quire.add_posit(nf.quantize(mlp.layers[0].b[j]));
        for i in 0..3 {
            quire.add_product(nf.quantize(w[j][i]), nf.quantize(x[i]));
        }
        assert_eq!(out[j], quire.to_posit(), "neuron {j}");
    }
}
