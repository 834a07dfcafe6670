//! Cross-crate consistency: the three independent implementations of
//! "exact dot product then round once" — the quire (dp-posit), the
//! Algorithm-2 EMAC datapath (dp-emac) and the dyadic oracle — must agree,
//! and the DNN-layer plumbing must preserve those semantics.

use deep_positron::NumericFormat;
use dp_emac::{Emac, EmacUnit, FixedEmac, FloatEmac, PositEmac};
use dp_fixed::FixedFormat;
use dp_hw::{emac_netlist, Calib, FormatSpec};
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

/// The pinned capacities with ⌈log2 k⌉ written out: past 2^53 an `f64`
/// rounds k itself (2^63 + 1 reads 2^63).
const GROWTH: [(u64, u32); 10] = [
    (1, 0),
    (2, 1),
    (3, 2),
    (117, 7),
    (128, 7),
    (1024, 10),
    (1 << 20, 20),
    (1 << 63, 63),
    ((1 << 63) + 1, 64),
    (u64::MAX, 64),
];

/// Paper eqs. (3)/(4), each written out once, at `growth = ⌈log2 k⌉`.
fn paper_width(spec: FormatSpec, growth: u32) -> u32 {
    match spec {
        // eq. (3), fixed point: ⌈log2(max/min)⌉ = n − 1.
        FormatSpec::Fixed(f) => growth + 2 * f.n(),
        // eq. (3), minifloat: ⌈log2(max/min)⌉ = 2^we − 2 + wf.
        FormatSpec::Float(f) => growth + 2 * ((1 << f.we()) - 2 + f.wf()) + 2,
        // eq. (4), posit quire.
        FormatSpec::Posit(f) => (1 << (f.es() + 2)) * (f.n() - 2) + 2 + growth,
    }
}

/// The unit's register and the `dp_hw` netlist's accumulator register
/// (its flip-flop count) for `spec` at `k` accumulations.
fn register_widths(spec: FormatSpec, k: u64) -> (u32, u32) {
    let unit = NumericFormat::from(spec).make_emac(k).unwrap();
    let netlist = emac_netlist(spec, k, Calib::default());
    let name = match spec {
        FormatSpec::Posit(_) => "quire_reg",
        _ => "acc_reg",
    };
    let register = netlist
        .stages
        .iter()
        .flat_map(|s| s.path.iter().chain(&s.side))
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("{}: no {name}", netlist.name));
    (unit.accumulator_width(), register.ffs)
}

#[test]
fn emac_accumulator_widths_match_paper_equations() {
    let posit = |n, es| FormatSpec::Posit(PositFormat::new(n, es).unwrap());
    let float = |we, wf| FormatSpec::Float(FloatFormat::new(we, wf).unwrap());
    let fixed = |n, q| FormatSpec::Fixed(FixedFormat::new(n, q).unwrap());
    // Every posit<5..=16, 0..=2>, minifloat (2..=5, 1..=10) and fixed
    // point from 4 to 16 bits (the width ignores q), at every capacity:
    // the unit's register is the equation itself, not a padded superset,
    // dp_hw prices that register, and the quire computes eq. (4)
    // independently.
    let mut specs: Vec<FormatSpec> = (0..=2)
        .flat_map(|es| (5..=16).map(move |n| posit(n, es)))
        .collect();
    specs.extend((2..=5).flat_map(|we| (1..=10).map(move |wf| float(we, wf))));
    specs.extend((4..=16).map(|n| fixed(n, n / 2)));
    for spec in specs {
        for (k, growth) in GROWTH {
            let width = paper_width(spec, growth);
            assert_eq!(register_widths(spec, k), (width, width), "{spec:?} k = {k}");
            if let FormatSpec::Posit(f) = spec {
                assert_eq!(Quire::paper_width(f, k), width as usize, "{f} k = {k}");
            }
        }
    }
    // Worked rows, the paper's headline configuration first: posit<8,0>
    // at k = 128 products holds 2^2·6 + 2 + 7 = 33 bits.
    for (spec, k, width) in [
        (posit(8, 0), 128, 33),
        (posit(16, 1), 128, 121),
        (posit(16, 1), 1024, 8 * 14 + 2 + 10),
        (float(4, 3), 128, 7 + 2 * 17 + 2),
        (fixed(8, 4), 128, 7 + 16),
        // The widest fixed register the i128 readout takes.
        (fixed(32, 16), 1 << 63, 127),
    ] {
        assert_eq!(register_widths(spec, k), (width, width), "{spec:?} k = {k}");
    }
}

#[test]
fn dp_hw_refuses_every_format_the_emac_refuses_for_the_same_reason() {
    let posit = |n, es| FormatSpec::Posit(PositFormat::new(n, es).unwrap());
    let fixed = FormatSpec::Fixed(FixedFormat::new(32, 16).unwrap());
    for (spec, k) in [
        (posit(5, 3), 128),
        (posit(5, 4), 128),
        (posit(6, 4), 1),
        (fixed, (1 << 63) + 1),
        (fixed, u64::MAX),
    ] {
        let refusal = NumericFormat::from(spec).try_make_emac(k).err();
        let reason = refusal.expect("the EMAC refuses").to_string();
        let panic = std::panic::catch_unwind(|| emac_netlist(spec, k, Calib::default()))
            .expect_err("dp_hw refuses");
        assert_eq!(panic.downcast_ref::<String>(), Some(&reason), "{spec:?}");
    }
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
