//! EMAC datapath netlist builders, mirroring paper Figs. 3–5 stage by stage.
//!
//! Design notes shared by all three units:
//!
//! * The streaming stages (decode → multiply → shift → accumulate) run at
//!   the initiation interval of one MAC per cycle; they set Fmax.
//! * The readout (normalize/round/encode) fires once per dot product and is
//!   treated as a multi-cycle path, the standard closure technique — so it
//!   contributes area/energy and drain latency but not Fmax.
//! * Register widths (eq. (3) for fixed/float, eq. (4) for the posit
//!   quire), the datapath rule and the pipeline depth are the priced
//!   unit's [`dp_emac::Family`]'s: a format its `check_format` refuses
//!   panics here too, with the same reason, in every build.

use crate::calib::Calib;
use crate::component::Component;
use crate::netlist::{Netlist, Stage};
use dp_emac::{Family as _, Fixed, Float, Posit};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;

/// A numerical format an EMAC can be instantiated for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FormatSpec {
    /// Q(n−q).q fixed point.
    Fixed(FixedFormat),
    /// (1, we, wf) minifloat.
    Float(FloatFormat),
    /// (n, es) posit.
    Posit(PositFormat),
}

/// Format family, for grouping sweep results (paper figure series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Fixed-point EMACs.
    Fixed,
    /// Floating-point EMACs.
    Float,
    /// Posit EMACs.
    Posit,
}

impl FormatSpec {
    /// Total bit width of the format.
    pub fn n(&self) -> u32 {
        match self {
            FormatSpec::Fixed(f) => f.n(),
            FormatSpec::Float(f) => f.n(),
            FormatSpec::Posit(f) => f.n(),
        }
    }

    /// Dynamic range in decades (paper §IV-A: `log10(max/min)`).
    pub fn dynamic_range_log10(&self) -> f64 {
        match self {
            FormatSpec::Fixed(f) => f.dynamic_range_log10(),
            FormatSpec::Float(f) => f.dynamic_range_log10(),
            FormatSpec::Posit(f) => f.dynamic_range_log10(),
        }
    }

    /// Family of the format.
    pub fn family(&self) -> Family {
        match self {
            FormatSpec::Fixed(_) => Family::Fixed,
            FormatSpec::Float(_) => Family::Float,
            FormatSpec::Posit(_) => Family::Posit,
        }
    }

    /// Human-readable label, e.g. `posit<8,1>`.
    pub fn label(&self) -> String {
        match self {
            FormatSpec::Fixed(f) => f.to_string(),
            FormatSpec::Float(f) => f.to_string(),
            FormatSpec::Posit(f) => f.to_string(),
        }
    }
}

/// `F`'s register width for `k` MACs; panics with the `UnsupportedFormat`
/// reason, as `TableEmac::new` does, if `F` has no datapath for `fmt`.
fn register_width<F: dp_emac::Family>(fmt: F::Format, k: u64) -> u32 {
    F::check_format(fmt, k).unwrap_or_else(|e| panic!("{e}"));
    F::accumulator_width_for(fmt, k)
}

/// Builds the EMAC netlist for `spec` sized for `k`-element dot products.
pub fn emac_netlist(spec: FormatSpec, k: u64, calib: Calib) -> Netlist {
    match spec {
        FormatSpec::Fixed(f) => fixed_emac_netlist(f, k, calib),
        FormatSpec::Float(f) => float_emac_netlist(f, k, calib),
        FormatSpec::Posit(f) => posit_emac_netlist(f, k, calib),
    }
}

/// Fixed-point EMAC (paper Fig. 3): multiply → accumulate → shift/clip.
pub fn fixed_emac_netlist(fmt: FixedFormat, k: u64, c: Calib) -> Netlist {
    let wa = register_width::<Fixed>(fmt, k);
    let n = fmt.n();
    let s_mult = Stage::new(
        "multiply",
        vec![Component::multiplier(&c, "mult", n, n)],
        vec![
            Component::register(&c, "in_regs", 2 * n),
            Component::register(&c, "prod_reg", 2 * n),
        ],
    );
    let s_acc = Stage::new(
        "accumulate",
        vec![Component::adder(&c, "acc_add", wa)],
        vec![Component::register(&c, "acc_reg", wa)],
    );
    let s_out = Stage::new(
        "shift_clip",
        vec![
            // The >>q shift is wiring; clip compares the high bits.
            Component::comparator(&c, "clip", wa),
            Component::mux2(&c, "out_mux", n),
        ],
        vec![Component::register(&c, "out_reg", n)],
    );
    Netlist::new(
        format!("{fmt} EMAC"),
        n,
        fmt.dynamic_range_log10(),
        vec![s_mult, s_acc, s_out],
        c,
    )
    .with_streaming_stages(Fixed::PIPELINE_DEPTH as usize - 1)
}

/// Floating-point EMAC (paper Fig. 4): decode (subnormal normalize) +
/// multiply → fixed-point convert (2's comp + biased shift) → accumulate →
/// normalize/round/clip readout.
pub fn float_emac_netlist(fmt: FloatFormat, k: u64, c: Calib) -> Netlist {
    let wa = register_width::<Float>(fmt, k);
    let n = fmt.n();
    let (we, wf) = (fmt.we(), fmt.wf());
    let f = 1 + wf; // significand width with hidden bit
    let prod_w = 2 + 2 * wf;
    let s_decode_mult = Stage::new(
        "decode_multiply",
        vec![
            // Subnormal inputs must be normalized (LZD + shift) before the
            // hidden-bit multiply — logic posits never need.
            Component::lzd(&c, "subnorm_lzd", f),
            Component::barrel_shifter(&c, "subnorm_shift", f, wf.max(1)),
            Component::multiplier(&c, "mult", f, f),
        ],
        vec![
            Component::logic(&c, "subnorm_detect", we.div_ceil(3) * 2, 1),
            Component::register(&c, "in_regs", 2 * n),
            Component::adder(&c, "exp_add", we + 2),
            Component::register(&c, "prod_reg", prod_w + we + 2),
        ],
    );
    let s_convert = Stage::new(
        "fixed_convert",
        vec![
            Component::twos_complement(&c, "prod_2c", prod_w + 1),
            Component::barrel_shifter(&c, "to_fixed", wa, wa - 1),
        ],
        vec![Component::register(&c, "shifted_reg", wa)],
    );
    let s_acc = Stage::new(
        "accumulate",
        vec![Component::adder(&c, "acc_add", wa)],
        vec![Component::register(&c, "acc_reg", wa)],
    );
    let s_round = Stage::new(
        "normalize_round",
        vec![
            Component::twos_complement(&c, "acc_2c", wa),
            Component::lzd(&c, "norm_lzd", wa),
            Component::barrel_shifter(&c, "norm_shift", wa, wa - 1),
            // Subnormal outputs re-denormalize before rounding.
            Component::barrel_shifter(&c, "subnorm_out", wf + 2, wf.max(1)),
            Component::adder(&c, "round_add", wf + 2),
        ],
        vec![
            Component::adder(&c, "exp_out", we + 2),
            Component::comparator(&c, "clip", n),
            Component::mux2(&c, "out_mux", n),
            Component::register(&c, "out_reg", n),
        ],
    );
    Netlist::new(
        format!("{fmt} EMAC"),
        n,
        fmt.dynamic_range_log10(),
        vec![s_decode_mult, s_convert, s_acc, s_round],
        c,
    )
    .with_streaming_stages(Float::PIPELINE_DEPTH as usize - 1)
}

/// Posit EMAC (paper Fig. 5, Algorithms 1–2): decode → multiply + scale
/// factor → quire shift → accumulate → extract/round/encode readout.
pub fn posit_emac_netlist(fmt: PositFormat, k: u64, c: Calib) -> Netlist {
    let qs = register_width::<Posit>(fmt, k);
    let n = fmt.n();
    let es = fmt.es();
    let f = n - 2 - es; // significand width with hidden bit
    let sf_w = es + 32 - n.leading_zeros() + 2; // {regime, exp} scale factor
    let prod_w = 2 * f;
    let s_decode = Stage::new(
        "decode",
        // Algorithm 1: two's complement, regime fold, LZD, regime shift-out.
        vec![
            Component::twos_complement(&c, "in_2c", n),
            Component::lzd(&c, "regime_lzd", n),
            Component::barrel_shifter(&c, "regime_shift", n, n - 1),
        ],
        vec![
            // The weight decoder runs in parallel with the activation's.
            Component::twos_complement(&c, "in_2c_b", n),
            Component::lzd(&c, "regime_lzd_b", n),
            Component::barrel_shifter(&c, "regime_shift_b", n, n - 1),
            Component::logic(&c, "field_extract", 2 * n.div_ceil(2), 1),
            Component::register(&c, "in_regs", 2 * n),
            Component::register(&c, "dec_regs", 2 * (f + sf_w + 1)),
        ],
    );
    let s_mult = Stage::new(
        "multiply_sf",
        vec![
            Component::multiplier(&c, "mult", f, f),
            Component::twos_complement(&c, "prod_2c", prod_w + 1),
        ],
        vec![
            Component::adder(&c, "sf_add", sf_w + 1),
            Component::register(&c, "prod_reg", prod_w + sf_w + 2),
        ],
    );
    let s_shift = Stage::new(
        "quire_shift",
        vec![Component::barrel_shifter(&c, "to_quire", qs, qs - 1)],
        vec![Component::register(&c, "shifted_reg", qs)],
    );
    let s_acc = Stage::new(
        "accumulate",
        vec![Component::adder(&c, "quire_add", qs)],
        vec![Component::register(&c, "quire_reg", qs)],
    );
    let s_round = Stage::new(
        "extract_round_encode",
        vec![
            Component::twos_complement(&c, "quire_2c", qs),
            Component::lzd(&c, "quire_lzd", qs),
            Component::barrel_shifter(&c, "frac_extract", qs, qs - 1),
            // Regime insertion shifter + rounding increment (Alg. 2, 20-43).
            Component::barrel_shifter(&c, "regime_pack", 2 * n, n - 1),
            Component::adder(&c, "round_add", n + 1),
        ],
        vec![
            Component::twos_complement(&c, "sf_unbias", sf_w + 1),
            Component::logic(&c, "exception_flags", n.div_ceil(2), 2),
            Component::mux2(&c, "out_mux", n),
            Component::twos_complement(&c, "out_2c", n),
            Component::register(&c, "out_reg", n),
        ],
    );
    Netlist::new(
        format!("{fmt} EMAC"),
        n,
        fmt.dynamic_range_log10(),
        vec![s_decode, s_mult, s_shift, s_acc, s_round],
        c,
    )
    .with_streaming_stages(Posit::PIPELINE_DEPTH as usize - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calib() -> Calib {
        Calib::default()
    }

    fn p(n: u32, es: u32) -> FormatSpec {
        FormatSpec::Posit(PositFormat::new(n, es).unwrap())
    }

    fn fl(we: u32, wf: u32) -> FormatSpec {
        FormatSpec::Float(FloatFormat::new(we, wf).unwrap())
    }

    fn fx(n: u32, q: u32) -> FormatSpec {
        FormatSpec::Fixed(FixedFormat::new(n, q).unwrap())
    }

    #[test]
    fn spec_accessors() {
        assert_eq!(p(8, 0).n(), 8);
        assert_eq!(fl(4, 3).n(), 8);
        assert_eq!(fx(8, 6).n(), 8);
        assert_eq!(p(8, 1).family(), Family::Posit);
        assert!(p(8, 1).label().contains("posit"));
        assert!(p(8, 1).dynamic_range_log10() > fl(3, 4).dynamic_range_log10());
    }

    #[test]
    fn fixed_is_fastest_and_smallest_at_same_n() {
        let k = 128;
        let nl_fx = emac_netlist(fx(8, 6), k, calib());
        let nl_fl = emac_netlist(fl(4, 3), k, calib());
        let nl_p = emac_netlist(p(8, 1), k, calib());
        assert!(nl_fx.fmax_hz() > nl_fl.fmax_hz(), "fixed beats float");
        assert!(nl_fx.fmax_hz() > nl_p.fmax_hz(), "fixed beats posit");
        assert!(nl_fx.luts() < nl_fl.luts());
        assert!(nl_fx.luts() < nl_p.luts());
        assert!(
            nl_fx.edp(k) < nl_fl.edp(k),
            "paper Fig. 7: fixed lowest EDP"
        );
        assert!(nl_fx.edp(k) < nl_p.edp(k));
    }

    #[test]
    fn posit_has_highest_luts_at_8_bits() {
        // Paper Fig. 8: posit generally consumes the most LUTs.
        let k = 128;
        let lp = emac_netlist(p(8, 1), k, calib()).luts();
        let lf = emac_netlist(fl(4, 3), k, calib()).luts();
        let lx = emac_netlist(fx(8, 6), k, calib()).luts();
        assert!(lp > lf, "posit {lp} vs float {lf}");
        assert!(lf > lx, "float {lf} vs fixed {lx}");
    }

    #[test]
    fn luts_grow_with_width() {
        let k = 64;
        for es in [0, 1] {
            let l5 = emac_netlist(p(5, es), k, calib()).luts();
            let l8 = emac_netlist(p(8, es), k, calib()).luts();
            assert!(l8 > l5, "posit es={es}");
        }
        let f5 = emac_netlist(fl(2, 2), k, calib()).luts();
        let f8 = emac_netlist(fl(4, 3), k, calib()).luts();
        assert!(f8 > f5);
    }

    #[test]
    fn fmax_in_plausible_fpga_range() {
        // Paper Fig. 6 y-axis is ~1e8 Hz: all Fmax between 50 and 500 MHz.
        for spec in [p(8, 0), p(8, 2), fl(4, 3), fl(5, 2), fx(8, 6), fx(5, 4)] {
            let f = emac_netlist(spec, 128, calib()).fmax_hz();
            assert!(
                (5e7..5e8).contains(&f),
                "{}: {:.1} MHz",
                spec.label(),
                f / 1e6
            );
        }
    }

    #[test]
    fn pipeline_depths_match_emac_models() {
        for spec in (5..=8).flat_map(crate::paper_grid) {
            let depth = match spec.family() {
                Family::Fixed => Fixed::PIPELINE_DEPTH,
                Family::Float => Float::PIPELINE_DEPTH,
                Family::Posit => Posit::PIPELINE_DEPTH,
            };
            let stages = emac_netlist(spec, 8, calib()).stages.len() as u32;
            assert_eq!(stages, depth, "{}", spec.label());
        }
    }

    // dp_emac's rule in every build: posit<5,3> has no significand bits,
    // and posit<5,4>'s n − 2 − es would underflow.
    #[test]
    #[should_panic(expected = "es <= n-3")]
    fn report_refuses_posit_5_3_like_the_emac() {
        crate::report(p(5, 3), 128, calib());
    }

    #[test]
    #[should_panic(expected = "es <= n-3")]
    fn report_refuses_posit_5_4_like_the_emac() {
        crate::report(p(5, 4), 128, calib());
    }
}
