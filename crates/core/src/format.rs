//! The format-erased numeric type the quantized network runs on.

use dp_emac::{EmacUnit, Family as _, FixedEmac, FloatEmac, PositEmac, UnsupportedFormat};
use dp_fixed::FixedFormat;
use dp_hw::FormatSpec;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use std::fmt;

/// A numerical format for quantized inference: one of the paper's three
/// low-precision families, or the 32-bit float baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumericFormat {
    /// IEEE single precision (the paper's "32-bit Float" column).
    F32,
    /// (n, es) posit.
    Posit(PositFormat),
    /// (1, we, wf) minifloat.
    Float(FloatFormat),
    /// Q(n−q).q fixed point.
    Fixed(FixedFormat),
}

impl NumericFormat {
    /// Total bit width.
    pub fn n(&self) -> u32 {
        match self {
            NumericFormat::F32 => 32,
            NumericFormat::Posit(f) => f.n(),
            NumericFormat::Float(f) => f.n(),
            NumericFormat::Fixed(f) => f.n(),
        }
    }

    /// Quantizes an `f32` to this format's bit pattern (saturating — the
    /// paper's EMACs clip at the maximum magnitude). `F32` returns the raw
    /// IEEE bits. One value of [`NumericFormat::quantize_into`].
    pub fn quantize(&self, v: f32) -> u32 {
        match self {
            NumericFormat::F32 => v.to_bits(),
            NumericFormat::Posit(f) => dp_posit::convert::from_f32(*f, v),
            NumericFormat::Float(f) => dp_minifloat::convert::from_f32_saturating(*f, v),
            NumericFormat::Fixed(f) => (f.from_f32(v) as u32) & mask(f.n()),
        }
    }

    /// Appends [`NumericFormat::quantize`] of every element of `xs` to
    /// `out`: the family is matched once per slice. Each arm is a plain
    /// loop over a pre-sized tail of `out` with the format in a local, so
    /// the per-element step inlines and the format's constants stay in
    /// registers — behind an iterator adaptor's closure the stores may
    /// alias the captured format, and they are re-derived per element.
    pub fn quantize_into(&self, xs: &[f32], out: &mut Vec<u32>) {
        let start = out.len();
        out.resize(start + xs.len(), 0);
        let slots = out[start..].iter_mut().zip(xs);
        match *self {
            NumericFormat::F32 => slots.for_each(|(slot, v)| *slot = v.to_bits()),
            NumericFormat::Posit(f) => {
                for (slot, &v) in slots {
                    *slot = dp_posit::convert::from_f32(f, v);
                }
            }
            NumericFormat::Float(f) => {
                for (slot, &v) in slots {
                    *slot = dp_minifloat::convert::from_f32_saturating(f, v);
                }
            }
            NumericFormat::Fixed(f) => {
                let mask = mask(f.n());
                for (slot, &v) in slots {
                    *slot = (f.from_f32(v) as u32) & mask;
                }
            }
        }
    }

    /// The exact value of a bit pattern of this format.
    pub fn to_f64(&self, bits: u32) -> f64 {
        match self {
            NumericFormat::F32 => f32::from_bits(bits) as f64,
            NumericFormat::Posit(f) => dp_posit::convert::to_f64(*f, bits),
            NumericFormat::Float(f) => dp_minifloat::convert::to_f64(*f, bits),
            NumericFormat::Fixed(f) => f.to_f64(sext(bits, f.n())),
        }
    }

    /// The quantization round-trip `f32 → format → f64` (for error studies).
    pub fn quantized_value(&self, v: f32) -> f64 {
        self.to_f64(self.quantize(v))
    }

    /// ReLU on a bit pattern: negative values clamp to zero. One value of
    /// [`NumericFormat::relu_in_place`].
    pub fn relu_bits(&self, bits: u32) -> u32 {
        let mut one = [bits];
        self.relu_in_place(&mut one);
        one[0]
    }

    /// ReLU over a layer's activations: the family is matched once, and
    /// the per-value step is a range test on the pattern. Negative means
    /// below zero: posit NaR, minifloat and `f32` NaN (whatever their sign
    /// bit) and −0 all pass through unchanged.
    pub fn relu_in_place(&self, acts: &mut [u32]) {
        match *self {
            NumericFormat::F32 => {
                for bits in acts {
                    if f32::from_bits(*bits) < 0.0 {
                        *bits = 0;
                    }
                }
            }
            NumericFormat::Posit(f) => {
                let (mask, nar) = (f.mask(), f.nar_bits());
                for bits in acts {
                    if *bits & mask > nar {
                        *bits = 0;
                    }
                }
            }
            NumericFormat::Float(f) => {
                let (mask, zero, inf) = (f.mask(), f.zero_bits(true), f.inf_bits(true));
                for bits in acts {
                    let b = *bits & mask;
                    if zero < b && b <= inf {
                        *bits = 0;
                    }
                }
            }
            NumericFormat::Fixed(f) => {
                let sign = 1u32 << (f.n() - 1);
                for bits in acts {
                    if *bits & sign != 0 {
                        *bits = 0;
                    }
                }
            }
        }
    }

    /// A key that orders this format's patterns as their values order:
    /// `order_key(a) < order_key(b)` exactly when `to_f64(a) < to_f64(b)`,
    /// with −0 and +0 sharing a key (as they compare equal) and NaR / NaN
    /// below every real value, so a poisoned logit never wins a maximum.
    /// Posits and fixed point order as their two's-complement patterns,
    /// minifloats and `f32` as sign and magnitude.
    pub fn order_key(&self, bits: u32) -> i64 {
        let sign_magnitude = |bits: u32, n: u32, inf: u32| {
            let magnitude = (bits & (mask(n) >> 1)) as i64;
            if magnitude > inf as i64 {
                i64::MIN
            } else if (bits >> (n - 1)) & 1 == 0 {
                magnitude
            } else {
                -magnitude
            }
        };
        match *self {
            NumericFormat::F32 => sign_magnitude(bits, 32, 0x7f80_0000),
            NumericFormat::Posit(f) if bits & f.mask() == f.nar_bits() => i64::MIN,
            NumericFormat::Posit(f) => sext(bits, f.n()),
            NumericFormat::Float(f) => sign_magnitude(bits, f.n(), f.inf_bits(false)),
            NumericFormat::Fixed(f) => sext(bits, f.n()),
        }
    }

    /// An exact multiply-and-accumulate unit for `k`-element dot products,
    /// or `None` for the `F32` baseline (which uses plain float math).
    ///
    /// # Panics
    ///
    /// Panics for low-precision formats without an EMAC datapath (e.g. a
    /// posit with `es > n − 3`); use [`NumericFormat::try_make_emac`] when
    /// the format comes from an untrusted caller.
    pub fn make_emac(&self, k: u64) -> Option<EmacUnit> {
        self.try_make_emac(k)
            .expect("format has no EMAC datapath (see try_make_emac)")
    }

    /// [`NumericFormat::make_emac`] with a typed error instead of a panic
    /// for formats without an EMAC datapath — `Ok(None)` is the `F32`
    /// baseline, `Err` a low-precision format the EMACs cannot serve
    /// (posit `es > n − 3`, fixed eq.-(3) register past `i128`), with
    /// [`NumericFormat::check_emac`]'s verdict.
    ///
    /// # Errors
    ///
    /// [`UnsupportedFormat`] describing why the datapath is missing.
    pub fn try_make_emac(&self, k: u64) -> Result<Option<EmacUnit>, UnsupportedFormat> {
        match self {
            NumericFormat::F32 => Ok(None),
            NumericFormat::Posit(f) => Ok(Some(EmacUnit::Posit(PositEmac::try_new(*f, k)?))),
            NumericFormat::Float(f) => Ok(Some(EmacUnit::Float(FloatEmac::try_new(*f, k)?))),
            NumericFormat::Fixed(f) => Ok(Some(EmacUnit::Fixed(FixedEmac::try_new(*f, k)?))),
        }
    }

    /// Whether the format has an EMAC datapath for `k`-element dot
    /// products, checked by the rule the unit's constructor runs first
    /// (its family's `check_format`) without building a unit or its
    /// operand tables. Checkpoint loading and serving registries validate
    /// with this; the `F32` baseline always passes.
    ///
    /// # Errors
    ///
    /// [`UnsupportedFormat`] describing why the datapath is missing, as
    /// [`NumericFormat::try_make_emac`] reports it.
    pub fn check_emac(&self, k: u64) -> Result<(), UnsupportedFormat> {
        let k = k.max(1);
        match *self {
            NumericFormat::F32 => Ok(()),
            NumericFormat::Posit(f) => dp_emac::Posit::check_format(f, k),
            NumericFormat::Float(f) => dp_emac::Float::check_format(f, k),
            NumericFormat::Fixed(f) => dp_emac::Fixed::check_format(f, k),
        }
    }

    /// Rounded multiplication of two patterns (per-op MAC, for the
    /// exact-vs-inexact ablation). Fixed point truncates, as its hardware
    /// multiplier does.
    pub fn mul_bits(&self, a: u32, b: u32) -> u32 {
        match self {
            NumericFormat::F32 => (f32::from_bits(a) * f32::from_bits(b)).to_bits(),
            NumericFormat::Posit(f) => dp_posit::ops::mul(*f, a, b),
            NumericFormat::Float(f) => dp_minifloat::ops::mul(*f, a, b),
            NumericFormat::Fixed(f) => {
                let r = f.mul_truncate(sext(a, f.n()), sext(b, f.n()));
                (r as u64 as u32) & mask(f.n())
            }
        }
    }

    /// Rounded addition of two patterns (per-op MAC, for the ablation).
    pub fn add_bits(&self, a: u32, b: u32) -> u32 {
        match self {
            NumericFormat::F32 => (f32::from_bits(a) + f32::from_bits(b)).to_bits(),
            NumericFormat::Posit(f) => dp_posit::ops::add(*f, a, b),
            NumericFormat::Float(f) => dp_minifloat::ops::add(*f, a, b),
            NumericFormat::Fixed(f) => {
                let r = f.add_sat(sext(a, f.n()), sext(b, f.n()));
                (r as u64 as u32) & mask(f.n())
            }
        }
    }
}

fn mask(n: u32) -> u32 {
    if n == 32 {
        u32::MAX
    } else {
        (1 << n) - 1
    }
}

fn sext(bits: u32, n: u32) -> i64 {
    let sh = 64 - n;
    (((bits as u64) << sh) as i64) >> sh
}

impl From<FormatSpec> for NumericFormat {
    fn from(spec: FormatSpec) -> Self {
        match spec {
            FormatSpec::Posit(f) => NumericFormat::Posit(f),
            FormatSpec::Float(f) => NumericFormat::Float(f),
            FormatSpec::Fixed(f) => NumericFormat::Fixed(f),
        }
    }
}

impl fmt::Display for NumericFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericFormat::F32 => write!(f, "float32"),
            NumericFormat::Posit(x) => write!(f, "{x}"),
            NumericFormat::Float(x) => write!(f, "{x}"),
            NumericFormat::Fixed(x) => write!(f, "{x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn formats() -> Vec<NumericFormat> {
        vec![
            NumericFormat::F32,
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 6).unwrap()),
        ]
    }

    #[test]
    fn quantize_roundtrip_of_exact_values() {
        for fmt in formats() {
            for v in [0.0f32, 0.5, -0.5, 1.0, -1.0] {
                assert_eq!(fmt.quantized_value(v), v as f64, "{fmt} {v}");
            }
        }
    }

    #[test]
    fn quantize_saturates() {
        let posit = NumericFormat::Posit(PositFormat::new(8, 0).unwrap());
        assert_eq!(posit.quantized_value(1e9), 64.0);
        let float = NumericFormat::Float(FloatFormat::new(4, 3).unwrap());
        assert_eq!(float.quantized_value(1e9), 240.0);
        let fixed = NumericFormat::Fixed(FixedFormat::new(8, 6).unwrap());
        assert_eq!(fixed.quantized_value(1e9), 127.0 / 64.0);
    }

    #[test]
    fn relu_clamps_negatives_only() {
        for fmt in formats() {
            let neg = fmt.quantize(-0.75);
            let pos = fmt.quantize(0.75);
            assert_eq!(fmt.to_f64(fmt.relu_bits(neg)), 0.0, "{fmt}");
            assert_eq!(fmt.relu_bits(pos), pos, "{fmt}");
            assert_eq!(fmt.to_f64(fmt.relu_bits(fmt.quantize(0.0))), 0.0);
        }
    }

    #[test]
    fn relu_forms_agree_with_the_families_sign_tests_on_every_pattern() {
        for fmt in formats().into_iter().skip(1) {
            let negative = |bits: u32| match fmt {
                NumericFormat::Posit(f) => dp_posit::ops::is_negative(f, bits),
                NumericFormat::Float(f) => dp_minifloat::ops::is_negative(f, bits),
                NumericFormat::Fixed(f) => sext(bits, f.n()) < 0,
                NumericFormat::F32 => unreachable!(),
            };
            let mut layer: Vec<u32> = (0..256).collect();
            fmt.relu_in_place(&mut layer);
            for bits in 0..256u32 {
                let want = if negative(bits) { 0 } else { bits };
                assert_eq!(layer[bits as usize], want, "{fmt} {bits:#x}");
                assert_eq!(fmt.relu_bits(bits), want, "{fmt} {bits:#x}");
            }
        }
        // f32: −0.0 is not below zero, NaN is not either.
        let mut layer = [-1.5f32, -0.0, 0.0, 2.0, f32::NAN, -f32::NAN].map(f32::to_bits);
        let want = [0, layer[1], layer[2], layer[3], layer[4], layer[5]];
        NumericFormat::F32.relu_in_place(&mut layer);
        assert_eq!(layer, want);
    }

    #[test]
    fn order_key_orders_every_pair_of_patterns_as_their_values() {
        for fmt in formats().into_iter().skip(1) {
            for a in 0..256u32 {
                let (va, ka) = (fmt.to_f64(a), fmt.order_key(a));
                assert_eq!(va.is_nan(), ka == i64::MIN, "{fmt} {a:#x}");
                for b in 0..256u32 {
                    let (vb, kb) = (fmt.to_f64(b), fmt.order_key(b));
                    if let Some(order) = va.partial_cmp(&vb) {
                        assert_eq!(ka.cmp(&kb), order, "{fmt} {a:#x} vs {b:#x}");
                    }
                }
            }
        }
        let key = |v: f32| NumericFormat::F32.order_key(v.to_bits());
        assert!(key(f32::NEG_INFINITY) < key(-1.0) && key(-1.0) < key(-0.0));
        assert!(key(-0.0) == key(0.0) && key(0.0) < key(1e-40) && key(1.0) < key(f32::INFINITY));
        assert!(key(f32::NAN) < key(f32::NEG_INFINITY) && key(-f32::NAN) == key(f32::NAN));
    }

    #[test]
    fn emac_only_for_low_precision() {
        assert!(NumericFormat::F32.make_emac(8).is_none());
        for fmt in formats().into_iter().skip(1) {
            assert!(fmt.make_emac(8).is_some(), "{fmt}");
        }
    }

    #[test]
    fn try_make_emac_rejects_datapathless_formats_without_panicking() {
        // posit<8,6> has no significand bits: es > n − 3.
        let bad = NumericFormat::Posit(PositFormat::new(8, 6).unwrap());
        let err = bad.try_make_emac(8).unwrap_err();
        assert!(err.reason().contains("es <= n-3"), "{err}");
        // The baseline is Ok(None), supported formats Ok(Some).
        assert!(NumericFormat::F32.try_make_emac(8).unwrap().is_none());
        for fmt in formats().into_iter().skip(1) {
            assert!(fmt.try_make_emac(8).unwrap().is_some(), "{fmt}");
        }
        // 16-bit formats are supported across all three families.
        assert!(NumericFormat::Posit(PositFormat::new(16, 1).unwrap())
            .try_make_emac(128)
            .unwrap()
            .is_some());
        assert!(NumericFormat::Float(FloatFormat::new(5, 10).unwrap())
            .try_make_emac(128)
            .unwrap()
            .is_some());
        assert!(NumericFormat::Fixed(FixedFormat::new(16, 8).unwrap())
            .try_make_emac(128)
            .unwrap()
            .is_some());
        // fixed<32,16>'s eq.-(3) register is 64 + ⌈log2 k⌉ bits: the last
        // capacity that fits the i128, and the first that does not.
        let wide = NumericFormat::Fixed(FixedFormat::new(32, 16).unwrap());
        assert!(wide.try_make_emac(1 << 63).unwrap().is_some());
        let err = wide.try_make_emac((1 << 63) + 1).unwrap_err();
        assert!(err.reason().contains("128 bits"), "{err}");
        // The check-only entry point gives the same verdict, error text
        // included, for every pair above.
        let mut pairs = vec![
            (bad, 8),
            (NumericFormat::F32, 8),
            (NumericFormat::Posit(PositFormat::new(16, 1).unwrap()), 128),
            (NumericFormat::Float(FloatFormat::new(5, 10).unwrap()), 128),
            (NumericFormat::Fixed(FixedFormat::new(16, 8).unwrap()), 128),
            (wide, 1 << 63),
            (wide, (1 << 63) + 1),
        ];
        pairs.extend(formats().into_iter().skip(1).map(|fmt| (fmt, 8)));
        for (fmt, k) in pairs {
            let checked = fmt.check_emac(k).map_err(|e| e.to_string());
            let built = fmt.try_make_emac(k).map(drop).map_err(|e| e.to_string());
            assert_eq!(checked, built, "{fmt} at k = {k}");
        }
    }

    #[test]
    fn per_op_arithmetic_matches_values() {
        for fmt in formats() {
            let a = fmt.quantize(0.5);
            let b = fmt.quantize(0.25);
            assert_eq!(fmt.to_f64(fmt.mul_bits(a, b)), 0.125, "{fmt}");
            assert_eq!(fmt.to_f64(fmt.add_bits(a, b)), 0.75, "{fmt}");
        }
    }

    #[test]
    fn widths_and_labels() {
        let fs = formats();
        assert_eq!(fs[0].n(), 32);
        assert_eq!(fs[1].n(), 8);
        assert!(fs[1].to_string().contains("posit"));
        assert!(fs[3].to_string().contains("fixed"));
    }
}
