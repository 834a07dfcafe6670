//! The format-erased numeric type the quantized network runs on.

use dp_emac::{EmacUnit, FixedEmac, FloatEmac, PositEmac, UnsupportedFormat};
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
    /// IEEE bits.
    pub fn quantize(&self, v: f32) -> u32 {
        match self {
            NumericFormat::F32 => v.to_bits(),
            NumericFormat::Posit(f) => dp_posit::convert::from_f64(*f, v as f64),
            NumericFormat::Float(f) => dp_minifloat::convert::from_f64_saturating(*f, v as f64),
            NumericFormat::Fixed(f) => {
                let raw = f.from_f64(v as f64);
                (raw as u64 as u32) & mask(f.n())
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

    /// ReLU on a bit pattern: negative values clamp to zero.
    pub fn relu_bits(&self, bits: u32) -> u32 {
        match self {
            NumericFormat::F32 => {
                let v = f32::from_bits(bits);
                if v < 0.0 {
                    0
                } else {
                    bits
                }
            }
            NumericFormat::Posit(f) => {
                if dp_posit::ops::is_negative(*f, bits) {
                    0
                } else {
                    bits
                }
            }
            NumericFormat::Float(f) => {
                if dp_minifloat::ops::is_negative(*f, bits) {
                    f.zero_bits(false)
                } else {
                    bits
                }
            }
            NumericFormat::Fixed(f) => {
                if sext(bits, f.n()) < 0 {
                    0
                } else {
                    bits
                }
            }
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
    /// (posit `es > n − 3`, fixed eq.-(3) register past `i128`). Serving
    /// registries validate with this before accepting a model.
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

    /// The hardware-model spec, or `None` for `F32`.
    pub fn spec(&self) -> Option<FormatSpec> {
        match self {
            NumericFormat::F32 => None,
            NumericFormat::Posit(f) => Some(FormatSpec::Posit(*f)),
            NumericFormat::Float(f) => Some(FormatSpec::Float(*f)),
            NumericFormat::Fixed(f) => Some(FormatSpec::Fixed(*f)),
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
    fn emac_only_for_low_precision() {
        assert!(NumericFormat::F32.make_emac(8).is_none());
        for fmt in formats().into_iter().skip(1) {
            assert!(fmt.make_emac(8).is_some(), "{fmt}");
            assert!(fmt.spec().is_some());
        }
        assert!(NumericFormat::F32.spec().is_none());
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
