//! Conversions between minifloats and `f64`, plus the saturating quantizer
//! used by the Deep Positron DNN path.

use crate::codec::{decode, encode, magnitude_word, round_magnitude, FloatClass};
use crate::format::FloatFormat;

/// Converts an `f64` to the nearest minifloat (IEEE RNE; overflow → ±Inf,
/// underflow → ±0, NaN → NaN).
///
/// # Examples
///
/// ```
/// use dp_minifloat::{convert, FloatFormat};
/// let fmt = FloatFormat::new(4, 3)?;
/// assert_eq!(convert::to_f64(fmt, convert::from_f64(fmt, 1.5)), 1.5);
/// assert_eq!(convert::from_f64(fmt, 1e9), fmt.inf_bits(false));
/// # Ok::<(), dp_minifloat::FormatError>(())
/// ```
pub fn from_f64(fmt: FloatFormat, v: f64) -> u32 {
    if v.is_nan() {
        return fmt.nan_bits();
    }
    if v.is_infinite() {
        return fmt.inf_bits(v < 0.0);
    }
    if v == 0.0 {
        return fmt.zero_bits(v.is_sign_negative());
    }
    let bits = v.to_bits();
    let sign = bits >> 63 == 1;
    let exp_field = ((bits >> 52) & 0x7ff) as i32;
    let man = bits & ((1u64 << 52) - 1);
    let (scale, sig) = if exp_field == 0 {
        let lz = man.leading_zeros();
        (-1011 - lz as i32, man << lz)
    } else {
        (exp_field - 1023, ((1u64 << 52) | man) << 11)
    };
    encode(fmt, sign, scale, sig, false)
}

/// Converts an `f64` to the nearest minifloat, **clipping at ±max** instead
/// of overflowing to infinity — the quantization rule of the paper's EMAC
/// datapath ("clipped at the maximum magnitude if applicable"). NaN still
/// maps to NaN.
pub fn from_f64_saturating(fmt: FloatFormat, v: f64) -> u32 {
    if v.is_nan() {
        return fmt.nan_bits();
    }
    let b = from_f64(fmt, v);
    match decode(fmt, b) {
        FloatClass::Inf(s) => fmt.max_bits(s),
        _ => b,
    }
}

/// [`from_f64_saturating`] of `v as f64`, on the `f32`'s own fields: the
/// slice quantiser's per-element step. A single's 31-bit magnitude is
/// already `exponent ‖ fraction`, so a normal target is that integer with
/// the exponent re-biased, shifted right to `wf` fraction bits and rounded
/// to nearest even by an integer add — a carry out of the fraction bumps
/// the exponent, and whatever reaches the reserved top exponent clips to
/// ±max. Below the smallest normal the significand (hidden bit included)
/// takes the wider shift of a subnormal; with `we = 8` a *subnormal
/// single* is itself a representable subnormal and takes the normal path
/// as it is (exponent field 0, no hidden bit).
///
/// ```
/// use dp_minifloat::{convert, FloatFormat};
/// let fmt = FloatFormat::new(4, 3)?;
/// assert_eq!(convert::from_f32_saturating(fmt, 1e9), fmt.max_bits(false));
/// assert_eq!(
///     convert::from_f32_saturating(fmt, 0.3),
///     convert::from_f64_saturating(fmt, 0.3f32 as f64)
/// );
/// # Ok::<(), dp_minifloat::FormatError>(())
/// ```
#[inline(always)]
pub fn from_f32_saturating(fmt: FloatFormat, v: f32) -> u32 {
    let bits = v.to_bits();
    let abs = bits & 0x7fff_ffff;
    if abs > 0x7f80_0000 {
        return fmt.nan_bits();
    }
    if abs == 0 {
        return fmt.zero_bits(bits != 0);
    }
    fmt.zero_bits(bits >> 31 == 1) | f32_magnitude(fmt, abs)
}

/// The operand word (see [`crate::codec::encode_word`]) of
/// [`from_f32_saturating`]`(fmt, v)`, from the same rounding step: NaN
/// gives NaN's word `1`, ±0 gives `0`, ±infinity ±max's word.
///
/// ```
/// use dp_minifloat::{convert, FloatFormat};
/// let fmt = FloatFormat::new(4, 3)?; // smallest subnormal 2^-9
/// assert_eq!(convert::word_from_f32(fmt, -0.75), -(384 << 1));
/// assert_eq!(convert::word_from_f32(fmt, f32::NAN), 1);
/// # Ok::<(), dp_minifloat::FormatError>(())
/// ```
#[inline(always)]
pub fn word_from_f32(fmt: FloatFormat, v: f32) -> i64 {
    let bits = v.to_bits();
    let abs = bits & 0x7fff_ffff;
    if abs > 0x7f80_0000 {
        return 1;
    }
    if abs == 0 {
        return 0;
    }
    magnitude_word(fmt, bits >> 31 == 1, f32_magnitude(fmt, abs))
}

/// The clipped pattern magnitude nearest to a nonzero single's magnitude
/// `abs` (infinity included). A single's 31 bits are already `exponent ‖
/// fraction`, so with the exponent re-biased to the target's they are the
/// exact pattern [`round_magnitude`] takes, with `23 − wf` extra fraction
/// bits. Below the target's smallest normal the significand (hidden bit
/// included) goes in instead; a subnormal single scales like field 1,
/// without a hidden bit — and with `we = 8` is itself a representable
/// subnormal, which comes through as it is.
#[inline(always)]
fn f32_magnitude(fmt: FloatFormat, abs: u32) -> u32 {
    let (exp, frac) = (abs >> 23, abs & 0x007f_ffff);
    let rebias = (127 - fmt.bias()) as u32;
    let field = exp.max(1) as i32 - rebias as i32;
    let exact = match field >= 1 {
        true => abs - (rebias << 23),
        false => (((exp != 0) as u32) << 23) | frac,
    };
    round_magnitude(fmt, exact as u64, field, 23).min(fmt.max_bits(false))
}

/// Converts a minifloat to `f64` (always exact: `wf ≤ 23`, `we ≤ 8`).
pub fn to_f64(fmt: FloatFormat, bits: u32) -> f64 {
    match decode(fmt, bits) {
        FloatClass::Zero(s) => {
            if s {
                -0.0
            } else {
                0.0
            }
        }
        FloatClass::Inf(s) => {
            if s {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        }
        FloatClass::NaN => f64::NAN,
        FloatClass::Finite(u) => {
            let tz = u.sig.trailing_zeros();
            let m = (u.sig >> tz) as f64;
            let v = m * 2f64.powi(u.scale - 63 + tz as i32);
            if u.sign {
                -v
            } else {
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt(we: u32, wf: u32) -> FloatFormat {
        FloatFormat::new(we, wf).unwrap()
    }

    #[test]
    fn roundtrip_all_patterns() {
        for (we, wf) in [(2, 2), (3, 2), (3, 4), (4, 3), (5, 2), (5, 10), (8, 7)] {
            let f = fmt(we, wf);
            for bits in f.patterns() {
                let v = to_f64(f, bits);
                let back = from_f64(f, v);
                if v.is_nan() {
                    assert_eq!(decode(f, back), FloatClass::NaN, "{f} {bits:#x}");
                } else {
                    assert_eq!(back, bits, "{f} {bits:#x} -> {v}");
                }
            }
        }
    }

    #[test]
    fn half_precision_known_values() {
        let f = fmt(5, 10);
        assert_eq!(from_f64(f, 1.0), 0x3c00);
        assert_eq!(from_f64(f, -2.0), 0xc000);
        assert_eq!(from_f64(f, 65504.0), 0x7bff);
        assert_eq!(from_f64(f, 65520.0), 0x7c00, "overflow boundary -> inf");
        assert_eq!(from_f64(f, 2f64.powi(-24)), 0x0001, "min subnormal");
        assert_eq!(from_f64(f, 2f64.powi(-25)), 0x0000, "tie to even -> 0");
    }

    #[test]
    fn bf16_known_values() {
        let f = fmt(8, 7);
        // bf16 is f32's top half: check against f32 bit patterns.
        for v in [1.0f64, -1.0, 0.5, 3.140625, 255.0] {
            let expected = (v as f32).to_bits() >> 16;
            assert_eq!(from_f64(f, v), expected, "bf16 {v}");
        }
    }

    #[test]
    fn saturating_quantizer_clips() {
        let f = fmt(4, 3);
        assert_eq!(from_f64_saturating(f, 1e9), f.max_bits(false));
        assert_eq!(from_f64_saturating(f, -1e9), f.max_bits(true));
        assert_eq!(to_f64(f, from_f64_saturating(f, 1e9)), 240.0);
        assert_eq!(from_f64_saturating(f, 1.5), from_f64(f, 1.5));
        assert_eq!(decode(f, from_f64_saturating(f, f64::NAN)), FloatClass::NaN);
    }

    #[test]
    fn signed_zero_preserved() {
        let f = fmt(4, 3);
        assert_eq!(from_f64(f, -0.0), 0x80);
        assert!(to_f64(f, 0x80).is_sign_negative());
    }
}
