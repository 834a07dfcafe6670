//! Conversions between posits and other numeric types.

use crate::decode::{decode, Decoded};
use crate::encode::{apply_sign, encode, round_body, round_scaled, rounded_word, FRACTION_BITS};
use crate::format::{exp2i, PositFormat};

/// Converts an `f64` to the nearest posit (round to nearest, ties to even
/// on the posit pattern). NaN and ±infinity map to NaR; ±0 maps to 0.
///
/// # Examples
///
/// ```
/// use dp_posit::{convert, PositFormat};
/// let fmt = PositFormat::new(8, 0)?;
/// assert_eq!(convert::from_f64(fmt, 1.0), 0x40);
/// assert_eq!(convert::from_f64(fmt, 1e9), fmt.maxpos_bits()); // saturates
/// assert_eq!(convert::from_f64(fmt, f64::NAN), fmt.nar_bits());
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
pub fn from_f64(fmt: PositFormat, v: f64) -> u32 {
    if v.is_nan() || v.is_infinite() {
        return fmt.nar_bits();
    }
    if v == 0.0 {
        return fmt.zero_bits();
    }
    let bits = v.to_bits();
    let sign = bits >> 63 == 1;
    let exp_field = ((bits >> 52) & 0x7ff) as i32;
    let man = bits & ((1u64 << 52) - 1);
    let (scale, sig) = if exp_field == 0 {
        // Subnormal double: value = man × 2^-1074.
        let lz = man.leading_zeros();
        (-1011 - lz as i32, man << lz)
    } else {
        // Normal double: value = (2^52 + man) × 2^(exp-1075).
        (exp_field - 1023, ((1u64 << 52) | man) << 11)
    };
    encode(fmt, sign, scale, sig, false)
}

/// [`from_f64`] of `v as f64`, on the `f32`'s own fields: the slice
/// quantiser's per-element step. A single's magnitude with its exponent
/// re-biased in place *is* `scale ‖ fraction` as one signed integer, which
/// is what the encoder's rounding core takes.
///
/// ```
/// use dp_posit::{convert, PositFormat};
/// let fmt = PositFormat::new(8, 0)?;
/// assert_eq!(convert::from_f32(fmt, 1.0), 0x40);
/// assert_eq!(convert::from_f32(fmt, 0.3), convert::from_f64(fmt, 0.3f32 as f64));
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
#[inline(always)]
pub fn from_f32(fmt: PositFormat, v: f32) -> u32 {
    let bits = v.to_bits();
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        return fmt.nar_bits();
    }
    if abs == 0 {
        return fmt.zero_bits();
    }
    let body = round_body(fmt, f32_scaled(fmt, abs), false);
    apply_sign(fmt, body, bits >> 31 == 1)
}

/// The operand word (see [`crate::encode::encode_word`]) of
/// [`from_f32`]`(fmt, v)`, from the same rounding step: NaN and ±infinity
/// give NaR's word `1`, ±0 gives `0`. For the formats `encode_word` serves.
///
/// ```
/// use dp_posit::{convert, PositFormat};
/// let fmt = PositFormat::new(8, 0)?; // minpos = 2^-6
/// assert_eq!(convert::word_from_f32(fmt, -0.75), -(48 << 1));
/// assert_eq!(convert::word_from_f32(fmt, f32::NAN), 1);
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
#[inline(always)]
pub fn word_from_f32(fmt: PositFormat, v: f32) -> i64 {
    let bits = v.to_bits();
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        return 1;
    }
    if abs == 0 {
        return 0;
    }
    let rounded = round_scaled(fmt, f32_scaled(fmt, abs), false).1;
    rounded_word(fmt, bits >> 31 == 1, rounded)
}

/// A finite nonzero single's magnitude `abs` as `scale ‖ fraction`: with
/// its exponent re-biased in place it already is that integer.
#[inline(always)]
fn f32_scaled(fmt: PositFormat, abs: u32) -> i64 {
    let scaled = if abs < 0x0080_0000 {
        // Subnormal single: normalise the 23-bit field (the hidden bit it
        // shifts up to is masked off).
        let up = abs.leading_zeros() - 8;
        ((-126 - up as i64) << 23) | ((abs << up) & 0x007f_ffff) as i64
    } else {
        abs as i64 - (127 << 23)
    };
    scaled << (FRACTION_BITS - 23 - fmt.es())
}

/// Converts a posit to `f64`. Exact for every format whose scales fit the
/// f64 exponent range (all formats with `max_scale() <= 1023`, i.e. every
/// format used in the paper). Wider formats saturate at both ends: their
/// largest magnitudes become ±infinity and their tiniest ±0 (posit⟨24,6⟩
/// pattern `0xf` gives `0.0`, posit⟨32,6⟩ `0xfffffec2` gives `-0.0`).
/// NaR maps to NaN.
pub fn to_f64(fmt: PositFormat, bits: u32) -> f64 {
    match decode(fmt, bits) {
        Decoded::Zero => 0.0,
        Decoded::NaR => f64::NAN,
        Decoded::Finite(u) => {
            let tz = u.sig.trailing_zeros();
            let m = (u.sig >> tz) as f64; // <= 32 significant bits: exact
            let v = m * exp2i(u.scale - 63 + tz as i32);
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

    fn fmt(n: u32, es: u32) -> PositFormat {
        PositFormat::new(n, es).unwrap()
    }

    #[test]
    fn f64_roundtrip_is_identity_on_all_patterns() {
        for (n, es) in [(5, 0), (6, 1), (8, 0), (8, 1), (8, 2), (16, 1), (16, 2)] {
            let f = fmt(n, es);
            for bits in f.reals() {
                let v = to_f64(f, bits);
                assert_eq!(from_f64(f, v), bits, "{f} {bits:#x} -> {v}");
            }
            assert!(to_f64(f, f.nar_bits()).is_nan());
            assert_eq!(from_f64(f, f64::NAN), f.nar_bits());
        }
    }

    #[test]
    fn known_values_p8e0() {
        let f = fmt(8, 0);
        assert_eq!(from_f64(f, 1.0), 0x40);
        assert_eq!(from_f64(f, -1.0), 0xc0);
        assert_eq!(from_f64(f, 0.5), 0x20);
        assert_eq!(from_f64(f, 2.0), 0x60);
        assert_eq!(from_f64(f, 64.0), 0x7f);
        assert_eq!(from_f64(f, 1.0 / 64.0), 0x01);
        assert_eq!(to_f64(f, 0x48), 1.25);
    }

    #[test]
    fn saturation_behaviour() {
        let f = fmt(8, 2);
        assert_eq!(from_f64(f, 1e300), f.maxpos_bits());
        assert_eq!(from_f64(f, -1e300), f.nar_bits() | 1); // -maxpos pattern
        assert_eq!(from_f64(f, 1e-300), f.minpos_bits());
        assert_eq!(from_f64(f, f64::INFINITY), f.nar_bits());
        // Past f64's exponent range `to_f64` saturates at both ends: the
        // largest magnitudes to ±infinity, the tiniest to ±0.
        let (p24e6, p32e6) = (fmt(24, 6), fmt(32, 6));
        assert_eq!(to_f64(p32e6, p32e6.maxpos_bits()), f64::INFINITY);
        assert_eq!(to_f64(p32e6, p32e6.nar_bits() | 1), f64::NEG_INFINITY);
        assert_eq!(to_f64(p24e6, 0xf).to_bits(), 0.0f64.to_bits());
        assert_eq!(to_f64(p32e6, 0xffff_fec2).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn subnormal_doubles_convert() {
        let f = fmt(8, 2);
        let tiny = f64::from_bits(1); // smallest subnormal
        assert_eq!(from_f64(f, tiny), f.minpos_bits());
        assert_eq!(from_f64(f, -tiny), from_f64(f, -f.min_value()));
    }
}
