//! Minifloat decode / encode with IEEE-754 round-to-nearest-even.

use crate::format::FloatFormat;

/// A decoded finite nonzero minifloat:
/// `value = (-1)^sign × sig × 2^(scale - 63)` with `sig`'s MSB set.
/// Subnormals are normalized into this form during decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloatUnpacked {
    /// Sign bit (true = negative).
    pub sign: bool,
    /// Unbiased binary scale.
    pub scale: i32,
    /// Left-aligned significand with the hidden/normalized bit at position 63.
    pub sig: u64,
}

/// Classification of a minifloat bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloatClass {
    /// ±0 (sign preserved).
    Zero(bool),
    /// A finite nonzero value (normal or subnormal).
    Finite(FloatUnpacked),
    /// ±infinity.
    Inf(bool),
    /// Not a number.
    NaN,
}

impl FloatClass {
    /// Returns the unpacked fields, or `None` for zero / Inf / NaN.
    pub fn finite(self) -> Option<FloatUnpacked> {
        match self {
            FloatClass::Finite(u) => Some(u),
            _ => None,
        }
    }
}

/// Decodes the low `n` bits of `bits` according to `fmt`, performing the
/// subnormal detection of paper Fig. 4 (hidden bit cleared, exponent
/// adjusted).
///
/// # Examples
///
/// ```
/// use dp_minifloat::{decode, FloatClass, FloatFormat};
/// let fmt = FloatFormat::new(4, 3)?;
/// let one = decode(fmt, 0x38).finite().unwrap(); // 0 0111 000
/// assert_eq!((one.sign, one.scale, one.sig), (false, 0, 1 << 63));
/// assert_eq!(decode(fmt, 0x78), FloatClass::Inf(false));
/// # Ok::<(), dp_minifloat::FormatError>(())
/// ```
pub fn decode(fmt: FloatFormat, bits: u32) -> FloatClass {
    let bits = bits & fmt.mask();
    let (we, wf) = (fmt.we(), fmt.wf());
    let sign = bits >> (fmt.n() - 1) == 1;
    let exp_field = (bits >> wf) & ((1 << we) - 1);
    let frac = bits & ((1u32 << wf) - 1);
    if exp_field == (1 << we) - 1 {
        return if frac == 0 {
            FloatClass::Inf(sign)
        } else {
            FloatClass::NaN
        };
    }
    if exp_field == 0 {
        if frac == 0 {
            return FloatClass::Zero(sign);
        }
        // Subnormal: value = frac × 2^(1 − bias − wf); normalize.
        let lz = (frac as u64).leading_zeros();
        let sig = (frac as u64) << lz;
        let scale = fmt.min_normal_scale() - wf as i32 + (63 - lz as i32);
        return FloatClass::Finite(FloatUnpacked { sign, scale, sig });
    }
    let sig = ((1u64 << wf) | frac as u64) << (63 - wf);
    let scale = exp_field as i32 - fmt.bias();
    FloatClass::Finite(FloatUnpacked { sign, scale, sig })
}

/// Encodes `(-1)^sign × sig × 2^(scale-63)` (with `sig`'s MSB set) into the
/// nearest minifloat under IEEE round-to-nearest-even, producing subnormals,
/// ±0 on underflow and ±Inf on overflow. `sticky` marks discarded low bits.
///
/// # Panics
///
/// Panics in debug builds if `sig`'s MSB is not set.
#[inline]
pub fn encode(fmt: FloatFormat, sign: bool, scale: i32, sig: u64, sticky: bool) -> u32 {
    debug_assert!(sig >> 63 == 1, "significand must be normalized");
    let wf = fmt.wf();
    if scale > fmt.max_scale() + 1 {
        // At least one binade above the top: overflows past max + ulp/2.
        return fmt.inf_bits(sign);
    }
    // Build an integer pattern (exp_field << wf | frac) plus guard/sticky and
    // round it as one integer so carries ripple naturally across binades.
    let (exp_field, frac_shift_extra) = if scale < fmt.min_normal_scale() {
        // Subnormal: exponent field 0, fraction shifted right further.
        (0u32, (fmt.min_normal_scale() - scale) as u32)
    } else {
        ((scale + fmt.bias()) as u32, 0)
    };
    // frac = top wf bits of sig below the hidden bit, shifted right extra for
    // subnormals (the hidden bit then becomes part of the fraction).
    let keep_bits = 64 - 1 - wf; // bits of sig dropped for a normal encode
    let total_drop = keep_bits as u64 + frac_shift_extra as u64;
    let (kept, round, rest_nonzero) = if frac_shift_extra == 0 {
        // Normal: drop the hidden bit (it is implied).
        let body = sig & !(1u64 << 63);
        shift_with_grs(body, keep_bits as u64)
    } else {
        // Subnormal: the hidden bit stays in the shifted fraction.
        shift_with_grs(sig, total_drop)
    };
    let sticky_all = sticky || rest_nonzero;
    let mut pattern = ((exp_field as u64) << wf) | kept;
    if round && (sticky_all || pattern & 1 == 1) {
        pattern += 1;
    }
    // A carry out of the fraction bumps the exponent; reaching the reserved
    // top exponent is exactly IEEE overflow-to-infinity.
    if (pattern >> wf) as u32 >= (1 << fmt.we()) - 1 {
        return fmt.inf_bits(sign);
    }
    fmt.zero_bits(sign) | pattern as u32
}

/// Splits `v >> drop` into (kept value, round bit, sticky-of-rest).
#[inline]
fn shift_with_grs(v: u64, drop: u64) -> (u64, bool, bool) {
    if drop == 0 {
        return (v, false, false);
    }
    if drop > 64 {
        return (0, false, v != 0);
    }
    if drop == 64 {
        return (0, v >> 63 == 1, v & ((1u64 << 63) - 1) != 0);
    }
    let kept = v >> drop;
    let round = (v >> (drop - 1)) & 1 == 1;
    let rest = v & ((1u64 << (drop - 1)) - 1) != 0;
    (kept, round, rest)
}

/// The ±0 pattern.
pub fn encode_zero(fmt: FloatFormat, sign: bool) -> u32 {
    fmt.zero_bits(sign)
}

/// The ±Inf pattern.
pub fn encode_inf(fmt: FloatFormat, sign: bool) -> u32 {
    fmt.inf_bits(sign)
}

/// The canonical NaN pattern.
pub fn encode_nan(fmt: FloatFormat) -> u32 {
    fmt.nan_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt(we: u32, wf: u32) -> FloatFormat {
        FloatFormat::new(we, wf).unwrap()
    }

    #[test]
    fn decode_specials() {
        let f = fmt(4, 3);
        assert_eq!(decode(f, 0x00), FloatClass::Zero(false));
        assert_eq!(decode(f, 0x80), FloatClass::Zero(true));
        assert_eq!(decode(f, 0x78), FloatClass::Inf(false));
        assert_eq!(decode(f, 0xf8), FloatClass::Inf(true));
        assert_eq!(decode(f, 0x79), FloatClass::NaN);
        assert_eq!(decode(f, 0x7c), FloatClass::NaN);
    }

    #[test]
    fn decode_normals() {
        let f = fmt(4, 3);
        // 0x38 = 0 0111 000 = 1.0
        let u = decode(f, 0x38).finite().unwrap();
        assert_eq!((u.sign, u.scale, u.sig), (false, 0, 1 << 63));
        // 0x3c = 1.5
        let u = decode(f, 0x3c).finite().unwrap();
        assert_eq!((u.scale, u.sig), (0, 0b11 << 62));
        // 0xc0 = -2.0
        let u = decode(f, 0xc0).finite().unwrap();
        assert_eq!((u.sign, u.scale, u.sig), (true, 1, 1 << 63));
    }

    #[test]
    fn decode_subnormals_normalize() {
        let f = fmt(4, 3);
        // smallest subnormal: frac=1 -> 2^-9
        let u = decode(f, 0x01).finite().unwrap();
        assert_eq!((u.scale, u.sig), (-9, 1 << 63));
        // frac=0b101 -> 1.01b × 2^-7
        let u = decode(f, 0x05).finite().unwrap();
        assert_eq!(u.scale, -7);
        assert_eq!(u.sig >> 61, 0b101);
    }

    #[test]
    fn encode_decode_roundtrip_all_finites() {
        for (we, wf) in [(2, 2), (3, 2), (3, 4), (4, 3), (5, 2), (5, 10), (8, 7)] {
            let f = fmt(we, wf);
            for bits in f.finites() {
                match decode(f, bits) {
                    FloatClass::Zero(s) => assert_eq!(encode_zero(f, s), bits),
                    FloatClass::Finite(u) => {
                        assert_eq!(
                            encode(f, u.sign, u.scale, u.sig, false),
                            bits,
                            "{f} {bits:#x}"
                        );
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn encode_overflow_and_boundary() {
        let f = fmt(4, 3);
        // Well above max -> Inf.
        assert_eq!(encode(f, false, 20, 1 << 63, false), f.inf_bits(false));
        // max value exactly: 1.111 × 2^7 = 240
        assert_eq!(encode(f, false, 7, 0b1111 << 60, false), 0x77);
        // Just above max but below max + ulp/2 rounds down to max:
        // round bit clear, sticky set.
        assert_eq!(encode(f, false, 7, 0b11110 << 59, true), 0x77);
        let just_above = (0b1111u64 << 60) | (1 << 55);
        assert_eq!(encode(f, false, 7, just_above, false), 0x77);
        // Midpoint 1.1111 × 2^7 (= max + ulp/2) exactly: tie -> even -> Inf.
        assert_eq!(encode(f, false, 7, 0b11111 << 59, false), f.inf_bits(false));
    }

    #[test]
    fn encode_subnormal_and_underflow() {
        let f = fmt(4, 3);
        // 2^-9 = smallest subnormal
        assert_eq!(encode(f, false, -9, 1 << 63, false), 0x01);
        // 2^-10 is exactly half the smallest subnormal: tie with 0 -> even -> 0
        assert_eq!(encode(f, false, -10, 1 << 63, false), 0x00);
        // slightly more than half rounds up to the smallest subnormal
        assert_eq!(encode(f, false, -10, 1 << 63, true), 0x01);
        // far below underflows to (signed) zero
        assert_eq!(encode(f, true, -40, 1 << 63, false), 0x80);
        // subnormal rounding carry into the smallest normal:
        // largest subnormal is 0.111×2^-6; 0.1111×2^-6 rounds to 1.0×2^-6
        let v = 0b1111u64 << 60; // 1.111 × 2^(scale), choose scale -7 => 0.1111×2^-6
        assert_eq!(encode(f, false, -7, v, false), 0x08);
    }

    #[test]
    fn ties_to_even_in_fraction() {
        let f = fmt(4, 3);
        // 1.0001 is halfway between 1.000 and 1.001 -> even (1.000)
        let halfway = (1u64 << 63) | (1u64 << 59);
        assert_eq!(encode(f, false, 0, halfway, false), 0x38);
        // 1.0011 is halfway between 1.001 and 1.010 -> 1.010
        let halfway_odd = (1u64 << 63) | (0b11u64 << 59);
        assert_eq!(encode(f, false, 0, halfway_odd, false), 0x3a);
    }

    #[test]
    fn wf_zero_formats_work() {
        let f = fmt(3, 0);
        // Values are ±2^k only. 1.0 = exp field bias = 3 -> bits 0 011.
        let one = encode(f, false, 0, 1 << 63, false);
        assert_eq!(decode(f, one).finite().unwrap().scale, 0);
        // 1.5 ties between 1.0 and 2.0 -> even pattern.
        let res = encode(f, false, 0, 0b11 << 62, false);
        let u = decode(f, res).finite().unwrap();
        assert!(u.scale == 0 || u.scale == 1);
    }

    #[test]
    fn shift_with_grs_cases() {
        assert_eq!(shift_with_grs(0b1011, 0), (0b1011, false, false));
        assert_eq!(shift_with_grs(0b1011, 1), (0b101, true, false));
        assert_eq!(shift_with_grs(0b1011, 2), (0b10, true, true));
        assert_eq!(shift_with_grs(0b1000, 3), (0b1, false, false));
        assert_eq!(shift_with_grs(u64::MAX, 64), (0, true, true));
        assert_eq!(shift_with_grs(1, 65), (0, false, true));
    }
}
