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

/// Decodes the low `n` bits of `bits` according to `fmt`, performing the
/// subnormal detection of paper Fig. 4 (hidden bit cleared, exponent
/// adjusted).
///
/// # Examples
///
/// ```
/// use dp_minifloat::{decode, FloatClass, FloatFormat, FloatUnpacked};
/// let fmt = FloatFormat::new(4, 3)?;
/// let one = FloatUnpacked { sign: false, scale: 0, sig: 1 << 63 };
/// assert_eq!(decode(fmt, 0x38), FloatClass::Finite(one)); // 0 0111 000
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
    let magnitude = encode_magnitude(fmt, scale, sig, sticky);
    // Reaching the reserved top exponent is exactly IEEE overflow.
    fmt.zero_bits(sign) | magnitude.min(fmt.inf_bits(false))
}

/// The operand word of [`encode`]`(fmt, sign, scale, sig, sticky)` clipped
/// at ±max — the paper's EMAC readout, which never overflows to infinity:
/// the rounded value in units of the smallest subnormal, signed, shifted
/// left once (bit 0, the NaN flag, clear). A word is what an exact dot
/// product consumes, so a layer can hand its rounded sums to the next
/// without encoding and decoding a pattern in between.
///
/// # Examples
///
/// ```
/// use dp_minifloat::{encode_word, FloatFormat};
/// let fmt = FloatFormat::new(4, 3)?; // smallest subnormal 2^-9
/// // 1.5 is 768 subnormal units.
/// assert_eq!(encode_word(fmt, false, 0, 0b11 << 62, false), 768 << 1);
/// // 2^20 clips to −max = −240, i.e. −240 · 2^9 units.
/// assert_eq!(encode_word(fmt, true, 20, 1 << 63, false), -(240 << 9) << 1);
/// # Ok::<(), dp_minifloat::FormatError>(())
/// ```
#[inline(always)]
pub fn encode_word(fmt: FloatFormat, sign: bool, scale: i32, sig: u64, sticky: bool) -> i64 {
    let magnitude = encode_magnitude(fmt, scale, sig, sticky);
    magnitude_word(fmt, sign, magnitude.min(fmt.max_bits(false)))
}

/// [`round_magnitude`] of `(-1)^sign × sig × 2^(scale-63)`, with `sig`
/// narrowed to `62 − we` fraction bits and everything below folded into a
/// sticky in bit 0 — below the round bit, so it can only break a tie. A
/// field past the reserved one is clamped to one past it, so every
/// overflow comes out at or above the infinity pattern's magnitude.
#[inline(always)]
fn encode_magnitude(fmt: FloatFormat, scale: i32, sig: u64, sticky: bool) -> u32 {
    debug_assert!(sig >> 63 == 1, "significand must be normalized");
    let bits = 62 - fmt.we();
    let narrowed = (sig >> (63 - bits)) | (sticky || sig << (bits + 1) != 0) as u64;
    let field = scale + fmt.bias();
    let above = (field.clamp(1, 1 << fmt.we()) - 1) as u64;
    round_magnitude(fmt, (above << bits) + narrowed, field, bits)
}

/// The one rounding step of the family: the pattern magnitude (`exponent
/// field ‖ fraction`, no sign) nearest to a value, under
/// round-to-nearest-even. `field` is the exponent field the value would
/// have as a normal; `exact` is, for `field ≥ 1`, its pattern magnitude
/// with `bits − wf` extra fraction bits — `(field − 1) << bits` plus the
/// significand, hidden bit at bit `bits` — and below the smallest normal
/// its significand at field 1's scale (hidden bit clear for a source
/// subnormal), which shifts one more place per binade: the subnormal
/// encoding.
///
/// Rounding at the pattern width is one integer add, so a carry out of the
/// fraction bumps the exponent, and an overflow lands at or past the
/// infinity pattern's magnitude; callers clip or overflow from there.
/// Needs `bits ≥ wf + 2` when `exact` holds a sticky in bit 0, and
/// `exact < 2^62`; past 63 places nothing of such a value survives.
#[inline(always)]
pub(crate) fn round_magnitude(fmt: FloatFormat, exact: u64, field: i32, bits: u32) -> u32 {
    let drop = match field >= 1 {
        true => bits - fmt.wf(),
        false => (bits - fmt.wf() + (1 - field) as u32).min(63),
    };
    let rounded = match drop {
        0 => exact,
        _ => (exact + (1 << (drop - 1)) - 1 + ((exact >> drop) & 1)) >> drop,
    };
    rounded as u32
}

/// The operand word of a finite pattern magnitude with sign `sign`: its
/// `hidden | frac` field at scale `max(exp_field, 1) − 1`, in units of the
/// smallest subnormal.
#[inline(always)]
pub(crate) fn magnitude_word(fmt: FloatFormat, sign: bool, magnitude: u32) -> i64 {
    let scale = (magnitude >> fmt.wf()).saturating_sub(1);
    let units = ((magnitude - (scale << fmt.wf())) as i64) << scale;
    let negate = -(sign as i64);
    ((units ^ negate) - negate) << 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite(c: FloatClass) -> FloatUnpacked {
        match c {
            FloatClass::Finite(u) => u,
            _ => panic!("{c:?} is not finite"),
        }
    }

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
        let u = finite(decode(f, 0x38));
        assert_eq!((u.sign, u.scale, u.sig), (false, 0, 1 << 63));
        // 0x3c = 1.5
        let u = finite(decode(f, 0x3c));
        assert_eq!((u.scale, u.sig), (0, 0b11 << 62));
        // 0xc0 = -2.0
        let u = finite(decode(f, 0xc0));
        assert_eq!((u.sign, u.scale, u.sig), (true, 1, 1 << 63));
    }

    #[test]
    fn decode_subnormals_normalize() {
        let f = fmt(4, 3);
        // smallest subnormal: frac=1 -> 2^-9
        let u = finite(decode(f, 0x01));
        assert_eq!((u.scale, u.sig), (-9, 1 << 63));
        // frac=0b101 -> 1.01b × 2^-7
        let u = finite(decode(f, 0x05));
        assert_eq!(u.scale, -7);
        assert_eq!(u.sig >> 61, 0b101);
    }

    #[test]
    fn encode_decode_roundtrip_all_finites() {
        for (we, wf) in [(2, 2), (3, 2), (3, 4), (4, 3), (5, 2), (5, 10), (8, 7)] {
            let f = fmt(we, wf);
            for bits in f.finites() {
                match decode(f, bits) {
                    FloatClass::Zero(s) => assert_eq!(f.zero_bits(s), bits),
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
        assert_eq!(finite(decode(f, one)).scale, 0);
        // 1.5 ties between 1.0 and 2.0 -> even pattern.
        let res = encode(f, false, 0, 0b11 << 62, false);
        let u = finite(decode(f, res));
        assert!(u.scale == 0 || u.scale == 1);
    }

    #[test]
    fn round_magnitude_cases() {
        let f = fmt(4, 3);
        // 1.0 (field 7) with 5 spare bits: exact, a tie to even, above a
        // tie, and a carry out of the fraction into the next binade.
        assert_eq!(round_magnitude(f, 7 << 8, 7, 8), 0x38);
        assert_eq!(round_magnitude(f, (7 << 8) | (1 << 4), 7, 8), 0x38);
        assert_eq!(round_magnitude(f, (7 << 8) | (3 << 4), 7, 8), 0x3a);
        assert_eq!(round_magnitude(f, (7 << 8) | (1 << 4) | 1, 7, 8), 0x39);
        assert_eq!(round_magnitude(f, 0x7f8, 7, 8), 0x40);
        // Below the smallest normal a field of 0 shifts one more place:
        // 2^-7 is the subnormal 0b100; half the smallest subnormal ties to
        // 0, and a field far below drops everything.
        assert_eq!(round_magnitude(f, 1 << 8, 0, 8), 0x04);
        assert_eq!(round_magnitude(f, 1 << 8, -2, 8), 0x01);
        assert_eq!(round_magnitude(f, 1 << 8, -3, 8), 0x00);
        assert_eq!(round_magnitude(f, (1 << 8) | 1, -3, 8), 0x01);
        assert_eq!(round_magnitude(f, u64::MAX >> 9, -900, 54), 0);
        // A source subnormal (no hidden bit) scales like field 1.
        assert_eq!(round_magnitude(f, 0x7f, -6, 23), 0x00);
        // Overflow lands at or past the infinity pattern, and the encoder
        // clamps fields far above it.
        assert!(round_magnitude(f, 15 << 8, 15, 8) >= f.inf_bits(false));
        assert_eq!(encode(f, true, 900, 1 << 63, false), f.inf_bits(true));
    }

    #[test]
    fn magnitude_words_count_smallest_subnormals() {
        let f = fmt(4, 3);
        assert_eq!(magnitude_word(f, false, 0x01), 2);
        assert_eq!(magnitude_word(f, false, 0x08), 8 << 1);
        assert_eq!(magnitude_word(f, true, 0x38), -(512 << 1));
        assert_eq!(magnitude_word(f, false, f.max_bits(false)), (240 << 9) << 1);
        assert_eq!(magnitude_word(f, true, 0), 0);
    }
}
