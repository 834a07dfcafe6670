//! Posit data extraction (paper Algorithm 1).
//!
//! Decoding turns an `n`-bit pattern into sign, regime, exponent and
//! fraction. The regime field has dynamic width (unary run-length code,
//! paper Table I), which is what makes this step nontrivial in hardware;
//! in software we mirror the same two's-complement + leading-zero-count
//! structure the paper uses.

use crate::format::PositFormat;

/// A decoded finite nonzero posit:
/// `value = (-1)^sign × sig × 2^(scale - 63)` with `sig`'s MSB set
/// (i.e. the significand `1.f` left-aligned in a `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unpacked {
    /// Sign bit (true = negative).
    pub sign: bool,
    /// Binary scale `k·2^es + e` (paper eq. 2 collapsed to a power of two).
    pub scale: i32,
    /// Left-aligned significand with the hidden bit at position 63.
    pub sig: u64,
}

/// Result of decoding a posit bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// The all-zeros pattern.
    Zero,
    /// "Not a Real" (`1 0...0`): infinities, 0/0, sqrt(-1), ...
    NaR,
    /// A finite nonzero value.
    Finite(Unpacked),
}

/// Decodes the low `n` bits of `bits` according to `fmt`.
///
/// Mirrors paper Algorithm 1: take the two's complement when negative,
/// use a regime-check bit to fold leading-ones runs into leading-zeros
/// (so a single leading-zero detector suffices), then split exponent and
/// fraction. Regime/exponent fields truncated by the width are read as if
/// the pattern were zero-extended, per the posit standard.
///
/// # Examples
///
/// ```
/// use dp_posit::{decode, Decoded, PositFormat, Unpacked};
/// let fmt = PositFormat::new(8, 0)?;
/// let one = Unpacked { sign: false, scale: 0, sig: 1 << 63 };
/// assert_eq!(decode(fmt, 0x40), Decoded::Finite(one));
/// assert_eq!(decode(fmt, 0x00), Decoded::Zero);
/// assert_eq!(decode(fmt, 0x80), Decoded::NaR);
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
pub fn decode(fmt: PositFormat, bits: u32) -> Decoded {
    let n = fmt.n();
    let x = bits & fmt.mask();
    if x == 0 {
        return Decoded::Zero;
    }
    if x == fmt.nar_bits() {
        return Decoded::NaR;
    }
    let sign = (x >> (n - 1)) & 1 == 1;
    // Two's complement of the n-bit field for negative inputs (Alg. 1 line 4).
    let y = if sign {
        x.wrapping_neg() & fmt.mask()
    } else {
        x
    };
    // Left-align the n-1 body bits (below the sign) at bit 63. Bits below the
    // body are zero, which matches the zero-extension decode convention.
    let body = (y as u64) << (65 - n);
    // Regime check (Alg. 1 line 5): fold a ones-run into a zeros-run.
    let rc = body >> 63 == 1;
    let inv = if rc { !body } else { body };
    let run = inv.leading_zeros(); // >= 1
    let k: i32 = if rc { run as i32 - 1 } else { -(run as i32) };
    // Shift out regime and its terminator (possibly virtual past the width).
    let consumed = run + 1;
    let rest = if consumed >= 64 { 0 } else { body << consumed };
    let es = fmt.es();
    let exp = if es == 0 {
        0
    } else {
        (rest >> (64 - es)) as i32
    };
    let frac = if es == 0 { rest } else { rest << es };
    let sig = (1u64 << 63) | (frac >> 1);
    let scale = k * (1i32 << es) + exp;
    Decoded::Finite(Unpacked { sign, scale, sig })
}

/// Returns the regime value `k` of a finite posit (paper Table I), mainly
/// useful for diagnostics and for reproducing Table I.
pub fn regime(fmt: PositFormat, bits: u32) -> Option<i32> {
    match decode(fmt, bits) {
        Decoded::Finite(u) => Some(u.scale.div_euclid(fmt.useed_log2())),
        _ => None,
    }
}

#[cfg(test)]
// Binary literals below are grouped by posit field (sign_regime_exp_frac),
// not by nibble — that is the point of the tests.
#[allow(clippy::unusual_byte_groupings)]
mod tests {
    use super::*;

    fn fmt(n: u32, es: u32) -> PositFormat {
        PositFormat::new(n, es).unwrap()
    }

    fn finite(d: Decoded) -> Unpacked {
        match d {
            Decoded::Finite(u) => u,
            _ => panic!("{d:?} is not finite"),
        }
    }

    fn scale_of(f: PositFormat, bits: u32) -> i32 {
        finite(decode(f, bits)).scale
    }

    #[test]
    fn specials() {
        let f = fmt(8, 1);
        assert_eq!(decode(f, 0), Decoded::Zero);
        assert_eq!(decode(f, 0x80), Decoded::NaR);
        assert_eq!(decode(f, 0x100), Decoded::Zero, "masks to width");
    }

    #[test]
    fn p8e0_known_values() {
        let f = fmt(8, 0);
        // 0x40 = +1.0
        let u = finite(decode(f, 0x40));
        assert_eq!((u.sign, u.scale, u.sig), (false, 0, 1 << 63));
        // 0x60 = regime 110 -> k=1 -> 2.0
        assert_eq!(scale_of(f, 0x60), 1);
        // 0x20 = regime 01 -> k=-1 -> 0.5
        assert_eq!(scale_of(f, 0x20), -1);
        // maxpos 0x7f: regime all ones -> k = n-2 = 6
        assert_eq!(scale_of(f, 0x7f), 6);
        // minpos 0x01: regime 0000001 -> k = -6
        assert_eq!(scale_of(f, 0x01), -6);
        // 0x48 = 0 10 01000 -> 1.f = 1.01 -> 1.25
        let u = finite(decode(f, 0x48));
        assert_eq!(u.scale, 0);
        assert_eq!(u.sig, (1u64 << 63) | (1u64 << 61));
    }

    #[test]
    fn negative_values_use_twos_complement() {
        let f = fmt(8, 0);
        // -1.0 is the two's complement of 0x40: 0xc0
        let u = finite(decode(f, 0xc0));
        assert_eq!((u.sign, u.scale, u.sig), (true, 0, 1 << 63));
        // -0.5: two's complement of 0x20 -> 0xe0
        let u = finite(decode(f, 0xe0));
        assert_eq!((u.sign, u.scale), (true, -1));
    }

    #[test]
    fn paper_table_i_regimes() {
        // Table I: 0001 -> -3, 001 -> -2, 01 -> -1, 10 -> 0, 110 -> 1, 1110 -> 2.
        // Embed each run in a 6-bit es=0 posit body (sign 0) padded with zeros.
        let f = fmt(6, 0);
        assert_eq!(regime(f, 0b0_00010), Some(-3));
        assert_eq!(regime(f, 0b0_00100), Some(-2));
        assert_eq!(regime(f, 0b0_01000), Some(-1));
        assert_eq!(regime(f, 0b0_10000), Some(0));
        assert_eq!(regime(f, 0b0_11000), Some(1));
        assert_eq!(regime(f, 0b0_11100), Some(2));
    }

    #[test]
    fn exponent_field_extraction() {
        let f = fmt(8, 2);
        // 0 10 11 000: k=0, e=3 -> scale 3
        assert_eq!(scale_of(f, 0b0_10_11_000), 3);
        // 0 110 10 00: k=1, e=2 -> scale 4*1+2 = 6
        assert_eq!(scale_of(f, 0b0_110_10_00), 6);
    }

    #[test]
    fn truncated_exponent_reads_as_zero_extension() {
        let f = fmt(8, 2);
        // 0 111110 1: regime k=4 (run 5), only one exponent bit "1" visible,
        // zero-extended exponent = 0b10 = 2 -> scale = 4*4 + 2 = 18.
        assert_eq!(scale_of(f, 0b0_111110_1), 18);
        // maxpos: all ones regime, k = 6, scale = 24
        assert_eq!(scale_of(f, 0x7f), 24);
    }

    #[test]
    fn fraction_is_left_aligned_after_exponent() {
        let f = fmt(8, 1);
        // 0 10 1 1010: k=0, e=1, f=1010 -> sig = 1.1010, scale 1
        let u = finite(decode(f, 0b0_10_1_1010));
        assert_eq!(u.scale, 1);
        assert_eq!(u.sig >> 59, 0b11010);
        assert_eq!(u.sig & ((1 << 59) - 1), 0);
    }

    #[test]
    fn n32_widest_format() {
        let f = fmt(32, 2);
        let one = f.one_bits();
        assert_eq!(scale_of(f, one), 0);
        assert_eq!(scale_of(f, f.maxpos_bits()), f.max_scale());
        assert_eq!(scale_of(f, 1), -f.max_scale());
    }
}
