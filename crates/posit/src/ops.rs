//! Correctly rounded posit arithmetic on raw bit patterns.
//!
//! Every operation computes an exact `(sign, scale, significand, sticky)`
//! intermediate in integer arithmetic and rounds exactly once through
//! [`crate::encode`](mod@crate::encode). NaR propagates; posits never overflow to NaR from
//! finite inputs (they saturate at ±maxpos) and never underflow to zero.

use crate::decode::{decode, Decoded, Unpacked};
use crate::encode::encode;
use crate::format::PositFormat;

/// Negation. Exact for every posit: the two's complement of the pattern.
/// `-0 = 0` and `-NaR = NaR` fall out of the encoding.
#[inline]
pub fn neg(fmt: PositFormat, a: u32) -> u32 {
    a.wrapping_neg() & fmt.mask()
}

/// True if the pattern represents a negative real (NaR is not negative).
#[inline]
pub fn is_negative(fmt: PositFormat, a: u32) -> bool {
    let a = a & fmt.mask();
    a != fmt.nar_bits() && (a >> (fmt.n() - 1)) & 1 == 1
}

/// Addition with a single rounding.
pub fn add(fmt: PositFormat, a: u32, b: u32) -> u32 {
    let (ua, ub) = match specials(fmt, a, b) {
        Specials::Result(r) => return r,
        Specials::Finite(ua, ub) => (ua, ub),
    };
    // Order by magnitude so hi dominates.
    let (hi, lo) = if (ua.scale, ua.sig) >= (ub.scale, ub.sig) {
        (ua, ub)
    } else {
        (ub, ua)
    };
    let d = (hi.scale - lo.scale) as u32;
    let hi128 = (hi.sig as u128) << 64;
    let lo_full = (lo.sig as u128) << 64;
    let (lo128, mut sticky) = if d == 0 {
        (lo_full, false)
    } else if d < 128 {
        (lo_full >> d, lo_full & ((1u128 << d) - 1) != 0)
    } else {
        (0, true)
    };

    if hi.sign == lo.sign {
        let (sum, carry) = hi128.overflowing_add(lo128);
        let (sum, scale_inc) = if carry {
            sticky |= sum & 1 == 1;
            ((sum >> 1) | (1u128 << 127), 1)
        } else {
            (sum, 0)
        };
        let sig = (sum >> 64) as u64;
        sticky |= sum as u64 != 0;
        encode(fmt, hi.sign, hi.scale + scale_inc, sig, sticky)
    } else {
        // Magnitude subtraction. When low bits of `lo` were discarded the
        // true difference is (hi - lo128) - tail with tail in (0,1) ulp, so
        // borrow one ulp and keep sticky set — standard guard/sticky trick.
        let mut mag = hi128.wrapping_sub(lo128);
        if sticky {
            mag = mag.wrapping_sub(1);
        }
        if mag == 0 {
            return fmt.zero_bits(); // exact cancellation (sticky implies mag>0)
        }
        let lz = mag.leading_zeros();
        // Cancellation of more than one bit only happens for d <= 1, which is
        // exact (sticky = false), so shifting in zeros is sound.
        mag <<= lz;
        let sig = (mag >> 64) as u64;
        sticky |= mag as u64 != 0;
        encode(fmt, hi.sign, hi.scale - lz as i32, sig, sticky)
    }
}

/// Multiplication with a single rounding.
pub fn mul(fmt: PositFormat, a: u32, b: u32) -> u32 {
    let (ua, ub) = match specials_mul(fmt, a, b) {
        Specials::Result(r) => return r,
        Specials::Finite(ua, ub) => (ua, ub),
    };
    let prod = (ua.sig as u128) * (ub.sig as u128); // in [2^126, 2^128)
    let sign = ua.sign ^ ub.sign;
    let (sig, sticky, scale) = if prod >> 127 == 1 {
        (
            (prod >> 64) as u64,
            prod as u64 != 0,
            ua.scale + ub.scale + 1,
        )
    } else {
        (
            (prod >> 63) as u64,
            prod & ((1u128 << 63) - 1) != 0,
            ua.scale + ub.scale,
        )
    };
    encode(fmt, sign, scale, sig, sticky)
}

enum Specials {
    Result(u32),
    Finite(Unpacked, Unpacked),
}

fn specials(fmt: PositFormat, a: u32, b: u32) -> Specials {
    let (a, b) = (a & fmt.mask(), b & fmt.mask());
    let nar = fmt.nar_bits();
    if a == nar || b == nar {
        return Specials::Result(nar);
    }
    match (decode(fmt, a), decode(fmt, b)) {
        (Decoded::Zero, _) => Specials::Result(b),
        (_, Decoded::Zero) => Specials::Result(a),
        (Decoded::Finite(ua), Decoded::Finite(ub)) => Specials::Finite(ua, ub),
        _ => unreachable!("NaR handled above"),
    }
}

fn specials_mul(fmt: PositFormat, a: u32, b: u32) -> Specials {
    let (a, b) = (a & fmt.mask(), b & fmt.mask());
    let nar = fmt.nar_bits();
    if a == nar || b == nar {
        return Specials::Result(nar);
    }
    if a == 0 || b == 0 {
        return Specials::Result(0);
    }
    match (decode(fmt, a), decode(fmt, b)) {
        (Decoded::Finite(ua), Decoded::Finite(ub)) => Specials::Finite(ua, ub),
        _ => unreachable!("specials handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{from_f64, to_f64};

    fn fmt(n: u32, es: u32) -> PositFormat {
        PositFormat::new(n, es).unwrap()
    }

    #[test]
    fn add_simple_values() {
        let f = fmt(8, 0);
        let one = from_f64(f, 1.0);
        let half = from_f64(f, 0.5);
        assert_eq!(to_f64(f, add(f, one, half)), 1.5);
        assert_eq!(to_f64(f, add(f, one, one)), 2.0);
        assert_eq!(to_f64(f, add(f, half, neg(f, one))), -0.5);
    }

    #[test]
    fn add_specials() {
        let f = fmt(8, 1);
        let nar = f.nar_bits();
        let x = from_f64(f, 3.0);
        assert_eq!(add(f, nar, x), nar);
        assert_eq!(add(f, x, nar), nar);
        assert_eq!(add(f, 0, x), x);
        assert_eq!(add(f, x, 0), x);
        assert_eq!(add(f, x, neg(f, x)), 0);
    }

    #[test]
    fn add_saturates_at_maxpos() {
        let f = fmt(8, 0);
        let maxpos = f.maxpos_bits();
        assert_eq!(add(f, maxpos, maxpos), maxpos);
    }

    #[test]
    fn mul_simple_values() {
        let f = fmt(8, 0);
        let a = from_f64(f, 1.5);
        let b = from_f64(f, 2.0);
        assert_eq!(to_f64(f, mul(f, a, b)), 3.0);
        assert_eq!(mul(f, a, 0), 0);
        assert_eq!(mul(f, f.nar_bits(), 0), f.nar_bits());
    }

    #[test]
    fn mul_never_underflows_to_zero() {
        let f = fmt(8, 2);
        let minpos = f.minpos_bits();
        assert_eq!(mul(f, minpos, minpos), minpos);
    }

    #[test]
    fn neg_and_abs() {
        let f = fmt(8, 2);
        let x = from_f64(f, -2.5);
        assert_eq!(to_f64(f, neg(f, x)), 2.5);
        // |x| of a negative real is its negation.
        assert!(!is_negative(f, neg(f, x)));
        assert_eq!(neg(f, 0), 0);
        assert_eq!(neg(f, f.nar_bits()), f.nar_bits());
        assert!(is_negative(f, x));
        assert!(!is_negative(f, f.nar_bits()));
    }
}
