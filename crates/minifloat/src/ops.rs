//! Correctly rounded minifloat arithmetic on raw bit patterns.
//!
//! Same exactness discipline as `dp-posit`: each operation computes an
//! exact integer intermediate and rounds once, with full IEEE-754 special
//! value semantics (signed zeros, ±Inf, NaN propagation).

use crate::codec::{decode, encode, FloatClass, FloatUnpacked};
use crate::format::FloatFormat;

/// True for finite negative values and −Inf (not NaN, not −0).
pub fn is_negative(fmt: FloatFormat, a: u32) -> bool {
    match decode(fmt, a) {
        FloatClass::Finite(u) => u.sign,
        FloatClass::Inf(s) => s,
        _ => false,
    }
}

/// Addition with a single rounding (IEEE RNE).
pub fn add(fmt: FloatFormat, a: u32, b: u32) -> u32 {
    let (ua, ub) = match (decode(fmt, a), decode(fmt, b)) {
        (FloatClass::NaN, _) | (_, FloatClass::NaN) => return fmt.nan_bits(),
        (FloatClass::Inf(sa), FloatClass::Inf(sb)) => {
            return if sa == sb {
                fmt.inf_bits(sa)
            } else {
                fmt.nan_bits()
            };
        }
        (FloatClass::Inf(s), _) => return fmt.inf_bits(s),
        (_, FloatClass::Inf(s)) => return fmt.inf_bits(s),
        (FloatClass::Zero(sa), FloatClass::Zero(sb)) => {
            // RNE: +0 + -0 = +0; like signs keep the sign.
            return fmt.zero_bits(sa && sb);
        }
        (FloatClass::Zero(_), _) => return b & fmt.mask(),
        (_, FloatClass::Zero(_)) => return a & fmt.mask(),
        (FloatClass::Finite(ua), FloatClass::Finite(ub)) => (ua, ub),
    };
    add_finite(fmt, ua, ub)
}

fn add_finite(fmt: FloatFormat, ua: FloatUnpacked, ub: FloatUnpacked) -> u32 {
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
        let mut mag = hi128.wrapping_sub(lo128);
        if sticky {
            mag = mag.wrapping_sub(1);
        }
        if mag == 0 {
            return fmt.zero_bits(false); // exact cancellation -> +0 (RNE)
        }
        let lz = mag.leading_zeros();
        mag <<= lz;
        let sig = (mag >> 64) as u64;
        sticky |= mag as u64 != 0;
        encode(fmt, hi.sign, hi.scale - lz as i32, sig, sticky)
    }
}

/// Multiplication with a single rounding (IEEE RNE).
pub fn mul(fmt: FloatFormat, a: u32, b: u32) -> u32 {
    let (ua, ub) = match (decode(fmt, a), decode(fmt, b)) {
        (FloatClass::NaN, _) | (_, FloatClass::NaN) => return fmt.nan_bits(),
        (FloatClass::Inf(sa), FloatClass::Inf(sb)) => return fmt.inf_bits(sa ^ sb),
        (FloatClass::Inf(s), FloatClass::Zero(_)) | (FloatClass::Zero(_), FloatClass::Inf(s)) => {
            let _ = s;
            return fmt.nan_bits(); // 0 × ∞
        }
        (FloatClass::Inf(sa), FloatClass::Finite(u)) => return fmt.inf_bits(sa ^ u.sign),
        (FloatClass::Finite(u), FloatClass::Inf(sb)) => return fmt.inf_bits(u.sign ^ sb),
        (FloatClass::Zero(sa), FloatClass::Zero(sb)) => return fmt.zero_bits(sa ^ sb),
        (FloatClass::Zero(sa), FloatClass::Finite(u)) => return fmt.zero_bits(sa ^ u.sign),
        (FloatClass::Finite(u), FloatClass::Zero(sb)) => return fmt.zero_bits(u.sign ^ sb),
        (FloatClass::Finite(ua), FloatClass::Finite(ub)) => (ua, ub),
    };
    let prod = (ua.sig as u128) * (ub.sig as u128);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{from_f64, to_f64};

    /// Negation: the sign-bit flip.
    fn neg(fmt: FloatFormat, a: u32) -> u32 {
        a ^ fmt.zero_bits(true)
    }

    fn fmt(we: u32, wf: u32) -> FloatFormat {
        FloatFormat::new(we, wf).unwrap()
    }

    #[test]
    fn add_basic() {
        let f = fmt(4, 3);
        let one = from_f64(f, 1.0);
        let half = from_f64(f, 0.5);
        assert_eq!(to_f64(f, add(f, one, half)), 1.5);
        assert_eq!(to_f64(f, add(f, one, neg(f, half))), 0.5);
        assert_eq!(add(f, one, neg(f, one)), 0, "exact cancel -> +0");
    }

    #[test]
    fn add_special_values() {
        let f = fmt(4, 3);
        let inf = f.inf_bits(false);
        let ninf = f.inf_bits(true);
        let nan = f.nan_bits();
        let x = from_f64(f, 2.0);
        assert_eq!(add(f, inf, x), inf);
        assert_eq!(add(f, ninf, x), ninf);
        assert_eq!(decode(f, add(f, inf, ninf)), FloatClass::NaN);
        assert_eq!(decode(f, add(f, nan, x)), FloatClass::NaN);
        // Signed zero rules
        assert_eq!(
            add(f, f.zero_bits(true), f.zero_bits(true)),
            f.zero_bits(true)
        );
        assert_eq!(add(f, f.zero_bits(true), f.zero_bits(false)), 0);
        assert_eq!(add(f, f.zero_bits(true), x), x);
    }

    #[test]
    fn add_overflow_to_inf() {
        let f = fmt(4, 3);
        let max = f.max_bits(false);
        assert_eq!(add(f, max, max), f.inf_bits(false));
    }

    #[test]
    fn mul_basic_and_specials() {
        let f = fmt(4, 3);
        let a = from_f64(f, 1.5);
        let b = from_f64(f, 2.5);
        assert_eq!(to_f64(f, mul(f, a, b)), 3.75);
        assert_eq!(mul(f, a, f.zero_bits(false)), 0);
        assert_eq!(mul(f, neg(f, a), f.zero_bits(false)), f.zero_bits(true));
        assert_eq!(
            decode(f, mul(f, f.inf_bits(false), f.zero_bits(false))),
            FloatClass::NaN
        );
        assert_eq!(mul(f, f.inf_bits(false), neg(f, a)), f.inf_bits(true));
    }

    #[test]
    fn mul_underflow_is_gradual_then_zero() {
        let f = fmt(4, 3);
        let minsub = from_f64(f, f.min_value());
        let half = from_f64(f, 0.5);
        // minsub × 0.5 ties with zero -> 0 (even)
        assert_eq!(mul(f, minsub, half), 0);
        // 3×minsub × 0.5 = 1.5 minsub -> rounds to 2 minsub (even)
        let three = from_f64(f, 3.0 * f.min_value());
        assert_eq!(to_f64(f, mul(f, three, half)), 2.0 * f.min_value());
    }

    #[test]
    fn neg_abs_patterns() {
        let f = fmt(4, 3);
        let a = from_f64(f, -1.5);
        // |a| of a negative is its sign flip.
        assert!(!is_negative(f, neg(f, a)));
        assert_eq!(to_f64(f, neg(f, a)), 1.5);
        assert!(is_negative(f, a));
        assert!(!is_negative(f, f.zero_bits(true)));
        assert!(is_negative(f, f.inf_bits(true)));
    }
}
