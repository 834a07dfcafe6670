//! Exhaustive validation of 8-bit-and-below minifloat arithmetic against an
//! independent value-space oracle built on `dp_posit::exact::Dyadic`.
//!
//! IEEE-754 rounding is round-to-nearest in *value* space with ties to even
//! mantissa, so the oracle locates the exact result between two adjacent
//! patterns (pattern order == value order for positive IEEE floats,
//! subnormals included) and compares against their arithmetic midpoint.

use dp_minifloat::{decode, ops, FloatClass, FloatFormat};
use dp_posit::exact::Dyadic;
use std::cmp::Ordering;

const FORMATS: &[(u32, u32)] = &[
    (2, 2),
    (2, 3),
    (3, 2),
    (3, 3),
    (3, 4),
    (4, 2),
    (4, 3),
    (5, 2),
];

fn fmt(we: u32, wf: u32) -> FloatFormat {
    FloatFormat::new(we, wf).unwrap()
}

/// Independent pattern → value computation (does not use crate decode).
fn pattern_value(f: FloatFormat, bits: u32) -> f64 {
    let (we, wf) = (f.we(), f.wf());
    let sign = if bits >> (f.n() - 1) == 1 { -1.0 } else { 1.0 };
    let exp = (bits >> wf) & ((1 << we) - 1);
    let frac = (bits & ((1 << wf) - 1)) as f64;
    let bias = (1i32 << (we - 1)) - 1;
    assert_ne!(exp, (1 << we) - 1, "finite patterns only");
    if exp == 0 {
        sign * frac * 2f64.powi(1 - bias - wf as i32)
    } else {
        sign * (2f64.powi(wf as i32) + frac) * 2f64.powi(exp as i32 - bias - wf as i32)
    }
}

/// Positive-domain midpoint between adjacent patterns `p` and `p+1`.
fn midpoint(f: FloatFormat, p: u32) -> Dyadic {
    let mut m =
        Dyadic::from_f64(pattern_value(f, p)).add(Dyadic::from_f64(pattern_value(f, p + 1)));
    if !m.is_zero() {
        m.exp -= 1;
    }
    m
}

/// Overflow threshold: max + ulp_top/2 (at or above rounds to infinity).
fn overflow_bound(f: FloatFormat) -> Dyadic {
    let max_scale = (1i32 << (f.we() - 1)) - 1; // expmax − bias = bias
    let ulp_half = Dyadic::from_f64(2f64.powi(max_scale - f.wf() as i32 - 1));
    Dyadic::from_f64(f.max_value()).add(ulp_half)
}

/// Value-space RNE oracle for finite exact values.
fn round_oracle(f: FloatFormat, d: Dyadic) -> u32 {
    if d.is_zero() {
        return 0; // +0
    }
    let sign = d.sign;
    let mag = Dyadic { sign: false, ..d };
    let signbit = (sign as u32) << (f.n() - 1);
    match mag.cmp_value(overflow_bound(f)) {
        Ordering::Less => {}
        // tie or above: overflow to infinity (the hypothetical next value
        // has an even mantissa, so the tie also goes up)
        _ => return f.inf_bits(sign),
    }
    let max_pat = f.max_bits(false);
    if mag.cmp_value(Dyadic::from_f64(f.max_value())) == Ordering::Greater {
        return signbit | max_pat; // in (max, max + ulp/2)
    }
    // Binary search: largest positive pattern with value <= mag.
    let (mut lo, mut hi) = (0u32, max_pat);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match Dyadic::from_f64(pattern_value(f, mid)).cmp_value(mag) {
            Ordering::Greater => hi = mid,
            Ordering::Equal => return signbit | mid,
            Ordering::Less => lo = mid,
        }
    }
    if Dyadic::from_f64(pattern_value(f, hi)).cmp_value(mag) != Ordering::Greater {
        lo = hi; // mag == value(hi) (or mag == max)
    }
    if Dyadic::from_f64(pattern_value(f, lo)) == mag {
        return signbit | lo;
    }
    let m = midpoint(f, lo);
    let chosen = match mag.cmp_value(m) {
        Ordering::Less => lo,
        Ordering::Greater => lo + 1,
        Ordering::Equal => {
            if lo & 1 == 0 {
                lo
            } else {
                lo + 1
            }
        }
    };
    signbit | chosen
}

fn is_zero_pat(f: FloatFormat, p: u32) -> Option<bool> {
    match decode(f, p) {
        FloatClass::Zero(s) => Some(s),
        _ => None,
    }
}

#[test]
fn add_matches_oracle_exhaustively() {
    for &(we, wf) in FORMATS {
        let f = fmt(we, wf);
        let finites: Vec<u32> = f.finites().collect();
        for &a in &finites {
            let va = Dyadic::from_f64(pattern_value(f, a));
            for &b in &finites {
                let got = ops::add(f, a, b);
                let expected = match (is_zero_pat(f, a), is_zero_pat(f, b)) {
                    (Some(sa), Some(sb)) => f.zero_bits(sa && sb),
                    (Some(_), None) => b,
                    (None, Some(_)) => a,
                    (None, None) => {
                        let exact = va.add(Dyadic::from_f64(pattern_value(f, b)));
                        if exact.is_zero() {
                            0 // x + (-x) = +0 under RNE
                        } else {
                            round_oracle(f, exact)
                        }
                    }
                };
                assert_eq!(got, expected, "{f}: {a:#x} + {b:#x}");
            }
        }
    }
}

#[test]
fn mul_matches_oracle_exhaustively() {
    for &(we, wf) in FORMATS {
        let f = fmt(we, wf);
        let finites: Vec<u32> = f.finites().collect();
        for &a in &finites {
            let va = Dyadic::from_f64(pattern_value(f, a));
            let sa = a >> (f.n() - 1) == 1;
            for &b in &finites {
                let got = ops::mul(f, a, b);
                let sb = b >> (f.n() - 1) == 1;
                let expected = if is_zero_pat(f, a).is_some() || is_zero_pat(f, b).is_some() {
                    f.zero_bits(sa ^ sb)
                } else {
                    let exact = va.mul(Dyadic::from_f64(pattern_value(f, b)));
                    let r = round_oracle(f, exact);
                    // underflow to zero keeps the product sign
                    if r & (f.mask() >> 1) == 0 {
                        f.zero_bits(sa ^ sb)
                    } else {
                        r
                    }
                };
                assert_eq!(got, expected, "{f}: {a:#x} * {b:#x}");
            }
        }
    }
}

#[test]
fn oracle_sanity_every_pattern_rounds_to_itself() {
    for &(we, wf) in FORMATS {
        let f = fmt(we, wf);
        for bits in f.finites() {
            if is_zero_pat(f, bits).is_some() {
                continue;
            }
            let d = Dyadic::from_f64(pattern_value(f, bits));
            assert_eq!(round_oracle(f, d), bits, "{f} {bits:#x}");
        }
    }
}
