//! Property-based tests for minifloat arithmetic across formats.

use dp_minifloat::{decode, ops, FloatClass, FloatFormat};
use proptest::prelude::*;

fn formats() -> impl Strategy<Value = FloatFormat> {
    prop_oneof![
        Just(FloatFormat::new(2, 2).unwrap()),
        Just(FloatFormat::new(3, 2).unwrap()),
        Just(FloatFormat::new(3, 4).unwrap()),
        Just(FloatFormat::new(4, 3).unwrap()),
        Just(FloatFormat::new(5, 2).unwrap()),
        Just(FloatFormat::new(5, 10).unwrap()),
        Just(FloatFormat::new(8, 7).unwrap()),
        Just(FloatFormat::new(8, 23).unwrap()),
    ]
}

prop_compose! {
    fn fmt_and_patterns()(f in formats())(
        f in Just(f),
        a in 0u32..=u32::MAX,
        b in 0u32..=u32::MAX,
    ) -> (FloatFormat, u32, u32) {
        (f, a & f.mask(), b & f.mask())
    }
}

fn is_nan(f: FloatFormat, x: u32) -> bool {
    matches!(decode(f, x), FloatClass::NaN)
}

proptest! {
    #[test]
    fn f64_roundtrip((f, a, _b) in fmt_and_patterns()) {
        prop_assume!(!is_nan(f, a));
        let v = dp_minifloat::convert::to_f64(f, a);
        prop_assert_eq!(dp_minifloat::convert::from_f64(f, v), a);
    }

    #[test]
    fn add_commutes((f, a, b) in fmt_and_patterns()) {
        prop_assert_eq!(ops::add(f, a, b), ops::add(f, b, a));
    }

    #[test]
    fn mul_commutes((f, a, b) in fmt_and_patterns()) {
        prop_assert_eq!(ops::mul(f, a, b), ops::mul(f, b, a));
    }

    #[test]
    fn add_matches_f64_when_exact((f, a, b) in fmt_and_patterns()) {
        // f64 carries ≥ 52 mantissa bits; for wf ≤ 10 and we ≤ 5 the sum
        // of two finite minifloats is exact in f64, so converting back is
        // the correctly rounded result.
        prop_assume!(f.wf() <= 10 && f.we() <= 5);
        let (va, vb) = (
            dp_minifloat::convert::to_f64(f, a),
            dp_minifloat::convert::to_f64(f, b),
        );
        prop_assume!(va.is_finite() && vb.is_finite());
        let got = ops::add(f, a, b);
        let want = dp_minifloat::convert::from_f64(f, va + vb);
        // Signed-zero results may differ in sign convention only when the
        // exact sum is zero with mixed signs; both paths produce +0 there.
        prop_assert_eq!(got, want,
            "{} + {} ({} + {})", a, b, va, vb);
    }

    #[test]
    fn mul_matches_f64_when_exact((f, a, b) in fmt_and_patterns()) {
        prop_assume!(f.wf() <= 10 && f.we() <= 5);
        let (va, vb) = (
            dp_minifloat::convert::to_f64(f, a),
            dp_minifloat::convert::to_f64(f, b),
        );
        prop_assume!(va.is_finite() && vb.is_finite());
        let got = ops::mul(f, a, b);
        let want = dp_minifloat::convert::from_f64(f, va * vb);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn neg_is_involutive_and_flips_sign((f, a, _b) in fmt_and_patterns()) {
        // Negation is the sign-bit flip.
        let neg = |p: u32| p ^ f.zero_bits(true);
        let n = neg(a);
        prop_assert_eq!(neg(n), a);
        if !is_nan(f, a) {
            let (va, vn) = (
                dp_minifloat::convert::to_f64(f, a),
                dp_minifloat::convert::to_f64(f, n),
            );
            if va.is_finite() {
                prop_assert_eq!(vn, -va);
            }
        }
    }

    #[test]
    fn nan_propagates((f, a, _b) in fmt_and_patterns()) {
        prop_assume!(f.wf() > 0);
        let nan = f.nan_bits();
        prop_assert!(is_nan(f, ops::add(f, nan, a)));
        prop_assert!(is_nan(f, ops::mul(f, a, nan)));
    }

    #[test]
    fn saturating_quantizer_never_yields_inf(v in -1e30f64..1e30f64, f in formats()) {
        let bits = dp_minifloat::convert::from_f64_saturating(f, v);
        prop_assert!(!matches!(decode(f, bits), FloatClass::Inf(_)));
        let back = dp_minifloat::convert::to_f64(f, bits);
        prop_assert!(back.abs() <= f.max_value());
    }

}
