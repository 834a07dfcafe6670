//! Property-based tests for fixed-point quantization and saturation.

use dp_fixed::FixedFormat;
use proptest::prelude::*;

fn formats() -> impl Strategy<Value = FixedFormat> {
    prop_oneof![
        Just(FixedFormat::new(5, 2).unwrap()),
        Just(FixedFormat::new(5, 4).unwrap()),
        Just(FixedFormat::new(8, 1).unwrap()),
        Just(FixedFormat::new(8, 4).unwrap()),
        Just(FixedFormat::new(8, 7).unwrap()),
        Just(FixedFormat::new(12, 8).unwrap()),
        Just(FixedFormat::new(16, 12).unwrap()),
        Just(FixedFormat::new(32, 16).unwrap()),
    ]
}

proptest! {
    #[test]
    fn quantization_error_is_at_most_half_lsb(f in formats(), v in -1e6f64..1e6f64) {
        let raw = f.from_f64(v);
        let back = f.to_f64(raw);
        if v.abs() <= f.max_value() {
            prop_assert!(
                (back - v).abs() <= f.min_value() / 2.0 + 1e-12,
                "{f}: {v} -> {back}"
            );
        } else {
            // Clipped at a rail.
            prop_assert!(raw == f.max_raw() || raw == f.min_raw());
        }
    }

    #[test]
    fn quantization_is_monotone(f in formats(), a in -1e6f64..1e6f64, b in -1e6f64..1e6f64) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(f.from_f64(lo) <= f.from_f64(hi));
    }

    #[test]
    fn roundtrip_raw_words(f in formats(), r in any::<i64>()) {
        let raw = r.clamp(f.min_raw(), f.max_raw());
        prop_assert_eq!(f.from_f64(f.to_f64(raw)), raw);
    }

    #[test]
    fn saturating_ops_stay_in_range(f in formats(), a in any::<i64>(), b in any::<i64>()) {
        let (a, b) = (a.clamp(f.min_raw(), f.max_raw()), b.clamp(f.min_raw(), f.max_raw()));
        for v in [f.add_sat(a, b), f.mul_truncate(a, b)] {
            prop_assert!(v >= f.min_raw() && v <= f.max_raw());
        }
    }

    #[test]
    fn add_sat_matches_clamped_integer(f in formats(), a in any::<i64>(), b in any::<i64>()) {
        let (a, b) = (a.clamp(f.min_raw(), f.max_raw()), b.clamp(f.min_raw(), f.max_raw()));
        prop_assert_eq!(
            f.add_sat(a, b),
            (a + b).clamp(f.min_raw(), f.max_raw())
        );
    }
}
