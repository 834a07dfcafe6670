//! Property-based tests on posit arithmetic, conversions and the quire,
//! covering the wider formats (16/32-bit) the exhaustive suite can't reach.

use dp_posit::exact::Dyadic;
use dp_posit::{convert, decode, encode, ops, Decoded, PositFormat, Quire};
use proptest::prelude::*;

fn formats() -> impl Strategy<Value = PositFormat> {
    prop_oneof![
        Just(PositFormat::new(8, 0).unwrap()),
        Just(PositFormat::new(8, 1).unwrap()),
        Just(PositFormat::new(8, 2).unwrap()),
        Just(PositFormat::new(10, 1).unwrap()),
        Just(PositFormat::new(12, 0).unwrap()),
        Just(PositFormat::new(16, 1).unwrap()),
        Just(PositFormat::new(16, 2).unwrap()),
        Just(PositFormat::new(24, 1).unwrap()),
        Just(PositFormat::new(32, 2).unwrap()),
    ]
}

prop_compose! {
    fn format_and_two_patterns()(f in formats())(
        f in Just(f),
        a in 0u32..=u32::MAX,
        b in 0u32..=u32::MAX,
    ) -> (PositFormat, u32, u32) {
        (f, a & f.mask(), b & f.mask())
    }
}

proptest! {
    #[test]
    fn decode_encode_roundtrip((f, a, _b) in format_and_two_patterns()) {
        if let Decoded::Finite(u) = decode(f, a) {
            prop_assert_eq!(encode(f, u.sign, u.scale, u.sig, false), a);
        }
    }

    #[test]
    fn f64_roundtrip((f, a, _b) in format_and_two_patterns()) {
        // Exact for every format with max_scale <= 1023 (all of these).
        if a != f.nar_bits() {
            let v = convert::to_f64(f, a);
            prop_assert_eq!(convert::from_f64(f, v), a);
        }
    }

    #[test]
    fn pattern_order_is_value_order((f, a, b) in format_and_two_patterns()) {
        prop_assume!(a != f.nar_bits() && b != f.nar_bits());
        let (va, vb) = (convert::to_f64(f, a), convert::to_f64(f, b));
        // Posit patterns order as n-bit two's-complement integers.
        let signed = |p: u32| (p << (32 - f.n())) as i32;
        prop_assert_eq!(signed(a).cmp(&signed(b)), va.partial_cmp(&vb).unwrap());
    }

    #[test]
    fn add_commutes((f, a, b) in format_and_two_patterns()) {
        prop_assert_eq!(ops::add(f, a, b), ops::add(f, b, a));
    }

    #[test]
    fn mul_commutes((f, a, b) in format_and_two_patterns()) {
        prop_assert_eq!(ops::mul(f, a, b), ops::mul(f, b, a));
    }

    #[test]
    fn additive_identity_and_inverse((f, a, _b) in format_and_two_patterns()) {
        prop_assert_eq!(ops::add(f, a, 0), a);
        if a != f.nar_bits() {
            prop_assert_eq!(ops::add(f, a, ops::neg(f, a)), 0);
        }
    }

    #[test]
    fn multiplicative_identity((f, a, _b) in format_and_two_patterns()) {
        prop_assert_eq!(ops::mul(f, a, f.one_bits()), a);
    }

    #[test]
    fn neg_distributes_over_add((f, a, b) in format_and_two_patterns()) {
        // Posit negation is exact, so -(a+b) == (-a) + (-b) after rounding.
        let lhs = ops::neg(f, ops::add(f, a, b));
        let rhs = ops::add(f, ops::neg(f, a), ops::neg(f, b));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn add_matches_oracle_for_p16((a, b) in (0u32..0x1_0000, 0u32..0x1_0000)) {
        let f = PositFormat::new(16, 1).unwrap();
        prop_assume!(a != f.nar_bits() && b != f.nar_bits());
        let want = Dyadic::from_posit(f, a)
            .add(Dyadic::from_posit(f, b))
            .round_to_posit(f);
        prop_assert_eq!(ops::add(f, a, b), want);
    }

    #[test]
    fn mul_matches_oracle_for_p16((a, b) in (0u32..0x1_0000, 0u32..0x1_0000)) {
        let f = PositFormat::new(16, 1).unwrap();
        prop_assume!(a != f.nar_bits() && b != f.nar_bits());
        let want = Dyadic::from_posit(f, a)
            .mul(Dyadic::from_posit(f, b))
            .round_to_posit(f);
        prop_assert_eq!(ops::mul(f, a, b), want);
    }

    #[test]
    fn quire_single_product_equals_mul((f, a, b) in format_and_two_patterns()) {
        // With one product there is one rounding either way.
        let mut q = Quire::new(f, 1);
        q.add_product(a, b);
        prop_assert_eq!(q.to_posit(), ops::mul(f, a, b));
    }

    #[test]
    fn quire_is_permutation_invariant(
        (f, _x, _y) in format_and_two_patterns(),
        seed in 0u64..u64::MAX,
    ) {
        // Exactness implies the accumulation order cannot matter.
        let mut s = seed | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        let pairs: Vec<(u32, u32)> = (0..9)
            .map(|_| ((next() as u32) & f.mask(), (next() as u32) & f.mask()))
            .filter(|&(a, b)| a != f.nar_bits() && b != f.nar_bits())
            .collect();
        let mut fwd = Quire::new(f, 9);
        let mut rev = Quire::new(f, 9);
        for &(a, b) in &pairs { fwd.add_product(a, b); }
        for &(a, b) in pairs.iter().rev() { rev.add_product(a, b); }
        prop_assert_eq!(fwd.to_posit(), rev.to_posit());
    }

    #[test]
    fn quire_add_then_sub_cancels(
        (f, a, b) in format_and_two_patterns(),
        (c, d) in (0u32..u32::MAX, 0u32..u32::MAX),
    ) {
        let (c, d) = (c & f.mask(), d & f.mask());
        prop_assume!([a, b, c, d].iter().all(|&x| x != f.nar_bits()));
        let mut q = Quire::new(f, 4);
        q.add_product(a, b);
        q.add_product(c, d);
        q.sub_product(a, b);
        q.sub_product(c, d);
        prop_assert_eq!(q.to_posit(), 0);
    }

    #[test]
    fn quire_dot_matches_oracle_p8(
        xs in prop::collection::vec(0u32..=255, 1..12),
        ys in prop::collection::vec(0u32..=255, 1..12),
    ) {
        let f = PositFormat::new(8, 2).unwrap();
        let len = xs.len().min(ys.len());
        let xs = &xs[..len];
        let ys = &ys[..len];
        prop_assume!(xs.iter().chain(ys).all(|&v| v != f.nar_bits()));
        let want = dp_posit::exact::exact_dot(f, xs, ys);
        prop_assert_eq!(Quire::dot(f, xs, ys), want);
    }

    #[test]
    fn conversion_between_formats_preserves_order(
        (a, b) in (0u32..0x1_0000, 0u32..0x1_0000),
    ) {
        let src = PositFormat::new(16, 1).unwrap();
        let dst = PositFormat::new(8, 0).unwrap();
        prop_assume!(a != src.nar_bits() && b != src.nar_bits());
        // `to_f64` is exact at 16 bits, so this rounds each value once.
        let narrow = |p| convert::from_f64(dst, convert::to_f64(src, p));
        let (ca, cb) = (narrow(a), narrow(b));
        // Rounding is monotone: order can collapse to Equal but never flip.
        let value = |f: PositFormat, p| convert::to_f64(f, p);
        let before = value(src, a).partial_cmp(&value(src, b)).unwrap();
        let after = value(dst, ca).partial_cmp(&value(dst, cb)).unwrap();
        prop_assert!(after == before || after == std::cmp::Ordering::Equal,
            "order flipped: {:?} -> {:?}", before, after);
    }
}
