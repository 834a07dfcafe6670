//! Exhaustive validation of 8-bit-and-below posit arithmetic against the
//! exact dyadic oracle.
//!
//! For formats up to 8 bits every operand pair is enumerated (≤ 65536
//! cases per op per format); each correctly rounded result must equal the
//! oracle's exact computation rounded once. This pins down the full
//! behaviour of the formats the paper evaluates (n ∈ [5, 8]).

use dp_posit::exact::Dyadic;
use dp_posit::{decode, ops, Decoded, PositFormat};

const FORMATS: &[(u32, u32)] = &[
    (5, 0),
    (6, 0),
    (6, 1),
    (7, 0),
    (7, 1),
    (8, 0),
    (8, 1),
    (8, 2),
];

fn fmt(n: u32, es: u32) -> PositFormat {
    PositFormat::new(n, es).unwrap()
}

fn reals(f: PositFormat) -> impl Iterator<Item = u32> {
    f.reals()
}

#[test]
fn add_matches_oracle_exhaustively() {
    for &(n, es) in FORMATS {
        let f = fmt(n, es);
        for a in reals(f) {
            let da = Dyadic::from_posit(f, a);
            for b in reals(f) {
                let db = Dyadic::from_posit(f, b);
                let got = ops::add(f, a, b);
                let want = da.add(db).round_to_posit(f);
                assert_eq!(got, want, "{f}: {a:#x} + {b:#x}");
            }
        }
    }
}

#[test]
fn mul_matches_oracle_exhaustively() {
    for &(n, es) in FORMATS {
        let f = fmt(n, es);
        for a in reals(f) {
            let da = Dyadic::from_posit(f, a);
            for b in reals(f) {
                let db = Dyadic::from_posit(f, b);
                let got = ops::mul(f, a, b);
                let want = da.mul(db).round_to_posit(f);
                assert_eq!(got, want, "{f}: {a:#x} * {b:#x}");
            }
        }
    }
}

#[test]
fn negation_is_exact_for_all_patterns() {
    for &(n, es) in FORMATS {
        let f = fmt(n, es);
        for a in reals(f) {
            let neg = ops::neg(f, a);
            if a != 0 {
                match (decode(f, a), decode(f, neg)) {
                    (Decoded::Finite(ua), Decoded::Finite(un)) => {
                        assert_eq!(ua.scale, un.scale, "{f} {a:#x}");
                        assert_eq!(ua.sig, un.sig, "{f} {a:#x}");
                        assert_ne!(ua.sign, un.sign, "{f} {a:#x}");
                    }
                    _ => panic!("negation changed finiteness for {a:#x}"),
                }
            }
            assert_eq!(ops::neg(f, neg), a, "double negation");
        }
    }
}

#[test]
fn addition_is_commutative_exhaustively_p8e1() {
    let f = fmt(8, 1);
    for a in reals(f) {
        for b in reals(f) {
            assert_eq!(ops::add(f, a, b), ops::add(f, b, a));
        }
    }
}

#[test]
fn multiplication_is_commutative_exhaustively_p8e2() {
    let f = fmt(8, 2);
    for a in reals(f) {
        for b in reals(f) {
            assert_eq!(ops::mul(f, a, b), ops::mul(f, b, a));
        }
    }
}
