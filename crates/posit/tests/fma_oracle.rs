//! The fused multiply-add `a×b + c` — one EMAC step with a bias — through
//! a two-product quire, against the exact dyadic oracle, plus its fusion
//! property: cases where the per-operation form `add(mul(a, b), c)`
//! rounds twice and lands elsewhere.

use dp_posit::exact::Dyadic;
use dp_posit::{ops, PositFormat, Quire};

fn fmt(n: u32, es: u32) -> PositFormat {
    PositFormat::new(n, es).unwrap()
}

/// `a×b + c` rounded once: the quire seeded with `c`, as the EMAC seeds
/// its register with the bias.
fn fma(f: PositFormat, a: u32, b: u32, c: u32) -> u32 {
    let mut q = Quire::new(f, 2);
    q.add_product(a, b);
    q.add_posit(c);
    q.to_posit()
}

#[test]
fn fma_matches_oracle_exhaustively_p6() {
    // Full 3-operand cube at 6 bits: 63³ ≈ 250k cases.
    let f = fmt(6, 0);
    let reals: Vec<u32> = f.reals().collect();
    for &a in &reals {
        let da = Dyadic::from_posit(f, a);
        for &b in &reals {
            let p = da.mul(Dyadic::from_posit(f, b));
            for &c in &reals {
                let want = p.add(Dyadic::from_posit(f, c)).round_to_posit(f);
                assert_eq!(fma(f, a, b, c), want, "{a:#x}×{b:#x}+{c:#x}");
            }
        }
    }
}

#[test]
fn fma_matches_oracle_sampled_p8() {
    let f = fmt(8, 1);
    let mut s = 0x51ce_a11du64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for _ in 0..30_000 {
        let a = (next() as u32) & f.mask();
        let b = (next() as u32) & f.mask();
        let c = (next() as u32) & f.mask();
        if [a, b, c].contains(&f.nar_bits()) {
            assert_eq!(fma(f, a, b, c), f.nar_bits());
            continue;
        }
        let want = Dyadic::from_posit(f, a)
            .mul(Dyadic::from_posit(f, b))
            .add(Dyadic::from_posit(f, c))
            .round_to_posit(f);
        assert_eq!(fma(f, a, b, c), want, "{a:#x}×{b:#x}+{c:#x}");
    }
}

#[test]
fn fma_beats_unfused_somewhere() {
    // The fusion must matter: find cases where round(round(ab)+c) differs
    // from round(ab+c). (Existence check — the whole point of the EMAC.)
    let f = fmt(8, 0);
    let mut found = 0u32;
    for a in f.reals().step_by(3) {
        for b in f.reals().step_by(5) {
            for c in f.reals().step_by(7) {
                let fused = fma(f, a, b, c);
                let unfused = ops::add(f, ops::mul(f, a, b), c);
                if fused != unfused {
                    found += 1;
                    // When they differ, the fused result must be the
                    // correctly rounded one.
                    let want = Dyadic::from_posit(f, a)
                        .mul(Dyadic::from_posit(f, b))
                        .add(Dyadic::from_posit(f, c))
                        .round_to_posit(f);
                    assert_eq!(fused, want);
                }
            }
        }
    }
    assert!(found > 0, "fusion never mattered — implementation suspect");
}

#[test]
fn fma_specials() {
    let f = fmt(8, 0);
    let one = f.one_bits();
    assert_eq!(fma(f, f.nar_bits(), one, one), f.nar_bits());
    assert_eq!(fma(f, one, f.nar_bits(), one), f.nar_bits());
    assert_eq!(fma(f, one, one, f.nar_bits()), f.nar_bits());
    assert_eq!(fma(f, 0, one, 0), 0);
    assert_eq!(fma(f, 0, one, one), one);
    // x×1 + 0 == x for every real pattern.
    for x in f.reals() {
        assert_eq!(fma(f, x, one, 0), x);
    }
}
