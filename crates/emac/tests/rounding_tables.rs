//! The round/encode stage's tables (`RoundLut`) against the family's own
//! `encode`: at every bucket edge and on 10^6 seeded registers per admitted
//! paper format, and at the fewest kept bits that make every bucket
//! uniform.

use dp_emac::{Accum, Family, Float, Posit, RoundLut};
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;

/// Capacities of the widths the rounding tables are pinned at: the
/// benchmark models' fan-ins (4, 16, 117) and the sweeps' (1, 128, 1024).
const CAPACITIES: [u64; 6] = [1, 4, 16, 117, 128, 1024];

/// A unit's readout, `Family::encode` of the register `r`.
fn encode_of<F: Family>(family: &F) -> impl Fn(i64) -> u32 + '_ {
    |r| family.encode(&Accum::Small(r.into()))
}

/// `family`'s rounding table at a `width`-bit register, if any.
fn round_table<F: Family>(family: &F, width: u32) -> Option<&'static RoundLut> {
    F::tables(family.format())?.rounding(width, encode_of(family))
}

/// The least and greatest magnitudes of bit length `q ≥ 1` whose `m` bits
/// below the leading one read `b`.
fn bucket(q: u32, b: u64, m: u32) -> (i64, i64) {
    let p = q - 1;
    let lo = (1u64 << p) + (((b as u128) << p) >> m) as u64;
    (lo as i64, (lo + (1u64 << p.saturating_sub(m)) - 1) as i64)
}

/// Every register around every bucket of `lut` — `lo − 1`, `lo`,
/// `lo + 1` and `hi − 1` of each (bit length, `b`), which include 0,
/// `±2^p` and the saturating binades — and `draws` seeded registers of
/// every magnitude, both signs, against `encode`.
fn pin(name: &str, width: u32, lut: &RoundLut, encode: impl Fn(i64) -> u32, draws: usize) {
    let pattern = lut.rounder();
    let check = |r: i64| assert_eq!(pattern(r), encode(r), "{name} W={width} R={r}");
    let m = lut.kept_bits();
    check(0);
    for q in 1..=width {
        for b in 0..1u64 << m {
            let (lo, last) = bucket(q, b, m);
            for r in [lo - 1, lo, lo + 1, last] {
                if r.unsigned_abs() <= 1 << (width - 1) {
                    check(r);
                    check(-r);
                }
            }
        }
    }
    let mut s = 0x9e37_79b9_7f4a_7c15u64 ^ width as u64;
    for _ in 0..draws {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let magnitude = (s >> (65 - width)) >> ((s >> 3) % width as u64);
        check(if s & 1 == 0 {
            magnitude as i64
        } else {
            -(magnitude as i64)
        });
    }
}

/// Pins `family`'s rounding table at each capacity's register width;
/// returns the widths that got one. 10^6 seeded registers per format,
/// spread over those widths.
fn pin_family<F: Family>(family: &F) -> Vec<u32> {
    let name = family.format().to_string();
    let widths: Vec<u32> = CAPACITIES
        .iter()
        .map(|&k| F::accumulator_width_for(family.format(), k))
        .filter(|&w| round_table(family, w).is_some())
        .collect();
    for &w in &widths {
        let lut = round_table(family, w).unwrap();
        pin(&name, w, lut, encode_of(family), 1_000_000 / widths.len());
    }
    widths
}

#[test]
fn rounding_tables_equal_encode_on_every_admitted_paper_format() {
    use dp_hw::FormatSpec;
    for spec in (5..=8).flat_map(dp_hw::paper_grid) {
        let (admitted, widths) = match spec {
            FormatSpec::Posit(f) => {
                let family = Posit::new(f, true);
                let all = CAPACITIES.map(|k| Posit::accumulator_width_for(f, k));
                (pin_family(&family), all)
            }
            FormatSpec::Float(f) => {
                let family = Float::new(f, true);
                let all = CAPACITIES.map(|k| Float::accumulator_width_for(f, k));
                (pin_family(&family), all)
            }
            FormatSpec::Fixed(_) => continue,
        };
        // Admission is the register width alone on this grid: every
        // ≤ 63-bit register of a ≤ 8-bit posit or minifloat tabulates.
        let fits: Vec<u32> = widths.into_iter().filter(|&w| w <= 63).collect();
        assert_eq!(admitted, fits, "{spec:?}");
    }
}

#[test]
fn rounding_tables_keep_the_fewest_bits_that_make_every_bucket_uniform() {
    let posit = |n, es| Posit::new(PositFormat::new(n, es).unwrap(), true);
    let float = |we, wf| Float::new(FloatFormat::new(we, wf).unwrap(), true);
    // posit<8,0> near 1: five fraction bits and the round bit.
    let lut = round_table(&posit(8, 0), 30).unwrap();
    assert_eq!(lut.kept_bits(), 6);
    assert_eq!(round_table(&float(4, 3), 40).unwrap().kept_bits(), 4);
    // Memoized per (format, width); no table past a 63-bit register or
    // past 8 bits.
    assert!(std::ptr::eq(lut, round_table(&posit(8, 0), 30).unwrap()));
    assert!(!std::ptr::eq(lut, round_table(&posit(8, 0), 31).unwrap()));
    assert!(round_table(&posit(8, 1), 64).is_none());
    assert!(round_table(&posit(9, 0), 40).is_none());
    // One bit fewer than kept leaves a bucket whose interior straddles a
    // rounding boundary, at a 30-bit register.
    let posit8 = posit(8, 0);
    let encode = encode_of(&posit8);
    let straddles = |m| {
        (1..=30).any(|q| {
            (0..1u64 << m).any(|b| {
                let (lo, last) = bucket(q, b, m);
                last > lo
                    && [1, -1]
                        .iter()
                        .any(|s| encode(s * (lo + 1)) != encode(s * last))
            })
        })
    };
    assert!(straddles(5));
    assert!(!straddles(6));
}
