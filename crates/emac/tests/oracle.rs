//! An oracle that shares nothing with the EMAC datapath, for the 8-bit
//! trio the stack serves (posit⟨8,0⟩, float⟨4,3⟩, fixed⟨8,6⟩) and every
//! 5–8-bit format whose EMAC register at the sweep's K = 128 is at most
//! 53 bits: the posits and floats of `dp_hw::paper_grid(5..=8)` and
//! fixed⟨n, q⟩ for every `n ∈ 5..=8`, `q < n`.
//!
//! Every other suite compares one EMAC path against another, so a defect
//! they share (a wrong reference decode, a misplaced bias) passes them
//! all. Here each pattern becomes a number through the format's own
//! `to_f64`, the dot product is evaluated in plain `f64` arithmetic —
//! exact, because every term and every partial sum is a multiple of the
//! smallest product and, with a register of at most 53 bits, stays below
//! 2^53 of them, which the oracle asserts — and the sum is rounded
//! **once** by the format's own `from_f64`. No operand word, table, shift
//! or accumulator window is involved. The EMAC result must equal it —
//! through `dot_tile`, `dot_layer` and the per-MAC `mac` loop — for every
//! single MAC and for a seeded sweep of dot products with and without a
//! bias.

use dp_emac::{Emac, FixedEmac, FloatEmac, PositEmac};
use dp_fixed::FixedFormat;
use dp_hw::FormatSpec;

/// The sweep's longest dot product, which sizes every unit.
const K: u64 = 128;

/// Widest register whose every sum `f64` holds exactly.
const EXACT_F64_BITS: u32 = 53;

/// The §IV sweep's 5–8-bit formats, the 8-bit trio among them.
fn paper_grid() -> impl Iterator<Item = FormatSpec> {
    (5..=8).flat_map(dp_hw::paper_grid)
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// One format as the oracle sees it: numbers in, one rounding out.
struct Oracle<V, R> {
    name: String,
    /// Mask of the format's `n` pattern bits.
    mask: u32,
    /// The exact value of a pattern; NaN or ±∞ for a special.
    value: V,
    /// Rounds an exact finite sum once into the format.
    round: R,
    /// The smallest product magnitude: every term is a multiple of it.
    quantum: f64,
    /// What a dot product that met a special reads out as.
    poison: u32,
}

impl<V: Fn(u32) -> f64, R: Fn(f64) -> u32> Oracle<V, R> {
    fn expect(&self, bias: Option<u32>, ws: &[u32], xs: &[u32]) -> u32 {
        let mut sum = bias.map_or(0.0, &self.value);
        let mut special = !sum.is_finite();
        for (&w, &a) in ws.iter().zip(xs) {
            let (w, a) = ((self.value)(w), (self.value)(a));
            special |= !(w.is_finite() && a.is_finite());
            sum += w * a;
            let quanta = sum / self.quantum;
            assert!(
                special || (quanta.fract() == 0.0 && quanta.abs() < (1u64 << 53) as f64),
                "{}: the f64 sum is not exact",
                self.name
            );
        }
        match special {
            true => self.poison,
            // An exactly cancelled sum reads +0 whatever its terms' signs.
            false if sum == 0.0 => (self.round)(0.0),
            false => (self.round)(sum),
        }
    }

    /// One row against one column through `dot_tile`, `dot_layer` and
    /// the `mac` loop; the all-zero pattern is zero in every format, so
    /// no bias is a zero bias.
    fn check<E: Emac>(&self, unit: &mut E, bias: Option<u32>, ws: &[u32], xs: &[u32]) {
        let b = bias.unwrap_or(0);
        let (mut tile, mut layer) = ([0u32], [0u32]);
        unit.dot_tile(b, ws, &[xs], &mut tile);
        unit.dot_layer(&[b], ws, xs, &mut layer);
        unit.set_bias(b);
        for (&w, &a) in ws.iter().zip(xs) {
            unit.mac(w, a);
        }
        assert_eq!(
            [tile[0], layer[0], unit.result()],
            [self.expect(bias, ws, xs); 3],
            "{}: [dot_tile, dot_layer, mac] with bias {bias:x?}, weights {ws:x?}, \
             activations {xs:x?}",
            self.name
        );
    }

    /// Every single MAC (each weight also against all activations at once,
    /// as one `dot_layer` batch), then seeded dot products of every length
    /// the benchmark's models use, with and without a bias; one trial in
    /// eight keeps whatever specials the generator produced.
    fn sweep<E: Emac>(&self, unit: &mut E, seed: u64) {
        let all: Vec<u32> = (0..=self.mask).collect();
        let mut batch = vec![0u32; all.len()];
        for w in 0..=self.mask {
            unit.dot_layer(&[0], &[w], &all, &mut batch);
            for &a in &all {
                let want = self.expect(None, &[w], &[a]);
                assert_eq!(
                    batch[a as usize], want,
                    "{}: batched {w:#x} × {a:#x}",
                    self.name
                );
                self.check(unit, None, &[w], &[a]);
            }
        }
        let mut next = xorshift(seed);
        for k in [1usize, 4, 117, K as usize] {
            for trial in 0..200 {
                let mut pattern = || match (next() >> 24) as u32 & self.mask {
                    p if trial % 8 != 0 && !(self.value)(p).is_finite() => 0,
                    p => p,
                };
                let ws: Vec<u32> = (0..k).map(|_| pattern()).collect();
                let xs: Vec<u32> = (0..k).map(|_| pattern()).collect();
                let bias = (trial % 2 == 1).then(&mut pattern);
                self.check(unit, bias, &ws, &xs);
            }
        }
    }
}

#[test]
fn posit8_emac_equals_the_f64_oracle() {
    let mut swept = 0;
    let posits = paper_grid().filter_map(|spec| match spec {
        FormatSpec::Posit(f) => Some(f),
        _ => None,
    });
    for fmt in posits {
        let mut unit = PositEmac::new(fmt, K);
        if unit.accumulator_width() > EXACT_F64_BITS {
            continue;
        }
        let oracle = Oracle {
            name: fmt.to_string(),
            mask: fmt.mask(),
            value: |bits| dp_posit::convert::to_f64(fmt, bits),
            round: |sum| dp_posit::convert::from_f64(fmt, sum),
            quantum: fmt.min_value() * fmt.min_value(), // minpos²
            poison: fmt.nar_bits(),
        };
        oracle.sweep(&mut unit, 0x0a0c_1e5e_ed01);
        swept += 1;
    }
    assert_eq!(swept, 7, "posit<5..=8,0> and posit<5..=7,1>");
}

#[test]
fn float8_emac_equals_the_f64_oracle() {
    let mut swept = 0;
    let floats = paper_grid().filter_map(|spec| match spec {
        FormatSpec::Float(f) => Some(f),
        _ => None,
    });
    for fmt in floats {
        let mut unit = FloatEmac::new(fmt, K);
        if unit.accumulator_width() > EXACT_F64_BITS {
            continue;
        }
        let oracle = Oracle {
            name: fmt.to_string(),
            mask: fmt.mask(),
            value: |bits| dp_minifloat::convert::to_f64(fmt, bits),
            // The paper's EMAC clips at ±max instead of overflowing.
            round: |sum| dp_minifloat::convert::from_f64_saturating(fmt, sum),
            quantum: fmt.min_value() * fmt.min_value(), // min subnormal²
            poison: fmt.nan_bits(),
        };
        oracle.sweep(&mut unit, 0xf10a_75ee_d002);
        swept += 1;
    }
    assert_eq!(
        swept, 11,
        "every paper_grid float but float<7,5,1>, float<8,5,2>"
    );
}

#[test]
fn fixed8_emac_equals_the_f64_oracle() {
    let fixed = (5..=8).flat_map(|n| (0..n).map(move |q| FixedFormat::new(n, q).unwrap()));
    let mut swept = 0;
    for fmt in fixed {
        let mut unit = FixedEmac::new(fmt, K);
        if unit.accumulator_width() > EXACT_F64_BITS {
            continue;
        }
        let (n, lsb) = (fmt.n(), fmt.min_value());
        let oracle = Oracle {
            name: fmt.to_string(),
            mask: u32::MAX >> (32 - n),
            // The pattern is the raw word's low n bits.
            value: |bits: u32| fmt.to_f64(((bits << (32 - n)) as i32 >> (32 - n)).into()),
            // Fig. 3 truncates the 2q-bit sum to q fraction bits (toward −∞)
            // before clipping; `from_f64` then has nothing left to round.
            round: |sum: f64| {
                fmt.from_f64((sum / lsb).floor() * lsb) as u32 & (u32::MAX >> (32 - n))
            },
            quantum: lsb * lsb,
            poison: 0, // no special patterns
        };
        oracle.sweep(&mut unit, 0xf1ce_d5ee_d003);
        swept += 1;
    }
    assert_eq!(swept, 26, "every fixed<5..=8, q>");
}
