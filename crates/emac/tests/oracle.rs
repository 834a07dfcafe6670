//! An oracle that shares nothing with the EMAC datapath, for the 8-bit
//! trio the stack serves (posit⟨8,0⟩, float⟨4,3⟩, fixed⟨8,6⟩).
//!
//! Every other suite compares one EMAC path against another, so a defect
//! they share (a wrong reference decode, a misplaced bias) passes them
//! all. Here each pattern becomes a number through the format's own
//! `to_f64`, the dot product is evaluated in plain `f64` arithmetic —
//! exact, because every term and every partial sum of these formats is a
//! multiple of the smallest product and stays far below 2^53 of them,
//! which the oracle asserts — and the sum is rounded **once** by the
//! format's own `from_f64`. No operand word, table, shift or accumulator
//! window is involved. The EMAC result must equal it: for all 2^16 single
//! MACs and for a seeded sweep of dot products with and without a bias.

use dp_emac::{Emac, FixedEmac, FloatEmac, PositEmac};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// One 8-bit format as the oracle sees it: numbers in, one rounding out.
struct Oracle<V, R> {
    name: &'static str,
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

    /// One row against one column through `dot_tile`; the all-zero
    /// pattern is zero in all three formats, so no bias is a zero bias.
    fn check<E: Emac>(&self, unit: &mut E, bias: Option<u32>, ws: &[u32], xs: &[u32]) {
        let mut out = [0u32];
        unit.dot_tile(bias.unwrap_or(0), ws, &[xs], &mut out);
        assert_eq!(
            out[0],
            self.expect(bias, ws, xs),
            "{}: bias {bias:x?}, weights {ws:x?}, activations {xs:x?}",
            self.name
        );
    }

    /// All 2^16 single MACs, then seeded dot products of every length the
    /// benchmark's models use, with and without a bias; one trial in
    /// eight keeps whatever specials the generator produced.
    fn sweep<E: Emac>(&self, unit: &mut E, seed: u64) {
        for w in 0..256u32 {
            for a in 0..256u32 {
                self.check(unit, None, &[w], &[a]);
            }
        }
        let mut next = xorshift(seed);
        for k in [1usize, 4, 117, 128] {
            for trial in 0..200 {
                let mut pattern = || match (next() >> 24) as u32 & 0xff {
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
    let fmt = PositFormat::new(8, 0).unwrap();
    let oracle = Oracle {
        name: "posit<8,0>",
        value: |bits| dp_posit::convert::to_f64(fmt, bits),
        round: |sum| dp_posit::convert::from_f64(fmt, sum),
        quantum: 2f64.powi(-12), // minpos² = (2^-6)²
        poison: fmt.nar_bits(),
    };
    oracle.sweep(&mut PositEmac::new(fmt, 128), 0x0a0c_1e5e_ed01);
}

#[test]
fn float8_emac_equals_the_f64_oracle() {
    let fmt = FloatFormat::new(4, 3).unwrap();
    let oracle = Oracle {
        name: "float<4,3>",
        value: |bits| dp_minifloat::convert::to_f64(fmt, bits),
        // The paper's EMAC clips at ±max instead of overflowing.
        round: |sum| dp_minifloat::convert::from_f64_saturating(fmt, sum),
        quantum: 2f64.powi(-18), // min subnormal² = (2^-9)²
        poison: fmt.nan_bits(),
    };
    oracle.sweep(&mut FloatEmac::new(fmt, 128), 0xf10a_75ee_d002);
}

#[test]
fn fixed8_emac_equals_the_f64_oracle() {
    let fmt = FixedFormat::new(8, 6).unwrap();
    let lsb = 2f64.powi(-6);
    let oracle = Oracle {
        name: "fixed<8,6>",
        value: |bits| fmt.to_f64((bits as u8 as i8).into()),
        // Fig. 3 truncates the 2q-bit sum to q fraction bits (toward −∞)
        // before clipping; `from_f64` then has nothing left to round.
        round: |sum: f64| fmt.from_f64((sum / lsb).floor() * lsb) as u8 as u32,
        quantum: lsb * lsb,
        poison: 0, // no special patterns
    };
    oracle.sweep(&mut FixedEmac::new(fmt, 128), 0xf1ce_d5ee_d003);
}
