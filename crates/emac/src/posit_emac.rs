//! The posit family of the table-driven EMAC (paper Fig. 5, Algorithms 1–2).

use crate::acc::Accum;
use crate::ceil_log2;
use crate::table::{self, AlignedLut, EmacEntry};
use crate::table_emac::{Family, TableEmac};
use crate::UnsupportedFormat;
use dp_posit::lut::{self, DecodeLut, SplitLut};
use dp_posit::{decode, encode, encode_word, Decoded, PositFormat};

/// Exact posit multiply-and-accumulate: the shared [`TableEmac`] datapath
/// with the [`Posit`] decode/encode stages.
///
/// The datapath mirrors paper Fig. 5 and Algorithm 2:
///
/// 1. **Decode** (Algorithm 1): sign, regime, exponent and fraction are
///    extracted; the two's complement + regime-check inversion lets a
///    single leading-zero detector handle both regime polarities
///    (`dp_posit::decode` implements exactly this flow).
/// 2. **Multiply**: the significands (at most `F = n − 2 − es` bits,
///    hidden bit included) multiply exactly; an overflow bit renormalizes
///    and bumps the scale factor (Algorithm 2 lines 6–10).
/// 3. **Accumulate**: the signed product is shifted by the *biased* scale
///    factor `sf + 2^(es+1)(n−2)` so all shifts are non-negative
///    (Algorithm 2 line 12) and added into a quire-style register sized
///    by paper eq. (4) exactly. Every posit is an integer multiple of
///    minpos, so operands are carried in minpos units and the register's
///    LSB weighs minpos²: no product bit ever falls below it.
/// 4. **Round & encode** (Algorithm 2 lines 15–43): sign/magnitude split,
///    leading-zero detection, window extraction and convergent
///    (round-to-nearest-even on the pattern) re-encode.
///
/// Differentially tested against [`dp_posit::Quire`] — an independent
/// implementation of the same semantics. On the aligned band formats up
/// to 12 bits read their operands from the per-pattern table and
/// 13–16-bit formats use the split scheme ([`dp_posit::lut::SplitLut`]):
/// a 256-entry regime-prefix table composed with direct fraction
/// extraction.
///
/// # Examples
///
/// ```
/// use dp_emac::{Emac, PositEmac};
/// use dp_posit::PositFormat;
///
/// let fmt = PositFormat::new(8, 2)?;
/// let mut emac = PositEmac::new(fmt, 4);
/// let maxpos = fmt.maxpos_bits();
/// let neg_maxpos = maxpos.wrapping_neg() & fmt.mask(); // two's complement
/// let minpos = fmt.minpos_bits();
/// let one = fmt.one_bits();
/// emac.mac(maxpos, one);
/// emac.mac(neg_maxpos, one);
/// emac.mac(minpos, one);
/// assert_eq!(emac.result(), minpos); // survives catastrophic cancellation
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
pub type PositEmac = TableEmac<Posit>;

/// The posit [`Family`]: Algorithm-1 decode (monolithic table for
/// `n ≤ 12`, split table for 13–16 bits, bit fields otherwise) and
/// Algorithm 2's convergent round-and-encode.
#[derive(Debug, Clone, Copy)]
pub struct Posit {
    fmt: PositFormat,
    /// Monolithic decode table for the format, when one exists (`n ≤ 12`).
    lut: Option<&'static DecodeLut>,
    /// Split regime-prefix table for 13–16-bit formats.
    split: Option<&'static SplitLut>,
    /// `−log2 minpos`, the operand scale bias; Algorithm 2's `bias` is
    /// twice this.
    max_scale: i32,
}

impl Posit {
    /// The fused operand of a decoded pattern, in units of minpos: the
    /// left-aligned significand `sig` (hidden bit at bit 63) is worth
    /// `sig × 2^(scale + max_scale − 63)` minpos, and shifting its
    /// trailing zeros into the scale leaves an odd significand at a scale
    /// that cannot be negative, because every posit is an integer
    /// multiple of minpos. Two operands' scales then sum to Algorithm 2
    /// line 12's `sf + 2·max_scale`, counted from the product's own LSB.
    #[inline(always)]
    fn operand(d: Decoded, max_scale: i32) -> EmacEntry {
        match d {
            Decoded::Zero => EmacEntry::ZERO,
            Decoded::NaR => EmacEntry::SPECIAL,
            Decoded::Finite(u) => {
                let tz = u.sig.trailing_zeros();
                let scale = u.scale + max_scale - 63 + tz as i32;
                debug_assert!(scale >= 0, "posit is not a multiple of minpos");
                EmacEntry::pack(u.sign, u.sig >> tz, scale as u32)
            }
        }
    }
}

/// The computed operand source of 13–16-bit posits: the split table plus
/// the constant the operand packing needs, captured by value.
#[derive(Debug, Clone, Copy)]
pub struct SplitOperands {
    split: &'static SplitLut,
    max_scale: i32,
}

impl Family for Posit {
    type Format = PositFormat;
    type Computed = SplitOperands;
    const NAME: &'static str = "posit";
    const PIPELINE_DEPTH: u32 = 5; // decode → multiply/shift → accumulate → extract → round/encode

    fn check_format(fmt: PositFormat, _capacity: u64) -> Result<(), UnsupportedFormat> {
        if fmt.es() > fmt.n() - 3 {
            return Err(UnsupportedFormat::new(format!(
                "{fmt}: posit EMAC requires es <= n-3 (no significand bits, \
                 no paper datapath)"
            )));
        }
        Ok(())
    }

    /// Paper eq. (4) exactly: products span minpos² (the register LSB)
    /// to maxpos² — `2^(es+2)·(n−2) + 1` bits — plus a sign bit and
    /// `⌈log2 k⌉` carry bits.
    fn accumulator_width_for(fmt: PositFormat, k: u64) -> u32 {
        (1u32 << (fmt.es() + 2)) * (fmt.n() - 2) + 2 + ceil_log2(k)
    }

    fn tables(fmt: PositFormat) -> Option<&'static AlignedLut> {
        let bitfield = Posit::new(fmt, false);
        let key = (Self::NAME, fmt.n(), fmt.es());
        table::cached(key, fmt.n(), Self::operands_align(fmt), |b| {
            bitfield.decode(b)
        })
    }

    fn new(fmt: PositFormat, tables: bool) -> Self {
        let (lut, split) = match tables {
            true => (lut::cached(fmt), lut::split_cached(fmt)),
            false => (None, None),
        };
        Posit {
            fmt,
            lut,
            split,
            max_scale: fmt.max_scale(),
        }
    }

    fn format(&self) -> PositFormat {
        self.fmt
    }

    /// Exactly one decode scheme exists per format, so table and
    /// fallback results never mix.
    #[inline]
    fn decode(&self, bits: u32) -> EmacEntry {
        let d = match (self.lut, self.split) {
            (Some(lut), _) => lut.decode(bits),
            (None, Some(split)) => split.decode(bits),
            (None, None) => decode(self.fmt, bits),
        };
        Self::operand(d, self.max_scale)
    }

    fn computed(&self) -> Option<SplitOperands> {
        self.split.map(|split| SplitOperands {
            split,
            max_scale: self.max_scale,
        })
    }

    #[inline(always)]
    fn computed_entry(s: SplitOperands, bits: u32) -> EmacEntry {
        Self::operand(s.split.decode(bits), s.max_scale)
    }

    /// Operands count minpos = `2^(−max_scale)` and register bit `b`
    /// weighs `2^(b − 2·max_scale)` (minpos² at the LSB), so a bias is
    /// `max_scale` bits above its operand image.
    fn bias_shift(&self) -> u32 {
        self.max_scale as u32
    }

    /// Fraction & SF extraction (Algorithm 2 lines 15–19) + convergent
    /// rounding.
    #[inline(always)]
    fn encode(&self, acc: &Accum) -> u32 {
        let Some(w) = acc.window() else {
            return self.fmt.zero_bits();
        };
        let scale = w.msb as i32 - 2 * self.max_scale;
        encode(self.fmt, w.sign, scale, w.sig, w.sticky)
    }

    fn poison_bits(&self) -> u32 {
        self.fmt.nar_bits()
    }

    /// The same rounding as [`Family::encode`], yielding the value in
    /// minpos — the operand unit — instead of the pattern ([`encode_word`]).
    #[inline(always)]
    fn round_word(&self, acc: &Accum) -> i64 {
        let Some(w) = acc.window() else {
            return 0;
        };
        let scale = w.msb as i32 - 2 * self.max_scale;
        encode_word(self.fmt, w.sign, scale, w.sig, w.sticky)
    }

    #[inline(always)]
    fn word_from_f32(fmt: PositFormat, v: f32) -> i64 {
        dp_posit::convert::word_from_f32(fmt, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Emac;
    use dp_posit::convert::{from_f64, to_f64};
    use dp_posit::Quire;

    fn fmt(n: u32, es: u32) -> PositFormat {
        PositFormat::new(n, es).unwrap()
    }

    #[test]
    fn widths_match_paper_eq4() {
        assert_eq!(Posit::accumulator_width_for(fmt(8, 0), 1), 26);
        assert_eq!(Posit::accumulator_width_for(fmt(8, 1), 128), 8 * 6 + 2 + 7);
        assert_eq!(Posit::accumulator_width_for(fmt(16, 1), 16), 8 * 14 + 2 + 4);
        assert_eq!(PositEmac::new(fmt(8, 0), 1).accumulator_width(), 26);
    }

    #[test]
    fn simple_dot_products() {
        let f = fmt(8, 0);
        let mut e = PositEmac::new(f, 8);
        e.mac(from_f64(f, 0.5), from_f64(f, 2.0));
        e.mac(from_f64(f, 0.5), from_f64(f, 0.5));
        assert_eq!(to_f64(f, e.result()), 1.25);
        assert_eq!(e.macs_done(), 2);
    }

    #[test]
    fn bias_seeding_matches_quire() {
        let f = fmt(8, 1);
        for bias_v in [-2.0, -0.25, 0.0, 0.125, 1.0, 3.5] {
            let bias = from_f64(f, bias_v);
            let mut e = PositEmac::new(f, 4);
            e.set_bias(bias);
            e.mac(from_f64(f, 1.5), from_f64(f, -0.5));
            let mut q = Quire::new(f, 4);
            q.add_posit(bias);
            q.add_product(from_f64(f, 1.5), from_f64(f, -0.5));
            assert_eq!(e.result(), q.to_posit(), "bias {bias_v}");
        }
    }

    #[test]
    fn nar_poisons() {
        let f = fmt(8, 0);
        let mut e = PositEmac::new(f, 4);
        e.mac(f.nar_bits(), f.one_bits());
        assert_eq!(e.result(), f.nar_bits());
        e.reset();
        assert_eq!(e.result(), 0);
    }

    #[test]
    fn single_product_equals_rounded_mul_exhaustive_p8() {
        for es in [0u32, 1, 2] {
            let f = fmt(8, es);
            for a in f.reals() {
                for b in [0u32, 1, 0x23, 0x40, 0x55, 0x7f, 0x81, 0xc0, 0xff] {
                    if b == f.nar_bits() {
                        continue;
                    }
                    let mut e = PositEmac::new(f, 1);
                    e.mac(a, b);
                    assert_eq!(
                        e.result(),
                        dp_posit::ops::mul(f, a, b),
                        "{f}: {a:#x} × {b:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_quire_on_random_dots() {
        // The quire is an independently implemented accumulator with the
        // same exactness contract; the Algorithm-2 datapath must agree.
        let mut state = 0xfeed_beef_dead_cafeu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (n, es) in [
            (5u32, 0u32),
            (6, 1),
            (7, 0),
            (8, 0),
            (8, 1),
            (8, 2),
            (12, 1),
            (16, 1),
        ] {
            let f = fmt(n, es);
            for _ in 0..300 {
                let len = (next() % 24 + 1) as usize;
                let mut e = PositEmac::new(f, len as u64);
                let mut q = Quire::new(f, len as u64);
                for _ in 0..len {
                    let mut w = (next() as u32) & f.mask();
                    let mut a = (next() as u32) & f.mask();
                    if w == f.nar_bits() {
                        w = 0;
                    }
                    if a == f.nar_bits() {
                        a = 0;
                    }
                    e.mac(w, a);
                    q.add_product(w, a);
                }
                assert_eq!(e.result(), q.to_posit(), "{f}");
            }
        }
    }

    #[test]
    fn saturates_at_maxpos() {
        let f = fmt(8, 0);
        let mut e = PositEmac::new(f, 16);
        for _ in 0..16 {
            e.mac(f.maxpos_bits(), f.maxpos_bits());
        }
        assert_eq!(e.result(), f.maxpos_bits());
    }

    #[test]
    fn minpos_squared_rounds_to_minpos_not_zero() {
        let f = fmt(8, 2);
        let mut e = PositEmac::new(f, 1);
        e.mac(f.minpos_bits(), f.minpos_bits());
        assert_eq!(e.result(), f.minpos_bits());
    }

    #[test]
    #[should_panic(expected = "es <= n-3")]
    fn rejects_formats_without_significand() {
        PositEmac::new(fmt(8, 6), 4);
    }

    /// Every pattern's fused operand against the bit-field decode: the
    /// value `field << scale` is the F-bit significand at its biased
    /// scale, counted in minpos (`2^(F−1)` significand units each), and
    /// the field is odd (trailing zeros live in the scale).
    fn check_operands(fmt: PositFormat, entry: impl Fn(u32) -> EmacEntry) {
        let fbits = fmt.n() - 2 - fmt.es();
        for bits in fmt.patterns() {
            let e = entry(bits);
            match decode(fmt, bits) {
                Decoded::Zero => assert_eq!(e, EmacEntry::ZERO, "{fmt} {bits:#x}"),
                Decoded::NaR => assert!(e.is_special(), "{fmt} {bits:#x}"),
                Decoded::Finite(u) => {
                    assert!(!e.is_special());
                    assert_eq!(e.sign(), u.sign, "{fmt} {bits:#x}");
                    assert_eq!(e.field() & 1, 1, "{fmt} {bits:#x}");
                    let biased = (u.scale + fmt.max_scale()) as u32;
                    let significand = ((u.sig >> (64 - fbits)) as u128) << biased;
                    assert_eq!(
                        (e.field() as u128) << e.scale(),
                        significand >> (fbits - 1),
                        "{fmt} {bits:#x}"
                    );
                    assert!(
                        significand.trailing_zeros() >= fbits - 1,
                        "{fmt} {bits:#x}: not a multiple of minpos"
                    );
                }
            }
        }
    }

    #[test]
    fn emac_entries_reconstruct_decode_exhaustively() {
        for (n, es) in [(5u32, 0u32), (8, 0), (8, 1), (8, 2), (12, 1)] {
            let f = fmt(n, es);
            let table = Posit::new(f, true);
            check_operands(f, |b| table.decode(b));
        }
    }

    #[test]
    fn split_emac_entries_reconstruct_decode_for_all_65536_encodings() {
        for es in [0u32, 1, 2] {
            let f = fmt(16, es);
            let split = Posit::new(f, true).computed().unwrap();
            check_operands(f, |b| Posit::computed_entry(split, b));
            assert_eq!(
                Posit::computed_entry(split, 0x1_4000),
                Posit::computed_entry(split, 0x4000),
                "masks to width"
            );
        }
        // Computed operands exist exactly in the 13–16-bit band.
        assert!(Posit::new(fmt(12, 1), true).computed().is_none());
        assert!(Posit::new(fmt(13, 1), true).computed().is_some());
        assert!(Posit::new(fmt(17, 1), true).computed().is_none());
        assert!(Posit::new(fmt(16, 1), false).computed().is_none());
    }
}
