//! The minifloat family of the table-driven EMAC (paper Fig. 4).

use crate::acc::Accum;
use crate::ceil_log2;
use crate::table::{self, AlignedLut, EmacEntry, MAX_COMPUTED_WIDTH, MAX_LUT_WIDTH};
use crate::table_emac::{Family, TableEmac};
use crate::UnsupportedFormat;
use dp_minifloat::{encode, encode_word, FloatFormat};

/// Exact floating-point multiply-and-accumulate: the shared
/// [`TableEmac`] datapath with the [`Float`] decode/encode stages.
///
/// Inputs are `(1, we, wf)` minifloats. The datapath mirrors paper Fig. 4:
/// subnormal detection sets the hidden bit and adjusts the exponent;
/// significands are multiplied exactly; the product is converted to a
/// two's-complement fixed-point value by shifting with a biased scale
/// factor, then accumulated. The register spans every bit any product can
/// produce — paper eq. (3) with `⌈log2(max/min)⌉ = 2^we − 2 + wf`:
///
/// ```text
/// wa = ⌈log2 k⌉ + 2·(2^we − 2 + wf) + 2
/// ```
///
/// (plus the product fraction tail which eq. (3)'s ratio form folds into
/// its ceiling). Readout applies inverse two's complement, normalizes,
/// rounds to nearest even once, and **clips at ±max**: the paper's EMAC
/// "does not overflow to infinity".
///
/// Inf/NaN inputs are outside the paper's operating envelope ("inputs
/// don't have these values"); this model poisons the accumulator and
/// returns NaN so misuse is visible rather than silent.
///
/// # Examples
///
/// ```
/// use dp_emac::{Emac, FloatEmac};
/// use dp_minifloat::FloatFormat;
///
/// let fmt = FloatFormat::new(4, 3)?;
/// let mut emac = FloatEmac::new(fmt, 8);
/// let x = dp_minifloat::convert::from_f64(fmt, 1.5);
/// emac.mac(x, x); // 2.25
/// emac.mac(x, x); // 2.25
/// assert_eq!(dp_minifloat::convert::to_f64(fmt, emac.result()), 4.5);
/// # Ok::<(), dp_minifloat::FormatError>(())
/// ```
pub type FloatEmac = TableEmac<Float>;

/// The minifloat [`Family`]: Fig. 4's subnormal-aware decode and its
/// normalize / round-to-nearest-even / clip readout.
///
/// A minifloat's sign/exponent/fraction sit at fixed offsets, so one
/// bit-field extraction ([`Family::decode`]) serves every width: it fills
/// the aligned table for `n ≤ 12`, is computed per element for 13–16
/// bits, and is the per-MAC and reference decode. Operands are kept *unnormalised* in
/// units of the smallest subnormal — `field = hidden | frac`,
/// `scale = max(exp_field, 1) − 1` — so a product is the plain
/// `field_w · field_a << (scale_w + scale_a)` in units of
/// `min_subnormal²`, exactly the posit form, with no leading-zero count
/// and no trailing-zero bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct Float {
    fmt: FloatFormat,
}

impl Family for Float {
    type Format = FloatFormat;
    type Computed = Float;
    const NAME: &'static str = "float";
    const PIPELINE_DEPTH: u32 = 4; // decode/multiply/shift → accumulate → normalize → round/clip

    /// Every valid [`FloatFormat`] has an EMAC datapath.
    fn check_format(_: FloatFormat, _capacity: u64) -> Result<(), UnsupportedFormat> {
        Ok(())
    }

    /// Paper eq. (3).
    fn accumulator_width_for(fmt: FloatFormat, k: u64) -> u32 {
        let log_ratio = (1u32 << fmt.we()) - 2 + fmt.wf(); // ⌈log2(max/min)⌉
        ceil_log2(k) + 2 * log_ratio + 2
    }

    fn tables(fmt: FloatFormat) -> Option<&'static AlignedLut> {
        let fields = Float { fmt };
        let key = (Self::NAME, fmt.we(), fmt.wf());
        table::cached(key, fmt.n(), Self::operands_align(fmt), |b| {
            fields.decode(b)
        })
    }

    fn new(fmt: FloatFormat, _tables: bool) -> Self {
        Float { fmt }
    }

    fn format(&self) -> FloatFormat {
        self.fmt
    }

    /// Fig. 4's subnormal detection: an all-zero exponent field clears the
    /// hidden bit and reads as exponent 1; the all-ones field is Inf/NaN.
    #[inline(always)]
    fn decode(&self, bits: u32) -> EmacEntry {
        let (we, wf) = (self.fmt.we(), self.fmt.wf());
        let exp_max = (1u32 << we) - 1;
        let exp_field = (bits >> wf) & exp_max;
        if exp_field == exp_max {
            return EmacEntry::SPECIAL;
        }
        let hidden = ((exp_field != 0) as u64) << wf;
        let frac = (bits & ((1u32 << wf) - 1)) as u64;
        let sign = (bits >> (we + wf)) & 1 == 1;
        EmacEntry::pack(sign, hidden | frac, exp_field.saturating_sub(1))
    }

    fn computed(&self) -> Option<Float> {
        (MAX_LUT_WIDTH + 1..=MAX_COMPUTED_WIDTH)
            .contains(&self.fmt.n())
            .then_some(*self)
    }

    #[inline(always)]
    fn computed_entry(fields: Float, bits: u32) -> EmacEntry {
        fields.decode(bits)
    }

    /// Register bit 0 weighs `min_subnormal²` and an operand's unit is
    /// `min_subnormal = 2^(min_normal_scale − wf)`, so a bias sits
    /// `wf − min_normal_scale` bits up.
    fn bias_shift(&self) -> u32 {
        (self.fmt.wf() as i32 - self.fmt.min_normal_scale()) as u32
    }

    /// Fig. 4 readout: inverse 2's complement, LZD, normalize, round —
    /// then clip at the maximum magnitude: the EMAC never emits infinity.
    #[inline(always)]
    fn encode(&self, acc: &Accum) -> u32 {
        let Some(w) = acc.window() else {
            return self.fmt.zero_bits(false);
        };
        let scale = w.msb as i32 - 2 * self.bias_shift() as i32;
        let rounded = encode(self.fmt, w.sign, scale, w.sig, w.sticky);
        if rounded == self.fmt.inf_bits(w.sign) {
            self.fmt.max_bits(w.sign)
        } else {
            rounded
        }
    }

    fn poison_bits(&self) -> u32 {
        self.fmt.nan_bits()
    }

    /// The same rounding and clip as [`Family::encode`], yielding the value
    /// in units of the smallest subnormal — the operand unit — instead of
    /// the pattern.
    #[inline(always)]
    fn round_word(&self, acc: &Accum) -> i64 {
        let Some(w) = acc.window() else {
            return 0;
        };
        let scale = w.msb as i32 - 2 * self.bias_shift() as i32;
        encode_word(self.fmt, w.sign, scale, w.sig, w.sticky)
    }

    #[inline(always)]
    fn word_from_f32(fmt: FloatFormat, v: f32) -> i64 {
        dp_minifloat::convert::word_from_f32(fmt, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Emac;
    use dp_minifloat::convert::{from_f64, to_f64};
    use dp_minifloat::{decode, FloatClass};

    fn fmt(we: u32, wf: u32) -> FloatFormat {
        FloatFormat::new(we, wf).unwrap()
    }

    #[test]
    fn accumulator_width_matches_eq3() {
        // we=4, wf=3: log2(max/min) = 2^4 - 2 + 3 = 17; k=128 -> 7 + 34 + 2.
        assert_eq!(Float::accumulator_width_for(fmt(4, 3), 128), 43);
        assert_eq!(Float::accumulator_width_for(fmt(2, 2), 1), 2 * 4 + 2);
    }

    #[test]
    fn exact_small_sums() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 8);
        e.mac(from_f64(f, 0.5), from_f64(f, 0.5)); // 0.25
        e.mac(from_f64(f, 1.5), from_f64(f, 2.0)); // 3.0
        e.mac(from_f64(f, -1.0), from_f64(f, 0.25)); // -0.25
        assert_eq!(to_f64(f, e.result()), 3.0);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 4);
        let max = f.max_bits(false);
        let one = from_f64(f, 1.0);
        let minsub = 0x01; // smallest subnormal
        e.mac(max, one);
        e.mac(max | (1 << 7), one); // -max × 1
        e.mac(minsub, one);
        assert_eq!(e.result(), minsub, "quire-style exactness");
    }

    #[test]
    fn subnormal_products_accumulate() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 64);
        let minsub = 0x01u32; // 2^-9
                              // 64 × (minsub × 1.0) = 2^-3
        let one = from_f64(f, 1.0);
        for _ in 0..64 {
            e.mac(minsub, one);
        }
        assert_eq!(to_f64(f, e.result()), 2f64.powi(-3));
    }

    #[test]
    fn clips_at_max_instead_of_inf() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 8);
        let max = f.max_bits(false);
        for _ in 0..8 {
            e.mac(max, max);
        }
        assert_eq!(e.result(), max, "saturates, never Inf");
        e.reset();
        for _ in 0..8 {
            e.mac(max | (1 << 7), max);
        }
        assert_eq!(e.result(), f.max_bits(true));
    }

    #[test]
    fn bias_and_reset() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 4);
        e.set_bias(from_f64(f, 2.0));
        e.mac(from_f64(f, 1.0), from_f64(f, 0.5));
        assert_eq!(to_f64(f, e.result()), 2.5);
        e.reset();
        assert_eq!(e.result(), 0);
        assert_eq!(e.macs_done(), 0);
    }

    #[test]
    fn nan_and_inf_poison() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 4);
        e.mac(f.inf_bits(false), from_f64(f, 1.0));
        assert_eq!(decode(f, e.result()), FloatClass::NaN);
        e.reset();
        e.mac(f.nan_bits(), from_f64(f, 1.0));
        assert_eq!(decode(f, e.result()), FloatClass::NaN);
    }

    #[test]
    fn single_product_equals_rounded_mul() {
        // With one product the EMAC must equal the correctly rounded op
        // (clipped at max instead of Inf).
        for (we, wf) in [(2u32, 2u32), (3, 2), (4, 3), (5, 2)] {
            let f = fmt(we, wf);
            for a in f.finites() {
                for b in [0x01u32, 0x11, 0x23, f.max_bits(false), f.zero_bits(true)] {
                    let b = b & f.mask();
                    if !matches!(decode(f, b), FloatClass::Finite(_) | FloatClass::Zero(_)) {
                        continue;
                    }
                    let mut e = FloatEmac::new(f, 1);
                    e.mac(a, b);
                    let direct = dp_minifloat::ops::mul(f, a, b);
                    let zero_input = matches!(decode(f, a), FloatClass::Zero(_))
                        || matches!(decode(f, b), FloatClass::Zero(_));
                    let expect = match decode(f, direct) {
                        FloatClass::Inf(s) => f.max_bits(s),
                        // A zero *input* is skipped by the EMAC, whose empty
                        // accumulator reads +0; a nonzero product that
                        // underflows keeps IEEE's signed zero.
                        FloatClass::Zero(_) if zero_input => 0,
                        _ => direct,
                    };
                    assert_eq!(e.result(), expect, "{f}: {a:#x} × {b:#x}");
                }
            }
        }
    }

    /// Every pattern's fused operand against the classifying decode:
    /// `field × 2^scale × min_subnormal` must be the decoded value, with
    /// `field` the unnormalised `hidden | frac`.
    fn check_operands(f: FloatFormat, entry: impl Fn(u32) -> EmacEntry) {
        let wf = f.wf();
        for bits in f.patterns() {
            let e = entry(bits);
            match decode(f, bits) {
                FloatClass::Zero(sign) => {
                    assert_eq!(e.field(), 0, "{f} {bits:#x}");
                    assert_eq!(e.sign(), sign);
                    assert!(!e.is_special());
                }
                FloatClass::Inf(_) | FloatClass::NaN => {
                    assert!(e.is_special(), "{f} {bits:#x}")
                }
                FloatClass::Finite(u) => {
                    assert!(!e.is_special());
                    assert_eq!(e.sign(), u.sign, "{f} {bits:#x}");
                    assert_eq!(
                        e.field() >> wf,
                        (u.scale >= f.min_normal_scale()) as u64,
                        "{f} {bits:#x}: hidden bit set exactly on normals"
                    );
                    let lz = e.field().leading_zeros();
                    assert_eq!(e.field() << lz, u.sig, "{f} {bits:#x}");
                    assert_eq!(
                        e.scale() as i32 + f.min_normal_scale() - wf as i32 + 63 - lz as i32,
                        u.scale,
                        "{f} {bits:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn emac_entries_reconstruct_decode_exhaustively() {
        for (we, wf) in [(2u32, 2u32), (3, 2), (4, 3), (5, 2), (4, 7)] {
            let f = fmt(we, wf);
            let fields = Float::new(f, true);
            check_operands(f, |b| fields.decode(b));
        }
    }

    #[test]
    fn direct_entries_match_decode_exhaustively() {
        // 13–16-bit formats, including binary16 (5,10) and a bfloat-ish
        // wide-exponent shape; every pattern of each format.
        for (we, wf) in [(4u32, 8u32), (5, 8), (5, 10), (8, 7), (2, 13), (6, 9)] {
            let f = fmt(we, wf);
            let fields = Float::new(f, true).computed().unwrap();
            check_operands(f, |b| Float::computed_entry(fields, b));
        }
    }

    #[test]
    fn direct_operands_only_between_13_and_16_bits() {
        assert!(Float::new(fmt(4, 7), true).computed().is_none()); // n = 12
        assert!(Float::new(fmt(4, 8), true).computed().is_some()); // n = 13
        assert!(Float::new(fmt(5, 10), true).computed().is_some()); // n = 16
        assert!(Float::new(fmt(5, 11), true).computed().is_none()); // n = 17
    }
}
