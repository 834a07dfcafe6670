//! Posit rounding and encoding (the "Convergent Rounding & Encoding" stage
//! of paper Algorithm 2).
//!
//! [`encode`] takes an exact (sign, scale, significand, sticky) quadruple and
//! produces the nearest posit bit pattern under round-to-nearest, ties to
//! even — the rounding mode both the IEEE-754 recommendation and the posit
//! standard prescribe (paper §III-A). Posits saturate: values beyond maxpos
//! round to maxpos, nonzero values below minpos round to minpos; rounding
//! never produces zero or NaR from a finite nonzero input.
//!
//! [`encode_word`] rounds the same way but yields the rounded value's
//! **operand word** instead of its pattern: the value in units of minpos as
//! a two's-complement integer, shifted left once, bit 0 flagging NaR — the
//! form an exact dot product consumes, so a layer can hand its rounded
//! sums to the next without encoding and decoding a pattern in between.
//! Both come out of one rounding step.

use crate::format::PositFormat;

/// Encodes `(-1)^sign × sig × 2^(scale-63)` (with `sig`'s MSB set) into the
/// nearest posit of format `fmt`. `sticky` indicates that nonzero bits were
/// discarded below `sig`'s LSB by an earlier exact computation.
///
/// # Panics
///
/// Panics in debug builds if `sig`'s MSB is not set (callers must pass a
/// normalized significand).
///
/// # Examples
///
/// ```
/// use dp_posit::{encode, PositFormat};
/// let fmt = PositFormat::new(8, 0)?;
/// // 1.5 = sig 0b11 << 62, scale 0
/// assert_eq!(encode(fmt, false, 0, 0b11 << 62, false), 0b0_10_10000);
/// // Saturation: 2^40 is far above maxpos = 2^6
/// assert_eq!(encode(fmt, false, 40, 1 << 63, false), fmt.maxpos_bits());
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
#[inline]
pub fn encode(fmt: PositFormat, sign: bool, scale: i32, sig: u64, sticky: bool) -> u32 {
    let (scaled, sticky) = scaled_of(fmt, scale, sig, sticky);
    apply_sign(fmt, round_body(fmt, scaled, sticky), sign)
}

/// The operand word of [`encode`]`(fmt, sign, scale, sig, sticky)`: the
/// rounded value in units of minpos, signed, shifted left once (bit 0, the
/// NaR flag, clear). For formats whose maxpos is at most `2^30` (every
/// posit whose values, counted in minpos, fit 61 bits), which is every
/// format whose EMAC operands align.
///
/// # Examples
///
/// ```
/// use dp_posit::{encode_word, PositFormat};
/// let fmt = PositFormat::new(8, 0)?; // minpos = 2^-6
/// // 1.5 is 96 minpos.
/// assert_eq!(encode_word(fmt, false, 0, 0b11 << 62, false), 96 << 1);
/// // Saturation: −2^40 rounds to −maxpos = −2^6, which is −2^12 minpos.
/// assert_eq!(encode_word(fmt, true, 40, 1 << 63, false), -(1 << 12) << 1);
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
#[inline(always)]
pub fn encode_word(fmt: PositFormat, sign: bool, scale: i32, sig: u64, sticky: bool) -> i64 {
    let (scaled, sticky) = scaled_of(fmt, scale, sig, sticky);
    rounded_word(fmt, sign, round_scaled(fmt, scaled, sticky).1)
}

/// `(-1)^sign × sig × 2^(scale-63)` as [`round_body`]'s input: `scale ‖
/// fraction` and the sticky. The top `FRACTION_BITS − es` fraction bits go
/// in exactly; whatever lies below them can only break a tie.
#[inline(always)]
fn scaled_of(fmt: PositFormat, scale: i32, sig: u64, sticky: bool) -> (i64, bool) {
    debug_assert!(sig >> 63 == 1, "significand must be normalized");
    let kept = FRACTION_BITS - fmt.es();
    let fraction = (sig << 1) >> (64 - kept);
    let sticky = sticky || sig << (1 + kept) != 0;
    (((scale as i64) << kept) | fraction as i64, sticky)
}

/// Fraction bits [`round_body`] takes, counting the `es` exponent bits in:
/// `scale ‖ fraction` then splits into the regime count and exactly 31
/// bits to follow the regime, whatever the format.
pub(crate) const FRACTION_BITS: u32 = 31;

/// The body (the `n − 1` bits below the sign) nearest to `1.f × 2^scale`,
/// given as `scaled = scale ‖ f` — one signed integer carrying
/// [`FRACTION_BITS`]` − es` fraction bits — plus whether nonzero bits were
/// dropped below them. Values beyond maxpos / below minpos saturate.
///
/// `scaled`, clamped to the format's range, splits into the regime count
/// `k` and the 31 bits that follow the regime (`es` exponent bits, then
/// fraction). The exact body is then one arithmetic shift: `10 ‖ tail`
/// shifted right by `k` replicates the leading one into `k + 1` ones and a
/// zero; `01 ‖ tail` shifted by `−k − 1` prepends the zeros. That is at
/// most 2 + 30 + 31 bits, left-aligned in a `u64`, which leaves bit 0 for
/// the sticky. Rounding to nearest even at the body width is an integer
/// add, so a carry out of the fraction ripples through the exponent into
/// the regime — the next pattern up *is* the next posit. The clamp's upper
/// end (everything below maxpos set) rounds up to maxpos; its lower end is
/// minpos exactly.
#[inline(always)]
pub(crate) fn round_body(fmt: PositFormat, scaled: i64, sticky: bool) -> u32 {
    round_scaled(fmt, scaled, sticky).0
}

/// The one rounding step under [`round_body`], with both its outputs: the
/// body, and `scaled` (clamped) rounded to the value that body encodes.
///
/// The body keeps the regime and the top `t = n − 3 − run` bits of the
/// tail, so its last kept bit is bit `g = 31 − t` of `scaled`, and the
/// dropped bits of the body are exactly `scaled`'s bits below `g` plus the
/// sticky. One round-up decision therefore serves both: the body's
/// pattern add, and `(scaled >> g) + up` — a carry out of the kept tail
/// bits lands in the regime count `k` just as it ripples into the
/// pattern's regime, and with no tail bit kept (`t = 0`, the saturating
/// extremes) the tie is broken by the regime's own last bit, as in the
/// pattern. Pinned against `decode(encode(…))` for every pattern's
/// neighbourhood of every operand-aligned trio format.
#[inline(always)]
pub(crate) fn round_scaled(fmt: PositFormat, scaled: i64, sticky: bool) -> (u32, i64) {
    let kept = FRACTION_BITS - fmt.es();
    let max_scale = fmt.max_scale() as i64;
    let scaled = scaled.clamp(-max_scale << kept, (max_scale << kept) - 1);
    let k = scaled >> FRACTION_BITS;
    let tail = scaled as u64 & ((1 << FRACTION_BITS) - 1);
    let below_one = k >> 63; // all ones when k < 0
    let head = (1 << 63) ^ (below_one as u64 & (3 << 62));
    let run = (k ^ below_one) as u32; // k, or −k − 1: at most n − 3
    let exact = (((head | (tail << FRACTION_BITS)) as i64) >> run) as u64 | sticky as u64;
    // Keep the top n − 1 bits, nearest even: the kept LSB breaks a tie,
    // the sticky in bit 0 prevents one. The regime's terminating bit keeps
    // the kept bits below maxpos before the add, so nothing overflows.
    let drop = 65 - fmt.n();
    let lsb = (exact >> drop) & 1;
    let body = ((exact + ((1u64 << (drop - 1)) - 1) + lsb) >> drop) as u32;
    debug_assert!(
        body != 0 && body <= fmt.maxpos_bits(),
        "finite nonzero values round to a finite nonzero posit"
    );
    let up = (body as u64 - (exact >> drop)) as i64;
    let g = 34 - fmt.n() + run;
    (body, ((scaled >> g) + up) << g)
}

/// The operand word of the value `±rounded` (a [`round_scaled`] output):
/// its significand `1.f`, `kept` fraction bits, moved to its scale counted
/// in minpos plus one for the word's shift. A shift down drops only zeros:
/// every posit is a whole number of minpos.
#[inline(always)]
pub(crate) fn rounded_word(fmt: PositFormat, sign: bool, rounded: i64) -> i64 {
    let kept = FRACTION_BITS - fmt.es();
    let significand = (rounded as u64 & ((1 << kept) - 1)) | 1 << kept;
    let up = ((rounded >> kept) + fmt.max_scale() as i64 + 1) as u32;
    let units = ((significand << up.saturating_sub(kept)) >> kept.saturating_sub(up)) as i64;
    let negate = -(sign as i64);
    (units ^ negate) - negate
}

/// The pattern of `±body`: negation is the two's complement. Branch-free
/// — the signs of a row of inputs or sums are as good as random.
#[inline]
pub(crate) fn apply_sign(fmt: PositFormat, body: u32, sign: bool) -> u32 {
    let negate = (sign as u32).wrapping_neg();
    (body ^ negate).wrapping_sub(negate) & fmt.mask()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, Decoded};

    fn fmt(n: u32, es: u32) -> PositFormat {
        PositFormat::new(n, es).unwrap()
    }

    /// Every real pattern must decode and re-encode to itself (bijectivity).
    fn roundtrips(f: PositFormat) {
        for bits in f.reals() {
            if let Decoded::Finite(u) = decode(f, bits) {
                let re = encode(f, u.sign, u.scale, u.sig, false);
                assert_eq!(re, bits, "{f} pattern {bits:#x} decoded to {u:?}");
            }
        }
    }

    #[test]
    fn exhaustive_roundtrip_small_formats() {
        for (n, es) in [
            (3, 0),
            (4, 0),
            (5, 0),
            (5, 1),
            (6, 0),
            (6, 1),
            (6, 2),
            (7, 0),
            (7, 1),
            (8, 0),
            (8, 1),
            (8, 2),
            (8, 3),
            (9, 0),
            (10, 2),
            (12, 1),
            (16, 1),
            (16, 2),
        ] {
            roundtrips(fmt(n, es));
        }
    }

    #[test]
    fn saturates_to_maxpos_and_minpos() {
        let f = fmt(8, 0);
        assert_eq!(encode(f, false, 100, 1 << 63, false), 0x7f);
        assert_eq!(encode(f, true, 100, 1 << 63, false), 0x81);
        assert_eq!(encode(f, false, -100, 1 << 63, false), 0x01);
        assert_eq!(encode(f, true, -100, 1 << 63, false), 0xff);
        // Exactly max_scale with a nonzero fraction is also maxpos.
        assert_eq!(encode(f, false, 6, (1 << 63) | (1 << 62), false), 0x7f);
    }

    #[test]
    fn ties_round_to_even_pattern() {
        let f = fmt(8, 0);
        // 1.felem: p8e0 has 5 fraction bits around 1.0. A value exactly halfway
        // between 1.0 (0x40) and 1.03125 (0x41) must round to 0x40 (even LSB).
        let halfway = (1u64 << 63) | (1u64 << 57);
        assert_eq!(encode(f, false, 0, halfway, false), 0x40);
        // The same halfway point above an odd pattern rounds up to even.
        let v = (1u64 << 63) | (1u64 << 58) | (1u64 << 57); // 1.000011 -> between 0x41 and 0x42
        assert_eq!(encode(f, false, 0, v, false), 0x42);
        // Sticky breaks the tie upward.
        assert_eq!(encode(f, false, 0, halfway, true), 0x41);
        assert_eq!(encode(f, false, 0, halfway | 1, false), 0x41);
    }

    #[test]
    fn rounding_below_minpos_scale_boundary() {
        let f = fmt(8, 2); // max_scale 24
                           // 1.9 × 2^-24 is within [minpos, 2 minpos); nearest posit is
                           // 2^-24 (0x01) or 2^-20 (0x02). 1.9·2^-24 vs midpoint 8.5·2^-24:
                           // rounds down to minpos.
        let sig = 0xF333_3333_3333_3333u64; // ~1.9 left-aligned
        assert_eq!(encode(f, false, -24, sig, true), 0x01);
        // 9 × 2^-24 = 1.125 × 2^-21, above the midpoint -> rounds to 2^-20.
        let sig9 = (9u64) << 60; // 1001 left-aligned
        assert_eq!(encode(f, false, -21, sig9, false), 0x02);
    }

    #[test]
    fn negative_encoding_is_twos_complement() {
        let f = fmt(8, 0);
        let plus = encode(f, false, 1, 1 << 63, false);
        let minus = encode(f, true, 1, 1 << 63, false);
        assert_eq!(minus, plus.wrapping_neg() & 0xff);
    }

    #[test]
    fn widest_format_roundtrip_samples() {
        let f = fmt(32, 2);
        for bits in [
            1u32,
            f.one_bits(),
            f.maxpos_bits(),
            0x4123_4567,
            0x7ff0_0001,
            0x0000_0101,
        ] {
            if let Decoded::Finite(u) = decode(f, bits) {
                assert_eq!(encode(f, u.sign, u.scale, u.sig, false), bits);
            }
        }
    }
}
