//! The table words and tables every table-driven family shares.
//!
//! The paper's premise is that ≤ 8-bit EMAC arrays are cheap because the
//! pattern space is tiny (Fig. 8 counts LUTs per format); the software
//! analogue — "Template-Based Posit Multiplication" (Murillo & Del Barrio,
//! 2019) — precomputes per-format tables once so the hot loop is a lookup
//! instead of a bit-field decode per multiply-accumulate. Posit and
//! minifloat operands both reduce to the same integer form
//! (`±field × 2^scale` in a per-family unit chosen so every scale is
//! non-negative), so one operand word ([`EmacEntry`]), one aligned-integer
//! image of it ([`align`]), one per-pattern table of those images
//! ([`AlignedLut`]) and one leak-once cache ([`cached`]) serve both; a
//! [`crate::Family`] supplies only the decode that fills them.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Widest format that gets a per-pattern operand table: `2^12` entries
/// keep every [`AlignedLut`] at or below 32 KiB.
pub const MAX_LUT_WIDTH: u32 = 12;

/// Widest format whose aligned operands are computed per element (posit:
/// split regime-prefix table; minifloat: fixed-offset bit fields) instead
/// of tabulated. Covers the whole §IV sweep, whose widest formats are
/// 16 bits; wider formats run the scalar datapath.
pub const MAX_COMPUTED_WIDTH: u32 = 16;

/// One decoded EMAC operand: decode *and* the EMAC front end folded into
/// a single packed word, so a multiply-accumulate is one small multiply
/// and one shifted add. Layout:
///
/// ```text
/// bits  0..32   integer significand (posit: the hidden bit and fraction,
///               at most F = n−2−es bits, trailing zeros moved into the
///               scale; minifloat: hidden | frac, unnormalised)
/// bits 32..48   non-negative scale (posit: units of minpos; minifloat:
///               max(exp_field, 1) − 1, i.e. units of min_subnormal)
/// bit  48       sign
/// bit  49       special flag (NaR / Inf / NaN): poisons the EMAC
/// ```
///
/// Zero carries significand 0, so zero operands fall out of the product
/// rather than needing their own branch. Two operands multiply as
/// `field·field` positioned at `scale_w + scale_a` — multiples of minpos²
/// for posits (Algorithm 2's biased scale factor, counted from the
/// product's LSB), of `min_subnormal²` for minifloats, of `2^(−2q)` for
/// fixed point (scale 0). The word is wide enough for every format any
/// family supports, so the bit-field decode of a `new_reference()` unit
/// produces it too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmacEntry(pub u64);

impl EmacEntry {
    /// Bit flagging NaR / Inf / NaN.
    pub const SPECIAL_BIT: u64 = 1 << 49;
    /// Bit carrying the sign.
    pub const SIGN_BIT: u64 = 1 << 48;
    /// Positive zero: the all-clear word.
    pub const ZERO: EmacEntry = EmacEntry(0);
    /// A special operand (significand 0, so it adds nothing).
    pub const SPECIAL: EmacEntry = EmacEntry(Self::SPECIAL_BIT);

    /// Packs a finite operand `(-1)^sign × field × 2^scale`.
    #[inline(always)]
    pub fn pack(sign: bool, field: u64, scale: u32) -> Self {
        debug_assert!(field < (1 << 32) && scale < (1 << 16));
        EmacEntry(field | ((scale as u64) << 32) | if sign { Self::SIGN_BIT } else { 0 })
    }

    /// The integer significand, 0 for zero and specials.
    #[inline(always)]
    pub fn field(self) -> u64 {
        self.0 & 0xffff_ffff
    }

    /// The non-negative scale of the significand's LSB.
    #[inline(always)]
    pub fn scale(self) -> u32 {
        ((self.0 >> 32) & 0xffff) as u32
    }

    /// Sign of the operand.
    #[inline(always)]
    pub fn sign(self) -> bool {
        self.0 & Self::SIGN_BIT != 0
    }

    /// Whether this pattern is NaR / Inf / NaN.
    #[inline(always)]
    pub fn is_special(self) -> bool {
        self.0 & Self::SPECIAL_BIT != 0
    }
}

/// Widest aligned operand magnitude, in bits: `field << scale` must fit
/// here so that the signed value plus the special flag fill exactly one
/// 64-bit [`AlignedLut`] word.
pub const ALIGNED_OPERAND_BITS: u32 = 62;

/// Bits of the aligned magnitude `field << scale` (0 for zero and
/// specials).
#[inline(always)]
fn operand_bits(e: EmacEntry) -> u32 {
    match e.field() {
        0 => 0,
        field => 64 - field.leading_zeros() + e.scale(),
    }
}

/// Aligns one fused operand into a plain signed integer word:
///
/// ```text
/// bit  0       special flag (NaR / Inf / NaN); the value is then 0
/// bits 1..64   ±(field << scale), two's complement
/// ```
///
/// Every operand is `±field × 2^scale` with a non-negative scale, so the
/// aligned value is an ordinary integer and an exact EMAC sum is an
/// ordinary integer dot product: `word >> 1` is the multiplicand (zero
/// for specials, which therefore add nothing — like the scalar
/// datapath), `word & 1` the poison.
#[inline(always)]
pub fn align(e: EmacEntry) -> i64 {
    debug_assert!(
        operand_bits(e) <= ALIGNED_OPERAND_BITS,
        "operand exceeds the aligned word"
    );
    let magnitude = (e.field() << e.scale()) as i64;
    let value = if e.sign() { -magnitude } else { magnitude };
    (value << 1) | e.is_special() as i64
}

/// The aligned-integer operand table: [`align`] of every pattern's
/// decoded operand — one word per pattern, 8 bytes each (2 KiB at 8 bits,
/// 32 KiB at 12). Built from the same [`crate::Family::decode`] the
/// per-MAC datapath runs, so the two cannot drift apart; the
/// `kernel_equivalence` suite additionally pins bit-identity against the
/// reference datapath over all `2^(2n)` pairs.
#[derive(Debug, Clone)]
pub struct AlignedLut {
    mask: u32,
    words: Vec<i64>,
}

impl AlignedLut {
    /// Aligns `decode` of all `2^n` patterns.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_LUT_WIDTH`] or an operand exceeds
    /// [`ALIGNED_OPERAND_BITS`] — the caller builds this table only for
    /// formats whose operands all fit.
    pub fn build(n: u32, decode: impl Fn(u32) -> EmacEntry) -> Self {
        assert!(n <= MAX_LUT_WIDTH, "operand tables stop at 12 bits");
        let words = (0..1u32 << n).map(|bits| {
            let e = decode(bits);
            assert!(
                operand_bits(e) <= ALIGNED_OPERAND_BITS,
                "format's operands exceed the aligned word"
            );
            align(e)
        });
        AlignedLut {
            mask: (1 << n) - 1,
            words: words.collect(),
        }
    }

    /// The aligned word for the low `n` bits of `bits`.
    #[inline(always)]
    pub fn word(&self, bits: u32) -> i64 {
        self.decoder()(bits)
    }

    /// [`AlignedLut::word`] as a closure holding the table's slice and
    /// mask by value — what a decode loop should call: a loop that also
    /// stores cannot prove the table's own fields unchanged, and through
    /// `&self` re-reads all three per element.
    #[inline(always)]
    pub fn decoder(&self) -> impl Fn(u32) -> i64 + Copy + '_ {
        let (words, mask) = (self.words.as_slice(), self.mask);
        move |bits| words[(bits & mask) as usize]
    }
}

/// What identifies one (family, format) in the table cache: the family
/// name and the format's two parameters.
pub type TableKey = (&'static str, u32, u32);

/// The process-wide aligned table of the `n`-bit format identified by
/// `key`, built on first use from the family's bit-field `decode` — for
/// formats of at most [`MAX_LUT_WIDTH`] bits whose operands all fit the
/// aligned word (`aligns`: [`crate::Family::operands_align`]), `None`
/// otherwise.
///
/// Tables are leaked intentionally: the format space is small and finite,
/// each table is built once, and a `'static` borrow lets hot loops hold
/// the table without reference counting.
pub fn cached(
    key: TableKey,
    n: u32,
    aligns: bool,
    decode: impl Fn(u32) -> EmacEntry,
) -> Option<&'static AlignedLut> {
    static CACHE: OnceLock<Mutex<HashMap<TableKey, &'static AlignedLut>>> = OnceLock::new();
    if n > MAX_LUT_WIDTH || !aligns {
        return None;
    }
    let mut map = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("EMAC table cache poisoned");
    let table = map
        .entry(key)
        .or_insert_with(|| Box::leak(Box::new(AlignedLut::build(n, decode))));
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Family, Float, Posit};
    use dp_minifloat::FloatFormat;
    use dp_posit::PositFormat;

    #[test]
    fn tables_follow_the_width_bands_and_memoize() {
        let p = |n, es| Posit::tables(PositFormat::new(n, es).unwrap());
        let f = |we, wf| Float::tables(FloatFormat::new(we, wf).unwrap());
        // posit<8,2>: 2·24 + 1 = 49-bit operands still align; posit<12,2>
        // (2·40 + 1 bits) does not.
        assert!(p(8, 0).is_some() && p(8, 2).is_some() && p(9, 0).is_some());
        assert!(p(12, 2).is_none());
        assert!(p(13, 0).is_none(), "tables stop at 12 bits");
        assert!(f(4, 3).is_some() && f(4, 7).is_some());
        assert!(f(6, 5).is_none() && f(5, 10).is_none());
        assert!(std::ptr::eq(p(8, 1).unwrap(), p(8, 1).unwrap()));
        assert!(std::ptr::eq(f(4, 3).unwrap(), f(4, 3).unwrap()));
        // Same parameters, different family: distinct tables.
        assert!(!std::ptr::eq(p(5, 2).unwrap(), f(5, 2).unwrap()));
    }

    /// Every word of `aligned` against the operand it came from.
    fn check_aligned(name: &str, n: u32, decode: impl Fn(u32) -> EmacEntry, aligned: &AlignedLut) {
        for bits in 0..1u32 << n {
            let (e, w) = (decode(bits), aligned.word(bits));
            assert_eq!(w & 1 != 0, e.is_special(), "{name} {bits:#x}");
            let magnitude = (e.field() as i128) << e.scale();
            let value = if e.sign() { -magnitude } else { magnitude };
            assert_eq!((w >> 1) as i128, value, "{name} {bits:#x}");
            assert!(magnitude < 1 << ALIGNED_OPERAND_BITS, "{name} {bits:#x}");
        }
    }

    #[test]
    fn aligned_words_reconstruct_the_fused_operands_exhaustively() {
        for (n, es) in [(6u32, 0u32), (8, 0), (8, 1), (8, 2), (12, 1)] {
            let fmt = PositFormat::new(n, es).unwrap();
            let bitfield = Posit::new(fmt, false);
            let aligned = Posit::tables(fmt).unwrap();
            check_aligned(&fmt.to_string(), n, |b| bitfield.decode(b), aligned);
        }
        for (we, wf) in [(2u32, 2u32), (3, 2), (4, 3), (5, 6)] {
            let fmt = FloatFormat::new(we, wf).unwrap();
            let fields = Float::new(fmt, false);
            let aligned = Float::tables(fmt).unwrap();
            check_aligned(&fmt.to_string(), fmt.n(), |b| fields.decode(b), aligned);
        }
    }

    #[test]
    fn tables_mask_to_width() {
        let aligned = Posit::tables(PositFormat::new(8, 1).unwrap()).unwrap();
        assert_eq!(aligned.word(0x140), aligned.word(0x40));
    }
}
