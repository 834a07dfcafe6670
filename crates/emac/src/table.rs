//! The table words and tables every table-driven family shares.
//!
//! The paper's premise is that ≤ 8-bit EMAC arrays are cheap because the
//! pattern space is tiny (Fig. 8 counts LUTs per format); the software
//! analogue — "Template-Based Posit Multiplication" (Murillo & Del Barrio,
//! 2019) — precomputes per-format tables once so the hot loop is a lookup
//! instead of a bit-field decode per multiply-accumulate. Posit and
//! minifloat operands both reduce to the same integer form
//! (`±field × 2^scale` in a per-family unit chosen so every scale is
//! non-negative), so one fused-operand word ([`EmacEntry`]), one
//! per-pattern operand table ([`EmacLut`]), one aligned-integer image of
//! it ([`align`], [`AlignedLut`]) and one leak-once cache ([`cached`])
//! serve both; a [`crate::Family`] supplies only the decode that fills
//! them.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Widest format that gets a per-pattern operand table: `2^12` entries
/// keep every [`EmacLut`] at or below 32 KiB.
pub const MAX_LUT_WIDTH: u32 = 12;

/// Widest format whose fused operands are computed per element (posit:
/// split regime-prefix table; minifloat: fixed-offset bit fields) instead
/// of tabulated. Covers the whole §IV sweep, whose widest formats are
/// 16 bits; wider formats run the scalar datapath.
pub const MAX_COMPUTED_WIDTH: u32 = 16;

/// One fused EMAC operand: decode *and* the EMAC front end folded into a
/// single packed word, so the multiply-accumulate inner loop is two
/// loads, one small multiply and one shifted add. Layout:
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
/// product's LSB), of `min_subnormal²` for minifloats.
/// The word is wide enough for every format either family supports, so
/// the bit-field decode of a `new_reference()` unit produces it too.
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

/// A fused decode + EMAC-front-end table: one [`EmacEntry`] per pattern
/// of an `n ≤` [`MAX_LUT_WIDTH`] format — everything the decode stage and
/// the operand half of the multiply stage compute per MAC, precomputed
/// per format, once.
#[derive(Debug, Clone)]
pub struct EmacLut {
    mask: u32,
    entries: Vec<EmacEntry>,
}

impl EmacLut {
    /// Tabulates `decode` over all `2^n` patterns.
    pub fn build(n: u32, decode: impl Fn(u32) -> EmacEntry) -> Self {
        assert!(n <= MAX_LUT_WIDTH, "operand tables stop at 12 bits");
        EmacLut {
            mask: (1 << n) - 1,
            entries: (0..1u32 << n).map(decode).collect(),
        }
    }

    /// The fused operand for the low `n` bits of `bits`.
    #[inline(always)]
    pub fn entry(&self, bits: u32) -> EmacEntry {
        self.entries[(bits & self.mask) as usize]
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

/// The aligned-integer operand table: [`align`] of every [`EmacLut`]
/// entry — one word per pattern, 8 bytes each (2 KiB at 8 bits, 32 KiB at
/// 12). Derived from the fused operands, so the two schemes cannot drift
/// apart; the `kernel_equivalence` suite additionally pins bit-identity
/// against the reference datapath over all `2^(2n)` pairs.
#[derive(Debug, Clone)]
pub struct AlignedLut {
    mask: u32,
    words: Vec<i64>,
}

impl AlignedLut {
    /// Aligns every entry of `operands`.
    ///
    /// # Panics
    ///
    /// Panics if an operand exceeds [`ALIGNED_OPERAND_BITS`] — the caller
    /// builds this table only for formats whose operands all fit.
    pub fn build(operands: &EmacLut) -> Self {
        assert!(
            operands
                .entries
                .iter()
                .all(|&e| operand_bits(e) <= ALIGNED_OPERAND_BITS),
            "format's operands exceed the aligned word"
        );
        AlignedLut {
            mask: operands.mask,
            words: operands.entries.iter().map(|&e| align(e)).collect(),
        }
    }

    /// The aligned word for the low `n` bits of `bits`.
    #[inline(always)]
    pub fn word(&self, bits: u32) -> i64 {
        self.words[(bits & self.mask) as usize]
    }
}

/// The tables of one (family, format): the operand table for
/// `n ≤` [`MAX_LUT_WIDTH`] and, derived from it, its aligned-integer
/// image when every operand fits [`ALIGNED_OPERAND_BITS`].
#[derive(Debug)]
pub struct Tables {
    /// Per-pattern fused operands, when the format is narrow enough.
    pub operands: Option<EmacLut>,
    /// The same operands aligned, when they all fit the aligned word.
    pub aligned: Option<AlignedLut>,
}

/// What identifies one (family, format) in the table cache: the family
/// name and the format's two parameters.
pub type TableKey = (&'static str, u32, u32);

/// The process-wide tables for the `n`-bit format identified by `key`,
/// built on first use from the family's bit-field `decode`; `aligns` says
/// whether every operand of the format fits the aligned word
/// ([`crate::Family::operands_align`]).
///
/// Tables are leaked intentionally: the format space is small and finite,
/// each table is built once, and a `'static` borrow lets hot loops hold
/// the table without reference counting.
pub fn cached(
    key: TableKey,
    n: u32,
    aligns: bool,
    decode: impl Fn(u32) -> EmacEntry,
) -> &'static Tables {
    static CACHE: OnceLock<Mutex<HashMap<TableKey, &'static Tables>>> = OnceLock::new();
    let mut map = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("EMAC table cache poisoned");
    map.entry(key).or_insert_with(|| {
        let operands = (n <= MAX_LUT_WIDTH).then(|| EmacLut::build(n, decode));
        let aligned = operands.as_ref().filter(|_| aligns).map(AlignedLut::build);
        Box::leak(Box::new(Tables { operands, aligned }))
    })
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
        assert!(p(8, 0).aligned.is_some() && p(8, 0).operands.is_some());
        // posit<8,2>: 2·24 + 1 = 49-bit operands still align; posit<12,2>
        // (2·40 + 1 bits) keeps only the fused table.
        assert!(p(8, 2).aligned.is_some() && p(9, 0).aligned.is_some());
        assert!(p(12, 2).aligned.is_none() && p(12, 2).operands.is_some());
        assert!(p(13, 0).operands.is_none(), "fused table stops at 12");
        assert!(f(4, 3).aligned.is_some() && f(4, 7).aligned.is_some());
        assert!(f(6, 5).aligned.is_none() && f(6, 5).operands.is_some());
        assert!(f(5, 10).operands.is_none());
        assert!(std::ptr::eq(p(8, 1), p(8, 1)));
        assert!(std::ptr::eq(f(4, 3), f(4, 3)));
        // Same parameters, different family: distinct tables.
        assert!(!std::ptr::eq(p(8, 3), f(8, 3)));
    }

    /// Every word of `aligned` against the fused operand it came from.
    fn check_aligned(name: &str, n: u32, operands: &EmacLut, aligned: &AlignedLut) {
        for bits in 0..1u32 << n {
            let (e, w) = (operands.entry(bits), aligned.word(bits));
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
            let t = Posit::tables(fmt);
            let (ops, aligned) = (t.operands.as_ref().unwrap(), t.aligned.as_ref().unwrap());
            check_aligned(&fmt.to_string(), n, ops, aligned);
        }
        for (we, wf) in [(2u32, 2u32), (3, 2), (4, 3), (5, 6)] {
            let fmt = FloatFormat::new(we, wf).unwrap();
            let t = Float::tables(fmt);
            let (ops, aligned) = (t.operands.as_ref().unwrap(), t.aligned.as_ref().unwrap());
            check_aligned(&fmt.to_string(), fmt.n(), ops, aligned);
        }
    }

    #[test]
    fn tables_mask_to_width() {
        let t = Posit::tables(PositFormat::new(8, 1).unwrap());
        let (ops, aligned) = (t.operands.as_ref().unwrap(), t.aligned.as_ref().unwrap());
        assert_eq!(ops.entry(0x140), ops.entry(0x40));
        assert_eq!(aligned.word(0x140), aligned.word(0x40));
    }
}
