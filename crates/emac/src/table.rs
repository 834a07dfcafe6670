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
//! finished-product word ([`ProductEntry`]), one per-pattern operand table
//! ([`EmacLut`]), one `2^(2n)` product table ([`ProductLut`]) and one
//! leak-once cache ([`cached`]) serve both; a [`crate::Family`] supplies
//! only the decode that fills them.

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

/// Widest format that gets a **finished-product table** ([`ProductLut`]):
/// `2^(2n)` entries keep the 8-bit table at 256 KiB (inside L2), and the
/// paper's headline formats are all ≤ 8 bits.
pub const MAX_PRODUCT_WIDTH: u32 = 8;

/// One fused EMAC operand: decode *and* the EMAC front end folded into a
/// single packed word, so the multiply-accumulate inner loop is two
/// loads, one small multiply and one shifted add. Layout:
///
/// ```text
/// bits  0..32   integer significand (posit: the F = n−2−es bits with the
///               hidden bit; minifloat: hidden | frac, unnormalised)
/// bits 32..48   non-negative scale (posit: scale + max_scale; minifloat:
///               max(exp_field, 1) − 1, i.e. units of min_subnormal)
/// bit  48       sign
/// bit  49       special flag (NaR / Inf / NaN): poisons the EMAC
/// ```
///
/// Zero carries significand 0, so zero operands fall out of the product
/// rather than needing their own branch. Two operands multiply as
/// `field·field` positioned at `scale_w + scale_a` — Algorithm 2's biased
/// scale factor for posits, multiples of `min_subnormal²` for minifloats.
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

/// One finished product: everything decode *and* the multiply stage
/// produce for a `(weight, activation)` pair, fused into a single word so
/// the MAC inner loop has **no multiply at all**. Layout:
///
/// ```text
/// bits  0..16   field(w) × field(a), the exact significand product
/// bits 16..26   scale(w) + scale(a), the register shift of the product LSB
/// bit  26       sign of the product
/// bit  27       special (either operand): product 0, accumulator poisons
/// ```
///
/// Zero operands produce product 0, so zero needs no branch; a special
/// pair also carries product 0, so a poisoned accumulation leaves the
/// register untouched exactly like the scalar datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProductEntry(pub u32);

impl ProductEntry {
    /// Bit flagging a special operand (either side).
    pub const SPECIAL_BIT: u32 = 1 << 27;
    /// Bit carrying the product sign.
    pub const SIGN_BIT: u32 = 1 << 26;

    /// Fuses one operand pair.
    fn fuse(ew: EmacEntry, ea: EmacEntry) -> Self {
        if ew.is_special() || ea.is_special() {
            return ProductEntry(Self::SPECIAL_BIT);
        }
        let prod = ew.field() * ea.field();
        if prod == 0 {
            return ProductEntry(0);
        }
        let shift = ew.scale() + ea.scale();
        assert!(
            prod < (1 << 16) && shift < (1 << 10),
            "pair exceeds the word"
        );
        let sign = if ew.sign() ^ ea.sign() {
            Self::SIGN_BIT
        } else {
            0
        };
        ProductEntry(prod as u32 | (shift << 16) | sign)
    }

    /// The exact significand product, 0 when either operand is zero or
    /// special.
    #[inline(always)]
    pub fn product(self) -> u64 {
        (self.0 & 0xffff) as u64
    }

    /// The register shift `scale(w) + scale(a)`.
    #[inline(always)]
    pub fn shift(self) -> u32 {
        (self.0 >> 16) & 0x3ff
    }

    /// Sign of the product.
    #[inline(always)]
    pub fn negate(self) -> bool {
        self.0 & Self::SIGN_BIT != 0
    }

    /// Whether either operand was special.
    #[inline(always)]
    pub fn is_special(self) -> bool {
        self.0 & Self::SPECIAL_BIT != 0
    }
}

/// A finished-product table: one [`ProductEntry`] per `(weight,
/// activation)` pattern pair — `2^(2n)` entries, ≤ 256 KiB at 8 bits.
///
/// Where [`EmacLut`] tabulates the decode *per operand* (leaving one
/// multiply per MAC), this table tabulates the **multiply itself**, so
/// the n ≤ 8 inner loop is a single load and a shifted add. Entries are
/// derived from the same fused [`EmacEntry`] words, so the two schemes
/// cannot drift apart; the `kernel_equivalence` suite additionally pins
/// bit-identity against the reference datapath over all `2^(2n)` pairs.
#[derive(Debug, Clone)]
pub struct ProductLut {
    n: u32,
    entries: Vec<ProductEntry>,
}

impl ProductLut {
    /// Fuses every operand pair of an `n ≤` [`MAX_PRODUCT_WIDTH`] format.
    pub fn build(n: u32, operands: &EmacLut) -> Self {
        assert!(n <= MAX_PRODUCT_WIDTH, "product tables stop at 8 bits");
        let mut entries = Vec::with_capacity(1usize << (2 * n));
        for w in 0..1u32 << n {
            let ew = operands.entry(w);
            entries.extend((0..1u32 << n).map(|a| ProductEntry::fuse(ew, operands.entry(a))));
        }
        ProductLut { n, entries }
    }

    /// The finished product for the pair (low `n` bits of each operand).
    #[inline(always)]
    pub fn entry(&self, weight: u32, activation: u32) -> ProductEntry {
        let mask = (1u32 << self.n) - 1;
        self.entries[(((weight & mask) as usize) << self.n) | (activation & mask) as usize]
    }

    /// The contiguous `2^n`-entry row for `weight`: element `a` of the
    /// returned slice is `entry(weight, a)`. The tile kernels resolve a
    /// weight's row base once and index it per column, hoisting the
    /// weight shift out of the column-wide inner step — and because the
    /// row length is a power of two, `row[(a & (len − 1)) as usize]`
    /// needs no bounds check.
    #[inline(always)]
    pub fn row(&self, weight: u32) -> &[ProductEntry] {
        let base = ((weight & ((1u32 << self.n) - 1)) as usize) << self.n;
        &self.entries[base..base + (1usize << self.n)]
    }

    /// Number of table entries (`2^(2n)`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: every format has at least `2^6` pairs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The tables of one (family, format): the operand table for
/// `n ≤` [`MAX_LUT_WIDTH`] and, derived from it, the product table for
/// `n ≤` [`MAX_PRODUCT_WIDTH`].
#[derive(Debug)]
pub struct Tables {
    /// Per-pattern fused operands, when the format is narrow enough.
    pub operands: Option<EmacLut>,
    /// Finished products, when the format is narrow enough.
    pub products: Option<ProductLut>,
}

/// What identifies one (family, format) in the table cache: the family
/// name and the format's two parameters.
pub type TableKey = (&'static str, u32, u32);

/// The process-wide tables for the `n`-bit format identified by `key`,
/// built on first use from the family's bit-field `decode`.
///
/// Tables are leaked intentionally: the format space is small and finite,
/// each table is built once, and a `'static` borrow lets hot loops hold
/// the table without reference counting.
pub fn cached(key: TableKey, n: u32, decode: impl Fn(u32) -> EmacEntry) -> &'static Tables {
    static CACHE: OnceLock<Mutex<HashMap<TableKey, &'static Tables>>> = OnceLock::new();
    let mut map = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("EMAC table cache poisoned");
    map.entry(key).or_insert_with(|| {
        let operands = (n <= MAX_LUT_WIDTH).then(|| EmacLut::build(n, decode));
        let products = match &operands {
            Some(t) if n <= MAX_PRODUCT_WIDTH => Some(ProductLut::build(n, t)),
            _ => None,
        };
        Box::leak(Box::new(Tables { operands, products }))
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
        assert!(p(8, 0).products.is_some() && p(8, 0).operands.is_some());
        assert!(p(9, 0).products.is_none() && p(12, 2).operands.is_some());
        assert!(p(13, 0).operands.is_none(), "fused table stops at 12");
        assert!(f(4, 3).products.is_some() && f(4, 4).products.is_none());
        assert!(f(4, 7).operands.is_some() && f(5, 10).operands.is_none());
        assert!(std::ptr::eq(p(8, 1), p(8, 1)));
        assert!(std::ptr::eq(f(4, 3), f(4, 3)));
        // Same parameters, different family: distinct tables.
        assert!(!std::ptr::eq(p(8, 3), f(8, 3)));
    }

    /// Every pair of `operands` against the table built from it.
    fn check_products(n: u32, name: &str, operands: &EmacLut, products: &ProductLut) {
        assert_eq!(products.len(), 1usize << (2 * n));
        assert!(!products.is_empty());
        for w in 0..1u32 << n {
            let row = products.row(w);
            assert_eq!(row.len(), 1usize << n);
            for a in 0..1u32 << n {
                let p = products.entry(w, a);
                assert_eq!(row[a as usize], p, "{name} {w:#x}×{a:#x} row");
                let (ew, ea) = (operands.entry(w), operands.entry(a));
                if ew.is_special() || ea.is_special() {
                    assert!(p.is_special(), "{name} {w:#x}×{a:#x}");
                    assert_eq!(p.product(), 0, "{name} {w:#x}×{a:#x}");
                    continue;
                }
                assert!(!p.is_special());
                let prod = ew.field() * ea.field();
                if prod == 0 {
                    assert_eq!(p.0, 0, "{name} {w:#x}×{a:#x}");
                    continue;
                }
                assert_eq!(p.product(), prod, "{name} {w:#x}×{a:#x}");
                assert_eq!(p.shift(), ew.scale() + ea.scale(), "{name} {w:#x}×{a:#x}");
                assert_eq!(p.negate(), ew.sign() ^ ea.sign(), "{name} {w:#x}×{a:#x}");
            }
        }
    }

    #[test]
    fn product_entries_fuse_operand_pairs_exhaustively() {
        for es in [0u32, 1, 2] {
            let fmt = PositFormat::new(6, es).unwrap();
            let t = Posit::tables(fmt);
            let (ops, prods) = (t.operands.as_ref().unwrap(), t.products.as_ref().unwrap());
            check_products(fmt.n(), &fmt.to_string(), ops, prods);
        }
        for (we, wf) in [(2u32, 2u32), (3, 2), (4, 3)] {
            let fmt = FloatFormat::new(we, wf).unwrap();
            let t = Float::tables(fmt);
            let (ops, prods) = (t.operands.as_ref().unwrap(), t.products.as_ref().unwrap());
            check_products(fmt.n(), &fmt.to_string(), ops, prods);
        }
    }

    #[test]
    fn tables_mask_to_width() {
        let t = Posit::tables(PositFormat::new(8, 1).unwrap());
        let (ops, prods) = (t.operands.as_ref().unwrap(), t.products.as_ref().unwrap());
        assert_eq!(ops.entry(0x140), ops.entry(0x40));
        assert_eq!(prods.entry(0x140, 0x123), prods.entry(0x40, 0x23));
        assert_eq!(prods.row(0x140)[0x23], prods.entry(0x40, 0x23));
    }
}
