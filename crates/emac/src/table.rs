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
//! [`crate::Family`] supplies only the decode that fills them. Each
//! operand table also carries both ends of the datapath for the ≤ 8-bit
//! formats, tabulated by one bucket walk that proves them exact: the `f32`
//! quantiser, from the family's own `word_from_f32` ([`QuantizeLut`]), and
//! the round/encode stage, from its own `encode` per register width
//! ([`RoundLut`]).

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
    /// The format's [`RoundLut`] per register width, built on first use.
    rounding: [OnceLock<Option<&'static RoundLut>>; MAX_ROUND_REGISTER as usize + 1],
    /// The format's [`QuantizeLut`], built on first use.
    quantizer: OnceLock<Option<&'static QuantizeLut>>,
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
            rounding: std::array::from_fn(|_| OnceLock::new()),
            quantizer: OnceLock::new(),
        }
    }

    /// The format's process-wide [`RoundLut`] at a `width`-bit register,
    /// built on first use from `encode` — the family's readout of a
    /// register — and leaked like the operand table; `None`, also kept,
    /// when the readout does not tabulate ([`RoundLut::build`]).
    pub fn rounding(
        &'static self,
        width: u32,
        encode: impl Fn(i64) -> u32,
    ) -> Option<&'static RoundLut> {
        let n = self.words.len().trailing_zeros();
        let slot = self.rounding.get(width as usize)?;
        *slot.get_or_init(|| RoundLut::build(n, width, encode).map(|t| &*Box::leak(Box::new(t))))
    }

    /// The format's process-wide [`QuantizeLut`], built on first use from
    /// `word` — the family's `word_from_f32` — and kept like the rounding
    /// tables; `None` past [`MAX_ROUND_WIDTH`] bits or when the quantiser
    /// does not tabulate ([`QuantizeLut::build`]).
    pub fn quantizer(&'static self, word: impl Fn(f32) -> i64) -> Option<&'static QuantizeLut> {
        let narrow = self.words.len() <= 1 << MAX_ROUND_WIDTH;
        let build = || QuantizeLut::build(word).map(|t| &*Box::leak(Box::new(t)));
        *self.quantizer.get_or_init(|| narrow.then(build).flatten())
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

/// Widest format whose readout or quantiser may tabulate.
pub const MAX_ROUND_WIDTH: u32 = 8;

/// Widest register whose readout may tabulate: every sum is an `i64`.
pub const MAX_ROUND_REGISTER: u32 = 63;

/// Largest [`RoundLut`], in bytes.
pub const MAX_ROUND_BYTES: usize = 16 << 10;

/// The round/encode stage as a table: every register `R` of a unit whose
/// register is at most 63 bits wide mapped straight to the pattern the family's
/// `encode` rounds it to. `R` is indexed by its sign, the bit length `q` of
/// `|R|`, the `M` bits `b` below its leading one, and whether any bit below
/// those is set (`rest`); `R = 0` is the slot `q = 0`. A slot holds
/// `encode(±lo)` when `rest` is clear — the bucket's exact value, which is
/// also its tie — and `encode(±(lo + 1))` when set: the interior, every
/// value strictly between `lo` and the next bucket's `hi`. Negative slots
/// encode the negative register itself.
///
/// [`RoundLut::build`] keeps the smallest `M` for which every interior is
/// uniform — `encode(lo + 1) == encode(hi − 1)` for both signs. Rounding is
/// monotone, so that check proves the table exact; a format whose check
/// fails within [`MAX_ROUND_BYTES`] gets none.
#[derive(Debug, Clone)]
pub struct RoundLut {
    /// `M`: register bits kept below the leading one.
    m: u32,
    /// Bit lengths per sign: `0..=width`, every magnitude a `width`-bit
    /// register holds (`2^(width−1)` included).
    rows: usize,
    /// The patterns, indexed `((sign · rows + q) << M | b) << 1 | rest`.
    patterns: Vec<u8>,
}

impl RoundLut {
    /// The rounding table of an `n`-bit format at a `width`-bit register
    /// whose readout is `encode(R)`, or `None` when `n` exceeds
    /// [`MAX_ROUND_WIDTH`], the register exceeds [`MAX_ROUND_REGISTER`]
    /// bits, or no `M` makes every bucket uniform within
    /// [`MAX_ROUND_BYTES`].
    pub fn build(n: u32, width: u32, encode: impl Fn(i64) -> u32) -> Option<Self> {
        if n > MAX_ROUND_WIDTH || !(1..=MAX_ROUND_REGISTER).contains(&width) {
            return None;
        }
        let rows = width as usize + 1;
        (1..)
            .take_while(|&m| (4 * rows) << m <= MAX_ROUND_BYTES)
            .find_map(|m| {
                let patterns = walk(rows, m, |q, b| Self::bucket(q, b, m), |r| encode(r) as u8)?;
                Some(RoundLut { m, rows, patterns })
            })
    }

    /// The least and greatest magnitudes of bucket `(q, b)` at `m` bits
    /// (equal unless the bit length exceeds `m + 1`).
    fn bucket(q: usize, b: u64, m: u32) -> (i64, i64) {
        let Some(p) = q.checked_sub(1) else {
            return (0, 0);
        };
        let lo = (1u64 << p) + (((b as u128) << p) >> m) as u64;
        let span = (1u64 << p.saturating_sub(m as usize)) - 1;
        (lo as i64, (lo + span) as i64)
    }

    /// `M`, the register bits this table keeps below the leading one.
    pub fn kept_bits(&self) -> u32 {
        self.m
    }

    /// The pattern a register reads out as, as a closure holding the
    /// table's slice and shape by value, for the same reason as
    /// [`AlignedLut::decoder`].
    #[inline(always)]
    pub fn rounder(&self) -> impl Fn(i64) -> u32 + Copy + '_ {
        let (patterns, m, rows) = (self.patterns.as_slice(), self.m, self.rows);
        move |r: i64| {
            let magnitude = r.unsigned_abs();
            let lz = magnitude.leading_zeros();
            // The bits below the leading one, left-aligned (0 for R = 0).
            let below = magnitude.wrapping_shl(lz) << 1;
            let row = (r < 0) as usize * rows + (64 - lz) as usize;
            let bucket = row << m | (below >> (64 - m)) as usize;
            patterns[bucket << 1 | (below << m != 0) as usize] as u32
        }
    }
}

/// The bucket walk that builds both lookup tables at `m` bits and proves
/// them exact. Per sign (`1`, then `−1`, multiplying every key) and row, a
/// row whose least and greatest keys read alike is filled from them; any
/// other gets two slots per bucket `(lo, last) = bucket(row, b < 2^m)`:
/// `read(±lo)`, the exact key, then `read(±(lo + 1))`, the interior, which
/// must equal `read(±last)` (`None` at the first that does not). Rounding
/// is monotone, so each slot equals `read` of every key it stands for.
fn walk<T: Copy + PartialEq>(
    rows: usize,
    m: u32,
    bucket: impl Fn(usize, u64) -> (i64, i64),
    read: impl Fn(i64) -> T,
) -> Option<Vec<T>> {
    let mut slots = Vec::with_capacity((4 * rows) << m);
    for sign in [1, -1] {
        let read = |k: i64| read(sign * k);
        for row in 0..rows {
            let first = read(bucket(row, 0).0);
            if first == read(bucket(row, (1 << m) - 1).1) {
                slots.resize(slots.len() + (2 << m), first);
                continue;
            }
            for b in 0..1 << m {
                let (lo, last) = bucket(row, b);
                let exact = read(lo);
                let interior = if lo == last { exact } else { read(lo + 1) };
                if last > lo + 1 && read(last) != interior {
                    return None;
                }
                slots.extend([exact, interior]);
            }
        }
    }
    Some(slots)
}

/// Largest [`QuantizeLut`], in bytes.
pub const MAX_QUANTIZE_BYTES: usize = 32 << 10;

/// The `f32` quantiser as a table: every single mapped straight to the
/// operand word ([`align`]) the family's `word_from_f32` gives it, keyed by
/// the single's own bits — its sign, an exponent row, the top `M` fraction
/// bits and whether any bit below those is set. Row 0 holds zero and the
/// subnormals, the last row infinity and NaN; between them the exponent is
/// clamped to the format's range, so the row at each end also stands for
/// every exponent that underflows or saturates. One read of a 512-entry
/// table by `bits >> 23` finds the row, so the index has no branch.
///
/// [`QuantizeLut::build`] clamps at the widest ends whose rows read alike
/// end to end, then keeps the smallest `M` that passes [`RoundLut`]'s check
/// (every NaN quantises alike, too); a format that fails within
/// [`MAX_QUANTIZE_BYTES`] gets none.
#[derive(Debug, Clone)]
pub struct QuantizeLut {
    /// `M`: fraction bits kept.
    m: u32,
    /// Per sign and exponent field (`bits >> 23`), its row's first slot.
    rows: [u32; 512],
    /// The words, indexed `((sign · rows + row) << M | b) << 1 | rest`.
    words: Vec<i64>,
}

impl QuantizeLut {
    /// The table of the quantiser `word`, or `None` when no `M` makes every
    /// bucket uniform within [`MAX_QUANTIZE_BYTES`].
    pub fn build(word: impl Fn(f32) -> i64) -> Option<Self> {
        // A key is a single's magnitude bits, negated for a negative single.
        let single = |k: i64| f32::from_bits(k.unsigned_abs() as u32 | ((k < 0) as u32) << 31);
        let read = |k: i64| word(single(k));
        let alike = |lo: i64, hi: i64| read(lo) == read(hi) && read(-lo) == read(-hi);
        // The clamp: exponents to `lo` read as 2^-126 does, from `hi` as f32::MAX.
        let lo = (1..255).take_while(|&e| alike(1 << 23, (e << 23) + 0x7f_ffff));
        let lo = lo.last()?;
        let hi = (lo + 1..255).rev();
        let hi = hi.take_while(|&e| alike(e << 23, 0x7f7f_ffff)).last()?;
        let row = |e: i64| match e {
            0 => 0,
            255 => hi - lo + 2,
            e => e.clamp(lo, hi) - lo + 1,
        } as usize;
        let mut spans = vec![(255, 0); row(255) + 1];
        for e in 0..256 {
            let span = &mut spans[row(e)];
            *span = (span.0.min(e), span.1.max(e));
        }
        (1..24)
            .take_while(|&m| (32 * spans.len()) << m <= MAX_QUANTIZE_BYTES)
            .find_map(|m| {
                let bucket = |r: usize, b: u64| {
                    let (b, tail) = ((b as i64) << (23 - m), (1 << (23 - m)) - 1);
                    (spans[r].0 << 23 | b, spans[r].1 << 23 | b | tail)
                };
                let words = walk(spans.len(), m, bucket, read)?;
                let slot = |i: usize| ((i >> 8) * spans.len() + row(i as i64 & 255)) << (m + 1);
                let rows = std::array::from_fn(|i| slot(i) as u32);
                Some(QuantizeLut { m, rows, words })
            })
    }

    /// The word a single quantises to, as a closure holding the table's
    /// slices and shape by value, for the same reason as
    /// [`AlignedLut::decoder`].
    #[inline(always)]
    pub fn quantizer(&self) -> impl Fn(f32) -> i64 + Copy + '_ {
        let (rows, words, shift) = (&self.rows, self.words.as_slice(), 23 - self.m);
        move |v: f32| {
            let (bits, tail) = (v.to_bits(), (1 << shift) - 1);
            let slot = rows[(bits >> 23) as usize] | (bits & 0x7f_ffff) >> shift << 1;
            words[(slot | (bits & tail != 0) as u32) as usize]
        }
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
/// the table without reference counting. The same holds for the rounding
/// tables each one carries ([`AlignedLut::rounding`]).
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
