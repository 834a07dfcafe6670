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
//! operand table also carries the other end of the datapath for the
//! ≤ 8-bit formats: the round/encode stage, tabulated from the family's
//! own `encode` per register width ([`RoundLut`],
//! [`AlignedLut::rounding`]).

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

/// Widest format whose readout may tabulate: one byte per pattern.
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
/// uniform — `encode(lo + 1) == encode(hi − 1)` for both signs. Rounding
/// is monotone, so that check proves each interior slot equal to `encode`
/// of every register it stands for: the table is exact by construction,
/// and a format whose check fails within [`MAX_ROUND_BYTES`] gets none.
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
            .find_map(|m| Self::try_build(rows, m, &encode))
    }

    /// The table at `m` bits, or `None` at the first interior that is not
    /// uniform. A bit length whose least and greatest registers read out
    /// alike reads out alike throughout (rounding is monotone) and is
    /// filled from those two: the saturating binades and those below the
    /// format's least value, most of a register, cost two `encode`s each.
    fn try_build(rows: usize, m: u32, encode: &impl Fn(i64) -> u32) -> Option<Self> {
        let mut patterns = Vec::with_capacity((4 * rows) << m);
        for sign in [1, -1] {
            for q in 0..rows {
                let first = encode(sign * Self::bucket(q, 0, m).0);
                if first == encode(sign * Self::bucket(q, (1 << m) - 1, m).1) {
                    patterns.resize(patterns.len() + (2 << m), first as u8);
                    continue;
                }
                for b in 0..1 << m {
                    let (lo, last) = Self::bucket(q, b, m);
                    let (lo, last) = (sign * lo, sign * last);
                    let exact = encode(lo);
                    let interior = match lo == last {
                        true => exact,
                        false => encode(lo + sign),
                    };
                    if last != lo + sign && encode(last) != interior {
                        return None;
                    }
                    patterns.extend([exact as u8, interior as u8]);
                }
            }
        }
        Some(RoundLut { m, rows, patterns })
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

    /// The pattern register `r` reads out as.
    #[inline(always)]
    pub fn pattern(&self, r: i64) -> u32 {
        self.rounder()(r)
    }

    /// [`RoundLut::pattern`] as a closure holding the table's slice and
    /// shape by value, for the same reason as [`AlignedLut::decoder`].
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

    /// Capacities of the widths the rounding tables are pinned at: the
    /// benchmark models' fan-ins (4, 16, 117) and the sweeps' (1, 128, 1024).
    const CAPACITIES: [u64; 6] = [1, 4, 16, 117, 128, 1024];

    /// A unit's readout, `Family::encode` of the register `r`.
    fn encode_of<F: Family>(family: &F) -> impl Fn(i64) -> u32 + '_ {
        |r| family.encode(&crate::Accum::Small(r.into()))
    }

    /// `family`'s rounding table at a `width`-bit register, if any.
    fn round_table<F: Family>(family: &F, width: u32) -> Option<&'static RoundLut> {
        F::tables(family.format())?.rounding(width, encode_of(family))
    }

    /// Every register around every bucket of `lut` — `lo − 1`, `lo`,
    /// `lo + 1` and `hi − 1` of each (bit length, `b`), which include 0,
    /// `±2^p` and the saturating binades — and `draws` seeded registers of
    /// every magnitude, both signs, against `encode`.
    fn pin(name: &str, width: u32, lut: &RoundLut, encode: impl Fn(i64) -> u32, draws: usize) {
        let check = |r: i64| assert_eq!(lut.pattern(r), encode(r), "{name} W={width} R={r}");
        let m = lut.kept_bits();
        check(0);
        for q in 1..=width as usize {
            for b in 0..1u64 << m {
                let (lo, last) = RoundLut::bucket(q, b, m);
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
        // One bit fewer than kept leaves a bucket that straddles a rounding
        // boundary.
        let posit8 = posit(8, 0);
        let encode = encode_of(&posit8);
        assert!(RoundLut::try_build(31, 5, &encode).is_none());
        assert!(RoundLut::try_build(31, 6, &encode).is_some());
    }

    #[test]
    fn tables_mask_to_width() {
        let aligned = Posit::tables(PositFormat::new(8, 1).unwrap()).unwrap();
        assert_eq!(aligned.word(0x140), aligned.word(0x40));
    }
}
