//! Table-driven posit decode.
//!
//! The paper's whole premise is that ≤8-bit EMAC arrays are cheap because
//! the pattern space is tiny (Fig. 8 counts LUTs per format). The software
//! analogue — "Template-Based Posit Multiplication" (Murillo & Del Barrio,
//! 2019) — precomputes per-format tables once so the hot loop becomes a
//! table lookup instead of re-running Algorithm 1's bit-field extraction
//! on every multiply-accumulate.
//!
//! A [`DecodeLut`] holds the fully decoded [`Decoded`] for all `2^n`
//! patterns of one format. Formats up to 12 bits qualify
//! (4096 entries × 16 B = 64 KiB worst case). Formats of 13 to
//! 16 bits — the paper's §IV comparison sweep runs up to
//! \[16,1\] — use the **split-table** scheme instead ([`SplitLut`]): a
//! 256-entry regime-prefix table indexed by the top 8 bits of the
//! sign-folded body yields the regime length, its scale contribution and
//! (implicitly) the fraction-shift, composed with a direct fraction
//! extraction — table-driven regime handling without a 64 K-entry
//! monolithic table per format. Only formats wider than 16 bits
//! fall back to the bit-field [`decode`] path. [`cached`] /
//! [`split_cached`] memoize one table per format for the life of the
//! process, so callers share tables across units, layers and threads.
//!
//! The EMAC's aligned-operand tables are built on top of these decodes in
//! `dp_emac::table`, shared with the minifloat family.

use crate::decode::{decode, Decoded, Unpacked};
use crate::format::PositFormat;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Widest format that gets a monolithic decode table: `2^12` entries keep
/// every table at or below 64 KiB, comfortably inside L2 for the ≤8-bit
/// formats the paper evaluates (whose tables are ≤4 KiB and live in L1).
/// Formats of `MAX_LUT_WIDTH + 1 ..= MAX_SPLIT_WIDTH` bits use the
/// [`SplitLut`] scheme; only wider ones run bit-field [`decode`].
const MAX_LUT_WIDTH: u32 = 12;

/// Widest format that gets a split (regime-prefix + direct fraction)
/// table. Covers the whole §IV sweep, whose widest format is posit⟨16,1⟩.
const MAX_SPLIT_WIDTH: u32 = 16;

/// A precomputed decode table for one posit format.
///
/// Indexing is by the raw bit pattern (masked to the format width); the
/// entry is exactly what [`decode`] returns for that pattern, so swapping
/// one for the other is bit-identical by construction — and verified
/// exhaustively by this module's tests.
///
/// # Examples
///
/// ```
/// use dp_posit::{decode, lut, PositFormat};
/// let fmt = PositFormat::new(8, 0)?;
/// let lut = lut::cached(fmt).expect("8-bit formats are table-driven");
/// for bits in fmt.patterns() {
///     assert_eq!(lut.decode(bits), decode(fmt, bits));
/// }
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DecodeLut {
    fmt: PositFormat,
    entries: Vec<Decoded>,
}

impl DecodeLut {
    /// Builds the table for `fmt`, or `None` when the format is wider than
    /// [`MAX_LUT_WIDTH`] (table-driven decode would waste cache there).
    fn build(fmt: PositFormat) -> Option<Self> {
        if fmt.n() > MAX_LUT_WIDTH {
            return None;
        }
        let entries = fmt.patterns().map(|bits| decode(fmt, bits)).collect();
        Some(DecodeLut { fmt, entries })
    }

    /// Table-driven decode of the low `n` bits of `bits`; bit-identical to
    /// [`decode`] in the table's format.
    #[inline]
    pub fn decode(&self, bits: u32) -> Decoded {
        self.entries[(bits & self.fmt.mask()) as usize]
    }
}

/// The decode scheme of a format's width band: exactly one table is
/// present.
struct Scheme {
    monolithic: Option<DecodeLut>,
    split: Option<SplitLut>,
}

/// The process-wide decode scheme for `fmt`, built on first use, or `None`
/// past [`MAX_SPLIT_WIDTH`]. Each width band has exactly one scheme, so no
/// call site can mix table and fallback paths for the same format.
///
/// Tables are leaked intentionally: the format space is small and finite
/// (at most 98 qualifying `(n, es)` pairs), each table is built once, and
/// a `'static` borrow lets hot loops hold the table without reference
/// counting.
fn scheme(fmt: PositFormat) -> Option<&'static Scheme> {
    static CACHE: OnceLock<Mutex<HashMap<(u32, u32), &'static Scheme>>> = OnceLock::new();
    if fmt.n() > MAX_SPLIT_WIDTH {
        return None;
    }
    let mut map = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("posit LUT cache poisoned");
    Some(map.entry((fmt.n(), fmt.es())).or_insert_with(|| {
        Box::leak(Box::new(Scheme {
            monolithic: DecodeLut::build(fmt),
            split: SplitLut::build(fmt),
        }))
    }))
}

/// The process-wide decode table for `fmt`, built on first use and leaked
/// for a `'static` borrow, or `None` for formats wider than
/// 12 bits.
pub fn cached(fmt: PositFormat) -> Option<&'static DecodeLut> {
    scheme(fmt)?.monolithic.as_ref()
}

/// One regime-prefix table entry: what the top 8 body bits reveal about
/// the regime field.
#[derive(Debug, Clone, Copy)]
struct RegimePrefix {
    /// Bits consumed by the regime run plus its terminator (`run + 1`),
    /// or 0 when the prefix is all-equal and the run extends past it.
    consumed: u8,
    /// The regime's scale contribution `k · 2^es` when resolved.
    scale_base: i16,
}

/// Split-table decode for 13–16-bit posits: a 256-entry **regime-prefix
/// table** composed with direct exponent/fraction extraction.
///
/// Algorithm 1's only dynamic-width field is the regime; once the regime
/// run length is known, exponent and fraction fall out of two constant
/// shifts. The split scheme therefore tabulates exactly the regime: the
/// sign-folded body is left-aligned in a `u64` and its top 8 bits index a
/// 256-entry table holding the run length (= the fraction-shift
/// descriptor, since `rest = body << (run+1)`) and the scale contribution
/// `k·2^es`. Unless those 8 bits are all-equal (a ≥ 8-bit regime run —
/// the extreme-magnitude tail of the encoding space), the lookup fully
/// resolves the regime; the tail cases resolve with the same
/// leading-zero detector the bit-field path uses. Either way the fraction
/// is then extracted directly, so a 16-bit format needs 256 table entries
/// (1 KiB) instead of a 65 536-entry monolithic [`DecodeLut`] (1 MiB).
///
/// Decode results are bit-identical to [`decode`] by construction,
/// verified exhaustively over all `2^16` patterns by the
/// `split_lut_exhaustive` test suite.
///
/// # Examples
///
/// ```
/// use dp_posit::{decode, lut, PositFormat};
/// let fmt = PositFormat::new(16, 1)?;
/// let lut = lut::split_cached(fmt).expect("13–16-bit formats are split-table-driven");
/// for bits in (0..=0xffffu32).step_by(127) {
///     assert_eq!(lut.decode(bits), decode(fmt, bits));
/// }
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SplitLut {
    fmt: PositFormat,
    prefix: [RegimePrefix; 256],
}

impl SplitLut {
    /// Builds the split table for `fmt`, or `None` unless
    /// [`MAX_LUT_WIDTH`]` < n ≤ `[`MAX_SPLIT_WIDTH`] (narrower formats use
    /// the monolithic [`DecodeLut`]; wider ones the bit-field [`decode`]).
    fn build(fmt: PositFormat) -> Option<Self> {
        if fmt.n() <= MAX_LUT_WIDTH || fmt.n() > MAX_SPLIT_WIDTH {
            return None;
        }
        let es = fmt.es();
        let mut prefix = [RegimePrefix {
            consumed: 0,
            scale_base: 0,
        }; 256];
        for (idx, entry) in prefix.iter_mut().enumerate() {
            let body = (idx as u64) << 56;
            let rc = body >> 63 == 1;
            let inv = if rc { !body } else { body };
            let run = inv.leading_zeros();
            if run >= 8 {
                // All 8 prefix bits equal: the run extends past the
                // prefix; `consumed: 0` marks the LZD fallback.
                continue;
            }
            let k: i32 = if rc { run as i32 - 1 } else { -(run as i32) };
            *entry = RegimePrefix {
                consumed: (run + 1) as u8,
                scale_base: (k << es) as i16,
            };
        }
        Some(SplitLut { fmt, prefix })
    }

    /// The format this table was built for.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// Regime resolution via the prefix table: `(consumed, k·2^es)` for
    /// the left-aligned sign-folded body.
    #[inline]
    fn regime(&self, body: u64) -> (u32, i32) {
        let p = self.prefix[(body >> 56) as usize];
        if p.consumed != 0 {
            (p.consumed as u32, p.scale_base as i32)
        } else {
            // ≥ 8-bit regime run: resolve with the leading-zero detector
            // (for n ≤ 16 the run is at most 15 bits, so `consumed < 64`).
            let rc = body >> 63 == 1;
            let inv = if rc { !body } else { body };
            let run = inv.leading_zeros();
            let k: i32 = if rc { run as i32 - 1 } else { -(run as i32) };
            (run + 1, k << self.fmt.es())
        }
    }

    /// Split-table decode of the low `n` bits of `bits`; bit-identical to
    /// [`decode`]`(self.format(), bits)`: sign fold, body alignment,
    /// prefix-table regime resolution, then exponent and fraction by two
    /// constant shifts.
    #[inline]
    pub fn decode(&self, bits: u32) -> Decoded {
        let fmt = self.fmt;
        let x = bits & fmt.mask();
        if x == 0 {
            return Decoded::Zero;
        }
        if x == fmt.nar_bits() {
            return Decoded::NaR;
        }
        let n = fmt.n();
        let sign = (x >> (n - 1)) & 1 == 1;
        let y = if sign {
            x.wrapping_neg() & fmt.mask()
        } else {
            x
        };
        let body = (y as u64) << (65 - n);
        let (consumed, scale_base) = self.regime(body);
        debug_assert!(consumed < 64, "split formats have ≤ 16-bit regimes");
        let rest = body << consumed;
        let es = fmt.es();
        let exp = if es == 0 {
            0
        } else {
            (rest >> (64 - es)) as i32
        };
        let frac = if es == 0 { rest } else { rest << es };
        Decoded::Finite(Unpacked {
            sign,
            scale: scale_base + exp,
            sig: (1u64 << 63) | (frac >> 1),
        })
    }
}

/// The process-wide split table for `fmt` (leaked like [`cached`]'s
/// tables), or `None` outside the `MAX_LUT_WIDTH < n ≤ MAX_SPLIT_WIDTH`
/// band.
pub fn split_cached(fmt: PositFormat) -> Option<&'static SplitLut> {
    scheme(fmt)?.split.as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_only_up_to_max_width() {
        assert!(DecodeLut::build(PositFormat::new(8, 0).unwrap()).is_some());
        assert!(DecodeLut::build(PositFormat::new(12, 2).unwrap()).is_some());
        assert!(DecodeLut::build(PositFormat::new(13, 0).unwrap()).is_none());
        assert!(cached(PositFormat::new(16, 1).unwrap()).is_none());
    }

    #[test]
    fn width_bands_select_exactly_one_scheme() {
        // n = 12: monolithic LUT only; n = 13 and 16: split only; n = 17+:
        // neither (bit-field decode). The bands must not overlap, so no
        // call site can mix schemes for one format.
        for es in [0u32, 1, 2] {
            let at = |n: u32| PositFormat::new(n, es).unwrap();
            assert!(cached(at(12)).is_some() && split_cached(at(12)).is_none());
            assert!(cached(at(13)).is_none() && split_cached(at(13)).is_some());
            assert!(cached(at(16)).is_none() && split_cached(at(16)).is_some());
            assert!(cached(at(17)).is_none() && split_cached(at(17)).is_none());
        }
        assert!(SplitLut::build(PositFormat::new(12, 0).unwrap()).is_none());
        assert!(SplitLut::build(PositFormat::new(17, 1).unwrap()).is_none());
    }

    #[test]
    fn split_cached_memoizes_per_format() {
        let fmt = PositFormat::new(14, 1).unwrap();
        let a = split_cached(fmt).unwrap();
        let b = split_cached(fmt).unwrap();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.format(), fmt);
    }

    #[test]
    fn split_decode_matches_bitfield_on_long_regimes() {
        // The all-equal-prefix fallback: extreme magnitudes whose regime
        // run reaches or crosses the 8-bit prefix.
        for (n, es) in [(13u32, 0u32), (15, 1), (16, 0), (16, 1), (16, 2)] {
            let fmt = PositFormat::new(n, es).unwrap();
            let lut = SplitLut::build(fmt).unwrap();
            for bits in [
                0u32,
                fmt.nar_bits(),
                fmt.minpos_bits(),
                fmt.maxpos_bits(),
                fmt.one_bits(),
                1 << (n - 9),       // run of exactly 8 zeros
                fmt.mask() >> 9,    // long ones run
                fmt.mask(),         // -minpos
                fmt.nar_bits() | 1, // most negative finite
            ] {
                assert_eq!(lut.decode(bits), decode(fmt, bits), "{fmt} {bits:#x}");
            }
        }
    }

    #[test]
    fn table_matches_bitfield_decode_exhaustively() {
        for (n, es) in [
            (3u32, 0u32),
            (5, 0),
            (6, 1),
            (8, 0),
            (8, 1),
            (8, 2),
            (10, 1),
            (12, 0),
        ] {
            let fmt = PositFormat::new(n, es).unwrap();
            let lut = DecodeLut::build(fmt).unwrap();
            assert_eq!(lut.entries.len(), 1 << n);
            for bits in fmt.patterns() {
                assert_eq!(lut.decode(bits), decode(fmt, bits), "{fmt} {bits:#x}");
            }
        }
    }

    #[test]
    fn decode_masks_to_width() {
        let fmt = PositFormat::new(8, 1).unwrap();
        let lut = DecodeLut::build(fmt).unwrap();
        assert_eq!(lut.decode(0x140), lut.decode(0x40));
    }

    #[test]
    fn cached_returns_the_same_table() {
        let fmt = PositFormat::new(7, 1).unwrap();
        let a = cached(fmt).unwrap();
        let b = cached(fmt).unwrap();
        assert!(std::ptr::eq(a, b), "cache must memoize per format");
        assert_eq!(a.fmt, fmt);
    }
}
