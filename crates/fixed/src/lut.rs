//! Table-driven fixed-point decode.
//!
//! Mirror of `dp_posit::lut` for the fixed-point EMAC: decoding a Q(n−q).q
//! word is just an `n`-bit sign extension, but keeping the same
//! table-driven entry point lets format-generic engines treat the
//! families uniformly (and the table is exactly the weight-ROM a hardware
//! EMAC would address). Entries hold the
//! sign-extended raw value [`FixedFormat::to_f64`] expects.
//!
//! Unlike the posit (split regime-prefix table, 13–16 bits) and minifloat
//! (computed fused operands, 13–16 bits) families, fixed point needs no
//! wide-format scheme at all: past [`MAX_LUT_WIDTH`] the EMAC computes the
//! sign extension directly — two shifts, exactly what a table lookup would
//! cost — and its eq.-(3) register (`2n + ⌈log2 k⌉` bits) stays inside a
//! native `i128` for every width the crate supports. The 13-bit boundary
//! therefore switches decode *strategy* only, never datapath width; the
//! `boundary_is_deterministic` test pins it.

use crate::format::FixedFormat;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Widest format that gets a decode table (`2^12` entries ≤ 32 KiB).
pub const MAX_LUT_WIDTH: u32 = 12;

/// A precomputed sign-extension table for one fixed-point format.
///
/// # Examples
///
/// ```
/// use dp_fixed::{lut, FixedFormat};
/// let fmt = FixedFormat::new(8, 4)?; // Q4.4
/// let lut = lut::cached(fmt).expect("8-bit formats are table-driven");
/// assert_eq!(lut.decode(0xff), -1); // raw -1 = -0.0625
/// assert_eq!(lut.decode(0x7f), 127);
/// # Ok::<(), dp_fixed::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DecodeLut {
    fmt: FixedFormat,
    entries: Vec<i64>,
}

impl DecodeLut {
    /// Builds the table for `fmt`, or `None` when the format is wider than
    /// [`MAX_LUT_WIDTH`].
    pub fn build(fmt: FixedFormat) -> Option<Self> {
        if fmt.n() > MAX_LUT_WIDTH {
            return None;
        }
        let n = fmt.n();
        let entries = (0..(1u32 << n))
            .map(|bits| {
                let sh = 64 - n;
                (((bits as u64) << sh) as i64) >> sh
            })
            .collect();
        Some(DecodeLut { fmt, entries })
    }

    /// The format this table was built for.
    pub fn format(&self) -> FixedFormat {
        self.fmt
    }

    /// The sign-extended raw value of the low `n` bits of `bits`.
    #[inline]
    pub fn decode(&self, bits: u32) -> i64 {
        self.entries[(bits as usize) & (self.entries.len() - 1)]
    }

    /// Number of table entries (`2^n`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: every format has at least `2^2` patterns.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The process-wide decode table for `fmt`, built on first use, or `None`
/// for formats wider than [`MAX_LUT_WIDTH`]. Tables are leaked
/// intentionally (small, finite format space) so hot loops can hold a
/// `'static` borrow.
pub fn cached(fmt: FixedFormat) -> Option<&'static DecodeLut> {
    static CACHE: OnceLock<Mutex<HashMap<(u32, u32), &'static DecodeLut>>> = OnceLock::new();
    if fmt.n() > MAX_LUT_WIDTH {
        return None;
    }
    let mut map = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("fixed LUT cache poisoned");
    Some(
        map.entry((fmt.n(), fmt.q()))
            .or_insert_with(|| Box::leak(Box::new(DecodeLut::build(fmt).expect("width checked")))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_only_up_to_max_width() {
        assert!(DecodeLut::build(FixedFormat::new(8, 4).unwrap()).is_some());
        assert!(DecodeLut::build(FixedFormat::new(12, 6).unwrap()).is_some());
        assert!(DecodeLut::build(FixedFormat::new(16, 8).unwrap()).is_none());
        assert!(cached(FixedFormat::new(32, 16).unwrap()).is_none());
    }

    #[test]
    fn boundary_is_deterministic() {
        // n = 12 is the last tabulated width; 13 and 16 always compute the
        // sign extension directly (`cached` is None), so no call site can
        // mix table and computed paths for one format.
        assert!(cached(FixedFormat::new(12, 6).unwrap()).is_some());
        for n in [13u32, 16] {
            let fmt = FixedFormat::new(n, 6).unwrap();
            assert!(cached(fmt).is_none(), "n = {n} must skip the table");
            assert!(DecodeLut::build(fmt).is_none());
        }
    }

    #[test]
    fn table_matches_sign_extension_exhaustively() {
        for (n, q) in [(4u32, 2u32), (5, 4), (8, 4), (8, 7), (12, 6)] {
            let fmt = FixedFormat::new(n, q).unwrap();
            let lut = DecodeLut::build(fmt).unwrap();
            assert_eq!(lut.len(), 1 << n);
            for bits in 0..(1u32 << n) {
                let sh = 64 - n;
                let want = (((bits as u64) << sh) as i64) >> sh;
                assert_eq!(lut.decode(bits), want, "{fmt} {bits:#x}");
            }
        }
    }

    #[test]
    fn raw_range_covers_format_extremes() {
        let fmt = FixedFormat::new(8, 4).unwrap();
        let lut = DecodeLut::build(fmt).unwrap();
        assert_eq!(lut.decode(0x80), fmt.min_raw());
        assert_eq!(lut.decode(0x7f), fmt.max_raw());
        assert!(!lut.is_empty());
    }

    #[test]
    fn cached_returns_the_same_table() {
        let fmt = FixedFormat::new(6, 3).unwrap();
        let a = cached(fmt).unwrap();
        let b = cached(fmt).unwrap();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.format(), fmt);
    }
}
