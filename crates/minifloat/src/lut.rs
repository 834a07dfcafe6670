//! Table-driven minifloat decode.
//!
//! Mirror of `dp_posit::lut`: the subnormal-aware decode of paper Fig. 4
//! (classification, hidden-bit insertion, exponent adjustment) is
//! precomputed for all `2^n` patterns of a format when
//! `n ≤` [`MAX_LUT_WIDTH`], turning a decode into a single table lookup.
//! [`cached`] memoizes one table per format for the life of the process.
//!
//! The float EMAC does not go through this table: a minifloat's fields
//! sit at fixed offsets, so its fused operands are extracted directly
//! from the bit fields (`dp_emac::Float`) and tabulated, with the
//! finished-product table, in `dp_emac::table`.

use crate::codec::{decode, FloatClass};
use crate::format::FloatFormat;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Widest format that gets a decode table (`2^12` entries ≤ 64 KiB).
pub const MAX_LUT_WIDTH: u32 = 12;

/// A precomputed decode table for one minifloat format; entries are
/// exactly what [`decode`] returns, verified exhaustively in tests.
///
/// # Examples
///
/// ```
/// use dp_minifloat::{decode, lut, FloatFormat};
/// let fmt = FloatFormat::new(4, 3)?;
/// let lut = lut::cached(fmt).expect("8-bit formats are table-driven");
/// for bits in fmt.patterns() {
///     assert_eq!(lut.decode(bits), decode(fmt, bits));
/// }
/// # Ok::<(), dp_minifloat::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DecodeLut {
    fmt: FloatFormat,
    entries: Vec<FloatClass>,
}

impl DecodeLut {
    /// Builds the table for `fmt`, or `None` when the format is wider than
    /// [`MAX_LUT_WIDTH`].
    pub fn build(fmt: FloatFormat) -> Option<Self> {
        if fmt.n() > MAX_LUT_WIDTH {
            return None;
        }
        let entries = fmt.patterns().map(|bits| decode(fmt, bits)).collect();
        Some(DecodeLut { fmt, entries })
    }

    /// The format this table was built for.
    pub fn format(&self) -> FloatFormat {
        self.fmt
    }

    /// Table-driven decode of the low `n` bits of `bits`; bit-identical to
    /// [`decode`]`(self.format(), bits)`.
    #[inline]
    pub fn decode(&self, bits: u32) -> FloatClass {
        self.entries[(bits & self.fmt.mask()) as usize]
    }

    /// Number of table entries (`2^n`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: every format has at least `2^4` patterns.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The process-wide decode table for `fmt`, built on first use, or `None`
/// for formats wider than [`MAX_LUT_WIDTH`]. Tables are leaked
/// intentionally (small, finite format space) so hot loops can hold a
/// `'static` borrow.
pub fn cached(fmt: FloatFormat) -> Option<&'static DecodeLut> {
    static CACHE: OnceLock<Mutex<HashMap<(u32, u32), &'static DecodeLut>>> = OnceLock::new();
    if fmt.n() > MAX_LUT_WIDTH {
        return None;
    }
    let mut map = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("minifloat LUT cache poisoned");
    Some(
        map.entry((fmt.we(), fmt.wf()))
            .or_insert_with(|| Box::leak(Box::new(DecodeLut::build(fmt).expect("width checked")))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_only_up_to_max_width() {
        assert!(DecodeLut::build(FloatFormat::new(4, 3).unwrap()).is_some());
        assert!(DecodeLut::build(FloatFormat::new(5, 6).unwrap()).is_some());
        assert!(DecodeLut::build(FloatFormat::new(5, 10).unwrap()).is_none());
        assert!(cached(FloatFormat::new(8, 23).unwrap()).is_none());
    }

    #[test]
    fn table_matches_decode_exhaustively() {
        for (we, wf) in [(2u32, 2u32), (3, 2), (4, 3), (5, 2), (5, 6), (4, 7)] {
            let fmt = FloatFormat::new(we, wf).unwrap();
            let lut = DecodeLut::build(fmt).unwrap();
            assert_eq!(lut.len() as u64, fmt.pattern_count());
            for bits in fmt.patterns() {
                assert_eq!(lut.decode(bits), decode(fmt, bits), "{fmt} {bits:#x}");
            }
        }
    }

    #[test]
    fn cached_returns_the_same_table() {
        let fmt = FloatFormat::new(3, 2).unwrap();
        let a = cached(fmt).unwrap();
        let b = cached(fmt).unwrap();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.format(), fmt);
    }
}
