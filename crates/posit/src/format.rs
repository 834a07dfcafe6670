//! Runtime-parameterized posit format descriptor.

use std::fmt;

/// Error returned when constructing an invalid [`PositFormat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    /// `n` outside the supported `3..=32` range.
    WidthOutOfRange(u32),
    /// `es` outside the supported `0..=6` range.
    ExponentOutOfRange(u32),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::WidthOutOfRange(n) => {
                write!(f, "posit width n={n} outside supported range 3..=32")
            }
            FormatError::ExponentOutOfRange(es) => {
                write!(
                    f,
                    "posit exponent size es={es} outside supported range 0..=6"
                )
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// A posit number format, parameterized by total width `n` and exponent
/// size `es` (paper §II-B).
///
/// Bit patterns for this format are carried in the low `n` bits of a `u32`.
///
/// # Examples
///
/// ```
/// use dp_posit::PositFormat;
/// let fmt = PositFormat::new(8, 0)?;
/// assert_eq!(fmt.max_scale(), 6);            // maxpos = 2^6 = 64
/// assert_eq!(fmt.maxpos_bits(), 0x7f);
/// assert_eq!(fmt.nar_bits(), 0x80);
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PositFormat {
    n: u32,
    es: u32,
}

impl PositFormat {
    /// Creates a format with width `n` (bits) and exponent size `es`.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] unless `3 <= n <= 32` and `es <= 6`.
    pub const fn new(n: u32, es: u32) -> Result<Self, FormatError> {
        if n < 3 || n > 32 {
            return Err(FormatError::WidthOutOfRange(n));
        }
        if es > 6 {
            return Err(FormatError::ExponentOutOfRange(es));
        }
        Ok(PositFormat { n, es })
    }

    /// Total width in bits.
    #[inline]
    pub const fn n(self) -> u32 {
        self.n
    }

    /// Number of exponent bits.
    #[inline]
    pub const fn es(self) -> u32 {
        self.es
    }

    /// Mask selecting the low `n` bits of a pattern.
    #[inline]
    pub const fn mask(self) -> u32 {
        if self.n == 32 {
            u32::MAX
        } else {
            (1u32 << self.n) - 1
        }
    }

    /// The bit pattern of NaR ("Not a Real"): `1 0...0`.
    #[inline]
    pub const fn nar_bits(self) -> u32 {
        1u32 << (self.n - 1)
    }

    /// The bit pattern of zero (all bits clear).
    #[inline]
    pub const fn zero_bits(self) -> u32 {
        0
    }

    /// The bit pattern of +1.0: regime `10` followed by zeros.
    #[inline]
    pub const fn one_bits(self) -> u32 {
        1u32 << (self.n - 2)
    }

    /// The bit pattern of maxpos, the largest finite posit (`0 1...1`).
    #[inline]
    pub const fn maxpos_bits(self) -> u32 {
        self.mask() >> 1
    }

    /// The bit pattern of minpos, the smallest positive posit (`0...0 1`).
    #[inline]
    pub const fn minpos_bits(self) -> u32 {
        1
    }

    /// `useed = 2^(2^es)` expressed as a base-2 logarithm.
    #[inline]
    pub(crate) const fn useed_log2(self) -> i32 {
        1i32 << self.es
    }

    /// Largest binary scale: `maxpos = 2^max_scale = useed^(n-2)`.
    #[inline]
    pub const fn max_scale(self) -> i32 {
        (self.n as i32 - 2) * self.useed_log2()
    }

    /// `maxpos` as an `f64` (may overflow to infinity for extreme formats).
    pub fn max_value(self) -> f64 {
        exp2i(self.max_scale())
    }

    /// `minpos` as an `f64` (may underflow to zero for extreme formats).
    pub fn min_value(self) -> f64 {
        exp2i(-self.max_scale())
    }

    /// Dynamic range in decades, `log10(maxpos / minpos)` (paper §IV-A).
    pub fn dynamic_range_log10(self) -> f64 {
        2.0 * self.max_scale() as f64 * std::f64::consts::LOG10_2
    }

    /// Iterator over every bit pattern of the format (including 0 and NaR).
    ///
    /// ```
    /// use dp_posit::PositFormat;
    /// let fmt = PositFormat::new(5, 0)?;
    /// assert_eq!(fmt.patterns().count(), 32);
    /// # Ok::<(), dp_posit::FormatError>(())
    /// ```
    pub fn patterns(self) -> impl Iterator<Item = u32> {
        0..=self.mask()
    }

    /// Iterator over every *real-valued* bit pattern (skips NaR).
    pub fn reals(self) -> impl Iterator<Item = u32> {
        let nar = self.nar_bits();
        self.patterns().filter(move |&b| b != nar)
    }
}

/// `2^e` as `f64`, saturating to 0 / infinity outside the exponent range.
pub(crate) fn exp2i(e: i32) -> f64 {
    // f64::powi is exact for powers of two representable in f64.
    2f64.powi(e)
}

impl fmt::Debug for PositFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PositFormat(n={}, es={})", self.n, self.es)
    }
}

impl fmt::Display for PositFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "posit<{},{}>", self.n, self.es)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(PositFormat::new(8, 0).is_ok());
        assert!(PositFormat::new(2, 0).is_err());
        assert!(PositFormat::new(33, 0).is_err());
        assert!(PositFormat::new(8, 7).is_err());
        assert_eq!(
            PositFormat::new(2, 0).unwrap_err(),
            FormatError::WidthOutOfRange(2)
        );
    }

    #[test]
    fn p8e0_constants() {
        let f = PositFormat::new(8, 0).unwrap();
        assert_eq!(f.mask(), 0xff);
        assert_eq!(f.nar_bits(), 0x80);
        assert_eq!(f.one_bits(), 0x40);
        assert_eq!(f.maxpos_bits(), 0x7f);
        assert_eq!(f.max_scale(), 6);
        assert_eq!(f.max_value(), 64.0);
        assert_eq!(f.min_value(), 1.0 / 64.0);
    }

    #[test]
    fn p8e2_scale() {
        let f = PositFormat::new(8, 2).unwrap();
        assert_eq!(f.useed_log2(), 4);
        assert_eq!(f.max_scale(), 24);
    }

    #[test]
    fn p32_full_mask() {
        let f = PositFormat::new(32, 2).unwrap();
        assert_eq!(f.mask(), u32::MAX);
        assert_eq!(f.nar_bits(), 0x8000_0000);
    }

    #[test]
    fn dynamic_range_matches_paper_intuition() {
        // Paper Fig. 6 discussion: posit offers a wider dynamic range than
        // float at the same width for n <= 7 with es >= 1.
        let p7e1 = PositFormat::new(7, 1).unwrap();
        assert!((p7e1.dynamic_range_log10() - 20.0 * std::f64::consts::LOG10_2).abs() < 1e-12);
    }

    #[test]
    fn pattern_iterators() {
        let f = PositFormat::new(6, 1).unwrap();
        assert_eq!(f.patterns().count(), 1 << 6);
        assert_eq!(f.reals().count(), (1 << 6) - 1);
        assert!(f.reals().all(|b| b != f.nar_bits()));
    }

    #[test]
    fn display_formats() {
        let f = PositFormat::new(16, 1).unwrap();
        assert_eq!(format!("{f}"), "posit<16,1>");
        assert_eq!(format!("{f:?}"), "PositFormat(n=16, es=1)");
    }
}
