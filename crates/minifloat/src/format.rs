//! Runtime-parameterized minifloat format descriptor.

use std::fmt;

/// Error returned when constructing an invalid [`FloatFormat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    /// `we` outside the supported `2..=8` range.
    ExponentOutOfRange(u32),
    /// `wf` outside the supported `0..=23` range.
    FractionOutOfRange(u32),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::ExponentOutOfRange(we) => {
                write!(
                    f,
                    "float exponent width we={we} outside supported range 2..=8"
                )
            }
            FormatError::FractionOutOfRange(wf) => {
                write!(
                    f,
                    "float fraction width wf={wf} outside supported range 0..=23"
                )
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// An IEEE-754-style binary format with 1 sign bit, `we` exponent bits and
/// `wf` fraction bits (paper §III-C).
///
/// Characteristics follow the paper exactly:
///
/// ```text
/// bias    = 2^(we−1) − 1
/// expmax  = 2^we − 2                  (top field reserved for Inf/NaN)
/// max     = 2^(expmax−bias) × (2 − 2^−wf)
/// min     = 2^(1−bias) × 2^−wf        (smallest subnormal)
/// ```
///
/// # Examples
///
/// ```
/// use dp_minifloat::FloatFormat;
/// let f16 = FloatFormat::new(5, 10)?;
/// assert_eq!(f16.n(), 16);
/// assert_eq!(f16.max_value(), 65504.0);
/// assert_eq!(f16.min_value(), 2f64.powi(-24));
/// # Ok::<(), dp_minifloat::FormatError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FloatFormat {
    we: u32,
    wf: u32,
}

impl FloatFormat {
    /// Creates a format with `we` exponent bits and `wf` fraction bits.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] unless `2 <= we <= 8` and `wf <= 23`.
    pub const fn new(we: u32, wf: u32) -> Result<Self, FormatError> {
        if we < 2 || we > 8 {
            return Err(FormatError::ExponentOutOfRange(we));
        }
        if wf > 23 {
            return Err(FormatError::FractionOutOfRange(wf));
        }
        Ok(FloatFormat { we, wf })
    }

    /// Exponent field width in bits.
    #[inline]
    pub const fn we(self) -> u32 {
        self.we
    }

    /// Fraction field width in bits.
    #[inline]
    pub const fn wf(self) -> u32 {
        self.wf
    }

    /// Total width in bits, `1 + we + wf`.
    #[inline]
    pub const fn n(self) -> u32 {
        1 + self.we + self.wf
    }

    /// Mask selecting the low `n` bits of a pattern.
    #[inline]
    pub const fn mask(self) -> u32 {
        if self.n() == 32 {
            u32::MAX
        } else {
            (1u32 << self.n()) - 1
        }
    }

    /// Exponent bias, `2^(we-1) - 1`.
    #[inline]
    pub(crate) const fn bias(self) -> i32 {
        (1i32 << (self.we - 1)) - 1
    }

    /// Largest non-reserved exponent field value, `2^we - 2`.
    #[inline]
    const fn expmax_field(self) -> u32 {
        (1u32 << self.we) - 2
    }

    /// Binary scale of the largest finite binade, `expmax − bias = bias`.
    #[inline]
    const fn max_scale(self) -> i32 {
        self.expmax_field() as i32 - self.bias()
    }

    /// Binary scale of the smallest normal binade, `1 − bias`.
    #[inline]
    pub const fn min_normal_scale(self) -> i32 {
        1 - self.bias()
    }

    /// Largest finite value, `2^max_scale × (2 − 2^−wf)`.
    pub fn max_value(self) -> f64 {
        2f64.powi(self.max_scale()) * (2.0 - 2f64.powi(-(self.wf as i32)))
    }

    /// Smallest positive (subnormal) value, `2^(1−bias−wf)`.
    pub fn min_value(self) -> f64 {
        2f64.powi(self.min_normal_scale() - self.wf as i32)
    }

    /// Dynamic range in decades, `log10(max / min)` (paper §IV-A).
    pub fn dynamic_range_log10(self) -> f64 {
        (self.max_value().log2() - self.min_value().log2()) * std::f64::consts::LOG10_2
    }

    /// Bit pattern of +0 / −0.
    #[inline]
    pub const fn zero_bits(self, sign: bool) -> u32 {
        (sign as u32) << (self.n() - 1)
    }

    /// Bit pattern of ±infinity.
    #[inline]
    pub const fn inf_bits(self, sign: bool) -> u32 {
        self.zero_bits(sign) | (((1u32 << self.we) - 1) << self.wf)
    }

    /// The canonical quiet-NaN pattern (+, top exponent, MSB fraction set;
    /// for `wf = 0` formats the all-ones pattern is used).
    #[inline]
    pub const fn nan_bits(self) -> u32 {
        if self.wf == 0 {
            // No fraction bits: no NaN distinct from Inf exists; reuse -Inf
            // pattern is unacceptable, so reserve +Inf|1 ... fall back to
            // the +Inf pattern (formats with wf=0 cannot represent NaN).
            self.inf_bits(false)
        } else {
            self.inf_bits(false) | (1u32 << (self.wf - 1))
        }
    }

    /// Bit pattern of the largest finite value (`expmax` + all-ones frac).
    #[inline]
    pub const fn max_bits(self, sign: bool) -> u32 {
        self.zero_bits(sign) | (self.expmax_field() << self.wf) | ((1u32 << self.wf) - 1)
    }

    /// Iterator over every bit pattern of the format.
    pub fn patterns(self) -> impl Iterator<Item = u32> {
        0..=self.mask()
    }

    /// Iterator over every *finite* bit pattern (skips Inf and NaN).
    pub fn finites(self) -> impl Iterator<Item = u32> {
        let top = ((1u32 << self.we) - 1) << self.wf;
        self.patterns().filter(move |&b| (b & top) != top)
    }
}

impl fmt::Debug for FloatFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FloatFormat(we={}, wf={})", self.we, self.wf)
    }
}

impl fmt::Display for FloatFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "float<{},{},{}>", self.n(), self.we, self.wf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(FloatFormat::new(4, 3).is_ok());
        assert!(FloatFormat::new(1, 3).is_err());
        assert!(FloatFormat::new(9, 3).is_err());
        assert!(FloatFormat::new(4, 24).is_err());
    }

    #[test]
    fn half_precision_characteristics() {
        let f = FloatFormat::new(5, 10).unwrap();
        assert_eq!(f.n(), 16);
        assert_eq!(f.bias(), 15);
        assert_eq!(f.expmax_field(), 30);
        assert_eq!(f.max_scale(), 15);
        assert_eq!(f.max_value(), 65504.0);
        assert_eq!(f.min_value(), 2f64.powi(-24));
    }

    #[test]
    fn e4m3_characteristics() {
        let f = FloatFormat::new(4, 3).unwrap();
        assert_eq!(f.n(), 8);
        assert_eq!(f.bias(), 7);
        assert_eq!(f.max_value(), 240.0);
        assert_eq!(f.min_value(), 2f64.powi(-9));
        assert_eq!(f.zero_bits(true), 0x80);
        assert_eq!(f.inf_bits(false), 0x78);
        assert_eq!(f.max_bits(false), 0x77);
        assert_eq!(f.nan_bits(), 0x7c);
    }

    #[test]
    fn paper_min_max_formulas() {
        // Paper §III-C: max = 2^(expmax−bias)(2−2^−wf), min = 2^(1−bias)·2^−wf.
        for (we, wf) in [(2u32, 2u32), (3, 4), (4, 3), (5, 2)] {
            let f = FloatFormat::new(we, wf).unwrap();
            let bias = (1i32 << (we - 1)) - 1;
            let expmax = (1i32 << we) - 2;
            let max = 2f64.powi(expmax - bias) * (2.0 - 2f64.powi(-(wf as i32)));
            let min = 2f64.powi(1 - bias) * 2f64.powi(-(wf as i32));
            assert_eq!(f.max_value(), max, "we={we} wf={wf}");
            assert_eq!(f.min_value(), min, "we={we} wf={wf}");
        }
    }

    #[test]
    fn finites_skip_top_exponent() {
        let f = FloatFormat::new(3, 2).unwrap();
        assert_eq!(f.patterns().count(), 64);
        // 2 signs × 4 fraction values in the top exponent are excluded.
        assert_eq!(f.finites().count(), 64 - 8);
    }

    #[test]
    fn display_forms() {
        let f = FloatFormat::new(4, 3).unwrap();
        assert_eq!(format!("{f}"), "float<8,4,3>");
        assert!(!format!("{f:?}").is_empty());
    }
}
