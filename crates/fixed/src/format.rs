//! Runtime-parameterized fixed-point format descriptor and raw-word ops.

use std::fmt;

/// Error returned when constructing an invalid [`FixedFormat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    /// `n` outside the supported `2..=32` range.
    WidthOutOfRange(u32),
    /// `q` not strictly below `n`.
    FractionTooWide {
        /// Total width requested.
        n: u32,
        /// Fraction bits requested.
        q: u32,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::WidthOutOfRange(n) => {
                write!(f, "fixed-point width n={n} outside supported range 2..=32")
            }
            FormatError::FractionTooWide { n, q } => {
                write!(f, "fixed-point fraction q={q} must be < n={n}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// An `n`-bit two's-complement fixed-point format with `q` fraction bits
/// (Q(n−q).q). Raw words are carried sign-extended in an `i64`.
///
/// # Examples
///
/// ```
/// use dp_fixed::FixedFormat;
/// let fmt = FixedFormat::new(8, 4)?;   // Q4.4
/// assert_eq!(fmt.to_f64(fmt.from_f64(1.25)), 1.25);
/// assert_eq!(fmt.from_f64(100.0), fmt.max_raw()); // clips
/// # Ok::<(), dp_fixed::FormatError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedFormat {
    n: u32,
    q: u32,
}

impl FixedFormat {
    /// Creates a Q(n−q).q format.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] unless `2 <= n <= 32` and `q < n`.
    pub const fn new(n: u32, q: u32) -> Result<Self, FormatError> {
        if n < 2 || n > 32 {
            return Err(FormatError::WidthOutOfRange(n));
        }
        if q >= n {
            return Err(FormatError::FractionTooWide { n, q });
        }
        Ok(FixedFormat { n, q })
    }

    /// Total width in bits.
    #[inline]
    pub const fn n(self) -> u32 {
        self.n
    }

    /// Fraction bits.
    #[inline]
    pub const fn q(self) -> u32 {
        self.q
    }

    /// Largest raw word, `2^(n-1) − 1`.
    #[inline]
    pub const fn max_raw(self) -> i64 {
        (1i64 << (self.n - 1)) - 1
    }

    /// Smallest raw word, `−2^(n-1)`.
    #[inline]
    pub const fn min_raw(self) -> i64 {
        -(1i64 << (self.n - 1))
    }

    /// Largest representable value, `max_raw / 2^q`.
    pub fn max_value(self) -> f64 {
        self.max_raw() as f64 * exp2(-(self.q as i32))
    }

    /// Smallest positive value (one LSB), `2^−q`.
    pub fn min_value(self) -> f64 {
        exp2(-(self.q as i32))
    }

    /// Dynamic range in decades, `log10(max / min) = log10(2^(n−1) − 1)`
    /// (paper §IV-A) — independent of `q`.
    pub fn dynamic_range_log10(self) -> f64 {
        (self.max_raw() as f64).log10()
    }

    /// Saturates an arbitrary integer to the raw range.
    #[inline]
    fn saturate(self, v: i64) -> i64 {
        v.clamp(self.min_raw(), self.max_raw())
    }

    /// Quantizes an `f64` to the nearest raw word (ties to even), clipping
    /// at the maximum magnitude. NaN maps to 0 (documented convention: the
    /// DNN path never produces NaN inputs).
    pub fn from_f64(self, v: f64) -> i64 {
        if v.is_nan() {
            return 0;
        }
        let scaled = v * exp2(self.q as i32);
        if scaled >= self.max_raw() as f64 {
            return self.max_raw();
        }
        if scaled <= self.min_raw() as f64 {
            return self.min_raw();
        }
        // f64 round-half-even of a value already within i64 range.
        let r = scaled.round_ties_even();
        r as i64
    }

    /// [`FixedFormat::from_f64`] of `v as f64`, branch-free and without the
    /// libm `rint` behind `round_ties_even` on baseline x86-64: the slice
    /// quantiser's per-element step. NaN is selected to 0, the scaled value
    /// clamped to the raw range (`|x| ≤ 2^31`), and `x + 1.5·2^52` lands
    /// where an `f64`'s ulp is 1, rounding to nearest, ties to even: the
    /// integer is the difference of its bits and `1.5·2^52`'s.
    #[inline(always)]
    pub fn from_f32(self, v: f32) -> i64 {
        const ROUND: f64 = 1.5 * (1u64 << 52) as f64;
        let scaled = v as f64 * exp2(self.q as i32);
        let scaled = if scaled.is_nan() { 0.0 } else { scaled };
        let clamped = scaled.clamp(self.min_raw() as f64, self.max_raw() as f64);
        (clamped + ROUND).to_bits() as i64 - ROUND.to_bits() as i64
    }

    /// The exact value of a raw word.
    pub fn to_f64(self, raw: i64) -> f64 {
        raw as f64 * exp2(-(self.q as i32))
    }

    /// Saturating addition of two raw words.
    #[inline]
    pub fn add_sat(self, a: i64, b: i64) -> i64 {
        self.saturate(a + b)
    }

    /// Multiplication with **truncation** of the low `q` bits (arithmetic
    /// shift right — the hardware behaviour in paper Fig. 3) and clipping.
    #[inline]
    pub fn mul_truncate(self, a: i64, b: i64) -> i64 {
        self.saturate((a * b) >> self.q)
    }

    /// Paper Fig. 3's readout of an exact sum of products (`2q` fraction
    /// bits, as wide as the EMAC register): shift right by `q` (arithmetic,
    /// so truncation toward −∞), then clip to the raw range — what
    /// [`FixedFormat::mul_truncate`] does to a single product in `i64`.
    /// A raw word sign-extended and shifted left once is the EMAC's
    /// operand word, so this is also the fixed-point rounding core of the
    /// word path.
    #[inline(always)]
    pub fn truncate(self, wide: i128) -> i64 {
        (wide >> self.q).clamp(self.min_raw() as i128, self.max_raw() as i128) as i64
    }

    /// Iterator over every raw word of the format.
    pub fn raws(self) -> impl Iterator<Item = i64> {
        self.min_raw()..=self.max_raw()
    }
}

/// `2^e` for `|e| < 32` (every `±q`), assembled from its exponent field —
/// the same constant `2f64.powi(e)` returns, without the libcall on the
/// per-element quantisation path.
#[inline(always)]
fn exp2(e: i32) -> f64 {
    debug_assert!(e.abs() < 32);
    f64::from_bits(((1023 + e) as u64) << 52)
}

impl fmt::Debug for FixedFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FixedFormat(n={}, q={})", self.n, self.q)
    }
}

impl fmt::Display for FixedFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fixed<{},{}>", self.n, self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt(n: u32, q: u32) -> FixedFormat {
        FixedFormat::new(n, q).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(FixedFormat::new(8, 4).is_ok());
        assert!(FixedFormat::new(1, 0).is_err());
        assert!(FixedFormat::new(33, 4).is_err());
        assert!(FixedFormat::new(8, 8).is_err());
    }

    #[test]
    fn ranges() {
        let f = fmt(8, 4);
        assert_eq!(f.max_raw(), 127);
        assert_eq!(f.min_raw(), -128);
        assert_eq!(f.max_value(), 7.9375);
        assert_eq!(f.min_value(), 0.0625);
    }

    #[test]
    fn quantization_rounds_ties_to_even() {
        let f = fmt(8, 4);
        assert_eq!(f.from_f64(1.25), 20);
        assert_eq!(f.from_f64(0.03125), 0, "tie 0.5 LSB -> even 0");
        assert_eq!(f.from_f64(0.09375), 2, "tie 1.5 LSB -> even 2");
        assert_eq!(f.from_f64(-0.03125), 0);
        assert_eq!(f.from_f64(100.0), 127);
        assert_eq!(f.from_f64(-100.0), -128);
        assert_eq!(f.from_f64(f64::NAN), 0);
    }

    #[test]
    fn exact_scale_constant_is_bit_identical_to_powi() {
        // The pre-constant forms, spelled out.
        let from_powi = |f: FixedFormat, v: f64| -> i64 {
            if v.is_nan() {
                return 0;
            }
            let scaled = v * 2f64.powi(f.q() as i32);
            if scaled >= f.max_raw() as f64 {
                f.max_raw()
            } else if scaled <= f.min_raw() as f64 {
                f.min_raw()
            } else {
                scaled.round_ties_even() as i64
            }
        };
        let to_powi = |f: FixedFormat, raw: i64| raw as f64 * 2f64.powi(-(f.q() as i32));
        for e in -31..=31 {
            assert_eq!(exp2(e).to_bits(), 2f64.powi(e).to_bits(), "2^{e}");
        }
        let mut s = 0x5ca1_ab1e_0ff1_ced5_u64;
        for q in 0..32u32 {
            for n in [q + 1, q + 5, 32] {
                let Ok(f) = FixedFormat::new(n.max(2), q) else {
                    continue;
                };
                let lsb = f.min_value();
                assert_eq!(lsb.to_bits(), 2f64.powi(-(q as i32)).to_bits());
                let (max, min) = (f.max_raw() as f64 * lsb, f.min_raw() as f64 * lsb);
                let mut inputs = vec![
                    0.0,
                    -0.0,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::MIN_POSITIVE,
                    max,
                    min,
                    max + lsb / 2.0,
                    min - lsb / 2.0,
                    max * 3.0,
                    min * 3.0,
                ];
                // Ties on both sides of zero and just off them.
                for i in -9..=9 {
                    let tie = (i as f64 + 0.5) * lsb;
                    inputs.extend([tie, tie * (1.0 + f64::EPSILON), tie * (1.0 - f64::EPSILON)]);
                }
                for _ in 0..200 {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    inputs.push((s as i64 as f64) / (1u64 << 40) as f64 * lsb * 64.0);
                }
                for v in inputs {
                    assert_eq!(f.from_f64(v), from_powi(f, v), "{f} from {v:e}");
                }
                for raw in [f.min_raw(), f.min_raw() + 1, -1, 0, 1, 3, f.max_raw()] {
                    assert_eq!(
                        f.to_f64(raw).to_bits(),
                        to_powi(f, raw).to_bits(),
                        "{f} raw {raw}"
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_all_raws() {
        for (n, q) in [(5, 2), (8, 4), (8, 7), (8, 0), (12, 8), (16, 12)] {
            let f = fmt(n, q);
            for raw in f.raws() {
                assert_eq!(f.from_f64(f.to_f64(raw)), raw, "{f} raw {raw}");
            }
        }
    }

    #[test]
    fn saturating_arithmetic() {
        let f = fmt(8, 4);
        assert_eq!(f.add_sat(127, 1), 127);
        assert_eq!(f.add_sat(-128, -1), -128);
        assert_eq!(f.add_sat(20, 12), 32);
    }

    #[test]
    fn multiplication_truncates_vs_rounds() {
        let f = fmt(8, 4);
        // 1.25 × 1.25 = 1.5625 = raw 25 exactly at q=4? 25/16 = 1.5625: raw
        // product = 20×20 = 400; >>4 = 25 exactly (no truncation error).
        assert_eq!(f.mul_truncate(20, 20), 25);
        assert_eq!(f.from_f64(1.25 * 1.25), 25);
        // 0.3125 × 0.3125 = 0.09765625: raw 5×5 = 25; >>4 trunc = 1 (0.0625),
        // where quantising the exact product rounds 25/16 = 1.5625 to 2.
        assert_eq!(f.mul_truncate(5, 5), 1);
        assert_eq!(f.from_f64(0.3125 * 0.3125), 2);
        // Truncation is floor, also for negatives (arithmetic shift).
        assert_eq!(f.mul_truncate(-5, 5), -2);
        // The readout clips past either rail, from registers wider than i64.
        assert_eq!(f.truncate(1 << 100), 127);
        assert_eq!(f.truncate(-(1 << 100)), -128);
        assert_eq!(f.truncate(-17), -2);
    }

    #[test]
    fn dynamic_range_independent_of_q() {
        assert_eq!(
            fmt(8, 2).dynamic_range_log10(),
            fmt(8, 6).dynamic_range_log10()
        );
        assert!((fmt(8, 4).dynamic_range_log10() - 127f64.log10()).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", fmt(8, 4)), "fixed<8,4>");
    }
}
