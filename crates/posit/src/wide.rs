//! Arbitrary-width two's-complement integers.
//!
//! The posit quire (paper eq. 4) and the EMAC accumulators (paper eq. 3)
//! need fixed-point registers far wider than 128 bits — e.g. a 32-bit posit
//! with `es = 2` requires a quire of ~500 bits. [`WideInt`] provides exactly
//! the operations those accumulators need: shifted add/subtract of a product,
//! sign/magnitude inspection, and windowed significand extraction with a
//! sticky flag for round-to-nearest-even.

use std::fmt;

/// A two's-complement integer over `64 × limbs` bits (little-endian limbs).
///
/// All arithmetic wraps at the full limb width; callers size the integer
/// with enough headroom (the quire adds carry-guard bits per paper eq. 4)
/// so wrapping never occurs in correct usage. Debug builds assert that
/// shifted operands stay within capacity.
///
/// # Examples
///
/// ```
/// use dp_posit::WideInt;
/// let mut w = WideInt::zero(256);
/// w.add_shifted_u128(3, 200, false); // w += 3 << 200
/// w.add_shifted_u128(3, 200, true);  // w -= 3 << 200
/// assert!(w.is_zero());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct WideInt {
    limbs: Vec<u64>,
}

impl WideInt {
    /// A zero value with capacity of at least `min_bits` bits.
    pub fn zero(min_bits: usize) -> Self {
        let limbs = min_bits.div_ceil(64).max(1);
        WideInt {
            limbs: vec![0; limbs],
        }
    }

    /// True if every bit is clear.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// True if the sign (top) bit is set.
    pub fn is_negative(&self) -> bool {
        self.limbs.last().unwrap() >> 63 == 1
    }

    /// Clears the value to zero, keeping capacity.
    pub fn clear(&mut self) {
        self.limbs.iter_mut().for_each(|l| *l = 0);
    }

    /// Two's-complement negation in place.
    fn negate(&mut self) {
        for l in self.limbs.iter_mut() {
            *l = !*l;
        }
        self.add_small(1);
    }

    fn add_small(&mut self, v: u64) {
        let mut carry = v;
        for l in self.limbs.iter_mut() {
            if carry == 0 {
                break;
            }
            let (s, c) = l.overflowing_add(carry);
            *l = s;
            carry = c as u64;
        }
    }

    /// `self += (value << shift)` treating `value` as unsigned; subtracts
    /// instead when `negate` is set. This is the quire's workhorse: a posit
    /// product (`<= 128` bits) lands at the fixed-point position `shift`.
    /// Allocation-free (it runs once per MAC in the DNN inner loop).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the shifted value does not fit capacity.
    pub fn add_shifted_u128(&mut self, value: u128, shift: usize, negate: bool) {
        if value == 0 {
            return;
        }
        let n = self.limbs.len();
        let limb_off = shift / 64;
        let bit_off = shift % 64;
        let lo = value as u64;
        let hi = (value >> 64) as u64;
        let parts: [u64; 3] = if bit_off == 0 {
            [lo, hi, 0]
        } else {
            [
                lo << bit_off,
                (hi << bit_off) | (lo >> (64 - bit_off)),
                hi >> (64 - bit_off),
            ]
        };
        if negate {
            let mut borrow = 0u64;
            for (j, &p) in parts.iter().enumerate() {
                let i = limb_off + j;
                if i >= n {
                    debug_assert_eq!(p, 0, "WideInt overflow: shifted value exceeds capacity");
                    continue;
                }
                let (d1, b1) = self.limbs[i].overflowing_sub(p);
                let (d2, b2) = d1.overflowing_sub(borrow);
                self.limbs[i] = d2;
                borrow = (b1 | b2) as u64;
            }
            let mut i = limb_off + 3;
            while borrow != 0 && i < n {
                let (d, b) = self.limbs[i].overflowing_sub(1);
                self.limbs[i] = d;
                borrow = b as u64;
                i += 1;
            }
            // A borrow past the top limb wraps: two's-complement semantics.
        } else {
            let mut carry = 0u64;
            for (j, &p) in parts.iter().enumerate() {
                let i = limb_off + j;
                if i >= n {
                    debug_assert_eq!(p, 0, "WideInt overflow: shifted value exceeds capacity");
                    continue;
                }
                let (s1, c1) = self.limbs[i].overflowing_add(p);
                let (s2, c2) = s1.overflowing_add(carry);
                self.limbs[i] = s2;
                carry = (c1 | c2) as u64;
            }
            let mut i = limb_off + 3;
            while carry != 0 && i < n {
                let (s, c) = self.limbs[i].overflowing_add(1);
                self.limbs[i] = s;
                carry = c as u64;
                i += 1;
            }
        }
    }

    /// Absolute value (two's-complement magnitude), same capacity.
    pub fn magnitude(&self) -> WideInt {
        let mut m = self.clone();
        if m.is_negative() {
            m.negate();
        }
        m
    }

    /// Index of the most significant set bit (0-based from the LSB), or
    /// `None` when zero. Intended for non-negative values (magnitudes).
    pub fn msb_index(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            if l != 0 {
                return Some(i * 64 + 63 - l.leading_zeros() as usize);
            }
        }
        None
    }

    /// Reads bit `i`; indices at or beyond capacity read the sign extension.
    fn bit(&self, i: usize) -> bool {
        if i >= self.limbs.len() * 64 {
            return self.is_negative();
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Extracts the 64-bit window whose top bit is `msb` (bits
    /// `msb ..= msb-63`, zero-filled below index 0), plus a sticky flag set
    /// when any bit strictly below the window is set.
    ///
    /// Used to normalize a quire/accumulator magnitude into a left-aligned
    /// significand for final rounding.
    pub fn extract_window(&self, msb: usize) -> (u64, bool) {
        let mut sig = 0u64;
        for k in 0..64usize {
            if k > msb {
                break;
            }
            let idx = msb - k;
            if self.bit(idx) {
                sig |= 1u64 << (63 - k);
            }
        }
        let below = msb.saturating_sub(63); // bits [0, below) are under the window
        let full = below / 64;
        let rem = below % 64;
        let mut sticky = self.limbs[..full.min(self.limbs.len())]
            .iter()
            .any(|&l| l != 0);
        if rem > 0 && full < self.limbs.len() {
            sticky |= self.limbs[full] & ((1u64 << rem) - 1) != 0;
        }
        (sig, sticky)
    }

    /// Converts to `i128` when the value fits, otherwise `None`.
    pub fn to_i128(&self) -> Option<i128> {
        let lo = self.limbs[0] as u128;
        let hi = if self.limbs.len() > 1 {
            self.limbs[1] as u128
        } else if self.is_negative() {
            u64::MAX as u128
        } else {
            0
        };
        let v = ((hi << 64) | lo) as i128;
        let ext = if v < 0 { u64::MAX } else { 0 };
        for &l in self.limbs.iter().skip(2) {
            if l != ext {
                return None;
            }
        }
        // The sign of the truncated i128 must agree with the wide sign.
        if (v < 0) != self.is_negative() && self.limbs.len() > 2 {
            return None;
        }
        Some(v)
    }

    /// Approximate conversion to `f64` (correct to f64 precision); mainly
    /// for diagnostics and plotting.
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let neg = self.is_negative();
        let mag = self.magnitude();
        let msb = mag.msb_index().expect("nonzero magnitude");
        let (sig, _) = mag.extract_window(msb);
        let v = sig as f64 * 2f64.powi(msb as i32 - 63);
        if neg {
            -v
        } else {
            v
        }
    }
}

impl fmt::Debug for WideInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WideInt(0x")?;
        for l in self.limbs.iter().rev() {
            write!(f, "{l:016x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `v` sign-extended into a register of at least `bits` bits.
    fn wide(v: i128, bits: usize) -> WideInt {
        let mut w = WideInt::zero(bits);
        w.add_shifted_u128(v.unsigned_abs(), 0, v < 0);
        w
    }

    #[test]
    fn zero_and_capacity() {
        let w = WideInt::zero(200);
        assert!(w.is_zero());
        assert!(!w.is_negative());
        assert_eq!(w.limbs.len(), 4);
        assert_eq!(WideInt::zero(0).limbs.len(), 1);
    }

    #[test]
    fn from_i128_roundtrip() {
        for v in [0i128, 1, -1, 42, -42, i128::MAX, i128::MIN, 1 << 100] {
            let w = wide(v, 256);
            assert_eq!(w.to_i128(), Some(v), "roundtrip {v}");
            assert_eq!(w.is_negative(), v < 0);
        }
    }

    #[test]
    fn add_matches_i128() {
        let cases = [
            (5i128, 7i128),
            (-5, 7),
            (5, -7),
            (-5, -7),
            (i64::MAX as i128, i64::MAX as i128),
            ((1 << 90) - 3, -(1 << 89)),
        ];
        for (a, b) in cases {
            let mut w = wide(a, 256);
            w.add_shifted_u128(b.unsigned_abs(), 0, b < 0);
            assert_eq!(w.to_i128(), Some(a + b), "{a} + {b}");
        }
    }

    #[test]
    fn negate_matches_i128() {
        for v in [0i128, 1, -1, 12345, -99999, 1 << 120] {
            let mut w = wide(v, 256);
            w.negate();
            assert_eq!(w.to_i128(), Some(-v));
        }
    }

    #[test]
    fn shifted_add_and_sub() {
        let mut w = WideInt::zero(512);
        w.add_shifted_u128(0xdead_beef, 300, false);
        assert!(!w.is_zero());
        assert_eq!(w.msb_index(), Some(300 + 31)); // 0xdeadbeef has msb 31
        w.add_shifted_u128(0xdead_beef, 300, true);
        assert!(w.is_zero());
    }

    #[test]
    fn shifted_add_matches_i128_at_small_shift() {
        for shift in [0usize, 1, 17, 63, 64, 65] {
            let mut w = WideInt::zero(256);
            w.add_shifted_u128(0b1011, shift, false);
            assert_eq!(w.to_i128(), Some(0b1011i128 << shift), "shift {shift}");
        }
    }

    #[test]
    fn magnitude_and_msb() {
        let w = wide(-260, 256);
        let m = w.magnitude();
        assert_eq!(m.to_i128(), Some(260));
        assert_eq!(m.msb_index(), Some(8));
        assert_eq!(WideInt::zero(128).msb_index(), None);
    }

    #[test]
    fn extract_window_aligns_and_sets_sticky() {
        // value = 0b101 << 100 | 1 : window at msb=102 gives 0b101 left-aligned,
        // sticky set because of the low 1.
        let mut w = WideInt::zero(256);
        w.add_shifted_u128(0b101, 100, false);
        w.add_shifted_u128(1, 0, false);
        let (sig, sticky) = w.extract_window(102);
        assert_eq!(sig, 0b101u64 << 61);
        assert!(sticky);
        // Without the low bit there is no sticky.
        let mut w2 = WideInt::zero(256);
        w2.add_shifted_u128(0b101, 100, false);
        let (sig2, sticky2) = w2.extract_window(102);
        assert_eq!(sig2, sig);
        assert!(!sticky2);
    }

    #[test]
    fn window_near_bottom_zero_fills() {
        let mut w = WideInt::zero(128);
        w.add_shifted_u128(0b11, 2, false); // value 12, msb = 3
        let (sig, sticky) = w.extract_window(3);
        assert_eq!(sig, 0b11u64 << 62);
        assert!(!sticky);
    }

    #[test]
    fn to_f64_approximates() {
        let w = wide(3 << 90, 256);
        let expect = 3.0 * 2f64.powi(90);
        assert_eq!(w.to_f64(), expect);
        assert_eq!(wide(-7, 128).to_f64(), -7.0);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", WideInt::zero(64)).is_empty());
    }
}
