//! The EMAC accumulation register: native `i128` when it fits, a two-word
//! 256-bit register for the paper's 13–16-bit comparison formats, and
//! [`WideInt`] beyond that.
//!
//! Paper eqs. (3)–(4) size the accumulator so a `k`-term dot product is
//! exact. For every 5–8-bit configuration the paper evaluates (Table II)
//! that width is well under 127 bits, so the register fits a native
//! two's-complement `i128` and each MAC becomes one shift and one add —
//! the software analogue of the paper's observation that small formats
//! make the EMAC adder trivially cheap. The §IV comparison sweep also runs
//! formats up to 16 bits: posit⟨16,1⟩'s eq.-(4) register (121 bits at
//! k = 128) still fits the `i128`, while the es = 2 posits and six-bit-
//! exponent minifloats (e.g. 233 bits for posit⟨16,2⟩ at k = 128) spill
//! past one `i128` but fit two — the [`Acc256`] variant keeps those on
//! native carry-chain arithmetic (roughly two adds with carry per MAC)
//! instead of heap-allocated limbs.
//! Truly wide formats (e.g. posit⟨32,2⟩ needs ~500 bits) still fall back
//! to the limb-based [`WideInt`].
//!
//! All variants expose the same fixed-point semantics, and readout
//! produces the identical `(msb, window, sticky)` triple, so the final
//! rounding/encode step is shared and bit-identical between paths — a
//! property the `fast_path_equivalence` test suite checks differentially.

use dp_posit::WideInt;

/// Widest accumulator (in bits, including sign) the `i128` fast path can
/// hold. Equation-(3)/(4) widths at or below this use native arithmetic.
pub const SMALL_ACC_MAX_BITS: u32 = 127;

/// Widest accumulator (in bits, including sign) the two-word [`Acc256`]
/// path can hold. Widths in `SMALL_ACC_MAX_BITS+1 ..= MEDIUM_ACC_MAX_BITS`
/// use it; anything wider falls back to [`WideInt`].
pub const MEDIUM_ACC_MAX_BITS: u32 = 255;

/// A 256-bit two's-complement fixed-point register held in two native
/// words (`hi:lo`), covering every eq.-(3)/(4) width of the paper's §IV
/// sweep up to 16 bits without limb vectors. Adds ripple one carry from
/// the low word into the high word; readout mirrors the `i128` path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Acc256 {
    hi: i128,
    lo: u128,
}

impl Acc256 {
    /// The zero register.
    pub const ZERO: Acc256 = Acc256 { hi: 0, lo: 0 };

    /// True if every bit is clear.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.hi == 0 && self.lo == 0
    }

    /// `self += (value << shift)`, or `-=` when `negate` is set.
    #[inline]
    pub fn add_shifted_u128(&mut self, value: u128, shift: usize, negate: bool) {
        debug_assert!(
            shift as u32 + (128 - value.leading_zeros()) <= MEDIUM_ACC_MAX_BITS,
            "256-bit accumulator overflow: value does not fit capacity"
        );
        let (lo_add, hi_add): (u128, u128) = if shift == 0 {
            (value, 0)
        } else if shift < 128 {
            (value << shift, value >> (128 - shift))
        } else {
            // Capacity keeps shift − 128 + value bits ≤ 127, so nothing
            // spills past the high word.
            (0, value << (shift - 128))
        };
        if negate {
            let (lo, borrow) = self.lo.overflowing_sub(lo_add);
            self.lo = lo;
            self.hi = self
                .hi
                .wrapping_sub(hi_add as i128)
                .wrapping_sub(borrow as i128);
        } else {
            let (lo, carry) = self.lo.overflowing_add(lo_add);
            self.lo = lo;
            self.hi = self
                .hi
                .wrapping_add(hi_add as i128)
                .wrapping_add(carry as i128);
        }
    }

    /// Sign, MSB index and left-aligned 64-bit rounding window, or `None`
    /// when zero; identical in shape to the `i128` and [`WideInt`] paths.
    pub fn window(&self) -> Option<Window> {
        if self.is_zero() {
            return None;
        }
        let sign = self.hi < 0;
        let (mut mhi, mut mlo) = (self.hi as u128, self.lo);
        if sign {
            // 256-bit two's-complement negation: !x + 1 with one carry.
            mlo = mlo.wrapping_neg();
            mhi = if mlo == 0 { mhi.wrapping_neg() } else { !mhi };
        }
        let msb = if mhi != 0 {
            255 - mhi.leading_zeros() as usize
        } else {
            127 - mlo.leading_zeros() as usize
        };
        // Left-align the magnitude so bit `msb` lands at bit 255; the top
        // 64 bits are the window, everything below collapses into sticky.
        let sh = 255 - msb;
        let (ahi, alo) = if sh == 0 {
            (mhi, mlo)
        } else if sh < 128 {
            ((mhi << sh) | (mlo >> (128 - sh)), mlo << sh)
        } else {
            (mlo << (sh - 128), 0)
        };
        Some(Window {
            sign,
            msb,
            sig: (ahi >> 64) as u64,
            sticky: (ahi as u64) != 0 || alo != 0,
        })
    }
}

/// Sign/magnitude view of a nonzero accumulator, normalized for encoding:
/// the top window bit sits at `msb`, `sig` holds bits `msb..=msb-63`
/// left-aligned, and `sticky` is set when any bit below the window is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Sign of the accumulated value.
    pub sign: bool,
    /// Index of the most significant magnitude bit (from the register LSB).
    pub msb: usize,
    /// 64-bit window below (and including) `msb`, left-aligned.
    pub sig: u64,
    /// Whether any magnitude bit strictly below the window is set.
    pub sticky: bool,
}

/// A two's-complement fixed-point accumulation register.
#[derive(Debug, Clone)]
pub enum Accum {
    /// Native fast path: the whole register lives in one `i128`.
    Small(i128),
    /// Two-word native path for registers of 128–255 bits (the paper's
    /// 13–16-bit comparison formats).
    Medium(Acc256),
    /// Fallback for formats whose exact register exceeds 255 bits.
    Wide(WideInt),
}

impl Accum {
    /// A zero register for an exact width of `width` bits (per paper
    /// eqs. 3–4). Chooses the `i128` fast path whenever the width fits,
    /// the two-word [`Acc256`] up to [`MEDIUM_ACC_MAX_BITS`], and the
    /// [`WideInt`] fallback (with the traditional 64 bits of headroom)
    /// beyond that.
    pub fn new(width: u32) -> Self {
        if width <= SMALL_ACC_MAX_BITS {
            Accum::Small(0)
        } else if width <= MEDIUM_ACC_MAX_BITS {
            Accum::Medium(Acc256::ZERO)
        } else {
            Accum::Wide(WideInt::zero(width as usize + 64))
        }
    }

    /// A zero register forced onto the [`WideInt`] path regardless of
    /// width — the pre-LUT reference datapath, kept for differential
    /// testing and benchmarking against the fast path.
    pub fn new_wide(width: u32) -> Self {
        Accum::Wide(WideInt::zero(width as usize + 64))
    }

    /// True when this register uses the native `i128` fast path.
    pub fn is_small(&self) -> bool {
        matches!(self, Accum::Small(_))
    }

    /// True when this register uses native word arithmetic (`i128` or the
    /// two-word 256-bit register) rather than [`WideInt`] limbs.
    pub fn is_native(&self) -> bool {
        !matches!(self, Accum::Wide(_))
    }

    /// Clears the register to zero, keeping capacity.
    pub fn clear(&mut self) {
        match self {
            Accum::Small(v) => *v = 0,
            Accum::Medium(m) => *m = Acc256::ZERO,
            Accum::Wide(w) => w.clear(),
        }
    }

    /// True if every bit is clear.
    pub fn is_zero(&self) -> bool {
        match self {
            Accum::Small(v) => *v == 0,
            Accum::Medium(m) => m.is_zero(),
            Accum::Wide(w) => w.is_zero(),
        }
    }

    /// `self += (value << shift)`, or `-=` when `negate` is set. `value`
    /// is an unsigned product/significand; `shift` is its fixed-point
    /// position in the register.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the shifted value exceeds capacity
    /// (correctly sized accumulators never do — paper eqs. 3–4).
    #[inline]
    pub fn add_shifted_u128(&mut self, value: u128, shift: usize, negate: bool) {
        if value == 0 {
            return;
        }
        match self {
            Accum::Small(acc) => {
                debug_assert!(
                    shift as u32 + (128 - value.leading_zeros()) <= SMALL_ACC_MAX_BITS,
                    "i128 accumulator overflow: value does not fit capacity"
                );
                let shifted = (value << shift) as i128;
                if negate {
                    *acc -= shifted;
                } else {
                    *acc += shifted;
                }
            }
            Accum::Medium(m) => m.add_shifted_u128(value, shift, negate),
            Accum::Wide(w) => w.add_shifted_u128(value, shift, negate),
        }
    }

    /// Sign, MSB index and left-aligned 64-bit rounding window of the
    /// current value, or `None` when zero. Identical between paths.
    pub fn window(&self) -> Option<Window> {
        match self {
            Accum::Small(acc) => {
                if *acc == 0 {
                    return None;
                }
                let sign = *acc < 0;
                let mag = acc.unsigned_abs();
                let msb = 127 - mag.leading_zeros() as usize;
                // Left-align the magnitude so bit `msb` lands at bit 127;
                // the top half is then the 64-bit window, the bottom half
                // collapses into the sticky flag.
                let aligned = mag << (127 - msb);
                Some(Window {
                    sign,
                    msb,
                    sig: (aligned >> 64) as u64,
                    sticky: aligned as u64 != 0,
                })
            }
            Accum::Medium(m) => m.window(),
            Accum::Wide(w) => {
                if w.is_zero() {
                    return None;
                }
                let sign = w.is_negative();
                let mag = w.magnitude();
                let msb = mag.msb_index().expect("nonzero accumulator");
                let (sig, sticky) = mag.extract_window(msb);
                Some(Window {
                    sign,
                    msb,
                    sig,
                    sticky,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_selects_the_path() {
        assert!(Accum::new(26).is_small());
        assert!(Accum::new(127).is_small());
        assert!(!Accum::new(128).is_small());
        assert!(matches!(Accum::new(128), Accum::Medium(_)));
        assert!(matches!(Accum::new(255), Accum::Medium(_)));
        assert!(Accum::new(255).is_native());
        assert!(matches!(Accum::new(256), Accum::Wide(_)));
        assert!(!Accum::new(256).is_native());
        assert!(!Accum::new_wide(26).is_small());
        assert!(!Accum::new_wide(26).is_native());
    }

    #[test]
    fn zero_add_clear_roundtrip() {
        for mut acc in [
            Accum::new(100),
            Accum::new(200),
            Accum::new(300),
            Accum::new_wide(100),
        ] {
            assert!(acc.is_zero());
            assert!(acc.window().is_none());
            acc.add_shifted_u128(5, 10, false);
            assert!(!acc.is_zero());
            acc.add_shifted_u128(5, 10, true);
            assert!(acc.is_zero(), "add then sub cancels");
            acc.add_shifted_u128(1, 0, false);
            acc.clear();
            assert!(acc.is_zero());
        }
    }

    #[test]
    fn windows_agree_between_paths() {
        let mut s = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..500 {
            let mut small = Accum::new(120);
            let mut wide = Accum::new_wide(120);
            for _ in 0..(next() % 12 + 1) {
                let value = (next() % (1 << 20)) as u128;
                let shift = (next() % 90) as usize;
                let negate = next() % 2 == 0;
                small.add_shifted_u128(value, shift, negate);
                wide.add_shifted_u128(value, shift, negate);
            }
            assert_eq!(small.is_zero(), wide.is_zero());
            assert_eq!(small.window(), wide.window());
        }
    }

    #[test]
    fn medium_windows_agree_with_wide() {
        // The two-word 256-bit register must be bit-identical to WideInt on
        // adds that straddle the lo/hi word boundary, cancel exactly, and
        // go negative — including shifts at and above 128.
        let mut s = 0x0fed_cba9_8765_4321u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..500 {
            let mut medium = Accum::new(250);
            assert!(matches!(medium, Accum::Medium(_)));
            let mut wide = Accum::new_wide(250);
            for _ in 0..(next() % 16 + 1) {
                let value = ((next() as u128) << 64 | next() as u128) % (1 << 40);
                let shift = (next() % 200) as usize;
                let negate = next() % 2 == 0;
                medium.add_shifted_u128(value, shift, negate);
                wide.add_shifted_u128(value, shift, negate);
            }
            assert_eq!(medium.is_zero(), wide.is_zero());
            assert_eq!(medium.window(), wide.window());
            medium.clear();
            assert!(medium.is_zero());
        }
    }

    #[test]
    fn medium_boundary_carries() {
        // A carry out of the low word: 2^127 + 2^127 = 2^128.
        let mut m = Accum::new(200);
        m.add_shifted_u128(1, 127, false);
        m.add_shifted_u128(1, 127, false);
        let w = m.window().unwrap();
        assert_eq!(
            (w.sign, w.msb, w.sig, w.sticky),
            (false, 128, 1 << 63, false)
        );
        // Subtracting back across the boundary cancels exactly.
        m.add_shifted_u128(1, 128, true);
        assert!(m.is_zero());
        // A negative value straddling the boundary.
        m.add_shifted_u128(0b11, 127, true); // -(3 × 2^127)
        let w = m.window().unwrap();
        assert_eq!(
            (w.sign, w.msb, w.sig, w.sticky),
            (true, 128, 0b11 << 62, false)
        );
    }

    #[test]
    fn window_shape_for_known_value() {
        // value = 0b101 << 100 | 1: window at msb=102, sticky from the low 1.
        let mut acc = Accum::new(120);
        acc.add_shifted_u128(0b101, 100, false);
        acc.add_shifted_u128(1, 0, false);
        let w = acc.window().unwrap();
        assert!(!w.sign);
        assert_eq!(w.msb, 102);
        assert_eq!(w.sig, 0b101u64 << 61);
        assert!(w.sticky);
    }

    #[test]
    fn negative_values_report_sign_and_magnitude() {
        let mut acc = Accum::new(90);
        acc.add_shifted_u128(7, 20, true); // -7 × 2^20
        let w = acc.window().unwrap();
        assert!(w.sign);
        assert_eq!(w.msb, 22);
        assert_eq!(w.sig, 0b111u64 << 61);
        assert!(!w.sticky);
    }
}
