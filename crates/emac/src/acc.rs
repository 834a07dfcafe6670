//! The EMAC accumulation register: a native `i128` when it fits, the
//! limb-based [`WideInt`] otherwise.
//!
//! Paper eqs. (3)–(4) size the accumulator so a `k`-term dot product is
//! exact. For every 5–8-bit configuration the paper evaluates (Table II)
//! that width is well under 127 bits, so the register fits a native
//! two's-complement `i128` and each MAC becomes one shift and one add —
//! the software analogue of the paper's observation that small formats
//! make the EMAC adder trivially cheap. Of the §IV comparison sweep's
//! 16-bit formats, posit⟨16,1⟩'s eq.-(4) register (121 bits at k = 128),
//! binary16's and fixed point's still fit the `i128`; the es = 2 posits
//! from n = 10 and six-bit-exponent minifloats (e.g. 233 bits for
//! posit⟨16,2⟩ at k = 128) do not, and run — like every wider format and
//! every `new_reference()` unit — on [`WideInt`].
//!
//! Both variants expose the same fixed-point semantics, and readout
//! produces the identical `(msb, window, sticky)` triple, so the final
//! rounding/encode step is shared and bit-identical between paths — a
//! property the `fast_path_equivalence` test suite checks differentially.

use dp_posit::WideInt;

/// Widest accumulator (in bits, including sign) the `i128` fast path can
/// hold. Equation-(3)/(4) widths at or below this use native arithmetic.
pub const SMALL_ACC_MAX_BITS: u32 = 127;

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
    /// Registers past 127 bits, and every `new_reference()` unit.
    Wide(WideInt),
}

impl Accum {
    /// A zero register for an exact width of `width` bits (per paper
    /// eqs. 3–4). Chooses the `i128` fast path whenever the width fits
    /// and the [`WideInt`] fallback (with the traditional 64 bits of
    /// headroom) beyond that.
    pub fn new(width: u32) -> Self {
        if width <= SMALL_ACC_MAX_BITS {
            Accum::Small(0)
        } else {
            Accum::new_wide(width)
        }
    }

    /// A zero register forced onto the [`WideInt`] path regardless of
    /// width — the pre-LUT reference datapath, kept for differential
    /// testing and benchmarking against the fast path.
    pub fn new_wide(width: u32) -> Self {
        Accum::Wide(WideInt::zero(width as usize + 64))
    }

    /// Clears the register to zero, keeping capacity.
    pub fn clear(&mut self) {
        match self {
            Accum::Small(v) => *v = 0,
            Accum::Wide(w) => w.clear(),
        }
    }

    /// True if every bit is clear.
    pub fn is_zero(&self) -> bool {
        match self {
            Accum::Small(v) => *v == 0,
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
            Accum::Wide(w) => w.add_shifted_u128(value, shift, negate),
        }
    }

    /// Sign, MSB index and left-aligned 64-bit rounding window of the
    /// current value, or `None` when zero. Identical between paths. The
    /// `i128` read inlines into every readout; the `WideInt` one is a call.
    #[inline(always)]
    pub fn window(&self) -> Option<Window> {
        match self {
            Accum::Small(acc) => Self::small_window(*acc),
            Accum::Wide(w) => Self::wide_window(w),
        }
    }

    #[inline(always)]
    fn small_window(acc: i128) -> Option<Window> {
        if acc == 0 {
            return None;
        }
        let sign = acc < 0;
        // A sum in `i64` range — every ≤ 64-bit register — has its whole
        // magnitude inside the window: one 64-bit shift, no sticky.
        if let Ok(narrow) = i64::try_from(acc) {
            let mag = narrow.unsigned_abs();
            let lz = mag.leading_zeros();
            return Some(Window {
                sign,
                msb: 63 - lz as usize,
                sig: mag << lz,
                sticky: false,
            });
        }
        let mag = acc.unsigned_abs();
        let msb = 127 - mag.leading_zeros() as usize;
        // Left-align the magnitude so bit `msb` lands at bit 127; the top
        // half is then the 64-bit window, the bottom half collapses into
        // the sticky flag.
        let aligned = mag << (127 - msb);
        Some(Window {
            sign,
            msb,
            sig: (aligned >> 64) as u64,
            sticky: aligned as u64 != 0,
        })
    }

    #[inline(never)]
    fn wide_window(w: &WideInt) -> Option<Window> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_selects_the_path() {
        assert!(matches!(Accum::new(26), Accum::Small(_)));
        assert!(matches!(Accum::new(127), Accum::Small(_)));
        assert!(matches!(Accum::new(128), Accum::Wide(_)));
        assert!(matches!(Accum::new_wide(26), Accum::Wide(_)));
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
    fn narrow_and_wide_small_windows_meet_at_the_i64_boundary() {
        // −2^63 is the last sum the 64-bit read takes, +2^63 the first it
        // does not; around both, the triple must equal the WideInt one.
        for k in [
            1i128,
            2,
            3,
            (1 << 62) - 1,
            1 << 62,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
        ] {
            for v in [k, -k] {
                let mut wide = Accum::new_wide(120);
                wide.add_shifted_u128(v.unsigned_abs(), 0, v < 0);
                assert_eq!(Accum::Small(v).window(), wide.window(), "{v}");
            }
        }
        let w = Accum::Small(i64::MIN as i128).window().unwrap();
        assert_eq!((w.sign, w.msb, w.sig, w.sticky), (true, 63, 1 << 63, false));
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
