//! The fixed-point family of the shared EMAC datapath (paper Fig. 3).

use crate::acc::{Accum, SMALL_ACC_MAX_BITS};
use crate::ceil_log2;
use crate::table::{AlignedLut, EmacEntry};
use crate::table_emac::{Family, TableEmac};
use crate::UnsupportedFormat;
use dp_fixed::FixedFormat;

/// Exact fixed-point multiply-and-accumulate: the shared [`TableEmac`]
/// datapath with the [`Fixed`] decode/readout stages.
///
/// Inputs are `n`-bit Q(n−q).q words. Products are kept at full `2n`-bit
/// precision (with `2q` fraction bits) and accumulated in a `wa`-bit
/// register where, per paper eq. (3),
///
/// ```text
/// wa = ⌈log2 k⌉ + 2·⌈log2(max/min)⌉ + 2 = ⌈log2 k⌉ + 2n
/// ```
///
/// At readout the sum is shifted right by `q` bits and **truncated** to `n`
/// bits, clipping at the maximum magnitude — exactly the datapath of Fig. 3.
///
/// A sign-extended word is already a plain integer that fits the aligned
/// word at every width, so every fixed unit runs the aligned-integer
/// kernel ([`crate::MacKernel::Aligned`]); `try_new` rejects the
/// (format, capacity) pairings whose register would not fit the `i128`.
///
/// # Examples
///
/// ```
/// use dp_emac::{Emac, FixedEmac};
/// use dp_fixed::FixedFormat;
///
/// let fmt = FixedFormat::new(8, 4)?; // Q4.4
/// let mut emac = FixedEmac::new(fmt, 4);
/// let half = fmt.from_f64(0.5) as u32; // raw 8
/// emac.mac(half, half);
/// emac.mac(half, half);
/// assert_eq!(emac.result(), 8); // 0.25 + 0.25 = 0.5 = raw 8
/// # Ok::<(), dp_fixed::FormatError>(())
/// ```
pub type FixedEmac = TableEmac<Fixed>;

/// The fixed-point [`Family`]: the decode is the sign extension, there are
/// no special patterns, and the readout is Fig. 3's shift, truncate and
/// clip.
#[derive(Debug, Clone, Copy)]
pub struct Fixed {
    fmt: FixedFormat,
}

impl Fixed {
    /// Sign-extends an `n`-bit pattern.
    #[inline(always)]
    fn sext(self, bits: u32) -> i64 {
        let sh = 64 - self.fmt.n();
        (((bits as u64) << sh) as i64) >> sh
    }

    /// The register read out as a raw word ([`FixedFormat::truncate`]).
    #[inline(always)]
    fn readout(&self, acc: &Accum) -> i64 {
        let sum = match acc {
            Accum::Small(sum) => *sum,
            Accum::Wide(wide) => wide
                .to_i128()
                .expect("check_format bounds the fixed register to an i128"),
        };
        self.fmt.truncate(sum)
    }
}

impl Family for Fixed {
    type Format = FixedFormat;
    type Computed = Fixed;
    const NAME: &'static str = "fixed";
    const PIPELINE_DEPTH: u32 = 3; // multiply → accumulate → shift/clip (Fig. 3 register boundaries)

    /// The readout shifts and clips the register as an `i128`, so the
    /// eq.-(3) width must fit one (`2n + ⌈log2 k⌉ ≤ 127`) — true of every
    /// paper-scale configuration.
    fn check_format(fmt: FixedFormat, capacity: u64) -> Result<(), UnsupportedFormat> {
        let wa = Self::accumulator_width_for(fmt, capacity);
        if wa > SMALL_ACC_MAX_BITS {
            return Err(UnsupportedFormat::new(format!(
                "{fmt}: eq.-(3) accumulator needs {wa} bits for k = {capacity}, \
                 exceeding the fixed EMAC's i128"
            )));
        }
        Ok(())
    }

    /// Paper eq. (3).
    fn accumulator_width_for(fmt: FixedFormat, k: u64) -> u32 {
        2 * fmt.n() + ceil_log2(k)
    }

    /// Nothing to tabulate: the decode is two shifts at every width.
    fn tables(_: FixedFormat) -> Option<&'static AlignedLut> {
        None
    }

    fn new(fmt: FixedFormat, _tables: bool) -> Self {
        Fixed { fmt }
    }

    fn format(&self) -> FixedFormat {
        self.fmt
    }

    /// The sign extension as sign and magnitude, at scale 0.
    #[inline]
    fn decode(&self, bits: u32) -> EmacEntry {
        let v = self.sext(bits);
        EmacEntry::pack(v < 0, v.unsigned_abs(), 0)
    }

    fn computed(&self) -> Option<Fixed> {
        Some(*self)
    }

    #[inline(always)]
    fn computed_entry(fields: Fixed, bits: u32) -> EmacEntry {
        fields.decode(bits)
    }

    /// The sign extension is the aligned value already; the special flag
    /// is always clear.
    #[inline(always)]
    fn aligned_word(fields: Fixed, bits: u32) -> i64 {
        fields.sext(bits) << 1
    }

    /// The bias has `q` fraction bits and the register carries `2q`, so a
    /// bias is pre-shifted left by `q` (Fig. 3 "Pad").
    fn bias_shift(&self) -> u32 {
        self.fmt.q()
    }

    /// Fig. 3: shift right by `q` (arithmetic = truncation toward −∞),
    /// then clip to `n` bits.
    #[inline(always)]
    fn encode(&self, acc: &Accum) -> u32 {
        (self.readout(acc) as u32) & (u32::MAX >> (32 - self.fmt.n()))
    }

    /// Never read: no fixed-point pattern is special.
    fn poison_bits(&self) -> u32 {
        0
    }

    /// The raw word is the value in the operand unit already: the word is
    /// the readout, shifted over the (clear) special flag.
    #[inline(always)]
    fn round_word(&self, acc: &Accum) -> i64 {
        self.readout(acc) << 1
    }

    #[inline(always)]
    fn word_from_f32(fmt: FixedFormat, v: f32) -> i64 {
        fmt.from_f32(v) << 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Emac, MacKernel};

    fn fmt(n: u32, q: u32) -> FixedFormat {
        FixedFormat::new(n, q).unwrap()
    }

    fn pat(f: FixedFormat, v: f64) -> u32 {
        (f.from_f64(v) as u64 as u32) & (u32::MAX >> (32 - f.n()))
    }

    fn val(f: FixedFormat, bits: u32) -> f64 {
        let sh = 64 - f.n();
        let raw = (((bits as u64) << sh) as i64) >> sh;
        f.to_f64(raw)
    }

    #[test]
    fn accumulator_width_matches_eq3() {
        // Paper eq. (3): wa = ceil(log2 k) + 2 ceil(log2(max/min)) + 2.
        // For fixed point max/min = 2^(n-1) - 1, so 2(n-1) + 2 = 2n.
        assert_eq!(Fixed::accumulator_width_for(fmt(8, 4), 1), 16);
        assert_eq!(Fixed::accumulator_width_for(fmt(8, 4), 128), 23);
        assert_eq!(Fixed::accumulator_width_for(fmt(5, 2), 10), 14);
    }

    #[test]
    fn register_past_the_i128_is_a_typed_error() {
        // fixed<32,16>: 64 + ⌈log2 k⌉ bits — 127 at k = 2^63, 128 one past.
        let f = fmt(32, 16);
        let unit = FixedEmac::try_new(f, 1 << 63).unwrap();
        assert_eq!(
            (unit.accumulator_width(), unit.kernel()),
            (127, MacKernel::Aligned)
        );
        let err = FixedEmac::try_new(f, (1 << 63) + 1).unwrap_err();
        assert!(err.reason().contains("128 bits"), "{err}");
        assert!(FixedEmac::try_new(f, u64::MAX).is_err());
    }

    #[test]
    fn exact_dot_product() {
        let f = fmt(8, 4);
        let mut e = FixedEmac::new(f, 8);
        e.mac(pat(f, 1.5), pat(f, 2.0)); // 3.0
        e.mac(pat(f, 0.25), pat(f, 0.25)); // 0.0625 (needs 2q bits!)
        e.mac(pat(f, -1.0), pat(f, 1.0)); // -1.0
                                          // Exact sum = 2.0625; >>q truncates to 2.0625 -> raw 33 = 2.0625
        assert_eq!(val(f, e.result()), 2.0625);
        assert_eq!(e.macs_done(), 3);
    }

    #[test]
    fn truncation_not_rounding_at_output() {
        let f = fmt(8, 4);
        let mut e = FixedEmac::new(f, 4);
        // 0.3125² = 0.09765625: below q=4 resolution; exact acc = 25 (q8).
        e.mac(pat(f, 0.3125), pat(f, 0.3125));
        // >>4 truncates 25 -> 1 => 0.0625 (a rounding MAC would give 0.125).
        assert_eq!(val(f, e.result()), 0.0625);
        // Negative products truncate toward -infinity (arithmetic shift).
        e.reset();
        e.mac(pat(f, -0.3125), pat(f, 0.3125));
        assert_eq!(val(f, e.result()), -0.125);
    }

    #[test]
    fn bias_seeding() {
        let f = fmt(8, 4);
        let mut e = FixedEmac::new(f, 4);
        e.set_bias(pat(f, 1.5));
        e.mac(pat(f, 1.0), pat(f, 1.0));
        assert_eq!(val(f, e.result()), 2.5);
    }

    #[test]
    fn clipping_at_both_rails() {
        let f = fmt(8, 4);
        let mut e = FixedEmac::new(f, 16);
        for _ in 0..16 {
            e.mac(pat(f, 7.0), pat(f, 7.0));
        }
        assert_eq!(val(f, e.result()), f.max_value());
        e.reset();
        for _ in 0..16 {
            e.mac(pat(f, -7.0), pat(f, 7.0));
        }
        assert_eq!(val(f, e.result()), -8.0);
    }

    #[test]
    fn intermediate_no_rounding_vs_per_op_mac() {
        // Sum of 16 products each below one LSB: EMAC sees them, a rounding
        // per-op MAC (truncate each product) would produce zero.
        let f = fmt(8, 4);
        let mut e = FixedEmac::new(f, 16);
        for _ in 0..16 {
            e.mac(pat(f, 0.125), pat(f, 0.25)); // each 0.03125 = half LSB
        }
        assert_eq!(val(f, e.result()), 0.5);
        let mut per_op = 0i64;
        for _ in 0..16 {
            per_op = f.add_sat(per_op, f.mul_truncate(f.from_f64(0.125), f.from_f64(0.25)));
        }
        assert_eq!(f.to_f64(per_op), 0.0);
    }

    #[test]
    fn matches_i128_reference_randomized() {
        let f = fmt(8, 6);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let len = (next() % 32 + 1) as usize;
            let mut e = FixedEmac::new(f, len as u64);
            let mut reference: i128 = 0;
            for _ in 0..len {
                let w = (next() as u32) & 0xff;
                let a = (next() as u32) & 0xff;
                e.mac(w, a);
                let sx = |b: u32| (((b as u64) << 56) as i64 >> 56) as i128;
                reference += sx(w) * sx(a);
            }
            let expect =
                (reference >> f.q()).clamp(f.min_raw() as i128, f.max_raw() as i128) as i64;
            let got = e.result();
            let sh = 64 - f.n();
            let got_raw = (((got as u64) << sh) as i64) >> sh;
            assert_eq!(got_raw, expect);
        }
    }
}
