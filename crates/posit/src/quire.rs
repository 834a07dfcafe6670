//! The quire: an exact Kulisch accumulator for posit dot products.
//!
//! Products of posits are fixed-point numbers whose bits all lie between
//! `minpos² = 2^(-2·max_scale)` and `maxpos² = 2^(2·max_scale)`. A register
//! covering that range plus carry-guard bits therefore accumulates any
//! dot product *exactly*; rounding happens once, at extraction. The paper
//! sizes this register with eq. (4):
//!
//! ```text
//! qsize = 2^(es+2) × (n − 2) + 2 + ⌈log2 k⌉ ,  n ≥ 3
//! ```
//!
//! where `k` is the number of accumulated products. This is the mechanism
//! that makes the posit EMAC exact (paper §III-D), and `dp-emac`'s
//! bit-accurate datapath is differentially tested against this type.

use crate::decode::{decode, Decoded};
use crate::encode::encode;
use crate::format::PositFormat;
use crate::wide::WideInt;

/// An exact accumulator for sums of posit products (paper §III-D).
///
/// # Examples
///
/// ```
/// use dp_posit::{PositFormat, Quire};
/// let fmt = PositFormat::new(8, 0)?;
/// let mut q = Quire::new(fmt, 4);
/// let half = dp_posit::convert::from_f64(fmt, 0.5);
/// for _ in 0..4 {
///     q.add_product(half, half); // 4 × 0.25
/// }
/// assert_eq!(dp_posit::convert::to_f64(fmt, q.to_posit()), 1.0);
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Quire {
    fmt: PositFormat,
    acc: WideInt,
    /// Bit index of weight 2^0 inside the accumulator.
    offset: usize,
    capacity: u64,
    count: u64,
    nar: bool,
}

impl Quire {
    /// Creates a quire for `fmt` able to absorb `capacity` products without
    /// overflow. The register width follows paper eq. (4) plus one limb of
    /// engineering margin.
    pub fn new(fmt: PositFormat, capacity: u64) -> Self {
        let capacity = capacity.max(1);
        let width = Self::paper_width(fmt, capacity) + 64;
        let offset = 2 * fmt.max_scale() as usize;
        Quire {
            fmt,
            acc: WideInt::zero(width),
            offset,
            capacity,
            count: 0,
            nar: false,
        }
    }

    /// The accumulator width prescribed by paper eq. (4) for `k` products.
    pub fn paper_width(fmt: PositFormat, k: u64) -> usize {
        let n = fmt.n() as usize;
        let es = fmt.es();
        (1usize << (es + 2)) * (n - 2) + 2 + ceil_log2(k)
    }

    /// The format this quire accumulates.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// Number of products absorbed since the last [`Quire::clear`].
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True once a NaR has been absorbed; the eventual result is NaR.
    pub fn is_nar(&self) -> bool {
        self.nar
    }

    /// Resets to zero (keeps capacity).
    pub fn clear(&mut self) {
        self.acc.clear();
        self.count = 0;
        self.nar = false;
    }

    /// Accumulates the exact product `a × b` of two posits of this format.
    pub fn add_product(&mut self, a: u32, b: u32) {
        self.mac(a, b, false);
    }

    /// Accumulates the exact negated product `-(a × b)`.
    pub fn sub_product(&mut self, a: u32, b: u32) {
        self.mac(a, b, true);
    }

    fn mac(&mut self, a: u32, b: u32, negate: bool) {
        self.count += 1;
        debug_assert!(
            self.count <= self.capacity,
            "quire sized for {} products, got {}",
            self.capacity,
            self.count
        );
        let (ua, ub) = match (decode(self.fmt, a), decode(self.fmt, b)) {
            (Decoded::NaR, _) | (_, Decoded::NaR) => {
                self.nar = true;
                return;
            }
            (Decoded::Zero, _) | (_, Decoded::Zero) => return,
            (Decoded::Finite(ua), Decoded::Finite(ub)) => (ua, ub),
        };
        let prod = (ua.sig as u128) * (ub.sig as u128); // exact, [2^126, 2^128)
        let tz = prod.trailing_zeros() as i32;
        // value = (prod >> tz) × 2^(scale_a + scale_b − 126 + tz)
        let pos = ua.scale + ub.scale - 126 + tz + self.offset as i32;
        debug_assert!(pos >= 0, "posit products are multiples of minpos²");
        self.acc
            .add_shifted_u128(prod >> tz, pos as usize, negate ^ (ua.sign ^ ub.sign));
    }

    /// Accumulates a single posit value (used to seed the EMAC with a bias).
    pub fn add_posit(&mut self, p: u32) {
        match decode(self.fmt, p) {
            Decoded::NaR => self.nar = true,
            Decoded::Zero => {}
            Decoded::Finite(u) => {
                let tz = u.sig.trailing_zeros() as i32;
                let pos = u.scale - 63 + tz + self.offset as i32;
                debug_assert!(pos >= 0, "posit values are multiples of minpos");
                self.acc
                    .add_shifted_u128((u.sig >> tz) as u128, pos as usize, u.sign);
            }
        }
    }

    /// Rounds the accumulated sum to the nearest posit (single rounding).
    pub fn to_posit(&self) -> u32 {
        if self.nar {
            return self.fmt.nar_bits();
        }
        if self.acc.is_zero() {
            return self.fmt.zero_bits();
        }
        let sign = self.acc.is_negative();
        let mag = self.acc.magnitude();
        let msb = mag.msb_index().expect("nonzero magnitude");
        let (sig, sticky) = mag.extract_window(msb);
        let scale = msb as i32 - self.offset as i32;
        encode(self.fmt, sign, scale, sig, sticky)
    }

    /// Approximate `f64` view of the accumulator (diagnostics).
    pub fn to_f64(&self) -> f64 {
        if self.nar {
            return f64::NAN;
        }
        self.acc.to_f64() * 2f64.powi(-(self.offset as i32))
    }

    /// Convenience: correctly rounded dot product `Σ xs[i]·ys[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(fmt: PositFormat, xs: &[u32], ys: &[u32]) -> u32 {
        assert_eq!(xs.len(), ys.len(), "dot product needs equal lengths");
        let mut q = Quire::new(fmt, xs.len() as u64);
        for (&x, &y) in xs.iter().zip(ys) {
            q.add_product(x, y);
        }
        q.to_posit()
    }
}

/// ⌈log2 k⌉ for k ≥ 1, at every `k`: `next_power_of_two` overflows past
/// 2^63.
fn ceil_log2(k: u64) -> usize {
    (64 - k.saturating_sub(1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{from_f64, to_f64};
    use crate::exact;

    fn fmt(n: u32, es: u32) -> PositFormat {
        PositFormat::new(n, es).unwrap()
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
        // Past 2^63 `next_power_of_two` would overflow.
        assert_eq!(ceil_log2(1 << 63), 63);
        assert_eq!(ceil_log2((1 << 63) + 1), 64);
        assert_eq!(ceil_log2(u64::MAX), 64);
    }

    #[test]
    fn paper_eq4_widths() {
        // Paper eq. (4): qsize = 2^(es+2)(n-2) + 2 + ceil(log2 k)
        assert_eq!(Quire::paper_width(fmt(8, 0), 1), 4 * 6 + 2);
        assert_eq!(Quire::paper_width(fmt(8, 1), 128), 8 * 6 + 2 + 7);
        assert_eq!(Quire::paper_width(fmt(16, 1), 16), 8 * 14 + 2 + 4);
        assert_eq!(Quire::paper_width(fmt(32, 2), 1024), 16 * 30 + 2 + 10);
    }

    #[test]
    fn simple_exact_sums() {
        let f = fmt(8, 0);
        let mut q = Quire::new(f, 8);
        let half = from_f64(f, 0.5);
        let quarter = from_f64(f, 0.25);
        q.add_product(half, half); // 0.25
        q.add_product(half, quarter); // 0.125
        q.add_product(quarter, quarter); // 0.0625
        assert_eq!(to_f64(f, q.to_posit()), 0.4375);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // (maxpos × 1) + (-maxpos × 1) + (minpos × 1) = minpos: a rounding
        // MAC loses the minpos; the quire must not.
        let f = fmt(8, 2);
        let one = f.one_bits();
        let mut q = Quire::new(f, 4);
        q.add_product(f.maxpos_bits(), one);
        q.sub_product(f.maxpos_bits(), one);
        q.add_product(f.minpos_bits(), one);
        assert_eq!(q.to_posit(), f.minpos_bits());
    }

    #[test]
    fn bias_seeding() {
        let f = fmt(8, 0);
        let mut q = Quire::new(f, 4);
        q.add_posit(from_f64(f, 2.0));
        q.add_product(from_f64(f, 1.0), from_f64(f, 1.0));
        assert_eq!(to_f64(f, q.to_posit()), 3.0);
    }

    #[test]
    fn nar_poisons_the_quire() {
        let f = fmt(8, 0);
        let mut q = Quire::new(f, 4);
        q.add_product(f.one_bits(), f.one_bits());
        q.add_product(f.nar_bits(), f.one_bits());
        assert!(q.is_nar());
        assert_eq!(q.to_posit(), f.nar_bits());
        q.clear();
        assert!(!q.is_nar());
        assert_eq!(q.to_posit(), 0);
    }

    #[test]
    fn zero_products_are_identity() {
        let f = fmt(8, 1);
        let mut q = Quire::new(f, 4);
        q.add_product(0, f.one_bits());
        q.add_product(f.one_bits(), 0);
        assert_eq!(q.to_posit(), 0);
    }

    #[test]
    fn matches_exact_oracle_on_random_dots() {
        // Independent check against the Dyadic oracle (different code path).
        let f = fmt(8, 1);
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1usize, 2, 3, 5, 8, 13] {
            for _ in 0..200 {
                let xs: Vec<u32> = (0..len).map(|_| (next() as u32) & 0xff).collect();
                let ys: Vec<u32> = (0..len).map(|_| (next() as u32) & 0xff).collect();
                if xs.iter().chain(&ys).any(|&b| b == f.nar_bits()) {
                    continue;
                }
                assert_eq!(
                    Quire::dot(f, &xs, &ys),
                    exact::exact_dot(f, &xs, &ys),
                    "xs={xs:?} ys={ys:?}"
                );
            }
        }
    }

    #[test]
    fn minpos_squared_accumulates() {
        let f = fmt(8, 2);
        let mut q = Quire::new(f, 2);
        q.add_product(f.minpos_bits(), f.minpos_bits());
        // 2^-48 is far below minpos = 2^-24; rounds up to minpos, not zero.
        assert_eq!(q.to_posit(), f.minpos_bits());
    }

    #[test]
    fn to_f64_diagnostic() {
        let f = fmt(8, 0);
        let mut q = Quire::new(f, 4);
        q.add_product(from_f64(f, 2.0), from_f64(f, 3.0));
        assert_eq!(q.to_f64(), 6.0);
        assert_eq!(q.count(), 1);
    }
}
