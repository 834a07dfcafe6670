//! The fixed-point EMAC (paper Fig. 3).

use crate::ceil_log2;
use crate::kernel::AlignedTile;
use crate::unit::{columns, Emac};
use crate::{MacKernel, UnsupportedFormat};
use dp_fixed::lut::DecodeLut;
use dp_fixed::FixedFormat;

/// Exact fixed-point multiply-and-accumulate.
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
/// word at every width, so rows, tiles and layers run the shared
/// aligned-integer kernel ([`MacKernel::Aligned`]) — fixed point's
/// "decode" is the sign extension, and it has no special patterns.
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
#[derive(Debug, Clone)]
pub struct FixedEmac {
    fmt: FixedFormat,
    capacity: u64,
    acc: i128,
    /// Sign-extension table for the format, when one exists (`n ≤ 12`).
    lut: Option<&'static DecodeLut>,
    /// Whether rows, tiles and layers run the aligned-integer kernel
    /// ([`MacKernel::Aligned`]; cleared only by a kernel cap).
    aligned: bool,
    count: u64,
    /// Decoded activation tile and weight row of the aligned band,
    /// retained across calls so a sweep does not allocate per row.
    tile: AlignedTile,
}

impl FixedEmac {
    /// Creates a unit for `fmt` sized for `capacity` accumulations. The
    /// accumulator is always a native `i128` (fixed point needs only
    /// `2n + ⌈log2 k⌉` bits, paper eq. 3); decode uses the `dp_fixed::lut`
    /// sign-extension table for formats up to 12 bits.
    ///
    /// # Panics
    ///
    /// Panics if the paper-eq.-(3) accumulator would exceed 127 bits
    /// (`2n + ⌈log2 k⌉ > 127`), which no paper-scale configuration hits.
    /// Use [`FixedEmac::try_new`] to validate without panicking.
    pub fn new(fmt: FixedFormat, capacity: u64) -> Self {
        Self::try_new(fmt, capacity).expect("fixed EMAC accumulator exceeds i128")
    }

    /// [`FixedEmac::new`] returning a typed error instead of panicking
    /// when the eq.-(3) register would exceed the unit's `i128` —
    /// admission-time validation for serving registries and other
    /// untrusted callers.
    ///
    /// # Errors
    ///
    /// [`UnsupportedFormat`] when `2n + ⌈log2 k⌉ > 127`.
    pub fn try_new(fmt: FixedFormat, capacity: u64) -> Result<Self, UnsupportedFormat> {
        let wa = Self::accumulator_width_for(fmt, capacity);
        if wa > 127 {
            return Err(UnsupportedFormat::new(format!(
                "{fmt}: eq.-(3) accumulator needs {wa} bits for k = {capacity}, \
                 exceeding the fixed EMAC's i128"
            )));
        }
        Ok(FixedEmac {
            fmt,
            capacity: capacity.max(1),
            acc: 0,
            lut: dp_fixed::lut::cached(fmt),
            aligned: true,
            count: 0,
            tile: AlignedTile::default(),
        })
    }

    /// Caps the slice-level kernel this unit may select — a bench/test
    /// knob for comparing kernels on one format; see
    /// [`crate::PositEmac::with_kernel_cap`] for the cap semantics. Fixed
    /// point has no fused-operand band, so any cap below
    /// [`MacKernel::Aligned`] selects the scalar `mac()` loop.
    pub fn with_kernel_cap(mut self, cap: MacKernel) -> Self {
        self.aligned = cap >= MacKernel::Aligned;
        self
    }

    /// The format of this unit.
    pub fn format(&self) -> FixedFormat {
        self.fmt
    }

    /// Paper eq. (3) accumulator width for `k` accumulations.
    pub fn accumulator_width_for(fmt: FixedFormat, k: u64) -> u32 {
        2 * fmt.n() + ceil_log2(k)
    }

    /// Sign-extends an `n`-bit pattern to `i64` (table-driven when the
    /// format has a `dp_fixed::lut` table).
    #[inline]
    fn sext(&self, bits: u32) -> i64 {
        match self.lut {
            Some(lut) => lut.decode(bits),
            None => {
                let n = self.fmt.n();
                let sh = 64 - n;
                (((bits as u64) << sh) as i64) >> sh
            }
        }
    }

    fn clip(&self, v: i128) -> i64 {
        v.clamp(self.fmt.min_raw() as i128, self.fmt.max_raw() as i128) as i64
    }

    /// The aligned band's sweep of `biases.len()` weight rows over one
    /// activation tile, sign-extended once: `out[j · rows + r]` receives
    /// row `r` against column `j`, and the unit is left in the last row's
    /// last column's state.
    fn aligned_sweep<'a>(
        &mut self,
        biases: &[u32],
        weights: &[u32],
        fan_in: usize,
        cols: impl Iterator<Item = &'a [u32]>,
        out: &mut [u32],
    ) {
        let rows = biases.len();
        debug_assert!(fan_in as u64 <= self.capacity, "fixed EMAC over capacity");
        let (word, width) = (aligned_word(self.fmt.n()), self.accumulator_width());
        let mut tile = std::mem::take(&mut self.tile);
        tile.load(cols, word);
        for (r, &bias) in biases.iter().enumerate() {
            self.set_bias(bias);
            let wrow = &weights[r * fan_in..(r + 1) * fan_in];
            tile.row(self.acc, width, wrow, word, |j, sum, _| {
                self.acc = sum;
                out[j * rows + r] = self.result();
            });
        }
        self.tile = tile;
    }
}

/// The aligned decode of an `n`-bit pattern: its sign extension in the
/// [`crate::table::align`] word layout, with the special flag always
/// clear.
fn aligned_word(n: u32) -> impl Fn(u32) -> i64 + Copy {
    let sh = 64 - n;
    move |bits| ((((bits as u64) << sh) as i64) >> sh) << 1
}

impl Emac for FixedEmac {
    fn reset(&mut self) {
        self.acc = 0;
        self.count = 0;
    }

    fn set_bias(&mut self, bias: u32) {
        self.reset();
        // The bias has q fraction bits; the accumulator carries 2q, so the
        // bias is pre-shifted left by q (Fig. 3 "Pad").
        self.acc = (self.sext(bias) as i128) << self.fmt.q();
    }

    fn mac(&mut self, weight: u32, activation: u32) {
        self.count += 1;
        debug_assert!(self.count <= self.capacity, "fixed EMAC over capacity");
        let w = self.sext(weight) as i128;
        let a = self.sext(activation) as i128;
        self.acc += w * a; // exact: 2n-bit product in a >= 2n + log2k register
    }

    fn dot_slice(&mut self, weights: &[u32], activations: &[u32]) {
        assert_eq!(
            weights.len(),
            activations.len(),
            "dot_slice: weight/activation length mismatch"
        );
        self.count += weights.len() as u64;
        debug_assert!(self.count <= self.capacity, "fixed EMAC over capacity");
        // One column of the aligned tile, seeded with the running
        // register.
        if self.aligned {
            let (word, width) = (aligned_word(self.fmt.n()), self.accumulator_width());
            self.tile.load(std::iter::once(activations), word);
            let acc = &mut self.acc;
            self.tile
                .row(*acc, width, weights, word, |_, sum, _| *acc = sum);
            return;
        }
        // Scalar kernel: the per-MAC i128 multiply.
        for (&w, &a) in weights.iter().zip(activations) {
            self.acc += self.sext(w) as i128 * self.sext(a) as i128;
        }
    }

    fn tile_body(&mut self, bias: u32, weights: &[u32], cols: &[&[u32]], out: &mut [u32]) -> bool {
        if self.aligned {
            self.aligned_sweep(&[bias], weights, weights.len(), cols.iter().copied(), out);
        }
        self.aligned
    }

    fn layer_body(
        &mut self,
        biases: &[u32],
        weights: &[u32],
        activations: &[u32],
        out: &mut [u32],
        (fan_in, batch): (usize, usize),
    ) -> bool {
        if self.aligned {
            let cols = columns(activations, fan_in, batch);
            self.aligned_sweep(biases, weights, fan_in, cols, out);
        }
        self.aligned
    }

    fn set_macs_done(&mut self, macs: u64) {
        self.count = macs;
    }

    fn kernel(&self) -> MacKernel {
        if self.aligned {
            MacKernel::Aligned
        } else {
            MacKernel::Scalar
        }
    }

    fn result(&self) -> u32 {
        // Fig. 3: shift right by q (arithmetic = truncation toward -inf),
        // then clip to n bits.
        let shifted = self.acc >> self.fmt.q();
        let clipped = self.clip(shifted);
        (clipped as u64 as u32) & mask(self.fmt.n())
    }

    fn macs_done(&self) -> u64 {
        self.count
    }

    fn pipeline_depth(&self) -> u32 {
        3 // multiply → accumulate → shift/clip (Fig. 3 register boundaries)
    }

    fn accumulator_width(&self) -> u32 {
        Self::accumulator_width_for(self.fmt, self.capacity)
    }
}

fn mask(n: u32) -> u32 {
    if n == 32 {
        u32::MAX
    } else {
        (1 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt(n: u32, q: u32) -> FixedFormat {
        FixedFormat::new(n, q).unwrap()
    }

    fn pat(f: FixedFormat, v: f64) -> u32 {
        (f.from_f64(v) as u64 as u32) & mask(f.n())
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
        assert_eq!(FixedEmac::accumulator_width_for(fmt(8, 4), 1), 16);
        assert_eq!(FixedEmac::accumulator_width_for(fmt(8, 4), 128), 23);
        assert_eq!(FixedEmac::accumulator_width_for(fmt(5, 2), 10), 14);
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
