//! The fixed-point EMAC (paper Fig. 3).

use crate::ceil_log2;
use crate::kernel::{PRODUCT_TILE_BLOCK, TILE_COL_GROUP};
use crate::unit::Emac;
use crate::{MacKernel, UnsupportedFormat};
use dp_fixed::lut::{DecodeLut, ProductLut};
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
    /// Finished-product table for `n ≤ 8` formats: sign extension *and*
    /// multiply collapse into one `2^(2n)`-entry lookup
    /// ([`MacKernel::ProductTable`]).
    product: Option<&'static ProductLut>,
    /// Whether [`Emac::dot_slice`] may run the unrolled partial-sum kernel
    /// (`n ≤ 16`, [`MacKernel::BatchedFused`]).
    batched: bool,
    count: u64,
    /// Sign-extended weight-row scratch for the gather tile, retained
    /// across [`Emac::dot_tile`] calls so a tile sweep over a layer does
    /// not allocate per weight row. Never semantic: cleared and refilled
    /// on each gather-tile call.
    gather: Vec<i64>,
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
            product: dp_fixed::lut::product_cached(fmt),
            batched: fmt.n() <= 16,
            count: 0,
            gather: Vec::new(),
        })
    }

    /// Caps the slice-level kernel this unit may select — a bench/test
    /// knob for comparing kernels on one format; see
    /// [`crate::PositEmac::with_kernel_cap`] for the cap semantics. The
    /// fixed unit's accumulator is always a native `i128`, so caps only
    /// change which loop shape [`Emac::dot_slice`] runs.
    pub fn with_kernel_cap(mut self, cap: MacKernel) -> Self {
        if cap < MacKernel::ProductTable {
            self.product = None;
        }
        if cap < MacKernel::BatchedFused {
            self.batched = false;
        }
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

    /// The batched loop body, monomorphized per sign-extension source.
    #[inline(always)]
    fn dot_direct<F: Fn(u32) -> i64>(
        sext: F,
        acc: &mut i128,
        weights: &[u32],
        activations: &[u32],
    ) {
        let mut wc = weights.chunks_exact(4);
        let mut ac = activations.chunks_exact(4);
        for (w4, a4) in (&mut wc).zip(&mut ac) {
            let mut partial = 0i64;
            for j in 0..4 {
                partial += sext(w4[j]) * sext(a4[j]);
            }
            *acc += partial as i128;
        }
        let mut partial = 0i64;
        for (&w, &a) in wc.remainder().iter().zip(ac.remainder()) {
            partial += sext(w) * sext(a);
        }
        *acc += partial as i128;
    }

    /// One column of the gather tile ([`crate::TileKernel::GatherFused`]):
    /// the 4-chunk partial-sum loop over a pre-sign-extended weight row,
    /// returning the seeded accumulator value. Exact integer adds
    /// commute, so the result is bit-identical to the per-column row
    /// kernel.
    #[inline(always)]
    fn tile_direct_col<F: Fn(u32) -> i64>(sext: F, seed: i128, wsext: &[i64], col: &[u32]) -> i128 {
        let mut acc = seed;
        let mut wc = wsext.chunks_exact(4);
        let mut ac = col.chunks_exact(4);
        for (w4, a4) in (&mut wc).zip(&mut ac) {
            let mut partial = 0i64;
            for j in 0..4 {
                partial += w4[j] * sext(a4[j]);
            }
            acc += partial as i128;
        }
        let mut partial = 0i64;
        for (&w, &a) in wc.remainder().iter().zip(ac.remainder()) {
            partial += w * sext(a);
        }
        acc += partial as i128;
        acc
    }

    /// One ≤ [`TILE_COL_GROUP`]-column group of the cache-blocked product
    /// tile body ([`crate::TileKernel::BlockedProduct`]): K tiled in
    /// [`PRODUCT_TILE_BLOCK`]-weight blocks so a block's `2^n`-entry table
    /// rows stay hot across the group. A full group runs the 4-wide
    /// micro-kernel — four independent i64 partials (|entry| < 2^14, so
    /// even a 32-entry block partial is nowhere near overflow) share each
    /// weight's hot table row; partial groups stream in pairs plus a
    /// single-column tail — folding into per-column i128 registers held
    /// in a fixed stack array (no heap traffic).
    #[inline(always)]
    fn tile_product_group(
        table: &'static ProductLut,
        seed: i128,
        weights: &[u32],
        cols: &[&[u32]],
        accs: &mut [i128; TILE_COL_GROUP],
    ) {
        let g = cols.len();
        debug_assert!(0 < g && g <= TILE_COL_GROUP);
        accs.fill(seed);
        for (kb, wblock) in weights.chunks(PRODUCT_TILE_BLOCK).enumerate() {
            let base = kb * PRODUCT_TILE_BLOCK;
            let end = base + wblock.len();
            if g == TILE_COL_GROUP {
                let [mut p0, mut p1, mut p2, mut p3] = [0i64; 4];
                let (c0, c1) = (&cols[0][base..end], &cols[1][base..end]);
                let (c2, c3) = (&cols[2][base..end], &cols[3][base..end]);
                for ((((&w, &a0), &a1), &a2), &a3) in wblock.iter().zip(c0).zip(c1).zip(c2).zip(c3)
                {
                    let row = table.row(w);
                    p0 += Self::row_product(row, a0);
                    p1 += Self::row_product(row, a1);
                    p2 += Self::row_product(row, a2);
                    p3 += Self::row_product(row, a3);
                }
                accs[0] += p0 as i128;
                accs[1] += p1 as i128;
                accs[2] += p2 as i128;
                accs[3] += p3 as i128;
                continue;
            }
            let mut j = 0;
            while j + 2 <= g {
                let (mut p0, mut p1) = (0i64, 0i64);
                let (c0, c1) = (&cols[j][base..end], &cols[j + 1][base..end]);
                for ((&w, &a0), &a1) in wblock.iter().zip(c0).zip(c1) {
                    let row = table.row(w);
                    p0 += Self::row_product(row, a0);
                    p1 += Self::row_product(row, a1);
                }
                accs[j] += p0 as i128;
                accs[j + 1] += p1 as i128;
                j += 2;
            }
            if j < g {
                let mut partial = 0i64;
                for (&w, &a) in wblock.iter().zip(&cols[j][base..end]) {
                    partial += Self::row_product(table.row(w), a);
                }
                accs[j] += partial as i128;
            }
        }
    }

    /// One product fetched from a weight's contiguous table row
    /// ([`ProductLut::row`]): the tile resolves the row base once per
    /// weight and shares it across the group's columns, so each step is
    /// a masked index with no weight shift and no bounds check (the row
    /// length is a power of two).
    #[inline(always)]
    fn row_product(row: &[i32], a: u32) -> i64 {
        row[(a as usize) & (row.len() - 1)] as i64
    }
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
        // Product-table kernel (n ≤ 8): finished signed products summed in
        // an i64 partial per 8-chunk (|entry| < 2^14, so a chunk partial
        // fits with room to spare), folded into the i128 register once.
        if let Some(table) = self.product {
            let mut wc = weights.chunks_exact(8);
            let mut ac = activations.chunks_exact(8);
            for (w8, a8) in (&mut wc).zip(&mut ac) {
                let mut partial = 0i64;
                for j in 0..8 {
                    partial += table.entry(w8[j], a8[j]);
                }
                self.acc += partial as i128;
            }
            let mut partial = 0i64;
            for (&w, &a) in wc.remainder().iter().zip(ac.remainder()) {
                partial += table.entry(w, a);
            }
            self.acc += partial as i128;
            return;
        }
        // Batched kernel (n ≤ 16): sign-extension products summed in an
        // i64 partial per 4-chunk (|product| < 2^30), one i128 fold per
        // chunk — monomorphized per decode source so the loop body is
        // plain word arithmetic the optimizer can unroll.
        if self.batched {
            let n = self.fmt.n();
            match self.lut {
                Some(lut) => {
                    Self::dot_direct(|b| lut.decode(b), &mut self.acc, weights, activations)
                }
                None => Self::dot_direct(
                    |b| {
                        let sh = 64 - n;
                        (((b as u64) << sh) as i64) >> sh
                    },
                    &mut self.acc,
                    weights,
                    activations,
                ),
            }
            return;
        }
        // Scalar kernel: wide formats loop the per-MAC i128 multiply.
        for (&w, &a) in weights.iter().zip(activations) {
            self.acc += self.sext(w) as i128 * self.sext(a) as i128;
        }
    }

    fn tile_body(&mut self, bias: u32, weights: &[u32], cols: &[&[u32]], out: &mut [u32]) -> bool {
        debug_assert!(
            weights.len() as u64 <= self.capacity,
            "fixed EMAC over capacity"
        );
        if self.product.is_none() && !self.batched {
            return false;
        }
        self.set_bias(bias);
        let seed = self.acc;
        // Product band cache-blocks the table; the batched band
        // sign-extends the weight row once. Same gates as `kernel()`.
        if let Some(table) = self.product {
            let mut accs = [0i128; TILE_COL_GROUP];
            for (cg, og) in cols
                .chunks(TILE_COL_GROUP)
                .zip(out.chunks_mut(TILE_COL_GROUP))
            {
                Self::tile_product_group(table, seed, weights, cg, &mut accs);
                for (acc, slot) in accs.iter().zip(og.iter_mut()) {
                    self.acc = *acc;
                    *slot = self.result();
                }
            }
        } else {
            let mut wsext = std::mem::take(&mut self.gather);
            wsext.clear();
            let n = self.fmt.n();
            let lut = self.lut;
            match lut {
                Some(l) => wsext.extend(weights.iter().map(|&p| l.decode(p))),
                None => {
                    let sh = 64 - n;
                    wsext.extend(weights.iter().map(|&p| (((p as u64) << sh) as i64) >> sh));
                }
            }
            for (col, slot) in cols.iter().zip(out.iter_mut()) {
                let acc = match lut {
                    Some(l) => Self::tile_direct_col(|p| l.decode(p), seed, &wsext, col),
                    None => {
                        let sh = 64 - n;
                        Self::tile_direct_col(
                            |p| (((p as u64) << sh) as i64) >> sh,
                            seed,
                            &wsext,
                            col,
                        )
                    }
                };
                self.acc = acc;
                *slot = self.result();
            }
            self.gather = wsext;
        }
        true
    }

    fn set_macs_done(&mut self, macs: u64) {
        self.count = macs;
    }

    fn kernel(&self) -> MacKernel {
        if self.product.is_some() {
            MacKernel::ProductTable
        } else if self.batched {
            MacKernel::BatchedFused
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
