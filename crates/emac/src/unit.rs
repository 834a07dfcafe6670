//! The [`Emac`] trait and the format-erased [`EmacUnit`].

use crate::{FixedEmac, FloatEmac, MacKernel, PositEmac, TileKernel};

/// Common interface of the three exact multiply-and-accumulate units.
///
/// Values are raw bit patterns of the unit's numerical format. A unit is
/// used in three phases, mirroring the hardware control flow (paper §III-E):
/// seed with a bias, stream `k` MAC operations (one per cycle), read the
/// rounded result.
pub trait Emac {
    /// Clears the accumulator to zero (and any NaR/NaN poison state).
    fn reset(&mut self);

    /// Resets the accumulator to the fixed-point image of `bias` — the
    /// paper's "the accumulator D flip-flop can be reset to the fixed-point
    /// representation of the bias" (§III-A).
    fn set_bias(&mut self, bias: u32);

    /// Accumulates the exact product `weight × activation`.
    fn mac(&mut self, weight: u32, activation: u32);

    /// Accumulates one whole dot-product row: exactly equivalent to
    /// calling [`Emac::mac`] once per `(weights[i], activations[i])` pair
    /// (bit-identical result, [`Emac::macs_done`] advanced by the slice
    /// length), but dispatched once so the unit can run its slice-level
    /// [`MacKernel`] — the batch engine's and serving path's inner loop.
    ///
    /// # Panics
    ///
    /// Panics when the slices differ in length.
    fn dot_slice(&mut self, weights: &[u32], activations: &[u32]) {
        assert_eq!(
            weights.len(),
            activations.len(),
            "dot_slice: weight/activation length mismatch"
        );
        for (&w, &a) in weights.iter().zip(activations) {
            self.mac(w, a);
        }
    }

    /// The slice-level kernel this unit selected at construction (fixed
    /// per format band × accumulator window; see [`MacKernel`]).
    fn kernel(&self) -> MacKernel {
        MacKernel::Scalar
    }

    /// Weight-stationary tile evaluation: for each activation column
    /// `cols[j]`, `out[j]` receives exactly what
    /// `set_bias(bias); dot_slice(weights, cols[j]); result()` would
    /// produce — bit-identical per column, dispatched once so the unit can
    /// run its tile-level [`TileKernel`] (gather the weight row's fused
    /// operands once for every column, or cache-block the finished-product
    /// table across the batch). The batch engine's and the serving chunk
    /// path's inner loop.
    ///
    /// Bookkeeping contract: a non-empty tile leaves [`Emac::macs_done`]
    /// at exactly `weights.len() × cols.len()` (the per-column `set_bias`
    /// of the reference expansion resets the counter, so the tile counts
    /// the whole `K × B` sweep instead of only its last column), and the
    /// accumulator/poison state equals that after evaluating the **last**
    /// column. An empty `cols` is a no-op.
    ///
    /// Units supply only [`Emac::tile_body`]; the shape checks, the empty
    /// and `B == 1` cases, the per-column baseline and the accounting are
    /// this provided body's.
    ///
    /// # Panics
    ///
    /// Panics when `cols` and `out` differ in length or any column's
    /// length differs from `weights.len()`.
    fn dot_tile(&mut self, bias: u32, weights: &[u32], cols: &[&[u32]], out: &mut [u32]) {
        assert_eq!(
            cols.len(),
            out.len(),
            "dot_tile: column/output length mismatch"
        );
        for col in cols {
            assert_eq!(
                col.len(),
                weights.len(),
                "dot_tile: column/weight length mismatch"
            );
        }
        if cols.is_empty() {
            return;
        }
        // Per-column baseline: B == 1 keeps the row kernels, the scalar
        // band stays the differential reference at any width.
        if cols.len() < 2 || !self.tile_body(bias, weights, cols, out) {
            for (col, slot) in cols.iter().zip(out.iter_mut()) {
                self.set_bias(bias);
                self.dot_slice(weights, col);
                *slot = self.result();
            }
        }
        self.set_macs_done((weights.len() * cols.len()) as u64);
    }

    /// The unit's tile fast path for an already validated tile of
    /// `B ≥ 2` columns: evaluates every column (leaving the unit in the
    /// last column's state) and returns `true`, or returns `false`
    /// untouched when the unit's band has none (the scalar band), in
    /// which case [`Emac::dot_tile`] runs the per-column baseline. Call
    /// [`Emac::dot_tile`], not this.
    fn tile_body(
        &mut self,
        _bias: u32,
        _weights: &[u32],
        _cols: &[&[u32]],
        _out: &mut [u32],
    ) -> bool {
        false
    }

    /// Overwrites the [`Emac::macs_done`] counter — [`Emac::dot_tile`]'s
    /// `K × B` accounting hook.
    fn set_macs_done(&mut self, macs: u64);

    /// The tile-level kernel [`Emac::dot_tile`] runs for a tile of
    /// `batch` activation columns: `B ≤ 1` wraps the row kernel, the
    /// product band cache-blocks its table, the fused band gathers weight
    /// operands once, and the scalar band stays per-column (see
    /// [`TileKernel`]). Kernel caps step this down exactly as they step
    /// [`Emac::kernel`] down.
    fn tile_kernel(&self, batch: usize) -> TileKernel {
        if batch <= 1 {
            return TileKernel::PerColumn(self.kernel());
        }
        match self.kernel() {
            MacKernel::ProductTable => TileKernel::BlockedProduct,
            MacKernel::BatchedFused => TileKernel::GatherFused,
            MacKernel::Scalar => TileKernel::PerColumn(MacKernel::Scalar),
        }
    }

    /// Rounds the accumulated sum once and returns its bit pattern.
    fn result(&self) -> u32;

    /// Number of MACs since the last reset.
    fn macs_done(&self) -> u64;

    /// Pipeline depth in cycles (decode/multiply → accumulate → round
    /// stages), used by the streaming latency model.
    fn pipeline_depth(&self) -> u32;

    /// Accumulator register width in bits (paper eqs. 3–4 plus the
    /// fraction tail; see each unit's documentation).
    fn accumulator_width(&self) -> u32;
}

/// A format-erased EMAC, letting the DNN engine hold heterogeneous layers.
#[derive(Debug, Clone)]
pub enum EmacUnit {
    /// Fixed-point unit (paper Fig. 3).
    Fixed(FixedEmac),
    /// Floating-point unit (paper Fig. 4).
    Float(FloatEmac),
    /// Posit unit (paper Fig. 5).
    Posit(PositEmac),
}

macro_rules! dispatch {
    ($self:ident, $u:ident => $body:expr) => {
        match $self {
            EmacUnit::Fixed($u) => $body,
            EmacUnit::Float($u) => $body,
            EmacUnit::Posit($u) => $body,
        }
    };
}

impl Emac for EmacUnit {
    fn reset(&mut self) {
        dispatch!(self, u => u.reset())
    }
    fn set_bias(&mut self, bias: u32) {
        dispatch!(self, u => u.set_bias(bias))
    }
    fn mac(&mut self, weight: u32, activation: u32) {
        dispatch!(self, u => u.mac(weight, activation))
    }
    fn dot_slice(&mut self, weights: &[u32], activations: &[u32]) {
        dispatch!(self, u => u.dot_slice(weights, activations))
    }
    fn kernel(&self) -> MacKernel {
        dispatch!(self, u => u.kernel())
    }
    fn dot_tile(&mut self, bias: u32, weights: &[u32], cols: &[&[u32]], out: &mut [u32]) {
        dispatch!(self, u => u.dot_tile(bias, weights, cols, out))
    }
    fn tile_body(&mut self, bias: u32, weights: &[u32], cols: &[&[u32]], out: &mut [u32]) -> bool {
        dispatch!(self, u => u.tile_body(bias, weights, cols, out))
    }
    fn set_macs_done(&mut self, macs: u64) {
        dispatch!(self, u => u.set_macs_done(macs))
    }
    fn tile_kernel(&self, batch: usize) -> TileKernel {
        dispatch!(self, u => u.tile_kernel(batch))
    }
    fn result(&self) -> u32 {
        dispatch!(self, u => u.result())
    }
    fn macs_done(&self) -> u64 {
        dispatch!(self, u => u.macs_done())
    }
    fn pipeline_depth(&self) -> u32 {
        dispatch!(self, u => u.pipeline_depth())
    }
    fn accumulator_width(&self) -> u32 {
        dispatch!(self, u => u.accumulator_width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_fixed::FixedFormat;
    use dp_minifloat::FloatFormat;
    use dp_posit::PositFormat;

    #[test]
    fn dispatch_works_for_all_variants() {
        let mut units = [
            EmacUnit::Fixed(FixedEmac::new(FixedFormat::new(8, 4).unwrap(), 8)),
            EmacUnit::Float(FloatEmac::new(FloatFormat::new(4, 3).unwrap(), 8)),
            EmacUnit::Posit(PositEmac::new(PositFormat::new(8, 0).unwrap(), 8)),
        ];
        for u in &mut units {
            u.reset();
            assert_eq!(u.macs_done(), 0);
            assert!(u.pipeline_depth() >= 3);
            assert!(u.accumulator_width() > 16);
        }
    }
}
