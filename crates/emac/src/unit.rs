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
    /// run its tile-level [`TileKernel`] (decode or gather the weight row's
    /// operands once for every column). One row of [`Emac::dot_layer`].
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

    /// Whole-layer evaluation, the batch engine's and the serving chunk
    /// path's inner loop: `biases.len()` weight rows (`weights`,
    /// row-major) against a batch of activation columns (`activations`,
    /// flat, one sample after another). `out` is flat and sample-major
    /// too: `out[j · rows + r]` receives exactly what
    /// `set_bias(biases[r]); dot_slice(row r, column j); result()` would
    /// produce. The shapes follow from the slice lengths: `rows =
    /// biases.len()`, `K = weights.len() / rows`, `B = out.len() / rows`.
    ///
    /// Equivalent to one [`Emac::dot_tile`] per weight row, in row order —
    /// same outputs, same final state (the last row's last column) and
    /// [`Emac::macs_done`] left at `K × B` — which is the provided body;
    /// a unit whose band can decode the activation tile once for every
    /// row supplies [`Emac::layer_body`]. An empty batch (or a layer
    /// without rows) is a no-op.
    ///
    /// # Panics
    ///
    /// Panics when `weights` or `out` is not a whole number of rows, or
    /// `activations` is not `K × B` long.
    fn dot_layer(&mut self, biases: &[u32], weights: &[u32], activations: &[u32], out: &mut [u32]) {
        let rows = biases.len();
        if rows == 0 {
            assert!(
                weights.is_empty() && out.is_empty(),
                "dot_layer: weights or outputs without rows"
            );
            return;
        }
        let (fan_in, batch) = (weights.len() / rows, out.len() / rows);
        assert_eq!(
            weights.len(),
            fan_in * rows,
            "dot_layer: ragged weight rows"
        );
        assert_eq!(out.len(), batch * rows, "dot_layer: ragged output rows");
        assert_eq!(
            activations.len(),
            fan_in * batch,
            "dot_layer: activation/weight length mismatch"
        );
        if batch == 0 {
            return;
        }
        if self.layer_body(biases, weights, activations, out, (fan_in, batch)) {
            self.set_macs_done((fan_in * batch) as u64);
            return;
        }
        let cols: Vec<&[u32]> = columns(activations, fan_in, batch).collect();
        let mut row_out = vec![0u32; batch];
        for (r, &bias) in biases.iter().enumerate() {
            let wrow = &weights[r * fan_in..(r + 1) * fan_in];
            self.dot_tile(bias, wrow, &cols, &mut row_out);
            for (j, &bits) in row_out.iter().enumerate() {
                out[j * rows + r] = bits;
            }
        }
    }

    /// The unit's layer fast path for an already validated, non-empty
    /// layer of shape `(K, B)`: evaluates every row against every column
    /// (leaving the unit in the last row's last column's state) and
    /// returns `true`, or
    /// returns `false` untouched when the unit's band has none, in which
    /// case [`Emac::dot_layer`] sweeps [`Emac::dot_tile`] row by row.
    /// Call [`Emac::dot_layer`], not this.
    fn layer_body(
        &mut self,
        _biases: &[u32],
        _weights: &[u32],
        _activations: &[u32],
        _out: &mut [u32],
        _shape: (usize, usize),
    ) -> bool {
        false
    }

    /// Overwrites the [`Emac::macs_done`] counter — the `K × B`
    /// accounting hook of [`Emac::dot_tile`] and [`Emac::dot_layer`].
    fn set_macs_done(&mut self, macs: u64);

    /// The tile-level kernel [`Emac::dot_tile`] runs for a tile of
    /// `batch` activation columns: `B ≤ 1` wraps the row kernel, the
    /// aligned band decodes row and tile once each, the fused band gathers
    /// weight operands once, and the scalar band stays per-column (see
    /// [`TileKernel`]). Kernel caps step this down exactly as they step
    /// [`Emac::kernel`] down.
    fn tile_kernel(&self, batch: usize) -> TileKernel {
        if batch <= 1 {
            return TileKernel::PerColumn(self.kernel());
        }
        match self.kernel() {
            MacKernel::Aligned => TileKernel::AlignedTile,
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

    /// Accumulator register width in bits (paper eqs. 3–4; see each
    /// unit's documentation).
    fn accumulator_width(&self) -> u32;
}

/// The `batch` columns of `fan_in` activations each in a flat sample-major
/// buffer (`chunks_exact` would reject `fan_in = 0`).
pub(crate) fn columns(
    activations: &[u32],
    fan_in: usize,
    batch: usize,
) -> impl Iterator<Item = &[u32]> {
    (0..batch).map(move |j| &activations[j * fan_in..(j + 1) * fan_in])
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
    fn dot_layer(&mut self, biases: &[u32], weights: &[u32], activations: &[u32], out: &mut [u32]) {
        dispatch!(self, u => u.dot_layer(biases, weights, activations, out))
    }
    fn layer_body(
        &mut self,
        biases: &[u32],
        weights: &[u32],
        activations: &[u32],
        out: &mut [u32],
        shape: (usize, usize),
    ) -> bool {
        dispatch!(self, u => u.layer_body(biases, weights, activations, out, shape))
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
