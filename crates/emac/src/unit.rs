//! The [`Emac`] trait and the format-erased [`EmacUnit`].

use crate::{FixedEmac, FloatEmac, MacKernel, PositEmac, Readout};

/// Common interface of the three exact multiply-and-accumulate units.
///
/// Values are raw bit patterns of the unit's numerical format. A unit is
/// used in three phases, mirroring the hardware control flow (paper §III-E):
/// seed with a bias, stream `k` MAC operations (one per cycle), read the
/// rounded result. [`Emac::dot_tile`] and [`Emac::dot_layer`] run those
/// phases for a whole layer against a batch in one call; they validate
/// shapes and account, and evaluate through the one hook a unit may
/// supply, [`Emac::sweep`].
pub trait Emac {
    /// Clears the accumulator to zero (and any NaR/NaN poison state).
    fn reset(&mut self);

    /// Resets the accumulator to the fixed-point image of `bias` — the
    /// paper's "the accumulator D flip-flop can be reset to the fixed-point
    /// representation of the bias" (§III-A).
    fn set_bias(&mut self, bias: u32);

    /// Accumulates the exact product `weight × activation`.
    fn mac(&mut self, weight: u32, activation: u32);

    /// Accumulates one whole dot-product row onto the running register:
    /// [`Emac::mac`] once per `(weights[i], activations[i])` pair. With
    /// [`Emac::set_bias`] before and [`Emac::result`] after, this is the
    /// *definition* every output of [`Emac::dot_tile`] and
    /// [`Emac::dot_layer`] is pinned against; no unit overrides it.
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

    /// The kernel this unit's sweeps run, fixed at construction by
    /// (format, capacity); see [`MacKernel`].
    fn kernel(&self) -> MacKernel {
        MacKernel::Scalar
    }

    /// Weight-stationary tile evaluation, one row of [`Emac::dot_layer`]
    /// over borrowed columns: for each activation column `cols[j]`,
    /// `out[j]` receives exactly what
    /// `set_bias(bias); dot_slice(weights, cols[j]); result()` would
    /// produce — bit-identical per column, in one dispatch.
    ///
    /// Bookkeeping contract: a non-empty tile leaves [`Emac::macs_done`]
    /// at exactly `weights.len() × cols.len()` (the per-column `set_bias`
    /// of the reference expansion resets the counter, so the tile counts
    /// the whole `K × B` sweep instead of only its last column), and the
    /// accumulator/poison state equals that after evaluating the **last**
    /// column. An empty `cols` is a no-op.
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
        self.sweep(&[bias], weights, weights.len(), cols.iter().copied(), out);
        self.set_macs_done((weights.len() * cols.len()) as u64);
    }

    /// Whole-layer evaluation, the batch engine's and the serving chunk
    /// path's inner loop (and, at a batch of one, the per-sample path's):
    /// `biases.len()` weight rows (`weights`, row-major) against a batch
    /// of activation columns (`activations`, flat, one sample after
    /// another). `out` is flat and sample-major too: `out[j · rows + r]`
    /// receives exactly what
    /// `set_bias(biases[r]); dot_slice(row r, column j); result()` would
    /// produce. The shapes follow from the slice lengths: `rows =
    /// biases.len()`, `K = weights.len() / rows`, `B = out.len() / rows`.
    ///
    /// Equivalent to one [`Emac::dot_tile`] per weight row, in row order —
    /// same outputs, same final state (the last row's last column) and
    /// [`Emac::macs_done`] left at `K × B`. An empty batch (or a layer
    /// without rows) is a no-op.
    ///
    /// # Panics
    ///
    /// Panics when `weights` or `out` is not a whole number of rows, or
    /// `activations` is not `K × B` long.
    fn dot_layer(&mut self, biases: &[u32], weights: &[u32], activations: &[u32], out: &mut [u32]) {
        let lens = (weights.len(), activations.len(), out.len());
        let Some((fan_in, batch)) = layer_shape(biases.len(), lens.0, lens.1, lens.2) else {
            return;
        };
        // `chunks_exact` would reject `fan_in = 0`.
        let cols = (0..batch).map(|j| &activations[j * fan_in..(j + 1) * fan_in]);
        self.sweep(biases, weights, fan_in, cols, out);
        self.set_macs_done((fan_in * batch) as u64);
    }

    /// The one evaluation hook under [`Emac::dot_tile`] and
    /// [`Emac::dot_layer`], for an already validated, non-empty shape:
    /// `biases.len()` rows of `fan_in` weights against the columns `cols`
    /// yields (each `fan_in` long), `out[j · rows + r]` receiving row `r`
    /// against column `j`, and the unit left in the last row's last
    /// column's state. The provided body is the definition — `set_bias`,
    /// `mac` × K, `result` per output, columns outermost; a unit whose
    /// band can decode the operands once supplies its own. Call the two
    /// fronts, not this.
    fn sweep<'a>(
        &mut self,
        biases: &[u32],
        weights: &[u32],
        fan_in: usize,
        cols: impl Iterator<Item = &'a [u32]>,
        out: &mut [u32],
    ) {
        per_mac_sweep(self, biases, weights, fan_in, cols, out);
    }

    /// Overwrites the [`Emac::macs_done`] counter — the `K × B`
    /// accounting hook of [`Emac::dot_tile`] and [`Emac::dot_layer`].
    fn set_macs_done(&mut self, macs: u64);

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

/// `(fan_in, batch)` of a layer of `rows` rows given the lengths of its
/// weights, activations and outputs, or `None` when there is nothing to
/// evaluate (no rows, or an empty batch).
///
/// # Panics
///
/// Panics on a ragged shape, with [`Emac::dot_layer`]'s messages.
pub(crate) fn layer_shape(
    rows: usize,
    weights: usize,
    activations: usize,
    out: usize,
) -> Option<(usize, usize)> {
    if rows == 0 {
        assert!(
            weights == 0 && out == 0,
            "dot_layer: weights or outputs without rows"
        );
        return None;
    }
    let (fan_in, batch) = (weights / rows, out / rows);
    assert_eq!(weights, fan_in * rows, "dot_layer: ragged weight rows");
    assert_eq!(out, batch * rows, "dot_layer: ragged output rows");
    assert_eq!(
        activations,
        fan_in * batch,
        "dot_layer: activation/weight length mismatch"
    );
    (batch > 0).then_some((fan_in, batch))
}

/// [`Emac::sweep`]'s provided body, callable from an overriding unit for
/// the shapes its own band does not cover.
pub(crate) fn per_mac_sweep<'a, E: Emac + ?Sized>(
    unit: &mut E,
    biases: &[u32],
    weights: &[u32],
    fan_in: usize,
    cols: impl Iterator<Item = &'a [u32]>,
    out: &mut [u32],
) {
    let rows = biases.len();
    for (col, outs) in cols.zip(out.chunks_exact_mut(rows)) {
        for (r, (&bias, slot)) in biases.iter().zip(outs).enumerate() {
            unit.set_bias(bias);
            unit.dot_slice(&weights[r * fan_in..(r + 1) * fan_in], col);
            *slot = unit.result();
        }
    }
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

/// The word path of the unit inside ([`crate::TableEmac`]'s methods of the
/// same names).
impl EmacUnit {
    /// [`crate::TableEmac::takes_words`].
    pub fn takes_words(&self) -> bool {
        dispatch!(self, u => u.takes_words())
    }

    /// [`crate::TableEmac::rounds_by_table`].
    pub fn rounds_by_table(&self) -> bool {
        dispatch!(self, u => u.rounds_by_table())
    }

    /// [`crate::TableEmac::quantize_words`].
    pub fn quantize_words(&self, xs: &[f32], out: &mut Vec<i64>) {
        dispatch!(self, u => u.quantize_words(xs, out))
    }

    /// [`crate::TableEmac::dot_layer_words`].
    pub fn dot_layer_words<O: Readout>(
        &mut self,
        biases: &[u32],
        weights: &[u32],
        acts: &[i64],
        out: &mut [O],
    ) {
        dispatch!(self, u => u.dot_layer_words(biases, weights, acts, out))
    }
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
    fn kernel(&self) -> MacKernel {
        dispatch!(self, u => u.kernel())
    }
    fn sweep<'a>(
        &mut self,
        biases: &[u32],
        weights: &[u32],
        fan_in: usize,
        cols: impl Iterator<Item = &'a [u32]>,
        out: &mut [u32],
    ) {
        dispatch!(self, u => u.sweep(biases, weights, fan_in, cols, out))
    }
    fn set_macs_done(&mut self, macs: u64) {
        dispatch!(self, u => u.set_macs_done(macs))
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
