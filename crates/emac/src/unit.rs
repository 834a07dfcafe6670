//! The [`Emac`] trait and the format-erased [`EmacUnit`].

use crate::{FixedEmac, FloatEmac, LayerPlan, MacKernel, PositEmac, Readout};

/// Common interface of the three exact multiply-and-accumulate units.
///
/// Values are raw bit patterns of the unit's numerical format. A unit is
/// used in three phases, mirroring the hardware control flow (paper §III-E):
/// seed with a bias, stream `k` MAC operations (one per cycle), read the
/// rounded result. [`Emac::dot_plan`] runs those phases for a whole layer
/// against a batch in one call, through the unit's one sweep, over weights
/// compiled once ([`Emac::compile`]).
pub trait Emac {
    /// Clears the accumulator to zero (and any NaR/NaN poison state).
    fn reset(&mut self);

    /// Resets the accumulator to the fixed-point image of `bias` — the
    /// paper's "the accumulator D flip-flop can be reset to the fixed-point
    /// representation of the bias" (§III-A).
    fn set_bias(&mut self, bias: u32);

    /// Accumulates the exact product `weight × activation`.
    fn mac(&mut self, weight: u32, activation: u32);

    /// The kernel this unit's sweeps run, fixed at construction by
    /// (format, capacity); see [`MacKernel`].
    fn kernel(&self) -> MacKernel;

    /// Whole-layer evaluation, the batch engine's and the serving chunk
    /// path's inner loop (and, at a batch of one, the per-sample path's):
    /// `biases.len()` weight rows (`weights`, row-major) against a batch
    /// of activation columns (`acts`, flat, one sample after another).
    /// `out` is flat and sample-major too: `out[j · rows + r]` receives
    /// exactly what `set_bias(biases[r])`, one [`Emac::mac`] per (weight of
    /// row `r`, operand of column `j`), then `result()` would produce. The
    /// shapes follow from the slice lengths: `rows = biases.len()`, `K =
    /// weights.len() / rows`, `B = out.len() / rows`.
    ///
    /// Activations and outputs are each patterns (`u32`) or operand words
    /// (`i64`, [`crate::table::align`] of the decoded pattern; see
    /// [`Readout`]) — words only on a unit that
    /// [`crate::TableEmac::takes_words`]. A word output is exactly the word
    /// of the pattern output.
    ///
    /// Leaves the unit in the state of the last row's last column, with
    /// [`Emac::macs_done`] at `K × B` (the per-output `set_bias` of the
    /// definition resets the counter, so the sweep counts the whole
    /// `K × B` instead of only its last output). An empty batch (or a
    /// layer without rows) is a no-op.
    ///
    /// An aligned-band unit compiles the layer for the call; a layer swept
    /// more than once is compiled once ([`Emac::compile`], [`Emac::dot_plan`]).
    ///
    /// # Panics
    ///
    /// Panics when `weights` or `out` is not a whole number of rows, `acts`
    /// is not `K × B` long, or `K` exceeds the unit's capacity.
    fn dot_layer<A: Readout, O: Readout>(
        &mut self,
        biases: &[u32],
        weights: &[u32],
        acts: &[A],
        out: &mut [O],
    ) {
        self.dot_plan(None, biases, weights, acts, out);
    }

    /// The layer of `biases` and row-major `weights` compiled for the
    /// aligned sweep ([`LayerPlan`]), or `None` on the scalar band, which
    /// reads patterns. It depends on the format only: any aligned unit of
    /// the format may run it.
    fn compile(&self, biases: &[u32], weights: &[u32]) -> Option<LayerPlan>;

    /// [`Emac::dot_layer`] over `plan`, compiled from these `biases` and
    /// `weights` in this unit's format: an aligned-band unit reads its
    /// weights from it (or compiles one for the call when `None`), a
    /// scalar-band unit reads the patterns.
    ///
    /// # Panics
    ///
    /// As [`Emac::dot_layer`], and when `plan` has another shape.
    fn dot_plan<A: Readout, O: Readout>(
        &mut self,
        plan: Option<&LayerPlan>,
        biases: &[u32],
        weights: &[u32],
        acts: &[A],
        out: &mut [O],
    );

    /// One row of [`Emac::dot_layer`] over borrowed pattern columns:
    /// `out[j]` receives row `weights` under `bias` against `cols[j]`, with
    /// the same final state and `K × B` accounting. An empty `cols` is a
    /// no-op. Compiles the row for the call. Kept for callers that time one
    /// row at a time.
    ///
    /// # Panics
    ///
    /// Panics when `cols` and `out` differ in length, any column's length
    /// differs from `weights.len()`, or `K` exceeds the unit's capacity.
    #[doc(hidden)]
    fn dot_tile(&mut self, bias: u32, weights: &[u32], cols: &[&[u32]], out: &mut [u32]);

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
    fn compile(&self, biases: &[u32], weights: &[u32]) -> Option<LayerPlan> {
        dispatch!(self, u => u.compile(biases, weights))
    }
    fn dot_plan<A: Readout, O: Readout>(
        &mut self,
        plan: Option<&LayerPlan>,
        biases: &[u32],
        weights: &[u32],
        acts: &[A],
        out: &mut [O],
    ) {
        dispatch!(self, u => u.dot_plan(plan, biases, weights, acts, out))
    }
    fn dot_tile(&mut self, bias: u32, weights: &[u32], cols: &[&[u32]], out: &mut [u32]) {
        dispatch!(self, u => u.dot_tile(bias, weights, cols, out))
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
