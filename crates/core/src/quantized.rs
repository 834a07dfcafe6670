//! Quantized Deep Positron inference through EMAC units.
//!
//! A trained 32-bit float [`Mlp`] is quantized per format: weights and
//! biases become bit patterns, and each neuron evaluates
//! `round(bias + Σ wᵢ·aᵢ)` on an exact multiply-and-accumulate unit —
//! precisely the computation of the paper's per-layer EMAC arrays (Fig. 1).
//! An *inexact* per-op rounding path is also provided, for the ablation
//! quantifying how much the EMAC's delayed rounding matters (paper §III-A).
//!
//! ## Batch engine
//!
//! Weights are stored as one contiguous row-major pattern array per layer,
//! beside which the layer keeps itself compiled for the aligned sweep
//! ([`dp_emac::LayerPlan`]: decoded once per model, as paper Fig. 1's
//! weight-stationary arrays load their weights once). Every EMAC entry
//! point is a thin wrapper around one forward pass,
//! [`QuantizedMlp::forward_into`]: `batch` samples (one flat sample-major
//! `f32` slice) through one [`dp_emac::Emac::dot_layer`]-shaped sweep per
//! layer on caller-owned EMACs, the readout patterns written to a
//! caller-owned slice; the entry points that take a slice of rows run the
//! same pass on their rows as they lie. The dataset-scale entry points
//! ([`QuantizedMlp::forward_batch`], [`QuantizedMlp::infer_batch`],
//! [`QuantizedMlp::accuracy`]) build the per-layer EMAC array once and run
//! the whole slice as one such pass on the calling thread, bit-identical
//! to per-sample [`QuantizedMlp::forward_bits`] (the tile contract).
//! Spreading batches over threads is the `dp_serve` crate's job; its pool
//! workers call these same methods per chunk.
//!
//! ## Patterns at the edges only
//!
//! In paper Fig. 1 each EMAC's output register feeds the next layer; the
//! decode stage exists because posit bits arrive from memory, which in
//! software happens only at the edges. A model advances by one step,
//! `QuantizedMlp::layer`: one [`dp_emac::Emac::dot_plan`], then ReLU on
//! hidden layers, generic over what moves between layers. When a format's
//! operands align ([`dp_emac::TableEmac::takes_words`]) that is the
//! **operand word** — the rounded value in the format's operand unit,
//! shifted over a poison flag ([`dp_emac::table::align`]): layer 0
//! quantises `f32` straight to words, every hidden layer rounds its sums
//! straight to the next layer's words (ReLU is then `max(0, w)`, which
//! leaves a poisoned word, `1`, poisoned), and only the readout encodes
//! patterns. Each word is `align(decode(·))` of the pattern the pattern
//! path would have produced, so the readout is the same bit for bit.
//! Formats whose operands do not align (posit⟨16,2⟩, minifloats and posits
//! past 16 bits) take the same step over patterns, as do `new_reference()`
//! units and the streaming simulator, whose hardware model moves bits.

use crate::format::NumericFormat;
use crate::mlp::Mlp;
use dp_datasets::Dataset;
use dp_emac::{Emac, EmacUnit, LayerPlan};
use std::sync::OnceLock;

/// What moves between layers, patterns (`u32`) or operand words (`i64`;
/// see the module docs): how it is quantised from `f32` and rectified.
pub(crate) trait Activation: dp_emac::Readout + Default {
    /// Appends `xs` quantised to `out`.
    fn quantize(format: &NumericFormat, unit: &EmacUnit, xs: &[f32], out: &mut Vec<Self>);
    /// ReLU in place.
    fn relu(format: &NumericFormat, acts: &mut [Self]);
}

impl Activation for u32 {
    fn quantize(format: &NumericFormat, _: &EmacUnit, xs: &[f32], out: &mut Vec<u32>) {
        format.quantize_into(xs, out);
    }

    fn relu(format: &NumericFormat, acts: &mut [u32]) {
        format.relu_in_place(acts);
    }
}

impl Activation for i64 {
    fn quantize(_: &NumericFormat, unit: &EmacUnit, xs: &[f32], out: &mut Vec<i64>) {
        unit.quantize_words(xs, out);
    }

    fn relu(_: &NumericFormat, acts: &mut [i64]) {
        for word in acts {
            *word = (*word).max(0);
        }
    }
}

/// One quantized dense layer: contiguous row-major weight patterns plus
/// per-neuron biases, and the layer compiled for the aligned sweep
/// ([`LayerPlan`]) once a forward pass or [`QuantizedMlp::compile`] has
/// asked for it. Equality compares the patterns only.
#[derive(Debug, Clone)]
pub struct QuantizedLayer {
    fan_in: usize,
    fan_out: usize,
    /// Row-major `fan_out × fan_in` weight patterns (neuron `j`'s weights
    /// occupy `weights[j*fan_in .. (j+1)*fan_in]`).
    weights: Vec<u32>,
    /// Per-neuron bias patterns.
    biases: Vec<u32>,
    /// The plan of the patterns above, under the format it was compiled
    /// for (`None`: the format has no aligned sweep). Filled on first use,
    /// dropped by every `&mut` accessor.
    plan: OnceLock<(NumericFormat, Option<LayerPlan>)>,
}

impl PartialEq for QuantizedLayer {
    fn eq(&self, other: &Self) -> bool {
        (self.fan_in, self.fan_out, &self.weights, &self.biases)
            == (other.fan_in, other.fan_out, &other.weights, &other.biases)
    }
}

impl Eq for QuantizedLayer {}

impl QuantizedLayer {
    /// Builds a layer from a contiguous row-major weight array.
    ///
    /// # Panics
    ///
    /// Panics unless `weights.len() == fan_in × fan_out` and
    /// `biases.len() == fan_out`.
    pub fn new(fan_in: usize, fan_out: usize, weights: Vec<u32>, biases: Vec<u32>) -> Self {
        assert_eq!(weights.len(), fan_in * fan_out, "weight array shape");
        assert_eq!(biases.len(), fan_out, "bias array shape");
        QuantizedLayer {
            fan_in,
            fan_out,
            weights,
            biases,
            plan: OnceLock::new(),
        }
    }

    /// Builds a layer from per-neuron weight rows (all rows must share one
    /// length).
    ///
    /// # Panics
    ///
    /// Panics on ragged rows or a bias/row-count mismatch.
    pub fn from_rows(rows: &[Vec<u32>], biases: Vec<u32>) -> Self {
        let fan_out = rows.len();
        let fan_in = rows.first().map_or(0, |r| r.len());
        let mut weights = Vec::with_capacity(fan_in * fan_out);
        for row in rows {
            assert_eq!(row.len(), fan_in, "ragged weight rows");
            weights.extend_from_slice(row);
        }
        Self::new(fan_in, fan_out, weights, biases)
    }

    /// Fan-in of the layer.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Fan-out (neuron count).
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// The contiguous row-major weight patterns.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Neuron `j`'s weight row.
    ///
    /// # Panics
    ///
    /// Panics if `j >= fan_out`.
    pub fn weight_row(&self, j: usize) -> &[u32] {
        &self.weights[j * self.fan_in..(j + 1) * self.fan_in]
    }

    /// Iterator over the per-neuron weight rows (always exactly
    /// [`QuantizedLayer::fan_out`] of them, even in the degenerate
    /// `fan_in == 0` case).
    pub fn weight_rows(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.fan_out).map(|j| self.weight_row(j))
    }

    /// Per-neuron bias patterns.
    pub fn biases(&self) -> &[u32] {
        &self.biases
    }

    /// Mutable view of neuron `j`'s weight row (weight surgery, fault
    /// injection). Drops the layer's plan.
    ///
    /// # Panics
    ///
    /// Panics if `j >= fan_out`.
    pub fn weight_row_mut(&mut self, j: usize) -> &mut [u32] {
        self.plan.take();
        &mut self.weights[j * self.fan_in..(j + 1) * self.fan_in]
    }

    /// Mutable view of the bias patterns. Drops the layer's plan.
    pub fn biases_mut(&mut self) -> &mut [u32] {
        self.plan.take();
        &mut self.biases
    }

    /// The layer compiled for `format`'s aligned sweep: built from the
    /// format — by a unit of its own, never by whichever unit runs first —
    /// the first time it is asked for and kept. `None` when the format has
    /// no aligned sweep, or when the layer keeps a plan for another format
    /// (a changed [`QuantizedMlp::format`]): an aligned unit then compiles
    /// the layer for its call.
    fn plan(&self, format: &NumericFormat) -> Option<&LayerPlan> {
        let (compiled_for, plan) = self.plan.get_or_init(|| {
            let unit = format.try_make_emac(self.fan_in as u64).ok().flatten();
            let plan = unit.and_then(|u| u.compile(&self.biases, &self.weights));
            (*format, plan)
        });
        plan.as_ref().filter(|_| compiled_for == format)
    }
}

/// A quantized MLP bound to a [`NumericFormat`].
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    /// The inference format.
    pub format: NumericFormat,
    /// Quantized layers, input to output.
    pub layers: Vec<QuantizedLayer>,
}

impl QuantizedMlp {
    /// Quantizes a trained float network into `format`.
    pub fn quantize(mlp: &Mlp, format: NumericFormat) -> Self {
        let layers = mlp
            .layers
            .iter()
            .map(|l| {
                let (fan_in, fan_out) = (l.fan_in(), l.fan_out());
                let mut weights = Vec::with_capacity(fan_in * fan_out);
                for j in 0..fan_out {
                    format.quantize_into(l.w.row(j), &mut weights);
                }
                let mut biases = Vec::with_capacity(fan_out);
                format.quantize_into(&l.b, &mut biases);
                QuantizedLayer::new(fan_in, fan_out, weights, biases)
            })
            .collect();
        QuantizedMlp { format, layers }
    }

    /// Quantizes an input feature vector.
    pub fn quantize_input(&self, x: &[f32]) -> Vec<u32> {
        let mut bits = Vec::with_capacity(x.len());
        self.format.quantize_into(x, &mut bits);
        bits
    }

    /// One EMAC per layer, sized for that layer's fan-in, or `None` for
    /// the `F32` baseline. Batch callers build this once and reuse it
    /// across samples.
    ///
    /// # Panics
    ///
    /// Panics when the format has no EMAC datapath (e.g. a posit with
    /// `es > n − 3`); registries and other untrusted entry points should
    /// gate on [`NumericFormat::check_emac`] per layer first.
    pub fn make_layer_emacs(&self) -> Option<Vec<EmacUnit>> {
        let unit = |l: &QuantizedLayer| self.format.make_emac(l.fan_in() as u64);
        self.layers.iter().map(unit).collect()
    }

    /// Compiles every layer for the model's format now ([`LayerPlan`])
    /// rather than on the first forward pass, as `dp_serve`'s model
    /// registry does at registration. The plans are kept until a layer's
    /// patterns are edited; a no-op for layers that already hold one.
    pub fn compile(&self) {
        for layer in &self.layers {
            layer.plan(&self.format);
        }
    }

    /// The forward pass every EMAC entry point wraps: `batch` samples (`xs`,
    /// flat, one sample after another) through every layer on caller-owned
    /// EMACs (one per layer, as built by
    /// [`QuantizedMlp::make_layer_emacs`]), the readout patterns written to
    /// `out` (flat, sample-major). Each layer evaluates across **all**
    /// samples before the next, as one `dot_layer`-shaped sweep, so the
    /// kernels load the activation tile once per layer and read the weight
    /// rows from the layer's plan, decoded once per model (the first call
    /// compiles it); each neuron seeds its accumulator with the
    /// bias, accumulates exact products, rounds once, then applies ReLU
    /// (identity on the readout layer). Between layers the activations are
    /// operand words when the format's operands align, patterns otherwise
    /// (see the module docs) — the same readout either way. Allocates the
    /// quantised input and one buffer per hidden layer.
    ///
    /// # Panics
    ///
    /// Panics when `xs` is not `batch` samples of the first layer's fan-in,
    /// `out` not `batch` readouts, or `emacs` not one unit per layer.
    pub fn forward_into(&self, emacs: &mut [EmacUnit], xs: &[f32], batch: usize, out: &mut [u32]) {
        let fan_in = self.layers[0].fan_in();
        assert_eq!(
            xs.len(),
            batch * fan_in,
            "sample/first-layer length mismatch"
        );
        // `chunks_exact` would reject `fan_in = 0`.
        let rows = (0..batch).map(|j| &xs[j * fan_in..(j + 1) * fan_in]);
        self.forward_rows(emacs, rows, batch, out);
    }

    /// [`QuantizedMlp::forward_into`] over `batch` samples handed over as
    /// rows: the row-fed entry points quantise their samples where they lie
    /// instead of first copying them into one flat slice (an allocation and
    /// ≈ 20 ns per 117-feature sample).
    fn forward_rows<'a>(
        &self,
        emacs: &mut [EmacUnit],
        rows: impl Iterator<Item = &'a [f32]>,
        batch: usize,
        out: &mut [u32],
    ) {
        assert_eq!(
            out.len(),
            batch * self.classes(),
            "output/readout length mismatch"
        );
        assert_eq!(emacs.len(), self.layers.len(), "one EMAC per layer");
        match emacs.iter().all(EmacUnit::takes_words) {
            true => self.forward_as::<i64>(emacs, rows, batch, out),
            false => self.forward_as::<u32>(emacs, rows, batch, out),
        }
    }

    /// [`QuantizedMlp::forward_rows`] with `A` between the layers.
    fn forward_as<'a, A: Activation>(
        &self,
        emacs: &mut [EmacUnit],
        rows: impl Iterator<Item = &'a [f32]>,
        batch: usize,
        out: &mut [u32],
    ) {
        let fan_in = self.layers[0].fan_in();
        let mut acts = Vec::with_capacity(batch * fan_in);
        for x in rows {
            assert_eq!(x.len(), fan_in, "sample/first-layer length mismatch");
            A::quantize(&self.format, &emacs[0], x, &mut acts);
        }
        let last = self.layers.len() - 1;
        for (li, unit) in emacs[..last].iter_mut().enumerate() {
            let mut next = vec![A::default(); batch * self.layers[li].fan_out()];
            self.layer(li, unit, &acts, &mut next);
            acts = next;
        }
        self.layer(last, &mut emacs[last], &acts, out);
    }

    /// The one layer step of the forward pass and the streaming simulator:
    /// layer `li` on `unit` over the flat sample-major columns `acts`, one
    /// [`dp_emac::Emac::dot_plan`] over the layer's plan into `out`, then
    /// ReLU on hidden layers.
    pub(crate) fn layer<A: Activation, O: Activation>(
        &self,
        li: usize,
        unit: &mut EmacUnit,
        acts: &[A],
        out: &mut [O],
    ) {
        let layer = &self.layers[li];
        let plan = layer.plan(&self.format);
        unit.dot_plan(plan, layer.biases(), layer.weights(), acts, out);
        if li + 1 < self.layers.len() {
            O::relu(&self.format, out);
        }
    }

    /// EMAC inference of one sample; returns the output activations as bit
    /// patterns.
    pub fn forward_bits(&self, x: &[f32]) -> Vec<u32> {
        let mut emacs = self
            .make_layer_emacs()
            .expect("EMAC inference requires a low-precision format");
        self.forward_bits_with(&mut emacs, x)
    }

    /// [`QuantizedMlp::forward_bits`] with caller-owned EMACs:
    /// [`QuantizedMlp::forward_into`] at a batch of one.
    pub fn forward_bits_with(&self, emacs: &mut [EmacUnit], x: &[f32]) -> Vec<u32> {
        let mut out = vec![0; self.classes()];
        self.forward_into(emacs, x, 1, &mut out);
        out
    }

    /// Whole-chunk EMAC inference with caller-owned EMACs: the
    /// [`QuantizedMlp::forward_into`] pass over the rows of `xs`, one output
    /// row per sample. Per sample, the output is bit-identical to
    /// [`QuantizedMlp::forward_bits_with`] (the tile contract); the batch
    /// engine's and the serving chunk path's inner loop.
    ///
    /// # Panics
    ///
    /// Panics when a sample's length differs from the first layer's
    /// fan-in.
    pub fn forward_batch_bits_with(
        &self,
        emacs: &mut [EmacUnit],
        xs: &[Vec<f32>],
    ) -> Vec<Vec<u32>> {
        let classes = self.classes();
        let mut out = vec![0; xs.len() * classes];
        self.forward_rows(emacs, xs.iter().map(Vec::as_slice), xs.len(), &mut out);
        out.chunks(classes).map(<[u32]>::to_vec).collect()
    }

    /// Predicted classes for a whole chunk — the classify counterpart of
    /// [`QuantizedMlp::forward_batch_bits_with`], shared by
    /// [`QuantizedMlp::infer_batch`] and the `dp_serve` chunk path. Agrees
    /// with per-sample [`QuantizedMlp::infer_with`] exactly.
    pub fn infer_batch_with(&self, emacs: &mut [EmacUnit], xs: &[Vec<f32>]) -> Vec<usize> {
        let classes = self.classes();
        let mut out = vec![0; xs.len() * classes];
        self.forward_rows(emacs, xs.iter().map(Vec::as_slice), xs.len(), &mut out);
        out.chunks(classes)
            .map(|bits| self.argmax_bits(bits))
            .collect()
    }

    /// Output neurons of the readout layer.
    fn classes(&self) -> usize {
        self.layers[self.layers.len() - 1].fan_out()
    }

    /// EMAC inference over a whole batch on the calling thread: per-layer
    /// EMACs built once, then one weight-stationary tile sweep per layer
    /// ([`QuantizedMlp::forward_batch_bits_with`]), bit-identical to
    /// calling [`QuantizedMlp::forward_bits`] per sample. Also the chunk
    /// evaluator `dp_serve`'s pool workers run.
    ///
    /// # Panics
    ///
    /// Panics for the `F32` baseline (which has no EMAC datapath).
    pub fn forward_batch(&self, xs: &[Vec<f32>]) -> Vec<Vec<u32>> {
        let mut emacs = self
            .make_layer_emacs()
            .expect("forward_batch requires a low-precision format");
        self.forward_batch_bits_with(&mut emacs, xs)
    }

    /// Predicted class via the EMAC path (or plain f32 math for `F32`).
    pub fn infer(&self, x: &[f32]) -> usize {
        match self.format {
            NumericFormat::F32 => self.infer_inexact(x),
            _ => self.argmax_bits(&self.forward_bits(x)),
        }
    }

    /// Predicted classes for a whole batch on the calling thread (one tile
    /// sweep per layer; plain f32 math for `F32`); agrees with per-sample
    /// [`QuantizedMlp::infer`] exactly. Also the chunk evaluator
    /// `dp_serve`'s pool workers run.
    pub fn infer_batch(&self, xs: &[Vec<f32>]) -> Vec<usize> {
        match self.make_layer_emacs() {
            Some(mut emacs) => self.infer_batch_with(&mut emacs, xs),
            None => xs.iter().map(|x| self.infer_inexact(x)).collect(),
        }
    }

    /// [`QuantizedMlp::infer`] with caller-owned EMACs (one per layer, as
    /// built by [`QuantizedMlp::make_layer_emacs`]) — the classify inner
    /// loop shared by the batch engine and the `dp_serve` worker pool.
    pub fn infer_with(&self, emacs: &mut [EmacUnit], x: &[f32]) -> usize {
        self.argmax_bits(&self.forward_bits_with(emacs, x))
    }

    /// Index of the largest logit by [`NumericFormat::order_key`], first
    /// on ties: a NaR / NaN logit loses to every real one wherever it
    /// sits, and only an all-special row falls back to class 0.
    pub(crate) fn argmax_bits(&self, bits: &[u32]) -> usize {
        let mut best = (0, i64::MIN);
        for (i, &b) in bits.iter().enumerate() {
            let key = self.format.order_key(b);
            if key > best.1 {
                best = (i, key);
            }
        }
        best.0
    }

    /// Classification accuracy of the EMAC path on a dataset (batched;
    /// see [`QuantizedMlp::infer_batch`]).
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let preds = self.infer_batch(&data.features);
        let correct = preds
            .iter()
            .zip(&data.labels)
            .filter(|(p, &y)| **p == y)
            .count();
        correct as f64 / data.len() as f64
    }

    /// Per-op rounding inference (an ordinary MAC: every product and every
    /// accumulation rounds to the format) — the ablation baseline showing
    /// what the EMAC's exactness buys, and the `F32` model's inference.
    ///
    /// # Panics
    ///
    /// Panics when `x`'s length differs from the first layer's fan-in, as
    /// [`QuantizedMlp::forward_into`] does.
    pub fn infer_inexact(&self, x: &[f32]) -> usize {
        let fan_in = self.layers[0].fan_in();
        assert_eq!(x.len(), fan_in, "sample/first-layer length mismatch");
        let mut acts = self.quantize_input(x);
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let mut next = Vec::with_capacity(layer.fan_out());
            for (wrow, &bias) in layer.weight_rows().zip(layer.biases()) {
                let mut acc = bias;
                for (&w, &a) in wrow.iter().zip(&acts) {
                    let p = self.format.mul_bits(w, a);
                    acc = self.format.add_bits(acc, p);
                }
                if li != last {
                    acc = self.format.relu_bits(acc);
                }
                next.push(acc);
            }
            acts = next;
        }
        self.argmax_bits(&acts)
    }

    /// Accuracy of the per-op rounding path.
    pub fn accuracy_inexact(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .features
            .iter()
            .zip(&data.labels)
            .filter(|(x, &y)| self.infer_inexact(x) == y)
            .count();
        correct as f64 / data.len() as f64
    }

    /// Layer widths `[in, hidden..., out]`.
    pub fn dims(&self) -> Vec<usize> {
        let mut d = vec![self.layers[0].fan_in()];
        d.extend(self.layers.iter().map(|l| l.fan_out()));
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainConfig};
    use dp_datasets::iris;
    use dp_fixed::FixedFormat;
    use dp_minifloat::FloatFormat;
    use dp_posit::PositFormat;

    fn trained_iris() -> (Mlp, dp_datasets::TrainTest) {
        let split = iris::load(21).split(50, 21).normalized();
        let mut mlp = Mlp::new(&[4, 8, 3], 21);
        train(
            &mut mlp,
            &split.train,
            TrainConfig {
                epochs: 80,
                batch_size: 16,
                lr: 0.02,
                seed: 21,
            },
        );
        (mlp, split)
    }

    #[test]
    fn quantized_shapes_match() {
        let (mlp, _) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        assert_eq!(q.dims(), vec![4, 8, 3]);
        assert_eq!(q.layers[0].fan_in(), 4);
        assert_eq!(q.layers[1].fan_out(), 3);
        assert_eq!(q.layers[0].weights().len(), 4 * 8);
        assert_eq!(q.layers[0].weight_rows().count(), 8);
        assert_eq!(q.layers[0].weight_row(3), &q.layers[0].weights()[12..16]);
    }

    #[test]
    fn layer_constructors_agree_and_validate() {
        let rows = vec![vec![1u32, 2], vec![3, 4], vec![5, 6]];
        let a = QuantizedLayer::from_rows(&rows, vec![7, 8, 9]);
        let b = QuantizedLayer::new(2, 3, vec![1, 2, 3, 4, 5, 6], vec![7, 8, 9]);
        assert_eq!(a, b);
        assert_eq!(a.biases(), &[7, 8, 9]);
        assert!(std::panic::catch_unwind(|| {
            QuantizedLayer::new(2, 3, vec![1, 2, 3], vec![7, 8, 9])
        })
        .is_err());
        // Degenerate fan_in = 0 still yields one (empty) row per neuron.
        let empty_in = QuantizedLayer::new(0, 2, vec![], vec![1, 2]);
        assert_eq!(empty_in.weight_rows().count(), 2);
        assert!(empty_in.weight_rows().all(|r| r.is_empty()));
    }

    #[test]
    fn eight_bit_posit_tracks_f32_on_iris() {
        let (mlp, split) = trained_iris();
        let f32_acc = mlp.accuracy(&split.test);
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        let acc = q.accuracy(&split.test);
        assert!(f32_acc > 0.9, "f32 {f32_acc}");
        assert!(
            acc >= f32_acc - 0.08,
            "posit8 {acc} vs f32 {f32_acc} (paper: equal on Iris)"
        );
    }

    #[test]
    fn eight_bit_float_and_fixed_work_on_iris() {
        let (mlp, split) = trained_iris();
        for fmt in [
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
        ] {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let acc = q.accuracy(&split.test);
            assert!(acc > 0.8, "{fmt}: {acc}");
        }
    }

    #[test]
    fn batch_forward_is_bit_identical_to_per_sample() {
        // Includes the 16-bit §IV formats, which exercise the split-table
        // decode through the batch engine and, on posit⟨16,1⟩ and
        // float⟨5,10⟩ (121- and 89-bit registers), the f64 lane wherever
        // the trained operands' span admits it, the i128 fallback
        // elsewhere.
        let (mlp, split) = trained_iris();
        for fmt in [
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
            NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Float(FloatFormat::new(5, 10).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(16, 10).unwrap()),
        ] {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let xs: Vec<Vec<f32>> = split.test.features.iter().take(25).cloned().collect();
            let batch = q.forward_batch(&xs);
            let scalar: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
            assert_eq!(batch, scalar, "{fmt}");
            let preds = q.infer_batch(&xs);
            let scalar_preds: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
            assert_eq!(preds, scalar_preds, "{fmt}");
        }
    }

    #[test]
    fn a_poisoned_logit_loses_the_argmax_wherever_it_sits() {
        // Poison one readout neuron through its bias: that logit reads NaR
        // / NaN for every input, and the class must be the best of the
        // *other* logits — at index 0 the f32 argmax used to keep it.
        let (mlp, split) = trained_iris();
        let xs: Vec<Vec<f32>> = split.test.features.iter().take(20).cloned().collect();
        for (fmt, special) in [
            (
                NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
                PositFormat::new(8, 0).unwrap().nar_bits(),
            ),
            (
                NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
                FloatFormat::new(4, 3).unwrap().nan_bits(),
            ),
        ] {
            let clean = QuantizedMlp::quantize(&mlp, fmt);
            for poisoned in 0..3 {
                let mut q = clean.clone();
                q.layers[1].biases_mut()[poisoned] = special;
                let want: Vec<usize> = xs
                    .iter()
                    .map(|x| {
                        let logits = q.forward_bits(x);
                        assert!(fmt.to_f64(logits[poisoned]).is_nan(), "{fmt}");
                        let real = |i: &usize| *i != poisoned;
                        let mut best = (0..3).find(real).unwrap();
                        for i in (0..3).filter(real) {
                            if fmt.to_f64(logits[i]) > fmt.to_f64(logits[best]) {
                                best = i;
                            }
                        }
                        best
                    })
                    .collect();
                let single: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
                assert_eq!(single, want, "{fmt} logit {poisoned} poisoned");
                assert_eq!(q.infer_batch(&xs), want, "{fmt} logit {poisoned} poisoned");
                let (streamed, _) = crate::streaming::simulate(&q, &xs);
                assert_eq!(streamed, want, "{fmt} logit {poisoned} poisoned");
            }
            // Nothing real to pick: class 0.
            let mut q = clean.clone();
            q.layers[1].biases_mut().fill(special);
            assert_eq!(q.infer_batch(&xs), vec![0; xs.len()], "{fmt}");
        }
    }

    #[test]
    fn try_make_layer_emacs_validates_instead_of_panicking() {
        // Validation is `check_emac` per layer fan-in, the gate registries
        // and checkpoint loading run before `make_layer_emacs`.
        let (mlp, _) = trained_iris();
        let check = |q: &QuantizedMlp| {
            let fan_ins = q.layers.iter().map(|l| l.fan_in() as u64);
            fan_ins
                .map(|k| q.format.check_emac(k))
                .collect::<Result<Vec<_>, _>>()
        };
        // A datapath-less format: posit es > n − 3.
        let bad =
            QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 6).unwrap()));
        let err = check(&bad).unwrap_err();
        assert!(err.reason().contains("es <= n-3"), "{err}");
        let panic = std::panic::catch_unwind(|| bad.make_layer_emacs()).unwrap_err();
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("es <= n-3"), "{message}");
        // Supported formats yield one EMAC per layer; F32 yields None.
        let good =
            QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(16, 1).unwrap()));
        assert!(check(&good).is_ok());
        assert_eq!(good.make_layer_emacs().unwrap().len(), 2);
        let f32_model = QuantizedMlp::quantize(&mlp, NumericFormat::F32);
        assert!(check(&f32_model).is_ok());
        assert!(f32_model.make_layer_emacs().is_none());
    }

    /// The aligned 8- and 16-bit trios.
    fn aligned_trios() -> [NumericFormat; 6] {
        [
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 6).unwrap()),
            NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
            NumericFormat::Float(FloatFormat::new(5, 10).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(16, 8).unwrap()),
        ]
    }

    /// One `new_reference()` unit per layer: the scalar band, which reads
    /// the patterns and never a plan.
    fn reference_units(q: &QuantizedMlp) -> Vec<EmacUnit> {
        use dp_emac::{FixedEmac, FloatEmac, PositEmac};
        let unit = |l: &QuantizedLayer| {
            let k = l.fan_in() as u64;
            match q.format {
                NumericFormat::Posit(f) => EmacUnit::Posit(PositEmac::new_reference(f, k)),
                NumericFormat::Float(f) => EmacUnit::Float(FloatEmac::new_reference(f, k)),
                NumericFormat::Fixed(f) => EmacUnit::Fixed(FixedEmac::new_reference(f, k)),
                NumericFormat::F32 => unreachable!("no EMAC"),
            }
        };
        q.layers.iter().map(unit).collect()
    }

    /// `q`'s patterns in layers that have compiled nothing yet.
    fn rebuilt(q: &QuantizedMlp) -> QuantizedMlp {
        let layer = |l: &QuantizedLayer| {
            QuantizedLayer::new(l.fan_in, l.fan_out, l.weights.clone(), l.biases.clone())
        };
        let layers = q.layers.iter().map(layer).collect();
        QuantizedMlp {
            format: q.format,
            layers,
        }
    }

    /// `take` test samples, cycled.
    fn samples(split: &dp_datasets::TrainTest, take: usize) -> Vec<Vec<f32>> {
        split
            .test
            .features
            .iter()
            .cycle()
            .take(take)
            .cloned()
            .collect()
    }

    #[test]
    fn weight_surgery_after_a_forward_drops_the_plan() {
        let (mlp, split) = trained_iris();
        let xs = samples(&split, 9);
        for fmt in aligned_trios() {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let mut units = q.make_layer_emacs().unwrap();
            let before = q.forward_batch_bits_with(&mut units, &xs);
            assert!(q.layers.iter().all(|l| l.plan.get().is_some()), "{fmt}");
            let high = 1 << (fmt.n() - 2);
            let special = match fmt {
                NumericFormat::Posit(f) => Some(f.nar_bits()),
                NumericFormat::Float(f) => Some(f.nan_bits()),
                _ => None,
            };
            type Edit = Box<dyn Fn(&mut QuantizedMlp)>;
            let mut edits: Vec<(&str, Edit)> = vec![(
                "flipped weights",
                Box::new(move |q| {
                    q.layers[1]
                        .weight_row_mut(0)
                        .iter_mut()
                        .for_each(|w| *w ^= high)
                }),
            )];
            if let Some(s) = special {
                edits.push((
                    "special weight",
                    Box::new(move |q| q.layers[0].weight_row_mut(2)[1] = s),
                ));
                edits.push((
                    "special bias",
                    Box::new(move |q| q.layers[1].biases_mut()[1] = s),
                ));
            }
            for (what, edit) in edits {
                // The clone keeps the compiled plans; the edit on the same
                // units must not read them.
                let mut edited = q.clone();
                edit(&mut edited);
                let got = edited.forward_batch_bits_with(&mut units, &xs);
                let fresh = rebuilt(&edited);
                let want: Vec<Vec<u32>> = xs.iter().map(|x| fresh.forward_bits(x)).collect();
                assert_eq!(got, want, "{fmt}: {what}");
                assert_ne!(got, before, "{fmt}: {what} changes an output");
            }
        }
    }

    #[test]
    fn a_plan_is_built_from_the_format_not_the_first_unit() {
        let (mlp, split) = trained_iris();
        let xs = samples(&split, 9);
        for fmt in aligned_trios() {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let by_reference = q.forward_batch_bits_with(&mut reference_units(&q), &xs);
            for layer in &q.layers {
                let (compiled_for, plan) = layer.plan.get().expect("compiled on first use");
                assert_eq!((compiled_for, plan.is_some()), (&fmt, true), "{fmt}");
            }
            let mut units = q.make_layer_emacs().unwrap();
            assert_eq!(
                q.forward_batch_bits_with(&mut units, &xs),
                by_reference,
                "{fmt}"
            );
        }
        // A changed format never reads the plan of the old one.
        let mut q = QuantizedMlp::quantize(&mlp, aligned_trios()[0]);
        q.compile();
        q.format = NumericFormat::Posit(PositFormat::new(8, 1).unwrap());
        let fresh = rebuilt(&q);
        let mut units = q.make_layer_emacs().unwrap();
        let want: Vec<Vec<u32>> = xs.iter().map(|x| fresh.forward_bits(x)).collect();
        assert_eq!(q.forward_batch_bits_with(&mut units, &xs), want);
    }

    #[test]
    fn two_threads_making_the_first_forward_agree() {
        let (mlp, split) = trained_iris();
        let xs = std::sync::Arc::new(samples(&split, 64));
        for fmt in [aligned_trios()[3], aligned_trios()[0]] {
            let q = std::sync::Arc::new(QuantizedMlp::quantize(&mlp, fmt));
            let oracle = rebuilt(&q);
            let want = oracle.forward_batch_bits_with(&mut reference_units(&oracle), &xs);
            assert!(q.layers.iter().all(|l| l.plan.get().is_none()), "{fmt}");
            let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    let (q, xs, barrier) = (q.clone(), xs.clone(), barrier.clone());
                    std::thread::spawn(move || {
                        let mut units = q.make_layer_emacs().unwrap();
                        barrier.wait();
                        q.forward_batch_bits_with(&mut units, &xs)
                    })
                })
                .collect();
            for thread in threads {
                assert_eq!(thread.join().unwrap(), want, "{fmt}");
            }
        }
    }

    #[test]
    fn cached_plans_match_the_reference_band_at_every_batch() {
        let (mlp, split) = trained_iris();
        for fmt in aligned_trios() {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let (mut units, mut reference) = (q.make_layer_emacs().unwrap(), reference_units(&q));
            for batch in [1, 2, 8, 9, 64] {
                let xs = samples(&split, batch);
                let want = q.forward_batch_bits_with(&mut reference, &xs);
                assert_eq!(
                    q.forward_batch_bits_with(&mut units, &xs),
                    want,
                    "{fmt} B={batch}"
                );
            }
        }
    }

    #[test]
    fn sixteen_bit_posit_tracks_f32_on_iris() {
        // Paper §IV Tables II–III run the sweep up to [16,1]; at 16 bits
        // the quantized network should match the f32 baseline closely.
        let (mlp, split) = trained_iris();
        let f32_acc = mlp.accuracy(&split.test);
        let q =
            QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(16, 1).unwrap()));
        let acc = q.accuracy(&split.test);
        assert!(
            acc >= f32_acc - 0.04,
            "posit16 {acc} vs f32 {f32_acc} (paper: 16-bit matches f32)"
        );
    }

    #[test]
    fn slice_forward_matches_scalar_mac_loop() {
        // forward_bits rides dot_layer (kernel datapath); an inline
        // per-element mac() loop is its definition and must agree bit for
        // bit, on both kernel bands.
        let (mlp, split) = trained_iris();
        for fmt in [
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
            NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
            NumericFormat::Posit(PositFormat::new(17, 1).unwrap()),
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
        ] {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let scalar_forward = |x: &[f32]| -> Vec<u32> {
                let mut emacs = q.make_layer_emacs().unwrap();
                let mut acts = q.quantize_input(x);
                let last = q.layers.len() - 1;
                for (li, (layer, emac)) in q.layers.iter().zip(&mut emacs).enumerate() {
                    let mut next = Vec::with_capacity(layer.fan_out());
                    for (wrow, &bias) in layer.weight_rows().zip(layer.biases()) {
                        emac.set_bias(bias);
                        for (&w, &a) in wrow.iter().zip(&acts) {
                            emac.mac(w, a);
                        }
                        let mut out = emac.result();
                        if li != last {
                            out = q.format.relu_bits(out);
                        }
                        next.push(out);
                    }
                    acts = next;
                }
                acts
            };
            for x in split.test.features.iter().take(20) {
                assert_eq!(q.forward_bits(x), scalar_forward(x), "{fmt}");
            }
        }
    }

    #[test]
    fn chunk_tile_sweep_is_bit_identical_to_per_sample() {
        // forward_batch_bits_with evaluates a whole chunk layer-by-layer
        // through dot_layer; per sample it must match forward_bits exactly,
        // on both kernel bands and at ragged chunk widths.
        let (mlp, split) = trained_iris();
        for fmt in [
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
            NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
            NumericFormat::Posit(PositFormat::new(17, 1).unwrap()),
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(16, 10).unwrap()),
        ] {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            for take in [1usize, 7, 25, 100] {
                let samples = split.test.features.iter().cycle().take(take);
                let xs: Vec<Vec<f32>> = samples.cloned().collect();
                let mut emacs = q.make_layer_emacs().unwrap();
                let chunk = q.forward_batch_bits_with(&mut emacs, &xs);
                let per_sample: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
                assert_eq!(chunk, per_sample, "{fmt} B={take}");
                let mut emacs = q.make_layer_emacs().unwrap();
                let preds = q.infer_batch_with(&mut emacs, &xs);
                let scalar_preds: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
                assert_eq!(preds, scalar_preds, "{fmt} B={take}");
            }
            let mut emacs = q.make_layer_emacs().unwrap();
            assert!(q.forward_batch_bits_with(&mut emacs, &[]).is_empty());
        }
    }

    #[test]
    fn layer_kernels_reports_band_selection() {
        let (mlp, _) = trained_iris();
        use dp_emac::MacKernel;
        let by_fmt = |fmt: NumericFormat| -> Vec<MacKernel> {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let emacs = q.make_layer_emacs().expect("low-precision format");
            emacs.iter().map(|u| u.kernel()).collect()
        };
        let p8 = by_fmt(NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        assert!(p8.iter().all(|&k| k == MacKernel::Aligned), "{p8:?}");
        let p16 = by_fmt(NumericFormat::Posit(PositFormat::new(16, 1).unwrap()));
        assert!(p16.iter().all(|&k| k == MacKernel::Aligned), "{p16:?}");
        let p16e2 = by_fmt(NumericFormat::Posit(PositFormat::new(16, 2).unwrap()));
        assert!(p16e2.iter().all(|&k| k == MacKernel::Scalar), "{p16e2:?}");
        let p17 = by_fmt(NumericFormat::Posit(PositFormat::new(17, 1).unwrap()));
        assert!(p17.iter().all(|&k| k == MacKernel::Scalar), "{p17:?}");
        assert!(QuantizedMlp::quantize(&mlp, NumericFormat::F32)
            .make_layer_emacs()
            .is_none());
    }

    #[test]
    fn batch_handles_empty_input() {
        let (mlp, _) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        assert!(q.forward_batch(&[]).is_empty());
        assert!(q.infer_batch(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "sample/first-layer length mismatch")]
    fn f32_model_rejects_a_wrong_width_sample() {
        // The F32 model infers per op; zipping the sample against the
        // weight rows used to drop the extra feature silently.
        let (mlp, _) = trained_iris();
        QuantizedMlp::quantize(&mlp, NumericFormat::F32).infer(&[0.5; 5]);
    }

    #[test]
    #[should_panic(expected = "sample/first-layer length mismatch")]
    fn per_op_inference_rejects_a_wrong_width_sample() {
        let (mlp, _) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        q.infer_inexact(&[0.5; 3]);
    }

    #[test]
    #[should_panic(expected = "sample/first-layer length mismatch")]
    fn forward_into_rejects_a_ragged_batch() {
        let (mlp, _) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        let mut emacs = q.make_layer_emacs().unwrap();
        q.forward_into(&mut emacs, &[0.5; 9], 2, &mut [0; 6]);
    }

    #[test]
    fn f32_roundtrip_format_is_identity() {
        let (mlp, split) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::F32);
        assert_eq!(q.accuracy(&split.test), mlp.accuracy(&split.test));
    }

    #[test]
    fn exact_path_at_least_as_good_as_inexact_on_average() {
        // Not a theorem per-sample, but with 5-bit formats the EMAC path
        // should not be (much) worse in aggregate.
        let (mlp, split) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(6, 0).unwrap()));
        let exact = q.accuracy(&split.test);
        let inexact = q.accuracy_inexact(&split.test);
        assert!(
            exact + 0.05 >= inexact,
            "exact {exact} vs inexact {inexact}"
        );
    }
}
