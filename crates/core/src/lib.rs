//! # deep-positron — the Deep Positron DNN architecture
//!
//! Reproduction of *"Deep Positron: A Deep Neural Network Using the Posit
//! Number System"* (Carmichael, Langroudi, Khazanov, Lillie, Gustafson,
//! Kudithipudi — DATE 2019): a DNN inference architecture whose neurons are
//! **exact multiply-and-accumulate (EMAC)** units instantiated for posit,
//! floating-point or fixed-point numerics at matched ≤8-bit widths.
//!
//! The crate ties the substrates together into the paper's end-to-end flow:
//!
//! 1. **Train** a 32-bit float MLP ([`mlp`], [`train`](mod@train)) — ReLU hidden
//!    layers, affine readout (paper Fig. 1).
//! 2. **Quantize** weights/biases/activations into a [`format::NumericFormat`]
//!    ([`quantized`]).
//! 3. **Infer** through per-layer EMAC arrays with a single rounding per
//!    neuron ([`quantized::QuantizedMlp::infer`]), or cycle-accurately
//!    through the streaming pipeline of Fig. 1 ([`streaming`]).
//! 4. **Evaluate** the paper's artifacts: Table II and Figs. 2/9
//!    ([`experiments`]), plus the exact-vs-inexact MAC ablation
//!    ([`ablation`]).
//!
//! ```no_run
//! use deep_positron::experiments::{paper_tasks, table2};
//!
//! let tasks = paper_tasks(true, 42); // quick training schedule
//! for row in table2(&tasks) {
//!     println!(
//!         "{:<24} {:>5}  posit {:.1}%  float {:.1}%  fixed {:.1}%  f32 {:.1}%",
//!         row.dataset,
//!         row.inference_size,
//!         100.0 * row.posit.accuracy,
//!         100.0 * row.float.accuracy,
//!         100.0 * row.fixed.accuracy,
//!         100.0 * row.f32_accuracy,
//!     );
//! }
//! ```

pub mod ablation;
pub mod experiments;
pub mod format;
pub mod io;
pub mod mlp;
pub mod quantized;
pub mod streaming;
pub mod tensor;
pub mod train;

pub use format::NumericFormat;
pub use mlp::{Dense, Mlp};
pub use quantized::{QuantizedLayer, QuantizedMlp};
pub use streaming::{simulate, StreamingReport};
pub use train::{train, TrainConfig, TrainReport};
