//! # dp-posit — posit arithmetic for Deep Positron
//!
//! A from-scratch implementation of the posit number system (Type III unum)
//! as described by Gustafson & Yonemoto and used by the DATE 2019 paper
//! *"Deep Positron: A Deep Neural Network Using the Posit Number System"*.
//!
//! A posit format is parameterized by `n`, the total width in bits, and
//! `es`, the number of exponent bits. The value of a finite nonzero posit is
//!
//! ```text
//! (-1)^s × (2^(2^es))^k × 2^e × 1.f        (paper eq. 2)
//! ```
//!
//! where `k` is the run-length-encoded regime, `e` the unsigned exponent and
//! `1.f` the significand. Two bit patterns are reserved: all zeros is `0`,
//! and `1 0...0` is NaR ("Not a Real").
//!
//! ## What this crate provides
//!
//! Only what the Deep Positron datapath and its tests call:
//!
//! * [`PositFormat`] — a runtime-parameterized format descriptor (any
//!   `3 ≤ n ≤ 32`, `0 ≤ es ≤ 6`).
//! * [`decode`](mod@decode) (paper Algorithm 1) and [`encode`](mod@encode)
//!   (Algorithm 2's rounding, to a pattern or to an EMAC operand word),
//!   with table-driven decode in [`lut`] for the paper-scale formats.
//! * [`convert`] — the `f32` quantisers of the inference path and the
//!   exact `f64` conversions.
//! * [`ops`] — correctly rounded `add` and `mul` (the per-operation
//!   ablation against the EMAC), `neg` and `is_negative`.
//! * [`Quire`] — an exact Kulisch-style accumulator whose width follows
//!   paper eq. (4); sums of products are accumulated without intermediate
//!   rounding and rounded exactly once, which is what makes the paper's
//!   EMAC ("exact multiply-and-accumulate") unit *exact*. It is the
//!   independent reference `dp-emac`'s posit unit is tested against.
//! * [`WideInt`] — the arbitrary-width two's-complement integer substrate
//!   used by the quire and by `dp-emac`'s accumulators.
//! * [`exact`] — an exact dyadic-rational reference arithmetic used as a
//!   test oracle throughout the workspace.
//!
//! ## Quickstart
//!
//! ```
//! use dp_posit::{convert, ops, PositFormat, Quire};
//!
//! let fmt = PositFormat::new(8, 0)?;
//! let a = convert::from_f64(fmt, 1.5);
//! let b = convert::from_f64(fmt, 0.5);
//!
//! // One rounding per operation.
//! assert_eq!(convert::to_f64(fmt, ops::add(fmt, a, b)), 2.0);
//! assert_eq!(convert::to_f64(fmt, ops::mul(fmt, a, b)), 0.75);
//!
//! // Exact dot product through the quire: one rounding at the end.
//! let mut q = Quire::new(fmt, 16);
//! q.add_product(a, b);
//! q.add_product(a, a);
//! assert_eq!(convert::to_f64(fmt, q.to_posit()), 3.0);
//! # Ok::<(), dp_posit::FormatError>(())
//! ```

pub mod convert;
pub mod decode;
pub mod encode;
pub mod exact;
pub mod format;
pub mod lut;
pub mod ops;
pub mod quire;
pub mod wide;

pub use decode::{decode, Decoded, Unpacked};
pub use encode::{encode, encode_word};
pub use format::{FormatError, PositFormat};
pub use quire::Quire;
pub use wide::WideInt;
