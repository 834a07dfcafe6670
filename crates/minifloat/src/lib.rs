//! # dp-minifloat — parameterizable small IEEE-style floats
//!
//! The Deep Positron paper compares its posit EMAC against a floating-point
//! EMAC whose inputs are `(1, we, wf)` minifloats: one sign bit, `we`
//! exponent bits and `wf` fraction bits, with IEEE-754 semantics (subnormals,
//! round to nearest even, ±Inf/NaN in the top exponent). This crate is an
//! exactly rounded software model of what that datapath needs:
//!
//! * [`FloatFormat`] — runtime format descriptor (`2 ≤ we ≤ 8`,
//!   `0 ≤ wf ≤ 23`) with the characteristics from paper §III-C
//!   (`bias`, `max`, `min`).
//! * [`decode`] (the subnormal detection of paper Fig. 4) and [`encode`]
//!   (round to nearest even, to a pattern or to an EMAC operand word).
//! * [`convert`] — the saturating `f32` quantisers of the inference path,
//!   mirroring the EMAC's clipping ("clipped at the maximum magnitude"),
//!   and the exact `f64` conversions.
//! * [`ops`] — correctly rounded `add` and `mul` (the per-operation
//!   ablation against the EMAC), `neg` and `is_negative`.
//!
//! ```
//! use dp_minifloat::{convert, ops, FloatFormat};
//!
//! let fmt = FloatFormat::new(4, 3)?;            // 8-bit float, we=4
//! assert_eq!(fmt.max_value(), 240.0);           // 2^(emax-bias)·(2-2^-wf)
//! let a = convert::from_f64(fmt, 1.5);
//! let b = convert::from_f64(fmt, 2.5);
//! assert_eq!(convert::to_f64(fmt, ops::mul(fmt, a, b)), 3.75);
//! assert_eq!(convert::from_f32_saturating(fmt, 1e9), fmt.max_bits(false));
//! # Ok::<(), dp_minifloat::FormatError>(())
//! ```

pub mod codec;
pub mod convert;
pub mod format;
pub mod ops;

pub use codec::{decode, encode, encode_word, FloatClass, FloatUnpacked};
pub use format::{FloatFormat, FormatError};
