//! # dp-minifloat — parameterizable small IEEE-style floats
//!
//! The Deep Positron paper compares its posit EMAC against a floating-point
//! EMAC whose inputs are `(1, we, wf)` minifloats: one sign bit, `we`
//! exponent bits and `wf` fraction bits, with IEEE-754 semantics (subnormals,
//! round to nearest even, ±Inf/NaN in the top exponent). This crate is a
//! from-scratch, exactly rounded software model of those formats:
//!
//! * [`FloatFormat`] — runtime format descriptor (`2 ≤ we ≤ 8`,
//!   `0 ≤ wf ≤ 23`), the characteristics from paper §III-C
//!   (`bias`, `expmax`, `max`, `min`), decode/encode, and correctly rounded
//!   [`ops`] built on exact integer arithmetic.
//! * [`MiniFloat`] — const-generic typed wrapper with operator overloads
//!   (`F8E4M3`, `F8E5M2`, half precision [`F16`], [`BF16`], ...).
//! * Saturating quantization ([`convert::from_f64_saturating`]) used by the
//!   DNN path, mirroring the paper's EMAC clipping behaviour ("clipped at
//!   the maximum magnitude").
//!
//! ```
//! use dp_minifloat::{FloatFormat, F8E4M3};
//!
//! let fmt = FloatFormat::new(4, 3)?;            // 8-bit float, we=4
//! assert_eq!(fmt.max_value(), 240.0);           // 2^(emax-bias)·(2-2^-wf)
//! let a = F8E4M3::from_f64(1.5);
//! let b = F8E4M3::from_f64(2.5);
//! assert_eq!((a * b).to_f64(), 3.75);
//! # Ok::<(), dp_minifloat::FormatError>(())
//! ```

pub mod codec;
pub mod convert;
pub mod format;
pub mod ops;
pub mod value;

pub use codec::{
    decode, encode, encode_inf, encode_nan, encode_word, encode_zero, FloatClass, FloatUnpacked,
};
pub use format::{FloatFormat, FormatError};
pub use value::{
    MiniFloat, BF16, F16, F6E2M3, F6E3M2, F7E3M3, F7E4M2, F8E2M5, F8E3M4, F8E4M3, F8E5M2,
};
