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
//! * [`PositFormat`] — a runtime-parameterized format descriptor (any
//!   `3 ≤ n ≤ 32`, `0 ≤ es ≤ 6`), with correctly rounded (round to nearest,
//!   ties to even) [`ops`] (add/sub/mul/div/sqrt), [`decode`](mod@decode)/[`encode`](mod@encode) and
//!   exact [`convert`] conversions to and from `f64`.
//! * [`Posit`] — a zero-cost const-generic wrapper (`P8E0`, `P16E1`, ...)
//!   with standard operator overloads.
//! * [`Quire`] — an exact Kulisch-style accumulator whose width follows
//!   paper eq. (4); sums of products are accumulated without intermediate
//!   rounding and rounded exactly once, which is what makes the paper's
//!   EMAC ("exact multiply-and-accumulate") unit *exact*.
//! * [`WideInt`] — the arbitrary-width two's-complement integer substrate
//!   used by the quire and by `dp-emac`'s accumulators.
//! * [`exact`] — an exact dyadic-rational reference arithmetic used as a
//!   test oracle throughout the workspace.
//!
//! ## Quickstart
//!
//! ```
//! use dp_posit::{P8E0, PositFormat, Quire};
//!
//! // Typed API
//! let a = P8E0::from_f64(0.5);
//! let b = P8E0::from_f64(1.5);
//! assert_eq!((a + b).to_f64(), 2.0);
//!
//! // Runtime-parameterized API
//! let fmt = PositFormat::new(8, 0).unwrap();
//! let bits = dp_posit::ops::mul(fmt, a.to_bits(), b.to_bits());
//! assert_eq!(dp_posit::convert::to_f64(fmt, bits), 0.75);
//!
//! // Exact dot product through the quire
//! let mut q = Quire::new(fmt, 16);
//! q.add_product(a.to_bits(), b.to_bits());
//! q.add_product(b.to_bits(), b.to_bits());
//! assert_eq!(dp_posit::convert::to_f64(fmt, q.to_posit()), 3.0);
//! ```

pub mod convert;
pub mod decode;
pub mod encode;
pub mod exact;
pub mod format;
pub mod lut;
pub mod ops;
pub mod quire;
pub mod value;
pub mod wide;

pub use decode::{decode, Decoded, Unpacked};
pub use encode::{encode, encode_word};
pub use format::{FormatError, PositFormat};
pub use quire::Quire;
pub use value::{
    ParsePositError, Posit, P16E1, P16E2, P32E2, P5E0, P6E0, P6E1, P7E0, P7E1, P8E0, P8E1, P8E2,
};
pub use wide::WideInt;
