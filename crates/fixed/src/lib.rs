//! # dp-fixed — parameterizable fixed-point formats
//!
//! The fixed-point baseline of the Deep Positron comparison (paper §III-B):
//! an `n`-bit two's-complement word with `q` fraction bits. A weight, bias
//! or activation is the integer `raw` interpreted as `raw / 2^q`.
//!
//! Semantics follow the paper's EMAC datapath: quantization rounds to
//! nearest (ties to even) and **clips at the maximum magnitude**; the EMAC's
//! final output shift *truncates* (Fig. 3: the sum of products is shifted
//! right by `q` bits and truncated to `n` bits, clipping at the maximum
//! magnitude). [`FixedFormat`] carries exactly those operations on raw
//! words: the quantisers, the readout shift, and the saturating per-op
//! `add` and truncating `mul` of the inexact ablation.
//!
//! ```
//! use dp_fixed::FixedFormat;
//!
//! let fmt = FixedFormat::new(8, 6)?;           // Q2.6
//! assert_eq!(fmt.max_value(), 127.0 / 64.0);
//! let x = fmt.from_f32(0.5);
//! assert_eq!(fmt.to_f64(fmt.add_sat(x, x)), 1.0);
//! assert_eq!(fmt.to_f64(fmt.add_sat(x, fmt.from_f32(1.75))), fmt.max_value()); // clips
//! assert_eq!(fmt.mul_truncate(x, fmt.from_f32(-0.015625)), -1); // floor
//! # Ok::<(), dp_fixed::FormatError>(())
//! ```

pub mod format;

pub use format::{FixedFormat, FormatError};
