//! # dp-fixed — parameterizable fixed-point arithmetic
//!
//! The fixed-point baseline of the Deep Positron comparison (paper §III-B):
//! an `n`-bit two's-complement word with `q` fraction bits. A weight, bias
//! or activation is the integer `raw` interpreted as `raw / 2^q`.
//!
//! Semantics follow the paper's EMAC datapath: quantization rounds to
//! nearest (ties to even) and **clips at the maximum magnitude**; the EMAC's
//! final output shift *truncates* (Fig. 3: the sum of products is shifted
//! right by `q` bits and truncated to `n` bits, clipping at the maximum
//! magnitude).
//!
//! ```
//! use dp_fixed::{FixedFormat, Fixed};
//!
//! let fmt = FixedFormat::new(8, 6)?;           // Q2.6
//! assert_eq!(fmt.max_value(), 127.0 / 64.0);
//! let x = fmt.from_f64(0.5);
//! assert_eq!(fmt.to_f64(fmt.add_sat(x, x)), 1.0);
//!
//! type Q8_6 = Fixed<8, 6>;
//! let a = Q8_6::from_f64(1.25);
//! assert_eq!((a + a).to_f64(), Q8_6::FORMAT.max_value()); // saturates
//! # Ok::<(), dp_fixed::FormatError>(())
//! ```

pub mod format;
pub mod value;

pub use format::{FixedFormat, FormatError};
pub use value::{Fixed, ParseFixedError};
