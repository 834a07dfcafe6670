//! # dp-emac — exact multiply-and-accumulate units
//!
//! Bit-accurate software models of the Deep Positron EMAC soft cores
//! (paper §III, Figs. 3–5, Algorithms 1–2). An EMAC computes
//!
//! ```text
//! out = round( bias + Σᵢ wᵢ · aᵢ )
//! ```
//!
//! with **no intermediate rounding**: every product is converted to a wide
//! fixed-point representation and accumulated in a register sized so that
//! the sum is exact (paper eqs. 3–4); rounding/truncation happens once, at
//! readout. This is what distinguishes an EMAC from an ordinary MAC and is
//! the paper's central hardware idea.
//!
//! Three units are provided, one per numerical format at matched bit width:
//!
//! * [`FixedEmac`] — paper Fig. 3: 2n-bit products, `wa`-bit integer
//!   accumulator, output shifted right by `q` and *truncated*, clipped.
//! * [`FloatEmac`] — paper Fig. 4: subnormal-aware decode, exact product,
//!   fixed-point conversion, single round-to-nearest-even, clipped at ±max
//!   (the EMAC never overflows to infinity).
//! * [`PositEmac`] — paper Fig. 5 + Algorithms 1–2: posit decode with a
//!   single leading-zero detector, biased scale-factor fixed-point
//!   conversion into a quire-style register, convergent rounding and
//!   re-encode.
//!
//! All units implement the [`Emac`] trait over raw `u32` bit patterns and
//! carry cycle metadata used by the `dp-hw` timing model and the
//! `deep-positron` streaming simulator.
//!
//! ## One unit, two bands, one sweep
//!
//! The paper draws the three EMACs as the same pipeline — decode → exact
//! multiply → shifted accumulate → round once — differing only in the
//! decode and round/encode stages, and the code has the same shape: all
//! three are one generic unit, [`TableEmac`]`<F>`, instantiated at the
//! [`Posit`], [`Float`] and [`Fixed`] families (static dispatch; the hot
//! loops are monomorphized per family and per operand source).
//!
//! * **The generic unit owns** the accumulation register ([`Accum`]:
//!   `i128` / `WideInt`), `mac` / `reset` / `macs_done`, bias seeding,
//!   poison tracking, and the aligned sweep (whose loops live in the
//!   private `kernel` module).
//! * **A [`Family`] supplies** what the paper says differs: the decode of
//!   a pattern into the shared operand word (posit decode tables,
//!   minifloat bit fields, fixed point's sign extension — and the
//!   bit-field decode of `new_reference()` units), where a bias lands in
//!   the register, the readout (round-and-encode, or truncate-and-clip),
//!   the poison pattern, and `accumulator_width_for`.
//! * **[`table`] defines, once,** the operand word ([`EmacEntry`]), its
//!   aligned-integer image ([`table::align`]), the per-pattern table of
//!   those images ([`AlignedLut`]) and the per-format leak-once cache.
//!   Every family stores operands as `±field × 2^scale` with a
//!   non-negative scale (posits in units of minpos, minifloats
//!   unnormalised in units of the smallest subnormal, fixed point at
//!   scale 0), so `±(field << scale)` is a plain signed integer and an
//!   exact EMAC sum is a plain integer dot product.
//! * **Two bands, fixed at construction by (format, capacity)**
//!   ([`MacKernel`]; no option, feature or cap selects one). Whenever
//!   every operand of a format fits the aligned word and the
//!   eq.-(3)/(4) register fits an `i128` — the 8-bit trio, posits through
//!   ⟨16,1⟩, minifloats up to binary16, fixed point at every width — a
//!   sweep runs `acc[j] += w[k] · a[j][k]` ([`MacKernel::Aligned`]) in the
//!   [`SumLane`] the register width — `f64` (≤ 53 bits), `i64` (≤ 63) or
//!   `i128` — or the pair's operand span ([`SumLane::span_bound`]) proves
//!   exact: `f32` within 24 bits, `f64` within 53. Everything else, and every
//!   `new_reference()` unit, runs the per-MAC datapath in a loop
//!   ([`MacKernel::Scalar`]) — the reference the aligned band is pinned
//!   against.
//! * **One sweep, over compiled layers.** [`Emac::dot_plan`] is the one
//!   way a layer is evaluated: a shape-validating front over
//!   [`TableEmac`]'s one private sweep, generic over what it reads and
//!   writes ([`Readout`]: patterns, or operand words between a model's
//!   layers). The aligned arm reads the weights from a [`LayerPlan`] —
//!   decoded once, by [`Emac::compile`], with each row's span half and
//!   bias seed — and decodes the activation tile once; the scalar arm is
//!   the per-MAC definition — `set_bias`, one [`Emac::mac`] (or its word
//!   twin) per pair, one readout — and both refuse a fan-in past the
//!   unit's capacity.
//!
//! ```
//! use dp_emac::{Emac, PositEmac};
//! use dp_posit::PositFormat;
//!
//! let fmt = PositFormat::new(8, 0)?;
//! let mut emac = PositEmac::new(fmt, 16);
//! let half = dp_posit::convert::from_f64(fmt, 0.5);
//! let two = dp_posit::convert::from_f64(fmt, 2.0);
//! emac.mac(half, two); // 1.0
//! emac.mac(half, half); // 0.25
//! assert_eq!(dp_posit::convert::to_f64(fmt, emac.result()), 1.25);
//! # Ok::<(), dp_posit::FormatError>(())
//! ```

mod acc;
mod fixed_emac;
mod float_emac;
mod kernel;
mod posit_emac;
pub mod table;
mod table_emac;
mod unit;

pub use acc::{Accum, Window, SMALL_ACC_MAX_BITS};
pub use fixed_emac::{Fixed, FixedEmac};
pub use float_emac::{Float, FloatEmac};
pub use kernel::{LayerPlan, MacKernel, SumLane};
pub use posit_emac::{Posit, PositEmac, SplitOperands};
pub use table::{AlignedLut, EmacEntry, RoundLut};
pub use table_emac::{Family, Readout, TableEmac};
pub use unit::{Emac, EmacUnit};

/// ⌈log2 k⌉ for k ≥ 1 (accumulator growth bits, paper eqs. 3–4), at every
/// `k`: `next_power_of_two` overflows past 2^63.
pub(crate) fn ceil_log2(k: u64) -> u32 {
    64 - k.saturating_sub(1).leading_zeros()
}

/// A format (or format + capacity pairing) with no EMAC datapath — e.g. a
/// posit with `es > n − 3` (no significand bits) or a fixed-point
/// configuration whose eq.-(3) register would exceed an `i128`.
///
/// Returned by the `try_new` constructors so untrusted callers (model
/// registries, serving admission) can validate up front instead of
/// panicking a worker thread mid-request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedFormat {
    reason: String,
}

impl UnsupportedFormat {
    pub(crate) fn new(reason: String) -> Self {
        UnsupportedFormat { reason }
    }

    /// Human-readable reason this format has no EMAC datapath.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl std::fmt::Display for UnsupportedFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unsupported EMAC format: {}", self.reason)
    }
}

impl std::error::Error for UnsupportedFormat {}

#[cfg(test)]
mod tests {
    use super::ceil_log2;

    #[test]
    fn ceil_log2_is_exact_up_to_u64_max() {
        assert_eq!(
            [0u64, 1, 2, 3, 4, 5, 128].map(ceil_log2),
            [0, 0, 1, 2, 2, 3, 7]
        );
        assert_eq!(ceil_log2(1 << 63), 63);
        assert_eq!(ceil_log2((1 << 63) + 1), 64);
        assert_eq!(ceil_log2(u64::MAX), 64);
    }
}
