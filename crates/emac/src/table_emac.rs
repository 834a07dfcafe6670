//! The one EMAC datapath and the [`Family`] seam.

use crate::acc::{Accum, SMALL_ACC_MAX_BITS};
use crate::kernel::AlignedTile;
use crate::table::{self, AlignedLut, EmacEntry, ALIGNED_OPERAND_BITS};
use crate::unit::{per_mac_sweep, Emac};
use crate::{MacKernel, UnsupportedFormat};
use std::fmt;

/// What differs between the numerical families that share the datapath —
/// the paper's Figs. 3–5 differ only in their decode and round/encode
/// stages, and so does this code. A family value is the per-unit
/// decode/encode state for one format; everything else (accumulation
/// register, the aligned sweep, band selection, poison tracking, MAC
/// accounting) is [`TableEmac`]'s.
///
/// All operands reach the datapath as [`EmacEntry`] words
/// `±field × 2^scale`, in a per-family operand unit chosen so that a
/// product lands at register bit `scale_w + scale_a` and a bias at
/// `scale + `[`Family::bias_shift`].
pub trait Family: Clone + fmt::Debug {
    /// The family's runtime format descriptor.
    type Format: Copy + fmt::Debug + fmt::Display;
    /// Per-element computed operand source for formats without an operand
    /// table, captured by value into the kernels. Kept apart from the
    /// family state so the kernels see one straight-line decode: routing
    /// them through [`Family::decode`]'s scheme match cost the
    /// posit⟨16,1⟩ rows 10–20 % when measured.
    type Computed: Copy + fmt::Debug;
    /// Family name, used in panic messages and as the table-cache key.
    const NAME: &'static str;
    /// Pipeline depth in cycles, for the streaming latency model.
    const PIPELINE_DEPTH: u32;

    /// Whether `fmt` has an EMAC datapath for `capacity ≥ 1`
    /// accumulations.
    ///
    /// # Errors
    ///
    /// [`UnsupportedFormat`] naming why it does not.
    fn check_format(fmt: Self::Format, capacity: u64) -> Result<(), UnsupportedFormat>;

    /// Exact accumulator width for `k` accumulations (paper eqs. 3–4).
    fn accumulator_width_for(fmt: Self::Format, k: u64) -> u32;

    /// Whether every operand of `fmt` fits the aligned word
    /// ([`ALIGNED_OPERAND_BITS`]), read off what the unit computes anyway:
    /// the register sized for one accumulation holds the square of the
    /// widest operand plus a sign bit, so half its width bounds every
    /// aligned operand.
    fn operands_align(fmt: Self::Format) -> bool {
        Self::accumulator_width_for(fmt, 1) <= 2 * ALIGNED_OPERAND_BITS
    }

    /// The process-wide aligned operand table for `fmt`, when the format
    /// is narrow enough to tabulate and its operands align.
    fn tables(fmt: Self::Format) -> Option<&'static AlignedLut>;

    /// Decode/encode state for `fmt`. `tables: false` is the
    /// `new_reference()` flavour: bit-field decode only.
    fn new(fmt: Self::Format, tables: bool) -> Self;

    /// The format this state was built for.
    fn format(&self) -> Self::Format;

    /// Decodes one pattern into its operand word (any format width): the
    /// per-MAC datapath's decode.
    fn decode(&self, bits: u32) -> EmacEntry;

    /// The computed operand source, when the format has one and this
    /// state may use it.
    fn computed(&self) -> Option<Self::Computed>;

    /// One computed operand; must equal [`Family::decode`].
    fn computed_entry(source: Self::Computed, bits: u32) -> EmacEntry;

    /// One computed operand as its aligned word ([`table::align`]): the
    /// aligned band's decode for formats without a table. A family whose
    /// patterns are plain integers already overrides the detour through
    /// sign and magnitude.
    #[inline(always)]
    fn aligned_word(source: Self::Computed, bits: u32) -> i64 {
        table::align(Self::computed_entry(source, bits))
    }

    /// Register position of the operand unit: a bias operand's
    /// significand LSB lands at `scale + bias_shift()`.
    fn bias_shift(&self) -> u32;

    /// Reads the register out: rounds (or truncates) once and encodes.
    fn encode(&self, acc: &Accum) -> u32;

    /// The pattern a poisoned accumulation reads out as (NaR / NaN).
    fn poison_bits(&self) -> u32;
}

/// Where the aligned band's operand words come from: a per-pattern table
/// (`n ≤ 12`) or the family's computed source. Both produce identical
/// words.
#[derive(Debug, Clone, Copy)]
enum Source<C> {
    Table(&'static AlignedLut),
    Computed(C),
}

/// Evaluates `$body` with `$word` bound to the aligned decode of `$source`
/// — value and special flag in one word ([`table::align`]) — as a closure
/// monomorphized per source, so the decode loops see one straight-line
/// lookup: a single closure matching on the source was left out of line
/// and called per element when measured. For use inside
/// `impl<F: Family> TableEmac<F>`.
macro_rules! with_aligned_word {
    ($source:expr, $word:ident => $body:expr) => {
        match $source {
            Source::Table(t) => {
                let $word = t.decoder();
                $body
            }
            Source::Computed(c) => {
                let $word = move |bits: u32| F::aligned_word(c, bits);
                $body
            }
        }
    };
}

/// The exact multiply-and-accumulate unit shared by every family:
/// decode → exact multiply → shifted accumulate → round once (paper
/// §III), with the decode and round/encode stages supplied by a
/// [`Family`]. [`crate::PositEmac`], [`crate::FloatEmac`] and
/// [`crate::FixedEmac`] are this unit at `F = `[`crate::Posit`] /
/// [`crate::Float`] / [`crate::Fixed`].
///
/// A unit runs one of two datapaths, fixed at construction by (format,
/// capacity) and bit-identical to each other (enforced by the
/// `kernel_equivalence`, `tile_equivalence` and `fast_path_equivalence`
/// suites):
///
/// * **The aligned band** ([`MacKernel::Aligned`]) — when every operand
///   `±(field << scale)` fits the aligned word and the eq.-(3)/(4)
///   register fits an `i128` (true for every 5–8-bit configuration in
///   Table II, for posit⟨16,1⟩ — 121 bits at k = 128 — binary16 and
///   fixed point), [`Emac::dot_tile`] and [`Emac::dot_layer`] decode
///   their operands once ([`AlignedLut`], or [`Family::aligned_word`])
///   and accumulate a plain integer dot product in the static
///   [`crate::SumLane`] the register width picks — `f64` up to 53 bits
///   (every operand below `2^26`, every partial sum below `2^52`: all
///   exact in an `f64`, eight columns abreast in packed multiplies),
///   `i64` up to 63, `i128` beyond — except that past 53 bits, in a
///   [`Emac::dot_layer`] of two or more rows at `B ≥ 2`, each (weight
///   row, activation tile) pair whose operand span
///   proves 53 bits enough ([`crate::SumLane::span_bound`], checked per
///   call on the operands themselves) sums in `f64` too; per-MAC calls run
///   the reference datapath on the same `i128`.
/// * **The reference band** ([`MacKernel::Scalar`]) — everything else,
///   and every [`TableEmac::new_reference`] unit: one
///   [`Family::decode`] per operand, one shifted add into the
///   [`Accum`] register (`i128`, or the limb-based `WideInt` past 127
///   bits and on reference units).
#[derive(Debug, Clone)]
pub struct TableEmac<F: Family> {
    family: F,
    capacity: u64,
    /// The eq.-(3)/(4) register width for `capacity` accumulations.
    width: u32,
    acc: Accum,
    /// Aligned operands, when every operand of the format fits the
    /// aligned word and the register is an `i128`
    /// ([`MacKernel::Aligned`]).
    aligned: Option<Source<F::Computed>>,
    count: u64,
    poisoned: bool,
    /// Decoded activation tile and weight row of the aligned band,
    /// retained across sweeps so a layer does not allocate per row. Never
    /// semantic: refilled on each sweep.
    tile: AlignedTile,
}

impl<F: Family> TableEmac<F> {
    /// Creates a unit for `fmt` sized for `capacity` accumulations, on
    /// the aligned band when the format and capacity qualify.
    ///
    /// # Panics
    ///
    /// Panics if the pairing has no EMAC datapath (posits with
    /// `es > n − 3`: no significand bits; fixed point whose eq.-(3)
    /// register exceeds 127 bits). Use [`TableEmac::try_new`] to validate
    /// without panicking.
    pub fn new(fmt: F::Format, capacity: u64) -> Self {
        Self::try_new(fmt, capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TableEmac::new`] returning a typed error instead of panicking
    /// for pairings without an EMAC datapath — admission-time validation
    /// for serving registries and other untrusted callers. Every valid
    /// minifloat format has one, so `FloatEmac::try_new` never fails.
    ///
    /// # Errors
    ///
    /// [`UnsupportedFormat`] when the family rejects the pairing.
    pub fn try_new(fmt: F::Format, capacity: u64) -> Result<Self, UnsupportedFormat> {
        let capacity = capacity.max(1);
        F::check_format(fmt, capacity)?;
        let family = F::new(fmt, true);
        let width = F::accumulator_width_for(fmt, capacity);
        // The band rule: operands in the aligned word, register in the
        // i128 — and a table or computed source to decode them with.
        let aligned = match F::tables(fmt) {
            _ if width > SMALL_ACC_MAX_BITS || !F::operands_align(fmt) => None,
            Some(t) => Some(Source::Table(t)),
            None => family.computed().map(Source::Computed),
        };
        let acc = Accum::new(width);
        Ok(Self::build(family, capacity, width, aligned, acc))
    }

    /// Creates a unit on the reference datapath: bit-field decode per MAC
    /// and the limb-based `WideInt` register, regardless of format width.
    /// Kept for differential testing and for benchmarking the aligned
    /// band against it.
    ///
    /// # Panics
    ///
    /// Panics if the pairing has no EMAC datapath, as for
    /// [`TableEmac::new`].
    pub fn new_reference(fmt: F::Format, capacity: u64) -> Self {
        let capacity = capacity.max(1);
        F::check_format(fmt, capacity).unwrap_or_else(|e| panic!("{e}"));
        let width = F::accumulator_width_for(fmt, capacity);
        let acc = Accum::new_wide(width);
        Self::build(F::new(fmt, false), capacity, width, None, acc)
    }

    fn build(
        family: F,
        capacity: u64,
        width: u32,
        aligned: Option<Source<F::Computed>>,
        acc: Accum,
    ) -> Self {
        TableEmac {
            family,
            capacity,
            width,
            acc,
            aligned,
            count: 0,
            poisoned: false,
            tile: AlignedTile::new(width),
        }
    }

    /// The format of this unit.
    pub fn format(&self) -> F::Format {
        self.family.format()
    }

    /// Register width for `k` accumulations: paper eq. (3) for fixed
    /// point and minifloats, eq. (4) for posits.
    pub fn accumulator_width_for(fmt: F::Format, k: u64) -> u32 {
        F::accumulator_width_for(fmt, k)
    }

    /// The aligned band's sweep of `biases.len()` weight rows over one
    /// activation tile, decoded once: `out[j · rows + r]` receives row
    /// `r` against column `j`. Each row is seeded from its bias's aligned
    /// word and each sum encoded straight through the family; the unit's
    /// own register and poison flag are written once, after the last row's
    /// last column — going through `set_bias` and `result()` per output
    /// measured ×0.97 samples/s and ×1.07 median latency on the
    /// benchmark's Iris-sized workload (`offline_narrow8`, 0/6 pairs).
    ///
    /// # Panics
    ///
    /// Panics when `fan_in` exceeds the unit's capacity, in release builds
    /// too: the register width, hence every sum type's exactness, rests on
    /// it, and an integer lane handed more terms than it was sized for
    /// would wrap silently.
    #[inline(always)]
    fn aligned_sweep<'a>(
        &mut self,
        word: impl Fn(u32) -> i64 + Copy,
        biases: &[u32],
        weights: &[u32],
        fan_in: usize,
        cols: impl Iterator<Item = &'a [u32]>,
        out: &mut [u32],
    ) {
        let rows = biases.len();
        assert!(
            fan_in as u64 <= self.capacity,
            "{} EMAC over capacity: {fan_in} terms, sized for {}",
            F::NAME,
            self.capacity
        );
        let (family, bias_shift) = (&self.family, self.family.bias_shift());
        let mut last = (0, false);
        self.tile.load(cols, fan_in, out.len() / rows, rows, word);
        for (r, &bias) in biases.iter().enumerate() {
            let bias = word(bias);
            let seed = ((bias >> 1) as i128) << bias_shift;
            let wrow = &weights[r * fan_in..(r + 1) * fan_in];
            self.tile.row(seed, wrow, word, |j, sum, poison| {
                last = (sum, bias & 1 != 0 || poison);
                out[j * rows + r] = match last.1 {
                    true => family.poison_bits(),
                    false => family.encode(&Accum::Small(sum)),
                };
            });
        }
        (self.acc, self.poisoned) = (Accum::Small(last.0), last.1);
    }
}

impl<F: Family> Emac for TableEmac<F> {
    fn reset(&mut self) {
        self.acc.clear();
        self.count = 0;
        self.poisoned = false;
    }

    fn set_bias(&mut self, bias: u32) {
        self.reset();
        let e = self.family.decode(bias);
        if e.is_special() {
            self.poisoned = true;
            return;
        }
        let pos = e.scale() + self.family.bias_shift();
        self.acc
            .add_shifted_u128(e.field() as u128, pos as usize, e.sign());
    }

    /// The full-width significand product goes in unnormalized:
    /// Algorithm 2's overflow renormalization (lines 8–10) is a no-op on
    /// the *value*, and the exact register makes skipping it provably
    /// lossless.
    #[inline]
    fn mac(&mut self, weight: u32, activation: u32) {
        self.count += 1;
        debug_assert!(
            self.count <= self.capacity,
            "{} EMAC over capacity",
            F::NAME
        );
        let (ew, ea) = (self.family.decode(weight), self.family.decode(activation));
        if (ew.0 | ea.0) & EmacEntry::SPECIAL_BIT != 0 {
            self.poisoned = true;
            return;
        }
        self.acc.add_shifted_u128(
            (ew.field() * ea.field()) as u128,
            (ew.scale() + ea.scale()) as usize,
            ew.sign() ^ ea.sign(),
        );
    }

    fn sweep<'a>(
        &mut self,
        biases: &[u32],
        weights: &[u32],
        fan_in: usize,
        cols: impl Iterator<Item = &'a [u32]>,
        out: &mut [u32],
    ) {
        match self.aligned {
            Some(source) => with_aligned_word!(source, word => {
                self.aligned_sweep(word, biases, weights, fan_in, cols, out)
            }),
            None => per_mac_sweep(self, biases, weights, fan_in, cols, out),
        }
    }

    fn set_macs_done(&mut self, macs: u64) {
        self.count = macs;
    }

    fn kernel(&self) -> MacKernel {
        match self.aligned {
            Some(_) => MacKernel::Aligned,
            None => MacKernel::Scalar,
        }
    }

    fn result(&self) -> u32 {
        if self.poisoned {
            return self.family.poison_bits();
        }
        self.family.encode(&self.acc)
    }

    fn macs_done(&self) -> u64 {
        self.count
    }

    fn pipeline_depth(&self) -> u32 {
        F::PIPELINE_DEPTH
    }

    fn accumulator_width(&self) -> u32 {
        self.width
    }
}
