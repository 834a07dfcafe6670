//! The one table-driven EMAC datapath and the [`Family`] seam.

use crate::acc::{Accum, Window, SMALL_ACC_MAX_BITS};
use crate::kernel::{self, AlignedTile};
use crate::table::{self, AlignedLut, EmacEntry, EmacLut, Tables, ALIGNED_OPERAND_BITS};
use crate::unit::{columns, Emac};
use crate::{MacKernel, UnsupportedFormat};
use std::fmt;

/// What differs between the numerical families that share the
/// table-driven datapath — the paper's Figs. 4–5 differ only in their
/// decode and round/encode stages, and so does this code. A family value
/// is the per-unit decode/encode state for one format; everything else
/// (accumulation window, row and tile kernels, kernel selection, poison
/// tracking, MAC accounting) is [`TableEmac`]'s.
///
/// All operands reach the datapath as [`EmacEntry`] words
/// `±field × 2^scale`, in a per-family operand unit chosen so that a
/// product lands at register bit `scale_w + scale_a` and a bias at
/// `scale + `[`Family::bias_shift`].
pub trait Family: Clone + fmt::Debug {
    /// The family's runtime format descriptor.
    type Format: Copy + fmt::Debug + fmt::Display;
    /// Per-element computed operand source for formats past the operand
    /// table (13–16 bits), captured by value into the kernels. Kept apart
    /// from the family state so the kernels see one straight-line decode:
    /// routing them through [`Family::decode`]'s scheme match cost the
    /// posit⟨16,1⟩ rows 10–20 % when measured.
    type Computed: Copy + fmt::Debug;
    /// Family name, used in panic messages and as the table-cache key.
    const NAME: &'static str;
    /// Pipeline depth in cycles, for the streaming latency model.
    const PIPELINE_DEPTH: u32;

    /// Whether `fmt` has an EMAC datapath at all.
    ///
    /// # Errors
    ///
    /// [`UnsupportedFormat`] naming why it does not.
    fn check_format(fmt: Self::Format) -> Result<(), UnsupportedFormat>;

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

    /// The process-wide operand tables for `fmt`.
    fn tables(fmt: Self::Format) -> &'static Tables;

    /// Decode/encode state for `fmt`. `tables: false` is the
    /// `new_reference()` flavour: bit-field decode only.
    fn new(fmt: Self::Format, tables: bool) -> Self;

    /// The format this state was built for.
    fn format(&self) -> Self::Format;

    /// Decodes one pattern into its fused operand (any format width).
    fn decode(&self, bits: u32) -> EmacEntry;

    /// The computed operand source, when the format is in the
    /// 13–16-bit band and this state may use it.
    fn computed(&self) -> Option<Self::Computed>;

    /// One computed operand; must equal [`Family::decode`].
    fn computed_entry(source: Self::Computed, bits: u32) -> EmacEntry;

    /// Register position of the operand unit: a bias operand's
    /// significand LSB lands at `scale + bias_shift()`.
    fn bias_shift(&self) -> u32;

    /// Rounds the accumulator window once and encodes it (`None` = zero).
    fn encode(&self, window: Option<Window>) -> u32;

    /// The pattern a poisoned accumulation reads out as (NaR / NaN).
    fn poison_bits(&self) -> u32;
}

/// Where decoded operands come from on the fast paths: a per-pattern
/// table `T` (`n ≤ 12`) or the family's computed source (13–16 bits).
/// Both produce identical words.
#[derive(Debug)]
enum Source<T: 'static, C> {
    Table(&'static T),
    Computed(C),
}

// Not derived: a derive would demand `T: Copy` for the borrowed table.
impl<T, C: Copy> Clone for Source<T, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T, C: Copy> Copy for Source<T, C> {}

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
                let $word = move |bits: u32| t.word(bits);
                $body
            }
            Source::Computed(c) => {
                let $word = move |bits: u32| table::align(F::computed_entry(c, bits));
                $body
            }
        }
    };
}

/// The exact multiply-and-accumulate unit shared by every table-driven
/// family: decode → exact multiply → shifted accumulate → round once
/// (paper §III), with the decode and round/encode stages supplied by a
/// [`Family`]. [`crate::PositEmac`] and [`crate::FloatEmac`] are this
/// unit at `F = `[`crate::Posit`] / [`crate::Float`].
///
/// Three table/width optimizations make the software model run at
/// MACs/sec rates resembling the hardware story rather than a bit-by-bit
/// simulator; all are bit-identical to the reference datapath (enforced
/// by the `fast_path_equivalence` tests and available directly via
/// [`TableEmac::new_reference`]):
///
/// * **Fused operands** — formats up to 12 bits replace the bit-field
///   decode by one lookup in the process-wide [`EmacLut`] (the software
///   analogue of template-based posit multiplication), and 13–16-bit
///   formats compute the same operand word per element.
/// * **Aligned integers** — when every operand `±(field << scale)` fits
///   the aligned word and the register fits an `i128`, rows, tiles and
///   layers decode their operands once ([`AlignedLut`], or
///   [`table::align`] of the computed operand) and accumulate a plain
///   `i64`/`i128` integer dot product ([`MacKernel::Aligned`]).
/// * **Native accumulator** — whenever the eq.-(3)/(4) register fits 127
///   bits (true for every 5–8-bit configuration in Table II, and for
///   posit⟨16,1⟩: 121 bits at k = 128) it is a native `i128` and each
///   MAC is one shift and one add; registers up to 255 bits (every
///   other 13–16-bit §IV format) use the two-word [`crate::Acc256`];
///   only wider formats fall back to the limb-based `WideInt`.
#[derive(Debug, Clone)]
pub struct TableEmac<F: Family> {
    family: F,
    capacity: u64,
    /// The eq.-(3)/(4) register width for `capacity` accumulations.
    width: u32,
    acc: Accum,
    /// Fused decode + front-end operands driving the one-lookup MAC loop.
    operands: Option<Source<EmacLut, F::Computed>>,
    /// Aligned operands, when every operand of the format fits the
    /// aligned word and the register is an `i128`
    /// ([`MacKernel::Aligned`]).
    aligned: Option<Source<AlignedLut, F::Computed>>,
    count: u64,
    poisoned: bool,
    /// Gathered weight-operand scratch for the fused tile, retained
    /// across [`Emac::dot_tile`] calls so a tile sweep over a layer does
    /// not allocate per weight row. Never semantic: cleared and refilled
    /// on each gather-tile call.
    gather: Vec<EmacEntry>,
    /// Decoded activation tile and weight row of the aligned band,
    /// retained likewise.
    tile: AlignedTile,
}

impl<F: Family> TableEmac<F> {
    /// Creates a unit for `fmt` sized for `capacity` accumulations, using
    /// the fused-operand and native-accumulator fast paths when the
    /// format qualifies.
    ///
    /// # Panics
    ///
    /// Panics if the format has no EMAC datapath (posits with
    /// `es > n − 3`: no significand bits). Use [`TableEmac::try_new`] to
    /// validate a format without panicking.
    pub fn new(fmt: F::Format, capacity: u64) -> Self {
        Self::try_new(fmt, capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TableEmac::new`] returning a typed error instead of panicking
    /// for formats without an EMAC datapath — admission-time validation
    /// for serving registries and other untrusted callers. Every valid
    /// minifloat format has one, so `FloatEmac::try_new` never fails.
    ///
    /// # Errors
    ///
    /// [`UnsupportedFormat`] when the family rejects the format.
    pub fn try_new(fmt: F::Format, capacity: u64) -> Result<Self, UnsupportedFormat> {
        F::check_format(fmt)?;
        let family = F::new(fmt, true);
        let tables = F::tables(fmt);
        let operands = match &tables.operands {
            Some(t) => Some(Source::Table(t)),
            None => family.computed().map(Source::Computed),
        };
        let width = F::accumulator_width_for(fmt, capacity.max(1));
        let aligned = match &tables.aligned {
            _ if width > SMALL_ACC_MAX_BITS || !F::operands_align(fmt) => None,
            Some(t) => Some(Source::Table(t)),
            None => family.computed().map(Source::Computed),
        };
        let acc = Accum::new(width);
        Ok(Self::build(family, capacity, width, operands, aligned, acc))
    }

    /// Creates a unit on the pre-LUT reference datapath: bit-field decode
    /// per MAC and the limb-based `WideInt` register, regardless of
    /// format width. Kept for differential testing and for benchmarking
    /// the fast paths against it.
    ///
    /// # Panics
    ///
    /// Panics if the format has no EMAC datapath, as for
    /// [`TableEmac::new`].
    pub fn new_reference(fmt: F::Format, capacity: u64) -> Self {
        F::check_format(fmt).unwrap_or_else(|e| panic!("{e}"));
        let width = F::accumulator_width_for(fmt, capacity.max(1));
        let acc = Accum::new_wide(width);
        Self::build(F::new(fmt, false), capacity, width, None, None, acc)
    }

    fn build(
        family: F,
        capacity: u64,
        width: u32,
        operands: Option<Source<EmacLut, F::Computed>>,
        aligned: Option<Source<AlignedLut, F::Computed>>,
        acc: Accum,
    ) -> Self {
        TableEmac {
            family,
            capacity: capacity.max(1),
            width,
            acc,
            operands,
            aligned,
            count: 0,
            poisoned: false,
            gather: Vec::new(),
            tile: AlignedTile::default(),
        }
    }

    /// Caps the slice-level kernel this unit may select — a bench/test
    /// knob for comparing kernels on one format. [`MacKernel::Aligned`]
    /// (the default cap) changes nothing; [`MacKernel::BatchedFused`] drops
    /// the aligned operands; [`MacKernel::Scalar`] additionally drops
    /// the fused operands, so [`Emac::dot_slice`] loops the scalar
    /// datapath. The decode tables and the accumulator window are
    /// untouched, so results stay bit-identical under any cap.
    pub fn with_kernel_cap(mut self, cap: MacKernel) -> Self {
        if cap < MacKernel::Aligned {
            self.aligned = None;
        }
        if cap < MacKernel::BatchedFused {
            self.operands = None;
        }
        self
    }

    /// True when this unit runs the fused operands + native (`i128` or
    /// two-word 256-bit) accumulator fast path.
    pub fn is_fast_path(&self) -> bool {
        self.operands.is_some() && self.acc.is_native()
    }

    /// The format of this unit.
    pub fn format(&self) -> F::Format {
        self.family.format()
    }

    /// Register width for `k` accumulations: paper eq. (3) for
    /// minifloats, eq. (4) for posits.
    pub fn accumulator_width_for(fmt: F::Format, k: u64) -> u32 {
        F::accumulator_width_for(fmt, k)
    }

    /// One operand: fused table / computed source when present, the
    /// family's decode (tables or bit fields) otherwise.
    #[inline]
    fn entry(&self, bits: u32) -> EmacEntry {
        match self.operands {
            Some(Source::Table(t)) => t.entry(bits),
            Some(Source::Computed(c)) => F::computed_entry(c, bits),
            None => self.family.decode(bits),
        }
    }

    /// The [`Emac::mac`] datapath without the `macs_done` bookkeeping —
    /// shared by the scalar entry point and [`Emac::dot_slice`]'s scalar
    /// kernel (which advances the counter once per slice). The full-width
    /// significand product goes in unnormalized: Algorithm 2's overflow
    /// renormalization (lines 8–10) is a no-op on the *value*, and the
    /// exact register makes skipping it provably lossless.
    #[inline]
    fn mac_uncounted(&mut self, weight: u32, activation: u32) {
        let (ew, ea) = (self.entry(weight), self.entry(activation));
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

    /// Reads one finished tile column out through the unit, leaving the
    /// unit in that column's state.
    fn finish_column(&mut self, acc: Accum, poisoned: bool) -> u32 {
        self.acc = acc;
        self.poisoned = poisoned;
        self.result()
    }

    /// The gather tile for one entry source: gathers the weight row's
    /// fused operands once into the retained scratch, then streams the
    /// columns through [`kernel::fused_tile`].
    #[inline(always)]
    fn gather_tile<E: Fn(u32) -> EmacEntry>(
        &mut self,
        entry: E,
        weights: &[u32],
        cols: &[&[u32]],
        out: &mut [u32],
    ) {
        let (seed, seed_poisoned) = (self.acc.clone(), self.poisoned);
        let mut wents = std::mem::take(&mut self.gather);
        wents.clear();
        wents.extend(weights.iter().map(|&w| entry(w)));
        kernel::fused_tile(entry, &seed, &wents, cols, |j, acc, special| {
            out[j] = self.finish_column(acc, seed_poisoned || special);
        });
        self.gather = wents;
    }

    /// The aligned band's sweep of `biases.len()` weight rows over one
    /// activation tile, decoded once: `out[j · rows + r]` receives row
    /// `r` against column `j`, and the unit is left in the last row's
    /// last column's state.
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
        debug_assert!(
            fan_in as u64 <= self.capacity,
            "{} EMAC over capacity",
            F::NAME
        );
        let width = self.width;
        let mut tile = std::mem::take(&mut self.tile);
        tile.load(cols, word);
        for (r, &bias) in biases.iter().enumerate() {
            self.set_bias(bias);
            let (&Accum::Small(seed), seed_poisoned) = (&self.acc, self.poisoned) else {
                unreachable!("the aligned band requires the i128 window")
            };
            let wrow = &weights[r * fan_in..(r + 1) * fan_in];
            tile.row(seed, width, wrow, word, |j, sum, poison| {
                out[j * rows + r] = self.finish_column(Accum::Small(sum), seed_poisoned || poison);
            });
        }
        self.tile = tile;
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
        let e = self.entry(bias);
        if e.is_special() {
            self.poisoned = true;
            return;
        }
        let pos = e.scale() + self.family.bias_shift();
        self.acc
            .add_shifted_u128(e.field() as u128, pos as usize, e.sign());
    }

    #[inline]
    fn mac(&mut self, weight: u32, activation: u32) {
        self.count += 1;
        debug_assert!(
            self.count <= self.capacity,
            "{} EMAC over capacity",
            F::NAME
        );
        self.mac_uncounted(weight, activation);
    }

    fn dot_slice(&mut self, weights: &[u32], activations: &[u32]) {
        assert_eq!(
            weights.len(),
            activations.len(),
            "dot_slice: weight/activation length mismatch"
        );
        self.count += weights.len() as u64;
        debug_assert!(
            self.count <= self.capacity,
            "{} EMAC over capacity",
            F::NAME
        );
        let special = match (self.aligned, self.operands, &mut self.acc) {
            // One column of the aligned tile, seeded with the running
            // register.
            (Some(source), _, Accum::Small(acc)) => with_aligned_word!(source, word => {
                let mut special = false;
                self.tile.load(std::iter::once(activations), word);
                self.tile
                    .row(*acc, self.width, weights, word, |_, sum, poison| {
                        *acc = sum;
                        special = poison;
                    });
                special
            }),
            // Gated on a native window exactly like `kernel()`, so a
            // fast-table unit whose register spilled to WideInt runs (and
            // reports) Scalar.
            (_, Some(Source::Table(t)), acc) if acc.is_native() => {
                kernel::fused_row(move |b| t.entry(b), acc, weights, activations)
            }
            (_, Some(Source::Computed(c)), acc) if acc.is_native() => {
                kernel::fused_row(move |b| F::computed_entry(c, b), acc, weights, activations)
            }
            // Scalar kernel: the reference band loops the per-MAC datapath.
            _ => {
                for (&w, &a) in weights.iter().zip(activations) {
                    self.mac_uncounted(w, a);
                }
                false
            }
        };
        self.poisoned |= special;
    }

    fn tile_body(&mut self, bias: u32, weights: &[u32], cols: &[&[u32]], out: &mut [u32]) -> bool {
        debug_assert!(
            weights.len() as u64 <= self.capacity,
            "{} EMAC over capacity",
            F::NAME
        );
        // Same gates as `kernel()`: the aligned band decodes row and tile
        // once each, the fused band gathers the weight operands once.
        match (self.aligned, self.operands) {
            (Some(source), _) => {
                let cols = cols.iter().copied();
                with_aligned_word!(source, word => {
                    self.aligned_sweep(word, &[bias], weights, weights.len(), cols, out)
                });
            }
            (_, Some(ops)) if self.acc.is_native() => {
                self.set_bias(bias);
                match ops {
                    Source::Table(t) => self.gather_tile(move |b| t.entry(b), weights, cols, out),
                    Source::Computed(c) => {
                        self.gather_tile(move |b| F::computed_entry(c, b), weights, cols, out)
                    }
                }
            }
            _ => return false,
        }
        true
    }

    fn layer_body(
        &mut self,
        biases: &[u32],
        weights: &[u32],
        activations: &[u32],
        out: &mut [u32],
        (fan_in, batch): (usize, usize),
    ) -> bool {
        let Some(source) = self.aligned else {
            return false;
        };
        let cols = columns(activations, fan_in, batch);
        with_aligned_word!(source, word => {
            self.aligned_sweep(word, biases, weights, fan_in, cols, out)
        });
        true
    }

    fn set_macs_done(&mut self, macs: u64) {
        self.count = macs;
    }

    fn kernel(&self) -> MacKernel {
        if self.aligned.is_some() {
            MacKernel::Aligned
        } else if self.operands.is_some() && self.acc.is_native() {
            MacKernel::BatchedFused
        } else {
            MacKernel::Scalar
        }
    }

    fn result(&self) -> u32 {
        if self.poisoned {
            return self.family.poison_bits();
        }
        self.family.encode(self.acc.window())
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
