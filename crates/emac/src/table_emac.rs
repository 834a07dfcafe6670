//! The one EMAC datapath and the [`Family`] seam.

use crate::acc::{Accum, SMALL_ACC_MAX_BITS};
use crate::kernel::{AlignedTile, LayerPlan};
use crate::table::{self, AlignedLut, EmacEntry, QuantizeLut, RoundLut, ALIGNED_OPERAND_BITS};
use crate::unit::{layer_shape, Emac};
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
    /// Pipeline depth in cycles, for the streaming latency model and
    /// `dp_hw`'s netlist of the unit (every stage but the readout streams).
    const PIPELINE_DEPTH: u32;

    /// Whether `fmt` has an EMAC datapath for `capacity ≥ 1`
    /// accumulations — the rule the units and `dp_hw`'s netlists share.
    ///
    /// # Errors
    ///
    /// [`UnsupportedFormat`] naming why it does not.
    fn check_format(fmt: Self::Format, capacity: u64) -> Result<(), UnsupportedFormat>;

    /// Exact accumulator width for `k` accumulations (paper eqs. 3–4): the
    /// one definition, read by the units and by `dp_hw`'s netlists.
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

    /// The operand word ([`table::align`]) of the register read out once —
    /// `align(decode(encode(acc)))`, from the family's one rounding step
    /// without the pattern in between. For formats whose operands align.
    fn round_word(&self, acc: &Accum) -> i64;

    /// The operand word of `v` quantised to `fmt` —
    /// `align(decode(q))` of the pattern `q` the `f32` quantiser yields
    /// (posit `from_f32`, minifloat `from_f32_saturating`, fixed point's
    /// `from_f32`), from the same rounding step. For formats whose
    /// operands align.
    fn word_from_f32(fmt: Self::Format, v: f32) -> i64;
}

/// What a sweep reads per (sample, operand) and writes per (sample, row):
/// a pattern (`u32`) or an operand word (`i64`, [`table::align`]'s
/// `value << 1 | special`) — patterns where bits enter or leave a model,
/// words between its layers. The operand half says how an activation
/// joins a sum, the readout half how a register leaves one.
pub trait Readout: Copy {
    /// This activation as its aligned operand word, given the sweep's
    /// pattern decode `word`: a pattern is decoded, a word passes through.
    fn to_word(self, word: impl Fn(u32) -> i64) -> i64;

    /// The scalar band's step, `weight × self` onto `unit`'s register:
    /// [`crate::Emac::mac`] for a pattern; for a word the same exact
    /// product with the activation already aligned, which only a unit
    /// that [`TableEmac::takes_words`] may be handed.
    fn step<F: Family>(self, unit: &mut TableEmac<F>, weight: u32);

    /// `acc` read out once by `family`, or the poison when `poisoned`.
    fn read<F: Family>(family: &F, acc: &Accum, poisoned: bool) -> Self;

    /// The readout whose pattern is `bits`, in the format whose operand
    /// table is `table` — how a tabulated format's sweep reads out.
    fn of_pattern(bits: u32, table: &AlignedLut) -> Self;
}

impl Readout for u32 {
    #[inline(always)]
    fn to_word(self, word: impl Fn(u32) -> i64) -> i64 {
        word(self)
    }

    #[inline(always)]
    fn step<F: Family>(self, unit: &mut TableEmac<F>, weight: u32) {
        unit.mac(weight, self);
    }

    #[inline(always)]
    fn read<F: Family>(family: &F, acc: &Accum, poisoned: bool) -> u32 {
        match poisoned {
            true => family.poison_bits(),
            false => family.encode(acc),
        }
    }

    #[inline(always)]
    fn of_pattern(bits: u32, _: &AlignedLut) -> u32 {
        bits
    }
}

/// The computed formats' word comes from the family's rounding core
/// ([`Family::round_word`]), which saves their decode. A tabulated
/// format's word is its operand table's word of the pattern
/// ([`Readout::of_pattern`]), looked up in its [`RoundLut`] when it has
/// one and encoded otherwise — chosen once per sweep. Per output, pinned
/// on one x86-64 Xeon core: posit⟨8,0⟩ 3.0–5.3 ns by table against
/// 8.2–8.8 for `encode` then the table word and 11.5–14.9 for
/// `round_word`; float⟨4,3⟩ 3.0 against 5.2–7.8 and 4.9–7.5.
impl Readout for i64 {
    #[inline(always)]
    fn to_word(self, _: impl Fn(u32) -> i64) -> i64 {
        self
    }

    #[inline(always)]
    fn step<F: Family>(self, unit: &mut TableEmac<F>, weight: u32) {
        unit.mac_word(weight, self);
    }

    #[inline(always)]
    fn read<F: Family>(family: &F, acc: &Accum, poisoned: bool) -> i64 {
        match poisoned {
            true => table::align(EmacEntry::SPECIAL),
            false => family.round_word(acc),
        }
    }

    #[inline(always)]
    fn of_pattern(bits: u32, table: &AlignedLut) -> i64 {
        table.word(bits)
    }
}

/// Where the aligned band's operand words come from: a per-pattern table
/// (`n ≤ 12`, with the format's rounding table when it has one) or the
/// family's computed source. Both produce identical words.
#[derive(Debug, Clone, Copy)]
enum Source<C> {
    Table(&'static AlignedLut, Option<&'static RoundLut>),
    Computed(C),
}

/// Evaluates `$body` with `$word` bound to the aligned decode of `$source`
/// — value and special flag in one word ([`table::align`]) — and `$read`
/// to the readout of a finished register, `(family, sum, poisoned) → O`,
/// both as closures monomorphized per source, so the decode loops see one
/// straight-line lookup and each output one readout: a single closure
/// matching on the source was left out of line and called per element when
/// measured. For use inside `impl<F: Family> TableEmac<F>`.
macro_rules! with_aligned_word {
    ($source:expr, $word:ident, $read:ident => $body:expr) => {
        match $source {
            Source::Table(t, Some(round)) => {
                let ($word, pattern) = (t.decoder(), round.rounder());
                let $read = move |family: &F, sum: i128, poisoned: bool| {
                    let bits = match poisoned {
                        true => family.poison_bits(),
                        false => pattern(sum as i64),
                    };
                    Readout::of_pattern(bits, t)
                };
                $body
            }
            Source::Table(t, None) => {
                let $word = t.decoder();
                let $read = move |family: &F, sum: i128, poisoned: bool| {
                    Readout::of_pattern(u32::read(family, &Accum::Small(sum), poisoned), t)
                };
                $body
            }
            Source::Computed(c) => {
                let $word = move |bits: u32| F::aligned_word(c, bits);
                let $read = |family: &F, sum: i128, poisoned: bool| {
                    Readout::read(family, &Accum::Small(sum), poisoned)
                };
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
///   fixed point), a sweep reads its weights compiled ([`LayerPlan`]),
///   decodes its activation tile once ([`AlignedLut`], or
///   [`Family::aligned_word`]) and accumulates a plain integer dot product
///   in the [`crate::SumLane`] the register width, or the operands' span,
///   proves exact (the `kernel` module's docs); per-MAC calls run the
///   reference datapath on the same `i128`.
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
    /// Whether the format's operands align and the unit has an aligned
    /// decode for them — the band rule without its capacity half
    /// ([`TableEmac::takes_words`]).
    words: bool,
    /// The format's [`QuantizeLut`], when it has one.
    quantizer: Option<&'static QuantizeLut>,
    count: u64,
    poisoned: bool,
    /// Decoded activation tile of the aligned band, and the plan a sweep
    /// without one compiles (boxed: a unit is moved whole), retained
    /// across sweeps. Never semantic: refilled on each sweep.
    tile: AlignedTile,
    transient: Option<Box<LayerPlan>>,
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
        let source = match F::tables(fmt) {
            _ if !F::operands_align(fmt) => None,
            Some(t) => {
                let encode = |r: i64| family.encode(&Accum::Small(r.into()));
                Some(Source::Table(t, t.rounding(width, encode)))
            }
            None => family.computed().map(Source::Computed),
        };
        let quantizer = F::tables(fmt).and_then(|t| t.quantizer(|v| F::word_from_f32(fmt, v)));
        let unit = Self::build(family, capacity, width, source, Accum::new(width));
        Ok(TableEmac { quantizer, ..unit })
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

    /// A unit around `family` whose aligned operands, if any, come from
    /// `source`: it takes words whenever there is one, and runs the aligned
    /// band when the register fits the `i128` too.
    fn build(
        family: F,
        capacity: u64,
        width: u32,
        source: Option<Source<F::Computed>>,
        acc: Accum,
    ) -> Self {
        TableEmac {
            family,
            capacity,
            width,
            acc,
            aligned: source.filter(|_| width <= SMALL_ACC_MAX_BITS),
            words: source.is_some(),
            quantizer: None,
            count: 0,
            poisoned: false,
            tile: AlignedTile::new(width),
            transient: None,
        }
    }

    /// Whether layers of this unit's format hand each other operand words
    /// (`i64` activations and readouts of [`Emac::dot_layer`]) rather than
    /// patterns: the format's operands align and the unit can decode them
    /// to words — the aligned band's own test without its capacity half, so
    /// a unit whose register outgrew the `i128` still takes and yields
    /// words, on its scalar band.
    /// False for formats whose operands do not align (posit⟨16,2⟩, formats
    /// past 16 bits other than fixed point) and for `new_reference()`
    /// units, which stay on patterns.
    pub fn takes_words(&self) -> bool {
        self.words
    }

    /// Whether this unit's aligned sweeps read every sum out through the
    /// format's [`RoundLut`] — one load instead of [`Family::encode`] —
    /// rather than the family's rounding: a ≤ 8-bit format with an operand
    /// table whose register is at most 63 bits and whose rounding
    /// tabulates ([`RoundLut::build`]'s check). In practice the ≤ 8-bit
    /// posits and minifloats; never fixed point, a 13–16-bit format or a
    /// `new_reference()` unit.
    pub fn rounds_by_table(&self) -> bool {
        matches!(self.aligned, Some(Source::Table(_, Some(_))))
    }

    /// Whether [`TableEmac::quantize_words`] reads the format's
    /// [`QuantizeLut`]: the ≤ 8-bit posits and minifloats whose operands
    /// align; never fixed point, a wider format or a `new_reference()` unit.
    pub fn quantizes_by_table(&self) -> bool {
        self.quantizer.is_some()
    }

    /// Appends the operand word of every element of `xs` quantised,
    /// `align(decode(quantize(x)))` ([`Family::word_from_f32`]), to `out`:
    /// a model's words start here, with no pattern in between: one
    /// [`QuantizeLut`] read per element when the unit
    /// [`TableEmac::quantizes_by_table`], else the family's rounding, in a
    /// plain loop with the table or format in a local, as the pattern
    /// quantiser is. (Quantising inside the tile load measured slower:
    /// posit⟨8,0⟩'s first layer 1.23 µs per sample against 0.13 + 0.75 in
    /// two passes.)
    pub fn quantize_words(&self, xs: &[f32], out: &mut Vec<i64>) {
        fn fill(out: &mut [i64], xs: &[f32], word: impl Fn(f32) -> i64) {
            for (slot, &v) in out.iter_mut().zip(xs) {
                *slot = word(v);
            }
        }
        let (start, fmt) = (out.len(), self.format());
        out.resize(start + xs.len(), 0);
        match self.quantizer {
            Some(lut) => fill(&mut out[start..], xs, lut.quantizer()),
            None => fill(&mut out[start..], xs, |v| F::word_from_f32(fmt, v)),
        }
    }

    /// [`Emac::mac`] with the activation as an operand word: the same
    /// exact product, `field_w · |a| << scale_w` with `|a| = field_a <<
    /// scale_a` already aligned — the scalar band's step inside a model of
    /// words.
    #[inline]
    fn mac_word(&mut self, weight: u32, activation: i64) {
        self.count += 1;
        debug_assert!(self.words, "{} unit does not take words", F::NAME);
        debug_assert!(
            self.count <= self.capacity,
            "{} EMAC over capacity",
            F::NAME
        );
        let ew = self.family.decode(weight);
        if ew.is_special() || activation & 1 != 0 {
            self.poisoned = true;
            return;
        }
        let a = activation >> 1;
        self.acc.add_shifted_u128(
            ew.field() as u128 * a.unsigned_abs() as u128,
            ew.scale() as usize,
            ew.sign() ^ (a < 0),
        );
    }

    /// The format of this unit.
    pub fn format(&self) -> F::Format {
        self.family.format()
    }

    /// The one sweep under [`Emac::dot_plan`] and [`Emac::dot_tile`], for
    /// an already validated, non-empty shape: `biases.len()` rows of
    /// `fan_in` weights against the activation columns `cols` yields (each
    /// `fan_in` long, patterns or words), `out[j · rows + r]` receiving row
    /// `r` against column `j` read out as `O`. The aligned band reads the
    /// weights from `plan`, or from a plan it compiles for this call when
    /// there is none; the scalar band reads the patterns. Leaves the unit
    /// in the last row's last column's state with [`Emac::macs_done`] at
    /// `K × B`.
    ///
    /// # Panics
    ///
    /// Panics when the fan-in exceeds the unit's capacity, on both bands
    /// and in release builds too: the register width, hence every sum
    /// type's exactness, rests on it, and an integer lane handed more terms
    /// than it was sized for would wrap silently.
    fn sweep<'a, A: Readout + 'a, O: Readout>(
        &mut self,
        plan: Option<&LayerPlan>,
        biases: &[u32],
        weights: &[u32],
        fan_in: usize,
        cols: impl Iterator<Item = &'a [A]>,
        out: &mut [O],
    ) {
        assert!(
            fan_in as u64 <= self.capacity,
            "{} EMAC over capacity: {fan_in} terms, sized for {}",
            F::NAME,
            self.capacity
        );
        let rows = biases.len();
        let batch = out.len() / rows;
        let shape = |p: &LayerPlan| (p.rows(), p.fan_in()) == (rows, fan_in);
        assert!(plan.is_none_or(shape), "dot_plan: plan of another shape");
        match self.aligned {
            Some(source) => with_aligned_word!(source, word, read => {
                let transient = plan.is_none().then(|| {
                    let mut transient = self.transient.take().unwrap_or_default();
                    self.fill(&mut transient, word, biases, weights);
                    transient
                });
                let cols = cols.map(move |col| col.iter().map(move |&a| a.to_word(word)));
                let plan = plan.or(transient.as_deref()).expect("given or compiled");
                self.aligned_sweep(read, plan, cols, out);
                self.transient = transient.or(self.transient.take());
            }),
            None => {
                for (col, outs) in cols.zip(out.chunks_exact_mut(rows)) {
                    for (r, (&bias, slot)) in biases.iter().zip(outs).enumerate() {
                        self.set_bias(bias);
                        for (&w, &a) in weights[r * fan_in..][..fan_in].iter().zip(col) {
                            a.step(self, w);
                        }
                        *slot = O::read(&self.family, &self.acc, self.poisoned);
                    }
                }
            }
        }
        self.count = (fan_in * batch) as u64;
    }

    /// Fills `plan` with the layer of biases `b` and row-major weights `w`
    /// compiled through the aligned decode `word`, each row seeded from its
    /// bias's word.
    fn fill(&self, plan: &mut LayerPlan, word: impl Fn(u32) -> i64, b: &[u32], w: &[u32]) {
        let shift = self.family.bias_shift();
        let seed = |b: i64| (((b >> 1) as i128) << shift, b & 1 != 0);
        let fan_in = w.len().checked_div(b.len()).unwrap_or(0);
        let seeds = b.iter().map(|&b| seed(word(b)));
        plan.fill(fan_in, seeds, w.iter().map(|&w| word(w)));
    }

    /// The aligned band's sweep of `plan`'s weight rows over one activation
    /// tile of operand words, loaded once: `out[j · rows + r]` receives row
    /// `r` against column `j`, each sum read out straight by `read` — the
    /// format's [`RoundLut`], or the family ([`Readout`]), chosen once per
    /// sweep; the unit's own register and poison flag are
    /// written once, after the last row's last column — going through
    /// `set_bias` and `result()` per output measured ×0.97 samples/s and
    /// ×1.07 median latency on the benchmark's Iris-sized workload
    /// (`offline_narrow8`, 0/6 pairs).
    #[inline(always)]
    fn aligned_sweep<C: IntoIterator<Item = i64>, O: Readout>(
        &mut self,
        read: impl Fn(&F, i128, bool) -> O,
        plan: &LayerPlan,
        cols: impl Iterator<Item = C>,
        out: &mut [O],
    ) {
        let rows = plan.rows();
        let family = &self.family;
        let mut last = (0, false);
        self.tile.load(cols, plan.fan_in(), out.len() / rows, rows);
        for r in 0..rows {
            self.tile.row(plan, r, |j, sum, poison| {
                last = (sum, poison);
                out[j * rows + r] = read(family, sum, poison);
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

    /// Decodes through [`Family::decode`], whose aligned word every
    /// aligned decode equals.
    fn compile(&self, biases: &[u32], weights: &[u32]) -> Option<LayerPlan> {
        self.aligned?;
        let word = |b| table::align(self.family.decode(b));
        let mut plan = LayerPlan::default();
        self.fill(&mut plan, word, biases, weights);
        Some(plan)
    }

    fn dot_plan<A: Readout, O: Readout>(
        &mut self,
        plan: Option<&LayerPlan>,
        biases: &[u32],
        weights: &[u32],
        acts: &[A],
        out: &mut [O],
    ) {
        let Some((fan_in, batch)) = layer_shape(biases.len(), weights.len(), acts.len(), out.len())
        else {
            return;
        };
        // `chunks_exact` would reject `fan_in = 0`.
        let cols = (0..batch).map(|j| &acts[j * fan_in..(j + 1) * fan_in]);
        self.sweep(plan, biases, weights, fan_in, cols, out);
    }

    fn dot_tile(&mut self, bias: u32, weights: &[u32], cols: &[&[u32]], out: &mut [u32]) {
        assert_eq!(
            cols.len(),
            out.len(),
            "dot_tile: column/output length mismatch"
        );
        for col in cols {
            assert_eq!(
                col.len(),
                weights.len(),
                "dot_tile: column/weight length mismatch"
            );
        }
        if !cols.is_empty() {
            let (fan_in, cols) = (weights.len(), cols.iter().copied());
            self.sweep(None, &[bias], weights, fan_in, cols, out);
        }
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
