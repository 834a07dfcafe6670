//! The two MAC kernels, and the aligned band's loops.
//!
//! The paper's performance story is the exact EMAC dot product
//! (eqs. 3–4); a software model that dispatches one [`crate::Emac::mac`]
//! call per weight pays per-element dispatch, per-element decode and a
//! per-element wide accumulate. [`crate::Emac::dot_layer`] instead hands
//! the unit a whole layer against a batch of activation columns (patterns
//! or operand words), and the unit's one sweep runs the [`MacKernel`] it
//! was built on — a function of (format, capacity), decided **once** at
//! construction; nothing selects it afterwards:
//!
//! * [`MacKernel::Aligned`] — every operand of the format fits
//!   [`crate::table::ALIGNED_OPERAND_BITS`] bits and the eq.-(3)/(4)
//!   register fits the `i128` window (all three 8-bit families, fixed
//!   point at every width, minifloats up to binary16, posits up to
//!   `max_scale = 30` — every es ≤ 1 format through posit⟨16,1⟩, es = 2
//!   through n = 9). Operands are `±field × 2^scale` with a
//!   non-negative scale, so `±(field << scale)` is a plain signed integer
//!   and the exact sum is an integer dot product: the activation tile —
//!   operand words ([`crate::table::align`]'s `value << 1 | special`),
//!   handed over by the previous layer's word epilogue or decoded from
//!   patterns — is loaded once per sweep into unit-owned scratch
//!   ([`AlignedTile`]), the weight rows come compiled ([`LayerPlan`]:
//!   decoded once per model that keeps its plans, once per call
//!   otherwise), and the loop is `acc += w · a` — no shift, no sign
//!   select, no special handling (poison is decided at compile and load
//!   time) — with the sums held in the
//!   [`SumLane`] the register width, or failing that the operands
//!   themselves, prove exact, below.
//! * [`MacKernel::Scalar`] — everything else (posits past
//!   `max_scale = 30`, six-bit-exponent minifloats, formats past 16 bits,
//!   registers past 127 bits, and every `new_reference()` unit): the
//!   sweep is [`crate::Emac::mac`] in a loop (for a word activation, the
//!   same step with the activation already aligned) — one
//!   [`crate::Family::decode`] per operand into the
//!   [`crate::Accum`] register — which is also the definition every
//!   aligned loop is pinned against.
//!
//! Both accumulate the same exact integer terms, so the band can never
//! change a result bit — pinned by the `kernel_equivalence` and
//! `tile_equivalence` test suites, exhaustively at 8 bits.
//!
//! ## Three sum types: one by format, `f64` by proof
//!
//! The register width `W` of eq. (3)/(4) — itself a function of (format,
//! capacity) — fixes a unit's **static** lane ([`SumLane::for_width`]):
//! `f64` for `W ≤ 53`, `i64` for `W ≤ 63`, `i128` beyond. The static `f64`
//! lane is exact, not approximate:
//!
//! 1. `W` bits hold a sign, the bias and `K` products of the two largest
//!    operands, so every operand is an integer below `2^26`;
//! 2. hence the seed, every product and every partial sum is an integer of
//!    magnitude below `2^(W−1) ≤ 2^52`, and every such integer is an `f64`;
//! 3. an `f64` multiply or add (fused or not) whose exact result is
//!    representable returns it — the same integer the `i64` lane computes.
//!
//! A wider unit's static lane is only its **fallback**. Eq. (3)/(4) sizes
//! the register for `K` products of the format's largest operands down to
//! its smallest, but the operands a trained network carries occupy far
//! less, so on a tile of `B ≥ 2` columns that two or more weight rows
//! share (a one-row sweep cannot repay the tile's `f64` copy), each
//! (weight row, activation tile) pair is checked against what its
//! operands prove ([`SumLane::span_bound`]): with `mw` /
//! `ma` the OR of the row's / the tile's aligned magnitudes and `span(m) =
//! msb(m) − lsb(m)`, the pair sums in `f64` when `span(mw) + span(ma) + 2
//! + ⌈log₂K⌉ ≤ 53` (or either OR is 0), in the fallback otherwise. Every
//! product is a multiple of `2^(lsb(mw) + lsb(ma))` and below
//! `2^(msb(mw) + msb(ma) + 2)`, so every partial sum is such a multiple
//! below `2^(msb(mw) + msb(ma) + 2 + ⌈log₂K⌉)`: at most 53 significant
//! bits at an exponent far inside the `f64` range, hence exactly an `f64`
//! — points 2–3 above, scaled by a power of two, so no operand is shifted
//! down first. Every aligned operand has at most 32 significant bits, so
//! `v as f64` is exact too. The seed joins in `i128` after the sum, which
//! is read back off its fields ([`exact_i128`]: the 53-bit significand
//! placed by the exponent) — never `sum as i128`, a compiler-rt call.
//!
//! What `f64` buys: baseline x86-64 has no packed 64-bit integer multiply
//! but does have `mulpd` / `addpd`. The `f64` lane therefore lays its
//! tile out **interleaved**, [`LANES`] columns abreast —
//! `lanes[(g · K + k) · 8 + l]` is operand `k` of column `8g + l`, the
//! last group's missing columns zero and never emitted — so one weight
//! meets eight activations in adjacent memory and [`oct`]'s fixed-size
//! inner array compiles to packed ops without `std::simd` or `unsafe`.
//! The integer lanes keep `i64` operands column after column and run
//! [`quad`], four scalar chains, plus a one-column tail (all of a lone
//! column, `B = 1`). Every tile at `B ≥ 2` but a `W > 53` one a single row
//! sweeps is loaded **eagerly** into the interleaved layout, OR-ing the
//! magnitudes in the same pass; a plan holds each row's OR and both
//! copies of its values, so the lane rule costs one comparison per row,
//! and the tile's integer copy (from the `f64`s) is built only for a row
//! the rule refuses.

use std::fmt;

/// Which kernel a unit's sweeps run, decided once at construction from
/// (format, capacity): formats whose operands all fit the aligned word,
/// on an `i128` register, take [`MacKernel::Aligned`]; everything else —
/// and every `new_reference()` unit — loops the per-MAC datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacKernel {
    /// The per-MAC datapath in a loop: one decode per operand, any
    /// accumulator. The reference band.
    Scalar,
    /// Aligned-integer kernel: weight rows and the activation tile
    /// decoded once to `±(field << scale)`, then a plain integer dot
    /// product in the unit's [`SumLane`].
    Aligned,
}

impl MacKernel {
    /// Stable snake_case name, used in bench row names and reports.
    pub fn name(self) -> &'static str {
        match self {
            MacKernel::Aligned => "aligned",
            MacKernel::Scalar => "scalar",
        }
    }
}

impl fmt::Display for MacKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The running sum of the aligned band's integer lanes: an `i64` when the
/// eq.-(3)/(4) register is at most 63 bits wide, an `i128` otherwise.
trait AlignedSum: Copy {
    /// Narrows the seed (a row's bias image).
    fn from_register(register: i128) -> Self;
    /// `self + w · a`, exactly.
    fn mac(self, w: i64, a: i64) -> Self;
    /// Widens back to the `i128` accumulation window.
    fn register(self) -> i128;
}

impl AlignedSum for i64 {
    #[inline(always)]
    fn from_register(register: i128) -> Self {
        register as i64
    }
    #[inline(always)]
    fn mac(self, w: i64, a: i64) -> Self {
        self + w * a
    }
    #[inline(always)]
    fn register(self) -> i128 {
        self as i128
    }
}

impl AlignedSum for i128 {
    #[inline(always)]
    fn from_register(register: i128) -> Self {
        register
    }
    #[inline(always)]
    fn mac(self, w: i64, a: i64) -> Self {
        self + w as i128 * a as i128
    }
    #[inline(always)]
    fn register(self) -> i128 {
        self
    }
}

/// Bits of an `f64` significand, hidden bit included: every integer of at
/// most this many bits is an `f64`.
const F64_BITS: u32 = 53;

/// How an aligned-band unit holds its running sums. A unit's **static**
/// lane is a function of the eq.-(3)/(4) register width alone, hence of
/// (format, capacity) ([`SumLane::for_width`]); on a `W > 53` unit it is
/// the **fallback**, and each (weight row, activation tile) pair of a
/// multi-row sweep at `B ≥ 2` whose [`SumLane::span_bound`] is ≤ 53 bits
/// sums in `f64` instead. See the module docs for why each is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumLane {
    /// Registers up to 53 bits, or a pair whose operands prove 53 enough:
    /// `f64` sums over an interleaved tile, eight columns abreast in
    /// packed multiplies and adds.
    F64,
    /// Registers up to 63 bits: `i64` sums, four columns abreast.
    I64,
    /// Wider registers (to the aligned band's 127 bits): `i128` sums.
    I128,
}

impl SumLane {
    /// The static lane of a unit whose eq.-(3)/(4) register is `width`
    /// bits.
    pub fn for_width(width: u32) -> Self {
        match width {
            0..=F64_BITS => SumLane::F64,
            54..=63 => SumLane::I64,
            _ => SumLane::I128,
        }
    }

    /// The significant bits a (weight row, activation tile) pair's sums
    /// can occupy — from the lowest bit every product shares to the
    /// highest any partial sum reaches: `span(weights_or) + span(acts_or) +
    /// 2 + ⌈log₂ fan_in⌉`, where
    /// each argument is the OR of one side's aligned magnitudes and
    /// `span(m) = msb(m) − lsb(m)` — 0 when either OR is 0 (every product
    /// is). A pair whose bound is at most 53 sums exactly in `f64`
    /// whatever the unit's register width.
    pub fn span_bound(weights_or: u64, acts_or: u64, fan_in: usize) -> u32 {
        if weights_or == 0 || acts_or == 0 {
            return 0;
        }
        let span = |m: u64| 63 - m.leading_zeros() - m.trailing_zeros();
        span(weights_or) + span(acts_or) + 2 + crate::ceil_log2(fan_in as u64)
    }

    /// Stable lower-case name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SumLane::F64 => "f64",
            SumLane::I64 => "i64",
            SumLane::I128 => "i128",
        }
    }
}

impl fmt::Display for SumLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Columns the `f64` lane runs abreast, and the interleave factor of its
/// tile. Measured, not tunable: through `dot_layer` at 16 × 128 × 64 the
/// 8-bit trio and fixed⟨16,8⟩ read 3.8–4.7e9 MAC/s at four lanes,
/// 4.3–5.6e9 at eight and 4.5–5.7e9 at sixteen — no better than eight.
const LANES: usize = 8;

/// One layer compiled for the aligned band ([`MacKernel::Aligned`]): per
/// weight row its aligned values as the sweep reads them — `i64` for the
/// integer lanes, `f64` for the `f64` lane — the OR of their magnitudes
/// (the row's static half of [`SumLane::span_bound`]) and whether a weight
/// or the bias is special; per row the bias's image in the register, the
/// seed. Built from a layer's patterns by [`crate::Emac::compile`] in the
/// unit's format, and from then on only read: paper Fig. 1's
/// weight-stationary arrays load their weights once per model, and so can
/// a model that keeps its plans. The scalar band never reads one.
#[derive(Debug, Clone, Default)]
pub struct LayerPlan {
    fan_in: usize,
    /// `rows × fan_in` aligned weight values, row after row.
    ints: Vec<i64>,
    /// The same values as `f64`s.
    floats: Vec<f64>,
    /// Per row, the OR of the weights' magnitudes.
    ors: Vec<u64>,
    /// Per row, the bias's register image and whether a weight or the bias
    /// is special.
    seeds: Vec<(i128, bool)>,
}

impl LayerPlan {
    /// Refills the plan: one row per `(seed, bias special)` of `seeds`,
    /// each `fan_in` of the operand words ([`crate::table::align`]'s
    /// layout) `weights` yields. The buffers are kept, so a plan refilled
    /// per call allocates only while it grows.
    pub(crate) fn fill(
        &mut self,
        fan_in: usize,
        seeds: impl IntoIterator<Item = (i128, bool)>,
        weights: impl IntoIterator<Item = i64>,
    ) {
        self.fan_in = fan_in;
        self.ints.clear();
        self.floats.clear();
        self.ors.clear();
        self.seeds.clear();
        let mut words = weights.into_iter();
        for (seed, special) in seeds {
            let (mut flags, start) = (special as i64, self.ints.len());
            self.ints
                .extend(aligned_values(words.by_ref().take(fan_in), &mut flags));
            let row = &self.ints[start..];
            self.floats.extend(row.iter().map(|&v| v as f64));
            self.ors
                .push(row.iter().fold(0, |m, &v| m | v.unsigned_abs()));
            self.seeds.push((seed, flags & 1 != 0));
        }
    }

    /// Weight rows in the plan.
    pub(crate) fn rows(&self) -> usize {
        self.seeds.len()
    }

    /// Weights per row.
    pub(crate) fn fan_in(&self) -> usize {
        self.fan_in
    }
}

/// Scratch of the aligned band ([`MacKernel::Aligned`]), retained by the
/// unit across calls so a sweep does not allocate: the activation tile as
/// plain values with one poison flag per column. Never semantic — refilled
/// by every [`AlignedTile::load`]; the weights come from a [`LayerPlan`].
///
/// A load fixes the tile's [`Layout`] from the unit's static [`SumLane`],
/// the batch and the rows that will share the tile.
#[derive(Debug, Clone, Default)]
pub(crate) struct AlignedTile {
    /// The unit's eq.-(3)/(4) register width: picks the static
    /// [`SumLane`].
    width: u32,
    /// How the loaded tile is held.
    layout: Layout,
    /// `B × K` aligned activation values, column after column: the
    /// [`Layout::Integer`] tile, and a [`Layout::Shared`] tile's integer
    /// copy once `ints_ready`.
    acts: Vec<i64>,
    /// OR of the loaded tile's magnitudes ([`Layout::Shared`]): its side of
    /// [`SumLane::span_bound`].
    acts_or: u64,
    /// `⌈B / 8⌉ × K × 8` aligned activation values, interleaved.
    lanes: Vec<f64>,
    /// Whether `acts` holds the [`Layout::Shared`] tile too: cleared by
    /// every load, set by the first row the lane rule sends to integers.
    ints_ready: bool,
    /// Whether column `j` holds a special operand.
    poison: Vec<bool>,
}

/// How an [`AlignedTile`] holds the loaded tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Layout {
    /// `i64` values column after column: a lone column (`B = 1`), or a
    /// `W > 53` tile one row sweeps — the one-row sweep cannot repay an
    /// `f64` copy (at K = 128, B = 64 the OR and copy cost about 5.5 µs
    /// against a row's 1.3–3 µs).
    #[default]
    Integer,
    /// `f64`s, [`LANES`] columns interleaved, past 53 bits with the
    /// magnitudes' OR taken in the same pass — every other tile at `B ≥ 2`.
    /// A row sums over it when the lane rule admits the pair, else over
    /// the integer copy the first such row builds.
    Shared,
}

/// The aligned values of a column of operand words
/// ([`crate::table::align`]'s `value << 1 | special`), in order; every
/// word is OR-ed into `flags`, whose bit 0 afterwards says whether any
/// operand was special. Specials carry value 0, so they add nothing to any
/// sum.
#[inline(always)]
fn aligned_values<'a>(
    words: impl IntoIterator<Item = i64> + 'a,
    flags: &'a mut i64,
) -> impl Iterator<Item = i64> + 'a {
    words.into_iter().map(move |w| {
        *flags |= w;
        w >> 1
    })
}

/// An exact `f64`-lane sum — an integer below `2^127` — as an `i128`,
/// read off its fields: the 53-bit significand (hidden bit set unless the
/// sum is ±0), top-aligned in the `u128` and shifted down until its
/// leading bit sits at the exponent. `sum as i128` would be exact too, but
/// it is a compiler-rt call, not an instruction.
#[inline(always)]
fn exact_i128(sum: f64) -> i128 {
    let bits = sum.to_bits();
    let field = ((bits >> 52) & 0x7ff) as u32;
    let significand = (bits << 11) | ((field != 0) as u64) << 63;
    let shift = (1023 + 127 - field as i32).min(127) as u32;
    let magnitude = (((significand as u128) << 64) >> shift) as i128;
    let negate = -((bits >> 63) as i128);
    (magnitude ^ negate) - negate
}

/// Sizes `lanes` for `batch` interleaved columns of `fan_in` operands and
/// zeroes the slots a short last group has no column for, so they read as
/// zeros, not as an earlier tile's operands.
fn size_lanes(lanes: &mut Vec<f64>, batch: usize, fan_in: usize) {
    let group_len = fan_in * LANES;
    lanes.resize(batch.div_ceil(LANES) * group_len, 0.0);
    let filled = batch % LANES;
    if filled > 0 {
        let last = lanes.len() - group_len;
        for slots in lanes[last..].chunks_exact_mut(LANES) {
            slots[filled..].fill(0.0);
        }
    }
}

/// Writes column `j`'s `fan_in` operands into its slots of the interleaved
/// layout.
#[inline(always)]
fn put_column(lanes: &mut [f64], fan_in: usize, j: usize, values: impl Iterator<Item = f64>) {
    let group_len = fan_in * LANES;
    let group = &mut lanes[j / LANES * group_len..][..group_len];
    for (slots, v) in group.chunks_exact_mut(LANES).zip(values) {
        slots[j % LANES] = v;
    }
}

impl AlignedTile {
    /// Scratch for a unit whose eq.-(3)/(4) register is `width` bits.
    pub(crate) fn new(width: u32) -> Self {
        AlignedTile {
            width,
            ..AlignedTile::default()
        }
    }

    /// Loads the `batch` columns of operand words `cols` yields, each
    /// `fan_in` long, once for each of the `rows` weight rows that follow
    /// — straight into the layout those rows will read.
    #[inline(always)]
    pub(crate) fn load<C: IntoIterator<Item = i64>>(
        &mut self,
        cols: impl Iterator<Item = C>,
        fan_in: usize,
        batch: usize,
        rows: usize,
    ) {
        self.poison.clear();
        self.ints_ready = false;
        let f64_static = SumLane::for_width(self.width) == SumLane::F64;
        self.layout = match batch > 1 && (rows > 1 || f64_static) {
            true => Layout::Shared,
            false => Layout::Integer,
        };
        match self.layout {
            Layout::Integer => {
                self.acts.clear();
                for col in cols {
                    let mut flags = 0;
                    self.acts.extend(aligned_values(col, &mut flags));
                    self.poison.push(flags & 1 != 0);
                }
            }
            Layout::Shared => {
                size_lanes(&mut self.lanes, batch, fan_in);
                // The lane rule reads the OR only past 53 bits.
                let mut or = 0;
                for (j, col) in cols.enumerate() {
                    let mut flags = 0;
                    let values = aligned_values(col, &mut flags).map(|v| {
                        if !f64_static {
                            or |= v.unsigned_abs();
                        }
                        v as f64
                    });
                    put_column(&mut self.lanes, fan_in, j, values);
                    self.poison.push(flags & 1 != 0);
                }
                self.acts_or = or;
            }
        }
        debug_assert_eq!(self.poison.len(), batch);
    }

    /// Row `r` of `plan` against the loaded tile: `emit(j, register,
    /// poisoned)` receives, in column order, column `j`'s exact sum
    /// `seed + Σ w[k] · a[j][k]` and whether the row, its bias or the
    /// column held a special. Returns the lane the row summed in.
    ///
    /// The one lane rule: over a [`Layout::Shared`] tile, `f64` when the
    /// unit's register is at most 53 bits (the seed inside the sum) or the
    /// pair's [`SumLane::span_bound`] is (the seed added in `i128` to the
    /// sum read back by [`exact_i128`]); otherwise, and over an integer
    /// tile, the register's integer lane — `i128` past 63 bits, else `i64`.
    #[inline(always)]
    pub(crate) fn row(
        &mut self,
        plan: &LayerPlan,
        r: usize,
        emit: impl FnMut(usize, i128, bool),
    ) -> SumLane {
        let k = plan.fan_in;
        let (seed, poison) = plan.seeds[r];
        let lane = SumLane::for_width(self.width);
        if self.layout == Layout::Shared {
            let floats = &plan.floats[r * k..(r + 1) * k];
            if lane == SumLane::F64 {
                self.sum_groups(seed as f64, floats, poison, |s| s as i64 as i128, emit);
                return SumLane::F64;
            }
            if SumLane::span_bound(plan.ors[r], self.acts_or, k) <= F64_BITS {
                self.sum_groups(0.0, floats, poison, |s| seed + exact_i128(s), emit);
                return SumLane::F64;
            }
            if !self.ints_ready {
                self.acts.clear();
                for j in 0..self.poison.len() {
                    let group = &self.lanes[j / LANES * k * LANES..][..k * LANES];
                    let column = group.chunks_exact(LANES).map(|slots| slots[j % LANES]);
                    self.acts.extend(column.map(|a| a as i64));
                }
                self.ints_ready = true;
            }
        }
        let ints = &plan.ints[r * k..(r + 1) * k];
        if lane == SumLane::I128 {
            self.quads::<i128>(seed, ints, poison, emit);
            return SumLane::I128;
        }
        self.quads::<i64>(seed, ints, poison, emit);
        SumLane::I64
    }

    /// Hands one finished sum to `emit`, checking it against the register
    /// it was sized for.
    #[inline(always)]
    fn finish(
        width: u32,
        register: i128,
        j: usize,
        poison: bool,
        emit: &mut impl FnMut(usize, i128, bool),
    ) {
        debug_assert!(
            register >> (width - 1) == 0 || register >> (width - 1) == -1,
            "aligned sum exceeds the eq.-(3)/(4) register of {width} bits"
        );
        emit(j, register, poison);
    }

    /// A weight row against the integer tile, the running sums held in
    /// `S`: [`quad`] in full groups of four columns, then a single-column
    /// tail (all of a lone column). Nothing here handles specials — poison
    /// was decided at compile and load.
    #[inline(always)]
    fn quads<S: AlignedSum>(
        &self,
        seed: i128,
        w: &[i64],
        row_poison: bool,
        mut emit: impl FnMut(usize, i128, bool),
    ) {
        let k = w.len();
        let col = |j: usize| &self.acts[j * k..(j + 1) * k];
        let seed = S::from_register(seed);
        let batch = self.poison.len();
        let mut j = 0;
        while j + 4 <= batch {
            let sums = quad(seed, w, [col(j), col(j + 1), col(j + 2), col(j + 3)]);
            for (i, sum) in sums.into_iter().enumerate() {
                let poison = row_poison || self.poison[j + i];
                Self::finish(self.width, sum.register(), j + i, poison, &mut emit);
            }
            j += 4;
        }
        for j in j..batch {
            let sum = w.iter().zip(col(j)).fold(seed, |s, (&w, &a)| s.mac(w, a));
            let poison = row_poison || self.poison[j];
            Self::finish(self.width, sum.register(), j, poison, &mut emit);
        }
    }

    /// The `f64` lane's sweep of a weight row `w` over the interleaved
    /// tile: [`oct`] from `seed` per group of [`LANES`] columns, each sum
    /// (checked in debug builds to be an integer) turned into its register
    /// by `read`. Exact by the module docs' argument.
    #[inline(always)]
    fn sum_groups(
        &self,
        seed: f64,
        w: &[f64],
        row_poison: bool,
        read: impl Fn(f64) -> i128,
        mut emit: impl FnMut(usize, i128, bool),
    ) {
        // `chunks_exact` would reject `K = 0`.
        let group = |g: usize| &self.lanes[g * w.len() * LANES..(g + 1) * w.len() * LANES];
        for (g, poison) in self.poison.chunks(LANES).enumerate() {
            let sums = oct(seed, w, group(g));
            for (l, (&sum, &column_poison)) in sums.iter().zip(poison).enumerate() {
                debug_assert!(sum == sum.trunc(), "f64 lane left the integers: {sum}");
                let poison = row_poison || column_poison;
                Self::finish(self.width, read(sum), g * LANES + l, poison, &mut emit);
            }
        }
    }
}

/// The integer micro-kernel: `acc[j] += w[k] · a[j][k]`, four columns
/// abreast — four independent chains in registers, each decoded weight
/// loaded once for all four. Kept out of line as a leaf, so the chains
/// have the register file to themselves: inlined into the units' sweeps
/// (next to bias seeding and round/encode) the allocator spilled them in
/// some instantiations and not others, moving whole-model throughput by
/// 20–30 % from build to build.
#[inline(never)]
fn quad<S: AlignedSum>(seed: S, w: &[i64], [a0, a1, a2, a3]: [&[i64]; 4]) -> [S; 4] {
    let [mut s0, mut s1, mut s2, mut s3] = [seed; 4];
    for ((((&w, &a0), &a1), &a2), &a3) in w.iter().zip(a0).zip(a1).zip(a2).zip(a3) {
        s0 = s0.mac(w, a0);
        s1 = s1.mac(w, a1);
        s2 = s2.mac(w, a2);
        s3 = s3.mac(w, a3);
    }
    [s0, s1, s2, s3]
}

/// The `f64` micro-kernel: `acc[l] += w[k] · a[k][l]` over one group of
/// [`LANES`] interleaved columns. The inner loop runs over a fixed-size
/// array, which is all LLVM needs to emit packed multiplies and adds
/// (`mulpd` / `addpd` on baseline x86-64, which has no packed 64-bit
/// integer multiply — the reason this lane exists). Out of line for the
/// same reason as [`quad`].
#[inline(never)]
fn oct(seed: f64, w: &[f64], a: &[f64]) -> [f64; LANES] {
    let mut acc = [seed; LANES];
    for (&w, a) in w.iter().zip(a.chunks_exact(LANES)) {
        for (acc, &a) in acc.iter_mut().zip(a) {
            *acc += w * a;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(MacKernel::Aligned.name(), "aligned");
        assert_eq!(MacKernel::Scalar.to_string(), "scalar");
        let lanes = [1, 53, 54, 63, 64, 127].map(|w| SumLane::for_width(w).name());
        assert_eq!(lanes, ["f64", "f64", "i64", "i64", "i128", "i128"]);
    }

    /// The pattern the test words decode as special.
    const SPECIAL: u32 = i32::MIN as u32;

    /// Identity-decoded words: value `b as i32`, shifted over the special
    /// flag; the special carries value 0.
    fn identity(b: u32) -> i64 {
        match b {
            SPECIAL => 1,
            b => (b as i32 as i64) << 1,
        }
    }

    /// Loads pattern columns through `word`, as the pattern-fed sweep does.
    fn load(
        tile: &mut AlignedTile,
        cols: &[Vec<u32>],
        fan_in: usize,
        rows: usize,
        word: impl Fn(u32) -> i64 + Copy,
    ) {
        let words = cols.iter().map(|c| c.iter().map(move |&b| word(b)));
        tile.load(words, fan_in, cols.len(), rows);
    }

    /// A one-row plan of `weights` under `seed`, compiled through `word`.
    fn plan(seed: i128, weights: &[u32], word: impl Fn(u32) -> i64) -> LayerPlan {
        let mut plan = LayerPlan::default();
        plan.fill(
            weights.len(),
            [(seed, false)],
            weights.iter().map(|&b| word(b)),
        );
        plan
    }

    /// Row 0 of `plan` against the loaded tile: its sums in column order,
    /// their poison flags, and whether the row took the `f64` lane.
    fn sweep_row(tile: &mut AlignedTile, plan: &LayerPlan) -> (Vec<i128>, Vec<bool>, bool) {
        let (mut sums, mut poison) = (Vec::new(), Vec::new());
        let lane = tile.row(plan, 0, |j, sum, p| {
            assert_eq!(j, sums.len(), "columns arrive in order");
            sums.push(sum);
            poison.push(p);
        });
        (sums, poison, lane == SumLane::F64)
    }

    /// `seed + Σ value(w) · value(a)` per column, in `i128`.
    fn reference(
        seed: i128,
        weights: &[u32],
        cols: &[Vec<u32>],
        word: impl Fn(u32) -> i64,
    ) -> Vec<i128> {
        let value = |b: u32| (word(b) >> 1) as i128;
        let dot = |c: &[u32]| -> i128 {
            weights
                .iter()
                .zip(c)
                .map(|(&w, &a)| value(w) * value(a))
                .sum()
        };
        cols.iter().map(|c| seed + dot(c)).collect()
    }

    #[test]
    fn aligned_tile_sums_exactly_on_both_sum_widths() {
        let word = identity;
        let weights = [3u32, -5i32 as u32, 7];
        let pool: [[u32; 3]; 6] = [
            [1, 1, 1],
            [2, 0, -4i32 as u32],
            [0; 3],
            [SPECIAL, 1, 1],
            [5, 4, 3],
            [-1i32 as u32; 3],
        ];
        // 53 / 54 bits straddle the static f64 / i64 lanes, 63 / 64 the
        // i64 / i128 ones (operands this small pass the span rule on every
        // width at B ≥ 2; the fallbacks are pinned by the span tests
        // below); 1 column is the lone-column tail, 2 the smallest tile,
        // 7 / 8 / 9 straddle one group of the f64 lane and two of the
        // integer lanes' quads, 64 is the benchmark's chunk.
        for width in [40u32, 53, 54, 63, 64, 100] {
            for batch in [1usize, 2, 7, 8, 9, 64] {
                // The pool in rotation, scaled per column so no two
                // columns of a tile share a sum; the special stays as is.
                let cols: Vec<Vec<u32>> = (0..batch)
                    .map(|j| {
                        let scale = |b: u32| match b {
                            SPECIAL => SPECIAL,
                            b => (b as i32 * (j as i32 + 1)) as u32,
                        };
                        pool[j % 6].map(scale).to_vec()
                    })
                    .collect();
                let want = reference(100, &weights, &cols, word);
                let mut tile = AlignedTile::new(width);
                load(&mut tile, &cols, 3, 2, word);
                let (got, poison, _) = sweep_row(&mut tile, &plan(100, &weights, word));
                assert_eq!(got, want, "width {width} B={batch}");
                let special: Vec<bool> = (0..batch).map(|j| j % 6 == 3).collect();
                assert_eq!(poison, special, "width {width} B={batch}");
                // A special weight, or a special bias, poisons every column
                // of its row, and padding is never emitted.
                let mut special_bias = plan(0, &weights, word);
                special_bias.seeds[0].1 = true;
                for plan in [plan(0, &[1, SPECIAL, 1], word), special_bias] {
                    assert_eq!(sweep_row(&mut tile, &plan).1, vec![true; batch]);
                }
                // A narrower tile after a wider one sees none of it.
                let half = batch.div_ceil(2);
                load(&mut tile, &cols[..half], 3, 1, word);
                let (again, _, _) = sweep_row(&mut tile, &plan(100, &weights, word));
                assert_eq!(again, want[..half], "width {width} B={batch} reload");
            }
        }
    }

    #[test]
    fn f64_lane_is_exact_up_to_the_register_bound() {
        // The largest operands a 53-bit register admits at K = 2: two
        // products of (2^25 − 1)² and a seed of the same size fill 52
        // magnitude bits; every partial sum must come back as the integer.
        let word = |b: u32| (b as i32 as i64) << 1;
        let max = (1i32 << 25) - 1;
        for (w, a) in [(max, max), (-max, max), (max, -max)] {
            let weights = [w as u32; 2];
            let cols = vec![vec![a as u32; 2]; 9];
            let mut tile = AlignedTile::new(53);
            load(&mut tile, &cols, 2, 1, word);
            let seed = w as i128 * a as i128;
            tile.row(&plan(seed, &weights, word), 0, |j, sum, _| {
                assert_eq!(sum, 3 * seed, "column {j}");
            });
        }
        // Alternating signs cancel to the seed exactly.
        let weights = [max as u32, max as u32];
        let cols = vec![vec![max as u32, -max as u32]; 8];
        let mut tile = AlignedTile::new(53);
        load(&mut tile, &cols, 2, 1, word);
        tile.row(&plan(-7, &weights, word), 0, |_, sum, _| {
            assert_eq!(sum, -7)
        });
    }

    #[test]
    fn span_rule_takes_f64_at_53_bits_and_falls_back_at_54() {
        // K = 3 (⌈log₂K⌉ = 2) weights of 2^26 − 1 (span 25) against
        // activations of 2^25 − 1 (span 24): a bound of exactly 53, so
        // f64; activations of 2^26 − 1 make it 54, so the fallback — and
        // rightly: three all-positive products sum to an odd integer above
        // 2^53, which an f64 cannot hold. Dropping the `+ 2` or the
        // `⌈log₂K⌉` from the bound sends that pair to f64 and fails here.
        // Two rows share each tile; a tile swept by one row only never
        // takes f64.
        let ones = |bits: u32| ((1i64 << bits) - 1) as u32;
        for width in [57u32, 100] {
            for (a_bits, bound, in_f64) in [(25u32, 53u32, true), (26, 54, false)] {
                let weights = [ones(26); 3];
                // Column j negates operand k where bit k of j is set: nine
                // distinct columns, one full group and a one-column tail,
                // column 0 all positive.
                let cols: Vec<Vec<u32>> = (0..9)
                    .map(|j| {
                        let a = ones(a_bits) as i32;
                        (0..3).map(|k| [a, -a][(j >> k) & 1] as u32).collect()
                    })
                    .collect();
                let or = |bits: u32| (1u64 << bits) - 1;
                assert_eq!(SumLane::span_bound(or(26), or(a_bits), 3), bound);
                let want = reference(100, &weights, &cols, identity);
                let top = want[0] - 100;
                assert_eq!(top as f64 as i128 == top, in_f64, "f64 holds the sum");
                let mut tile = AlignedTile::new(width);
                for rows in [2, 1] {
                    load(&mut tile, &cols, 3, rows, identity);
                    for _ in 0..rows {
                        let (sums, _, took_f64) =
                            sweep_row(&mut tile, &plan(100, &weights, identity));
                        let (ctx, shared) =
                            (format!("width {width} bound {bound} rows {rows}"), rows > 1);
                        assert_eq!(took_f64, in_f64 && shared, "{ctx}: lane");
                        let layout = [Layout::Integer, Layout::Shared][shared as usize];
                        assert_eq!(tile.layout, layout, "{ctx}: layout");
                        let copied = shared && !in_f64;
                        assert_eq!(tile.ints_ready, copied, "{ctx}: integer copy");
                        assert_eq!(sums, want, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn span_rule_reads_back_sums_past_2_to_63() {
        // Patterns carry a 16-bit significand and a shift: odd 13-bit
        // significands at << 40 (weights) and << 40 / 41 (activations)
        // keep the spans at 12 and 13 bits (bound 30) while products reach
        // 2^107 and sums pass 2^63 — the register value comes back only
        // through the f64's exponent.
        let word = |b: u32| match b {
            SPECIAL => 1,
            b => ((b as u16 as i16 as i64) << (b >> 16)) << 1,
        };
        let pat = |sig: i16, shift: u32| shift << 16 | sig as u16 as u32;
        let sigs = [8191i16, -8001, 6333, -4097, 8189, 1, -8191, 4095];
        let weights: Vec<u32> = sigs.iter().map(|&s| pat(s, 40)).collect();
        let mut cols: Vec<Vec<u32>> = (0..9)
            .map(|j| {
                let shift = |k: usize| 40 + ((j + k) % 2) as u32;
                (0..8).map(|k| pat(sigs[(j + k) % 8], shift(k))).collect()
            })
            .collect();
        // A special in the padded group poisons its column only.
        cols[8][3] = SPECIAL;
        let mut tile = AlignedTile::new(127);
        load(&mut tile, &cols, 8, 2, word);
        let seed = -(1i128 << 90) + 12_345;
        // The second row reads the same interleaved tile.
        for weights in [weights.clone(), weights.iter().rev().copied().collect()] {
            let (sums, poison, took_f64) = sweep_row(&mut tile, &plan(seed, &weights, word));
            assert!(took_f64, "a bound of 30 bits takes f64");
            assert_eq!(sums, reference(seed, &weights, &cols, word));
            assert!(sums.iter().all(|s| (s - seed).abs() > i64::MAX as i128));
            assert_eq!(poison, [vec![false; 8], vec![true]].concat());
        }
    }

    #[test]
    fn span_rule_mixes_lanes_within_one_sweep() {
        // Activations of span 21, K = 4: a small-weight row (span 2,
        // bound 27) passes, a row holding 2^30 (span 30, bound 55) falls
        // back. In both orders each row takes its own lane, the integer
        // copy is built by the first row that falls back and then reused,
        // and a reload — at a different lsb and width — starts without it.
        // Only the last column holds the tile's lsb, so the tile's OR must
        // cover every column.
        let pass = [3u32, -5i32 as u32, 7, 1];
        let fail = [1u32, 1 << 30, -3i32 as u32, 2];
        let tile_of = |batch: usize, scale: i32| -> Vec<Vec<u32>> {
            let pool = [1, 3, 1 << 20, -(1 << 19) - 1, 5, -7, 0, 9, 11];
            let scale = |j: usize| if j + 1 == batch { scale } else { 2 * scale };
            (0..batch)
                .map(|j| {
                    (0..4)
                        .map(|k| (pool[(j + k) % 9] * scale(j)) as u32)
                        .collect()
                })
                .collect()
        };
        for order in [[true, false, true], [false, true, false]] {
            let mut tile = AlignedTile::new(100);
            for (batch, scale) in [(9usize, 1), (5, 8)] {
                let cols = tile_of(batch, scale);
                load(&mut tile, &cols, 4, 3, identity);
                assert!(!tile.ints_ready, "a load drops the integer copy");
                let mut built = false;
                for (r, &passes) in order.iter().enumerate() {
                    let weights = if passes { &pass } else { &fail };
                    let seed = r as i128 - 1;
                    let (sums, _, took_f64) = sweep_row(&mut tile, &plan(seed, weights, identity));
                    let ctx = format!("{order:?} B={batch} row {r}");
                    assert_eq!(took_f64, passes, "{ctx}: lane");
                    built |= !passes;
                    assert_eq!(tile.ints_ready, built, "{ctx}: integer copy");
                    assert_eq!(sums, reference(seed, weights, &cols, identity), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn exact_i128_reads_every_f64_integer_back() {
        let mut cases = vec![0.0, -0.0, 1.0, -1.0, 3.0, (1u64 << 53) as f64];
        for e in [52, 53, 62, 63, 64, 100, 125, 126] {
            let top = 2f64.powi(e);
            cases.extend([top, -top, top * 1.5, -top * (1.0 + f64::EPSILON)]);
        }
        for sum in cases {
            let want = sum as i128;
            assert_eq!(exact_i128(sum), want, "{sum:e}");
        }
    }
}
