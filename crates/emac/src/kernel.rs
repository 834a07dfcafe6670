//! The two MAC kernels, and the aligned band's loops.
//!
//! [`crate::Emac::dot_layer`] hands a unit a whole layer against a batch of
//! activation columns (patterns or operand words), and its one sweep runs
//! the [`MacKernel`] it was built on, a function of (format, capacity):
//!
//! * [`MacKernel::Aligned`] — every operand fits
//!   [`crate::table::ALIGNED_OPERAND_BITS`] bits and the eq.-(3)/(4)
//!   register fits an `i128` (the 8-bit trio, fixed point, minifloats up to
//!   binary16, posits up to `max_scale = 30`). Operands are `±(field <<
//!   scale)`, plain signed integers, so the exact sum is an integer dot
//!   product: the activation tile is loaded once per sweep into unit-owned
//!   scratch ([`AlignedTile`]), the weight rows come compiled
//!   ([`LayerPlan`]), and the loop is `acc += w · a` — no shift, no sign
//!   select, no special handling (poison is decided at compile and load) —
//!   in the [`SumLane`] the register width, or the operands, prove exact.
//! * [`MacKernel::Scalar`] — everything else, and every `new_reference()`
//!   unit: [`crate::Emac::mac`] in a loop, the definition every aligned
//!   loop is pinned against (`kernel_equivalence`, `tile_equivalence`).
//!
//! ## Four sum types: one by format, `f32` and `f64` by proof
//!
//! The register width `W` fixes a unit's **static** lane
//! ([`SumLane::for_width`]): `f64` for `W ≤ 53`, `i64` for `W ≤ 63`,
//! `i128` beyond. A float lane is exact: every product and partial sum is
//! an integer below `2^(W−1) ≤ 2^52`, hence an `f64`, and a float multiply
//! or add whose exact result is representable returns it.
//!
//! Eq. (3)/(4) sizes the register for the format's whole range; a trained
//! network's operands occupy far less. On a tile of `B ≥ 2` columns that
//! two or more rows share, each (weight row, tile) pair is checked against
//! [`SumLane::span_bound`] (one row cannot repay the tile's copy): with
//! `mw` / `ma` the OR of the row's / the tile's magnitudes, every product
//! is a multiple of `2^(lsb(mw) + lsb(ma))` below `2^(msb(mw) + msb(ma) +
//! 2)`, so every partial sum has at most `span(mw) + span(ma) + 2 +
//! ⌈log₂K⌉` significant bits: exactly an `f64` when that is ≤ 53, an `f32`
//! when ≤ 24 (and so is every operand). Per pair, a static-`f64` unit sums
//! in `f32` at ≤ 24 bits, else in `f64`; a wider unit in `f64` at ≤ 53,
//! else in its static integer lane, its **fallback**. One-row sweeps and
//! lone columns take the static lane. Sums start from zero; the seed joins
//! in `i128`, and a sum past 2^63 is read back off its fields
//! ([`exact_i128`]).
//!
//! Floats exist because baseline x86-64 has packed `mulpd` / `addpd` and
//! `mulps` / `addps` but no packed 64-bit integer multiply. The `f64` tile
//! is **interleaved**, [`LANES`] columns to a group — `lanes[(g · K + k) ·
//! 8 + l]` is operand `k` of column `8g + l`, a short last group padded
//! with zeros — so [`oct`]'s fixed-size inner array compiles to packed ops
//! without `std::simd` or `unsafe`; the `f32` copy runs sixteen columns to
//! a group in the same four registers. The integer lanes keep `i64`
//! operands column after column and run [`quad`], four scalar chains. A
//! shared tile is loaded eagerly as `f64`s with its OR; a plan holds each
//! row's OR and its values as `i64`, `f64` and `f32`, and the tile's `f32`
//! and integer copies are built only for a row the rule sends there.

use std::fmt;
use std::ops::{Add, Mul};

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

/// A lane's running sum — `i64` or `i128` over integer operands, `f64`
/// or `f32` over float ones: [`quad`] and [`oct`] are written once over it.
trait Sum: Copy + Default + Add<Output = Self> + Mul<Output = Self> {}
impl<T: Copy + Default + Add<Output = T> + Mul<Output = T>> Sum for T {}

/// Bits of an `f64` / `f32` significand, hidden bit included.
const F64_BITS: u32 = 53;
const F32_BITS: u32 = 24;

/// How an aligned-band unit holds its running sums. A unit's **static**
/// lane is a function of the eq.-(3)/(4) register width alone
/// ([`SumLane::for_width`]); the float lanes also take the (weight row,
/// activation tile) pairs of a shared tile whose [`SumLane::span_bound`]
/// admits them. See the module docs for the rule and why each is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumLane {
    /// A pair of a `W ≤ 53` unit whose operands prove 24 bits enough:
    /// `f32` sums, sixteen columns abreast. Never a static lane.
    F32,
    /// Registers up to 53 bits, or a pair whose operands prove 53 enough:
    /// `f64` sums, eight columns abreast.
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
    /// can occupy: `span(weights_or) + span(acts_or) + 2 + ⌈log₂
    /// fan_in⌉`, where each argument is the OR of one side's aligned
    /// magnitudes and `span(m) = msb(m) − lsb(m)` — 0 when either OR is 0
    /// (every product is). A pair within 53 bits sums exactly in `f64`,
    /// within 24 in `f32`, whatever the unit's register width.
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
            SumLane::F32 => "f32",
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

/// Columns to a group of the `f64` tile (the `f32` copy has twice as
/// many). Measured: the 8-bit trio and fixed⟨16,8⟩ read 3.8–4.7e9 MAC/s
/// at four `f64` lanes, 4.3–5.6e9 at eight, 4.5–5.7e9 at sixteen.
const LANES: usize = 8;

/// One layer compiled for the aligned band ([`MacKernel::Aligned`]) by
/// [`crate::Emac::compile`], then only read — as paper Fig. 1's
/// weight-stationary arrays load their weights once per model: per weight
/// row its aligned values for every lane, their magnitudes' OR (the row's
/// half of [`SumLane::span_bound`]), its seed (the bias's register image)
/// and whether a weight or the bias is special.
#[derive(Debug, Clone, Default)]
pub struct LayerPlan {
    fan_in: usize,
    /// `rows × fan_in` aligned weight values, row after row.
    ints: Vec<i64>,
    /// The same values as `f64`s and as `f32`s.
    floats: Vec<f64>,
    singles: Vec<f32>,
    /// Per row, the OR of the weights' magnitudes.
    ors: Vec<u64>,
    /// Per row, the seed and whether a weight or the bias is special.
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
        self.singles.clear();
        self.ors.clear();
        self.seeds.clear();
        let mut words = weights.into_iter();
        for (seed, special) in seeds {
            let (mut flags, start) = (special as i64, self.ints.len());
            self.ints
                .extend(aligned_values(words.by_ref().take(fan_in), &mut flags));
            let row = &self.ints[start..];
            self.floats.extend(row.iter().map(|&v| v as f64));
            self.singles.extend(row.iter().map(|&v| v as f32));
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

/// Scratch of the aligned band ([`MacKernel::Aligned`]), kept across calls
/// so a sweep does not allocate: the activation tile as plain values with a
/// poison flag per column, refilled by every [`AlignedTile::load`].
#[derive(Debug, Clone, Default)]
pub(crate) struct AlignedTile {
    /// The unit's eq.-(3)/(4) register width.
    width: u32,
    /// How the loaded tile is held.
    layout: Layout,
    /// `B × K` aligned activation values, column after column: the
    /// [`Layout::Integer`] tile, and a [`Layout::Shared`] tile's integer
    /// copy once `ints_ready`.
    acts: Vec<i64>,
    /// OR of a [`Layout::Shared`] tile's magnitudes.
    acts_or: u64,
    /// `⌈B / 8⌉ × K × 8` aligned activation values, interleaved.
    lanes: Vec<f64>,
    /// `lanes` as `f32`s, padded with zeros to an even number of groups,
    /// once `singles_ready`.
    singles: Vec<f32>,
    /// Whether `acts` / `singles` hold the shared tile too.
    ints_ready: bool,
    singles_ready: bool,
    /// Whether column `j` holds a special operand.
    poison: Vec<bool>,
}

/// How an [`AlignedTile`] holds the loaded tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Layout {
    /// `i64` values column after column: a lone column (`B = 1`), or a
    /// `W > 53` tile one row sweeps (at K = 128, B = 64 an `f64` copy and
    /// its OR cost about 5.5 µs against a row's 1.3–3 µs).
    #[default]
    Integer,
    /// `f64`s, [`LANES`] columns interleaved, with the magnitudes' OR —
    /// every other tile at `B ≥ 2`. Each row sums over it, or over the
    /// `f32` or integer copy the first row sent there builds.
    Shared,
}

/// The aligned values of a column of operand words
/// ([`crate::table::align`]'s `value << 1 | special`), every word OR-ed
/// into `flags`, whose bit 0 then says whether any operand was special
/// (specials carry value 0, so they add nothing to any sum).
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
/// leading bit sits at the exponent.
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

/// Sizes `lanes` for `batch` interleaved columns of `fan_in` operands,
/// zeroing the slots a short last group has no column for.
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
        (self.ints_ready, self.singles_ready) = (false, false);
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
                // A tile one row sweeps reads no OR: all ones fails every
                // span test.
                let mut or = if rows > 1 { 0 } else { u64::MAX };
                for (j, col) in cols.enumerate() {
                    let mut flags = 0;
                    let values = aligned_values(col, &mut flags).map(|v| {
                        if rows > 1 {
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
    /// column held a special. Returns the lane the row summed in, by the
    /// module docs' rule.
    #[inline(always)]
    pub(crate) fn row(
        &mut self,
        plan: &LayerPlan,
        r: usize,
        mut emit: impl FnMut(usize, i128, bool),
    ) -> SumLane {
        let (k, width) = (plan.fan_in, self.width);
        let (seed, poison) = plan.seeds[r];
        let emit = move |j, register: i128, poison| {
            let top = register >> (width - 1);
            debug_assert!(top == 0 || top == -1, "past the {width}-bit register");
            emit(j, register, poison)
        };
        let lane = SumLane::for_width(self.width);
        if self.layout == Layout::Shared {
            let bound = SumLane::span_bound(plan.ors[r], self.acts_or, k);
            if lane == SumLane::F64 && bound <= F32_BITS {
                if !self.singles_ready {
                    self.narrow(k);
                }
                let w = &plan.singles[r * k..][..k];
                let read = |s: f32| s as i64 as i128;
                self.sum_groups::<f32, { 2 * LANES }>(&self.singles, w, (seed, poison), read, emit);
                return SumLane::F32;
            }
            let w = &plan.floats[r * k..][..k];
            if lane == SumLane::F64 {
                let read = |s: f64| s as i64 as i128;
                self.sum_groups::<f64, LANES>(&self.lanes, w, (seed, poison), read, emit);
                return SumLane::F64;
            }
            if bound <= F64_BITS {
                self.sum_groups::<f64, LANES>(&self.lanes, w, (seed, poison), exact_i128, emit);
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
        let ints = &plan.ints[r * k..][..k];
        if lane == SumLane::I128 {
            self.quads::<i128>(seed, ints, poison, emit);
            return SumLane::I128;
        }
        self.quads::<i64>(seed, ints, poison, emit);
        SumLane::I64
    }

    /// Builds the `f32` copy of the shared tile: row `k` of group `g` is row
    /// `k` of the `f64` groups `2g` and `2g + 1`, zeros for a missing one.
    /// Out of line: inlined, it slowed one-row `f64` sweeps by ≈ 40 %.
    #[inline(never)]
    fn narrow(&mut self, k: usize) {
        let len = k * LANES;
        let groups = self.poison.len().div_ceil(2 * LANES);
        self.singles.resize(groups * 2 * len, 0.0);
        for g in 0..groups {
            let low = self.lanes[2 * g * len..][..len].as_chunks::<LANES>().0;
            let high = self.lanes.get((2 * g + 1) * len..(2 * g + 2) * len);
            let high = high.map_or(&[][..], |h| h.as_chunks::<LANES>().0);
            let zeros = std::iter::repeat(&[0.0; LANES]);
            let rows = low.iter().zip(high.iter().chain(zeros));
            let out = self.singles[2 * g * len..][..2 * len].as_chunks_mut::<{ 2 * LANES }>();
            for (out, (low, high)) in out.0.iter_mut().zip(rows) {
                for l in 0..LANES {
                    (out[l], out[LANES + l]) = (low[l] as f32, high[l] as f32);
                }
            }
        }
        self.singles_ready = true;
    }

    /// A weight row against the integer tile, the running sums held in
    /// `S`: [`quad`] in full groups of four columns, then a single-column
    /// tail (all of a lone column).
    #[inline(always)]
    fn quads<S: Sum + From<i64> + Into<i128>>(
        &self,
        seed: i128,
        w: &[i64],
        row_poison: bool,
        mut emit: impl FnMut(usize, i128, bool),
    ) {
        let k = w.len();
        let col = |j: usize| &self.acts[j * k..(j + 1) * k];
        let mut finish = |j: usize, sum: S| {
            emit(j, seed + sum.into(), row_poison || self.poison[j]);
        };
        let batch = self.poison.len();
        let mut j = 0;
        while j + 4 <= batch {
            let sums = quad::<S>(w, [col(j), col(j + 1), col(j + 2), col(j + 3)]);
            for (i, sum) in sums.into_iter().enumerate() {
                finish(j + i, sum);
            }
            j += 4;
        }
        for j in j..batch {
            let dot = w
                .iter()
                .zip(col(j))
                .fold(S::default(), |s, (&w, &a)| mac(s, w, a));
            finish(j, dot);
        }
    }

    /// A float lane's sweep of a weight row `w` over the interleaved tile
    /// `lanes`: [`oct`] per group of `N` columns, each sum (checked in debug
    /// builds to be an integer) read back by `read` and added to `seed`.
    #[inline(always)]
    fn sum_groups<T: Sum + Into<f64>, const N: usize>(
        &self,
        lanes: &[T],
        w: &[T],
        (seed, row_poison): (i128, bool),
        read: impl Fn(T) -> i128,
        mut emit: impl FnMut(usize, i128, bool),
    ) {
        // `chunks_exact` would reject `K = 0`.
        let group = |g: usize| &lanes[g * w.len() * N..(g + 1) * w.len() * N];
        for (g, poison) in self.poison.chunks(N).enumerate() {
            let sums = oct::<T, N>(w, group(g));
            for (l, (&sum, &column_poison)) in sums.iter().zip(poison).enumerate() {
                let s: f64 = sum.into();
                debug_assert!(s == s.trunc(), "float lane left the integers: {s}");
                emit(g * N + l, seed + read(sum), row_poison || column_poison);
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
fn quad<S: Sum + From<i64>>(w: &[i64], [a0, a1, a2, a3]: [&[i64]; 4]) -> [S; 4] {
    let [mut s0, mut s1, mut s2, mut s3] = [S::default(); 4];
    for ((((&w, &a0), &a1), &a2), &a3) in w.iter().zip(a0).zip(a1).zip(a2).zip(a3) {
        s0 = mac(s0, w, a0);
        s1 = mac(s1, w, a1);
        s2 = mac(s2, w, a2);
        s3 = mac(s3, w, a3);
    }
    [s0, s1, s2, s3]
}

/// `s + w · a` in the integer lane `S`, sized for the register.
#[inline(always)]
fn mac<S: Sum + From<i64>>(s: S, w: i64, a: i64) -> S {
    s + S::from(w) * S::from(a)
}

/// The float micro-kernel: `acc[l] += w[k] · a[k][l]` over one group of
/// `N` interleaved columns. The inner loop runs over a fixed-size array,
/// which is all LLVM needs to emit packed multiplies and adds (four
/// `mulpd` + four `addpd` per weight at eight `f64`s, four `mulps` + four
/// `addps` at sixteen `f32`s, on baseline x86-64, which has no packed
/// 64-bit integer multiply — the reason these lanes exist). Out of line
/// for the same reason as [`quad`].
#[inline(never)]
fn oct<T: Sum, const N: usize>(w: &[T], a: &[T]) -> [T; N] {
    let mut acc = [T::default(); N];
    for (&w, a) in w.iter().zip(a.as_chunks::<N>().0) {
        for (acc, &a) in acc.iter_mut().zip(a) {
            *acc = *acc + w * a;
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
        assert_eq!(SumLane::F32.to_string(), "f32");
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
    /// their poison flags, and the lane it took.
    fn sweep_row(tile: &mut AlignedTile, plan: &LayerPlan) -> (Vec<i128>, Vec<bool>, SumLane) {
        let (mut sums, mut poison) = (Vec::new(), Vec::new());
        let lane = tile.row(plan, 0, |j, sum, p| {
            assert_eq!(j, sums.len(), "columns arrive in order");
            sums.push(sum);
            poison.push(p);
        });
        (sums, poison, lane)
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

    /// `batch` columns of three operands `±(2^bits − 1)`: column `j` negates
    /// operand `k` where bit `k` of `j` is set, so column 0 is all positive.
    fn signed_cols(bits: u32, batch: usize) -> Vec<Vec<u32>> {
        let a = ((1i64 << bits) - 1) as i32;
        let col = |j: usize| (0..3).map(|k| [a, -a][(j >> k) & 1] as u32).collect();
        (0..batch).map(col).collect()
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
                // One full group and a one-column tail.
                let cols = signed_cols(a_bits, 9);
                let or = |bits: u32| (1u64 << bits) - 1;
                assert_eq!(SumLane::span_bound(or(26), or(a_bits), 3), bound);
                let want = reference(100, &weights, &cols, identity);
                let top = want[0] - 100;
                assert_eq!(top as f64 as i128 == top, in_f64, "f64 holds the sum");
                let mut tile = AlignedTile::new(width);
                for rows in [2, 1] {
                    load(&mut tile, &cols, 3, rows, identity);
                    for _ in 0..rows {
                        let (sums, _, lane) = sweep_row(&mut tile, &plan(100, &weights, identity));
                        let took_f64 = lane == SumLane::F64;
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
    fn f32_lane_takes_24_bits_and_f64_takes_25() {
        // K = 3 weights of 2^11 − 1 (span 10) against activations of
        // 2^11 − 1 (span 10): a bound of exactly 24, and three
        // all-positive products sum to an odd integer in [2^23, 2^24) —
        // every bit an f32 holds. Activations of 2^12 − 1 make the bound 25
        // and the sum an odd integer in [2^24, 2^25), which an f32 cannot
        // hold, so a static-f64 unit sums in f64: admitting at ≤ 25 fails
        // here. Seventeen columns leave the second f32 group short.
        let ones = |bits: u32| ((1i64 << bits) - 1) as u32;
        for width in [33u32, 53] {
            for (a_bits, bound, lane) in [(11u32, 24u32, SumLane::F32), (12, 25, SumLane::F64)] {
                let (weights, cols) = ([ones(11); 3], signed_cols(a_bits, 17));
                let or = |bits: u32| (1u64 << bits) - 1;
                assert_eq!(SumLane::span_bound(or(11), or(a_bits), 3), bound);
                let want = reference(100, &weights, &cols, identity);
                let top = want[0] - 100;
                assert_eq!((top & 1, top >> (bound - 1)), (1, 1), "{bound} bits");
                let mut tile = AlignedTile::new(width);
                // A tile one row sweeps stays on the static f64 lane.
                for (rows, lane) in [(2, lane), (1, SumLane::F64)] {
                    load(&mut tile, &cols, 3, rows, identity);
                    let (sums, _, took) = sweep_row(&mut tile, &plan(100, &weights, identity));
                    let ctx = format!("width {width} bound {bound} rows {rows}");
                    assert_eq!((took, sums), (lane, want.clone()), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn short_groups_read_zeros_in_both_float_tiles() {
        // A full tile, then narrower ones: every slot past the last column
        // reads zero in the f64 tile and in its f32 copy, never an earlier
        // tile's operand.
        let mut tile = AlignedTile::new(33);
        let cols = vec![vec![3u32; 5]; 64];
        for batch in [64usize, 2, 9, 17, 8, 64, 1 + 2 * LANES] {
            load(&mut tile, &cols[..batch], 5, 2, identity);
            let (_, _, lane) = sweep_row(&mut tile, &plan(0, &[1; 5], identity));
            assert_eq!(lane, SumLane::F32);
            let singles = tile.singles.iter().map(|&v| v as f64);
            for (values, n) in [(tile.lanes.clone(), LANES), (singles.collect(), 2 * LANES)] {
                assert_eq!(values.len(), batch.div_ceil(n) * n * 5, "B={batch}");
                for (e, &v) in values.iter().enumerate() {
                    let column = e / (5 * n) * n + e % n;
                    let want = if column < batch { 3.0 } else { 0.0 };
                    assert_eq!(v, want, "B={batch}, {n} abreast, column {column}");
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
            let (sums, poison, lane) = sweep_row(&mut tile, &plan(seed, &weights, word));
            assert_eq!(lane, SumLane::F64, "a bound of 30 bits takes f64");
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
                    let (sums, _, lane) = sweep_row(&mut tile, &plan(seed, weights, identity));
                    let ctx = format!("{order:?} B={batch} row {r}");
                    assert_eq!(lane == SumLane::F64, passes, "{ctx}: lane");
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
