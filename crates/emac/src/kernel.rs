//! Slice-, tile- and layer-level MAC kernels: the unit of work moves from
//! one MAC to one dot-product row, to one row against a batch, to one
//! whole layer against a batch.
//!
//! The paper's performance story is the exact EMAC dot product
//! (eqs. 3–4); a software model that dispatches one [`crate::Emac::mac`]
//! call per weight pays per-element dispatch, per-element table lookup and
//! a per-element wide accumulate. [`crate::Emac::dot_slice`] instead hands
//! the unit a whole `(weights, activations)` row, and each unit selects a
//! [`MacKernel`] **once per (format band, accumulator window)** at
//! construction:
//!
//! * [`MacKernel::Aligned`] — every operand of the format fits
//!   [`crate::table::ALIGNED_OPERAND_BITS`] bits and the eq.-(3)/(4)
//!   register fits the `i128` window (all three 8-bit families, fixed
//!   point at every width, minifloats up to binary16, posits up to
//!   `max_scale = 30` — every es ≤ 1 format through posit⟨16,1⟩, es = 2
//!   through n = 9). Operands are `±field × 2^scale` with a
//!   non-negative scale, so `±(field << scale)` is a plain signed integer
//!   and the exact sum is an integer dot product: the activations are
//!   decoded once into `i64` scratch ([`AlignedTile`]), the weight row
//!   once per row (on the fly when there is a single column to spend it
//!   on), and the loop is `acc += w · a` in an `i64` (register ≤ 63 bits)
//!   or an `i128` — no shift, no sign select, no special handling (poison
//!   is decided at decode time).
//! * [`MacKernel::BatchedFused`] — the remaining ≤ 16-bit fused-operand
//!   paths (monolithic LUT, split regime-prefix table, computed bit-field
//!   operands — posits past `max_scale = 30`, e.g. es = 2 at n ≥ 10, and
//!   six-bit-exponent minifloats) with a native accumulator. The loop
//!   gathers fused entries through a body monomorphized per entry
//!   source, with the `i128` accumulate running as wrapping two-word
//!   (hi/lo `u64` lane) adds ([`I128Lanes`]) — no variant dispatch
//!   inside the loop.
//! * [`MacKernel::Scalar`] — everything else (wide formats on the
//!   [`dp_posit::WideInt`] register, and every `new_reference()` unit):
//!   the slice loops the scalar `mac()` datapath, which stays the
//!   differential baseline.
//!
//! Every kernel accumulates the same exact integer terms, so kernel choice
//! can never change a result bit — pinned by the `kernel_equivalence` test
//! suite.
//!
//! ## Tile and layer level
//!
//! One rung above the row kernels sits the weight-stationary tile:
//! [`crate::Emac::dot_tile`] evaluates one weight row against `B`
//! activation columns in a single dispatch, and the unit selects a
//! [`TileKernel`] per call from the same (band, accumulator-window) table
//! extended by a batch-width axis:
//!
//! * `B ≤ 1` — a tile is just a row; the per-column body wraps today's
//!   row kernel ([`TileKernel::PerColumn`]).
//! * [`TileKernel::AlignedTile`] — the aligned band at `B ≥ 2` decodes
//!   the weight row and the activation tile once each and runs the same
//!   integer body four columns abreast.
//! * [`TileKernel::GatherFused`] — the `batched_fused` band at `B ≥ 2`
//!   gathers the weight row's fused operands **once** and streams every
//!   column through them, halving table traffic versus per-sample rows.
//!
//! One rung above that, [`crate::Emac::dot_layer`] evaluates a whole
//! layer (every weight row) against the batch; its provided body is the
//! per-row `dot_tile` sweep, and the aligned band overrides it to decode
//! the activation tile **once per layer** instead of once per row. The
//! per-sample forward pass is the same call at `B = 1`.
//!
//! Tile choice follows the row kernel (`with_kernel_cap` therefore steps
//! tile selection down too), and every tile body is pinned bit-identical
//! to the per-column `set_bias → dot_slice → result` reference by the
//! `tile_equivalence` test suite.

use crate::acc::Accum;
use crate::table::EmacEntry;
use std::fmt;

/// Which slice-level MAC kernel a unit selected. Selection happens once
/// at construction, per (format band, accumulator window): formats whose
/// operands all fit the aligned word, on an `i128` window, take
/// [`MacKernel::Aligned`]; the other ≤ 16-bit fused-operand paths on a
/// native window take [`MacKernel::BatchedFused`]; and everything else
/// (wide formats, `new_reference()` units) loops the scalar datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MacKernel {
    /// Scalar `mac()` loop: bit-field or table decode per element, any
    /// accumulator. The reference band (> 16 bits, and every
    /// `new_reference()` unit).
    Scalar,
    /// Batched fused-operand kernel: gathered table/computed entries,
    /// unrolled, hi/lo-lane native accumulate. The ≤ 16-bit band.
    BatchedFused,
    /// Aligned-integer kernel: both rows decoded once to `±(field <<
    /// scale)`, then a plain `i64`/`i128` integer dot product. Formats
    /// whose operands fit the aligned word, on an `i128` window.
    Aligned,
}

impl MacKernel {
    /// Stable snake_case name, used in bench row names and reports.
    pub fn name(self) -> &'static str {
        match self {
            MacKernel::Aligned => "aligned",
            MacKernel::BatchedFused => "batched_fused",
            MacKernel::Scalar => "scalar",
        }
    }
}

impl fmt::Display for MacKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which tile-level kernel [`crate::Emac::dot_tile`] runs for a given
/// batch width — the row-kernel table of [`MacKernel`] extended by a
/// batch-width axis. `B ≤ 1` always wraps the row kernel; at `B ≥ 2` the
/// fused band gathers weight operands once ([`TileKernel::GatherFused`]),
/// the aligned band decodes the row and the tile once each
/// ([`TileKernel::AlignedTile`]), and the scalar band stays the
/// per-column differential baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileKernel {
    /// Per-column loop over the wrapped row kernel: `B ≤ 1` tiles and the
    /// scalar band.
    PerColumn(MacKernel),
    /// Weight-stationary gather tile: the row's fused operands (LUT /
    /// split / computed / sign-extension) are gathered once, then every
    /// column streams through a monomorphized branch-free inner loop.
    GatherFused,
    /// Aligned-integer tile: weight row and activation tile decoded once
    /// each, then the integer micro-kernel four columns abreast.
    AlignedTile,
}

impl TileKernel {
    /// Stable snake_case name, used in bench row names and reports. Tile
    /// fast paths end in `_tile`; per-column wrappers name the row kernel
    /// they loop.
    pub fn name(self) -> &'static str {
        match self {
            TileKernel::AlignedTile => "aligned_tile",
            TileKernel::GatherFused => "fused_tile",
            TileKernel::PerColumn(MacKernel::Aligned) => "per_column_aligned",
            TileKernel::PerColumn(MacKernel::BatchedFused) => "per_column_batched_fused",
            TileKernel::PerColumn(MacKernel::Scalar) => "per_column_scalar",
        }
    }

    /// The row kernel this tile body accumulates through.
    pub fn row_kernel(self) -> MacKernel {
        match self {
            TileKernel::AlignedTile => MacKernel::Aligned,
            TileKernel::GatherFused => MacKernel::BatchedFused,
            TileKernel::PerColumn(k) => k,
        }
    }
}

impl fmt::Display for TileKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The batched kernels' two-word accumulation register, kept out of the
/// `Accum` enum so the unrolled loop body is plain word arithmetic with
/// no variant dispatch.
///
/// The register is held as a `u128` on purpose: unsigned two-word
/// arithmetic lowers to one `add`/`adc` (or `sub`/`sbb`) pair on the
/// hi/lo `u64` lanes, and letting the backend schedule that carry beat a
/// hand-split `(lo: u64, hi: u64)` + `overflowing_add` formulation *and*
/// a branch-free mask-negate (`(x ^ mask) − mask`) variant when measured
/// on the dot-128 bench — see the PR 5 ROADMAP note. Arithmetic is
/// two's-complement mod 2^128, identical to native `i128` wrapping
/// arithmetic, and eq.-(3)/(4) sizing guarantees the true sum fits 127
/// bits, so no information is ever lost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct I128Lanes {
    acc: u128,
}

impl I128Lanes {
    /// Splits an `i128` register into lanes.
    #[inline]
    pub(crate) fn from_i128(acc: i128) -> Self {
        I128Lanes { acc: acc as u128 }
    }

    /// `self += magnitude` (or `-=` when `negate`): one wrapping two-word
    /// add (or subtract), matching `i128` wrapping semantics exactly. The
    /// conditional compiles to a select/branch over the add/sub pair —
    /// measured faster here than materializing a 128-bit sign mask.
    #[inline]
    pub(crate) fn add(&mut self, magnitude: u128, negate: bool) {
        if negate {
            self.acc = self.acc.wrapping_sub(magnitude);
        } else {
            self.acc = self.acc.wrapping_add(magnitude);
        }
    }

    /// Branchless form of [`I128Lanes::add`]: folds `negate` into a
    /// two's-complement mask (`(m ^ mask) − mask`) instead of a branch.
    /// The tile kernels run four lane chains abreast, so one
    /// unpredictable sign branch per chain per weight flushes the work
    /// of all four — the masked form wins there, while the single-chain
    /// row kernels keep the branchy form (measured faster with one
    /// chain, where the predictor can learn a repeated row's signs).
    #[inline]
    pub(crate) fn add_select(&mut self, magnitude: u128, negate: bool) {
        let mask = (negate as u128).wrapping_neg();
        self.acc = self.acc.wrapping_add((magnitude ^ mask).wrapping_sub(mask));
    }

    /// Rejoins the lanes into the `i128` register.
    #[inline]
    pub(crate) fn into_i128(self) -> i128 {
        self.acc as i128
    }
}

/// One fused-operand step on the `i128` window: multiply, shift, lane add
/// (branchy on rows, masked on tiles — see [`I128Lanes::add_select`]).
#[inline(always)]
fn fused_step<const SELECT: bool>(
    ew: EmacEntry,
    ea: EmacEntry,
    lanes: &mut I128Lanes,
    special: &mut u64,
) {
    *special |= (ew.0 | ea.0) & EmacEntry::SPECIAL_BIT;
    let term = ((ew.field() * ea.field()) as u128) << (ew.scale() + ea.scale());
    let negate = (ew.0 ^ ea.0) & EmacEntry::SIGN_BIT != 0;
    if SELECT {
        lanes.add_select(term, negate);
    } else {
        lanes.add(term, negate);
    }
}

/// One fused-operand step on the medium/wide windows, through
/// [`Accum::add_shifted_u128`] (which skips zero products itself).
#[inline(always)]
fn fused_step_wide(ew: EmacEntry, ea: EmacEntry, acc: &mut Accum, special: &mut bool) {
    if (ew.0 | ea.0) & EmacEntry::SPECIAL_BIT != 0 {
        *special = true;
        return;
    }
    let negate = (ew.0 ^ ea.0) & EmacEntry::SIGN_BIT != 0;
    acc.add_shifted_u128(
        (ew.field() * ea.field()) as u128,
        (ew.scale() + ea.scale()) as usize,
        negate,
    );
}

/// The batched fused-operand row loop, monomorphized per entry source
/// (per-pattern table vs computed operands) so the inner loop is a plain
/// gather → multiply → shifted add with no per-element dispatch: hi/lo
/// `u64` lanes on the `i128` window, [`Accum::add_shifted_u128`] on the
/// medium window. Returns whether a special operand was seen.
#[inline(always)]
pub(crate) fn fused_row<E: Fn(u32) -> EmacEntry>(
    entry: E,
    acc: &mut Accum,
    weights: &[u32],
    activations: &[u32],
) -> bool {
    if let Accum::Small(small) = acc {
        let mut lanes = I128Lanes::from_i128(*small);
        let mut special = 0u64;
        for (&w, &a) in weights.iter().zip(activations) {
            fused_step::<false>(entry(w), entry(a), &mut lanes, &mut special);
        }
        *small = lanes.into_i128();
        return special != 0;
    }
    let mut special = false;
    for (&w, &a) in weights.iter().zip(activations) {
        fused_step_wide(entry(w), entry(a), acc, &mut special);
    }
    special
}

/// The gather tile ([`TileKernel::GatherFused`]) over a weight row whose
/// fused operands were gathered **once** into `wents`. On the `i128`
/// window the columns stream four at a time through the same branch-free
/// inner step as [`fused_row`] — per-lane adds only, four independent
/// lane chains per pass sharing each gathered weight entry, shaped for a
/// future `std::simd` lowering with [`I128Lanes`] as the lane fallback —
/// then in pairs plus a single-column tail; on the medium window each
/// column accumulates into its own register cloned from the bias seed.
/// `emit(j, acc, special)` receives each column's finished register, in
/// column order.
#[inline(always)]
pub(crate) fn fused_tile<E: Fn(u32) -> EmacEntry>(
    entry: E,
    seed: &Accum,
    wents: &[EmacEntry],
    cols: &[&[u32]],
    mut emit: impl FnMut(usize, Accum, bool),
) {
    let &Accum::Small(seed) = seed else {
        for (j, col) in cols.iter().enumerate() {
            let mut acc = seed.clone();
            let mut special = false;
            for (&ew, &a) in wents.iter().zip(col.iter()) {
                fused_step_wide(ew, entry(a), &mut acc, &mut special);
            }
            emit(j, acc, special);
        }
        return;
    };
    let fresh = I128Lanes::from_i128(seed);
    let mut j = 0;
    while j + 4 <= cols.len() {
        let [mut l0, mut l1, mut l2, mut l3] = [fresh; 4];
        let [mut s0, mut s1, mut s2, mut s3] = [0u64; 4];
        for ((((&ew, &a0), &a1), &a2), &a3) in wents
            .iter()
            .zip(cols[j].iter())
            .zip(cols[j + 1].iter())
            .zip(cols[j + 2].iter())
            .zip(cols[j + 3].iter())
        {
            fused_step::<true>(ew, entry(a0), &mut l0, &mut s0);
            fused_step::<true>(ew, entry(a1), &mut l1, &mut s1);
            fused_step::<true>(ew, entry(a2), &mut l2, &mut s2);
            fused_step::<true>(ew, entry(a3), &mut l3, &mut s3);
        }
        for (i, (lane, special)) in [(l0, s0), (l1, s1), (l2, s2), (l3, s3)]
            .into_iter()
            .enumerate()
        {
            emit(j + i, Accum::Small(lane.into_i128()), special != 0);
        }
        j += 4;
    }
    while j + 2 <= cols.len() {
        let (mut l0, mut l1) = (fresh, fresh);
        let (mut s0, mut s1) = (0u64, 0u64);
        for ((&ew, &a0), &a1) in wents.iter().zip(cols[j].iter()).zip(cols[j + 1].iter()) {
            fused_step::<true>(ew, entry(a0), &mut l0, &mut s0);
            fused_step::<true>(ew, entry(a1), &mut l1, &mut s1);
        }
        emit(j, Accum::Small(l0.into_i128()), s0 != 0);
        emit(j + 1, Accum::Small(l1.into_i128()), s1 != 0);
        j += 2;
    }
    if j < cols.len() {
        let (mut l0, mut s0) = (fresh, 0u64);
        for (&ew, &a) in wents.iter().zip(cols[j].iter()) {
            fused_step::<true>(ew, entry(a), &mut l0, &mut s0);
        }
        emit(j, Accum::Small(l0.into_i128()), s0 != 0);
    }
}

/// The running sum of the aligned band: an `i64` when the eq.-(3)/(4)
/// register is at most 63 bits wide, an `i128` otherwise.
trait AlignedSum: Copy {
    /// Narrows the seed (bias image or running register).
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

/// Widest eq.-(3)/(4) register the aligned band sums in an `i64`.
const ALIGNED_I64_MAX_BITS: u32 = 63;

/// Scratch of the aligned band ([`MacKernel::Aligned`]), retained by the
/// unit across calls so a sweep does not allocate per row: the activation
/// tile decoded to plain integers with one poison flag per column, and
/// the weight row being evaluated. Never semantic — refilled by every
/// [`AlignedTile::load`] / [`AlignedTile::row`].
#[derive(Debug, Clone, Default)]
pub(crate) struct AlignedTile {
    /// `B × K` aligned activation values, column after column.
    acts: Vec<i64>,
    /// Whether column `j` holds a special operand.
    poison: Vec<bool>,
    /// The `K` aligned values of the current weight row.
    weights: Vec<i64>,
}

/// Decodes `bits` through `word` (an [`crate::table::align`]ed word per
/// pattern) into `values`, returning whether any operand was special.
/// Specials decode to value 0, so they add nothing to any sum.
#[inline(always)]
fn decode_aligned(values: &mut Vec<i64>, bits: &[u32], word: impl Fn(u32) -> i64) -> bool {
    let mut flags = 0;
    values.extend(bits.iter().map(|&b| {
        let w = word(b);
        flags |= w;
        w >> 1
    }));
    flags & 1 != 0
}

/// One weight row against one decoded column, in a single pass: with
/// nothing to share the decoded weights with, storing them first only
/// costs (the per-sample path's rows are as short as K = 4). Returns the
/// exact sum and whether a weight was special. A leaf kept out of line
/// for the same reason as [`quad`].
#[inline(never)]
fn single_column<S: AlignedSum>(
    seed: i128,
    weights: &[u32],
    acts: &[i64],
    word: impl Fn(u32) -> i64,
) -> (S, bool) {
    let mut flags = 0;
    let sum = weights
        .iter()
        .zip(acts)
        .fold(S::from_register(seed), |s, (&b, &a)| {
            let w = word(b);
            flags |= w;
            s.mac(w >> 1, a)
        });
    (sum, flags & 1 != 0)
}

impl AlignedTile {
    /// Decodes the activation columns, once for every weight row that
    /// follows.
    #[inline(always)]
    pub(crate) fn load<'a>(
        &mut self,
        cols: impl Iterator<Item = &'a [u32]>,
        word: impl Fn(u32) -> i64,
    ) {
        self.acts.clear();
        self.poison.clear();
        for col in cols {
            let special = decode_aligned(&mut self.acts, col, &word);
            self.poison.push(special);
        }
    }

    /// One weight row against the loaded tile: `emit(j, register,
    /// poisoned)` receives, in column order, column `j`'s exact sum
    /// `seed + Σ w[k] · a[j][k]` and whether the row or the column held a
    /// special. `width` is the unit's eq.-(3)/(4) register width; it
    /// picks the sum type.
    #[inline(always)]
    pub(crate) fn row(
        &mut self,
        seed: i128,
        width: u32,
        weights: &[u32],
        word: impl Fn(u32) -> i64,
        emit: impl FnMut(usize, i128, bool),
    ) {
        if width <= ALIGNED_I64_MAX_BITS {
            self.row_in::<i64>(seed, width, weights, word, emit);
        } else {
            self.row_in::<i128>(seed, width, weights, word, emit);
        }
    }

    /// [`AlignedTile::row`] with the running sums held in `S`. A lone
    /// column goes through [`single_column`]; otherwise the weight row is
    /// decoded once and the columns go through [`quad`] in full groups of
    /// four, then a single-column tail. Nothing past the decode handles
    /// specials — poison was decided there.
    #[inline(always)]
    fn row_in<S: AlignedSum>(
        &mut self,
        seed: i128,
        width: u32,
        weights: &[u32],
        word: impl Fn(u32) -> i64,
        mut emit: impl FnMut(usize, i128, bool),
    ) {
        let mut finish = |j: usize, sum: S, poison: bool| {
            let register = sum.register();
            debug_assert!(
                register >> (width - 1) == 0 || register >> (width - 1) == -1,
                "aligned sum exceeds the eq.-(3)/(4) register of {width} bits"
            );
            emit(j, register, poison);
        };
        if let [column_poison] = self.poison[..] {
            let (sum, row_poison) = single_column::<S>(seed, weights, &self.acts, word);
            return finish(0, sum, row_poison || column_poison);
        }
        self.weights.clear();
        let row_poison = decode_aligned(&mut self.weights, weights, word);
        let (w, k) = (self.weights.as_slice(), self.weights.len());
        let col = |j: usize| &self.acts[j * k..(j + 1) * k];
        let seed = S::from_register(seed);
        let batch = self.poison.len();
        let mut j = 0;
        while j + 4 <= batch {
            let sums = quad(seed, w, [col(j), col(j + 1), col(j + 2), col(j + 3)]);
            for (i, sum) in sums.into_iter().enumerate() {
                finish(j + i, sum, row_poison || self.poison[j + i]);
            }
            j += 4;
        }
        for j in j..batch {
            let sum = w.iter().zip(col(j)).fold(seed, |s, (&w, &a)| s.mac(w, a));
            finish(j, sum, row_poison || self.poison[j]);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(MacKernel::Aligned.name(), "aligned");
        assert_eq!(MacKernel::BatchedFused.to_string(), "batched_fused");
        assert_eq!(MacKernel::Scalar.name(), "scalar");
        // Ordering encodes "fanciness": caps compare against it.
        assert!(MacKernel::Scalar < MacKernel::BatchedFused);
        assert!(MacKernel::BatchedFused < MacKernel::Aligned);
    }

    #[test]
    fn tile_kernel_names_and_row_kernels_are_stable() {
        assert_eq!(TileKernel::AlignedTile.name(), "aligned_tile");
        assert_eq!(TileKernel::GatherFused.to_string(), "fused_tile");
        assert_eq!(
            TileKernel::PerColumn(MacKernel::Scalar).name(),
            "per_column_scalar"
        );
        assert_eq!(
            TileKernel::PerColumn(MacKernel::BatchedFused).name(),
            "per_column_batched_fused"
        );
        assert_eq!(
            TileKernel::PerColumn(MacKernel::Aligned).name(),
            "per_column_aligned"
        );
        assert_eq!(TileKernel::AlignedTile.row_kernel(), MacKernel::Aligned);
        assert_eq!(
            TileKernel::GatherFused.row_kernel(),
            MacKernel::BatchedFused
        );
        assert_eq!(
            TileKernel::PerColumn(MacKernel::Scalar).row_kernel(),
            MacKernel::Scalar
        );
    }

    #[test]
    fn aligned_tile_sums_exactly_on_both_sum_widths() {
        // Identity-decoded words (value << 1 | special, specials carry
        // value 0), with i32::MIN standing in for the special pattern.
        const SPECIAL: u32 = i32::MIN as u32;
        let word = |b: u32| match b {
            SPECIAL => 1,
            b => (b as i32 as i64) << 1,
        };
        let value = |b: u32| (word(b) >> 1) as i128;
        let weights = [3u32, -5i32 as u32, 7];
        let cols: [&[u32]; 6] = [
            &[1, 1, 1],
            &[2, 0, -4i32 as u32],
            &[0; 3],
            &[SPECIAL, 1, 1],
            &[5, 4, 3],
            &[-1i32 as u32; 3],
        ];
        let dot = |c: &[u32]| -> i128 {
            weights
                .iter()
                .zip(c)
                .map(|(&w, &a)| value(w) * value(a))
                .sum()
        };
        let want: Vec<i128> = cols.iter().map(|c| 100 + dot(c)).collect();
        // 63 / 64 bits straddle the i64 / i128 sum.
        for width in [40u32, 63, 64, 100] {
            let mut tile = AlignedTile::default();
            tile.load(cols.iter().copied(), word);
            let mut got = Vec::new();
            tile.row(100, width, &weights, word, |j, sum, poison| {
                assert_eq!(j, got.len(), "columns arrive in order");
                assert_eq!(poison, j == 3, "only column 3 holds a special");
                got.push(sum);
            });
            assert_eq!(got, want, "width {width}");
            // A special weight poisons every column of its row.
            tile.row(0, width, &[1, SPECIAL, 1], word, |_, _, poison| {
                assert!(poison)
            });
            // A lone column takes the single-pass body.
            for (j, col) in cols.iter().enumerate() {
                tile.load(std::iter::once(*col), word);
                tile.row(100, width, &weights, word, |_, sum, poison| {
                    assert_eq!((sum, poison), (want[j], j == 3), "lone column {j}");
                });
            }
            tile.load(std::iter::once(cols[0]), word);
            tile.row(0, width, &[1, SPECIAL, 1], word, |_, _, poison| {
                assert!(poison)
            });
        }
    }

    #[test]
    fn lanes_match_native_i128() {
        let mut s = 0x5eed_cafe_f00d_beefu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..2000 {
            let mut acc: i128 = ((next() as i64) as i128) << (next() % 50);
            let mut lanes = I128Lanes::from_i128(acc);
            for _ in 0..(next() % 8 + 1) {
                let mag = ((next() % (1 << 16)) as u128) << (next() % 110);
                let neg = next() % 2 == 0;
                acc = if neg {
                    acc.wrapping_sub(mag as i128)
                } else {
                    acc.wrapping_add(mag as i128)
                };
                lanes.add(mag, neg);
            }
            assert_eq!(lanes.into_i128(), acc);
        }
    }
}
