//! The two MAC kernels, and the aligned band's loops.
//!
//! The paper's performance story is the exact EMAC dot product
//! (eqs. 3–4); a software model that dispatches one [`crate::Emac::mac`]
//! call per weight pays per-element dispatch, per-element decode and a
//! per-element wide accumulate. [`crate::Emac::dot_layer`] (and its
//! one-row front [`crate::Emac::dot_tile`]) instead hand the unit a whole
//! layer against a batch of activation columns, and each unit runs the
//! [`MacKernel`] it was built on — a function of (format, capacity),
//! decided **once** at construction; nothing selects it afterwards:
//!
//! * [`MacKernel::Aligned`] — every operand of the format fits
//!   [`crate::table::ALIGNED_OPERAND_BITS`] bits and the eq.-(3)/(4)
//!   register fits the `i128` window (all three 8-bit families, fixed
//!   point at every width, minifloats up to binary16, posits up to
//!   `max_scale = 30` — every es ≤ 1 format through posit⟨16,1⟩, es = 2
//!   through n = 9). Operands are `±field × 2^scale` with a
//!   non-negative scale, so `±(field << scale)` is a plain signed integer
//!   and the exact sum is an integer dot product: the activation tile is
//!   decoded once per sweep into unit-owned scratch ([`AlignedTile`]),
//!   each weight row once per row (on the fly when there is a single
//!   column to spend it on), and the loop is `acc += w · a` — no shift,
//!   no sign select, no special handling (poison is decided at decode
//!   time) — with the sums held in the [`SumLane`] the register width
//!   proves sufficient, below.
//! * [`MacKernel::Scalar`] — everything else (posits past
//!   `max_scale = 30`, six-bit-exponent minifloats, formats past 16 bits,
//!   registers past 127 bits, and every `new_reference()` unit): the
//!   sweep is [`crate::Emac::mac`] in a loop — one
//!   [`crate::Family::decode`] per operand into the
//!   [`crate::Accum`] register — which is also the definition every
//!   aligned loop is pinned against.
//!
//! Both accumulate the same exact integer terms, so the band can never
//! change a result bit — pinned by the `kernel_equivalence` and
//! `tile_equivalence` test suites, exhaustively at 8 bits.
//!
//! ## Three sum types, one rule
//!
//! The register width `W` of eq. (3)/(4) — itself a function of (format,
//! capacity) — picks how the aligned band holds its running sums
//! ([`SumLane::for_width`]): `f64` for `W ≤ 53`, `i64` for `W ≤ 63`,
//! `i128` beyond. The `f64` lane is exact, not approximate:
//!
//! 1. `W` bits hold a sign, the bias and `K` products of the two largest
//!    operands, so every operand is an integer below `2^26`;
//! 2. hence the seed, every product and every partial sum is an integer of
//!    magnitude below `2^(W−1) ≤ 2^52`, and every such integer is an `f64`;
//! 3. an `f64` multiply or add (fused or not) whose exact result is
//!    representable returns it — the same integer the `i64` lane computes.
//!
//! What it buys: baseline x86-64 has no packed 64-bit integer multiply
//! but does have `mulpd` / `addpd`. The `f64` lane therefore lays its
//! tile out **interleaved**, [`LANES`] columns abreast —
//! `lanes[(g · K + k) · 8 + l]` is operand `k` of column `8g + l`, the
//! last group's missing columns zero and never emitted — so one weight
//! meets eight activations in adjacent memory and [`oct`]'s fixed-size
//! inner array compiles to packed ops without `std::simd` or `unsafe`.
//! The integer lanes keep `i64` operands column after column and run
//! [`quad`], four scalar chains; a lone column (`B = 1`) is always one
//! fused decode-and-multiply pass in integers ([`single_column`]).

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

/// How an aligned-band unit holds its running sums — a function of the
/// eq.-(3)/(4) register width alone, hence of (format, capacity); see the
/// module docs for why each is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumLane {
    /// Registers up to 53 bits: `f64` sums over an interleaved tile,
    /// eight columns abreast in packed multiplies and adds.
    F64,
    /// Registers up to 63 bits: `i64` sums, four columns abreast.
    I64,
    /// Wider registers (to the aligned band's 127 bits): `i128` sums.
    I128,
}

impl SumLane {
    /// The lane of a unit whose eq.-(3)/(4) register is `width` bits.
    pub fn for_width(width: u32) -> Self {
        match width {
            0..=53 => SumLane::F64,
            54..=63 => SumLane::I64,
            _ => SumLane::I128,
        }
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

/// Scratch of the aligned band ([`MacKernel::Aligned`]), retained by the
/// unit across calls so a sweep does not allocate per row: the activation
/// tile decoded to plain integers with one poison flag per column, and
/// the weight row being evaluated. Never semantic — refilled by every
/// [`AlignedTile::load`] / [`AlignedTile::row`].
///
/// The unit's [`SumLane`] fixes the layout: on [`SumLane::F64`] a tile of
/// two or more columns is held as `f64`s, [`LANES`] columns interleaved;
/// the integer lanes, and every lone column, keep `i64` operands column
/// after column.
#[derive(Debug, Clone)]
pub(crate) struct AlignedTile {
    /// The unit's eq.-(3)/(4) register width: picks the [`SumLane`].
    width: u32,
    /// `B × K` aligned activation values, column after column (integer
    /// lanes).
    acts: Vec<i64>,
    /// `⌈B / 8⌉ × K × 8` aligned activation values, interleaved (`f64`
    /// lane).
    lanes: Vec<f64>,
    /// Whether column `j` holds a special operand.
    poison: Vec<bool>,
    /// The `K` aligned values of the current weight row (integer lanes).
    weights: Vec<i64>,
    /// The same for the `f64` lane.
    weights_f64: Vec<f64>,
}

/// The aligned values of `bits` through `word` (an
/// [`crate::table::align`]ed word per pattern), in order; every word is
/// OR-ed into `flags`, whose bit 0 afterwards says whether any operand was
/// special. Specials decode to value 0, so they add nothing to any sum.
#[inline(always)]
fn aligned_values<'a>(
    bits: &'a [u32],
    word: impl Fn(u32) -> i64 + 'a,
    flags: &'a mut i64,
) -> impl Iterator<Item = i64> + 'a {
    bits.iter().map(move |&b| {
        let w = word(b);
        *flags |= w;
        w >> 1
    })
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
    /// Scratch for a unit whose eq.-(3)/(4) register is `width` bits.
    pub(crate) fn new(width: u32) -> Self {
        AlignedTile {
            width,
            acts: Vec::new(),
            lanes: Vec::new(),
            poison: Vec::new(),
            weights: Vec::new(),
            weights_f64: Vec::new(),
        }
    }

    /// Whether a tile of `batch` columns is summed on the `f64` lane.
    fn interleaved(&self, batch: usize) -> bool {
        SumLane::for_width(self.width) == SumLane::F64 && batch > 1
    }

    /// Decodes the `batch` activation columns `cols` yields, each `fan_in`
    /// long, once for every weight row that follows — straight into the
    /// layout the unit's lane reads.
    #[inline(always)]
    pub(crate) fn load<'a>(
        &mut self,
        cols: impl Iterator<Item = &'a [u32]>,
        fan_in: usize,
        batch: usize,
        word: impl Fn(u32) -> i64,
    ) {
        self.poison.clear();
        if self.interleaved(batch) {
            let group_len = fan_in * LANES;
            self.lanes.resize(batch.div_ceil(LANES) * group_len, 0.0);
            for (j, col) in cols.enumerate() {
                let group = &mut self.lanes[j / LANES * group_len..][..group_len];
                let mut flags = 0;
                let values = aligned_values(col, &word, &mut flags);
                for (slots, v) in group.chunks_exact_mut(LANES).zip(values) {
                    slots[j % LANES] = v as f64;
                }
                self.poison.push(flags & 1 != 0);
            }
            // The columns a short last group lacks read as zeros, not as
            // an earlier tile's operands.
            let filled = batch % LANES;
            if filled > 0 {
                let last = self.lanes.len() - group_len;
                for slots in self.lanes[last..].chunks_exact_mut(LANES) {
                    slots[filled..].fill(0.0);
                }
            }
        } else {
            self.acts.clear();
            for col in cols {
                let mut flags = 0;
                self.acts.extend(aligned_values(col, &word, &mut flags));
                self.poison.push(flags & 1 != 0);
            }
        }
        debug_assert_eq!(self.poison.len(), batch);
    }

    /// One weight row against the loaded tile: `emit(j, register,
    /// poisoned)` receives, in column order, column `j`'s exact sum
    /// `seed + Σ w[k] · a[j][k]` and whether the row or the column held a
    /// special.
    #[inline(always)]
    pub(crate) fn row(
        &mut self,
        seed: i128,
        weights: &[u32],
        word: impl Fn(u32) -> i64,
        emit: impl FnMut(usize, i128, bool),
    ) {
        match SumLane::for_width(self.width) {
            SumLane::F64 if self.poison.len() > 1 => self.row_in_f64(seed, weights, word, emit),
            SumLane::I128 => self.row_in::<i128>(seed, weights, word, emit),
            _ => self.row_in::<i64>(seed, weights, word, emit),
        }
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

    /// [`AlignedTile::row`] on the integer lanes, the running sums held in
    /// `S`. A lone column goes through [`single_column`]; otherwise the
    /// weight row is decoded once and the columns go through [`quad`] in
    /// full groups of four, then a single-column tail. Nothing past the
    /// decode handles specials — poison was decided there.
    #[inline(always)]
    fn row_in<S: AlignedSum>(
        &mut self,
        seed: i128,
        weights: &[u32],
        word: impl Fn(u32) -> i64,
        mut emit: impl FnMut(usize, i128, bool),
    ) {
        let width = self.width;
        if let [column_poison] = self.poison[..] {
            let (sum, row_poison) = single_column::<S>(seed, weights, &self.acts, word);
            let poison = row_poison || column_poison;
            return Self::finish(width, sum.register(), 0, poison, &mut emit);
        }
        self.weights.clear();
        let mut flags = 0;
        self.weights
            .extend(aligned_values(weights, word, &mut flags));
        let row_poison = flags & 1 != 0;
        let (w, k) = (self.weights.as_slice(), self.weights.len());
        let col = |j: usize| &self.acts[j * k..(j + 1) * k];
        let seed = S::from_register(seed);
        let batch = self.poison.len();
        let mut j = 0;
        while j + 4 <= batch {
            let sums = quad(seed, w, [col(j), col(j + 1), col(j + 2), col(j + 3)]);
            for (i, sum) in sums.into_iter().enumerate() {
                let poison = row_poison || self.poison[j + i];
                Self::finish(width, sum.register(), j + i, poison, &mut emit);
            }
            j += 4;
        }
        for j in j..batch {
            let sum = w.iter().zip(col(j)).fold(seed, |s, (&w, &a)| s.mac(w, a));
            let poison = row_poison || self.poison[j];
            Self::finish(width, sum.register(), j, poison, &mut emit);
        }
    }

    /// [`AlignedTile::row`] on the `f64` lane: the weight row decoded once
    /// to `f64`s, then [`oct`] per group of [`LANES`] interleaved columns.
    /// Exact by the module docs' argument; each emitted sum is checked
    /// (debug builds) to be an integer inside the register.
    #[inline(always)]
    fn row_in_f64(
        &mut self,
        seed: i128,
        weights: &[u32],
        word: impl Fn(u32) -> i64,
        mut emit: impl FnMut(usize, i128, bool),
    ) {
        self.weights_f64.clear();
        let mut flags = 0;
        self.weights_f64
            .extend(aligned_values(weights, word, &mut flags).map(|v| v as f64));
        let row_poison = flags & 1 != 0;
        let w = self.weights_f64.as_slice();
        // `chunks_exact` would reject `K = 0`.
        let group = |g: usize| &self.lanes[g * w.len() * LANES..(g + 1) * w.len() * LANES];
        for (g, poison) in self.poison.chunks(LANES).enumerate() {
            let sums = oct(seed as f64, w, group(g));
            for (l, (&sum, &column_poison)) in sums.iter().zip(poison).enumerate() {
                debug_assert!(
                    sum == sum as i64 as f64,
                    "f64 lane left the integers: {sum}"
                );
                let poison = row_poison || column_poison;
                Self::finish(
                    self.width,
                    sum as i64 as i128,
                    g * LANES + l,
                    poison,
                    &mut emit,
                );
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
        let pool: [[u32; 3]; 6] = [
            [1, 1, 1],
            [2, 0, -4i32 as u32],
            [0; 3],
            [SPECIAL, 1, 1],
            [5, 4, 3],
            [-1i32 as u32; 3],
        ];
        let dot = |c: &[u32]| -> i128 {
            weights
                .iter()
                .zip(c)
                .map(|(&w, &a)| value(w) * value(a))
                .sum()
        };
        // 53 / 54 bits straddle the f64 / i64 sum, 63 / 64 the i64 / i128
        // one; 1 column is the single-pass body, 2 the smallest tile, 7 / 8
        // / 9 straddle one group of the f64 lane and two of the integer
        // lanes' quads, 64 is the benchmark's chunk.
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
                let special = |j: usize| j % 6 == 3;
                let want: Vec<i128> = cols.iter().map(|c| 100 + dot(c)).collect();
                let mut tile = AlignedTile::new(width);
                tile.load(cols.iter().map(Vec::as_slice), 3, batch, word);
                let mut got = Vec::new();
                tile.row(100, &weights, word, |j, sum, poison| {
                    assert_eq!(j, got.len(), "columns arrive in order");
                    assert_eq!(poison, special(j), "width {width} B={batch} column {j}");
                    got.push(sum);
                });
                assert_eq!(got, want, "width {width} B={batch}");
                // A special weight poisons every column of its row.
                let mut seen = 0;
                tile.row(0, &[1, SPECIAL, 1], word, |_, _, poison| {
                    assert!(poison);
                    seen += 1;
                });
                assert_eq!(seen, batch, "padding is never emitted");
                // A narrower tile after a wider one sees none of it.
                tile.load(
                    cols[..batch.div_ceil(2)].iter().map(Vec::as_slice),
                    3,
                    batch.div_ceil(2),
                    word,
                );
                let mut again = Vec::new();
                tile.row(100, &weights, word, |_, sum, _| again.push(sum));
                assert_eq!(
                    again,
                    want[..batch.div_ceil(2)],
                    "width {width} B={batch} reload"
                );
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
            tile.load(cols.iter().map(Vec::as_slice), 2, 9, word);
            let seed = w as i128 * a as i128;
            tile.row(seed, &weights, word, |j, sum, _| {
                assert_eq!(sum, 3 * seed, "column {j}");
            });
        }
        // Alternating signs cancel to the seed exactly.
        let weights = [max as u32, max as u32];
        let cols = vec![vec![max as u32, -max as u32]; 8];
        let mut tile = AlignedTile::new(53);
        tile.load(cols.iter().map(Vec::as_slice), 2, 8, word);
        tile.row(-7, &weights, word, |_, sum, _| assert_eq!(sum, -7));
    }
}
