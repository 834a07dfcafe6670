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
//!   decoded once per sweep into `i64` scratch ([`AlignedTile`]), each
//!   weight row once per row (on the fly when there is a single column to
//!   spend it on), and the loop is `acc += w · a` in an `i64` (register
//!   ≤ 63 bits) or an `i128`, four columns abreast — no shift, no sign
//!   select, no special handling (poison is decided at decode time).
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
    /// decoded once to `±(field << scale)`, then a plain `i64`/`i128`
    /// integer dot product.
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

/// The running sum of the aligned band: an `i64` when the eq.-(3)/(4)
/// register is at most 63 bits wide, an `i128` otherwise.
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
        assert_eq!(MacKernel::Scalar.to_string(), "scalar");
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
}
