//! Slice-level MAC kernels: the unit of work moves from one MAC to one
//! dot-product row.
//!
//! The paper's performance story is the exact EMAC dot product
//! (eqs. 3–4); a software model that dispatches one [`crate::Emac::mac`]
//! call per weight pays per-element dispatch, per-element table lookup and
//! a per-element wide accumulate. [`crate::Emac::dot_slice`] instead hands
//! the unit a whole `(weights, activations)` row, and each unit selects a
//! [`MacKernel`] **once per (format band, accumulator window)** at
//! construction:
//!
//! * [`MacKernel::ProductTable`] — formats of ≤ 8 bits with an `i128`
//!   accumulator window. A `2^(2n)`-entry table of *finished* products
//!   (sign, shift, product fused into one word — see [`ProductLut`], and
//!   `dp_fixed::lut::ProductLut` for fixed point's plain integer
//!   products) removes the multiply entirely: the inner loop is one table
//!   load and one shifted add.
//! * [`MacKernel::BatchedFused`] — the ≤ 16-bit fused-operand paths
//!   (monolithic LUT, split regime-prefix table, computed bit-field
//!   operands) with a native accumulator. The loop gathers fused entries
//!   through a body monomorphized per entry source, with the `i128`
//!   accumulate running as wrapping two-word (hi/lo `u64` lane) adds
//!   ([`I128Lanes`]) — no variant dispatch inside the loop.
//! * [`MacKernel::Scalar`] — everything else (wide formats on the
//!   [`dp_posit::WideInt`] register, and every `new_reference()` unit):
//!   the slice loops the scalar `mac()` datapath, which stays the
//!   differential baseline.
//!
//! Every kernel accumulates the same exact integer terms in the same
//! order, so kernel choice can never change a result bit — pinned by the
//! `kernel_equivalence` test suite.
//!
//! ## Tile level
//!
//! One rung above the row kernels sits the weight-stationary tile:
//! [`crate::Emac::dot_tile`] evaluates one weight row against `B`
//! activation columns in a single dispatch, and the unit selects a
//! [`TileKernel`] per call from the same (band, accumulator-window) table
//! extended by a batch-width axis:
//!
//! * `B ≤ 1` — a tile is just a row; the per-column body wraps today's
//!   row kernel ([`TileKernel::PerColumn`]).
//! * [`TileKernel::GatherFused`] — the `batched_fused` band at `B ≥ 2`
//!   gathers the weight row's fused operands **once** and streams every
//!   column through them, halving table traffic versus per-sample rows.
//!   The inner loop is branch-shaped for `std::simd` (independent
//!   per-lane adds, no cross-iteration dependencies) with the manual
//!   two-lane [`I128Lanes`] accumulate as the portable fallback.
//! * [`TileKernel::BlockedProduct`] — the `product_table` band at `B ≥ 2`
//!   cache-blocks the `2^(2n)`-entry finished-product table: the K
//!   dimension is tiled in [`PRODUCT_TILE_BLOCK`]-weight blocks so a
//!   block's table rows (one contiguous `2^n`-entry line per weight) stay
//!   hot across all `B` columns instead of the full table being re-walked
//!   once per sample.
//!
//! Tile choice follows the row kernel (`with_kernel_cap` therefore steps
//! tile selection down too), and every tile body is pinned bit-identical
//! to the per-column `set_bias → dot_slice → result` reference by the
//! `tile_equivalence` test suite.

use crate::acc::Accum;
use crate::table::{EmacEntry, ProductEntry, ProductLut};
use std::fmt;

/// Which slice-level MAC kernel a unit selected. Selection happens once
/// at construction, per (format band, accumulator window): ≤ 8-bit
/// formats on an `i128` window take [`MacKernel::ProductTable`], ≤ 16-bit
/// fused-operand paths on a native window take
/// [`MacKernel::BatchedFused`], and everything else (wide formats,
/// `new_reference()` units) loops the scalar datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MacKernel {
    /// Scalar `mac()` loop: bit-field or table decode per element, any
    /// accumulator. The reference band (> 16 bits, and every
    /// `new_reference()` unit).
    Scalar,
    /// Batched fused-operand kernel: gathered table/computed entries,
    /// unrolled, hi/lo-lane native accumulate. The ≤ 16-bit band.
    BatchedFused,
    /// Finished-product table kernel: one `2^(2n)`-entry lookup replaces
    /// decode *and* multiply. The ≤ 8-bit band on an `i128` window.
    ProductTable,
}

impl MacKernel {
    /// Stable snake_case name, used in bench row names and reports.
    pub fn name(self) -> &'static str {
        match self {
            MacKernel::ProductTable => "product_table",
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

/// Weights per K-block of the cache-blocked product tile. Each weight owns
/// one contiguous `2^n`-entry table row (1 KiB at n = 8, 4-byte entries),
/// so a block keeps ≤ 32 KiB of table lines — comfortably inside L1 —
/// resident while all `B` columns stream through it.
pub const PRODUCT_TILE_BLOCK: usize = 32;

/// Columns per register group of the tile kernels. A full group runs as
/// a 4-wide micro-kernel: four independent lane chains held in locals
/// (4 × `u128` ≈ 8 GPRs — fits the x86-64 register file where 8 chains
/// would spill), each weight's table row or gathered operand fetched
/// **once** and shared by all four columns. Partial groups fall back to
/// a two-chain pair loop plus a single-column tail; wider batches are
/// processed group by group, and per-group accumulator state lives in
/// fixed-size stack arrays (no heap traffic on the tile path).
pub(crate) const TILE_COL_GROUP: usize = 4;

/// Which tile-level kernel [`crate::Emac::dot_tile`] runs for a given
/// batch width — the row-kernel table of [`MacKernel`] extended by a
/// batch-width axis. `B ≤ 1` always wraps the row kernel; at `B ≥ 2` the
/// fused band gathers weight operands once ([`TileKernel::GatherFused`]),
/// the product band cache-blocks its table
/// ([`TileKernel::BlockedProduct`]), and the scalar band stays the
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
    /// Cache-blocked finished-product tile: K is tiled in
    /// [`PRODUCT_TILE_BLOCK`]-weight blocks kept hot across all columns.
    BlockedProduct,
}

impl TileKernel {
    /// Stable snake_case name, used in bench row names and reports. Tile
    /// fast paths end in `_tile`; per-column wrappers name the row kernel
    /// they loop.
    pub fn name(self) -> &'static str {
        match self {
            TileKernel::BlockedProduct => "product_tile",
            TileKernel::GatherFused => "fused_tile",
            TileKernel::PerColumn(MacKernel::ProductTable) => "per_column_product_table",
            TileKernel::PerColumn(MacKernel::BatchedFused) => "per_column_batched_fused",
            TileKernel::PerColumn(MacKernel::Scalar) => "per_column_scalar",
        }
    }

    /// The row kernel this tile body accumulates through.
    pub fn row_kernel(self) -> MacKernel {
        match self {
            TileKernel::BlockedProduct => MacKernel::ProductTable,
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

/// One finished-product step of the product-table row kernel.
#[inline(always)]
fn product_step(p: ProductEntry, lanes: &mut I128Lanes, special: &mut u32) {
    *special |= p.0 & ProductEntry::SPECIAL_BIT;
    debug_assert!(
        p.shift() + (64 - p.product().leading_zeros()) <= 127,
        "product-table kernel requires the i128 window"
    );
    lanes.add((p.product() as u128) << p.shift(), p.negate());
}

/// One finished-product step against a weight's contiguous table row
/// ([`ProductLut::row`]): the product tile resolves the row base once
/// per weight and shares it across the group's columns, so each step
/// is a masked index with no weight shift and no bounds check (the
/// row length is a power of two).
#[inline(always)]
fn product_row_step(row: &[ProductEntry], lanes: &mut I128Lanes, special: &mut u32, a: u32) {
    let p = row[(a as usize) & (row.len() - 1)];
    *special |= p.0 & ProductEntry::SPECIAL_BIT;
    debug_assert!(
        p.shift() + (64 - p.product().leading_zeros()) <= 127,
        "product-table kernel requires the i128 window"
    );
    lanes.add_select((p.product() as u128) << p.shift(), p.negate());
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

/// The product-table row kernel (n ≤ 8, `i128` window): decode and
/// multiply are both table-finished; the loop is load → shifted lane
/// add. Returns whether a special operand was seen.
pub(crate) fn product_row(
    table: &ProductLut,
    acc: &mut i128,
    weights: &[u32],
    activations: &[u32],
) -> bool {
    let mut lanes = I128Lanes::from_i128(*acc);
    let mut special = 0u32;
    for (&w, &a) in weights.iter().zip(activations) {
        product_step(table.entry(w, a), &mut lanes, &mut special);
    }
    *acc = lanes.into_i128();
    special != 0
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

/// The cache-blocked product tile ([`TileKernel::BlockedProduct`]):
/// columns are processed in [`TILE_COL_GROUP`]-wide register groups,
/// each group's lane accumulators living in fixed stack arrays (no
/// heap traffic), with K tiled in [`PRODUCT_TILE_BLOCK`]-weight
/// blocks so a block's `2^n`-entry table rows stay hot across the
/// group. Exact integer adds commute, so the reordered accumulation
/// is bit-identical to the per-column row kernel. `emit(j, acc, special)`
/// receives each column's finished register, in column order.
pub(crate) fn product_tile(
    table: &ProductLut,
    seed: i128,
    weights: &[u32],
    cols: &[&[u32]],
    mut emit: impl FnMut(usize, Accum, bool),
) {
    for (gi, group) in cols.chunks(TILE_COL_GROUP).enumerate() {
        let (lanes, specials) = product_tile_group(table, seed, weights, group);
        for j in 0..group.len() {
            let acc = Accum::Small(lanes[j].into_i128());
            emit(gi * TILE_COL_GROUP + j, acc, specials[j] != 0);
        }
    }
}

/// One ≤ [`TILE_COL_GROUP`]-column group of the product tile. A full
/// group runs the 4-wide micro-kernel — each weight's table row is
/// fetched once and shared by four independent lane chains held in
/// locals; partial groups stream in pairs plus a single-column tail.
/// Inlined so the lanes never leave [`product_tile`]'s frame: a call per
/// group costs as much as a column's readout on the K = 4 tiles of the
/// small models.
#[inline(always)]
fn product_tile_group(
    table: &ProductLut,
    seed: i128,
    weights: &[u32],
    cols: &[&[u32]],
) -> ([I128Lanes; TILE_COL_GROUP], [u32; TILE_COL_GROUP]) {
    let g = cols.len();
    debug_assert!(0 < g && g <= TILE_COL_GROUP);
    let mut lanes = [I128Lanes::from_i128(seed); TILE_COL_GROUP];
    let mut specials = [0u32; TILE_COL_GROUP];
    for (kb, wblock) in weights.chunks(PRODUCT_TILE_BLOCK).enumerate() {
        let base = kb * PRODUCT_TILE_BLOCK;
        let end = base + wblock.len();
        if g == TILE_COL_GROUP {
            let [mut l0, mut l1, mut l2, mut l3] = lanes;
            let [mut s0, mut s1, mut s2, mut s3] = specials;
            let (c0, c1) = (&cols[0][base..end], &cols[1][base..end]);
            let (c2, c3) = (&cols[2][base..end], &cols[3][base..end]);
            for ((((&w, &a0), &a1), &a2), &a3) in wblock.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
                let row = table.row(w);
                product_row_step(row, &mut l0, &mut s0, a0);
                product_row_step(row, &mut l1, &mut s1, a1);
                product_row_step(row, &mut l2, &mut s2, a2);
                product_row_step(row, &mut l3, &mut s3, a3);
            }
            lanes = [l0, l1, l2, l3];
            specials = [s0, s1, s2, s3];
            continue;
        }
        let mut j = 0;
        while j + 2 <= g {
            let (mut l0, mut l1) = (lanes[j], lanes[j + 1]);
            let (mut s0, mut s1) = (specials[j], specials[j + 1]);
            let (c0, c1) = (&cols[j][base..end], &cols[j + 1][base..end]);
            for ((&w, &a0), &a1) in wblock.iter().zip(c0).zip(c1) {
                let row = table.row(w);
                product_row_step(row, &mut l0, &mut s0, a0);
                product_row_step(row, &mut l1, &mut s1, a1);
            }
            (lanes[j], lanes[j + 1]) = (l0, l1);
            (specials[j], specials[j + 1]) = (s0, s1);
            j += 2;
        }
        if j < g {
            let (mut l0, mut s0) = (lanes[j], specials[j]);
            for (&w, &a) in wblock.iter().zip(&cols[j][base..end]) {
                product_row_step(table.row(w), &mut l0, &mut s0, a);
            }
            (lanes[j], specials[j]) = (l0, s0);
        }
    }
    (lanes, specials)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(MacKernel::ProductTable.name(), "product_table");
        assert_eq!(MacKernel::BatchedFused.to_string(), "batched_fused");
        assert_eq!(MacKernel::Scalar.name(), "scalar");
        // Ordering encodes "fanciness": caps compare against it.
        assert!(MacKernel::Scalar < MacKernel::BatchedFused);
        assert!(MacKernel::BatchedFused < MacKernel::ProductTable);
    }

    #[test]
    fn tile_kernel_names_and_row_kernels_are_stable() {
        assert_eq!(TileKernel::BlockedProduct.name(), "product_tile");
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
            TileKernel::PerColumn(MacKernel::ProductTable).name(),
            "per_column_product_table"
        );
        assert_eq!(
            TileKernel::BlockedProduct.row_kernel(),
            MacKernel::ProductTable
        );
        assert_eq!(
            TileKernel::GatherFused.row_kernel(),
            MacKernel::BatchedFused
        );
        assert_eq!(
            TileKernel::PerColumn(MacKernel::Scalar).row_kernel(),
            MacKernel::Scalar
        );
        // The block keeps at most 32 KiB of 8-bit table rows resident.
        const { assert!(PRODUCT_TILE_BLOCK * (1 << 8) * 4 <= 32 * 1024) }
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
