//! Kernel equivalence at one column: a one-row, one-column
//! [`Emac::dot_layer`] — on the aligned band, the one-row `dot_plan` sweep
//! of a plan compiled for the call — must be bit-identical to the `mac()`
//! loop and to the reference datapath on every input, or a kernel is a
//! silent numerics change.
//!
//! Coverage, per the kernel bands:
//! * **Aligned integers, n = 8** — exhaustive over all `2^(2n)` operand
//!   pairs for posit⟨8, es ∈ {0,1,2}⟩, an 8-bit minifloat and an 8-bit
//!   fixed format, against the reference datapath (fixed point: the
//!   `mac()` loop, whose sign-magnitude operands share no arithmetic with
//!   the sweep).
//! * **Aligned (9–16 bits)** and **scalar (wide operands, > 16 bits)** —
//!   randomized sweep-vs-`mac()` bit-identity, including empty and
//!   length-1 rows.
//! * **Sum-width boundaries** — units built at the capacities where the
//!   aligned running sum flips `i64` ↔ `i128` (and where the band ends),
//!   fed their formats' extreme operands.
//! * **Band pinning** — the kernel each constructor selects at the
//!   boundaries n = 8/9 and 16/17, and `macs_done` equality between the
//!   sweep, `mac()` and reference paths after identical workloads.

use dp_emac::{Emac, EmacUnit, FixedEmac, FloatEmac, MacKernel, PositEmac};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// `ws · xs` under `bias` as one row against one column of `dot_layer`:
/// the readout, which is also the state the unit is left in.
fn one_column<E: Emac>(unit: &mut E, bias: u32, ws: &[u32], xs: &[u32]) -> u32 {
    let mut out = [0u32];
    unit.dot_layer(&[bias], ws, xs, &mut out);
    assert_eq!(unit.result(), out[0], "state after the sweep");
    out[0]
}

/// Runs `(weights, activations)` through a one-column sweep on `fast` and
/// through a `mac()` loop on `scalar`, returning both readouts. The
/// all-zero pattern is zero in every format, so a zero bias is a reset.
fn sweep_vs_mac_loop<E: Emac>(fast: &mut E, scalar: &mut E, ws: &[u32], xs: &[u32]) -> (u32, u32) {
    let swept = one_column(fast, 0, ws, xs);
    scalar.reset();
    for (&w, &a) in ws.iter().zip(xs) {
        scalar.mac(w, a);
    }
    assert_eq!(fast.macs_done(), scalar.macs_done());
    (swept, scalar.result())
}

#[test]
fn posit8_aligned_kernel_matches_reference_exhaustively() {
    // All 65 536 (w, a) pairs per es: once as length-1 rows (per-pair
    // rounding) and once as whole 256-long rows (accumulation order and
    // NaR poisoning), both against the WideInt reference datapath.
    for es in [0u32, 1, 2] {
        let fmt = PositFormat::new(8, es).unwrap();
        let all: Vec<u32> = fmt.patterns().collect();
        let mut fast = PositEmac::new(fmt, 256);
        assert_eq!(fast.kernel(), MacKernel::Aligned, "{fmt}");
        let mut reference = PositEmac::new_reference(fmt, 256);
        for &w in &all {
            let row = vec![w; all.len()];
            let (f, r) = sweep_vs_mac_loop(&mut fast, &mut reference, &row, &all);
            assert_eq!(f, r, "{fmt} row w={w:#x}");
            for &a in &all {
                let (f, r) = sweep_vs_mac_loop(&mut fast, &mut reference, &[w], &[a]);
                assert_eq!(f, r, "{fmt} {w:#x}×{a:#x}");
            }
        }
    }
}

#[test]
fn minifloat8_aligned_kernel_matches_reference_exhaustively() {
    let fmt = FloatFormat::new(4, 3).unwrap();
    let all: Vec<u32> = fmt.patterns().collect();
    let mut fast = FloatEmac::new(fmt, 256);
    assert_eq!(fast.kernel(), MacKernel::Aligned);
    let mut reference = FloatEmac::new_reference(fmt, 256);
    for &w in &all {
        let row = vec![w; all.len()];
        let (f, r) = sweep_vs_mac_loop(&mut fast, &mut reference, &row, &all);
        assert_eq!(f, r, "row w={w:#x}");
        for &a in &all {
            let (f, r) = sweep_vs_mac_loop(&mut fast, &mut reference, &[w], &[a]);
            assert_eq!(f, r, "{w:#x}×{a:#x}");
        }
    }
}

#[test]
fn fixed8_aligned_kernel_matches_scalar_exhaustively() {
    // The mac() loop on a second unit is the reference: its decode goes
    // through sign and magnitude, the sweep's through two shifts.
    let fmt = FixedFormat::new(8, 6).unwrap();
    let all: Vec<u32> = (0..256u32).collect();
    let mut fast = FixedEmac::new(fmt, 256);
    assert_eq!(fast.kernel(), MacKernel::Aligned);
    let mut scalar = FixedEmac::new(fmt, 256);
    for &w in &all {
        let row = vec![w; all.len()];
        let (f, s) = sweep_vs_mac_loop(&mut fast, &mut scalar, &row, &all);
        assert_eq!(f, s, "row w={w:#x}");
        for &a in &all {
            let (f, s) = sweep_vs_mac_loop(&mut fast, &mut scalar, &[w], &[a]);
            assert_eq!(f, s, "{w:#x}×{a:#x}");
        }
    }
}

#[test]
fn posit_batched_and_scalar_bands_match_randomized() {
    // 13–16-bit formats (aligned integers where the split-table operands
    // fit the aligned word, else the scalar kernel on a WideInt register)
    // and > 16-bit formats (scalar kernel) — random rows, always
    // including the empty and length-1 edge cases, checked against the
    // per-MAC loop on the same unit kind AND the reference datapath.
    let mut next = xorshift(0x51ce_ba7c_4ed0_7e57);
    for (n, es, want) in [
        (13u32, 0u32, MacKernel::Aligned),
        (14, 1, MacKernel::Aligned),
        (16, 1, MacKernel::Aligned), // 57-bit operands, i128 sums
        (10, 2, MacKernel::Scalar),  // 65-bit operands, table decode
        (16, 2, MacKernel::Scalar),  // 113-bit operands, split decode
        (17, 1, MacKernel::Scalar),
        (20, 2, MacKernel::Scalar),
    ] {
        let fmt = PositFormat::new(n, es).unwrap();
        for trial in 0..120 {
            let len = match trial {
                0 => 0usize,
                1 => 1,
                _ => (next() % 40 + 1) as usize,
            };
            let cap = len.max(1) as u64;
            let mut fast = PositEmac::new(fmt, cap);
            assert_eq!(fast.kernel(), want, "{fmt}");
            let mut scalar = PositEmac::new(fmt, cap);
            let mut reference = PositEmac::new_reference(fmt, cap);
            let ws: Vec<u32> = (0..len).map(|_| (next() as u32) & fmt.mask()).collect();
            let xs: Vec<u32> = (0..len).map(|_| (next() as u32) & fmt.mask()).collect();
            let (f, s) = sweep_vs_mac_loop(&mut fast, &mut scalar, &ws, &xs);
            assert_eq!(f, s, "{fmt} sweep vs mac loop, len {len}");
            for (&w, &a) in ws.iter().zip(&xs) {
                reference.mac(w, a);
            }
            assert_eq!(f, reference.result(), "{fmt} sweep vs reference, len {len}");
        }
    }
}

#[test]
fn minifloat_batched_and_scalar_bands_match_randomized() {
    let mut next = xorshift(0xf10a_7b47_c4ed_0001);
    for (we, wf, want) in [
        (4u32, 8u32, MacKernel::Aligned), // n = 13
        (5, 10, MacKernel::Aligned),      // n = 16
        // Six exponent bits: operands past the aligned word.
        (6, 5, MacKernel::Scalar),  // n = 12
        (6, 9, MacKernel::Scalar),  // n = 16
        (5, 11, MacKernel::Scalar), // n = 17
        (8, 14, MacKernel::Scalar), // n = 23
    ] {
        let fmt = FloatFormat::new(we, wf).unwrap();
        for trial in 0..100 {
            let len = match trial {
                0 => 0usize,
                1 => 1,
                _ => (next() % 40 + 1) as usize,
            };
            let cap = len.max(1) as u64;
            let mut fast = FloatEmac::new(fmt, cap);
            assert_eq!(fast.kernel(), want, "{fmt}");
            let mut scalar = FloatEmac::new(fmt, cap);
            let mut reference = FloatEmac::new_reference(fmt, cap);
            let ws: Vec<u32> = (0..len).map(|_| (next() as u32) & fmt.mask()).collect();
            let xs: Vec<u32> = (0..len).map(|_| (next() as u32) & fmt.mask()).collect();
            let (f, s) = sweep_vs_mac_loop(&mut fast, &mut scalar, &ws, &xs);
            assert_eq!(f, s, "{fmt} sweep vs mac loop, len {len}");
            for (&w, &a) in ws.iter().zip(&xs) {
                reference.mac(w, a);
            }
            assert_eq!(f, reference.result(), "{fmt} sweep vs reference, len {len}");
        }
    }
}

#[test]
fn fixed_aligned_matches_scalar_randomized_at_every_width() {
    // Fixed point is aligned at every width; n = 32 sums in an i128.
    let mut next = xorshift(0xf1ed_ba7c_4ed0_5eed);
    for (n, q) in [(13u32, 6u32), (16, 8), (17, 8), (24, 12), (32, 16)] {
        let want = MacKernel::Aligned;
        let fmt = FixedFormat::new(n, q).unwrap();
        let mask = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        for trial in 0..100 {
            let len = match trial {
                0 => 0usize,
                1 => 1,
                _ => (next() % 40 + 1) as usize,
            };
            let cap = len.max(1) as u64;
            let mut fast = FixedEmac::new(fmt, cap);
            assert_eq!(fast.kernel(), want, "{fmt}");
            let mut scalar = FixedEmac::new(fmt, cap);
            let mut reference = FixedEmac::new_reference(fmt, cap);
            let ws: Vec<u32> = (0..len).map(|_| (next() as u32) & mask).collect();
            let xs: Vec<u32> = (0..len).map(|_| (next() as u32) & mask).collect();
            let (f, s) = sweep_vs_mac_loop(&mut fast, &mut scalar, &ws, &xs);
            assert_eq!(f, s, "{fmt} sweep vs mac loop, len {len}");
            for (&w, &a) in ws.iter().zip(&xs) {
                reference.mac(w, a);
            }
            assert_eq!(f, reference.result(), "{fmt} sweep vs reference, len {len}");
        }
    }
}

#[test]
fn macs_done_advances_by_slice_length() {
    // The accounting audit: a per-MAC loop over a slice, onto the running
    // register, must advance macs_done by exactly the slice length,
    // agreeing with the mac() and reference paths after identical
    // workloads — including empty slices.
    let fmt = PositFormat::new(8, 1).unwrap();
    let mut slice_unit = PositEmac::new(fmt, 64);
    let mut scalar_unit = PositEmac::new(fmt, 64);
    let mut reference = PositEmac::new_reference(fmt, 64);
    let ws: Vec<u32> = (0..23u32).map(|i| i * 11 % 256).collect();
    let xs: Vec<u32> = (0..23u32).map(|i| i * 7 % 256).collect();
    for (w_slice, x_slice) in [(&ws[..], &xs[..]), (&[], &[]), (&ws[..5], &xs[..5])] {
        for (&w, &a) in w_slice.iter().zip(x_slice) {
            slice_unit.mac(w, a);
        }
    }
    for (&w, &a) in ws.iter().zip(&xs) {
        scalar_unit.mac(w, a);
        reference.mac(w, a);
    }
    for (&w, &a) in ws[..5].iter().zip(&xs[..5]) {
        scalar_unit.mac(w, a);
        reference.mac(w, a);
    }
    assert_eq!(slice_unit.macs_done(), 28);
    assert_eq!(slice_unit.macs_done(), scalar_unit.macs_done());
    assert_eq!(slice_unit.macs_done(), reference.macs_done());
    assert_eq!(slice_unit.result(), reference.result());
    slice_unit.reset();
    assert_eq!(slice_unit.macs_done(), 0);
}

#[test]
fn kernel_bands_pin_at_8_9_and_16_17() {
    // Posit: aligned integers while every operand fits the aligned word
    // and the register fits an i128 — all of n = 8, and past it as far as
    // the dynamic range allows — scalar otherwise, and past 16 bits; the
    // reference constructor is always scalar.
    let pk = |n: u32, es: u32| PositEmac::new(PositFormat::new(n, es).unwrap(), 128).kernel();
    for es in [0u32, 1, 2] {
        assert_eq!(pk(8, es), MacKernel::Aligned, "posit<8,{es}>");
        assert_eq!(pk(17, es), MacKernel::Scalar, "posit<17,{es}>");
    }
    assert_eq!(pk(9, 0), MacKernel::Aligned);
    assert_eq!(pk(9, 1), MacKernel::Aligned);
    // Operands are 2·max_scale + 1 bits: 57 at max_scale = 28, with a
    // 121-bit eq.-(4) register for 128 products.
    assert_eq!(pk(9, 2), MacKernel::Aligned);
    assert_eq!(pk(10, 2), MacKernel::Scalar); // 65-bit operands
    assert_eq!(pk(16, 0), MacKernel::Aligned); // 29-bit operands
    assert_eq!(pk(15, 1), MacKernel::Aligned); // 53-bit operands
    assert_eq!(pk(16, 1), MacKernel::Aligned); // 57-bit operands
    assert_eq!(pk(16, 2), MacKernel::Scalar); // 113-bit operands
    assert_eq!(
        PositEmac::new_reference(PositFormat::new(8, 0).unwrap(), 128).kernel(),
        MacKernel::Scalar
    );

    // Minifloat: five exponent bits or fewer align through binary16; the
    // wide-exponent shapes are scalar, as is everything past 16 bits.
    let fk = |we: u32, wf: u32| FloatEmac::new(FloatFormat::new(we, wf).unwrap(), 128).kernel();
    assert_eq!(fk(4, 3), MacKernel::Aligned); // n = 8
    assert_eq!(fk(4, 4), MacKernel::Aligned); // n = 9
    assert_eq!(fk(5, 10), MacKernel::Aligned); // n = 16
    assert_eq!(fk(6, 2), MacKernel::Scalar); // n = 9
    assert_eq!(fk(6, 9), MacKernel::Scalar); // n = 16
    assert_eq!(fk(5, 11), MacKernel::Scalar); // n = 17
    assert_eq!(
        FloatEmac::new_reference(FloatFormat::new(4, 3).unwrap(), 128).kernel(),
        MacKernel::Scalar
    );

    // Fixed point: a sign-extended word always fits the aligned word and
    // the register is an i128 at every width.
    let xk = |n: u32| FixedEmac::new(FixedFormat::new(n, 4).unwrap(), 128).kernel();
    for n in [8u32, 9, 16, 17, 32] {
        assert_eq!(xk(n), MacKernel::Aligned, "fixed n = {n}");
    }

    // The erased unit reports its variant's band.
    let erased = |fmt| EmacUnit::Posit(PositEmac::new(fmt, 128)).kernel();
    assert_eq!(erased(PositFormat::new(8, 0).unwrap()), MacKernel::Aligned);
    assert_eq!(erased(PositFormat::new(16, 2).unwrap()), MacKernel::Scalar);
}

#[test]
fn aligned_kernel_requires_the_i128_window() {
    // A capacity so large the eq.-(4) register spills past 127 bits: the
    // unit must leave the aligned band.
    let fmt = PositFormat::new(8, 2).unwrap();
    let small = PositEmac::new(fmt, 128);
    assert_eq!(small.kernel(), MacKernel::Aligned);
    let huge = PositEmac::new(fmt, 1 << 40);
    assert_eq!(huge.kernel(), MacKernel::Scalar);
}

/// Feeds `unit` rows of `k` extreme products — all `+max·max`, all
/// `−max·max`, and alternating — under a max-magnitude bias of either
/// sign, through a one-column sweep and through a ragged `dot_tile`,
/// against the per-MAC loop on `reference`.
fn extremes_match_reference<E: Emac, R: Emac>(
    unit: &mut E,
    reference: &mut R,
    k: usize,
    (max, neg_max): (u32, u32),
) {
    let same = vec![max; k];
    let flipped = vec![neg_max; k];
    let alternating: Vec<u32> = (0..k).map(|i| [max, neg_max][i % 2]).collect();
    let rows = [&same, &flipped, &alternating];
    for bias in [max, neg_max] {
        let mut expected = Vec::new();
        for ws in rows {
            reference.set_bias(bias);
            for &w in ws {
                reference.mac(w, max);
            }
            expected.push(reference.result());
            let swept = one_column(unit, bias, ws, &same);
            assert_eq!(swept, reference.result(), "one column, K = {k}");
        }
        // Weight row of +max against columns of each sign pattern: the
        // quad body plus a single-column tail.
        let cols: Vec<&[u32]> = (0..5).map(|j| rows[j % 3].as_slice()).collect();
        let mut out = vec![0u32; cols.len()];
        unit.dot_tile(bias, &same, &cols, &mut out);
        for (j, &got) in out.iter().enumerate() {
            assert_eq!(got, expected[j % 3], "dot_tile column {j}, K = {k}");
        }
    }
}

#[test]
fn aligned_sums_hold_at_the_i64_i128_boundaries() {
    // posit<8,1>: 49-bit products of minpos-unit operands, so the
    // register is 63 bits (i64 sum) at k = 2^13 and 64 bits (i128 sum) at
    // k = 2^13 + 1 — rows of K = capacity.
    let fmt = PositFormat::new(8, 1).unwrap();
    let extremes = (
        fmt.maxpos_bits(),
        dp_posit::ops::neg(fmt, fmt.maxpos_bits()),
    );
    for (k, width) in [(1usize << 13, 63u32), ((1 << 13) + 1, 64)] {
        let mut unit = PositEmac::new(fmt, k as u64);
        assert_eq!(
            (unit.kernel(), unit.accumulator_width()),
            (MacKernel::Aligned, width)
        );
        let mut reference = PositEmac::new_reference(fmt, k as u64);
        extremes_match_reference(&mut unit, &mut reference, k, extremes);
    }

    // float<4,3>: the flip sits at k = 2^27; float<5,10> always sums in an
    // i128 and leaves the band past k = 2^45. Built at those capacities,
    // fed rows of their extreme operands.
    for (we, wf, capacity, width, kernel) in [
        (4u32, 3u32, 1u64 << 27, 63u32, MacKernel::Aligned),
        (4, 3, (1 << 27) + 1, 64, MacKernel::Aligned),
        (5, 10, 1 << 45, 127, MacKernel::Aligned),
        (5, 10, (1 << 45) + 1, 128, MacKernel::Scalar),
    ] {
        let fmt = FloatFormat::new(we, wf).unwrap();
        let mut unit = FloatEmac::new(fmt, capacity);
        assert_eq!(
            (unit.kernel(), unit.accumulator_width()),
            (kernel, width),
            "{fmt}"
        );
        let mut reference = FloatEmac::new_reference(fmt, capacity);
        let extremes = (fmt.max_bits(false), fmt.max_bits(true));
        extremes_match_reference(&mut unit, &mut reference, 300, extremes);
    }

    // fixed<16,8>: 32-bit products flip the sum at k = 2^31; the most
    // negative word squares to the largest product.
    let fmt = FixedFormat::new(16, 8).unwrap();
    for (capacity, width) in [(1u64 << 31, 63u32), ((1 << 31) + 1, 64)] {
        let mut unit = FixedEmac::new(fmt, capacity);
        assert_eq!(
            (unit.kernel(), unit.accumulator_width()),
            (MacKernel::Aligned, width)
        );
        let mut reference = FixedEmac::new_reference(fmt, capacity);
        extremes_match_reference(&mut unit, &mut reference, 300, (0x8000, 0x7fff));
    }
}

#[test]
fn batched_kernel_requires_a_native_window() {
    // posit<16,2>'s eq.-(4) register never fits the i128 window (233
    // bits at k = 128, 256 when sized for 2^30 accumulations), so the
    // accumulator is WideInt even though the split table exists: the unit
    // must report Scalar AND sweep through the per-MAC loop, bit-identical
    // to the reference datapath.
    let fmt = PositFormat::new(16, 2).unwrap();
    let mut spilled = PositEmac::new(fmt, 1 << 30);
    assert_eq!(
        (spilled.kernel(), spilled.accumulator_width()),
        (MacKernel::Scalar, 256)
    );
    let mut next = xorshift(0x0b5e_55ed_ca11_ab1e);
    let ws: Vec<u32> = (0..256).map(|_| (next() as u32) & fmt.mask()).collect();
    let xs: Vec<u32> = (0..256).map(|_| (next() as u32) & fmt.mask()).collect();
    let mut reference = PositEmac::new_reference(fmt, 256);
    let (swept, want) = sweep_vs_mac_loop(&mut spilled, &mut reference, &ws, &xs);
    assert_eq!(swept, want);
}
