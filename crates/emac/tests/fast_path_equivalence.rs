//! The fast paths must be invisible: a table-decode + `i128` EMAC and the
//! reference datapath (Algorithm-1 bit-field decode + `WideInt`
//! register) must produce bit-identical results on every input — across
//! random dot products, biases, resets and special values — or the
//! "optimization" is a silent numerics change. These suites drive the
//! per-MAC entry points; `kernel_equivalence` and `tile_equivalence` drive
//! the sweeps.

use dp_emac::{Emac, FixedEmac, FloatEmac, MacKernel, PositEmac};
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

#[test]
fn posit_fast_path_engages_for_paper_formats() {
    // Every posit of the paper's [5, 8]-bit sweep, and the 16-bit
    // comparison formats over the split table, run the aligned band at
    // k = 128; a reference unit never does.
    let kernel = |n, es| PositEmac::new(PositFormat::new(n, es).unwrap(), 128).kernel();
    for es in 0..=2u32 {
        for n in 5..=8u32 {
            assert_eq!(kernel(n, es), MacKernel::Aligned, "posit<{n},{es}>");
        }
    }
    for (n, es) in [(13u32, 0u32), (16, 0), (16, 1)] {
        assert_eq!(kernel(n, es), MacKernel::Aligned, "posit<{n},{es}>");
        let fmt = PositFormat::new(n, es).unwrap();
        assert_eq!(
            PositEmac::new_reference(fmt, 128).kernel(),
            MacKernel::Scalar
        );
    }
    // Operands past the aligned word, and widths past the split ceiling.
    for (n, es) in [(13u32, 2u32), (16, 2), (17, 1), (24, 1)] {
        assert_eq!(kernel(n, es), MacKernel::Scalar, "posit<{n},{es}>");
    }
}

#[test]
fn posit_lut_boundary_is_deterministic() {
    // Satellite audit: each width band has exactly one decode scheme.
    // n = 12 is the last monolithic-LUT width, n = 13 the first split
    // width, n = 16 the last; both fast constructors at a boundary width
    // must agree with the reference on the same inputs (no path mixing).
    let mut next = xorshift(0x5eed_0f5e_11e7_0b0a);
    for (n, es) in [(12u32, 1u32), (13, 1), (16, 1)] {
        let fmt = PositFormat::new(n, es).unwrap();
        assert_eq!(
            PositEmac::new(fmt, 64).kernel(),
            MacKernel::Aligned,
            "posit<{n},{es}>"
        );
        for _ in 0..50 {
            let len = (next() % 16 + 1) as usize;
            let mut fast = PositEmac::new(fmt, len as u64);
            let mut reference = PositEmac::new_reference(fmt, len as u64);
            for _ in 0..len {
                let w = (next() as u32) & fmt.mask();
                let a = (next() as u32) & fmt.mask();
                fast.mac(w, a);
                reference.mac(w, a);
            }
            assert_eq!(fast.result(), reference.result(), "posit<{n},{es}>");
        }
    }
}

#[test]
fn posit_fast_matches_reference_on_random_dots() {
    // Every format the paper sweeps, the table-decoded (10,2) and (12,2)
    // on WideInt registers, the whole split band 13–16 (i128 and WideInt
    // registers behind split operands), and the no-table (17,1), (24,1)
    // fallbacks.
    let formats = [
        (5u32, 0u32),
        (6, 1),
        (7, 0),
        (8, 0),
        (8, 1),
        (8, 2),
        (10, 1),
        (10, 2),
        (12, 0),
        (12, 2),
        (13, 0),
        (13, 2),
        (14, 1),
        (16, 0),
        (16, 1),
        (16, 2),
        (17, 1),
        (24, 1),
    ];
    let mut next = xorshift(0xdead_beef_1234_5678);
    for (n, es) in formats {
        let fmt = PositFormat::new(n, es).unwrap();
        for round in 0..200 {
            let len = (next() % 32 + 1) as usize;
            let mut fast = PositEmac::new(fmt, len as u64);
            let mut reference = PositEmac::new_reference(fmt, len as u64);
            if round % 3 == 0 {
                let bias = (next() as u32) & fmt.mask();
                fast.set_bias(bias);
                reference.set_bias(bias);
            }
            for _ in 0..len {
                // Raw patterns, NaR included: poison must propagate
                // identically through both paths.
                let w = (next() as u32) & fmt.mask();
                let a = (next() as u32) & fmt.mask();
                fast.mac(w, a);
                reference.mac(w, a);
            }
            assert_eq!(
                fast.result(),
                reference.result(),
                "posit<{n},{es}> round {round}"
            );
            assert_eq!(fast.macs_done(), reference.macs_done());
        }
    }
}

#[test]
fn posit_fast_matches_reference_exhaustively_on_single_products() {
    for es in [0u32, 1, 2] {
        let fmt = PositFormat::new(8, es).unwrap();
        for a in fmt.patterns() {
            for b in [0u32, 1, 0x3f, 0x40, 0x41, 0x7f, 0x80, 0x81, 0xc0, 0xff] {
                let mut fast = PositEmac::new(fmt, 1);
                let mut reference = PositEmac::new_reference(fmt, 1);
                fast.mac(a, b);
                reference.mac(a, b);
                assert_eq!(
                    fast.result(),
                    reference.result(),
                    "posit<8,{es}> {a:#x}×{b:#x}"
                );
            }
        }
    }
}

#[test]
fn float_fast_path_engages_for_paper_formats() {
    // The paper's sweep (we ∈ 2..=5 at n ≤ 8) and the computed-operand
    // formats up to binary16 run the aligned band at k = 128; a reference
    // unit never does.
    for (we, wf) in [
        (2u32, 2u32),
        (3, 2),
        (3, 4),
        (4, 3),
        (5, 2),
        (4, 8),
        (5, 10),
    ] {
        let fmt = FloatFormat::new(we, wf).unwrap();
        assert_eq!(
            FloatEmac::new(fmt, 128).kernel(),
            MacKernel::Aligned,
            "{fmt}"
        );
        assert_eq!(
            FloatEmac::new_reference(fmt, 128).kernel(),
            MacKernel::Scalar
        );
    }
    // Six exponent bits, and the first width past the computed ceiling.
    for (we, wf) in [(6u32, 5u32), (6, 9), (5, 11)] {
        let fmt = FloatFormat::new(we, wf).unwrap();
        assert_eq!(
            FloatEmac::new(fmt, 128).kernel(),
            MacKernel::Scalar,
            "{fmt}"
        );
    }
}

#[test]
fn float_fast_matches_reference_on_random_dots() {
    let formats = [
        (2u32, 2u32),
        (3, 2),
        (3, 4),
        (4, 3),
        (5, 2),
        (4, 7),
        (4, 8),  // 13-bit, i128 register
        (5, 10), // binary16
        (6, 5),  // 12-bit, wide exponent: WideInt register
        (6, 9),  // 16-bit, wide exponent: WideInt register
        (8, 7),  // 16-bit, we=8: WideInt register
        (5, 11), // 17-bit: past the computed ceiling
    ];
    let mut next = xorshift(0xfeed_cafe_8765_4321);
    for (we, wf) in formats {
        let fmt = FloatFormat::new(we, wf).unwrap();
        for round in 0..200 {
            let len = (next() % 24 + 1) as usize;
            let mut fast = FloatEmac::new(fmt, len as u64);
            let mut reference = FloatEmac::new_reference(fmt, len as u64);
            if round % 3 == 0 {
                let bias = (next() as u32) & fmt.mask();
                fast.set_bias(bias);
                reference.set_bias(bias);
            }
            for _ in 0..len {
                // Raw patterns: zeros, subnormals, Inf and NaN all
                // included; poison must propagate identically.
                let w = (next() as u32) & fmt.mask();
                let a = (next() as u32) & fmt.mask();
                fast.mac(w, a);
                reference.mac(w, a);
            }
            assert_eq!(
                fast.result(),
                reference.result(),
                "float<{we},{wf}> round {round}"
            );
        }
    }
}

#[test]
fn float_fast_matches_reference_exhaustively_on_single_products() {
    let fmt = FloatFormat::new(4, 3).unwrap();
    for a in fmt.patterns() {
        for b in [0u32, 1, 0x08, 0x38, 0x77, 0x78, 0x7c, 0x80, 0xff] {
            let mut fast = FloatEmac::new(fmt, 1);
            let mut reference = FloatEmac::new_reference(fmt, 1);
            fast.mac(a, b);
            reference.mac(a, b);
            assert_eq!(
                fast.result(),
                reference.result(),
                "float<4,3> {a:#x}×{b:#x}"
            );
        }
    }
}

#[test]
fn fixed_lut_sext_matches_arithmetic_sext() {
    // The per-MAC path's sign extension (decoded to sign and magnitude)
    // at narrow and wide formats must match the i128 reference model.
    let mut next = xorshift(0x0bad_f00d_5555_aaaa);
    for (n, q) in [(5u32, 2u32), (8, 4), (8, 6), (12, 8), (16, 12)] {
        let fmt = FixedFormat::new(n, q).unwrap();
        let mask = (1u32 << n) - 1;
        for _ in 0..200 {
            let len = (next() % 32 + 1) as usize;
            let mut emac = FixedEmac::new(fmt, len as u64);
            let mut reference: i128 = 0;
            for _ in 0..len {
                let w = (next() as u32) & mask;
                let a = (next() as u32) & mask;
                emac.mac(w, a);
                let sx = |b: u32| {
                    let sh = 64 - n;
                    ((((b as u64) << sh) as i64) >> sh) as i128
                };
                reference += sx(w) * sx(a);
            }
            let expect = ((reference >> fmt.q()).clamp(fmt.min_raw() as i128, fmt.max_raw() as i128)
                as u64 as u32)
                & mask;
            assert_eq!(emac.result(), expect, "fixed<{n},{q}>");
        }
    }
}
