//! EMAC software-model throughput, **per kernel and entry point**: exact
//! MACs per second for each format family, one row per path the format's
//! band runs —
//!
//! * `*_dot128_aligned` / `*_dot128_scalar` — one row against **one**
//!   column through [`dp_emac::Emac::dot_tile`], named after the unit's
//!   [`dp_emac::MacKernel`]: the aligned band's one-row plan compiled for
//!   the call, then an `i64`/`i128` integer dot product, or the per-MAC
//!   loop of the scalar band,
//! * at B ≥ 2 the aligned band sums in the static [`dp_emac::SumLane`]
//!   its register width picks: `f64`, eight interleaved columns abreast,
//!   up to 53 bits (posit8e0, float8e4m3, both fixed formats here), `i64`
//!   to 63 (posit8e1) and `i128` beyond — CI pins posit8e0's layer row at
//!   ≥ 1.2 × posit8e1's, which is that difference and nothing else. Past
//!   53 bits the static lane is only the fallback: in a layer sweep of
//!   two or more rows, a (weight row, tile) pair whose operand span
//!   proves 53 bits enough ([`dp_emac::SumLane::span_bound`]) sums in
//!   `f64` too (one-row `dot_tile` sweeps never do). Random patterns span
//!   the whole format, so on the `i128` formats no layer row passes and
//!   they measure the fallback plus the span test; posit8e1's 57-bit
//!   register lets 5 of its 16 random layer rows through,
//! * `*_layer16x128x64_gauss` — the layer row on trained-like operands
//!   (`from_f32` of a bell-shaped stream, the one `tile_equivalence` pins)
//!   for three `W > 53` formats, where every pair passes: beside the
//!   random-pattern `*_aligned` row of the same format it is the span
//!   rule's gain — CI pins posit8e2's at ≥ 1.3 ×,
//! * `*_layer24x117x64_onehot` — Mushroom's first layer for each 8-bit
//!   format: 24 rows of 117 bell-shaped weights against a 64-column
//!   one-hot tile (about 22 ones per column, as the min-max-scaled
//!   one-hot inputs). Every pair of a `W ≤ 53` unit (posit8e0,
//!   float8e4m3, fixed8q6) is within 24 bits and sums in `f32`, sixteen
//!   columns abreast; posit8e1 / posit8e2 take `f64` by the span rule,
//! * `*_dot128_scalar_mac` — the per-element `mac()` loop on the same
//!   unit (what the scalar band sweeps with, and every band's
//!   definition),
//! * `*_dot128_reference` — the bit-field + `WideInt` reference datapath,
//! * `*_dot128x{8,64}_aligned_tile` / `*_per_column_scalar` — one
//!   `dot_tile` of the same row against B = 8 and B = 64 activation
//!   columns (the batch the stack serves), with `elems = K × B` so
//!   MACs/sec is directly comparable to the one-column rows,
//! * `*_layer16x128x64_*` — one `dot_plan` of 16 weight rows, compiled
//!   once outside the timed loop as a model compiles its layers, against
//!   the B = 64 tile, named after the kernel: the entry point the engines
//!   use, and the only one where the aligned band decodes the activation
//!   tile once per layer instead of once per row and no weight at all (for
//!   computed-operand formats such as posit⟨16,1⟩ that decode, not the
//!   multiply, is what a `dot_tile` row spends its time on),
//!
//! plus the quire for posits. Every row asserts the unit really runs the
//! kernel it claims to measure, so a silent fallback to a slower path
//! cannot produce a plausible-looking baseline.
//!
//! Run with `cargo bench --bench emac_throughput`. Writes the committed
//! baseline `BENCH_emac.json` at the repository root.

use dp_bench::timing::{measure, out_path, render_measurements, write_json, Measurement};
use dp_emac::{Emac, FixedEmac, FloatEmac, MacKernel, PositEmac};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::{PositFormat, Quire};
use std::hint::black_box;

/// Dot-product length (the paper's k = 128 reference accumulation count).
const K: usize = 128;

/// Batch widths of the tile rows: the smallest width the tile kernels
/// target, and the chunk width the serving stack and the end-to-end
/// benchmark run.
const TILE_BS: [usize; 2] = [8, 64];

/// Weight rows of the layer rows: enough of them that decoding the
/// activation tile once per layer instead of once per row shows.
const LAYER_ROWS: usize = 16;

fn patterns(mask: u32, skip: u32) -> (Vec<u32>, Vec<u32>) {
    let mut s = 0xfeed_f00d_dead_beefu64;
    let mut ws = Vec::with_capacity(K);
    let mut xs = Vec::with_capacity(K);
    for _ in 0..K {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let a = (s as u32) & mask;
        let b = ((s >> 32) as u32) & mask;
        ws.push(if a == skip { 0 } else { a });
        xs.push(if b == skip { 0 } else { b });
    }
    (ws, xs)
}

/// The widest tile's activation columns, each of length `K` (same pattern
/// policy as [`patterns`], distinct stream per column); narrower tiles
/// take a prefix.
fn tile_cols(mask: u32, skip: u32) -> Vec<Vec<u32>> {
    let mut s = 0x0ddb_a115_c01a_b007u64;
    (0..TILE_BS[1])
        .map(|_| {
            (0..K)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    let a = (s as u32) & mask;
                    if a == skip {
                        0
                    } else {
                        a
                    }
                })
                .collect()
        })
        .collect()
}

/// One `dot_tile` row: asserts the unit runs `kernel`, then measures one
/// whole weight-stationary tile (`K × B` MACs per iteration, so MACs/sec
/// compares directly across batch widths). A lone column keeps the
/// historical `dot{K}_{kernel}` row name.
fn tile_row<E: Emac>(
    rows: &mut Vec<Measurement>,
    label: &str,
    mut unit: E,
    kernel: MacKernel,
    ws: &[u32],
    cols: &[Vec<u32>],
) {
    assert_eq!(
        unit.kernel(),
        kernel,
        "{label}: unit does not run the {kernel} kernel"
    );
    let name = match (cols.len(), kernel) {
        (1, _) => format!("{label}_dot{K}_{kernel}"),
        (b, MacKernel::Aligned) => format!("{label}_dot{K}x{b}_aligned_tile"),
        (b, MacKernel::Scalar) => format!("{label}_dot{K}x{b}_per_column_scalar"),
    };
    let col_refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
    let mut out = vec![0u32; cols.len()];
    rows.push(measure(&name, (K * cols.len()) as u64, || {
        unit.dot_tile(black_box(0), black_box(ws), black_box(&col_refs), &mut out);
        out[0]
    }));
}

/// The trained-like operand stream of the `*_gauss` rows, `len` patterns
/// long: the centred sum of four uniform bytes times `step`, quantised by
/// `quantize` — the bell-shaped stream `tile_equivalence` pins.
fn bell(len: usize, step: f32, seed: u64, quantize: impl Fn(f32) -> u32) -> Vec<u32> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let sum: i32 = (0..4).map(|i| ((s >> (8 * i)) & 0xff) as i32).sum();
            quantize((sum - 510) as f32 * step)
        })
        .collect()
}

/// The `*_layer16x128x64_gauss` row: [`layer_row`] on bell-shaped weights
/// (step 2^-11) and activations (step 2^-8).
fn gauss_row<E: Emac>(
    rows: &mut Vec<Measurement>,
    label: &str,
    unit: E,
    quantize: impl Fn(f32) -> u32,
) {
    let b = TILE_BS[1];
    let weights = bell(LAYER_ROWS * K, 2f32.powi(-11), 0x7a11_ed00, &quantize);
    let activations = bell(b * K, 2f32.powi(-8), 0x0ac7_1e55, &quantize);
    let name = format!("{label}_layer{LAYER_ROWS}x{K}x{b}_gauss");
    layer_row(
        rows,
        &name,
        unit,
        MacKernel::Aligned,
        (&weights, &activations, K),
    );
}

/// The `*_layer24x117x64_onehot` row: [`layer_row`] on Mushroom's first
/// layer shape — 24 rows of `K = 117` bell-shaped weights (step 2^-8)
/// against 64 one-hot columns, each feature a one with probability 22/117.
fn onehot_row<E: Emac>(
    rows: &mut Vec<Measurement>,
    label: &str,
    unit: impl Fn(u64) -> E,
    quantize: impl Fn(f32) -> u32,
) {
    let (n, k, b) = (24, 117, TILE_BS[1]);
    let weights = bell(n * k, 2f32.powi(-8), 0x6d75_5348, &quantize);
    let mut s = 0x0e4e_4075_c01a_b007u64;
    let activations: Vec<u32> = (0..b * k)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            quantize((s % 117 < 22) as u32 as f32)
        })
        .collect();
    let name = format!("{label}_layer{n}x{k}x{b}_onehot");
    let layer = (&weights[..], &activations[..], k);
    layer_row(rows, &name, unit(k as u64), MacKernel::Aligned, layer);
}

/// One layer row named `name`: asserts the unit runs `kernel`, compiles
/// the layer once, as a model does, then measures `dot_plan` of its weight
/// rows, `k` each, against `activations`, `k` per column (`rows × k × B`
/// MACs per iteration).
fn layer_row<E: Emac>(
    rows: &mut Vec<Measurement>,
    name: &str,
    mut unit: E,
    kernel: MacKernel,
    (weights, activations, k): (&[u32], &[u32], usize),
) {
    assert_eq!(
        unit.kernel(),
        kernel,
        "{name}: unit does not run the {kernel} kernel"
    );
    let biases = vec![0u32; weights.len() / k];
    let plan = unit.compile(&biases, weights);
    let mut out = vec![0u32; biases.len() * activations.len() / k];
    rows.push(measure(
        name,
        (biases.len() * activations.len()) as u64,
        || {
            unit.dot_plan(
                black_box(plan.as_ref()),
                black_box(&biases),
                black_box(weights),
                black_box(activations),
                &mut out,
            );
            out[0]
        },
    ));
}

/// One scalar-loop row (`mac()` per element) on an already-built unit —
/// the per-MAC baseline for fast units, the reference datapath for
/// `new_reference()` units.
fn mac_loop_row<E: Emac>(
    rows: &mut Vec<Measurement>,
    name: &str,
    mut unit: E,
    ws: &[u32],
    xs: &[u32],
) {
    rows.push(measure(name, K as u64, || {
        unit.reset();
        for (&x, &y) in ws.iter().zip(xs) {
            unit.mac(black_box(x), black_box(y));
        }
        unit.result()
    }));
}

/// Every row of one format: the tile rows at each batch width, the layer
/// row and the one-column row, on the kernel the unit runs; then the
/// `mac()` loop and, where one is passed, the reference datapath.
fn bench_format<E: Emac>(
    rows: &mut Vec<Measurement>,
    label: &str,
    (mask, skip): (u32, u32),
    unit: impl Fn() -> E,
    reference: Option<E>,
) {
    let (ws, xs) = patterns(mask, skip);
    let cols = tile_cols(mask, skip);
    let kernel = unit().kernel();
    for b in TILE_BS {
        tile_row(rows, label, unit(), kernel, &ws, &cols[..b]);
    }
    let name = format!("{label}_layer{LAYER_ROWS}x{K}x{}_{kernel}", cols.len());
    let (weights, activations) = (cols[..LAYER_ROWS].concat(), cols.concat());
    layer_row(rows, &name, unit(), kernel, (&weights, &activations, K));
    tile_row(rows, label, unit(), kernel, &ws, std::slice::from_ref(&xs));
    let name = format!("{label}_dot{K}_scalar_mac");
    mac_loop_row(rows, &name, unit(), &ws, &xs);
    if let Some(reference) = reference {
        let name = format!("{label}_dot{K}_reference");
        mac_loop_row(rows, &name, reference, &ws, &xs);
    }
}

fn bench_posit(rows: &mut Vec<Measurement>, n: u32, es: u32) {
    let fmt = PositFormat::new(n, es).unwrap();
    let label = format!("posit{n}e{es}");
    bench_format(
        rows,
        &label,
        (fmt.mask(), fmt.nar_bits()),
        || PositEmac::new(fmt, K as u64),
        Some(PositEmac::new_reference(fmt, K as u64)),
    );

    let (ws, xs) = patterns(fmt.mask(), fmt.nar_bits());
    let mut quire = Quire::new(fmt, K as u64);
    rows.push(measure(&format!("{label}_quire_dot{K}"), K as u64, || {
        quire.clear();
        for (&x, &y) in ws.iter().zip(&xs) {
            quire.add_product(black_box(x), black_box(y));
        }
        quire.to_posit()
    }));
}

fn bench_float(rows: &mut Vec<Measurement>, label: &str, we: u32, wf: u32) {
    let fmt = FloatFormat::new(we, wf).unwrap();
    bench_format(
        rows,
        label,
        (fmt.mask(), fmt.nan_bits()),
        || FloatEmac::new(fmt, K as u64),
        Some(FloatEmac::new_reference(fmt, K as u64)),
    );
}

/// Fixed point's baseline stays the `mac()` loop (no `*_reference` row).
fn bench_fixed(rows: &mut Vec<Measurement>, label: &str, n: u32, q: u32) {
    let fmt = FixedFormat::new(n, q).unwrap();
    bench_format(
        rows,
        label,
        ((1u32 << n) - 1, 1 << n),
        || FixedEmac::new(fmt, K as u64),
        None,
    );
}

fn main() {
    let mut rows: Vec<Measurement> = Vec::new();

    // The paper's headline 8-bit formats: aligned-integer vs the per-MAC
    // loop vs the reference datapath.
    for es in [0u32, 1, 2] {
        bench_posit(&mut rows, 8, es);
    }
    // The §IV sweep's 16-bit formats: es = 0, 1 align (29- and 57-bit
    // minpos-unit operands over the split table, i128 sums); es = 2
    // (113-bit operands) runs the scalar kernel on the WideInt register.
    for es in [0u32, 1, 2] {
        bench_posit(&mut rows, 16, es);
    }
    // Past the split ceiling: the scalar kernel with the bit-field decode
    // — fast and reference paths should roughly coincide.
    bench_posit(&mut rows, 17, 1);

    bench_float(&mut rows, "float8e4m3", 4, 3);
    bench_float(&mut rows, "float16e5m10", 5, 10);

    bench_fixed(&mut rows, "fixed8q6", 8, 6);
    bench_fixed(&mut rows, "fixed16q8", 16, 8);

    // Trained-like operands on three W > 53 units (105-, 121- and 89-bit
    // registers): every (row, tile) pair passes the span rule.
    for (n, es) in [(8u32, 2u32), (16, 1)] {
        let fmt = PositFormat::new(n, es).unwrap();
        let unit = PositEmac::new(fmt, K as u64);
        gauss_row(&mut rows, &format!("posit{n}e{es}"), unit, |v| {
            dp_posit::convert::from_f32(fmt, v)
        });
    }
    let fmt = FloatFormat::new(5, 10).unwrap();
    gauss_row(
        &mut rows,
        "float16e5m10",
        FloatEmac::new(fmt, K as u64),
        |v| dp_minifloat::convert::from_f32_saturating(fmt, v),
    );

    // Mushroom's first layer on each 8-bit format: the f32 lane on the
    // W <= 53 units (33-, 43- and 23-bit registers at K = 117).
    for es in [0u32, 1, 2] {
        let fmt = PositFormat::new(8, es).unwrap();
        onehot_row(
            &mut rows,
            &format!("posit8e{es}"),
            |k| PositEmac::new(fmt, k),
            |v| dp_posit::convert::from_f32(fmt, v),
        );
    }
    let fmt = FloatFormat::new(4, 3).unwrap();
    onehot_row(
        &mut rows,
        "float8e4m3",
        |k| FloatEmac::new(fmt, k),
        |v| dp_minifloat::convert::from_f32_saturating(fmt, v),
    );
    let fmt = FixedFormat::new(8, 6).unwrap();
    onehot_row(
        &mut rows,
        "fixed8q6",
        |k| FixedEmac::new(fmt, k),
        |v| fmt.from_f32(v) as u32 & 0xff,
    );

    println!("{}", render_measurements(&rows));

    // Headline speedups per format: each one-column row over the
    // reference path (fixed point's baseline is scalar_mac), plus each
    // tile row over its one-column counterpart at matched MACs/sec (tile
    // rows carry K × B elems per iteration).
    let find = |name: &str| rows.iter().find(|m| m.name == name);
    for label in [
        "posit8e0",
        "posit8e1",
        "posit8e2",
        "posit16e0",
        "posit16e1",
        "posit16e2",
        "posit17e1",
        "float8e4m3",
        "float16e5m10",
        "fixed8q6",
        "fixed16q8",
    ] {
        let baseline = find(&format!("{label}_dot{K}_reference"))
            .or_else(|| find(&format!("{label}_dot{K}_scalar_mac")))
            .unwrap();
        for kernel in ["aligned", "scalar", "scalar_mac"] {
            if let Some(m) = find(&format!("{label}_dot{K}_{kernel}")) {
                println!(
                    "{label} {kernel}: {:.2}x MACs/sec over {}",
                    baseline.ns_per_iter / m.ns_per_iter,
                    baseline.name,
                );
            }
        }
        for (tile, row_kernel) in [("aligned_tile", "aligned"), ("per_column_scalar", "scalar")] {
            for b in TILE_BS {
                if let (Some(t), Some(r)) = (
                    find(&format!("{label}_dot{K}x{b}_{tile}")),
                    find(&format!("{label}_dot{K}_{row_kernel}")),
                ) {
                    println!(
                        "{label} {tile}: {:.2}x MACs/sec over {} at B={b}",
                        t.elems_per_sec() / r.elems_per_sec(),
                        r.name,
                    );
                }
            }
        }
    }
    // The span rule's gain: trained-like operands against random patterns
    // on the same unit and shape.
    for label in ["posit8e2", "posit16e1", "float16e5m10"] {
        let layer = |kind: &str| find(&format!("{label}_layer{LAYER_ROWS}x{K}x64_{kind}")).unwrap();
        let (gauss, aligned) = (layer("gauss"), layer("aligned"));
        println!(
            "{label} gauss: {:.2}x MACs/sec over {}",
            gauss.elems_per_sec() / aligned.elems_per_sec(),
            aligned.name,
        );
    }

    let path = out_path("emac");
    let meta = [
        ("bench", "emac_throughput".to_string()),
        ("command", "cargo bench --bench emac_throughput".to_string()),
        ("k", K.to_string()),
        ("tile_b", format!("{TILE_BS:?}")),
        (
            "note",
            "elems = MACs; rows are named after the MacKernel the unit runs (a function of \
             format and capacity; nothing selects it). dot{K}_aligned / dot{K}_scalar = one \
             row against ONE column through dot_tile (before PR 17 these rows ran dot_slice, \
             which is now only the provided per-MAC loop): aligned = the row compiled to plain \
             integers for the call, then an i64/i128 integer dot product; scalar = the per-MAC \
             loop. *_scalar_mac = per-element mac() loop on the same unit; *_reference = \
             bit-field decode + WideInt datapath. dot{K}x{B} rows run dot_tile against B \
             activation columns (elems = K*B): *_aligned_tile = weight row and activation \
             tile decoded once each, then the micro-kernel of the register's static sum type \
             — f64, 8 interleaved columns abreast, for registers <= 53 bits (posit8e0 33, \
             float8e4m3 43, fixed8q6 23, fixed16q8 39 at k = 128), i64 / i128 4 columns \
             abreast beyond (posit8e1 57; posit8e2 105, posit16e0 65, posit16e1 121, \
             float16e5m10 89); in layer sweeps of 2+ rows a (row, tile) pair whose \
             operand span proves 53 bits enough (SumLane::span_bound) sums in f64 instead — \
             never for the i128 formats' random patterns, for 5 of posit8e1's 16 random layer \
             rows. \
             *_per_column_scalar = the per-MAC loop per column. layer16x128x64 rows run \
             dot_plan (16 weight rows, compiled once outside the timed loop, against the B = 64 \
             tile, elems = 16*K*64): the aligned band decodes the activation tile once per layer \
             and no weight, the scalar band is the per-MAC \
             loop again. *_layer16x128x64_gauss = the same on trained-like operands (from_f32 \
             of a bell-shaped stream: weights on a 2^-11 grid, activations on 2^-8), where \
             every pair passes the span rule and sums in f64. *_layer24x117x64_onehot = \
             Mushroom's first layer shape (24 bell-shaped weight rows on a 2^-8 grid, K = 117, \
             against 64 one-hot columns, elems = 24*117*64): on the W <= 53 units (posit8e0, \
             float8e4m3, fixed8q6) every pair's span bound is <= 24 bits and sums in f32, 16 \
             columns abreast"
                .to_string(),
        ),
    ];
    write_json(&path, &meta, &rows).expect("write BENCH_emac.json");
    println!("\nwrote {}", path.display());
}
