//! Tile and layer equivalence: [`Emac::dot_tile`] and [`Emac::dot_layer`]
//! must be bit-identical, per output, to the `set_bias → mac × K →
//! result` expansion (the per-MAC definition) on every input, or the
//! aligned sweep is a silent numerics change.
//!
//! Coverage, per band:
//! * **Aligned, n = 8** — exhaustive over all `2^(2n)` operand
//!   pairs at batch widths B ∈ {1, 8} for posit⟨8, es ∈ {0,1,2}⟩, the
//!   8-bit minifloat and an 8-bit fixed format, against the reference
//!   datapath (the weight row covers every pattern, each column
//!   holds one constant activation pattern).
//! * **Aligned (9–16 bits)** and **scalar (wide operands, > 16 bits)** —
//!   randomized tile-vs-expansion bit-identity with random biases,
//!   including K = 0, B ∈ {0, 1} and ragged (non-power-of-two) B.
//! * **Layer level** — `dot_layer` against its per-row `dot_tile`
//!   expansion (outputs, last-column state, `macs_done`), with poison
//!   confined to its weight row / activation column.
//! * **Register bound** — per trio format at K = capacity: every operand
//!   at the largest magnitude (the eq.-(3)/(4) register's own bound),
//!   alternating signs (cancellation to the bias), and a special in the
//!   last real column of a padded group of the `f64` lane.
//! * **Trained-like operands** — random bit patterns span about the whole
//!   format, so on `W > 53` units they mostly take the integer fallback;
//!   a bell-shaped stream quantised by `from_f32` (posit⟨16,1⟩,
//!   float⟨5,10⟩, posit⟨8,1⟩, posit⟨8,2⟩) takes the `f64` lane by
//!   [`SumLane::span_bound`], beside a full-span row and column that must
//!   fall back, against `new_reference()`.
//! * **Accounting** — a non-empty tile leaves `macs_done` at exactly
//!   K × B, agreeing with mac()/reference paths fed the same
//!   K × B workload; B = 0 is a state no-op; a sweep past the unit's
//!   capacity panics on both bands, in release builds too.

use dp_emac::{
    Emac, EmacEntry, EmacUnit, Family, FixedEmac, Float, FloatEmac, MacKernel, Posit, PositEmac,
    SumLane, TableEmac,
};
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

/// Runs one tile through `unit.dot_tile` and checks every column against
/// the per-column `set_bias → mac × K → result` expansion — the per-MAC
/// loop — on a clone of the same unit, plus the K × B accounting and the
/// last-column state contract.
fn tile_vs_expansion<E: Emac + Clone>(unit: &mut E, bias: u32, ws: &[u32], cols: &[Vec<u32>]) {
    let col_refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
    let mut out = vec![0u32; cols.len()];
    unit.dot_tile(bias, ws, &col_refs, &mut out);
    let mut expansion = unit.clone();
    for (col, &got) in cols.iter().zip(&out) {
        expansion.set_bias(bias);
        for (&w, &a) in ws.iter().zip(col) {
            expansion.mac(w, a);
        }
        assert_eq!(got, expansion.result(), "tile vs expansion column");
    }
    if !cols.is_empty() {
        assert_eq!(
            unit.macs_done(),
            (ws.len() * cols.len()) as u64,
            "tile macs_done must be K × B"
        );
        assert_eq!(
            unit.result(),
            out[cols.len() - 1],
            "unit state after the tile must equal the last column's"
        );
    }
}

#[test]
fn posit8_tile_matches_reference_exhaustively() {
    // All 65 536 (w, a) pairs per es: the weight row is every bit pattern
    // once, each column holds one constant activation pattern, so 256
    // columns sweep every pair. Run as 32 tiles of B = 8 (the 4-wide body)
    // and as 256 tiles of B = 1 (the single-column body), both against
    // the WideInt reference datapath.
    for es in [0u32, 1, 2] {
        let fmt = PositFormat::new(8, es).unwrap();
        let all: Vec<u32> = fmt.patterns().collect();
        let mut unit = PositEmac::new(fmt, 256);
        assert_eq!(unit.kernel(), MacKernel::Aligned, "{fmt}");
        let mut reference = PositEmac::new_reference(fmt, 256);
        let bias = all[all.len() / 3];
        let mut expected = Vec::with_capacity(all.len());
        for &a in &all {
            reference.set_bias(bias);
            for &w in &all {
                reference.mac(w, a);
            }
            expected.push(reference.result());
        }
        for (tile, want) in all.chunks(8).zip(expected.chunks(8)) {
            let cols: Vec<Vec<u32>> = tile.iter().map(|&a| vec![a; all.len()]).collect();
            let col_refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
            let mut out = vec![0u32; cols.len()];
            unit.dot_tile(bias, &all, &col_refs, &mut out);
            assert_eq!(out, want, "{fmt} B=8 tile");
        }
        for (&a, &want) in all.iter().zip(&expected) {
            let col = vec![a; all.len()];
            let mut out = [0u32];
            unit.dot_tile(bias, &all, &[&col], &mut out);
            assert_eq!(out[0], want, "{fmt} B=1 a={a:#x}");
        }
    }
}

#[test]
fn minifloat8_tile_matches_reference_exhaustively() {
    let fmt = FloatFormat::new(4, 3).unwrap();
    let all: Vec<u32> = fmt.patterns().collect();
    let mut unit = FloatEmac::new(fmt, 256);
    assert_eq!(unit.kernel(), MacKernel::Aligned);
    let mut reference = FloatEmac::new_reference(fmt, 256);
    let bias = all[all.len() / 3];
    let mut expected = Vec::with_capacity(all.len());
    for &a in &all {
        reference.set_bias(bias);
        for &w in &all {
            reference.mac(w, a);
        }
        expected.push(reference.result());
    }
    for (tile, want) in all.chunks(8).zip(expected.chunks(8)) {
        let cols: Vec<Vec<u32>> = tile.iter().map(|&a| vec![a; all.len()]).collect();
        let col_refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut out = vec![0u32; cols.len()];
        unit.dot_tile(bias, &all, &col_refs, &mut out);
        assert_eq!(out, want, "B=8 tile");
    }
    for (&a, &want) in all.iter().zip(&expected) {
        let col = vec![a; all.len()];
        let mut out = [0u32];
        unit.dot_tile(bias, &all, &[&col], &mut out);
        assert_eq!(out[0], want, "B=1 a={a:#x}");
    }
}

#[test]
fn fixed8_tile_matches_scalar_exhaustively() {
    // The mac() loop on a second unit is the reference: its decode goes
    // through sign and magnitude, the sweep's through two shifts.
    let fmt = FixedFormat::new(8, 6).unwrap();
    let all: Vec<u32> = (0..256u32).collect();
    let mut unit = FixedEmac::new(fmt, 256);
    assert_eq!(unit.kernel(), MacKernel::Aligned);
    let mut scalar = FixedEmac::new(fmt, 256);
    let bias = 0x5au32;
    let mut expected = Vec::with_capacity(all.len());
    for &a in &all {
        scalar.set_bias(bias);
        for &w in &all {
            scalar.mac(w, a);
        }
        expected.push(scalar.result());
    }
    for (tile, want) in all.chunks(8).zip(expected.chunks(8)) {
        let cols: Vec<Vec<u32>> = tile.iter().map(|&a| vec![a; all.len()]).collect();
        let col_refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut out = vec![0u32; cols.len()];
        unit.dot_tile(bias, &all, &col_refs, &mut out);
        assert_eq!(out, want, "B=8 tile");
    }
    for (&a, &want) in all.iter().zip(&expected) {
        let col = vec![a; all.len()];
        let mut out = [0u32];
        unit.dot_tile(bias, &all, &[&col], &mut out);
        assert_eq!(out[0], want, "B=1 a={a:#x}");
    }
}

#[test]
fn posit_gathered_and_scalar_tiles_match_randomized() {
    // 13–16-bit formats (aligned where the operands fit the aligned
    // word, else scalar) and > 16-bit formats (scalar) — random tiles
    // with random biases, always including K = 0, B ∈ {0, 1} and ragged
    // batch widths.
    let mut next = xorshift(0x711e_c0de ^ 0x51ce_ba7c_4ed0_7e57);
    for (n, es, want) in [
        (13u32, 0u32, MacKernel::Aligned),
        (14, 1, MacKernel::Aligned),
        (16, 1, MacKernel::Aligned), // 57-bit operands, i128 sums
        (10, 2, MacKernel::Scalar),  // 65-bit operands
        (16, 2, MacKernel::Scalar),  // 113-bit operands
        (17, 1, MacKernel::Scalar),
        (20, 2, MacKernel::Scalar),
    ] {
        let fmt = PositFormat::new(n, es).unwrap();
        for trial in 0..60 {
            let (k, b) = match trial {
                0 => (0usize, 8usize),
                1 => (24, 0),
                2 => (24, 1),
                3 => (24, 7),
                _ => ((next() % 48) as usize, (next() % 11) as usize),
            };
            let mut unit = PositEmac::new(fmt, k.max(1) as u64);
            assert_eq!(unit.kernel(), want, "{fmt}");
            let bias = (next() as u32) & fmt.mask();
            let ws: Vec<u32> = (0..k).map(|_| (next() as u32) & fmt.mask()).collect();
            let cols: Vec<Vec<u32>> = (0..b)
                .map(|_| (0..k).map(|_| (next() as u32) & fmt.mask()).collect())
                .collect();
            tile_vs_expansion(&mut unit, bias, &ws, &cols);
        }
    }
}

#[test]
fn minifloat_gathered_and_scalar_tiles_match_randomized() {
    let mut next = xorshift(0xf10a_7b47_0000_711e ^ 0xffff);
    for (we, wf, want) in [
        (4u32, 8u32, MacKernel::Aligned), // n = 13
        (5, 10, MacKernel::Aligned),      // n = 16
        (6, 5, MacKernel::Scalar),        // n = 12, six exponent bits
        (6, 9, MacKernel::Scalar),        // n = 16, six exponent bits
        (5, 11, MacKernel::Scalar),       // n = 17
        (8, 14, MacKernel::Scalar),       // n = 23
    ] {
        let fmt = FloatFormat::new(we, wf).unwrap();
        for trial in 0..60 {
            let (k, b) = match trial {
                0 => (0usize, 8usize),
                1 => (24, 0),
                2 => (24, 1),
                3 => (24, 7),
                _ => ((next() % 48) as usize, (next() % 11) as usize),
            };
            let mut unit = FloatEmac::new(fmt, k.max(1) as u64);
            assert_eq!(unit.kernel(), want, "{fmt}");
            let bias = (next() as u32) & fmt.mask();
            let ws: Vec<u32> = (0..k).map(|_| (next() as u32) & fmt.mask()).collect();
            let cols: Vec<Vec<u32>> = (0..b)
                .map(|_| (0..k).map(|_| (next() as u32) & fmt.mask()).collect())
                .collect();
            tile_vs_expansion(&mut unit, bias, &ws, &cols);
        }
    }
}

#[test]
fn fixed_tiles_match_randomized_at_every_width() {
    let mut next = xorshift(0xf1ed_711e_4ed0_5eed ^ 0xaaaa);
    for (n, q) in [(13u32, 6u32), (16, 8), (17, 8), (24, 12), (32, 16)] {
        let fmt = FixedFormat::new(n, q).unwrap();
        let mask = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        for trial in 0..60 {
            let (k, b) = match trial {
                0 => (0usize, 8usize),
                1 => (24, 0),
                2 => (24, 1),
                3 => (24, 7),
                _ => ((next() % 48) as usize, (next() % 11) as usize),
            };
            let mut unit = FixedEmac::new(fmt, k.max(1) as u64);
            assert_eq!(unit.kernel(), MacKernel::Aligned, "{fmt}");
            let bias = (next() as u32) & mask;
            let ws: Vec<u32> = (0..k).map(|_| (next() as u32) & mask).collect();
            let cols: Vec<Vec<u32>> = (0..b)
                .map(|_| (0..k).map(|_| (next() as u32) & mask).collect())
                .collect();
            tile_vs_expansion(&mut unit, bias, &ws, &cols);
        }
    }
}

/// The adversarial tiles of one format at `K = capacity`: `big` is the
/// pattern of the largest magnitude, `small` its negation (or the largest
/// of the other sign), `special` the poisoning pattern where the family
/// has one.
fn register_bound_tiles<E: Emac + Clone>(
    name: &str,
    mut unit: E,
    k: usize,
    (big, small): (u32, u32),
    special: Option<u32>,
) {
    let bigs = vec![big; k];
    // B = 7 and 9 leave the f64 lane's last group one column short and
    // seven columns short; 8 fills it; 1 is the single-pass body.
    for b in [1usize, 7, 8, 9] {
        // The register's own bound: bias and every product at the largest
        // magnitude, all of one sign.
        let same = vec![vec![big; k]; b];
        tile_vs_expansion(&mut unit, big, &bigs, &same);
        tile_vs_expansion(&mut unit, small, &vec![small; k], &same);
        // Alternating signs: the running sum swings between the two
        // largest products and cancels to the bias.
        let swing: Vec<u32> = (0..k).map(|i| [big, small][i % 2]).collect();
        let swings = vec![swing.clone(); b];
        tile_vs_expansion(&mut unit, 0, &bigs, &swings);
        let mut out = vec![0u32; b];
        let refs: Vec<&[u32]> = swings.iter().map(|c| c.as_slice()).collect();
        unit.dot_tile(0, &bigs, &refs, &mut out);
        assert!(
            out.iter().all(|&o| o == out[0]),
            "{name} B={b}: columns differ"
        );
        // A special in the last real column poisons that column only.
        let Some(special) = special else { continue };
        let mut cols = same.clone();
        cols[b - 1][k / 2] = special;
        tile_vs_expansion(&mut unit, 0, &bigs, &cols);
        let refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut poisoned = vec![0u32; b];
        unit.dot_tile(0, &bigs, &refs, &mut poisoned);
        let refs: Vec<&[u32]> = same.iter().map(|c| c.as_slice()).collect();
        let mut clean = vec![0u32; b];
        unit.dot_tile(0, &bigs, &refs, &mut clean);
        assert_eq!(
            poisoned[..b - 1],
            clean[..b - 1],
            "{name} B={b}: poison leaked"
        );
        assert_ne!(poisoned[b - 1], clean[b - 1], "{name} B={b}: poison lost");
    }
}

#[test]
fn register_bound_tiles_are_exact_on_every_trio_format() {
    const K: usize = 128;
    for (n, es) in [(8u32, 0u32), (16, 1)] {
        let fmt = PositFormat::new(n, es).unwrap();
        let maxpos = fmt.maxpos_bits();
        let unit = PositEmac::new(fmt, K as u64);
        assert_eq!(unit.kernel(), MacKernel::Aligned, "{fmt}");
        let pair = (maxpos, maxpos.wrapping_neg() & fmt.mask());
        register_bound_tiles(&fmt.to_string(), unit, K, pair, Some(fmt.nar_bits()));
    }
    for (we, wf) in [(4u32, 3u32), (5, 10)] {
        let fmt = FloatFormat::new(we, wf).unwrap();
        let unit = FloatEmac::new(fmt, K as u64);
        assert_eq!(unit.kernel(), MacKernel::Aligned, "{fmt}");
        let pair = (fmt.max_bits(false), fmt.max_bits(true));
        register_bound_tiles(&fmt.to_string(), unit, K, pair, Some(fmt.nan_bits()));
    }
    for (n, q) in [(8u32, 6u32), (16, 8)] {
        let fmt = FixedFormat::new(n, q).unwrap();
        let unit = FixedEmac::new(fmt, K as u64);
        // Two's complement: the most negative word is the largest.
        let pair = (1u32 << (n - 1), (1u32 << (n - 1)) - 1);
        register_bound_tiles(&fmt.to_string(), unit, K, pair, None);
    }
}

#[test]
fn tile_macs_done_is_k_times_b_on_every_band() {
    // The accounting audit, per band: a tile of K weights × B columns
    // leaves macs_done at exactly K × B — the same count a scalar unit and
    // the reference datapath report after an identical K × B workload —
    // including the K = 0, B = 1 and ragged-B edge cases. B = 0 must not
    // touch the counter at all.
    let mut next = xorshift(0xacc0_0117_ab1e_5eed);
    for n in [8u32, 16, 17] {
        let fmt = PositFormat::new(n, 1).unwrap();
        for (k, b) in [(24usize, 8usize), (24, 1), (24, 5), (0, 8), (7, 3)] {
            let mut unit = PositEmac::new(fmt, k.max(1) as u64);
            let ws: Vec<u32> = (0..k).map(|_| (next() as u32) & fmt.mask()).collect();
            let cols: Vec<Vec<u32>> = (0..b)
                .map(|_| (0..k).map(|_| (next() as u32) & fmt.mask()).collect())
                .collect();
            let col_refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
            let mut out = vec![0u32; b];
            unit.dot_tile(0, &ws, &col_refs, &mut out);
            assert_eq!(unit.macs_done(), (k * b) as u64, "posit<{n},1> K={k} B={b}");

            let mut scalar = PositEmac::new(fmt, k.max(1) as u64);
            let mut reference = PositEmac::new_reference(fmt, k.max(1) as u64);
            for col in &cols {
                scalar.set_bias(0);
                reference.set_bias(0);
                for (&w, &a) in ws.iter().zip(col) {
                    scalar.mac(w, a);
                    reference.mac(w, a);
                }
            }
            if b > 0 {
                // The per-column expansion's counter resets each set_bias,
                // so it reports only the last column's K; the tile keeps
                // the whole sweep. Their *workloads* are identical.
                assert_eq!(scalar.macs_done(), k as u64);
                assert_eq!(reference.macs_done(), k as u64);
                assert_eq!(
                    unit.macs_done(),
                    scalar.macs_done() * b as u64,
                    "tile count = per-column count × B"
                );
            }

            // B = 0 leaves all state untouched.
            let before = unit.macs_done();
            unit.dot_tile(0, &ws, &[], &mut []);
            assert_eq!(unit.macs_done(), before, "B=0 must be a no-op");
        }
    }
}

#[test]
#[should_panic(expected = "over capacity")]
fn a_sweep_past_the_units_capacity_panics() {
    // The eq.-(3)/(4) register, and with it every sum type's exactness,
    // is sized for the capacity: five terms on a unit built for four must
    // not be summed, on either band, in a release build either. The
    // scalar-band units must panic first; the aligned unit's panic ends
    // the test.
    let p8 = PositFormat::new(8, 1).unwrap();
    let sweep = |mut unit: PositEmac, kernel: MacKernel| {
        assert_eq!(unit.kernel(), kernel, "{}", unit.format());
        let one = dp_posit::convert::from_f64(unit.format(), 1.0);
        unit.dot_layer(&[0], &[one; 5], &[one; 10], &mut [0u32; 2]);
    };
    for unit in [
        PositEmac::new(PositFormat::new(16, 2).unwrap(), 4),
        PositEmac::new_reference(p8, 4),
    ] {
        let fmt = unit.format();
        let panic = std::panic::catch_unwind(|| sweep(unit, MacKernel::Scalar))
            .expect_err("a scalar-band sweep past capacity must panic");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("over capacity"), "{fmt}: {message}");
    }
    sweep(PositEmac::new(p8, 4), MacKernel::Aligned);
}

/// A seeded bell-shaped stream: the centred sum of four uniform bytes,
/// times `step` — values on a grid of `step`, zero included, densest near
/// zero, within ±510 steps. At a step of 2^-11 for weights and 2^-8 for
/// activations it occupies the register the way a trained layer does.
fn bell(seed: u64, step: f32) -> impl FnMut() -> f32 {
    let mut next = xorshift(seed);
    move || {
        let r = next();
        let sum: i32 = (0..4).map(|i| ((r >> (8 * i)) & 0xff) as i32).sum();
        (sum - 510) as f32 * step
    }
}

/// Every output of `unit.dot_layer` against the reference unit's
/// `set_bias → mac × K → result`.
fn layer_vs_reference<E: Emac>(
    unit: &mut E,
    reference: &mut E,
    (biases, weights, acts): (&[u32], &[u32], &[u32]),
    batch: usize,
    ctx: &str,
) {
    let rows = biases.len();
    let k = weights.len() / rows;
    let mut out = vec![0u32; rows * batch];
    unit.dot_layer(biases, weights, acts, &mut out);
    for j in 0..batch {
        for (r, &bias) in biases.iter().enumerate() {
            reference.set_bias(bias);
            for (&w, &a) in weights[r * k..][..k].iter().zip(&acts[j * k..][..k]) {
                reference.mac(w, a);
            }
            assert_eq!(
                out[j * rows + r],
                reference.result(),
                "{ctx} row {r} column {j}"
            );
        }
    }
}

/// Trained-like layers of one `W > 53` format at K ∈ {24, 117, 128} and
/// B ∈ {2, 7, 8, 9, 64}: three rows — bell, full-span (`big` and `small`,
/// the largest and smallest magnitudes, among bell weights), bell —
/// against a bell tile with a special in the padded group, then against
/// the same tile with one full-span column. The bell rows must take the
/// `f64` lane by [`SumLane::span_bound`] against the bell tile and the
/// full-span row must fall back against the full-span tile, so one sweep
/// mixes lanes; every output must equal `new_reference()`.
fn trained_like_layers<F: Family>(
    fmt: F::Format,
    quantize: impl Fn(f32) -> u32,
    (big, small, special): (u32, u32, u32),
) {
    let name = fmt.to_string();
    let decoder = F::new(fmt, false);
    let magnitude = |b: u32| {
        let e: EmacEntry = decoder.decode(b);
        e.field() << e.scale()
    };
    let or = |bits: &[u32]| bits.iter().fold(0, |m, &b| m | magnitude(b));
    let mut weight = bell(0xbe11_0000 ^ big as u64, 2f32.powi(-11));
    let mut act = bell(0xbe11_ac75 ^ big as u64, 2f32.powi(-8));
    for k in [24usize, 117, 128] {
        let mut unit = TableEmac::<F>::new(fmt, k as u64);
        assert_eq!(unit.kernel(), MacKernel::Aligned, "{name}");
        assert!(unit.accumulator_width() > 53, "{name}: not a W > 53 unit");
        let mut reference = TableEmac::<F>::new_reference(fmt, k as u64);
        for b in [2usize, 7, 8, 9, 64] {
            let biases: Vec<u32> = (0..3).map(|_| quantize(weight())).collect();
            let mut weights: Vec<u32> = (0..3 * k).map(|_| quantize(weight())).collect();
            (weights[k + k / 2], weights[k + k / 3]) = (big, small);
            let mut acts: Vec<u32> = (0..b * k).map(|_| quantize(act())).collect();
            if b % 8 != 0 {
                acts[(b - 1) * k + k / 4] = special;
            }
            let bound = |r: usize, acts: &[u32]| {
                SumLane::span_bound(or(&weights[r * k..][..k]), or(acts), k)
            };
            let ctx = format!("{name} K={k} B={b}");
            for r in [0, 2] {
                let bound = bound(r, &acts);
                assert!(bound <= 53, "{ctx}: bell row {r} needs {bound} bits");
            }
            let layer = (&biases[..], &weights[..], &acts[..]);
            layer_vs_reference(&mut unit, &mut reference, layer, b, &ctx);
            (acts[k / 2], acts[k / 3]) = (big, small);
            let bound = bound(1, &acts);
            assert!(bound > 53, "{ctx}: full-span pair passes at {bound} bits");
            let layer = (&biases[..], &weights[..], &acts[..]);
            layer_vs_reference(&mut unit, &mut reference, layer, b, &ctx);
        }
    }
}

#[test]
fn trained_like_operands_sum_in_f64_by_span_bit_identically() {
    for (n, es) in [(16u32, 1u32), (8, 1), (8, 2)] {
        let fmt = PositFormat::new(n, es).unwrap();
        let extremes = (fmt.maxpos_bits(), fmt.minpos_bits(), fmt.nar_bits());
        trained_like_layers::<Posit>(fmt, |v| dp_posit::convert::from_f32(fmt, v), extremes);
    }
    let fmt = FloatFormat::new(5, 10).unwrap();
    // Pattern 1 is the smallest subnormal.
    let extremes = (fmt.max_bits(false), 1, fmt.nan_bits());
    let quantize = |v| dp_minifloat::convert::from_f32_saturating(fmt, v);
    trained_like_layers::<Float>(fmt, quantize, extremes);
}

#[test]
fn spilled_window_tiles_stay_bit_identical() {
    // The scalar band must honour the per-column contract on a register
    // past the i128 too: posit<16,2> sized for 2^30 accumulations (256
    // bits, WideInt) against the reference datapath.
    let fmt = PositFormat::new(16, 2).unwrap();
    let mut unit = PositEmac::new(fmt, 1 << 30);
    assert_eq!(
        (unit.kernel(), unit.accumulator_width()),
        (MacKernel::Scalar, 256)
    );
    let mut next = xorshift(0x0b5e_55ed_ca11_ab1e);
    let ws: Vec<u32> = (0..256).map(|_| (next() as u32) & fmt.mask()).collect();
    let cols: Vec<Vec<u32>> = (0..4)
        .map(|_| (0..256).map(|_| (next() as u32) & fmt.mask()).collect())
        .collect();
    let col_refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
    let mut out = vec![0u32; 4];
    unit.dot_tile(0, &ws, &col_refs, &mut out);
    let mut reference = PositEmac::new_reference(fmt, 256);
    for (col, &got) in cols.iter().zip(&out) {
        reference.set_bias(0);
        for (&w, &a) in ws.iter().zip(col) {
            reference.mac(w, a);
        }
        assert_eq!(got, reference.result(), "spilled tile vs reference");
    }
    assert_eq!(unit.macs_done(), 256 * 4);
}

/// Runs one layer through `unit.dot_layer` and checks it against its
/// definition — one `dot_tile` per weight row on a clone of the same unit
/// — for every output, the final (last row, last column) state and
/// `macs_done`. Returns the sample-major outputs.
fn layer_vs_rows<E: Emac + Clone>(
    unit: &mut E,
    biases: &[u32],
    weights: &[u32],
    acts: &[u32],
    batch: usize,
) -> Vec<u32> {
    let rows = biases.len();
    let fan_in = weights.len().checked_div(rows).unwrap_or(0);
    let mut expansion = unit.clone();
    let mut out = vec![0u32; rows * batch];
    unit.dot_layer(biases, weights, acts, &mut out);
    let cols: Vec<&[u32]> = (0..batch)
        .map(|j| &acts[j * fan_in..(j + 1) * fan_in])
        .collect();
    let mut row_out = vec![0u32; batch];
    for (r, &bias) in biases.iter().enumerate() {
        let wrow = &weights[r * fan_in..(r + 1) * fan_in];
        expansion.dot_tile(bias, wrow, &cols, &mut row_out);
        for (j, &want) in row_out.iter().enumerate() {
            assert_eq!(out[j * rows + r], want, "row {r} column {j}");
        }
    }
    assert_eq!(unit.macs_done(), expansion.macs_done(), "layer macs_done");
    assert_eq!(unit.result(), expansion.result(), "layer final state");
    out
}

#[test]
fn dot_layer_matches_per_row_tiles_on_every_band() {
    // Aligned (i64 and i128 sums, table and computed operands) and scalar
    // (i128 and WideInt registers) bands, all three families, random
    // patterns (specials included): every batch width through the quad
    // body and its tail, fan_in = 0, and the empty batch.
    fn p(n: u32, es: u32, k: u64) -> EmacUnit {
        EmacUnit::Posit(PositEmac::new(PositFormat::new(n, es).unwrap(), k))
    }
    fn f(we: u32, wf: u32, k: u64) -> EmacUnit {
        EmacUnit::Float(FloatEmac::new(FloatFormat::new(we, wf).unwrap(), k))
    }
    fn x(n: u32, q: u32, k: u64) -> EmacUnit {
        EmacUnit::Fixed(FixedEmac::new(FixedFormat::new(n, q).unwrap(), k))
    }
    type Make = fn(u64) -> EmacUnit;
    let units: [(u32, Make); 13] = [
        (8, |k| p(8, 0, k)),
        (8, |k| p(8, 2, k)),
        (10, |k| p(10, 2, k)),
        (16, |k| p(16, 0, k)),
        (16, |k| p(16, 1, k)),
        (16, |k| p(16, 2, k)),
        (17, |k| p(17, 1, k)),
        (8, |k| f(4, 3, k)),
        (16, |k| f(5, 10, k)),
        (16, |k| f(6, 9, k)),
        (8, |k| x(8, 6, k)),
        (16, |k| x(16, 8, k)),
        (32, |k| x(32, 16, k)),
    ];
    let mut next = xorshift(0x1a7e_4ed0_0d07_1a7e);
    for (bits, make) in units {
        let mask = u32::MAX >> (32 - bits);
        for fan_in in [0usize, 5, 37] {
            let mut unit = make(fan_in.max(1) as u64);
            for (rows, batch) in [1usize, 3]
                .into_iter()
                .flat_map(|rows| [0usize, 1, 2, 3, 4, 5, 7, 64].map(|b| (rows, b)))
            {
                let mut pats =
                    |len: usize| -> Vec<u32> { (0..len).map(|_| (next() as u32) & mask).collect() };
                let (biases, weights) = (pats(rows), pats(rows * fan_in));
                let acts = pats(batch * fan_in);
                let before = unit.macs_done();
                layer_vs_rows(&mut unit, &biases, &weights, &acts, batch);
                let want = if batch == 0 {
                    before
                } else {
                    (fan_in * batch) as u64
                };
                assert_eq!(unit.macs_done(), want, "K={fan_in} B={batch}");
            }
        }
        // A layer without rows is a no-op too.
        make(1).dot_layer::<u32, u32>(&[], &[], &[], &mut []);
    }
}

/// Poison (NaR / Inf / NaN) must stay in the lane that met it: with finite
/// weights and one poisoned activation in exactly one column, only that
/// column reads out poisoned and every other column equals its per-column
/// `set_bias → mac × K → result`; a poisoned *bias* poisons every
/// column. Sweeps B over the single-column, quad and tail bodies and
/// every column position, with the poison near the start and near the end
/// of a short and a long row. `pattern` yields finite
/// patterns only.
fn poison_stays_in_its_lane<E: Emac + Clone>(
    unit: &mut E,
    poisons: &[u32],
    poisoned_out: u32,
    mut pattern: impl FnMut() -> u32,
) {
    for (k, b) in [5usize, 37]
        .into_iter()
        .flat_map(|k| [1usize, 2, 3, 4, 5, 7].map(|b| (k, b)))
    {
        let ws: Vec<u32> = (0..k).map(|_| pattern()).collect();
        let bias = pattern();
        let clean: Vec<Vec<u32>> = (0..b)
            .map(|_| (0..k).map(|_| pattern()).collect())
            .collect();
        let mut expansion = unit.clone();
        let expected: Vec<u32> = clean
            .iter()
            .map(|col| {
                expansion.set_bias(bias);
                for (&w, &a) in ws.iter().zip(col) {
                    expansion.mac(w, a);
                }
                expansion.result()
            })
            .collect();
        assert!(
            !expected.contains(&poisoned_out),
            "finite data never poisons"
        );
        let mut out = vec![0u32; b];
        for victim in 0..b {
            for (pi, &poison) in poisons.iter().enumerate() {
                for at in [(victim + pi) % k.min(32), k - 1 - (victim + pi) % 5] {
                    let mut cols = clean.clone();
                    cols[victim][at] = poison;
                    let col_refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
                    unit.dot_tile(bias, &ws, &col_refs, &mut out);
                    for (j, (&got, &want)) in out.iter().zip(&expected).enumerate() {
                        let want = if j == victim { poisoned_out } else { want };
                        assert_eq!(got, want, "K={k} B={b} victim={victim}@{at} column {j}");
                    }
                }
            }
        }
        let col_refs: Vec<&[u32]> = clean.iter().map(|c| c.as_slice()).collect();
        for &poison in poisons {
            unit.dot_tile(poison, &ws, &col_refs, &mut out);
            assert!(
                out.iter().all(|&o| o == poisoned_out),
                "K={k} B={b}: a poisoned bias poisons every column"
            );
        }
    }
}

/// The layer-level counterpart: a special in one weight row poisons
/// exactly that row (every column of it), a special in one activation
/// column exactly that column (every row of it), and everything else
/// equals the clean layer.
fn poison_stays_in_its_row_and_column<E: Emac + Clone>(
    unit: &mut E,
    poisons: &[u32],
    poisoned_out: u32,
    mut pattern: impl FnMut() -> u32,
) {
    let (rows, fan_in) = (3usize, 11usize);
    for batch in [1usize, 4, 6] {
        let mut pats = |len: usize| -> Vec<u32> { (0..len).map(|_| pattern()).collect() };
        let (biases, weights, acts) = (pats(rows), pats(rows * fan_in), pats(batch * fan_in));
        let clean = layer_vs_rows(unit, &biases, &weights, &acts, batch);
        assert!(!clean.contains(&poisoned_out), "finite data never poisons");
        for (pi, &poison) in poisons.iter().enumerate() {
            for victim in 0..rows {
                let mut weights = weights.clone();
                weights[victim * fan_in + (victim + pi) % fan_in] = poison;
                let out = layer_vs_rows(unit, &biases, &weights, &acts, batch);
                for (i, (&got, &want)) in out.iter().zip(&clean).enumerate() {
                    let want = if i % rows == victim {
                        poisoned_out
                    } else {
                        want
                    };
                    assert_eq!(got, want, "B={batch} poisoned row {victim}, output {i}");
                }
            }
            for victim in 0..batch {
                let mut acts = acts.clone();
                acts[victim * fan_in + (victim + pi) % fan_in] = poison;
                let out = layer_vs_rows(unit, &biases, &weights, &acts, batch);
                for (i, (&got, &want)) in out.iter().zip(&clean).enumerate() {
                    let want = if i / rows == victim {
                        poisoned_out
                    } else {
                        want
                    };
                    assert_eq!(got, want, "B={batch} poisoned column {victim}, output {i}");
                }
            }
        }
    }
}

#[test]
fn poison_is_isolated_across_tile_lanes() {
    for (n, es) in [(8u32, 0u32), (16, 1)] {
        let fmt = PositFormat::new(n, es).unwrap();
        let nar = fmt.nar_bits();
        let mut next = xorshift(0x9015_0ed1_a4e5 + n as u64);
        let mut finite = move || match (next() as u32) & fmt.mask() {
            p if p == nar => 0,
            p => p,
        };
        let mut unit = PositEmac::new(fmt, 64);
        poison_stays_in_its_lane(&mut unit, &[nar], nar, &mut finite);
        poison_stays_in_its_row_and_column(&mut unit, &[nar], nar, finite);
    }
    for (we, wf) in [(4u32, 3u32), (5, 10)] {
        let fmt = FloatFormat::new(we, wf).unwrap();
        let poisons = [fmt.inf_bits(false), fmt.inf_bits(true), fmt.nan_bits()];
        let mut next = xorshift(0x9015_0ed1_a4e5 + wf as u64);
        let mut finite = move || {
            let p = (next() as u32) & fmt.mask();
            // Clear the exponent's top bit of Inf/NaN patterns: finite.
            if (p >> wf) & ((1 << we) - 1) == (1 << we) - 1 {
                p & !(1 << (we + wf - 1))
            } else {
                p
            }
        };
        let mut unit = FloatEmac::new(fmt, 64);
        poison_stays_in_its_lane(&mut unit, &poisons, fmt.nan_bits(), &mut finite);
        poison_stays_in_its_row_and_column(&mut unit, &poisons, fmt.nan_bits(), finite);
    }
}
