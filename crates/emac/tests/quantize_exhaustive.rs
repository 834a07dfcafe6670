//! The `f32` quantiser's table (`QuantizeLut`, read by
//! `TableEmac::quantize_words`) against the computation it replaces,
//! `Family::word_from_f32`: over all 2³² `f32` bit patterns for posit⟨8,0⟩
//! and float⟨4,3⟩ (the benchmark's 8-bit trio), and at a stride for every
//! other ≤ 8-bit posit and minifloat that gets a table. Billions of
//! conversions, so it runs only when asked, in release mode (≈ 40 s on two
//! threads):
//!
//! ```text
//! cargo test --release -p dp_emac --test quantize_exhaustive -- --ignored
//! ```

use dp_emac::{Family, Float, Posit, TableEmac};
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;

/// Singles per `quantize_words` call.
const CHUNK: usize = 4096;

/// Up to eight `(bits, table word, computed word)` disagreements among the
/// singles `top | low`, `low` stepping by `stride` over the 31 low bits.
fn mismatches<F: Family>(fmt: F::Format, stride: usize, top: u32) -> Vec<(u32, i64, i64)> {
    let unit = TableEmac::<F>::new(fmt, 128);
    let mut singles = (0..=u32::MAX >> 1)
        .step_by(stride)
        .map(|low| f32::from_bits(top | low))
        .peekable();
    let (mut xs, mut words, mut found) = (Vec::with_capacity(CHUNK), Vec::new(), Vec::new());
    while singles.peek().is_some() {
        xs.clear();
        xs.extend(singles.by_ref().take(CHUNK));
        words.clear();
        unit.quantize_words(&xs, &mut words);
        for (&v, &word) in xs.iter().zip(&words) {
            let want = F::word_from_f32(fmt, v);
            if word != want && found.len() < 8 {
                found.push((v.to_bits(), word, want));
            }
        }
    }
    found
}

/// Sweeps `fmt` at `stride`, one sign per thread, when its unit quantises
/// by table; returns whether it does.
fn sweep<F: Family>(fmt: F::Format, stride: usize) -> bool
where
    F::Format: Send,
{
    if !TableEmac::<F>::new(fmt, 128).quantizes_by_table() {
        return false;
    }
    let found: Vec<_> = std::thread::scope(|s| {
        let half = |top| s.spawn(move || mismatches::<F>(fmt, stride, top));
        let halves = [half(0), half(1 << 31)];
        halves.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert!(
        found.is_empty(),
        "{fmt}: (bits, table, computed) {found:x?}"
    );
    true
}

#[test]
#[ignore = "billions of conversions: run in release with --ignored"]
fn quantize_tables_equal_word_from_f32_on_every_single() {
    let posit = |n, es| PositFormat::new(n, es).unwrap();
    let float = |we, wf| FloatFormat::new(we, wf).unwrap();
    assert!(sweep::<Posit>(posit(8, 0), 1));
    assert!(sweep::<Float>(float(4, 3), 1));
    // Stride 61 (odd, so it meets every residue of the low bits).
    let mut tabulated = Vec::new();
    for n in 3..=8 {
        for es in 0..=n - 3 {
            if (n, es) != (8, 0) && sweep::<Posit>(posit(n, es), 61) {
                tabulated.push(posit(n, es).to_string());
            }
        }
    }
    for we in 2..=7 {
        for wf in 0..=7 - we {
            if (we, wf) != (4, 3) && sweep::<Float>(float(we, wf), 61) {
                tabulated.push(float(we, wf).to_string());
            }
        }
    }
    // The formats without a rounding table get a quantiser table too.
    for name in [posit(8, 2).to_string(), float(5, 2).to_string()] {
        assert!(tabulated.contains(&name), "{name}: {tabulated:?}");
    }
    println!("swept at stride 61: {tabulated:?}");
}
