//! `FixedFormat::from_f32` against `from_f64` over every `f32` bit
//! pattern — NaNs, infinities, subnormals, every saturating value — for
//! the two fixed-point formats the benchmark serves. 2³² values per
//! format, so it runs only when asked, in release mode:
//!
//! ```text
//! cargo test --release -p dp_fixed --test from_f32_exhaustive -- --ignored
//! ```

use dp_fixed::FixedFormat;

#[test]
#[ignore = "2^33 conversions: run in release with --ignored"]
fn from_f32_equals_from_f64_on_every_f32() {
    for (n, q) in [(8, 6), (16, 8)] {
        let fmt = FixedFormat::new(n, q).unwrap();
        // Two halves of the pattern space, one per thread.
        let mismatches: Vec<(u32, i64, i64)> = std::thread::scope(|s| {
            let half = |top: u32| {
                s.spawn(move || {
                    (0..=u32::MAX >> 1)
                        .map(|low| top | low)
                        .filter_map(|bits| {
                            let v = f32::from_bits(bits);
                            let (got, want) = (fmt.from_f32(v), fmt.from_f64(v as f64));
                            (got != want).then_some((bits, got, want))
                        })
                        .take(8)
                        .collect::<Vec<_>>()
                })
            };
            let halves = [half(0), half(1 << 31)];
            halves.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        assert!(
            mismatches.is_empty(),
            "{fmt}: (bits, from_f32, from_f64) {mismatches:x?}"
        );
    }
}
