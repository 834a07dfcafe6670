//! Zero-dependency micro-benchmark harness.
//!
//! Criterion is outside this workspace's offline dependency allow-list, so
//! the `benches/` targets use this small harness instead: warm-up,
//! automatic iteration-count calibration to a target sample duration, a
//! median over several samples (robust to scheduler noise), and a JSON
//! report writer for committed baselines (`BENCH_*.json`).
//!
//! ```
//! let m = dp_bench::timing::measure("sum", 256, || {
//!     (0u64..256).fold(0u64, |a, b| a ^ b)
//! });
//! assert!(m.ns_per_iter > 0.0);
//! assert!(m.elems_per_sec() > 0.0);
//! ```

use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Whether this bench run is a **smoke run**: tiny sample budgets, meant
/// for CI to verify that every bench binary still runs end to end and
/// emits valid JSON — not to produce meaningful numbers. Enabled by a
/// `--smoke` argument (`cargo bench --bench X -- --smoke`) or
/// `DP_BENCH_SMOKE=1` in the environment.
pub fn smoke() -> bool {
    static SMOKE: OnceLock<bool> = OnceLock::new();
    *SMOKE.get_or_init(|| {
        std::env::args().any(|a| a == "--smoke")
            || matches!(
                std::env::var("DP_BENCH_SMOKE").as_deref(),
                Ok("1") | Ok("true")
            )
    })
}

/// Where a bench should write its JSON baseline: the committed
/// `BENCH_<name>.json` at the repository root normally, or
/// `results/smoke/BENCH_<name>.json` (gitignored) under [`smoke`] so CI
/// smoke runs never dirty the committed baselines.
pub fn out_path(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if smoke() {
        root.join("results/smoke")
            .join(format!("BENCH_{name}.json"))
    } else {
        root.join(format!("BENCH_{name}.json"))
    }
}

/// One benchmark result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (`group/variant`).
    pub name: String,
    /// Median wall-clock nanoseconds per iteration of the closure.
    pub ns_per_iter: f64,
    /// Work elements (MACs, samples, ops) per iteration, for throughput.
    pub elems_per_iter: u64,
}

impl Measurement {
    /// Iterations per second.
    pub fn iters_per_sec(&self) -> f64 {
        1e9 / self.ns_per_iter
    }

    /// Work elements per second (`elems_per_iter × iters_per_sec`).
    pub fn elems_per_sec(&self) -> f64 {
        self.elems_per_iter as f64 * self.iters_per_sec()
    }
}

/// Target wall-clock time for one timed sample.
const SAMPLE_NS: u64 = 60_000_000; // 60 ms
/// One timed sample under [`smoke`]: just prove the workload runs.
const SMOKE_SAMPLE_NS: u64 = 1_000_000; // 1 ms
/// Number of timed samples; the median is reported.
const SAMPLES: usize = 7;
/// Sample count under [`smoke`].
const SMOKE_SAMPLES: usize = 3;

/// Times `f`, returning the median ns/iteration; `elems_per_iter` scales
/// throughput (e.g. the dot-product length when `f` runs one dot product).
/// Under [`smoke`] the sample budget shrinks ~60× (the numbers are then
/// only good for "it still runs and reports").
///
/// The closure's return value is passed through [`black_box`] so the
/// optimizer cannot delete the measured work.
pub fn measure<R, F: FnMut() -> R>(name: &str, elems_per_iter: u64, mut f: F) -> Measurement {
    let (sample_ns, n_samples) = if smoke() {
        (SMOKE_SAMPLE_NS, SMOKE_SAMPLES)
    } else {
        (SAMPLE_NS, SAMPLES)
    };
    // Warm-up and calibration: find an iteration count that fills the
    // sample budget, growing geometrically from 1.
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = t.elapsed().as_nanos() as u64;
        if elapsed >= sample_ns / 4 {
            // Scale to the sample budget from the measured rate.
            let per_iter = (elapsed / iters).max(1);
            iters = (sample_ns / per_iter).clamp(1, 1_000_000_000);
            break;
        }
        iters = iters.saturating_mul(4);
    }
    let mut samples: Vec<f64> = (0..n_samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Measurement {
        name: name.to_string(),
        ns_per_iter: samples[n_samples / 2],
        elems_per_iter,
    }
}

/// Renders measurements as an aligned table with throughput columns.
pub fn render_measurements(rows: &[Measurement]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                format!("{:.1}", m.ns_per_iter),
                format!("{:.3e}", m.elems_per_sec()),
            ]
        })
        .collect();
    crate::report::render_table(&["benchmark", "ns/iter", "elems/sec"], &table)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Writes measurements as a stable, diffable JSON baseline.
///
/// Layout: `{"meta": {..}, "results": [{"name", "ns_per_iter",
/// "elems_per_iter", "elems_per_sec"}, ..]}` — hand-rendered because serde
/// is outside the offline dependency allow-list.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json<P: AsRef<Path>>(
    path: P,
    meta: &[(&str, String)],
    rows: &[Measurement],
) -> io::Result<()> {
    let mut s = String::from("{\n  \"meta\": {\n");
    for (i, (k, v)) in meta.iter().enumerate() {
        let comma = if i + 1 < meta.len() { "," } else { "" };
        let (k, v) = (json_escape(k), json_escape(v));
        let _ = writeln!(s, "    \"{k}\": \"{v}\"{comma}");
    }
    s.push_str("  },\n  \"results\": [\n");
    for (i, m) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.2}, \"elems_per_iter\": {}, \"elems_per_sec\": {:.4e}}}{comma}",
            json_escape(&m.name),
            m.ns_per_iter,
            m.elems_per_iter,
            m.elems_per_sec(),
        );
    }
    s.push_str("  ]\n}\n");
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_positive_rates() {
        let m = measure("noop-ish", 64, || {
            let mut a = 0u64;
            for i in 0..64u64 {
                a = a.wrapping_add(i * i);
            }
            a
        });
        assert!(m.ns_per_iter > 0.0);
        assert!(m.iters_per_sec() > 0.0);
        assert_eq!(m.elems_per_iter, 64);
        assert!(m.elems_per_sec() > m.iters_per_sec());
    }

    #[test]
    fn render_includes_names_and_columns() {
        let rows = vec![Measurement {
            name: "g/v".into(),
            ns_per_iter: 123.4,
            elems_per_iter: 10,
        }];
        let t = render_measurements(&rows);
        assert!(t.contains("g/v") && t.contains("ns/iter"));
    }

    #[test]
    fn json_roundtrip_shape() {
        let rows = vec![Measurement {
            name: "a\"b".into(),
            ns_per_iter: 1.5,
            elems_per_iter: 2,
        }];
        let dir = std::env::temp_dir().join("dp_bench_timing_test");
        let path = dir.join("t.json");
        write_json(&path, &[("k", "v".into())], &rows).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("\"meta\""));
        assert!(s.contains("a\\\"b"));
        assert!(s.trim_end().ends_with('}'));
        std::fs::remove_dir_all(dir).ok();
    }
}
