//! Drivers for the paper's evaluation artifacts (Table II, Figs. 2 and 9).

use crate::format::NumericFormat;
use crate::mlp::Mlp;
use crate::quantized::QuantizedMlp;
use crate::train::{train, TrainConfig};
use dp_datasets::{iris, mushroom, wbc, TrainTest};
use dp_fixed::FixedFormat;
use dp_hw::{paper_grid, Family};
use dp_posit::PositFormat;

/// A trained task: dataset split + 32-bit float model + its baseline
/// accuracy (one row-group of Table II).
#[derive(Debug, Clone)]
pub struct TrainedTask {
    /// Dataset name.
    pub name: String,
    /// Normalized train/test split (test = the paper's inference set).
    pub split: TrainTest,
    /// The trained 32-bit float network.
    pub mlp: Mlp,
    /// Test accuracy of the float network (Table II "32-bit Float").
    pub f32_test_accuracy: f64,
}

/// Paper-scale workloads: WBC (inference size 190), Iris (50), Mushroom
/// (2708). `quick` trains fewer epochs — for tests and smoke runs; the
/// benchmark binaries use the full schedule.
pub fn paper_tasks(quick: bool, seed: u64) -> Vec<TrainedTask> {
    let specs: [(&str, dp_datasets::Dataset, usize, Vec<usize>, TrainConfig); 3] = [
        (
            "Wisconsin Breast Cancer",
            wbc::load(seed),
            190,
            vec![30, 16, 2],
            TrainConfig {
                epochs: if quick { 40 } else { 300 },
                batch_size: 16,
                lr: 0.01,
                seed,
            },
        ),
        (
            "Iris",
            iris::load(seed),
            50,
            vec![4, 16, 3],
            TrainConfig {
                epochs: if quick { 60 } else { 600 },
                batch_size: 8,
                lr: 0.01,
                seed,
            },
        ),
        (
            "Mushroom",
            mushroom::load(seed),
            2708,
            vec![117, 24, 2],
            TrainConfig {
                epochs: if quick { 2 } else { 25 },
                batch_size: 64,
                lr: 0.01,
                seed,
            },
        ),
    ];
    specs
        .into_iter()
        .map(|(name, data, test_count, dims, cfg)| {
            let split = data.split(test_count, seed).normalized();
            let mut mlp = Mlp::new(&dims, seed);
            train(&mut mlp, &split.train, cfg);
            let f32_test_accuracy = mlp.accuracy(&split.test);
            TrainedTask {
                name: name.to_string(),
                split,
                mlp,
                f32_test_accuracy,
            }
        })
        .collect()
}

/// Candidate configurations at width `n` for one family: the paper's
/// sweep ([`dp_hw::paper_grid`]: posit es ∈ {0,1,2}; float we ∈ {2..5},
/// paper: best use we ∈ {3,4}), except that fixed point uses the
/// pure-fractional Q1.(n−1) layout.
///
/// The fixed-point choice reproduces the paper's configuration: with all
/// DNN inputs normalized to [0, 1] and weights clustered in [−1, 1]
/// (Fig. 2b), q = n−1 maximizes fraction resolution — but saturates hard
/// at ±1, which is exactly what produces the paper's weak fixed-point
/// accuracy (57.8% on WBC). [`candidate_formats_tuned`] sweeps the binary
/// point instead; the comparison is an extension experiment.
pub fn candidate_formats(family: Family, n: u32) -> Vec<NumericFormat> {
    match family {
        Family::Fixed => vec![NumericFormat::Fixed(FixedFormat::new(n, n - 1).unwrap())],
        _ => paper_grid(n)
            .into_iter()
            .filter(|spec| spec.family() == family)
            .map(NumericFormat::from)
            .collect(),
    }
}

/// Like [`candidate_formats`] but sweeping every placement of the fixed
/// binary point (posit/float sets are unchanged) — the tuned-fixed
/// extension study.
pub fn candidate_formats_tuned(family: Family, n: u32) -> Vec<NumericFormat> {
    match family {
        Family::Fixed => (1..n)
            .map(|q| NumericFormat::Fixed(FixedFormat::new(n, q).unwrap()))
            .collect(),
        _ => candidate_formats(family, n),
    }
}

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct FormatResult {
    /// The configuration.
    pub format: NumericFormat,
    /// EMAC-path test accuracy.
    pub accuracy: f64,
}

/// Evaluates every candidate of `family` at width `n` on the task's test
/// set and returns the best (the paper's Table II reports best-per-cell;
/// §IV-B "best results are when posit has es ∈ {0,2} and floating point
/// has we ∈ {3,4}").
pub fn best_config(task: &TrainedTask, family: Family, n: u32) -> FormatResult {
    best_config_on(task, family, n, usize::MAX)
}

/// Like [`best_config`] but evaluating at most `limit` test samples
/// (keeps debug-build tests fast on Mushroom's 2708-sample test set).
pub fn best_config_on(task: &TrainedTask, family: Family, n: u32, limit: usize) -> FormatResult {
    best_among(task, candidate_formats(family, n), limit)
}

/// Best configuration over the tuned-fixed candidate set (extension).
pub fn best_config_tuned(task: &TrainedTask, family: Family, n: u32, limit: usize) -> FormatResult {
    best_among(task, candidate_formats_tuned(family, n), limit)
}

fn best_among(task: &TrainedTask, candidates: Vec<NumericFormat>, limit: usize) -> FormatResult {
    let mut test = task.split.test.clone();
    if test.len() > limit {
        test.features.truncate(limit);
        test.labels.truncate(limit);
    }
    candidates
        .into_iter()
        .map(|format| {
            let q = QuantizedMlp::quantize(&task.mlp, format);
            FormatResult {
                format,
                accuracy: q.accuracy(&test),
            }
        })
        .max_by(|a, b| a.accuracy.partial_cmp(&b.accuracy).unwrap())
        .expect("at least one candidate")
}

/// One Table II row: best 8-bit accuracy per family + the f32 baseline.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Dataset name.
    pub dataset: String,
    /// Inference (test) set size.
    pub inference_size: usize,
    /// Best 8-bit posit result.
    pub posit: FormatResult,
    /// Best 8-bit float result.
    pub float: FormatResult,
    /// Best 8-bit fixed result.
    pub fixed: FormatResult,
    /// 32-bit float baseline accuracy.
    pub f32_accuracy: f64,
}

/// Regenerates Table II (8-bit EMACs on the three datasets).
pub fn table2(tasks: &[TrainedTask]) -> Vec<Table2Row> {
    tasks
        .iter()
        .map(|t| Table2Row {
            dataset: t.name.clone(),
            inference_size: t.split.test.len(),
            posit: best_config(t, Family::Posit, 8),
            float: best_config(t, Family::Float, 8),
            fixed: best_config(t, Family::Fixed, 8),
            f32_accuracy: t.f32_test_accuracy,
        })
        .collect()
}

/// One Fig. 9 point: a bit width × family, with the average (over
/// datasets) accuracy degradation of the best configs, and the EDP of the
/// family's representative EMAC at that width.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// Bit width.
    pub n: u32,
    /// Format family.
    pub family: Family,
    /// Mean accuracy degradation vs the 32-bit float baseline (percent,
    /// positive = worse).
    pub avg_degradation_pct: f64,
    /// Energy-delay product of the representative EMAC (J·s, k = 128).
    pub edp: f64,
}

/// Regenerates Fig. 9: average accuracy degradation vs EDP for n ∈ [5, 8],
/// evaluating at most `limit` test samples per dataset.
pub fn fig9_on(tasks: &[TrainedTask], limit: usize) -> Vec<Fig9Point> {
    let mut out = Vec::new();
    for n in 5..=8u32 {
        for family in [Family::Fixed, Family::Float, Family::Posit] {
            let mut deg = 0.0;
            for t in tasks {
                let best = best_config_on(t, family, n, limit);
                deg += (t.f32_test_accuracy - best.accuracy).max(0.0);
            }
            let avg_degradation_pct = 100.0 * deg / tasks.len() as f64;
            let spec = dp_hw::representative(n, family);
            let edp = dp_hw::report(spec, 128, dp_hw::Calib::default()).edp;
            out.push(Fig9Point {
                n,
                family,
                avg_degradation_pct,
                edp,
            });
        }
    }
    out
}

/// Histogram of values in `[lo, hi)` over `bins` equal-width buckets;
/// returns `(bin_center, count)` pairs. Used for both panels of Fig. 2.
pub fn histogram(
    values: impl IntoIterator<Item = f64>,
    lo: f64,
    hi: f64,
    bins: usize,
) -> Vec<(f64, usize)> {
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for v in values {
        if v >= lo && v < hi {
            let b = ((v - lo) / width) as usize;
            counts[b.min(bins - 1)] += 1;
        }
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (lo + (i as f64 + 0.5) * width, c))
        .collect()
}

/// Fig. 2a: the distribution of representable 7-bit posit (es = 0) values
/// in `[lo, hi)`.
pub fn posit_value_histogram(fmt: PositFormat, lo: f64, hi: f64, bins: usize) -> Vec<(f64, usize)> {
    histogram(
        fmt.reals().map(|b| dp_posit::convert::to_f64(fmt, b)),
        lo,
        hi,
        bins,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_sets_match_paper_sweeps() {
        assert_eq!(candidate_formats(Family::Posit, 8).len(), 3);
        assert_eq!(candidate_formats(Family::Posit, 5).len(), 3);
        assert_eq!(candidate_formats(Family::Float, 8).len(), 4);
        assert_eq!(candidate_formats(Family::Float, 5).len(), 2);
        // Paper-faithful fixed point: the single Q1.(n−1) layout.
        assert_eq!(candidate_formats(Family::Fixed, 8).len(), 1);
        assert_eq!(
            candidate_formats(Family::Fixed, 8)[0].to_string(),
            "fixed<8,7>"
        );
        // The tuned extension sweeps the binary point.
        assert_eq!(candidate_formats_tuned(Family::Fixed, 8).len(), 7);
        for f in candidate_formats(Family::Float, 6) {
            assert_eq!(f.n(), 6);
        }
    }

    #[test]
    fn histogram_bins_and_centers() {
        let h = histogram([0.1, 0.1, 0.9, -2.0], 0.0, 1.0, 2);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0], (0.25, 2));
        assert_eq!(h[1], (0.75, 1));
    }

    #[test]
    fn posit7_values_cluster_in_unit_interval() {
        // Paper Fig. 2a: 7-bit posit values cluster heavily in [-1, 1].
        let fmt = PositFormat::new(7, 0).unwrap();
        let inside: usize = posit_value_histogram(fmt, -1.0, 1.0001, 4)
            .iter()
            .map(|(_, c)| c)
            .sum();
        let total = fmt.reals().count();
        assert!(
            inside as f64 / total as f64 > 0.5,
            "{inside}/{total} inside [-1,1]"
        );
    }
}
