//! The paper's tables and figures, and the extensions beside them, as one
//! table of artifacts.
//!
//! An artifact only computes a [`Report`]: the lines, tables and plots it
//! prints, in order, and the CSVs it writes. [`emit`] prints a report and
//! writes its CSVs into a directory; [`run`] emits artifacts by name, all
//! on one [`Context`], which trains the paper's models at most once.

use crate::accuracy::mean_decimal_accuracy;
use crate::{render_table, write_csv, Ascii};
use deep_positron::ablation::compare_exact_vs_inexact;
use deep_positron::experiments::{
    best_config, best_config_tuned, candidate_formats, fig9_on, histogram, paper_tasks,
    posit_value_histogram, table2, FormatResult, TrainedTask,
};
use deep_positron::QuantizedMlp;
use dp_fixed::FixedFormat;
use dp_hw::{emac_netlist, paper_grid, plan_accelerator, report, representative};
use dp_hw::{Calib, Family, FormatSpec};
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use std::cell::OnceCell;
use std::io::{self, Write};
use std::path::Path;

/// An artifact: its name and the function that computes its report.
pub type Artifact = (&'static str, fn(&Context) -> Report);

/// Every artifact, in the order a run with no names emits them.
pub const ARTIFACTS: [Artifact; 11] = [
    ("table1_regime", table1_regime),
    ("table2_accuracy", table2_accuracy),
    ("table2_tuned_fixed", table2_tuned_fixed),
    ("fig2_distributions", fig2_distributions),
    ("fig6_freq_vs_dynrange", fig6_freq_vs_dynrange),
    ("fig7_edp", fig7_edp),
    ("fig8_luts", fig8_luts),
    ("fig9_acc_vs_edp", fig9_acc_vs_edp),
    ("decimal_accuracy", decimal_accuracy),
    ("ablation_exact_vs_inexact", ablation_exact_vs_inexact),
    ("accelerator_report", accelerator_report),
];

/// What the artifacts of one run share: the training schedule, and the
/// models trained on it by the first artifact that asks.
#[derive(Debug)]
pub struct Context {
    quick: bool,
    tasks: OnceCell<Vec<TrainedTask>>,
}

impl Context {
    /// A run on the full training schedule, or the short one if `quick`.
    pub fn new(quick: bool) -> Self {
        Context {
            quick,
            tasks: OnceCell::new(),
        }
    }

    /// The three paper tasks (seed 42), trained on the first call.
    fn tasks(&self) -> &[TrainedTask] {
        self.tasks.get_or_init(|| {
            let schedule = if self.quick { "quick" } else { "full" };
            eprintln!("training 32-bit float models ({schedule} schedule)...");
            paper_tasks(self.quick, 42)
        })
    }
}

type Rows = Vec<Vec<String>>;

/// What one artifact prints, in order, and the CSVs it writes: each a
/// name, header cells and rows.
#[derive(Debug, Default)]
pub struct Report {
    text: String,
    csvs: Vec<(&'static str, Vec<&'static str>, Rows)>,
}

impl Report {
    /// Prints `line` (which may hold several).
    fn line(mut self, line: impl AsRef<str>) -> Self {
        self.text.extend([line.as_ref(), "\n"]);
        self
    }

    /// Prints a table under `header`.
    fn table(self, header: impl IntoIterator<Item = &'static str>, rows: &Rows) -> Self {
        self.line(render_table(&Vec::from_iter(header), rows))
    }

    /// Writes `name.csv` under `header`, its cells separated by commas.
    fn csv(mut self, name: &'static str, header: &'static str, rows: Rows) -> Self {
        self.csvs.push((name, header.split(',').collect(), rows));
        self
    }

    /// Prints a table and writes the same rows as `name.csv`, under one
    /// header of comma-separated cells.
    fn table_csv(self, name: &'static str, header: &'static str, rows: Rows) -> Self {
        self.table(header.split(','), &rows).csv(name, header, rows)
    }
}

/// Prints `report` to `out`, writes its CSVs into `dir` (created if
/// needed) and names the files written.
///
/// # Errors
///
/// Propagates I/O errors from printing or from writing a CSV.
pub fn emit(report: &Report, dir: &Path, out: &mut dyn Write) -> io::Result<()> {
    out.write_all(report.text.as_bytes())?;
    let mut wrote = Vec::new();
    for (name, header, rows) in &report.csvs {
        let path = dir.join(format!("{name}.csv"));
        write_csv(&path, header, rows)?;
        wrote.push(path.display().to_string());
    }
    if !wrote.is_empty() {
        writeln!(out, "wrote {}", wrote.join(", "))?;
    }
    Ok(())
}

/// Emits the artifacts named in `names`, in [`ARTIFACTS`] order, or all
/// of them if `names` is empty: the output is each artifact's output as
/// it would read alone, one after another.
///
/// # Errors
///
/// `InvalidInput`, before anything runs, for a name not in [`ARTIFACTS`];
/// otherwise the errors of [`emit`].
pub fn run(names: &[&str], ctx: &Context, dir: &Path, out: &mut dyn Write) -> io::Result<()> {
    if let Some(name) = names.iter().find(|&&n| ARTIFACTS.iter().all(|a| a.0 != n)) {
        let known = ARTIFACTS.map(|a| a.0).join(" ");
        let why = format!("unknown artifact `{name}`; known: {known}");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
    }
    for (name, compute) in ARTIFACTS {
        if names.is_empty() || names.contains(&name) {
            emit(&compute(ctx), dir, out)?;
        }
    }
    Ok(())
}

/// The families in the order Figs. 6–8 draw them.
const FAMILIES: [Family; 3] = [Family::Float, Family::Fixed, Family::Posit];

/// Dot-product length of the paper-scale EMACs (Figs. 6–9).
const K: u64 = 128;

/// One plot of Figs. 6–9: a series of `(x, y)` points per family, drawn
/// in `order` (later families draw over earlier ones).
fn family_plot(canvas: Ascii, order: [Family; 3], points: &[(Family, f64, f64)]) -> String {
    let plot = order.into_iter().fold(canvas, |plot, family| {
        let (glyph, name) = match family {
            Family::Fixed => ('x', "fixed"),
            Family::Float => ('f', "float"),
            Family::Posit => ('p', "posit"),
        };
        let pts = points.iter().filter(|p| p.0 == family);
        plot.series(glyph, name, pts.map(|p| (p.1, p.2)))
    });
    plot.render()
}

/// Every configuration of [`paper_grid`] for n = 5..=8.
fn grid() -> impl Iterator<Item = (u32, FormatSpec)> {
    (5..=8).flat_map(|n| paper_grid(n).into_iter().map(move |spec| (n, spec)))
}

/// Each family's [`representative`] for n = 5..=8, in [`FAMILIES`] order.
fn representatives() -> impl Iterator<Item = (u32, Family, FormatSpec)> {
    (5..=8).flat_map(|n| FAMILIES.map(|family| (n, family, representative(n, family))))
}

/// `{:.2}%` of an accuracy, with the format that reached it.
fn best(r: &FormatResult) -> String {
    format!("{:.2}% ({})", 100.0 * r.accuracy, r.format)
}

/// Paper Table I: the posit regime run-length code, decoded.
fn table1_regime(_: &Context) -> Report {
    let fmt = PositFormat::new(6, 0).unwrap();
    let row = |bits: &str| {
        // The regime string right after the sign bit of a 6-bit body.
        let pattern = u32::from_str_radix(bits, 2).unwrap() << (5 - bits.len());
        let k = dp_posit::decode::regime(fmt, pattern).unwrap();
        let value = dp_posit::convert::to_f64(fmt, pattern);
        vec![bits.to_string(), k.to_string(), format!("{value}")]
    };
    let rows = ["0001", "001", "01", "10", "110", "1110"].map(row).into();
    Report::default()
        .line("== Table I: regime interpretation (decoded by dp-posit) ==\n")
        .table(["binary", "regime k", "value (p6e0)"], &rows)
        .line("paper: 0001→-3, 001→-2, 01→-1, 10→0, 110→1, 1110→2")
}

/// Paper Table II: accuracy with 8-bit EMACs (best posit / float / fixed
/// configuration per cell) against the 32-bit float baseline.
fn table2_accuracy(ctx: &Context) -> Report {
    let (mut shown, mut csv) = (Vec::new(), Vec::new());
    for r in table2(ctx.tasks()) {
        let bests = [&r.posit, &r.float, &r.fixed];
        let mut row = vec![r.dataset.clone(), r.inference_size.to_string()];
        let mut csv_row = row.clone();
        row.extend(bests.map(best));
        row.push(format!("{:.2}%", 100.0 * r.f32_accuracy));
        for b in bests {
            csv_row.extend([b.format.to_string(), format!("{:.4}", b.accuracy)]);
        }
        csv_row.push(format!("{:.4}", r.f32_accuracy));
        shown.push(row);
        csv.push(csv_row);
    }
    let header = "dataset,inference_size,posit8,float8,fixed8,float32";
    let csv_header =
        "dataset,inference_size,posit8,posit8_acc,float8,float8_acc,fixed8,fixed8_acc,float32_acc";
    Report::default()
        .line("\n== Table II: Deep Positron accuracy with 8-bit EMACs ==\n")
        .table(header.split(','), &shown)
        .line("paper reference (real UCI data):")
        .line("  WBC:      posit 85.89%, float 77.4%, fixed 57.8%, f32 90.1%")
        .line("  Iris:     posit 98%,    float 96%,   fixed 92%,   f32 98%")
        .line("  Mushroom: posit 96.4%,  float 96.4%, fixed 95.9%, f32 96.8%\n")
        .csv("table2_accuracy", csv_header, csv)
}

/// Extension: Table II with the fixed-point binary point tuned (q swept)
/// instead of the paper's Q1.(n−1). Most of the paper's fixed-point gap
/// is that choice, though a tuned point must be placed per task.
fn table2_tuned_fixed(ctx: &Context) -> Report {
    let row = |t: &TrainedTask| {
        vec![
            t.name.clone(),
            best(&best_config(t, Family::Fixed, 8)),
            best(&best_config_tuned(t, Family::Fixed, 8, usize::MAX)),
            best(&best_config(t, Family::Posit, 8)),
            format!("{:.2}%", 100.0 * t.f32_test_accuracy),
        ]
    };
    let rows = ctx.tasks().iter().map(row).collect();
    let header = "dataset,fixed Q1.7,fixed tuned-q,posit8,float32";
    let csv_header = "dataset,fixed_q17,fixed_tuned,posit8,float32";
    Report::default()
        .line("== Extension: paper fixed (Q1.7) vs tuned binary point at 8 bits ==\n")
        .table(header.split(','), &rows)
        .csv("table2_tuned_fixed", csv_header, rows)
}

/// Paper Fig. 2: the values of a 7-bit posit (es = 0) and the weights of
/// a trained network (WBC stands in for AlexNet) both cluster in [−1, 1].
fn fig2_distributions(ctx: &Context) -> Report {
    let plot = |name: &str, bins: &[(f64, usize)]| {
        let pts = bins.iter().map(|&(c, n)| (c, n as f64));
        Ascii::new(60, 10, false).series('#', name, pts).render()
    };
    let rows = |bins: &[(f64, usize)]| {
        let row = |&(c, n): &(f64, usize)| vec![format!("{c:.4}"), n.to_string()];
        bins.iter().map(row).collect()
    };
    let share = |part: usize, all: usize, what: &str| {
        let pct = 100.0 * part as f64 / all as f64;
        format!("{part}/{all} {what} fall in [-1, 1] ({pct:.1}%)\n")
    };
    let p7 = PositFormat::new(7, 0).unwrap();
    let values = posit_value_histogram(p7, -2.0, 2.0, 40);
    let within = values.iter().filter(|(c, _)| (-1.0..=1.0).contains(c));
    let within = within.map(|(_, n)| n).sum();
    let weights = ctx.tasks()[0].mlp.all_weights();
    let weight_bins = histogram(weights.iter().map(|&w| w as f64), -2.0, 2.0, 40);
    let w_within = weights.iter().filter(|w| w.abs() <= 1.0).count();
    Report::default()
        .line("== Fig. 2a: 7-bit posit (es=0) representable values in [-2, 2) ==")
        .line(plot("posit<7,0> values per bin", &values))
        .line(share(within, p7.reals().count(), "representable values"))
        .line("== Fig. 2b: trained WBC MLP weight distribution ==")
        .line(plot("weights per bin", &weight_bins))
        .line(share(w_within, weights.len(), "weights"))
        .csv("fig2_posit7_values", "bin_center,count", rows(&values))
        .csv("fig2_weights", "bin_center,count", rows(&weight_bins))
}

/// Paper Fig. 6: dynamic range vs maximum operating frequency of every
/// paper-grid EMAC on the synthesis model.
fn fig6_freq_vs_dynrange(_: &Context) -> Report {
    let (mut rows, mut points) = (Vec::new(), Vec::new());
    for (n, spec) in grid() {
        let r = report(spec, K, Calib::default());
        rows.push(vec![
            spec.label(),
            n.to_string(),
            format!("{:.3}", r.dynamic_range_log10),
            format!("{:.1}", r.fmax_hz / 1e6),
            r.luts.to_string(),
        ]);
        points.push((spec.family(), r.dynamic_range_log10, r.fmax_hz));
    }
    let title = format!("== Fig. 6: dynamic range vs max operating frequency (k = {K}) ==\n");
    let header = "format,n,dyn_range_dec,fmax_mhz,luts";
    Report::default()
        .line(title)
        .table_csv("fig6_freq_vs_dynrange", header, rows)
        .line(family_plot(Ascii::new(64, 16, false), FAMILIES, &points))
}

/// Paper Fig. 7: bit width vs energy-delay product of each family's
/// representative EMAC (fixed point is lowest at every width).
fn fig7_edp(_: &Context) -> Report {
    let (mut rows, mut points) = (Vec::new(), Vec::new());
    for (n, family, spec) in representatives() {
        let r = report(spec, K, Calib::default());
        rows.push(vec![
            spec.label(),
            n.to_string(),
            format!("{:.3e}", r.edp),
            format!("{:.2}", r.energy_per_mac_pj),
            format!("{:.1}", r.fmax_hz / 1e6),
        ]);
        points.push((family, n as f64, r.edp));
    }
    let title = format!("== Fig. 7: n vs energy-delay product (k = {K} MAC dot product) ==\n");
    let header = "format,n,edp_js,energy_per_mac_pj,fmax_mhz";
    Report::default()
        .line(title)
        .table_csv("fig7_edp", header, rows)
        .line(family_plot(Ascii::new(48, 14, true), FAMILIES, &points))
        .line("paper shape: fixed lowest EDP at every n; float ≈ posit.")
}

/// Paper Fig. 8: bit width vs LUT utilization of each family's
/// representative EMAC; the CSV holds every paper-grid configuration.
fn fig8_luts(_: &Context) -> Report {
    let (mut rows, mut points) = (Vec::new(), Vec::new());
    for (n, family, spec) in representatives() {
        let nl = emac_netlist(spec, K, Calib::default());
        let [luts, ffs, dsps] = [nl.luts(), nl.ffs(), nl.dsps()].map(|c| c.to_string());
        rows.push(vec![spec.label(), n.to_string(), luts, ffs, dsps]);
        points.push((family, n as f64, nl.luts() as f64));
    }
    let grid_luts = |spec| emac_netlist(spec, K, Calib::default()).luts().to_string();
    let grid_rows = grid().map(|(n, spec)| vec![spec.label(), n.to_string(), grid_luts(spec)]);
    Report::default()
        .line("== Fig. 8: n vs LUT utilization (representative configs) ==\n")
        .table("format,n,luts,ffs,dsps".split(','), &rows)
        .line(family_plot(Ascii::new(48, 14, false), FAMILIES, &points))
        .line("paper shape: posit > float > fixed at every n.")
        .csv("fig8_luts", "format,n,luts", grid_rows.collect())
}

/// Paper Fig. 9: average accuracy degradation against the 32-bit float
/// baseline (best configuration per dataset) vs energy-delay product, one
/// point per bit width and family.
fn fig9_acc_vs_edp(ctx: &Context) -> Report {
    let limit = if ctx.quick { 400 } else { usize::MAX };
    let (mut rows, mut points) = (Vec::new(), Vec::new());
    for p in fig9_on(ctx.tasks(), limit) {
        let (deg, edp) = (p.avg_degradation_pct, p.edp);
        rows.push(vec![
            format!("{:?}", p.family),
            p.n.to_string(),
            format!("{deg:.3}"),
            format!("{edp:.3e}"),
        ]);
        points.push((p.family, deg, edp));
    }
    let order = [Family::Fixed, Family::Float, Family::Posit];
    let header = "family,n,avg_degradation_pct,edp_js";
    Report::default()
        .line("== Fig. 9: avg accuracy degradation vs EDP (points labelled by n) ==\n")
        .table_csv("fig9_acc_vs_edp", header, rows)
        .line(family_plot(Ascii::new(56, 14, true), order, &points))
        .line("paper shape: posit achieves the lowest degradation at moderate EDP;")
        .line("fixed has the lowest EDP but the highest degradation.")
}

/// Extension: mean decimal accuracy of the 8-bit formats over the DNN
/// range, a wide range and tiny magnitudes: the representational argument
/// behind the paper's §I "posits provide higher accuracy" and Fig. 2.
fn decimal_accuracy(_: &Context) -> Report {
    let ranges = [
        ("dnn [0.01, 1]", 0.01, 1.0),
        ("wide [1e-4, 1e4]", 1e-4, 1e4),
        ("tiny [1e-6, 1e-2]", 1e-6, 1e-2),
    ];
    let posits = (0..=2).map(|es| FormatSpec::Posit(PositFormat::new(8, es).unwrap()));
    let floats = (2..=5).map(|we| FormatSpec::Float(FloatFormat::new(we, 7 - we).unwrap()));
    let fixed = [4, 6, 7].map(|q| FormatSpec::Fixed(FixedFormat::new(8, q).unwrap()));
    let round_trip = |spec: FormatSpec, v: f64| match spec {
        FormatSpec::Posit(f) => dp_posit::convert::to_f64(f, dp_posit::convert::from_f64(f, v)),
        FormatSpec::Float(f) => {
            dp_minifloat::convert::to_f64(f, dp_minifloat::convert::from_f64_saturating(f, v))
        }
        FormatSpec::Fixed(f) => f.to_f64(f.from_f64(v)),
    };
    let row = |spec: FormatSpec| {
        let q = |v| round_trip(spec, v);
        let digits = ranges.map(|(_, lo, hi)| mean_decimal_accuracy(q, lo, hi, 2000, 6.0));
        let digits = digits.map(|d| format!("{d:.2}"));
        [spec.label()].into_iter().chain(digits).collect()
    };
    let rows = posits.chain(floats).chain(fixed).map(row).collect();
    // The range labels hold commas: the header is given as cells.
    let header = ["format", ranges[0].0, ranges[1].0, ranges[2].0];
    let mut report = Report::default()
        .line("== Mean decimal accuracy (digits) of 8-bit formats ==\n")
        .table(header, &rows)
        .line("posit's tapered precision concentrates digits near ±1 (the DNN")
        .line("range, paper Fig. 2) while still covering the wide range.");
    report.csvs.push(("decimal_accuracy", header.into(), rows));
    report
}

/// Extension: the accuracy the EMAC's exact accumulation buys over a MAC
/// that rounds after every operation (the paper's §III-A motivation).
fn ablation_exact_vs_inexact(ctx: &Context) -> Report {
    let limit = if ctx.quick { 300 } else { 1000 };
    let (mut rows, mut gains) = (Vec::new(), Vec::new());
    for task in ctx.tasks() {
        let families = [Family::Posit, Family::Float, Family::Fixed];
        for n in [5, 6, 7, 8] {
            for format in families.into_iter().flat_map(|f| candidate_formats(f, n)) {
                let q = QuantizedMlp::quantize(&task.mlp, format);
                let r = compare_exact_vs_inexact(&q, &task.split.test, limit);
                let gain = format!("{:+.2}", r.emac_gain_pct());
                gains.push(gain.parse::<f64>().unwrap());
                let accs = [r.exact_accuracy, r.inexact_accuracy].map(|a| format!("{a:.4}"));
                let row = [task.name.clone(), format.to_string()]
                    .into_iter()
                    .chain(accs);
                rows.push(row.chain([gain]).collect());
            }
        }
    }
    let mean = gains.iter().sum::<f64>() / gains.len() as f64;
    let max = gains.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let configs = gains.len();
    let summary =
        format!("mean EMAC gain {mean:+.2} pp; max {max:+.2} pp across {configs} configs");
    let header = "dataset,format,exact_acc,inexact_acc,emac_gain_pp";
    Report::default()
        .line("== Ablation: exact (EMAC) vs per-op-rounding MAC accuracy ==\n")
        .table_csv("ablation_exact_vs_inexact", header, rows)
        .line(summary)
}

/// Extension: a whole-accelerator synthesis plan per paper workload (the
/// paper's Fig. 1 scaled out: one EMAC per neuron with local memories).
fn accelerator_report(_: &Context) -> Report {
    let topologies = [
        ("WBC 30-16-2", [30, 16, 2]),
        ("Iris 4-16-3", [4, 16, 3]),
        ("Mushroom 117-24-2", [117, 24, 2]),
    ];
    let specs = [
        FormatSpec::Posit(PositFormat::new(8, 0).unwrap()),
        FormatSpec::Posit(PositFormat::new(8, 2).unwrap()),
        FormatSpec::Float(FloatFormat::new(4, 3).unwrap()),
        FormatSpec::Fixed(FixedFormat::new(8, 6).unwrap()),
    ];
    let title = "== Deep Positron accelerator plans (Virtex-7 model) ==\n";
    let (mut report, mut rows) = (Report::default().line(title), Vec::new());
    for (name, dims) in topologies {
        for spec in specs {
            let r = plan_accelerator(spec, &dims, Calib::default());
            report = report.line(format!("{name}: {r}"));
            rows.push(vec![
                name.to_string(),
                spec.label(),
                r.luts.to_string(),
                r.ffs.to_string(),
                r.dsps.to_string(),
                format!("{:.1}", r.weight_memory_bits as f64 / 1000.0),
                format!("{:.1}", r.fmax_hz / 1e6),
                format!("{:.3}", r.latency_ns() / 1000.0),
                format!("{:.1}", r.throughput_per_s() / 1e3),
                format!("{:.2}", r.energy_per_inference_pj / 1000.0),
                format!("{:.3e}", r.edp()),
            ]);
        }
        report = report.line("");
    }
    let header =
        "workload,format,luts,ffs,dsps,wmem_kb,fmax_mhz,latency_us,kinf_per_s,nj_per_inf,edp_js";
    report.table_csv("accelerator_report", header, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_artifacts_emit_the_paper_grids() {
        let dir = std::env::temp_dir().join(format!("dp_bench_artifacts_{}", std::process::id()));
        let csvs = [
            ("fig6_freq_vs_dynrange", "format,n,dyn_range_dec,fmax_mhz,luts", 29),
            ("fig8_luts", "format,n,luts", 29),
            ("fig7_edp", "format,n,edp_js,energy_per_mac_pj,fmax_mhz", 12),
            ("accelerator_report", "workload,format,luts,ffs,dsps,wmem_kb,fmax_mhz,latency_us,kinf_per_s,nj_per_inf,edp_js", 12),
            ("decimal_accuracy", r#"format,"dnn [0.01, 1]","wide [1e-4, 1e4]","tiny [1e-6, 1e-2]""#, 10),
        ];
        let (ctx, mut out) = (Context::new(true), Vec::new());
        let names = [["table1_regime"].as_slice(), &csvs.map(|c| c.0)].concat();
        run(&names, &ctx, &dir, &mut out).unwrap();
        assert!(ctx.tasks.get().is_none(), "none of these trains");
        for (name, header, rows) in csvs {
            let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).unwrap();
            let (first, count) = (csv.lines().next(), csv.lines().count());
            assert_eq!((first, count), (Some(header), 1 + rows), "{name}");
        }
        // Table I comes first: its rows run from the dashes to a blank line.
        let stdout = String::from_utf8(out).unwrap();
        let table1 = stdout.lines().skip_while(|l| !l.starts_with("---")).skip(1);
        assert_eq!(table1.take_while(|l| !l.is_empty()).count(), 6, "{stdout}");
        let err = run(&["fig99"], &ctx, &dir, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
