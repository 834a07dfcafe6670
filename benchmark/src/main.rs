//! The one benchmark of the whole Deep Positron stack.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run [--seed <n>] [--seconds <s>]
//! benchmark compare <a.json>[,...] <b.json>[,...]
//! benchmark spec
//! ```
//!
//! The first form is what the driver calls: one workload, one result
//! line. `run` does that for every workload, with and without tracing,
//! prints every metric by name and unit and writes
//! `results/benchmark/latest.json`. `compare` judges two sets of such
//! files against the bounds. `spec` prints `BENCHMARK.json`. See
//! `README.md` beside this package for what is measured and why.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod env;
mod estimator;
mod gen;
mod json;
mod net;
mod offline;
mod replay;
mod report;
mod setup;
mod spans;
mod spec;

use estimator::{median_of, SLICE_NS};
use json::Json;
use spans::SpanBuf;
use spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Fresh processes whose set-up time is measured per untraced run (the
/// measuring one included); the median is reported.
const SETUP_RUNS: usize = 5;

/// Where span files and `latest.json` go, relative to the working
/// directory (`/results` is gitignored).
const RESULTS_DIR: &str = "results/benchmark";

/// What one workload process was asked to do.
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Per-layer (traced) run instead of an end-to-end one.
    pub trace: bool,
    /// Stop after set-up and report only `setup_s`.
    pub setup_only: bool,
    /// When this process began.
    pub started: Instant,
}

impl RunArgs {
    /// Whole slices in `share` of the measured seconds (at least one).
    pub fn window_slices(&self, share: f64) -> usize {
        ((self.seconds * share * 1e9 / SLICE_NS as f64).floor() as usize).max(1)
    }

    /// Writes the traced pass's spans to
    /// `results/benchmark/trace-<workload>.json`.
    pub fn write_spans(&self, spans: &SpanBuf) {
        let path = PathBuf::from(RESULTS_DIR).join(format!("trace-{}.json", self.workload.name));
        let written = std::fs::create_dir_all(RESULTS_DIR).and_then(|()| {
            std::fs::write(&path, spans.to_json(self.workload.name, self.seed).render())
        });
        if let Err(e) = written {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }
}

struct DriverOpts {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
    setup_only: bool,
}

fn parse_driver(args: &[String]) -> Result<DriverOpts, String> {
    let mut opts = DriverOpts {
        workload: &WORKLOADS[0],
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        child: false,
        setup_only: false,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload = spec::workload(name).ok_or(format!("unknown workload `{name}`"))?;
                named = true;
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds: out of range".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                }
            }
            "--child" => opts.child = true,
            "--setup-only" => opts.setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if named {
        Ok(opts)
    } else {
        Err("--workload is required".into())
    }
}

/// Runs the workload in this process and prints notes plus the result
/// line.
fn child(opts: &DriverOpts, started: Instant) -> ExitCode {
    let args = RunArgs {
        workload: opts.workload,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        setup_only: opts.setup_only,
        started,
    };
    let mut out = if opts.workload.networked {
        net::run(&args)
    } else {
        offline::run(&args)
    };
    out.set("env.pinned", f64::from(u8::from(env::is_pinned())));
    for note in &out.notes {
        println!("# {note}");
    }
    println!("{}", out.result_line(opts.trace).render());
    exit_code(out.correct())
}

/// One child process's notes and parsed result line.
struct ChildRun {
    notes: Vec<String>,
    line: Json,
    ok: bool,
}

fn spawn_child(
    opts: &DriverOpts,
    setup_only: bool,
    cpu: Option<usize>,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = match cpu {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.arg("-c").arg(cpu.to_string()).arg(&exe);
            c
        }
        None => Command::new(&exe),
    };
    cmd.args(["--child", "--workload", opts.workload.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if setup_only {
        cmd.arg("--setup-only");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    let line = Json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    Ok(ChildRun {
        notes: lines.iter().map(|l| l.to_string()).collect(),
        line,
        ok: output.status.success(),
    })
}

/// [`spawn_child`] pinned to the last allowed CPU; falls back to an
/// unpinned child when `taskset` is missing or refuses.
fn spawn_pinned(opts: &DriverOpts, setup_only: bool) -> Result<ChildRun, String> {
    let cpu = if env::is_pinned() {
        None
    } else {
        env::last_allowed_cpu()
    };
    match spawn_child(opts, setup_only, cpu) {
        Err(_) if cpu.is_some() => spawn_child(opts, setup_only, None),
        other => other,
    }
}

fn metric_value(line: &Json, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The driver's entry: measures set-up in [`SETUP_RUNS`] fresh processes,
/// half before and half after the one that goes on to measure the workload
/// (so a noise phase of a few seconds cannot reach most of them), each
/// pinned to one CPU, and returns the notes and the merged result line.
fn supervise(opts: &DriverOpts) -> Result<ChildRun, String> {
    let extra = if opts.trace { 0 } else { SETUP_RUNS - 1 };
    let mut setups = Vec::new();
    let mut setup_only = |count: usize| -> Result<(), String> {
        for _ in 0..count {
            let run = spawn_pinned(opts, true)?;
            setups.extend(metric_value(&run.line, "setup_s"));
        }
        Ok(())
    };
    setup_only(extra / 2)?;
    let mut run = spawn_pinned(opts, false)?;
    setup_only(extra - extra / 2)?;
    if let Some(own) = metric_value(&run.line, "setup_s") {
        setups.push(own);
        let median = median_of(&mut setups);
        let cell = run
            .line
            .get_mut("metrics")
            .and_then(|m| m.get_mut("setup_s"));
        if let Some(cell) = cell {
            cell.set("value", Json::Num(median));
        }
    }
    Ok(run)
}

fn drive(args: &[String], started: Instant) -> ExitCode {
    let opts = match parse_driver(args) {
        Ok(opts) => opts,
        Err(e) => return usage(&e),
    };
    if opts.child {
        return child(&opts, started);
    }
    match supervise(&opts) {
        Ok(run) => {
            for note in &run.notes {
                println!("{note}");
            }
            println!("{}", run.line.render());
            exit_code(run.ok)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `BENCHMARK.json`, generated from the tables in [`spec`].
fn benchmark_json() -> String {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str((*s).into())).collect());
    let mut doc = Json::obj();
    doc.set(
        "command",
        strs(&[
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]),
    );
    doc.set("paths", strs(&["benchmark"]));
    doc.set("run_seconds", Json::Num(RUN_SECONDS as f64));
    let named = |name: &str| {
        let mut row = Json::obj();
        row.set("name", Json::Str(name.into()));
        row
    };
    doc.set(
        "workloads",
        Json::Arr(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut row = named(w.name);
                    row.set("why", Json::Str(w.why.into()));
                    row
                })
                .collect(),
        ),
    );
    doc.set(
        "end_to_end",
        Json::Arr(
            END_TO_END
                .iter()
                .map(|m| {
                    let mut row = named(m.name);
                    row.set("unit", Json::Str(m.unit.into()));
                    row.set("better", Json::Str(m.better.word().into()));
                    row.set("bound", Json::Num(m.bound));
                    row
                })
                .collect(),
        ),
    );
    doc.set(
        "per_layer",
        Json::Arr(
            PER_LAYER
                .iter()
                .map(|(name, unit, better)| {
                    let mut row = named(name);
                    row.set("unit", Json::Str((*unit).into()));
                    row.set("better", Json::Str(better.word().into()));
                    row
                })
                .collect(),
        ),
    );
    // One top-level key per line keeps the file reviewable.
    let body: Vec<String> = doc
        .members()
        .iter()
        .map(|(k, v)| format!("  {}: {}", Json::Str(k.clone()).render(), pretty_rows(v)))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Arrays of objects one row per line, everything else compact.
fn pretty_rows(v: &Json) -> String {
    match v {
        Json::Arr(items) if items.iter().all(|i| matches!(i, Json::Obj(_))) => {
            let rows: Vec<String> = items
                .iter()
                .map(|i| format!("    {}", i.render()))
                .collect();
            format!("[\n{}\n  ]", rows.join(",\n"))
        }
        other => other.render(),
    }
}

/// `benchmark run`: every workload, untraced then traced.
fn run_all(args: &[String]) -> ExitCode {
    let mut seed = 42u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let parsed = match (flag.as_str(), it.next()) {
            ("--seed", Some(v)) => v.parse().map(|s| seed = s).is_ok(),
            ("--seconds", Some(v)) => v.parse().map(|s| seconds = s).is_ok(),
            _ => false,
        };
        if !parsed {
            return usage(&format!("run: bad argument `{flag}`"));
        }
    }
    let jiffies = env::machine_jiffies();
    let mut header = Json::obj();
    header.set("seed", Json::Num(seed as f64));
    header.set("seconds", Json::Num(seconds));
    header.set(
        "nproc",
        Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
    );
    header.set("rustc", Json::Str(env::command_line("rustc", &["-V"])));
    header.set(
        "git_commit",
        Json::Str(env::command_line("git", &["rev-parse", "HEAD"])),
    );
    header.set("load_average_start", Json::Str(env::load_average()));
    println!("# {}", header.render());

    let mut workloads = Json::obj();
    let mut all_ok = true;
    for w in &WORKLOADS {
        let mut entry = Json::obj();
        for trace in [false, true] {
            let opts = DriverOpts {
                workload: w,
                seed,
                seconds,
                trace,
                child: false,
                setup_only: false,
            };
            let run = match supervise(&opts) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("benchmark: {}: {e}", w.name);
                    return ExitCode::from(2);
                }
            };
            all_ok &= run.ok && run.line.get("correct") == Some(&Json::Bool(true));
            let metrics = run.line.get("metrics").cloned().unwrap_or(Json::obj());
            for (name, cell) in metrics.members() {
                println!(
                    "{:<16} {:<36} {:>16} {}",
                    w.name,
                    name,
                    cell.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    cell.get("unit").and_then(Json::as_str).unwrap_or("")
                );
            }
            entry.set(if trace { "per_layer" } else { "end_to_end" }, metrics);
            let kind = if trace { "traced" } else { "untraced" };
            for key in ["correct", "attempted", "failed"] {
                let value = run.line.get(key).cloned().unwrap_or(Json::Null);
                println!(
                    "{:<16} {:<36} {:>16}",
                    w.name,
                    format!("{kind}.{key}"),
                    value.render()
                );
                entry.set(&format!("{kind}_{key}"), value);
            }
            for note in run.notes.iter().filter_map(|n| n.strip_prefix("# ")) {
                if let Some((k, v)) = note.split_once('=') {
                    entry.set(k, Json::Str(v.into()));
                }
            }
        }
        println!(
            "{:<16} {:<36} {:>16}",
            w.name,
            "stream_digest",
            entry
                .get("stream_digest")
                .and_then(Json::as_str)
                .unwrap_or("")
        );
        workloads.set(w.name, entry);
    }
    header.set("load_average_end", Json::Str(env::load_average()));
    header.set(
        "steal_share",
        Json::Num(env::steal_share(jiffies, env::machine_jiffies())),
    );
    let mut doc = Json::obj();
    doc.set("header", header);
    doc.set("workloads", workloads);
    let path = PathBuf::from(RESULTS_DIR).join("latest.json");
    let written = std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"));
    match written {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    exit_code(all_ok)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("benchmark: {msg}");
    eprintln!(
        "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         benchmark run [--seed <n>] [--seconds <s>]\n       \
         benchmark compare <a.json>[,...] <b.json>[,...]\n       \
         benchmark spec\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => match compare::run(a, b) {
                Ok(regressed) => exit_code(!regressed),
                Err(e) => usage(&e),
            },
            _ => usage("compare needs two file lists"),
        },
        Some("spec") => {
            print!("{}", benchmark_json());
            ExitCode::SUCCESS
        }
        Some(_) => drive(&args, started),
        None => usage("no arguments"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generated_spec_is_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark spec`"
        );
        assert!(committed.len() < 64 << 10);
    }

    #[test]
    fn driver_arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_driver(&args(
            "--workload net_small --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.name, o.seed, o.seconds, o.trace),
            ("net_small", 7, 2.5, true)
        );
        assert!(!o.child && !o.setup_only);
        for bad in [
            "--seed 7",
            "--workload nope",
            "--workload net_small --trace 2",
            "--workload net_small --seconds 0",
            "--workload net_small --bogus",
            "--workload",
        ] {
            assert!(parse_driver(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn window_slices_round_down_to_whole_slices() {
        let args = RunArgs {
            workload: &WORKLOADS[0],
            seed: 1,
            seconds: 10.0,
            trace: false,
            setup_only: false,
            started: Instant::now(),
        };
        assert_eq!(args.window_slices(1.0), 40);
        assert_eq!(args.window_slices(0.3), 12);
        assert_eq!(args.window_slices(0.001), 1);
    }
}
