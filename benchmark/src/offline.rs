//! The offline workloads: one thread calling
//! `QuantizedMlp::forward_batch_bits_with` on caller-owned EMACs, batch
//! after batch, formats rotating. Serve, gateway and net do nothing here.

use crate::env;
use crate::estimator::{summarize, OpLog, SLICE_NS};
use crate::replay::{self, Batch};
use crate::report::{Outcome, Tally};
use crate::setup::Model;
use crate::spans::{SpanBuf, SPAN_CAPACITY};
use crate::RunArgs;
use dp_emac::EmacUnit;
use std::time::{Duration, Instant};

/// Most operations per second the latency buffer is sized for.
const MAX_OPS_PER_S: f64 = 200_000.0;

/// What one untraced window saw.
struct Window {
    log: OpLog,
    tally: Tally,
    busy_ns: u64,
}

/// Back-to-back batches for `slices` slices; every output row is checked
/// against the oracle outside the timed interval.
fn window(model: &Model, emacs: &mut [Vec<EmacUnit>], batches: &[Batch], slices: usize) -> Window {
    let window_ns = slices as u64 * SLICE_NS;
    let capacity = (MAX_OPS_PER_S * window_ns as f64 / 1e9) as usize;
    let mut w = Window {
        log: OpLog::new(slices, capacity),
        tally: Tally::default(),
        busy_ns: 0,
    };
    let start = Instant::now();
    for batch in batches.iter().cycle() {
        let t0 = Instant::now();
        let f = batch.spec.format;
        let out = model.nets[f].forward_batch_bits_with(&mut emacs[f], &batch.xs);
        let t1 = Instant::now();
        let end_ns = (t1 - start).as_nanos() as u64;
        if end_ns >= window_ns {
            break;
        }
        let dur_ns = (t1 - t0).as_nanos() as u64;
        w.log.record(end_ns, dur_ns, batch.xs.len() as u64);
        w.busy_ns += dur_ns;
        w.tally.note(model.wrong_bits_rows(&batch.spec, &out));
    }
    w.log.finish();
    w
}

/// Runs one offline workload.
pub fn run(args: &RunArgs) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();
    let mut model = Model::build(w, args.seed);
    let mut emacs: Vec<Vec<EmacUnit>> =
        (0..model.nets.len()).map(|f| model.make_emacs(f)).collect();
    model.build_oracle();
    let batches = replay::batches(&model, w.samples_per_op);
    // Warm-up: every generated batch once, verified like the rest.
    for batch in &batches {
        let f = batch.spec.format;
        let rows = model.nets[f].forward_batch_bits_with(&mut emacs[f], &batch.xs);
        out.tally.note(model.wrong_bits_rows(&batch.spec, &rows));
    }
    out.set(
        "setup_s",
        args.started.elapsed().as_secs_f64() - model.times.oracle_ms / 1e3,
    );
    model.describe(&mut out);
    if args.setup_only {
        return out;
    }

    let slices = args.window_slices(if args.trace { 0.4 } else { 1.0 });
    let jiffies = env::machine_jiffies();
    let win = window(&model, &mut emacs, &batches, slices);
    // Read before the summary below allocates in proportion to the ops run.
    out.set("peak_rss_mb", env::peak_rss_mb());
    out.set(
        "env.steal_share",
        env::steal_share(jiffies, env::machine_jiffies()),
    );
    let summary = summarize(std::slice::from_ref(&win.log));
    out.tally.add(win.tally);
    out.extend(summary.metrics(win.log.overflowed()));
    let window_ns = slices as u64 * SLICE_NS;
    out.set(
        "loadgen.cpu_share",
        1.0 - win.busy_ns as f64 / window_ns as f64,
    );

    if args.trace {
        let mut spans = SpanBuf::new(Instant::now(), SPAN_CAPACITY);
        let budget = Duration::from_secs_f64(args.seconds * 0.5);
        let stats = replay::run(&model, &mut emacs, &batches, budget, &mut spans);
        out.tally.add(stats.tally);
        out.extend(stats.metrics());
        // The span timers are the only tracing an offline call can carry.
        let traced_rate = 1e9 / stats.forward_ns_per_sample().max(f64::MIN_POSITIVE);
        let untraced_rate =
            window_ns as f64 / win.busy_ns.max(1) as f64 * summary.mean_samples_per_s;
        out.set("trace.overhead_share", 1.0 - traced_rate / untraced_rate);
        out.set("hw.stream_cycles_per_sample", model.stream_cycles());
        args.write_spans(&spans);
    }
    out.close();
    out
}
