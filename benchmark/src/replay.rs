//! The offline half of the traced pass: every batch goes through the real
//! `forward_batch_bits_with` under one span, then through a replay of the
//! same forward pass assembled from outside with the layers' public
//! pieces (`quantize_input`, `weight_rows` / `biases`, `EmacUnit::dot_tile`,
//! `relu_bits`) under one span per piece. The replay's pieces say where
//! the time goes; the span around the real call says how much there is to
//! explain; `core.replay_vs_forward` says how faithful the replay is.

use crate::gen::RequestSpec;
use crate::report::Tally;
use crate::setup::{Model, FAMILIES};
use crate::spans::{self, SpanBuf};
use deep_positron::QuantizedMlp;
use dp_emac::{Emac, EmacUnit};
use std::time::{Duration, Instant};

/// One batch as the engine would see it.
pub struct Batch {
    /// Format and pool indices of the rows.
    pub spec: RequestSpec,
    /// The feature rows.
    pub xs: Vec<Vec<f32>>,
}

/// The model's request stream as engine batches: whole requests offline,
/// `chunk`-sample pieces of each request when a serving engine would
/// split them.
pub fn batches(model: &Model, chunk: usize) -> Vec<Batch> {
    model
        .stream
        .iter()
        .flat_map(|req| {
            req.samples.chunks(chunk).map(|samples| RequestSpec {
                format: req.format,
                samples: samples.to_vec(),
            })
        })
        .map(|spec| Batch {
            xs: model.rows(&spec),
            spec,
        })
        .collect()
}

/// The forward pass rebuilt from the layers' public functions, one span
/// per piece. Returns the output rows and the MACs the EMACs counted.
fn replay_forward(
    net: &QuantizedMlp,
    emacs: &mut [EmacUnit],
    xs: &[Vec<f32>],
    spans: &mut SpanBuf,
    req: u64,
) -> (Vec<Vec<u32>>, u64) {
    let b = xs.len();
    let mut macs = 0u64;
    let t = Instant::now();
    let mut acts: Vec<Vec<u32>> = xs.iter().map(|x| net.quantize_input(x)).collect();
    let mut mark = Instant::now();
    spans.record(spans::QUANTIZE, t, mark, req);
    let last = net.layers.len() - 1;
    for (li, (layer, emac)) in net.layers.iter().zip(emacs.iter_mut()).enumerate() {
        let cols: Vec<&[u32]> = acts.iter().map(|a| a.as_slice()).collect();
        let mut rows = vec![0u32; layer.fan_out() * b];
        let mut next: Vec<Vec<u32>> = vec![Vec::with_capacity(layer.fan_out()); b];
        let t = Instant::now();
        spans.record(spans::EPILOGUE, mark, t, req);
        for ((wrow, &bias), out) in layer
            .weight_rows()
            .zip(layer.biases())
            .zip(rows.chunks_mut(b))
        {
            emac.dot_tile(bias, wrow, &cols, out);
            macs += emac.macs_done();
        }
        let t2 = Instant::now();
        spans.record(spans::DOT_TILE, t, t2, req);
        for out in rows.chunks(b) {
            for (&bits, sample) in out.iter().zip(next.iter_mut()) {
                sample.push(if li != last {
                    net.format.relu_bits(bits)
                } else {
                    bits
                });
            }
        }
        drop(cols);
        acts = next;
        mark = Instant::now();
        spans.record(spans::EPILOGUE, t2, mark, req);
    }
    (acts, macs)
}

/// Per-format sums of a replay pass.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Samples served per format.
    pub samples: [u64; 3],
    /// Nanoseconds inside the real forward call per format.
    pub forward_ns: [u64; 3],
    /// Nanoseconds inside `dot_tile` per format.
    pub dot_ns: [u64; 3],
    /// Nanoseconds inside `quantize_input` per format.
    pub quantize_ns: [u64; 3],
    /// Nanoseconds of the replay's gather / ReLU / transposition.
    pub epilogue_ns: u64,
    /// Nanoseconds inside the replay as a whole.
    pub replay_ns: u64,
    /// MACs the EMACs counted.
    pub macs: u64,
    /// Batches run (one operation per batch: the real call and its replay
    /// verified together).
    pub tally: Tally,
}

/// Runs real-then-replayed forward passes over `batches` for `budget`.
pub fn run(
    model: &Model,
    emacs: &mut [Vec<EmacUnit>],
    batches: &[Batch],
    budget: Duration,
    spans: &mut SpanBuf,
) -> ReplayStats {
    let mut st = ReplayStats::default();
    let start = Instant::now();
    for (i, batch) in batches.iter().cycle().enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        let f = batch.spec.format;
        let net = &model.nets[f];
        let t0 = Instant::now();
        let out = net.forward_batch_bits_with(&mut emacs[f], &batch.xs);
        let t1 = Instant::now();
        spans.record(spans::FORWARD, t0, t1, i as u64);
        let wrong = model.wrong_bits_rows(&batch.spec, &out);

        let before = [
            spans.total_ns(spans::QUANTIZE),
            spans.total_ns(spans::DOT_TILE),
            spans.total_ns(spans::EPILOGUE),
        ];
        let r0 = Instant::now();
        let (replayed, macs) = replay_forward(net, &mut emacs[f], &batch.xs, spans, i as u64);
        let r1 = Instant::now();
        spans.record(spans::REPLAY, r0, r1, i as u64);
        st.tally
            .note(wrong + model.wrong_bits_rows(&batch.spec, &replayed));

        st.samples[f] += batch.xs.len() as u64;
        st.forward_ns[f] += (t1 - t0).as_nanos() as u64;
        st.quantize_ns[f] += spans.total_ns(spans::QUANTIZE) - before[0];
        st.dot_ns[f] += spans.total_ns(spans::DOT_TILE) - before[1];
        st.epilogue_ns += spans.total_ns(spans::EPILOGUE) - before[2];
        st.replay_ns += (r1 - r0).as_nanos() as u64;
        st.macs += macs;
    }
    st
}

fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl ReplayStats {
    /// Mean nanoseconds per sample of one real forward pass.
    pub fn forward_ns_per_sample(&self) -> f64 {
        per(self.forward_ns.iter().sum(), self.samples.iter().sum())
    }

    /// The `emac.*` and `core.*` timing metrics.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let samples: u64 = self.samples.iter().sum();
        let forward: u64 = self.forward_ns.iter().sum();
        let dot: u64 = self.dot_ns.iter().sum();
        let quantize: u64 = self.quantize_ns.iter().sum();
        let own = |f: u64, d: u64, q: u64| f.saturating_sub(d + q);
        let mut m = vec![
            ("emac.macs_per_sample".to_string(), per(self.macs, samples)),
            ("emac.dot_tile_ns_per_sample".into(), per(dot, samples)),
            ("emac.macs_per_s".into(), 1e9 * per(self.macs, dot)),
            ("emac.time_share".into(), per(dot, forward)),
            (
                "core.quantize_input_ns_per_sample".into(),
                per(quantize, samples),
            ),
            (
                "core.epilogue_ns_per_sample".into(),
                per(self.epilogue_ns, samples),
            ),
            ("core.forward_ns_per_sample".into(), per(forward, samples)),
            (
                "core.self_ns_per_sample".into(),
                per(own(forward, dot, quantize), samples),
            ),
            (
                "core.self_share".into(),
                per(own(forward, dot, quantize), forward),
            ),
            (
                "core.replay_vs_forward".into(),
                per(self.replay_ns, forward),
            ),
            (
                "core.replay_children_share".into(),
                per(dot + quantize + self.epilogue_ns, self.replay_ns),
            ),
        ];
        // Every format runs the same MAC count per sample.
        let macs_per_sample = per(self.macs, samples);
        for (f, family) in FAMILIES.iter().enumerate() {
            let (s, fw, d, q) = (
                self.samples[f],
                self.forward_ns[f],
                self.dot_ns[f],
                self.quantize_ns[f],
            );
            m.push((format!("emac.dot_tile_ns_per_sample.{family}"), per(d, s)));
            m.push((
                format!("emac.macs_per_s.{family}"),
                1e9 * macs_per_sample * per(s, d),
            ));
            m.push((format!("core.forward_ns_per_sample.{family}"), per(fw, s)));
            m.push((
                format!("core.self_ns_per_sample.{family}"),
                per(own(fw, d, q), s),
            ));
        }
        m
    }
}
