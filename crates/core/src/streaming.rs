//! Cycle-accurate simulation of the Deep Positron streaming architecture.
//!
//! Paper Fig. 1 / §III-E: each layer owns an array of EMACs with local
//! weight/bias memories; a main control FSM streams activations forward.
//! "The compute cycle of each layer is triggered when its directly
//! preceding layer has terminated computation for an input. This flow
//! performs inference in a parallel streaming fashion."
//!
//! The simulator models each layer as an FSM that occupies
//! `fan_in + pipeline_depth` cycles per input vector (one MAC per cycle
//! across all its EMACs in parallel, plus pipeline drain), with
//! single-buffered handoff between layers. Layer `ℓ` can work on input
//! `i+1` while layer `ℓ+1` works on input `i`.

use crate::quantized::QuantizedMlp;
use dp_emac::{Emac, EmacUnit};

/// Latency/throughput results of a streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingReport {
    /// Cycles until the first inference completed.
    pub first_latency_cycles: u64,
    /// Total cycles until the last inference completed.
    pub total_cycles: u64,
    /// Steady-state initiation interval between results (cycles).
    pub steady_interval_cycles: u64,
    /// Number of inferences performed.
    pub inferences: usize,
}

impl StreamingReport {
    /// Wall-clock first-inference latency at `fmax_hz`.
    pub fn first_latency_ns(&self, fmax_hz: f64) -> f64 {
        self.first_latency_cycles as f64 * 1e9 / fmax_hz
    }

    /// Wall-clock throughput (inferences per second) at `fmax_hz`.
    pub fn throughput_per_s(&self, fmax_hz: f64) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.inferences as f64 * fmax_hz / self.total_cycles as f64
    }
}

/// The analytic per-layer occupancy in cycles: `fan_in` MACs (one per
/// cycle) plus the EMAC pipeline depth for drain and rounding.
pub fn layer_cycles(qmlp: &QuantizedMlp) -> Vec<u64> {
    occupancy(qmlp, qmlp.make_layer_emacs().as_deref())
}

/// [`layer_cycles`] read off already-built per-layer units (`None` for the
/// `F32` baseline, which has no pipeline to drain beyond one cycle).
fn occupancy(qmlp: &QuantizedMlp, emacs: Option<&[EmacUnit]>) -> Vec<u64> {
    qmlp.layers
        .iter()
        .enumerate()
        .map(|(l, layer)| {
            let depth = emacs.map_or(1, |units| units[l].pipeline_depth());
            layer.fan_in() as u64 + depth as u64
        })
        .collect()
}

/// Runs the streaming pipeline over `inputs`, returning per-input
/// predictions (identical to [`QuantizedMlp::infer`]) and the cycle counts.
///
/// # Panics
///
/// Panics if the format is `F32` (the streaming architecture exists for
/// the low-precision EMACs).
pub fn simulate(qmlp: &QuantizedMlp, inputs: &[Vec<f32>]) -> (Vec<usize>, StreamingReport) {
    // One unit per layer for the whole run, as in the hardware.
    let mut emacs = qmlp
        .make_layer_emacs()
        .expect("streaming requires a low-precision format");
    let occupancy = occupancy(qmlp, Some(&emacs));
    let n_layers = qmlp.layers.len();
    // Per-layer state: Some((input_index, remaining_cycles)) when busy.
    let mut busy: Vec<Option<(usize, u64)>> = vec![None; n_layers];
    // Activation values travelling with each in-flight input (functional
    // payload carried alongside the timing model).
    let mut payload: Vec<Option<Vec<u32>>> = vec![None; n_layers];
    let mut next_input = 0usize;
    let mut results: Vec<Option<usize>> = vec![None; inputs.len()];
    let mut first_done: Option<u64> = None;
    let mut cycle: u64 = 0;
    let mut done = 0usize;

    while done < inputs.len() {
        // Retire / hand off from the last layer backwards so a freed layer
        // can accept new work in the same cycle boundary.
        for l in (0..n_layers).rev() {
            if let Some((idx, remaining)) = busy[l] {
                if remaining > 0 {
                    continue;
                }
                // Layer finished: compute its functional output now.
                let acts = payload[l].take().expect("payload follows busy");
                let mut out = vec![0u32; qmlp.layers[l].fan_out()];
                qmlp.layer(l, &mut emacs[l], &acts, &mut out);
                if l + 1 == n_layers {
                    results[idx] = Some(qmlp.argmax_bits(&out));
                    done += 1;
                    if first_done.is_none() {
                        first_done = Some(cycle);
                    }
                    busy[l] = None;
                } else if busy[l + 1].is_none() {
                    busy[l + 1] = Some((idx, occupancy[l + 1]));
                    payload[l + 1] = Some(out);
                    busy[l] = None;
                } else {
                    // Stalled: keep holding the result (put payload back).
                    payload[l] = Some(acts);
                }
            }
        }
        // Feed a new input when the first layer is free.
        if busy[0].is_none() && next_input < inputs.len() {
            busy[0] = Some((next_input, occupancy[0]));
            payload[0] = Some(qmlp.quantize_input(&inputs[next_input]));
            next_input += 1;
        }
        // Advance one clock.
        for slot in busy.iter_mut().flatten() {
            slot.1 = slot.1.saturating_sub(1);
        }
        cycle += 1;
        assert!(
            cycle < 10_000_000,
            "streaming simulation failed to converge"
        );
    }

    let preds: Vec<usize> = results.into_iter().map(|r| r.expect("all done")).collect();
    let report = StreamingReport {
        first_latency_cycles: first_done.unwrap_or(0),
        total_cycles: cycle - 1,
        steady_interval_cycles: *occupancy.iter().max().unwrap_or(&1),
        inferences: inputs.len(),
    };
    (preds, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::NumericFormat;
    use crate::mlp::Mlp;
    use crate::quantized::QuantizedMlp;
    use crate::train::{train, TrainConfig};
    use dp_datasets::iris;
    use dp_posit::PositFormat;

    fn quantized_iris() -> (QuantizedMlp, dp_datasets::TrainTest) {
        let split = iris::load(31).split(50, 31).normalized();
        let mut mlp = Mlp::new(&[4, 8, 3], 31);
        train(
            &mut mlp,
            &split.train,
            TrainConfig {
                epochs: 40,
                batch_size: 16,
                lr: 0.02,
                seed: 31,
            },
        );
        (
            QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap())),
            split,
        )
    }

    #[test]
    fn streaming_matches_functional_inference() {
        let (q, split) = quantized_iris();
        let inputs: Vec<Vec<f32>> = split.test.features.iter().take(20).cloned().collect();
        let (preds, report) = simulate(&q, &inputs);
        let expect: Vec<usize> = inputs.iter().map(|x| q.infer(x)).collect();
        assert_eq!(preds, expect);
        assert_eq!(report.inferences, 20);
    }

    #[test]
    fn first_latency_is_sum_of_layer_occupancies() {
        let (q, split) = quantized_iris();
        let inputs = vec![split.test.features[0].clone()];
        let (_, report) = simulate(&q, &inputs);
        let occ = layer_cycles(&q);
        // Layers: fan_in + depth cycles each; the result is visible at the
        // end of the cycle in which the last layer finishes.
        let analytic: u64 = occ.iter().sum();
        assert_eq!(report.first_latency_cycles, analytic);
    }

    #[test]
    fn pipelining_overlaps_layers() {
        let (q, split) = quantized_iris();
        let inputs: Vec<Vec<f32>> = split.test.features.iter().take(10).cloned().collect();
        let (_, report) = simulate(&q, &inputs);
        let occ = layer_cycles(&q);
        let serial: u64 = occ.iter().sum::<u64>() * inputs.len() as u64;
        assert!(
            report.total_cycles < serial,
            "pipelined {} vs serial {}",
            report.total_cycles,
            serial
        );
        // Steady state: one result per max-occupancy interval (+ slack).
        let max_occ = *occ.iter().max().unwrap();
        assert_eq!(report.steady_interval_cycles, max_occ);
        let lower = report.first_latency_cycles + (inputs.len() as u64 - 1) * max_occ;
        assert!(
            report.total_cycles >= lower - inputs.len() as u64
                && report.total_cycles <= lower + 2 * inputs.len() as u64,
            "total {} vs analytic steady-state {}",
            report.total_cycles,
            lower
        );
    }

    #[test]
    fn wall_clock_conversions() {
        let r = StreamingReport {
            first_latency_cycles: 100,
            total_cycles: 1000,
            steady_interval_cycles: 10,
            inferences: 90,
        };
        assert!((r.first_latency_ns(1e8) - 1000.0).abs() < 1e-9);
        assert!((r.throughput_per_s(1e8) - 9e6).abs() < 1.0);
    }
}
