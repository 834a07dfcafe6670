//! What one run of one workload produced, and its rendering as the result
//! line the driver reads.

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};

/// A running count of verified operations (batches offline, requests
/// networked).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations that failed, were refused or returned a wrong output.
    pub failed: u64,
    /// Output rows (samples) that differed from the oracle.
    pub wrong_samples: u64,
}

impl Tally {
    /// Counts one operation, `wrong` of whose samples were wrong.
    pub fn note(&mut self, wrong: u64) {
        self.attempted += 1;
        self.failed += u64::from(wrong > 0);
        self.wrong_samples += wrong;
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong_samples += other.wrong_samples;
    }
}

/// The measurements of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every operation the run verified.
    pub tally: Tally,
    /// Measured values by metric name.
    pub metrics: Vec<(String, f64)>,
    /// Free-form `key=value` facts printed above the result line (the
    /// request-stream digest among them).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets (or replaces) one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Sets several metrics.
    pub fn extend(&mut self, metrics: Vec<(String, f64)>) {
        for (name, value) in metrics {
            self.set(&name, value);
        }
    }

    /// A metric's value, `0.0` when the run did not measure it.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Whether every operation succeeded with the right output.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// Derives the failure metrics from the tally; call once, last.
    pub fn close(&mut self) {
        let t = self.tally;
        self.set("core.batch_vs_single_mismatches", t.wrong_samples as f64);
        self.set(
            "run.failed_share",
            t.failed as f64 / t.attempted.max(1) as f64,
        );
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every end-to-end metric (`trace`
    /// off) or every per-layer metric (`trace` on) with its unit.
    pub fn result_line(&self, trace: bool) -> Json {
        let names: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = Json::obj();
        for (name, unit) in names {
            let mut cell = Json::obj();
            cell.set("value", Json::Num(self.get(name)));
            cell.set("unit", Json::Str(unit.into()));
            metrics.set(name, cell);
        }
        let mut line = Json::obj();
        line.set("correct", Json::Bool(self.correct()));
        line.set("attempted", Json::Num(self.tally.attempted.max(1) as f64));
        line.set("failed", Json::Num(self.tally.failed as f64));
        line.set("metrics", metrics);
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_carry_exactly_the_contract_keys_and_every_metric() {
        let mut o = Outcome::default();
        for _ in 0..10 {
            o.tally.note(0);
        }
        o.set("samples_per_s", 1.5e5);
        o.set("samples_per_s", 1.25e5);
        for trace in [false, true] {
            let line = Json::parse(&o.result_line(trace).render()).unwrap();
            let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").unwrap().members();
            let expect = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), expect);
            for (_, cell) in metrics {
                assert!(cell.get("value").unwrap().as_f64().is_some());
                assert!(cell.get("unit").unwrap().as_str().is_some());
            }
        }
        let line = o.result_line(false);
        let rate = line.get("metrics").unwrap().get("samples_per_s").unwrap();
        assert_eq!(rate.get("value").unwrap().as_f64(), Some(1.25e5));
        o.tally.note(3);
        assert_eq!(
            o.result_line(false).get("correct"),
            Some(&Json::Bool(false))
        );
        o.close();
        assert_eq!(o.get("core.batch_vs_single_mismatches"), 3.0);
        assert_eq!(o.get("run.failed_share"), 1.0 / 11.0);
    }
}
