//! Exact-vs-inexact MAC ablation (paper §III-A's motivation; README.md's
//! `ablation_exact_vs_inexact` artifact): how much accuracy does the
//! EMAC's delayed rounding buy over an ordinary per-operation-rounding MAC?

use crate::format::NumericFormat;
use crate::quantized::QuantizedMlp;
use dp_datasets::Dataset;

/// Accuracy of the same quantized network under both accumulation rules.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// The format under test.
    pub format: NumericFormat,
    /// EMAC (exact accumulation, single rounding) accuracy.
    pub exact_accuracy: f64,
    /// Ordinary MAC (round every product and every add) accuracy.
    pub inexact_accuracy: f64,
}

impl AblationResult {
    /// Percentage points gained by exact accumulation.
    pub fn emac_gain_pct(&self) -> f64 {
        100.0 * (self.exact_accuracy - self.inexact_accuracy)
    }
}

/// Runs both inference paths of `qmlp` on (up to `limit` samples of) the
/// test set.
pub fn compare_exact_vs_inexact(
    qmlp: &QuantizedMlp,
    test: &Dataset,
    limit: usize,
) -> AblationResult {
    let mut test = test.clone();
    if test.len() > limit {
        test.features.truncate(limit);
        test.labels.truncate(limit);
    }
    AblationResult {
        format: qmlp.format,
        exact_accuracy: qmlp.accuracy(&test),
        inexact_accuracy: qmlp.accuracy_inexact(&test),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;
    use crate::train::{train, TrainConfig};
    use dp_datasets::iris;
    use dp_posit::PositFormat;

    #[test]
    fn ablation_runs_and_reports() {
        let split = iris::load(41).split(50, 41).normalized();
        let mut mlp = Mlp::new(&[4, 8, 3], 41);
        train(
            &mut mlp,
            &split.train,
            TrainConfig {
                epochs: 40,
                batch_size: 16,
                lr: 0.02,
                seed: 41,
            },
        );
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(5, 0).unwrap()));
        let r = compare_exact_vs_inexact(&q, &split.test, 50);
        assert!(r.exact_accuracy >= 0.0 && r.exact_accuracy <= 1.0);
        assert!(r.inexact_accuracy >= 0.0 && r.inexact_accuracy <= 1.0);
        // At 5 bits the exact path should not lose to per-op rounding.
        assert!(
            r.emac_gain_pct() >= -5.0,
            "exact {} vs inexact {}",
            r.exact_accuracy,
            r.inexact_accuracy
        );
    }
}
