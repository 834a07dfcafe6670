//! Decimal-accuracy analysis of number formats.
//!
//! Decimal accuracy — `−log10 |log10(x̂ / x)|` — is the standard metric of
//! the posit literature (Gustafson & Yonemoto 2017) for how faithfully a
//! format represents a real value; the paper's "higher accuracy" claims
//! for posits trace back to it. This module measures it for any
//! quantizer over a log-uniform sample of a value range.

/// Decimal accuracy of representing `x` as `x_hat`:
/// `−log10 |log10(x_hat / x)|`. Larger is better; exact representation
/// yields infinity, which callers usually clamp for averaging.
pub fn decimal_accuracy(x: f64, x_hat: f64) -> f64 {
    assert!(x > 0.0, "decimal accuracy is defined on positive values");
    if x_hat <= 0.0 {
        return f64::NEG_INFINITY; // flushed to zero or sign error
    }
    -(x_hat / x).log10().abs().log10()
}

/// Mean decimal accuracy of `quantize` over `samples` log-uniform points
/// in `[lo, hi]`, with exact hits clamped to `clamp` digits.
pub fn mean_decimal_accuracy(
    quantize: impl Fn(f64) -> f64,
    lo: f64,
    hi: f64,
    samples: usize,
    clamp: f64,
) -> f64 {
    assert!(lo > 0.0 && hi > lo && samples > 0);
    let (l0, l1) = (lo.log10(), hi.log10());
    let x = |i: usize| 10f64.powf(l0 + (l1 - l0) * (i as f64 + 0.5) / samples as f64);
    let da = |x: f64| decimal_accuracy(x, quantize(x)).clamp(-clamp, clamp);
    (0..samples).map(|i| da(x(i))).sum::<f64>() / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_representation_is_infinite() {
        assert_eq!(decimal_accuracy(2.0, 2.0), f64::INFINITY);
    }

    #[test]
    fn one_percent_error_is_about_two_digits() {
        let da = decimal_accuracy(100.0, 101.0);
        assert!((da - 2.36).abs() < 0.05, "{da}");
    }

    #[test]
    fn flush_to_zero_is_negative_infinity() {
        assert_eq!(decimal_accuracy(1e-30, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn mean_accuracy_prefers_finer_formats() {
        let p8 = dp_posit::PositFormat::new(8, 0).unwrap();
        let p12 = dp_posit::PositFormat::new(12, 0).unwrap();
        let q8 = |v: f64| dp_posit::convert::to_f64(p8, dp_posit::convert::from_f64(p8, v));
        let q12 = |v: f64| dp_posit::convert::to_f64(p12, dp_posit::convert::from_f64(p12, v));
        let a8 = mean_decimal_accuracy(q8, 0.01, 10.0, 500, 6.0);
        let a12 = mean_decimal_accuracy(q12, 0.01, 10.0, 500, 6.0);
        assert!(a12 > a8 + 0.5, "p12 {a12} vs p8 {a8}");
    }
}
