//! `benchmark compare <a.json>[,<a2.json>...] <b.json>[,...]`: per
//! workload and end-to-end metric, the relative change of side B's median
//! against side A's, judged against the metric's bound.

use crate::estimator::median_of;
use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};

/// The judgement on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound, and the
    /// runs are steady enough to say so.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Within the bound, but a side's own runs spread wider than the
    /// bound and B's runs do not all beat A's: not shown unchanged.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a` (negative = better).
fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn spread(values: &[f64], median: f64) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if median == 0.0 || values.len() < 2 {
        0.0
    } else {
        (hi - lo) / median
    }
}

/// Judges one metric from the runs of each side; returns the verdict and
/// the worsening of the medians.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (median_of(&mut a.to_vec()), median_of(&mut b.to_vec()));
    let worse = worsening(metric, ma, mb);
    if worse > metric.bound {
        return (Verdict::Regressed, worse);
    }
    let noisy = spread(a, ma) > metric.bound || spread(b, mb) > metric.bound;
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worsening(metric, x, y) < 0.0));
    if noisy && !all_better {
        (Verdict::Unresolved, worse)
    } else {
        (Verdict::Ok, worse)
    }
}

fn load_side(list: &str) -> Result<Vec<Json>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn values(side: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    side.iter()
        .filter_map(|doc| {
            doc.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Runs the comparison, prints the table, and returns whether anything
/// regressed.
pub fn run(a_list: &str, b_list: &str) -> Result<bool, String> {
    let (a, b) = (load_side(a_list)?, load_side(b_list)?);
    println!(
        "{:<16} {:<15} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound"
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(&a, w.name, m.name), values(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (verdict, worse) = judge(m, &va, &vb);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{:<16} {:<15} {:>13.4} {:>13.4} {:>+7.2}% {:>5.1}%  {}",
                w.name,
                m.name,
                median_of(&mut va.clone()),
                median_of(&mut vb.clone()),
                100.0 * worse,
                100.0 * m.bound,
                verdict.word()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: EndToEnd = EndToEnd {
        name: "samples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
    };
    const LATENCY: EndToEnd = EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.05,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        assert_eq!(judge(&RATE, &[100.0], &[96.0]).0, Verdict::Ok);
        assert_eq!(judge(&RATE, &[100.0], &[94.0]).0, Verdict::Regressed);
        assert_eq!(judge(&RATE, &[100.0], &[150.0]).0, Verdict::Ok);
        assert_eq!(judge(&LATENCY, &[100.0], &[104.0]).0, Verdict::Ok);
        assert_eq!(judge(&LATENCY, &[100.0], &[106.0]).0, Verdict::Regressed);
        let (_, worse) = judge(&LATENCY, &[100.0, 102.0, 98.0], &[110.0, 111.0, 109.0]);
        assert!((worse - 0.10).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        // A spreads 20 %: "unchanged" cannot be claimed ...
        assert_eq!(
            judge(&RATE, &[90.0, 100.0, 110.0], &[99.0, 100.0, 101.0]).0,
            Verdict::Unresolved
        );
        // ... unless every B run beats every A run.
        assert_eq!(
            judge(&RATE, &[90.0, 100.0, 110.0], &[120.0, 121.0, 140.0]).0,
            Verdict::Ok
        );
        // A clear regression stays a regression however noisy.
        assert_eq!(
            judge(&RATE, &[90.0, 100.0, 110.0], &[70.0, 80.0, 90.0]).0,
            Verdict::Regressed
        );
    }
}
