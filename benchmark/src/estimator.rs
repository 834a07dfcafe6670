//! The quiet-slice estimator.
//!
//! Neighbour noise on a shared box is one-sided (it only ever slows the
//! program down) and arrives in phases of seconds, so a whole-window mean
//! moves with the neighbours rather than with the code. The measured
//! window is therefore cut into [`SLICE_NS`] slices and the quiet ones
//! speak: a rate is the slice at the top [`QUIET`] quantile, a median
//! latency is computed per slice and reported at the bottom [`QUIET`]
//! quantile, and a p99 — where every interference event lands — is taken
//! over the pooled operations of the slices whose own p99 is lowest, as
//! many as it takes to reach [`P99_MIN_OPS`]. Whole-window figures are kept
//! beside them (`run.*`) so a stall the code itself causes cannot hide.

/// Length of one slice of the measured window.
pub const SLICE_NS: u64 = 250_000_000;

/// How far from the best slice the reported rate and median latency sit:
/// the 97.5th / 2.5th percentile slice (the third best of eighty).
pub const QUIET: f64 = 0.025;

/// Operations the quiet pool needs before its p99 has ten samples beyond
/// it.
pub const P99_MIN_OPS: usize = 1000;

/// Quantile `q` of an ascending slice, linearly interpolated between the
/// two nearest ranks; `0.0` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// [`quantile`] of an unsorted vector (sorts it in place).
pub fn quantile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, q)
}

/// Median of an unsorted vector (sorts it in place).
pub fn median_of(values: &mut [f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// One thread's log of timed operations inside a window: a fixed-size,
/// fully touched duration buffer (so the resident set does not depend on
/// how fast the program under test is) plus per-slice counters.
/// Operations must be recorded in completion order.
pub struct OpLog {
    durs_ns: Vec<u32>,
    used: usize,
    /// `first[k]` = index of slice `k`'s first duration.
    first: Vec<usize>,
    samples: Vec<u64>,
    current: usize,
    overflowed: bool,
}

impl OpLog {
    /// A log for a window of `slices` slices holding at most `capacity`
    /// operations.
    pub fn new(slices: usize, capacity: usize) -> OpLog {
        OpLog {
            // Written, not just reserved: zeroed pages would stay unmapped
            // until used and the resident set would grow with the op count.
            durs_ns: vec![u32::MAX; capacity],
            used: 0,
            first: vec![0; slices + 1],
            samples: vec![0; slices],
            current: 0,
            overflowed: false,
        }
    }

    /// Records an operation of `samples` inferences that completed
    /// `end_ns` after the window opened and took `dur_ns`. Operations
    /// completing after the last slice are ignored.
    pub fn record(&mut self, end_ns: u64, dur_ns: u64, samples: u64) {
        let slice = (end_ns / SLICE_NS) as usize;
        if slice >= self.samples.len() {
            return;
        }
        while self.current < slice {
            self.current += 1;
            self.first[self.current] = self.used;
        }
        self.samples[slice] += samples;
        if self.used < self.durs_ns.len() {
            self.durs_ns[self.used] = dur_ns.min(u32::MAX as u64) as u32;
            self.used += 1;
        } else {
            self.overflowed = true;
        }
    }

    /// Closes the log: slices after the last operation become empty.
    pub fn finish(&mut self) {
        for k in self.current + 1..self.first.len() {
            self.first[k] = self.used;
        }
        self.current = self.first.len() - 1;
    }

    /// Whether the duration buffer filled up (later operations were
    /// counted but their latencies dropped).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    fn slice_durs(&self, k: usize) -> &[u32] {
        &self.durs_ns[self.first[k]..self.first[k + 1]]
    }
}

/// What a window measured, under both estimators.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Rate of the slice at the top [`QUIET`] quantile, inferences per
    /// second.
    pub samples_per_s: f64,
    /// Per-slice median latency at the bottom [`QUIET`] quantile, µs.
    pub latency_p50_us: f64,
    /// p99 latency over the quietest slices' pooled operations, µs.
    pub latency_p99_us: f64,
    /// Whole-window mean rate.
    pub mean_samples_per_s: f64,
    /// Whole-window p99 latency, µs.
    pub whole_p99_us: f64,
    /// Interquartile range of the slice rates over their median.
    pub slice_spread: f64,
    /// Slices in the window.
    pub slices: usize,
    /// Operations whose latency was kept.
    pub ops: usize,
}

impl WindowSummary {
    /// The summary as end-to-end and `run.*` metrics; `buffer_full` says
    /// whether a log dropped latencies.
    pub fn metrics(&self, buffer_full: bool) -> Vec<(String, f64)> {
        vec![
            ("samples_per_s".to_string(), self.samples_per_s),
            ("latency_p50_us".into(), self.latency_p50_us),
            ("latency_p99_us".into(), self.latency_p99_us),
            ("run.mean_samples_per_s".into(), self.mean_samples_per_s),
            ("run.whole_p99_us".into(), self.whole_p99_us),
            ("run.slice_spread".into(), self.slice_spread),
            ("run.slices".into(), self.slices as f64),
            (
                "run.latency_buffer_full".into(),
                f64::from(u8::from(buffer_full)),
            ),
        ]
    }
}

/// Summarises finished logs (one per load-generator thread) that share
/// one window.
pub fn summarize(logs: &[OpLog]) -> WindowSummary {
    let slices = logs.first().map_or(0, |l| l.samples.len());
    let slice_s = SLICE_NS as f64 / 1e9;
    let mut rates = Vec::with_capacity(slices);
    let mut p50s = Vec::with_capacity(slices);
    let mut all: Vec<f64> = Vec::new();
    let mut per_slice: Vec<Vec<f64>> = Vec::with_capacity(slices);
    for k in 0..slices {
        let samples: u64 = logs.iter().map(|l| l.samples[k]).sum();
        rates.push(samples as f64 / slice_s);
        let mut durs: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.slice_durs(k).iter().map(|&d| d as f64 / 1e3))
            .collect();
        durs.sort_by(f64::total_cmp);
        if !durs.is_empty() {
            p50s.push(quantile(&durs, 0.5));
        }
        all.extend_from_slice(&durs);
        per_slice.push(durs);
    }
    // Pool the slices with the lowest own p99 until the pool's p99 has ten
    // samples beyond it.
    let ops = all.len();
    per_slice.retain(|durs| !durs.is_empty());
    per_slice.sort_by(|a, b| quantile(a, 0.99).total_cmp(&quantile(b, 0.99)));
    let mut quiet_pool: Vec<f64> = Vec::new();
    for durs in &per_slice {
        quiet_pool.extend_from_slice(durs);
        if quiet_pool.len() >= P99_MIN_OPS {
            break;
        }
    }
    let total_samples: u64 = logs.iter().flat_map(|l| l.samples.iter()).sum();
    let whole_p99_us = quantile_of(&mut all, 0.99);
    rates.sort_by(f64::total_cmp);
    let median_rate = quantile(&rates, 0.5);
    WindowSummary {
        samples_per_s: quantile(&rates, 1.0 - QUIET),
        latency_p50_us: quantile_of(&mut p50s, QUIET),
        latency_p99_us: quantile_of(&mut quiet_pool, 0.99),
        mean_samples_per_s: total_samples as f64 / (slices as f64 * slice_s).max(f64::MIN_POSITIVE),
        whole_p99_us,
        slice_spread: if median_rate > 0.0 {
            (quantile(&rates, 0.75) - quantile(&rates, 0.25)) / median_rate
        } else {
            0.0
        },
        slices,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.125), 15.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median_of(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    /// Twenty slices; every slice serves 2 000 one-sample operations of
    /// 100 µs except four "noisy neighbour" slices that serve half as many
    /// at twice the latency.
    fn noisy_log() -> OpLog {
        let mut log = OpLog::new(20, 100_000);
        for k in 0..20u64 {
            let noisy = k % 5 == 2;
            let (ops, dur) = if noisy {
                (1000, 200_000)
            } else {
                (2000, 100_000)
            };
            for i in 0..ops {
                let end = k * SLICE_NS + (i + 1) * (SLICE_NS / (ops + 1));
                log.record(end, dur, 1);
            }
        }
        log.finish();
        log
    }

    #[test]
    fn quiet_slices_set_the_reported_figures() {
        let s = summarize(&[noisy_log()]);
        assert_eq!(s.slices, 20);
        assert_eq!(s.ops, 16 * 2000 + 4 * 1000);
        // The quiet slices decide the headline numbers ...
        assert_eq!(s.samples_per_s, 8000.0);
        assert_eq!(s.latency_p50_us, 100.0);
        assert_eq!(s.latency_p99_us, 100.0);
        // ... and the whole-run ones still see the noise.
        assert_eq!(s.mean_samples_per_s, 36_000.0 / 5.0);
        assert_eq!(s.whole_p99_us, 200.0);
    }

    #[test]
    fn sparse_windows_pool_quiet_slices_for_p99() {
        // 100 operations per slice: the p99 pool needs ten slices.
        let mut log = OpLog::new(20, 10_000);
        for k in 0..20u64 {
            for i in 0..100u64 {
                // One 1 ms outlier per slice in the second half only.
                let dur = if k >= 10 && i == 0 { 1_000_000 } else { 50_000 };
                log.record(k * SLICE_NS + i * 1000, dur, 64);
            }
        }
        log.finish();
        let s = summarize(&[log]);
        // The ten slices without an outlier are the quietest: they are
        // the pool.
        assert_eq!(s.latency_p99_us, 50.0);
        assert_eq!(s.latency_p50_us, 50.0);
        assert_eq!(s.samples_per_s, 100.0 * 64.0 * 4.0);
    }

    #[test]
    fn logs_of_several_threads_merge_per_slice() {
        let mut a = OpLog::new(2, 10);
        let mut b = OpLog::new(2, 10);
        a.record(10, 1000, 1);
        b.record(20, 3000, 1);
        b.record(SLICE_NS + 5, 5000, 2);
        // Past the window: ignored.
        a.record(2 * SLICE_NS, 9000, 1);
        a.finish();
        b.finish();
        let s = summarize(&[a, b]);
        assert_eq!(s.ops, 3);
        assert_eq!(s.mean_samples_per_s, 4.0 / 0.5);
        assert_eq!(s.latency_p50_us, 2.0 + (5.0 - 2.0) * QUIET);
    }

    #[test]
    fn a_full_buffer_keeps_counting_and_says_so() {
        let mut log = OpLog::new(1, 2);
        for i in 0..5 {
            log.record(i, 100, 1);
        }
        log.finish();
        assert!(log.overflowed());
        let s = summarize(&[log]);
        assert_eq!(s.ops, 2);
        assert_eq!(s.mean_samples_per_s, 5.0 / 0.25);
    }
}
