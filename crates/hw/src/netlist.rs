//! Stage-structured netlists and the timing / area / power roll-up.

use crate::calib::Calib;
use crate::component::{Component, Kind};
use std::fmt;

/// One pipeline stage: a serial critical path plus off-path components.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage name (mirrors the paper figures' stage boundaries).
    pub name: String,
    /// Components chained on the stage's critical path.
    pub path: Vec<Component>,
    /// Components in parallel branches (area/energy, not timing).
    pub side: Vec<Component>,
}

impl Stage {
    /// Creates a stage from its critical path and side components.
    pub fn new(name: &str, path: Vec<Component>, side: Vec<Component>) -> Self {
        Stage {
            name: name.into(),
            path,
            side,
        }
    }

    /// Critical-path combinational delay (ns).
    pub fn delay_ns(&self) -> f64 {
        self.path.iter().map(|c| c.delay_ns).sum()
    }

    fn all(&self) -> impl Iterator<Item = &Component> {
        self.path.iter().chain(self.side.iter())
    }
}

/// A complete EMAC datapath model: pipeline stages + roll-up queries.
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Unit name, e.g. `"posit<8,0> EMAC"`.
    pub name: String,
    /// Input width n (for sweep labelling).
    pub n: u32,
    /// Dynamic range of the input format, `log10(max/min)`.
    pub dynamic_range_log10: f64,
    /// Pipeline stages in dataflow order.
    pub stages: Vec<Stage>,
    /// Leading stages that stream one MAC/cycle (they set Fmax); the
    /// remaining readout stages are multi-cycle paths.
    streaming: usize,
    calib: Calib,
}

impl Netlist {
    /// Assembles a netlist from stages (all streaming by default).
    pub fn new(
        name: String,
        n: u32,
        dynamic_range_log10: f64,
        stages: Vec<Stage>,
        calib: Calib,
    ) -> Self {
        let streaming = stages.len();
        Netlist {
            name,
            n,
            dynamic_range_log10,
            stages,
            streaming,
            calib,
        }
    }

    /// Marks the first `m` stages as streaming (timing-critical); later
    /// stages — the once-per-dot-product readout — become multi-cycle
    /// paths, the standard timing-closure treatment for them.
    pub fn with_streaming_stages(mut self, m: usize) -> Self {
        self.streaming = m.clamp(1, self.stages.len());
        self
    }

    /// The calibration this netlist was built with.
    pub fn calib(&self) -> &Calib {
        &self.calib
    }

    /// Total LUT count (paper Fig. 8's metric).
    pub fn luts(&self) -> u32 {
        self.stages
            .iter()
            .flat_map(|s| s.all())
            .map(|c| c.luts)
            .sum()
    }

    /// Total flip-flop count.
    pub fn ffs(&self) -> u32 {
        self.stages
            .iter()
            .flat_map(|s| s.all())
            .map(|c| c.ffs)
            .sum()
    }

    /// Total DSP48 count.
    pub fn dsps(&self) -> u32 {
        self.stages
            .iter()
            .flat_map(|s| s.all())
            .map(|c| c.dsps)
            .sum()
    }

    /// Slowest *streaming* stage's combinational delay (ns).
    pub fn critical_path_ns(&self) -> f64 {
        self.stages[..self.streaming]
            .iter()
            .map(|s| s.delay_ns())
            .fold(0.0, f64::max)
    }

    /// Maximum operating frequency (Hz): slowest streaming stage + register
    /// overhead + clock uncertainty (paper Fig. 6's metric).
    pub fn fmax_hz(&self) -> f64 {
        let t = self.critical_path_ns() + self.calib.t_ff_ns + self.calib.t_clk_uncert_ns;
        1e9 / t
    }

    /// Pipeline depth in cycles: one per streaming stage plus however many
    /// clock periods each multi-cycle readout stage needs.
    pub fn pipeline_depth(&self) -> u32 {
        let period = 1e9 / self.fmax_hz();
        let readout: u32 = self.stages[self.streaming..]
            .iter()
            .map(|s| (s.delay_ns() / period).ceil().max(1.0) as u32)
            .sum();
        self.streaming as u32 + readout
    }

    /// Switching energy of one MAC issue (pJ): streaming stages toggle every
    /// cycle; the readout stages fire once per dot product and are
    /// amortized over `k` by [`Netlist::dot_energy_pj`].
    pub fn energy_per_mac_pj(&self) -> f64 {
        let act = self.calib.activity;
        self.stages[..self.streaming]
            .iter()
            .flat_map(|s| s.all())
            .map(|c| c.energy_pj)
            .sum::<f64>()
            * act
    }

    /// Energy of the readout (rounding/encode) stages (pJ).
    pub fn round_energy_pj(&self) -> f64 {
        let act = self.calib.activity;
        self.stages[self.streaming..]
            .iter()
            .flat_map(|s| s.all())
            .map(|c| c.energy_pj)
            .sum::<f64>()
            * act
    }

    /// Wall-clock latency of a `k`-MAC dot product (ns): `k` issues plus
    /// pipeline drain at Fmax.
    pub fn dot_latency_ns(&self, k: u64) -> f64 {
        (k as f64 + self.pipeline_depth() as f64) * 1e9 / self.fmax_hz()
    }

    /// Total switching energy of a `k`-MAC dot product (pJ).
    pub fn dot_energy_pj(&self, k: u64) -> f64 {
        k as f64 * self.energy_per_mac_pj() + self.round_energy_pj()
    }

    /// Energy-delay product of a `k`-MAC dot product (J·s) — paper Fig. 7's
    /// metric (relative scale; see README.md's crate map on absolute units).
    pub fn edp(&self, k: u64) -> f64 {
        (self.dot_energy_pj(k) * 1e-12) * (self.dot_latency_ns(k) * 1e-9)
    }

    /// Average dynamic power at Fmax while streaming (W).
    pub fn dynamic_power_w(&self) -> f64 {
        self.energy_per_mac_pj() * 1e-12 * self.fmax_hz()
    }

    /// Per-kind LUT breakdown, for netlist dumps and ablations.
    pub fn luts_by_kind(&self) -> Vec<(Kind, u32)> {
        let mut acc: Vec<(Kind, u32)> = Vec::new();
        for c in self.stages.iter().flat_map(|s| s.all()) {
            match acc.iter_mut().find(|(k, _)| *k == c.kind) {
                Some((_, v)) => *v += c.luts,
                None => acc.push((c.kind, c.luts)),
            }
        }
        acc
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} LUTs, {} FFs, {} DSPs, Fmax {:.1} MHz",
            self.name,
            self.luts(),
            self.ffs(),
            self.dsps(),
            self.fmax_hz() / 1e6
        )?;
        for s in &self.stages {
            writeln!(f, "  stage {:<18} {:.2} ns", s.name, s.delay_ns())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_netlist() -> Netlist {
        let c = Calib::default();
        let s1 = Stage::new(
            "mult",
            vec![Component::multiplier(&c, "m", 8, 8)],
            vec![Component::register(&c, "r", 16)],
        );
        let s2 = Stage::new(
            "acc",
            vec![Component::adder(&c, "a", 24)],
            vec![Component::register(&c, "r", 24)],
        );
        let s3 = Stage::new("round", vec![Component::comparator(&c, "clip", 8)], vec![]);
        Netlist::new("test".into(), 8, 4.0, vec![s1, s2, s3], c).with_streaming_stages(2)
    }

    #[test]
    fn rollups() {
        let n = simple_netlist();
        assert_eq!(n.dsps(), 1);
        assert_eq!(n.ffs(), 40);
        assert_eq!(n.luts(), 24 + 8);
        assert_eq!(n.pipeline_depth(), 3);
        // DSP stage dominates timing here.
        assert!((n.critical_path_ns() - 2.8).abs() < 1e-9);
        let expected_fmax = 1e9 / (2.8 + 0.6 + 0.2);
        assert!((n.fmax_hz() - expected_fmax).abs() < 1.0);
    }

    #[test]
    fn energy_split_between_stream_and_round() {
        let n = simple_netlist();
        assert!(n.energy_per_mac_pj() > 0.0);
        assert!(n.round_energy_pj() > 0.0);
        let e1 = n.dot_energy_pj(1);
        let e100 = n.dot_energy_pj(100);
        assert!(e100 > 50.0 * e1 / 2.0, "scales with k");
    }

    #[test]
    fn edp_monotone_in_k() {
        let n = simple_netlist();
        assert!(n.edp(10) < n.edp(100));
        assert!(n.edp(100) > 0.0);
    }

    #[test]
    fn display_contains_stage_names() {
        let s = simple_netlist().to_string();
        assert!(s.contains("mult") && s.contains("Fmax"));
    }

    #[test]
    fn luts_by_kind_accumulates() {
        let n = simple_netlist();
        let by = n.luts_by_kind();
        let total: u32 = by.iter().map(|(_, v)| v).sum();
        assert_eq!(total, n.luts());
    }
}
