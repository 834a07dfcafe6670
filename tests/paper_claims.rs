//! The paper's qualitative claims, asserted against this reproduction
//! (the artifacts README.md's quick start lists, as shape checks for each
//! table/figure).
//!
//! These tests pin the *shape* of every result — who wins, where, by
//! roughly how much — not the absolute numbers (our substrate is an
//! analytical FPGA model and synthetic UCI stand-ins; see README.md's crate
//! map).

use deep_positron::experiments::{best_config_on, paper_tasks};
use dp_hw::{emac_netlist, paper_grid, report, representative, Calib, Family, FormatSpec};
use dp_posit::PositFormat;

const K: u64 = 128;

fn calib() -> Calib {
    Calib::default()
}

/// Table I: the regime run-length code.
#[test]
fn table1_regime_interpretation() {
    let f = PositFormat::new(6, 0).unwrap();
    let expect = [
        (0b0_00010u32, -3),
        (0b0_00100, -2),
        (0b0_01000, -1),
        (0b0_10000, 0),
        (0b0_11000, 1),
        (0b0_11100, 2),
    ];
    for (bits, k) in expect {
        assert_eq!(dp_posit::decode::regime(f, bits), Some(k), "{bits:#b}");
    }
}

/// Fig. 2a: 7-bit posit values cluster in [-1, 1].
#[test]
fn fig2_posit7_clusters_in_unit_range() {
    let f = PositFormat::new(7, 0).unwrap();
    let total = f.reals().count();
    let inside = f
        .reals()
        .filter(|&b| dp_posit::convert::to_f64(f, b).abs() <= 1.0)
        .count();
    assert!(
        inside * 2 > total,
        "{inside}/{total} posit<7,0> values in [-1,1]"
    );
}

/// Fig. 6: the fixed-point EMAC achieves the lowest datapath latency
/// (highest Fmax) — "as expected ... it has no exponential parameter,
/// thus a narrower accumulator".
#[test]
fn fig6_fixed_point_has_highest_fmax() {
    for n in 5..=8u32 {
        let grid = paper_grid(n);
        let fixed_fmax = grid
            .iter()
            .filter(|s| s.family() == Family::Fixed)
            .map(|&s| report(s, K, calib()).fmax_hz)
            .fold(0.0, f64::max);
        for spec in grid.iter().filter(|s| s.family() != Family::Fixed) {
            let f = report(*spec, K, calib()).fmax_hz;
            assert!(
                fixed_fmax > f,
                "n={n}: fixed {fixed_fmax:.2e} vs {} {f:.2e}",
                spec.label()
            );
        }
    }
}

/// Fig. 6: "In general, the posit EMAC can operate at a higher frequency
/// for a given dynamic range than the floating point EMAC": for every
/// float configuration there is a posit configuration of the same width
/// with at least that dynamic range and at least that Fmax.
#[test]
fn fig6_posit_dominates_float_at_matched_dynamic_range() {
    for n in 5..=8u32 {
        let grid = paper_grid(n);
        let posits: Vec<(f64, f64)> = grid
            .iter()
            .filter(|s| s.family() == Family::Posit)
            .map(|&s| {
                let r = report(s, K, calib());
                (r.dynamic_range_log10, r.fmax_hz)
            })
            .collect();
        for spec in grid.iter().filter(|s| s.family() == Family::Float) {
            let rf = report(*spec, K, calib());
            let dominated = posits
                .iter()
                .any(|&(dr, fmax)| dr >= rf.dynamic_range_log10 && fmax >= rf.fmax_hz);
            assert!(
                dominated,
                "n={n}: no posit dominates {} (DR {:.2}, {:.1} MHz)",
                spec.label(),
                rf.dynamic_range_log10,
                rf.fmax_hz / 1e6
            );
        }
    }
}

/// §IV-A: "At lower values of n ≤ 7, the posit number system has higher
/// dynamic range" than float at the same width (comparing the maxima of
/// the swept configurations).
#[test]
fn posit_has_higher_dynamic_range_at_low_n() {
    for n in 5..=7u32 {
        let grid = paper_grid(n);
        let max_dr = |fam: Family| {
            grid.iter()
                .filter(|s| s.family() == fam)
                .map(|s| s.dynamic_range_log10())
                .fold(0.0, f64::max)
        };
        assert!(
            max_dr(Family::Posit) > max_dr(Family::Float),
            "n={n}: posit {} vs float {}",
            max_dr(Family::Posit),
            max_dr(Family::Float)
        );
    }
}

/// Fig. 7: fixed point has the lowest EDP at every width; float and posit
/// EDPs are within an order of magnitude of each other ("the EDPs of the
/// floating point and posit EMACs are similar").
#[test]
fn fig7_edp_ordering() {
    for n in 5..=8u32 {
        let edp = |fam: Family| report(representative(n, fam), K, calib()).edp;
        let (fx, fl, po) = (edp(Family::Fixed), edp(Family::Float), edp(Family::Posit));
        assert!(
            fx < fl && fx < po,
            "n={n}: fixed {fx:.2e} fl {fl:.2e} po {po:.2e}"
        );
        let ratio = (fl / po).max(po / fl);
        assert!(ratio < 10.0, "n={n}: float/posit EDP ratio {ratio}");
    }
}

/// Fig. 8: posit generally consumes the most LUTs, float is second, fixed
/// is by far the smallest.
#[test]
fn fig8_lut_ordering() {
    for n in 5..=8u32 {
        let luts = |fam: Family| emac_netlist(representative(n, fam), K, calib()).luts();
        let (fx, fl, po) = (
            luts(Family::Fixed),
            luts(Family::Float),
            luts(Family::Posit),
        );
        assert!(po > fl, "n={n}: posit {po} vs float {fl}");
        assert!(fl > fx, "n={n}: float {fl} vs fixed {fx}");
        assert!(fx * 3 < po, "n={n}: fixed should be several times smaller");
    }
}

/// Fmax values land in the paper's Fig. 6 axis range (~1e8 Hz).
#[test]
fn fmax_magnitudes_are_paper_scale() {
    for n in 5..=8u32 {
        for spec in paper_grid(n) {
            let f = report(spec, K, calib()).fmax_hz;
            assert!(
                (5e7..5e8).contains(&f),
                "{}: {:.1} MHz",
                spec.label(),
                f / 1e6
            );
        }
    }
}

/// Table II shape on the quick schedule: 8-bit posit matches or beats the
/// other 8-bit formats (within noise) and stays close to the 32-bit float
/// baseline; the paper's fixed-point configuration trails.
#[test]
fn table2_accuracy_ordering_quick() {
    let tasks = paper_tasks(true, 42);
    // Subsample Mushroom's test set: debug-build EMAC inference over
    // 8 configs × 2708 samples × 117 inputs is needlessly slow for a
    // shape check.
    let limit = 350;
    let mut posit_total = 0.0;
    let mut float_total = 0.0;
    let mut fixed_total = 0.0;
    let mut f32_total = 0.0;
    for task in &tasks {
        let p = best_config_on(task, Family::Posit, 8, limit);
        let fl = best_config_on(task, Family::Float, 8, limit);
        let fx = best_config_on(task, Family::Fixed, 8, limit);
        posit_total += p.accuracy;
        float_total += fl.accuracy;
        fixed_total += fx.accuracy;
        f32_total += task.f32_test_accuracy;
        assert!(
            p.accuracy >= fx.accuracy - 0.01,
            "{}: posit {} vs fixed {}",
            task.name,
            p.accuracy,
            fx.accuracy
        );
    }
    // Averaged over the three datasets: posit ≥ float − noise, and both
    // track the f32 baseline; fixed (Q1.7) trails by several points.
    assert!(
        posit_total >= float_total - 0.03,
        "posit {posit_total} vs float {float_total}"
    );
    assert!(
        posit_total >= f32_total - 0.05,
        "posit {posit_total} vs f32 {f32_total}"
    );
    assert!(
        posit_total > fixed_total + 0.05,
        "posit {posit_total} vs fixed {fixed_total}"
    );
}

/// §IV-B: "the best performance drops sub 8-bit by [0-4.21]% compared to
/// 32-bit floating-point" — on Iris, the best posit config at n ∈ {6,7}
/// stays within a few points of f32.
#[test]
fn sub_8bit_degradation_is_bounded_on_iris() {
    let tasks = paper_tasks(true, 42);
    let iris = &tasks[1];
    for n in [6u32, 7] {
        let best = best_config_on(iris, Family::Posit, n, usize::MAX);
        assert!(
            best.accuracy >= iris.f32_test_accuracy - 0.08,
            "n={n}: posit {} vs f32 {}",
            best.accuracy,
            iris.f32_test_accuracy
        );
    }
}

/// Paper eq. (4) / §III-D: the posit quire width for the paper's headline
/// configuration.
#[test]
fn quire_width_headline_configuration() {
    // p8e0, k=128 products: 2^2·6 + 2 + 7 = 33 bits.
    let p8e0 = PositFormat::new(8, 0).unwrap();
    assert_eq!(
        <dp_emac::Posit as dp_emac::Family>::accumulator_width_for(p8e0, 128),
        33
    );
}

/// The representative sweep labels match the families they claim.
#[test]
fn representative_specs_are_well_formed() {
    for n in 5..=8u32 {
        assert!(matches!(
            representative(n, Family::Posit),
            FormatSpec::Posit(_)
        ));
        assert!(matches!(
            representative(n, Family::Float),
            FormatSpec::Float(_)
        ));
        assert!(matches!(
            representative(n, Family::Fixed),
            FormatSpec::Fixed(_)
        ));
    }
}
