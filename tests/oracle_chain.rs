//! The oracle chain: exact transfer function → numerical inverse Laplace
//! → reduced models. Each stage validates the next across a grid of
//! configurations spanning the damping regimes.

use rlckit::optimizer::segment_structure;
use rlckit_numeric::Complex;
use rlckit_tech::TechNode;
use rlckit_tline::awe::ReducedModel;
use rlckit_tline::exact::{exact_delay, step_response_at, step_response_grid};
use rlckit_tline::LineRlc;
use rlckit_units::{HenriesPerMeter, Meters, Seconds};

fn dil_grid() -> Vec<rlckit_tline::DriverInterconnectLoad> {
    let mut out = Vec::new();
    for node in TechNode::table1() {
        for l in [0.0, 1.0, 3.0] {
            for (h_mm, k) in [(8.0, 700.0), (14.0, 400.0)] {
                let line = LineRlc::new(
                    node.line().resistance,
                    HenriesPerMeter::from_nano_per_milli(l),
                    node.line().capacitance,
                );
                out.push(segment_structure(
                    &line,
                    &node.driver(),
                    Meters::from_milli(h_mm),
                    k,
                ));
            }
        }
    }
    out
}

#[test]
fn exact_response_settles_to_unity_everywhere() {
    for dil in dil_grid() {
        // The settling horizon is set by the envelope time constant
        // 2·b₂/b₁ for underdamped configurations, not by b₁ alone.
        let b1 = dil.b1();
        let envelope = 2.0 * dil.b2() / b1;
        let t_late = 12.0 * b1 + 14.0 * envelope;
        let late = step_response_at(&dil, Seconds::new(t_late)).expect("ilt");
        assert!((late - 1.0).abs() < 2e-3, "late value {late}");
    }
}

#[test]
fn two_pole_tracks_exact_delay_within_band() {
    for dil in dil_grid() {
        let exact = exact_delay(&dil, 0.5).expect("oracle").get();
        let reduced = dil.two_pole().delay(0.5).expect("two-pole").get();
        let err = (reduced - exact).abs() / exact;
        // Measured worst case on this grid: the two-pole delay is 13.0 %
        // short at 100 nm, l = 3 nH/mm, h = 14 mm, k = 400.
        assert!(
            err < 0.15,
            "two-pole off by {:.1}% at {dil:?}",
            err * 100.0
        );
    }
}

#[test]
fn awe_order_two_equals_two_pole_everywhere() {
    for dil in dil_grid() {
        let model = ReducedModel::from_structure(&dil, 2).expect("order 2 is always stable");
        let tp = dil.two_pole();
        for t_rel in [0.5, 1.5, 4.0] {
            let t = t_rel * dil.b1();
            assert!(
                (model.step_response(t) - tp.response(t)).abs() < 1e-8,
                "mismatch at t = {t_rel}·b1"
            );
        }
    }
}

#[test]
fn moments_match_exact_transfer_function_values() {
    // Low-frequency check: H(s) ≈ 1/(1 + b₁s + b₂s² + b₃s³) with the
    // automatically-expanded b₃.
    for dil in dil_grid() {
        let m = dil.moments(3);
        let s = Complex::new(0.0, 0.05 / m[1]);
        let exact = dil.transfer_function(s);
        let series = (Complex::ONE + s * m[1] + s * s * m[2] + s * s * s * m[3]).recip();
        assert!(
            (exact - series).abs() < 2e-4 * exact.abs(),
            "series mismatch: {exact} vs {series}"
        );
    }
}

#[test]
fn monotone_rise_to_first_crossing() {
    // The delay definition assumes the first crossing is on a monotone
    // rise; verify on the exact response, not just the reduction.
    for dil in dil_grid().into_iter().step_by(3) {
        let tau = exact_delay(&dil, 0.5).expect("oracle").get();
        let times: Vec<f64> = (1..=20).map(|i| tau * i as f64 / 20.0).collect();
        let vs = step_response_grid(&dil, &times).expect("grid");
        // The exact distributed response carries a wave-arrival staircase
        // (time-of-flight steps); "monotone" here means no dip beyond a
        // couple of percent of the swing before the crossing.
        for w in vs.windows(2) {
            assert!(w[1] >= w[0] - 0.02, "dip before crossing: {} -> {}", w[0], w[1]);
        }
    }
}

#[test]
fn delay_threshold_ordering_on_exact_response() {
    let dils = dil_grid();
    let dil = &dils[4];
    let d25 = exact_delay(dil, 0.25).expect("oracle").get();
    let d50 = exact_delay(dil, 0.50).expect("oracle").get();
    let d75 = exact_delay(dil, 0.75).expect("oracle").get();
    assert!(d25 < d50 && d50 < d75);
}
