//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * two-pole vs. higher-order (AWE) reduced models vs. the exact
//!   inverse-Laplace oracle — accuracy audited, cost measured;
//! * analytic-residual Newton vs. fully finite-difference objective
//!   minimization;
//! * RLC-ladder section count (simulator fidelity knob).

use std::hint::black_box;

use rlckit::optimizer::{optimize_rlc, optimize_rlc_direct, segment_structure, OptimizerOptions};
use rlckit_bench::timer::{BenchOptions, Harness};
use rlckit_spice::builders::{rlc_ladder, LadderLine};
use rlckit_spice::transient::{simulate, TransientOptions};
use rlckit_spice::waveform::Waveform;
use rlckit_spice::Circuit;
use rlckit_tech::TechNode;
use rlckit_tline::awe::ReducedModel;
use rlckit_tline::exact::exact_delay;
use rlckit_tline::LineRlc;
use rlckit_units::{HenriesPerMeter, Meters};

fn dil_100(l_nh: f64) -> rlckit_tline::DriverInterconnectLoad {
    let node = TechNode::nm100();
    let line = LineRlc::new(
        node.line().resistance,
        HenriesPerMeter::from_nano_per_milli(l_nh),
        node.line().capacitance,
    );
    segment_structure(&line, &node.driver(), Meters::from_milli(11.1), 528.0)
}

fn bench_model_order(h: &mut Harness) {
    let dil = dil_100(1.5);
    // Accuracy audit against the exact oracle.
    let exact = exact_delay(&dil, 0.5).expect("oracle").get();
    let two_pole = dil.two_pole().delay(0.5).expect("two-pole").get();
    let err2 = (two_pole - exact).abs() / exact;
    assert!(err2 < 0.15, "two-pole error {err2}");

    h.bench("model_two_pole_delay", || {
        black_box(dil.two_pole().delay(0.5).expect("delay"))
    });
    h.bench("model_awe_order2_delay", || {
        let model = ReducedModel::from_structure(&dil, 2).expect("stable at order 2");
        black_box(model.delay(0.5).expect("delay"))
    });
    h.bench_with("model_exact_ilt_delay", &BenchOptions::with_samples(20), || {
        black_box(exact_delay(&dil, 0.5).expect("oracle"))
    });
}

fn bench_newton_vs_derivative_free(h: &mut Harness) {
    let node = TechNode::nm250();
    let line = LineRlc::new(
        node.line().resistance,
        HenriesPerMeter::from_nano_per_milli(1.5),
        node.line().capacitance,
    );
    h.bench("optimizer_analytic_newton", || {
        black_box(optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).expect("opt"))
    });
    h.bench("optimizer_derivative_free", || {
        black_box(
            optimize_rlc_direct(&line, &node.driver(), OptimizerOptions::default()).expect("opt"),
        )
    });
}

fn ladder_step_response(segments: usize) -> f64 {
    let mut ckt = Circuit::new();
    let src = ckt.add_node("src");
    let drv = ckt.add_node("drv");
    let far = ckt.add_node("far");
    ckt.voltage_source(src, Circuit::GROUND, Waveform::step(0.0, 1.2, 10e-12, 1e-12));
    ckt.resistor(src, drv, 14.3);
    rlc_ladder(
        &mut ckt,
        drv,
        far,
        LadderLine {
            r_per_m: 4400.0,
            l_per_m: 1.8e-6,
            c_per_m: 123.33e-12,
        },
        Meters::from_milli(11.1),
        segments,
    );
    ckt.capacitor(far, Circuit::GROUND, 400e-15);
    let res = simulate(&ckt, &TransientOptions::new(1e-9, 1e-12)).expect("transient");
    *res.voltage(far).last().expect("samples")
}

fn bench_ladder_fidelity(h: &mut Harness) {
    let opts = BenchOptions::with_samples(15);
    for segments in [4usize, 8, 16, 32] {
        h.bench_with(&format!("ladder_segments_{segments}"), &opts, || {
            black_box(ladder_step_response(segments))
        });
    }
}

fn main() {
    let mut h = Harness::from_args("ablation");
    bench_model_order(&mut h);
    bench_newton_vs_derivative_free(&mut h);
    bench_ladder_fidelity(&mut h);
    h.finish();
}
