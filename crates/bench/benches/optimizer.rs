//! Benchmarks the repeater-insertion optimizer (paper §2.2) — the Newton
//! solve of the stationarity system that the paper reports converging
//! "in less than six iterations in all cases", against the
//! derivative-free Nelder–Mead reference.

use std::hint::black_box;

use rlckit::optimizer::{optimize_rlc, optimize_rlc_direct, OptimizerOptions};
use rlckit_bench::timer::{BenchOptions, Harness};
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::HenriesPerMeter;

fn line_for(node: &TechNode, l_nh: f64) -> LineRlc {
    LineRlc::new(
        node.line().resistance,
        HenriesPerMeter::from_nano_per_milli(l_nh),
        node.line().capacitance,
    )
}

fn bench_newton_vs_direct(h: &mut Harness) {
    let node = TechNode::nm100();
    for l in [0.0, 1.0, 3.0] {
        let line = line_for(&node, l);
        h.bench(&format!("newton_l{l}"), || {
            black_box(
                optimize_rlc(&line, &node.driver(), OptimizerOptions::default())
                    .expect("optimum"),
            )
        });
        h.bench(&format!("nelder_mead_l{l}"), || {
            black_box(
                optimize_rlc_direct(&line, &node.driver(), OptimizerOptions::default())
                    .expect("optimum"),
            )
        });
    }
}

fn bench_iteration_claim(h: &mut Harness) {
    // The paper's ≤6-iterations claim across the full sweep (6 is also
    // the measured maximum at 250 nm).
    let node = TechNode::nm250();
    for i in 0..25 {
        let l = 4.95 * i as f64 / 24.0;
        let opt = optimize_rlc(&line_for(&node, l), &node.driver(), OptimizerOptions::default())
            .expect("optimum");
        assert!(!opt.used_fallback, "fallback at l={l}");
        assert!(opt.iterations <= 6, "l={l}: {} iterations", opt.iterations);
    }
    let line = line_for(&node, 2.0);
    h.bench_profiled(
        "single_point_250nm",
        &BenchOptions::default(),
        || {
            black_box(
                optimize_rlc(&line, &node.driver(), OptimizerOptions::default())
                    .expect("optimum"),
            )
        },
        |delta| {
            let solves = delta.counter("optimizer.solves").max(1) as f64;
            vec![
                (
                    "newton_iterations_per_solve".to_string(),
                    delta.histograms["optimizer.newton.iterations"].mean(),
                ),
                (
                    "delay_iterations_per_solve".to_string(),
                    delta.histograms["twopole.delay.iterations"].mean(),
                ),
                (
                    "fallbacks_per_solve".to_string(),
                    delta.counter("optimizer.fallbacks") as f64 / solves,
                ),
                (
                    "delay_solves_per_solve".to_string(),
                    delta.counter("twopole.delay.solves") as f64 / solves,
                ),
            ]
        },
    );
}

fn main() {
    let mut h = Harness::from_args("optimizer");
    bench_newton_vs_direct(&mut h);
    bench_iteration_claim(&mut h);
    h.finish();
}
