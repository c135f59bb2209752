//! Benchmarks the circuit-simulator substrate: transient cost of the
//! structures behind Figs. 9–12 (RLC ladder steps, ring-oscillator
//! revolution) and the sparse-LU kernel underneath.

use std::hint::black_box;

use rlckit_bench::timer::{BenchOptions, Harness};
use rlckit_numeric::sparse::SparseMatrix;
use rlckit_spice::builders::{ring_oscillator, rlc_ladder, LadderLine};
use rlckit_spice::transient::{simulate, TransientOptions};
use rlckit_spice::waveform::Waveform;
use rlckit_spice::Circuit;
use rlckit_tech::TechNode;
use rlckit_units::Meters;

fn bench_ladder_transient(h: &mut Harness) {
    let opts = BenchOptions::with_samples(20);
    for segments in [8usize, 32] {
        h.bench_with(&format!("ladder_transient_{segments}"), &opts, || {
            let mut ckt = Circuit::new();
            let src = ckt.add_node("src");
            let drv = ckt.add_node("drv");
            let far = ckt.add_node("far");
            ckt.voltage_source(
                src,
                Circuit::GROUND,
                Waveform::step(0.0, 1.2, 10e-12, 1e-12),
            );
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
            black_box(simulate(&ckt, &TransientOptions::new(1e-9, 1e-12)).expect("transient"))
        });
    }
}

fn bench_ring_oscillator_revolution(h: &mut Harness) {
    let node = TechNode::nm100();
    let ro = ring_oscillator(&node, 1.8e-6, 528.0, Meters::from_milli(11.1), 5, 8);
    let period0 = 2.0 * 5.0 * 105.94e-12;
    let opts = TransientOptions::new(period0, period0 / 600.0)
        .with_initial_voltage(ro.stage_inputs[0], 0.0);
    h.bench_with(
        "ring_oscillator_one_revolution",
        &BenchOptions::with_samples(10),
        || black_box(simulate(&ro.circuit, &opts).expect("transient")),
    );
}

fn bench_sparse_lu_kernel(h: &mut Harness) {
    // The inner kernel: factor + solve of an MNA-shaped matrix.
    let n = 200;
    let mut a = SparseMatrix::new(n);
    for i in 0..n {
        a.add(i, i, 4.0);
        if i + 1 < n {
            a.add(i, i + 1, -1.0);
            a.add(i + 1, i, -1.0);
        }
    }
    a.add(0, n - 1, -0.5);
    a.add(n - 1, 0, -0.5);
    let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    h.bench("sparse_lu_200", || {
        let lu = a.lu().expect("factor");
        black_box(lu.solve(&rhs).expect("solve"))
    });
}

fn main() {
    let mut h = Harness::from_args("spice");
    bench_ladder_transient(&mut h);
    bench_ring_oscillator_revolution(&mut h);
    bench_sparse_lu_kernel(&mut h);
    h.finish();
}
