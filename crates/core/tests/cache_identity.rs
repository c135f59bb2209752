//! Campaign-scale bit identity: the sweep engine and the guided
//! self-scheduler must not change a single bit of campaign output
//! against a hand-written scalar per-point reference — serial, at
//! multiple thread counts, and under armed fault injection.

use rlckit::elmore::rc_optimum;
use rlckit::optimizer::{optimize_rlc_with_retry, segment_delay, OptimizerOptions, RetryPolicy};
use rlckit::outcome::{run_point, Solved};
use rlckit::report::Table;
use rlckit::sweeps::{inductance_sweep_with, SweepPoint};
use rlckit_par::Parallelism;
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::HenriesPerMeter;

/// Seed that demonstrably injects into this grid at a 10 % rate
/// (asserted in `crates/core/tests/fault_tolerance.rs`).
const FAULT_SEED: u64 = 2001;

fn grid() -> Vec<HenriesPerMeter> {
    rlckit_numeric::grid::linspace(0.0, 4.95, 17)
        .into_iter()
        .map(HenriesPerMeter::from_nano_per_milli)
        .collect()
}

fn sweep(parallelism: Parallelism) -> Vec<SweepPoint> {
    let node = TechNode::nm100();
    inductance_sweep_with(
        &node.line(),
        &node.driver(),
        grid(),
        OptimizerOptions::default(),
        parallelism,
    )
    .expect("sweep must converge")
}

/// The same shape the fig bins emit: fixed-precision formatted rows.
/// Byte-equality of this string is the CSV contract the tier-1 gate
/// checks with `cmp` on the real result files.
fn campaign_csv(points: &[SweepPoint]) -> String {
    let mut table = Table::new(&["l (nH/mm)", "h_ratio", "k_ratio", "delay (s/m)"]);
    for p in points {
        table.row_values(
            &[
                p.inductance.to_nano_per_milli(),
                p.h_ratio,
                p.k_ratio,
                p.delay_per_length,
            ],
            6,
        );
    }
    table.to_csv()
}

/// The scalar sweep, replicated point by point from the public API —
/// exactly the computation the sweep engine must reproduce bit for
/// bit. Each point solves under the same index scope the engine uses,
/// so the replica also matches under armed fault injection.
fn scalar_sweep() -> Vec<SweepPoint> {
    let node = TechNode::nm100();
    let line = node.line();
    let driver = node.driver();
    let options = OptimizerOptions::default();
    let policy = RetryPolicy::default();
    let rc = rc_optimum(&line, &driver);
    grid()
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let rlc = LineRlc::new(line.resistance, l, line.capacitance);
            run_point(i as u64, &policy, || {
                let opt = optimize_rlc_with_retry(&rlc, &driver, options, &policy)?;
                let rc_design_delay = segment_delay(
                    &rlc,
                    &driver,
                    rc.segment_length,
                    rc.repeater_size,
                    options.threshold,
                )?;
                Ok(Solved {
                    value: SweepPoint {
                        inductance: rlc.inductance(),
                        h_opt: opt.segment_length.get(),
                        k_opt: opt.repeater_size,
                        delay_per_length: opt.delay_per_length(),
                        h_ratio: opt.segment_length.get() / rc.segment_length.get(),
                        k_ratio: opt.repeater_size / rc.repeater_size,
                        l_crit: opt.critical_inductance.get(),
                        damping: opt.damping,
                        rc_design_delay_per_length: rc_design_delay.get()
                            / rc.segment_length.get(),
                    },
                    restarts: opt.restarts,
                    degraded: opt.used_fallback,
                })
            })
            .into_result()
            .expect("scalar reference point must converge")
        })
        .collect()
}

/// Every `SweepPoint` field as raw bits (plus the damping regime), for
/// exact reference-vs-engine comparison beyond what the CSV rounds off.
fn full_bits(p: &SweepPoint) -> ([u64; 8], rlckit_tline::Damping) {
    (
        [
            p.inductance.get().to_bits(),
            p.h_opt.to_bits(),
            p.k_opt.to_bits(),
            p.delay_per_length.to_bits(),
            p.h_ratio.to_bits(),
            p.k_ratio.to_bits(),
            p.l_crit.to_bits(),
            p.rc_design_delay_per_length.to_bits(),
        ],
        p.damping,
    )
}

#[test]
fn sweep_is_bit_identical_to_the_scalar_reference() {
    let scalar = rlckit_fault::with_plan(None, scalar_sweep);
    let reference_csv = campaign_csv(&scalar);
    for (label, parallelism) in [
        ("serial", Parallelism::Serial),
        ("2 threads", Parallelism::Threads(2)),
        ("5 threads", Parallelism::Threads(5)),
    ] {
        let swept = rlckit_fault::with_plan(None, || sweep(parallelism));
        assert_eq!(scalar.len(), swept.len());
        for (i, (s, b)) in scalar.iter().zip(&swept).enumerate() {
            assert_eq!(
                full_bits(s),
                full_bits(b),
                "point {i} drifted from the scalar path ({label})"
            );
        }
        assert_eq!(
            reference_csv,
            campaign_csv(&swept),
            "campaign CSV drifted from the scalar path ({label})"
        );
    }
}

#[test]
fn sweep_matches_the_scalar_reference_under_armed_faults() {
    let ((scalar_csv, [swept_serial, swept_two, swept_five]), delta) = rlckit_trace::scoped(|| {
        rlckit_fault::with_plan(Some((FAULT_SEED, 0.10)), || {
            let swept = [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(5)];
            (campaign_csv(&scalar_sweep()), swept.map(|p| campaign_csv(&sweep(p))))
        })
    });

    assert!(
        delta.counters_ending_with(".injected_faults") > 0,
        "seed {FAULT_SEED} at 10 % must inject into this grid"
    );
    for (label, armed) in [
        ("serial", &swept_serial),
        ("2 threads", &swept_two),
        ("5 threads", &swept_five),
    ] {
        assert_eq!(
            &scalar_csv, armed,
            "armed sweep CSV drifted from the armed scalar path ({label})"
        );
    }
}

#[test]
fn campaign_csv_is_byte_identical_under_armed_faults() {
    let clean_csv = rlckit_fault::with_plan(None, || campaign_csv(&sweep(Parallelism::Serial)));

    let ([armed_serial, armed_guided], delta) = rlckit_trace::scoped(|| {
        rlckit_fault::with_plan(Some((FAULT_SEED, 0.10)), || {
            [Parallelism::Serial, Parallelism::Threads(3)].map(|p| campaign_csv(&sweep(p)))
        })
    });

    assert!(
        delta.counters_ending_with(".injected_faults") > 0,
        "seed {FAULT_SEED} at 10 % must inject into this grid"
    );
    assert_eq!(
        clean_csv, armed_serial,
        "serial campaign CSV drifted under fault injection"
    );
    assert_eq!(
        clean_csv, armed_guided,
        "guided campaign CSV drifted under fault injection"
    );
}
