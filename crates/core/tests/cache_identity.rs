//! Campaign-scale bit identity: the batched sweep engine and the guided
//! self-scheduler must not change a single bit of campaign output
//! against the scalar per-point path — serial, at multiple thread
//! counts, and under armed fault injection.
//!
//! Fault arming and trace counters are process-global, so every test
//! takes `FAULT_LOCK` for its whole body and sets the armed state
//! explicitly.

use std::sync::{Mutex, MutexGuard, PoisonError};

use rlckit::elmore::rc_optimum;
use rlckit::optimizer::{optimize_rlc_with_retry, segment_delay, OptimizerOptions, RetryPolicy};
use rlckit::outcome::{run_point, Solved};
use rlckit::report::Table;
use rlckit::sweeps::{inductance_sweep_with, SweepPoint};
use rlckit_par::Parallelism;
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::HenriesPerMeter;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

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

fn point_bits(p: &SweepPoint) -> [u64; 4] {
    [
        p.h_opt.to_bits(),
        p.k_opt.to_bits(),
        p.delay_per_length.to_bits(),
        p.l_crit.to_bits(),
    ]
}

/// The scalar sweep, replicated point by point from the public API —
/// exactly the computation the batched column engine claims to
/// reproduce bit for bit (and the same code the engine's own `redo`
/// fallback runs for a retired lane). Each point solves under the same
/// index scope the engine uses, so the replica also matches under
/// armed fault injection.
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
/// exact scalar-vs-batch comparison beyond what the CSV rounds off.
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
fn batched_sweep_is_bit_identical_to_the_scalar_path() {
    let _guard = locked();
    rlckit_fault::disarm();
    let scalar = scalar_sweep();
    let reference_csv = campaign_csv(&scalar);
    for (label, parallelism) in [
        ("serial", Parallelism::Serial),
        ("2 threads", Parallelism::Threads(2)),
        ("5 threads", Parallelism::Threads(5)),
    ] {
        let batched = sweep(parallelism);
        assert_eq!(scalar.len(), batched.len());
        for (i, (s, b)) in scalar.iter().zip(&batched).enumerate() {
            assert_eq!(
                full_bits(s),
                full_bits(b),
                "point {i} drifted from the scalar path ({label})"
            );
        }
        assert_eq!(
            reference_csv,
            campaign_csv(&batched),
            "campaign CSV drifted from the scalar path ({label})"
        );
    }
}

#[test]
fn batched_sweep_matches_the_scalar_path_under_armed_faults() {
    let _guard = locked();
    rlckit_fault::disarm();

    rlckit_fault::arm(FAULT_SEED, 0.10);
    let before = rlckit_trace::snapshot();
    let scalar_csv = campaign_csv(&scalar_sweep());
    let batched_serial = campaign_csv(&sweep(Parallelism::Serial));
    let batched_two = campaign_csv(&sweep(Parallelism::Threads(2)));
    let batched_five = campaign_csv(&sweep(Parallelism::Threads(5)));
    let delta = rlckit_trace::snapshot().since(&before);
    rlckit_fault::disarm();

    assert!(
        delta.counters_ending_with(".injected_faults") > 0,
        "seed {FAULT_SEED} at 10 % must inject into this grid"
    );
    for (label, armed) in [
        ("serial", &batched_serial),
        ("2 threads", &batched_two),
        ("5 threads", &batched_five),
    ] {
        assert_eq!(
            &scalar_csv, armed,
            "armed batched CSV drifted from the armed scalar path ({label})"
        );
    }
}

#[test]
fn campaign_csv_is_byte_identical_across_schedulers_and_thread_counts() {
    let _guard = locked();
    rlckit_fault::disarm();
    let serial = sweep(Parallelism::Serial);
    let reference_csv = campaign_csv(&serial);
    for threads in [2, 5] {
        let guided = sweep(Parallelism::Threads(threads));
        for (i, (s, g)) in serial.iter().zip(&guided).enumerate() {
            assert_eq!(
                point_bits(s),
                point_bits(g),
                "point {i} drifted at {threads} threads"
            );
        }
        assert_eq!(
            reference_csv,
            campaign_csv(&guided),
            "campaign CSV drifted at {threads} threads"
        );
    }
}

#[test]
fn campaign_csv_is_byte_identical_under_armed_faults() {
    let _guard = locked();
    rlckit_fault::disarm();
    let clean_csv = campaign_csv(&sweep(Parallelism::Serial));

    rlckit_fault::arm(FAULT_SEED, 0.10);
    let before = rlckit_trace::snapshot();
    let armed_serial = campaign_csv(&sweep(Parallelism::Serial));
    let armed_guided = campaign_csv(&sweep(Parallelism::Threads(3)));
    let delta = rlckit_trace::snapshot().since(&before);
    rlckit_fault::disarm();

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
