//! Armed-fault differential test for the batched optimizer engine.
//!
//! Own integration binary because arming `rlckit-fault` is
//! process-global. The engine's retirement contract — any lane that
//! leaves the clean path is redone from scratch by the scalar
//! path under the same deterministic scope — must make the batched
//! campaign bit-identical to the scalar one even while faults fire.
//! The tests take `ARMED` for their whole body, so one test's `arm` or
//! `disarm` cannot land in the middle of another's armed run.

use std::sync::{Mutex, MutexGuard, PoisonError};

use rlckit::batch::{optimize_batch, RlcPoint};
use rlckit::optimizer::{optimize_rlc_with_retry, OptimizerOptions, RetryPolicy};
use rlckit::outcome::{run_point, PointOutcome, Solved};
use rlckit::planner::segment_count_tradeoff_outcomes;
use rlckit::RlcOptimum;
use rlckit_par::Parallelism;
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::{HenriesPerMeter, Meters};

static ARMED: Mutex<()> = Mutex::new(());

fn armed() -> MutexGuard<'static, ()> {
    ARMED.lock().unwrap_or_else(PoisonError::into_inner)
}

fn grid_points(node: &TechNode, n: usize) -> Vec<RlcPoint> {
    rlckit_numeric::grid::linspace(0.0, 4.95, n)
        .into_iter()
        .enumerate()
        .map(|(i, l)| RlcPoint {
            line: LineRlc::new(
                node.line().resistance,
                HenriesPerMeter::from_nano_per_milli(l),
                node.line().capacitance,
            ),
            scope: i as u64,
        })
        .collect()
}

fn scalar_campaign(
    points: &[RlcPoint],
    node: &TechNode,
    options: OptimizerOptions,
    policy: &RetryPolicy,
) -> Vec<PointOutcome<RlcOptimum>> {
    points
        .iter()
        .map(|p| {
            run_point(p.scope, policy, || {
                optimize_rlc_with_retry(&p.line, &node.driver(), options, policy).map(|opt| {
                    Solved {
                        restarts: opt.restarts,
                        degraded: opt.used_fallback,
                        value: opt,
                    }
                })
            })
        })
        .collect()
}

#[test]
fn armed_batch_campaign_is_bit_identical_to_scalar() {
    let _guard = armed();
    let node = TechNode::nm100();
    let options = OptimizerOptions::default();
    let policy = RetryPolicy::default();
    let points = grid_points(&node, 17);

    for seed in [1, 2001, 0xDEAD] {
        for rate in [0.02, 0.1, 0.5] {
            rlckit_fault::arm(seed, rate);
            let scalar = scalar_campaign(&points, &node, options, &policy);
            let batched = optimize_batch(&points, &node.driver(), options, &policy);
            rlckit_fault::disarm();

            let mut retried = 0;
            for (i, (want, got)) in scalar.iter().zip(&batched).enumerate() {
                assert_eq!(want, got, "seed={seed} rate={rate} lane {i}");
                if matches!(want, PointOutcome::Retried { .. }) {
                    retried += 1;
                }
            }
            if rate >= 0.5 {
                assert!(
                    retried > 0,
                    "seed={seed} rate={rate}: a heavy fault rate must retry somewhere"
                );
            }
        }
    }
}

/// The batched planner column engine under live fault injection:
/// fault decisions are per-scope, so an armed trade-off must be
/// bit-identical across thread counts, and every retried point must
/// land on the same plan values a disarmed run produces.
#[test]
fn armed_tradeoff_is_thread_invariant_and_value_stable() {
    let _guard = armed();
    let node = TechNode::nm100();
    let line = LineRlc::new(
        node.line().resistance,
        HenriesPerMeter::from_nano_per_milli(1.8),
        node.line().capacitance,
    );
    let driver = node.driver();
    let route = Meters::from_milli(60.0);
    let policy = RetryPolicy::default();
    let run = |parallelism| {
        segment_count_tradeoff_outcomes(&line, &driver, route, 0.5, 1..=12, &policy, parallelism)
            .unwrap()
    };

    let clean = run(Parallelism::Serial);

    rlckit_fault::arm(2001, 0.3);
    let serial = run(Parallelism::Serial);
    let threaded = run(Parallelism::Threads(3));
    rlckit_fault::disarm();

    assert_eq!(serial.len(), threaded.len());
    for (i, ((s, t), c)) in serial.iter().zip(&threaded).zip(&clean).enumerate() {
        assert_eq!(s, t, "count {}: armed outcome drifted with threads", i + 1);
        let (Some(armed), Some(clean)) = (s.value(), c.value()) else {
            panic!("count {}: a plan failed", i + 1);
        };
        assert_eq!(
            armed.repeater_size.to_bits(),
            clean.repeater_size.to_bits(),
            "count {}: retried plan drifted from the clean k",
            i + 1
        );
        assert_eq!(
            armed.total_delay.get().to_bits(),
            clean.total_delay.get().to_bits(),
            "count {}: retried plan drifted from the clean delay",
            i + 1
        );
    }
}

#[test]
fn armed_batch_reports_injected_fault_telemetry() {
    let _guard = armed();
    let node = TechNode::nm250();
    let options = OptimizerOptions::default();
    let policy = RetryPolicy::default();
    let points = grid_points(&node, 11);

    rlckit_fault::arm(2001, 0.5);
    let before = rlckit_trace::snapshot();
    let batched = optimize_batch(&points, &node.driver(), options, &policy);
    let delta = rlckit_trace::snapshot().since(&before);
    rlckit_fault::disarm();

    assert!(batched.iter().all(|o| !o.is_failed()));
    let injected: u64 = [
        "twopole.delay.injected_faults",
        "roots.newton_bracketed.injected_faults",
        "roots.newton_system.injected_faults",
    ]
    .iter()
    .map(|name| delta.counter(name))
    .sum();
    assert!(injected > 0, "a 50 % rate must inject somewhere");
    let retries =
        delta.counter("optimizer.retries") + delta.counter("campaign.point_retries");
    assert!(
        retries > 0,
        "injections must be absorbed by a retry ladder (inner or point-level)"
    );
}
