//! Integration tests for the fault-tolerant campaign engine: armed
//! fault-injection campaigns must complete with per-point outcomes,
//! and retried points must be bit-identical to a clean run.
//! (Checkpoint/resume is the `rlckit-campaign` shard runner's job and
//! is tested there.)

use rlckit::optimizer::{optimize_rlc_with_retry, OptimizerOptions, RetryPolicy};
use rlckit::outcome::PointOutcome;
use rlckit::planner::segment_count_tradeoff_outcomes;
use rlckit::sweeps::{inductance_sweep_outcomes, SweepPoint};
use rlckit_par::Parallelism;
use rlckit_tech::TechNode;
use rlckit_tline::twopole::Damping;
use rlckit_tline::LineRlc;
use rlckit_units::{HenriesPerMeter, Meters};

const GRID_POINTS: usize = 13;

fn grid() -> Vec<HenriesPerMeter> {
    rlckit_numeric::grid::linspace(0.0, 4.95, GRID_POINTS)
        .into_iter()
        .map(HenriesPerMeter::from_nano_per_milli)
        .collect()
}

/// The campaign over [`grid`] under the fault plan `plan`.
fn sweep_outcomes(
    plan: Option<(u64, f64)>,
    policy: &RetryPolicy,
    parallelism: Parallelism,
) -> Vec<PointOutcome<SweepPoint>> {
    let node = TechNode::nm100();
    rlckit_fault::with_plan(plan, || {
        inductance_sweep_outcomes(
            &node.line(),
            &node.driver(),
            grid(),
            OptimizerOptions::default(),
            policy,
            parallelism,
        )
    })
    .expect("campaign engine failure")
}

fn point_bits(p: &SweepPoint) -> [u64; 9] {
    [
        p.inductance.get().to_bits(),
        p.h_opt.to_bits(),
        p.k_opt.to_bits(),
        p.delay_per_length.to_bits(),
        p.h_ratio.to_bits(),
        p.k_ratio.to_bits(),
        p.l_crit.to_bits(),
        match p.damping {
            Damping::Overdamped => 0,
            Damping::CriticallyDamped => 1,
            Damping::Underdamped => 2,
        },
        p.rc_design_delay_per_length.to_bits(),
    ]
}

/// Seed for armed runs; chosen so a 10 % rate actually injects into
/// this grid (asserted below, not assumed).
const FAULT_SEED: u64 = 2001;

#[test]
fn armed_campaign_is_bit_identical_to_clean_run() {
    let clean: Vec<SweepPoint> = sweep_outcomes(None, &RetryPolicy::default(), Parallelism::Serial)
        .into_iter()
        .map(|o| o.into_result().expect("clean run must converge"))
        .collect();

    let plan = Some((FAULT_SEED, 0.10));
    let armed = || sweep_outcomes(plan, &RetryPolicy::default(), Parallelism::Serial);
    let (armed, delta) = rlckit_trace::scoped(armed);

    assert!(
        delta.counters_ending_with(".injected_faults") > 0,
        "seed {FAULT_SEED} at 10 % must inject into this grid — pick another seed"
    );
    assert_eq!(
        delta.counter("campaign.points_failed"),
        0,
        "the default retry ladder must absorb every injected fault"
    );
    assert_eq!(
        delta.counter("optimizer.degraded"),
        0,
        "transient faults must be retried on the rigorous path, not degraded"
    );
    assert!(
        armed
            .iter()
            .any(|o| matches!(o, PointOutcome::Retried { .. })),
        "at least one point must be recorded as retried"
    );

    assert_eq!(armed.len(), clean.len());
    for (i, (a, c)) in armed.iter().zip(&clean).enumerate() {
        let a = a.value().expect("armed run must have a value");
        assert_eq!(
            point_bits(a),
            point_bits(c),
            "point {i}: armed run drifted from the clean run"
        );
    }
}

#[test]
fn serial_and_parallel_agree_bit_for_bit_under_faults() {
    let plan = Some((FAULT_SEED, 0.10));
    let serial = sweep_outcomes(plan, &RetryPolicy::default(), Parallelism::Serial);
    let threaded = sweep_outcomes(plan, &RetryPolicy::default(), Parallelism::Threads(3));

    assert_eq!(serial.len(), threaded.len());
    for (i, (s, t)) in serial.iter().zip(&threaded).enumerate() {
        match (s, t) {
            (PointOutcome::Failed { .. }, PointOutcome::Failed { .. }) => {}
            _ => {
                let (sv, tv) = (s.value(), t.value());
                assert_eq!(
                    sv.map(point_bits),
                    tv.map(point_bits),
                    "point {i}: thread count changed the numbers"
                );
            }
        }
        assert_eq!(
            std::mem::discriminant(s),
            std::mem::discriminant(t),
            "point {i}: thread count changed the outcome kind"
        );
    }
}

#[test]
fn failed_points_are_isolated_from_their_neighbours() {
    // A policy with no retry budget and no fallback: the first injected
    // fault at a point becomes a recorded failure.
    let brittle = RetryPolicy {
        max_transient_retries: 0,
        max_restarts: 0,
        nelder_mead_fallback: false,
        ..RetryPolicy::default()
    };
    let clean: Vec<SweepPoint> = sweep_outcomes(None, &brittle, Parallelism::Serial)
        .into_iter()
        .map(|o| o.into_result().expect("clean run must converge"))
        .collect();

    let armed = sweep_outcomes(Some((FAULT_SEED, 0.5)), &brittle, Parallelism::Serial);

    let failed = armed.iter().filter(|o| o.is_failed()).count();
    assert!(
        failed >= 1,
        "50 % injection with a zero-retry policy must fail some points"
    );
    assert!(failed < armed.len(), "some points must still converge");
    for (i, (a, c)) in armed.iter().zip(&clean).enumerate() {
        if let Some(a) = a.value() {
            assert_eq!(
                point_bits(a),
                point_bits(c),
                "point {i}: a neighbouring failure changed a surviving point"
            );
        }
    }
    // The legacy error-propagating shape: campaigns surface a typed
    // error (never a panic), preserving earliest-index-wins semantics.
    let legacy: Result<Vec<SweepPoint>, _> = armed
        .into_iter()
        .map(PointOutcome::into_result)
        .collect();
    assert!(legacy.is_err(), "failed points must surface as Err");
}

#[test]
fn retry_and_degraded_counters_split_the_two_ladders() {
    // Transient faults: retried on the rigorous path, never degraded.
    let node = TechNode::nm100();
    let line = LineRlc::new(
        node.line().resistance,
        HenriesPerMeter::from_nano_per_milli(2.0),
        node.line().capacitance,
    );
    let solve = |plan, options| {
        let policy = RetryPolicy::default();
        rlckit_trace::scoped(|| {
            rlckit_fault::with_plan(plan, || {
                rlckit_fault::with_scope(0, || {
                    optimize_rlc_with_retry(&line, &node.driver(), options, &policy)
                })
            })
        })
    };
    let (retried, delta) = solve(Some((7, 1.0)), OptimizerOptions::default());
    let retried = retried.expect("transient fault must be absorbed");
    assert!(retried.restarts > 0, "the solve must record its retry");
    assert!(!retried.used_fallback);
    assert!(delta.counter("optimizer.retries") > 0);
    assert_eq!(delta.counter("optimizer.degraded"), 0);

    // And the retried result carries the exact clean-run bits.
    let clean = rlckit::optimizer::optimize_rlc(&line, &node.driver(), OptimizerOptions::default())
        .expect("clean solve");
    assert_eq!(
        retried.segment_length.get().to_bits(),
        clean.segment_length.get().to_bits()
    );
    assert_eq!(
        retried.repeater_size.to_bits(),
        clean.repeater_size.to_bits()
    );
    assert_eq!(
        retried.segment_delay.get().to_bits(),
        clean.segment_delay.get().to_bits()
    );

    // Genuine numerical failure: perturbed restarts, then degradation.
    let starved = OptimizerOptions {
        max_iterations: 1,
        ..OptimizerOptions::default()
    };
    let (degraded, delta) = solve(None, starved);
    let degraded = degraded.expect("fallback must rescue the starved solve");
    assert!(degraded.used_fallback, "one Newton step cannot converge");
    assert_eq!(
        degraded.restarts,
        RetryPolicy::default().max_restarts,
        "every perturbed restart must be spent before degrading"
    );
    assert_eq!(
        delta.counter("optimizer.retries"),
        u64::from(RetryPolicy::default().max_restarts)
    );
    assert_eq!(delta.counter("optimizer.degraded"), 1);
    assert_eq!(delta.counter("optimizer.fallbacks"), 1);
}

#[test]
fn property_any_fault_seed_preserves_the_clean_bits() {
    let node = TechNode::nm100();
    let small_grid: Vec<HenriesPerMeter> = rlckit_numeric::grid::linspace(0.5, 4.5, 5)
        .into_iter()
        .map(HenriesPerMeter::from_nano_per_milli)
        .collect();
    let run = |plan, parallelism| {
        rlckit_fault::with_plan(plan, || {
            inductance_sweep_outcomes(
                &node.line(),
                &node.driver(),
                small_grid.iter().copied(),
                OptimizerOptions::default(),
                &RetryPolicy::default(),
                parallelism,
            )
        })
        .expect("campaign engine failure")
    };
    let clean: Vec<[u64; 9]> = run(None, Parallelism::Serial)
        .iter()
        .map(|o| point_bits(o.value().expect("clean run must converge")))
        .collect();

    rlckit_check::Check::new().cases(4).seed(0xFA17).run(
        &rlckit_check::gen::usize_range(0, 1 << 48),
        |&fault_seed| {
            let plan = Some((fault_seed as u64, 0.25));
            let serial = run(plan, Parallelism::Serial);
            let threaded = run(plan, Parallelism::Threads(2));
            for (i, (s, t)) in serial.iter().zip(&threaded).enumerate() {
                let s = s.value().expect("default ladder must absorb faults");
                let t = t.value().expect("default ladder must absorb faults");
                assert_eq!(point_bits(s), clean[i], "seed {fault_seed:#x}: point {i}");
                assert_eq!(point_bits(t), clean[i], "seed {fault_seed:#x}: point {i}");
            }
        },
    );
}

/// The planner trade-off under live fault injection: fault decisions
/// are per-scope, so an armed trade-off must be bit-identical across
/// thread counts, and every retried point must land on the same plan
/// values a disarmed run produces.
#[test]
fn armed_tradeoff_is_thread_invariant_and_value_stable() {
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

    let clean = rlckit_fault::with_plan(None, || run(Parallelism::Serial));
    let armed = |parallelism| rlckit_fault::with_plan(Some((2001, 0.3)), || run(parallelism));
    let serial = armed(Parallelism::Serial);
    let threaded = armed(Parallelism::Threads(3));

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
