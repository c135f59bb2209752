//! Scheduling telemetry for the ROADMAP's work-stealing rung: the
//! planner trade-off runs on guided self-scheduling, observed through
//! the `rlckit-par` scheduling histograms.
//!
//! `segment_count_tradeoff` re-runs a Newton size re-optimization per
//! repeater count, and the per-count cost varies with the count (small
//! counts mean long segments and slower delay solves) — the workload
//! shape where a static split goes wrong. Guided claims start large and
//! halve toward the tail, so fast workers absorb the imbalance by
//! claiming more batches. The scheduled work item is a single count,
//! so the task totals below are count totals. The test pins the worker
//! count, runs the trade-off through the campaign engine, and asserts
//! that `par.tasks_per_worker` recorded a usable max/min task split for
//! every worker.
//!
//! The `par.*` family is the one documented determinism exception: the
//! totals below are exact, but *which* worker claimed how many tasks is
//! whatever the claim race produced — so assertions bound the split
//! instead of fixing it.

use rlckit::planner::segment_count_tradeoff_with;
use rlckit_par::Parallelism;
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::{HenriesPerMeter, Meters};

/// Pinned worker count (`Parallelism::Threads` ignores `RLCKIT_THREADS`,
/// so the test is host-independent).
const WORKERS: usize = 4;

/// Repeater counts to plan — enough that every worker sees multiple
/// claims under guided sizing (first claim ≈ len / 2·threads).
const COUNTS: std::ops::RangeInclusive<usize> = 1..=96;

#[test]
fn planner_tradeoff_records_per_worker_task_counts() {
    let node = TechNode::nm100();
    let line = LineRlc::new(
        node.line().resistance,
        HenriesPerMeter::from_nano_per_milli(1.8),
        node.line().capacitance,
    );

    let (plans, delta) = rlckit_trace::scoped(|| {
        segment_count_tradeoff_with(
            &line,
            &node.driver(),
            Meters::from_milli(11.1),
            0.5,
            COUNTS,
            Parallelism::Threads(WORKERS),
        )
    });
    let plans = plans.expect("trade-off");

    assert_eq!(plans.len(), COUNTS.count());
    // One scheduled task per count.
    let total = COUNTS.count() as u64;
    assert_eq!(delta.counter("par.guided_maps"), 1);
    assert_eq!(delta.counter("par.tasks"), total);

    let split = &delta.histograms["par.tasks_per_worker"];
    // One observation per spawned worker, and the claimed tasks must
    // add up to the whole workload — nothing dropped, nothing counted
    // twice.
    assert_eq!(split.count, WORKERS as u64, "one record per worker");
    assert_eq!(split.sum, total, "claimed tasks must cover the workload");

    // The max/min split is the imbalance picture itself. Pigeonhole
    // bounds: the busiest worker carries at least the mean, at most
    // everything; an unlucky worker may claim nothing (another drained
    // the queue first), so the min is only bounded above.
    let max = split.max.expect("max recorded");
    let min = split.min.expect("min recorded");
    assert!(max >= total.div_ceil(WORKERS as u64), "max {max} below mean");
    assert!(max <= total, "max {max} exceeds workload");
    assert!(min <= total / WORKERS as u64, "min {min} above mean");

    let claims = &delta.histograms["par.claims_per_worker"];
    assert_eq!(claims.count, WORKERS as u64);
    assert!(
        claims.sum >= WORKERS as u64,
        "expected at least one claim per worker slot on average"
    );
}

#[test]
fn serial_tradeoff_records_no_worker_split() {
    let node = TechNode::nm100();
    let line = LineRlc::new(
        node.line().resistance,
        HenriesPerMeter::from_nano_per_milli(1.8),
        node.line().capacitance,
    );
    let (plans, delta) = rlckit_trace::scoped(|| {
        segment_count_tradeoff_with(
            &line,
            &node.driver(),
            Meters::from_milli(11.1),
            0.5,
            1..=6,
            Parallelism::Serial,
        )
    });
    plans.expect("trade-off");
    assert_eq!(delta.counter("par.serial_maps"), 1);
    assert_eq!(delta.counter("par.guided_maps"), 0);
}
