//! The `sweep` workload: the paper's Figs. 4–8 campaign in process.
//!
//! Each pass runs, for every campaign node (`250nm`, `100nm`,
//! `100nm_eps33`), one dense inductance sweep through
//! `rlckit::sweeps::inductance_sweep_outcomes` and a few
//! `rlckit::planner::segment_count_tradeoff_outcomes` columns at seeded
//! inductances and route lengths, all on `Parallelism::Auto`. One
//! operation is one sweep point or one planner plan; its cost is this
//! process's CPU time. One latency sample (detail line only) is one
//! library call.

use std::process::Command;
use std::time::Instant;

use rlckit::elmore::rc_optimum;
use rlckit::optimizer::{optimize_rlc, OptimizerOptions, RetryPolicy};
use rlckit::outcome::PointOutcome;
use rlckit::planner::{segment_count_tradeoff_outcomes, RoutePlan};
use rlckit::sweeps::{
    encode_sweep_point, inductance_sweep_outcomes, sweep_point_outcome, SweepPoint,
};
use rlckit_campaign::grid::CampaignNode;
use rlckit_numeric::rng::Rng;
use rlckit_par::Parallelism;
use rlckit_tech::{DriverParams, LineParams};
use rlckit_tline::LineRlc;
use rlckit_units::{HenriesPerMeter, Meters};

use crate::calib::{self, Calibration};
use crate::layers::{Ledger, Telemetry};
use crate::stats::{self, Fnv, Wall};
use crate::{render_checks, Checks, Config, Report};

/// Points of each node's dense inductance sweep.
const SWEEP_POINTS: usize = 240;
/// Planner cases generated per node (cycled through, a few per pass).
const PLAN_CASES: usize = 32;
/// Planner calls per node per pass.
const PLANS_PER_PASS: usize = 4;
/// Segment counts per planner call (one planner column).
const PLAN_COUNTS: usize = 8;
/// Passes that visit every planner case once.
const CYCLE_PASSES: usize = PLAN_CASES / PLANS_PER_PASS;
/// Cold starts timed for `setup_s`.
const SETUP_REPEATS: usize = 9;
/// Sweep points re-solved on the scalar path as a spot check.
const SCALAR_SAMPLE: usize = 64;

const NODES: [CampaignNode; 3] = [
    CampaignNode::Nm250,
    CampaignNode::Nm100,
    CampaignNode::Nm100Eps33,
];

/// One library call of the workload.
enum Call {
    Sweep {
        node: usize,
        inductances: Vec<HenriesPerMeter>,
    },
    Plan {
        node: usize,
        line: LineRlc,
        route: Meters,
        counts: Vec<usize>,
    },
}

impl Call {
    fn ops(&self) -> u64 {
        match self {
            Self::Sweep { inductances, .. } => inductances.len() as u64,
            Self::Plan { counts, .. } => counts.len() as u64,
        }
    }
}

/// The seeded inputs of one run.
struct Inputs {
    nodes: Vec<(LineParams, DriverParams)>,
    /// Sweep calls first (one per node), then `PLAN_CASES` plan calls
    /// per node, node-major.
    calls: Vec<Call>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5eed_5eed_0000_0001);
        let nodes: Vec<(LineParams, DriverParams)> = NODES
            .iter()
            .map(|n| {
                let tech = n.tech();
                (tech.line(), tech.driver())
            })
            .collect();
        let mut calls = Vec::new();
        for node in 0..nodes.len() {
            // A dense grid over [0, 4.95] nH/mm with a seeded offset, so
            // every seed samples the whole damping range evenly.
            let offset = rng.next_f64();
            let inductances = (0..SWEEP_POINTS)
                .map(|i| {
                    HenriesPerMeter::from_nano_per_milli(
                        4.95 * (i as f64 + offset) / SWEEP_POINTS as f64,
                    )
                })
                .collect();
            calls.push(Call::Sweep { node, inductances });
        }
        for (node, (line, driver)) in nodes.iter().enumerate() {
            let rc = rc_optimum(line, driver);
            // Stratified cases: case `c` draws its inductance from the
            // c-th slice of [0.3, 4.8] nH/mm and its route length from a
            // seeded-permuted slice of [10, 30] mm, so every seed covers
            // both ranges evenly and costs the same work.
            let mut slices: Vec<usize> = (0..PLAN_CASES).collect();
            for i in (1..slices.len()).rev() {
                slices.swap(i, rng.index(i + 1));
            }
            for (c, &slice) in slices.iter().enumerate() {
                let stratum =
                    |k: usize, rng: &mut Rng| (k as f64 + rng.next_f64()) / PLAN_CASES as f64;
                let l = HenriesPerMeter::from_nano_per_milli(0.3 + 4.5 * stratum(c, &mut rng));
                let route = Meters::from_milli(10.0 + 20.0 * stratum(slice, &mut rng));
                // Counts straddle the Elmore optimum for this route.
                let ideal = (route.get() / rc.segment_length.get()).round() as usize;
                let first = ideal.saturating_sub(PLAN_COUNTS / 2).max(1);
                calls.push(Call::Plan {
                    node,
                    line: LineRlc::new(line.resistance, l, line.capacitance),
                    route,
                    counts: (first..first + PLAN_COUNTS).collect(),
                });
            }
        }
        Self { nodes, calls }
    }

    /// Call indices of pass `p`: every sweep, plus `PLANS_PER_PASS`
    /// planner cases per node chosen round-robin.
    fn pass(&self, p: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..NODES.len()).collect();
        let first = (p % CYCLE_PASSES) * PLANS_PER_PASS;
        for node in 0..NODES.len() {
            for case in first..first + PLANS_PER_PASS {
                ids.push(NODES.len() + node * PLAN_CASES + case);
            }
        }
        ids
    }
}

/// Outcome of one call: a bit-exact hash of its outputs plus tallies.
struct Done {
    hash: u64,
    ops: u64,
    failed: u64,
}

fn hash_outcome<T>(h: &mut Fnv, outcome: &PointOutcome<T>, words: impl Fn(&T) -> Vec<u64>) -> bool {
    let (tag, value) = match outcome {
        PointOutcome::Converged(v) => (0, Some(v)),
        PointOutcome::Retried { value, attempts } => (1 + 4 * u64::from(*attempts), Some(value)),
        PointOutcome::Degraded { value, attempts } => (2 + 4 * u64::from(*attempts), Some(value)),
        PointOutcome::Failed { attempts, .. } => (3 + 4 * u64::from(*attempts), None),
    };
    h.word(tag);
    if let Some(v) = value {
        for w in words(v) {
            h.word(w);
        }
    }
    value.is_none()
}

fn plan_words(p: &RoutePlan) -> Vec<u64> {
    vec![
        p.segments as u64,
        p.segment_length.get().to_bits(),
        p.repeater_size.to_bits(),
        p.total_delay.get().to_bits(),
        p.continuous_bound.get().to_bits(),
        p.repeater_capacitance.get().to_bits(),
    ]
}

fn sweep_outcomes(
    inputs: &Inputs,
    node: usize,
    inductances: &[HenriesPerMeter],
    parallelism: Parallelism,
) -> Vec<PointOutcome<SweepPoint>> {
    let (line, driver) = &inputs.nodes[node];
    inductance_sweep_outcomes(
        line,
        driver,
        inductances.iter().copied(),
        OptimizerOptions::default(),
        &RetryPolicy::default(),
        parallelism,
    )
    .unwrap_or_else(|_| Vec::new())
}

fn run_call(inputs: &Inputs, call: &Call, parallelism: Parallelism) -> Done {
    let mut h = Fnv::new();
    let mut failed = 0;
    match call {
        Call::Sweep { node, inductances } => {
            let outcomes = sweep_outcomes(inputs, *node, inductances, parallelism);
            h.word(outcomes.len() as u64);
            for o in &outcomes {
                failed += u64::from(hash_outcome(&mut h, o, encode_sweep_point));
            }
            failed += (inductances.len() - outcomes.len()) as u64;
        }
        Call::Plan {
            node,
            line,
            route,
            counts,
        } => {
            let driver = &inputs.nodes[*node].1;
            match segment_count_tradeoff_outcomes(
                line,
                driver,
                *route,
                0.5,
                counts.iter().copied(),
                &RetryPolicy::default(),
                parallelism,
            ) {
                Ok(outcomes) => {
                    h.word(outcomes.len() as u64);
                    for o in &outcomes {
                        failed += u64::from(hash_outcome(&mut h, o, plan_words));
                    }
                    failed += (counts.len() - outcomes.len()) as u64;
                }
                Err(_) => {
                    h.word(u64::MAX);
                    failed += counts.len() as u64;
                }
            }
        }
    }
    Done {
        hash: h.finish(),
        ops: call.ops(),
        failed,
    }
}

/// Serial reference hash of every distinct call.
fn reference_hashes(inputs: &Inputs) -> Vec<u64> {
    inputs
        .calls
        .iter()
        .map(|c| run_call(inputs, c, Parallelism::Serial).hash)
        .collect()
}

/// Checks, outside any timed region, that the parallel batched engine
/// agrees bit for bit with (a) the serial engine, (b) the scalar
/// per-point path and (c) a fresh process running with
/// `RLCKIT_BATCH=off`. Returns the serial reference hashes and the
/// check results.
fn check_references(inputs: &Inputs, seed: u64) -> Result<(Vec<u64>, Checks), String> {
    let reference = reference_hashes(inputs);
    let mut checks = Vec::new();

    let parallel: Vec<u64> = inputs
        .calls
        .iter()
        .map(|c| run_call(inputs, c, Parallelism::Auto).hash)
        .collect();
    checks.push((
        "sweep.parallel_equals_serial".to_string(),
        parallel == reference,
    ));

    // Scalar spot check: seeded sample of sweep points through
    // `sweep_point_outcome`, which the batch core must reproduce.
    let batched: Vec<_> = inputs.calls[..NODES.len()]
        .iter()
        .map(|c| match c {
            Call::Sweep { node, inductances } => {
                sweep_outcomes(inputs, *node, inductances, Parallelism::Serial)
            }
            Call::Plan { .. } => unreachable!("sweep calls come first"),
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x5ca1_a500);
    let mut scalar_ok = true;
    for _ in 0..SCALAR_SAMPLE {
        let node = rng.index(NODES.len());
        let Call::Sweep { inductances, .. } = &inputs.calls[node] else {
            unreachable!("sweep calls come first")
        };
        let index = rng.index(inductances.len());
        let (line, driver) = &inputs.nodes[node];
        let scalar = sweep_point_outcome(
            line,
            driver,
            &rc_optimum(line, driver),
            index,
            inductances[index],
            OptimizerOptions::default(),
            &RetryPolicy::default(),
        );
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        hash_outcome(&mut a, &batched[node][index], encode_sweep_point);
        hash_outcome(&mut b, &scalar, encode_sweep_point);
        scalar_ok &= a.finish() == b.finish();
    }
    checks.push(("sweep.batch_equals_scalar_sample".to_string(), scalar_ok));

    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let out = Command::new(&exe)
        .args([
            "--probe",
            "batch-off-reference",
            "--seed",
            &seed.to_string(),
        ])
        .env("RLCKIT_BATCH", "off")
        .output()
        .map_err(|e| format!("cannot run the RLCKIT_BATCH=off reference: {e}"))?;
    let unbatched: Vec<u64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.trim().parse().ok())
        .collect();
    checks.push((
        "sweep.batch_equals_batch_off_process".to_string(),
        out.status.success() && unbatched == reference,
    ));
    Ok((reference, checks))
}

/// Internal helpers run in a child process (see `--probe`).
pub fn probe(name: &str, seed: u64) -> Result<(), String> {
    match name {
        // Cold start of the in-process library: from process spawn to
        // the end of the workload's first pass.
        "cold-start" => {
            let inputs = Inputs::generate(seed);
            for id in inputs.pass(0) {
                run_call(&inputs, &inputs.calls[id], Parallelism::Auto);
            }
            Ok(())
        }
        "batch-off-reference" => {
            for h in reference_hashes(&Inputs::generate(seed)) {
                println!("{h}");
            }
            Ok(())
        }
        other => Err(format!("unknown probe {other:?}")),
    }
}

/// Median cold-start time over `SETUP_REPEATS` fresh processes.
fn setup_seconds(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--probe", "cold-start", "--seed", &seed.to_string()]);
        samples.push(crate::proc::time_to_exit(&mut cmd)?);
    }
    Ok(stats::median(&mut samples))
}

/// Timed passes until `seconds` have elapsed, plus the call hashes
/// for the output check.
struct Measured {
    /// CPU seconds of this process over the passes, calibration bursts
    /// left out.
    cpu_s: f64,
    /// Wall time per library call.
    wall: Wall,
    failed: u64,
    hashes: Vec<(usize, u64)>,
}

fn measure(
    inputs: &Inputs,
    seconds: f64,
    calibration: &mut Calibration,
) -> Result<Measured, String> {
    let cpu_before = crate::proc::cpu_seconds("self")?.0;
    let (mut wall, mut failed, mut hashes) = (Wall::default(), 0, Vec::new());
    let start = Instant::now();
    let mut pass = 0;
    while start.elapsed().as_secs_f64() < seconds {
        for id in inputs.pass(pass) {
            let t0 = Instant::now();
            let done = run_call(inputs, &inputs.calls[id], Parallelism::Auto);
            let dt = t0.elapsed().as_secs_f64();
            wall.busy_s += dt;
            wall.latencies_us.push(dt * 1e6);
            wall.ops += done.ops;
            failed += done.failed;
            hashes.push((id, done.hash));
        }
        pass += 1;
        calibration.between()?;
    }
    Ok(Measured {
        cpu_s: crate::proc::cpu_seconds("self")?.0 - cpu_before - calibration.cpu_s,
        wall,
        failed,
        hashes,
    })
}

fn hashes_match(hashes: &[(usize, u64)], reference: &[u64]) -> bool {
    hashes.iter().all(|&(id, h)| reference[id] == h)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let inputs = Inputs::generate(cfg.seed);
    let (reference, mut checks) = check_references(&inputs, cfg.seed)?;
    if cfg.trace {
        return run_traced(cfg, &inputs, &reference, checks);
    }
    let setup_s = setup_seconds(cfg.seed)?;
    // Warm-up: one untimed cycle lets lazy state and caches settle.
    measure_cycle(&inputs, Parallelism::Auto);
    let (m, speed) = calib::around(|c| measure(&inputs, cfg.seconds, c))?;
    checks.push((
        "sweep.timed_outputs_equal_serial".to_string(),
        hashes_match(&m.hashes, &reference),
    ));
    let (metrics, mut details) = stats::metrics(m.cpu_s, m.wall.ops, &speed, setup_s);
    let attempted = m.wall.ops;
    details.extend(m.wall.details());
    details.insert(
        0,
        (
            "operation".into(),
            "\"one sweep point or planner plan; latency per library call\"".into(),
        ),
    );
    details.push(("checks".into(), render_checks(&checks)));
    Ok(Report {
        correct: checks.iter().all(|(_, ok)| *ok),
        attempted,
        failed: m.failed,
        metrics,
        details,
    })
}

fn run_traced(
    cfg: &Config,
    inputs: &Inputs,
    reference: &[u64],
    mut checks: Checks,
) -> Result<Report, String> {
    let mut ledger = Ledger::new();
    measure_cycle(inputs, Parallelism::Auto);

    // Counters come from exactly one traced cycle, so they are a pure
    // function of the inputs; the timings alternate untraced and traced
    // cycles until the time is up.
    let (first, telemetry) = Telemetry::capture(|| measure_cycle(inputs, Parallelism::Auto));
    telemetry.fill_solver_layers(&mut ledger);
    let mut traced = vec![first.0];
    let mut untraced = Vec::new();
    let mut attempted = first.1;
    let mut failed = first.2;
    let mut ok = hashes_match(&first.3, reference);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds * 0.6 || untraced.is_empty() {
        let (secs, ops, bad, hashes) = measure_cycle(inputs, Parallelism::Auto);
        untraced.push(secs);
        attempted += ops;
        failed += bad;
        ok &= hashes_match(&hashes, reference);
        let ((secs, ops, bad, hashes), _) =
            Telemetry::capture(|| measure_cycle(inputs, Parallelism::Auto));
        traced.push(secs);
        attempted += ops;
        failed += bad;
        ok &= hashes_match(&hashes, reference);
    }
    checks.push(("sweep.timed_outputs_equal_serial".to_string(), ok));
    let auto = stats::median(&mut untraced);
    ledger.set("trace.overhead_ratio", stats::median(&mut traced) / auto);
    ledger.set(
        "par.speedup_vs_serial",
        measure_cycle(inputs, Parallelism::Serial).0 / auto,
    );

    // Layer microtimings on this run's own inputs, tracing off.
    let mut points = Vec::new();
    let mut rng = Rng::new(cfg.seed ^ 0x0070_1111);
    for _ in 0..96 {
        let node = rng.index(NODES.len());
        let Call::Sweep { inductances, .. } = &inputs.calls[node] else {
            unreachable!()
        };
        let index = rng.index(inductances.len());
        points.push((node, index, inductances[index]));
    }
    let options = OptimizerOptions::default();
    ledger.set(
        "core.optimizer.solve_us_p50",
        stats::median_call_ns(&points, 3, |&(node, _, l)| {
            let (line, driver) = &inputs.nodes[node];
            optimize_rlc(
                &LineRlc::new(line.resistance, l, line.capacitance),
                driver,
                options,
            )
        }) / 1e3,
    );
    ledger.set(
        "core.sweeps.point_us_p50",
        stats::median_call_ns(&points, 3, |&(node, index, l)| {
            let (line, driver) = &inputs.nodes[node];
            sweep_point_outcome(
                line,
                driver,
                &rc_optimum(line, driver),
                index,
                l,
                options,
                &RetryPolicy::default(),
            )
        }) / 1e3,
    );
    let plans: Vec<&Call> = inputs.calls[NODES.len()..].iter().collect();
    ledger.set(
        "core.planner.point_us_p50",
        stats::median_call_ns(&plans, 2, |c| run_call(inputs, c, Parallelism::Serial))
            / 1e3
            / PLAN_COUNTS as f64,
    );

    Ok(Report {
        correct: checks.iter().all(|(_, ok)| *ok),
        attempted,
        failed,
        metrics: ledger.into_metrics(),
        details: vec![
            ("traced_cycles".into(), traced.len().to_string()),
            ("untraced_cycles".into(), untraced.len().to_string()),
            ("checks".into(), render_checks(&checks)),
        ],
    })
}

/// One full cycle, every call of `CYCLE_PASSES` passes:
/// `(wall s, ops, failed, hashes)`.
fn measure_cycle(inputs: &Inputs, parallelism: Parallelism) -> (f64, u64, u64, Vec<(usize, u64)>) {
    let t0 = Instant::now();
    let (mut ops, mut failed, mut hashes) = (0, 0, Vec::new());
    for pass in 0..CYCLE_PASSES {
        for id in inputs.pass(pass) {
            let done = run_call(inputs, &inputs.calls[id], parallelism);
            ops += done.ops;
            failed += done.failed;
            hashes.push((id, done.hash));
        }
    }
    (t0.elapsed().as_secs_f64(), ops, failed, hashes)
}
