//! Route planning: from the continuous optimum to an implementable
//! repeater plan.
//!
//! The paper minimizes delay per unit length, implicitly allowing a
//! fractional number of segments (`L/h`). A real route needs an integer
//! repeater count, and designers care about the cost side — total
//! repeater area and switching capacitance — as well as the delay. This
//! module discretizes the optimum and exposes the cost/delay trade-off.
//!
//! # The size re-optimization's delay
//!
//! The golden-section size re-optimization evaluates `segment_delay` at
//! the midpoint it returns and reports that evaluation as
//! [`Minimum::value`](rlckit_numeric::minimize::Minimum::value). A
//! plan's segment delay is taken from there rather than solved again;
//! only a non-finite value — the objective's `∞` for a failed solve — is
//! re-evaluated, so the genuine error surfaces.

use rlckit_fault::{fresh_scope, should_inject, swap_scope, ScopeState};
use rlckit_numeric::{NumericError, Result};
use rlckit_par::{par_map, Parallelism};
use rlckit_tech::DriverParams;
use rlckit_trace::{counter, histogram, span, SpanGuard};
use rlckit_tline::batch::{DelayBatch, DelayConfig};
use rlckit_tline::LineRlc;
use rlckit_units::{Farads, Meters, Seconds};

use crate::batch::{bulk, HistAcc};
use crate::optimizer::{
    optimize_rlc_with_retry, segment_delay, segment_structure, OptimizerOptions, RetryPolicy,
};
use crate::outcome::{run_point, PointOutcome, Solved};

/// Salt mixed into planner fault-scope keys so a planner point and a
/// sweep point with the same index draw independent fault decisions.
const PLANNER_SCOPE_SALT: u64 = 0x504C_0000_0000_0000;

/// Lanes per batched trade-off column (same rationale as the sweep
/// column width: enough independent delay solves per wave to fill the
/// CPU's out-of-order window). A column is also the work item the
/// campaign engine schedules, so `N` counts parallelize as
/// `ceil(N / COLUMN_WIDTH)` tasks.
pub const COLUMN_WIDTH: usize = 8;

// The golden-section schedule of `optimal_size_for_length`, replicated
// by the lockstep column engine so its bracket walk makes the identical
// shrink decisions (`rlckit_numeric::minimize::golden_section`).
const INV_PHI: f64 = 0.618_033_988_749_894_9;
const GOLDEN_X_TOL: f64 = 1e-10;
const GOLDEN_MAX_EVALUATIONS: usize = 400;

/// An implementable repeater plan for a route of fixed length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutePlan {
    /// Number of buffered segments (= number of repeaters).
    pub segments: usize,
    /// Realized segment length `L/N`.
    pub segment_length: Meters,
    /// Repeater size, re-optimized for the realized segment length.
    pub repeater_size: f64,
    /// Total route delay with the integer plan.
    pub total_delay: Seconds,
    /// The continuous-relaxation lower bound (`L/h_opt · τ_opt`).
    pub continuous_bound: Seconds,
    /// Total repeater input+parasitic capacitance of the plan — the
    /// switching-energy cost proxy (`N·k·(c₀+c_p)`).
    pub repeater_capacitance: Farads,
}

impl RoutePlan {
    /// Discretization penalty over the continuous relaxation (≥ 1).
    #[must_use]
    pub fn discretization_penalty(&self) -> f64 {
        self.total_delay.get() / self.continuous_bound.get()
    }
}

/// Re-optimizes the repeater size for a *fixed* segment length by
/// golden-section search on the rigorous delay (the `h` is dictated by
/// the integer segmentation; only `k` is free).
///
/// # Errors
///
/// Propagates delay-solver failures.
pub fn optimal_size_for_length(
    line: &LineRlc,
    driver: &DriverParams,
    segment_length: Meters,
    threshold: f64,
) -> Result<f64> {
    sized_segment(line, driver, segment_length, threshold).map(|(k, _)| k)
}

/// [`optimal_size_for_length`] together with the delay of one segment at
/// the returned size. The delay is the walk's own final evaluation
/// (`Minimum::value`); `segment_delay` runs again only when that value
/// is not finite, so a failed solve surfaces its error.
fn sized_segment(
    line: &LineRlc,
    driver: &DriverParams,
    segment_length: Meters,
    threshold: f64,
) -> Result<(f64, Seconds)> {
    let _span = span!("planner.size_reopt");
    counter!("planner.size_reopts").incr();
    let objective = |ln_k: f64| {
        segment_delay(line, driver, segment_length, ln_k.exp(), threshold)
            .map_or(f64::INFINITY, |d| d.get())
    };
    let minimum = rlckit_numeric::minimize::golden_section(
        objective,
        (1.0f64).ln(),
        (20_000.0f64).ln(),
        1e-10,
        400,
    )?;
    let k = minimum.x[0].exp();
    let tau = if minimum.value.is_finite() {
        Seconds::new(minimum.value)
    } else {
        segment_delay(line, driver, segment_length, k, threshold)?
    };
    Ok((k, tau))
}

/// Plans repeater insertion for a route of length `route_length`:
/// rounds the continuous optimum to the neighbouring integer segment
/// counts, re-optimizes `k` for each, and returns the faster plan.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] if the route is shorter than
/// one optimal segment (no repeater needed — drive it directly), and
/// propagates optimizer failures.
///
/// # Examples
///
/// ```
/// use rlckit::planner::plan_route;
/// use rlckit::prelude::*;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let node = TechNode::nm100();
/// let line = LineRlc::new(
///     node.line().resistance,
///     HenriesPerMeter::from_nano_per_milli(1.8),
///     node.line().capacitance,
/// );
/// let plan = plan_route(&line, &node.driver(), Meters::from_milli(40.0), 0.5)?;
/// assert!(plan.segments >= 2);
/// assert!(plan.discretization_penalty() < 1.05);
/// # Ok(())
/// # }
/// ```
pub fn plan_route(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
) -> Result<RoutePlan> {
    let policy = RetryPolicy::default();
    run_point(route_length.get().to_bits(), &policy, || {
        plan_route_attempt(line, driver, route_length, threshold, &policy)
    })
    .into_result()
}

fn plan_route_attempt(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    policy: &RetryPolicy,
) -> Result<Solved<RoutePlan>> {
    let options = OptimizerOptions {
        threshold,
        ..OptimizerOptions::default()
    };
    let continuous = optimize_rlc_with_retry(line, driver, options, policy)?;
    let length = route_length.get();
    let ideal_segments = length / continuous.segment_length.get();
    if ideal_segments < 1.0 {
        return Err(NumericError::InvalidInput(format!(
            "route ({route_length}) is shorter than one optimal segment ({}); \
             repeater insertion does not pay",
            continuous.segment_length
        )));
    }
    let continuous_bound = Seconds::new(continuous.delay_per_length() * length);

    let (floor, ceil) = (
        ideal_segments.floor() as usize,
        ideal_segments.ceil() as usize,
    );
    let mut best: Option<RoutePlan> = None;
    // An integral ideal count is one candidate, not two identical walks.
    for n in std::iter::once(floor).chain((ceil != floor).then_some(ceil)) {
        if n == 0 {
            continue;
        }
        let h = Meters::new(length / n as f64);
        let (k, tau) = sized_segment(line, driver, h, threshold)?;
        let plan = assemble_plan(driver, n, h, k, tau, continuous_bound);
        if best
            .as_ref()
            .is_none_or(|b| plan.total_delay.get() < b.total_delay.get())
        {
            best = Some(plan);
        }
    }
    best.map(|plan| Solved {
        value: plan,
        restarts: continuous.restarts,
        degraded: continuous.used_fallback,
    })
    .ok_or_else(|| {
        NumericError::InvalidInput(format!(
            "no candidate segment count for route {route_length}"
        ))
    })
}

/// The delay/cost trade-off around the optimum: plans forced to use
/// `segments` repeaters for each count in `range`, exposing how much
/// delay each saved repeater costs.
///
/// Each count re-runs a golden-section size optimization, so the sweep
/// executes on the `rlckit-par` campaign engine by default (pure
/// per-count computation — output is bit-identical to serial).
///
/// # Errors
///
/// Propagates solver failures; counts of zero are skipped.
pub fn segment_count_tradeoff(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    range: impl IntoIterator<Item = usize>,
) -> Result<Vec<RoutePlan>> {
    segment_count_tradeoff_with(line, driver, route_length, threshold, range, Parallelism::Auto)
}

/// [`segment_count_tradeoff`] with an explicit execution policy
/// ([`Parallelism::Serial`] is the reference semantics).
///
/// # Errors
///
/// See [`segment_count_tradeoff`].
pub fn segment_count_tradeoff_with(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    range: impl IntoIterator<Item = usize>,
    parallelism: Parallelism,
) -> Result<Vec<RoutePlan>> {
    segment_count_tradeoff_outcomes(
        line,
        driver,
        route_length,
        threshold,
        range,
        &RetryPolicy::default(),
        parallelism,
    )?
    .into_iter()
    .map(PointOutcome::into_result)
    .collect()
}

/// The fault-tolerant trade-off engine: each segment count is solved
/// inside its own deterministic fault scope and recorded as a
/// [`PointOutcome`], so one failed count never aborts the sweep.
///
/// # Errors
///
/// Surfaces failures of the shared continuous solve (after its retry
/// ladder) and infrastructure failures of the campaign engine;
/// per-count solver failures are recorded in the outcomes.
pub fn segment_count_tradeoff_outcomes(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    range: impl IntoIterator<Item = usize>,
    policy: &RetryPolicy,
    parallelism: Parallelism,
) -> Result<Vec<PointOutcome<RoutePlan>>> {
    let options = OptimizerOptions {
        threshold,
        ..OptimizerOptions::default()
    };
    let continuous = run_point(route_length.get().to_bits(), policy, || {
        optimize_rlc_with_retry(line, driver, options, policy).map(|opt| Solved {
            restarts: opt.restarts,
            degraded: opt.used_fallback,
            value: opt,
        })
    })
    .into_result()?;
    let continuous_bound = Seconds::new(continuous.delay_per_length() * route_length.get());
    let counts: Vec<(usize, usize)> = range.into_iter().filter(|&n| n > 0).enumerate().collect();
    // Guided self-scheduling over batched columns: per-count cost varies
    // ~3× across the range (small counts mean long segments and slow
    // delay solves), so static chunking leaves workers idle at the tail.
    // Within a column the golden-section walks advance in lockstep, one
    // shared delay batch per probe wave. Results are reassembled in
    // input order, so the outcome vector is bit-identical to serial,
    // unbatched execution.
    let columns: Vec<&[(usize, usize)]> = counts.chunks(COLUMN_WIDTH).collect();
    let nested = par_map(&columns, parallelism, |_, column| {
        Ok(tradeoff_column_outcomes(
            line,
            driver,
            route_length,
            threshold,
            continuous_bound,
            column,
            policy,
        ))
    })?;
    Ok(nested.into_iter().flatten().collect())
}

/// Assembles the [`RoutePlan`] of a solved count (shared by every
/// planner path, so the derived quantities are the same expressions —
/// and hence the same bits — everywhere).
fn assemble_plan(
    driver: &DriverParams,
    n: usize,
    h: Meters,
    k: f64,
    tau: Seconds,
    continuous_bound: Seconds,
) -> RoutePlan {
    RoutePlan {
        segments: n,
        segment_length: h,
        repeater_size: k,
        total_delay: Seconds::new(tau.get() * n as f64),
        continuous_bound,
        repeater_capacitance: Farads::new(
            n as f64 * k * (driver.input_capacitance.get() + driver.parasitic_capacitance.get()),
        ),
    }
}

/// The scalar solve of one forced segment count: exactly the attempt
/// body the trade-off engine ran per point before batching, kept as the
/// redo path for retired lanes and as the reference semantics.
fn plan_for_count(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    continuous_bound: Seconds,
    n: usize,
) -> Result<Solved<RoutePlan>> {
    let h = Meters::new(route_length.get() / n as f64);
    let (k, tau) = sized_segment(line, driver, h, threshold)?;
    Ok(Solved::converged(assemble_plan(
        driver,
        n,
        h,
        k,
        tau,
        continuous_bound,
    )))
}

/// Which golden-section evaluation a planner lane is waiting on.
enum PlanPhase {
    /// The initial `f(c)` probe.
    AwaitC,
    /// The initial `f(d)` probe.
    AwaitD,
    /// One loop-iteration probe; `true` refreshes `c`, `false` `d`.
    AwaitLoop(bool),
    /// The midpoint evaluation `f(x)` that ends the walk.
    AwaitFinal,
}

/// This wave's probe result for a lane.
#[derive(Clone, Copy)]
enum ProbeOut {
    /// Not yet resolved (before the lane's first wave).
    Pending,
    /// A clean delay, seconds.
    Delay(f64),
    /// The delay solve failed — the scalar objective's `∞` arm, which
    /// is off the clean path.
    Failed,
}

/// Per-lane golden-section state: the local variables of the scalar
/// `sized_segment`, parked between waves.
struct PlanLane {
    /// Position in the column (and in its outcome vector).
    slot: usize,
    /// The forced segment count.
    n: usize,
    scope: ScopeState,
    _reopt_span: SpanGuard,
    /// Segment length `route/n`, metres.
    h: f64,
    a: f64,
    b: f64,
    c: f64,
    d: f64,
    fc: f64,
    fd: f64,
    evaluations: usize,
    /// `ln k` of the probe requested this wave.
    pending_ln: f64,
    out: ProbeOut,
    phase: PlanPhase,
}

/// What a planner lane does after consuming its wave's probe.
enum PlanNext {
    Continue,
    Done(PointOutcome<RoutePlan>),
    /// Lane left the clean path: redo the count via the scalar path.
    Retire,
}

/// Local telemetry tallies for a planner column, flushed in bulk.
#[derive(Default)]
struct PlanAcc {
    golden_calls: u64,
    golden_evaluations: HistAcc,
}

impl PlanAcc {
    fn flush(&self) {
        bulk(counter!("minimize.golden_section.calls"), self.golden_calls);
        self.golden_evaluations
            .flush(histogram!("minimize.golden_section.evaluations"));
    }
}

/// Solves one column of forced segment counts with the golden-section
/// walks advancing in lockstep: every wave gathers one `segment_delay`
/// probe per live lane into a shared [`DelayBatch`], so the
/// transcendental-heavy delay iterations run as dense lane sweeps.
///
/// Bit-identical to running [`plan_for_count`] under
/// [`run_point`] on each count in sequence: per-lane arithmetic
/// replicates the scalar walk exactly, probe prologues run under the
/// lane's fault scope in lane order, and any lane that leaves the clean
/// path (an injected fault fires, a probe fails) is retired to the
/// genuine scalar path under the same scope key.
fn tradeoff_column_outcomes(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    continuous_bound: Seconds,
    column: &[(usize, usize)],
    policy: &RetryPolicy,
) -> Vec<PointOutcome<RoutePlan>> {
    // One span and one point tally per lane, as the scalar loop takes.
    let _spans: Vec<_> = column.iter().map(|_| span!("planner.point")).collect();
    counter!("planner.points").add(column.len() as u64);
    let redo = |index: usize, n: usize| {
        run_point(PLANNER_SCOPE_SALT | index as u64, policy, || {
            plan_for_count(line, driver, route_length, threshold, continuous_bound, n)
        })
    };

    // Same `RLCKIT_BATCH=off` escape hatch as the optimizer engine.
    if crate::batch::scalar_override() {
        return column.iter().map(|&(index, n)| redo(index, n)).collect();
    }

    let mut acc = PlanAcc::default();
    let mut done: Vec<Option<PointOutcome<RoutePlan>>> = Vec::with_capacity(column.len());
    done.resize_with(column.len(), || None);
    let mut live: Vec<PlanLane> = Vec::with_capacity(column.len());
    for (slot, &(index, n)) in column.iter().enumerate() {
        match init_plan_lane(slot, index, n, route_length) {
            Some(lane) => live.push(lane),
            // The entry faultpoint fired: the scalar walk would abort
            // into the retry ladder before its first probe.
            None => done[slot] = Some(redo(index, n)),
        }
    }

    // One reusable batch for the whole column (a golden walk takes ~50
    // waves; fresh per-wave allocations would dominate).
    let mut batch = DelayBatch::with_capacity(live.len());
    while !live.is_empty() {
        // Wave part 1: set up each lane's probe under the lane's scope,
        // deferring its delay solve to the shared batch.
        for lane in &mut live {
            let prev = swap_scope(lane.scope);
            let dil = segment_structure(line, driver, Meters::new(lane.h), lane.pending_ln.exp());
            batch.push(DelayConfig {
                b1: dil.b1(),
                b2: dil.b2(),
                threshold,
            });
            lane.scope = swap_scope(prev);
        }

        // Wave part 2: all deferred delay solves advance in lockstep,
        // one per live lane, in lane order.
        let delays = batch.solve_in_place();
        for (lane, delay) in live.iter_mut().zip(delays) {
            lane.out = match delay {
                Ok(out) => ProbeOut::Delay(out.delay.get()),
                Err(_) => ProbeOut::Failed,
            };
        }

        // Wave part 3: every lane consumes its probe and advances its
        // walk, completes, or retires. A poisoned scope means an
        // injected fault fired during this lane's probe — the scalar
        // walk would abort at its final `injected_abort`.
        let mut pos = 0;
        while pos < live.len() {
            let lane = &mut live[pos];
            let prev = swap_scope(lane.scope);
            let next = if rlckit_fault::poisoned() {
                PlanNext::Retire
            } else {
                plan_advance(lane, driver, continuous_bound, &mut acc)
            };
            lane.scope = swap_scope(prev);
            match next {
                PlanNext::Continue => pos += 1,
                PlanNext::Done(outcome) => {
                    let lane = live.swap_remove(pos);
                    done[lane.slot] = Some(outcome);
                }
                PlanNext::Retire => {
                    let lane = live.swap_remove(pos);
                    let (index, n) = column[lane.slot];
                    done[lane.slot] = Some(redo(index, n));
                }
            }
        }
    }
    acc.flush();
    let outcomes: Vec<PointOutcome<RoutePlan>> = done
        .into_iter()
        .map(|o| o.expect("every planner lane completes or retires"))
        .collect();
    for outcome in &outcomes {
        if outcome.is_failed() {
            counter!("planner.no_convergence").incr();
        }
    }
    outcomes
}

/// Sets up one planner lane: the scalar path's spans and counters, the
/// golden-section entry faultpoint under the lane's fresh scope, and
/// the initial bracket. Returns `None` if the entry faultpoint fired.
fn init_plan_lane(slot: usize, index: usize, n: usize, route_length: Meters) -> Option<PlanLane> {
    let reopt_span = span!("planner.size_reopt");
    counter!("planner.size_reopts").incr();
    let mut scope = fresh_scope(PLANNER_SCOPE_SALT | index as u64);
    let prev = swap_scope(scope);
    let fired = should_inject("minimize.golden_section");
    scope = swap_scope(prev);
    if fired {
        counter!("minimize.golden_section.injected_faults").incr();
        return None;
    }
    let a = (1.0f64).ln();
    let b = (20_000.0f64).ln();
    let c = b - INV_PHI * (b - a);
    let d = a + INV_PHI * (b - a);
    Some(PlanLane {
        slot,
        n,
        scope,
        _reopt_span: reopt_span,
        h: route_length.get() / n as f64,
        a,
        b,
        c,
        d,
        fc: 0.0,
        fd: 0.0,
        evaluations: 0,
        pending_ln: c,
        out: ProbeOut::Pending,
        phase: PlanPhase::AwaitC,
    })
}

/// Consumes a lane's probe and advances its golden-section walk; runs
/// with the lane's fault scope installed.
fn plan_advance(
    lane: &mut PlanLane,
    driver: &DriverParams,
    continuous_bound: Seconds,
    acc: &mut PlanAcc,
) -> PlanNext {
    // A failed probe is the scalar objective's ∞ arm: the walk it would
    // steer is off the clean path, so hand the count to the redo.
    let ProbeOut::Delay(value) = lane.out else {
        return PlanNext::Retire;
    };
    match lane.phase {
        PlanPhase::AwaitC => {
            lane.fc = value;
            lane.pending_ln = lane.d;
            lane.phase = PlanPhase::AwaitD;
            PlanNext::Continue
        }
        PlanPhase::AwaitD => {
            lane.fd = value;
            lane.evaluations = 2;
            golden_step(lane)
        }
        PlanPhase::AwaitLoop(updating_c) => {
            if updating_c {
                lane.fc = value;
            } else {
                lane.fd = value;
            }
            lane.evaluations += 1;
            golden_step(lane)
        }
        PlanPhase::AwaitFinal => {
            // golden_section's exit bookkeeping; the midpoint evaluation
            // is the plan's delay, as `sized_segment` takes it from
            // `Minimum::value`. A non-finite one sends the scalar path
            // back to `segment_delay`, which is off the clean path.
            if !value.is_finite() {
                return PlanNext::Retire;
            }
            acc.golden_calls += 1;
            acc.golden_evaluations.observe((lane.evaluations + 1) as u64);
            let k = lane.pending_ln.exp();
            PlanNext::Done(PointOutcome::Converged(assemble_plan(
                driver,
                lane.n,
                Meters::new(lane.h),
                k,
                Seconds::new(value),
                continuous_bound,
            )))
        }
    }
}

/// The top of the scalar golden-section loop: either shrink the bracket
/// and request the one new probe, or fall through to the final midpoint
/// evaluation.
fn golden_step(lane: &mut PlanLane) -> PlanNext {
    if (lane.b - lane.a).abs() > GOLDEN_X_TOL * (lane.a.abs() + lane.b.abs()).max(1.0)
        && lane.evaluations < GOLDEN_MAX_EVALUATIONS
    {
        if lane.fc < lane.fd {
            lane.b = lane.d;
            lane.d = lane.c;
            lane.fd = lane.fc;
            lane.c = lane.b - INV_PHI * (lane.b - lane.a);
            lane.pending_ln = lane.c;
            lane.phase = PlanPhase::AwaitLoop(true);
        } else {
            lane.a = lane.c;
            lane.c = lane.d;
            lane.fc = lane.fd;
            lane.d = lane.a + INV_PHI * (lane.b - lane.a);
            lane.pending_ln = lane.d;
            lane.phase = PlanPhase::AwaitLoop(false);
        }
    } else {
        lane.pending_ln = 0.5 * (lane.a + lane.b);
        lane.phase = PlanPhase::AwaitFinal;
    }
    PlanNext::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize_rlc;
    use rlckit_tech::TechNode;
    use rlckit_units::HenriesPerMeter;

    fn setup() -> (LineRlc, DriverParams) {
        let node = TechNode::nm100();
        (
            LineRlc::new(
                node.line().resistance,
                HenriesPerMeter::from_nano_per_milli(1.8),
                node.line().capacitance,
            ),
            node.driver(),
        )
    }

    #[test]
    fn plan_rounds_the_continuous_optimum() {
        let (line, driver) = setup();
        let continuous =
            optimize_rlc(&line, &driver, OptimizerOptions::default()).unwrap();
        let route = Meters::from_milli(50.0);
        let plan = plan_route(&line, &driver, route, 0.5).unwrap();
        let ideal = route.get() / continuous.segment_length.get();
        assert!(
            plan.segments == ideal.floor() as usize || plan.segments == ideal.ceil() as usize
        );
        assert!((plan.segment_length.get() * plan.segments as f64 - route.get()).abs() < 1e-12);
    }

    #[test]
    fn integer_plan_cannot_beat_the_continuous_bound() {
        let (line, driver) = setup();
        for mm in [25.0, 40.0, 73.0] {
            let plan = plan_route(&line, &driver, Meters::from_milli(mm), 0.5).unwrap();
            assert!(
                plan.total_delay.get() >= plan.continuous_bound.get() * (1.0 - 1e-9),
                "{mm} mm: {:?}",
                plan
            );
            assert!(plan.discretization_penalty() < 1.1, "{mm} mm penalty");
        }
    }

    #[test]
    fn short_route_is_rejected() {
        let (line, driver) = setup();
        let err = plan_route(&line, &driver, Meters::from_milli(5.0), 0.5);
        assert!(err.is_err());
    }

    #[test]
    fn size_reoptimization_adapts_to_forced_length() {
        let (line, driver) = setup();
        // Shorter segments want smaller relative drive than the optimal-h
        // segments of the same line? Verify the re-optimized k actually
        // minimizes the delay at its h.
        let h = Meters::from_milli(9.0);
        let k = optimal_size_for_length(&line, &driver, h, 0.5).unwrap();
        let at = |kk: f64| segment_delay(&line, &driver, h, kk, 0.5).unwrap().get();
        assert!(at(k) <= at(k * 1.05) && at(k) <= at(k * 0.95));
    }

    /// The size re-optimization against a direct reference: the same
    /// golden-section walk probing `segment_delay` itself. For arbitrary
    /// lines and forced segment lengths the public path must land on the
    /// same repeater size to the last bit, and the plan's delay — taken
    /// from the walk's final evaluation — must equal a fresh
    /// `segment_delay(h, k)` to the last bit.
    #[test]
    fn probe_cache_is_bit_transparent_for_the_size_reopt() {
        use rlckit_check::{gen, Check};
        Check::new().cases(12).run(
            &gen::tuple2(
                gen::range(0.4, 3.5),  // l in nH/mm
                gen::range(4.0, 16.0), // segment length in mm
            ),
            |(l, h_mm)| {
                let node = TechNode::nm100();
                let line = LineRlc::new(
                    node.line().resistance,
                    HenriesPerMeter::from_nano_per_milli(*l),
                    node.line().capacitance,
                );
                let driver = node.driver();
                let h = Meters::from_milli(*h_mm);
                let reference = rlckit_numeric::minimize::golden_section(
                    |ln_k| {
                        segment_delay(&line, &driver, h, ln_k.exp(), 0.5)
                            .map_or(f64::INFINITY, |d| d.get())
                    },
                    (1.0f64).ln(),
                    (20_000.0f64).ln(),
                    1e-10,
                    400,
                )
                .unwrap()
                .x[0]
                    .exp();
                let k = optimal_size_for_length(&line, &driver, h, 0.5).unwrap();
                assert_eq!(
                    k.to_bits(),
                    reference.to_bits(),
                    "size re-opt drifted at l = {l} nH/mm, h = {h_mm} mm"
                );
                let (k, tau) = sized_segment(&line, &driver, h, 0.5).unwrap();
                let fresh = segment_delay(&line, &driver, h, k, 0.5).unwrap();
                assert_eq!(
                    tau.get().to_bits(),
                    fresh.get().to_bits(),
                    "plan delay drifted at l = {l} nH/mm, h = {h_mm} mm"
                );
            },
        );
    }

    /// The lockstep column engine against the genuine scalar per-count
    /// path (`plan_for_count` under `run_point`, the pre-batching
    /// semantics): every field of every plan must match to the bit.
    #[test]
    fn batched_tradeoff_is_bit_identical_to_the_scalar_path() {
        let (line, driver) = setup();
        let route = Meters::from_milli(60.0);
        let threshold = 0.5;
        let policy = RetryPolicy::default();
        let options = OptimizerOptions {
            threshold,
            ..OptimizerOptions::default()
        };
        let continuous = optimize_rlc(&line, &driver, options).unwrap();
        let continuous_bound = Seconds::new(continuous.delay_per_length() * route.get());

        let batched = segment_count_tradeoff_outcomes(
            &line,
            &driver,
            route,
            threshold,
            1..=12,
            &policy,
            Parallelism::Serial,
        )
        .unwrap();
        for (i, (outcome, n)) in batched.iter().zip(1..=12usize).enumerate() {
            let want = run_point(PLANNER_SCOPE_SALT | i as u64, &policy, || {
                plan_for_count(&line, &driver, route, threshold, continuous_bound, n)
            });
            let (PointOutcome::Converged(w), PointOutcome::Converged(g)) = (&want, outcome) else {
                panic!("n = {n}: outcome kind drifted");
            };
            assert_eq!(w.segments, g.segments, "n = {n}");
            assert_eq!(
                w.segment_length.get().to_bits(),
                g.segment_length.get().to_bits(),
                "n = {n}: h"
            );
            assert_eq!(
                w.repeater_size.to_bits(),
                g.repeater_size.to_bits(),
                "n = {n}: k"
            );
            assert_eq!(
                w.total_delay.get().to_bits(),
                g.total_delay.get().to_bits(),
                "n = {n}: delay"
            );
            assert_eq!(
                w.repeater_capacitance.get().to_bits(),
                g.repeater_capacitance.get().to_bits(),
                "n = {n}: cap"
            );
        }
    }

    /// Clean-run telemetry totals of the batched trade-off must equal
    /// the scalar path's: size re-optimizations, golden-section calls,
    /// and the delay-solver counters underneath.
    #[test]
    fn batched_tradeoff_telemetry_matches_the_scalar_totals() {
        let (line, driver) = setup();
        let route = Meters::from_milli(60.0);
        let threshold = 0.5;
        let policy = RetryPolicy::default();
        let options = OptimizerOptions {
            threshold,
            ..OptimizerOptions::default()
        };
        let continuous = optimize_rlc(&line, &driver, options).unwrap();
        let continuous_bound = Seconds::new(continuous.delay_per_length() * route.get());

        // The scalar reference replays everything the trade-off engine
        // runs: the shared continuous solve, then each count.
        let before_scalar = rlckit_trace::snapshot();
        let _ = run_point(route.get().to_bits(), &policy, || {
            optimize_rlc_with_retry(&line, &driver, options, &policy).map(|opt| Solved {
                restarts: opt.restarts,
                degraded: opt.used_fallback,
                value: opt,
            })
        });
        for (i, n) in (1..=10usize).enumerate() {
            let _ = run_point(PLANNER_SCOPE_SALT | i as u64, &policy, || {
                plan_for_count(&line, &driver, route, threshold, continuous_bound, n)
            });
        }
        let scalar_delta = rlckit_trace::snapshot().since(&before_scalar);

        let before_batch = rlckit_trace::snapshot();
        let _ = segment_count_tradeoff_outcomes(
            &line,
            &driver,
            route,
            threshold,
            1..=10,
            &policy,
            Parallelism::Serial,
        )
        .unwrap();
        let batch_delta = rlckit_trace::snapshot().since(&before_batch);

        for name in [
            "planner.size_reopts",
            "minimize.golden_section.calls",
            "twopole.delay.solves",
            "roots.newton_bracketed.solves",
        ] {
            assert_eq!(
                scalar_delta.counter(name),
                batch_delta.counter(name),
                "{name} drifted between scalar and batched trade-off"
            );
        }
    }

    #[test]
    fn guided_tradeoff_matches_serial_bit_for_bit() {
        let (line, driver) = setup();
        let route = Meters::from_milli(60.0);
        let serial = segment_count_tradeoff_with(
            &line, &driver, route, 0.5, 1..=12, Parallelism::Serial,
        )
        .unwrap();
        for threads in [2, 5] {
            let guided = segment_count_tradeoff_with(
                &line, &driver, route, 0.5, 1..=12, Parallelism::Threads(threads),
            )
            .unwrap();
            assert_eq!(serial.len(), guided.len());
            for (s, g) in serial.iter().zip(&guided) {
                assert_eq!(s.segments, g.segments, "{threads} threads");
                assert_eq!(
                    s.total_delay.get().to_bits(),
                    g.total_delay.get().to_bits(),
                    "{threads} threads, n = {}",
                    s.segments
                );
                assert_eq!(
                    s.repeater_size.to_bits(),
                    g.repeater_size.to_bits(),
                    "{threads} threads, n = {}",
                    s.segments
                );
            }
        }
    }

    #[test]
    fn tradeoff_is_convex_around_the_best_count() {
        let (line, driver) = setup();
        let route = Meters::from_milli(60.0);
        let best = plan_route(&line, &driver, route, 0.5).unwrap();
        let lo = best.segments.saturating_sub(2).max(1);
        let plans =
            segment_count_tradeoff(&line, &driver, route, 0.5, lo..=best.segments + 2).unwrap();
        let best_delay = plans
            .iter()
            .map(|p| p.total_delay.get())
            .fold(f64::MAX, f64::min);
        assert!((best.total_delay.get() - best_delay).abs() / best_delay < 1e-9);
        // Fewer repeaters always means less repeater capacitance.
        for w in plans.windows(2) {
            assert!(w[1].repeater_capacitance.get() > 0.0);
            assert!(w[1].segments > w[0].segments);
        }
    }
}
