//! Route planning: from the continuous optimum to an implementable
//! repeater plan.
//!
//! The paper minimizes delay per unit length, implicitly allowing a
//! fractional number of segments (`L/h`). A real route needs an integer
//! repeater count, and designers care about the cost side — total
//! repeater area and switching capacitance — as well as the delay. This
//! module discretizes the optimum and exposes the cost/delay trade-off.
//!
//! # The size re-optimization
//!
//! An integer count `N` fixes the segment length `h = L/N`, which
//! leaves the paper's Eq. 8 (`∂τ/∂k = 0`) to solve on its own. The
//! planner runs a safeguarded Newton iteration in `ln k` on the
//! optimizer's normalized residual `g₂`, whose exact derivative
//! `∂g₂/∂k` comes with each evaluation (`optimizer::residuals`). Every
//! delay solve after the first starts at the first-order prediction
//! from the previous evaluation. The iteration keeps the bracket
//! `[ln 1, ln 20 000]`, tightens it on the sign of `g₂`, bisects when a
//! Newton step leaves the bracket, points away from the minimum, or is
//! not under half the step before last, and stops at `|g₂| ≤ 1e-10` —
//! typically after about six evaluations. It always starts from the
//! closed-form RC optimum's `k`, so a plan is a function of the line,
//! the driver, `h` and the threshold alone: `optimal_size_for_length`,
//! `plan_route` and the trade-off return the same bits for the same
//! segment, whatever the continuous solve did.
//!
//! A plan's segment delay is a fresh cold `segment_delay(h, k)` at the
//! converged size, so its bits do not depend on the warm starts that
//! led there.

use rlckit_numeric::{NumericError, Result};
use rlckit_par::{par_map, Parallelism};
use rlckit_tech::{DriverParams, LineParams};
use rlckit_trace::{counter, histogram, span};
use rlckit_tline::LineRlc;
use rlckit_units::{Farads, Meters, Seconds};

use crate::elmore::rc_optimum;
use crate::optimizer::{
    optimize_rlc_with_retry, residuals, segment_delay, OptimizerOptions, Residuals, RetryPolicy,
};
use crate::outcome::{run_point, PointOutcome, Solved};

/// Salt mixed into planner fault-scope keys so a planner point and a
/// sweep point with the same index draw independent fault decisions.
const PLANNER_SCOPE_SALT: u64 = 0x504C_0000_0000_0000;

/// The size re-optimization's bracket in `ln k`: `[ln 1, ln 20 000]`.
const LN_K_BRACKET: (f64, f64) = (0.0, 9.903_487_552_536_127);
/// Convergence on `|g₂|`: the optimizer's `f_tol`.
const SIZE_F_TOL: f64 = 1e-10;
/// Bracket width in `ln k` below which the iteration stops without
/// meeting [`SIZE_F_TOL`] (a minimum pinned against the bracket edge).
const SIZE_X_TOL: f64 = 1e-12;
/// Residual evaluations before the re-optimization gives up (bisection
/// alone needs about 44 to shrink the bracket to [`SIZE_X_TOL`]).
const SIZE_MAX_EVALUATIONS: usize = 64;

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
/// Newton's method on the paper's Eq. 8 (the `h` is dictated by the
/// integer segmentation; only `k` is free).
///
/// # Errors
///
/// Propagates delay-solver failures, and returns
/// [`NumericError::NoConvergence`] if the iteration runs out of budget.
pub fn optimal_size_for_length(
    line: &LineRlc,
    driver: &DriverParams,
    segment_length: Meters,
    threshold: f64,
) -> Result<f64> {
    sized_segment(line, driver, segment_length, threshold).map(|s| s.k)
}

/// One segment's re-optimized repeater size.
#[derive(Debug)]
pub(crate) struct SizedSegment {
    /// The repeater size solving Eq. 8 at the segment's length.
    pub(crate) k: f64,
    /// A fresh `segment_delay(h, k)`.
    pub(crate) tau: Seconds,
    /// Residual evaluations (one delay solve each) the Newton iteration
    /// spent, not counting the fresh delay.
    pub(crate) evaluations: usize,
}

/// Solves Eq. 8 for `k` at the fixed segment length, starting from the
/// RC optimum's size (clamped into the bracket), and returns the size
/// with the segment's delay there. See the module docs for the
/// iteration.
pub(crate) fn sized_segment(
    line: &LineRlc,
    driver: &DriverParams,
    segment_length: Meters,
    threshold: f64,
) -> Result<SizedSegment> {
    let _span = span!("planner.size_reopt");
    counter!("planner.size_reopts").incr();
    let h = segment_length.get();
    let (mut lo, mut hi) = LN_K_BRACKET;
    let rc = rc_optimum(
        &LineParams::new(line.resistance(), line.capacitance()),
        driver,
    );
    let mut x = rc.repeater_size.ln().clamp(lo, hi);
    let mut last: Option<Residuals> = None;
    let mut evaluations = 0;
    let (mut last_step, mut step_before_last) = (hi - lo, hi - lo);
    loop {
        if evaluations == SIZE_MAX_EVALUATIONS {
            return Err(NumericError::NoConvergence {
                iterations: evaluations,
                residual: last.map_or(f64::NAN, |r| r.g[1].abs()),
            });
        }
        let k = x.exp();
        let r = residuals(
            line,
            driver,
            h,
            k,
            threshold,
            last.map(|r| r.predict_delay(h, k)),
        )?;
        evaluations += 1;
        // g₂ = −∂ln τ/∂ln k: positive while a larger repeater is still
        // faster, so the minimum lies above `x`.
        let g = r.g[1];
        if g.abs() <= SIZE_F_TOL {
            break;
        }
        if !g.is_finite() {
            return Err(NumericError::NonFiniteResidual {
                at: k,
                iteration: evaluations,
            });
        }
        if g > 0.0 {
            lo = x;
        } else {
            hi = x;
        }
        if hi - lo <= SIZE_X_TOL * x.abs().max(1.0) {
            break;
        }
        // ∂g₂/∂ln k = k·∂g₂/∂k. A step that leaves the bracket, runs
        // against g₂'s sign (where g₂ is not falling), or is not under
        // half the step before last (Newton ping-ponging across a
        // curved g₂) bisects instead.
        let step = -g / (r.jac[1][1] * k);
        let newton = x + step;
        let taken = if step * g > 0.0
            && lo < newton
            && newton < hi
            && 2.0 * step.abs() <= step_before_last.abs()
        {
            step
        } else {
            0.5 * (lo + hi) - x
        };
        step_before_last = std::mem::replace(&mut last_step, taken);
        x += taken;
        last = Some(r);
    }
    let k = x.exp();
    let sized = SizedSegment {
        k,
        tau: segment_delay(line, driver, segment_length, k, threshold)?,
        evaluations,
    };
    histogram!("planner.size_reopt.evaluations").observe(sized.evaluations as u64);
    Ok(sized)
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
    // An integral ideal count is one candidate, not two identical solves.
    for n in std::iter::once(floor).chain((ceil != floor).then_some(ceil)) {
        if n == 0 {
            continue;
        }
        let plan = plan_for_count(line, driver, route_length, threshold, continuous_bound, n)?;
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
/// Each count re-runs the size optimization, so the sweep executes on
/// the `rlckit-par` campaign engine by default (pure per-count
/// computation — output is bit-identical to serial).
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
    // Guided self-scheduling over single counts: per-count cost varies
    // across the range (small counts mean long segments), so static
    // chunking would leave workers idle at the tail. Results come back
    // in input order, so the outcomes are bit-identical to serial.
    par_map(&counts, parallelism, |_, &(index, n)| {
        let _span = span!("planner.point");
        counter!("planner.points").incr();
        let outcome = run_point(PLANNER_SCOPE_SALT | index as u64, policy, || {
            plan_for_count(line, driver, route_length, threshold, continuous_bound, n)
                .map(Solved::converged)
        });
        if outcome.is_failed() {
            counter!("planner.no_convergence").incr();
        }
        Ok(outcome)
    })
}

/// The plan of one forced segment count.
fn plan_for_count(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    continuous_bound: Seconds,
    n: usize,
) -> Result<RoutePlan> {
    let h = Meters::new(route_length.get() / n as f64);
    let SizedSegment { k, tau, .. } = sized_segment(line, driver, h, threshold)?;
    Ok(RoutePlan {
        segments: n,
        segment_length: h,
        repeater_size: k,
        total_delay: Seconds::new(tau.get() * n as f64),
        continuous_bound,
        repeater_capacitance: Farads::new(
            n as f64 * k * (driver.input_capacitance.get() + driver.parasitic_capacitance.get()),
        ),
    })
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
        // Verify the re-optimized k actually minimizes the delay at its h.
        let h = Meters::from_milli(9.0);
        let k = optimal_size_for_length(&line, &driver, h, 0.5).unwrap();
        let at = |kk: f64| segment_delay(&line, &driver, h, kk, 0.5).unwrap().get();
        assert!(at(k) <= at(k * 1.05) && at(k) <= at(k * 0.95));
    }

    /// The plan's delay is a fresh `segment_delay(h, k)` at the
    /// re-optimized size, to the last bit, whatever warm starts the
    /// Newton iteration took — for the bare re-optimization and for a
    /// planned route alike.
    #[test]
    fn plan_delay_is_a_fresh_segment_delay() {
        use rlckit_check::{gen, Check};
        Check::new().cases(12).run(
            &gen::tuple2(
                gen::range(0.4, 3.5),   // l in nH/mm
                gen::range(20.0, 60.0), // route length in mm
            ),
            |(l, route_mm)| {
                let node = TechNode::nm100();
                let line = LineRlc::new(
                    node.line().resistance,
                    HenriesPerMeter::from_nano_per_milli(*l),
                    node.line().capacitance,
                );
                let driver = node.driver();
                let h = Meters::from_milli(route_mm / 4.0);
                let sized = sized_segment(&line, &driver, h, 0.5).unwrap();
                let fresh = segment_delay(&line, &driver, h, sized.k, 0.5).unwrap();
                assert_eq!(
                    sized.tau.get().to_bits(),
                    fresh.get().to_bits(),
                    "re-opt delay drifted at l = {l} nH/mm, h = {} mm",
                    route_mm / 4.0
                );
                let plan = plan_route(&line, &driver, Meters::from_milli(*route_mm), 0.5).unwrap();
                let fresh =
                    segment_delay(&line, &driver, plan.segment_length, plan.repeater_size, 0.5)
                        .unwrap();
                assert_eq!(
                    plan.total_delay.get().to_bits(),
                    (fresh.get() * plan.segments as f64).to_bits(),
                    "plan delay drifted at l = {l} nH/mm, route = {route_mm} mm"
                );
            },
        );
    }

    /// Newton on Eq. 8 converges in a handful of warm delay solves: at
    /// most 12 residual evaluations per re-optimization over the three
    /// campaign nodes, the Fig. 4–8 inductance range, 10–30 mm routes,
    /// counts 1–40 and three thresholds.
    #[test]
    fn size_reopt_takes_at_most_twelve_evaluations() {
        let (mut worst, mut total, mut runs) = (0, 0, 0);
        for node in [
            TechNode::nm250(),
            TechNode::nm100(),
            TechNode::nm100_with_250nm_dielectric(),
        ] {
            let driver = node.driver();
            for l in [0.3, 1.8, 3.3, 4.8] {
                let line = LineRlc::new(
                    node.line().resistance,
                    HenriesPerMeter::from_nano_per_milli(l),
                    node.line().capacitance,
                );
                for f in [0.1, 0.5, 0.9] {
                    for route_mm in [10.0, 20.0, 30.0] {
                        for n in 1..=40 {
                            let h = Meters::from_milli(route_mm / n as f64);
                            let sized = sized_segment(&line, &driver, h, f).unwrap();
                            assert!(
                                sized.evaluations <= 12,
                                "{} evaluations at {node:?}, l = {l}, f = {f}, \
                                 route = {route_mm} mm, n = {n}",
                                sized.evaluations
                            );
                            worst = worst.max(sized.evaluations);
                            total += sized.evaluations;
                            runs += 1;
                        }
                    }
                }
            }
        }
        assert!(worst >= 2, "the grid must exercise the iteration");
        eprintln!(
            "evaluations per re-optimization: mean {:.2}, worst {worst}",
            total as f64 / f64::from(runs)
        );
    }

    /// A segment's plan does not depend on which entry point sized it:
    /// `optimal_size_for_length`, `plan_route` and the trade-off return
    /// the same size bits for the same segment length.
    #[test]
    fn every_entry_point_sizes_a_segment_alike() {
        let (line, driver) = setup();
        let route = Meters::from_milli(50.0);
        let plan = plan_route(&line, &driver, route, 0.5).unwrap();
        let k = optimal_size_for_length(&line, &driver, plan.segment_length, 0.5).unwrap();
        assert_eq!(plan.repeater_size.to_bits(), k.to_bits());
        let counts = plan.segments..=plan.segments;
        let traded =
            segment_count_tradeoff_with(&line, &driver, route, 0.5, counts, Parallelism::Serial)
                .unwrap();
        assert_eq!(traded, vec![plan]);
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
