//! Batched structure-of-arrays optimizer core.
//!
//! [`optimize_batch`] runs many independent `(h, k)` Newton
//! optimizations in lockstep: every lane advances one phase per round
//! (pre-flight residual, finite-difference Jacobian probes, line-search
//! trial), and all residual evaluations the round produced — each of
//! which contains a two-pole delay solve — are handed to one
//! [`rlckit_tline::batch::DelayBatch`]. The transcendental-heavy delay
//! iterations then run as dense loops over lane arrays, which is where
//! the batched path earns its speedup: a scalar solve is one long
//! dependent `exp` chain, while the batch gives the CPU dozens of
//! independent chains to overlap.
//!
//! # Bit identity
//!
//! The engine produces `f64::to_bits`-identical results to the scalar
//! path ([`crate::outcome::run_point`] around
//! [`crate::optimizer::optimize_rlc_with_retry`]) by construction:
//!
//! * Every per-lane arithmetic step replicates the scalar operation
//!   tree exactly — the Newton bookkeeping mirrors
//!   `rlckit_numeric::roots::newton_system`, the Jacobian assembly
//!   mirrors `central_jacobian`, the `2×2` solve *calls* the same
//!   `Matrix::lu` code, and the residual assembly is the scalar
//!   [`crate::optimizer`] code (shared, not duplicated).
//! * Fault-injection decisions are replayed per lane: each lane owns a
//!   [`rlckit_fault::ScopeState`] that is swapped in around exactly the
//!   work the scalar path would have done under that point's scope, so
//!   the per-scope faultpoint hit sequence is identical to a sequential
//!   point-at-a-time run.
//! * The engine implements **only the clean solver path**. The moment a
//!   lane deviates from it — an injected fault fires, a residual
//!   evaluation fails at pre-flight, the Jacobian goes singular, the
//!   line search stalls, the iteration budget runs out — the lane is
//!   *retired*: its partial state is discarded and the point is redone
//!   from scratch by the genuine scalar path (retry ladder, perturbed
//!   restarts, fallback and all) under a fresh fault scope. Retirement
//!   is always bit-safe because the scalar redo recomputes everything
//!   the engine did, under the same deterministic scope key.
//!
//! Telemetry is accumulated locally and flushed in bulk so the batched
//! path reports the same counter totals as the scalar loop would
//! (`optimizer.solves`, `roots.newton_system.*`),
//! plus the batch-specific `batch.lanes` / `batch.retired_per_iter`
//! metrics recorded by the delay-batch layer.

use rlckit_fault::{fresh_scope, should_inject, swap_scope, ScopeState};
use rlckit_numeric::dense::Matrix;
use rlckit_numeric::Result;
use rlckit_tech::DriverParams;
use rlckit_trace::{counter, histogram, span, Counter, Histogram, SpanGuard};
use rlckit_tline::batch::{DelayBatch, DelayConfig};
use rlckit_tline::LineRlc;

use crate::elmore::rc_optimum;
use crate::optimizer::{
    assemble_residuals, finish, moment_derivatives, optimize_rlc_with_retry, pole_derivatives,
    OptimizerOptions, PoleDerivatives, RetryPolicy, RlcOptimum,
};
use crate::outcome::{run_point, PointOutcome, Solved};

/// One point of a batched optimization: the full RLC line description
/// plus the point's deterministic fault-scope key (its original grid
/// index in a campaign, so injection decisions are independent of
/// batching, thread count, and resume).
#[derive(Debug, Clone)]
pub struct RlcPoint {
    /// The line to optimize `(h, k)` for.
    pub line: LineRlc,
    /// Fault scope key (stable grid identity of the point).
    pub scope: u64,
}

// The scalar solve's tolerances, fixed in `optimize_rlc_with_retry`'s
// RootOptions: replicated here so the lockstep bookkeeping makes the
// identical accept/reject decisions.
const F_TOL: f64 = 1e-10;
const RELAXED_F_TOL: f64 = 1e-9;
const FD_SCALE: f64 = 1e-6;
const MAX_LINE_SEARCH_TRIALS: u32 = 30;

/// Optimizes every point of `points` for minimum delay per unit length,
/// bit-identically to running [`crate::outcome::run_point`] around
/// [`optimize_rlc_with_retry`] on each point in sequence, but with the
/// per-point delay solves batched across lanes.
///
/// # Examples
///
/// ```
/// use rlckit::batch::{optimize_batch, RlcPoint};
/// use rlckit::optimizer::{optimize_rlc_with_retry, OptimizerOptions, RetryPolicy};
/// use rlckit_tech::TechNode;
/// use rlckit_tline::LineRlc;
/// use rlckit_units::HenriesPerMeter;
///
/// let node = TechNode::nm250();
/// let points: Vec<RlcPoint> = (0..6)
///     .map(|i| RlcPoint {
///         line: LineRlc::new(
///             node.line().resistance,
///             HenriesPerMeter::from_nano_per_milli(0.5 * i as f64),
///             node.line().capacitance,
///         ),
///         scope: i,
///     })
///     .collect();
/// let options = OptimizerOptions::default();
/// let policy = RetryPolicy::default();
/// let batched = optimize_batch(&points, &node.driver(), options, &policy);
/// for (p, outcome) in points.iter().zip(&batched) {
///     let scalar = optimize_rlc_with_retry(&p.line, &node.driver(), options, &policy).unwrap();
///     let got = outcome.value().unwrap();
///     assert_eq!(
///         scalar.segment_length.get().to_bits(),
///         got.segment_length.get().to_bits()
///     );
/// }
/// ```
#[must_use]
pub fn optimize_batch(
    points: &[RlcPoint],
    driver: &DriverParams,
    options: OptimizerOptions,
    policy: &RetryPolicy,
) -> Vec<PointOutcome<RlcOptimum>> {
    batch_point_outcomes(
        points,
        driver,
        options,
        |_, opt| {
            Ok(Solved {
                restarts: opt.restarts,
                degraded: opt.used_fallback,
                value: opt,
            })
        },
        |p| {
            run_point(p.scope, policy, || {
                optimize_rlc_with_retry(&p.line, driver, options, policy).map(|opt| Solved {
                    restarts: opt.restarts,
                    degraded: opt.used_fallback,
                    value: opt,
                })
            })
        },
    )
}

/// Which evaluation the lane is waiting on.
enum Phase {
    /// The pre-flight residual at the scaled start `u₀ = (1, 1)`.
    Preflight,
    /// The four central-difference Jacobian probes of this iteration.
    AwaitJac,
    /// One damped line-search trial.
    AwaitTrial,
}

/// Outcome of one residual evaluation request.
#[derive(Clone, Copy)]
enum EvalOut {
    /// Clean residuals.
    Val([f64; 2]),
    /// Positivity guard tripped (the scalar closure's NaN path).
    Nan,
    /// The evaluation failed (delay solve error); only pre-flight
    /// distinguishes this from NaN — everywhere else the scalar closure
    /// maps errors to NaN too.
    Fail,
}

fn out_val(out: EvalOut) -> [f64; 2] {
    match out {
        EvalOut::Val(g) => g,
        EvalOut::Nan | EvalOut::Fail => [f64::NAN, f64::NAN],
    }
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &a| m.max(a.abs()))
}

/// Per-lane solver state; the whole struct is the scalar solve's local
/// variables, parked between rounds.
struct Lane {
    idx: usize,
    scope: ScopeState,
    _span: SpanGuard,
    h0: f64,
    k0: f64,
    u: [f64; 2],
    residual: [f64; 2],
    rnorm: f64,
    iteration: usize,
    hsteps: [f64; 2],
    step: [f64; 2],
    lambda: f64,
    trials: u32,
    trial_u: [f64; 2],
    phase: Phase,
    /// Scaled-coordinate evaluation points wanted this round.
    requests: Vec<[f64; 2]>,
    /// Results of `requests`, same order.
    outs: Vec<EvalOut>,
}

/// What a lane does after consuming its round's evaluations.
enum Next<T> {
    /// Lane emitted new requests and stays live.
    Continue,
    /// Lane finished on the clean path.
    Done(PointOutcome<T>),
    /// Lane left the clean path: discard and redo via the scalar path.
    Retire,
}

/// A residual evaluation pending its batched delay solve.
struct Pending {
    pos: usize,
    req: usize,
    poles: PoleDerivatives,
    h: f64,
    k: f64,
}

/// Local telemetry tallies, flushed in bulk at the end of the batch so
/// per-event atomics stay off the hot path. Zero tallies are skipped:
/// registering a counter the scalar path never touched would change
/// the trace report's shape.
#[derive(Default)]
struct TraceAcc {
    optimizer_solves: u64,
    newton_solves: u64,
    newton_injected: u64,
    line_search_stalls: u64,
    budget_exhausted: u64,
    relaxed_accepts: u64,
    newton_iterations: HistAcc,
    optimizer_iterations: HistAcc,
}

/// Histogram observations as (value, count) pairs — *not* per-bucket
/// tallies, which would collapse distinct values in the overflow bucket
/// and corrupt the histogram's running sum on flush.
#[derive(Default)]
pub(crate) struct HistAcc(Vec<(u64, u64)>);

impl HistAcc {
    pub(crate) fn observe(&mut self, value: u64) {
        if let Some(entry) = self.0.iter_mut().find(|(v, _)| *v == value) {
            entry.1 += 1;
        } else {
            self.0.push((value, 1));
        }
    }

    pub(crate) fn flush(&self, histogram: &'static Histogram) {
        for &(value, n) in &self.0 {
            histogram.observe_n(value, n);
        }
    }
}

/// True when `RLCKIT_BATCH` disables the lockstep engines (`off`, `0`,
/// or `scalar`). Read once per process, like `RLCKIT_THREADS`, so a
/// campaign cannot change engine mid-flight.
pub(crate) fn scalar_override() -> bool {
    static OVERRIDE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        std::env::var("RLCKIT_BATCH").is_ok_and(|v| {
            matches!(v.to_ascii_lowercase().as_str(), "off" | "0" | "scalar")
        })
    })
}

/// Flushes a local counter tally, skipping zero so a counter the scalar
/// path never touched is not registered by the batched path either.
pub(crate) fn bulk(counter: &'static Counter, n: u64) {
    if n > 0 {
        counter.add(n);
    }
}

impl TraceAcc {
    fn flush(&self) {
        bulk(counter!("optimizer.solves"), self.optimizer_solves);
        bulk(counter!("roots.newton_system.solves"), self.newton_solves);
        bulk(
            counter!("roots.newton_system.injected_faults"),
            self.newton_injected,
        );
        bulk(
            counter!("roots.newton_system.line_search_stalls"),
            self.line_search_stalls,
        );
        bulk(
            counter!("roots.newton_system.budget_exhausted"),
            self.budget_exhausted,
        );
        bulk(
            counter!("roots.newton_system.relaxed_accepts"),
            self.relaxed_accepts,
        );
        self.newton_iterations
            .flush(histogram!("roots.newton_system.iterations"));
        self.optimizer_iterations
            .flush(histogram!("optimizer.newton.iterations"));
    }
}

/// The generic lockstep engine behind [`optimize_batch`] and the
/// batched sweep columns.
///
/// `tail` finishes a lane whose Newton solve converged cleanly: it runs
/// under the lane's fault scope and produces the caller's point value
/// (for sweeps, the RC-design delay probe plus the `SweepPoint`
/// assembly). `redo` is the complete scalar fallback for a retired
/// lane; it must be exactly the computation the scalar campaign would
/// have run for that point.
pub(crate) fn batch_point_outcomes<T>(
    points: &[RlcPoint],
    driver: &DriverParams,
    options: OptimizerOptions,
    tail: impl Fn(usize, RlcOptimum) -> Result<Solved<T>>,
    redo: impl Fn(&RlcPoint) -> PointOutcome<T>,
) -> Vec<PointOutcome<T>> {
    if points.is_empty() {
        return Vec::new();
    }
    // Differential escape hatch: `RLCKIT_BATCH=off` routes every point
    // through the scalar redo path, so the same binary can emit a true
    // scalar reference CSV (`tier1.sh`'s batch_identity smoke diffs it
    // against the default batched run).
    if scalar_override() {
        return points.iter().map(redo).collect();
    }
    // The scalar path rejects a bad threshold per point before any other
    // work; with a shared `options` every lane takes the identical exit.
    if !(0.0 < options.threshold && options.threshold < 1.0) {
        return points.iter().map(redo).collect();
    }

    let mut acc = TraceAcc::default();
    let mut done: Vec<Option<PointOutcome<T>>> = Vec::with_capacity(points.len());
    done.resize_with(points.len(), || None);
    let mut live: Vec<Lane> = points
        .iter()
        .enumerate()
        .map(|(idx, p)| init_lane(idx, p, driver, &mut acc))
        .collect();

    // One reusable batch and pending list for the whole column: a wave
    // solves only a handful of lanes, so a fresh allocation per wave
    // would dominate the lockstep win.
    let mut delay_batch = DelayBatch::with_capacity(4 * live.len());
    let mut pending: Vec<Pending> = Vec::new();
    while !live.is_empty() {
        // Round part 1: walk every lane's pending requests in order,
        // under that lane's fault scope, exactly as the scalar eval
        // closure would: positivity guard, then a full moment/pole
        // computation whose delay solve is deferred to the shared batch.
        for (pos, lane) in live.iter_mut().enumerate() {
            lane.outs.clear();
            let prev = swap_scope(lane.scope);
            for (req, point) in lane.requests.iter().enumerate() {
                let (h, k) = (point[0] * lane.h0, point[1] * lane.k0);
                if h <= 0.0 || k <= 0.0 {
                    lane.outs.push(EvalOut::Nan);
                    continue;
                }
                let m = moment_derivatives(&points[lane.idx].line, driver, h, k);
                let poles = pole_derivatives(&m);
                delay_batch.push(DelayConfig {
                    b1: m.b1,
                    b2: m.b2,
                    threshold: options.threshold,
                });
                // Placeholder until the batched delay solve resolves it.
                lane.outs.push(EvalOut::Fail);
                pending.push(Pending {
                    pos,
                    req,
                    poles,
                    h,
                    k,
                });
            }
            lane.scope = swap_scope(prev);
        }

        // Round part 2: all deferred delay solves advance in lockstep.
        let delays = delay_batch.solve_in_place();

        // Round part 3: assemble residuals for the pending evaluations
        // (the scalar code, shared).
        for (eval, delay) in pending.drain(..).zip(delays) {
            if let Ok(out) = delay {
                let g = assemble_residuals(
                    &eval.poles,
                    out.delay.get(),
                    eval.h,
                    eval.k,
                    options.threshold,
                );
                live[eval.pos].outs[eval.req] = EvalOut::Val(g);
            }
        }

        // Round part 4: every lane consumes its results and either
        // emits next-round requests, completes, or retires to the
        // scalar path. A poisoned scope means an injected fault fired
        // during this lane's evaluations — the scalar solve would abort
        // the attempt at its next `injected_abort`, so the lane leaves
        // the clean path here.
        let mut pos = 0;
        while pos < live.len() {
            let lane = &mut live[pos];
            let prev = swap_scope(lane.scope);
            let next = if rlckit_fault::poisoned() {
                Next::Retire
            } else {
                advance(lane, points, driver, options, &mut acc, &tail)
            };
            lane.scope = swap_scope(prev);
            match next {
                Next::Continue => pos += 1,
                Next::Done(outcome) => {
                    let lane = live.swap_remove(pos);
                    done[lane.idx] = Some(outcome);
                }
                Next::Retire => {
                    let lane = live.swap_remove(pos);
                    done[lane.idx] = Some(redo(&points[lane.idx]));
                }
            }
        }
    }
    acc.flush();
    done.into_iter()
        .map(|o| o.expect("every lane completes or retires"))
        .collect()
}

fn init_lane(idx: usize, point: &RlcPoint, driver: &DriverParams, acc: &mut TraceAcc) -> Lane {
    acc.optimizer_solves += 1;
    let span = span!("optimizer.solve");
    let rc = rc_optimum(
        &rlckit_tech::LineParams::new(point.line.resistance(), point.line.capacitance()),
        driver,
    );
    Lane {
        idx,
        scope: fresh_scope(point.scope),
        _span: span,
        h0: rc.segment_length.get(),
        k0: rc.repeater_size,
        u: [1.0, 1.0],
        residual: [0.0; 2],
        rnorm: 0.0,
        iteration: 0,
        hsteps: [0.0; 2],
        step: [0.0; 2],
        lambda: 1.0,
        trials: 0,
        trial_u: [0.0; 2],
        phase: Phase::Preflight,
        requests: vec![[1.0, 1.0]],
        outs: Vec::new(),
    }
}

/// Consumes the lane's round results and advances its state machine.
/// Runs with the lane's fault scope installed, so the one faultpoint on
/// this path (`roots.newton_system`) and the clean-path `finish`/`tail`
/// work consume hits exactly like the scalar sequence.
fn advance<T>(
    lane: &mut Lane,
    points: &[RlcPoint],
    driver: &DriverParams,
    options: OptimizerOptions,
    acc: &mut TraceAcc,
    tail: &impl Fn(usize, RlcOptimum) -> Result<Solved<T>>,
) -> Next<T> {
    match lane.phase {
        Phase::Preflight => {
            // The scalar pre-flight surfaces evaluation errors to the
            // retry ladder — off the clean path, retire.
            let EvalOut::Val(g) = lane.outs[0] else {
                return Next::Retire;
            };
            // newton_system wrapper entry: solve counter + faultpoint.
            acc.newton_solves += 1;
            if should_inject("roots.newton_system") {
                acc.newton_injected += 1;
                return Next::Retire;
            }
            // The solver's own first evaluation at u₀ takes the
            // pre-flight value, as the scalar one-shot slot hands it on.
            lane.residual = g;
            lane.rnorm = inf_norm(&g);
            lane.iteration = 0;
            newton_top(lane, points, driver, options, acc, tail)
        }
        Phase::AwaitJac => {
            // central_jacobian's probe order: column 0 `+h`, `−h`, then
            // column 1. Errors become NaN entries, as in the scalar
            // eval closure.
            let fp0 = out_val(lane.outs[0]);
            let fm0 = out_val(lane.outs[1]);
            let fp1 = out_val(lane.outs[2]);
            let fm1 = out_val(lane.outs[3]);
            let mut jacobian = Matrix::zeros(2, 2);
            for i in 0..2 {
                jacobian[(i, 0)] = (fp0[i] - fm0[i]) / (2.0 * lane.hsteps[0]);
                jacobian[(i, 1)] = (fp1[i] - fm1[i]) / (2.0 * lane.hsteps[1]);
            }
            // The identical LU code the scalar path runs — a singular
            // Jacobian feeds the scalar retry ladder, so retire.
            let step = match jacobian.lu().and_then(|lu| lu.solve(&lane.residual)) {
                Ok(step) => step,
                Err(_) => return Next::Retire,
            };
            lane.step = [step[0], step[1]];
            lane.lambda = 1.0;
            lane.trials = 0;
            push_trial(lane);
            Next::Continue
        }
        Phase::AwaitTrial => {
            let trial_res = out_val(lane.outs[0]);
            let tnorm = inf_norm(&trial_res);
            if tnorm.is_finite() && tnorm < lane.rnorm {
                lane.u = lane.trial_u;
                lane.residual = trial_res;
                let step_small = lane.lambda * inf_norm(&lane.step)
                    <= options.tolerance * inf_norm(&lane.u).max(1.0);
                lane.rnorm = tnorm;
                if step_small {
                    return succeed(lane, lane.iteration, points, driver, options, acc, tail);
                }
                return newton_top(lane, points, driver, options, acc, tail);
            }
            lane.trials += 1;
            lane.lambda *= 0.5;
            if lane.trials >= MAX_LINE_SEARCH_TRIALS {
                // Scalar: line_search_stalls, then the wrapper counts
                // the NoConvergence as budget_exhausted.
                acc.line_search_stalls += 1;
                acc.budget_exhausted += 1;
                return Next::Retire;
            }
            push_trial(lane);
            Next::Continue
        }
    }
}

/// Top of the scalar Newton loop: convergence checks, then the next
/// iteration's Jacobian probe requests.
fn newton_top<T>(
    lane: &mut Lane,
    points: &[RlcPoint],
    driver: &DriverParams,
    options: OptimizerOptions,
    acc: &mut TraceAcc,
    tail: &impl Fn(usize, RlcOptimum) -> Result<Solved<T>>,
) -> Next<T> {
    lane.iteration += 1;
    if lane.iteration > options.max_iterations {
        // Budget exhausted while improving: the scalar solve accepts a
        // relaxed residual (opted into by the optimizer), else fails.
        if lane.rnorm <= F_TOL.max(RELAXED_F_TOL) {
            acc.relaxed_accepts += 1;
            return succeed(
                lane,
                options.max_iterations,
                points,
                driver,
                options,
                acc,
                tail,
            );
        }
        acc.budget_exhausted += 1;
        return Next::Retire;
    }
    if !lane.rnorm.is_finite() {
        // NonFiniteResidual feeds the scalar ladder.
        return Next::Retire;
    }
    if lane.rnorm <= F_TOL {
        return succeed(lane, lane.iteration - 1, points, driver, options, acc, tail);
    }
    for j in 0..2 {
        lane.hsteps[j] = FD_SCALE * lane.u[j].abs().max(1.0);
    }
    lane.requests.clear();
    lane.requests.push([lane.u[0] + lane.hsteps[0], lane.u[1]]);
    lane.requests.push([lane.u[0] - lane.hsteps[0], lane.u[1]]);
    lane.requests.push([lane.u[0], lane.u[1] + lane.hsteps[1]]);
    lane.requests.push([lane.u[0], lane.u[1] - lane.hsteps[1]]);
    lane.phase = Phase::AwaitJac;
    Next::Continue
}

fn push_trial(lane: &mut Lane) {
    for i in 0..2 {
        lane.trial_u[i] = lane.u[i] - lane.lambda * lane.step[i];
    }
    lane.requests.clear();
    lane.requests.push(lane.trial_u);
    lane.phase = Phase::AwaitTrial;
}

/// The Newton solve converged: positivity check, iteration telemetry,
/// the scalar `finish`, and the caller's tail — all under the lane's
/// scope, as the scalar sequence would run them.
fn succeed<T>(
    lane: &mut Lane,
    iterations: usize,
    points: &[RlcPoint],
    driver: &DriverParams,
    options: OptimizerOptions,
    acc: &mut TraceAcc,
    tail: &impl Fn(usize, RlcOptimum) -> Result<Solved<T>>,
) -> Next<T> {
    // The newton_system wrapper observes iterations on every Ok.
    acc.newton_iterations.observe(iterations as u64);
    if !(lane.u[0] > 0.0 && lane.u[1] > 0.0) {
        // Scalar: NoConvergence into the restart ladder.
        return Next::Retire;
    }
    acc.optimizer_iterations.observe(iterations as u64);
    let h = lane.u[0] * lane.h0;
    let k = lane.u[1] * lane.k0;
    match finish(
        &points[lane.idx].line,
        driver,
        h,
        k,
        options.threshold,
        iterations,
        false,
    )
    .and_then(|opt| tail(lane.idx, opt))
    {
        Ok(solved) => {
            // run_point's Ok arm with zero point-level retries.
            let attempts = solved.restarts;
            Next::Done(if solved.degraded {
                PointOutcome::Degraded {
                    value: solved.value,
                    attempts,
                }
            } else if attempts > 0 {
                PointOutcome::Retried {
                    value: solved.value,
                    attempts,
                }
            } else {
                PointOutcome::Converged(solved.value)
            })
        }
        Err(_) => Next::Retire,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_numeric::grid::linspace;
    use rlckit_tech::TechNode;
    use rlckit_units::HenriesPerMeter;

    fn grid_points(node: &TechNode, n: usize) -> Vec<RlcPoint> {
        linspace(0.0, 4.95, n)
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

    fn scalar_outcome(
        p: &RlcPoint,
        driver: &DriverParams,
        options: OptimizerOptions,
        policy: &RetryPolicy,
    ) -> PointOutcome<RlcOptimum> {
        run_point(p.scope, policy, || {
            optimize_rlc_with_retry(&p.line, driver, options, policy).map(|opt| Solved {
                restarts: opt.restarts,
                degraded: opt.used_fallback,
                value: opt,
            })
        })
    }

    fn assert_optimum_bits_equal(want: &RlcOptimum, got: &RlcOptimum, context: &str) {
        assert_eq!(
            want.segment_length.get().to_bits(),
            got.segment_length.get().to_bits(),
            "{context}: h"
        );
        assert_eq!(
            want.repeater_size.to_bits(),
            got.repeater_size.to_bits(),
            "{context}: k"
        );
        assert_eq!(
            want.segment_delay.get().to_bits(),
            got.segment_delay.get().to_bits(),
            "{context}: delay"
        );
        assert_eq!(
            want.critical_inductance.get().to_bits(),
            got.critical_inductance.get().to_bits(),
            "{context}: l_crit"
        );
        assert_eq!(want.damping, got.damping, "{context}: damping");
        assert_eq!(want.iterations, got.iterations, "{context}: iterations");
        assert_eq!(want.restarts, got.restarts, "{context}: restarts");
        assert_eq!(
            want.used_fallback, got.used_fallback,
            "{context}: fallback"
        );
    }

    #[test]
    fn batched_grid_is_bit_identical_to_scalar() {
        let options = OptimizerOptions::default();
        let policy = RetryPolicy::default();
        for node in [TechNode::nm250(), TechNode::nm100()] {
            let driver = node.driver();
            let points = grid_points(&node, 17);
            let batched = optimize_batch(&points, &driver, options, &policy);
            assert_eq!(batched.len(), points.len());
            for (i, (p, outcome)) in points.iter().zip(&batched).enumerate() {
                let want = scalar_outcome(p, &driver, options, &policy);
                match (&want, outcome) {
                    (PointOutcome::Converged(w), PointOutcome::Converged(g)) => {
                        assert_optimum_bits_equal(w, g, &format!("{} lane {i}", node.name()));
                    }
                    other => panic!("{} lane {i}: outcome kind drifted: {other:?}", node.name()),
                }
            }
        }
    }

    #[test]
    fn empty_and_single_point_batches() {
        let node = TechNode::nm250();
        let options = OptimizerOptions::default();
        let policy = RetryPolicy::default();
        assert!(optimize_batch(&[], &node.driver(), options, &policy).is_empty());

        let points = grid_points(&node, 1);
        let batched = optimize_batch(&points, &node.driver(), options, &policy);
        let want = scalar_outcome(&points[0], &node.driver(), options, &policy);
        let (PointOutcome::Converged(w), PointOutcome::Converged(g)) = (&want, &batched[0]) else {
            panic!("single-point batch drifted");
        };
        assert_optimum_bits_equal(w, g, "single");
    }

    #[test]
    fn invalid_threshold_fails_every_lane_like_scalar() {
        let node = TechNode::nm250();
        let options = OptimizerOptions {
            threshold: 1.5,
            ..OptimizerOptions::default()
        };
        let policy = RetryPolicy::default();
        let points = grid_points(&node, 3);
        let batched = optimize_batch(&points, &node.driver(), options, &policy);
        for (p, outcome) in points.iter().zip(&batched) {
            let want = scalar_outcome(p, &node.driver(), options, &policy);
            assert_eq!(&want, outcome, "invalid-threshold outcome drifted");
        }
    }

    #[test]
    fn batch_telemetry_matches_the_scalar_totals() {
        let node = TechNode::nm100();
        let options = OptimizerOptions::default();
        let policy = RetryPolicy::default();
        let points = grid_points(&node, 9);

        let before_scalar = rlckit_trace::snapshot();
        for p in &points {
            let _ = scalar_outcome(p, &node.driver(), options, &policy);
        }
        let scalar_delta = rlckit_trace::snapshot().since(&before_scalar);

        let before_batch = rlckit_trace::snapshot();
        let _ = optimize_batch(&points, &node.driver(), options, &policy);
        let batch_delta = rlckit_trace::snapshot().since(&before_batch);

        for name in [
            "optimizer.solves",
            "roots.newton_system.solves",
            "twopole.delay.solves",
            "roots.newton_bracketed.solves",
        ] {
            assert_eq!(
                scalar_delta.counter(name),
                batch_delta.counter(name),
                "{name} drifted between scalar and batched"
            );
        }
    }
}
