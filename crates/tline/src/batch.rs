//! Batched structure-of-arrays two-pole delay solving.
//!
//! [`solve_delays`] computes the rigorous `f·100 %` delay (paper Eq. 3)
//! for a whole batch of two-pole models in one pass. Per element it is
//! **bit-identical** to the scalar sequence
//! `TwoPole::try_new(b1, b2).and_then(|tp| tp.delay_from(f, start))`
//! (`start = None` for [`DelayBatch::push`] and [`solve_delays`])
//! — the same `f64` bits on success, the same error variant on failure,
//! and (with `rlckit-fault` armed) the same injection decisions, because
//! the per-lane prologue runs in input order under the ambient fault
//! scope and the lockstep Newton core replicates the scalar iterate
//! sequence op for op.
//!
//! What the batch buys is instruction-level parallelism: the scalar
//! solver's Newton iterations form one long dependency chain of `exp`
//! (and `sin`/`cos`) evaluations, while the batched solver advances
//! every live lane by one iteration per round, so the transcendental
//! evaluations of independent lanes overlap in the pipeline (~2.8×
//! throughput on the `exp`-bound regimes). Loop-invariant pole
//! combinations (`s₂/(s₂−s₁)`, `α/ω_d`, …) are hoisted once per lane at
//! push time — bit-safe, since each scalar iteration recomputes them
//! from the same inputs to the same bits.
//!
//! The solver state is laid out as structure-of-arrays: one `Vec<f64>`
//! per scalar register of the Newton iteration (`x`, `fx`, `dfx`,
//! bracket endpoints, …) plus an `active` mask, so the evaluation pass
//! is a dense sweep over parallel arrays and lane retirement is a mask
//! flip, never a shuffle.

use rlckit_numeric::NumericError;
use rlckit_trace::{counter, histogram, Histogram};
use rlckit_units::Seconds;

use crate::twopole::{Damping, TwoPole};

/// One delay problem: the two-pole moments and the crossing threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayConfig {
    /// First denominator moment `b₁`.
    pub b1: f64,
    /// Second denominator moment `b₂`.
    pub b2: f64,
    /// Delay threshold `f` in `(0, 1)` (0.5 = the 50 % delay).
    pub threshold: f64,
}

/// A solved delay: the crossing time and the Newton iterations spent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayOutcome {
    /// The `f·100 %` delay.
    pub delay: Seconds,
    /// Newton iterations spent (the paper reports ≤ 4).
    pub iterations: usize,
}

/// Per-lane loop-invariant response constants, hoisted once at push.
///
/// Each variant's `eval` reproduces the corresponding branch of
/// `TwoPole::response_with_derivative` bit for bit: every hoisted
/// constant is a subexpression the scalar code recomputes per call from
/// call-invariant inputs, so folding it once yields the identical bits.
#[derive(Debug, Clone, Copy)]
enum LaneModel {
    /// Double pole at `p = −b₁/(2b₂)`.
    Critical { p: f64, pp: f64 },
    /// Two real poles `s₁` (slow), `s₂` (fast).
    Over { s1: f64, s2: f64, c1: f64, c2: f64, den: f64 },
    /// Complex pole pair: decay `α`, ringing frequency `ω_d`.
    Under { neg_alpha: f64, omega_d: f64, aow: f64, den: f64 },
}

impl LaneModel {
    fn from_two_pole(tp: &TwoPole, damping: Damping) -> Self {
        let (b1, b2) = (tp.b1(), tp.b2());
        let disc = tp.discriminant();
        match damping {
            Damping::CriticallyDamped => {
                let p = -b1 / (2.0 * b2);
                Self::Critical { p, pp: p * p }
            }
            Damping::Overdamped => {
                let sq = disc.sqrt();
                let s1 = (-b1 + sq) / (2.0 * b2);
                let s2 = (-b1 - sq) / (2.0 * b2);
                Self::Over {
                    s1,
                    s2,
                    c1: s2 / (s2 - s1),
                    c2: s1 / (s2 - s1),
                    den: b2 * (s2 - s1),
                }
            }
            Damping::Underdamped => {
                let alpha = b1 / (2.0 * b2);
                let omega_d = (-disc).sqrt() / (2.0 * b2);
                Self::Under {
                    neg_alpha: -alpha,
                    omega_d,
                    aow: alpha / omega_d,
                    den: b2 * omega_d,
                }
            }
        }
    }

    /// `(response(t), response'(t))`, bit-identical to
    /// `TwoPole::response_with_derivative`.
    #[inline]
    fn eval(&self, t: f64) -> (f64, f64) {
        if t <= 0.0 {
            return (0.0, 0.0);
        }
        match *self {
            Self::Critical { p, pp } => {
                let ept = (p * t).exp();
                (1.0 - (1.0 - p * t) * ept, pp * t * ept)
            }
            Self::Over { s1, s2, c1, c2, den } => {
                let e1 = (s1 * t).exp();
                let e2 = (s2 * t).exp();
                (1.0 - c1 * e1 + c2 * e2, (e2 - e1) / den)
            }
            Self::Under { neg_alpha, omega_d, aow, den } => {
                let eat = (neg_alpha * t).exp();
                let wt = omega_d * t;
                let st = wt.sin();
                (1.0 - eat * (wt.cos() + aow * st), eat * st / den)
            }
        }
    }
}

/// Batched tallies for the scalar path's counters and histograms,
/// flushed in bulk at the end of [`DelayBatch::solve`]. Counter totals
/// and histogram contents match a scalar sequential run exactly; only
/// the number of atomic operations shrinks (one `fetch_add` per metric
/// per batch instead of per lane).
#[derive(Debug, Default)]
struct Telemetry {
    delay_solves: u64,
    delay_injected: u64,
    newton_solves: u64,
    newton_injected: u64,
    overdamped: u64,
    critical: u64,
    underdamped: u64,
    failures: u64,
    budget_exhausted: u64,
    bisection_fallbacks: u64,
    bracket_doublings: HistAcc,
    newton_iterations: HistAcc,
    delay_iterations: HistAcc,
    retired_per_round: HistAcc,
}

/// Histogram observations accumulated as `(value, count)` pairs — not
/// per-bucket totals, so flushing through [`Histogram::observe_n`]
/// preserves the exact `sum` even for values beyond the last bucket
/// (bracket doublings can reach 64, past the 33-bucket clamp).
#[derive(Debug, Default)]
struct HistAcc(Vec<(u64, u64)>);

impl HistAcc {
    fn observe(&mut self, value: u64) {
        if let Some(entry) = self.0.iter_mut().find(|(v, _)| *v == value) {
            entry.1 += 1;
        } else {
            self.0.push((value, 1));
        }
    }

    fn flush(&self, histogram: &'static Histogram) {
        for &(value, n) in &self.0 {
            histogram.observe_n(value, n);
        }
    }
}

impl Telemetry {
    /// Zeroes every tally for the next [`DelayBatch::solve_in_place`]
    /// round, keeping the histogram accumulators' capacity.
    fn reset(&mut self) {
        let histograms = [
            &mut self.bracket_doublings,
            &mut self.newton_iterations,
            &mut self.delay_iterations,
            &mut self.retired_per_round,
        ];
        for h in histograms {
            h.0.clear();
        }
        *self = Self {
            bracket_doublings: core::mem::take(&mut self.bracket_doublings),
            newton_iterations: core::mem::take(&mut self.newton_iterations),
            delay_iterations: core::mem::take(&mut self.delay_iterations),
            retired_per_round: core::mem::take(&mut self.retired_per_round),
            ..Self::default()
        };
    }

    fn flush(&self, lanes: u64) {
        // Zero tallies are skipped: `Counter::add` registers the metric
        // even for 0, and a metric this batch never touched must stay
        // unregistered exactly as on the scalar path.
        fn bulk(counter: &'static rlckit_trace::Counter, n: u64) {
            if n > 0 {
                counter.add(n);
            }
        }
        bulk(counter!("twopole.delay.solves"), self.delay_solves);
        bulk(counter!("twopole.delay.injected_faults"), self.delay_injected);
        bulk(counter!("roots.newton_bracketed.solves"), self.newton_solves);
        bulk(
            counter!("roots.newton_bracketed.injected_faults"),
            self.newton_injected,
        );
        bulk(counter!("twopole.delay.damping.overdamped"), self.overdamped);
        bulk(counter!("twopole.delay.damping.critical"), self.critical);
        bulk(counter!("twopole.delay.damping.underdamped"), self.underdamped);
        bulk(counter!("twopole.delay.failures"), self.failures);
        bulk(
            counter!("roots.newton_bracketed.budget_exhausted"),
            self.budget_exhausted,
        );
        bulk(
            counter!("roots.newton_bracketed.bisection_fallbacks"),
            self.bisection_fallbacks,
        );
        counter!("batch.lanes").add(lanes);
        self.bracket_doublings
            .flush(histogram!("twopole.delay.bracket_doublings"));
        self.newton_iterations
            .flush(histogram!("roots.newton_bracketed.iterations"));
        self.delay_iterations
            .flush(histogram!("twopole.delay.iterations"));
        self.retired_per_round
            .flush(histogram!("batch.retired_per_iter"));
    }
}

/// `RootOptions` of the scalar delay solve, inlined.
const X_TOL: f64 = 1e-12;
const F_TOL: f64 = 1e-12;
const MAX_ITERATIONS: usize = 200;

/// A batch of delay problems accumulated lane by lane, then solved in
/// lockstep by [`DelayBatch::solve`].
///
/// `push` runs the scalar solver's whole prologue for that lane —
/// validation, damping classification, bracket expansion, endpoint
/// seeding, and both fault points — under the *current* fault scope, in
/// push order, so a caller that pushes under per-lane scopes (the
/// campaign engine) or under one ambient scope ([`solve_delays`])
/// observes exactly the scalar hit sequence. The lockstep Newton core
/// in `solve` contains no fault points.
#[derive(Debug, Default)]
pub struct DelayBatch {
    /// Per-push results; `None` marks a lane still in flight.
    results: Vec<Option<Result<DelayOutcome, NumericError>>>,
    // Structure-of-arrays solver state, indexed by live-lane number.
    model: Vec<LaneModel>,
    threshold: Vec<f64>,
    slot: Vec<usize>,
    x: Vec<f64>,
    fx: Vec<f64>,
    dfx: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    f_lo: Vec<f64>,
    pending: Vec<f64>,
    fx_scratch: Vec<f64>,
    dfx_scratch: Vec<f64>,
    iteration: Vec<usize>,
    active: Vec<bool>,
    telemetry: Telemetry,
}

impl DelayBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `n` lanes.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            results: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Number of pushed lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True if nothing has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Pushes one delay problem, running the scalar prologue for its
    /// lane under the current fault scope. Lanes that fail validation,
    /// bracket expansion, or fault injection are finished immediately;
    /// the rest enter the lockstep Newton solve.
    pub fn push(&mut self, config: DelayConfig) {
        self.push_from(config, None);
    }

    /// [`push`](Self::push) with a warm start: the lane's Newton solve
    /// begins at `start` when it lies strictly inside the lane's
    /// bracket, exactly like the scalar `TwoPole::delay_from`.
    pub fn push_from(&mut self, config: DelayConfig, start: Option<f64>) {
        let result = self.push_inner(config, start);
        self.results.push(result.err());
    }

    /// `Ok(())` means the lane went live; `Err` carries a finished
    /// result (which can itself be a success, e.g. a zero-residual
    /// endpoint).
    #[allow(clippy::result_large_err)]
    fn push_inner(
        &mut self,
        config: DelayConfig,
        start: Option<f64>,
    ) -> Result<(), Result<DelayOutcome, NumericError>> {
        let slot = self.results.len();
        let f = config.threshold;
        let tp = TwoPole::try_new(config.b1, config.b2).map_err(Err)?;
        if !(0.0 < f && f < 1.0) {
            return Err(Err(NumericError::InvalidInput(format!(
                "delay threshold must lie in (0, 1), got {f}"
            ))));
        }
        self.telemetry.delay_solves += 1;
        if rlckit_fault::should_inject("twopole.delay") {
            self.telemetry.delay_injected += 1;
            return Err(Err(NumericError::InjectedFault {
                site: "twopole.delay",
            }));
        }
        let damping = tp.damping();
        match damping {
            Damping::Overdamped => self.telemetry.overdamped += 1,
            Damping::CriticallyDamped => self.telemetry.critical += 1,
            Damping::Underdamped => self.telemetry.underdamped += 1,
        }
        let (t_hi, f_hi) = match damping {
            Damping::Underdamped => {
                let omega_d = (-tp.discriminant()).sqrt() / (2.0 * tp.b2());
                let t = core::f64::consts::PI / omega_d;
                (t, tp.response(t) - f)
            }
            _ => {
                const MAX_DOUBLINGS: usize = 64;
                let mut t = 2.0 * tp.b1();
                let mut v = tp.response(t);
                let mut doublings = 0;
                while v < f {
                    if doublings >= MAX_DOUBLINGS || !t.is_finite() {
                        self.telemetry.failures += 1;
                        return Err(Err(NumericError::NoConvergence {
                            iterations: doublings,
                            residual: f - v,
                        }));
                    }
                    t *= 2.0;
                    doublings += 1;
                    v = tp.response(t);
                }
                self.telemetry.bracket_doublings.observe(doublings as u64);
                (t, v - f)
            }
        };
        self.telemetry.newton_solves += 1;
        if rlckit_fault::should_inject("roots.newton_bracketed") {
            self.telemetry.newton_injected += 1;
            return Err(Err(NumericError::InjectedFault {
                site: "roots.newton_bracketed",
            }));
        }
        // Scalar endpoint normalization with lo = 0, hi = t_hi and the
        // seeded residuals (v(0) − f, v(t_hi) − f).
        let (a, b) = (0.0f64.min(t_hi), 0.0f64.max(t_hi));
        let (fa, fb) = if 0.0 <= t_hi { (0.0 - f, f_hi) } else { (f_hi, 0.0 - f) };
        if fa == 0.0 {
            return Err(self.finish_root(a, 0.0, 0));
        }
        if fb == 0.0 {
            return Err(self.finish_root(b, 0.0, 0));
        }
        if fa.signum() == fb.signum() {
            self.telemetry.failures += 1;
            return Err(Err(NumericError::InvalidBracket { lo: a, hi: b }));
        }

        let x = match start {
            Some(x) if x > a && x < b => x,
            _ => 0.5 * (a + b),
        };
        self.model.push(LaneModel::from_two_pole(&tp, damping));
        self.threshold.push(f);
        self.slot.push(slot);
        self.x.push(x);
        self.fx.push(0.0);
        self.dfx.push(0.0);
        self.lo.push(a);
        self.hi.push(b);
        self.f_lo.push(fa);
        self.pending.push(x);
        self.fx_scratch.push(0.0);
        self.dfx_scratch.push(0.0);
        self.iteration.push(0);
        self.active.push(true);
        Ok(())
    }

    /// Tallies a converged root exactly like the scalar wrapper stack
    /// (`newton_bracketed_fdf` → `delay_from`).
    #[allow(clippy::result_large_err)]
    fn finish_root(
        &mut self,
        x: f64,
        _residual: f64,
        iterations: usize,
    ) -> Result<DelayOutcome, NumericError> {
        self.telemetry.newton_iterations.observe(iterations as u64);
        self.telemetry.delay_iterations.observe(iterations as u64);
        Ok(DelayOutcome {
            delay: Seconds::new(x),
            iterations,
        })
    }

    /// Runs every live lane to completion in lockstep and returns the
    /// results in push order, flushing the batched telemetry.
    ///
    /// Each round advances every active lane by exactly one Newton
    /// iteration: a bookkeeping pass (convergence test, bracket update,
    /// Newton-vs-bisection candidate), then one dense evaluation sweep
    /// over the structure-of-arrays state — where the independent
    /// per-lane `exp`/`sin`/`cos` calls overlap — then the small-step
    /// acceptance pass. The per-lane iterate sequence is bit-identical
    /// to the scalar bracketed-Newton solve.
    #[must_use]
    pub fn solve(mut self) -> Vec<Result<DelayOutcome, NumericError>> {
        self.solve_in_place()
    }

    /// [`solve`](Self::solve), but leaves the batch empty and reusable:
    /// every structure-of-arrays column keeps its capacity. Wave-loop
    /// callers (the campaign engines solve one small batch per Newton
    /// wave) reuse one `DelayBatch` instead of paying the ~14 heap
    /// allocations a fresh batch costs each wave.
    pub fn solve_in_place(&mut self) -> Vec<Result<DelayOutcome, NumericError>> {
        let lanes = self.results.len() as u64;
        let n = self.model.len();
        let mut live = n;

        // Initial evaluation at the start abscissa (the scalar solve's `fdf(x)`
        // before its loop), batched across lanes.
        self.eval_pending();
        for i in 0..n {
            self.fx[i] = self.fx_pending(i);
            self.dfx[i] = self.dfx_pending(i);
        }

        while live > 0 {
            let mut retired = 0u64;
            // Bookkeeping: one scalar Newton step per active lane.
            for i in 0..n {
                if !self.active[i] {
                    continue;
                }
                let (fx, dfx) = (self.fx[i], self.dfx[i]);
                self.iteration[i] += 1;
                if self.iteration[i] > MAX_ITERATIONS {
                    let result = Err(NumericError::NoConvergence {
                        iterations: MAX_ITERATIONS,
                        residual: fx.abs(),
                    });
                    self.telemetry.budget_exhausted += 1;
                    self.telemetry.failures += 1;
                    self.retire(i, result);
                    retired += 1;
                    continue;
                }
                if fx.abs() <= F_TOL {
                    let root = self.finish_root(self.x[i], fx, self.iteration[i]);
                    self.retire(i, root);
                    retired += 1;
                    continue;
                }
                if fx.signum() == self.f_lo[i].signum() {
                    self.lo[i] = self.x[i];
                    self.f_lo[i] = fx;
                } else {
                    self.hi[i] = self.x[i];
                }
                let newton = if dfx != 0.0 { self.x[i] - fx / dfx } else { f64::NAN };
                self.pending[i] = if newton.is_finite() && newton > self.lo[i] && newton < self.hi[i]
                {
                    newton
                } else {
                    self.telemetry.bisection_fallbacks += 1;
                    0.5 * (self.lo[i] + self.hi[i])
                };
            }
            // Dense evaluation sweep: the only transcendental work of
            // the round, with every lane's calls independent.
            self.eval_pending();
            // Acceptance: small-step convergence or advance.
            for i in 0..n {
                if !self.active[i] {
                    continue;
                }
                let next = self.pending[i];
                let (f_next, df_next) = (self.fx_pending(i), self.dfx_pending(i));
                if (next - self.x[i]).abs() <= X_TOL * self.x[i].abs().max(1.0)
                    && f_next.abs() <= F_TOL
                {
                    let root = self.finish_root(next, f_next, self.iteration[i]);
                    self.retire(i, root);
                    retired += 1;
                    continue;
                }
                self.x[i] = next;
                self.fx[i] = f_next;
                self.dfx[i] = df_next;
            }
            live -= retired as usize;
            self.telemetry.retired_per_round.observe(retired);
        }

        self.telemetry.flush(lanes);
        self.telemetry.reset();
        self.model.clear();
        self.threshold.clear();
        self.slot.clear();
        self.x.clear();
        self.fx.clear();
        self.dfx.clear();
        self.lo.clear();
        self.hi.clear();
        self.f_lo.clear();
        self.pending.clear();
        self.fx_scratch.clear();
        self.dfx_scratch.clear();
        self.iteration.clear();
        self.active.clear();
        self.results
            .drain(..)
            .map(|r| r.expect("every lane retires"))
            .collect()
    }

    /// Evaluates every active lane's pending abscissa, writing
    /// `(response − f, response')` into the scratch columns. Kept as a
    /// single dense loop so the independent transcendental calls of
    /// different lanes pipeline.
    fn eval_pending(&mut self) {
        for i in 0..self.model.len() {
            if !self.active[i] {
                continue;
            }
            let (v, dv) = self.model[i].eval(self.pending[i]);
            // Reuse the fx/dfx columns only after the bookkeeping pass
            // consumed them; between passes the pair lives in scratch.
            self.scratch_write(i, v - self.threshold[i], dv);
        }
    }

    fn scratch_write(&mut self, i: usize, fx: f64, dfx: f64) {
        // The scratch columns piggyback on the pending/derivative pair:
        // `pending` keeps the abscissa, these keep its evaluation.
        self.fx_scratch[i] = fx;
        self.dfx_scratch[i] = dfx;
    }

    fn fx_pending(&self, i: usize) -> f64 {
        self.fx_scratch[i]
    }

    fn dfx_pending(&self, i: usize) -> f64 {
        self.dfx_scratch[i]
    }

    fn retire(&mut self, i: usize, result: Result<DelayOutcome, NumericError>) {
        self.active[i] = false;
        self.results[self.slot[i]] = Some(result);
    }
}

/// Solves a batch of delay problems, returning one result per config in
/// input order — each bit-identical (value, iteration count, and error
/// variant) to the scalar
/// `TwoPole::try_new(b1, b2)?.delay_with_iterations(threshold)` called
/// sequentially under the same fault scope.
///
/// # Examples
///
/// ```
/// use rlckit_tline::batch::{solve_delays, DelayConfig};
/// use rlckit_tline::TwoPole;
///
/// let configs: Vec<DelayConfig> = (1..=8)
///     .map(|i| DelayConfig { b1: 1.0, b2: 0.05 * i as f64, threshold: 0.5 })
///     .collect();
/// let batched = solve_delays(&configs);
/// for (cfg, out) in configs.iter().zip(&batched) {
///     let (scalar, iters) = TwoPole::new(cfg.b1, cfg.b2)
///         .delay_with_iterations(cfg.threshold)
///         .unwrap();
///     let out = out.as_ref().unwrap();
///     assert_eq!(out.delay.get().to_bits(), scalar.get().to_bits());
///     assert_eq!(out.iterations, iters);
/// }
/// ```
#[must_use]
pub fn solve_delays(configs: &[DelayConfig]) -> Vec<Result<DelayOutcome, NumericError>> {
    let mut batch = DelayBatch::with_capacity(configs.len());
    for &config in configs {
        batch.push(config);
    }
    batch.solve()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference the batch must reproduce bit for bit.
    fn scalar(config: &DelayConfig) -> Result<DelayOutcome, NumericError> {
        scalar_from(config, None)
    }

    fn scalar_from(config: &DelayConfig, start: Option<f64>) -> Result<DelayOutcome, NumericError> {
        let (delay, iterations) =
            TwoPole::try_new(config.b1, config.b2)?.delay_from(config.threshold, start)?;
        Ok(DelayOutcome { delay, iterations })
    }

    #[track_caller]
    fn assert_matches_scalar(configs: &[DelayConfig]) {
        let starts = vec![None; configs.len()];
        assert_matches_scalar_from(configs, &starts);
    }

    #[track_caller]
    fn assert_matches_scalar_from(configs: &[DelayConfig], starts: &[Option<f64>]) {
        let mut batch = DelayBatch::new();
        for (&config, &start) in configs.iter().zip(starts) {
            batch.push_from(config, start);
        }
        let batched = batch.solve();
        assert_eq!(batched.len(), configs.len());
        for (i, ((config, start), got)) in configs.iter().zip(starts).zip(&batched).enumerate() {
            let want = scalar_from(config, *start);
            match (&want, got) {
                (Ok(w), Ok(g)) => {
                    assert_eq!(
                        w.delay.get().to_bits(),
                        g.delay.get().to_bits(),
                        "lane {i} ({config:?}): {:e} vs {:e}",
                        w.delay.get(),
                        g.delay.get()
                    );
                    assert_eq!(w.iterations, g.iterations, "lane {i} ({config:?})");
                }
                (Err(w), Err(g)) => assert_eq!(w, g, "lane {i} ({config:?})"),
                other => panic!("lane {i} ({config:?}): outcome kind drifted: {other:?}"),
            }
        }
    }

    fn grid() -> Vec<DelayConfig> {
        let mut configs = Vec::new();
        for b1 in [1.0, 2e-10, 7.3e-9] {
            for ratio in [0.01, 0.2, 0.25, 0.25 * (1.0 + 1e-10), 0.3, 1.0, 4.0] {
                for threshold in [0.1, 0.5, 0.9] {
                    configs.push(DelayConfig {
                        b1,
                        b2: ratio * b1 * b1,
                        threshold,
                    });
                }
            }
        }
        configs
    }

    #[test]
    fn batched_grid_is_bit_identical_to_scalar() {
        // All damping regimes, three decades of time constant, three
        // thresholds — 63 lanes, deliberately not a multiple of any
        // SIMD-ish width.
        assert_matches_scalar(&grid());
    }

    #[test]
    fn warm_started_lanes_are_bit_identical_to_scalar() {
        // Starts near the crossing, far outside the bracket, at its
        // endpoint, NaN, and none — interleaved across damping regimes.
        let configs = grid();
        let starts: Vec<Option<f64>> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let tau = scalar(c).map_or(1.0, |o| o.delay.get());
                match i % 5 {
                    0 => Some(tau * 1.01),
                    1 => Some(tau * 0.9),
                    2 => Some(-tau),
                    3 => Some(f64::NAN),
                    _ => None,
                }
            })
            .collect();
        assert_matches_scalar_from(&configs, &starts);
    }

    #[test]
    fn degenerate_lanes_fail_with_the_scalar_error_mid_batch() {
        // Bad lanes interleaved with good ones: invalid moments, invalid
        // thresholds, and the plateau case (bracket expansion cap) must
        // produce the scalar error variant without disturbing the
        // neighbouring lanes' bits.
        let configs = vec![
            DelayConfig { b1: 1.0, b2: 0.2, threshold: 0.5 },
            DelayConfig { b1: 0.0, b2: 1.0, threshold: 0.5 },
            DelayConfig { b1: -1.0, b2: 1.0, threshold: 0.5 },
            DelayConfig { b1: f64::NAN, b2: 1.0, threshold: 0.5 },
            DelayConfig { b1: 1.0, b2: f64::INFINITY, threshold: 0.5 },
            DelayConfig { b1: 1.0, b2: 1.0, threshold: 0.5 },
            DelayConfig { b1: 1.0, b2: 0.25, threshold: 0.0 },
            DelayConfig { b1: 1.0, b2: 0.25, threshold: 1.0 },
            DelayConfig { b1: 1.0, b2: 0.25, threshold: -0.5 },
            DelayConfig { b1: 1.0, b2: 1e-300, threshold: 0.5 },
            DelayConfig { b1: 3e-10, b2: 4e-20, threshold: 0.5 },
        ];
        assert_matches_scalar(&configs);
    }

    #[test]
    fn empty_and_single_lane_batches() {
        assert!(solve_delays(&[]).is_empty());
        assert_matches_scalar(&[DelayConfig { b1: 1.0, b2: 0.25, threshold: 0.5 }]);
    }

    #[test]
    fn batch_telemetry_matches_the_scalar_totals() {
        // Counter deltas and histogram counts of a batched solve equal
        // a scalar sequential run's, including the damping-class split;
        // the batch additionally records its lane count.
        let configs = grid();
        let before = rlckit_trace::snapshot();
        for config in &configs {
            let _ = scalar(config);
        }
        let scalar_delta = rlckit_trace::snapshot().since(&before);
        let before = rlckit_trace::snapshot();
        let _ = solve_delays(&configs);
        let batch_delta = rlckit_trace::snapshot().since(&before);
        for name in [
            "twopole.delay.solves",
            "twopole.delay.damping.overdamped",
            "twopole.delay.damping.critical",
            "twopole.delay.damping.underdamped",
            "twopole.delay.failures",
            "roots.newton_bracketed.solves",
            "roots.newton_bracketed.budget_exhausted",
            "roots.newton_bracketed.bisection_fallbacks",
        ] {
            assert_eq!(
                scalar_delta.counter(name),
                batch_delta.counter(name),
                "counter {name} drifted"
            );
        }
        assert_eq!(batch_delta.counter("batch.lanes"), configs.len() as u64);
    }

    #[test]
    fn masked_lane_iteration_counts_stay_scalar() {
        // Lanes retire at different rounds; the masked bookkeeping must
        // not keep counting iterations for retired lanes. Every lane's
        // reported count equals its scalar count, and stays within the
        // paper's ≤ 4 + safeguard margin on physical inputs.
        let configs: Vec<DelayConfig> = (1..=40)
            .map(|i| DelayConfig {
                b1: 1.0,
                b2: 0.01 + 0.1 * f64::from(i),
                threshold: 0.5,
            })
            .collect();
        for (config, out) in configs.iter().zip(solve_delays(&configs)) {
            let want = scalar(config).unwrap();
            let got = out.unwrap();
            assert_eq!(got.iterations, want.iterations, "{config:?}");
            assert!(got.iterations <= 8, "{config:?}: {} iterations", got.iterations);
        }
    }
}
