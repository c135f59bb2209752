//! The second-order Padé model `H(s) ≈ 1/(1 + b₁s + b₂s²)` (paper Eq. 2).
//!
//! Provides the poles, the over-/critically-/under-damped classification
//! of Fig. 2, the closed-form step response, the overshoot/undershoot
//! metrics behind the failure analysis of §3.3, and the rigorous
//! `f·100 %` delay — the numerical solution of Eq. 3 by Newton–Raphson
//! (with a bisection-guarded bracket, converging in a handful of
//! iterations as the paper reports).

use rlckit_numeric::poly::quadratic_roots;
use rlckit_numeric::roots::{newton_bracketed_fdf, RootOptions};
use rlckit_numeric::{Complex, NumericError};
use rlckit_trace::{counter, histogram};
use rlckit_units::Seconds;

/// Damping regime of a second-order system (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Damping {
    /// `b₁² > 4b₂`: two real poles, monotone step response.
    Overdamped,
    /// `b₁² = 4b₂` (within tolerance): double real pole.
    CriticallyDamped,
    /// `b₁² < 4b₂`: complex pole pair, overshoot and undershoot.
    Underdamped,
}

impl core::fmt::Display for Damping {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let text = match self {
            Self::Overdamped => "overdamped",
            Self::CriticallyDamped => "critically damped",
            Self::Underdamped => "underdamped",
        };
        f.write_str(text)
    }
}

/// Relative discriminant tolerance for declaring critical damping; also
/// the switch-over to the cancellation-free critical-form response.
const CRITICAL_TOL: f64 = 1e-9;

/// A normalized two-pole transfer function `1/(1 + b₁s + b₂s²)`.
///
/// # Examples
///
/// ```
/// use rlckit_tline::twopole::{Damping, TwoPole};
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// // ζ = 0.25: underdamped, with visible overshoot.
/// let tp = TwoPole::new(0.5e-9, 1e-18);
/// assert_eq!(tp.damping(), Damping::Underdamped);
/// let (peak_time, peak_value) = tp.overshoot().expect("underdamped");
/// assert!(peak_value > 1.0);
/// let delay = tp.delay(0.5)?;
/// assert!(delay.get() < peak_time.get());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPole {
    b1: f64,
    b2: f64,
}

impl TwoPole {
    /// Creates the model from the first two denominator moments.
    ///
    /// # Panics
    ///
    /// Panics unless `b₁ > 0` and `b₂ > 0` (always true for the passive
    /// RLC structures this workspace produces). Campaign code paths,
    /// where a degenerate sweep point or a perturbed optimizer restart
    /// *can* produce non-positive moments, must use [`Self::try_new`]
    /// so the point fails instead of the process.
    #[must_use]
    pub fn new(b1: f64, b2: f64) -> Self {
        Self::try_new(b1, b2).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`]: non-positive or non-finite moments become
    /// [`NumericError::InvalidInput`] (classified non-retryable — a
    /// degenerate model does not get better on retry) instead of a
    /// panic, so per-point failures in a campaign stay per-point.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] unless `b₁ > 0`, `b₂ > 0`
    /// and both are finite.
    pub fn try_new(b1: f64, b2: f64) -> Result<Self, NumericError> {
        if !(b1 > 0.0 && b1.is_finite() && b2 > 0.0 && b2.is_finite()) {
            return Err(NumericError::InvalidInput(format!(
                "two-pole moments must be positive and finite, got b1 = {b1:e}, b2 = {b2:e}"
            )));
        }
        Ok(Self { b1, b2 })
    }

    /// First moment `b₁` (the Elmore delay).
    #[must_use]
    pub fn b1(&self) -> f64 {
        self.b1
    }

    /// Second moment `b₂`.
    #[must_use]
    pub fn b2(&self) -> f64 {
        self.b2
    }

    /// Discriminant `b₁² − 4b₂` deciding the damping regime.
    #[must_use]
    pub fn discriminant(&self) -> f64 {
        self.b1 * self.b1 - 4.0 * self.b2
    }

    /// Damping classification with a relative tolerance on the
    /// discriminant.
    #[must_use]
    pub fn damping(&self) -> Damping {
        let disc = self.discriminant();
        if disc.abs() <= CRITICAL_TOL * self.b1 * self.b1 {
            Damping::CriticallyDamped
        } else if disc > 0.0 {
            Damping::Overdamped
        } else {
            Damping::Underdamped
        }
    }

    /// Damping ratio `ζ = b₁/(2√b₂)`.
    #[must_use]
    pub fn damping_ratio(&self) -> f64 {
        self.b1 / (2.0 * self.b2.sqrt())
    }

    /// Natural frequency `ω_n = 1/√b₂` in rad/s.
    #[must_use]
    pub fn natural_frequency(&self) -> f64 {
        1.0 / self.b2.sqrt()
    }

    /// The two poles `s₁,₂ = (−b₁ ± √(b₁²−4b₂))/(2b₂)`.
    #[must_use]
    pub fn poles(&self) -> [Complex; 2] {
        quadratic_roots(self.b2, self.b1, 1.0)
    }

    /// Normalized step response `v(t)/V₀` (Eq. below Fig. 2), with the
    /// cancellation-free critical form near the damping boundary.
    ///
    /// Returns 0 for `t ≤ 0`.
    #[must_use]
    pub fn response(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let disc = self.discriminant();
        if disc.abs() <= CRITICAL_TOL * self.b1 * self.b1 {
            // Double pole at p = −b₁/(2b₂): v = 1 − (1 − p·t)·e^{p·t}.
            let p = -self.b1 / (2.0 * self.b2);
            1.0 - (1.0 - p * t) * (p * t).exp()
        } else if disc > 0.0 {
            let sq = disc.sqrt();
            let s1 = (-self.b1 + sq) / (2.0 * self.b2); // slow pole
            let s2 = (-self.b1 - sq) / (2.0 * self.b2); // fast pole
            1.0 - s2 / (s2 - s1) * (s1 * t).exp() + s1 / (s2 - s1) * (s2 * t).exp()
        } else {
            let alpha = self.b1 / (2.0 * self.b2);
            let omega_d = (-disc).sqrt() / (2.0 * self.b2);
            1.0 - (-alpha * t).exp()
                * ((omega_d * t).cos() + alpha / omega_d * (omega_d * t).sin())
        }
    }

    /// Time derivative of the normalized step response (the impulse
    /// response), used by the Newton delay solve.
    ///
    /// Returns 0 for `t ≤ 0`.
    #[must_use]
    pub fn response_derivative(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let disc = self.discriminant();
        if disc.abs() <= CRITICAL_TOL * self.b1 * self.b1 {
            let p = -self.b1 / (2.0 * self.b2);
            p * p * t * (p * t).exp()
        } else if disc > 0.0 {
            let sq = disc.sqrt();
            let s1 = (-self.b1 + sq) / (2.0 * self.b2);
            let s2 = (-self.b1 - sq) / (2.0 * self.b2);
            // v' = s₁s₂/(s₂−s₁)·(e^{s₂t} − e^{s₁t}); s₁s₂ = 1/b₂.
            ((s2 * t).exp() - (s1 * t).exp()) / (self.b2 * (s2 - s1))
        } else {
            let alpha = self.b1 / (2.0 * self.b2);
            let omega_d = (-disc).sqrt() / (2.0 * self.b2);
            (-alpha * t).exp() * (omega_d * t).sin() / (self.b2 * omega_d)
        }
    }

    /// Both [`Self::response`] and [`Self::response_derivative`] at `t`,
    /// evaluated once. The two share their discriminant, pole and
    /// exponential subexpressions; each component is computed with
    /// exactly the expressions of the standalone methods, so the pair is
    /// bit-identical to calling them separately — the delay solve's
    /// determinism contract depends on this.
    fn response_with_derivative(&self, t: f64) -> (f64, f64) {
        if t <= 0.0 {
            return (0.0, 0.0);
        }
        let disc = self.discriminant();
        if disc.abs() <= CRITICAL_TOL * self.b1 * self.b1 {
            let p = -self.b1 / (2.0 * self.b2);
            let ept = (p * t).exp();
            (1.0 - (1.0 - p * t) * ept, p * p * t * ept)
        } else if disc > 0.0 {
            let sq = disc.sqrt();
            let s1 = (-self.b1 + sq) / (2.0 * self.b2); // slow pole
            let s2 = (-self.b1 - sq) / (2.0 * self.b2); // fast pole
            let e1 = (s1 * t).exp();
            let e2 = (s2 * t).exp();
            (
                1.0 - s2 / (s2 - s1) * e1 + s1 / (s2 - s1) * e2,
                (e2 - e1) / (self.b2 * (s2 - s1)),
            )
        } else {
            let alpha = self.b1 / (2.0 * self.b2);
            let omega_d = (-disc).sqrt() / (2.0 * self.b2);
            let eat = (-alpha * t).exp();
            let wt = omega_d * t;
            (
                1.0 - eat * (wt.cos() + alpha / omega_d * wt.sin()),
                eat * wt.sin() / (self.b2 * omega_d),
            )
        }
    }

    /// The rigorous `f·100 %` delay: the first `t` with `v(t) = f`
    /// (paper Eq. 3), solved by bracketed Newton–Raphson.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] unless `0 < f < 1` (for an
    /// underdamped system the response reaches any `f < 1 + overshoot`,
    /// but the paper's delay definition keeps `f < 1`), and
    /// [`NumericError::NoConvergence`] if the response plateaus below
    /// `f` (degenerate moments far outside the passive range). Physical
    /// configurations trigger neither.
    pub fn delay(&self, f: f64) -> Result<Seconds, NumericError> {
        let (t, _) = self.delay_with_iterations(f)?;
        Ok(t)
    }

    /// Like [`TwoPole::delay`], also reporting the Newton iteration count
    /// (the paper reports ≤ 4 in all cases; the bench suite checks this).
    ///
    /// # Errors
    ///
    /// See [`TwoPole::delay`].
    pub fn delay_with_iterations(&self, f: f64) -> Result<(Seconds, usize), NumericError> {
        self.delay_from(f, None)
    }

    /// [`TwoPole::delay_with_iterations`] with a warm start: when
    /// `start` lies strictly inside the solver's bracket `(0, t_hi)` the
    /// bracketed Newton begins there instead of at the midpoint. A good
    /// guess (e.g. a first-order prediction from a nearby solve) cuts
    /// the iteration count; a bad one only costs the bisection
    /// safeguard's steps, and the crossing found is the same.
    ///
    /// # Errors
    ///
    /// See [`TwoPole::delay`].
    pub fn delay_from(
        &self,
        f: f64,
        start: Option<f64>,
    ) -> Result<(Seconds, usize), NumericError> {
        if !(0.0 < f && f < 1.0) {
            return Err(NumericError::InvalidInput(format!(
                "delay threshold must lie in (0, 1), got {f}"
            )));
        }
        counter!("twopole.delay.solves").incr();
        if rlckit_fault::faultpoint!("twopole.delay") {
            return Err(NumericError::InjectedFault {
                site: "twopole.delay",
            });
        }
        // The response rises monotonically from 0 towards its first
        // maximum (underdamped) or towards 1 (otherwise), so the first
        // crossing is unique inside the bracket below.
        let damping = self.damping();
        match damping {
            Damping::Overdamped => counter!("twopole.delay.damping.overdamped").incr(),
            Damping::CriticallyDamped => counter!("twopole.delay.damping.critical").incr(),
            Damping::Underdamped => counter!("twopole.delay.damping.underdamped").incr(),
        }
        let (t_hi, f_hi) = match damping {
            Damping::Underdamped => {
                // First peak at t = π/ω_d, where v ≥ 1 > f.
                let omega_d = (-self.discriminant()).sqrt() / (2.0 * self.b2);
                let t = core::f64::consts::PI / omega_d;
                (t, self.response(t) - f)
            }
            _ => {
                // v → 1 monotonically: expand until v(t) > f, with a
                // hard cap on the doublings. Degenerate moments (e.g. a
                // slow pole rounded to exactly zero) make the response
                // plateau below f; uncapped, the loop would spin t to
                // ±∞ and feed NaN into the solver — a parallel sweep
                // must never wedge a worker thread on such a point.
                const MAX_DOUBLINGS: usize = 64;
                let mut t = 2.0 * self.b1;
                let mut v = self.response(t);
                let mut doublings = 0;
                while v < f {
                    if doublings >= MAX_DOUBLINGS || !t.is_finite() {
                        counter!("twopole.delay.failures").incr();
                        return Err(NumericError::NoConvergence {
                            iterations: doublings,
                            residual: f - v,
                        });
                    }
                    t *= 2.0;
                    doublings += 1;
                    v = self.response(t);
                }
                histogram!("twopole.delay.bracket_doublings").observe(doublings as u64);
                // The accepted expansion endpoint doubles as the upper
                // seed residual: the solver used to re-evaluate v(t_hi)
                // immediately after this loop computed it.
                (t, v - f)
            }
        };
        let options = RootOptions {
            x_tol: 1e-12,
            f_tol: 1e-12,
            max_iterations: 200,
        };
        // Seeded endpoints: v(0) = 0 exactly, so the lower residual is
        // 0.0 - f (the identical bits an unseeded solve computes), and
        // f_hi comes from the bracket search above. The fused
        // response+derivative evaluation shares the pole/exponential
        // subexpressions per iteration; the iterate sequence is
        // bit-identical to separate response and derivative calls.
        let root = newton_bracketed_fdf(
            |t| {
                let (v, dv) = self.response_with_derivative(t);
                (v - f, dv)
            },
            0.0,
            t_hi,
            Some((0.0 - f, f_hi)),
            start,
            options,
        )
        .inspect_err(|_| counter!("twopole.delay.failures").incr())?;
        histogram!("twopole.delay.iterations").observe(root.iterations as u64);
        Ok((Seconds::new(root.x), root.iterations))
    }

    /// The 10–90 % rise time of the step response: the gap between the
    /// 90 % and 10 % crossings. Together with the clock period this sets
    /// the signal-integrity regime the paper's §1.1 discusses (shorter
    /// rise times make inductance matter more).
    ///
    /// # Errors
    ///
    /// Propagates [`TwoPole::delay`] failures (none for valid models).
    pub fn rise_time(&self) -> Result<Seconds, NumericError> {
        let t10 = self.delay(0.1)?;
        let t90 = self.delay(0.9)?;
        Ok(Seconds::new(t90.get() - t10.get()))
    }

    /// First overshoot `(time, peak value)` of an underdamped response:
    /// `t_p = π/ω_d`, `v(t_p) = 1 + e^{−απ/ω_d}`.
    ///
    /// Returns `None` unless the system is underdamped.
    #[must_use]
    pub fn overshoot(&self) -> Option<(Seconds, f64)> {
        if self.damping() != Damping::Underdamped {
            return None;
        }
        let alpha = self.b1 / (2.0 * self.b2);
        let omega_d = (-self.discriminant()).sqrt() / (2.0 * self.b2);
        let t = core::f64::consts::PI / omega_d;
        Some((Seconds::new(t), 1.0 + (-alpha * t).exp()))
    }

    /// First undershoot `(time, trough value)` of an underdamped
    /// response: `t = 2π/ω_d`, `v = 1 − e^{−2απ/ω_d}`.
    ///
    /// This trough is what falsely switches a downstream inverter when it
    /// dips below the threshold (paper §3.3.1).
    ///
    /// Returns `None` unless the system is underdamped.
    #[must_use]
    pub fn undershoot(&self) -> Option<(Seconds, f64)> {
        if self.damping() != Damping::Underdamped {
            return None;
        }
        let alpha = self.b1 / (2.0 * self.b2);
        let omega_d = (-self.discriminant()).sqrt() / (2.0 * self.b2);
        let t = 2.0 * core::f64::consts::PI / omega_d;
        Some((Seconds::new(t), 1.0 - (-alpha * t).exp()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damping_classification() {
        assert_eq!(TwoPole::new(1.0, 0.1).damping(), Damping::Overdamped);
        assert_eq!(TwoPole::new(1.0, 0.25).damping(), Damping::CriticallyDamped);
        assert_eq!(TwoPole::new(1.0, 1.0).damping(), Damping::Underdamped);
    }

    #[test]
    fn response_limits() {
        for tp in [
            TwoPole::new(1.0, 0.1),
            TwoPole::new(1.0, 0.25),
            TwoPole::new(1.0, 1.0),
        ] {
            assert_eq!(tp.response(0.0), 0.0);
            assert_eq!(tp.response(-1.0), 0.0);
            assert!((tp.response(100.0) - 1.0).abs() < 1e-6, "{tp:?}");
        }
    }

    #[test]
    fn response_is_continuous_across_critical_boundary() {
        // b₂ slightly above/below b₁²/4 must give nearly identical curves.
        let b1 = 1.0;
        let just_over = TwoPole::new(b1, 0.25 * (1.0 - 1e-10));
        let just_under = TwoPole::new(b1, 0.25 * (1.0 + 1e-10));
        let critical = TwoPole::new(b1, 0.25);
        for t in [0.1, 0.5, 1.0, 2.0, 5.0] {
            let vc = critical.response(t);
            assert!((just_over.response(t) - vc).abs() < 1e-7, "t={t}");
            assert!((just_under.response(t) - vc).abs() < 1e-7, "t={t}");
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for tp in [
            TwoPole::new(1.0, 0.05),
            TwoPole::new(1.0, 0.25),
            TwoPole::new(1.0, 2.0),
        ] {
            for t in [0.2, 1.0, 3.0] {
                let fd = (tp.response(t + 1e-7) - tp.response(t - 1e-7)) / 2e-7;
                let an = tp.response_derivative(t);
                assert!((fd - an).abs() < 1e-5, "{tp:?} t={t}: {fd} vs {an}");
            }
        }
    }

    #[test]
    fn single_pole_limit_gives_exponential_delay() {
        // b₂ → 0 degenerates to 1/(1+b₁s): v = 1 − e^{−t/b₁},
        // so the 50 % delay is ln(2)·b₁.
        let b1 = 2.0e-10;
        let tp = TwoPole::new(b1, 1e-8 * b1 * b1);
        let d = tp.delay(0.5).unwrap();
        assert!((d.get() / (core::f64::consts::LN_2 * b1) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn underdamped_delay_matches_closed_form_crossing() {
        // ζ = 0.5, ωn = 1: solve by dense sampling as a reference.
        let tp = TwoPole::new(1.0, 1.0);
        let d = tp.delay(0.5).unwrap().get();
        // Reference by fine scan.
        let mut t_ref = 0.0;
        let mut prev = 0.0;
        for i in 1..2_000_000 {
            let t = i as f64 * 2e-6;
            let v = tp.response(t);
            if prev < 0.5 && v >= 0.5 {
                t_ref = t;
                break;
            }
            prev = v;
        }
        assert!((d - t_ref).abs() < 1e-5, "{d} vs {t_ref}");
    }

    #[test]
    fn delay_converges_in_few_iterations() {
        // The paper reports ≤ 4 Newton iterations; with the safeguarded
        // bracket and mid-point start we allow a small margin.
        for (b1, b2) in [(1.0, 0.03), (1.0, 0.2), (1.0, 0.25), (1.0, 0.5), (1.0, 4.0)] {
            let (_, iters) = TwoPole::new(b1, b2).delay_with_iterations(0.5).unwrap();
            assert!(iters <= 8, "b2={b2}: {iters} iterations");
        }
    }

    #[test]
    fn delay_is_monotone_in_threshold() {
        let tp = TwoPole::new(1.0, 0.5);
        let mut last = 0.0;
        for f in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let d = tp.delay(f).unwrap().get();
            assert!(d > last);
            last = d;
        }
    }

    #[test]
    fn degenerate_plateau_fails_fast_instead_of_expanding_to_infinity() {
        // Regression: with b₂ this extreme the slow pole rounds to
        // exactly 0, so the step response evaluates to 0 for every t —
        // a plateau below any threshold. The uncapped bracket expansion
        // used to double t all the way to ∞ (~1070 iterations) and then
        // run the root solver on NaN values for its whole 200-iteration
        // budget. The capped expansion must give up within its 64
        // doublings.
        let tp = TwoPole::new(1.0, 1e-300);
        assert_eq!(tp.response(1e6), 0.0, "precondition: plateau at 0");
        match tp.delay(0.5) {
            Err(NumericError::NoConvergence { iterations, residual }) => {
                assert!(iterations <= 64, "expansion not capped: {iterations}");
                assert!((residual - 0.5).abs() < 1e-12, "residual {residual}");
            }
            other => panic!("plateau must fail with NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn delay_rejects_out_of_range_threshold() {
        let tp = TwoPole::new(1.0, 0.5);
        assert!(tp.delay(0.0).is_err());
        assert!(tp.delay(1.0).is_err());
        assert!(tp.delay(-0.5).is_err());
    }

    #[test]
    fn rise_time_behaviour() {
        // Single-pole limit: 10–90 % rise ≈ 2.197·b₁ (= ln 9).
        let b1 = 1e-10;
        let tp = TwoPole::new(b1, 1e-8 * b1 * b1);
        let tr = tp.rise_time().unwrap().get();
        assert!((tr / (b1 * (9.0f64).ln()) - 1.0).abs() < 1e-3, "tr = {tr:e}");
        // Underdamped systems rise faster than overdamped ones at equal b₁.
        let over = TwoPole::new(1.0, 0.05).rise_time().unwrap().get();
        let under = TwoPole::new(1.0, 1.0).rise_time().unwrap().get();
        assert!(under < over);
    }

    #[test]
    fn overshoot_and_undershoot_formulas() {
        // ζ = 0.2: textbook overshoot exp(−ζπ/√(1−ζ²)).
        let zeta: f64 = 0.2;
        let wn = 1e9;
        let b2 = 1.0 / (wn * wn);
        let b1 = 2.0 * zeta / wn;
        let tp = TwoPole::new(b1, b2);
        let (_, peak) = tp.overshoot().unwrap();
        let want = 1.0 + (-zeta * core::f64::consts::PI / (1.0 - zeta * zeta).sqrt()).exp();
        assert!((peak - want).abs() < 1e-12);
        let (_, trough) = tp.undershoot().unwrap();
        let want = 1.0 - (-2.0 * zeta * core::f64::consts::PI / (1.0 - zeta * zeta).sqrt()).exp();
        assert!((trough - want).abs() < 1e-12);
        // Peak value agrees with the response evaluated at the peak time.
        let (tpk, peak) = tp.overshoot().unwrap();
        assert!((tp.response(tpk.get()) - peak).abs() < 1e-9);
    }

    #[test]
    fn no_overshoot_when_overdamped() {
        let tp = TwoPole::new(1.0, 0.1);
        assert!(tp.overshoot().is_none());
        assert!(tp.undershoot().is_none());
    }

    #[test]
    fn poles_satisfy_characteristic_equation() {
        let tp = TwoPole::new(3e-10, 4e-20);
        for p in tp.poles() {
            let res = Complex::ONE + p * tp.b1() + p * p * tp.b2();
            assert!(res.abs() < 1e-9, "residual {res}");
            assert!(p.re < 0.0, "stable pole");
        }
    }

    #[test]
    fn damping_ratio_and_natural_frequency() {
        let tp = TwoPole::new(1.0, 0.25);
        assert!((tp.damping_ratio() - 1.0).abs() < 1e-12);
        assert!((tp.natural_frequency() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn try_new_rejects_degenerate_moments_without_panicking() {
        // Regression for the campaign-panic bug: degenerate sweep points
        // and perturbed optimizer restarts can produce non-positive
        // moments; `try_new` must surface them as the non-retryable
        // InvalidInput class, never a panic.
        for (b1, b2) in [
            (0.0, 1.0),
            (1.0, 0.0),
            (-1.0, 1.0),
            (1.0, -1e-3),
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (1.0, f64::INFINITY),
        ] {
            match TwoPole::try_new(b1, b2) {
                Err(NumericError::InvalidInput(msg)) => {
                    assert!(msg.contains("two-pole moments"), "{msg}")
                }
                other => panic!("b1={b1} b2={b2}: expected InvalidInput, got {other:?}"),
            }
        }
        assert!(TwoPole::try_new(1.0, 0.25).is_ok());
    }

    /// The pre-fusion delay path, reconstructed: plain bracket expansion
    /// (inputs below are all non-degenerate), separate response and
    /// derivative calls, unseeded endpoints and a cold start.
    fn reference_delay(tp: &TwoPole, f: f64) -> f64 {
        let t_hi = match tp.damping() {
            Damping::Underdamped => {
                let omega_d = (-tp.discriminant()).sqrt() / (2.0 * tp.b2());
                core::f64::consts::PI / omega_d
            }
            _ => {
                let mut t = 2.0 * tp.b1();
                while tp.response(t) < f {
                    t *= 2.0;
                }
                t
            }
        };
        let options = RootOptions {
            x_tol: 1e-12,
            f_tol: 1e-12,
            max_iterations: 200,
        };
        newton_bracketed_fdf(
            |t| (tp.response(t) - f, tp.response_derivative(t)),
            0.0,
            t_hi,
            None,
            None,
            options,
        )
        .expect("reference solve converges on these inputs")
        .x
    }

    #[test]
    fn fused_delay_is_bit_identical_to_the_unfused_reference() {
        // The fused response+derivative evaluation and the seeded
        // endpoints are pure call-count optimizations: every damping
        // regime, time scale and threshold must reproduce the original
        // iterate sequence bit-for-bit.
        for b1 in [1.0, 2e-10, 7.3e-9] {
            for ratio in [0.01, 0.2, 0.25, 0.25 * (1.0 + 1e-10), 0.3, 1.0, 4.0] {
                let tp = TwoPole::new(b1, ratio * b1 * b1);
                for f in [0.1, 0.5, 0.9] {
                    let got = tp.delay(f).unwrap().get();
                    let want = reference_delay(&tp, f);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "b1={b1} ratio={ratio} f={f}: {got:e} vs {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_start_finds_the_same_crossing_in_fewer_iterations() {
        for (b1, b2) in [(1.0, 0.03), (1.0, 0.25), (1.0, 1.0), (2e-10, 4e-20)] {
            let tp = TwoPole::new(b1, b2);
            for f in [0.1, 0.5, 0.9] {
                let (cold, cold_iters) = tp.delay_with_iterations(f).unwrap();
                let (warm, warm_iters) = tp.delay_from(f, Some(cold.get() * 1.001)).unwrap();
                assert!((warm.get() / cold.get() - 1.0).abs() < 1e-11, "b2={b2} f={f}");
                assert!(warm_iters <= cold_iters, "b2={b2} f={f}: {warm_iters} > {cold_iters}");
                // A start outside the bracket is the cold solve, bit for bit.
                let (far, far_iters) = tp.delay_from(f, Some(-cold.get())).unwrap();
                assert_eq!(far.get().to_bits(), cold.get().to_bits());
                assert_eq!(far_iters, cold_iters);
            }
        }
    }

    #[test]
    fn fused_response_matches_standalone_methods_bitwise() {
        for tp in [
            TwoPole::new(1.0, 0.05),
            TwoPole::new(1.0, 0.25),
            TwoPole::new(1.0, 2.0),
            TwoPole::new(3e-10, 4e-20),
        ] {
            for t in [-1.0, 0.0, 1e-12, 0.2, 1.0, 3.0, 40.0] {
                let t = t * tp.b1(); // scale the probe times to the model's time constant
                let (v, dv) = tp.response_with_derivative(t);
                assert_eq!(v.to_bits(), tp.response(t).to_bits(), "{tp:?} t={t}");
                assert_eq!(dv.to_bits(), tp.response_derivative(t).to_bits(), "{tp:?} t={t}");
            }
        }
    }
}
