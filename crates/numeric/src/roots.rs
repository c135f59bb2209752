//! Scalar root finding.
//!
//! The paper's delay computation solves the transcendental crossing
//! equation (Eq. 3) with Newton–Raphson. Every delay solve runs
//! [`newton_bracketed_fdf`], which keeps a sign-change bracket and falls
//! back to bisection inside it when a Newton step leaves it; that keeps
//! the solve globally convergent far from the asymptotic regime.
//! [`newton_raphson`] is the plain method and [`brent`] the
//! derivative-free bracketed solver.

use crate::{NumericError, Result};
use rlckit_trace::{counter, histogram, Counter, Histogram};

/// Records the outcome of a scalar root solve: iterations histogram on
/// success, budget-exhaustion counter on a spent budget. Pure
/// telemetry — never alters the result.
fn tally_root(
    iterations: &'static Histogram,
    budget_exhausted: &'static Counter,
    result: &Result<Root>,
) {
    match result {
        Ok(root) => iterations.observe(root.iterations as u64),
        Err(NumericError::NoConvergence { .. }) => budget_exhausted.incr(),
        Err(_) => {}
    }
}

/// Options controlling an iterative root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootOptions {
    /// Absolute tolerance on the abscissa.
    pub x_tol: f64,
    /// Absolute tolerance on the residual.
    pub f_tol: f64,
    /// Iteration budget.
    pub max_iterations: usize,
}

impl Default for RootOptions {
    fn default() -> Self {
        Self {
            x_tol: 1e-14,
            f_tol: 1e-14,
            max_iterations: 100,
        }
    }
}

/// The result of a converged root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Root {
    /// Abscissa of the root.
    pub x: f64,
    /// Residual at the returned abscissa.
    pub residual: f64,
    /// Number of iterations spent.
    pub iterations: usize,
}

/// Finds a root of `f` by Newton–Raphson from `x0` using derivative `df`.
///
/// Convergence is declared when either the step or the residual falls
/// below the configured tolerances.
///
/// # Errors
///
/// Returns [`NumericError::NoConvergence`] if the iteration budget is
/// exhausted, [`NumericError::InvalidInput`] if the derivative
/// vanishes, and [`NumericError::NonFiniteResidual`] if an iterate or
/// residual becomes non-finite.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::roots::{newton_raphson, RootOptions};
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let root = newton_raphson(|x| x * x - 2.0, |x| 2.0 * x, 1.0, RootOptions::default())?;
/// assert!((root.x - 2.0_f64.sqrt()).abs() < 1e-12);
/// assert!(root.iterations <= 8);
/// # Ok(())
/// # }
/// ```
pub fn newton_raphson(
    f: impl FnMut(f64) -> f64,
    df: impl FnMut(f64) -> f64,
    x0: f64,
    options: RootOptions,
) -> Result<Root> {
    counter!("roots.newton_raphson.solves").incr();
    if rlckit_fault::faultpoint!("roots.newton_raphson") {
        return Err(NumericError::InjectedFault {
            site: "roots.newton_raphson",
        });
    }
    let result = newton_raphson_impl(f, df, x0, options);
    tally_root(
        histogram!("roots.newton_raphson.iterations"),
        counter!("roots.newton_raphson.budget_exhausted"),
        &result,
    );
    result
}

fn newton_raphson_impl(
    mut f: impl FnMut(f64) -> f64,
    mut df: impl FnMut(f64) -> f64,
    x0: f64,
    options: RootOptions,
) -> Result<Root> {
    let mut x = x0;
    for iteration in 1..=options.max_iterations {
        let fx = f(x);
        if !fx.is_finite() {
            return Err(NumericError::NonFiniteResidual { at: x, iteration });
        }
        if fx.abs() <= options.f_tol {
            return Ok(Root {
                x,
                residual: fx,
                iterations: iteration - 1,
            });
        }
        let dfx = df(x);
        if dfx == 0.0 || !dfx.is_finite() {
            return Err(NumericError::InvalidInput(format!(
                "derivative vanished at x = {x:.6e}"
            )));
        }
        let step = fx / dfx;
        x -= step;
        if !x.is_finite() {
            return Err(NumericError::NonFiniteResidual { at: x, iteration });
        }
        if step.abs() <= options.x_tol * x.abs().max(1.0) {
            return Ok(Root {
                x,
                residual: f(x),
                iterations: iteration,
            });
        }
    }
    Err(NumericError::NoConvergence {
        iterations: options.max_iterations,
        residual: f(x).abs(),
    })
}

/// Finds a root of `f` in `[lo, hi]` by Brent's method.
///
/// Combines bisection, secant and inverse quadratic interpolation; this is
/// the derivative-free workhorse used when Newton's method is not safe.
///
/// # Errors
///
/// Returns [`NumericError::InvalidBracket`] if the interval does not
/// bracket a sign change, and [`NumericError::NoConvergence`] if the
/// budget is exhausted.
pub fn brent(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    options: RootOptions,
) -> Result<Root> {
    let (mut a, mut b) = (lo, hi);
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(Root {
            x: a,
            residual: 0.0,
            iterations: 0,
        });
    }
    if fb == 0.0 {
        return Ok(Root {
            x: b,
            residual: 0.0,
            iterations: 0,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(NumericError::InvalidBracket { lo, hi });
    }
    if fa.abs() < fb.abs() {
        core::mem::swap(&mut a, &mut b);
        core::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;

    for iteration in 1..=options.max_iterations {
        if fb.abs() <= options.f_tol {
            return Ok(Root {
                x: b,
                residual: fb,
                iterations: iteration - 1,
            });
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };

        let cond_interval = {
            let lo_q = (3.0 * a + b) / 4.0;
            let (lo_q, hi_q) = if lo_q < b { (lo_q, b) } else { (b, lo_q) };
            s < lo_q || s > hi_q
        };
        let cond_step = if mflag {
            (s - b).abs() >= (b - c).abs() / 2.0
        } else {
            (s - b).abs() >= (c - d).abs() / 2.0
        };
        let cond_tol = if mflag {
            (b - c).abs() < options.x_tol
        } else {
            (c - d).abs() < options.x_tol
        };
        if cond_interval || cond_step || cond_tol {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }

        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            core::mem::swap(&mut a, &mut b);
            core::mem::swap(&mut fa, &mut fb);
        }
        if (b - a).abs() <= options.x_tol * b.abs().max(1.0) {
            return Ok(Root {
                x: b,
                residual: fb,
                iterations: iteration,
            });
        }
    }
    Err(NumericError::NoConvergence {
        iterations: options.max_iterations,
        residual: fb.abs(),
    })
}

/// Newton–Raphson with an automatic bisection fallback on a bracket.
///
/// The Newton iterate is accepted only while it stays inside the current
/// bracket; otherwise the step falls back to bisection. This retains the
/// quadratic convergence the paper reports (≤ 4 iterations) while being
/// globally convergent on a valid bracket.
///
/// `fdf(x)` returns `(f(x), f'(x))` in one call — the two-pole step
/// response and its derivative share their discriminant, pole and
/// exponential subexpressions, so the fused evaluation costs barely
/// more than either alone. `seed`, when `Some((f_lo, f_hi))`, supplies
/// the residuals at `lo` and `hi` so the solver does not re-evaluate
/// endpoints the caller has already computed (the delay solve's bracket
/// expansion ends on exactly such an evaluation). `start`, when it lies
/// strictly inside the bracket, replaces the midpoint as the first
/// iterate (a warm start from a nearby solve); otherwise — `None`,
/// outside, or NaN — the solve starts at the midpoint.
///
/// A seeded solve returns the same [`Root`], bit for bit, as an
/// unseeded one whenever the seeded residuals equal `fdf(lo).0` and
/// `fdf(hi).0`: seeding changes only the number of `fdf` calls.
///
/// # Errors
///
/// Returns [`NumericError::InvalidBracket`] if `[lo, hi]` does not bracket
/// a root, and [`NumericError::NoConvergence`] on budget exhaustion.
pub fn newton_bracketed_fdf(
    fdf: impl FnMut(f64) -> (f64, f64),
    lo: f64,
    hi: f64,
    seed: Option<(f64, f64)>,
    start: Option<f64>,
    options: RootOptions,
) -> Result<Root> {
    counter!("roots.newton_bracketed.solves").incr();
    if rlckit_fault::faultpoint!("roots.newton_bracketed") {
        return Err(NumericError::InjectedFault {
            site: "roots.newton_bracketed",
        });
    }
    let result = newton_bracketed_fdf_impl(fdf, lo, hi, seed, start, options);
    tally_root(
        histogram!("roots.newton_bracketed.iterations"),
        counter!("roots.newton_bracketed.budget_exhausted"),
        &result,
    );
    result
}

fn newton_bracketed_fdf_impl(
    mut fdf: impl FnMut(f64) -> (f64, f64),
    lo: f64,
    hi: f64,
    seed: Option<(f64, f64)>,
    start: Option<f64>,
    options: RootOptions,
) -> Result<Root> {
    let (mut a, mut b) = (lo.min(hi), lo.max(hi));
    // Seeded residuals arrive in (lo, hi) order; swap with the endpoints.
    let seed = seed.map(|(f_lo, f_hi)| if lo <= hi { (f_lo, f_hi) } else { (f_hi, f_lo) });
    let mut fa = seed.map_or_else(|| fdf(a).0, |(f_a, _)| f_a);
    let fb = seed.map_or_else(|| fdf(b).0, |(_, f_b)| f_b);
    if fa == 0.0 {
        return Ok(Root {
            x: a,
            residual: 0.0,
            iterations: 0,
        });
    }
    if fb == 0.0 {
        return Ok(Root {
            x: b,
            residual: 0.0,
            iterations: 0,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(NumericError::InvalidBracket { lo: a, hi: b });
    }

    let mut x = match start {
        Some(x) if x > a && x < b => x,
        _ => 0.5 * (a + b),
    };
    let mut eval = fdf(x);
    for iteration in 1..=options.max_iterations {
        let (fx, dfx) = eval;
        if fx.abs() <= options.f_tol {
            return Ok(Root {
                x,
                residual: fx,
                iterations: iteration,
            });
        }
        // Maintain the bracket.
        if fx.signum() == fa.signum() {
            a = x;
            fa = fx;
        } else {
            b = x;
        }
        let newton = if dfx != 0.0 { x - fx / dfx } else { f64::NAN };
        let next = if newton.is_finite() && newton > a && newton < b {
            newton
        } else {
            counter!("roots.newton_bracketed.bisection_fallbacks").incr();
            0.5 * (a + b)
        };
        // One fused evaluation serves both the small-step residual check
        // below and the next iteration's (fx, dfx).
        let next_eval = fdf(next);
        if (next - x).abs() <= options.x_tol * x.abs().max(1.0) {
            // A tiny step alone is not convergence: near a very steep
            // (or jump-like) crossing the bracket collapses while the
            // residual stays large. Declare a root only if the residual
            // at `next` actually meets `f_tol`; otherwise keep
            // iterating and let the budget produce an honest
            // `NoConvergence`.
            let f_next = next_eval.0;
            if f_next.abs() <= options.f_tol {
                return Ok(Root {
                    x: next,
                    residual: f_next,
                    iterations: iteration,
                });
            }
        }
        x = next;
        eval = next_eval;
    }
    Err(NumericError::NoConvergence {
        iterations: options.max_iterations,
        residual: eval.0.abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newton_converges_quadratically() {
        let root =
            newton_raphson(|x| x * x - 2.0, |x| 2.0 * x, 1.5, RootOptions::default()).unwrap();
        assert!((root.x - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(root.iterations <= 6);
    }

    #[test]
    fn newton_reports_vanishing_derivative() {
        let err = newton_raphson(|x| x * x + 1.0, |x| 2.0 * x, 0.0, RootOptions::default());
        assert!(matches!(err, Err(NumericError::InvalidInput(_))));
    }

    #[test]
    fn brent_on_transcendental() {
        let root = brent(|x| x.cos() - x, 0.0, 1.0, RootOptions::default()).unwrap();
        assert!((root.x - 0.7390851332151607).abs() < 1e-12);
        assert!(root.iterations < 20);
    }

    #[test]
    fn brent_handles_flat_regions() {
        // f has a wide flat region; Brent must still converge.
        let f = |x: f64| (x - 2.0).powi(3);
        let root = brent(f, 0.0, 5.0, RootOptions::default()).unwrap();
        assert!((root.x - 2.0).abs() < 1e-4);
    }

    #[test]
    fn newton_bracketed_is_safe_and_fast() {
        // An equation like the paper's Eq. (3): exponential crossing.
        let fdf = |t: f64| (0.5 - (-t).exp(), (-t).exp());
        let root =
            newton_bracketed_fdf(fdf, 0.0, 10.0, None, None, RootOptions::default()).unwrap();
        assert!((root.x - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(root.iterations <= 8);
    }

    /// A jump-like (infinitely steep) crossing at 0.5 that reports a
    /// zero derivative everywhere.
    fn jump(x: f64) -> (f64, f64) {
        (if x < 0.5 { -1.0 } else { 1.0 }, 0.0)
    }

    #[test]
    fn newton_bracketed_rejects_stale_step_with_large_residual() {
        // Regression: a jump-like crossing collapses the bisection
        // bracket until the step is below x_tol while the residual stays
        // at ±1. The small-step early return used to declare this a
        // converged `Root` with |residual| = 1 ≫ f_tol; it must instead
        // run to an honest NoConvergence.
        let result = newton_bracketed_fdf(jump, 0.0, 1.0, None, None, RootOptions::default());
        match result {
            Err(NumericError::NoConvergence { residual, .. }) => {
                assert!((residual - 1.0).abs() < 1e-12, "residual {residual}")
            }
            other => panic!("jump crossing must not converge, got {other:?}"),
        }
    }

    #[test]
    fn seeded_newton_bracketed_rejects_stale_step_with_large_residual() {
        // The delay solve seeds its endpoint residuals: the same jump
        // with the true residuals at 0 and 1 handed in must fail the
        // same way.
        let seed = Some((jump(0.0).0, jump(1.0).0));
        let result = newton_bracketed_fdf(jump, 0.0, 1.0, seed, None, RootOptions::default());
        match result {
            Err(NumericError::NoConvergence { residual, .. }) => {
                assert!((residual - 1.0).abs() < 1e-12, "residual {residual}")
            }
            other => panic!("jump crossing must not converge, got {other:?}"),
        }
    }

    #[test]
    fn newton_bracketed_converged_roots_always_meet_f_tol() {
        // Companion invariant to the regression above: every Ok result
        // honours the residual tolerance, steep crossings included.
        let options = RootOptions::default();
        for steepness in [1.0, 1e3, 1e9] {
            let fdf = |x: f64| (steepness * (x - 0.3), steepness);
            let root = newton_bracketed_fdf(fdf, 0.0, 1.0, None, None, options).unwrap();
            assert!(
                root.residual.abs() <= options.f_tol,
                "steepness {steepness}: residual {:e}",
                root.residual
            );
        }
    }

    #[test]
    fn newton_bracketed_survives_bad_derivative() {
        // Derivative lies wildly; bisection fallback must still converge.
        let fdf = |x: f64| (x - 3.0, 1e-30);
        let root =
            newton_bracketed_fdf(fdf, 0.0, 10.0, None, None, RootOptions::default()).unwrap();
        assert!((root.x - 3.0).abs() < 1e-9);
    }

    #[test]
    fn warm_started_bracketed_newton_keeps_the_root() {
        // A start inside the bracket replaces the midpoint and converges
        // to the same root in fewer iterations; a start outside the
        // bracket (or NaN) is ignored bit for bit.
        let fdf = |t: f64| (0.5 - (-t).exp(), (-t).exp());
        let cold =
            newton_bracketed_fdf(fdf, 0.0, 10.0, None, None, RootOptions::default()).unwrap();
        let warm =
            newton_bracketed_fdf(fdf, 0.0, 10.0, None, Some(0.7), RootOptions::default()).unwrap();
        assert!((warm.x - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(warm.iterations < cold.iterations, "{warm:?} vs {cold:?}");
        for start in [
            Some(-1.0),
            Some(0.0),
            Some(10.0),
            Some(12.0),
            Some(f64::NAN),
        ] {
            let ignored =
                newton_bracketed_fdf(fdf, 0.0, 10.0, None, start, RootOptions::default()).unwrap();
            assert_eq!(ignored.x.to_bits(), cold.x.to_bits(), "{start:?}");
            assert_eq!(ignored.iterations, cold.iterations, "{start:?}");
        }
    }
}
