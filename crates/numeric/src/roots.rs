//! Scalar and small-system root finding.
//!
//! The paper's delay computation solves the transcendental crossing
//! equation (Eq. 3) with Newton–Raphson; this module provides that solver
//! plus the bracketing fallbacks that make it robust far from the
//! asymptotic regime, and a damped Newton for small nonlinear systems.

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

/// Finds a root of `f` in `[lo, hi]` by bisection.
///
/// # Errors
///
/// Returns [`NumericError::InvalidBracket`] if `f(lo)` and `f(hi)` have
/// the same sign, and [`NumericError::NoConvergence`] if the budget is
/// exhausted before the interval shrinks below tolerance.
pub fn bisection(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    options: RootOptions,
) -> Result<Root> {
    let (mut a, mut b) = (lo.min(hi), lo.max(hi));
    let mut fa = f(a);
    let fb = f(b);
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
    for iteration in 1..=options.max_iterations {
        let mid = 0.5 * (a + b);
        let fm = f(mid);
        if fm == 0.0 || (b - a) <= options.x_tol * mid.abs().max(1.0) {
            return Ok(Root {
                x: mid,
                residual: fm,
                iterations: iteration,
            });
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    Err(NumericError::NoConvergence {
        iterations: options.max_iterations,
        residual: f(0.5 * (a + b)).abs(),
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

/// Expands `[lo, hi]` geometrically until it brackets a sign change of `f`.
///
/// Returns the bracketing interval.
///
/// # Errors
///
/// Returns [`NumericError::InvalidBracket`] if no sign change is found
/// within `max_expansions` doublings, or if an endpoint or function
/// value becomes non-finite during the expansion (a runaway search —
/// e.g. a rootless `f` driven past the floating-point range — must not
/// feed ±∞/NaN into downstream solvers).
pub fn expand_bracket(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    max_expansions: usize,
) -> Result<(f64, f64)> {
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    let mut fb = f(b);
    for expansion in 0..max_expansions {
        if !(a.is_finite() && b.is_finite() && fa.is_finite() && fb.is_finite()) {
            counter!("roots.expand_bracket.failures").incr();
            return Err(NumericError::InvalidBracket { lo: a, hi: b });
        }
        if fa.signum() != fb.signum() {
            histogram!("roots.expand_bracket.expansions").observe(expansion as u64);
            return Ok((a, b));
        }
        // zbrac-style: move the endpoint whose |f| is *smaller* — that
        // side sits closer to a crossing, so pushing it outward hunts
        // the root fastest.
        if fa.abs() < fb.abs() {
            a -= 1.6 * (b - a);
            fa = f(a);
        } else {
            b += 1.6 * (b - a);
            fb = f(b);
        }
    }
    counter!("roots.expand_bracket.failures").incr();
    Err(NumericError::InvalidBracket { lo: a, hi: b })
}

/// Newton–Raphson with an automatic bisection fallback on a bracket.
///
/// The Newton iterate is accepted only while it stays inside the current
/// bracket; otherwise the step falls back to bisection. This retains the
/// quadratic convergence the paper reports (≤ 4 iterations) while being
/// globally convergent on a valid bracket.
///
/// # Errors
///
/// Returns [`NumericError::InvalidBracket`] if `[lo, hi]` does not bracket
/// a root, and [`NumericError::NoConvergence`] on budget exhaustion.
pub fn newton_bracketed(
    f: impl FnMut(f64) -> f64,
    df: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    options: RootOptions,
) -> Result<Root> {
    counter!("roots.newton_bracketed.solves").incr();
    if rlckit_fault::faultpoint!("roots.newton_bracketed") {
        return Err(NumericError::InjectedFault {
            site: "roots.newton_bracketed",
        });
    }
    let result = newton_bracketed_impl(f, df, lo, hi, options);
    tally_root(
        histogram!("roots.newton_bracketed.iterations"),
        counter!("roots.newton_bracketed.budget_exhausted"),
        &result,
    );
    result
}

/// [`newton_bracketed`] for callers that can evaluate the function and
/// its derivative together, optionally seeding the endpoint residuals
/// and the first iterate.
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
/// With `start = None` the iterate sequence — and therefore the
/// returned [`Root`] — is bit-identical to [`newton_bracketed`] with
/// separate `f`/`df` closures, provided `fdf` returns the same bits as
/// the separate evaluations and the seeded residuals match
/// `f(lo)`/`f(hi)` exactly. Only the *number* of closure calls changes.
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
        // below and the next iteration's (fx, dfx) — the unfused solver
        // evaluates these separately at the identical abscissa.
        let next_eval = fdf(next);
        if (next - x).abs() <= options.x_tol * x.abs().max(1.0) {
            // Same honest-convergence rule as `newton_bracketed`: a tiny
            // step counts only if the residual actually meets `f_tol`.
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

fn newton_bracketed_impl(
    mut f: impl FnMut(f64) -> f64,
    mut df: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    options: RootOptions,
) -> Result<Root> {
    let (mut a, mut b) = (lo.min(hi), lo.max(hi));
    let mut fa = f(a);
    let fb = f(b);
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

    let mut x = 0.5 * (a + b);
    for iteration in 1..=options.max_iterations {
        let fx = f(x);
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
        let dfx = df(x);
        let newton = if dfx != 0.0 { x - fx / dfx } else { f64::NAN };
        let next = if newton.is_finite() && newton > a && newton < b {
            newton
        } else {
            counter!("roots.newton_bracketed.bisection_fallbacks").incr();
            0.5 * (a + b)
        };
        if (next - x).abs() <= options.x_tol * x.abs().max(1.0) {
            // A tiny step alone is not convergence: near a very steep
            // (or jump-like) crossing the bracket collapses while the
            // residual stays large. Declare a root only if the residual
            // at `next` actually meets `f_tol`; otherwise keep
            // iterating and let the budget produce an honest
            // `NoConvergence`.
            let f_next = f(next);
            if f_next.abs() <= options.f_tol {
                return Ok(Root {
                    x: next,
                    residual: f_next,
                    iterations: iteration,
                });
            }
        }
        x = next;
    }
    Err(NumericError::NoConvergence {
        iterations: options.max_iterations,
        residual: f(x).abs(),
    })
}

/// Result of a converged system Newton solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemRoot {
    /// Solution vector.
    pub x: Vec<f64>,
    /// Infinity norm of the residual at `x`.
    pub residual: f64,
    /// Number of Newton iterations spent.
    pub iterations: usize,
}

/// The infinity norm `max |vᵢ|` of `v`, NaN if any entry is NaN.
///
/// `f64::max` ignores a NaN operand, so a plain `fold(0.0, f64::max)`
/// reads a NaN residual as 0 — an exact root. [`newton_system`]'s line
/// search must see such a trial as the failure it is and backtrack.
#[must_use]
pub fn inf_norm(v: &[f64]) -> f64 {
    crate::stats::peak_abs(v)
}

/// Damped Newton for a small nonlinear system `F(x) = 0`.
///
/// The caller supplies the residual `f(x, &mut out)` and Jacobian
/// `jac(x, &mut out_matrix)` (row-major, dense). The step is damped by
/// halving until the residual norm does not increase (simple Armijo-type
/// backtracking), which is what lets the optimizer cross the
/// critically-damped manifold where the residual is non-smooth.
///
/// A trial whose residual is non-finite (NaN included, see
/// [`inf_norm`]) is rejected and the step halved.
///
/// Convergence requires the residual norm to meet `options.f_tol`, or
/// a full (undamped) Newton step under `options.x_tol` while improving.
/// A damped step is never taken as convergence on its size alone. If
/// the iteration budget runs out with the residual still above `f_tol`,
/// the solve fails.
///
/// # Errors
///
/// Returns [`NumericError::NoConvergence`] on budget exhaustion,
/// [`NumericError::SingularMatrix`] if the Jacobian is singular, or
/// [`NumericError::NonFiniteResidual`] if residuals become non-finite.
pub fn newton_system(
    f: impl FnMut(&[f64], &mut [f64]),
    jac: impl FnMut(&[f64], &mut crate::dense::Matrix),
    x0: &[f64],
    options: RootOptions,
) -> Result<SystemRoot> {
    counter!("roots.newton_system.solves").incr();
    if rlckit_fault::faultpoint!("roots.newton_system") {
        return Err(NumericError::InjectedFault {
            site: "roots.newton_system",
        });
    }
    let result = newton_system_impl(f, jac, x0, options);
    match &result {
        Ok(root) => {
            histogram!("roots.newton_system.iterations").observe(root.iterations as u64);
        }
        Err(NumericError::NoConvergence { .. }) => {
            counter!("roots.newton_system.budget_exhausted").incr();
        }
        Err(_) => {}
    }
    result
}

fn newton_system_impl(
    mut f: impl FnMut(&[f64], &mut [f64]),
    mut jac: impl FnMut(&[f64], &mut crate::dense::Matrix),
    x0: &[f64],
    options: RootOptions,
) -> Result<SystemRoot> {
    let n = x0.len();
    let mut x = x0.to_vec();
    let mut residual = vec![0.0; n];
    let mut jacobian = crate::dense::Matrix::zeros(n, n);

    f(&x, &mut residual);
    crate::injected_abort("roots.newton_system")?;
    let mut rnorm = inf_norm(&residual);
    for iteration in 1..=options.max_iterations {
        if !rnorm.is_finite() {
            return Err(NumericError::NonFiniteResidual {
                at: inf_norm(&x),
                iteration,
            });
        }
        if rnorm <= options.f_tol {
            return Ok(SystemRoot {
                x,
                residual: rnorm,
                iterations: iteration - 1,
            });
        }
        jac(&x, &mut jacobian);
        crate::injected_abort("roots.newton_system")?;
        let step = jacobian.lu()?.solve(&residual)?;

        // Backtracking line search on the residual norm.
        let mut lambda = 1.0f64;
        let mut accepted = false;
        let mut trial = vec![0.0; n];
        let mut trial_res = vec![0.0; n];
        for _ in 0..30 {
            for i in 0..n {
                trial[i] = x[i] - lambda * step[i];
            }
            f(&trial, &mut trial_res);
            // An injected fault inside a trial evaluation surfaces as a
            // NaN residual here; without this fail-stop the next
            // halving would re-evaluate cleanly and the solve would
            // "recover" onto a different (bit-drifted) iterate path.
            crate::injected_abort("roots.newton_system")?;
            let tnorm = inf_norm(&trial_res);
            if tnorm.is_finite() && tnorm < rnorm {
                x.copy_from_slice(&trial);
                residual.copy_from_slice(&trial_res);
                // A small step means convergence only when it is a full
                // Newton step or the residual meets `f_tol`: a step the
                // line search had to cut short is small because the
                // model is bad there, not because the root is near.
                let step_small = (lambda == 1.0 || tnorm <= options.f_tol)
                    && lambda * inf_norm(&step) <= options.x_tol * inf_norm(&x).max(1.0);
                rnorm = tnorm;
                accepted = true;
                if step_small {
                    return Ok(SystemRoot {
                        x,
                        residual: rnorm,
                        iterations: iteration,
                    });
                }
                break;
            }
            lambda *= 0.5;
        }
        if !accepted {
            counter!("roots.newton_system.line_search_stalls").incr();
            return Err(NumericError::NoConvergence {
                iterations: iteration,
                residual: rnorm,
            });
        }
    }
    Err(NumericError::NoConvergence {
        iterations: options.max_iterations,
        residual: rnorm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newton_converges_quadratically() {
        let root = newton_raphson(|x| x * x - 2.0, |x| 2.0 * x, 1.5, RootOptions::default())
            .unwrap();
        assert!((root.x - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(root.iterations <= 6);
    }

    #[test]
    fn newton_reports_vanishing_derivative() {
        let err = newton_raphson(|x| x * x + 1.0, |x| 2.0 * x, 0.0, RootOptions::default());
        assert!(matches!(err, Err(NumericError::InvalidInput(_))));
    }

    #[test]
    fn bisection_on_transcendental() {
        let root = bisection(|x| x.cos() - x, 0.0, 1.0, RootOptions::default()).unwrap();
        assert!((root.x - 0.7390851332151607).abs() < 1e-9);
    }

    #[test]
    fn bisection_rejects_bad_bracket() {
        let err = bisection(|x| x * x + 1.0, -1.0, 1.0, RootOptions::default());
        assert!(matches!(err, Err(NumericError::InvalidBracket { .. })));
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
    fn bracket_expansion_finds_sign_change() {
        let (a, b) = expand_bracket(|x| x - 100.0, 0.0, 1.0, 60).unwrap();
        assert!(a <= 100.0 && 100.0 <= b);
        assert!(expand_bracket(|x| x * x + 1.0, 0.0, 1.0, 10).is_err());
    }

    #[test]
    fn newton_bracketed_is_safe_and_fast() {
        // An equation like the paper's Eq. (3): exponential crossing.
        let f = |t: f64| 0.5 - (-t).exp();
        let df = |t: f64| (-t).exp();
        let root = newton_bracketed(f, df, 0.0, 10.0, RootOptions::default()).unwrap();
        assert!((root.x - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(root.iterations <= 8);
    }

    #[test]
    fn newton_bracketed_rejects_stale_step_with_large_residual() {
        // Regression: a jump-like crossing (infinitely steep) collapses
        // the bisection bracket until the step is below x_tol while the
        // residual stays at ±1. The small-step early return used to
        // declare this a converged `Root` with |residual| = 1 ≫ f_tol;
        // it must instead run to an honest NoConvergence.
        let jump = |x: f64| if x < 0.5 { -1.0 } else { 1.0 };
        let result = newton_bracketed(jump, |_| 0.0, 0.0, 1.0, RootOptions::default());
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
            let root = newton_bracketed(
                |x| steepness * (x - 0.3),
                move |_| steepness,
                0.0,
                1.0,
                options,
            )
            .unwrap();
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
        let root =
            newton_bracketed(|x| x - 3.0, |_| 1e-30, 0.0, 10.0, RootOptions::default()).unwrap();
        assert!((root.x - 3.0).abs() < 1e-9);
    }

    #[test]
    fn system_newton_on_rosenbrock_gradient() {
        // Roots of the gradient of Rosenbrock's function: (1, 1).
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
            out[1] = 200.0 * (x[1] - x[0] * x[0]);
        };
        let jac = |x: &[f64], m: &mut crate::dense::Matrix| {
            m[(0, 0)] = 2.0 - 400.0 * (x[1] - 3.0 * x[0] * x[0]);
            m[(0, 1)] = -400.0 * x[0];
            m[(1, 0)] = -400.0 * x[0];
            m[(1, 1)] = 200.0;
        };
        let sol = newton_system(
            f,
            jac,
            &[-0.5, 0.5],
            RootOptions {
                max_iterations: 200,
                ..RootOptions::default()
            },
        )
        .unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-8);
        assert!((sol.x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn system_newton_keeps_caller_f_tol_strict_on_budget_exhaustion() {
        // Regression: on budget exhaustion the solver used to accept
        // `rnorm <= f_tol.max(1e-9)`, silently overriding a stricter
        // caller-requested f_tol. Newton on `x³` contracts by 2/3 per
        // step, so a budget of 30 from `x₀ = 1` lands the residual near
        // 1.4e-16 — far above an `f_tol` of 1e-40, inside the old window.
        let f = |x: &[f64], out: &mut [f64]| out[0] = x[0] * x[0] * x[0];
        let jac = |x: &[f64], m: &mut crate::dense::Matrix| {
            m[(0, 0)] = 3.0 * x[0] * x[0];
        };
        let strict = RootOptions {
            f_tol: 1e-40,
            x_tol: 1e-30,
            max_iterations: 30,
        };
        match newton_system(f, jac, &[1.0], strict) {
            Err(NumericError::NoConvergence { residual, .. }) => {
                assert!(residual > 1e-40 && residual < 1e-9, "residual {residual:e}")
            }
            other => panic!("strict f_tol must not be loosened, got {other:?}"),
        }
    }

    #[test]
    fn system_newton_backtracks_from_nan_trials() {
        // Regression: the residual `ln x` is NaN outside the positive
        // quadrant, and the full Newton step from (3, 0.5) lands at
        // x₀ ≈ −0.30. The NaN-blind norm read that trial as an exact
        // root (norm 0), accepted it and returned x₀ < 0 as converged.
        // The trial must be rejected and the step halved instead.
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0].ln();
            out[1] = x[1].ln();
        };
        let jac = |x: &[f64], m: &mut crate::dense::Matrix| {
            m[(0, 0)] = 1.0 / x[0];
            m[(0, 1)] = 0.0;
            m[(1, 0)] = 0.0;
            m[(1, 1)] = 1.0 / x[1];
        };
        let sol = newton_system(f, jac, &[3.0, 0.5], RootOptions::default()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-12, "x = {:?}", sol.x);
        assert!((sol.x[1] - 1.0).abs() < 1e-12, "x = {:?}", sol.x);
        assert!(sol.residual <= RootOptions::default().f_tol);
    }

    #[test]
    fn system_newton_rejects_a_damped_small_step_with_large_residual() {
        // Regression: `1 − t + 1e8·t²` has no root (its minimum is
        // 1 − 2.5e-9 at t = 5e-9). From t = 0 the full Newton step is 1,
        // and the line search must halve it 27 times before the norm
        // drops, leaving a 7.5e-9 step under x_tol = 1e-8. The solver
        // used to take that damped step's size as convergence and
        // return Ok with a residual of ≈ 1; it must keep iterating and
        // fail honestly.
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = 1.0 - x[0] + 1e8 * x[0] * x[0];
            out[1] = x[1];
        };
        let jac = |x: &[f64], m: &mut crate::dense::Matrix| {
            m[(0, 0)] = -1.0 + 2e8 * x[0];
            m[(0, 1)] = 0.0;
            m[(1, 0)] = 0.0;
            m[(1, 1)] = 1.0;
        };
        let options = RootOptions {
            x_tol: 1e-8,
            f_tol: 1e-10,
            max_iterations: 50,
        };
        match newton_system(f, jac, &[0.0, 0.0], options) {
            Err(NumericError::NoConvergence { residual, .. }) => {
                assert!(residual > 0.99, "residual {residual:e}")
            }
            other => panic!("a rootless system must not converge, got {other:?}"),
        }
    }

    #[test]
    fn inf_norm_propagates_nan() {
        assert_eq!(inf_norm(&[]), 0.0);
        assert_eq!(inf_norm(&[-3.0, 2.0]), 3.0);
        for v in [[f64::NAN, 1.0], [1.0, f64::NAN], [f64::NAN, f64::NAN]] {
            assert!(inf_norm(&v).is_nan(), "{v:?}");
        }
        assert_eq!(inf_norm(&[f64::INFINITY, 1.0]), f64::INFINITY);
    }

    #[test]
    fn warm_started_bracketed_newton_keeps_the_root() {
        // A start inside the bracket replaces the midpoint and converges
        // to the same root in fewer iterations; a start outside the
        // bracket (or NaN) is ignored bit for bit.
        let fdf = |t: f64| (0.5 - (-t).exp(), (-t).exp());
        let cold = newton_bracketed_fdf(fdf, 0.0, 10.0, None, None, RootOptions::default()).unwrap();
        let warm =
            newton_bracketed_fdf(fdf, 0.0, 10.0, None, Some(0.7), RootOptions::default()).unwrap();
        assert!((warm.x - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(warm.iterations < cold.iterations, "{warm:?} vs {cold:?}");
        for start in [Some(-1.0), Some(0.0), Some(10.0), Some(12.0), Some(f64::NAN)] {
            let ignored =
                newton_bracketed_fdf(fdf, 0.0, 10.0, None, start, RootOptions::default()).unwrap();
            assert_eq!(ignored.x.to_bits(), cold.x.to_bits(), "{start:?}");
            assert_eq!(ignored.iterations, cold.iterations, "{start:?}");
        }
    }

    #[test]
    fn bracket_expansion_guards_against_non_finite_runaway() {
        // Regression: `sin(x) + 2` has no root; geometric expansion
        // overflows an endpoint to ±∞ where sin returns NaN, and
        // `NaN.signum() != fb.signum()` used to report a *successful*
        // bracket with a non-finite endpoint. It must now fail cleanly.
        match expand_bracket(|x| x.sin() + 2.0, 0.0, 1.0, 5_000) {
            Err(NumericError::InvalidBracket { .. }) => {}
            other => panic!("runaway expansion must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn system_newton_linear_system_in_one_step() {
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = 2.0 * x[0] + x[1] - 3.0;
            out[1] = x[0] + 3.0 * x[1] - 5.0;
        };
        let jac = |_: &[f64], m: &mut crate::dense::Matrix| {
            m[(0, 0)] = 2.0;
            m[(0, 1)] = 1.0;
            m[(1, 0)] = 1.0;
            m[(1, 1)] = 3.0;
        };
        let sol = newton_system(f, jac, &[0.0, 0.0], RootOptions::default()).unwrap();
        assert!(sol.iterations <= 2);
        assert!((sol.x[0] - 0.8).abs() < 1e-12);
        assert!((sol.x[1] - 1.4).abs() < 1e-12);
    }
}
