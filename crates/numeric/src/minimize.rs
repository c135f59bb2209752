//! Derivative-free minimization: golden-section search and Nelder–Mead.
//!
//! The paper minimizes delay per unit length with Newton on the
//! stationarity conditions; these derivative-free methods serve as
//! independent cross-checks (and as the fallback when a configuration sits
//! exactly on the critically-damped manifold where the residuals are not
//! smooth).

use crate::{NumericError, Result};
use rlckit_trace::{counter, histogram};

/// Result of a converged minimization.
#[derive(Debug, Clone, PartialEq)]
pub struct Minimum {
    /// Arguments of the minimum.
    pub x: Vec<f64>,
    /// Objective value at the minimum.
    pub value: f64,
    /// Number of objective evaluations spent.
    pub evaluations: usize,
}

/// Minimizes a unimodal `f` on `[lo, hi]` by golden-section search.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] if `lo >= hi` or the interval
/// endpoints are not finite.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::minimize::golden_section;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let m = golden_section(|x| (x - 2.0) * (x - 2.0), 0.0, 5.0, 1e-10, 200)?;
/// assert!((m.x[0] - 2.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn golden_section(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    x_tol: f64,
    max_evaluations: usize,
) -> Result<Minimum> {
    if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
        return Err(NumericError::InvalidInput(format!(
            "invalid golden-section interval [{lo}, {hi}]"
        )));
    }
    if rlckit_fault::faultpoint!("minimize.golden_section") {
        return Err(NumericError::InjectedFault {
            site: "minimize.golden_section",
        });
    }
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut a = lo;
    let mut b = hi;
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    let mut evaluations = 2;
    while (b - a).abs() > x_tol * (a.abs() + b.abs()).max(1.0) && evaluations < max_evaluations {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
        evaluations += 1;
    }
    let x = 0.5 * (a + b);
    let value = f(x);
    // Fail-stop: callers map delay-solver errors to ∞, so an injected
    // fault inside an objective evaluation would otherwise skew the
    // bracket walk and return a silently drifted minimum.
    crate::injected_abort("minimize.golden_section")?;
    counter!("minimize.golden_section.calls").incr();
    histogram!("minimize.golden_section.evaluations").observe((evaluations + 1) as u64);
    Ok(Minimum {
        x: vec![x],
        value,
        evaluations: evaluations + 1,
    })
}

/// Options for [`nelder_mead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadOptions {
    /// Relative size of the initial simplex around the starting point.
    pub initial_scale: f64,
    /// Convergence tolerance on the simplex's objective spread.
    pub f_tol: f64,
    /// Convergence tolerance on the simplex diameter.
    pub x_tol: f64,
    /// Budget of objective evaluations.
    pub max_evaluations: usize,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        Self {
            initial_scale: 0.05,
            f_tol: 1e-12,
            x_tol: 1e-10,
            max_evaluations: 2000,
        }
    }
}

/// Minimizes `f` from `x0` with the Nelder–Mead downhill simplex.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for an empty starting point and
/// [`NumericError::NoConvergence`] if the evaluation budget is exhausted
/// before the simplex collapses.
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    options: NelderMeadOptions,
) -> Result<Minimum> {
    let n = x0.len();
    if n == 0 {
        return Err(NumericError::InvalidInput(
            "empty starting point".to_string(),
        ));
    }
    if rlckit_fault::faultpoint!("minimize.nelder_mead") {
        return Err(NumericError::InjectedFault {
            site: "minimize.nelder_mead",
        });
    }
    // Standard coefficients.
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut v = x0.to_vec();
        let step = if v[i] != 0.0 {
            v[i] * options.initial_scale
        } else {
            options.initial_scale
        };
        v[i] += step;
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| f(v)).collect();
    let mut evaluations = n + 1;

    while evaluations < options.max_evaluations {
        // Order the simplex.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("NaN objective"));
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        let spread = (values[worst] - values[best]).abs();
        let diameter = simplex
            .iter()
            .map(|v| {
                v.iter()
                    .zip(&simplex[best])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max);
        if spread <= options.f_tol * values[best].abs().max(1.0)
            && diameter
                <= options.x_tol
                    * simplex[best]
                        .iter()
                        .map(|v| v.abs())
                        .fold(0.0f64, f64::max)
                        .max(1.0)
        {
            // Fail-stop: objectives swallow errors into ∞, so a
            // poisoned attempt must not be accepted as converged.
            crate::injected_abort("minimize.nelder_mead")?;
            counter!("minimize.nelder_mead.calls").incr();
            histogram!("minimize.nelder_mead.evaluations").observe(evaluations as u64);
            return Ok(Minimum {
                x: simplex[best].clone(),
                value: values[best],
                evaluations,
            });
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (idx, v) in simplex.iter().enumerate() {
            if idx == worst {
                continue;
            }
            for (ci, vi) in centroid.iter_mut().zip(v) {
                *ci += vi / n as f64;
            }
        }

        let lerp = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
            a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect()
        };

        // Reflection.
        let reflected = lerp(&centroid, &simplex[worst], -alpha);
        let f_reflected = f(&reflected);
        evaluations += 1;

        if f_reflected < values[best] {
            // Expansion.
            let expanded = lerp(&centroid, &simplex[worst], -gamma);
            let f_expanded = f(&expanded);
            evaluations += 1;
            if f_expanded < f_reflected {
                simplex[worst] = expanded;
                values[worst] = f_expanded;
            } else {
                simplex[worst] = reflected;
                values[worst] = f_reflected;
            }
        } else if f_reflected < values[second_worst] {
            simplex[worst] = reflected;
            values[worst] = f_reflected;
        } else {
            // Contraction.
            let contracted = lerp(&centroid, &simplex[worst], rho);
            let f_contracted = f(&contracted);
            evaluations += 1;
            if f_contracted < values[worst] {
                simplex[worst] = contracted;
                values[worst] = f_contracted;
            } else {
                // Shrink towards the best vertex.
                let best_point = simplex[best].clone();
                for (idx, v) in simplex.iter_mut().enumerate() {
                    if idx == best {
                        continue;
                    }
                    *v = lerp(&best_point, v, sigma);
                    values[idx] = f(v);
                    evaluations += 1;
                }
            }
        }
    }
    // Return the best point found with a NoConvergence marker.
    counter!("minimize.nelder_mead.budget_exhausted").incr();
    Err(NumericError::NoConvergence {
        iterations: evaluations,
        residual: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_on_quadratic() {
        let m = golden_section(|x| (x - 3.5) * (x - 3.5) + 1.0, 0.0, 10.0, 1e-12, 500).unwrap();
        // Golden section cannot resolve a quadratic bottom below ~√ε·|x|.
        assert!((m.x[0] - 3.5).abs() < 5e-8);
        assert!((m.value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn golden_section_rejects_inverted_interval() {
        assert!(golden_section(|x| x, 1.0, 0.0, 1e-8, 100).is_err());
    }

    #[test]
    fn nelder_mead_on_rosenbrock() {
        let rosenbrock = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let m = nelder_mead(
            rosenbrock,
            &[-1.2, 1.0],
            NelderMeadOptions {
                max_evaluations: 5000,
                ..NelderMeadOptions::default()
            },
        )
        .unwrap();
        assert!((m.x[0] - 1.0).abs() < 1e-4);
        assert!((m.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn nelder_mead_on_scaled_quadratic() {
        // Badly scaled quadratic similar to (h, k) optimization where h is
        // millimetres and k is hundreds.
        let f = |x: &[f64]| {
            let a = (x[0] - 0.0144) * 1e4;
            let b = (x[1] - 578.0) * 1e-2;
            a * a + b * b
        };
        let m = nelder_mead(f, &[0.01, 400.0], NelderMeadOptions::default()).unwrap();
        assert!((m.x[0] - 0.0144).abs() < 1e-5);
        assert!((m.x[1] - 578.0).abs() < 1e-1);
    }

    #[test]
    fn nelder_mead_rejects_empty_start() {
        assert!(nelder_mead(|_| 0.0, &[], NelderMeadOptions::default()).is_err());
    }

    #[test]
    fn nelder_mead_reports_budget_exhaustion() {
        let err = nelder_mead(
            |x| x[0].sin() * x[1].cos(),
            &[0.3, 0.7],
            NelderMeadOptions {
                max_evaluations: 5,
                ..NelderMeadOptions::default()
            },
        );
        assert!(matches!(err, Err(NumericError::NoConvergence { .. })));
    }
}
