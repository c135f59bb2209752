//! Finite-difference derivative helpers.
//!
//! The repeater optimizer's derivatives are all analytic (its outer
//! Jacobian comes from dual numbers); these helpers are the oracles its
//! tests check them against, and they centralize the step-size
//! heuristics.

/// Central-difference first derivative of `f` at `x`.
///
/// The step is relative (`h = scale · max(|x|, 1)`), which keeps the
/// truncation/round-off balance reasonable across the enormous magnitude
/// range of interconnect quantities.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::fd::central_derivative;
///
/// let d = central_derivative(|x| x * x * x, 2.0, 1e-6);
/// assert!((d - 12.0).abs() < 1e-5);
/// ```
pub fn central_derivative(mut f: impl FnMut(f64) -> f64, x: f64, scale: f64) -> f64 {
    let h = scale * x.abs().max(1.0);
    (f(x + h) - f(x - h)) / (2.0 * h)
}

/// Central-difference gradient of a multivariate `f` at `x`.
pub fn central_gradient(mut f: impl FnMut(&[f64]) -> f64, x: &[f64], scale: f64) -> Vec<f64> {
    let mut xp = x.to_vec();
    let mut grad = vec![0.0; x.len()];
    for i in 0..x.len() {
        let h = scale * x[i].abs().max(1.0);
        let orig = xp[i];
        xp[i] = orig + h;
        let fp = f(&xp);
        xp[i] = orig - h;
        let fm = f(&xp);
        xp[i] = orig;
        grad[i] = (fp - fm) / (2.0 * h);
    }
    grad
}

/// Central-difference Jacobian of a vector function `f: Rⁿ → Rᵐ` at `x`.
///
/// `f(x, out)` writes the `m` residuals into `out`. The Jacobian is
/// returned row-major as a [`crate::dense::Matrix`] with `m` rows and `n`
/// columns.
pub fn central_jacobian(
    mut f: impl FnMut(&[f64], &mut [f64]),
    x: &[f64],
    m: usize,
    scale: f64,
) -> crate::dense::Matrix {
    let n = x.len();
    let mut jac = crate::dense::Matrix::zeros(m, n);
    let mut xp = x.to_vec();
    let mut fp = vec![0.0; m];
    let mut fm = vec![0.0; m];
    for j in 0..n {
        let h = scale * x[j].abs().max(1.0);
        let orig = xp[j];
        xp[j] = orig + h;
        f(&xp, &mut fp);
        xp[j] = orig - h;
        f(&xp, &mut fm);
        xp[j] = orig;
        for i in 0..m {
            jac[(i, j)] = (fp[i] - fm[i]) / (2.0 * h);
        }
    }
    jac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivative_of_exponential() {
        let d = central_derivative(f64::exp, 1.0, 1e-6);
        assert!((d - std::f64::consts::E).abs() < 1e-6);
    }

    #[test]
    fn derivative_with_tiny_abscissa_uses_absolute_step() {
        // At x = 1e-300 a purely relative step would underflow.
        let d = central_derivative(|x| 3.0 * x, 1e-300, 1e-7);
        assert!((d - 3.0).abs() < 1e-9);
    }

    #[test]
    fn gradient_of_quadratic_form() {
        let f = |x: &[f64]| x[0] * x[0] + 3.0 * x[0] * x[1] + 2.0 * x[1] * x[1];
        let g = central_gradient(f, &[1.0, 2.0], 1e-6);
        assert!((g[0] - 8.0).abs() < 1e-5);
        assert!((g[1] - 11.0).abs() < 1e-5);
    }

    #[test]
    fn jacobian_of_linear_map_is_its_matrix() {
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = 2.0 * x[0] - x[1];
            out[1] = x[0] + 4.0 * x[1];
        };
        let j = central_jacobian(f, &[0.3, -0.7], 2, 1e-6);
        assert!((j[(0, 0)] - 2.0).abs() < 1e-7);
        assert!((j[(0, 1)] + 1.0).abs() < 1e-7);
        assert!((j[(1, 0)] - 1.0).abs() < 1e-7);
        assert!((j[(1, 1)] - 4.0).abs() < 1e-7);
    }
}
