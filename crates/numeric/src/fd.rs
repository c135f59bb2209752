//! Finite-difference Jacobian.
//!
//! The repeater optimizer's derivatives are all analytic (its outer
//! Jacobian comes from dual numbers); [`central_jacobian`] is the oracle
//! its tests check them against.

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
