//! Reference implementations that the numeric tests compare against.
//!
//! * [`Matrix`] and [`LuFactors`] — dense LU with partial pivoting.
//!   `rlckit_numeric::dense::solve2` must match their 2×2 solve bit for
//!   bit, and the sparse LU must agree with them.
//! * [`central_jacobian`] — the finite-difference Jacobian that checks
//!   the repeater optimizer's analytic one.
//!
//! No library path calls them; they live here, next to the property
//! harness, so that only test builds compile them.

use core::ops::{Index, IndexMut};

use rlckit_numeric::{NumericError, Result};

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use rlckit_check::oracle::Matrix;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let x = a.lu()?.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an all-zero matrix with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Self {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Computes `self · x` for a vector `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        Ok((0..self.rows)
            .map(|i| {
                let row = &self.data[i * self.cols..(i + 1) * self.cols];
                row.iter().zip(x).map(|(a, b)| a * b).sum()
            })
            .collect())
    }

    /// Factors the matrix as `P·A = L·U` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] if a pivot is exactly zero
    /// (the matrix is singular to working precision), and
    /// [`NumericError::DimensionMismatch`] if the matrix is not square.
    pub fn lu(&self) -> Result<LuFactors> {
        if self.rows != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: self.rows,
                actual: self.cols,
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: largest magnitude in column k at/below row k.
            let mut piv = k;
            let mut max = lu[k * n + k].abs();
            for r in (k + 1)..n {
                let v = lu[r * n + k].abs();
                if v > max {
                    max = v;
                    piv = r;
                }
            }
            if max == 0.0 {
                return Err(NumericError::SingularMatrix { pivot: k });
            }
            if piv != k {
                for j in 0..n {
                    lu.swap(k * n + j, piv * n + j);
                }
                perm.swap(k, piv);
            }
            let pivot = lu[k * n + k];
            for r in (k + 1)..n {
                let factor = lu[r * n + k] / pivot;
                lu[r * n + k] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        lu[r * n + j] -= factor * lu[k * n + j];
                    }
                }
            }
        }

        Ok(LuFactors { n, lu, perm })
    }

    /// Solves `A·x = b` directly (factor + substitute).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Matrix::lu`] and
    /// [`LuFactors::solve`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.lu()?.solve(b)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// The result of an LU factorization `P·A = L·U`.
///
/// Produced by [`Matrix::lu`]; reuse it to solve against multiple
/// right-hand sides.
#[derive(Debug)]
pub struct LuFactors {
    n: usize,
    /// Combined L (strictly lower, unit diagonal implicit) and U storage.
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Solves `A·x = b` using the precomputed factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` differs
    /// from the matrix order.
    #[allow(clippy::needless_range_loop)] // substitution indexes x and lu in lockstep
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        let n = self.n;
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution (unit lower).
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc / self.lu[i * n + i];
        }
        Ok(x)
    }
}

/// Central-difference Jacobian of a vector function `f: Rⁿ → Rᵐ` at `x`.
///
/// `f(x, out)` writes the `m` residuals into `out`. The Jacobian is
/// returned as a [`Matrix`] with `m` rows and `n` columns.
pub fn central_jacobian(
    mut f: impl FnMut(&[f64], &mut [f64]),
    x: &[f64],
    m: usize,
    scale: f64,
) -> Matrix {
    let n = x.len();
    let mut jac = Matrix::zeros(m, n);
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
