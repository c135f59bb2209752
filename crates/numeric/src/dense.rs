//! Dense matrices, LU factorization with partial pivoting, and the
//! allocation-free 2×2 solve of the repeater optimizer's Newton step.
//!
//! [`solve2`] is the only solve on a production path. [`Matrix`] and
//! [`LuFactors`] are its reference (`solve2` must match their 2×2
//! solve bit for bit), the dense oracle of the sparse-LU property test,
//! and the storage of [`crate::fd::central_jacobian`]. Circuit (MNA)
//! systems use [`crate::sparse`]. Storage is row-major `Vec<f64>`.

use core::ops::{Index, IndexMut};

use crate::{NumericError, Result};

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::dense::Matrix;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let x = a.lu()?.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
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

    /// Returns the number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
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
    /// Prefer [`Matrix::lu`] when the same matrix is solved against several
    /// right-hand sides ([C-INTERMEDIATE]).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Matrix::lu`] and
    /// [`LuFactors::solve`].
    ///
    /// [C-INTERMEDIATE]: https://rust-lang.github.io/api-guidelines/flexibility.html
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
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Combined L (strictly lower, unit diagonal implicit) and U storage.
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Returns the order of the factored matrix.
    #[must_use]
    pub fn order(&self) -> usize {
        self.n
    }

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

/// Solves the 2×2 system `J·d = g` without allocating.
///
/// This is the inner linear solve of the paper's Newton iteration on the
/// stationarity residuals (step 4 in §2.2). It performs the operations
/// of [`Matrix::lu`] and [`LuFactors::solve`] on a 2×2, in the same
/// order, so the two agree bit for bit (NaN entries included).
///
/// # Errors
///
/// Returns [`NumericError::SingularMatrix`] if a pivot is exactly zero.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::dense::solve2;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let d = solve2([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])?;
/// assert_eq!(d, [1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve2(j: [[f64; 2]; 2], g: [f64; 2]) -> Result<[f64; 2]> {
    // Partial pivoting: swap only on a strictly larger entry.
    let (top, bottom, b) = if j[1][0].abs() > j[0][0].abs() {
        (j[1], j[0], [g[1], g[0]])
    } else {
        (j[0], j[1], g)
    };
    if top[0] == 0.0 {
        return Err(NumericError::SingularMatrix { pivot: 0 });
    }
    let factor = bottom[0] / top[0];
    let pivot = if factor != 0.0 {
        bottom[1] - factor * top[1]
    } else {
        bottom[1]
    };
    if pivot == 0.0 {
        return Err(NumericError::SingularMatrix { pivot: 1 });
    }
    let d1 = (b[1] - factor * b[0]) / pivot;
    Ok([(b[0] - top[1] * d1) / top[0], d1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_to_rhs() {
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        let x = a.solve(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn known_3x3_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            a.lu(),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn non_square_is_dimension_error() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.lu(),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn reusing_factors_for_multiple_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let lu = a.lu().unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [2.0, -5.0]] {
            let x = lu.solve(&b).unwrap();
            let r = a.mul_vec(&x).unwrap();
            assert!((r[0] - b[0]).abs() < 1e-12);
            assert!((r[1] - b[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_vec_dimension_mismatch() {
        let a = Matrix::zeros(2, 2);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn solve2_closed_form() {
        let d = solve2([[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0]).unwrap();
        // x = A⁻¹ b with A⁻¹ = [-2, 1; 1.5, -0.5]
        assert!((d[0] - -4.0).abs() < 1e-12);
        assert!((d[1] - 4.5).abs() < 1e-12);
        assert!(solve2([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]).is_err());
    }

    #[test]
    fn solve2_is_the_lu_solve_bit_for_bit() {
        // Seeded random, badly scaled, near-singular and NaN-carrying
        // 2×2s: same bits (or the same error) as `Matrix::solve`.
        let mut rng = crate::rng::Rng::new(0x2b2);
        let mut cases = Vec::new();
        for _ in 0..2000 {
            let mut m = [[0.0; 2]; 2];
            for v in m.iter_mut().flatten() {
                *v = rng.uniform(-1.0, 1.0) * 10f64.powf(rng.uniform(-12.0, 12.0));
            }
            let g = [rng.uniform(-1.0, 1.0), rng.uniform(-1e6, 1e6)];
            // Near-singular: second row a multiple of the first, off by
            // about one rounding.
            let t = rng.uniform(-3.0, 3.0);
            let near = [m[0], [m[0][0] * t, m[0][1] * t * (1.0 + 1e-15)]];
            let (i, j) = (
                (rng.next_f64() * 2.0) as usize,
                (rng.next_f64() * 2.0) as usize,
            );
            let mut holed = m;
            holed[i][j] = f64::NAN;
            cases.extend([(m, g), (near, g), (holed, g), (m, [g[0], f64::NAN])]);
        }
        cases.extend([
            ([[0.0, 1.0], [1.0, 0.0]], [3.0, 7.0]),
            ([[0.0, 1.0], [0.0, 2.0]], [1.0, 1.0]),
            ([[1.0, 2.0], [1.0, 2.0]], [1.0, 1.0]),
            ([[-2.0, 1.0], [2.0, 5.0]], [1.0, 1.0]),
            ([[0.0, 1.0], [f64::NAN, 2.0]], [1.0, 1.0]),
            ([[f64::NAN, 1.0], [1.0, 2.0]], [1.0, 1.0]),
            ([[1.0, 0.0], [0.0, 1.0]], [f64::INFINITY, 1.0]),
        ]);
        for (m, g) in cases {
            let lu = Matrix::from_rows(&[&m[0], &m[1]])
                .solve(&g)
                .map(|x| [x[0].to_bits(), x[1].to_bits()]);
            let fixed = solve2(m, g).map(|x| [x[0].to_bits(), x[1].to_bits()]);
            assert_eq!(fixed, lu, "{m:?} {g:?}");
        }
    }

    #[test]
    fn random_systems_round_trip() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / f64::from(u32::MAX) * 2.0 - 1.0
        };
        for n in [1usize, 2, 5, 20, 50] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = next();
                }
                a[(i, i)] += 4.0; // diagonally dominant => well conditioned
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = a.solve(&b).unwrap();
            let r = a.mul_vec(&x).unwrap();
            for i in 0..n {
                assert!((r[i] - b[i]).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }
}
