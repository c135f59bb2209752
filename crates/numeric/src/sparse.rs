//! Sparse matrices assembled from triplets, with a sparse LU solver.
//!
//! Modified nodal analysis produces matrices whose rows hold only a handful
//! of entries (each circuit element touches at most four unknowns), but
//! whose structure is not banded — a ring oscillator's feedback edge puts
//! an entry in a far corner. The solver here performs row-based Gaussian
//! elimination with partial pivoting directly on sorted sparse rows, which
//! is simple, robust, and fast for the few-hundred-unknown systems the
//! simulator substrate produces.

use crate::{NumericError, Result};

/// A sparse matrix under assembly, as `(row, col, value)` triplets.
///
/// Duplicate coordinates are summed when the matrix is compressed, which is
/// exactly the "stamping" discipline of circuit simulators.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::sparse::TripletMatrix;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let mut a = TripletMatrix::new(2);
/// a.push(0, 0, 1.0);
/// a.push(0, 0, 1.0); // stamps accumulate
/// a.push(0, 1, 1.0);
/// a.push(1, 0, 1.0);
/// a.push(1, 1, 3.0);
/// let x = a.to_csr().lu()?.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TripletMatrix {
    n: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `n × n` triplet matrix.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            entries: Vec::new(),
        }
    }

    /// Returns the matrix order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Returns the number of accumulated triplets (duplicates included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no triplets have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `value` at `(row, col)`; duplicates are summed on compression.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "triplet index out of bounds");
        self.entries.push((row, col, value));
    }

    /// The accumulated triplets `(row, col, value)` in push order.
    #[must_use]
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Discards all triplets, keeping the allocation and order.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Compresses the triplets into compressed-sparse-row form.
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.n;
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        let mut current_row = 0usize;
        for (r, c, v) in sorted {
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            // Merge duplicates only within the current row: an entry for
            // row `r` exists iff entries were pushed after the row-`r`
            // boundary was recorded.
            let row_has_entries = *row_ptr.last().expect("nonempty") < col_idx.len();
            if row_has_entries {
                if let (Some(&last_col), Some(last_val)) = (col_idx.last(), values.last_mut()) {
                    if last_col == c {
                        *last_val += v;
                        continue;
                    }
                }
            }
            col_idx.push(c);
            values.push(v);
        }
        while current_row < n {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A compressed-sparse-row matrix.
///
/// Produced by [`TripletMatrix::to_csr`].
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Returns the matrix order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Returns the number of stored (structurally nonzero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the entries of row `i` as parallel `(columns, values)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= order()`.
    #[must_use]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Computes `self · x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len()` differs
    /// from the matrix order.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: self.n,
                actual: x.len(),
            });
        }
        Ok((0..self.n)
            .map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter().zip(vals).map(|(&c, &v)| v * x[c]).sum()
            })
            .collect())
    }

    /// Factors the matrix with sparse row-based LU and partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] if no usable pivot exists
    /// at some elimination step.
    pub fn lu(&self) -> Result<SparseLu> {
        SparseLu::factor(self)
    }
}

/// Sparse LU factors `P·A = L·U` with partial pivoting.
///
/// Rows of `L` (unit diagonal implied) and `U` are stored as sorted
/// `(column, value)` lists.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// `l_rows[i]`: strictly-lower entries of row `i` of L, sorted by column.
    l_rows: Vec<Vec<(usize, f64)>>,
    /// `u_rows[i]`: entries of row `i` of U (diagonal first position ≥ i), sorted.
    u_rows: Vec<Vec<(usize, f64)>>,
    /// Row permutation: working row `i` came from original row `perm[i]`.
    perm: Vec<usize>,
}

impl SparseLu {
    /// Factors a CSR matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] if the matrix is singular
    /// to working precision.
    pub fn factor(a: &CsrMatrix) -> Result<Self> {
        let n = a.n;
        // Working rows: sorted (col, value) lists.
        let mut rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                let (cols, vals) = a.row(i);
                cols.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut l_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut u_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);

        let mut scratch: Vec<(usize, f64)> = Vec::new();

        for k in 0..n {
            // Partial pivoting: among rows k..n, largest |entry in column k|.
            let mut piv_row = usize::MAX;
            let mut piv_val = 0.0f64;
            for (r, row) in rows.iter().enumerate().skip(k) {
                if let Some(&(_, v)) = row.first() {
                    // Leading entry is the column-k entry iff its column == k;
                    // earlier columns were eliminated already.
                    debug_assert!(row[0].0 >= k);
                    if row[0].0 == k && v.abs() > piv_val.abs() {
                        piv_val = v;
                        piv_row = r;
                    }
                }
            }
            if piv_row == usize::MAX || piv_val == 0.0 {
                return Err(NumericError::SingularMatrix { pivot: k });
            }
            rows.swap(k, piv_row);
            perm.swap(k, piv_row);
            l_rows.swap(k, piv_row);

            let pivot_row = std::mem::take(&mut rows[k]);
            let pivot = piv_val;

            for r in (k + 1)..n {
                let has_k = rows[r].first().is_some_and(|&(c, _)| c == k);
                if !has_k {
                    continue;
                }
                let factor = rows[r][0].1 / pivot;
                l_rows[r].push((k, factor));
                // rows[r] = rows[r] - factor * pivot_row, skipping column k.
                scratch.clear();
                let mut it_a = rows[r][1..].iter().copied().peekable();
                let mut it_b = pivot_row[1..].iter().copied().peekable();
                loop {
                    match (it_a.peek().copied(), it_b.peek().copied()) {
                        (Some((ca, va)), Some((cb, vb))) => {
                            if ca < cb {
                                scratch.push((ca, va));
                                it_a.next();
                            } else if cb < ca {
                                scratch.push((cb, -factor * vb));
                                it_b.next();
                            } else {
                                let v = va - factor * vb;
                                // Keep exact zeros out of the structure only
                                // when they are true cancellations; retaining
                                // them would be harmless but wasteful.
                                if v != 0.0 {
                                    scratch.push((ca, v));
                                }
                                it_a.next();
                                it_b.next();
                            }
                        }
                        (Some((ca, va)), None) => {
                            scratch.push((ca, va));
                            it_a.next();
                        }
                        (None, Some((cb, vb))) => {
                            scratch.push((cb, -factor * vb));
                            it_b.next();
                        }
                        (None, None) => break,
                    }
                }
                std::mem::swap(&mut rows[r], &mut scratch);
            }
            u_rows.push(pivot_row);
        }

        Ok(Self {
            n,
            l_rows,
            u_rows,
            perm,
        })
    }

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
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        // Permute.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 0..self.n {
            let mut acc = x[i];
            for &(c, v) in &self.l_rows[i] {
                acc -= v * x[c];
            }
            x[i] = acc;
        }
        // Back substitution with U.
        for i in (0..self.n).rev() {
            let row = &self.u_rows[i];
            debug_assert_eq!(row[0].0, i, "U diagonal must lead the row");
            let mut acc = x[i];
            for &(c, v) in &row[1..] {
                acc -= v * x[c];
            }
            x[i] = acc / row[0].1;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_triplets_accumulate() {
        let mut t = TripletMatrix::new(2);
        t.push(0, 0, 1.5);
        t.push(0, 0, 2.5);
        t.push(1, 1, 1.0);
        let csr = t.to_csr();
        assert_eq!(csr.nnz(), 2);
        let (cols, vals) = csr.row(0);
        assert_eq!(cols, &[0]);
        assert_eq!(vals, &[4.0]);
    }

    #[test]
    fn adjacent_rows_sharing_a_column_do_not_merge() {
        // Regression: (2,0) followed by (3,0) must stay two entries.
        let mut t = TripletMatrix::new(4);
        t.push(2, 0, 1.0);
        t.push(3, 0, 1.0);
        let csr = t.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.row(2).0, &[0]);
        assert_eq!(csr.row(3).0, &[0]);
    }

    #[test]
    fn empty_rows_are_represented() {
        let mut t = TripletMatrix::new(3);
        t.push(2, 2, 1.0);
        let csr = t.to_csr();
        assert_eq!(csr.row(0).0.len(), 0);
        assert_eq!(csr.row(1).0.len(), 0);
        assert_eq!(csr.row(2).0, &[2]);
    }

    #[test]
    fn solve_small_system() {
        let mut t = TripletMatrix::new(2);
        t.push(0, 0, 2.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 3.0);
        let x = t.to_csr().lu().unwrap().solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_is_exercised() {
        // Zero on the diagonal forces a row swap.
        let mut t = TripletMatrix::new(2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let x = t.to_csr().lu().unwrap().solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn singular_is_detected() {
        let mut t = TripletMatrix::new(2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 2.0);
        assert!(matches!(
            t.to_csr().lu(),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn ring_structure_with_corner_entry() {
        // Chain plus a feedback corner entry, like a ring oscillator MNA.
        let n = 40;
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.push(0, n - 1, -1.5);
        t.push(n - 1, 0, -0.5);
        let csr = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = csr.lu().unwrap().solve(&b).unwrap();
        let r = csr.mul_vec(&x).unwrap();
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-10, "i={i}");
        }
    }

    #[test]
    fn clear_retains_order() {
        let mut t = TripletMatrix::new(4);
        t.push(1, 1, 1.0);
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.order(), 4);
    }
}
