//! A sparse matrix assembled in place, with a sparse LU solver.
//!
//! Modified nodal analysis produces matrices whose rows hold only a handful
//! of entries (each circuit element touches at most four unknowns), but
//! whose structure is not banded — a ring oscillator's feedback edge puts
//! an entry in a far corner. [`SparseMatrix`] keeps each row as a sorted
//! `(column, value)` list, the form the LU works on: stamps go straight
//! into it, and [`SparseLu`] performs row-based Gaussian elimination with
//! partial pivoting on a copy of those rows, which is simple, robust, and
//! fast for the few-hundred-unknown systems the simulator substrate
//! produces.

use crate::{NumericError, Result};

/// A square sparse matrix stored as sorted `(column, value)` rows.
///
/// [`add`](Self::add) sums into an existing entry, so duplicate
/// coordinates accumulate in the order they arrive, which is exactly the
/// "stamping" discipline of circuit simulators.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::sparse::SparseMatrix;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let mut a = SparseMatrix::new(2);
/// a.add(0, 0, 1.0);
/// a.add(0, 0, 1.0); // stamps accumulate
/// a.add(0, 1, 1.0);
/// a.add(1, 0, 1.0);
/// a.add(1, 1, 3.0);
/// assert_eq!(a.row(0), &[(0, 2.0), (1, 1.0)]);
/// let x = a.lu()?.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseMatrix {
    rows: Vec<Vec<(usize, f64)>>,
}

impl SparseMatrix {
    /// Creates an empty `n × n` matrix.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            rows: vec![Vec::new(); n],
        }
    }

    /// Returns the matrix order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.rows.len()
    }

    /// Adds `value` at `(row, col)`: into the stored entry if there is
    /// one, otherwise as a new entry at its sorted position.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        let n = self.order();
        assert!(row < n && col < n, "matrix index out of bounds");
        let entries = &mut self.rows[row];
        match entries.binary_search_by_key(&col, |&(c, _)| c) {
            Ok(k) => entries[k].1 += value,
            Err(k) => entries.insert(k, (col, value)),
        }
    }

    /// Returns the stored entries of row `i`, sorted by column.
    ///
    /// # Panics
    ///
    /// Panics if `i >= order()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }

    /// Discards every entry, keeping the order and the row allocations.
    pub fn clear(&mut self) {
        for entries in &mut self.rows {
            entries.clear();
        }
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
    /// Factors a sparse matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] if the matrix is singular
    /// to working precision.
    pub fn factor(a: &SparseMatrix) -> Result<Self> {
        let n = a.order();
        // Working rows: a copy of the matrix's sorted (col, value) rows.
        let mut rows = a.rows.clone();
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
    fn duplicate_entries_accumulate() {
        let mut a = SparseMatrix::new(2);
        a.add(0, 0, 1.5);
        a.add(0, 0, 2.5);
        a.add(1, 1, 1.0);
        assert_eq!(a.row(0), &[(0, 4.0)]);
        assert_eq!(a.row(1), &[(1, 1.0)]);
    }

    #[test]
    fn duplicates_sum_left_to_right_bit_for_bit() {
        // (1e16 + 1) − 1e16 is 0 in f64, while (1e16 − 1e16) + 1 is 1:
        // only the sum in arrival order gives +0. The duplicates arrive
        // among 40 ring stamps pushed in descending row order; a sort of
        // these 43 triplets by coordinate may reorder equal keys, and an
        // unstable one did here, summing them to 1.
        let n = 20;
        let mut a = SparseMatrix::new(n);
        let mut duplicates = [1e16, 1.0, -1e16].into_iter();
        for step in 0..n {
            let i = (n - step) % n;
            a.add(i, i, 4.0);
            a.add(i, (i + 1) % n, -1.0);
            if step % 3 == 2 {
                if let Some(v) = duplicates.next() {
                    a.add(3, 7, v);
                }
            }
        }
        assert_eq!(duplicates.next(), None);
        let entry = a.row(3).iter().find(|&&(c, _)| c == 7).expect("stamped");
        assert_eq!(entry.1.to_bits(), 0.0f64.to_bits());
        assert_eq!(a.row(3), &[(3, 4.0), (4, -1.0), (7, 0.0)]);
    }

    #[test]
    fn clear_keeps_order_and_drops_entries() {
        let mut a = SparseMatrix::new(4);
        a.add(1, 1, 1.0);
        a.clear();
        assert_eq!(a.order(), 4);
        assert!((0..4).all(|i| a.row(i).is_empty()));
    }

    #[test]
    fn solve_small_system() {
        let mut a = SparseMatrix::new(2);
        a.add(0, 0, 2.0);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        a.add(1, 1, 3.0);
        let x = a.lu().unwrap().solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_is_exercised() {
        // Zero on the diagonal forces a row swap.
        let mut a = SparseMatrix::new(2);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        let x = a.lu().unwrap().solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn singular_is_detected() {
        let mut a = SparseMatrix::new(2);
        a.add(0, 0, 1.0);
        a.add(1, 0, 2.0);
        assert!(matches!(a.lu(), Err(NumericError::SingularMatrix { .. })));
    }

    #[test]
    fn ring_structure_with_corner_entry() {
        // Chain plus a feedback corner entry, like a ring oscillator MNA.
        let n = 40;
        let mut a = SparseMatrix::new(n);
        for i in 0..n {
            a.add(i, i, 4.0);
            if i + 1 < n {
                a.add(i, i + 1, -1.0);
                a.add(i + 1, i, -1.0);
            }
        }
        a.add(0, n - 1, -1.5);
        a.add(n - 1, 0, -0.5);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = a.lu().unwrap().solve(&b).unwrap();
        for (i, &bi) in b.iter().enumerate() {
            let r: f64 = a.row(i).iter().map(|&(c, v)| v * x[c]).sum();
            assert!((r - bi).abs() < 1e-10, "i={i}");
        }
    }
}
