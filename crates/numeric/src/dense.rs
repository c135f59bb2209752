//! The allocation-free 2×2 solve of the repeater optimizer's Newton step.
//!
//! [`solve2`] is the only dense solve on a production path. Its
//! reference, the dense LU with partial pivoting it must match bit for
//! bit, is test support (`rlckit_check::oracle`). Circuit (MNA) systems
//! use [`crate::sparse`].

use crate::{NumericError, Result};

/// Solves the 2×2 system `J·d = g` without allocating.
///
/// This is the inner linear solve of the paper's Newton iteration on the
/// stationarity residuals (step 4 in §2.2). It performs the operations
/// of a dense LU factor-and-solve with partial pivoting on a 2×2, in the
/// same order, so the two agree bit for bit (NaN entries included).
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
    fn solve2_closed_form() {
        let d = solve2([[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0]).unwrap();
        // x = A⁻¹ b with A⁻¹ = [-2, 1; 1.5, -0.5]
        assert!((d[0] - -4.0).abs() < 1e-12);
        assert!((d[1] - 4.5).abs() < 1e-12);
        assert!(solve2([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]).is_err());
    }
}
