//! Truncated Taylor-series algebra in one variable.
//!
//! The transfer-function denominator of the driver–interconnect–load
//! structure (paper Eq. 1) is an entire function of the Laplace variable
//! `s`; its Maclaurin coefficients are exactly the moments `b₁, b₂, …`
//! that the Padé reduction needs. Because `cosh(θh)` and `sinh(θh)/θh`
//! are power series in `(θh)² = (r + sl)·s·c·h²` — itself a polynomial in
//! `s` — the whole expansion is mechanical polynomial algebra, which this
//! module provides to arbitrary truncation order. Matching the paper's
//! hand-derived `b₁` and `b₂` against this machinery is one of the
//! workspace's strongest self-checks.

use crate::{NumericError, Result};

/// A Taylor series `Σ aᵢ·xⁱ` truncated (inclusively) at a fixed order.
///
/// All arithmetic stays at the truncation order of the operands (which
/// must agree).
///
/// # Examples
///
/// ```
/// use rlckit_numeric::series::Series;
///
/// // (1 + x)² = 1 + 2x + x² to order 3.
/// let p = Series::from_coeffs(vec![1.0, 1.0, 0.0, 0.0]);
/// let sq = p.mul(&p);
/// assert_eq!(sq.coeffs(), &[1.0, 2.0, 1.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    coeffs: Vec<f64>,
}

impl Series {
    /// Creates a series from ascending coefficients; the truncation order
    /// is `coeffs.len() - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty.
    #[must_use]
    pub fn from_coeffs(coeffs: Vec<f64>) -> Self {
        assert!(!coeffs.is_empty(), "series needs at least a constant term");
        Self { coeffs }
    }

    /// The zero series at truncation order `order`.
    #[must_use]
    pub fn zero(order: usize) -> Self {
        Self {
            coeffs: vec![0.0; order + 1],
        }
    }

    /// The constant-one series at truncation order `order`.
    #[must_use]
    pub fn one(order: usize) -> Self {
        let mut s = Self::zero(order);
        s.coeffs[0] = 1.0;
        s
    }

    /// The series `x` (the variable itself) at truncation order `order`.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0`.
    #[must_use]
    pub fn variable(order: usize) -> Self {
        assert!(order >= 1, "variable needs order >= 1");
        let mut s = Self::zero(order);
        s.coeffs[1] = 1.0;
        s
    }

    /// Returns the truncation order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Returns the coefficients in ascending order.
    #[must_use]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Returns coefficient `i` (0 beyond the truncation order).
    #[must_use]
    pub fn coeff(&self, i: usize) -> f64 {
        self.coeffs.get(i).copied().unwrap_or(0.0)
    }

    /// Adds two series of identical truncation order.
    ///
    /// # Panics
    ///
    /// Panics if the orders disagree.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.order(), other.order(), "order mismatch");
        Self {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Multiplies two series, truncating at the common order.
    ///
    /// # Panics
    ///
    /// Panics if the orders disagree.
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        assert_eq!(self.order(), other.order(), "order mismatch");
        let n = self.coeffs.len();
        let mut out = vec![0.0; n];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().take(n - i).enumerate() {
                out[i + j] += a * b;
            }
        }
        Self { coeffs: out }
    }

    /// Scales every coefficient by `factor`.
    #[must_use]
    pub fn scale(&self, factor: f64) -> Self {
        Self {
            coeffs: self.coeffs.iter().map(|c| c * factor).collect(),
        }
    }

    /// Composes an entire function `f(u) = Σ_m w(m)·uᵐ` with this series,
    /// which must have a zero constant term.
    ///
    /// Used for `cosh(θh) = Σ Pᵐ/(2m)!` and `sinh(θh)/(θh) = Σ Pᵐ/(2m+1)!`
    /// with `P = (θh)²` a polynomial in `s`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if the constant term is
    /// nonzero (the composition would not terminate at the truncation
    /// order).
    pub fn compose_entire(&self, weight: impl Fn(usize) -> f64) -> Result<Self> {
        if self.coeffs[0] != 0.0 {
            return Err(NumericError::InvalidInput(
                "composition argument must have zero constant term".to_string(),
            ));
        }
        let order = self.order();
        let mut acc = Series::zero(order).add(&Series::one(order).scale(weight(0)));
        let mut power = Series::one(order);
        // Pᵐ has lowest degree ≥ m, so m > order contributes nothing.
        for m in 1..=order {
            power = power.mul(self);
            acc = acc.add(&power.scale(weight(m)));
        }
        Ok(acc)
    }

    /// Returns the reciprocal series `1/self`, requiring a nonzero
    /// constant term.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if the constant term is 0.
    pub fn recip(&self) -> Result<Self> {
        let a0 = self.coeffs[0];
        if a0 == 0.0 {
            return Err(NumericError::InvalidInput(
                "reciprocal of series with zero constant term".to_string(),
            ));
        }
        let n = self.coeffs.len();
        let mut out = vec![0.0; n];
        out[0] = 1.0 / a0;
        for k in 1..n {
            let mut acc = 0.0;
            for j in 1..=k {
                acc += self.coeffs[j] * out[k - j];
            }
            out[k] = -acc / a0;
        }
        Ok(Self { coeffs: out })
    }

    /// Evaluates the truncated series at `x` by Horner's rule.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factorial(n: usize) -> f64 {
        (1..=n).map(|i| i as f64).product()
    }

    #[test]
    fn mul_truncates_consistently() {
        let a = Series::from_coeffs(vec![1.0, 2.0, 3.0]);
        let b = Series::from_coeffs(vec![4.0, 5.0, 6.0]);
        // (1+2x+3x²)(4+5x+6x²) = 4 + 13x + 28x² + …
        let p = a.mul(&b);
        assert_eq!(p.coeffs(), &[4.0, 13.0, 28.0]);
    }

    #[test]
    fn compose_exponential_series() {
        // exp(P) with P = x (weight 1/m!) reproduces e^x coefficients.
        let p = Series::variable(6);
        let e = p.compose_entire(|m| 1.0 / factorial(m)).unwrap();
        for i in 0..=6 {
            assert!((e.coeff(i) - 1.0 / factorial(i)).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn compose_cosh_of_sqrt_polynomial() {
        // cosh(√P) with P = x: Σ xᵐ/(2m)! — the transmission-line pattern.
        let p = Series::variable(5);
        let c = p.compose_entire(|m| 1.0 / factorial(2 * m)).unwrap();
        assert_eq!(c.coeff(0), 1.0);
        assert!((c.coeff(1) - 0.5).abs() < 1e-15);
        assert!((c.coeff(2) - 1.0 / 24.0).abs() < 1e-15);
    }

    #[test]
    fn compose_rejects_nonzero_constant() {
        let p = Series::one(3);
        assert!(p.compose_entire(|_| 1.0).is_err());
    }

    #[test]
    fn recip_of_geometric() {
        // 1/(1 - x) = 1 + x + x² + …
        let s = Series::from_coeffs(vec![1.0, -1.0, 0.0, 0.0, 0.0]);
        let r = s.recip().unwrap();
        assert_eq!(r.coeffs(), &[1.0, 1.0, 1.0, 1.0, 1.0]);
        // Round-trip: s · (1/s) = 1.
        let id = s.mul(&r);
        assert!((id.coeff(0) - 1.0).abs() < 1e-15);
        for i in 1..=4 {
            assert!(id.coeff(i).abs() < 1e-15);
        }
    }

    #[test]
    fn recip_requires_nonzero_constant() {
        assert!(Series::variable(3).recip().is_err());
    }

    #[test]
    fn eval_matches_polynomial_value() {
        let s = Series::from_coeffs(vec![1.0, -1.0, 0.5]);
        assert!((s.eval(2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coeff_beyond_order_is_zero() {
        let s = Series::one(2);
        assert_eq!(s.coeff(10), 0.0);
    }
}
