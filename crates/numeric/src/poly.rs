//! Dense real-coefficient polynomials with complex root finding.
//!
//! The two-pole model only needs the quadratic formula, but the AWE-style
//! higher-order reduced models (an extension benchmarked against the
//! paper's second-order choice) need the roots of denominators of degree
//! 3–8; those are found with the Durand–Kerner simultaneous iteration.

use crate::complex::Complex;
use crate::{NumericError, Result};

/// A polynomial `p(x) = c₀ + c₁x + … + c_n xⁿ` with real coefficients
/// stored in ascending order.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::poly::Polynomial;
///
/// let p = Polynomial::new(vec![-2.0, 0.0, 1.0]); // x² - 2
/// assert_eq!(p.degree(), 2);
/// assert!((p.eval(2.0_f64.sqrt())).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from ascending coefficients, trimming trailing
    /// zeros (the zero polynomial keeps a single `0.0`).
    #[must_use]
    pub fn new(mut coeffs: Vec<f64>) -> Self {
        while coeffs.len() > 1 && coeffs.last() == Some(&0.0) {
            coeffs.pop();
        }
        if coeffs.is_empty() {
            coeffs.push(0.0);
        }
        Self { coeffs }
    }

    /// Returns the coefficients in ascending order.
    #[must_use]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Returns the degree (0 for constants, including the zero polynomial).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Evaluates the polynomial at a real abscissa by Horner's rule.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Evaluates the polynomial at a complex abscissa by Horner's rule.
    #[must_use]
    pub fn eval_complex(&self, z: Complex) -> Complex {
        self.coeffs
            .iter()
            .rev()
            .fold(Complex::ZERO, |acc, &c| acc * z + c)
    }

    /// Returns the formal derivative.
    #[must_use]
    pub fn derivative(&self) -> Self {
        if self.coeffs.len() <= 1 {
            return Self::new(vec![0.0]);
        }
        Self::new(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, &c)| c * i as f64)
                .collect(),
        )
    }

    /// Finds all complex roots.
    ///
    /// Degrees 1 and 2 use closed forms; higher degrees use the
    /// Durand–Kerner simultaneous iteration, which converges for
    /// polynomials with simple roots and behaves acceptably for the mildly
    /// clustered pole sets of reduced-order interconnect models.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] for the zero or constant
    /// polynomial, and [`NumericError::NoConvergence`] if the iteration
    /// stalls.
    pub fn roots(&self) -> Result<Vec<Complex>> {
        let n = self.degree();
        if n == 0 {
            return Err(NumericError::InvalidInput(
                "constant polynomial has no roots".to_string(),
            ));
        }
        let lead = *self.coeffs.last().expect("nonempty");
        match n {
            1 => Ok(vec![Complex::from_real(-self.coeffs[0] / lead)]),
            2 => {
                let (c, b, a) = (self.coeffs[0], self.coeffs[1], self.coeffs[2]);
                Ok(quadratic_roots(a, b, c).to_vec())
            }
            _ => self.durand_kerner(),
        }
    }

    fn durand_kerner(&self) -> Result<Vec<Complex>> {
        let n = self.degree();
        let lead = *self.coeffs.last().expect("nonempty");
        // Monic normalization for stability.
        let monic: Vec<f64> = self.coeffs.iter().map(|&c| c / lead).collect();
        let monic_poly = Polynomial {
            coeffs: monic.clone(),
        };

        // Initial guesses on a circle whose radius follows the Cauchy bound.
        let radius = 1.0 + monic[..n].iter().map(|c| c.abs()).fold(0.0f64, f64::max);
        let mut roots: Vec<Complex> = (0..n)
            .map(|k| {
                // Slightly irrational angle offset avoids symmetry stalls.
                Complex::from_polar(
                    radius,
                    2.0 * core::f64::consts::PI * k as f64 / n as f64 + 0.4,
                )
            })
            .collect();

        const MAX_ITERATIONS: usize = 500;
        for _ in 0..MAX_ITERATIONS {
            let mut max_step = 0.0f64;
            for i in 0..n {
                let zi = roots[i];
                let mut denom = Complex::ONE;
                for (j, &zj) in roots.iter().enumerate() {
                    if j != i {
                        denom *= zi - zj;
                    }
                }
                if denom.abs() == 0.0 {
                    // Perturb a collision and retry on the next sweep.
                    roots[i] = zi + Complex::new(1e-8, 1e-8);
                    max_step = f64::INFINITY;
                    continue;
                }
                let step = monic_poly.eval_complex(zi) / denom;
                roots[i] = zi - step;
                max_step = max_step.max(step.abs());
            }
            if max_step < 1e-13 * radius.max(1.0) {
                // Pair up conjugates exactly for real-coefficient inputs.
                return Ok(roots);
            }
        }
        Err(NumericError::NoConvergence {
            iterations: MAX_ITERATIONS,
            residual: f64::NAN,
        })
    }
}

/// Closed-form roots of `a·x² + b·x + c` (complex-capable, stable form).
///
/// # Panics
///
/// Panics if `a == 0` (use [`Polynomial::roots`] for general input).
///
/// # Examples
///
/// ```
/// use rlckit_numeric::poly::quadratic_roots;
///
/// let [r1, r2] = quadratic_roots(1.0, -3.0, 2.0);
/// assert!((r1.re - 2.0).abs() < 1e-12 || (r1.re - 1.0).abs() < 1e-12);
/// assert_eq!(r1.im, 0.0);
/// # let _ = r2;
/// ```
#[must_use]
pub fn quadratic_roots(a: f64, b: f64, c: f64) -> [Complex; 2] {
    assert!(a != 0.0, "leading coefficient must be nonzero");
    let disc = b * b - 4.0 * a * c;
    if disc >= 0.0 {
        // Numerically stable: compute the larger-magnitude root first.
        let sq = disc.sqrt();
        let q = -0.5 * (b + b.signum() * sq);
        let r1 = if b == 0.0 { sq / (2.0 * a) } else { q / a };
        let r2 = if q != 0.0 {
            c / q
        } else {
            // b == 0 and c == 0 ⇒ double root at 0.
            -r1
        };
        [Complex::from_real(r1), Complex::from_real(r2)]
    } else {
        let re = -b / (2.0 * a);
        let im = (-disc).sqrt() / (2.0 * a);
        [Complex::new(re, im), Complex::new(re, -im)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contains_root(roots: &[Complex], target: Complex, tol: f64) -> bool {
        roots.iter().any(|r| (*r - target).abs() < tol)
    }

    #[test]
    fn trims_trailing_zeros() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
    }

    #[test]
    fn eval_matches_direct_computation() {
        let p = Polynomial::new(vec![1.0, -2.0, 3.0]); // 1 - 2x + 3x²
        assert!((p.eval(2.0) - 9.0).abs() < 1e-12);
        let z = Complex::new(1.0, 1.0);
        let expected = Complex::ONE - z * 2.0 + z * z * 3.0;
        assert!((p.eval_complex(z) - expected).abs() < 1e-12);
    }

    #[test]
    fn derivative_rules() {
        let p = Polynomial::new(vec![5.0, 1.0, 2.0, 4.0]); // 5 + x + 2x² + 4x³
        let d = p.derivative();
        assert_eq!(d.coeffs(), &[1.0, 4.0, 12.0]);
        assert_eq!(Polynomial::new(vec![7.0]).derivative().coeffs(), &[0.0]);
    }

    #[test]
    fn linear_roots() {
        let p = Polynomial::new(vec![-6.0, 2.0]);
        let r = p.roots().unwrap();
        assert!(contains_root(&r, Complex::from_real(3.0), 1e-12));
    }

    #[test]
    fn quadratic_real_and_complex() {
        let [r1, r2] = quadratic_roots(1.0, -5.0, 6.0);
        assert!((r1.re * r2.re - 6.0).abs() < 1e-12);
        assert!((r1.re + r2.re - 5.0).abs() < 1e-12);

        let [c1, c2] = quadratic_roots(1.0, 0.0, 1.0);
        assert!(contains_root(&[c1, c2], Complex::I, 1e-12));
        assert!(contains_root(&[c1, c2], -Complex::I, 1e-12));
    }

    #[test]
    fn quadratic_avoids_cancellation() {
        // x² - 1e8·x + 1 has roots ~1e8 and ~1e-8; the naive formula loses
        // the small one entirely.
        let [r1, r2] = quadratic_roots(1.0, -1e8, 1.0);
        let small = r1.re.min(r2.re);
        assert!((small - 1e-8).abs() / 1e-8 < 1e-6);
    }

    #[test]
    fn cubic_roots_via_durand_kerner() {
        // (x-1)(x-2)(x-3) = x³ - 6x² + 11x - 6
        let p = Polynomial::new(vec![-6.0, 11.0, -6.0, 1.0]);
        let r = p.roots().unwrap();
        for target in [1.0, 2.0, 3.0] {
            assert!(contains_root(&r, Complex::from_real(target), 1e-8));
        }
    }

    #[test]
    fn quintic_with_complex_pairs() {
        // (x² + 1)(x² + 4)(x - 1)
        // = x⁵ - x⁴ + 5x³ - 5x² + 4x - 4
        let p = Polynomial::new(vec![-4.0, 4.0, -5.0, 5.0, -1.0, 1.0]);
        let r = p.roots().unwrap();
        for target in [
            Complex::I,
            -Complex::I,
            Complex::new(0.0, 2.0),
            Complex::new(0.0, -2.0),
            Complex::from_real(1.0),
        ] {
            assert!(contains_root(&r, target, 1e-7), "missing {target}");
        }
    }

    #[test]
    fn residuals_vanish_at_found_roots() {
        let p = Polynomial::new(vec![2.0, -3.0, 0.5, 1.0, 0.25]);
        let r = p.roots().unwrap();
        assert_eq!(r.len(), 4);
        for z in r {
            assert!(p.eval_complex(z).abs() < 1e-7, "residual at {z}");
        }
    }

    #[test]
    fn constant_has_no_roots() {
        assert!(Polynomial::new(vec![3.0]).roots().is_err());
    }
}
