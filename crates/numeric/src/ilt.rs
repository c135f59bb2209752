//! Numerical inverse Laplace transforms.
//!
//! The exact step response of the driver–interconnect–load structure is
//! "analytically intractable" (paper §2.1); the paper therefore reduces
//! the transfer function to two poles. To *validate* that reduction we
//! invert the exact `H(s)/s` numerically. Two classic algorithms are
//! provided:
//!
//! * [`EulerInversion`] — the Abate–Whitt Euler algorithm (Fourier series
//!   with Euler summation). Robust for oscillatory (underdamped)
//!   responses, which is the regime where inductance matters.
//! * [`TalbotInversion`] — the fixed-Talbot deformed-contour method.
//!   Spectacularly accurate for smooth, overdamped responses.
//!
//! Both assume all singularities of `F` lie in the open left half-plane,
//! which holds for every passive circuit transfer function in this
//! workspace.

use crate::complex::Complex;
use crate::{NumericError, Result};

/// Abate–Whitt Euler-summation inverse Laplace transform.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::ilt::EulerInversion;
/// use rlckit_numeric::Complex;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let euler = EulerInversion::new(16);
/// // F(s) = 1/(s+1)  ⇒  f(t) = e^{-t}
/// let f = euler.invert(|s| (s + 1.0).recip(), 0.7)?;
/// assert!((f - (-0.7f64).exp()).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EulerInversion {
    m: usize,
    /// Euler-accelerated binomial weights `ξ₀ … ξ_{2M}`.
    xi: Vec<f64>,
}

impl EulerInversion {
    /// Creates an inverter with acceleration parameter `m`.
    ///
    /// Accuracy is roughly `0.6·m` significant digits until round-off
    /// (≈ `10^{m/3}` amplification) takes over; `m = 16` is a good
    /// default in `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `m < 2` or `m > 40` (weights overflow `f64` above that).
    #[must_use]
    pub fn new(m: usize) -> Self {
        assert!((2..=40).contains(&m), "euler parameter out of range");
        let mut xi = vec![0.0; 2 * m + 1];
        xi[0] = 0.5;
        for x in xi.iter_mut().take(m + 1).skip(1) {
            *x = 1.0;
        }
        let two_pow_neg_m = 0.5f64.powi(m as i32);
        xi[2 * m] = two_pow_neg_m;
        // ξ_{2M-j} = ξ_{2M-j+1} + 2^{-M}·C(M, j)
        let mut binom = 1.0f64; // C(M, 0)
        for j in 1..m {
            binom = binom * (m - j + 1) as f64 / j as f64; // C(M, j)
            xi[2 * m - j] = xi[2 * m - j + 1] + two_pow_neg_m * binom;
        }
        Self { m, xi }
    }

    /// Returns the acceleration parameter.
    #[must_use]
    pub fn parameter(&self) -> usize {
        self.m
    }

    /// Inverts `F` at time `t > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if `t ≤ 0` or the transform
    /// evaluates to a non-finite value on the summation abscissas.
    pub fn invert(&self, transform: impl Fn(Complex) -> Complex, t: f64) -> Result<f64> {
        if t <= 0.0 || !t.is_finite() {
            return Err(NumericError::InvalidInput(format!(
                "inverse laplace requires t > 0, got {t}"
            )));
        }
        let m = self.m as f64;
        let a = m * std::f64::consts::LN_10 / 3.0;
        let scale = 10.0f64.powf(m / 3.0) / t;
        let mut sum = 0.0;
        for (k, &xi) in self.xi.iter().enumerate() {
            let beta = Complex::new(a, std::f64::consts::PI * k as f64);
            let val = transform(beta / t);
            if !val.is_finite() {
                return Err(NumericError::InvalidInput(format!(
                    "transform non-finite at s = {}",
                    beta / t
                )));
            }
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            sum += sign * xi * val.re;
        }
        Ok(scale * sum)
    }

    /// Inverts `F` on a whole grid of times.
    ///
    /// # Errors
    ///
    /// Propagates the first error of [`EulerInversion::invert`].
    pub fn invert_grid(
        &self,
        transform: impl Fn(Complex) -> Complex,
        times: &[f64],
    ) -> Result<Vec<f64>> {
        times.iter().map(|&t| self.invert(&transform, t)).collect()
    }
}

impl Default for EulerInversion {
    fn default() -> Self {
        Self::new(16)
    }
}

/// Fixed-Talbot inverse Laplace transform (Abate–Valkó).
///
/// # Examples
///
/// ```
/// use rlckit_numeric::ilt::TalbotInversion;
/// use rlckit_numeric::Complex;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let talbot = TalbotInversion::new(32);
/// // F(s) = 1/s²  ⇒  f(t) = t
/// let f = talbot.invert(|s| (s * s).recip(), 2.5)?;
/// assert!((f - 2.5).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TalbotInversion {
    m: usize,
}

impl TalbotInversion {
    /// Creates an inverter using `m` contour nodes.
    ///
    /// # Panics
    ///
    /// Panics if `m < 4`.
    #[must_use]
    pub fn new(m: usize) -> Self {
        assert!(m >= 4, "talbot needs at least 4 nodes");
        Self { m }
    }

    /// Returns the number of contour nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.m
    }

    /// Inverts `F` at time `t > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if `t ≤ 0` or the transform
    /// evaluates to a non-finite value on the contour.
    pub fn invert(&self, transform: impl Fn(Complex) -> Complex, t: f64) -> Result<f64> {
        if t <= 0.0 || !t.is_finite() {
            return Err(NumericError::InvalidInput(format!(
                "inverse laplace requires t > 0, got {t}"
            )));
        }
        let m = self.m;
        let r = 2.0 * m as f64 / (5.0 * t);
        // k = 0 node: the contour's vertex on the real axis.
        let mut sum = 0.5 * (Complex::from_real(r * t).exp() * transform(Complex::from_real(r))).re;
        for k in 1..m {
            let theta = k as f64 * std::f64::consts::PI / m as f64;
            let cot = theta.cos() / theta.sin();
            let s = Complex::new(r * theta * cot, r * theta);
            let sigma = theta + (theta * cot - 1.0) * cot;
            let val = transform(s);
            if !val.is_finite() {
                return Err(NumericError::InvalidInput(format!(
                    "transform non-finite at s = {s}"
                )));
            }
            let w = (s * t).exp() * Complex::new(1.0, sigma);
            sum += (w * val).re;
        }
        Ok(2.0 / (5.0 * t) * sum)
    }

    /// Inverts `F` on a whole grid of times.
    ///
    /// # Errors
    ///
    /// Propagates the first error of [`TalbotInversion::invert`].
    pub fn invert_grid(
        &self,
        transform: impl Fn(Complex) -> Complex,
        times: &[f64],
    ) -> Result<Vec<f64>> {
        times.iter().map(|&t| self.invert(&transform, t)).collect()
    }
}

impl Default for TalbotInversion {
    fn default() -> Self {
        Self::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(
        invert: impl Fn(&dyn Fn(Complex) -> Complex, f64) -> Result<f64>,
        transform: impl Fn(Complex) -> Complex + 'static,
        exact: impl Fn(f64) -> f64,
        times: &[f64],
        tol: f64,
        label: &str,
    ) {
        for &t in times {
            let got = invert(&transform, t).unwrap();
            let want = exact(t);
            assert!(
                (got - want).abs() < tol,
                "{label}: t={t}, got {got}, want {want}"
            );
        }
    }

    #[test]
    fn euler_step_function() {
        let e = EulerInversion::default();
        check(
            |f, t| e.invert(f, t),
            |s| s.recip(),
            |_| 1.0,
            &[0.1, 1.0, 5.0],
            1e-8,
            "euler 1/s",
        );
    }

    #[test]
    fn euler_ramp_and_exponential() {
        let e = EulerInversion::default();
        check(
            |f, t| e.invert(f, t),
            |s| (s * s).recip(),
            |t| t,
            &[0.2, 1.0, 3.0],
            1e-7,
            "euler 1/s^2",
        );
        check(
            |f, t| e.invert(f, t),
            |s| (s + 2.0).recip(),
            |t| (-2.0 * t).exp(),
            &[0.1, 0.5, 2.0],
            1e-8,
            "euler exp",
        );
    }

    #[test]
    fn euler_handles_oscillation() {
        let e = EulerInversion::new(20);
        check(
            |f, t| e.invert(f, t),
            |s| (s * s + 1.0).recip(),
            f64::sin,
            &[0.5, 1.5, 3.0, 6.0],
            1e-6,
            "euler sin",
        );
    }

    #[test]
    fn euler_underdamped_two_pole_step() {
        // H(s)/s with ζ = 0.3, ωn = 1: the exact paper regime.
        let (zeta, wn) = (0.3, 1.0);
        let e = EulerInversion::new(18);
        let transform =
            move |s: Complex| (s * (s * s / (wn * wn) + s * (2.0 * zeta / wn) + 1.0)).recip();
        let wd = wn * (1.0f64 - zeta * zeta).sqrt();
        let exact = move |t: f64| {
            1.0 - (-zeta * wn * t).exp() * ((wd * t).cos() + zeta * wn / wd * (wd * t).sin())
        };
        check(
            |f, t| e.invert(f, t),
            transform,
            exact,
            &[0.3, 1.0, 2.0, 4.0, 8.0],
            1e-6,
            "euler two-pole",
        );
    }

    #[test]
    fn talbot_smooth_transforms() {
        let t = TalbotInversion::default();
        check(
            |f, x| t.invert(f, x),
            |s| s.recip(),
            |_| 1.0,
            &[0.1, 1.0, 10.0],
            1e-9,
            "talbot 1/s",
        );
        check(
            |f, x| t.invert(f, x),
            |s| (s + 1.0).recip(),
            |x| (-x).exp(),
            &[0.2, 1.0, 4.0],
            1e-9,
            "talbot exp",
        );
    }

    #[test]
    fn talbot_mildly_oscillatory() {
        // Talbot degrades with oscillation but must stay usable for a few
        // periods — matching how the oracle is applied (first crossing).
        let t = TalbotInversion::new(48);
        check(
            |f, x| t.invert(f, x),
            |s| (s * s + 1.0).recip(),
            f64::sin,
            &[0.5, 1.5, 3.0],
            1e-5,
            "talbot sin",
        );
    }

    #[test]
    fn invalid_time_is_rejected() {
        let e = EulerInversion::default();
        assert!(e.invert(|s| s.recip(), 0.0).is_err());
        assert!(e.invert(|s| s.recip(), -1.0).is_err());
        let t = TalbotInversion::default();
        assert!(t.invert(|s| s.recip(), 0.0).is_err());
    }

    #[test]
    fn grid_inversion_matches_pointwise() {
        let e = EulerInversion::default();
        let times = [0.5, 1.0, 2.0];
        let grid = e.invert_grid(|s| s.recip(), &times).unwrap();
        for (&t, &g) in times.iter().zip(&grid) {
            assert_eq!(g, e.invert(|s| s.recip(), t).unwrap());
        }
    }

    #[test]
    fn euler_weights_sum_to_ten_thirds_power() {
        // Σ (-1)^k ξ_k telescopes to a small number; sanity-check the
        // construction against the closed form for small M.
        let e = EulerInversion::new(4);
        assert_eq!(e.xi[0], 0.5);
        assert_eq!(e.xi[4], 1.0);
        assert_eq!(e.xi[8], 0.0625);
        // ξ_7 = ξ_8 + 2^-4·C(4,1) = 0.0625 + 0.25
        assert!((e.xi[7] - 0.3125).abs() < 1e-15);
        // ξ_5 = ξ_6 + 2^-4 C(4,3); ξ_6 = ξ_7 + 2^-4 C(4,2)
        assert!((e.xi[6] - (0.3125 + 0.375)).abs() < 1e-15);
        assert!((e.xi[5] - (0.6875 + 0.25)).abs() < 1e-15);
    }
}
