//! Forward-mode dual numbers over the optimizer's unknowns `(h, k)`.
//!
//! A [`Dual`] carries a value together with its partial derivatives
//! with respect to the segment length `h` and the repeater size `k`.
//! Running the closed-form moment, pole and residual formulas of
//! [`crate::optimizer`] on duals yields the exact outer Jacobian of the
//! stationarity system (Eqs. 5–8) alongside the residuals, from the one
//! delay solve the residuals need anyway.
//!
//! The value part of every operation is the plain `f64`/[`Complex`]
//! operation on the values, so a dual evaluation's value is the scalar
//! evaluation's value.

use core::ops::{Add, Div, Mul, Neg, Sub};

use rlckit_numeric::Complex;

/// The scalar fields a [`Dual`] is built over: `f64` and [`Complex`].
pub(crate) trait Field:
    Copy
    + From<f64>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + Add<f64, Output = Self>
    + Mul<f64, Output = Self>
    + Div<f64, Output = Self>
{
    const ZERO: Self;
    fn exp(self) -> Self;
}

impl Field for f64 {
    const ZERO: Self = 0.0;
    fn exp(self) -> Self {
        f64::exp(self)
    }
}

impl Field for Complex {
    const ZERO: Self = Complex::ZERO;
    fn exp(self) -> Self {
        Complex::exp(self)
    }
}

/// A value `v` with its partials `∂v/∂h` and `∂v/∂k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Dual<T> {
    pub(crate) v: T,
    pub(crate) dh: T,
    pub(crate) dk: T,
}

impl<T: Field> Dual<T> {
    /// A quantity that depends on neither `h` nor `k`.
    pub(crate) fn constant(v: T) -> Self {
        Self {
            v,
            dh: T::ZERO,
            dk: T::ZERO,
        }
    }

    pub(crate) fn exp(self) -> Self {
        let e = self.v.exp();
        Self {
            v: e,
            dh: e * self.dh,
            dk: e * self.dk,
        }
    }

    /// `1/x`, one division: `∂(1/x) = −∂x/x²`.
    pub(crate) fn recip(self) -> Self {
        let r = T::from(1.0) / self.v;
        let neg_r2 = -(r * r);
        Self {
            v: r,
            dh: self.dh * neg_r2,
            dk: self.dk * neg_r2,
        }
    }
}

impl Dual<f64> {
    /// The unknown `h` itself.
    pub(crate) fn h(h: f64) -> Self {
        Self {
            v: h,
            dh: 1.0,
            dk: 0.0,
        }
    }

    /// The unknown `k` itself.
    pub(crate) fn k(k: f64) -> Self {
        Self {
            v: k,
            dh: 0.0,
            dk: 1.0,
        }
    }

    pub(crate) fn sqrt(self) -> Self {
        let s = self.v.sqrt();
        let twice = s * 2.0;
        Self {
            v: s,
            dh: self.dh / twice,
            dk: self.dk / twice,
        }
    }

    /// The same quantity as a (real) complex dual.
    pub(crate) fn complex(self) -> Dual<Complex> {
        Dual {
            v: Complex::from_real(self.v),
            dh: Complex::from_real(self.dh),
            dk: Complex::from_real(self.dk),
        }
    }

    /// `i` times this quantity.
    pub(crate) fn imaginary(self) -> Dual<Complex> {
        Dual {
            v: Complex::new(0.0, self.v),
            dh: Complex::new(0.0, self.dh),
            dk: Complex::new(0.0, self.dk),
        }
    }
}

impl Dual<Complex> {
    /// The real part.
    pub(crate) fn re(self) -> Dual<f64> {
        Dual {
            v: self.v.re,
            dh: self.dh.re,
            dk: self.dk.re,
        }
    }

    /// The modulus: `∂|z| = Re(z̄·∂z)/|z|`.
    pub(crate) fn abs(self) -> Dual<f64> {
        let m = self.v.abs();
        let conj = self.v.conj();
        Dual {
            v: m,
            dh: (conj * self.dh).re / m,
            dk: (conj * self.dk).re / m,
        }
    }
}

impl<T: Field> Add for Dual<T> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            v: self.v + rhs.v,
            dh: self.dh + rhs.dh,
            dk: self.dk + rhs.dk,
        }
    }
}

impl<T: Field> Sub for Dual<T> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self {
            v: self.v - rhs.v,
            dh: self.dh - rhs.dh,
            dk: self.dk - rhs.dk,
        }
    }
}

impl<T: Field> Mul for Dual<T> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self {
            v: self.v * rhs.v,
            dh: self.dh * rhs.v + self.v * rhs.dh,
            dk: self.dk * rhs.v + self.v * rhs.dk,
        }
    }
}

impl<T: Field> Div for Dual<T> {
    type Output = Self;
    fn div(self, rhs: Self) -> Self {
        let q = self.v / rhs.v;
        Self {
            v: q,
            dh: (self.dh - q * rhs.dh) / rhs.v,
            dk: (self.dk - q * rhs.dk) / rhs.v,
        }
    }
}

impl<T: Field> Neg for Dual<T> {
    type Output = Self;
    fn neg(self) -> Self {
        Self {
            v: -self.v,
            dh: -self.dh,
            dk: -self.dk,
        }
    }
}

impl<T: Field> Add<f64> for Dual<T> {
    type Output = Self;
    fn add(self, rhs: f64) -> Self {
        Self {
            v: self.v + rhs,
            ..self
        }
    }
}

impl<T: Field> Mul<f64> for Dual<T> {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self {
            v: self.v * rhs,
            dh: self.dh * rhs,
            dk: self.dk * rhs,
        }
    }
}

impl<T: Field> Div<f64> for Dual<T> {
    type Output = Self;
    fn div(self, rhs: f64) -> Self {
        Self {
            v: self.v / rhs,
            dh: self.dh / rhs,
            dk: self.dk / rhs,
        }
    }
}

/// A complex dual scaled by a real one: half the multiplies of lifting
/// the real factor to a complex dual first.
impl Mul<Dual<f64>> for Dual<Complex> {
    type Output = Self;
    fn mul(self, rhs: Dual<f64>) -> Self {
        Self {
            v: self.v * rhs.v,
            dh: self.dh * rhs.v + self.v * rhs.dh,
            dk: self.dk * rhs.v + self.v * rhs.dk,
        }
    }
}

impl<T: Field> Add<Dual<T>> for f64 {
    type Output = Dual<T>;
    fn add(self, rhs: Dual<T>) -> Dual<T> {
        rhs + self
    }
}

impl<T: Field> Mul<Dual<T>> for f64 {
    type Output = Dual<T>;
    fn mul(self, rhs: Dual<T>) -> Dual<T> {
        rhs * self
    }
}

impl<T: Field> Div<Dual<T>> for f64 {
    type Output = Dual<T>;
    fn div(self, rhs: Dual<T>) -> Dual<T> {
        Dual::constant(T::from(self)) / rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f(h, k) = √(h·k)·e^{h/k} + 3h − 1/k`, with its partials by hand.
    #[test]
    fn real_duals_carry_exact_partials() {
        let (h, k) = (0.7, 1.9);
        let f = |h: Dual<f64>, k: Dual<f64>| (h * k).sqrt() * (h / k).exp() + 3.0 * h - 1.0 / k;
        let got = f(Dual::h(h), Dual::k(k));
        let (s, e) = ((h * k).sqrt(), (h / k).exp());
        let want_dh = k / (2.0 * s) * e + s * e / k + 3.0;
        let want_dk = h / (2.0 * s) * e - s * e * h / (k * k) + 1.0 / (k * k);
        assert!((got.v - (s * e + 3.0 * h - 1.0 / k)).abs() < 1e-15);
        assert!((got.dh - want_dh).abs() < 1e-13, "{} vs {want_dh}", got.dh);
        assert!((got.dk - want_dk).abs() < 1e-13, "{} vs {want_dk}", got.dk);
    }

    /// Complex duals against central differences: `re`, `abs`,
    /// `recip`, the real-by-complex product, and an imaginary root.
    #[test]
    fn complex_duals_match_central_differences() {
        let f = |h: Dual<f64>, k: Dual<f64>| {
            let z = (k * 2.0 - h).sqrt().imaginary(); // √(h − 2k), h < 2k
            let w =
                (z * h.complex() - k.complex()).exp() * (z + Dual::constant(Complex::ONE)).recip();
            (w.re(), (w * k).abs())
        };
        let (h, k) = (0.3, 0.8);
        let (re, abs) = f(Dual::h(h), Dual::k(k));
        let eps = 1e-6;
        let at = |h: f64, k: f64| f(Dual::constant(h), Dual::constant(k));
        let fd = |g: fn((Dual<f64>, Dual<f64>)) -> f64, dh: f64, dk: f64| {
            (g(at(h + dh, k + dk)) - g(at(h - dh, k - dk))) / (2.0 * eps)
        };
        for (dual, pick) in [
            (re, (|p: (Dual<f64>, Dual<f64>)| p.0.v) as fn(_) -> f64),
            (abs, |p: (Dual<f64>, Dual<f64>)| p.1.v),
        ] {
            let (fd_h, fd_k) = (fd(pick, eps, 0.0), fd(pick, 0.0, eps));
            assert!(
                (dual.dh - fd_h).abs() < 1e-7 * fd_h.abs().max(1.0),
                "{} vs {fd_h}",
                dual.dh
            );
            assert!(
                (dual.dk - fd_k).abs() < 1e-7 * fd_k.abs().max(1.0),
                "{} vs {fd_k}",
                dual.dk
            );
        }
    }
}
