//! Complex arithmetic with the transcendental functions needed for
//! transmission-line transfer-function evaluation.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` over `f64`.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::Complex;
///
/// let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * 1e9); // jω at 1 GHz
/// let z = (Complex::new(4400.0, 0.0) + s * 1e-6) / (s * 203.5e-12);
/// let z0 = z.sqrt(); // lossy characteristic impedance
/// assert!(z0.re > 0.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[must_use]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates.
    #[must_use]
    pub fn from_polar(radius: f64, angle: f64) -> Self {
        Self::new(radius * angle.cos(), radius * angle.sin())
    }

    /// Returns the complex conjugate.
    #[must_use]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Returns the modulus `|z|`, computed without intermediate overflow.
    #[must_use]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Returns the squared modulus `|z|²`.
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the principal argument in `(-π, π]`.
    #[must_use]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns the multiplicative inverse `1/z`.
    #[must_use]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// Returns the principal square root (branch cut on the negative real
    /// axis, result in the right half-plane).
    #[must_use]
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Self::ZERO;
        }
        let r = self.abs();
        // Numerically stable form avoiding cancellation.
        let re = ((r + self.re) / 2.0).sqrt();
        let im_mag = ((r - self.re) / 2.0).sqrt();
        Self::new(re, if self.im >= 0.0 { im_mag } else { -im_mag })
    }

    /// Returns the complex exponential `e^z`.
    #[must_use]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Returns the principal natural logarithm.
    #[must_use]
    pub fn ln(self) -> Self {
        Self::new(self.abs().ln(), self.arg())
    }

    /// Returns the hyperbolic cosine.
    #[must_use]
    pub fn cosh(self) -> Self {
        Self::new(
            self.re.cosh() * self.im.cos(),
            self.re.sinh() * self.im.sin(),
        )
    }

    /// Returns the hyperbolic sine.
    #[must_use]
    pub fn sinh(self) -> Self {
        Self::new(
            self.re.sinh() * self.im.cos(),
            self.re.cosh() * self.im.sin(),
        )
    }

    /// Returns the cosine.
    #[must_use]
    pub fn cos(self) -> Self {
        Self::new(
            self.re.cos() * self.im.cosh(),
            -self.re.sin() * self.im.sinh(),
        )
    }

    /// Returns the sine.
    #[must_use]
    pub fn sin(self) -> Self {
        Self::new(
            self.re.sin() * self.im.cosh(),
            self.re.cos() * self.im.sinh(),
        )
    }

    /// Returns `sinh(z)/z`, stable near `z = 0`.
    ///
    /// Transmission-line two-ports use `sinh(θh)/θ` and `θ·sinh(θh)`
    /// combinations that are even in `θ`; expressing them through `sinhc`
    /// keeps them single-valued regardless of the square-root branch.
    #[must_use]
    pub fn sinhc(self) -> Self {
        if self.abs() < 1e-6 {
            // sinh(z)/z = 1 + z²/6 + z⁴/120 + …
            let z2 = self * self;
            return Self::ONE + z2 * (1.0 / 6.0) + z2 * z2 * (1.0 / 120.0);
        }
        self.sinh() / self
    }

    /// Returns `true` if both parts are finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Raises the number to an integer power by repeated squaring.
    #[must_use]
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Self::ONE;
        }
        let mut base = if n < 0 { self.recip() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Self::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base *= base;
            n >>= 1;
        }
        acc
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl Add for Complex {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Self;
    fn div(self, rhs: Self) -> Self {
        // Smith's algorithm for a robust complex division.
        if rhs.re.abs() >= rhs.im.abs() {
            let ratio = rhs.im / rhs.re;
            let denom = rhs.re + rhs.im * ratio;
            Self::new(
                (self.re + self.im * ratio) / denom,
                (self.im - self.re * ratio) / denom,
            )
        } else {
            let ratio = rhs.re / rhs.im;
            let denom = rhs.re * ratio + rhs.im;
            Self::new(
                (self.re * ratio + self.im) / denom,
                (self.im * ratio - self.re) / denom,
            )
        }
    }
}

impl Neg for Complex {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Add<f64> for Complex {
    type Output = Self;
    fn add(self, rhs: f64) -> Self {
        Self::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex {
    type Output = Self;
    fn sub(self, rhs: f64) -> Self {
        Self::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.re * rhs, self.im * rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Self;
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Add<Complex> for f64 {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self + rhs.re, rhs.im)
    }
}

impl Sub<Complex> for f64 {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self - rhs.re, -rhs.im)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self * rhs.re, self * rhs.im)
    }
}

impl Div<Complex> for f64 {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        Complex::from_real(self) / rhs
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, z| acc + z)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -4.0);
        assert_eq!(a + b, Complex::new(4.0, -2.0));
        assert_eq!(a - b, Complex::new(-2.0, 6.0));
        assert_eq!(a * b, Complex::new(11.0, 2.0));
        assert!(close(a / b * b, a, TOL));
        assert!(close(a.recip() * a, Complex::ONE, TOL));
    }

    #[test]
    fn mixed_real_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        assert_eq!(a + 1.0, Complex::new(2.0, 2.0));
        assert_eq!(1.0 + a, Complex::new(2.0, 2.0));
        assert_eq!(a - 1.0, Complex::new(0.0, 2.0));
        assert_eq!(1.0 - a, Complex::new(0.0, -2.0));
        assert_eq!(a * 2.0, Complex::new(2.0, 4.0));
        assert_eq!(2.0 * a, Complex::new(2.0, 4.0));
        assert_eq!(a / 2.0, Complex::new(0.5, 1.0));
        assert!(close(2.0 / a, a.recip() * 2.0, TOL));
    }

    #[test]
    fn sqrt_is_principal_branch() {
        // sqrt(-1) = i, not -i.
        let z = Complex::new(-1.0, 0.0).sqrt();
        assert!(close(z, Complex::I, TOL));
        // sqrt of conjugate is conjugate of sqrt (below the cut).
        let z = Complex::new(-1.0, -1e-30).sqrt();
        assert!(z.im < 0.0);
        // Round-trip.
        for &(re, im) in &[(3.0, 4.0), (-3.0, 4.0), (-3.0, -4.0), (0.0, 2.0)] {
            let w = Complex::new(re, im);
            let s = w.sqrt();
            assert!(close(s * s, w, 1e-10));
            assert!(s.re >= 0.0);
        }
    }

    #[test]
    fn exp_ln_round_trip() {
        let z = Complex::new(0.3, -1.2);
        assert!(close(z.exp().ln(), z, 1e-12));
        assert!(close(
            Complex::new(0.0, core::f64::consts::PI).exp(),
            Complex::new(-1.0, 0.0),
            1e-12
        ));
    }

    #[test]
    fn hyperbolic_identities() {
        let z = Complex::new(0.7, 0.4);
        // cosh² - sinh² = 1
        let c = z.cosh();
        let s = z.sinh();
        assert!(close(c * c - s * s, Complex::ONE, 1e-12));
        // cosh(z) = (e^z + e^-z)/2
        assert!(close(c, (z.exp() + (-z).exp()) / 2.0, 1e-12));
    }

    #[test]
    fn trigonometric_identities() {
        let z = Complex::new(1.1, -0.3);
        let c = z.cos();
        let s = z.sin();
        assert!(close(c * c + s * s, Complex::ONE, 1e-12));
        // sin(iz) = i sinh(z)
        assert!(close((Complex::I * z).sin(), Complex::I * z.sinh(), 1e-12));
    }

    #[test]
    fn sinhc_is_stable_near_zero() {
        assert!(close(Complex::ZERO.sinhc(), Complex::ONE, TOL));
        let tiny = Complex::new(1e-9, 1e-9);
        assert!(close(tiny.sinhc(), Complex::ONE, 1e-12));
        let z = Complex::new(0.5, 0.25);
        assert!(close(z.sinhc(), z.sinh() / z, 1e-13));
        // Even function of z.
        assert!(close(z.sinhc(), (-z).sinhc(), 1e-13));
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = Complex::new(1.2, -0.7);
        let mut acc = Complex::ONE;
        for n in 0..8 {
            assert!(close(z.powi(n), acc, 1e-10 * acc.abs().max(1.0)));
            acc *= z;
        }
        assert!(close(z.powi(-3), (z * z * z).recip(), 1e-12));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.0, 0.75);
        assert!((z.abs() - 2.0).abs() < TOL);
        assert!((z.arg() - 0.75).abs() < TOL);
    }

    #[test]
    fn division_avoids_overflow() {
        let big = Complex::new(1e300, 1e300);
        let q = big / big;
        assert!(close(q, Complex::ONE, 1e-12));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Complex = (0..4).map(|k| Complex::new(f64::from(k), 1.0)).sum();
        assert_eq!(total, Complex::new(6.0, 4.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Complex::new(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{}", Complex::new(1.0, -2.0)), "1-2i");
    }
}
