//! Complex ABCD (chain) two-port algebra.
//!
//! The paper composes the driver–interconnect–load transfer function from
//! four cascaded ABCD matrices (series driver resistance, shunt driver
//! parasitic, the distributed line, shunt load). This module provides the
//! primitives and the exact distributed-RLC-line two-port.
//!
//! Branch-cut note: the line two-port involves `cosh(θh)`, `Z₀·sinh(θh)`
//! and `sinh(θh)/Z₀`, all *even* functions of `θ`, so the result is
//! independent of the square-root branch. We evaluate them through
//! `sinhc(z) = sinh(z)/z` to make that manifest and keep `θ → 0` stable.

use rlckit_numeric::Complex;

use crate::line::LineRlc;
use rlckit_units::Meters;

/// A complex ABCD (chain) matrix `[[a, b], [c, d]]`.
///
/// Cascading follows signal flow: `first.cascade(&second)` is the
/// two-port obtained by feeding `first`'s output into `second`'s input.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::Complex;
/// use rlckit_tline::abcd::Abcd;
///
/// let r = Abcd::series_impedance(Complex::from_real(50.0));
/// let c = Abcd::shunt_admittance(Complex::new(0.0, 1e-3));
/// let rc = r.cascade(&c);
/// // Determinant of a reciprocal two-port stays 1.
/// assert!((rc.determinant() - Complex::ONE).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Abcd {
    /// Voltage transfer entry.
    pub a: Complex,
    /// Transfer impedance entry.
    pub b: Complex,
    /// Transfer admittance entry.
    pub c: Complex,
    /// Current transfer entry.
    pub d: Complex,
}

impl Abcd {
    /// The identity two-port (a through connection).
    #[must_use]
    pub fn identity() -> Self {
        Self {
            a: Complex::ONE,
            b: Complex::ZERO,
            c: Complex::ZERO,
            d: Complex::ONE,
        }
    }

    /// A series impedance `z`: `[[1, z], [0, 1]]`.
    #[must_use]
    pub fn series_impedance(z: Complex) -> Self {
        Self {
            a: Complex::ONE,
            b: z,
            c: Complex::ZERO,
            d: Complex::ONE,
        }
    }

    /// A shunt admittance `y`: `[[1, 0], [y, 1]]`.
    #[must_use]
    pub fn shunt_admittance(y: Complex) -> Self {
        Self {
            a: Complex::ONE,
            b: Complex::ZERO,
            c: y,
            d: Complex::ONE,
        }
    }

    /// The exact two-port of a uniform distributed RLC line of length
    /// `length` at complex frequency `s`:
    /// `[[cosh θh, Z₀ sinh θh], [sinh θh / Z₀, cosh θh]]`.
    #[must_use]
    pub fn rlc_line(line: &LineRlc, length: Meters, s: Complex) -> Self {
        let h = length.get();
        let series_z = (s * line.inductance().get() + line.resistance().get()) * h; // (r+sl)h
        let shunt_y = s * (line.capacitance().get() * h); // sch
        let theta_h_sq = series_z * shunt_y; // (θh)²
        let theta_h = theta_h_sq.sqrt();
        let sinhc = theta_h.sinhc();
        Self {
            a: theta_h.cosh(),
            b: series_z * sinhc,
            c: shunt_y * sinhc,
            d: theta_h.cosh(),
        }
    }

    /// Cascades `self` followed by `next` (matrix product `self · next`).
    #[must_use]
    pub fn cascade(&self, next: &Self) -> Self {
        Self {
            a: self.a * next.a + self.b * next.c,
            b: self.a * next.b + self.b * next.d,
            c: self.c * next.a + self.d * next.c,
            d: self.c * next.b + self.d * next.d,
        }
    }

    /// Determinant `a·d − b·c` (1 for reciprocal two-ports).
    #[must_use]
    pub fn determinant(&self) -> Complex {
        self.a * self.d - self.b * self.c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::{FaradsPerMeter, HenriesPerMeter, OhmsPerMeter};

    fn line() -> LineRlc {
        LineRlc::new(
            OhmsPerMeter::from_ohm_per_milli(4.4),
            HenriesPerMeter::from_nano_per_milli(1.0),
            FaradsPerMeter::from_pico(203.5),
        )
    }

    #[test]
    fn identity_is_neutral() {
        let m = Abcd::series_impedance(Complex::new(10.0, -3.0));
        let left = Abcd::identity().cascade(&m);
        let right = m.cascade(&Abcd::identity());
        assert_eq!(left, m);
        assert_eq!(right, m);
    }

    #[test]
    fn cascade_order_matters() {
        let r = Abcd::series_impedance(Complex::from_real(5.0));
        let y = Abcd::shunt_admittance(Complex::from_real(0.1));
        let ry = r.cascade(&y);
        let yr = y.cascade(&r);
        assert!(ry != yr);
        // Both remain reciprocal.
        assert!((ry.determinant() - Complex::ONE).abs() < 1e-14);
        assert!((yr.determinant() - Complex::ONE).abs() < 1e-14);
    }

    #[test]
    fn line_two_port_is_reciprocal_and_symmetric() {
        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * 2e9);
        let m = Abcd::rlc_line(&line(), Meters::from_milli(10.0), s);
        assert!((m.determinant() - Complex::ONE).abs() < 1e-9);
        assert_eq!(m.a, m.d);
    }

    #[test]
    fn line_two_port_composes_over_length() {
        // A line of length h must equal the cascade of two half-lines.
        let s = Complex::new(1e8, 2.0 * std::f64::consts::PI * 1e9);
        let full = Abcd::rlc_line(&line(), Meters::from_milli(8.0), s);
        let half = Abcd::rlc_line(&line(), Meters::from_milli(4.0), s);
        let composed = half.cascade(&half);
        for (got, want) in [
            (composed.a, full.a),
            (composed.b, full.b),
            (composed.c, full.c),
            (composed.d, full.d),
        ] {
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0), "{got} vs {want}");
        }
    }

    #[test]
    fn zero_length_line_is_identity() {
        let s = Complex::new(0.0, 1e10);
        let m = Abcd::rlc_line(&line(), Meters::new(1e-12), s);
        assert!((m.a - Complex::ONE).abs() < 1e-6);
        assert!(m.b.abs() < 1e-6);
    }

    #[test]
    fn dc_line_reduces_to_series_resistance() {
        // At s → 0 the line is just its total resistance.
        let s = Complex::from_real(1e-3);
        let h = Meters::from_milli(10.0);
        let m = Abcd::rlc_line(&line(), h, s);
        let r_total = 4400.0 * 0.010;
        assert!((m.b.re - r_total).abs() / r_total < 1e-3);
        assert!((m.a - Complex::ONE).abs() < 1e-3);
    }

    #[test]
    fn rc_limit_matches_lossless_free_line() {
        // With r ≈ 0 and l > 0 the line at jω has |cosh θh| ≤ cosh of the
        // real part; at a frequency where βh = π the gain magnitude is 1.
        let lossless = LineRlc::new(
            OhmsPerMeter::new(1e-9),
            HenriesPerMeter::from_nano_per_milli(1.0),
            FaradsPerMeter::from_pico(100.0),
        );
        let h = Meters::from_milli(10.0);
        // β = ω√(lc) ⇒ ω = π/(h√(lc))
        let omega = std::f64::consts::PI
            / (h.get() * (1e-6f64 * 100e-12).sqrt());
        let m = Abcd::rlc_line(&lossless, h, Complex::new(0.0, omega));
        // cosh(jπ) = -1
        assert!((m.a - Complex::from_real(-1.0)).abs() < 1e-4);
    }
}
