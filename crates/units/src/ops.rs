//! Cross-dimension operator implementations.
//!
//! Only the physically meaningful products and quotients that the
//! methodology actually uses are provided ([C-OVERLOAD]): per-length
//! densities times length, Ohm's law, and RC/LC time constants.
//!
//! [C-OVERLOAD]: https://rust-lang.github.io/api-guidelines/predictability.html

use core::ops::{Div, Mul};

use crate::per_length::{FaradsPerMeter, HenriesPerMeter, OhmsPerMeter};
use crate::scalar::{Amperes, Farads, Henries, Meters, Ohms, Seconds, Volts};

/// Implements a commutative product `$a * $b = $out`.
macro_rules! product {
    ($a:ty, $b:ty, $out:ty) => {
        impl Mul<$b> for $a {
            type Output = $out;
            fn mul(self, rhs: $b) -> $out {
                <$out>::new(self.get() * rhs.get())
            }
        }
        impl Mul<$a> for $b {
            type Output = $out;
            fn mul(self, rhs: $a) -> $out {
                <$out>::new(self.get() * rhs.get())
            }
        }
    };
}

/// Implements a quotient `$a / $b = $out`.
macro_rules! quotient {
    ($a:ty, $b:ty, $out:ty) => {
        impl Div<$b> for $a {
            type Output = $out;
            fn div(self, rhs: $b) -> $out {
                <$out>::new(self.get() / rhs.get())
            }
        }
    };
}

// Line densities integrated over a length.
product!(OhmsPerMeter, Meters, Ohms);
product!(FaradsPerMeter, Meters, Farads);
product!(HenriesPerMeter, Meters, Henries);

// Totals back to densities.
quotient!(Ohms, Meters, OhmsPerMeter);
quotient!(Farads, Meters, FaradsPerMeter);
quotient!(Henries, Meters, HenriesPerMeter);

// Time constants.
product!(Ohms, Farads, Seconds);
quotient!(Henries, Ohms, Seconds);
quotient!(Seconds, Ohms, Farads);
quotient!(Seconds, Farads, Ohms);

// Ohm's law.
quotient!(Volts, Ohms, Amperes);
quotient!(Volts, Amperes, Ohms);
product!(Ohms, Amperes, Volts);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_density_times_length() {
        let r = OhmsPerMeter::from_ohm_per_milli(4.4);
        let h = Meters::from_milli(10.0);
        let total: Ohms = r * h;
        assert!((total.get() - 44.0).abs() < 1e-12);
        let total2: Ohms = h * r;
        assert!((total2.get() - 44.0).abs() < 1e-12);
        let back: OhmsPerMeter = total / h;
        assert!((back.get() - 4400.0).abs() < 1e-9);
    }

    #[test]
    fn rc_time_constant() {
        let tau: Seconds = Ohms::from_kilo(10.0) * Farads::from_femto(10.0);
        assert!((tau.get() - 1e-10).abs() < 1e-22);
    }

    #[test]
    fn l_over_r_time_constant() {
        let tau: Seconds = Henries::from_nano(5.0) / Ohms::new(50.0);
        assert!((tau.get() - 1e-10).abs() < 1e-22);
    }

    #[test]
    fn ohms_law() {
        let i: Amperes = Volts::new(2.5) / Ohms::new(50.0);
        assert!((i.get() - 0.05).abs() < 1e-15);
        let v: Volts = Ohms::new(50.0) * i;
        assert!((v.get() - 2.5).abs() < 1e-12);
        let r: Ohms = v / i;
        assert!((r.get() - 50.0).abs() < 1e-9);
    }
}
