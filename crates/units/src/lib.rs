//! Unit-safe physical quantities for on-chip interconnect analysis.
//!
//! The interconnect-optimization literature mixes quantities whose raw
//! numeric values differ by fifteen orders of magnitude (femtofarad device
//! capacitances against millimetre wire lengths). This crate provides thin
//! `f64` newtypes for the handful of dimensions that appear in the
//! Banerjee–Mehrotra methodology so that public APIs cannot confuse, say, a
//! total capacitance with a capacitance per unit length
//! ([C-NEWTYPE]).
//!
//! All values are stored in SI base units; convenience constructors accept
//! the prefixed units common in the domain (`Ohms::from_kilo`,
//! `Farads::from_femto`, `HenriesPerMeter::from_nano_per_milli`, …) and the
//! [`core::fmt::Display`] impls render with engineering prefixes.
//!
//! # Examples
//!
//! ```
//! use rlckit_units::{FaradsPerMeter, Meters, OhmsPerMeter};
//!
//! // Table 1 of the paper: 250 nm node top-level metal.
//! let r = OhmsPerMeter::from_ohm_per_milli(4.4);
//! let c = FaradsPerMeter::from_pico(203.50);
//! let h = Meters::from_milli(14.4);
//!
//! let total_resistance = r * h; // Ohms
//! let total_capacitance = c * h; // Farads
//! let tau = total_resistance * total_capacitance; // Seconds
//! assert!((tau.get() - 1.8567e-10).abs() < 1e-13);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fmt;
mod ops;
mod per_length;
mod scalar;

pub use per_length::{FaradsPerMeter, HenriesPerMeter, OhmsPerMeter};
pub use scalar::{Amperes, Farads, Henries, Hertz, Meters, Ohms, Seconds, Volts};

/// Computes the lossless characteristic impedance `Z₀ = √(l/c)` of a line.
///
/// This is the high-frequency asymptote of the lossy characteristic
/// impedance `√((r + sl)/(sc))` used throughout the paper; the RLC repeater
/// size `k_opt` asymptotes to the value matching the driver output
/// resistance to this impedance (paper §3.1, Fig. 6).
///
/// # Examples
///
/// ```
/// use rlckit_units::{lossless_characteristic_impedance, FaradsPerMeter, HenriesPerMeter};
///
/// let l = HenriesPerMeter::from_nano_per_milli(1.0); // 1 nH/mm
/// let c = FaradsPerMeter::from_pico(123.33); // 123.33 pF/m
/// let z0 = lossless_characteristic_impedance(l, c);
/// assert!((z0.get() - 90.05).abs() < 0.1);
/// ```
#[must_use]
pub fn lossless_characteristic_impedance(l: HenriesPerMeter, c: FaradsPerMeter) -> Ohms {
    Ohms::new((l.get() / c.get()).sqrt())
}

/// Computes the time-of-flight per unit length `√(l·c)` of a lossless line,
/// in seconds per metre.
///
/// # Examples
///
/// ```
/// use rlckit_units::{time_of_flight_per_meter, FaradsPerMeter, HenriesPerMeter};
///
/// let l = HenriesPerMeter::from_nano_per_milli(1.0);
/// let c = FaradsPerMeter::from_pico(123.33);
/// let tof = time_of_flight_per_meter(l, c);
/// // ~11.1 ps/mm
/// assert!((tof * 1e-3 - 11.1e-12).abs() < 0.1e-12);
/// ```
#[must_use]
pub fn time_of_flight_per_meter(l: HenriesPerMeter, c: FaradsPerMeter) -> f64 {
    (l.get() * c.get()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characteristic_impedance_of_known_line() {
        let l = HenriesPerMeter::new(5e-6); // 5 nH/mm
        let c = FaradsPerMeter::new(203.5e-12);
        let z0 = lossless_characteristic_impedance(l, c);
        assert!((z0.get() - (5e-6f64 / 203.5e-12).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn quantities_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Seconds>();
        assert_send_sync::<Ohms>();
        assert_send_sync::<HenriesPerMeter>();
    }

    #[test]
    fn time_of_flight_is_speed_of_light_for_vacuum_like_line() {
        // l·c = µ₀ε₀ gives exactly 1/c₀ per metre.
        let mu0 = 4.0e-7 * std::f64::consts::PI;
        let eps0 = 8.8541878128e-12;
        let tof = time_of_flight_per_meter(HenriesPerMeter::new(mu0), FaradsPerMeter::new(eps0));
        assert!((1.0 / tof - 2.99792458e8).abs() < 1e3);
    }
}
