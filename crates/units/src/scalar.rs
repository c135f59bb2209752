//! Base scalar quantities stored in SI units.

/// Defines an `f64` newtype quantity with SI-unit storage, the common trait
/// set, arithmetic within the dimension, and scaling by dimensionless
/// factors.
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:literal
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a value in SI base units.
            #[must_use]
            pub const fn new(si_value: f64) -> Self {
                Self(si_value)
            }

            /// Returns the value in SI base units.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of the quantity.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns `true` if the stored value is finite.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Dividing two like quantities yields a dimensionless ratio.
        impl core::ops::Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                crate::fmt::engineering(f, self.0, $unit)
            }
        }
    };
}

pub(crate) use quantity;

quantity! {
    /// A time interval in seconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlckit_units::Seconds;
    /// let tau = Seconds::from_pico(305.17);
    /// assert_eq!(format!("{tau}"), "305.17 ps");
    /// ```
    Seconds, "s"
}

quantity! {
    /// A length in metres.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlckit_units::Meters;
    /// let h = Meters::from_milli(14.4);
    /// assert!((h.get() - 0.0144).abs() < 1e-12);
    /// ```
    Meters, "m"
}

quantity! {
    /// A resistance in ohms.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlckit_units::Ohms;
    /// let rs = Ohms::from_kilo(11.784);
    /// assert!((rs.get() - 11784.0).abs() < 1e-9);
    /// ```
    Ohms, "Ω"
}

quantity! {
    /// A capacitance in farads.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlckit_units::Farads;
    /// let c0 = Farads::from_femto(1.6314);
    /// assert!((c0.get() - 1.6314e-15).abs() < 1e-24);
    /// ```
    Farads, "F"
}

quantity! {
    /// An inductance in henries.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlckit_units::Henries;
    /// let lw = Henries::from_nano(22.2);
    /// assert!((lw.get() - 22.2e-9).abs() < 1e-18);
    /// ```
    Henries, "H"
}

quantity! {
    /// An electric potential in volts.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlckit_units::Volts;
    /// let vdd = Volts::new(1.2);
    /// assert_eq!(vdd.get(), 1.2);
    /// ```
    Volts, "V"
}

quantity! {
    /// An electric current in amperes.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlckit_units::{Amperes, Ohms, Volts};
    /// let i = Volts::new(1.2) / Ohms::new(60.0);
    /// assert!((i.get() - 0.02).abs() < 1e-15);
    /// # let _: Amperes = i;
    /// ```
    Amperes, "A"
}

quantity! {
    /// A frequency in hertz.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlckit_units::{Hertz, Seconds};
    /// let f = Seconds::from_nano(1.0).recip();
    /// assert!((f.get() - 1e9).abs() < 1.0);
    /// # let _: Hertz = f;
    /// ```
    Hertz, "Hz"
}

impl Seconds {
    /// Creates a time from a value in milliseconds.
    #[must_use]
    pub const fn from_milli(ms: f64) -> Self {
        Self(ms * 1e-3)
    }

    /// Creates a time from a value in microseconds.
    #[must_use]
    pub const fn from_micro(us: f64) -> Self {
        Self(us * 1e-6)
    }

    /// Creates a time from a value in nanoseconds.
    #[must_use]
    pub const fn from_nano(ns: f64) -> Self {
        Self(ns * 1e-9)
    }

    /// Creates a time from a value in picoseconds.
    #[must_use]
    pub const fn from_pico(ps: f64) -> Self {
        Self(ps * 1e-12)
    }

    /// Returns the reciprocal of this period as a frequency.
    #[must_use]
    pub fn recip(self) -> Hertz {
        Hertz::new(1.0 / self.0)
    }
}

impl Meters {
    /// Creates a length from a value in millimetres.
    #[must_use]
    pub const fn from_milli(mm: f64) -> Self {
        Self(mm * 1e-3)
    }

    /// Creates a length from a value in micrometres.
    #[must_use]
    pub const fn from_micro(um: f64) -> Self {
        Self(um * 1e-6)
    }

    /// Creates a length from a value in nanometres.
    #[must_use]
    pub const fn from_nano(nm: f64) -> Self {
        Self(nm * 1e-9)
    }
}

impl Ohms {
    /// Creates a resistance from a value in kilo-ohms.
    #[must_use]
    pub const fn from_kilo(kohm: f64) -> Self {
        Self(kohm * 1e3)
    }

    /// Creates a resistance from a value in milliohms.
    #[must_use]
    pub const fn from_milli(mohm: f64) -> Self {
        Self(mohm * 1e-3)
    }
}

impl Farads {
    /// Creates a capacitance from a value in picofarads.
    #[must_use]
    pub const fn from_pico(pf: f64) -> Self {
        Self(pf * 1e-12)
    }

    /// Creates a capacitance from a value in femtofarads.
    #[must_use]
    pub const fn from_femto(ff: f64) -> Self {
        Self(ff * 1e-15)
    }
}

impl Henries {
    /// Creates an inductance from a value in nanohenries.
    #[must_use]
    pub const fn from_nano(nh: f64) -> Self {
        Self(nh * 1e-9)
    }

    /// Creates an inductance from a value in picohenries.
    #[must_use]
    pub const fn from_pico(ph: f64) -> Self {
        Self(ph * 1e-12)
    }
}

impl Hertz {
    /// Creates a frequency from a value in gigahertz.
    #[must_use]
    pub const fn from_giga(ghz: f64) -> Self {
        Self(ghz * 1e9)
    }

    /// Returns the reciprocal of this frequency as a period.
    #[must_use]
    pub fn recip(self) -> Seconds {
        Seconds::new(1.0 / self.0)
    }
}

impl Amperes {
    /// Creates a current from a value in milliamperes.
    #[must_use]
    pub const fn from_milli(ma: f64) -> Self {
        Self(ma * 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_within_a_dimension() {
        let a = Ohms::new(10.0);
        let b = Ohms::new(2.5);
        assert_eq!((a + b).get(), 12.5);
        assert_eq!((a - b).get(), 7.5);
        assert_eq!((-b).get(), -2.5);
        assert_eq!((a * 2.0).get(), 20.0);
        assert_eq!((3.0 * a).get(), 30.0);
        assert_eq!((a / 4.0).get(), 2.5);
        assert_eq!(a / b, 4.0);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Farads = (1..=4).map(|i| Farads::from_femto(f64::from(i))).sum();
        assert!((total.get() - 10e-15).abs() < 1e-27);
    }

    #[test]
    fn prefixed_constructors_round_trip() {
        assert!((Seconds::from_pico(305.17).get() - 305.17e-12).abs() < 1e-21);
        assert!((Meters::from_micro(2.0).get() - 2e-6).abs() < 1e-18);
        assert!((Ohms::from_kilo(7.534).get() - 7534.0).abs() < 1e-9);
        assert!((Henries::from_nano(5.0).get() - 5e-9).abs() < 1e-20);
    }

    #[test]
    fn min_max_abs() {
        let a = Seconds::new(-2.0);
        let b = Seconds::new(1.0);
        assert_eq!(a.abs().get(), 2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(a.is_finite());
        assert!(!Seconds::new(f64::NAN).is_finite());
    }

    #[test]
    fn frequency_period_round_trip() {
        let f = Hertz::from_giga(2.0);
        let t = f.recip();
        assert!((t.get() - 0.5e-9).abs() < 1e-20);
        assert!((t.recip().get() - 2e9).abs() < 1e-3);
    }
}
