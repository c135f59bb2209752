//! Distributed RLC transmission-line analysis.
//!
//! Implements §2.1 of the paper from first principles:
//!
//! * [`abcd`] — complex ABCD two-port algebra, including the exact
//!   distributed RLC line two-port.
//! * [`mod@line`] — per-unit-length line parameters `(r, l, c)` and derived
//!   quantities (characteristic impedance, time of flight).
//! * [`dil`] — the driver–interconnect–load structure of Fig. 1: its
//!   exact transfer function (Eq. 1), its Maclaurin moments `b₁ … b_N`
//!   (both the paper's closed forms and an automatic series expansion),
//!   and the critical inductance `l_crit` (Eq. 4).
//! * [`twopole`] — the second-order Padé model (Eq. 2): poles, damping
//!   classification, step response, overshoot/undershoot metrics, and the
//!   rigorous `f·100 %` delay by Newton–Raphson on Eq. 3.
//! * [`awe`] — higher-order (AWE-style) reduced models, an extension used
//!   to quantify what the paper's second-order choice gives up.
//! * [`exact`] — the numerically-inverted exact step response, the oracle
//!   against which both reduced models are validated.
//! * [`km`] — the Kahng–Muddu approximate delay formulas (the paper's
//!   baseline \[23\]), including the critical-damping fallback whose
//!   inductance-independence motivates the paper's exact solve.
//!
//! # Examples
//!
//! Computing the 50 % delay of an optimally-buffered 250 nm global wire
//! segment with 1 nH/mm of line inductance:
//!
//! ```
//! use rlckit_tline::dil::DriverInterconnectLoad;
//! use rlckit_tline::line::LineRlc;
//! use rlckit_units::*;
//!
//! # fn main() -> Result<(), rlckit_numeric::NumericError> {
//! let line = LineRlc::new(
//!     OhmsPerMeter::from_ohm_per_milli(4.4),
//!     HenriesPerMeter::from_nano_per_milli(1.0),
//!     FaradsPerMeter::from_pico(203.5),
//! );
//! let k = 578.0;
//! let dil = DriverInterconnectLoad::new(
//!     Ohms::new(11_784.0 / k),          // R_S = r_s/k
//!     Farads::new(6.2474e-15 * k),      // C_P = c_p·k
//!     line,
//!     Meters::from_milli(14.4),         // h
//!     Farads::new(1.6314e-15 * k),      // C_L = c_0·k
//! );
//! let delay = dil.two_pole().delay(0.5)?;
//! assert!(delay.get() > 100e-12 && delay.get() < 500e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abcd;
pub mod awe;
pub mod dil;
pub mod exact;
pub mod km;
pub mod line;
pub mod twopole;

pub use dil::DriverInterconnectLoad;
pub use line::LineRlc;
pub use twopole::{Damping, TwoPole};
