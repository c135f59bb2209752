//! An MNA circuit-simulator substrate for the `rlckit` workspace.
//!
//! The paper's calibration (§3.1) and failure studies (§3.3) run on a
//! production SPICE; this crate implements the subset those experiments
//! need, from scratch:
//!
//! * [`netlist`] — a circuit builder with resistors, capacitors,
//!   inductors, voltage sources, diodes and level-1 MOSFETs.
//! * [`waveform`] — source waveforms (DC, pulse, PWL).
//! * [`dc`] — the DC operating point by damped Newton with gmin and
//!   source stepping fallbacks.
//! * [`ac`] — small-signal frequency sweeps around the operating point.
//! * [`transient`] — fixed-step transient analysis (trapezoidal
//!   companion models after two backward-Euler startup steps) with
//!   per-step Newton iteration.
//! * [`measure`] — waveform post-processing: threshold crossings, delay,
//!   oscillation period, overshoot/undershoot, peak/rms current.
//! * [`builders`] — the structures the paper simulates: distributed-line
//!   RLC ladders, sized inverters, buffered lines and the five-stage ring
//!   oscillator of §3.3.
//!
//! # Examples
//!
//! A step into an RC low-pass settles with time constant `R·C`:
//!
//! ```
//! use rlckit_spice::netlist::Circuit;
//! use rlckit_spice::transient::{TransientOptions, simulate};
//! use rlckit_spice::waveform::Waveform;
//!
//! # fn main() -> Result<(), rlckit_numeric::NumericError> {
//! let mut ckt = Circuit::new();
//! let inp = ckt.add_node("in");
//! let out = ckt.add_node("out");
//! ckt.voltage_source(inp, Circuit::GROUND, Waveform::Dc(1.0));
//! ckt.resistor(inp, out, 1e3);
//! ckt.capacitor(out, Circuit::GROUND, 1e-9);
//!
//! let result = simulate(&ckt, &TransientOptions::new(10e-6, 10e-9))?;
//! let v_end = *result.voltage(out).last().expect("samples");
//! assert!((v_end - 1.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ac;
pub mod builders;
pub mod dc;
pub mod measure;
mod mna;
pub mod netlist;
pub mod transient;
pub mod waveform;

pub use netlist::{Circuit, ElementId, Node};
pub use transient::{simulate, TransientOptions, TransientResult};
