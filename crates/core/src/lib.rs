//! `rlckit` — a performance-optimization methodology for distributed RLC
//! on-chip interconnects.
//!
//! This crate reproduces, as a reusable library, the methodology of
//! K. Banerjee and A. Mehrotra, *"Analysis of On-Chip Inductance Effects
//! using a Novel Performance Optimization Methodology for Distributed RLC
//! Interconnects"*, DAC 2001:
//!
//! * [`elmore`] — the closed-form Elmore (RC) repeater-insertion optimum
//!   and the `(h_optRC, k_optRC, τ_optRC)` technology constants of
//!   Table 1.
//! * [`optimizer`] — the paper's contribution: minimization of the delay
//!   per unit length of a buffered RLC line by Newton–Raphson on the
//!   stationarity residuals (Eqs. 5–8), with a rigorous two-pole delay
//!   solve (Eq. 3) in the inner loop and a derivative-free cross-check.
//! * [`baselines`] — the prior art the paper argues against: the
//!   Ismail–Friedman curve-fitted optimum [21, 22] and (re-exported from
//!   the `rlckit-tline` crate) the Kahng–Muddu approximate delays \[23\].
//! * [`sweeps`] — the inductance sweeps behind Figs. 4–8.
//! * [`planner`] — integer-repeater route planning on top of the
//!   continuous optimum, with the delay/cost trade-off.
//! * [`failure`] — the ring-oscillator logic-failure study of §3.3.1
//!   (Figs. 9–11), on the in-crate circuit-simulator substrate.
//! * [`reliability`] — the current-density reliability study of §3.3.2
//!   (Fig. 12).
//! * [`report`] — small table/CSV helpers used by the experiment
//!   binaries.
//! * [`outcome`] — per-point campaign outcomes and the point-level
//!   retry wrapper of the fault-tolerant campaign engine.
//! * [`checkpoint`] — the checksummed record log behind campaign
//!   shard files and serve snapshots; a resumed shard is
//!   bit-identical to an uninterrupted one.
//! * [`memo`] — bounded quantized-key memoization of whole-optimum
//!   solves for serving layers (explicitly *not* used on campaign
//!   paths, which require bit-identity).
//!
//! # Quickstart
//!
//! ```
//! use rlckit::optimizer::{optimize_rlc, OptimizerOptions};
//! use rlckit_tech::TechNode;
//! use rlckit_tline::LineRlc;
//! use rlckit_units::HenriesPerMeter;
//!
//! # fn main() -> Result<(), rlckit_numeric::NumericError> {
//! // A 100 nm global wire whose return path gives 1.8 nH/mm.
//! let node = TechNode::nm100();
//! let line = LineRlc::new(
//!     node.line().resistance,
//!     HenriesPerMeter::from_nano_per_milli(1.8),
//!     node.line().capacitance,
//! );
//!
//! let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default())?;
//! println!(
//!     "insert a {:.0}× repeater every {} ({} per segment, {})",
//!     opt.repeater_size, opt.segment_length, opt.segment_delay, opt.damping,
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod checkpoint;
mod dual;
pub mod elmore;
pub mod failure;
pub mod memo;
pub mod optimizer;
pub mod outcome;
pub mod planner;
pub mod reliability;
pub mod report;
pub mod sweeps;

pub use elmore::{rc_optimum, RcOptimum};
pub use optimizer::{optimize_rlc, OptimizerOptions, RetryPolicy, RlcOptimum};
pub use outcome::{PointOutcome, Solved};

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::elmore::{rc_optimum, RcOptimum};
    pub use crate::optimizer::{
        optimize_rlc, optimize_rlc_direct, optimize_rlc_with_retry, segment_delay,
        segment_structure, OptimizerOptions, RetryPolicy, RlcOptimum,
    };
    pub use crate::outcome::{run_point, PointOutcome, Solved};
    pub use crate::sweeps::{
        inductance_sweep, inductance_sweep_outcomes, sweep_point_outcome, SweepPoint,
    };
    pub use rlckit_tech::{DriverParams, LineParams, TechNode};
    pub use rlckit_tline::{Damping, DriverInterconnectLoad, LineRlc, TwoPole};
    pub use rlckit_units::*;
}
