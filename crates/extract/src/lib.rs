//! Closed-form parasitic extraction for on-chip interconnect.
//!
//! The paper obtained line capacitance from the FASTCAP 3-D field solver
//! and bounded the line inductance with field-solver-class estimates. This
//! crate substitutes published closed-form models that consume the same
//! cross-section geometry (paper Table 1) and produce the same
//! per-unit-length `r`, `l`, `c` that the optimization methodology needs:
//!
//! * [`resistance`] — sheet/volume resistivity with temperature scaling.
//! * [`capacitance`] — parallel-plate, Sakurai–Tamaru single-line and
//!   coupled-line fringe models, and the Miller-factor combination the
//!   paper discusses in §3 (effective `c` varying up to 4×).
//! * [`inductance`] — Ruehli/Grover partial self-inductance,
//!   microstrip and two-wire loop inductance, and the worst-case return
//!   path bound that justifies the paper's `l < 5 nH/mm` sweep range.
//! * [`skin`] — frequency-dependent (skin-effect) resistance estimates,
//!   quantifying when the methodology's DC-`r` choice starts to err.
//!
//! # Examples
//!
//! Reproducing the 250 nm top-metal line resistance of Table 1:
//!
//! ```
//! use rlckit_extract::geometry::{Material, WireGeometry};
//! use rlckit_extract::resistance::resistance_per_length;
//! use rlckit_units::Meters;
//!
//! let wire = WireGeometry::new(
//!     Meters::from_micro(2.0),  // width
//!     Meters::from_micro(2.5),  // thickness
//!     Meters::from_micro(2.0),  // spacing to neighbours
//!     Meters::from_micro(13.9), // height above the return plane
//! );
//! let r = resistance_per_length(&wire, Material::COPPER_INTERCONNECT);
//! assert!((r.to_ohm_per_milli() - 4.4).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacitance;
pub mod geometry;
pub mod inductance;
pub mod resistance;
pub mod skin;

pub use geometry::{Material, WireGeometry};
