//! Numerical kernels for the `rlckit` workspace.
//!
//! Everything the Banerjee–Mehrotra reproduction needs that a general
//! scientific stack would provide is implemented here from scratch:
//!
//! * [`complex`] — a `Complex` type with the transcendental functions used
//!   by transmission-line transfer functions (`exp`, `sqrt`, `cosh`, …).
//! * [`dense`] — the fixed-size `solve2` behind the 2×2 Newton steps
//!   of the optimizer.
//! * [`sparse`] — a triplet-assembled sparse matrix and a sparse LU solver
//!   with partial pivoting, used by the circuit-simulator substrate.
//! * [`roots`] — scalar root finding (Newton–Raphson, bracketed Newton,
//!   Brent).
//! * [`minimize`] — golden-section search and Nelder–Mead, used as
//!   derivative-free cross-checks of the paper's Newton optimizer.
//! * [`poly`] — dense polynomials with Durand–Kerner complex root finding,
//!   used by the higher-order (AWE-style) reduced models.
//! * [`series`] — truncated Taylor-series algebra in the Laplace variable
//!   `s`, used to extract the transfer-function moments `b₁ … b_N`.
//! * [`ilt`] — numerical inverse Laplace transforms (Abate–Whitt Euler and
//!   fixed Talbot), the oracle for the two-pole Padé approximation.
//! * [`grid`] — the `linspace` sweep helper.
//! * [`rng`] — deterministic xoshiro256++ pseudo-random numbers
//!   (SplitMix64-seeded) for Monte-Carlo studies, bench workloads and the
//!   `rlckit-check` property harness; the workspace has no registry
//!   dependencies, so this replaces `rand`.
//! * [`stats`] — peak/rms/mean of (possibly non-uniformly) sampled
//!   waveforms.
//!
//! # Examples
//!
//! Solving a 2×2 linear system:
//!
//! ```
//! use rlckit_numeric::dense::solve2;
//!
//! # fn main() -> Result<(), rlckit_numeric::NumericError> {
//! let x = solve2([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0])?;
//! assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
//! assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod dense;
pub mod grid;
pub mod ilt;
pub mod minimize;
pub mod poly;
pub mod rng;
pub mod roots;
pub mod series;
pub mod sparse;
pub mod stats;

mod error;

pub use complex::Complex;
pub use error::{FailureClass, NumericError};

/// Convenient result alias for fallible numeric routines.
pub type Result<T> = core::result::Result<T, NumericError>;

/// Fail-stop guard for solvers whose objective closures may swallow a
/// typed error into a NaN/∞ value (the RLC optimizer's residuals, the
/// planner's delay objective): if the current `rlckit-fault` scope took
/// an injection during this attempt, surface it as a typed
/// [`NumericError::InjectedFault`] instead of letting the solver
/// "recover" onto a perturbed path and accept a silently drifted
/// result. A no-op load when injection is disarmed.
pub(crate) fn injected_abort(site: &'static str) -> Result<()> {
    if rlckit_fault::poisoned() {
        return Err(NumericError::InjectedFault { site });
    }
    Ok(())
}
