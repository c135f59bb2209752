//! Line inductance models (the field-solver substitution).
//!
//! On-chip inductance is a *loop* quantity: it depends on where the
//! return current flows, which varies with the switching pattern of every
//! neighbour (paper §1.1). The paper therefore treats `l` as a swept
//! parameter bounded by the worst-case return path. This module provides
//! the classical closed forms that produce both the nominal value and the
//! worst-case bound:
//!
//! * [`partial_self_inductance`] — Ruehli/Grover partial self-inductance
//!   of a rectangular bar.
//! * [`microstrip_loop_inductance`] — wire over a nearby return plane
//!   (best case: tight return path).
//! * [`two_wire_loop_inductance`] — signal/return pair at an arbitrary
//!   distance (grows logarithmically — the worst-case knob).
//! * [`worst_case_line_inductance`] — the bound that justifies the
//!   paper's `0 ≤ l < 5 nH/mm` sweep.

use rlckit_units::{Henries, HenriesPerMeter, Meters};

use crate::geometry::WireGeometry;

/// Permeability of free space in H/m.
pub const VACUUM_PERMEABILITY: f64 = 4.0e-7 * core::f64::consts::PI;

/// Geometric-mean-distance equivalent radius of a rectangular cross
/// section: `0.2235·(w + t)` (Grover).
#[must_use]
pub fn rectangular_gmd_radius(wire: &WireGeometry) -> Meters {
    (wire.width() + wire.thickness()) * 0.2235
}

/// Partial self-inductance of a rectangular bar of length `length`
/// (Ruehli 1972 / Grover):
/// `L = (µ₀/2π)·ℓ·[ln(2ℓ/(w+t)) + 1/2 + 0.2235·(w+t)/ℓ]`.
///
/// # Panics
///
/// Panics if `length` is not strictly positive.
///
/// # Examples
///
/// ```
/// use rlckit_extract::geometry::WireGeometry;
/// use rlckit_extract::inductance::partial_self_inductance;
/// use rlckit_units::Meters;
///
/// let wire = WireGeometry::new(
///     Meters::from_micro(2.0),
///     Meters::from_micro(2.5),
///     Meters::from_micro(2.0),
///     Meters::from_micro(13.9),
/// );
/// // A 1 mm top-metal bar has ~1.4 nH of partial self-inductance.
/// let l = partial_self_inductance(&wire, Meters::from_milli(1.0));
/// assert!(l.get() > 1.0e-9 && l.get() < 2.0e-9);
/// ```
#[must_use]
pub fn partial_self_inductance(wire: &WireGeometry, length: Meters) -> Henries {
    let len = length.get();
    assert!(len > 0.0, "length must be positive");
    let wt = wire.width().get() + wire.thickness().get();
    let term = (2.0 * len / wt).ln() + 0.5 + 0.2235 * wt / len;
    Henries::new(VACUUM_PERMEABILITY / (2.0 * core::f64::consts::PI) * len * term)
}

/// Loop inductance per unit length of a wire over a return plane at the
/// wire's `height_above_plane` (microstrip approximation):
/// `l = (µ₀/2π)·ln(8h/w_eff + w_eff/(4h))`.
///
/// This is the *minimum* practical line inductance — the return current
/// hugs the signal as closely as the stack allows.
#[must_use]
pub fn microstrip_loop_inductance(wire: &WireGeometry) -> HenriesPerMeter {
    let h = wire.height_above_plane().get();
    let w_eff = wire.width().get() + wire.thickness().get();
    let term = (8.0 * h / w_eff + w_eff / (4.0 * h)).ln();
    HenriesPerMeter::new(VACUUM_PERMEABILITY / (2.0 * core::f64::consts::PI) * term)
}

/// Loop inductance per unit length of a signal wire whose return current
/// flows in an identical parallel wire at centre-to-centre `return_distance`:
/// `l = (µ₀/π)·ln(d/r_gmd)`.
///
/// # Panics
///
/// Panics if `return_distance` does not exceed the GMD radius.
#[must_use]
pub fn two_wire_loop_inductance(wire: &WireGeometry, return_distance: Meters) -> HenriesPerMeter {
    let r = rectangular_gmd_radius(wire).get();
    let d = return_distance.get();
    assert!(d > r, "return distance must exceed the GMD radius");
    HenriesPerMeter::new(VACUUM_PERMEABILITY / core::f64::consts::PI * (d / r).ln())
}

/// Worst-case line inductance: the return path is `max_return_distance`
/// away (e.g. the far edge of a power-grid cell, or the substrate for an
/// unshielded top-metal route).
///
/// For the paper's geometry and millimetre-scale return loops this stays
/// below 5 nH/mm, which is exactly the sweep bound used in §3.
///
/// # Examples
///
/// ```
/// use rlckit_extract::geometry::WireGeometry;
/// use rlckit_extract::inductance::worst_case_line_inductance;
/// use rlckit_units::Meters;
///
/// let wire = WireGeometry::new(
///     Meters::from_micro(2.0),
///     Meters::from_micro(2.5),
///     Meters::from_micro(2.0),
///     Meters::from_micro(13.9),
/// );
/// let l = worst_case_line_inductance(&wire, Meters::from_milli(2.0));
/// assert!(l.to_nano_per_milli() < 5.0); // paper's sweep bound
/// ```
#[must_use]
pub fn worst_case_line_inductance(
    wire: &WireGeometry,
    max_return_distance: Meters,
) -> HenriesPerMeter {
    two_wire_loop_inductance(wire, max_return_distance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_wire() -> WireGeometry {
        WireGeometry::new(
            Meters::from_micro(2.0),
            Meters::from_micro(2.5),
            Meters::from_micro(2.0),
            Meters::from_micro(13.9),
        )
    }

    #[test]
    fn self_inductance_grows_superlinearly_with_length() {
        let w = table1_wire();
        let l1 = partial_self_inductance(&w, Meters::from_milli(1.0));
        let l2 = partial_self_inductance(&w, Meters::from_milli(2.0));
        // More than double: the log term grows too.
        assert!(l2.get() > 2.0 * l1.get());
        assert!(l2.get() < 3.0 * l1.get());
    }

    /// Grover mutual partial inductance of two parallel filaments of
    /// length `length` at distance `distance`:
    /// `M = (µ₀/2π)·ℓ·[ln(ℓ/d + √(1 + (ℓ/d)²)) − √(1 + (d/ℓ)²) + d/ℓ]`.
    fn mutual_inductance_parallel(length: Meters, distance: Meters) -> Henries {
        let (len, d) = (length.get(), distance.get());
        let u = len / d;
        let term = (u + (1.0 + u * u).sqrt()).ln() - (1.0 + 1.0 / (u * u)).sqrt() + 1.0 / u;
        Henries::new(VACUUM_PERMEABILITY / (2.0 * core::f64::consts::PI) * len * term)
    }

    #[test]
    fn loop_inductance_from_partials_matches_two_wire_formula() {
        // L_loop = 2(L_p − M_p) for an identical pair; per unit length this
        // approaches (µ₀/π)·ln(d/r_gmd) as ℓ → ∞.
        let w = table1_wire();
        let len = Meters::from_milli(50.0);
        let d = Meters::from_micro(100.0);
        let lp = partial_self_inductance(&w, len);
        // Approximate the bar-bar mutual by the filament formula at GMD
        // distance d (valid for d >> cross-section).
        let m = mutual_inductance_parallel(len, d);
        let per_len_from_partials = 2.0 * (lp.get() - m.get()) / len.get();
        // Adjust: the partial self uses (w+t) while the loop formula uses
        // the GMD radius 0.2235(w+t); the difference is the +1/2 internal
        // term. Agreement within 10 % is the expected regime.
        let closed = two_wire_loop_inductance(&w, d).get();
        let ratio = per_len_from_partials / closed;
        assert!(
            (0.9..1.1).contains(&ratio),
            "partials {per_len_from_partials:.3e} vs closed {closed:.3e}"
        );
    }

    #[test]
    fn microstrip_is_the_floor() {
        let w = table1_wire();
        let tight = microstrip_loop_inductance(&w);
        let loose = two_wire_loop_inductance(&w, Meters::from_micro(200.0));
        assert!(tight.get() < loose.get());
        // ~0.8 nH/mm for the Table 1 stack.
        assert!(tight.to_nano_per_milli() > 0.5 && tight.to_nano_per_milli() < 1.2);
    }

    #[test]
    fn worst_case_supports_paper_sweep_bound() {
        let w = table1_wire();
        // Even a 10 mm-away return stays under 5 nH/mm…
        let l = worst_case_line_inductance(&w, Meters::from_milli(10.0));
        assert!(l.to_nano_per_milli() < 5.0, "got {}", l.to_nano_per_milli());
        // …and practical sub-millimetre loops are in the 1–3 nH/mm band
        // where the ring-oscillator failures of §3.3 occur.
        let l = worst_case_line_inductance(&w, Meters::from_micro(500.0));
        assert!(l.to_nano_per_milli() > 1.0 && l.to_nano_per_milli() < 3.5);
    }

    #[test]
    #[should_panic(expected = "return distance must exceed")]
    fn overlapping_return_rejected() {
        let w = table1_wire();
        let _ = two_wire_loop_inductance(&w, Meters::from_nano(100.0));
    }
}
