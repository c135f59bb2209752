//! Skin-effect (frequency-dependent) resistance — an extension.
//!
//! The paper's reference \[11\] (Krauter & Mehrotra, DAC 1998) extracts
//! frequency-dependent resistance and inductance; the optimization
//! methodology itself uses the DC `r`, which is conservative for delay
//! but understates loss at the ringing frequency. This module supplies
//! the classical estimates needed to judge when that matters:
//!
//! * [`skin_depth`] — `δ = √(ρ/(π·f·µ₀))`;
//! * [`ac_resistance_per_length`] — current confined to a `δ`-deep shell
//!   of the rectangular cross-section, with the exact DC limit;
//! * [`skin_onset_frequency`] — where the AC value departs from DC.

use rlckit_units::{Hertz, OhmsPerMeter};

use crate::geometry::{Material, WireGeometry};
use crate::inductance::VACUUM_PERMEABILITY;

/// Skin depth `δ = √(ρ/(π·f·µ₀))` in metres.
///
/// # Panics
///
/// Panics unless the frequency is strictly positive.
///
/// # Examples
///
/// ```
/// use rlckit_extract::geometry::Material;
/// use rlckit_extract::skin::skin_depth;
/// use rlckit_units::Hertz;
///
/// // Copper at 1 GHz: ≈ 2.36 µm (with the 2.2 µΩ·cm damascene value).
/// let d = skin_depth(Material::COPPER_INTERCONNECT, Hertz::from_giga(1.0));
/// assert!((d * 1e6 - 2.36).abs() < 0.05);
/// ```
#[must_use]
pub fn skin_depth(material: Material, frequency: Hertz) -> f64 {
    let f = frequency.get();
    assert!(f > 0.0, "frequency must be positive");
    (material.resistivity() / (core::f64::consts::PI * f * VACUUM_PERMEABILITY)).sqrt()
}

/// AC resistance per unit length of a rectangular conductor: the current
/// is confined to a shell of depth `δ` around the perimeter; when `δ`
/// exceeds half the smaller cross-section dimension the DC value is
/// returned (the shell covers everything).
///
/// # Examples
///
/// ```
/// use rlckit_extract::geometry::{Material, WireGeometry};
/// use rlckit_extract::skin::ac_resistance_per_length;
/// use rlckit_units::{Hertz, Meters};
///
/// let wire = WireGeometry::new(
///     Meters::from_micro(2.0),
///     Meters::from_micro(2.5),
///     Meters::from_micro(2.0),
///     Meters::from_micro(13.9),
/// );
/// let dc = ac_resistance_per_length(&wire, Material::COPPER_INTERCONNECT, Hertz::new(1e6));
/// let ghz10 = ac_resistance_per_length(&wire, Material::COPPER_INTERCONNECT, Hertz::from_giga(10.0));
/// assert!(ghz10.get() > dc.get()); // skin effect bites at 10 GHz
/// ```
#[must_use]
pub fn ac_resistance_per_length(
    wire: &WireGeometry,
    material: Material,
    frequency: Hertz,
) -> OhmsPerMeter {
    let w = wire.width().get();
    let t = wire.thickness().get();
    let delta = skin_depth(material, frequency);
    let full_area = w * t;
    let half_min = 0.5 * w.min(t);
    if delta >= half_min {
        return OhmsPerMeter::new(material.resistivity() / full_area);
    }
    // Conducting shell: full area minus the untouched core.
    let core = (w - 2.0 * delta) * (t - 2.0 * delta);
    let shell = full_area - core;
    OhmsPerMeter::new(material.resistivity() / shell)
}

/// The frequency at which the skin depth equals half the smaller
/// cross-section dimension — below this the wire is effectively DC.
///
/// # Examples
///
/// ```
/// use rlckit_extract::geometry::{Material, WireGeometry};
/// use rlckit_extract::skin::skin_onset_frequency;
/// use rlckit_units::Meters;
///
/// let wire = WireGeometry::new(
///     Meters::from_micro(2.0),
///     Meters::from_micro(2.5),
///     Meters::from_micro(2.0),
///     Meters::from_micro(13.9),
/// );
/// let f = skin_onset_frequency(&wire, Material::COPPER_INTERCONNECT);
/// // Table 1 wires go "AC" around 5–6 GHz.
/// assert!(f.get() > 1e9 && f.get() < 2e10);
/// ```
#[must_use]
pub fn skin_onset_frequency(wire: &WireGeometry, material: Material) -> Hertz {
    let half_min = 0.5 * wire.width().get().min(wire.thickness().get());
    // δ(f) = half_min  ⇒  f = ρ/(π·µ₀·half_min²).
    Hertz::new(
        material.resistivity()
            / (core::f64::consts::PI * VACUUM_PERMEABILITY * half_min * half_min),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::Meters;

    fn table1_wire() -> WireGeometry {
        WireGeometry::new(
            Meters::from_micro(2.0),
            Meters::from_micro(2.5),
            Meters::from_micro(2.0),
            Meters::from_micro(13.9),
        )
    }

    #[test]
    fn skin_depth_scales_as_inverse_sqrt_frequency() {
        let d1 = skin_depth(Material::COPPER_INTERCONNECT, Hertz::from_giga(1.0));
        let d4 = skin_depth(Material::COPPER_INTERCONNECT, Hertz::from_giga(4.0));
        assert!((d1 / d4 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dc_limit_matches_dc_extraction() {
        let wire = table1_wire();
        let dc = crate::resistance::resistance_per_length(&wire, Material::COPPER_INTERCONNECT);
        let low_f = ac_resistance_per_length(&wire, Material::COPPER_INTERCONNECT, Hertz::new(1e5));
        assert!((low_f.get() - dc.get()).abs() < 1e-12 * dc.get());
    }

    #[test]
    fn ac_resistance_is_monotone_in_frequency() {
        let wire = table1_wire();
        let mut last = 0.0;
        for f_ghz in [0.1, 1.0, 5.0, 10.0, 50.0] {
            let r = ac_resistance_per_length(
                &wire,
                Material::COPPER_INTERCONNECT,
                Hertz::from_giga(f_ghz),
            )
            .get();
            assert!(r >= last, "f={f_ghz} GHz");
            last = r;
        }
    }

    #[test]
    fn onset_is_continuous() {
        // Just below/above the onset frequency the two branches agree.
        let wire = table1_wire();
        let f0 = skin_onset_frequency(&wire, Material::COPPER_INTERCONNECT);
        let below = ac_resistance_per_length(
            &wire,
            Material::COPPER_INTERCONNECT,
            Hertz::new(f0.get() * 0.999),
        );
        let above = ac_resistance_per_length(
            &wire,
            Material::COPPER_INTERCONNECT,
            Hertz::new(f0.get() * 1.001),
        );
        assert!((above.get() / below.get() - 1.0).abs() < 0.01);
    }

    #[test]
    fn ringing_frequency_of_paper_lines_is_near_onset() {
        // The two-pole ringing of an optimally buffered 100 nm segment at
        // l = 2 nH/mm sits at a few GHz — the same order as the skin
        // onset, which is why the paper's DC-r choice is reasonable but
        // not free. (This quantifies the extension's relevance.)
        let wire = table1_wire();
        let onset = skin_onset_frequency(&wire, Material::COPPER_INTERCONNECT);
        assert!(onset.get() > 1e9 && onset.get() < 2e10);
    }
}
