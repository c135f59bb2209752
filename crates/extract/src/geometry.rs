//! Wire cross-section geometry and conductor materials.

use rlckit_units::Meters;

/// Cross-section geometry of a routed interconnect wire.
///
/// Matches the columns of the paper's Table 1: `width`, `pitch`
/// (`width + spacing`), `height` (metal thickness) and `t_ins` (dielectric
/// height above the current-return plane, the substrate for top-level
/// metal).
///
/// # Examples
///
/// ```
/// use rlckit_extract::geometry::WireGeometry;
/// use rlckit_units::Meters;
///
/// // Table 1 (both nodes share the top-metal cross-section).
/// let wire = WireGeometry::new(
///     Meters::from_micro(2.0),
///     Meters::from_micro(2.5),
///     Meters::from_micro(2.0),
///     Meters::from_micro(13.9),
/// );
/// assert!((wire.pitch().get() - 4.0e-6).abs() < 1e-12);
/// assert!(wire.aspect_ratio() > 1.0); // DSM wires are taller than wide
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireGeometry {
    width: Meters,
    thickness: Meters,
    spacing: Meters,
    height_above_plane: Meters,
}

impl WireGeometry {
    /// Creates a wire cross-section.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is not strictly positive.
    #[must_use]
    pub fn new(
        width: Meters,
        thickness: Meters,
        spacing: Meters,
        height_above_plane: Meters,
    ) -> Self {
        assert!(width.get() > 0.0, "width must be positive");
        assert!(thickness.get() > 0.0, "thickness must be positive");
        assert!(spacing.get() > 0.0, "spacing must be positive");
        assert!(
            height_above_plane.get() > 0.0,
            "height above plane must be positive"
        );
        Self {
            width,
            thickness,
            spacing,
            height_above_plane,
        }
    }

    /// Drawn width of the wire.
    #[must_use]
    pub fn width(&self) -> Meters {
        self.width
    }

    /// Metal thickness (the paper's "height" column).
    #[must_use]
    pub fn thickness(&self) -> Meters {
        self.thickness
    }

    /// Edge-to-edge spacing to the nearest same-layer neighbours.
    #[must_use]
    pub fn spacing(&self) -> Meters {
        self.spacing
    }

    /// Dielectric height between the wire bottom and the return plane
    /// (the paper's `t_ins`).
    #[must_use]
    pub fn height_above_plane(&self) -> Meters {
        self.height_above_plane
    }

    /// Routing pitch `width + spacing`.
    #[must_use]
    pub fn pitch(&self) -> Meters {
        self.width + self.spacing
    }

    /// Aspect ratio `thickness / width`.
    #[must_use]
    pub fn aspect_ratio(&self) -> f64 {
        self.thickness / self.width
    }

    /// Conductor cross-section area in m².
    #[must_use]
    pub fn cross_section_area(&self) -> f64 {
        self.width.get() * self.thickness.get()
    }
}

/// A conductor material: resistivity at the reference temperature plus a
/// linear temperature coefficient.
///
/// # Examples
///
/// ```
/// use rlckit_extract::geometry::Material;
///
/// let cu = Material::COPPER_INTERCONNECT;
/// // Resistivity rises with temperature.
/// assert!(cu.resistivity_at(85.0) > cu.resistivity_at(25.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Resistivity at the reference temperature, in Ω·m.
    resistivity: f64,
    /// Linear temperature coefficient of resistivity, in 1/°C.
    temperature_coefficient: f64,
    /// Reference temperature in °C.
    reference_temperature: f64,
}

impl Material {
    /// Damascene copper interconnect. The effective resistivity
    /// (2.2 µΩ·cm) includes the barrier/liner penalty and is the value
    /// that reproduces the paper's 4.4 Ω/mm for a 2 µm × 2.5 µm wire.
    pub const COPPER_INTERCONNECT: Self = Self {
        resistivity: 2.2e-8,
        temperature_coefficient: 3.9e-3,
        reference_temperature: 25.0,
    };

    /// Aluminium-copper alloy interconnect (3.3 µΩ·cm), the pre-copper
    /// baseline the paper's introduction contrasts against.
    pub const ALUMINUM_INTERCONNECT: Self = Self {
        resistivity: 3.3e-8,
        temperature_coefficient: 4.2e-3,
        reference_temperature: 25.0,
    };

    /// Creates a material from resistivity (Ω·m), its linear temperature
    /// coefficient (1/°C) and the reference temperature (°C).
    ///
    /// # Panics
    ///
    /// Panics if the resistivity is not strictly positive.
    #[must_use]
    pub fn new(resistivity: f64, temperature_coefficient: f64, reference_temperature: f64) -> Self {
        assert!(resistivity > 0.0, "resistivity must be positive");
        Self {
            resistivity,
            temperature_coefficient,
            reference_temperature,
        }
    }

    /// Resistivity at the reference temperature, in Ω·m.
    #[must_use]
    pub fn resistivity(&self) -> f64 {
        self.resistivity
    }

    /// Resistivity at `temperature` (°C) with the linear model
    /// `ρ(T) = ρ₀·(1 + α·(T − T₀))`.
    #[must_use]
    pub fn resistivity_at(&self, temperature: f64) -> f64 {
        self.resistivity
            * (1.0 + self.temperature_coefficient * (temperature - self.reference_temperature))
    }
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
    fn derived_quantities() {
        let w = table1_wire();
        assert!((w.pitch().get() - 4e-6).abs() < 1e-15);
        assert!((w.aspect_ratio() - 1.25).abs() < 1e-12);
        assert!((w.cross_section_area() - 5e-12).abs() < 1e-20);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = WireGeometry::new(
            Meters::ZERO,
            Meters::from_micro(1.0),
            Meters::from_micro(1.0),
            Meters::from_micro(1.0),
        );
    }

    #[test]
    fn copper_beats_aluminum() {
        assert!(
            Material::COPPER_INTERCONNECT.resistivity()
                < Material::ALUMINUM_INTERCONNECT.resistivity()
        );
    }

    #[test]
    fn temperature_scaling_is_linear() {
        let cu = Material::COPPER_INTERCONNECT;
        let base = cu.resistivity_at(25.0);
        assert!((base - cu.resistivity()).abs() < 1e-20);
        let hot = cu.resistivity_at(125.0);
        assert!((hot / base - (1.0 + 0.39)).abs() < 1e-12);
    }
}
