//! Line capacitance models (the FASTCAP substitution).
//!
//! The paper extracted `c` with a 3-D field solver. Here we provide the
//! standard closed-form 2-D models:
//!
//! * [`parallel_plate`] — the zeroth-order bottom-plate term.
//! * [`sakurai_tamaru_single`] — single line over a plane with fringe
//!   (T. Sakurai and K. Tamaru, "Simple formulas for two- and
//!   three-dimensional capacitances", IEEE T-ED 30(2), 1983).
//! * [`sakurai_tamaru_coupling`] — lateral coupling to one same-layer
//!   neighbour from the same paper's coupled-line fit.
//! * [`total_line_capacitance`] — ground + both neighbours with a Miller
//!   switching factor, the effective-`c` picture of the paper's §3
//!   (which notes up to 4× variation with neighbour activity).
//!
//! The models land within a few tens of percent of the FASTCAP values in
//! Table 1; the methodology consumes `c` as an input, so the experiment
//! harness uses the paper's extracted values and these models serve to
//! show where they come from (and to extrapolate to other geometries).

use rlckit_units::FaradsPerMeter;

use crate::geometry::WireGeometry;

/// Permittivity of free space in F/m.
pub const VACUUM_PERMITTIVITY: f64 = 8.854_187_812_8e-12;

/// Parallel-plate capacitance per unit length `ε·w/h` of a wire to the
/// plane below it.
///
/// # Examples
///
/// ```
/// use rlckit_extract::capacitance::parallel_plate;
/// use rlckit_extract::geometry::WireGeometry;
/// use rlckit_units::Meters;
///
/// let wire = WireGeometry::new(
///     Meters::from_micro(2.0),
///     Meters::from_micro(2.5),
///     Meters::from_micro(2.0),
///     Meters::from_micro(13.9),
/// );
/// let c = parallel_plate(&wire, 3.3);
/// assert!(c.to_pico() > 3.0 && c.to_pico() < 6.0);
/// ```
#[must_use]
pub fn parallel_plate(wire: &WireGeometry, relative_permittivity: f64) -> FaradsPerMeter {
    let eps = relative_permittivity * VACUUM_PERMITTIVITY;
    FaradsPerMeter::new(eps * wire.width().get() / wire.height_above_plane().get())
}

/// Sakurai–Tamaru capacitance of an isolated line over a plane, including
/// fringe: `C/ε = 1.15·(w/h) + 2.80·(t/h)^0.222`.
///
/// Accurate to ~6 % for `0.3 < w/h < 30` and `0.3 < t/h < 30`.
#[must_use]
pub fn sakurai_tamaru_single(wire: &WireGeometry, relative_permittivity: f64) -> FaradsPerMeter {
    let eps = relative_permittivity * VACUUM_PERMITTIVITY;
    let w_h = wire.width() / wire.height_above_plane();
    let t_h = wire.thickness() / wire.height_above_plane();
    FaradsPerMeter::new(eps * (1.15 * w_h + 2.80 * t_h.powf(0.222)))
}

/// Sakurai–Tamaru lateral coupling capacitance to one parallel neighbour
/// at the wire's spacing:
/// `C/ε = [0.03·(w/h) + 0.83·(t/h) − 0.07·(t/h)^0.222]·(s/h)^−1.34`.
#[must_use]
pub fn sakurai_tamaru_coupling(wire: &WireGeometry, relative_permittivity: f64) -> FaradsPerMeter {
    let eps = relative_permittivity * VACUUM_PERMITTIVITY;
    let w_h = wire.width() / wire.height_above_plane();
    let t_h = wire.thickness() / wire.height_above_plane();
    let s_h = wire.spacing() / wire.height_above_plane();
    let coefficient = 0.03 * w_h + 0.83 * t_h - 0.07 * t_h.powf(0.222);
    FaradsPerMeter::new(eps * coefficient * s_h.powf(-1.34))
}

/// Switching activity of the two same-layer neighbours, which sets the
/// Miller factor applied to the lateral coupling capacitance.
///
/// The paper (§3) notes effective line capacitance varies by as much as
/// 4× with neighbour activity, then holds `c` fixed; this enum makes the
/// variants available to users exploring that sensitivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NeighborActivity {
    /// Neighbours switch with the victim: coupling is invisible (factor 0).
    SwitchingWith,
    /// Neighbours are quiet: coupling counts once (factor 1).
    #[default]
    Quiet,
    /// Neighbours switch against the victim: coupling Miller-doubles
    /// (factor 2).
    SwitchingAgainst,
}

impl NeighborActivity {
    /// The Miller multiplication factor for this activity pattern.
    #[must_use]
    pub fn miller_factor(self) -> f64 {
        match self {
            Self::SwitchingWith => 0.0,
            Self::Quiet => 1.0,
            Self::SwitchingAgainst => 2.0,
        }
    }
}

/// Total effective line capacitance: ground term plus both neighbours
/// weighted by the Miller factor of their switching activity.
///
/// # Examples
///
/// ```
/// use rlckit_extract::capacitance::{total_line_capacitance, NeighborActivity};
/// use rlckit_extract::geometry::WireGeometry;
/// use rlckit_units::Meters;
///
/// let wire = WireGeometry::new(
///     Meters::from_micro(2.0),
///     Meters::from_micro(2.5),
///     Meters::from_micro(2.0),
///     Meters::from_micro(13.9),
/// );
/// let quiet = total_line_capacitance(&wire, 3.3, NeighborActivity::Quiet);
/// let worst = total_line_capacitance(&wire, 3.3, NeighborActivity::SwitchingAgainst);
/// assert!(worst.get() > quiet.get());
/// ```
#[must_use]
pub fn total_line_capacitance(
    wire: &WireGeometry,
    relative_permittivity: f64,
    activity: NeighborActivity,
) -> FaradsPerMeter {
    let ground = sakurai_tamaru_single(wire, relative_permittivity);
    let coupling = sakurai_tamaru_coupling(wire, relative_permittivity);
    ground + coupling * (2.0 * activity.miller_factor())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::Meters;

    fn wire(t_ins_um: f64) -> WireGeometry {
        WireGeometry::new(
            Meters::from_micro(2.0),
            Meters::from_micro(2.5),
            Meters::from_micro(2.0),
            Meters::from_micro(t_ins_um),
        )
    }

    #[test]
    fn fringe_dominates_for_narrow_tall_wires() {
        // For w/h << 1 the fringe term must dominate the plate term.
        let w = wire(13.9);
        let plate = parallel_plate(&w, 3.3);
        let single = sakurai_tamaru_single(&w, 3.3);
        assert!(single.get() > 5.0 * plate.get());
    }

    #[test]
    fn capacitance_scales_linearly_with_permittivity() {
        let w = wire(13.9);
        let a = sakurai_tamaru_single(&w, 2.0);
        let b = sakurai_tamaru_single(&w, 4.0);
        assert!((b.get() / a.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn coupling_decreases_with_spacing() {
        let near = WireGeometry::new(
            Meters::from_micro(2.0),
            Meters::from_micro(2.5),
            Meters::from_micro(1.0),
            Meters::from_micro(13.9),
        );
        let far = WireGeometry::new(
            Meters::from_micro(2.0),
            Meters::from_micro(2.5),
            Meters::from_micro(8.0),
            Meters::from_micro(13.9),
        );
        assert!(
            sakurai_tamaru_coupling(&near, 3.3).get() > sakurai_tamaru_coupling(&far, 3.3).get()
        );
    }

    #[test]
    fn miller_factor_ordering() {
        let w = wire(13.9);
        let with = total_line_capacitance(&w, 3.3, NeighborActivity::SwitchingWith);
        let quiet = total_line_capacitance(&w, 3.3, NeighborActivity::Quiet);
        let against = total_line_capacitance(&w, 3.3, NeighborActivity::SwitchingAgainst);
        assert!(with.get() < quiet.get());
        assert!(quiet.get() < against.get());
        // Ground term is unchanged: against - quiet == quiet - with.
        let delta1 = against.get() - quiet.get();
        let delta2 = quiet.get() - with.get();
        assert!((delta1 - delta2).abs() < 1e-18);
    }

    #[test]
    fn same_order_as_paper_table1() {
        // FASTCAP gave 203.5 pF/m (εr = 3.3, t_ins = 13.9 µm) and
        // 123.33 pF/m (εr = 2.0, t_ins = 15.4 µm). The 2-D models include
        // only two neighbours and one plane, so agreement within ~40 %
        // establishes the substitution is sound; the harness uses the
        // paper's values directly.
        let c250 = total_line_capacitance(&wire(13.9), 3.3, NeighborActivity::Quiet);
        assert!(
            c250.to_pico() > 0.6 * 203.5 && c250.to_pico() < 1.4 * 203.5,
            "got {} pF/m",
            c250.to_pico()
        );
        let c100 = total_line_capacitance(&wire(15.4), 2.0, NeighborActivity::Quiet);
        assert!(
            c100.to_pico() > 0.6 * 123.33 && c100.to_pico() < 1.4 * 123.33,
            "got {} pF/m",
            c100.to_pico()
        );
    }

    #[test]
    fn worst_case_miller_is_far_above_nominal() {
        // The paper notes up to 4× variation in effective c with
        // aspect-ratio > 1 wires at tight pitch. Our top-metal geometry is
        // relatively relaxed (s/h ≈ 0.14) so the swing is smaller, but the
        // against/with ratio must still exceed 2.
        let w = wire(13.9);
        let with = total_line_capacitance(&w, 3.3, NeighborActivity::SwitchingWith);
        let against = total_line_capacitance(&w, 3.3, NeighborActivity::SwitchingAgainst);
        assert!(against.get() / with.get() > 2.0);
    }
}
