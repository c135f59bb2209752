//! Roadmap interpolation between the paper's two technology nodes.
//!
//! The paper evaluates exactly two nodes (250 nm and 100 nm) and argues
//! that the trend between them — shrinking driver resistance and
//! capacitance with near-constant top-metal geometry — is what makes
//! scaled designs inductance-susceptible. This module interpolates each
//! electrical parameter geometrically in feature size so the examples and
//! benches can sweep the *trajectory*, not just its endpoints.

use rlckit_units::{Farads, FaradsPerMeter, Ohms, OhmsPerMeter, Volts};

use crate::node::{DriverParams, LineParams, TechNode};

/// Log–log interpolation of `value(feature)` between two anchors.
fn geometric_interp(feature: f64, f_a: f64, v_a: f64, f_b: f64, v_b: f64) -> f64 {
    let t = (feature.ln() - f_a.ln()) / (f_b.ln() - f_a.ln());
    (v_a.ln() + t * (v_b.ln() - v_a.ln())).exp()
}

/// Builds an interpolated (or mildly extrapolated) technology node at
/// `feature_nm` nanometres from the Table 1 anchors.
///
/// The top-metal wire geometry is held at the Table 1 cross-section, as
/// in the paper ("the top layer metal geometry is identical for both
/// technologies").
///
/// # Panics
///
/// Panics if `feature_nm` is outside the `[70, 350]` nm range where the
/// NTRS-1997 trend data is meaningful.
///
/// # Examples
///
/// ```
/// use rlckit_tech::scaling::interpolate_node;
///
/// let node = interpolate_node(180.0);
/// let r250 = rlckit_tech::TechNode::nm250().driver().output_resistance.get();
/// let r100 = rlckit_tech::TechNode::nm100().driver().output_resistance.get();
/// let rs = node.driver().output_resistance.get();
/// assert!(rs < r250 && rs > r100);
/// ```
#[must_use]
pub fn interpolate_node(feature_nm: f64) -> TechNode {
    assert!(
        (70.0..=350.0).contains(&feature_nm),
        "feature size outside the supported NTRS-1997 trend range"
    );
    let a = TechNode::nm250();
    let b = TechNode::nm100();
    let interp = |va: f64, vb: f64| geometric_interp(feature_nm, 250.0, va, 100.0, vb);

    let line = LineParams::new(
        OhmsPerMeter::new(interp(a.line().resistance.get(), b.line().resistance.get())),
        FaradsPerMeter::new(interp(
            a.line().capacitance.get(),
            b.line().capacitance.get(),
        )),
    );
    let driver = DriverParams::new(
        Ohms::new(interp(
            a.driver().output_resistance.get(),
            b.driver().output_resistance.get(),
        )),
        Farads::new(interp(
            a.driver().parasitic_capacitance.get(),
            b.driver().parasitic_capacitance.get(),
        )),
        Farads::new(interp(
            a.driver().input_capacitance.get(),
            b.driver().input_capacitance.get(),
        )),
    );
    let eps = interp(a.relative_permittivity(), b.relative_permittivity());
    let vdd = Volts::new(interp(a.supply_voltage().get(), b.supply_voltage().get()));
    TechNode::custom(
        format!("{feature_nm:.0}nm(interp)"),
        "top",
        line,
        driver,
        a.wire(),
        eps,
        vdd,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_reproduce_anchors() {
        let n = interpolate_node(250.0);
        let a = TechNode::nm250();
        assert!(
            (n.driver().output_resistance.get() - a.driver().output_resistance.get()).abs() < 1e-6
        );
        assert!((n.supply_voltage().get() - 2.5).abs() < 1e-9);

        let n = interpolate_node(100.0);
        let b = TechNode::nm100();
        assert!(
            (n.driver().input_capacitance.get() - b.driver().input_capacitance.get()).abs() < 1e-21
        );
    }

    #[test]
    fn interpolation_is_monotone_in_feature_size() {
        let mut last_rs = f64::INFINITY;
        let mut last_c0 = f64::INFINITY;
        for f in [250.0, 220.0, 180.0, 150.0, 130.0, 100.0] {
            let n = interpolate_node(f);
            let rs = n.driver().output_resistance.get();
            let c0 = n.driver().input_capacitance.get();
            assert!(rs <= last_rs, "rs not monotone at {f}");
            assert!(c0 <= last_c0, "c0 not monotone at {f}");
            last_rs = rs;
            last_c0 = c0;
        }
    }

    #[test]
    fn intrinsic_delay_shrinks_along_trajectory() {
        let d180 = interpolate_node(180.0).driver().intrinsic_delay();
        let d130 = interpolate_node(130.0).driver().intrinsic_delay();
        assert!(d130.get() < d180.get());
    }

    #[test]
    #[should_panic(expected = "feature size outside")]
    fn out_of_range_rejected() {
        let _ = interpolate_node(45.0);
    }
}
