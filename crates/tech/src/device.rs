//! Level-1 MOSFET parameters derived from the linearized driver model.
//!
//! The paper's analysis assumes the repeater is linear: output resistance
//! `r_s/k`, output parasitic `c_p·k`, input capacitance `c_0·k` (§2.1).
//! The circuit-simulator substrate needs nonlinear devices (the
//! ring-oscillator failure study hinges on the inverter *threshold*), so
//! this module constructs Shichman–Hodges (SPICE level-1) parameters whose
//! *linearized* behaviour matches the calibrated driver:
//!
//! * the equivalent switching resistance `R_eq ≈ 0.75·V_DD/I_dsat` of the
//!   minimum device equals `r_s`;
//! * the gate capacitance equals `c_0`, the drain junction capacitance
//!   equals `c_p`;
//! * the threshold sits at `vt_fraction·V_DD` (default 0.25, the NTRS
//!   ballpark) — the knob that decides when an undershoot falsely
//!   switches a gate (§3.3.1).

use rlckit_units::{Farads, Ohms, Volts};

use crate::node::{DriverParams, TechNode};

/// Shichman–Hodges parameters of the *minimum-sized* device pair of an
/// inverter (NMOS and PMOS are taken symmetric so the switching threshold
/// is `V_DD/2`).
///
/// # Examples
///
/// ```
/// use rlckit_tech::device::MosParams;
/// use rlckit_tech::TechNode;
///
/// let node = TechNode::nm100();
/// let mos = MosParams::for_node(&node);
/// // The linearization must reproduce the calibrated r_s.
/// let r_eq = mos.equivalent_resistance(node.supply_voltage());
/// assert!((r_eq.get() / node.driver().output_resistance.get() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Threshold voltage magnitude (shared by NMOS/PMOS).
    threshold: Volts,
    /// Transconductance `β = k'·W/L` of the minimum device, in A/V².
    beta: f64,
    /// Channel-length modulation, in 1/V.
    lambda: f64,
    /// Gate capacitance of the minimum inverter (`c_0`).
    gate_capacitance: Farads,
    /// Drain/output parasitic capacitance of the minimum inverter (`c_p`).
    drain_capacitance: Farads,
}

impl MosParams {
    /// Default threshold as a fraction of the supply.
    pub const DEFAULT_VT_FRACTION: f64 = 0.25;

    /// Builds parameters for a technology node with the default
    /// threshold fraction.
    #[must_use]
    pub fn for_node(node: &TechNode) -> Self {
        Self::from_driver(
            node.driver(),
            node.supply_voltage(),
            Self::DEFAULT_VT_FRACTION,
        )
    }

    /// Builds parameters from a driver model, supply voltage and a
    /// threshold fraction `vt_fraction ∈ (0, 0.5)`.
    ///
    /// # Panics
    ///
    /// Panics if `vt_fraction` is outside `(0, 0.5)`.
    #[must_use]
    pub fn from_driver(driver: DriverParams, vdd: Volts, vt_fraction: f64) -> Self {
        assert!(
            vt_fraction > 0.0 && vt_fraction < 0.5,
            "threshold fraction must be in (0, 0.5)"
        );
        let vt = vdd.get() * vt_fraction;
        let overdrive = vdd.get() - vt;
        // R_eq = 0.75·V_DD/I_dsat with I_dsat = (β/2)·(V_DD − V_T)² ⇒
        // β = 1.5·V_DD / (r_s·(V_DD − V_T)²).
        let beta = 1.5 * vdd.get() / (driver.output_resistance.get() * overdrive * overdrive);
        Self {
            threshold: Volts::new(vt),
            beta,
            lambda: 0.05,
            gate_capacitance: driver.input_capacitance,
            drain_capacitance: driver.parasitic_capacitance,
        }
    }

    /// Threshold voltage magnitude.
    #[must_use]
    pub fn threshold(&self) -> Volts {
        self.threshold
    }

    /// Minimum-device transconductance `β` in A/V².
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Channel-length modulation in 1/V.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Gate capacitance of the minimum inverter.
    #[must_use]
    pub fn gate_capacitance(&self) -> Farads {
        self.gate_capacitance
    }

    /// Drain parasitic capacitance of the minimum inverter.
    #[must_use]
    pub fn drain_capacitance(&self) -> Farads {
        self.drain_capacitance
    }

    /// Saturation current of the minimum device at full gate drive.
    #[must_use]
    pub fn saturation_current(&self, vdd: Volts) -> f64 {
        let ov = vdd.get() - self.threshold.get();
        0.5 * self.beta * ov * ov
    }

    /// Equivalent switching resistance `0.75·V_DD/I_dsat` of the minimum
    /// device — matches the calibrated `r_s` by construction.
    #[must_use]
    pub fn equivalent_resistance(&self, vdd: Volts) -> Ohms {
        Ohms::new(0.75 * vdd.get() / self.saturation_current(vdd))
    }

    /// Shichman–Hodges drain current of an NMOS of `size` × minimum, with
    /// channel-length modulation. `vgs`/`vds` in volts, result in amperes
    /// (non-negative; reverse conduction is handled by the caller via
    /// source/drain swap).
    #[must_use]
    pub fn nmos_current(&self, size: f64, vgs: f64, vds: f64) -> f64 {
        debug_assert!(vds >= 0.0, "caller must orient vds >= 0");
        let vov = vgs - self.threshold.get();
        if vov <= 0.0 {
            return 0.0;
        }
        let beta = self.beta * size;
        let clm = 1.0 + self.lambda * vds;
        if vds < vov {
            beta * (vov - 0.5 * vds) * vds * clm
        } else {
            0.5 * beta * vov * vov * clm
        }
    }

    /// Derivatives `(dI/dVgs, dI/dVds)` of [`MosParams::nmos_current`],
    /// needed by the simulator's Newton iteration.
    #[must_use]
    pub fn nmos_derivatives(&self, size: f64, vgs: f64, vds: f64) -> (f64, f64) {
        debug_assert!(vds >= 0.0, "caller must orient vds >= 0");
        let vov = vgs - self.threshold.get();
        if vov <= 0.0 {
            return (0.0, 0.0);
        }
        let beta = self.beta * size;
        let clm = 1.0 + self.lambda * vds;
        if vds < vov {
            let gm = beta * vds * clm;
            let gds = beta * ((vov - vds) * clm + (vov - 0.5 * vds) * vds * self.lambda);
            (gm, gds)
        } else {
            let gm = beta * vov * clm;
            let gds = 0.5 * beta * vov * vov * self.lambda;
            (gm, gds)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> (MosParams, Volts) {
        let node = TechNode::nm250();
        (MosParams::for_node(&node), node.supply_voltage())
    }

    #[test]
    fn equivalent_resistance_matches_calibrated_rs() {
        for node in [TechNode::nm250(), TechNode::nm100()] {
            let mos = MosParams::for_node(&node);
            let r = mos.equivalent_resistance(node.supply_voltage());
            assert!(
                (r.get() / node.driver().output_resistance.get() - 1.0).abs() < 1e-12,
                "{}",
                node.name()
            );
        }
    }

    #[test]
    fn cutoff_below_threshold() {
        let (mos, _) = params();
        assert_eq!(
            mos.nmos_current(1.0, mos.threshold().get() - 0.01, 1.0),
            0.0
        );
        assert_eq!(mos.nmos_derivatives(1.0, 0.0, 1.0), (0.0, 0.0));
    }

    #[test]
    fn current_is_continuous_at_saturation_boundary() {
        let (mos, vdd) = params();
        let vgs = vdd.get();
        let vov = vgs - mos.threshold().get();
        let below = mos.nmos_current(1.0, vgs, vov - 1e-9);
        let above = mos.nmos_current(1.0, vgs, vov + 1e-9);
        assert!((below - above).abs() / above < 1e-6);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let (mos, vdd) = params();
        let cases = [
            (vdd.get(), 0.3),       // triode
            (vdd.get(), vdd.get()), // saturation
            (0.8 * vdd.get(), 0.1), // shallow triode
        ];
        for (vgs, vds) in cases {
            let (gm, gds) = mos.nmos_derivatives(37.0, vgs, vds);
            let eps = 1e-7;
            let gm_fd = (mos.nmos_current(37.0, vgs + eps, vds)
                - mos.nmos_current(37.0, vgs - eps, vds))
                / (2.0 * eps);
            let gds_fd = (mos.nmos_current(37.0, vgs, vds + eps)
                - mos.nmos_current(37.0, vgs, vds - eps))
                / (2.0 * eps);
            assert!(
                (gm - gm_fd).abs() <= 1e-4 * gm_fd.abs().max(1e-12),
                "gm at {vgs},{vds}"
            );
            assert!(
                (gds - gds_fd).abs() <= 1e-4 * gds_fd.abs().max(1e-12),
                "gds at {vgs},{vds}"
            );
        }
    }

    #[test]
    fn current_scales_linearly_with_size() {
        let (mos, vdd) = params();
        let i1 = mos.nmos_current(1.0, vdd.get(), vdd.get());
        let i100 = mos.nmos_current(100.0, vdd.get(), vdd.get());
        assert!((i100 / i1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_node_has_faster_device() {
        // 100 nm: lower r_s means higher saturation current per volt.
        let m250 = MosParams::for_node(&TechNode::nm250());
        let m100 = MosParams::for_node(&TechNode::nm100());
        assert!(m100.beta() > m250.beta());
    }

    #[test]
    #[should_panic(expected = "threshold fraction")]
    fn silly_threshold_rejected() {
        let node = TechNode::nm250();
        let _ = MosParams::from_driver(node.driver(), node.supply_voltage(), 0.7);
    }
}
