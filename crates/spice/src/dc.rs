//! DC operating point.

use rlckit_numeric::{NumericError, Result};

use crate::mna::{self, Layout, Mode};
use crate::netlist::{Circuit, Element, ElementId, Node};

/// A converged DC operating point.
///
/// # Examples
///
/// ```
/// use rlckit_spice::dc::operating_point;
/// use rlckit_spice::netlist::Circuit;
/// use rlckit_spice::waveform::Waveform;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.add_node("a");
/// let b = ckt.add_node("b");
/// ckt.voltage_source(a, Circuit::GROUND, Waveform::Dc(2.0));
/// ckt.resistor(a, b, 1e3);
/// ckt.resistor(b, Circuit::GROUND, 1e3);
/// let op = operating_point(&ckt)?;
/// assert!((op.voltage(b) - 1.0).abs() < 1e-9); // divider midpoint
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    x: Vec<f64>,
    layout: Layout,
}

impl DcSolution {
    /// Voltage of a node (0 for ground).
    #[must_use]
    pub fn voltage(&self, node: Node) -> f64 {
        mna::node_voltage(&self.x, node)
    }

    /// Branch current of a voltage source or inductor, if the element
    /// carries one.
    #[must_use]
    pub fn branch_current(&self, id: ElementId) -> Option<f64> {
        self.layout.branch(id).map(|i| self.x[i])
    }

    /// The raw MNA solution vector (node voltages then branch currents).
    #[must_use]
    pub fn as_vector(&self) -> &[f64] {
        &self.x
    }
}

/// Newton convergence tolerance on the solution update, in volts/amperes.
const TOLERANCE: f64 = 1e-9;
/// Iteration budget per Newton attempt.
const MAX_ITERATIONS: usize = 200;

/// Computes the DC operating point: plain Newton first, then gmin
/// stepping, then source stepping.
///
/// # Errors
///
/// Returns [`NumericError::NoConvergence`] if every strategy fails and
/// [`NumericError::SingularMatrix`] for structurally defective circuits
/// (e.g. a loop of ideal voltage sources).
pub fn operating_point(circuit: &Circuit) -> Result<DcSolution> {
    let layout = Layout::new(circuit);
    let zeros = vec![0.0; layout.n_unknowns];

    let attempt = |gmin: f64, source_scale: f64, start: &[f64]| {
        mna::solve_newton(
            circuit,
            &layout,
            &Mode::Dc { gmin, source_scale },
            start,
            TOLERANCE,
            MAX_ITERATIONS,
        )
    };

    // 1. Plain Newton from zero.
    let solved = attempt(0.0, 1.0, &zeros).or_else(|_| {
        // 2. Gmin stepping: relax, then tighten.
        let mut x = zeros.clone();
        let mut ok = true;
        for exp in (0..=9).rev() {
            let gmin = 10.0f64.powi(-(12 - exp));
            match attempt(gmin, 1.0, &x) {
                Ok(next) => x = next,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            attempt(0.0, 1.0, &x)
        } else {
            // 3. Source stepping.
            let mut x = zeros.clone();
            for step in 1..=10 {
                let scale = step as f64 / 10.0;
                x = attempt(0.0, scale, &x)?;
            }
            Ok(x)
        }
    })?;

    Ok(DcSolution { x: solved, layout })
}

/// Checks that the circuit has at least one element and no obviously
/// ill-formed structure (every node referenced by some element).
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] naming the first unreferenced
/// node.
pub fn sanity_check(circuit: &Circuit) -> Result<()> {
    let mut referenced = vec![false; circuit.node_count()];
    referenced[Circuit::GROUND.index()] = true;
    for e in circuit.elements() {
        let nodes: &[Node] = match e {
            Element::Resistor { a, b, .. }
            | Element::Capacitor { a, b, .. }
            | Element::Inductor { a, b, .. } => &[*a, *b],
            Element::VoltageSource { plus, minus, .. } => &[*plus, *minus],
            Element::Diode { anode, cathode, .. } => &[*anode, *cathode],
            Element::Mosfet {
                drain,
                gate,
                source,
                ..
            } => &[*drain, *gate, *source],
        };
        for n in nodes {
            referenced[n.index()] = true;
        }
    }
    if let Some(idx) = referenced.iter().position(|r| !r) {
        return Err(NumericError::InvalidInput(format!(
            "node '{}' is not connected to any element",
            circuit.node_name(Node(idx))
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::MosPolarity;
    use crate::waveform::Waveform;
    use rlckit_tech::{device::MosParams, TechNode};

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let b = ckt.add_node("b");
        ckt.voltage_source(a, Circuit::GROUND, Waveform::Dc(3.0));
        ckt.resistor(a, b, 2e3);
        ckt.resistor(b, Circuit::GROUND, 1e3);
        let op = operating_point(&ckt).unwrap();
        assert!((op.voltage(a) - 3.0).abs() < 1e-9);
        assert!((op.voltage(b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn source_current_is_reported() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let vs = ckt.voltage_source(a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.resistor(a, Circuit::GROUND, 100.0);
        let op = operating_point(&ckt).unwrap();
        // Current through the source branch: flows out of + terminal into
        // the resistor, so the branch current (into +) is −10 mA.
        let i = op.branch_current(vs).unwrap();
        assert!((i.abs() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn inductor_is_a_dc_short() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let b = ckt.add_node("b");
        ckt.voltage_source(a, Circuit::GROUND, Waveform::Dc(1.0));
        let ind = ckt.inductor(a, b, 1e-9);
        ckt.resistor(b, Circuit::GROUND, 50.0);
        let op = operating_point(&ckt).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-6);
        let i = op.branch_current(ind).unwrap();
        assert!((i - 0.02).abs() < 1e-6);
    }

    #[test]
    fn capacitor_is_a_dc_open() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let b = ckt.add_node("b");
        ckt.voltage_source(a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.resistor(a, b, 1e3);
        ckt.capacitor(b, Circuit::GROUND, 1e-12);
        let op = operating_point(&ckt).unwrap();
        // No DC path through the cap: node b floats up to the source.
        assert!((op.voltage(b) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn inverter_transfer_points() {
        let node = TechNode::nm100();
        let params = MosParams::for_node(&node);
        let vdd_v = node.supply_voltage().get();
        for (vin, expect_high) in [(0.0, true), (vdd_v, false)] {
            let mut ckt = Circuit::new();
            let vdd = ckt.add_node("vdd");
            let inp = ckt.add_node("in");
            let out = ckt.add_node("out");
            ckt.voltage_source(vdd, Circuit::GROUND, Waveform::Dc(vdd_v));
            ckt.voltage_source(inp, Circuit::GROUND, Waveform::Dc(vin));
            ckt.mosfet(out, inp, Circuit::GROUND, params, 4.0, MosPolarity::Nmos);
            ckt.mosfet(out, inp, vdd, params, 4.0, MosPolarity::Pmos);
            // A light load keeps the output node well-defined.
            ckt.resistor(out, Circuit::GROUND, 1e9);
            let op = operating_point(&ckt).unwrap();
            let v_out = op.voltage(out);
            if expect_high {
                assert!(v_out > 0.9 * vdd_v, "vin={vin}: vout={v_out}");
            } else {
                assert!(v_out < 0.1 * vdd_v, "vin={vin}: vout={v_out}");
            }
        }
    }

    #[test]
    fn inverter_midpoint_is_metastable_at_half_vdd() {
        // Symmetric devices: vin = vdd/2 gives vout near vdd/2 (high-gain
        // region, needs the damped Newton to converge at all).
        let node = TechNode::nm100();
        let params = MosParams::for_node(&node);
        let vdd_v = node.supply_voltage().get();
        let mut ckt = Circuit::new();
        let vdd = ckt.add_node("vdd");
        let inp = ckt.add_node("in");
        let out = ckt.add_node("out");
        ckt.voltage_source(vdd, Circuit::GROUND, Waveform::Dc(vdd_v));
        ckt.voltage_source(inp, Circuit::GROUND, Waveform::Dc(vdd_v / 2.0));
        ckt.mosfet(out, inp, Circuit::GROUND, params, 4.0, MosPolarity::Nmos);
        ckt.mosfet(out, inp, vdd, params, 4.0, MosPolarity::Pmos);
        ckt.resistor(out, Circuit::GROUND, 1e9);
        let op = operating_point(&ckt).unwrap();
        let v_out = op.voltage(out);
        // λ asymmetry shifts it slightly; it must sit mid-rail.
        assert!(v_out > 0.3 * vdd_v && v_out < 0.7 * vdd_v, "vout = {v_out}");
    }

    #[test]
    fn sanity_check_finds_floating_node() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let _orphan = ckt.add_node("orphan");
        ckt.resistor(a, Circuit::GROUND, 1.0);
        let err = sanity_check(&ckt).unwrap_err();
        assert!(format!("{err}").contains("orphan"));
    }
}
