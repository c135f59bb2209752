//! Small-signal AC analysis.
//!
//! Linearizes the circuit around its DC operating point (MOSFETs and
//! diodes become their small-signal conductances) and solves the complex
//! MNA system at each requested frequency, with one chosen voltage
//! source driven at unit amplitude and every other source zeroed.
//!
//! The complex system `(G + jB)·x = u` is solved through the real sparse
//! LU kernel via the standard 2n×2n embedding `[[G, −B], [B, G]]`.
//!
//! This gives the workspace a second, fully independent route to the
//! paper's transfer function: the RLC-ladder frequency response measured
//! here must match the exact `H(jω)` from `rlckit-tline` — an
//! integration test enforces it.

use rlckit_numeric::sparse::TripletMatrix;
use rlckit_numeric::{Complex, NumericError, Result};

use crate::dc::operating_point;
use crate::mna::{self, Layout};
use crate::netlist::{Circuit, Element, ElementId, Node};

/// The result of an AC sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AcResult {
    frequencies: Vec<f64>,
    /// `phasors[sample][unknown]` (node voltages then branch currents).
    phasors: Vec<Vec<Complex>>,
    n_nodes: usize,
    branch_index: Vec<Option<usize>>,
}

impl AcResult {
    /// The swept frequencies in Hz.
    #[must_use]
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// The complex node-voltage phasor at sweep point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the node is foreign.
    #[must_use]
    pub fn voltage(&self, i: usize, node: Node) -> Complex {
        if node == Circuit::GROUND {
            Complex::ZERO
        } else {
            self.phasors[i][node.index() - 1]
        }
    }

    /// Magnitude response of a node across the sweep.
    #[must_use]
    pub fn magnitude(&self, node: Node) -> Vec<f64> {
        (0..self.frequencies.len())
            .map(|i| self.voltage(i, node).abs())
            .collect()
    }

    /// Phase response (radians) of a node across the sweep.
    #[must_use]
    pub fn phase(&self, node: Node) -> Vec<f64> {
        (0..self.frequencies.len())
            .map(|i| self.voltage(i, node).arg())
            .collect()
    }

    /// Branch-current phasor of a voltage source or inductor at sweep
    /// point `i`, if the element carries one.
    #[must_use]
    pub fn branch_current(&self, i: usize, id: ElementId) -> Option<Complex> {
        self.branch_index
            .get(id.0)
            .copied()
            .flatten()
            .map(|offset| self.phasors[i][offset])
    }
}

/// Runs an AC sweep: the voltage source `source` is driven with unit
/// amplitude (1 V) and zero phase; all other sources are zeroed (DC
/// bias is retained only through the linearization point).
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] if `source` is not a voltage
/// source, and propagates DC-operating-point or factorization failures.
pub fn ac_analysis(
    circuit: &Circuit,
    source: ElementId,
    frequencies: &[f64],
) -> Result<AcResult> {
    match circuit.element(source) {
        Element::VoltageSource { .. } => {}
        other => {
            return Err(NumericError::InvalidInput(format!(
                "ac excitation must be a voltage source, got {other:?}"
            )))
        }
    }
    let layout = Layout::new(circuit);
    let op = operating_point(circuit)?;
    let x_op = op.as_vector();
    let n = layout.n_unknowns;

    let mut phasors = Vec::with_capacity(frequencies.len());
    for &f in frequencies {
        if f <= 0.0 || f.is_nan() {
            return Err(NumericError::InvalidInput(format!(
                "ac frequency must be positive, got {f}"
            )));
        }
        let omega = 2.0 * core::f64::consts::PI * f;

        // Real embedding of (G + jB)x = u:  [[G, -B], [B, G]]·[Re; Im].
        let mut mat = TripletMatrix::new(2 * n);
        let mut rhs = vec![0.0; 2 * n];
        let push_real = |m: &mut TripletMatrix, i: usize, j: usize, g: f64| {
            m.push(i, j, g);
            m.push(i + n, j + n, g);
        };
        let push_imag = |m: &mut TripletMatrix, i: usize, j: usize, b: f64| {
            m.push(i, j + n, -b);
            m.push(i + n, j, b);
        };

        // Node gmin for floating-node conditioning.
        for i in 0..layout.n_nodes - 1 {
            push_real(&mut mat, i, i, mna::GMIN);
        }

        for (idx, element) in circuit.elements().iter().enumerate() {
            let stamp_g = |m: &mut TripletMatrix, a: Node, b: Node, g: f64, imag: bool| {
                let ia = Layout::node_var(a);
                let ib = Layout::node_var(b);
                let mut put = |i: usize, j: usize, v: f64| {
                    if imag {
                        m.push(i, j + n, -v);
                        m.push(i + n, j, v);
                    } else {
                        m.push(i, j, v);
                        m.push(i + n, j + n, v);
                    }
                };
                if let Some(i) = ia {
                    put(i, i, g);
                }
                if let Some(j) = ib {
                    put(j, j, g);
                }
                if let (Some(i), Some(j)) = (ia, ib) {
                    put(i, j, -g);
                    put(j, i, -g);
                }
            };
            match element {
                Element::Resistor { a, b, ohms } => stamp_g(&mut mat, *a, *b, 1.0 / ohms, false),
                Element::Capacitor { a, b, farads } => {
                    stamp_g(&mut mat, *a, *b, omega * farads, true);
                }
                Element::Inductor { a, b, henries } => {
                    let br = layout.branch_index[idx].expect("branch");
                    if let Some(i) = Layout::node_var(*a) {
                        push_real(&mut mat, i, br, 1.0);
                        push_real(&mut mat, br, i, 1.0);
                    }
                    if let Some(j) = Layout::node_var(*b) {
                        push_real(&mut mat, j, br, -1.0);
                        push_real(&mut mat, br, j, -1.0);
                    }
                    // V_a − V_b − jωL·i = 0 (tiny real part conditions L=0).
                    push_real(&mut mat, br, br, -1e-9);
                    push_imag(&mut mat, br, br, -omega * henries);
                }
                Element::VoltageSource { plus, minus, .. } => {
                    let br = layout.branch_index[idx].expect("branch");
                    if let Some(i) = Layout::node_var(*plus) {
                        push_real(&mut mat, i, br, 1.0);
                        push_real(&mut mat, br, i, 1.0);
                    }
                    if let Some(j) = Layout::node_var(*minus) {
                        push_real(&mut mat, j, br, -1.0);
                        push_real(&mut mat, br, j, -1.0);
                    }
                    rhs[br] = if idx == source.0 { 1.0 } else { 0.0 };
                }
                Element::Diode {
                    anode,
                    cathode,
                    saturation_current,
                    emission,
                } => {
                    let v = mna::node_voltage(x_op, *anode) - mna::node_voltage(x_op, *cathode);
                    let (_, g) = mna::diode_eval(*saturation_current, *emission, v);
                    stamp_g(&mut mat, *anode, *cathode, g, false);
                }
                Element::Mosfet {
                    drain,
                    gate,
                    source: mos_source,
                    params,
                    size,
                    polarity,
                } => {
                    let vd = mna::node_voltage(x_op, *drain);
                    let vg = mna::node_voltage(x_op, *gate);
                    let vs = mna::node_voltage(x_op, *mos_source);
                    let lin = mna::mos_eval(params, *size, *polarity, vd, vg, vs);
                    let id = Layout::node_var(*drain);
                    let ig = Layout::node_var(*gate);
                    let is = Layout::node_var(*mos_source);
                    for (row, sign) in [(id, 1.0), (is, -1.0)] {
                        let Some(row) = row else { continue };
                        if let Some(col) = id {
                            push_real(&mut mat, row, col, sign * lin.g_drain);
                        }
                        if let Some(col) = ig {
                            push_real(&mut mat, row, col, sign * lin.g_gate);
                        }
                        if let Some(col) = is {
                            push_real(&mut mat, row, col, sign * lin.g_source);
                        }
                    }
                }
            }
        }

        let solution = mat.to_csr().lu()?.solve(&rhs)?;
        let phasor: Vec<Complex> = (0..n)
            .map(|i| Complex::new(solution[i], solution[i + n]))
            .collect();
        phasors.push(phasor);
    }

    Ok(AcResult {
        frequencies: frequencies.to_vec(),
        phasors,
        n_nodes: layout.n_nodes,
        branch_index: layout.branch_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn rc_lowpass_matches_analytic_response() {
        let mut ckt = Circuit::new();
        let inp = ckt.add_node("in");
        let out = ckt.add_node("out");
        let vs = ckt.voltage_source(inp, Circuit::GROUND, Waveform::Dc(0.0));
        ckt.resistor(inp, out, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 1e-9);
        // f_3dB = 1/(2πRC) ≈ 159.2 kHz.
        let freqs = [1e3, 159.155e3, 10e6];
        let res = ac_analysis(&ckt, vs, &freqs).unwrap();
        let mag = res.magnitude(out);
        assert!((mag[0] - 1.0).abs() < 1e-4, "passband {}", mag[0]);
        assert!(
            (mag[1] - core::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3,
            "corner {}",
            mag[1]
        );
        assert!(mag[2] < 0.02, "stopband {}", mag[2]);
        // Phase at the corner is −45°.
        let phase = res.phase(out);
        assert!((phase[1] + core::f64::consts::FRAC_PI_4).abs() < 1e-3);
    }

    #[test]
    fn series_rlc_resonance_peak() {
        // R = 1 Ω, L = 1 nH, C = 1 pF: f₀ ≈ 5.03 GHz, Q ≈ 31.6; the
        // capacitor voltage peaks near Q at resonance.
        let mut ckt = Circuit::new();
        let inp = ckt.add_node("in");
        let mid = ckt.add_node("mid");
        let out = ckt.add_node("out");
        let vs = ckt.voltage_source(inp, Circuit::GROUND, Waveform::Dc(0.0));
        ckt.resistor(inp, mid, 1.0);
        ckt.inductor(mid, out, 1e-9);
        ckt.capacitor(out, Circuit::GROUND, 1e-12);
        let f0 = 1.0 / (2.0 * core::f64::consts::PI * (1e-9f64 * 1e-12).sqrt());
        let res = ac_analysis(&ckt, vs, &[f0 / 100.0, f0, f0 * 100.0]).unwrap();
        let mag = res.magnitude(out);
        assert!((mag[0] - 1.0).abs() < 1e-3);
        assert!((mag[1] - 31.62).abs() < 0.5, "Q peak {}", mag[1]);
        assert!(mag[2] < 1e-3);
    }

    #[test]
    fn inverter_has_small_signal_gain_at_midpoint() {
        use crate::netlist::MosPolarity;
        use rlckit_tech::{device::MosParams, TechNode};
        let node = TechNode::nm100();
        let params = MosParams::for_node(&node);
        let vdd_v = node.supply_voltage().get();
        let mut ckt = Circuit::new();
        let vdd = ckt.add_node("vdd");
        let inp = ckt.add_node("in");
        let out = ckt.add_node("out");
        ckt.voltage_source(vdd, Circuit::GROUND, Waveform::Dc(vdd_v));
        let vin = ckt.voltage_source(inp, Circuit::GROUND, Waveform::Dc(vdd_v / 2.0));
        ckt.mosfet(out, inp, Circuit::GROUND, params, 4.0, MosPolarity::Nmos);
        ckt.mosfet(out, inp, vdd, params, 4.0, MosPolarity::Pmos);
        ckt.resistor(out, Circuit::GROUND, 1e9);
        let res = ac_analysis(&ckt, vin, &[1e6]).unwrap();
        let gain = res.voltage(0, out).abs();
        // gm/gds of the level-1 model at λ = 0.05 gives tens of dB.
        assert!(gain > 10.0, "inverter gain {gain}");
    }

    #[test]
    fn rejects_non_source_excitation() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let r = ckt.resistor(a, Circuit::GROUND, 1.0);
        ckt.voltage_source(a, Circuit::GROUND, Waveform::Dc(1.0));
        assert!(ac_analysis(&ckt, r, &[1e6]).is_err());
    }

    #[test]
    fn rejects_nonpositive_frequency() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let vs = ckt.voltage_source(a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.resistor(a, Circuit::GROUND, 1.0);
        assert!(ac_analysis(&ckt, vs, &[0.0]).is_err());
    }

    #[test]
    fn branch_current_phasor_obeys_ohms_law() {
        // 1 V AC across R + L in series: I = 1/(R + jωL) on the source
        // branch (with opposite sign for current into the + terminal).
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let b = ckt.add_node("b");
        let vs = ckt.voltage_source(a, Circuit::GROUND, Waveform::Dc(0.0));
        ckt.resistor(a, b, 50.0);
        let ind = ckt.inductor(b, Circuit::GROUND, 10e-9);
        let f = 1e9;
        let res = ac_analysis(&ckt, vs, &[f]).unwrap();
        let omega = 2.0 * core::f64::consts::PI * f;
        let expected = (Complex::new(50.0, omega * 10e-9)).recip();
        let i_l = res.branch_current(0, ind).unwrap();
        assert!((i_l - expected).abs() < 1e-9 * expected.abs(), "{i_l} vs {expected}");
        let i_src = res.branch_current(0, vs).unwrap();
        assert!((i_src + expected).abs() < 1e-9 * expected.abs());
    }
}
