//! Small-signal AC analysis.
//!
//! Linearizes the circuit around its DC operating point and solves the
//! complex MNA system `(G + jωB)·x = u` at each requested frequency,
//! with one chosen voltage source driven at unit amplitude and every
//! other source zeroed.
//!
//! One assembly per sweep, by the element stamps DC and transient
//! analysis use, gives both blocks. `G` is the DC Jacobian at the
//! operating point: MOSFETs and diodes enter as their small-signal
//! conductances, inductors as shorts. `B` holds the terms proportional
//! to frequency: each capacitor as a conductance of `C`, each inductor
//! as `−L` on its branch diagonal. Each frequency solves the real
//! 2n×2n embedding `[[G, −ωB], [ωB, G]]` with the sparse LU kernel.
//!
//! This gives the workspace a second, independent route to the paper's
//! transfer function: the RLC-ladder frequency response measured here
//! must match the exact `H(jω)` from `rlckit-tline` — an integration
//! test enforces it.

use rlckit_numeric::sparse::TripletMatrix;
use rlckit_numeric::{Complex, NumericError, Result};
use rlckit_trace::counter;

use crate::dc::operating_point;
use crate::mna::{self, Layout, Mode};
use crate::netlist::{Circuit, Element, ElementId, Node};

/// The result of an AC sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AcResult {
    frequencies: Vec<f64>,
    /// `phasors[sample][unknown]` (node voltages then branch currents).
    phasors: Vec<Vec<Complex>>,
    layout: Layout,
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
        self.layout.branch(id).map(|offset| self.phasors[i][offset])
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
pub fn ac_analysis(circuit: &Circuit, source: ElementId, frequencies: &[f64]) -> Result<AcResult> {
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
    let n = layout.n_unknowns;

    // G and B once per sweep; the stamps' right-hand side (the bias)
    // does not enter the small-signal system.
    let mut stamps = TripletMatrix::new(2 * n);
    mna::assemble(
        circuit,
        &layout,
        op.as_vector(),
        &Mode::Ac,
        &mut stamps,
        &mut vec![0.0; n],
    );
    let mut rhs = vec![0.0; 2 * n];
    rhs[layout.branch(source).expect("source has a branch")] = 1.0;

    let mut phasors = Vec::with_capacity(frequencies.len());
    for &f in frequencies {
        if f <= 0.0 || f.is_nan() {
            return Err(NumericError::InvalidInput(format!(
                "ac frequency must be positive, got {f}"
            )));
        }
        let omega = 2.0 * core::f64::consts::PI * f;
        // Real embedding of (G + jωB)x = u:  [[G, −ωB], [ωB, G]]·[Re; Im].
        // It keeps the stamps' push order, which sets the order in which
        // `to_csr` sums duplicates and so the phasors' last bits.
        let mut mat = TripletMatrix::new(2 * n);
        for &(i, j, v) in stamps.entries() {
            if j < n {
                mat.push(i, j, v);
                mat.push(i + n, j + n, v);
            } else {
                mat.push(i, j, -(omega * v));
                mat.push(i + n, j - n, omega * v);
            }
        }
        counter!("spice.lu.factorizations").incr();
        let solution = mat.to_csr().lu()?.solve(&rhs)?;
        let phasor: Vec<Complex> = (0..n)
            .map(|i| Complex::new(solution[i], solution[i + n]))
            .collect();
        phasors.push(phasor);
    }

    Ok(AcResult {
        frequencies: frequencies.to_vec(),
        phasors,
        layout,
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
        use crate::dc::operating_point;
        use crate::netlist::MosPolarity;
        use rlckit_tech::{device::MosParams, TechNode};
        let node = TechNode::nm100();
        let params = MosParams::for_node(&node);
        let vdd_v = node.supply_voltage().get();
        let build = |vin_v: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.add_node("vdd");
            let inp = ckt.add_node("in");
            let out = ckt.add_node("out");
            ckt.voltage_source(vdd, Circuit::GROUND, Waveform::Dc(vdd_v));
            let vin = ckt.voltage_source(inp, Circuit::GROUND, Waveform::Dc(vin_v));
            ckt.mosfet(out, inp, Circuit::GROUND, params, 4.0, MosPolarity::Nmos);
            ckt.mosfet(out, inp, vdd, params, 4.0, MosPolarity::Pmos);
            ckt.resistor(out, Circuit::GROUND, 1e9);
            (ckt, vin, out)
        };
        let (ckt, vin, out) = build(vdd_v / 2.0);
        let gain = ac_analysis(&ckt, vin, &[1e6]).unwrap().voltage(0, out);
        // No capacitors: the 1 MHz gain is the slope of the DC transfer
        // curve, here by a central difference of two operating points.
        let delta = 1e-4;
        let v_out = |vin_v: f64| {
            let (ckt, _, out) = build(vin_v);
            operating_point(&ckt).unwrap().voltage(out)
        };
        let slope = (v_out(vdd_v / 2.0 + delta) - v_out(vdd_v / 2.0 - delta)) / (2.0 * delta);
        // Measured gap 1.1e-7, the central difference's O(δ²) error (it
        // falls 100× per 10× smaller δ down to δ = 1e-5); the bound
        // leaves a 9× margin.
        let gap = (gain - Complex::new(slope, 0.0)).abs() / slope.abs();
        assert!(slope < -10.0, "inverter gain {slope}");
        assert!(
            gap < 1e-6,
            "ac gain {gain} vs dc slope {slope}: relative gap {gap:e}"
        );
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
        assert!(
            (i_l - expected).abs() < 1e-9 * expected.abs(),
            "{i_l} vs {expected}"
        );
        let i_src = res.branch_current(0, vs).unwrap();
        assert!((i_src + expected).abs() < 1e-9 * expected.abs());
    }
}
