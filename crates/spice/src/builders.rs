//! Circuit builders for the structures the paper simulates.

use rlckit_tech::device::MosParams;
use rlckit_tech::TechNode;
use rlckit_units::Meters;

use crate::netlist::{Circuit, ElementId, MosPolarity, Node};
use crate::waveform::Waveform;

/// Per-unit-length line parameters accepted by the ladder builder.
///
/// (Kept local so the simulator substrate does not depend on the
/// transmission-line crate; the core crate converts.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderLine {
    /// Resistance per metre (Ω/m).
    pub r_per_m: f64,
    /// Inductance per metre (H/m, may be 0).
    pub l_per_m: f64,
    /// Capacitance per metre (F/m).
    pub c_per_m: f64,
}

/// Handles into an instantiated RLC ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    /// The series inductor of each section (current probes).
    pub inductors: Vec<ElementId>,
    /// The interior nodes, from the driven end to the load end
    /// (`segments − 1` of them).
    pub interior_nodes: Vec<Node>,
}

/// Instantiates a uniform RLC line as `segments` L-sections with
/// half-capacitors at both ends (an overall π structure, second-order
/// accurate in the section count).
///
/// Each section carries `r·Δx` in series with `l·Δx` (the inductor is
/// present even at `l = 0`, giving a current probe), and shunt
/// capacitance `c·Δx` split between its end nodes.
///
/// # Panics
///
/// Panics if `segments == 0` or the line length is not positive.
pub fn rlc_ladder(
    circuit: &mut Circuit,
    from: Node,
    to: Node,
    line: LadderLine,
    length: Meters,
    segments: usize,
) -> Ladder {
    assert!(segments > 0, "need at least one ladder segment");
    let h = length.get();
    assert!(h > 0.0, "line length must be positive");
    let dx = h / segments as f64;
    let r_seg = line.r_per_m * dx;
    let l_seg = line.l_per_m * dx;
    let c_seg = line.c_per_m * dx;

    let mut inductors = Vec::with_capacity(segments);
    let mut interior_nodes = Vec::with_capacity(segments.saturating_sub(1));

    // Half-cap at the driven end.
    circuit.capacitor(from, Circuit::GROUND, c_seg / 2.0);
    let mut prev = from;
    for seg in 0..segments {
        let next = if seg + 1 == segments {
            to
        } else {
            let n = circuit.add_node(format!("ladder{}", seg + 1));
            interior_nodes.push(n);
            n
        };
        let mid = circuit.add_node(format!("ladder{}rl", seg + 1));
        circuit.resistor(prev, mid, r_seg);
        inductors.push(circuit.inductor(mid, next, l_seg));
        // Full shunt cap at interior nodes, half at the final node.
        let shunt = if seg + 1 == segments {
            c_seg / 2.0
        } else {
            c_seg
        };
        circuit.capacitor(next, Circuit::GROUND, shunt);
        prev = next;
    }

    Ladder {
        inductors,
        interior_nodes,
    }
}

/// Saturation current of the drain-junction clamp diodes of a
/// minimum-sized inverter, in amperes. Scaled by the inverter size.
const CLAMP_DIODE_IS: f64 = 1e-16;

/// Handles into an instantiated inverter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inverter {
    /// The NMOS pull-down device.
    pub nmos: ElementId,
    /// The PMOS pull-up device.
    pub pmos: ElementId,
}

/// Instantiates a `size`-times-minimum CMOS inverter with its linearized
/// parasitics — gate capacitance `c₀·k` on the input, drain parasitic
/// `c_p·k` on the output — and the drain-junction clamp diodes (output to
/// both rails) that bound ringing excursions the way real devices do.
///
/// # Panics
///
/// Panics if `size` is not strictly positive.
pub fn inverter(
    circuit: &mut Circuit,
    input: Node,
    output: Node,
    vdd: Node,
    params: MosParams,
    size: f64,
) -> Inverter {
    assert!(size > 0.0, "inverter size must be positive");
    let nmos = circuit.mosfet(
        output,
        input,
        Circuit::GROUND,
        params,
        size,
        MosPolarity::Nmos,
    );
    let pmos = circuit.mosfet(output, input, vdd, params, size, MosPolarity::Pmos);
    circuit.capacitor(
        input,
        Circuit::GROUND,
        params.gate_capacitance().get() * size,
    );
    circuit.capacitor(
        output,
        Circuit::GROUND,
        params.drain_capacitance().get() * size,
    );
    // Drain junction diodes: substrate→output and output→well.
    circuit.diode(Circuit::GROUND, output, CLAMP_DIODE_IS * size, 1.0);
    circuit.diode(output, vdd, CLAMP_DIODE_IS * size, 1.0);
    Inverter { nmos, pmos }
}

/// A fully built ring oscillator (paper §3.3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct RingOscillator {
    /// The circuit itself.
    pub circuit: Circuit,
    /// Supply node.
    pub vdd: Node,
    /// Stage inputs: `stage_inputs[i]` is the input of inverter `i`
    /// (= the far end of the previous stage's line).
    pub stage_inputs: Vec<Node>,
    /// Stage outputs (driver side of each line).
    pub stage_outputs: Vec<Node>,
    /// Line current probes: first-section series inductor of each stage.
    pub line_probes: Vec<ElementId>,
}

/// Builds an `n_stages` ring oscillator in which every stage is a
/// `size`-times-minimum inverter driving a distributed line of the given
/// length, exactly the structure of the paper's Fig. 9–12 study.
///
/// # Panics
///
/// Panics unless `n_stages` is odd and ≥ 3 and `segments > 0`.
#[must_use]
pub fn ring_oscillator(
    node: &TechNode,
    inductance_per_m: f64,
    size: f64,
    line_length: Meters,
    n_stages: usize,
    segments: usize,
) -> RingOscillator {
    assert!(
        n_stages >= 3 && n_stages % 2 == 1,
        "a ring oscillator needs an odd stage count ≥ 3"
    );
    let params = MosParams::for_node(node);
    let vdd_value = node.supply_voltage().get();
    let line = LadderLine {
        r_per_m: node.line().resistance.get(),
        l_per_m: inductance_per_m,
        c_per_m: node.line().capacitance.get(),
    };

    let mut circuit = Circuit::new();
    let vdd = circuit.add_node("vdd");
    circuit.voltage_source(vdd, Circuit::GROUND, Waveform::Dc(vdd_value));

    let inputs: Vec<Node> = (0..n_stages)
        .map(|i| circuit.add_node(format!("in{i}")))
        .collect();
    let outputs: Vec<Node> = (0..n_stages)
        .map(|i| circuit.add_node(format!("out{i}")))
        .collect();

    let mut probes = Vec::with_capacity(n_stages);
    for i in 0..n_stages {
        inverter(&mut circuit, inputs[i], outputs[i], vdd, params, size);
        let ladder = rlc_ladder(
            &mut circuit,
            outputs[i],
            inputs[(i + 1) % n_stages],
            line,
            line_length,
            segments,
        );
        probes.push(ladder.inductors[0]);
    }

    RingOscillator {
        circuit,
        vdd,
        stage_inputs: inputs,
        stage_outputs: outputs,
        line_probes: probes,
    }
}

/// A buffered line driven by an external square wave — the paper's
/// cross-check that the false-switching phenomenon is not a
/// ring-oscillator artifact (§3.3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct BufferedLine {
    /// The circuit itself.
    pub circuit: Circuit,
    /// The square-wave source node.
    pub source: Node,
    /// Repeater inputs along the chain (`n_stages + 1` nodes: the input
    /// of each repeater and the final receiver input).
    pub taps: Vec<Node>,
    /// First-section line current probes, one per stage.
    pub line_probes: Vec<ElementId>,
}

/// Builds a chain of `n_stages` repeaters each driving a line segment,
/// excited by a square wave of the given period and terminated by an
/// identical receiver.
///
/// # Panics
///
/// Panics unless `n_stages ≥ 1` and `segments > 0`.
#[must_use]
pub fn buffered_line(
    node: &TechNode,
    inductance_per_m: f64,
    size: f64,
    line_length: Meters,
    n_stages: usize,
    segments: usize,
    period: f64,
) -> BufferedLine {
    assert!(n_stages >= 1, "need at least one stage");
    let params = MosParams::for_node(node);
    let vdd_value = node.supply_voltage().get();
    let line = LadderLine {
        r_per_m: node.line().resistance.get(),
        l_per_m: inductance_per_m,
        c_per_m: node.line().capacitance.get(),
    };

    let mut circuit = Circuit::new();
    let vdd = circuit.add_node("vdd");
    circuit.voltage_source(vdd, Circuit::GROUND, Waveform::Dc(vdd_value));
    let source = circuit.add_node("src");
    let edge = period / 50.0;
    circuit.voltage_source(
        source,
        Circuit::GROUND,
        Waveform::pulse(0.0, vdd_value, 0.0, edge, edge, period / 2.0 - edge, period),
    );

    let mut taps = vec![source];
    let mut probes = Vec::with_capacity(n_stages);
    let mut prev = source;
    for i in 0..n_stages {
        let out = circuit.add_node(format!("buf{i}"));
        inverter(&mut circuit, prev, out, vdd, params, size);
        let next = circuit.add_node(format!("tap{}", i + 1));
        let ladder = rlc_ladder(&mut circuit, out, next, line, line_length, segments);
        probes.push(ladder.inductors[0]);
        taps.push(next);
        prev = next;
    }
    // Identical receiving repeater as the far-end load.
    let sink = circuit.add_node("sink");
    inverter(&mut circuit, prev, sink, vdd, params, size);

    BufferedLine {
        circuit,
        source,
        taps,
        line_probes: probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::{simulate, TransientOptions};
    use rlckit_units::Meters;

    #[test]
    fn ladder_structure_counts() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let b = ckt.add_node("b");
        let line = LadderLine {
            r_per_m: 4400.0,
            l_per_m: 1e-6,
            c_per_m: 203.5e-12,
        };
        let ladder = rlc_ladder(&mut ckt, a, b, line, Meters::from_milli(10.0), 8);
        assert_eq!(ladder.inductors.len(), 8);
        assert_eq!(ladder.interior_nodes.len(), 7);
        // 8 R + 8 L + 9 caps (driven-end half + 7 interior + far-end half).
        assert_eq!(ckt.elements().len(), 8 + 8 + 9);
    }

    #[test]
    fn ladder_total_resistance_matches_line() {
        // DC through the ladder sees exactly r·h.
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let b = ckt.add_node("b");
        ckt.voltage_source(a, Circuit::GROUND, Waveform::Dc(1.0));
        let line = LadderLine {
            r_per_m: 4400.0,
            l_per_m: 1e-6,
            c_per_m: 203.5e-12,
        };
        rlc_ladder(&mut ckt, a, b, line, Meters::from_milli(10.0), 16);
        ckt.resistor(b, Circuit::GROUND, 44.0); // matches r·h = 44 Ω
        let op = crate::dc::operating_point(&ckt).unwrap();
        assert!((op.voltage(b) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ladder_delay_approaches_elmore_prediction() {
        // Drive a 14.4 mm RC-dominated line through R_S and check the 50 %
        // delay against the two-pole model's prediction within ~10 %.
        let k = 578.0;
        let rs = 11_784.0 / k;
        let cp = 6.2474e-15 * k;
        let cl = 1.6314e-15 * k;
        let line = LadderLine {
            r_per_m: 4400.0,
            l_per_m: 0.0,
            c_per_m: 203.5e-12,
        };
        let mut ckt = Circuit::new();
        let src = ckt.add_node("src");
        let drv = ckt.add_node("drv");
        let far = ckt.add_node("far");
        ckt.voltage_source(
            src,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 10e-12, 1e-12),
        );
        ckt.resistor(src, drv, rs);
        ckt.capacitor(drv, Circuit::GROUND, cp);
        rlc_ladder(&mut ckt, drv, far, line, Meters::from_milli(14.4), 24);
        ckt.capacitor(far, Circuit::GROUND, cl);
        let res = simulate(&ckt, &TransientOptions::new(2.5e-9, 1e-12)).unwrap();
        let d = crate::measure::delay_between(
            res.times(),
            res.voltage(src),
            res.voltage(far),
            0.5,
            crate::measure::Edge::Rising,
            crate::measure::Edge::Rising,
        )
        .unwrap();
        // Two-pole prediction for this exact structure (from the tline
        // crate's formulas, evaluated here numerically): b1, b2.
        let (r, c, h) = (4400.0, 203.5e-12, 0.0144);
        let b1 = rs * (cp + cl) + r * c * h * h / 2.0 + rs * c * h + cl * r * h;
        // Fully RC: delay should sit in the Elmore neighbourhood.
        assert!(d > 0.5 * b1 && d < 1.1 * b1, "delay {d:e} vs b1 {b1:e}");
    }

    #[test]
    fn ring_oscillator_builds_consistently() {
        let node = rlckit_tech::TechNode::nm100();
        let ro = ring_oscillator(&node, 1.8e-6, 50.0, Meters::from_milli(11.1), 5, 6);
        assert_eq!(ro.stage_inputs.len(), 5);
        assert_eq!(ro.stage_outputs.len(), 5);
        assert_eq!(ro.line_probes.len(), 5);
        crate::dc::sanity_check(&ro.circuit).unwrap();
    }

    #[test]
    fn buffered_line_builds_consistently() {
        let node = rlckit_tech::TechNode::nm100();
        let bl = buffered_line(&node, 1.8e-6, 50.0, Meters::from_milli(11.1), 3, 6, 4e-9);
        assert_eq!(bl.taps.len(), 4);
        assert_eq!(bl.line_probes.len(), 3);
        crate::dc::sanity_check(&bl.circuit).unwrap();
    }
}
