//! Modified nodal analysis: unknown layout, element stamps and the
//! shared Newton iteration used by both DC and transient analysis. AC
//! analysis assembles its small-signal system from the same stamps.
//!
//! Unknown ordering: node voltages for nodes `1 … N−1` (ground excluded)
//! followed by one branch current per voltage source and per inductor.
//! Nonlinear devices are linearized with the classic companion-model
//! formulation: each Newton iteration assembles `J·x_new = rhs(x_old)`
//! and convergence is declared when `x_new ≈ x_old`.

use rlckit_numeric::sparse::TripletMatrix;
use rlckit_numeric::{NumericError, Result};
use rlckit_tech::device::MosParams;
use rlckit_trace::{counter, histogram};

use crate::netlist::{Circuit, Element, ElementId, MosPolarity, Node};

/// Always-on conductance from every node to ground, preventing singular
/// matrices from floating capacitor nodes (standard SPICE `GMIN`).
pub(crate) const GMIN: f64 = 1e-12;

/// Maps circuit nodes and branch elements to MNA unknown indices.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Layout {
    /// Number of circuit nodes including ground.
    pub n_nodes: usize,
    /// `branch_index[element_index]`: unknown index of the element's
    /// branch current, if it has one (voltage sources, inductors).
    pub branch_index: Vec<Option<usize>>,
    /// Total unknown count.
    pub n_unknowns: usize,
}

impl Layout {
    pub fn new(circuit: &Circuit) -> Self {
        let n_nodes = circuit.node_count();
        let mut branch_index = vec![None; circuit.elements().len()];
        let mut next = n_nodes - 1;
        for (i, e) in circuit.elements().iter().enumerate() {
            if matches!(e, Element::VoltageSource { .. } | Element::Inductor { .. }) {
                branch_index[i] = Some(next);
                next += 1;
            }
        }
        Self {
            n_nodes,
            branch_index,
            n_unknowns: next,
        }
    }

    /// Unknown index of a node voltage (`None` for ground).
    pub fn node_var(node: Node) -> Option<usize> {
        if node == Circuit::GROUND {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Unknown index of an element's branch current, if it carries one.
    pub fn branch(&self, id: ElementId) -> Option<usize> {
        self.branch_index.get(id.0).copied().flatten()
    }
}

/// Reads a node voltage out of a solution vector.
pub(crate) fn node_voltage(x: &[f64], node: Node) -> f64 {
    Layout::node_var(node).map_or(0.0, |i| x[i])
}

/// Linearized MOSFET around an operating point: drain current and its
/// derivatives with respect to the three terminal voltages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MosLinearization {
    /// Current flowing into the drain terminal (out of the source).
    pub i_drain: f64,
    /// ∂I/∂V_drain.
    pub g_drain: f64,
    /// ∂I/∂V_gate.
    pub g_gate: f64,
    /// ∂I/∂V_source.
    pub g_source: f64,
}

/// Evaluates a level-1 MOSFET of either polarity at absolute terminal
/// voltages, handling drain/source orientation by symmetry.
pub(crate) fn mos_eval(
    params: &MosParams,
    size: f64,
    polarity: MosPolarity,
    vd: f64,
    vg: f64,
    vs: f64,
) -> MosLinearization {
    match polarity {
        MosPolarity::Nmos => nmos_eval(params, size, vd, vg, vs),
        MosPolarity::Pmos => {
            // PMOS = NMOS at negated voltages with negated current; the
            // derivatives keep their sign (chain rule through −1 twice).
            let n = nmos_eval(params, size, -vd, -vg, -vs);
            MosLinearization {
                i_drain: -n.i_drain,
                g_drain: n.g_drain,
                g_gate: n.g_gate,
                g_source: n.g_source,
            }
        }
    }
}

fn nmos_eval(params: &MosParams, size: f64, vd: f64, vg: f64, vs: f64) -> MosLinearization {
    if vd >= vs {
        let (i, (gm, gds)) = (
            params.nmos_current(size, vg - vs, vd - vs),
            params.nmos_derivatives(size, vg - vs, vd - vs),
        );
        MosLinearization {
            i_drain: i,
            g_drain: gds,
            g_gate: gm,
            g_source: -(gm + gds),
        }
    } else {
        // Source and drain exchange roles; current reverses.
        let (i, (gm, gds)) = (
            params.nmos_current(size, vg - vd, vs - vd),
            params.nmos_derivatives(size, vg - vd, vs - vd),
        );
        MosLinearization {
            i_drain: -i,
            g_drain: gm + gds,
            g_gate: -gm,
            g_source: -gds,
        }
    }
}

/// Thermal voltage at room temperature, in volts.
const THERMAL_VOLTAGE: f64 = 0.02585;
/// Junction voltage beyond which the exponential is linearized to keep
/// the Newton iteration from overflowing.
const DIODE_V_LIMIT: f64 = 0.9;

/// Diode current and conductance at junction voltage `v`, with the
/// exponential replaced by its tangent above [`DIODE_V_LIMIT`].
pub(crate) fn diode_eval(saturation_current: f64, emission: f64, v: f64) -> (f64, f64) {
    let nvt = emission * THERMAL_VOLTAGE;
    if v <= DIODE_V_LIMIT {
        let e = (v / nvt).exp();
        (saturation_current * (e - 1.0), saturation_current * e / nvt)
    } else {
        let e = (DIODE_V_LIMIT / nvt).exp();
        let g = saturation_current * e / nvt;
        (saturation_current * (e - 1.0) + g * (v - DIODE_V_LIMIT), g)
    }
}

/// What the stamps are being assembled for.
pub(crate) enum Mode<'a> {
    /// DC operating point: capacitors open, inductors short, sources at
    /// `time = 0` scaled by `source_scale` (for source stepping), extra
    /// `gmin` added on every node (for gmin stepping).
    Dc { gmin: f64, source_scale: f64 },
    /// One transient step to time `t` with step `dt`.
    Transient {
        /// Target time of this step (sources are evaluated here).
        t: f64,
        /// Step size.
        dt: f64,
        /// Trapezoidal if true, backward Euler otherwise.
        trap: bool,
        /// Solution vector at the previous time point.
        prev: &'a [f64],
        /// Capacitor branch currents at the previous time point
        /// (indexed by element index; only capacitor slots are used).
        cap_current: &'a [f64],
    },
    /// Small-signal stamps at the operating point `x`, into a matrix of
    /// order `2n` for `n` unknowns: the DC Jacobian `G` in columns
    /// `0..n` and the frequency-proportional `B` in columns `n..2n`
    /// (each capacitor as a conductance of `C`, each inductor as `−L`
    /// on its branch diagonal). Sources are zeroed.
    Ac,
}

/// Assembles the linearized MNA system `J·x_new = rhs` around iterate `x`.
pub(crate) fn assemble(
    circuit: &Circuit,
    layout: &Layout,
    x: &[f64],
    mode: &Mode<'_>,
    mat: &mut TripletMatrix,
    rhs: &mut [f64],
) {
    mat.clear();
    rhs.fill(0.0);

    // Conductance `g` between `a` and `b`, in the columns from `col` on.
    let stamp_conductance = |mat: &mut TripletMatrix, a: Node, b: Node, g: f64, col: usize| {
        let ia = Layout::node_var(a);
        let ib = Layout::node_var(b);
        if let Some(i) = ia {
            mat.push(i, i + col, g);
        }
        if let Some(j) = ib {
            mat.push(j, j + col, g);
        }
        if let (Some(i), Some(j)) = (ia, ib) {
            mat.push(i, j + col, -g);
            mat.push(j, i + col, -g);
        }
    };

    // Always-on gmin plus any stepping extra.
    let gmin_extra = match mode {
        Mode::Dc { gmin, .. } => *gmin,
        Mode::Transient { .. } | Mode::Ac => 0.0,
    };
    for i in 0..layout.n_nodes - 1 {
        mat.push(i, i, GMIN + gmin_extra);
    }
    // Branch rows always get a diagonal placeholder so the structure
    // stays square even for degenerate (L = 0) branches.
    // (The actual branch equations below add the real entries.)

    for (idx, element) in circuit.elements().iter().enumerate() {
        match element {
            Element::Resistor { a, b, ohms } => {
                stamp_conductance(mat, *a, *b, 1.0 / ohms, 0);
            }
            Element::Capacitor { a, b, farads } => match mode {
                Mode::Dc { .. } => {}
                Mode::Ac => stamp_conductance(mat, *a, *b, *farads, layout.n_unknowns),
                Mode::Transient {
                    dt,
                    trap,
                    prev,
                    cap_current,
                    ..
                } => {
                    let v_prev = node_voltage(prev, *a) - node_voltage(prev, *b);
                    let (g, i_eq) = if *trap {
                        let g = 2.0 * farads / dt;
                        (g, g * v_prev + cap_current[idx])
                    } else {
                        let g = farads / dt;
                        (g, g * v_prev)
                    };
                    stamp_conductance(mat, *a, *b, g, 0);
                    if let Some(i) = Layout::node_var(*a) {
                        rhs[i] += i_eq;
                    }
                    if let Some(j) = Layout::node_var(*b) {
                        rhs[j] -= i_eq;
                    }
                }
            },
            Element::Inductor { a, b, henries } => {
                let br = layout.branch_index[idx].expect("inductor has a branch");
                // KCL coupling: +i leaves node a, enters node b.
                if let Some(i) = Layout::node_var(*a) {
                    mat.push(i, br, 1.0);
                    mat.push(br, i, 1.0);
                }
                if let Some(j) = Layout::node_var(*b) {
                    mat.push(j, br, -1.0);
                    mat.push(br, j, -1.0);
                }
                match mode {
                    Mode::Dc { .. } => {
                        // Short: V_a − V_b = 0 (row already stamped); keep a
                        // tiny series resistance for conditioning.
                        mat.push(br, br, -1e-9);
                    }
                    Mode::Ac => {
                        // V_a − V_b − jωL·i = 0, conditioned as in DC.
                        mat.push(br, br, -1e-9);
                        mat.push(br, br + layout.n_unknowns, -henries);
                    }
                    Mode::Transient { dt, trap, prev, .. } => {
                        let i_prev = prev[br];
                        if *trap {
                            let v_prev = node_voltage(prev, *a) - node_voltage(prev, *b);
                            let z = 2.0 * henries / dt;
                            mat.push(br, br, -z.max(1e-12));
                            rhs[br] = -z * i_prev - v_prev;
                        } else {
                            let z = henries / dt;
                            mat.push(br, br, -z.max(1e-12));
                            rhs[br] = -z * i_prev;
                        }
                    }
                }
            }
            Element::VoltageSource {
                plus,
                minus,
                waveform,
            } => {
                let br = layout.branch_index[idx].expect("source has a branch");
                if let Some(i) = Layout::node_var(*plus) {
                    mat.push(i, br, 1.0);
                    mat.push(br, i, 1.0);
                }
                if let Some(j) = Layout::node_var(*minus) {
                    mat.push(j, br, -1.0);
                    mat.push(br, j, -1.0);
                }
                let value = match mode {
                    Mode::Dc { source_scale, .. } => source_scale * waveform.value(0.0),
                    Mode::Transient { t, .. } => waveform.value(*t),
                    Mode::Ac => 0.0,
                };
                rhs[br] = value;
            }
            Element::Diode {
                anode,
                cathode,
                saturation_current,
                emission,
            } => {
                let v = node_voltage(x, *anode) - node_voltage(x, *cathode);
                let (i0, g) = diode_eval(*saturation_current, *emission, v);
                let i_eq = i0 - g * v;
                stamp_conductance(mat, *anode, *cathode, g, 0);
                if let Some(ia) = Layout::node_var(*anode) {
                    rhs[ia] -= i_eq;
                }
                if let Some(ic) = Layout::node_var(*cathode) {
                    rhs[ic] += i_eq;
                }
            }
            Element::Mosfet {
                drain,
                gate,
                source,
                params,
                size,
                polarity,
            } => {
                let vd = node_voltage(x, *drain);
                let vg = node_voltage(x, *gate);
                let vs = node_voltage(x, *source);
                let lin = mos_eval(params, *size, *polarity, vd, vg, vs);
                // Companion: i(v) ≈ i0 + Σ g·(v − v0) = i_eq + Σ g·v.
                let i_eq = lin.i_drain - lin.g_drain * vd - lin.g_gate * vg - lin.g_source * vs;
                let id = Layout::node_var(*drain);
                let ig = Layout::node_var(*gate);
                let is = Layout::node_var(*source);
                let terms = [(id, 1.0), (is, -1.0)];
                for (row, sign) in terms {
                    let Some(row) = row else { continue };
                    if let Some(col) = id {
                        mat.push(row, col, sign * lin.g_drain);
                    }
                    if let Some(col) = ig {
                        mat.push(row, col, sign * lin.g_gate);
                    }
                    if let Some(col) = is {
                        mat.push(row, col, sign * lin.g_source);
                    }
                    rhs[row] -= sign * i_eq;
                }
            }
        }
    }
}

/// Iterates `assemble`/solve to convergence from `x0`.
///
/// Returns the converged solution; per-iteration voltage updates are
/// clamped to `max_step` volts, the standard damping that carries level-1
/// inverter chains through their high-gain region.
pub(crate) fn solve_newton(
    circuit: &Circuit,
    layout: &Layout,
    mode: &Mode<'_>,
    x0: &[f64],
    tolerance: f64,
    max_iterations: usize,
) -> Result<Vec<f64>> {
    let n = layout.n_unknowns;
    let mut x = x0.to_vec();
    let mut mat = TripletMatrix::new(n);
    let mut rhs = vec![0.0; n];
    let has_nonlinear = circuit
        .elements()
        .iter()
        .any(|e| matches!(e, Element::Mosfet { .. } | Element::Diode { .. }));
    let max_step = 1.0;

    let mut iterations = 0;
    let result = loop {
        if iterations == max_iterations {
            break Err(NumericError::NoConvergence {
                iterations: max_iterations,
                residual: f64::NAN,
            });
        }
        iterations += 1;
        assemble(circuit, layout, &x, mode, &mut mat, &mut rhs);
        counter!("spice.lu.factorizations").incr();
        let x_new = match mat.to_csr().lu().and_then(|lu| lu.solve(&rhs)) {
            Ok(x_new) => x_new,
            Err(e) => break Err(e),
        };
        let mut delta = 0.0f64;
        let mut next = x.clone();
        for i in 0..n {
            let mut step = x_new[i] - x[i];
            // Clamp node-voltage updates only; branch currents can be large.
            if has_nonlinear && i < layout.n_nodes - 1 {
                step = step.clamp(-max_step, max_step);
            }
            next[i] = x[i] + step;
            delta = delta.max(step.abs());
        }
        x = next;
        if !delta.is_finite() {
            break Err(NumericError::InvalidInput(
                "newton iterate became non-finite".to_string(),
            ));
        }
        // A linear circuit's direct solve is already exact.
        if delta <= tolerance || !has_nonlinear {
            break Ok(x);
        }
    };
    histogram!("spice.newton.iterations").observe(iterations as u64);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_tech::TechNode;

    #[test]
    fn layout_assigns_branches_in_order() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let b = ckt.add_node("b");
        ckt.resistor(a, b, 1.0);
        ckt.voltage_source(a, Circuit::GROUND, crate::waveform::Waveform::Dc(1.0));
        ckt.inductor(b, Circuit::GROUND, 1e-9);
        let layout = Layout::new(&ckt);
        assert_eq!(layout.n_nodes, 3);
        assert_eq!(layout.branch_index, vec![None, Some(2), Some(3)]);
        assert_eq!(layout.n_unknowns, 4);
    }

    #[test]
    fn mos_eval_pmos_mirrors_nmos() {
        let node = TechNode::nm250();
        let params = rlckit_tech::device::MosParams::for_node(&node);
        let vdd = node.supply_voltage().get();
        // NMOS pulling down: gate high, drain mid, source gnd.
        let n = mos_eval(&params, 10.0, MosPolarity::Nmos, 1.0, vdd, 0.0);
        assert!(n.i_drain > 0.0);
        // PMOS pulling up: gate low, drain mid, source vdd.
        let p = mos_eval(&params, 10.0, MosPolarity::Pmos, vdd - 1.0, 0.0, vdd);
        assert!((p.i_drain + n.i_drain).abs() < 1e-12 * n.i_drain.abs().max(1.0));
    }

    #[test]
    fn mos_eval_reversed_terminals_flip_current() {
        let node = TechNode::nm250();
        let params = rlckit_tech::device::MosParams::for_node(&node);
        let vdd = node.supply_voltage().get();
        let fwd = mos_eval(&params, 5.0, MosPolarity::Nmos, 1.0, vdd, 0.0);
        let rev = mos_eval(&params, 5.0, MosPolarity::Nmos, 0.0, vdd, 1.0);
        assert!((fwd.i_drain + rev.i_drain).abs() < 1e-15);
    }

    #[test]
    fn mos_eval_derivatives_match_finite_difference() {
        let node = TechNode::nm100();
        let params = rlckit_tech::device::MosParams::for_node(&node);
        let eps = 1e-7;
        for polarity in [MosPolarity::Nmos, MosPolarity::Pmos] {
            for (vd, vg, vs) in [
                (0.7, 1.2, 0.0),
                (0.1, 0.9, 0.0),
                (0.0, 1.2, 0.7),
                (1.2, 0.0, 1.2),
            ] {
                let base = mos_eval(&params, 3.0, polarity, vd, vg, vs);
                let dd = (mos_eval(&params, 3.0, polarity, vd + eps, vg, vs).i_drain
                    - mos_eval(&params, 3.0, polarity, vd - eps, vg, vs).i_drain)
                    / (2.0 * eps);
                let dg = (mos_eval(&params, 3.0, polarity, vd, vg + eps, vs).i_drain
                    - mos_eval(&params, 3.0, polarity, vd, vg - eps, vs).i_drain)
                    / (2.0 * eps);
                let ds = (mos_eval(&params, 3.0, polarity, vd, vg, vs + eps).i_drain
                    - mos_eval(&params, 3.0, polarity, vd, vg, vs - eps).i_drain)
                    / (2.0 * eps);
                let scale = base.i_drain.abs().max(1e-9);
                assert!(
                    (base.g_drain - dd).abs() < 1e-3 * scale.max(dd.abs()),
                    "{polarity:?} gd"
                );
                assert!(
                    (base.g_gate - dg).abs() < 1e-3 * scale.max(dg.abs()),
                    "{polarity:?} gg"
                );
                assert!(
                    (base.g_source - ds).abs() < 1e-3 * scale.max(ds.abs()),
                    "{polarity:?} gs"
                );
            }
        }
    }
}
