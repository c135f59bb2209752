//! Fixed-step transient analysis.
//!
//! Integration starts from the DC operating point (optionally overridden
//! per node, which is how a ring oscillator is kicked out of its
//! metastable DC solution) and advances at a fixed step with trapezoidal
//! companion models, solving a Newton iteration at every step.
//! Trapezoidal integration is A-stable and second order, so the ringing
//! the paper studies is not artificially damped. The first two steps
//! use the backward-Euler companion instead, to damp any inconsistent
//! initial conditions, as production simulators do.

use rlckit_numeric::Result;
use rlckit_trace::counter;

use crate::dc::operating_point;
use crate::mna::{self, Layout, Mode};
use crate::netlist::{Circuit, Element, ElementId, Node};

/// Backward-Euler steps taken before trapezoidal integration begins.
const STARTUP_STEPS: usize = 2;

/// Newton update tolerance per step (V / A).
const TOLERANCE: f64 = 1e-6;

/// Newton iteration budget per step.
const MAX_NEWTON_ITERATIONS: usize = 100;

/// Options for [`simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// End time in seconds.
    pub t_stop: f64,
    /// Fixed step size in seconds.
    pub dt: f64,
    /// Node-voltage overrides applied on top of the DC operating point
    /// before the first step (the oscillation kick).
    pub initial_overrides: Vec<(Node, f64)>,
}

impl TransientOptions {
    /// Creates options with the given horizon and step.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt < t_stop`.
    #[must_use]
    pub fn new(t_stop: f64, dt: f64) -> Self {
        assert!(dt > 0.0 && dt < t_stop, "need 0 < dt < t_stop");
        Self {
            t_stop,
            dt,
            initial_overrides: Vec::new(),
        }
    }

    /// Adds an initial node-voltage override (applied after the DC
    /// operating point is computed).
    #[must_use]
    pub fn with_initial_voltage(mut self, node: Node, volts: f64) -> Self {
        self.initial_overrides.push((node, volts));
        self
    }
}

/// The sampled result of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `voltages[node][sample]`, including ground (all zeros).
    voltages: Vec<Vec<f64>>,
    /// `currents[branch][sample]` for elements carrying a branch.
    currents: Vec<Vec<f64>>,
    layout: Layout,
}

impl TransientResult {
    /// Sample times.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Voltage samples of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated circuit.
    #[must_use]
    pub fn voltage(&self, node: Node) -> &[f64] {
        &self.voltages[node.index()]
    }

    /// Branch-current samples of a voltage source or inductor, `None`
    /// for elements without a branch current.
    #[must_use]
    pub fn branch_current(&self, id: ElementId) -> Option<&[f64]> {
        let offset = self.layout.branch(id)?;
        Some(&self.currents[offset - (self.layout.n_nodes - 1)])
    }
}

/// Runs a transient analysis.
///
/// # Errors
///
/// Propagates DC-operating-point failures and per-step Newton
/// non-convergence ([`rlckit_numeric::NumericError::NoConvergence`]).
///
/// # Examples
///
/// See the crate-level example.
pub fn simulate(circuit: &Circuit, options: &TransientOptions) -> Result<TransientResult> {
    crate::dc::sanity_check(circuit)?;
    let layout = Layout::new(circuit);
    let op = operating_point(circuit)?;
    let mut x = op.as_vector().to_vec();
    for &(node, volts) in &options.initial_overrides {
        if let Some(i) = Layout::node_var(node) {
            x[i] = volts;
        }
    }

    let n_steps = (options.t_stop / options.dt).ceil() as usize;
    let n_elements = circuit.elements().len();
    let mut cap_current = vec![0.0; n_elements];

    let mut times = Vec::with_capacity(n_steps + 1);
    let mut voltages = vec![Vec::with_capacity(n_steps + 1); layout.n_nodes];
    let n_branches = layout.n_unknowns - (layout.n_nodes - 1);
    let mut currents = vec![Vec::with_capacity(n_steps + 1); n_branches];

    let record = |x: &[f64],
                  t: f64,
                  times: &mut Vec<f64>,
                  voltages: &mut Vec<Vec<f64>>,
                  currents: &mut Vec<Vec<f64>>| {
        times.push(t);
        voltages[0].push(0.0);
        for node_idx in 1..layout.n_nodes {
            voltages[node_idx].push(x[node_idx - 1]);
        }
        for b in 0..n_branches {
            currents[b].push(x[layout.n_nodes - 1 + b]);
        }
    };
    record(&x, 0.0, &mut times, &mut voltages, &mut currents);

    let mut t = 0.0;
    let mut step = 0usize;
    while t < options.t_stop {
        let trap = step >= STARTUP_STEPS;
        let t_next = (t + options.dt).min(options.t_stop);
        let dt_taken = t_next - t;
        if dt_taken <= 0.0 {
            break;
        }
        let mode = Mode::Transient {
            t: t_next,
            dt: dt_taken,
            trap,
            prev: &x,
            cap_current: &cap_current,
        };
        let x_next = mna::solve_newton(
            circuit,
            &layout,
            &mode,
            &x,
            TOLERANCE,
            MAX_NEWTON_ITERATIONS,
        )?;

        // Update capacitor companion state for the trapezoidal method.
        for (idx, element) in circuit.elements().iter().enumerate() {
            if let Element::Capacitor { a, b, farads } = element {
                let v_new = mna::node_voltage(&x_next, *a) - mna::node_voltage(&x_next, *b);
                let v_old = mna::node_voltage(&x, *a) - mna::node_voltage(&x, *b);
                cap_current[idx] = if trap {
                    2.0 * farads / dt_taken * (v_new - v_old) - cap_current[idx]
                } else {
                    farads / dt_taken * (v_new - v_old)
                };
            }
        }

        x = x_next;
        t = t_next;
        step += 1;
        counter!("spice.transient.steps").incr();
        record(&x, t, &mut times, &mut voltages, &mut currents);
    }

    Ok(TransientResult {
        times,
        voltages,
        currents,
        layout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::waveform::Waveform;
    use rlckit_numeric::stats::max_nan;

    #[test]
    fn rc_charging_curve() {
        let mut ckt = Circuit::new();
        let inp = ckt.add_node("in");
        let out = ckt.add_node("out");
        ckt.voltage_source(inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
        ckt.resistor(inp, out, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 1e-12);
        // τ = 1 ns; simulate 5 τ.
        let res = simulate(&ckt, &TransientOptions::new(5e-9, 5e-12)).unwrap();
        let v = res.voltage(out);
        let t = res.times();
        for (i, &ti) in t.iter().enumerate() {
            let want = 1.0 - (-ti / 1e-9).exp();
            assert!(
                (v[i] - want).abs() < 0.01,
                "t={ti:e}: got {} want {want}",
                v[i]
            );
        }
    }

    #[test]
    fn rlc_series_rings_at_natural_frequency() {
        // Underdamped series RLC: R = 1 Ω, L = 1 nH, C = 1 pF.
        // ω_d ≈ 3.16e10 rad/s, period ≈ 198.7 ps; Q ≈ 31.6.
        let mut ckt = Circuit::new();
        let inp = ckt.add_node("in");
        let mid = ckt.add_node("mid");
        let out = ckt.add_node("out");
        ckt.voltage_source(inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-13));
        ckt.resistor(inp, mid, 1.0);
        ckt.inductor(mid, out, 1e-9);
        ckt.capacitor(out, Circuit::GROUND, 1e-12);
        let res = simulate(&ckt, &TransientOptions::new(2e-9, 0.2e-12)).unwrap();
        let v = res.voltage(out);
        // Clear overshoot close to 2× the step for this high Q.
        let peak = v.iter().fold(0.0f64, |m, &x| max_nan(m, x));
        assert!(peak > 1.8, "peak = {peak}");
        // Ring period from successive maxima.
        let mut maxima = Vec::new();
        for i in 1..v.len() - 1 {
            if v[i] > v[i - 1] && v[i] >= v[i + 1] && v[i] > 1.05 {
                maxima.push(res.times()[i]);
            }
        }
        assert!(maxima.len() >= 2, "need at least two maxima");
        let period = maxima[1] - maxima[0];
        let want = 2.0 * std::f64::consts::PI * (1e-9f64 * 1e-12).sqrt();
        assert!(
            (period - want).abs() / want < 0.05,
            "period {period:e} vs {want:e}"
        );
    }

    #[test]
    fn trapezoidal_ringing_matches_the_analytic_step_response() {
        // Series RLC, R = 1 Ω, L = 1 nH, C = 1 pF: the capacitor voltage
        // after a unit step is 1 − e^{−αt}(cos ω_d t + (α/ω_d) sin ω_d t)
        // with α = R/2L and ω_d² = 1/LC − α². Its maxima sit at odd
        // multiples of π/ω_d, where it reads 1 + e^{−αt}. Backward Euler
        // would damp the ringing by ~0.3 V by 2 ns; trapezoidal keeps it.
        let (r, l, c) = (1.0, 1e-9, 1e-12);
        let mut ckt = Circuit::new();
        let inp = ckt.add_node("in");
        let mid = ckt.add_node("mid");
        let out = ckt.add_node("out");
        ckt.voltage_source(inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-13));
        ckt.resistor(inp, mid, r);
        ckt.inductor(mid, out, l);
        ckt.capacitor(out, Circuit::GROUND, c);
        let res = simulate(&ckt, &TransientOptions::new(3e-9, 2e-12)).unwrap();
        let (t, v) = (res.times(), res.voltage(out));
        let window = |time: f64| (2e-9..=3e-9).contains(&time);
        let simulated = (0..t.len())
            .filter(|&i| window(t[i]))
            .fold(0.0f64, |m, i| max_nan(m, v[i]));

        let alpha = r / (2.0 * l);
        let omega_d = (1.0 / (l * c) - alpha * alpha).sqrt();
        let analytic = (1..)
            .step_by(2)
            .map(|k| f64::from(k) * std::f64::consts::PI / omega_d)
            .skip_while(|&time| !window(time))
            .take_while(|&time| window(time))
            .map(|time| 1.0 + (-alpha * time).exp())
            .fold(0.0f64, max_nan);
        assert!(analytic > 1.35, "analytic peak {analytic}");
        // Measured gap 1.26 mV (trapezoidal phase lag plus 2 ps sampling
        // of the peak); the bound adds a 0.74 mV margin.
        let gap = (simulated - analytic).abs();
        assert!(
            gap < 2e-3,
            "simulated peak {simulated} vs analytic {analytic}: gap {gap:e}"
        );
    }

    #[test]
    fn inductor_branch_current_is_recorded() {
        let mut ckt = Circuit::new();
        let inp = ckt.add_node("in");
        let out = ckt.add_node("out");
        ckt.voltage_source(inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-13));
        let ind = ckt.inductor(inp, out, 1e-9);
        ckt.resistor(out, Circuit::GROUND, 10.0);
        let res = simulate(&ckt, &TransientOptions::new(2e-9, 1e-12)).unwrap();
        let i = res.branch_current(ind).unwrap();
        // L/R = 0.1 ns: settles to 0.1 A well within 2 ns.
        let i_end = *i.last().unwrap();
        assert!((i_end - 0.1).abs() < 1e-3, "i_end = {i_end}");
    }

    #[test]
    fn initial_override_kicks_the_state() {
        let mut ckt = Circuit::new();
        let out = ckt.add_node("out");
        ckt.resistor(out, Circuit::GROUND, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 1e-12);
        let opts = TransientOptions::new(5e-9, 5e-12).with_initial_voltage(out, 1.0);
        let res = simulate(&ckt, &opts).unwrap();
        let v = res.voltage(out);
        assert!((v[0] - 1.0).abs() < 1e-12);
        // Discharges with τ = 1 ns.
        let idx = res.times().iter().position(|&t| t >= 1e-9).unwrap();
        assert!((v[idx] - (-1.0f64).exp()).abs() < 0.02);
    }

    #[test]
    fn pulse_source_produces_periodic_response() {
        let mut ckt = Circuit::new();
        let inp = ckt.add_node("in");
        ckt.voltage_source(
            inp,
            Circuit::GROUND,
            Waveform::pulse(0.0, 1.0, 0.0, 10e-12, 10e-12, 480e-12, 1e-9),
        );
        ckt.resistor(inp, Circuit::GROUND, 50.0);
        let res = simulate(&ckt, &TransientOptions::new(3e-9, 2e-12)).unwrap();
        let v = res.voltage(inp);
        let t = res.times();
        // High during each pulse, low between.
        let at = |time: f64| {
            let i = t.iter().position(|&x| x >= time).unwrap();
            v[i]
        };
        assert!((at(0.25e-9) - 1.0).abs() < 1e-6);
        assert!(at(0.75e-9).abs() < 1e-6);
        assert!((at(1.25e-9) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_inductance_acts_as_short_with_probe() {
        let mut ckt = Circuit::new();
        let inp = ckt.add_node("in");
        let out = ckt.add_node("out");
        ckt.voltage_source(inp, Circuit::GROUND, Waveform::Dc(1.0));
        let probe = ckt.inductor(inp, out, 0.0);
        ckt.resistor(out, Circuit::GROUND, 100.0);
        let res = simulate(&ckt, &TransientOptions::new(1e-9, 1e-12)).unwrap();
        let v_out = *res.voltage(out).last().unwrap();
        assert!((v_out - 1.0).abs() < 1e-4);
        let i = *res.branch_current(probe).unwrap().last().unwrap();
        assert!((i - 0.01).abs() < 1e-5);
    }
}
