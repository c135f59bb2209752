//! Fixed-step transient analysis.
//!
//! Integration starts from the DC operating point (optionally overridden
//! per node, which is how a ring oscillator is kicked out of its
//! metastable DC solution) and advances with backward-Euler or
//! trapezoidal companion models, solving a Newton iteration at every
//! step. The trapezoidal method takes a few backward-Euler startup steps
//! to damp any inconsistent initial conditions, as production simulators
//! do.

use rlckit_numeric::Result;

use crate::dc::operating_point;
use crate::mna::{self, Layout, Mode};
use crate::netlist::{Circuit, Element, ElementId, Node};

/// Integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Backward Euler: L-stable, first order, numerically damped.
    BackwardEuler,
    /// Trapezoidal: A-stable, second order — the default, because the
    /// ringing the paper studies must not be artificially damped.
    #[default]
    Trapezoidal,
}

/// Local-truncation-error control for adaptive stepping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Target LTE per step, in volts (applied to the node voltages).
    pub error_target: f64,
    /// Smallest step the controller may take.
    pub dt_min: f64,
    /// Largest step the controller may take.
    pub dt_max: f64,
}

impl AdaptiveOptions {
    /// Sensible defaults around a nominal step: target 1 mV LTE, steps
    /// between `dt/32` and `16·dt`.
    ///
    /// # Panics
    ///
    /// Panics unless `dt` is strictly positive.
    #[must_use]
    pub fn around(dt: f64) -> Self {
        assert!(dt > 0.0, "nominal step must be positive");
        Self {
            error_target: 1e-3,
            dt_min: dt / 32.0,
            dt_max: dt * 16.0,
        }
    }
}

/// Options for [`simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// End time in seconds.
    pub t_stop: f64,
    /// Fixed step size in seconds (the initial/nominal step when
    /// adaptive control is enabled).
    pub dt: f64,
    /// Adaptive step control; `None` (the default) steps at fixed `dt`.
    pub adaptive: Option<AdaptiveOptions>,
    /// Integration method.
    pub method: Method,
    /// Node-voltage overrides applied on top of the DC operating point
    /// before the first step (the oscillation kick).
    pub initial_overrides: Vec<(Node, f64)>,
    /// Newton update tolerance (V / A).
    pub tolerance: f64,
    /// Newton iteration budget per step.
    pub max_newton_iterations: usize,
    /// Number of backward-Euler startup steps before trapezoidal
    /// integration begins.
    pub startup_steps: usize,
}

impl TransientOptions {
    /// Creates options with the given horizon and step and the defaults
    /// used throughout the workspace.
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
            adaptive: None,
            method: Method::Trapezoidal,
            initial_overrides: Vec::new(),
            tolerance: 1e-6,
            max_newton_iterations: 100,
            startup_steps: 2,
        }
    }

    /// Enables adaptive step control with the given settings.
    #[must_use]
    pub fn with_adaptive(mut self, adaptive: AdaptiveOptions) -> Self {
        self.adaptive = Some(adaptive);
        self
    }

    /// Switches the integration method.
    #[must_use]
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
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
    branch_index: Vec<Option<usize>>,
    n_nodes: usize,
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
        let offset = self.branch_index.get(id.0).copied().flatten()?;
        Some(&self.currents[offset - (self.n_nodes - 1)])
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

    let record = |x: &[f64], t: f64, times: &mut Vec<f64>, voltages: &mut Vec<Vec<f64>>, currents: &mut Vec<Vec<f64>>| {
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
    let mut dt = options.dt;
    let mut step = 0usize;
    // History for the LTE predictor: (t_prev, x_prev) behind the current x.
    let mut history: Option<(f64, Vec<f64>)> = None;
    // A generous global budget so a pathological controller cannot spin.
    let max_total_steps = n_steps.saturating_mul(64).max(1024);

    while t < options.t_stop && step < max_total_steps {
        let trap = options.method == Method::Trapezoidal && step >= options.startup_steps;
        if let Some(a) = &options.adaptive {
            dt = dt.clamp(a.dt_min, a.dt_max);
        }
        let t_next = (t + dt).min(options.t_stop);
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
        let solved = mna::solve_newton(
            circuit,
            &layout,
            &mode,
            &x,
            options.tolerance,
            options.max_newton_iterations,
        );
        let x_next = match solved {
            Ok(x_next) => x_next,
            Err(e) => {
                // Newton trouble: with adaptive control, retry smaller.
                if let Some(a) = &options.adaptive {
                    if dt > a.dt_min * 1.0001 {
                        dt = (dt / 4.0).max(a.dt_min);
                        step += 1;
                        continue;
                    }
                }
                return Err(e);
            }
        };

        // Adaptive: estimate the LTE as the gap between the corrector and
        // a linear predictor through the last two accepted points.
        if let (Some(a), Some((t_prev, x_prev))) = (&options.adaptive, &history) {
            let span = t - t_prev;
            if span > 0.0 && step >= options.startup_steps {
                let mut err = 0.0f64;
                for i in 0..layout.n_nodes - 1 {
                    let slope = (x[i] - x_prev[i]) / span;
                    let predicted = x[i] + slope * dt_taken;
                    err = err.max((x_next[i] - predicted).abs());
                }
                if err > 4.0 * a.error_target && dt_taken > a.dt_min * 1.0001 {
                    // Reject: halve and retry from the same state.
                    dt = (dt_taken / 2.0).max(a.dt_min);
                    step += 1;
                    continue;
                }
                // Accept and rescale towards the target (second-order LTE).
                let ratio = (a.error_target / err.max(1e-30)).sqrt().clamp(0.3, 2.0);
                dt = (dt_taken * ratio).clamp(a.dt_min, a.dt_max);
            }
        }

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

        history = Some((t, std::mem::replace(&mut x, x_next)));
        t = t_next;
        step += 1;
        record(&x, t, &mut times, &mut voltages, &mut currents);
    }

    Ok(TransientResult {
        times,
        voltages,
        currents,
        branch_index: layout.branch_index,
        n_nodes: layout.n_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use rlckit_numeric::stats::max_nan;
    use crate::waveform::Waveform;

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
    fn trapezoidal_beats_backward_euler_on_energy() {
        // BE damps the ringing; trapezoidal preserves it. Compare the
        // second overshoot amplitude.
        let build = || {
            let mut ckt = Circuit::new();
            let inp = ckt.add_node("in");
            let mid = ckt.add_node("mid");
            let out = ckt.add_node("out");
            ckt.voltage_source(inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-13));
            ckt.resistor(inp, mid, 1.0);
            ckt.inductor(mid, out, 1e-9);
            ckt.capacitor(out, Circuit::GROUND, 1e-12);
            (ckt, out)
        };
        let late_peak = |method: Method| {
            let (ckt, out) = build();
            let res = simulate(
                &ckt,
                &TransientOptions::new(3e-9, 2e-12).with_method(method),
            )
            .unwrap();
            let v = res.voltage(out);
            let start = v.len() * 2 / 3;
            v[start..].iter().fold(0.0f64, |m, &x| max_nan(m, x))
        };
        let trap = late_peak(Method::Trapezoidal);
        let be = late_peak(Method::BackwardEuler);
        assert!(
            trap > be + 0.05,
            "trapezoidal {trap} should ring more than BE {be}"
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
    fn adaptive_stepping_matches_fixed_stepping() {
        // Same RC charge curve, fixed vs adaptive: identical physics.
        let build = || {
            let mut ckt = Circuit::new();
            let inp = ckt.add_node("in");
            let out = ckt.add_node("out");
            ckt.voltage_source(inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
            ckt.resistor(inp, out, 1e3);
            ckt.capacitor(out, Circuit::GROUND, 1e-12);
            (ckt, out)
        };
        let (ckt, out) = build();
        let fixed = simulate(&ckt, &TransientOptions::new(5e-9, 2e-12)).unwrap();
        let (ckt, out2) = build();
        let adaptive = simulate(
            &ckt,
            &TransientOptions::new(5e-9, 2e-12).with_adaptive(AdaptiveOptions::around(2e-12)),
        )
        .unwrap();
        // Compare at the adaptive sample times by interpolating the fixed run.
        let interp = |times: &[f64], vals: &[f64], t: f64| {
            let i = times.partition_point(|&x| x < t).clamp(1, times.len() - 1);
            let (t0, t1) = (times[i - 1], times[i]);
            let (v0, v1) = (vals[i - 1], vals[i]);
            v0 + (v1 - v0) * (t - t0) / (t1 - t0).max(1e-30)
        };
        for (i, &t) in adaptive.times().iter().enumerate().skip(3) {
            let v_a = adaptive.voltage(out2)[i];
            let v_f = interp(fixed.times(), fixed.voltage(out), t);
            assert!((v_a - v_f).abs() < 5e-3, "t={t:e}: {v_a} vs {v_f}");
        }
    }

    #[test]
    fn adaptive_takes_fewer_steps_on_quiet_waveforms() {
        // A charge curve that settles quickly: the controller should
        // stretch the step well beyond the nominal once quiet.
        let mut ckt = Circuit::new();
        let inp = ckt.add_node("in");
        let out = ckt.add_node("out");
        ckt.voltage_source(inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
        ckt.resistor(inp, out, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 1e-13); // τ = 0.1 ns
        let nominal = TransientOptions::new(20e-9, 5e-12);
        let fixed = simulate(&ckt, &nominal).unwrap();
        let adaptive = simulate(
            &ckt,
            &nominal.clone().with_adaptive(AdaptiveOptions::around(5e-12)),
        )
        .unwrap();
        assert!(
            adaptive.times().len() * 2 < fixed.times().len(),
            "adaptive {} vs fixed {} samples",
            adaptive.times().len(),
            fixed.times().len()
        );
        let v_end = *adaptive.voltage(out).last().unwrap();
        assert!((v_end - 1.0).abs() < 1e-3);
    }

    #[test]
    fn adaptive_resolves_ringing_accurately() {
        // The RLC ring: adaptive must keep the overshoot and period.
        let mut ckt = Circuit::new();
        let inp = ckt.add_node("in");
        let mid = ckt.add_node("mid");
        let out = ckt.add_node("out");
        ckt.voltage_source(inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-13));
        ckt.resistor(inp, mid, 1.0);
        ckt.inductor(mid, out, 1e-9);
        ckt.capacitor(out, Circuit::GROUND, 1e-12);
        let res = simulate(
            &ckt,
            &TransientOptions::new(2e-9, 1e-12).with_adaptive(AdaptiveOptions {
                error_target: 2e-3,
                dt_min: 0.05e-12,
                dt_max: 10e-12,
            }),
        )
        .unwrap();
        let peak = res.voltage(out).iter().fold(0.0f64, |m, &x| max_nan(m, x));
        assert!(peak > 1.8, "lost the overshoot: {peak}");
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
