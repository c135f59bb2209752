//! Logic-failure study (paper §3.3.1, Figs. 9–11).
//!
//! A five-stage ring oscillator in which every stage drives an
//! `h_optRC`-long line with a `k_optRC`-sized inverter. As the line
//! inductance grows, the undershoot at each inverter input eventually
//! crosses the switching threshold, injecting extra edges: the observed
//! oscillation period collapses to less than half. The experiments here
//! run on the in-workspace circuit simulator.

use rlckit_numeric::Result;
use rlckit_par::{par_map, Parallelism};
use rlckit_spice::builders::{buffered_line, ring_oscillator};
use rlckit_spice::measure::{self, Edge};
use rlckit_spice::transient::{simulate, TransientOptions};
use rlckit_tech::TechNode;
use rlckit_units::{HenriesPerMeter, Seconds};

use crate::elmore::rc_optimum;

/// Simulation fidelity knobs for the ring-oscillator experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingOscillatorOptions {
    /// Stage count (odd, ≥ 3). The paper uses 5.
    pub stages: usize,
    /// RLC ladder sections per line.
    pub segments: usize,
    /// Oscillation periods (at the `l = 0` estimate) to simulate.
    pub periods: f64,
    /// Time steps per `l = 0` period.
    pub steps_per_period: usize,
}

impl Default for RingOscillatorOptions {
    fn default() -> Self {
        Self {
            stages: 5,
            segments: 8,
            periods: 11.0,
            steps_per_period: 600,
        }
    }
}

/// A simulated ring-oscillator waveform pair (paper Figs. 9 and 10):
/// the voltage at an inverter's input and at its output.
#[derive(Debug, Clone, PartialEq)]
pub struct RingWaveforms {
    /// Sample times, s.
    pub times: Vec<f64>,
    /// Inverter input voltage (the far end of the previous line), V.
    pub input: Vec<f64>,
    /// Inverter output voltage, V.
    pub output: Vec<f64>,
}

impl RingWaveforms {
    /// Peak input voltage above the supply (gate-oxide overshoot of
    /// §3.3.2).
    #[must_use]
    pub fn input_overshoot(&self, vdd: f64) -> f64 {
        measure::overshoot_above(&self.input, vdd)
    }

    /// Peak input voltage below ground.
    #[must_use]
    pub fn input_undershoot(&self) -> f64 {
        measure::undershoot_below(&self.input, 0.0)
    }
}

fn transient_options(node: &TechNode, options: &RingOscillatorOptions) -> (TransientOptions, f64) {
    let rc = rc_optimum(&node.line(), &node.driver());
    // Clean-period estimate: 2·N·τ per revolution.
    let period0 = 2.0 * options.stages as f64 * rc.segment_delay.get();
    let t_stop = options.periods * period0;
    let dt = period0 / options.steps_per_period as f64;
    (TransientOptions::new(t_stop, dt), period0)
}

/// Simulates the paper's ring oscillator at one line inductance and
/// returns the waveform pair at stage 2 (Figs. 9–10).
///
/// # Errors
///
/// Propagates simulator failures (Newton non-convergence).
pub fn ring_waveforms(
    node: &TechNode,
    inductance: HenriesPerMeter,
    options: &RingOscillatorOptions,
) -> Result<RingWaveforms> {
    let rc = rc_optimum(&node.line(), &node.driver());
    let ro = ring_oscillator(
        node,
        inductance.get(),
        rc.repeater_size,
        rc.segment_length,
        options.stages,
        options.segments,
    );
    let (topts, _) = transient_options(node, options);
    let topts = topts.with_initial_voltage(ro.stage_inputs[0], 0.0);
    let result = simulate(&ro.circuit, &topts)?;
    Ok(RingWaveforms {
        times: result.times().to_vec(),
        input: result.voltage(ro.stage_inputs[2]).to_vec(),
        output: result.voltage(ro.stage_outputs[2]).to_vec(),
    })
}

/// Measures the oscillation period at one line inductance (one point of
/// Fig. 11). Returns `None` if no stable oscillation was detected.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn ring_period(
    node: &TechNode,
    inductance: HenriesPerMeter,
    options: &RingOscillatorOptions,
) -> Result<Option<Seconds>> {
    let w = ring_waveforms(node, inductance, options)?;
    let vdd = node.supply_voltage().get();
    Ok(
        measure::oscillation_period(&w.times, &w.input, vdd / 2.0, 0.6)
            .map(Seconds::new),
    )
}

/// The full Fig. 11 series: oscillation period versus line inductance,
/// one ring simulation per inductance on [`par_map`] workers (results
/// in input order, bit-identical to a serial loop).
///
/// # Errors
///
/// Propagates the earliest simulator failure.
pub fn period_vs_inductance(
    node: &TechNode,
    inductances: impl IntoIterator<Item = HenriesPerMeter>,
    options: &RingOscillatorOptions,
) -> Result<Vec<(HenriesPerMeter, Option<Seconds>)>> {
    let inductances: Vec<HenriesPerMeter> = inductances.into_iter().collect();
    par_map(&inductances, Parallelism::Auto, |_, &l| {
        Ok((l, ring_period(node, l, options)?))
    })
}

/// Detects the false-switching onset: the first swept inductance whose
/// period drops below `collapse_fraction` of the running maximum of the
/// clean periods before it.
#[must_use]
pub fn failure_onset(
    series: &[(HenriesPerMeter, Option<Seconds>)],
    collapse_fraction: f64,
) -> Option<HenriesPerMeter> {
    let mut clean_max = 0.0f64;
    for (l, period) in series {
        let Some(p) = period else { continue };
        if clean_max > 0.0 && p.get() < collapse_fraction * clean_max {
            return Some(*l);
        }
        clean_max = clean_max.max(p.get());
    }
    None
}

/// Result of the buffered-line cross-check (§3.3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferedLineCheck {
    /// Rising mid-rail crossings at the final tap per source edge
    /// (> 1 indicates injected extra edges).
    pub edge_ratio: f64,
    /// Peak-to-peak voltage at the final tap divided by the supply
    /// (≈ 1 for a clean chain; ≫ 1 once inductive ringing dominates).
    pub swing_ratio: f64,
}

/// The buffered-line cross-check of §3.3.1: a square-wave-driven chain
/// of repeaters corrupts the same way the ring oscillator does — the
/// receiving-gate waveforms blow far past the rails and mid-rail
/// crossing counts drift from the source's — proving the failure is not
/// a ring-oscillator artifact.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn buffered_line_check(
    node: &TechNode,
    inductance: HenriesPerMeter,
    options: &RingOscillatorOptions,
) -> Result<BufferedLineCheck> {
    let rc = rc_optimum(&node.line(), &node.driver());
    // Drive with the cadence of the equivalent ring oscillator: a half
    // period per traversal, the regime the paper compares against.
    let period = 2.0 * options.stages as f64 * rc.segment_delay.get();
    let bl = buffered_line(
        node,
        inductance.get(),
        rc.repeater_size,
        rc.segment_length,
        options.stages,
        options.segments,
        period,
    );
    let t_stop = options.periods * period;
    let dt = period / options.steps_per_period as f64;
    let result = simulate(&bl.circuit, &TransientOptions::new(t_stop, dt))?;
    let vdd = node.supply_voltage().get();
    let source_edges = measure::crossings(
        result.times(),
        result.voltage(bl.source),
        vdd / 2.0,
        Edge::Rising,
    )
    .len();
    let tap = *bl.taps.last().expect("chain has taps");
    let tap_edges =
        measure::crossings(result.times(), result.voltage(tap), vdd / 2.0, Edge::Rising).len();
    let v_tap = result.voltage(tap);
    let v_max = v_tap.iter().copied().fold(f64::MIN, f64::max);
    let v_min = v_tap.iter().copied().fold(f64::MAX, f64::min);
    let edge_ratio = if source_edges == 0 {
        0.0
    } else {
        tap_edges as f64 / source_edges as f64
    };
    Ok(BufferedLineCheck {
        edge_ratio,
        swing_ratio: (v_max - v_min) / vdd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cheap options keeping debug-mode test times reasonable.
    fn fast() -> RingOscillatorOptions {
        RingOscillatorOptions {
            stages: 5,
            segments: 4,
            periods: 5.0,
            steps_per_period: 250,
        }
    }

    #[test]
    fn clean_ring_oscillates_near_the_table1_prediction() {
        let node = TechNode::nm100();
        let p = ring_period(&node, HenriesPerMeter::ZERO, &fast())
            .unwrap()
            .expect("oscillation");
        // 2·N·τ_optRC = 1.059 ns; device nonlinearity shifts it some.
        let predicted = 2.0 * 5.0 * 105.94e-12;
        assert!(
            (p.get() / predicted - 1.0).abs() < 0.3,
            "period {} vs predicted {predicted:e}",
            p
        );
    }

    #[test]
    fn inductance_ringing_appears_at_the_input() {
        let node = TechNode::nm100();
        let clean = ring_waveforms(&node, HenriesPerMeter::ZERO, &fast()).unwrap();
        let ringing =
            ring_waveforms(&node, HenriesPerMeter::from_nano_per_milli(1.0), &fast()).unwrap();
        let vdd = node.supply_voltage().get();
        assert!(ringing.input_overshoot(vdd) > clean.input_overshoot(vdd) + 0.1);
        assert!(ringing.input_undershoot() > clean.input_undershoot() + 0.1);
    }

    #[test]
    fn period_collapse_beyond_onset_100nm() {
        let node = TechNode::nm100();
        // At l = 0.9 the clean period is ~1.6× the l = 0 estimate, so give
        // the run enough revolutions for the period detector.
        let options = RingOscillatorOptions {
            periods: 10.0,
            ..fast()
        };
        let series = period_vs_inductance(
            &node,
            [0.0, 0.9, 2.4]
                .into_iter()
                .map(HenriesPerMeter::from_nano_per_milli),
            &options,
        )
        .unwrap();
        let p_clean = series[1].1.expect("clean oscillation at 0.9");
        let p_fail = series[2].1.expect("oscillation at 2.4");
        assert!(
            p_fail.get() < 0.6 * p_clean.get(),
            "no collapse: {} vs {}",
            p_fail,
            p_clean
        );
        let onset = failure_onset(&series, 0.6).expect("onset detected");
        assert!((onset.to_nano_per_milli() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn buffered_line_corruption_grows_with_inductance() {
        let node = TechNode::nm100();
        let clean = buffered_line_check(
            &node,
            HenriesPerMeter::from_nano_per_milli(0.3),
            &fast(),
        )
        .unwrap();
        let failing = buffered_line_check(
            &node,
            HenriesPerMeter::from_nano_per_milli(2.2),
            &fast(),
        )
        .unwrap();
        assert!(clean.swing_ratio < 2.0, "clean swing {}", clean.swing_ratio);
        assert!(
            failing.swing_ratio > clean.swing_ratio + 0.5,
            "failing swing {} vs clean {}",
            failing.swing_ratio,
            clean.swing_ratio
        );
    }

    #[test]
    fn parallel_series_is_bit_identical_to_a_serial_loop() {
        let node = TechNode::nm100();
        let ls: Vec<HenriesPerMeter> = [0.0, 1.2, 2.4]
            .into_iter()
            .map(HenriesPerMeter::from_nano_per_milli)
            .collect();
        let bits = |p: Option<Seconds>| p.map(|p| p.get().to_bits());
        let parallel = period_vs_inductance(&node, ls.iter().copied(), &fast()).unwrap();
        assert_eq!(parallel.len(), ls.len());
        for (&l, &(l_par, p_par)) in ls.iter().zip(&parallel) {
            let serial = ring_period(&node, l, &fast()).unwrap();
            assert_eq!(l_par, l);
            assert_eq!(bits(p_par), bits(serial), "l = {l}");
        }
    }

    #[test]
    fn onset_detection_ignores_missing_points() {
        let series = vec![
            (HenriesPerMeter::ZERO, Some(Seconds::from_pico(1000.0))),
            (HenriesPerMeter::from_nano_per_milli(1.0), None),
            (
                HenriesPerMeter::from_nano_per_milli(2.0),
                Some(Seconds::from_pico(400.0)),
            ),
        ];
        let onset = failure_onset(&series, 0.6).unwrap();
        assert!((onset.to_nano_per_milli() - 2.0).abs() < 1e-12);
        assert!(failure_onset(&series[..2], 0.6).is_none());
    }
}
