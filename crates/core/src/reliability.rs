//! Reliability study (paper §3.3.2, Fig. 12): interconnect current
//! densities versus line inductance.
//!
//! The paper's reference \[28\] ties interconnect lifetime (Joule heating,
//! electromigration) to the peak and rms current densities. Fig. 12
//! shows both stay essentially flat as the line inductance varies — the
//! one quantity inductance does *not* endanger. We reproduce the
//! experiment by probing the first-section line current of the ring
//! oscillator and normalizing by the wire cross-section.

use rlckit_numeric::Result;
use rlckit_par::{par_map, Parallelism};
use rlckit_spice::builders::ring_oscillator;
use rlckit_spice::measure::peak_and_rms;
use rlckit_spice::transient::{simulate, TransientOptions};
use rlckit_tech::TechNode;
use rlckit_units::HenriesPerMeter;

use crate::elmore::rc_optimum;
use crate::failure::RingOscillatorOptions;

/// Analytic gate-overshoot stress at one line inductance: the two-pole
/// peak input voltage of an optimally-RC-buffered segment, as a fraction
/// of the supply. Values above 1 stress the receiving gate oxide — the
/// paper's §3.3.2 concern, evaluated here without a transient run.
///
/// Returns 1.0 for configurations that are not underdamped (no
/// overshoot).
///
/// # Examples
///
/// ```
/// use rlckit::reliability::gate_overshoot_stress;
/// use rlckit_tech::TechNode;
/// use rlckit_units::HenriesPerMeter;
///
/// let node = TechNode::nm100();
/// let stress = gate_overshoot_stress(&node, HenriesPerMeter::from_nano_per_milli(2.2));
/// assert!(stress > 1.0); // input exceeds VDD — oxide stress
/// ```
#[must_use]
pub fn gate_overshoot_stress(node: &TechNode, inductance: HenriesPerMeter) -> f64 {
    let rc = rc_optimum(&node.line(), &node.driver());
    let line = rlckit_tline::LineRlc::new(
        node.line().resistance,
        inductance,
        node.line().capacitance,
    );
    let two_pole = crate::optimizer::segment_structure(
        &line,
        &node.driver(),
        rc.segment_length,
        rc.repeater_size,
    )
    .two_pole();
    two_pole.overshoot().map_or(1.0, |(_, peak)| peak)
}

/// Current-density measurement at one line inductance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentDensityPoint {
    /// Line inductance.
    pub inductance: HenriesPerMeter,
    /// Peak line current, A.
    pub peak_current: f64,
    /// rms line current over the steady-state window, A.
    pub rms_current: f64,
    /// Peak current density, A/cm².
    pub peak_density: f64,
    /// rms current density, A/cm².
    pub rms_density: f64,
}

/// Measures the interconnect peak/rms current density in the paper's
/// ring oscillator at one line inductance.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn current_density(
    node: &TechNode,
    inductance: HenriesPerMeter,
    options: &RingOscillatorOptions,
) -> Result<CurrentDensityPoint> {
    let rc = rc_optimum(&node.line(), &node.driver());
    let ro = ring_oscillator(
        node,
        inductance.get(),
        rc.repeater_size,
        rc.segment_length,
        options.stages,
        options.segments,
    );
    let period0 = 2.0 * options.stages as f64 * rc.segment_delay.get();
    let t_stop = options.periods * period0;
    let dt = period0 / options.steps_per_period as f64;
    let topts = TransientOptions::new(t_stop, dt)
        .with_initial_voltage(ro.stage_inputs[0], 0.0);
    let result = simulate(&ro.circuit, &topts)?;
    let current = result
        .branch_current(ro.line_probes[2])
        .expect("ladder sections carry branch currents");
    // Steady-state window: the trailing half of the run.
    let (peak, rms) = peak_and_rms(result.times(), current, 0.5);
    let area_cm2 = node.wire().cross_section_area() * 1e4; // m² → cm²
    Ok(CurrentDensityPoint {
        inductance,
        peak_current: peak,
        rms_current: rms,
        peak_density: peak / area_cm2,
        rms_density: rms / area_cm2,
    })
}

/// The full Fig. 12 series, one ring simulation per inductance on
/// [`par_map`] workers (results in input order, bit-identical to a
/// serial loop).
///
/// # Errors
///
/// Propagates the earliest simulator failure.
pub fn current_density_vs_inductance(
    node: &TechNode,
    inductances: impl IntoIterator<Item = HenriesPerMeter>,
    options: &RingOscillatorOptions,
) -> Result<Vec<CurrentDensityPoint>> {
    let inductances: Vec<HenriesPerMeter> = inductances.into_iter().collect();
    par_map(&inductances, Parallelism::Auto, |_, &l| {
        current_density(node, l, options)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> RingOscillatorOptions {
        RingOscillatorOptions {
            stages: 5,
            segments: 4,
            periods: 5.0,
            steps_per_period: 250,
        }
    }

    #[test]
    fn gate_stress_grows_with_inductance_and_scaling() {
        let n100 = TechNode::nm100();
        let n250 = TechNode::nm250();
        let at = |node: &TechNode, l: f64| {
            gate_overshoot_stress(node, HenriesPerMeter::from_nano_per_milli(l))
        };
        // No stress without inductance.
        assert_eq!(at(&n100, 0.0), 1.0);
        // Grows with l.
        assert!(at(&n100, 2.2) > at(&n100, 1.0));
        // The scaled node is stressed harder at equal l (its segment is
        // deeper into the underdamped regime).
        assert!(at(&n100, 2.2) > at(&n250, 2.2));
    }

    #[test]
    fn current_density_is_physical() {
        let node = TechNode::nm100();
        let p = current_density(&node, HenriesPerMeter::from_nano_per_milli(1.0), &fast())
            .unwrap();
        assert!(p.peak_current > 0.0);
        assert!(p.rms_current > 0.0);
        assert!(p.peak_current >= p.rms_current);
        // Global-wire densities live around 1e5–1e8 A/cm² in this regime.
        assert!(
            p.peak_density > 1e4 && p.peak_density < 1e9,
            "peak density {:.3e}",
            p.peak_density
        );
    }

    #[test]
    fn parallel_series_is_bit_identical_to_a_serial_loop() {
        let node = TechNode::nm100();
        let ls: Vec<HenriesPerMeter> = [0.2, 1.0, 2.0]
            .into_iter()
            .map(HenriesPerMeter::from_nano_per_milli)
            .collect();
        let bits = |p: &CurrentDensityPoint| {
            [
                p.inductance.get(),
                p.peak_current,
                p.rms_current,
                p.peak_density,
                p.rms_density,
            ]
            .map(f64::to_bits)
        };
        let parallel = current_density_vs_inductance(&node, ls.iter().copied(), &fast()).unwrap();
        assert_eq!(parallel.len(), ls.len());
        for (&l, p_par) in ls.iter().zip(&parallel) {
            let serial = current_density(&node, l, &fast()).unwrap();
            assert_eq!(bits(p_par), bits(&serial), "l = {l}");
        }
    }

    #[test]
    fn fig12_densities_do_not_blow_up_with_inductance() {
        // The paper's point: peak and rms do "not change appreciably" with
        // l. Allow a generous factor-3 band across the sweep.
        let node = TechNode::nm100();
        let pts = current_density_vs_inductance(
            &node,
            [0.2, 1.0, 2.0]
                .into_iter()
                .map(HenriesPerMeter::from_nano_per_milli),
            &fast(),
        )
        .unwrap();
        let rms_min = pts.iter().map(|p| p.rms_density).fold(f64::MAX, f64::min);
        let rms_max = pts.iter().map(|p| p.rms_density).fold(0.0f64, f64::max);
        assert!(
            rms_max / rms_min < 3.0,
            "rms density varies {rms_min:.3e} .. {rms_max:.3e}"
        );
    }
}
