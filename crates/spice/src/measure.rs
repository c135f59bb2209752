//! Waveform post-processing: crossings, delays, periods, extrema,
//! current statistics.

use rlckit_numeric::stats;

/// Edge direction for threshold crossings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Crossing upwards through the threshold.
    Rising,
    /// Crossing downwards through the threshold.
    Falling,
}

/// Finds all times where `values` crosses `threshold` in the given
/// direction, linearly interpolated between samples.
///
/// # Panics
///
/// Panics if `times` and `values` have different lengths.
///
/// # Examples
///
/// ```
/// use rlckit_spice::measure::{crossings, Edge};
///
/// let times = [0.0, 1.0, 2.0, 3.0];
/// let values = [0.0, 1.0, 0.0, 1.0];
/// let rising = crossings(&times, &values, 0.5, Edge::Rising);
/// assert_eq!(rising.len(), 2);
/// assert!((rising[0] - 0.5).abs() < 1e-12);
/// assert!((rising[1] - 2.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn crossings(times: &[f64], values: &[f64], threshold: f64, edge: Edge) -> Vec<f64> {
    assert_eq!(times.len(), values.len(), "length mismatch");
    let mut found = Vec::new();
    for i in 1..values.len() {
        let (v0, v1) = (values[i - 1], values[i]);
        let hit = match edge {
            Edge::Rising => v0 < threshold && v1 >= threshold,
            Edge::Falling => v0 > threshold && v1 <= threshold,
        };
        if hit {
            let frac = if v1 == v0 {
                0.0
            } else {
                (threshold - v0) / (v1 - v0)
            };
            found.push(times[i - 1] + frac * (times[i] - times[i - 1]));
        }
    }
    found
}

/// 50 %-style delay between an input and an output waveform: time from
/// the input's first crossing of `threshold` to the output's first
/// crossing of `threshold` *after* the input event.
///
/// Returns `None` if either crossing is missing.
#[must_use]
pub fn delay_between(
    times: &[f64],
    input: &[f64],
    output: &[f64],
    threshold: f64,
    input_edge: Edge,
    output_edge: Edge,
) -> Option<f64> {
    let t_in = *crossings(times, input, threshold, input_edge).first()?;
    crossings(times, output, threshold, output_edge)
        .into_iter()
        .find(|&t| t > t_in)
        .map(|t_out| t_out - t_in)
}

/// Oscillation period: the mean spacing of rising crossings of
/// `threshold` within the trailing `window_fraction` of the record
/// (letting the startup transient die first).
///
/// Returns `None` with fewer than three usable crossings.
///
/// # Panics
///
/// Panics unless `0 < window_fraction <= 1`.
#[must_use]
pub fn oscillation_period(
    times: &[f64],
    values: &[f64],
    threshold: f64,
    window_fraction: f64,
) -> Option<f64> {
    assert!(
        window_fraction > 0.0 && window_fraction <= 1.0,
        "window fraction must lie in (0, 1]"
    );
    let t_end = *times.last()?;
    let t_start = t_end - window_fraction * (t_end - times[0]);
    let all = crossings(times, values, threshold, Edge::Rising);
    let windowed: Vec<f64> = all.into_iter().filter(|&t| t >= t_start).collect();
    if windowed.len() < 3 {
        return None;
    }
    let spans: Vec<f64> = windowed.windows(2).map(|w| w[1] - w[0]).collect();
    Some(spans.iter().sum::<f64>() / spans.len() as f64)
}

/// Maximum excursion above `reference` within the record (0 if none);
/// NaN if any sample is NaN, so a diverged record never passes for a
/// clean one.
#[must_use]
pub fn overshoot_above(values: &[f64], reference: f64) -> f64 {
    values
        .iter()
        .fold(0.0f64, |m, &v| stats::max_nan(m, v - reference))
}

/// Maximum excursion below `reference` within the record (0 if none);
/// NaN if any sample is NaN.
#[must_use]
pub fn undershoot_below(values: &[f64], reference: f64) -> f64 {
    values
        .iter()
        .fold(0.0f64, |m, &v| stats::max_nan(m, reference - v))
}

/// Peak and time-weighted rms of a current record over the trailing
/// `window_fraction` of the run — the reliability metrics of Fig. 12.
///
/// Returns `(peak, rms)`; both 0 for records shorter than two samples.
///
/// # Panics
///
/// Panics if `times` and `values` lengths differ or the window fraction
/// is outside `(0, 1]`.
#[must_use]
pub fn peak_and_rms(times: &[f64], values: &[f64], window_fraction: f64) -> (f64, f64) {
    assert_eq!(times.len(), values.len(), "length mismatch");
    assert!(
        window_fraction > 0.0 && window_fraction <= 1.0,
        "window fraction must lie in (0, 1]"
    );
    if times.len() < 2 {
        return (0.0, 0.0);
    }
    let t_end = times[times.len() - 1];
    let t_start = t_end - window_fraction * (t_end - times[0]);
    let begin = times.partition_point(|&t| t < t_start);
    let begin = begin.min(times.len().saturating_sub(2));
    let t_win = &times[begin..];
    let v_win = &values[begin..];
    (stats::peak_abs(v_win), stats::trapezoid_rms(t_win, v_win))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(period: f64, n: usize, cycles: f64) -> (Vec<f64>, Vec<f64>) {
        let t_end = period * cycles;
        let times: Vec<f64> = (0..=n).map(|i| t_end * i as f64 / n as f64).collect();
        let values = times
            .iter()
            .map(|&t| (2.0 * std::f64::consts::PI * t / period).sin())
            .collect();
        (times, values)
    }

    #[test]
    fn crossing_directions() {
        let (t, v) = sine(1.0, 1000, 2.0);
        let rising = crossings(&t, &v, 0.0, Edge::Rising);
        let falling = crossings(&t, &v, 0.0, Edge::Falling);
        // Two full cycles: rising zero crossings at 1.0 and 2.0 are edge
        // cases; at least one interior one exists, falling at 0.5 and 1.5.
        assert!(!rising.is_empty());
        assert_eq!(falling.len(), 2);
        assert!((falling[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn period_of_a_sine() {
        let (t, v) = sine(2.5e-9, 4000, 8.0);
        let p = oscillation_period(&t, &v, 0.0, 0.6).unwrap();
        assert!((p - 2.5e-9).abs() / 2.5e-9 < 1e-3);
    }

    #[test]
    fn period_requires_enough_crossings() {
        let (t, v) = sine(1.0, 100, 1.0);
        assert!(oscillation_period(&t, &v, 0.0, 0.2).is_none());
    }

    #[test]
    fn delay_between_shifted_steps() {
        let times: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let input: Vec<f64> = times
            .iter()
            .map(|&t| if t >= 10.0 { 1.0 } else { 0.0 })
            .collect();
        let output: Vec<f64> = times
            .iter()
            .map(|&t| if t >= 35.0 { 1.0 } else { 0.0 })
            .collect();
        let d = delay_between(&times, &input, &output, 0.5, Edge::Rising, Edge::Rising).unwrap();
        assert!((d - 25.0).abs() < 1.0);
    }

    #[test]
    fn overshoot_and_undershoot() {
        let v = [0.0, 0.5, 1.3, 0.9, -0.2, 1.0];
        assert!((overshoot_above(&v, 1.0) - 0.3).abs() < 1e-12);
        assert!((undershoot_below(&v, 0.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn excursions_propagate_nan() {
        let v = [0.5, f64::NAN, 1.3, -0.2];
        assert!(overshoot_above(&v, 1.0).is_nan());
        assert!(undershoot_below(&v, 0.0).is_nan());
        assert!(overshoot_above(&[f64::NAN], 1.0).is_nan());
        assert!(undershoot_below(&[f64::NAN], 0.0).is_nan());
    }

    #[test]
    fn peak_and_rms_of_sine_window() {
        let (t, v) = sine(1.0, 10_000, 10.0);
        let (peak, rms) = peak_and_rms(&t, &v, 0.5);
        assert!((peak - 1.0).abs() < 1e-3);
        assert!((rms - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
    }
}
