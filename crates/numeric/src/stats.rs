//! Peak, mean and rms of sampled (possibly non-uniform) waveforms.
//!
//! The reliability analysis of the paper (Fig. 12) needs the peak and rms
//! current through an interconnect over a steady-state oscillation window;
//! the simulator may have taken non-uniform time steps, so the averages
//! here are time-weighted trapezoid integrals.

/// `a.max(b)`, but NaN if either operand is NaN.
///
/// `f64::max` returns the other operand when one is NaN, so a plain
/// `fold(0.0, f64::max)` skips a NaN sample and reports the peak of the
/// rest as if the record were clean. Folding with `max_nan` makes a NaN
/// anywhere in the record the result.
#[must_use]
pub fn max_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Returns the maximum absolute sample value, or 0 for an empty series;
/// NaN if any sample is NaN.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::stats::peak_abs;
///
/// assert_eq!(peak_abs(&[1.0, -3.0, 2.0]), 3.0);
/// assert_eq!(peak_abs(&[]), 0.0);
/// assert!(peak_abs(&[1.0, f64::NAN]).is_nan());
/// ```
#[must_use]
pub fn peak_abs(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0f64, |m, &v| max_nan(m, v.abs()))
}

/// Time-weighted mean of `values(t)` over `[t₀, t_end]` by trapezoid rule.
///
/// Returns 0 for fewer than two samples or a degenerate time span.
///
/// # Panics
///
/// Panics if `times` and `values` have different lengths.
#[must_use]
pub fn trapezoid_mean(times: &[f64], values: &[f64]) -> f64 {
    assert_eq!(times.len(), values.len(), "length mismatch");
    if times.len() < 2 {
        return 0.0;
    }
    let span = times[times.len() - 1] - times[0];
    if span <= 0.0 {
        return 0.0;
    }
    let mut integral = 0.0;
    for i in 1..times.len() {
        let dt = times[i] - times[i - 1];
        integral += 0.5 * (values[i] + values[i - 1]) * dt;
    }
    integral / span
}

/// Time-weighted root-mean-square of `values(t)` by trapezoid rule.
///
/// Returns 0 for fewer than two samples or a degenerate time span.
///
/// # Panics
///
/// Panics if `times` and `values` have different lengths.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::stats::trapezoid_rms;
///
/// // rms of a full-period sine sampled densely approaches 1/√2.
/// let times: Vec<f64> = (0..=1000).map(|i| i as f64 / 1000.0).collect();
/// let values: Vec<f64> = times
///     .iter()
///     .map(|&t| (2.0 * std::f64::consts::PI * t).sin())
///     .collect();
/// let rms = trapezoid_rms(&times, &values);
/// assert!((rms - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-4);
/// ```
#[must_use]
pub fn trapezoid_rms(times: &[f64], values: &[f64]) -> f64 {
    assert_eq!(times.len(), values.len(), "length mismatch");
    if times.len() < 2 {
        return 0.0;
    }
    let span = times[times.len() - 1] - times[0];
    if span <= 0.0 {
        return 0.0;
    }
    let mut integral = 0.0;
    for i in 1..times.len() {
        let dt = times[i] - times[i - 1];
        integral += 0.5 * (values[i] * values[i] + values[i - 1] * values[i - 1]) * dt;
    }
    (integral / span).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_of_constant_series() {
        assert_eq!(peak_abs(&[-2.0, -2.0]), 2.0);
    }

    #[test]
    fn peak_propagates_nan() {
        for v in [[f64::NAN, 1.0], [1.0, f64::NAN], [-5.0, f64::NAN]] {
            assert!(peak_abs(&v).is_nan(), "{v:?}");
        }
        assert_eq!(peak_abs(&[f64::NEG_INFINITY, 1.0]), f64::INFINITY);
        assert!(max_nan(f64::NAN, 1.0).is_nan() && max_nan(1.0, f64::NAN).is_nan());
        assert_eq!(max_nan(-1.0, 2.0), 2.0);
    }

    #[test]
    fn mean_of_linear_ramp() {
        let times = [0.0, 1.0, 2.0];
        let values = [0.0, 1.0, 2.0];
        assert!((trapezoid_mean(&times, &values) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_respects_nonuniform_spacing() {
        // Value 1 for t in [0, 3], value 0 for t in (3, 4]: mean ≈ weighted.
        let times = [0.0, 3.0, 3.0 + 1e-9, 4.0];
        let values = [1.0, 1.0, 0.0, 0.0];
        let m = trapezoid_mean(&times, &values);
        assert!((m - 0.75).abs() < 1e-6);
    }

    #[test]
    fn rms_of_dc_is_its_magnitude() {
        let times = [0.0, 0.5, 1.5, 2.0];
        let values = [-3.0, -3.0, -3.0, -3.0];
        assert!((trapezoid_rms(&times, &values) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_return_zero() {
        assert_eq!(trapezoid_mean(&[1.0], &[5.0]), 0.0);
        assert_eq!(trapezoid_rms(&[], &[]), 0.0);
        assert_eq!(trapezoid_rms(&[1.0, 1.0], &[5.0, 5.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = trapezoid_mean(&[0.0, 1.0], &[1.0]);
    }
}
