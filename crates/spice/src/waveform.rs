//! Independent-source waveforms.

/// The time-dependent value of an independent source.
///
/// # Examples
///
/// ```
/// use rlckit_spice::waveform::Waveform;
///
/// let clk = Waveform::pulse(0.0, 1.2, 0.0, 10e-12, 10e-12, 490e-12, 1e-9);
/// assert_eq!(clk.value(0.0), 0.0);
/// assert!((clk.value(5e-12) - 0.6).abs() < 1e-12); // mid-rise
/// assert_eq!(clk.value(100e-12), 1.2); // flat top
/// assert_eq!(clk.value(1e-9), 0.0); // next period
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// A constant value.
    Dc(f64),
    /// A periodic trapezoidal pulse (SPICE `PULSE`).
    Pulse {
        /// Initial value.
        low: f64,
        /// Pulsed value.
        high: f64,
        /// Delay before the first edge.
        delay: f64,
        /// Rise time.
        rise: f64,
        /// Fall time.
        fall: f64,
        /// Pulse width (time at `high`).
        width: f64,
        /// Period (0 means single-shot).
        period: f64,
    },
    /// Piecewise-linear points `(t, v)`, sorted by time; constant
    /// extrapolation outside the range.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Convenience constructor for [`Waveform::Pulse`].
    ///
    /// # Panics
    ///
    /// Panics if `rise`, `fall` or `width` is negative, or if a nonzero
    /// `period` is shorter than `rise + width + fall`.
    #[must_use]
    pub fn pulse(
        low: f64,
        high: f64,
        delay: f64,
        rise: f64,
        fall: f64,
        width: f64,
        period: f64,
    ) -> Self {
        assert!(
            rise >= 0.0 && fall >= 0.0 && width >= 0.0,
            "negative timing"
        );
        assert!(
            period == 0.0 || period >= rise + width + fall,
            "period shorter than the pulse itself"
        );
        Self::Pulse {
            low,
            high,
            delay,
            rise,
            fall,
            width,
            period,
        }
    }

    /// A step from `low` to `high` at `delay` with the given rise time.
    #[must_use]
    pub fn step(low: f64, high: f64, delay: f64, rise: f64) -> Self {
        Self::Pwl(vec![(delay, low), (delay + rise.max(1e-18), high)])
    }

    /// The source value at time `t` (clamped to 0 for negative `t` by the
    /// waveform's own definition).
    #[must_use]
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Self::Dc(v) => *v,
            Self::Pulse {
                low,
                high,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                let mut tau = t - delay;
                if tau < 0.0 {
                    return *low;
                }
                if *period > 0.0 {
                    tau %= period;
                }
                if tau < *rise {
                    if *rise == 0.0 {
                        *high
                    } else {
                        low + (high - low) * tau / rise
                    }
                } else if tau < rise + width {
                    *high
                } else if tau < rise + width + fall {
                    if *fall == 0.0 {
                        *low
                    } else {
                        high - (high - low) * (tau - rise - width) / fall
                    }
                } else {
                    *low
                }
            }
            Self::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for pair in points.windows(2) {
                    let (t0, v0) = pair[0];
                    let (t1, v1) = pair[1];
                    if t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().expect("nonempty").1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(2.5);
        assert_eq!(w.value(0.0), 2.5);
        assert_eq!(w.value(1e9), 2.5);
    }

    #[test]
    fn pulse_shape() {
        let w = Waveform::pulse(0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 0.0);
        assert_eq!(w.value(0.5), 0.0); // before delay
        assert!((w.value(1.25) - 0.5).abs() < 1e-12); // mid rise
        assert_eq!(w.value(2.0), 1.0); // flat top
        assert!((w.value(3.75) - 0.5).abs() < 1e-12); // mid fall
        assert_eq!(w.value(5.0), 0.0); // after fall (single-shot)
    }

    #[test]
    fn pulse_is_periodic() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 0.1, 0.1, 0.3, 1.0);
        for k in 0..4 {
            let t0 = k as f64;
            assert!((w.value(t0 + 0.2) - 1.0).abs() < 1e-12);
            assert_eq!(w.value(t0 + 0.9), 0.0);
        }
    }

    #[test]
    fn zero_rise_time_is_a_hard_edge() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 0.0, 0.0, 0.5, 0.0);
        assert_eq!(w.value(0.0), 1.0);
        assert_eq!(w.value(0.49), 1.0);
        assert_eq!(w.value(0.51), 0.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(1.0, 0.0), (2.0, 2.0), (3.0, -1.0)]);
        assert_eq!(w.value(0.0), 0.0);
        assert!((w.value(1.5) - 1.0).abs() < 1e-12);
        assert!((w.value(2.5) - 0.5).abs() < 1e-12);
        assert_eq!(w.value(10.0), -1.0);
    }

    #[test]
    fn step_constructor() {
        let w = Waveform::step(0.0, 1.2, 1e-9, 10e-12);
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(2e-9), 1.2);
    }

    #[test]
    #[should_panic(expected = "period shorter")]
    fn inconsistent_pulse_rejected() {
        let _ = Waveform::pulse(0.0, 1.0, 0.0, 0.3, 0.3, 0.5, 1.0);
    }
}
