//! The exact step response, numerically inverted — the oracle.
//!
//! The paper calls the time-domain inversion of the exact `H(s)/s`
//! "analytically intractable" and reduces to two poles. Numerically it is
//! perfectly tractable: all singularities of the passive structure lie in
//! the open left half-plane, so the Abate–Whitt Euler inversion converges.
//! Every reduced model in this workspace (two-pole, higher-order AWE) is
//! validated against this module.

use rlckit_numeric::ilt::EulerInversion;
use rlckit_numeric::roots::{brent, RootOptions};
use rlckit_numeric::{NumericError, Result};
use rlckit_units::Seconds;

use crate::dil::DriverInterconnectLoad;

/// Number of scan points used to bracket the first threshold crossing.
const SCAN_POINTS: usize = 600;
/// Scan horizon in units of the Elmore delay `b₁`.
const SCAN_HORIZON: f64 = 12.0;

/// Evaluates the exact normalized step response `v(t)/V₀` at `t`.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for `t ≤ 0` or if the transform
/// misbehaves numerically (does not happen for passive configurations).
///
/// # Examples
///
/// ```
/// use rlckit_tline::{dil::DriverInterconnectLoad, exact, line::LineRlc};
/// use rlckit_units::*;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let line = LineRlc::new(
///     OhmsPerMeter::from_ohm_per_milli(4.4),
///     HenriesPerMeter::from_nano_per_milli(1.0),
///     FaradsPerMeter::from_pico(203.5),
/// );
/// let dil = DriverInterconnectLoad::new(
///     Ohms::new(20.0),
///     Farads::from_femto(3611.0),
///     line,
///     Meters::from_milli(14.4),
///     Farads::from_femto(943.0),
/// );
/// // Settles to 1 long after the Elmore delay.
/// let late = exact::step_response_at(&dil, Seconds::new(20.0 * dil.b1()))?;
/// assert!((late - 1.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn step_response_at(dil: &DriverInterconnectLoad, t: Seconds) -> Result<f64> {
    let euler = EulerInversion::default();
    euler.invert(|s| dil.step_transform(s), t.get())
}

/// Samples the exact normalized step response on a time grid.
///
/// # Errors
///
/// Propagates the first failure of [`step_response_at`].
pub fn step_response_grid(dil: &DriverInterconnectLoad, times: &[f64]) -> Result<Vec<f64>> {
    let euler = EulerInversion::default();
    euler.invert_grid(|s| dil.step_transform(s), times)
}

/// The exact `f·100 %` delay of the structure: first crossing of `f` by
/// the numerically-inverted exact step response.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] unless `0 < f < 1`, and
/// [`NumericError::InvalidBracket`] if no crossing is found within
/// `12·b₁` (which would indicate a non-passive configuration).
pub fn exact_delay(dil: &DriverInterconnectLoad, f: f64) -> Result<Seconds> {
    if !(0.0 < f && f < 1.0) {
        return Err(NumericError::InvalidInput(format!(
            "delay threshold must lie in (0, 1), got {f}"
        )));
    }
    let euler = EulerInversion::default();
    let b1 = dil.b1();
    let v = |t: f64| euler.invert(|s| dil.step_transform(s), t);

    // Coarse scan for the first crossing.
    let dt = SCAN_HORIZON * b1 / SCAN_POINTS as f64;
    let mut prev_t = dt * 1e-3;
    let mut prev_v = v(prev_t)?;
    for i in 1..=SCAN_POINTS {
        let t = dt * i as f64;
        let vt = v(t)?;
        if prev_v < f && vt >= f {
            let root = brent(
                |t| v(t).unwrap_or(f64::NAN) - f,
                prev_t,
                t,
                RootOptions {
                    x_tol: 1e-12,
                    f_tol: 1e-10,
                    max_iterations: 200,
                },
            )?;
            return Ok(Seconds::new(root.x));
        }
        prev_t = t;
        prev_v = vt;
    }
    Err(NumericError::InvalidBracket {
        lo: 0.0,
        hi: SCAN_HORIZON * b1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineRlc;
    use rlckit_units::{Farads, FaradsPerMeter, HenriesPerMeter, Meters, Ohms, OhmsPerMeter};

    fn dil_250(l_nh_mm: f64) -> DriverInterconnectLoad {
        let k = 578.0;
        DriverInterconnectLoad::new(
            Ohms::new(11_784.0 / k),
            Farads::new(6.2474e-15 * k),
            LineRlc::new(
                OhmsPerMeter::from_ohm_per_milli(4.4),
                HenriesPerMeter::from_nano_per_milli(l_nh_mm),
                FaradsPerMeter::from_pico(203.5),
            ),
            Meters::from_milli(14.4),
            Farads::new(1.6314e-15 * k),
        )
    }

    #[test]
    fn exact_response_starts_at_zero_and_settles_at_one() {
        let dil = dil_250(1.0);
        let early = step_response_at(&dil, Seconds::new(1e-4 * dil.b1())).unwrap();
        assert!(early.abs() < 1e-2, "early = {early}");
        let late = step_response_at(&dil, Seconds::new(30.0 * dil.b1())).unwrap();
        assert!((late - 1.0).abs() < 1e-4, "late = {late}");
    }

    #[test]
    fn two_pole_delay_tracks_exact_delay_in_rc_regime() {
        // With no inductance the structure is heavily overdamped and the
        // two-pole 50 % delay should be within a few percent of exact.
        let dil = dil_250(0.0);
        let exact = exact_delay(&dil, 0.5).unwrap().get();
        let two_pole = dil.two_pole().delay(0.5).unwrap().get();
        let err = (two_pole - exact).abs() / exact;
        assert!(err < 0.05, "two-pole off by {:.1}%", err * 100.0);
    }

    #[test]
    fn two_pole_delay_tracks_exact_delay_with_inductance() {
        // Near and beyond critical damping the two-pole model remains a
        // usable delay predictor (that is the paper's premise); allow a
        // slightly larger band.
        for l in [1.0, 2.5, 4.5] {
            let dil = dil_250(l);
            let exact = exact_delay(&dil, 0.5).unwrap().get();
            let two_pole = dil.two_pole().delay(0.5).unwrap().get();
            let err = (two_pole - exact).abs() / exact;
            assert!(err < 0.15, "l={l}: two-pole off by {:.1}%", err * 100.0);
        }
    }

    #[test]
    fn exact_delay_increases_with_inductance() {
        let d0 = exact_delay(&dil_250(0.0), 0.5).unwrap().get();
        let d4 = exact_delay(&dil_250(4.0), 0.5).unwrap().get();
        assert!(d4 > d0);
    }

    #[test]
    fn grid_sampling_is_monotone_before_first_peak() {
        let dil = dil_250(2.0);
        let b1 = dil.b1();
        let times: Vec<f64> = (1..=40).map(|i| i as f64 * 0.05 * b1).collect();
        let vs = step_response_grid(&dil, &times).unwrap();
        // Find the first peak; the response must rise monotonically there.
        let mut rising = true;
        for w in vs.windows(2) {
            if w[1] < w[0] {
                rising = false;
            }
            if rising {
                assert!(w[1] >= w[0] - 1e-9);
            }
        }
    }

    #[test]
    fn euler_and_talbot_agree_on_overdamped_configs() {
        // Two unrelated inversion algorithms as mutual checks (Talbot
        // degrades on strong oscillation, so compare where both apply).
        use rlckit_numeric::ilt::TalbotInversion;
        let dil = dil_250(0.0);
        let talbot = TalbotInversion::new(48);
        for frac in [0.5, 1.0, 3.0] {
            let t = frac * dil.b1();
            let via_euler = step_response_at(&dil, Seconds::new(t)).unwrap();
            let via_talbot = talbot.invert(|s| dil.step_transform(s), t).unwrap();
            assert!(
                (via_euler - via_talbot).abs() < 1e-5,
                "t={frac}·b1: euler {via_euler} vs talbot {via_talbot}"
            );
        }
    }

    #[test]
    fn threshold_validation() {
        let dil = dil_250(1.0);
        assert!(exact_delay(&dil, 0.0).is_err());
        assert!(exact_delay(&dil, 1.0).is_err());
    }
}
