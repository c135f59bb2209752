//! The paper's contribution: rigorous RLC repeater-insertion optimization.
//!
//! Minimizes the delay per unit length `τ/h` of a buffered distributed
//! RLC line over segment length `h` and repeater size `k` by solving the
//! stationarity system `g₁ = g₂ = 0` of Eqs. (7)–(8) with a damped
//! Newton iteration:
//!
//! * the moments `b₁`, `b₂` and their `∂/∂h`, `∂/∂k` are analytic;
//! * the pole sensitivities `∂s₁,₂/∂h,k` use the paper's closed form,
//!   carried in complex arithmetic so the same code covers the over- and
//!   under-damped regimes (the residuals are real by conjugate symmetry);
//! * the `f·100 %` delay `τ` inside the residuals is the rigorous Newton
//!   solve of Eq. (3) ([`rlckit_tline::twopole::TwoPole::delay_from`]),
//!   warm-started at the first-order prediction from the previous
//!   evaluation;
//! * the outer Jacobian of `(g₁, g₂)` is exact: the same closed forms run
//!   on forward-mode dual numbers over `(h, k)`, and `∂τ/∂(h, k)` follows
//!   from Eq. 3 by the implicit function theorem. Each Newton evaluation
//!   therefore costs one delay solve, Jacobian included.
//!
//! A derivative-free Nelder–Mead minimizer over `(ln h, ln k)` is
//! provided both as an automatic fallback and as an independent
//! cross-check ([`optimize_rlc_direct`]); property tests assert the two
//! agree.

use rlckit_numeric::dense::solve2;
use rlckit_numeric::minimize::{nelder_mead, NelderMeadOptions};
use rlckit_numeric::rng::Rng;
use rlckit_numeric::roots::RootOptions;
use rlckit_numeric::stats::peak_abs;
use rlckit_numeric::{Complex, NumericError, Result};
use rlckit_tech::DriverParams;
use rlckit_trace::{counter, histogram, span};
use rlckit_tline::twopole::{Damping, TwoPole};
use rlckit_tline::{DriverInterconnectLoad, LineRlc};
use rlckit_units::{Farads, HenriesPerMeter, Meters, Ohms, Seconds};

use crate::dual::Dual;
use crate::elmore::rc_optimum;

/// Options for the RLC optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerOptions {
    /// Delay threshold `f` (0.5 = the 50 % delay).
    pub threshold: f64,
    /// Relative convergence tolerance on `(h, k)`.
    pub tolerance: f64,
    /// Newton iteration budget.
    pub max_iterations: usize,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        Self {
            threshold: 0.5,
            tolerance: 1e-10,
            max_iterations: 60,
        }
    }
}

/// Policy for retrying failed optimizer solves before degrading to the
/// derivative-free fallback.
///
/// The retry ladder distinguishes two failure kinds:
///
/// * **Transient** failures (injected faults from `rlckit-fault`): the
///   solve is re-run unchanged — a transient fault fires at most once
///   per scope attempt, so a plain re-run is pure and lands on the
///   exact same iterate path (and hence bit-identical results).
/// * **Numerical** failures (budget exhausted, singular Jacobian,
///   non-finite residual): the Newton solve is re-seeded from a
///   deterministically perturbed starting point drawn from a split RNG
///   stream, up to [`RetryPolicy::max_restarts`] times.
///
/// If the ladder is exhausted and
/// [`RetryPolicy::nelder_mead_fallback`] is set, the solve degrades to
/// [`optimize_rlc_direct`] and the result is marked
/// [`RlcOptimum::used_fallback`]. Domain errors
/// ([`rlckit_numeric::FailureClass::InvalidInput`]) are never retried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Plain re-runs allowed for injected (transient) faults.
    pub max_transient_retries: u32,
    /// Perturbed restarts allowed for numerical failures.
    pub max_restarts: u32,
    /// Relative perturbation applied to the scaled starting point
    /// `(h/h₀, k/k₀) = (1, 1)` on each restart.
    pub perturbation: f64,
    /// Seed of the restart RNG. Fixed by default so retried campaigns
    /// are reproducible run-to-run.
    pub seed: u64,
    /// Degrade to the Nelder–Mead minimizer once retries are exhausted
    /// instead of surfacing the last error.
    pub nelder_mead_fallback: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_transient_retries: 2,
            max_restarts: 2,
            perturbation: 0.05,
            // "RLC_SEED" in ASCII.
            seed: 0x524c_435f_5345_4544,
            nelder_mead_fallback: true,
        }
    }
}

/// The result of an RLC repeater-insertion optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlcOptimum {
    /// Optimal segment length `h_optRLC`.
    pub segment_length: Meters,
    /// Optimal repeater size `k_optRLC` (× minimum).
    pub repeater_size: f64,
    /// The `f·100 %` delay of one optimal segment.
    pub segment_delay: Seconds,
    /// Damping regime of the optimal configuration.
    pub damping: Damping,
    /// Critical inductance `l_crit` at the optimal `(h, k)` (Eq. 4).
    pub critical_inductance: HenriesPerMeter,
    /// Outer iterations spent (Newton steps, or simplex evaluations for
    /// the fallback path).
    pub iterations: usize,
    /// True if the Newton solve failed and the Nelder–Mead fallback
    /// produced this result.
    pub used_fallback: bool,
    /// Retries spent before this result was produced (transient
    /// re-runs plus perturbed restarts; 0 on the clean first-attempt
    /// path).
    pub restarts: u32,
}

impl RlcOptimum {
    /// Delay per unit length `τ/h` at the optimum, in s/m.
    #[must_use]
    pub fn delay_per_length(&self) -> f64 {
        self.segment_delay.get() / self.segment_length.get()
    }

    /// Total delay of a line of the given length cut into optimal
    /// segments.
    #[must_use]
    pub fn total_delay(&self, line_length: Meters) -> Seconds {
        Seconds::new(self.delay_per_length() * line_length.get())
    }
}

/// Builds the driver–interconnect–load structure for a repeater of size
/// `k` driving a segment of length `h`.
///
/// # Panics
///
/// Panics unless `h` and `k` are strictly positive.
#[must_use]
pub fn segment_structure(
    line: &LineRlc,
    driver: &DriverParams,
    segment_length: Meters,
    repeater_size: f64,
) -> DriverInterconnectLoad {
    DriverInterconnectLoad::new(
        Ohms::new(driver.output_resistance.get() / repeater_size),
        Farads::new(driver.parasitic_capacitance.get() * repeater_size),
        *line,
        segment_length,
        Farads::new(driver.input_capacitance.get() * repeater_size),
    )
}

/// The rigorous `f·100 %` delay of one buffered segment at `(h, k)`.
///
/// # Errors
///
/// Propagates [`rlckit_tline::twopole::TwoPole::delay`] failures
/// (invalid threshold), or [`NumericError::InvalidInput`] for
/// degenerate moments (campaign paths must fail the point, never
/// panic the process).
pub fn segment_delay(
    line: &LineRlc,
    driver: &DriverParams,
    segment_length: Meters,
    repeater_size: f64,
    threshold: f64,
) -> Result<Seconds> {
    segment_structure(line, driver, segment_length, repeater_size)
        .try_two_pole()?
        .delay(threshold)
}

/// Moments and their analytic sensitivities at `(h, k)`, each carried as
/// a [`Dual`] so the second derivatives the outer Jacobian needs come
/// along.
struct MomentDerivatives {
    b1: Dual<f64>,
    b2: Dual<f64>,
    db1_dh: Dual<f64>,
    db1_dk: Dual<f64>,
    db2_dh: Dual<f64>,
    db2_dk: Dual<f64>,
}

fn moment_derivatives(
    line: &LineRlc,
    driver: &DriverParams,
    h: f64,
    k: f64,
) -> MomentDerivatives {
    let r = line.resistance().get();
    let l = line.inductance().get();
    let c = line.capacitance().get();
    let rs = driver.output_resistance.get();
    let c0 = driver.input_capacitance.get();
    let cp = driver.parasitic_capacitance.get();
    let (h, k) = (Dual::h(h), Dual::k(k));

    let rch2 = r * c * h * h;
    // b₁ = r_s(c_p+c₀) + rch²/2 + r_s·c·h/k + c₀·r·h·k
    let b1 = rs * (cp + c0) + rch2 / 2.0 + rs * c * h / k + c0 * r * h * k;
    let db1_dh = r * c * h + rs * c / k + c0 * r * k;
    let db1_dk = -rs * c * h / (k * k) + c0 * r * h;

    // b₂ = lch²/2 + (rch²)²/24 + r_s(c_p+c₀)·rch²/2
    //    + (r_s·c·h/k + c₀·r·h·k)·rch²/6 + c₀·k·l·h + r_s·c_p·c₀·k·r·h
    let mixed = rs * c * h / k + c0 * r * h * k;
    let b2 = l * c * h * h / 2.0
        + rch2 * rch2 / 24.0
        + rs * (cp + c0) * rch2 / 2.0
        + mixed * rch2 / 6.0
        + c0 * k * l * h
        + rs * cp * c0 * k * r * h;
    let dmixed_dh = rs * c / k + c0 * r * k;
    let dmixed_dk = -rs * c * h / (k * k) + c0 * r * h;
    let drch2_dh = 2.0 * r * c * h;
    let db2_dh = l * c * h
        + rch2 * drch2_dh / 12.0
        + rs * (cp + c0) * drch2_dh / 2.0
        + (dmixed_dh * rch2 + mixed * drch2_dh) / 6.0
        + c0 * k * l
        + rs * cp * c0 * k * r;
    let db2_dk = dmixed_dk * rch2 / 6.0 + c0 * l * h + rs * cp * c0 * r * h;

    MomentDerivatives {
        b1,
        b2,
        db1_dh,
        db1_dk,
        db2_dh,
        db2_dk,
    }
}

/// Pole pair and their sensitivities (complex when underdamped).
struct PoleDerivatives {
    s1: Dual<Complex>,
    s2: Dual<Complex>,
    ds1_dh: Dual<Complex>,
    ds2_dh: Dual<Complex>,
    ds1_dk: Dual<Complex>,
    ds2_dk: Dual<Complex>,
}

fn pole_derivatives(m: &MomentDerivatives) -> PoleDerivatives {
    let disc = m.b1 * m.b1 - 4.0 * m.b2;
    // Nudge exact criticality so 1/w stays finite (the nudged point
    // carries no sensitivity). Near criticality the 1/w terms cancel in
    // the residuals; `jacobian_is_harmless_across_l_crit` checks the
    // Jacobian against the finite-difference oracle there.
    let disc = if disc.v.abs() < 1e-30 {
        Dual::constant(1e-30)
    } else {
        disc
    };
    // w = √disc: real when overdamped, imaginary when underdamped.
    let w = if disc.v > 0.0 {
        disc.sqrt().complex()
    } else {
        (-disc).sqrt().imaginary()
    };
    let inv_w = w.recip();
    let inv_two_b2 = 0.5 / m.b2;
    let b1 = m.b1.complex();
    let s1 = (w - b1) * inv_two_b2;
    let s2 = (-w - b1) * inv_two_b2;

    let ds = |db1: Dual<f64>, db2: Dual<f64>| -> (Dual<Complex>, Dual<Complex>) {
        let core = inv_w * (m.b1 * db1 - 2.0 * db2);
        let rel = db2 / m.b2;
        let db1 = db1.complex();
        let d1 = (core - db1) * inv_two_b2 - s1 * rel;
        let d2 = (-core - db1) * inv_two_b2 - s2 * rel;
        (d1, d2)
    };
    let (ds1_dh, ds2_dh) = ds(m.db1_dh, m.db2_dh);
    let (ds1_dk, ds2_dk) = ds(m.db1_dk, m.db2_dk);
    PoleDerivatives {
        s1,
        s2,
        ds1_dh,
        ds2_dh,
        ds1_dk,
        ds2_dk,
    }
}

/// One evaluation of the stationarity system at `(h, k)`: the residuals
/// `(g₁, g₂)`, their exact Jacobian, and the delay `τ` with its
/// gradient.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Residuals {
    pub(crate) h: f64,
    pub(crate) k: f64,
    pub(crate) g: [f64; 2],
    /// `∂gᵢ/∂(h, k)`, row `i`.
    pub(crate) jac: [[f64; 2]; 2],
    /// `τ` and `∂τ/∂(h, k)` (Eq. 3 by the implicit function theorem).
    tau: Dual<f64>,
}

impl Residuals {
    /// The first-order prediction of the delay at `(h, k)`: where the
    /// next delay solve starts its Newton iteration.
    pub(crate) fn predict_delay(&self, h: f64, k: f64) -> f64 {
        self.tau.v + self.tau.dh * (h - self.h) + self.tau.dk * (k - self.k)
    }

    /// The residuals and their Jacobian in the optimizer's scaled
    /// unknowns `u = (h/h₀, k/k₀)`.
    fn scaled(&self, h0: f64, k0: f64) -> Linearized {
        let row = |j: [f64; 2]| [j[0] * h0, j[1] * k0];
        (self.g, [row(self.jac[0]), row(self.jac[1])])
    }
}

/// Evaluates the stationarity residuals `(g₁, g₂)` of Eqs. (7)–(8) and
/// their Jacobian at `(h, k)`, solving Eq. 3 once (its Newton starts
/// at `start` when that lies inside the bracket).
///
/// The residuals are divided by `(s₂ − s₁)` and normalized to relative
/// stationarity violations. Dividing by `(s₂ − s₁)` matters: the
/// paper's `gᵢ` come from Eq. 3 *multiplied by* `(s₂ − s₁)`, so with a
/// complex-conjugate pole pair they are purely imaginary — the
/// information lives in `g/(s₂ − s₁)`, which is real in both damping
/// regimes and continuous across the critical boundary. The normalizer
/// `|∂F/∂τ|·τ/h` (resp. `τ/k`) turns the residual into "relative error
/// of the stationarity condition", making the Newton tolerance
/// meaningful across technologies.
///
/// # Errors
///
/// Non-positive moments are [`NumericError::InvalidInput`] (a perturbed
/// restart or a degenerate sweep point must fail the point, never panic
/// the campaign process); delay-solve failures propagate.
pub(crate) fn residuals(
    line: &LineRlc,
    driver: &DriverParams,
    h: f64,
    k: f64,
    threshold: f64,
    start: Option<f64>,
) -> Result<Residuals> {
    let m = moment_derivatives(line, driver, h, k);
    let p = pole_derivatives(&m);
    let tau = TwoPole::try_new(m.b1.v, m.b2.v)?
        .delay_from(threshold, start)?
        .0
        .get();
    let one_minus_f = 1.0 - threshold;
    let inv_diff = (p.s2 - p.s1).recip();
    // e^{s·τ} with its partials at fixed τ.
    let e1 = (p.s1 * tau).exp();
    let e2 = (p.s2 * tau).exp();

    // τ(h, k) is defined by v(τ; h, k) = f (Eq. 3), with
    // v = 1 + (s₁e^{s₂τ} − s₂e^{s₁τ})/(s₂ − s₁), so
    // ∂τ/∂(h, k) = −(∂v/∂(h, k) at fixed τ) / v′(τ).
    let v = (p.s1 * e2 - p.s2 * e1) * inv_diff;
    let v_tau = (p.s1.v * p.s2.v * (e2.v - e1.v) * inv_diff.v).re;
    let tau = Dual {
        v: tau,
        dh: -v.dh.re / v_tau,
        dk: -v.dk.re / v_tau,
    };
    // Now let τ move with (h, k) too: ∂e^{sτ} gains s·e^{sτ}·∂τ.
    let with_tau = |e: Dual<Complex>, s: Dual<Complex>| {
        let se = s.v * e.v;
        Dual {
            v: e.v,
            dh: e.dh + se * tau.dh,
            dk: e.dk + se * tau.dk,
        }
    };
    let (e1, e2) = (with_tau(e1, p.s1), with_tau(e2, p.s2));
    let inv_h = 1.0 / Dual::h(h);

    // g₁ (Eq. 7): stationarity in h with dτ/dh = τ/h substituted.
    let g1 = (p.ds2_dh - p.ds1_dh) * one_minus_f - p.ds2_dh * e1 + p.ds1_dh * e2
        - p.s2 * tau * (p.ds1_dh + p.s1 * inv_h) * e1
        + p.s1 * tau * (p.ds2_dh + p.s2 * inv_h) * e2;

    // g₂ (Eq. 8): stationarity in k with dτ/dk = 0 substituted.
    let g2 = (p.ds2_dk - p.ds1_dk) * one_minus_f - p.ds2_dk * e1 - p.s2 * tau * p.ds1_dk * e1
        + p.ds1_dk * e2
        + p.s1 * tau * p.ds2_dk * e2;

    // ∂F/∂τ / (s₂ − s₁) = s₁s₂·(e^{s₂τ} − e^{s₁τ})/(s₂ − s₁): finite and
    // nonzero everywhere the first crossing exists.
    let f_tau = p.s1 * p.s2 * (e2 - e1) * inv_diff;
    let f_tau_mag = f_tau.abs();
    let f_tau_mag = if f_tau_mag.v < f64::MIN_POSITIVE {
        Dual::constant(f64::MIN_POSITIVE)
    } else {
        f_tau_mag
    };

    let out1 = (g1 * inv_diff).re() / (f_tau_mag * tau * inv_h);
    let out2 = (g2 * inv_diff).re() / (f_tau_mag * tau / Dual::k(k));
    Ok(Residuals {
        h,
        k,
        g: [out1.v, out2.v],
        jac: [[out1.dh, out1.dk], [out2.dh, out2.dk]],
        tau,
    })
}

/// Residuals `g` at one point and their Jacobian `∂g/∂u` (row `i` is
/// `∂gᵢ`), as [`newton2`] consumes them.
type Linearized = ([f64; 2], [[f64; 2]; 2]);

/// A converged [`newton2`] solve.
#[derive(Debug)]
struct Root2 {
    x: [f64; 2],
    /// `max |gᵢ|` at `x`.
    residual: f64,
    iterations: usize,
}

/// Damped Newton for the stationarity system `g(x) = 0` (§2.2), from
/// `x` where `eval` already gave `first`.
///
/// `eval(x)` returns the residuals together with their exact Jacobian
/// (NaN residuals where it cannot evaluate), so each trial point costs
/// one evaluation and the accepted trial's Jacobian drives the next
/// step. The step, solved by [`solve2`], is halved up to 30 times until
/// the residual norm `max |gᵢ|` drops; a non-finite trial is rejected.
/// This damping is what lets the optimizer cross the critically-damped
/// manifold where the residual is non-smooth.
///
/// Convergence requires the residual norm to meet `options.f_tol`, or a
/// full (undamped) Newton step under `options.x_tol` while improving. A
/// damped step is never taken as convergence on its size alone.
///
/// Fault injection: one faultpoint before the first iteration, and a
/// fail-stop after every evaluation once the scope took an injection —
/// otherwise the next halving would re-evaluate cleanly and the solve
/// would "recover" onto a different (bit-drifted) iterate path.
///
/// # Errors
///
/// [`NumericError::NoConvergence`] when the budget runs out or the line
/// search stalls, [`NumericError::SingularMatrix`] for a singular
/// Jacobian, [`NumericError::NonFiniteResidual`] for a non-finite
/// residual, and [`NumericError::InjectedFault`].
fn newton2(
    mut eval: impl FnMut([f64; 2]) -> Linearized,
    mut x: [f64; 2],
    first: Linearized,
    options: RootOptions,
) -> Result<Root2> {
    const INJECTED: NumericError = NumericError::InjectedFault {
        site: "optimizer.newton",
    };
    if rlckit_fault::faultpoint!("optimizer.newton") || rlckit_fault::poisoned() {
        return Err(INJECTED);
    }
    let (mut g, mut jac) = first;
    let mut rnorm = peak_abs(&g);
    for iteration in 1..=options.max_iterations {
        if !rnorm.is_finite() {
            return Err(NumericError::NonFiniteResidual {
                at: peak_abs(&x),
                iteration,
            });
        }
        if rnorm <= options.f_tol {
            return Ok(Root2 {
                x,
                residual: rnorm,
                iterations: iteration - 1,
            });
        }
        let step = solve2(jac, g)?;
        let mut lambda = 1.0f64;
        let mut accepted = false;
        for _ in 0..30 {
            let trial = [x[0] - lambda * step[0], x[1] - lambda * step[1]];
            let (trial_g, trial_jac) = eval(trial);
            if rlckit_fault::poisoned() {
                return Err(INJECTED);
            }
            let tnorm = peak_abs(&trial_g);
            if tnorm.is_finite() && tnorm < rnorm {
                (x, g, jac, rnorm) = (trial, trial_g, trial_jac, tnorm);
                // A small step means convergence only when it is a full
                // Newton step or the residual meets `f_tol`: a step the
                // line search had to cut short is small because the
                // model is bad there, not because the root is near.
                if (lambda == 1.0 || tnorm <= options.f_tol)
                    && lambda * peak_abs(&step) <= options.x_tol * peak_abs(&x).max(1.0)
                {
                    return Ok(Root2 {
                        x,
                        residual: rnorm,
                        iterations: iteration,
                    });
                }
                accepted = true;
                break;
            }
            lambda *= 0.5;
        }
        if !accepted {
            counter!("optimizer.newton.line_search_stalls").incr();
            return Err(NumericError::NoConvergence {
                iterations: iteration,
                residual: rnorm,
            });
        }
    }
    counter!("optimizer.newton.budget_exhausted").incr();
    Err(NumericError::NoConvergence {
        iterations: options.max_iterations,
        residual: rnorm,
    })
}

/// Optimizes `(h, k)` for minimum delay per unit length by the paper's
/// Newton method on the stationarity residuals, starting from the Elmore
/// optimum. Falls back to [`optimize_rlc_direct`] if Newton fails.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for a threshold outside
/// `(0, 1)`, or propagates the fallback minimizer's failure (does not
/// occur for physical technology parameters).
///
/// # Examples
///
/// ```
/// use rlckit::optimizer::{optimize_rlc, OptimizerOptions};
/// use rlckit_tech::TechNode;
/// use rlckit_tline::LineRlc;
/// use rlckit_units::HenriesPerMeter;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let node = TechNode::nm250();
/// let line = LineRlc::new(
///     node.line().resistance,
///     HenriesPerMeter::from_nano_per_milli(1.0),
///     node.line().capacitance,
/// );
/// let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default())?;
/// // With inductance the optimal segments are longer than the RC optimum…
/// assert!(opt.segment_length.get() > 0.0144);
/// // …and the repeater smaller than k_optRC = 578.
/// assert!(opt.repeater_size < 578.0);
/// # Ok(())
/// # }
/// ```
pub fn optimize_rlc(
    line: &LineRlc,
    driver: &DriverParams,
    options: OptimizerOptions,
) -> Result<RlcOptimum> {
    optimize_rlc_with_retry(line, driver, options, &RetryPolicy::default())
}

/// [`optimize_rlc`] with an explicit [`RetryPolicy`] governing how
/// solver failures are retried before degrading to the Nelder–Mead
/// fallback.
///
/// The clean first-attempt path is bit-identical to the historical
/// [`optimize_rlc`]: the retry machinery only engages once the Newton
/// solve fails. Transient (injected) faults are re-run unchanged;
/// numerical failures are re-seeded from deterministically perturbed
/// starting points before falling back.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for a threshold outside
/// `(0, 1)`; once the ladder is exhausted (and the fallback is disabled
/// or also fails), surfaces the last solver error.
pub fn optimize_rlc_with_retry(
    line: &LineRlc,
    driver: &DriverParams,
    options: OptimizerOptions,
    policy: &RetryPolicy,
) -> Result<RlcOptimum> {
    if !(0.0 < options.threshold && options.threshold < 1.0) {
        return Err(NumericError::InvalidInput(format!(
            "delay threshold must lie in (0, 1), got {}",
            options.threshold
        )));
    }
    counter!("optimizer.solves").incr();
    let _span = span!("optimizer.solve");
    let rc = rc_optimum(
        &rlckit_tech::LineParams::new(line.resistance(), line.capacitance()),
        driver,
    );
    let h0 = rc.segment_length.get();
    let k0 = rc.repeater_size;

    let mut restart_rng = Rng::new(policy.seed);
    let mut u0 = [1.0, 1.0];
    let mut transient_retries = 0u32;
    let mut restarts = 0u32;
    let last_error = loop {
        // Unknowns are scaled: u = (h/h₀, k/k₀). Pre-flight: evaluate
        // the residuals at the start point before the Newton iteration
        // and hand the value over as its first point, so a failing start
        // feeds the retry ladder the genuine error class: injected
        // faults re-run, numerical failures restart perturbed, and a
        // degenerate start (InvalidInput) fails the point at once
        // instead of burning restarts on NaN residuals. Every attempt
        // starts cold, so a retried attempt retraces exactly the delay
        // solves a first attempt from `u₀` would make.
        let (h, k) = (u0[0] * h0, u0[1] * k0);
        let preflight = if h <= 0.0 || k <= 0.0 {
            Err(NumericError::InvalidInput(format!(
                "optimizer start must be positive, got h = {h:e}, k = {k:e}"
            )))
        } else {
            residuals(line, driver, h, k, options.threshold, None)
        };
        let attempt = preflight
            .and_then(|first| {
                // The last successful evaluation, rejected trials
                // included: its delay gradient warm-starts the next
                // delay solve.
                let mut last = first;
                let eval = |u: [f64; 2]| {
                    let (h, k) = (u[0] * h0, u[1] * k0);
                    if h > 0.0 && k > 0.0 {
                        let start = Some(last.predict_delay(h, k));
                        if let Ok(r) = residuals(line, driver, h, k, options.threshold, start) {
                            last = r;
                            return r.scaled(h0, k0);
                        }
                    }
                    ([f64::NAN; 2], [[f64::NAN; 2]; 2])
                };
                newton2(
                    eval,
                    u0,
                    first.scaled(h0, k0),
                    RootOptions {
                        x_tol: options.tolerance,
                        f_tol: 1e-10,
                        max_iterations: options.max_iterations,
                    },
                )
            })
            .and_then(|sol| {
                if sol.x[0] > 0.0 && sol.x[1] > 0.0 {
                    Ok(sol)
                } else {
                    Err(NumericError::NoConvergence {
                        iterations: sol.iterations,
                        residual: sol.residual,
                    })
                }
            })
            .and_then(|sol| {
                histogram!("optimizer.newton.iterations").observe(sol.iterations as u64);
                let h = sol.x[0] * h0;
                let k = sol.x[1] * k0;
                finish(line, driver, h, k, options.threshold, sol.iterations, false)
            });

        match attempt {
            Ok(mut opt) => {
                opt.restarts = transient_retries + restarts;
                return Ok(opt);
            }
            Err(e) => {
                let injected = e.is_injected() || rlckit_fault::poisoned();
                if injected && transient_retries < policy.max_transient_retries {
                    // Transient: a plain re-run of the same attempt is
                    // pure once the one-shot injection has fired.
                    transient_retries += 1;
                } else if !injected && e.is_retryable() && restarts < policy.max_restarts {
                    restarts += 1;
                    let mut child = restart_rng.split();
                    u0 = [
                        1.0 + policy.perturbation * child.uniform(-1.0, 1.0),
                        1.0 + policy.perturbation * child.uniform(-1.0, 1.0),
                    ];
                } else {
                    break e;
                }
                counter!("optimizer.retries").incr();
                rlckit_fault::next_attempt();
            }
        }
    };

    if !policy.nelder_mead_fallback || !last_error.is_retryable() {
        return Err(last_error);
    }
    counter!("optimizer.fallbacks").incr();
    counter!("optimizer.degraded").incr();
    let direct = optimize_rlc_direct(line, driver, options)?;
    Ok(RlcOptimum {
        used_fallback: true,
        restarts: transient_retries + restarts,
        ..direct
    })
}

/// Derivative-free reference optimizer: Nelder–Mead over `(ln h, ln k)`
/// minimizing the rigorous delay per unit length.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for a threshold outside
/// `(0, 1)` and propagates simplex failures.
pub fn optimize_rlc_direct(
    line: &LineRlc,
    driver: &DriverParams,
    options: OptimizerOptions,
) -> Result<RlcOptimum> {
    if !(0.0 < options.threshold && options.threshold < 1.0) {
        return Err(NumericError::InvalidInput(format!(
            "delay threshold must lie in (0, 1), got {}",
            options.threshold
        )));
    }
    let rc = rc_optimum(
        &rlckit_tech::LineParams::new(line.resistance(), line.capacitance()),
        driver,
    );
    let h0 = rc.segment_length.get();
    let k0 = rc.repeater_size;

    let objective = |u: &[f64]| {
        let h = h0 * u[0].exp();
        let k = k0 * u[1].exp();
        match segment_delay(line, driver, Meters::new(h), k, options.threshold) {
            Ok(tau) => tau.get() / h,
            Err(_) => f64::INFINITY,
        }
    };
    let minimum = nelder_mead(
        objective,
        &[0.0, 0.0],
        NelderMeadOptions {
            initial_scale: 0.25,
            f_tol: 1e-13,
            x_tol: 1e-9,
            max_evaluations: 4000,
        },
    )?;
    let h = h0 * minimum.x[0].exp();
    let k = k0 * minimum.x[1].exp();
    finish(line, driver, h, k, options.threshold, minimum.evaluations, true)
}

fn finish(
    line: &LineRlc,
    driver: &DriverParams,
    h: f64,
    k: f64,
    threshold: f64,
    iterations: usize,
    used_fallback: bool,
) -> Result<RlcOptimum> {
    let dil = segment_structure(line, driver, Meters::new(h), k);
    let two_pole = dil.try_two_pole()?;
    Ok(RlcOptimum {
        segment_length: Meters::new(h),
        repeater_size: k,
        segment_delay: two_pole.delay(threshold)?,
        damping: two_pole.damping(),
        critical_inductance: dil.critical_inductance(),
        iterations,
        used_fallback,
        restarts: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_tech::TechNode;
    use rlckit_units::{FaradsPerMeter, OhmsPerMeter};

    fn line_for(node: &TechNode, l_nh_mm: f64) -> LineRlc {
        LineRlc::new(
            node.line().resistance,
            HenriesPerMeter::from_nano_per_milli(l_nh_mm),
            node.line().capacitance,
        )
    }

    #[test]
    fn results_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RlcOptimum>();
        assert_send_sync::<OptimizerOptions>();
    }

    #[test]
    fn moment_derivatives_match_finite_differences() {
        let node = TechNode::nm250();
        let line = line_for(&node, 2.0);
        let d = node.driver();
        let (h, k) = (0.015, 400.0);
        let m = moment_derivatives(&line, &d, h, k);
        let eps_h = h * 1e-6;
        let eps_k = k * 1e-6;
        let b1 = |h: f64, k: f64| moment_derivatives(&line, &d, h, k).b1.v;
        let b2 = |h: f64, k: f64| moment_derivatives(&line, &d, h, k).b2.v;
        assert!(
            ((b1(h + eps_h, k) - b1(h - eps_h, k)) / (2.0 * eps_h) - m.db1_dh.v).abs()
                < 1e-6 * m.db1_dh.v.abs()
        );
        assert!(
            ((b1(h, k + eps_k) - b1(h, k - eps_k)) / (2.0 * eps_k) - m.db1_dk.v).abs()
                < 1e-6 * m.db1_dk.v.abs().max(1e-20)
        );
        assert!(
            ((b2(h + eps_h, k) - b2(h - eps_h, k)) / (2.0 * eps_h) - m.db2_dh.v).abs()
                < 1e-6 * m.db2_dh.v.abs()
        );
        assert!(
            ((b2(h, k + eps_k) - b2(h, k - eps_k)) / (2.0 * eps_k) - m.db2_dk.v).abs()
                < 1e-6 * m.db2_dk.v.abs().max(1e-30)
        );
        // The hand-written sensitivities are the duals' own partials.
        for (hand, dual) in [
            (m.db1_dh.v, m.b1.dh),
            (m.db1_dk.v, m.b1.dk),
            (m.db2_dh.v, m.b2.dh),
            (m.db2_dk.v, m.b2.dk),
        ] {
            assert!((hand - dual).abs() <= 1e-13 * hand.abs(), "{hand:e} vs {dual:e}");
        }
    }

    #[test]
    fn moments_agree_with_dil_closed_forms() {
        let node = TechNode::nm100();
        let line = line_for(&node, 1.5);
        let d = node.driver();
        let (h, k) = (0.011, 500.0);
        let m = moment_derivatives(&line, &d, h, k);
        let dil = segment_structure(&line, &d, Meters::new(h), k);
        assert!((m.b1.v - dil.b1()).abs() / dil.b1() < 1e-12);
        assert!((m.b2.v - dil.b2()).abs() / dil.b2() < 1e-12);
    }

    #[test]
    fn pole_derivatives_match_finite_differences() {
        let node = TechNode::nm250();
        let d = node.driver();
        for l in [0.5, 3.0] {
            let line = line_for(&node, l);
            let (h, k) = (0.016, 450.0);
            let p_at = |h: f64, k: f64| pole_derivatives(&moment_derivatives(&line, &d, h, k));
            let p = p_at(h, k);
            let eps = h * 1e-6;
            let fd1 = (p_at(h + eps, k).s1.v - p_at(h - eps, k).s1.v) / (2.0 * eps);
            assert!(
                (fd1 - p.ds1_dh.v).abs() < 1e-4 * p.ds1_dh.v.abs(),
                "l={l}: {fd1} vs {}",
                p.ds1_dh.v
            );
            let eps = k * 1e-6;
            let fd2 = (p_at(h, k + eps).s2.v - p_at(h, k - eps).s2.v) / (2.0 * eps);
            assert!(
                (fd2 - p.ds2_dk.v).abs() < 1e-4 * p.ds2_dk.v.abs(),
                "l={l}: {fd2} vs {}",
                p.ds2_dk.v
            );
        }
    }

    /// Largest entry-wise gap between the analytic Jacobian at `(h, k)`
    /// and the central-difference oracle over the scaled unknowns, each
    /// row relative to its largest entry.
    fn jacobian_gap(line: &LineRlc, driver: &DriverParams, h: f64, k: f64, f: f64) -> f64 {
        let (_, analytic) = residuals(line, driver, h, k, f, None).unwrap().scaled(h, k);
        let oracle = rlckit_check::oracle::central_jacobian(
            |u: &[f64], out: &mut [f64]| {
                let g = residuals(line, driver, u[0] * h, u[1] * k, f, None).unwrap().g;
                out.copy_from_slice(&g);
            },
            &[1.0, 1.0],
            2,
            1e-6,
        );
        let mut gap = 0.0f64;
        for i in 0..2 {
            let scale = oracle[(i, 0)].abs().max(oracle[(i, 1)].abs());
            for j in 0..2 {
                gap = gap.max((analytic[i][j] - oracle[(i, j)]).abs() / scale);
            }
        }
        gap
    }

    #[test]
    fn analytic_jacobian_matches_the_central_difference_oracle() {
        // Over-, near-critically and under-damped segments on both
        // Table 1 nodes, around the optimizer's start point.
        for node in [TechNode::nm250(), TechNode::nm100()] {
            let d = node.driver();
            let rc = rc_optimum(&node.line(), &d);
            let (h0, k0) = (rc.segment_length.get(), rc.repeater_size);
            for l in [0.0, 0.5, 1.5, 3.0, 4.5] {
                let line = line_for(&node, l);
                for (hs, ks) in [(1.0, 1.0), (1.4, 0.7), (0.8, 1.2)] {
                    let (h, k) = (h0 * hs, k0 * ks);
                    let damping = segment_structure(&line, &d, Meters::new(h), k)
                        .two_pole()
                        .damping();
                    for f in [0.1, 0.5, 0.9] {
                        let gap = jacobian_gap(&line, &d, h, k, f);
                        assert!(
                            gap < 1e-5,
                            "{} l={l} ({hs},{ks}) {damping} f={f}: gap {gap:e}",
                            node.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn jacobian_is_harmless_across_l_crit() {
        // Within ±1 % of the critical inductance the pole sensitivities
        // blow up like 1/√disc, yet the residuals stay smooth and the
        // analytic Jacobian keeps tracking the oracle at every
        // threshold. (Closer in, at ±1e-4, the oracle's own 1e-6 step
        // is already the noisier of the two.)
        for node in [TechNode::nm250(), TechNode::nm100()] {
            let d = node.driver();
            let rc = rc_optimum(&node.line(), &d);
            let (h, k) = (rc.segment_length.get(), rc.repeater_size);
            let l_crit = segment_structure(&line_for(&node, 1.0), &d, Meters::new(h), k)
                .critical_inductance()
                .get();
            for offset in [-1e-2, -3e-3, -1e-3, 1e-3, 3e-3, 1e-2] {
                let line = LineRlc::new(
                    node.line().resistance,
                    HenriesPerMeter::new(l_crit * (1.0 + offset)),
                    node.line().capacitance,
                );
                for f in [0.1, 0.5, 0.9] {
                    let gap = jacobian_gap(&line, &d, h, k, f);
                    assert!(gap < 1e-4, "{} offset {offset} f={f}: gap {gap:e}", node.name());
                }
            }
        }
    }

    #[test]
    fn newton_agrees_with_direct_minimizer() {
        let node = TechNode::nm250();
        for l in [0.0, 0.5, 2.0, 4.5] {
            let line = line_for(&node, l);
            let newton = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
            let direct =
                optimize_rlc_direct(&line, &node.driver(), OptimizerOptions::default()).unwrap();
            assert!(
                (newton.segment_length / direct.segment_length - 1.0).abs() < 5e-3,
                "l={l}: h {} vs {}",
                newton.segment_length,
                direct.segment_length
            );
            assert!(
                (newton.repeater_size / direct.repeater_size - 1.0).abs() < 5e-3,
                "l={l}: k {} vs {}",
                newton.repeater_size,
                direct.repeater_size
            );
        }
    }

    #[test]
    fn optimum_is_stationary_for_the_objective() {
        let node = TechNode::nm100();
        let line = line_for(&node, 2.0);
        let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
        let obj = |h: f64, k: f64| {
            segment_delay(&line, &node.driver(), Meters::new(h), k, 0.5)
                .unwrap()
                .get()
                / h
        };
        let best = obj(opt.segment_length.get(), opt.repeater_size);
        for (hs, ks) in [(1.02, 1.0), (0.98, 1.0), (1.0, 1.02), (1.0, 0.98)] {
            let perturbed = obj(opt.segment_length.get() * hs, opt.repeater_size * ks);
            assert!(
                perturbed >= best * (1.0 - 1e-9),
                "perturbation ({hs},{ks}) went below the optimum"
            );
        }
    }

    #[test]
    fn zero_inductance_optimum_sits_just_below_rc_optimum() {
        // Paper §3.1: at l = 0 the two-pole optimization gives h slightly
        // smaller than h_optRC — an effect the curve-fitted baselines
        // cannot produce.
        let node = TechNode::nm250();
        let line = line_for(&node, 0.0);
        let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
        let rc = rc_optimum(&node.line(), &node.driver());
        let ratio = opt.segment_length / rc.segment_length;
        assert!(ratio < 1.0, "h ratio {ratio}");
        assert!(ratio > 0.75, "h ratio {ratio}");
    }

    #[test]
    fn trends_with_inductance_match_figs_5_and_6() {
        let node = TechNode::nm100();
        let mut last_h = 0.0;
        let mut last_k = f64::INFINITY;
        for l in [0.5, 1.5, 2.5, 3.5, 4.5] {
            let line = line_for(&node, l);
            let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
            assert!(opt.segment_length.get() > last_h, "h not increasing at l={l}");
            assert!(opt.repeater_size < last_k, "k not decreasing at l={l}");
            last_h = opt.segment_length.get();
            last_k = opt.repeater_size;
        }
    }

    #[test]
    fn k_flattens_at_large_inductance() {
        // Fig. 6 shows k_optRLC falling and flattening. (The paper reads
        // the flat tail as impedance matching; within the two-pole model
        // the driver resistance r_s/k does rise with l but stays below
        // √(l/c) — the flattening itself is what the model reproduces.)
        let node = TechNode::nm100();
        let k_at = |l: f64| {
            optimize_rlc(&line_for(&node, l), &node.driver(), OptimizerOptions::default())
                .unwrap()
                .repeater_size
        };
        let (k1, k2, k4) = (k_at(1.0), k_at(2.0), k_at(4.0));
        let drop_first = k1 - k2;
        let drop_second = k2 - k4;
        assert!(drop_first > 0.0 && drop_second > 0.0, "k must keep falling");
        // Per-unit-l slope flattens: the second octave drops at less than
        // half the rate of the first.
        assert!(
            drop_second / 2.0 < drop_first,
            "k not flattening: {drop_first} then {drop_second} over double the span"
        );
    }

    #[test]
    fn threshold_is_configurable() {
        let node = TechNode::nm250();
        let line = line_for(&node, 1.0);
        let d90 = optimize_rlc(
            &line,
            &node.driver(),
            OptimizerOptions {
                threshold: 0.9,
                ..OptimizerOptions::default()
            },
        )
        .unwrap();
        let d50 = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
        assert!(d90.segment_delay.get() > d50.segment_delay.get());
    }

    #[test]
    fn invalid_threshold_is_rejected() {
        let node = TechNode::nm250();
        let line = line_for(&node, 1.0);
        for f in [0.0, 1.0, -0.2] {
            let err = optimize_rlc(
                &line,
                &node.driver(),
                OptimizerOptions {
                    threshold: f,
                    ..OptimizerOptions::default()
                },
            );
            assert!(err.is_err(), "f={f}");
        }
    }

    #[test]
    fn newton_path_is_used_and_fast() {
        let node = TechNode::nm250();
        let line = line_for(&node, 2.0);
        let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
        assert!(!opt.used_fallback, "newton path expected");
        // Paper: ≤ 6 iterations, the measured maximum at 250 nm (the
        // threshold grid guard in tests/convergence_claims.rs covers
        // both nodes).
        assert!(opt.iterations <= 6, "{} iterations", opt.iterations);
    }

    #[test]
    fn degenerate_point_fails_the_point_not_the_process() {
        // Pre-fix this test PANICKED: with zero inductance and an
        // infinite segment length the second moment evaluates to
        // 0·∞ = NaN, and `TwoPole::new`'s assert killed the whole
        // campaign process. The fault-tolerant-campaign contract is
        // per-point isolation: the degenerate point must record
        // `PointOutcome::Failed` with the non-retryable InvalidInput
        // class, spending zero retries.
        use crate::outcome::{run_point, PointOutcome, Solved};
        let node = TechNode::nm250();
        let line = line_for(&node, 0.0);
        let outcome = run_point(0, &RetryPolicy::default(), || {
            segment_delay(
                &line,
                &node.driver(),
                Meters::new(f64::INFINITY),
                578.0,
                0.5,
            )
            .map(|tau| Solved::converged(tau.get()))
        });
        match outcome {
            PointOutcome::Failed { attempts, error } => {
                assert_eq!(attempts, 0, "InvalidInput must never be retried");
                assert!(
                    matches!(error, NumericError::InvalidInput(_)),
                    "expected InvalidInput, got {error:?}"
                );
            }
            other => panic!("degenerate point must fail the point, got {other:?}"),
        }
    }

    #[test]
    fn works_for_custom_technologies() {
        // A made-up wide low-resistance bus.
        let line = LineRlc::new(
            OhmsPerMeter::from_ohm_per_milli(1.0),
            HenriesPerMeter::from_nano_per_milli(0.8),
            FaradsPerMeter::from_pico(250.0),
        );
        let node = TechNode::nm100();
        let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
        assert!(opt.segment_length.get() > 0.0);
        assert!(opt.repeater_size > 1.0);
    }

    #[test]
    fn critical_damping_start_keeps_its_outcome() {
        // The start point made exactly critical: 250 nm, l = l_crit of
        // the RC-optimal (h, k), so b₁² − 4b₂ rounds below the 1e-30
        // nudge in `pole_derivatives` and the residuals are rough there.
        // The default ladder restarts once and converges. The expected
        // bits were captured with the generic N-dimensional Newton that
        // the 2×2 driver replaced.
        let node = TechNode::nm250();
        let d = node.driver();
        let rc = rc_optimum(&node.line(), &d);
        let (h, k) = (rc.segment_length.get(), rc.repeater_size);
        let l_crit =
            segment_structure(&line_for(&node, 1.0), &d, Meters::new(h), k).critical_inductance();
        let line = LineRlc::new(node.line().resistance, l_crit, node.line().capacitance);
        let opt = optimize_rlc_with_retry(
            &line,
            &d,
            OptimizerOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(
            (opt.restarts, opt.used_fallback, opt.iterations),
            (1, false, 4)
        );
        assert_eq!(opt.segment_length.get().to_bits(), 0x3f8c_b870_e9d7_e58d);
        assert_eq!(opt.repeater_size.to_bits(), 0x407d_b4b6_e292_901f);
    }

    /// [`newton2`] from `x0`, evaluating the first point itself.
    fn newton2_from(
        eval: impl Fn([f64; 2]) -> Linearized,
        x0: [f64; 2],
        options: RootOptions,
    ) -> Result<Root2> {
        newton2(&eval, x0, eval(x0), options)
    }

    #[test]
    fn newton2_on_rosenbrock_gradient() {
        // Roots of the gradient of Rosenbrock's function: (1, 1).
        let eval = |x: [f64; 2]| {
            (
                [
                    -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
                    200.0 * (x[1] - x[0] * x[0]),
                ],
                [
                    [2.0 - 400.0 * (x[1] - 3.0 * x[0] * x[0]), -400.0 * x[0]],
                    [-400.0 * x[0], 200.0],
                ],
            )
        };
        let sol = newton2_from(
            eval,
            [-0.5, 0.5],
            RootOptions {
                max_iterations: 200,
                ..RootOptions::default()
            },
        )
        .unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-8);
        assert!((sol.x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn newton2_keeps_caller_f_tol_strict_on_budget_exhaustion() {
        // Regression: on budget exhaustion the solver used to accept
        // `rnorm <= f_tol.max(1e-9)`, silently overriding a stricter
        // caller-requested f_tol. Newton on `x³` contracts by 2/3 per
        // step, so a budget of 30 from `x₀ = 1` lands the residual near
        // 1.4e-16 — far above an `f_tol` of 1e-40, inside the old window.
        // (The second component is a trivial `x₁ = 0`.)
        let eval = |x: [f64; 2]| {
            (
                [x[0] * x[0] * x[0], x[1]],
                [[3.0 * x[0] * x[0], 0.0], [0.0, 1.0]],
            )
        };
        let strict = RootOptions {
            f_tol: 1e-40,
            x_tol: 1e-30,
            max_iterations: 30,
        };
        match newton2_from(eval, [1.0, 0.0], strict) {
            Err(NumericError::NoConvergence { residual, .. }) => {
                assert!(residual > 1e-40 && residual < 1e-9, "residual {residual:e}")
            }
            other => panic!("strict f_tol must not be loosened, got {other:?}"),
        }
    }

    #[test]
    fn newton2_backtracks_from_nan_trials() {
        // Regression: the residual `ln x` is NaN outside the positive
        // quadrant, and the full Newton step from (3, 0.5) lands at
        // x₀ ≈ −0.30. The NaN-blind norm read that trial as an exact
        // root (norm 0), accepted it and returned x₀ < 0 as converged.
        // The trial must be rejected and the step halved instead.
        let eval = |x: [f64; 2]| {
            (
                [x[0].ln(), x[1].ln()],
                [[1.0 / x[0], 0.0], [0.0, 1.0 / x[1]]],
            )
        };
        let sol = newton2_from(eval, [3.0, 0.5], RootOptions::default()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-12, "x = {:?}", sol.x);
        assert!((sol.x[1] - 1.0).abs() < 1e-12, "x = {:?}", sol.x);
        assert!(sol.residual <= RootOptions::default().f_tol);
    }

    #[test]
    fn newton2_rejects_a_damped_small_step_with_large_residual() {
        // Regression: `1 − t + 1e8·t²` has no root (its minimum is
        // 1 − 2.5e-9 at t = 5e-9). From t = 0 the full Newton step is 1,
        // and the line search must halve it 27 times before the norm
        // drops, leaving a 7.5e-9 step under x_tol = 1e-8. The solver
        // used to take that damped step's size as convergence and
        // return Ok with a residual of ≈ 1; it must keep iterating and
        // fail honestly.
        let eval = |x: [f64; 2]| {
            (
                [1.0 - x[0] + 1e8 * x[0] * x[0], x[1]],
                [[-1.0 + 2e8 * x[0], 0.0], [0.0, 1.0]],
            )
        };
        let options = RootOptions {
            x_tol: 1e-8,
            f_tol: 1e-10,
            max_iterations: 50,
        };
        match newton2_from(eval, [0.0, 0.0], options) {
            Err(NumericError::NoConvergence { residual, .. }) => {
                assert!(residual > 0.99, "residual {residual:e}")
            }
            other => panic!("a rootless system must not converge, got {other:?}"),
        }
    }

    #[test]
    fn newton2_solves_a_linear_system_in_one_step() {
        let eval = |x: [f64; 2]| {
            (
                [2.0 * x[0] + x[1] - 3.0, x[0] + 3.0 * x[1] - 5.0],
                [[2.0, 1.0], [1.0, 3.0]],
            )
        };
        let sol = newton2_from(eval, [0.0, 0.0], RootOptions::default()).unwrap();
        assert!(sol.iterations <= 2);
        assert!((sol.x[0] - 0.8).abs() < 1e-12);
        assert!((sol.x[1] - 1.4).abs() < 1e-12);
    }
}
