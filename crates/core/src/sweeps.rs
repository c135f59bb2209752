//! Inductance sweeps: the engine behind Figs. 4–8.
//!
//! One sweep over the line inductance produces everything those figures
//! plot: the RLC-optimal `(h, k)`, its delay per unit length, the
//! critical inductance at the optimum, and the penalty of staying at the
//! RC design point.
//!
//! The sweep is embarrassingly parallel — every point re-runs the
//! Eq. 5–8 Newton optimizer independently — so it executes on the
//! `rlckit-par` campaign engine by default, on the guided
//! self-scheduler (per-point cost varies with the damping regime, so
//! static chunks leave workers idle at the tail). Results are
//! **bit-identical to the serial evaluation** for every thread count
//! (the per-point computation is a pure function and
//! `rlckit_par::par_map` reassembles in input order);
//! `RLCKIT_THREADS=1` or [`inductance_sweep_with`] with
//! [`Parallelism::Serial`] forces the serial path.

use std::path::Path;

use rlckit_numeric::{NumericError, Result};
use rlckit_par::{par_map, Parallelism};
use rlckit_tech::{DriverParams, LineParams, TechNode};
use rlckit_trace::{counter, span};
use rlckit_tline::twopole::Damping;
use rlckit_tline::LineRlc;
use rlckit_units::HenriesPerMeter;

use crate::batch::{batch_point_outcomes, RlcPoint};
use crate::checkpoint::{fingerprint64, CheckpointFile, CHECKPOINT_VERSION};
use crate::elmore::{rc_optimum, RcOptimum};
use crate::optimizer::{
    optimize_rlc_with_retry, segment_delay, OptimizerOptions, RetryPolicy, RlcOptimum,
};
use crate::outcome::{run_point, PointOutcome, Solved};

/// Lanes per batched sweep column. Eight lanes fill the CPU's
/// out-of-order window with independent `exp` chains (the win
/// saturates shortly past the pipeline depth) while keeping enough
/// columns in a small campaign for the guided scheduler to balance.
const SWEEP_COLUMN_WIDTH: usize = 8;

/// One point of an inductance sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Line inductance of this point.
    pub inductance: HenriesPerMeter,
    /// RLC-optimal segment length `h_optRLC`.
    pub h_opt: f64,
    /// RLC-optimal repeater size `k_optRLC`.
    pub k_opt: f64,
    /// Delay per unit length at the RLC optimum, s/m.
    pub delay_per_length: f64,
    /// `h_optRLC / h_optRC` (Fig. 5).
    pub h_ratio: f64,
    /// `k_optRLC / k_optRC` (Fig. 6).
    pub k_ratio: f64,
    /// Critical inductance at the optimal `(h, k)`, H/m (Fig. 4).
    pub l_crit: f64,
    /// Damping regime at the optimum.
    pub damping: Damping,
    /// Delay per unit length when the design stays at the RC optimum
    /// `(h_optRC, k_optRC)` but the line has this inductance, s/m
    /// (numerator of Fig. 8).
    pub rc_design_delay_per_length: f64,
}

impl SweepPoint {
    /// `(τ/h at RC design) / (τ/h at RLC optimum)` — the Fig. 8 penalty.
    #[must_use]
    pub fn variation_penalty(&self) -> f64 {
        self.rc_design_delay_per_length / self.delay_per_length
    }
}

/// Sweeps the line inductance for a technology, optimizing `(h, k)` at
/// every point.
///
/// `inductances` is any iterator of H/m values (use
/// [`HenriesPerMeter::from_nano_per_milli`] and
/// [`rlckit_numeric::grid::linspace`] for the paper's 0–5 nH/mm range).
///
/// # Errors
///
/// Propagates optimizer failures (none occur over the paper's ranges).
pub fn inductance_sweep(
    line: &LineParams,
    driver: &DriverParams,
    inductances: impl IntoIterator<Item = HenriesPerMeter>,
    options: OptimizerOptions,
) -> Result<Vec<SweepPoint>> {
    inductance_sweep_with(line, driver, inductances, options, Parallelism::Auto)
}

/// [`inductance_sweep`] with an explicit execution policy.
///
/// [`Parallelism::Serial`] is the reference semantics; every parallel
/// policy produces bit-identical output (property-tested in
/// `tests/properties.rs`).
///
/// # Errors
///
/// See [`inductance_sweep`].
pub fn inductance_sweep_with(
    line: &LineParams,
    driver: &DriverParams,
    inductances: impl IntoIterator<Item = HenriesPerMeter>,
    options: OptimizerOptions,
    parallelism: Parallelism,
) -> Result<Vec<SweepPoint>> {
    inductance_sweep_outcomes(
        line,
        driver,
        inductances,
        options,
        &RetryPolicy::default(),
        parallelism,
    )?
    .into_iter()
    .map(PointOutcome::into_result)
    .collect()
}

/// The fault-tolerant sweep engine: every grid point is solved inside
/// its own deterministic fault scope and recorded as a
/// [`PointOutcome`], so one failed point never aborts the campaign or
/// disturbs the numbers of its neighbours.
///
/// The scope key of each point is its index in `inductances`, making
/// fault-injection decisions (and hence every retried point's bits)
/// independent of thread count and of checkpoint resume.
///
/// # Errors
///
/// Only infrastructure failures surface here (a worker panic turned
/// into [`NumericError::InvalidInput`] by the campaign engine); solver
/// failures are recorded per point.
pub fn inductance_sweep_outcomes(
    line: &LineParams,
    driver: &DriverParams,
    inductances: impl IntoIterator<Item = HenriesPerMeter>,
    options: OptimizerOptions,
    policy: &RetryPolicy,
    parallelism: Parallelism,
) -> Result<Vec<PointOutcome<SweepPoint>>> {
    let rc = rc_optimum(line, driver);
    let indexed: Vec<(usize, HenriesPerMeter)> = inductances.into_iter().enumerate().collect();
    let columns: Vec<&[(usize, HenriesPerMeter)]> = indexed.chunks(SWEEP_COLUMN_WIDTH).collect();
    let nested = par_map(&columns, parallelism, |_, column| {
        Ok(sweep_column_outcomes(
            line, driver, &rc, column, options, policy,
        ))
    })?;
    Ok(nested.into_iter().flatten().collect())
}

/// The post-optimizer tail of one sweep point: the RC-design delay
/// probe plus the [`SweepPoint`] assembly. Shared verbatim by the
/// scalar per-point path and the batched column engine (both run it
/// under the point's fault scope), which is what keeps the two paths
/// bit-identical.
fn sweep_point_solved(
    rlc_line: &LineRlc,
    driver: &DriverParams,
    rc: &RcOptimum,
    options: OptimizerOptions,
    opt: RlcOptimum,
) -> Result<Solved<SweepPoint>> {
    let rc_design_delay = segment_delay(
        rlc_line,
        driver,
        rc.segment_length,
        rc.repeater_size,
        options.threshold,
    )?;
    Ok(Solved {
        value: SweepPoint {
            inductance: rlc_line.inductance(),
            h_opt: opt.segment_length.get(),
            k_opt: opt.repeater_size,
            delay_per_length: opt.delay_per_length(),
            h_ratio: opt.segment_length.get() / rc.segment_length.get(),
            k_ratio: opt.repeater_size / rc.repeater_size,
            l_crit: opt.critical_inductance.get(),
            damping: opt.damping,
            rc_design_delay_per_length: rc_design_delay.get() / rc.segment_length.get(),
        },
        restarts: opt.restarts,
        degraded: opt.used_fallback,
    })
}

/// Solves one column of sweep points through the batched optimizer
/// engine. Bit-identical to calling the scalar per-point path on each
/// `(index, inductance)` pair in sequence: the engine replicates the
/// clean solve exactly and retires any deviating lane to the genuine
/// scalar path under the same scope key.
fn sweep_column_outcomes(
    line: &LineParams,
    driver: &DriverParams,
    rc: &RcOptimum,
    column: &[(usize, HenriesPerMeter)],
    options: OptimizerOptions,
    policy: &RetryPolicy,
) -> Vec<PointOutcome<SweepPoint>> {
    // One span and one point tally per lane, as the scalar loop takes.
    let _spans: Vec<_> = column.iter().map(|_| span!("sweep.point")).collect();
    counter!("sweeps.points").add(column.len() as u64);
    let lanes: Vec<RlcPoint> = column
        .iter()
        .map(|&(i, l)| RlcPoint {
            line: LineRlc::new(line.resistance, l, line.capacitance),
            scope: i as u64,
        })
        .collect();
    let outcomes = batch_point_outcomes(
        &lanes,
        driver,
        options,
        |lane, opt| sweep_point_solved(&lanes[lane].line, driver, rc, options, opt),
        |p| {
            run_point(p.scope, policy, || {
                let opt = optimize_rlc_with_retry(&p.line, driver, options, policy)?;
                sweep_point_solved(&p.line, driver, rc, options, opt)
            })
        },
    );
    for outcome in &outcomes {
        if outcome.is_failed() {
            counter!("sweeps.no_convergence").incr();
        }
    }
    outcomes
}

/// Solves one sweep point on the scalar path, under the point's own
/// deterministic fault scope.
///
/// `index` must be the point's **original grid index** — fault-injection
/// decisions and retry perturbations key off it, which is what makes a
/// point's bits independent of which process, shard, or resume attempt
/// computes it. This is the unit of work of the sharded multi-process
/// campaign driver (`rlckit-campaign`): a shard computing its slice
/// point by point through this function produces bits identical to a
/// single process walking the whole grid.
pub fn sweep_point_outcome(
    line: &LineParams,
    driver: &DriverParams,
    rc: &RcOptimum,
    index: usize,
    inductance: HenriesPerMeter,
    options: OptimizerOptions,
    policy: &RetryPolicy,
) -> PointOutcome<SweepPoint> {
    let _span = span!("sweep.point");
    counter!("sweeps.points").incr();
    let rlc_line = LineRlc::new(line.resistance, inductance, line.capacitance);
    let outcome = run_point(index as u64, policy, || {
        let opt = optimize_rlc_with_retry(&rlc_line, driver, options, policy)?;
        sweep_point_solved(&rlc_line, driver, rc, options, opt)
    });
    if outcome.is_failed() {
        counter!("sweeps.no_convergence").incr();
    }
    outcome
}

/// Fingerprints a sweep campaign's inputs (all as exact bit patterns)
/// for checkpoint headers.
#[must_use]
pub fn campaign_fingerprint(
    line: &LineParams,
    driver: &DriverParams,
    inductances: &[HenriesPerMeter],
    options: OptimizerOptions,
) -> u64 {
    let mut words = vec![
        u64::from(CHECKPOINT_VERSION),
        line.resistance.get().to_bits(),
        line.capacitance.get().to_bits(),
        driver.output_resistance.get().to_bits(),
        driver.input_capacitance.get().to_bits(),
        driver.parasitic_capacitance.get().to_bits(),
        options.threshold.to_bits(),
        options.tolerance.to_bits(),
        options.max_iterations as u64,
        inductances.len() as u64,
    ];
    words.extend(inductances.iter().map(|l| l.get().to_bits()));
    fingerprint64(words)
}

/// Encodes a [`SweepPoint`] as exact `u64` bit patterns for checkpoint
/// and shard files (inverse of [`decode_sweep_point`]).
#[must_use]
pub fn encode_sweep_point(p: &SweepPoint) -> Vec<u64> {
    vec![
        p.inductance.get().to_bits(),
        p.h_opt.to_bits(),
        p.k_opt.to_bits(),
        p.delay_per_length.to_bits(),
        p.h_ratio.to_bits(),
        p.k_ratio.to_bits(),
        p.l_crit.to_bits(),
        match p.damping {
            Damping::Overdamped => 0,
            Damping::CriticallyDamped => 1,
            Damping::Underdamped => 2,
        },
        p.rc_design_delay_per_length.to_bits(),
    ]
}

/// Decodes the exact bit patterns written by [`encode_sweep_point`];
/// `None` for any word count or damping tag that could not have been
/// produced by the encoder.
#[must_use]
pub fn decode_sweep_point(words: &[u64]) -> Option<SweepPoint> {
    if words.len() != 9 {
        return None;
    }
    Some(SweepPoint {
        inductance: HenriesPerMeter::new(f64::from_bits(words[0])),
        h_opt: f64::from_bits(words[1]),
        k_opt: f64::from_bits(words[2]),
        delay_per_length: f64::from_bits(words[3]),
        h_ratio: f64::from_bits(words[4]),
        k_ratio: f64::from_bits(words[5]),
        l_crit: f64::from_bits(words[6]),
        damping: match words[7] {
            0 => Damping::Overdamped,
            1 => Damping::CriticallyDamped,
            2 => Damping::Underdamped,
            _ => return None,
        },
        rc_design_delay_per_length: f64::from_bits(words[8]),
    })
}

/// [`inductance_sweep_with`] with checkpoint/resume: completed
/// points are streamed to `path` as they finish, and a restarted
/// campaign skips them, recomputing only what is missing.
///
/// Because each point's fault scope and arithmetic depend only on its
/// original grid index, a killed-and-resumed campaign produces results
/// **bit-identical** to an uninterrupted run. A checkpoint whose header
/// fingerprint does not match this campaign's inputs is discarded, so a
/// stale file can never contaminate a different sweep. The file is kept
/// after completion; re-running the same campaign serves every point
/// from it.
///
/// # Errors
///
/// Surfaces per-point failures (after the retry ladder is exhausted)
/// and checkpoint I/O failures as [`NumericError::InvalidInput`].
pub fn inductance_sweep_checkpointed(
    line: &LineParams,
    driver: &DriverParams,
    inductances: impl IntoIterator<Item = HenriesPerMeter>,
    options: OptimizerOptions,
    policy: &RetryPolicy,
    path: &Path,
    parallelism: Parallelism,
) -> Result<Vec<SweepPoint>> {
    let points: Vec<HenriesPerMeter> = inductances.into_iter().collect();
    let fingerprint = campaign_fingerprint(line, driver, &points, options);
    let (checkpoint, completed) = CheckpointFile::open(path, fingerprint)?;
    let rc = rc_optimum(line, driver);

    let mut results: Vec<Option<SweepPoint>> = vec![None; points.len()];
    let mut missing: Vec<(usize, HenriesPerMeter)> = Vec::new();
    for (i, &l) in points.iter().enumerate() {
        match completed.get(&i).and_then(|words| decode_sweep_point(words)) {
            Some(point) => {
                counter!("sweeps.checkpoint.skipped").incr();
                results[i] = Some(point);
            }
            None => missing.push((i, l)),
        }
    }

    let columns: Vec<&[(usize, HenriesPerMeter)]> = missing.chunks(SWEEP_COLUMN_WIDTH).collect();
    let nested = par_map(&columns, parallelism, |_, column| {
        Ok(sweep_column_outcomes(
            line, driver, &rc, column, options, policy,
        ))
    })?;
    let computed = columns
        .iter()
        .zip(nested)
        .flat_map(|(column, outcomes)| column.iter().map(|&(i, _)| i).zip(outcomes));
    for (i, outcome) in computed {
        let point = outcome.into_result()?;
        checkpoint.append(i, &encode_sweep_point(&point))?;
        counter!("sweeps.checkpoint.streamed").incr();
        results[i] = Some(point);
    }

    results
        .into_iter()
        .map(|point| {
            point.ok_or_else(|| {
                NumericError::InvalidInput("checkpoint bookkeeping lost a point".to_string())
            })
        })
        .collect()
}

/// Convenience: sweep a technology node over the paper's standard range
/// `0 ≤ l < 5 nH/mm` with `n` points.
///
/// # Errors
///
/// See [`inductance_sweep`].
pub fn standard_node_sweep(node: &TechNode, n: usize) -> Result<Vec<SweepPoint>> {
    let grid = rlckit_numeric::grid::linspace(0.0, 4.95, n);
    inductance_sweep(
        &node.line(),
        &node.driver(),
        grid.into_iter().map(HenriesPerMeter::from_nano_per_milli),
        OptimizerOptions::default(),
    )
}

/// [`standard_node_sweep`] with checkpoint/resume at `path` (see
/// [`inductance_sweep_checkpointed`]): a killed run resumes from the
/// completed points and reproduces the uninterrupted result
/// bit-for-bit.
///
/// # Errors
///
/// See [`inductance_sweep_checkpointed`].
pub fn standard_node_sweep_resumable(
    node: &TechNode,
    n: usize,
    path: &Path,
) -> Result<Vec<SweepPoint>> {
    let grid = rlckit_numeric::grid::linspace(0.0, 4.95, n);
    inductance_sweep_checkpointed(
        &node.line(),
        &node.driver(),
        grid.into_iter().map(HenriesPerMeter::from_nano_per_milli),
        OptimizerOptions::default(),
        &RetryPolicy::default(),
        path,
        Parallelism::Auto,
    )
}

/// The Fig. 7 series: ratio of the optimized delay per unit length at
/// each `l` to the optimized delay per unit length at `l = 0`.
///
/// The `l = 0` normalizer uses the same two-pole machinery, so the ratio
/// is exactly 1 at the origin and isolates the inductance effect.
#[must_use]
pub fn delay_ratio_series(points: &[SweepPoint]) -> Vec<(f64, f64)> {
    let Some(first) = points.first() else {
        return Vec::new();
    };
    let base = first.delay_per_length;
    points
        .iter()
        .map(|p| (p.inductance.to_nano_per_milli(), p.delay_per_length / base))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(node: &TechNode, n: usize) -> Vec<SweepPoint> {
        standard_node_sweep(node, n).unwrap()
    }

    #[test]
    fn fig4_lcrit_is_comparable_to_l() {
        // Paper: l and l_crit are "of the same order of magnitude for most
        // practical values of l" — that is why the KM approximation fails.
        // The claim holds through the low, practical half of the sweep; at
        // the top of the range the optimum is deeply underdamped and
        // l_crit falls well below l (consistent with Fig. 4's downward
        // trend).
        for node in [TechNode::nm250(), TechNode::nm100()] {
            let pts = sweep(&node, 11);
            for p in pts.iter().skip(1) {
                let l = p.inductance.to_nano_per_milli();
                if l > 2.5 {
                    continue;
                }
                let ratio = p.l_crit / p.inductance.get();
                assert!(
                    (0.04..10.0).contains(&ratio),
                    "{}: l={} ratio {ratio}",
                    node.name(),
                    p.inductance
                );
            }
            // The ratio declines with l: the optimum drifts further into
            // the underdamped regime as inductance grows.
            let ratios: Vec<f64> = pts
                .iter()
                .skip(1)
                .map(|p| p.l_crit / p.inductance.get())
                .collect();
            for w in ratios.windows(2) {
                assert!(w[1] < w[0] * 1.05, "{}: ratio not declining", node.name());
            }
        }
    }

    #[test]
    fn fig4_100nm_lcrit_is_below_250nm_lcrit() {
        let p250 = sweep(&TechNode::nm250(), 6);
        let p100 = sweep(&TechNode::nm100(), 6);
        for (a, b) in p250.iter().zip(&p100).skip(1) {
            assert!(
                b.l_crit < a.l_crit,
                "at l={}: 100nm l_crit {} !< 250nm {}",
                a.inductance,
                b.l_crit,
                a.l_crit
            );
        }
    }

    #[test]
    fn fig5_h_ratio_rises_from_just_below_one() {
        let pts = sweep(&TechNode::nm250(), 6);
        assert!(pts[0].h_ratio < 1.0);
        assert!(pts[0].h_ratio > 0.8);
        for w in pts.windows(2) {
            assert!(w[1].h_ratio > w[0].h_ratio);
        }
    }

    #[test]
    fn fig6_k_ratio_falls_below_one() {
        let pts = sweep(&TechNode::nm100(), 6);
        for w in pts.windows(2) {
            assert!(w[1].k_ratio < w[0].k_ratio);
        }
        assert!(pts.last().unwrap().k_ratio < 0.8);
    }

    #[test]
    fn fig7_delay_ratio_magnitudes() {
        // Paper: ≈ 2× at 250 nm and ≈ 3.5× at 100 nm near l = 5 nH/mm.
        let r250 = delay_ratio_series(&sweep(&TechNode::nm250(), 6));
        let r100 = delay_ratio_series(&sweep(&TechNode::nm100(), 6));
        let end250 = r250.last().unwrap().1;
        let end100 = r100.last().unwrap().1;
        assert!(
            (1.5..2.7).contains(&end250),
            "250nm end ratio {end250}"
        );
        assert!(
            (2.5..4.5).contains(&end100),
            "100nm end ratio {end100}"
        );
        assert!(end100 > end250, "scaling increases susceptibility");
    }

    #[test]
    fn fig7_control_with_identical_c_still_shows_susceptibility() {
        // 100 nm with the 250 nm dielectric: identical c, still a much
        // larger ratio than 250 nm — the driver-scaling argument.
        let ctrl = TechNode::nm100_with_250nm_dielectric();
        let r_ctrl = delay_ratio_series(&sweep(&ctrl, 6));
        let r250 = delay_ratio_series(&sweep(&TechNode::nm250(), 6));
        let end_ctrl = r_ctrl.last().unwrap().1;
        let end250 = r250.last().unwrap().1;
        assert!(
            end_ctrl > 1.2 * end250,
            "control {end_ctrl} vs 250nm {end250}"
        );
    }

    #[test]
    fn fig7_identical_c_control_is_an_exact_invariance() {
        // b₁ and b₂ are exactly invariant under c→αc, h→h/√α, k→k·√α at
        // fixed l, so the *normalized* delay-ratio curve of the 100 nm
        // node with the 250 nm dielectric coincides with the plain 100 nm
        // curve — the paper's driver-scaling claim is an identity in the
        // two-pole framework.
        let base = delay_ratio_series(&sweep(&TechNode::nm100(), 5));
        let ctrl = delay_ratio_series(&sweep(&TechNode::nm100_with_250nm_dielectric(), 5));
        for (a, b) in base.iter().zip(&ctrl) {
            assert!((a.1 - b.1).abs() < 1e-6, "at l={}: {} vs {}", a.0, a.1, b.1);
        }
    }

    #[test]
    fn fig8_variation_penalty_band() {
        // Paper: worst-case ≈ 6 % at 250 nm, ≈ 12 % at 100 nm.
        let worst = |node: &TechNode| {
            sweep(node, 9)
                .iter()
                .map(SweepPoint::variation_penalty)
                .fold(0.0f64, f64::max)
        };
        let w250 = worst(&TechNode::nm250());
        let w100 = worst(&TechNode::nm100());
        assert!((1.0..1.25).contains(&w250), "250nm worst {w250}");
        assert!((1.0..1.35).contains(&w100), "100nm worst {w100}");
        assert!(w100 > w250, "scaling worsens the penalty");
    }

    #[test]
    fn damping_regime_transitions_along_the_sweep() {
        // Small l: overdamped; by the top of the range the optimum is
        // underdamped for the 100 nm node.
        let pts = sweep(&TechNode::nm100(), 9);
        assert_eq!(pts[0].damping, Damping::Overdamped);
        assert!(pts
            .iter()
            .any(|p| p.damping == Damping::Underdamped));
    }

    #[test]
    fn empty_series_is_handled() {
        assert!(delay_ratio_series(&[]).is_empty());
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let node = TechNode::nm100();
        let grid: Vec<HenriesPerMeter> = rlckit_numeric::grid::linspace(0.0, 4.95, 13)
            .into_iter()
            .map(HenriesPerMeter::from_nano_per_milli)
            .collect();
        let run = |parallelism| {
            inductance_sweep_with(
                &node.line(),
                &node.driver(),
                grid.iter().copied(),
                OptimizerOptions::default(),
                parallelism,
            )
            .unwrap()
        };
        let serial = run(Parallelism::Serial);
        for threads in [2, 5] {
            let parallel = run(Parallelism::Threads(threads));
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.inductance.get().to_bits(), p.inductance.get().to_bits());
                assert_eq!(s.h_opt.to_bits(), p.h_opt.to_bits(), "threads={threads}");
                assert_eq!(s.k_opt.to_bits(), p.k_opt.to_bits(), "threads={threads}");
                assert_eq!(
                    s.delay_per_length.to_bits(),
                    p.delay_per_length.to_bits(),
                    "threads={threads}"
                );
                assert_eq!(s.l_crit.to_bits(), p.l_crit.to_bits(), "threads={threads}");
                assert_eq!(s.damping, p.damping);
                assert_eq!(
                    s.rc_design_delay_per_length.to_bits(),
                    p.rc_design_delay_per_length.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }
}
