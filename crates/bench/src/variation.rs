//! The §3.2 inductance-variation study as a reusable, seeded flow.
//!
//! The line inductance is *pattern-dependent* and effectively random per
//! switching event, so a fixed design faces a delay **distribution**,
//! not a point. This module samples `l` from a triangular distribution
//! over the practical band for each candidate design (RC optimum, RLC
//! optimum at the band mode, RLC optimum at the worst case) and reports
//! the delay-per-unit-length spread — the jitter a clock/bus designer
//! must margin for.
//!
//! The flow is fully deterministic in its seed: the same
//! [`VariationConfig`] always produces bit-identical draws and summary
//! statistics, which the determinism test in `tests/determinism.rs`
//! pins down. Each sample evaluates on its own child generator derived
//! serially from the master seed via [`Rng::split`], so the draw
//! sequence — and therefore every summary statistic — is independent of
//! how the evaluation is scheduled: serial and parallel runs are
//! bit-identical for a given seed.

use rlckit::elmore::rc_optimum;
use rlckit::optimizer::{optimize_rlc, segment_delay, OptimizerOptions};
use rlckit_numeric::rng::Rng;
use rlckit_par::{par_map, Parallelism};
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::{HenriesPerMeter, Meters};

/// Configuration of the Monte-Carlo variation study.
#[derive(Debug, Clone)]
pub struct VariationConfig {
    /// Number of inductance draws.
    pub samples: usize,
    /// PRNG seed; equal seeds give bit-identical results.
    pub seed: u64,
    /// Lower edge of the practical inductance band, nH/mm.
    pub band_lo: f64,
    /// Upper edge of the practical inductance band, nH/mm.
    pub band_hi: f64,
    /// Mode (most likely value) of the triangular distribution, nH/mm.
    pub band_mode: f64,
}

impl Default for VariationConfig {
    fn default() -> Self {
        Self {
            samples: 4000,
            seed: 0xd1a1,
            band_lo: 0.4,
            band_hi: 3.0,
            band_mode: 1.2,
        }
    }
}

/// Summary statistics of delay per unit length (s/m) for one design.
#[derive(Debug, Clone)]
pub struct DesignOutcome {
    /// Human-readable design label.
    pub name: &'static str,
    /// Segment length of the fixed design.
    pub segment_length: Meters,
    /// Repeater size of the fixed design.
    pub repeater_size: f64,
    /// Mean delay per unit length over the draws.
    pub mean: f64,
    /// Standard deviation over the draws.
    pub std: f64,
    /// 95th percentile over the draws.
    pub p95: f64,
}

/// The study's raw draws plus per-design outcomes.
#[derive(Debug, Clone)]
pub struct VariationStudy {
    /// The sampled inductances, nH/mm, in draw order.
    pub draws: Vec<f64>,
    /// One outcome per candidate design.
    pub designs: Vec<DesignOutcome>,
}

/// Triangular sample on `[lo, hi]` with mode at `mode`.
#[must_use]
pub fn triangular(rng: &mut Rng, lo: f64, hi: f64, mode: f64) -> f64 {
    let u = rng.next_f64();
    let cut = (mode - lo) / (hi - lo);
    if u < cut {
        lo + ((hi - lo) * (mode - lo) * u).sqrt()
    } else {
        hi - ((hi - lo) * (hi - mode) * (1.0 - u)).sqrt()
    }
}

/// Runs the variation study for `node` under `cfg`.
///
/// # Panics
///
/// Panics if an optimizer or delay solve fails, which the paper's
/// parameter ranges do not trigger.
#[must_use]
pub fn run_variation_study(node: &TechNode, cfg: &VariationConfig) -> VariationStudy {
    run_variation_study_with(node, cfg, Parallelism::Auto)
}

/// [`run_variation_study`] with an explicit execution policy.
///
/// Per-sample child generators are derived serially from the master
/// seed up front, so [`Parallelism::Serial`] and any parallel policy
/// produce bit-identical draws and statistics.
///
/// # Panics
///
/// See [`run_variation_study`].
#[must_use]
pub fn run_variation_study_with(
    node: &TechNode,
    cfg: &VariationConfig,
    parallelism: Parallelism,
) -> VariationStudy {
    let line_at = |l_nh: f64| {
        LineRlc::new(
            node.line().resistance,
            HenriesPerMeter::from_nano_per_milli(l_nh),
            node.line().capacitance,
        )
    };

    let rc = rc_optimum(&node.line(), &node.driver());
    let mid = optimize_rlc(&line_at(cfg.band_mode), &node.driver(), OptimizerOptions::default())
        .expect("mid optimum");
    let worst = optimize_rlc(&line_at(cfg.band_hi), &node.driver(), OptimizerOptions::default())
        .expect("worst-case optimum");
    let designs: [(&'static str, Meters, f64); 3] = [
        ("RC optimum (l ignored)", rc.segment_length, rc.repeater_size),
        ("RLC @ band mode", mid.segment_length, mid.repeater_size),
        ("RLC @ band max", worst.segment_length, worst.repeater_size),
    ];

    // One child stream per sample, derived serially so the sequence
    // depends only on the seed, never on the worker schedule.
    let mut master = Rng::new(cfg.seed);
    let streams: Vec<Rng> = (0..cfg.samples).map(|_| master.split()).collect();

    let samples: Vec<(f64, [f64; 3])> = par_map(&streams, parallelism, |_, stream| {
        let mut rng = stream.clone();
        let l = triangular(&mut rng, cfg.band_lo, cfg.band_hi, cfg.band_mode);
        let line = line_at(l);
        let mut per_design = [0.0f64; 3];
        for (slot, &(_, h, k)) in per_design.iter_mut().zip(designs.iter()) {
            *slot = segment_delay(&line, &node.driver(), h, k, 0.5)?.get() / h.get();
        }
        Ok((l, per_design))
    })
    .expect("delay");

    let draws: Vec<f64> = samples.iter().map(|&(l, _)| l).collect();
    let outcomes = designs
        .iter()
        .enumerate()
        .map(|(i, &(name, h, k))| {
            let mut per_len: Vec<f64> = samples.iter().map(|&(_, d)| d[i]).collect();
            per_len.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let mean = per_len.iter().sum::<f64>() / per_len.len() as f64;
            let var = per_len.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                / per_len.len() as f64;
            let p95 = per_len[(0.95 * per_len.len() as f64) as usize];
            DesignOutcome {
                name,
                segment_length: h,
                repeater_size: k,
                mean,
                std: var.sqrt(),
                p95,
            }
        })
        .collect();

    VariationStudy {
        draws,
        designs: outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_stays_in_band_and_peaks_at_mode() {
        let mut rng = Rng::new(9);
        let (lo, hi, mode) = (0.4, 3.0, 1.2);
        let draws: Vec<f64> = (0..20_000).map(|_| triangular(&mut rng, lo, hi, mode)).collect();
        assert!(draws.iter().all(|&v| (lo..=hi).contains(&v)));
        // Triangular mean is (lo + hi + mode) / 3.
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - (lo + hi + mode) / 3.0).abs() < 0.02, "mean {mean}");
    }
}
