//! Campaign grids and their deterministic split into shards.
//!
//! A campaign is named by `(node, points)` and expands to the paper's
//! standard inductance grid `0 ≤ l < 5 nH/mm`. Everything downstream —
//! which shard owns which point, what fingerprint each shard file
//! carries — is a pure function of the campaign fingerprint, so every
//! process (and every relaunched generation of a crashed shard)
//! computes the same split without coordination.

use rlckit::checkpoint::{fingerprint64, CHECKPOINT_VERSION};
use rlckit::optimizer::OptimizerOptions;
use rlckit_tech::TechNode;
use rlckit_units::HenriesPerMeter;

/// The technology nodes a campaign can target, i.e. the three columns
/// of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignNode {
    /// 250 nm node.
    Nm250,
    /// 100 nm node.
    Nm100,
    /// 100 nm node with the 250 nm-era dielectric (ε ≈ 3.3).
    Nm100Eps33,
}

impl CampaignNode {
    /// Parses the CLI spelling of a node name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "250nm" => Some(Self::Nm250),
            "100nm" => Some(Self::Nm100),
            "100nm_eps33" => Some(Self::Nm100Eps33),
            _ => None,
        }
    }

    /// The canonical CLI spelling (inverse of [`CampaignNode::parse`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Nm250 => "250nm",
            Self::Nm100 => "100nm",
            Self::Nm100Eps33 => "100nm_eps33",
        }
    }

    /// The technology-node parameters.
    #[must_use]
    pub fn tech(self) -> TechNode {
        match self {
            Self::Nm250 => TechNode::nm250(),
            Self::Nm100 => TechNode::nm100(),
            Self::Nm100Eps33 => TechNode::nm100_with_250nm_dielectric(),
        }
    }
}

/// A named campaign: a technology node swept over the paper's standard
/// inductance range with `points` grid points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Technology node under sweep.
    pub node: CampaignNode,
    /// Number of inductance grid points.
    pub points: usize,
}

impl CampaignSpec {
    /// The optimizer options every campaign point uses.
    #[must_use]
    pub fn options() -> OptimizerOptions {
        OptimizerOptions::default()
    }

    /// The full inductance grid, in index order.
    #[must_use]
    pub fn grid(&self) -> Vec<HenriesPerMeter> {
        rlckit_numeric::grid::linspace(0.0, 4.95, self.points)
            .into_iter()
            .map(HenriesPerMeter::from_nano_per_milli)
            .collect()
    }

    /// The campaign fingerprint: hashes the log format version, the
    /// node's line and driver parameters, the optimizer options and the
    /// exact grid bits, so two campaigns agree on it iff they would
    /// compute identical numbers. The words and their order are part
    /// of the shard file format: changing them makes every existing
    /// campaign directory recompute from scratch.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let tech = self.node.tech();
        let (line, driver, options) = (tech.line(), tech.driver(), Self::options());
        let grid = self.grid();
        let header = [
            u64::from(CHECKPOINT_VERSION),
            line.resistance.get().to_bits(),
            line.capacitance.get().to_bits(),
            driver.output_resistance.get().to_bits(),
            driver.input_capacitance.get().to_bits(),
            driver.parasitic_capacitance.get().to_bits(),
            options.threshold.to_bits(),
            options.tolerance.to_bits(),
            options.max_iterations as u64,
            grid.len() as u64,
        ];
        fingerprint64(header.into_iter().chain(grid.iter().map(|l| l.get().to_bits())))
    }
}

/// Which shard (of `of`) owns grid point `index`.
///
/// The assignment hashes `(campaign fingerprint, index)`, so it is a
/// pure function of the campaign identity: every process computes the
/// same split, and points scatter across shards rather than forming
/// contiguous ranges (keeping per-shard work balanced even when solve
/// cost varies along the grid).
#[must_use]
pub fn shard_of_point(campaign_fp: u64, index: usize, of: usize) -> usize {
    assert!(of > 0, "shard count must be positive");
    (fingerprint64([campaign_fp, index as u64]) % of as u64) as usize
}

/// The `(index, inductance)` slice of the grid owned by `shard` of
/// `of`, in index order.
#[must_use]
pub fn shard_points(spec: &CampaignSpec, shard: usize, of: usize) -> Vec<(usize, HenriesPerMeter)> {
    let fp = spec.fingerprint();
    spec.grid()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| shard_of_point(fp, *i, of) == shard)
        .collect()
}

/// The fingerprint a shard's checkpoint file carries: the campaign
/// fingerprint extended with the shard's identity, so a shard file can
/// never be merged into the wrong campaign *or* the wrong slot.
#[must_use]
pub fn shard_fingerprint(campaign_fp: u64, shard: usize, of: usize) -> u64 {
    fingerprint64([campaign_fp, shard as u64, of as u64])
}

/// The on-disk name of a shard's checkpoint file inside the campaign
/// directory.
#[must_use]
pub fn shard_file_name(shard: usize, of: usize) -> String {
    format!("shard-{shard}-of-{of}.ckpt")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            node: CampaignNode::Nm100,
            points: 25,
        }
    }

    #[test]
    fn node_names_round_trip() {
        for node in [
            CampaignNode::Nm250,
            CampaignNode::Nm100,
            CampaignNode::Nm100Eps33,
        ] {
            assert_eq!(CampaignNode::parse(node.name()), Some(node));
        }
        assert_eq!(CampaignNode::parse("90nm"), None);
    }

    #[test]
    fn shard_split_partitions_the_grid() {
        let spec = spec();
        for of in [1usize, 2, 3, 7] {
            let mut seen = vec![false; spec.points];
            for shard in 0..of {
                for (i, _) in shard_points(&spec, shard, of) {
                    assert!(!seen[i], "point {i} assigned twice at of={of}");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "missing points at of={of}");
        }
    }

    #[test]
    fn fingerprints_separate_campaigns_and_shards() {
        let a = spec().fingerprint();
        let b = CampaignSpec {
            node: CampaignNode::Nm250,
            points: 25,
        }
        .fingerprint();
        let c = CampaignSpec {
            node: CampaignNode::Nm100,
            points: 26,
        }
        .fingerprint();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(shard_fingerprint(a, 0, 3), shard_fingerprint(a, 1, 3));
        assert_ne!(shard_fingerprint(a, 0, 3), shard_fingerprint(a, 0, 4));
        assert_ne!(shard_fingerprint(a, 0, 3), shard_fingerprint(b, 0, 3));
    }

    /// Pinned values written by earlier releases: a change here makes
    /// every existing campaign directory fail its fingerprint check and
    /// recompute from scratch, so it must be a deliberate format bump.
    #[test]
    fn fingerprints_match_the_values_existing_shard_files_carry() {
        let fp = spec().fingerprint();
        assert_eq!(fp, 0x1555_8d5f_cc57_0508);
        assert_eq!(shard_fingerprint(fp, 1, 3), 0xae67_cfd4_1361_d649);
        assert_eq!(shard_fingerprint(fp, 0, 1), 0xfd65_e59c_2676_ee8a);
    }

    #[test]
    fn shard_split_is_deterministic_across_calls() {
        let spec = spec();
        assert_eq!(shard_points(&spec, 1, 3), shard_points(&spec, 1, 3));
    }
}
