//! Shard records and the deterministic merge.
//!
//! Each shard checkpoint is a [`rlckit::checkpoint`] record log: one
//! line per grid point, keyed by its grid index, whose payload is the
//! point's outcome as `[tag, attempts, …payload…]` words. The log's
//! line checksum covers the index and every payload word, so a smudged
//! byte anywhere in a record — even one that still parses as valid hex
//! and decodes to a plausible value — is detected at merge time instead
//! of silently changing the merged CSV.
//!
//! The merge itself is strict by default: it refuses mismatched
//! fingerprints, mangled lines, duplicate, foreign or missing point
//! indices, each with a structured [`MergeError`]. Shards that the
//! supervisor gave up on (restart budget exhausted) are read
//! *leniently* — whatever checksummed records they managed to write
//! are kept, and their remaining points become explicit `failed` rows.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

use rlckit::checkpoint::{read_lenient, read_strict, StrictError};
use rlckit::sweeps::{decode_sweep_point, encode_sweep_point, SweepPoint};
use rlckit::PointOutcome;

use crate::grid::{shard_file_name, shard_fingerprint, shard_points, CampaignSpec};

/// How a point's solve went, stripped of the value (mirrors the
/// variants of [`PointOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeTag {
    /// First attempt converged on the rigorous path.
    Converged,
    /// Converged after retries.
    Retried,
    /// Value came from the derivative-free fallback.
    Degraded,
    /// No value; the whole ladder failed.
    Failed,
}

impl OutcomeTag {
    /// The CSV spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Converged => "converged",
            Self::Retried => "retried",
            Self::Degraded => "degraded",
            Self::Failed => "failed",
        }
    }

    fn to_word(self) -> u64 {
        match self {
            Self::Converged => 0,
            Self::Retried => 1,
            Self::Degraded => 2,
            Self::Failed => 3,
        }
    }

    fn from_word(word: u64) -> Option<Self> {
        match word {
            0 => Some(Self::Converged),
            1 => Some(Self::Retried),
            2 => Some(Self::Degraded),
            3 => Some(Self::Failed),
            _ => None,
        }
    }
}

/// One grid point's recorded outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// How the solve went.
    pub tag: OutcomeTag,
    /// Retries spent (see [`PointOutcome`]).
    pub attempts: u32,
    /// The solved point; `None` iff `tag` is [`OutcomeTag::Failed`].
    pub point: Option<SweepPoint>,
}

impl PointRecord {
    /// Strips a [`PointOutcome`] into its record form.
    #[must_use]
    pub fn from_outcome(outcome: PointOutcome<SweepPoint>) -> Self {
        match outcome {
            PointOutcome::Converged(point) => Self {
                tag: OutcomeTag::Converged,
                attempts: 0,
                point: Some(point),
            },
            PointOutcome::Retried { value, attempts } => Self {
                tag: OutcomeTag::Retried,
                attempts,
                point: Some(value),
            },
            PointOutcome::Degraded { value, attempts } => Self {
                tag: OutcomeTag::Degraded,
                attempts,
                point: Some(value),
            },
            PointOutcome::Failed { attempts, .. } => Self {
                tag: OutcomeTag::Failed,
                attempts,
                point: None,
            },
        }
    }

    /// An explicit failed row for a point a degraded shard never
    /// reached.
    #[must_use]
    pub fn failed_unreached() -> Self {
        Self {
            tag: OutcomeTag::Failed,
            attempts: 0,
            point: None,
        }
    }
}

/// Encodes a record as checkpoint words: `[tag, attempts, …9 point
/// words…]` (failed points omit the payload). The grid index is not
/// part of the payload: the checkpoint writes it as the line's key,
/// under the same checksum.
#[must_use]
pub fn encode_record(_index: usize, record: &PointRecord) -> Vec<u64> {
    let mut words = vec![record.tag.to_word(), u64::from(record.attempts)];
    if let Some(point) = &record.point {
        words.extend(encode_sweep_point(point));
    }
    words
}

/// Decodes the words written by [`encode_record`]; `None` for any word
/// count, tag or payload that the encoder could not have produced.
#[must_use]
pub fn decode_record(words: &[u64]) -> Option<PointRecord> {
    let tag = OutcomeTag::from_word(*words.first()?)?;
    let attempts = u32::try_from(*words.get(1)?).ok()?;
    let point = match tag {
        OutcomeTag::Failed => {
            if words.len() != 2 {
                return None;
            }
            None
        }
        _ => Some(decode_sweep_point(words.get(2..)?)?),
    };
    Some(PointRecord {
        tag,
        attempts,
        point,
    })
}

/// Why a merge refused a set of shard files.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// A shard file could not be opened or read.
    Io {
        /// Shard index.
        shard: usize,
        /// Underlying error text.
        detail: String,
    },
    /// The shard's first line is not a well-formed checkpoint header.
    MangledHeader {
        /// Shard index.
        shard: usize,
    },
    /// The shard's header fingerprint (or version) belongs to a
    /// different campaign, shard slot, or shard count.
    FingerprintMismatch {
        /// Shard index.
        shard: usize,
        /// What this campaign expects.
        expected: u64,
        /// What the file carries.
        found: u64,
    },
    /// A non-header line does not parse or fails its checksum (a
    /// smudged byte, a torn or spliced write, …).
    MangledLine {
        /// Shard index.
        shard: usize,
        /// 1-based line number in the file.
        line: usize,
    },
    /// A line checksums, but its words do not decode as a record
    /// (wrong payload length, bad tag, …).
    CorruptRecord {
        /// Shard index.
        shard: usize,
        /// Grid index of the offending record.
        index: usize,
    },
    /// The shard recorded the same grid point twice.
    DuplicatePoint {
        /// Shard index.
        shard: usize,
        /// Grid index recorded twice.
        index: usize,
    },
    /// The shard recorded a grid point the split does not assign to it.
    ForeignPoint {
        /// Shard index.
        shard: usize,
        /// Grid index that belongs elsewhere.
        index: usize,
    },
    /// The shard is missing one of its assigned grid points (it never
    /// ran to completion).
    MissingPoint {
        /// Shard index.
        shard: usize,
        /// Grid index never recorded.
        index: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { shard, detail } => write!(f, "shard {shard}: io error: {detail}"),
            Self::MangledHeader { shard } => {
                write!(f, "shard {shard}: first line is not a checkpoint header")
            }
            Self::FingerprintMismatch {
                shard,
                expected,
                found,
            } => write!(
                f,
                "shard {shard}: fingerprint {found:#018x} does not match expected {expected:#018x} \
                 (different campaign, shard slot, or shard count)"
            ),
            Self::MangledLine { shard, line } => {
                write!(f, "shard {shard}: line {line} does not parse or checksum")
            }
            Self::CorruptRecord { shard, index } => {
                write!(f, "shard {shard}: record for point {index} does not decode")
            }
            Self::DuplicatePoint { shard, index } => {
                write!(f, "shard {shard}: point {index} recorded twice")
            }
            Self::ForeignPoint { shard, index } => write!(
                f,
                "shard {shard}: point {index} is not assigned to this shard"
            ),
            Self::MissingPoint { shard, index } => write!(
                f,
                "shard {shard}: assigned point {index} missing (shard incomplete)"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Reads one shard file strictly: every line must checksum, every
/// record must decode, the point set must be exactly the shard's
/// assigned slice. Returns the records keyed by grid index.
///
/// # Errors
///
/// Every way the file can deviate from what [`crate::shard::run_shard`]
/// writes maps to a distinct [`MergeError`] variant.
pub fn read_shard_strict(
    spec: &CampaignSpec,
    dir: &Path,
    shard: usize,
    of: usize,
) -> Result<BTreeMap<usize, PointRecord>, MergeError> {
    let expected = shard_fingerprint(spec.fingerprint(), shard, of);
    let path = dir.join(shard_file_name(shard, of));
    let lines = read_strict(&path, expected).map_err(|e| match e {
        StrictError::Io(e) => MergeError::Io {
            shard,
            detail: format!("{}: {e}", path.display()),
        },
        StrictError::BadLine(1) => MergeError::MangledHeader { shard },
        StrictError::BadLine(line) => MergeError::MangledLine { shard, line },
        StrictError::Mismatch(found) => MergeError::FingerprintMismatch {
            shard,
            expected,
            found,
        },
    })?;
    let assigned = assigned_points(spec, shard, of);
    let mut records = BTreeMap::new();
    for words in lines {
        let index = usize::try_from(words[0]).unwrap_or(usize::MAX);
        if !assigned.contains(&index) {
            return Err(MergeError::ForeignPoint { shard, index });
        }
        let Some(record) = decode_record(&words[1..]) else {
            return Err(MergeError::CorruptRecord { shard, index });
        };
        if records.insert(index, record).is_some() {
            return Err(MergeError::DuplicatePoint { shard, index });
        }
    }
    if let Some(&index) = assigned.iter().find(|i| !records.contains_key(i)) {
        return Err(MergeError::MissingPoint { shard, index });
    }
    Ok(records)
}

/// Reads one shard file leniently, for shards the supervisor degraded:
/// bad lines, undecodable records and foreign points are dropped, and
/// of duplicate points the last wins; a missing or mismatched file
/// yields no records at all. Never fails.
#[must_use]
pub fn read_shard_lenient(
    spec: &CampaignSpec,
    dir: &Path,
    shard: usize,
    of: usize,
) -> BTreeMap<usize, PointRecord> {
    let expected = shard_fingerprint(spec.fingerprint(), shard, of);
    let lines = read_lenient(&dir.join(shard_file_name(shard, of)), expected)
        .ok()
        .flatten()
        .unwrap_or_default();
    let assigned = assigned_points(spec, shard, of);
    lines
        .into_iter()
        .filter_map(|words| {
            let index = usize::try_from(words[0])
                .ok()
                .filter(|i| assigned.contains(i))?;
            Some((index, decode_record(&words[1..])?))
        })
        .collect()
}

fn assigned_points(spec: &CampaignSpec, shard: usize, of: usize) -> BTreeSet<usize> {
    shard_points(spec, shard, of)
        .into_iter()
        .map(|(i, _)| i)
        .collect()
}

/// A merged campaign: one record per grid point, in index order.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedCampaign {
    /// Per-point records keyed by grid index; complete over the grid.
    pub records: BTreeMap<usize, PointRecord>,
    /// How many rows are `failed` placeholders for points that degraded
    /// shards never reached (0 for a fully healthy campaign).
    pub unreached: usize,
}

/// Merges `of` shard files from `dir` into one complete campaign.
///
/// Shards listed in `degraded` are read leniently and their unreached
/// points become explicit failed rows; every other shard must be
/// complete and pristine. The result is a pure function of the shard
/// file contents — merge order cannot affect it, so the merged CSV is
/// byte-identical to a single-process run of the same campaign.
///
/// # Errors
///
/// Any strict-read violation on a non-degraded shard.
pub fn merge_shards(
    spec: &CampaignSpec,
    dir: &Path,
    of: usize,
    degraded: &BTreeSet<usize>,
) -> Result<MergedCampaign, MergeError> {
    let mut records = BTreeMap::new();
    let mut unreached = 0usize;
    for shard in 0..of {
        if degraded.contains(&shard) {
            let partial = read_shard_lenient(spec, dir, shard, of);
            for (index, _) in shard_points(spec, shard, of) {
                let record = partial
                    .get(&index)
                    .cloned()
                    .unwrap_or_else(PointRecord::failed_unreached);
                if record.point.is_none() && !partial.contains_key(&index) {
                    unreached += 1;
                }
                records.insert(index, record);
            }
        } else {
            records.extend(read_shard_strict(spec, dir, shard, of)?);
        }
    }
    Ok(MergedCampaign { records, unreached })
}

/// Renders a merged campaign as the canonical CSV.
///
/// Float cells use Rust's shortest-round-trip `Display`, so the bytes
/// are an exact function of the solved bits; failed rows leave the
/// value cells empty. This is the byte-identity surface the kill/merge
/// property tests compare.
#[must_use]
pub fn render_csv(spec: &CampaignSpec, merged: &MergedCampaign) -> String {
    let grid = spec.grid();
    let mut out = String::from(
        "index,l_nh_per_mm,h_opt_m,k_opt,delay_s_per_m,h_ratio,k_ratio,l_crit_h_per_m,\
         damping,rc_design_delay_s_per_m,outcome,attempts\n",
    );
    for (index, l) in grid.iter().enumerate() {
        let record = merged
            .records
            .get(&index)
            .expect("merge produces a complete grid");
        let l_label = l.to_nano_per_milli();
        match &record.point {
            Some(p) => {
                let damping = match p.damping {
                    rlckit_tline::Damping::Overdamped => "overdamped",
                    rlckit_tline::Damping::CriticallyDamped => "critical",
                    rlckit_tline::Damping::Underdamped => "underdamped",
                };
                out.push_str(&format!(
                    "{index},{l_label},{},{},{},{},{},{},{damping},{},{},{}\n",
                    p.h_opt,
                    p.k_opt,
                    p.delay_per_length,
                    p.h_ratio,
                    p.k_ratio,
                    p.l_crit,
                    p.rc_design_delay_per_length,
                    record.tag.label(),
                    record.attempts,
                ));
            }
            None => out.push_str(&format!(
                "{index},{l_label},,,,,,,,,{},{}\n",
                record.tag.label(),
                record.attempts,
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit::checkpoint::{format_line, parse_line};

    fn sample_point() -> SweepPoint {
        SweepPoint {
            inductance: rlckit_units::HenriesPerMeter::from_nano_per_milli(1.8),
            h_opt: 1.25e-3,
            k_opt: 52.0,
            delay_per_length: 1.7e-5,
            h_ratio: 1.1,
            k_ratio: 0.9,
            l_crit: 2.1e-6,
            damping: rlckit_tline::Damping::Overdamped,
            rc_design_delay_per_length: 1.9e-5,
        }
    }

    #[test]
    fn record_round_trips_all_tags() {
        for (tag, attempts, point) in [
            (OutcomeTag::Converged, 0, Some(sample_point())),
            (OutcomeTag::Retried, 2, Some(sample_point())),
            (OutcomeTag::Degraded, 5, Some(sample_point())),
            (OutcomeTag::Failed, 3, None),
        ] {
            let record = PointRecord {
                tag,
                attempts,
                point,
            };
            let words = encode_record(7, &record);
            assert_eq!(decode_record(&words), Some(record));
        }
    }

    #[test]
    fn record_checksum_binds_the_index() {
        let record = PointRecord {
            tag: OutcomeTag::Converged,
            attempts: 0,
            point: Some(sample_point()),
        };
        let mut words = vec![7];
        words.extend(encode_record(7, &record));
        let line = format_line(&words).replacen("0000000000000007", "0000000000000008", 1);
        assert_eq!(parse_line(line.trim_end().as_bytes()), None);
    }

    #[test]
    fn record_rejects_any_flipped_word_bit() {
        let record = PointRecord {
            tag: OutcomeTag::Retried,
            attempts: 1,
            point: Some(sample_point()),
        };
        let mut words = vec![3];
        words.extend(encode_record(3, &record));
        let line = format_line(&words);
        assert_eq!(
            decode_record(&parse_line(line.trim_end().as_bytes()).unwrap()[1..]),
            Some(record)
        );
        for i in 0..=words.len() {
            let mut mutated = line.trim_end().to_string().into_bytes();
            // Change word `i`'s last hex digit (`i == len` is the
            // checksum word itself).
            let at = 17 * i + 15;
            mutated[at] = if mutated[at] == b'0' { b'1' } else { b'0' };
            assert_eq!(parse_line(&mutated), None, "word {i} flip accepted");
        }
    }

    #[test]
    fn record_rejects_truncated_payload() {
        let record = PointRecord {
            tag: OutcomeTag::Converged,
            attempts: 0,
            point: Some(sample_point()),
        };
        let words = encode_record(0, &record);
        assert_eq!(decode_record(&words[..words.len() - 1]), None);
        assert_eq!(decode_record(&[]), None);
    }
}
