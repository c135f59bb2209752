//! The per-process shard runner.
//!
//! One shard owns a deterministic slice of the campaign grid (see
//! [`crate::grid::shard_of_point`]) and computes it serially, appending
//! one checksummed record per point to its checkpoint log as it
//! completes — so the supervisor can use file growth as a heartbeat,
//! and a kill loses at most the in-flight point. On relaunch the
//! checkpoint is reopened, completed points are skipped, and because
//! every point's arithmetic and fault scope depend only on its grid
//! index, the resumed shard's bits are identical to an uninterrupted
//! run.
//!
//! When `RLCKIT_SHARD_FAULTS=<seed>:<rate>[:abort|hang]` is armed, the
//! runner consults the seeded schedule *before computing each
//! not-yet-checkpointed point* and aborts (or hangs) the whole process
//! when it fires — the process-level analogue of `RLCKIT_FAULTS`, used
//! to exercise the supervisor's kill/relaunch/resume machinery
//! deterministically. The schedule is keyed on the relaunch generation,
//! so a relaunched shard eventually draws a clean run.

use std::path::Path;

use rlckit::checkpoint::CheckpointFile;
use rlckit::elmore::rc_optimum;
use rlckit::optimizer::RetryPolicy;
use rlckit::sweeps::sweep_point_outcome;
use rlckit_numeric::Result;
use rlckit_trace::counter;

use crate::grid::{shard_file_name, shard_fingerprint, shard_points, CampaignSpec};
use crate::merge::{decode_record, encode_record, PointRecord};

/// What one shard run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardSummary {
    /// Points computed by this run.
    pub computed: usize,
    /// Points served from the checkpoint of a previous generation.
    pub resumed: usize,
    /// Points (computed this run) that failed their whole retry ladder.
    pub failed: usize,
}

/// Runs shard `shard` of `of` for `spec`, checkpointing into `dir`.
///
/// `generation` is the relaunch count of this shard (0 for the first
/// launch); it keys the `RLCKIT_SHARD_FAULTS` schedule and has **no
/// effect on any computed number**.
///
/// # Errors
///
/// Checkpoint I/O failures. Per-point solver failures are recorded as
/// `failed` rows, not surfaced.
pub fn run_shard(
    spec: &CampaignSpec,
    shard: usize,
    of: usize,
    dir: &Path,
    generation: u32,
) -> Result<ShardSummary> {
    std::fs::create_dir_all(dir).map_err(|e| {
        rlckit_numeric::NumericError::InvalidInput(format!(
            "campaign dir {}: {e}",
            dir.display()
        ))
    })?;
    let fingerprint = shard_fingerprint(spec.fingerprint(), shard, of);
    let path = dir.join(shard_file_name(shard, of));
    let (checkpoint, completed) = CheckpointFile::open(&path, fingerprint)?;

    let tech = spec.node.tech();
    let (line, driver) = (tech.line(), tech.driver());
    let rc = rc_optimum(&line, &driver);
    let policy = RetryPolicy::default();
    let fault = rlckit_fault::shard::env_spec();

    let mut summary = ShardSummary::default();
    for (index, inductance) in shard_points(spec, shard, of) {
        // A checkpointed record only counts as done if it decodes
        // (the log already dropped lines that fail their checksum);
        // anything else is recomputed in place.
        if let Some(words) = completed.get(&index) {
            if decode_record(words).is_some() {
                summary.resumed += 1;
                counter!("campaign.points.resumed").incr();
                continue;
            }
        }
        if let Some(fault) = fault {
            if rlckit_fault::shard::should_fault(&fault, generation, index as u64) {
                match fault.mode {
                    rlckit_fault::shard::ShardFaultMode::Abort => {
                        eprintln!(
                            "rlckit-campaign: injected shard abort \
                             (shard {shard}, generation {generation}, point {index})"
                        );
                        std::process::abort();
                    }
                    rlckit_fault::shard::ShardFaultMode::Hang => {
                        eprintln!(
                            "rlckit-campaign: injected shard hang \
                             (shard {shard}, generation {generation}, point {index})"
                        );
                        loop {
                            std::thread::sleep(std::time::Duration::from_secs(3600));
                        }
                    }
                }
            }
        }
        let outcome = sweep_point_outcome(
            &line,
            &driver,
            &rc,
            index,
            inductance,
            CampaignSpec::options(),
            &policy,
        );
        let record = PointRecord::from_outcome(outcome);
        if record.point.is_none() {
            summary.failed += 1;
        }
        checkpoint.append(index, &encode_record(index, &record))?;
        summary.computed += 1;
        counter!("campaign.points.computed").incr();
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CampaignNode;
    use crate::merge::{merge_shards, read_shard_strict, render_csv};
    use rlckit::sweeps::{encode_sweep_point, standard_node_sweep};
    use std::collections::BTreeSet;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rlckit-campaign-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn spec() -> CampaignSpec {
        CampaignSpec {
            node: CampaignNode::Nm100,
            points: 9,
        }
    }

    /// Every point's exact bits, as the in-process sweep engine
    /// computes them.
    fn plain_bits(spec: &CampaignSpec) -> Vec<Vec<u64>> {
        standard_node_sweep(&spec.node.tech(), spec.points)
            .unwrap()
            .iter()
            .map(encode_sweep_point)
            .collect()
    }

    /// Every point's exact bits, as the strict merge reads them back
    /// from a one-shard campaign directory.
    fn merged_bits(spec: &CampaignSpec, dir: &std::path::Path) -> Vec<Vec<u64>> {
        merge_shards(spec, dir, 1, &BTreeSet::new())
            .unwrap()
            .records
            .values()
            .map(|record| encode_sweep_point(record.point.as_ref().expect("a solved point")))
            .collect()
    }

    /// Runs the one-shard campaign into a fresh `dir` and returns its
    /// checkpoint path and contents.
    fn completed_log(spec: &CampaignSpec, dir: &std::path::Path) -> (std::path::PathBuf, String) {
        let full = run_shard(spec, 0, 1, dir, 0).unwrap();
        assert_eq!((full.computed, full.resumed), (spec.points, 0));
        let path = dir.join(shard_file_name(0, 1));
        let contents = std::fs::read_to_string(&path).unwrap();
        (path, contents)
    }

    /// A shard computes the in-process sweep's bits. A kill leaves the
    /// header, some whole records and a torn line; the next run keeps
    /// exactly the whole records, computes the rest, and the bits still
    /// match. A run after that computes nothing.
    #[test]
    fn a_killed_shard_resumes_bit_identically() {
        let spec = spec();
        let dir = temp_dir("killed");
        let (path, contents) = completed_log(&spec, &dir);
        assert_eq!(merged_bits(&spec, &dir), plain_bits(&spec));
        let kept = 3;
        let mut truncated: String = contents
            .lines()
            .take(1 + kept)
            .map(|l| format!("{l}\n"))
            .collect();
        let torn = contents.lines().nth(1 + kept).expect("a further record");
        truncated.push_str(&torn[..torn.len() / 2]);
        std::fs::write(&path, truncated).unwrap();

        let resumed = run_shard(&spec, 0, 1, &dir, 1).unwrap();
        assert_eq!(resumed.resumed, kept, "resume must keep exactly the whole records");
        assert_eq!(resumed.computed, spec.points - kept, "resume must compute the rest");
        assert_eq!(merged_bits(&spec, &dir), plain_bits(&spec));

        let again = run_shard(&spec, 0, 1, &dir, 2).unwrap();
        assert_eq!((again.computed, again.resumed), (0, spec.points));
        assert_eq!(merged_bits(&spec, &dir), plain_bits(&spec));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One hex digit changed in a record still parses as a plausible
    /// value; its checksum must make the next run recompute that point
    /// rather than adopt the smudged bits.
    #[test]
    fn a_smudged_record_is_recomputed_bit_identically() {
        let spec = spec();
        let dir = temp_dir("smudged");
        let (path, contents) = completed_log(&spec, &dir);
        let mut lines: Vec<String> = contents.lines().map(str::to_string).collect();
        let mut bytes = lines[1].clone().into_bytes();
        let at = (bytes.len() / 2..bytes.len())
            .find(|&i| bytes[i].is_ascii_hexdigit())
            .expect("a hex digit in the record");
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        lines[1] = String::from_utf8(bytes).unwrap();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let resumed = run_shard(&spec, 0, 1, &dir, 1).unwrap();
        assert_eq!(resumed.resumed, spec.points - 1);
        assert_eq!(resumed.computed, 1, "the smudged point must be recomputed");
        assert_eq!(merged_bits(&spec, &dir), plain_bits(&spec));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_run_merges_byte_identical_to_solo() {
        let spec = spec();
        let solo_dir = temp_dir("solo");
        let sharded_dir = temp_dir("sharded");

        run_shard(&spec, 0, 1, &solo_dir, 0).unwrap();
        let solo = render_csv(
            &spec,
            &merge_shards(&spec, &solo_dir, 1, &BTreeSet::new()).unwrap(),
        );

        for shard in 0..3 {
            run_shard(&spec, shard, 3, &sharded_dir, 0).unwrap();
        }
        let sharded = render_csv(
            &spec,
            &merge_shards(&spec, &sharded_dir, 3, &BTreeSet::new()).unwrap(),
        );

        assert_eq!(solo, sharded);
        assert!(solo.lines().count() == spec.points + 1);
        let _ = std::fs::remove_dir_all(&solo_dir);
        let _ = std::fs::remove_dir_all(&sharded_dir);
    }

    #[test]
    fn rerun_resumes_every_point_without_recomputing() {
        let spec = spec();
        let dir = temp_dir("resume");
        let first = run_shard(&spec, 0, 2, &dir, 0).unwrap();
        assert_eq!(first.resumed, 0);
        let again = run_shard(&spec, 0, 2, &dir, 1).unwrap();
        assert_eq!(again.computed, 0);
        assert_eq!(again.resumed, first.computed);
        read_shard_strict(&spec, &dir, 0, 2).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
