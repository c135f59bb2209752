//! Merge validation: every way a shard file can deviate from what the
//! shard runner writes must map to a structured [`MergeError`] — and
//! no corruption may ever *silently* change the merged CSV.
//!
//! The seeded single-byte smudge property drives all three users of
//! `rlckit::checkpoint`'s record log with one generator: any byte of
//! any shard file overwritten with any value either leaves the merged
//! bytes identical (the smudge was a no-op) or is refused outright; a
//! resumed shard either keeps a point's bits or recomputes it; and a
//! smudged serve snapshot either preloads an entry bit-identically or
//! drops it.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use rlckit::checkpoint::{format_line, parse_line};
use rlckit::memo::{MemoKey, OptimumMemo};
use rlckit::optimizer::{OptimizerOptions, RlcOptimum};
use rlckit_campaign::grid::{
    shard_file_name, shard_of_point, shard_points, CampaignNode, CampaignSpec,
};
use rlckit_campaign::merge::{
    encode_record, merge_shards, read_shard_strict, render_csv, MergeError, OutcomeTag,
    PointRecord,
};
use rlckit_campaign::shard::run_shard;
use rlckit_serve::snapshot::{self, LoadOutcome};
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::HenriesPerMeter;

const OF: usize = 3;

fn spec() -> CampaignSpec {
    CampaignSpec {
        node: CampaignNode::Nm100,
        points: 7,
    }
}

/// Computes the 3-shard campaign once per process (tests run on
/// parallel threads and must not race the shard writes), returning its
/// directory and clean merged CSV.
fn baseline() -> &'static (PathBuf, String) {
    static BASE: std::sync::OnceLock<(PathBuf, String)> = std::sync::OnceLock::new();
    BASE.get_or_init(|| {
        let mut dir = std::env::temp_dir();
        dir.push(format!("rlckit-merge-validation-base-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = spec();
        for shard in 0..OF {
            run_shard(&spec, shard, OF, &dir, 0).expect("shard run");
        }
        let merged = merge_shards(&spec, &dir, OF, &BTreeSet::new()).expect("clean merge");
        let csv = render_csv(&spec, &merged);
        (dir, csv)
    })
}

/// Copies the baseline shard files into a fresh directory the test can
/// corrupt freely.
fn scratch_copy(base: &Path, tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "rlckit-merge-validation-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    for shard in 0..OF {
        let name = shard_file_name(shard, OF);
        fs::copy(base.join(&name), dir.join(&name)).expect("copy shard file");
    }
    dir
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(shard_file_name(shard, OF))
}

fn merge(dir: &Path) -> Result<String, MergeError> {
    let spec = spec();
    merge_shards(&spec, dir, OF, &BTreeSet::new()).map(|m| render_csv(&spec, &m))
}

/// A shard index guaranteed to own at least one point (7 points over 3
/// shards: some shard could be empty, so find a populated one).
fn populated_shard(dir: &Path) -> (usize, Vec<String>) {
    for shard in 0..OF {
        let text = fs::read_to_string(shard_path(dir, shard)).expect("read shard");
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        if lines.len() > 1 {
            return (shard, lines);
        }
    }
    panic!("no shard owns any point");
}

fn write_lines(dir: &Path, shard: usize, lines: &[String]) {
    fs::write(shard_path(dir, shard), lines.join("\n") + "\n").unwrap();
}

#[test]
fn missing_shard_file_is_an_io_error() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "missing-file");
    fs::remove_file(shard_path(&dir, 1)).unwrap();
    assert!(matches!(merge(&dir), Err(MergeError::Io { shard: 1, .. })));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mangled_header_is_rejected() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "mangled-header");
    let path = shard_path(&dir, 0);
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, text.replacen('0', "x", 1)).unwrap();
    assert_eq!(merge(&dir), Err(MergeError::MangledHeader { shard: 0 }));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn swapped_shard_files_are_a_fingerprint_mismatch() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "swapped");
    // Shard 0's file placed in shard 1's slot (and vice versa): same
    // campaign, wrong slot — the shard-identity fingerprint catches it.
    let a = fs::read(shard_path(&dir, 0)).unwrap();
    let b = fs::read(shard_path(&dir, 1)).unwrap();
    fs::write(shard_path(&dir, 0), b).unwrap();
    fs::write(shard_path(&dir, 1), a).unwrap();
    assert!(matches!(
        merge(&dir),
        Err(MergeError::FingerprintMismatch { shard: 0, .. })
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn foreign_campaign_file_is_a_fingerprint_mismatch() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "foreign-campaign");
    // A shard of a *different* campaign (other grid size) in slot 2.
    let other = CampaignSpec {
        node: CampaignNode::Nm100,
        points: 5,
    };
    let mut other_dir = std::env::temp_dir();
    other_dir.push(format!("rlckit-merge-validation-other-{}", std::process::id()));
    let _ = fs::remove_dir_all(&other_dir);
    run_shard(&other, 2, OF, &other_dir, 0).expect("other campaign shard");
    fs::copy(other_dir.join(shard_file_name(2, OF)), shard_path(&dir, 2)).unwrap();
    assert!(matches!(
        merge(&dir),
        Err(MergeError::FingerprintMismatch { shard: 2, .. })
    ));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&other_dir);
}

#[test]
fn mangled_point_line_is_rejected_with_its_line_number() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "mangled-line");
    let (shard, mut lines) = populated_shard(&dir);
    lines[1] = lines[1].replacen(' ', "  ", 1);
    write_lines(&dir, shard, &lines);
    assert_eq!(merge(&dir), Err(MergeError::MangledLine { shard, line: 2 }));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn value_preserving_hex_smudge_is_a_mangled_line() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "hex-smudge");
    let (shard, mut lines) = populated_shard(&dir);
    // Change one hex digit of a payload word: the line is still valid
    // hex, but its checksum catches it.
    let at = 17 * 4 + 5;
    let mut bytes = lines[1].clone().into_bytes();
    bytes[at] = if bytes[at] == b'f' { b'0' } else { b'f' };
    lines[1] = String::from_utf8(bytes).unwrap();
    write_lines(&dir, shard, &lines);
    assert_eq!(merge(&dir), Err(MergeError::MangledLine { shard, line: 2 }));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_last_line_is_a_mangled_line() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "torn-tail");
    let (shard, mut lines) = populated_shard(&dir);
    let last = lines.len() - 1;
    let half = lines[last].len() / 2;
    lines[last].truncate(half);
    fs::write(shard_path(&dir, shard), lines.join("\n")).unwrap();
    assert_eq!(
        merge(&dir),
        Err(MergeError::MangledLine {
            shard,
            line: last + 1
        })
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A torn write followed by the next complete line (the newline lost
/// with the tail) must not donate one point's index to another's words.
#[test]
fn torn_write_spliced_with_the_next_line_is_a_mangled_line() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "splice");
    let (shard, mut lines) = populated_shard(&dir);
    let next = format_line(&[1 << 40, 0]);
    lines[1] = format!("{}{}", &lines[1][..17 * 3], next.trim_end());
    write_lines(&dir, shard, &lines);
    assert_eq!(merge(&dir), Err(MergeError::MangledLine { shard, line: 2 }));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checksummed_but_undecodable_record_is_corrupt() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "corrupt-record");
    let (shard, mut lines) = populated_shard(&dir);
    // A correctly checksummed line whose tag word no encoder writes.
    let mut words = parse_line(lines[1].as_bytes()).expect("pristine line");
    let index = words[0] as usize;
    words[1] = 9;
    lines[1] = format_line(&words).trim_end().to_string();
    write_lines(&dir, shard, &lines);
    assert_eq!(merge(&dir), Err(MergeError::CorruptRecord { shard, index }));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn duplicated_point_line_is_rejected() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "duplicate");
    let (shard, mut lines) = populated_shard(&dir);
    let dup = lines[1].clone();
    lines.push(dup);
    write_lines(&dir, shard, &lines);
    assert!(matches!(
        merge(&dir),
        Err(MergeError::DuplicatePoint { shard: s, .. }) if s == shard
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checksummed_record_for_someone_elses_point_is_foreign() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "foreign-point");
    let spec = spec();
    let fp = spec.fingerprint();
    let (shard, mut lines) = populated_shard(&dir);
    let foreign_index = (0..spec.points)
        .find(|&i| shard_of_point(fp, i, OF) != shard)
        .expect("some point belongs elsewhere");
    // A perfectly well-formed, correctly checksummed record — just for
    // a point the split assigns to a different shard.
    let words = encode_record(
        foreign_index,
        &PointRecord {
            tag: OutcomeTag::Failed,
            attempts: 1,
            point: None,
        },
    );
    let line = format_line(&[&[foreign_index as u64][..], &words].concat());
    lines.push(line.trim_end().to_string());
    write_lines(&dir, shard, &lines);
    assert_eq!(
        merge(&dir),
        Err(MergeError::ForeignPoint {
            shard,
            index: foreign_index
        })
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deleted_point_line_is_a_missing_point() {
    let (base, _) = baseline();
    let dir = scratch_copy(base, "missing-point");
    let (shard, mut lines) = populated_shard(&dir);
    lines.remove(1);
    write_lines(&dir, shard, &lines);
    assert!(matches!(
        merge(&dir),
        Err(MergeError::MissingPoint { shard: s, .. }) if s == shard
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn read_shard_strict_accepts_exactly_what_the_runner_wrote() {
    let (base, csv) = baseline();
    let spec = spec();
    let mut total = 0;
    for shard in 0..OF {
        total += read_shard_strict(&spec, base, shard, OF)
            .expect("pristine shard")
            .len();
    }
    assert_eq!(total, spec.points);
    assert_eq!(csv.lines().count(), spec.points + 1);
}

/// A snapshot of a few solved memo entries, written once per process,
/// with the entries it holds.
fn snapshot_baseline() -> &'static (PathBuf, Vec<(MemoKey, RlcOptimum)>) {
    static BASE: std::sync::OnceLock<(PathBuf, Vec<(MemoKey, RlcOptimum)>)> =
        std::sync::OnceLock::new();
    BASE.get_or_init(|| {
        let node = TechNode::nm100();
        let memo = OptimumMemo::sharded(2, 64);
        for i in 0..3 {
            let line = LineRlc::new(
                node.line().resistance,
                HenriesPerMeter::from_nano_per_milli(0.5 + 0.7 * f64::from(i)),
                node.line().capacitance,
            );
            memo.optimum(&line, &node.driver(), OptimizerOptions::default())
                .expect("memo solve");
        }
        let mut path = std::env::temp_dir();
        path.push(format!(
            "rlckit-merge-validation-{}.snap",
            std::process::id()
        ));
        snapshot::save_atomic(&path, &memo).expect("save snapshot");
        (path, memo.export())
    })
}

fn optimum_bits(v: &RlcOptimum) -> [u64; 8] {
    [
        v.segment_length.get().to_bits(),
        v.repeater_size.to_bits(),
        v.segment_delay.get().to_bits(),
        v.damping as u64,
        v.critical_inductance.get().to_bits(),
        v.iterations as u64,
        u64::from(v.used_fallback),
        u64::from(v.restarts),
    ]
}

/// The single-byte smudge fuzz over all three record-log formats:
/// overwrite one random byte of one random shard file (and of the
/// snapshot) with one random value.
///
/// - The strict merge must never panic, and must never *accept* bytes
///   that change the merged CSV — every outcome is either "identical
///   bytes" (the smudge was a no-op) or a structured refusal.
/// - Resuming the smudged shard file as a checkpoint keeps every point
///   it still holds bit-identical and recomputes the rest, so the
///   resumed campaign merges to the clean CSV.
/// - Loading the smudged snapshot preloads each entry bit-identically
///   or not at all.
#[test]
fn random_single_byte_smudges_never_silently_change_the_merge() {
    let (base, clean) = baseline();
    let (snap, entries) = snapshot_baseline();
    let snap_pristine = fs::read(snap).expect("read snapshot");
    let dir = scratch_copy(base, "smudge-fuzz");
    let spec = spec();
    rlckit_check::Check::new().cases(120).seed(0x5A5A).run(
        &rlckit_check::gen::tuple3(
            rlckit_check::gen::usize_range(0, OF - 1),
            rlckit_check::gen::usize_range(0, 1 << 20),
            rlckit_check::gen::usize_range(0, 255),
        ),
        |&(shard, offset, byte)| {
            let path = shard_path(&dir, shard);
            let pristine = fs::read(&path).expect("read shard");
            let mut mutated = pristine.clone();
            let at = offset % mutated.len();
            mutated[at] = byte as u8;
            fs::write(&path, &mutated).expect("write smudged shard");
            if let Ok(csv) = merge(&dir) {
                assert_eq!(
                    &csv, clean,
                    "smudge (shard {shard}, offset {at}, byte {byte:#04x}) \
                     changed the merged CSV without being refused"
                );
            }

            let summary = run_shard(&spec, shard, OF, &dir, 0).expect("resume smudged shard");
            assert_eq!(
                summary.resumed + summary.computed,
                shard_points(&spec, shard, OF).len()
            );
            assert_eq!(
                merge(&dir).as_ref(),
                Ok(clean),
                "checkpoint smudge (shard {shard}, offset {at}, byte {byte:#04x}) \
                 resumed wrong bits"
            );
            fs::write(&path, &pristine).expect("restore shard");

            let mut smudged = snap_pristine.clone();
            let at = offset % smudged.len();
            smudged[at] = byte as u8;
            fs::write(snap, &smudged).expect("write smudged snapshot");
            let memo = OptimumMemo::sharded(2, 64);
            let outcome = snapshot::load(snap, &memo).expect("load smudged snapshot");
            assert!(
                matches!(outcome, LoadOutcome::Loaded(n) if n <= entries.len())
                    || (outcome == LoadOutcome::Incompatible && memo.is_empty()),
                "snapshot smudge (offset {at}, byte {byte:#04x}): {outcome:?}"
            );
            for (key, value) in memo.export() {
                let (_, want) = entries
                    .iter()
                    .find(|(k, _)| *k == key)
                    .expect("snapshot smudge preloaded a key it never held");
                assert_eq!(
                    optimum_bits(&value),
                    optimum_bits(want),
                    "snapshot smudge (offset {at}, byte {byte:#04x}) preloaded wrong bits"
                );
            }
        },
    );
    fs::write(snap, &snap_pristine).expect("restore snapshot");
    let _ = fs::remove_dir_all(&dir);
}
