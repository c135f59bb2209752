//! Kill-schedule properties of the supervised campaign driver, run
//! against the real `rlckit-campaign` binary.
//!
//! The central claim: a campaign that crashes its way to completion —
//! seeded SIGKILL-equivalent aborts scattered across shards and
//! relaunch generations via `RLCKIT_SHARD_FAULTS` — merges to a CSV
//! **byte-identical** to the single-process run. Replay a failure with
//! `RLCKIT_CHECK_SEED`. With point faults armed as well
//! (`RLCKIT_FAULTS`), a killed one-shard campaign that `solo` resumes
//! must still match the armed uninterrupted `solo` byte for byte.

use std::path::PathBuf;
use std::process::Command;

use rlckit_campaign::grid::{CampaignNode, CampaignSpec};
use rlckit_campaign::solo_campaign;

const SHARDS: usize = 3;

fn spec() -> CampaignSpec {
    CampaignSpec {
        node: CampaignNode::Nm100,
        points: 11,
    }
}

/// The in-process reference CSV, computed once per test process.
fn reference_csv() -> &'static str {
    static CSV: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    CSV.get_or_init(|| {
        let mut dir = std::env::temp_dir();
        dir.push(format!("rlckit-kill-schedule-solo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let csv = solo_campaign(&spec(), &dir).expect("solo campaign");
        let _ = std::fs::remove_dir_all(&dir);
        csv
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rlckit-kill-schedule-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

struct RunResult {
    csv: String,
    stderr: String,
    success: bool,
}

fn supervised_run(tag: &str, faults: &str, extra: &[&str]) -> RunResult {
    let spec = spec();
    let dir = fresh_dir(tag);
    let out = dir.with_extension("csv");
    let _ = std::fs::remove_file(&out);
    let output = Command::new(env!("CARGO_BIN_EXE_rlckit-campaign"))
        .args(["run", "--node", spec.node.name()])
        .args(["--points", &spec.points.to_string()])
        .args(["--shards", &SHARDS.to_string()])
        .args(["--backoff-ms", "2"])
        .args(extra)
        .arg("--dir")
        .arg(&dir)
        .arg("--out")
        .arg(&out)
        .env("RLCKIT_SHARD_FAULTS", faults)
        .env_remove("RLCKIT_TRACE")
        .output()
        .expect("spawn rlckit-campaign run");
    let csv = std::fs::read_to_string(&out).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&out);
    RunResult {
        csv,
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
        success: output.status.success(),
    }
}

/// Seeded random abort schedules must still merge byte-identical to
/// the single-process campaign (the restart budget is generous enough
/// that no shard degrades at this fault rate).
#[test]
fn seeded_kill_schedules_merge_byte_identical_to_solo() {
    let reference = reference_csv();
    rlckit_check::Check::new().cases(3).seed(0x5EED_C111).run(
        &rlckit_check::gen::usize_range(0, 1 << 48),
        |&fault_seed| {
            let result = supervised_run(
                &format!("aborts-{fault_seed:x}"),
                &format!("{fault_seed}:0.25"),
                &["--restart-budget", "8"],
            );
            assert!(result.success, "run failed:\n{}", result.stderr);
            assert!(
                result.stderr.contains("0 degraded"),
                "seed {fault_seed:#x} degraded a shard:\n{}",
                result.stderr
            );
            assert_eq!(
                result.csv, reference,
                "seed {fault_seed:#x}: merged CSV differs from solo"
            );
        },
    );
}

/// An unsurvivable fault rate (every generation of every shard aborts
/// at its first uncomputed point) must exhaust the restart budget,
/// degrade every shard, and still terminate with a complete CSV of
/// explicit failed rows — graceful degradation, not a hang or a crash.
#[test]
fn certain_death_degrades_gracefully_into_failed_rows() {
    let spec = spec();
    let result = supervised_run("certain-death", "11:1.0", &["--restart-budget", "1"]);
    assert!(result.success, "run failed:\n{}", result.stderr);
    // A shard with no assigned points exits cleanly before its first
    // fault window, so only populated shards can degrade.
    let populated = (0..SHARDS)
        .filter(|&s| !rlckit_campaign::grid::shard_points(&spec, s, SHARDS).is_empty())
        .count();
    assert!(
        result.stderr.contains(&format!("{populated} degraded")),
        "expected every populated shard degraded:\n{}",
        result.stderr
    );
    let lines: Vec<&str> = result.csv.lines().collect();
    assert_eq!(lines.len(), spec.points + 1);
    for line in &lines[1..] {
        assert!(
            line.contains(",failed,"),
            "expected a failed row, got {line:?}"
        );
    }
}

/// Injected hangs (shards that stay alive but stop appending) must be
/// caught by the progress-based stall timeout, killed, and relaunched
/// to the same byte-identical merge.
#[test]
fn hung_shards_are_stalled_out_and_recovered() {
    let reference = reference_csv();
    let result = supervised_run(
        "hangs",
        "4242:0.2:hang",
        &["--restart-budget", "8", "--stall-timeout-ms", "250"],
    );
    assert!(result.success, "run failed:\n{}", result.stderr);
    assert!(result.stderr.contains("0 degraded"), "{}", result.stderr);
    assert_eq!(result.csv, reference, "merged CSV differs from solo");
}

/// Runs one `rlckit-campaign` subcommand over this file's campaign with
/// `RLCKIT_FAULTS` armed at `faults` (and, when given, a
/// `RLCKIT_SHARD_FAULTS` kill schedule) and a trace summary on stderr.
fn armed_command(
    command: &str,
    dir: &std::path::Path,
    faults: &str,
    shard_faults: Option<&str>,
    extra: &[&str],
) -> std::process::Output {
    let spec = spec();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rlckit-campaign"));
    cmd.args([command, "--node", spec.node.name()])
        .args(["--points", &spec.points.to_string()])
        .args(extra)
        .arg("--dir")
        .arg(dir)
        .env("RLCKIT_FAULTS", faults)
        .env("RLCKIT_TRACE", "summary")
        .env_remove("RLCKIT_SHARD_FAULTS");
    if let Some(schedule) = shard_faults {
        cmd.env("RLCKIT_SHARD_FAULTS", schedule);
    }
    cmd.output().expect("spawn rlckit-campaign")
}

/// The value of counter `name` in a trace summary (0 when absent: the
/// summary prints only nonzero counters).
fn summary_counter(stderr: &[u8], name: &str) -> usize {
    String::from_utf8_lossy(stderr)
        .lines()
        .find(|line| line.split_whitespace().nth(1) == Some(name))
        .and_then(|line| line.split_whitespace().last()?.parse().ok())
        .unwrap_or(0)
}

/// The CSV with each row cut to its value columns (index through
/// `rc_design_delay_s_per_m`), dropping `outcome,attempts`.
fn value_columns(csv: &str) -> String {
    csv.lines()
        .map(|line| line.split(',').take(10).collect::<Vec<_>>().join(",") + "\n")
        .collect()
}

/// Point faults and a process kill together: a one-shard campaign with
/// `RLCKIT_FAULTS` armed is aborted part-way by a kill schedule, then
/// `solo` resumes its directory under the same point faults. The CSV
/// must be byte-identical to an armed uninterrupted `solo` (retry
/// outcomes included, since a point's fault scope is its grid index),
/// and its values must equal the clean run's.
#[test]
fn armed_kill_and_resume_of_solo_matches_the_uninterrupted_run() {
    const FAULTS: &str = "2001:0.3";
    let spec = spec();
    let csv_of = |dir: &std::path::Path, output: &std::process::Output| {
        assert!(
            output.status.success(),
            "solo failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let csv = std::fs::read_to_string(dir.with_extension("csv")).expect("solo CSV");
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_file(dir.with_extension("csv"));
        csv
    };

    let whole_dir = fresh_dir("armed-whole");
    let out = whole_dir.with_extension("csv");
    let whole = armed_command("solo", &whole_dir, FAULTS, None, &["--out", out.to_str().unwrap()]);
    let uninterrupted = csv_of(&whole_dir, &whole);
    assert!(
        uninterrupted.contains(",retried,"),
        "{FAULTS} retried no point; the armed comparison would be vacuous"
    );
    assert_eq!(value_columns(&uninterrupted), value_columns(reference_csv()));

    // A kill schedule whose first generation dies just before point
    // `kept`, with some points already appended to the log.
    let kept = 4usize;
    let schedule = (0..10_000u64)
        .map(|seed| format!("{seed}:0.25"))
        .find(|raw| {
            let fault = rlckit_fault::shard::parse_shard_spec(raw).expect("a valid spec");
            (0..spec.points).position(|i| rlckit_fault::shard::should_fault(&fault, 0, i as u64))
                == Some(kept)
        })
        .expect("a seed that first fires at point `kept`");
    let dir = fresh_dir("armed-killed");
    let killed = armed_command(
        "shard",
        &dir,
        FAULTS,
        Some(&schedule),
        &["--index", "0", "--of", "1"],
    );
    assert!(!killed.status.success(), "the kill schedule {schedule} did not fire");

    let out = dir.with_extension("csv");
    let resume = armed_command("solo", &dir, FAULTS, None, &["--out", out.to_str().unwrap()]);
    assert_eq!(summary_counter(&resume.stderr, "campaign.points.resumed"), kept);
    assert_eq!(
        summary_counter(&resume.stderr, "campaign.points.computed"),
        spec.points - kept
    );
    assert_eq!(csv_of(&dir, &resume), uninterrupted);
}
