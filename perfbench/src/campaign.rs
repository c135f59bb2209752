//! The `campaign` workload: the real `rlckit-campaign run --shards
//! <nproc>` binary, one fresh directory per campaign.
//!
//! A cycle is nine seeded campaign specs: for each of the three
//! campaign nodes, one of about 100 points, one of about 1000 and one of
//! about 10 000 (each size jittered by ±1 %), in seeded order. One
//! operation is one grid point; its cost is the CPU time of the
//! supervisor and shard processes. One latency sample (detail line
//! only) is one campaign, from `run` spawn to merged CSV.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use rlckit::checkpoint::CheckpointFile;
use rlckit::elmore::rc_optimum;
use rlckit::optimizer::{optimize_rlc, OptimizerOptions, RetryPolicy};
use rlckit::sweeps::sweep_point_outcome;
use rlckit_campaign::grid::{shard_file_name, CampaignNode, CampaignSpec};
use rlckit_campaign::merge::{encode_record, merge_shards, render_csv, PointRecord};
use rlckit_campaign::shard::run_shard;
use rlckit_campaign::solo_campaign;
use rlckit_campaign::supervisor::{supervise, SupervisorConfig};
use rlckit_numeric::rng::Rng;
use rlckit_tline::LineRlc;

use crate::calib;
use crate::layers::{jsonl_total, Ledger, Telemetry};
use crate::stats::{self, Wall};
use crate::{render_checks, Config, Report};

/// `(campaigns per node, base grid size)` of each size tier.
///
/// One campaign per tier and node: the per-campaign costs (process
/// starts, supervisor polls, merge) stay a small share of the CPU time,
/// which would otherwise follow how busy the machine is, since waking
/// an idle CPU costs more than waking a busy one.
const TIERS: [(usize, usize); 3] = [(1, 100), (1, 1000), (1, 10_000)];
/// Cold campaigns timed for `setup_s`.
const SETUP_REPEATS: usize = 15;

const NODES: [CampaignNode; 3] = [
    CampaignNode::Nm250,
    CampaignNode::Nm100,
    CampaignNode::Nm100Eps33,
];

/// The seeded specs of one cycle, in run order.
fn cycle_specs(seed: u64) -> Vec<CampaignSpec> {
    let mut rng = Rng::new(seed ^ 0xca4a_16a1);
    let mut specs = Vec::new();
    for node in NODES {
        for (count, base) in TIERS {
            for _ in 0..count {
                // ±1 %: every grid point moves with the seed, while the
                // work per tier stays the same.
                let points = (base as f64 * rng.uniform(0.99, 1.01)).round() as usize;
                specs.push(CampaignSpec { node, points });
            }
        }
    }
    // Seeded order (Fisher–Yates).
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.index(i + 1));
    }
    specs
}

fn shards() -> usize {
    rlckit_par::available_threads()
}

fn run_command(bin: &Path, spec: &CampaignSpec, dir: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.arg("run")
        .args(["--node", spec.node.name()])
        .args(["--points", &spec.points.to_string()])
        .args(["--shards", &shards().to_string()])
        .arg("--dir")
        .arg(dir)
        .arg("--out")
        .arg(dir.join("out.csv"));
    cmd
}

/// One finished campaign: wall seconds, points, failed rows, and
/// whether its CSV matched the solo reference byte for byte.
struct Done {
    secs: f64,
    points: u64,
    failed: u64,
    identical: bool,
}

/// Runs one supervised campaign through the binary. `trace_sink`, when
/// set, turns telemetry on in the supervisor and its shards.
fn run_one(
    cfg: &Config,
    spec: &CampaignSpec,
    reference: &str,
    k: usize,
    trace_sink: Option<&Path>,
) -> Done {
    let dir = cfg.work_dir.join(format!("c{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cmd = run_command(&cfg.campaign_bin, spec, &dir);
    if let Some(sink) = trace_sink {
        cmd.env("RLCKIT_TRACE", format!("jsonl+:{}", sink.display()));
    }
    let secs = crate::proc::time_to_exit(&mut cmd);
    let csv = std::fs::read_to_string(dir.join("out.csv")).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    let points = spec.points as u64;
    match secs {
        Ok(secs) => Done {
            secs,
            points,
            // Failed rows carry the `failed` outcome in the second-last
            // column (unreached rows of degraded shards included).
            failed: csv
                .lines()
                .skip(1)
                .filter(|l| l.rsplit(',').nth(1) == Some("failed"))
                .count() as u64
                + points.saturating_sub(csv.lines().count().saturating_sub(1) as u64),
            identical: csv == reference,
        },
        Err(e) => {
            eprintln!(
                "rlckit-perfbench: campaign {} x {} failed: {e}",
                spec.node.name(),
                spec.points
            );
            Done {
                secs: f64::NAN,
                points,
                failed: points,
                identical: false,
            }
        }
    }
}

/// Solo (in-process, single shard) reference CSV of every spec.
fn references(cfg: &Config, specs: &[CampaignSpec]) -> Result<Vec<String>, String> {
    specs
        .iter()
        .enumerate()
        .map(|(k, spec)| {
            let dir = cfg.work_dir.join(format!("solo{k}"));
            let csv = solo_campaign(spec, &dir).map_err(|e| format!("solo reference failed: {e}"));
            let _ = std::fs::remove_dir_all(&dir);
            csv
        })
        .collect()
}

/// Median spawn-to-exit time of a one-point `solo` campaign: the fixed
/// cost of a campaign process (start, checkpoint, merge, CSV) before
/// its points. A supervised run would add its poll cadence, which makes
/// a short campaign's wall time depend on which side of a poll its
/// shards end.
fn setup_seconds(cfg: &Config) -> Result<f64, String> {
    let mut samples = Vec::new();
    for k in 0..SETUP_REPEATS {
        let dir = cfg.work_dir.join(format!("setup{k}"));
        let mut cmd = Command::new(&cfg.campaign_bin);
        cmd.args([
            "solo",
            "--node",
            CampaignNode::Nm100.name(),
            "--points",
            "1",
        ])
        .arg("--dir")
        .arg(&dir)
        .arg("--out")
        .arg(dir.join("out.csv"));
        samples.push(crate::proc::time_to_exit(&mut cmd)?);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(stats::median(&mut samples))
}

/// Tallies over a sequence of campaigns.
#[derive(Default)]
struct Tally {
    busy_s: f64,
    points: u64,
    failed: u64,
    mismatched: usize,
}

impl Tally {
    fn add(&mut self, done: &Done) {
        if done.secs.is_finite() {
            self.busy_s += done.secs;
        }
        self.points += done.points;
        self.failed += done.failed;
        self.mismatched += usize::from(!done.identical);
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let specs = cycle_specs(cfg.seed);
    let refs = references(cfg, &specs)?;
    if cfg.trace {
        return run_traced(cfg, &specs, &refs);
    }
    let setup_s = setup_seconds(cfg)?;
    // The campaigns' CPU time is that of the reaped supervisor and shard
    // processes.
    let ((tally, wall, cpu_s), speed) = calib::around(|calibration| {
        let mut tally = Tally::default();
        let mut wall = Wall::default();
        let cpu_before = crate::proc::cpu_seconds("self")?.1;
        let start = Instant::now();
        let mut k = 0;
        while start.elapsed().as_secs_f64() < cfg.seconds {
            let i = k % specs.len();
            let done = run_one(cfg, &specs[i], &refs[i], k, None);
            if done.secs.is_finite() {
                wall.latencies_us.push(done.secs * 1e6);
            }
            tally.add(&done);
            k += 1;
            calibration.between()?;
        }
        let cpu_s = crate::proc::cpu_seconds("self")?.1 - cpu_before;
        Ok((tally, wall, cpu_s))
    })?;
    let checks = vec![(
        "campaign.csv_equals_solo".to_string(),
        tally.mismatched == 0,
    )];
    let mut wall = wall;
    wall.ops = tally.points;
    wall.busy_s = tally.busy_s;
    let (metrics, mut details) = stats::metrics(cpu_s, tally.points, &speed, setup_s);
    details.extend(wall.details());
    details.insert(
        0,
        (
            "operation".into(),
            "\"one grid point; latency per supervised campaign\"".into(),
        ),
    );
    details.push(("shards".into(), shards().to_string()));
    details.push(("checks".into(), render_checks(&checks)));
    Ok(Report {
        correct: tally.mismatched == 0,
        attempted: tally.points,
        failed: tally.failed,
        metrics,
        details,
    })
}

/// Runs every spec of the cycle once through the binary; returns the
/// cycle's wall seconds.
fn cycle(
    cfg: &Config,
    specs: &[CampaignSpec],
    refs: &[String],
    tally: &mut Tally,
    sink: Option<&Path>,
) -> f64 {
    let before = tally.busy_s;
    for (k, (spec, reference)) in specs.iter().zip(refs).enumerate() {
        tally.add(&run_one(cfg, spec, reference, k, sink));
    }
    tally.busy_s - before
}

fn run_traced(cfg: &Config, specs: &[CampaignSpec], refs: &[String]) -> Result<Report, String> {
    let mut ledger = Ledger::new();
    let mut tally = Tally::default();

    // Telemetry of the real binaries: supervisor and shards each append
    // their final flush to one sink file; its sum over exactly one cycle
    // is a pure function of the specs.
    let sink = cfg.work_dir.join("telemetry.jsonl");
    let mut traced = vec![cycle(cfg, specs, refs, &mut tally, Some(&sink))];
    let text = std::fs::read_to_string(&sink).map_err(|e| format!("no campaign telemetry: {e}"))?;
    let telemetry = Telemetry(jsonl_total(&text));
    telemetry.fill_solver_layers(&mut ledger);
    let campaigns = specs.len() as f64;
    ledger.set(
        "campaign.shards_launched",
        telemetry.counter("campaign.shard.launched") / campaigns,
    );
    ledger.set(
        "campaign.shards_relaunched",
        telemetry.counter("campaign.shard.relaunched") / campaigns,
    );
    ledger.set(
        "campaign.shards_stalled",
        telemetry.counter("campaign.shard.stalled") / campaigns,
    );

    let mut untraced = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds * 0.5 || untraced.is_empty() {
        untraced.push(cycle(cfg, specs, refs, &mut tally, None));
        let _ = std::fs::remove_file(&sink);
        traced.push(cycle(cfg, specs, refs, &mut tally, Some(&sink)));
    }
    let _ = std::fs::remove_file(&sink);
    ledger.set(
        "trace.overhead_ratio",
        stats::median(&mut traced) / stats::median(&mut untraced),
    );

    layer_timings(cfg, specs, &mut ledger)?;
    let checks = vec![(
        "campaign.csv_equals_solo".to_string(),
        tally.mismatched == 0,
    )];
    Ok(Report {
        correct: tally.mismatched == 0,
        attempted: tally.points,
        failed: tally.failed,
        metrics: ledger.into_metrics(),
        details: vec![
            ("traced_cycles".into(), traced.len().to_string()),
            ("untraced_cycles".into(), untraced.len().to_string()),
            ("checks".into(), render_checks(&checks)),
        ],
    })
}

fn elapsed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// In-process timings of the campaign layers, tracing off: the shard
/// loop, merge, CSV rendering and supervision on one spec per size tier,
/// plus per-call medians of the point solve and the checkpoint append on
/// this cycle's own grid points.
fn layer_timings(cfg: &Config, specs: &[CampaignSpec], ledger: &mut Ledger) -> Result<(), String> {
    let of = shards();
    let tier_specs: Vec<&CampaignSpec> = TIERS
        .iter()
        .filter_map(|&(_, base)| specs.iter().find(|s| s.points.abs_diff(base) <= base / 50))
        .collect();
    let (mut shard_ms, mut merge_ms, mut render_ms, mut overhead_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut bytes, mut points) = (0u64, 0u64);
    for (k, spec) in tier_specs.iter().enumerate() {
        let dir = cfg.work_dir.join(format!("layers{k}"));
        let mut slowest: f64 = 0.0;
        for shard in 0..of {
            let (summary, ms) = elapsed_ms(|| run_shard(spec, shard, of, &dir, 0));
            summary.map_err(|e| format!("in-process shard failed: {e}"))?;
            slowest = slowest.max(ms);
            bytes += std::fs::metadata(dir.join(shard_file_name(shard, of))).map_or(0, |m| m.len());
        }
        points += spec.points as u64;
        let (merged, ms) = elapsed_ms(|| merge_shards(spec, &dir, of, &BTreeSet::new()));
        let merged = merged.map_err(|e| format!("in-process merge failed: {e}"))?;
        let merge = ms;
        let (_, ms) = elapsed_ms(|| render_csv(spec, &merged));
        render_ms += ms;
        let _ = std::fs::remove_dir_all(&dir);

        let sup_dir = cfg.work_dir.join(format!("supervise{k}"));
        let (run, ms) = elapsed_ms(|| {
            supervise(
                &cfg.campaign_bin,
                spec,
                &sup_dir,
                &SupervisorConfig::new(of),
            )
        });
        run.map_err(|e| format!("in-process supervise failed: {e}"))?;
        let _ = std::fs::remove_dir_all(&sup_dir);
        shard_ms += slowest;
        merge_ms += merge;
        overhead_ms += ms - slowest - merge;
    }
    let n = tier_specs.len() as f64;
    ledger.set("campaign.shard_ms", shard_ms / n);
    ledger.set("campaign.merge_ms", merge_ms / n);
    ledger.set("campaign.render_csv_ms", render_ms / n);
    ledger.set("campaign.supervise_overhead_ms", overhead_ms / n);
    ledger.set(
        "core.checkpoint.bytes_per_point",
        stats::ratio(bytes as f64, points as f64),
    );

    // Per-call medians on a seeded sample of this cycle's grid points.
    let mut rng = Rng::new(cfg.seed ^ 0x00c4_ec4b);
    let sample: Vec<(CampaignSpec, usize)> = (0..128)
        .map(|_| {
            let spec = specs[rng.index(specs.len())];
            (spec, rng.index(spec.points))
        })
        .collect();
    let point = |spec: &CampaignSpec, index: usize| {
        let tech = spec.node.tech();
        let (line, driver) = (tech.line(), tech.driver());
        let rc = rc_optimum(&line, &driver);
        (line, driver, rc, spec.grid()[index])
    };
    let solved: Vec<_> = sample.iter().map(|(s, i)| (point(s, *i), *i)).collect();
    ledger.set(
        "campaign.solve_us_per_point",
        stats::median_call_ns(&solved, 3, |((line, driver, rc, l), index)| {
            sweep_point_outcome(
                line,
                driver,
                rc,
                *index,
                *l,
                CampaignSpec::options(),
                &RetryPolicy::default(),
            )
        }) / 1e3,
    );
    ledger.set(
        "core.optimizer.solve_us_p50",
        stats::median_call_ns(&solved, 3, |((line, driver, _, l), _)| {
            optimize_rlc(
                &LineRlc::new(line.resistance, *l, line.capacitance),
                driver,
                OptimizerOptions::default(),
            )
        }) / 1e3,
    );
    let records: Vec<(usize, Vec<u64>)> = solved
        .iter()
        .map(|((line, driver, rc, l), index)| {
            let outcome = sweep_point_outcome(
                line,
                driver,
                rc,
                *index,
                *l,
                CampaignSpec::options(),
                &RetryPolicy::default(),
            );
            (
                *index,
                encode_record(*index, &PointRecord::from_outcome(outcome)),
            )
        })
        .collect();
    let path: PathBuf = cfg.work_dir.join("append.partial.jsonl");
    let (file, _) =
        CheckpointFile::open(&path, 0x5eed).map_err(|e| format!("checkpoint open failed: {e}"))?;
    ledger.set(
        "core.checkpoint.append_us_per_point",
        stats::median_call_ns(&records, 3, |(index, words)| file.append(*index, words)) / 1e3,
    );
    drop(file);
    let _ = std::fs::remove_file(&path);
    Ok(())
}
