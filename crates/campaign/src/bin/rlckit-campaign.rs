//! `rlckit-campaign` — shard, merge, and supervise inductance-sweep
//! campaigns across processes.
//!
//! ```text
//! rlckit-campaign shard --dir DIR --index I --of N [--generation G] [--node NAME] [--points N]
//! rlckit-campaign merge --dir DIR --shards N --out CSV [--node NAME] [--points N]
//! rlckit-campaign run   --dir DIR --shards N --out CSV [supervision flags]
//! rlckit-campaign solo  --dir DIR --out CSV [--node NAME] [--points N]
//! ```
//!
//! `run` output is byte-identical to `solo` output for the same
//! campaign — including under injected shard crashes
//! (`RLCKIT_SHARD_FAULTS=<seed>:<rate>[:abort|hang]`), as long as no
//! shard exhausts its restart budget.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rlckit_campaign::grid::{CampaignNode, CampaignSpec};
use rlckit_campaign::merge::{merge_shards, render_csv};
use rlckit_campaign::shard::run_shard;
use rlckit_campaign::solo_campaign;
use rlckit_campaign::supervisor::{supervise, SupervisorConfig};

const USAGE: &str = "usage: rlckit-campaign <shard|merge|run|solo> [options]

common options:
  --node <250nm|100nm|100nm_eps33>   technology node (default 100nm)
  --points <N>                       grid points (default 25)
  --dir <PATH>                       campaign directory (required)

shard: --index <I> --of <N> [--generation <G>]
merge: --shards <N> --out <CSV> [--degraded <I,J,...>]
run:   --shards <N> --out <CSV> [--restart-budget <B>] [--stall-timeout-ms <MS>]
       [--backoff-ms <MS>]
solo:  --out <CSV>
";

struct Args(Vec<String>);

impl Args {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        if let Some(pos) = self.0.iter().position(|a| a == flag) {
            if pos + 1 >= self.0.len() {
                return Err(format!("{flag} needs a value"));
            }
            self.0.remove(pos);
            Ok(Some(self.0.remove(pos)))
        } else {
            Ok(None)
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot parse {raw:?}")),
        }
    }

    fn required<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.parsed(flag)?.ok_or_else(|| format!("{flag} is required"))
    }

    fn finish(self) -> Result<(), String> {
        if let Some(extra) = self.0.first() {
            return Err(format!("unrecognized argument {extra:?}"));
        }
        Ok(())
    }
}

fn campaign_spec(args: &mut Args) -> Result<CampaignSpec, String> {
    let node = match args.value("--node")? {
        None => CampaignNode::Nm100,
        Some(name) => CampaignNode::parse(&name)
            .ok_or_else(|| format!("--node: unknown node {name:?} (want 250nm, 100nm, or 100nm_eps33)"))?,
    };
    let points = args.parsed("--points")?.unwrap_or(25usize);
    if points == 0 {
        return Err("--points must be positive".to_string());
    }
    Ok(CampaignSpec { node, points })
}

fn write_out(path: &PathBuf, csv: &str) -> Result<(), String> {
    std::fs::write(path, csv).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run() -> Result<(), String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err(USAGE.to_string());
    }
    let command = argv.remove(0);
    let mut args = Args(argv);

    match command.as_str() {
        "shard" => {
            let spec = campaign_spec(&mut args)?;
            let dir: PathBuf = args.required("--dir")?;
            let index: usize = args.required("--index")?;
            let of: usize = args.required("--of")?;
            let generation: u32 = args.parsed("--generation")?.unwrap_or(0);
            if of == 0 || index >= of {
                return Err(format!("--index {index} --of {of}: need 0 <= index < of"));
            }
            args.finish()?;
            let summary = run_shard(&spec, index, of, &dir, generation)
                .map_err(|e| format!("shard {index} of {of} failed: {e}"))?;
            eprintln!(
                "shard {index} of {of} (generation {generation}): \
                 {} computed, {} resumed, {} failed",
                summary.computed, summary.resumed, summary.failed
            );
        }
        "merge" => {
            let spec = campaign_spec(&mut args)?;
            let dir: PathBuf = args.required("--dir")?;
            let shards: usize = args.required("--shards")?;
            let out: PathBuf = args.required("--out")?;
            let degraded: BTreeSet<usize> = match args.value("--degraded")? {
                None => BTreeSet::new(),
                Some(list) => list
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("--degraded: bad index {s:?}")))
                    .collect::<Result<_, _>>()?,
            };
            if shards == 0 {
                return Err("--shards must be positive".to_string());
            }
            args.finish()?;
            let merged = merge_shards(&spec, &dir, shards, &degraded)
                .map_err(|e| format!("merge refused: {e}"))?;
            write_out(&out, &render_csv(&spec, &merged))?;
            eprintln!(
                "merged {shards} shards into {} ({} points, {} unreached)",
                out.display(),
                spec.points,
                merged.unreached
            );
        }
        "run" => {
            let spec = campaign_spec(&mut args)?;
            let dir: PathBuf = args.required("--dir")?;
            let shards: usize = args.required("--shards")?;
            let out: PathBuf = args.required("--out")?;
            if shards == 0 {
                return Err("--shards must be positive".to_string());
            }
            let mut cfg = SupervisorConfig::new(shards);
            let millis = |flag: Option<u64>, default| flag.map_or(default, Duration::from_millis);
            let budget = args.parsed("--restart-budget")?;
            cfg.restart_budget = budget.unwrap_or(cfg.restart_budget);
            cfg.stall_timeout = millis(args.parsed("--stall-timeout-ms")?, cfg.stall_timeout);
            cfg.backoff_base = millis(args.parsed("--backoff-ms")?, cfg.backoff_base);
            args.finish()?;
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot locate own executable: {e}"))?;
            let outcome =
                supervise(&exe, &spec, &dir, &cfg).map_err(|e| format!("supervision failed: {e}"))?;
            write_out(&out, &outcome.csv)?;
            let relaunches: u32 = outcome.shards.iter().map(|s| s.relaunches).sum();
            let degraded = outcome.shards.iter().filter(|s| s.degraded).count();
            eprintln!(
                "campaign {} x {}: {shards} shards, {relaunches} relaunches, \
                 {degraded} degraded, {} unreached points -> {}",
                spec.node.name(),
                spec.points,
                outcome.unreached,
                out.display()
            );
        }
        "solo" => {
            let spec = campaign_spec(&mut args)?;
            let dir: PathBuf = args.required("--dir")?;
            let out: PathBuf = args.required("--out")?;
            args.finish()?;
            let csv = solo_campaign(&spec, &dir).map_err(|e| e.to_string())?;
            write_out(&out, &csv)?;
            eprintln!(
                "solo campaign {} x {} -> {}",
                spec.node.name(),
                spec.points,
                out.display()
            );
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
        }
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let result = run();
    rlckit_trace::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("rlckit-campaign: {message}");
            ExitCode::FAILURE
        }
    }
}
