//! `rlckit-perfbench` — the benchmark driver behind `perfbench/run.py`.
//!
//! ```text
//! rlckit-perfbench --workload <sweep|campaign|serve_pipelined>
//!                  --seed N --seconds S --trace <0|1>
//!                  --serve-bin PATH --campaign-bin PATH --work-dir DIR
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it measures the per-layer metrics instead (see
//! [`layers::CATALOG`]). Either way it checks the program's outputs and
//! prints, as its last stdout line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! carries the details: sample counts, check results and the per-layer
//! ledger.
//!
//! `--probe <name>` runs one internal helper in a child process (a cold
//! start to time, or a reference pass under `RLCKIT_BATCH=off`) and is
//! not meant to be called by hand.

#![forbid(unsafe_code)]

mod calib;
mod campaign;
mod daemon;
mod layers;
mod proc;
mod serve;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

/// Everything a workload needs from the command line.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub campaign_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// Named output checks and whether each passed.
pub type Checks = Vec<(String, bool)>;

/// Checks as a JSON object of booleans, for the detail line.
pub fn render_checks(checks: &[(String, bool)]) -> String {
    let body: Vec<String> = checks
        .iter()
        .map(|(k, ok)| format!("\"{k}\":{ok}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// One named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted inside the measured region.
    pub attempted: u64,
    /// Operations among them that failed or got no answer.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra `(key, JSON value)` pairs for the detail line.
    pub details: Vec<(String, String)>,
}

impl Report {
    fn render_result(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }

    fn render_details(&self, workload: &str, cfg: &Config) -> String {
        let mut out = format!(
            "{{\"detail\":{{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{},\"nproc\":{}",
            cfg.seed,
            cfg.trace,
            rlckit_par::available_threads()
        );
        for (key, value) in &self.details {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        out.push_str("}}");
        out
    }
}

/// A finite `f64` as a JSON number with all its digits (`{}` prints the
/// shortest string that reads back to the same bits).
pub fn json_number(x: f64) -> String {
    let s = format!("{x}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn parse_args() -> Result<(String, Config, Option<String>), String> {
    let mut workload = None;
    let mut probe = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = None;
    let mut campaign_bin = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--probe" => probe = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: want 0 or 1, got {other:?}")),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--campaign-bin" => campaign_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let cfg = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(1.0),
        trace,
        serve_bin: serve_bin.unwrap_or_default(),
        campaign_bin: campaign_bin.unwrap_or_default(),
        work_dir: work_dir.unwrap_or_default(),
    };
    if probe.is_none() {
        if seconds.is_none() {
            return Err("--seconds is required".into());
        }
        for (flag, path) in [
            ("--serve-bin", &cfg.serve_bin),
            ("--campaign-bin", &cfg.campaign_bin),
            ("--work-dir", &cfg.work_dir),
        ] {
            if path.as_os_str().is_empty() {
                return Err(format!("{flag} is required"));
            }
        }
    }
    let workload = match (&workload, &probe) {
        (Some(w), _) => w.clone(),
        (None, Some(_)) => String::new(),
        (None, None) => return Err("--workload is required".into()),
    };
    Ok((workload, cfg, probe))
}

fn run() -> Result<bool, String> {
    let (workload, cfg, probe) = parse_args()?;
    if let Some(probe) = probe {
        return sweep::probe(&probe, cfg.seed).map(|()| true);
    }
    let report = match workload.as_str() {
        "sweep" => sweep::run(&cfg)?,
        "campaign" => campaign::run(&cfg)?,
        "serve_pipelined" => serve::run_pipelined(&cfg)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let result = report.render_result()?;
    println!("{}", report.render_details(&workload, &cfg));
    println!("{result}");
    Ok(report.correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("rlckit-perfbench: an output check failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("rlckit-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
