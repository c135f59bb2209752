//! Child-process plumbing: cold-start timing and guards that never
//! leave a process behind.
//!
//! Children inherit the driver's environment, which `run.py` has
//! already cleared of the rlckit knobs; a child that needs a knob gets
//! it set explicitly.

use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Owns a child process: kills and reaps it when dropped, so an early
/// return or a panic cannot leak a daemon.
pub struct ChildGuard(pub Child);

impl ChildGuard {
    /// Kills the child and waits until it has ended.
    pub fn stop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Runs `cmd` to completion with its output discarded and returns its
/// wall time from spawn to exit in seconds.
pub fn time_to_exit(cmd: &mut Command) -> Result<f64, String> {
    let t0 = Instant::now();
    let status = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("{cmd:?} exited with {status}"));
    }
    Ok(secs)
}

/// `/proc/<pid>/stat` counts CPU time in USER_HZ ticks, which the Linux
/// user ABI fixes at 100 per second.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) from `/proc/<pid>/stat` (`pid` may be
/// `self`): the process's own, summed over all its threads including
/// ended ones, and that of the children it has reaped. Time the host
/// steals from this machine's CPUs is counted in neither.
pub fn cpu_seconds(pid: &str) -> Result<(f64, f64), String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Fields 14-17 (utime, stime, cutime, cstime), counted after the
    // parenthesised command name, which may itself hold spaces.
    let ticks: Vec<f64> = text
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(4)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    match ticks[..] {
        [utime, stime, cutime, cstime] => Ok((
            (utime + stime) / TICKS_PER_S,
            (cutime + cstime) / TICKS_PER_S,
        )),
        _ => Err(format!("cannot parse {path}")),
    }
}

/// CPU seconds of the live threads of process `pid`, to the nanosecond
/// (`/proc/<pid>/task/*/schedstat`); threads that have ended are not
/// counted, so read it while the threads of interest still run.
pub fn live_threads_cpu_seconds(pid: u32) -> Result<f64, String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("cannot list {dir}: {e}"))?;
    let mut ns = 0u64;
    for task in tasks.flatten() {
        // A thread may end between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += text
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Ok(ns as f64 / 1e9)
}
