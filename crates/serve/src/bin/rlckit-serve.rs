//! The `rlckit-serve` daemon: answers `optimum` / `route_delay` /
//! `lcrit` queries over stdin/stdout JSONL or a localhost TCP socket.
//!
//! ```text
//! rlckit-serve [--stdin | --tcp ADDR] [--idle-timeout-secs N]
//!              [--max-connections N] [--workers N]
//!              [--shard-capacity N] [--eviction lru|fifo]
//!              [--warm-grid POINTS] [--snapshot PATH]
//!              [--trace-events PATH] [--trace-flush-secs N]
//! ```
//!
//! Boot order: load `--snapshot` if present and compatible, then
//! `--warm-grid` fills whatever grid points are still missing, then the
//! (possibly grown) memo is saved back to `--snapshot`. The warm grid
//! solves its missing points on nproc threads (`RLCKIT_THREADS`
//! overrides the count) and preloads them in grid order, so the memo
//! and the saved snapshot are byte-identical at any thread count; a
//! traced boot reports the phase as the `serve.warm_grid` span.
//! Diagnostics go to stderr; stdout carries only protocol responses.
//! Telemetry follows the usual `RLCKIT_TRACE` contract and is flushed
//! on exit.
//!
//! # Concurrent TCP serving
//!
//! Connections are served **concurrently** over the one shared pool
//! and memo ([`rlckit_serve::daemon::serve_connections`]): each gets
//! its own session thread, sequence space, and in-order response
//! stream, up to `--max-connections` simultaneous sessions (beyond
//! which an arrival is answered with one clean `"ok":false` line and
//! closed). Accept-side failures — a failed accept, a peer reset
//! before its metadata could be read — are logged, counted under
//! `serve.accept_errors`, and survived; they never terminate the
//! daemon.
//!
//! # Observability flags
//!
//! `--trace-events PATH` enables the flight recorder (see
//! [`rlckit_trace::events`]) and drains it to `PATH` as JSONL — after
//! the stdin session ends, or after **each** TCP connection closes (the
//! file is rewritten, so it always holds the freshest complete drain).
//! `rlckit-traceview` reads this file. `--trace-flush-secs N` starts a
//! background thread that calls [`rlckit_trace::flush`] every `N`
//! seconds, so a long-lived daemon's metrics reach the `RLCKIT_TRACE`
//! sink (use the `jsonl+:` append sink to keep every period) without
//! waiting for exit — plus one final flush on shutdown, even for
//! sessions shorter than one period.
//!
//! # Idle clients
//!
//! `--idle-timeout-secs N` (default 0 = never) arms a socket read
//! timeout on each connection: one idle for `N` seconds is answered
//! with one final `"ok":false` line, tallied in the `serve.timeouts`
//! counter, and closed — without disturbing any other session.

#![forbid(unsafe_code)]

use std::io::Write;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;

use rlckit::memo::Eviction;
use rlckit_serve::daemon::{serve_connections, Flusher, TcpOptions};
use rlckit_serve::snapshot::{self, LoadOutcome};
use rlckit_serve::{ServeConfig, Server};

struct Args {
    tcp: Option<String>,
    idle_timeout_secs: u64,
    max_connections: usize,
    config: ServeConfig,
    warm_grid: usize,
    snapshot: Option<std::path::PathBuf>,
    trace_events: Option<std::path::PathBuf>,
    trace_flush_secs: u64,
}

fn usage() -> &'static str {
    "usage: rlckit-serve [--stdin | --tcp ADDR] [--idle-timeout-secs N] \
     [--max-connections N] [--workers N] [--shard-capacity N] [--eviction lru|fifo] \
     [--warm-grid POINTS] [--snapshot PATH] [--trace-events PATH] [--trace-flush-secs N]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        idle_timeout_secs: 0,
        max_connections: rlckit_serve::daemon::DEFAULT_MAX_CONNECTIONS,
        config: ServeConfig::default(),
        warm_grid: 0,
        snapshot: None,
        trace_events: None,
        trace_flush_secs: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--stdin" => args.tcp = None,
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--idle-timeout-secs" => {
                args.idle_timeout_secs = value("--idle-timeout-secs")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-secs: {e}"))?;
            }
            "--max-connections" => {
                args.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
                if args.max_connections == 0 {
                    return Err("--max-connections must be ≥ 1".to_string());
                }
            }
            "--workers" => {
                args.config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--shard-capacity" => {
                args.config.shard_capacity = value("--shard-capacity")?
                    .parse()
                    .map_err(|e| format!("--shard-capacity: {e}"))?;
            }
            "--eviction" => {
                args.config.eviction = match value("--eviction")?.as_str() {
                    "lru" => Eviction::Lru,
                    "fifo" => Eviction::Fifo,
                    other => return Err(format!("--eviction: {other:?} is not lru|fifo")),
                };
            }
            "--warm-grid" => {
                args.warm_grid = value("--warm-grid")?
                    .parse()
                    .map_err(|e| format!("--warm-grid: {e}"))?;
            }
            "--snapshot" => args.snapshot = Some(value("--snapshot")?.into()),
            "--trace-events" => args.trace_events = Some(value("--trace-events")?.into()),
            "--trace-flush-secs" => {
                args.trace_flush_secs = value("--trace-flush-secs")?
                    .parse()
                    .map_err(|e| format!("--trace-flush-secs: {e}"))?;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

fn boot(args: &Args) -> std::io::Result<Server> {
    let server = Server::new(args.config);
    if let Some(path) = &args.snapshot {
        match snapshot::load(path, server.memo())? {
            LoadOutcome::Loaded(n) => {
                eprintln!("rlckit-serve: warm-started {n} entries from {}", path.display());
            }
            LoadOutcome::Missing => {
                eprintln!("rlckit-serve: no snapshot at {} (cold boot)", path.display());
            }
            LoadOutcome::Incompatible => {
                eprintln!(
                    "rlckit-serve: snapshot at {} has a different format fingerprint; ignoring",
                    path.display()
                );
            }
        }
    }
    if args.warm_grid > 0 {
        let solved = server.warm_grid(args.warm_grid);
        eprintln!(
            "rlckit-serve: warm grid solved {solved} new entries ({} total)",
            server.memo().len()
        );
    }
    if let Some(path) = &args.snapshot {
        let written = snapshot::save_atomic(path, server.memo())?;
        eprintln!("rlckit-serve: snapshot of {written} entries saved to {}", path.display());
    }
    Ok(server)
}

/// Drains the flight recorder to `path`, logging the count to stderr.
fn drain_events(path: &std::path::Path) {
    match rlckit_trace::events::write_jsonl(path) {
        Ok(count) => {
            eprintln!("rlckit-serve: drained {count} events to {}", path.display());
        }
        Err(e) => eprintln!("rlckit-serve: event drain to {} failed: {e}", path.display()),
    }
}

fn run() -> std::io::Result<ExitCode> {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if args.trace_events.is_some() {
        // The flight recorder shares the metrics enable gate; the flag
        // is an explicit opt-in even without RLCKIT_TRACE set.
        rlckit_trace::set_enabled(true);
    }
    let _flusher = (args.trace_flush_secs > 0).then(|| Flusher::start(args.trace_flush_secs));
    let server = boot(&args)?;

    match &args.tcp {
        None => {
            let stdin = std::io::stdin().lock();
            // `Stdout` (unlike `StdoutLock`) is `Send`, which the writer
            // thread needs; it still buffers line-by-line internally.
            let summary = server.serve(stdin, std::io::stdout())?;
            eprintln!(
                "rlckit-serve: served {} requests ({} hits, {} misses, {} errors)",
                summary.requests, summary.hits, summary.misses, summary.errors
            );
            if let Some(path) = &args.trace_events {
                drain_events(path);
            }
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)?;
            eprintln!("rlckit-serve: listening on {}", listener.local_addr()?);
            let options = TcpOptions {
                idle_timeout: (args.idle_timeout_secs > 0)
                    .then(|| Duration::from_secs(args.idle_timeout_secs)),
                max_connections: args.max_connections,
            };
            // Session-close bookkeeping runs on the session threads;
            // the event drain rewrites one shared file, so serialize it.
            let drain_gate = Mutex::new(());
            serve_connections(&server, listener.incoming(), &options, |peer, result| {
                match result {
                    Ok(summary) => eprintln!(
                        "rlckit-serve: {peer} closed after {} requests ({} hits{})",
                        summary.requests,
                        summary.hits,
                        if summary.timed_out { ", idle timeout" } else { "" }
                    ),
                    Err(e) => eprintln!("rlckit-serve: connection {peer}: {e}"),
                }
                if let Some(path) = &args.trace_events {
                    let _serialized = drain_gate.lock();
                    drain_events(path);
                }
            });
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rlckit-serve: {e}");
            ExitCode::FAILURE
        }
    };
    rlckit_trace::flush();
    let _ = std::io::stderr().flush();
    code
}
