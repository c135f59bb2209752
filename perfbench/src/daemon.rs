//! Starting, watching and stopping a real `rlckit-serve` TCP daemon.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::proc::ChildGuard;

/// How long a daemon may take to boot before the run fails.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// Daemon flags beyond `--tcp 127.0.0.1:0`.
#[derive(Clone)]
pub struct Options {
    pub warm_grid: usize,
    pub shard_capacity: usize,
    /// `--trace-events PATH` plus an `RLCKIT_TRACE=jsonl+:<sink>` metric
    /// sink flushed every second: the traced run's two telemetry feeds.
    pub traced: Option<(PathBuf, PathBuf)>,
}

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: ChildGuard,
    pub addr: SocketAddr,
    /// Spawn to first accepted connection, warm-grid preload included.
    pub setup_s: f64,
    stderr: Arc<Mutex<Vec<String>>>,
    reader: Option<JoinHandle<()>>,
    connections: usize,
    traced: bool,
}

impl Daemon {
    pub fn start(bin: &Path, opts: &Options) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--tcp", "127.0.0.1:0"])
            .args(["--warm-grid", &opts.warm_grid.to_string()])
            .args(["--shard-capacity", &opts.shard_capacity.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some((events, sink)) = &opts.traced {
            cmd.arg("--trace-events")
                .arg(events)
                .args(["--trace-flush-secs", "1"])
                .env("RLCKIT_TRACE", format!("jsonl+:{}", sink.display()));
        }
        let t0 = Instant::now();
        let mut child = ChildGuard(
            cmd.spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?,
        );
        let stderr_pipe = child.0.stderr.take().ok_or("daemon stderr not captured")?;
        let stderr = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let reader = {
            let stderr = Arc::clone(&stderr);
            std::thread::spawn(move || {
                for line in BufReader::new(stderr_pipe).lines().map_while(Result::ok) {
                    if let Some(addr) = line.strip_prefix("rlckit-serve: listening on ") {
                        let _ = tx.send(addr.trim().to_string());
                    }
                    stderr.lock().expect("stderr log lock").push(line);
                }
            })
        };
        let addr: SocketAddr = rx
            .recv_timeout(BOOT_TIMEOUT)
            .map_err(|_| "daemon did not start listening".to_string())?
            .parse()
            .map_err(|e| format!("bad listen address: {e}"))?;
        drop(
            TcpStream::connect(addr)
                .map_err(|e| format!("daemon refused its first connection: {e}"))?,
        );
        let setup_s = t0.elapsed().as_secs_f64();
        Ok(Self {
            child,
            addr,
            setup_s,
            stderr,
            reader: Some(reader),
            connections: 1,
            traced: opts.traced.is_some(),
        })
    }

    /// Opens a client connection (counted, so its close can be awaited).
    pub fn pid(&self) -> u32 {
        self.child.0.id()
    }

    pub fn connect(&mut self) -> std::io::Result<TcpStream> {
        self.connections += 1;
        TcpStream::connect(self.addr)
    }

    fn count(&self, needle: &str) -> usize {
        self.stderr
            .lock()
            .expect("stderr log lock")
            .iter()
            .filter(|l| l.contains(needle))
            .count()
    }

    /// Waits until every connection opened so far has closed on the
    /// daemon's side — for a traced daemon, until it has also drained
    /// its flight recorder after each, so the event file holds every
    /// closed session.
    pub fn await_closed(&self) -> Result<(), String> {
        let needle = if self.traced {
            "rlckit-serve: drained"
        } else {
            " closed after "
        };
        let deadline = Instant::now() + BOOT_TIMEOUT;
        while self.count(needle) < self.connections {
            if Instant::now() > deadline {
                return Err("daemon never closed its sessions".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Kills the daemon and waits for it and its stderr reader.
    pub fn stop(&mut self) {
        self.child.stop();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Flush blocks of a `jsonl+:` metric sink, waiting until at least
/// `blocks` complete ones exist (a block is complete once the next one
/// has begun).
pub fn await_sink_blocks(
    sink: &Path,
    blocks: usize,
) -> Result<Vec<rlckit_trace::Snapshot>, String> {
    let deadline = Instant::now() + BOOT_TIMEOUT;
    loop {
        let text = std::fs::read_to_string(sink).unwrap_or_default();
        let mut parsed = crate::layers::jsonl_blocks(&text);
        if parsed.len() > blocks {
            parsed.truncate(blocks);
            return Ok(parsed);
        }
        if Instant::now() > deadline {
            return Err("daemon metric sink never flushed".into());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
