//! The serving workload, against the real `rlckit-serve` TCP daemon.
//!
//! Both mixes are the ones the repository's `loadgen` documents: its
//! 15 hot keys (five grid points on each of the three nodes), its
//! noisy neighbours (up to a quarter of a quantization bucket above a
//! hot key), its cold keys (`l` uniform in 0.01–4.9 nH/mm), its ops
//! rotating through `optimum` / `route_delay` / `lcrit` by request id,
//! and its 20 mm routes.
//!
//! * `serve_pipelined` (timed): nproc connections, each keeping
//!   `IN_FLIGHT` chunks of `CHUNK` requests outstanding. The mix is
//!   loadgen's eviction mix: 60 % hot repeats and 40 % one-shot cold
//!   keys, against a daemon whose memo holds fewer entries than the
//!   run's cold keys, so LRU evicts. The metric is the daemon's CPU time
//!   per answered request.
//! * The closed loop (traced run only): nproc connections, each with
//!   one request outstanding, `TCP_NODELAY` set, one write per request.
//!   The mix is loadgen's serving mix: 64 % hot repeats, 30 % noisy
//!   neighbours and 6 % cold keys. It gives the per-request ledger,
//!   down to the wire.
//!
//! A request's latency runs from the start of its write (of its chunk,
//! when pipelined) to its complete response line. One operation is one
//! request. Every request id must be answered
//! exactly once and in order per session, and sampled hot answers must
//! equal a direct `optimize_rlc` solve rendered by the protocol module,
//! modulo the `source` field.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Instant;

use rlckit::memo::{key_for, Eviction, OptimumMemo, Served, QUANT_BITS};
use rlckit::optimizer::{optimize_rlc, OptimizerOptions, RlcOptimum};
use rlckit_bench::traceview;
use rlckit_campaign::grid::CampaignNode;
use rlckit_numeric::rng::Rng;
use rlckit_serve::engine::standard_grid;
use rlckit_serve::protocol::{
    parse_request, response_lcrit, response_optimum, response_route_delay, Request,
};
use rlckit_tline::LineRlc;
use rlckit_units::{HenriesPerMeter, Meters};

use crate::calib::{self, Speed};
use crate::daemon::{await_sink_blocks, Daemon, Options};
use crate::layers::{field_u64, Ledger, Telemetry};
use crate::stats::{self, Wall};
use crate::{render_checks, Checks, Config, Report};

/// Warm-grid points per node the daemon preloads (3 nodes). The
/// preload of 3003 solves then dominates `setup_s`, and loadgen's five
/// hot grid points per node lie on this grid (every 250th point).
const WARM_GRID: usize = 1001;
/// Hot grid points per node (loadgen's `WARM_POINTS`).
const HOT_POINTS: usize = 5;
/// Memo entries per shard (the daemon has four): for the closed loop the
/// warm grid and the run's cold keys fit, so nothing is evicted.
const CLOSED_SHARD_CAPACITY: usize = 1024;
/// Memo entries per shard for `serve_pipelined`: just above the warm
/// grid's share of a shard (3003 / 4), far below the run's one-shot
/// cold keys, so cold inserts evict from the first round on.
const PIPELINED_SHARD_CAPACITY: usize = 800;
/// The route length of every `route_delay` request (loadgen's).
const ROUTE_MM: f64 = 20.0;
/// Requests per pipelined write.
const CHUNK: usize = 256;
/// Chunks each pipelined connection keeps outstanding.
const IN_FLIGHT: usize = 4;
/// Requests per session in the traced runs: the flight recorder keeps
/// 4096 events per thread, and a router records two per request.
const TRACED_SESSION_CAP: usize = 1500;
/// Alternating plain/traced phase pairs timed for `trace.overhead_ratio`.
const OVERHEAD_PAIRS: usize = 5;
/// Requests per connection of a pipelined overhead phase.
const OVERHEAD_PAYLOAD: usize = 10_000;
/// Daemon boots timed for `setup_s`.
const SETUP_REPEATS: usize = 9;
/// Pending requests per session the trace join looks ahead over.
const JOIN_WINDOW: usize = 8;
/// Hot answers compared with a direct solve.
const CHECK_SAMPLE: usize = 256;

const NODES: [CampaignNode; 3] = [
    CampaignNode::Nm250,
    CampaignNode::Nm100,
    CampaignNode::Nm100Eps33,
];
const OPS: [&str; 3] = ["optimum", "route_delay", "lcrit"];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hot,
    Noisy,
    Cold,
}

/// One generated request.
#[derive(Clone)]
struct Req {
    id: u64,
    /// Index into [`OPS`] (equal to the protocol's op code).
    op: usize,
    node: usize,
    l_h_per_m: f64,
    kind: Kind,
}

impl Req {
    fn line(&self) -> String {
        let length = if self.op == 1 {
            format!(",\"length_mm\":{ROUTE_MM}")
        } else {
            String::new()
        };
        format!(
            "{{\"id\":{},\"op\":\"{}\",\"node\":\"{}\",\"l_h_per_m\":{}{length}}}\n",
            self.id,
            OPS[self.op],
            NODES[self.node].name(),
            self.l_h_per_m
        )
    }
}

/// The seeded request mix of a run.
struct Mix {
    /// `(node, warm-grid inductance in H/m)` of every hot key.
    hot: Vec<(usize, f64)>,
    /// Shares of hot and noisy requests; the rest are cold.
    hot_share: f64,
    noisy_share: f64,
}

impl Mix {
    fn new(hot_share: f64, noisy_share: f64) -> Self {
        let grid = standard_grid(WARM_GRID);
        let stride = (WARM_GRID - 1) / (HOT_POINTS - 1);
        // Exactly the warm grid's bits: the daemon preloads
        // `from_nano_per_milli(grid[i])`.
        let hot = (0..NODES.len())
            .flat_map(|node| {
                let grid = &grid;
                (0..HOT_POINTS).map(move |i| {
                    let l = HenriesPerMeter::from_nano_per_milli(grid[i * stride]).get();
                    (node, l)
                })
            })
            .collect();
        Self {
            hot,
            hot_share,
            noisy_share,
        }
    }

    /// Draws request `id` the way loadgen does: op by id, then node,
    /// then kind and inductance.
    fn next(&self, rng: &mut Rng, id: u64) -> Req {
        let op = id as usize % OPS.len();
        let node = rng.index(NODES.len());
        let hot_l = |rng: &mut Rng| self.hot[node * HOT_POINTS + rng.index(HOT_POINTS)].1;
        let draw = rng.next_f64();
        let (l_h_per_m, kind) = if draw < self.hot_share {
            (hot_l(rng), Kind::Hot)
        } else if draw < self.hot_share + self.noisy_share {
            // Up to a quarter of a quantization bucket above the hot
            // key; round-to-nearest keying maps it onto the hot key's
            // bucket, except at the rare boundary straddle.
            let l = hot_l(rng);
            let offset = rng.next_u64() % (1u64 << (QUANT_BITS - 2));
            let noisy = if l == 0.0 {
                0.0
            } else {
                f64::from_bits(l.to_bits() + offset)
            };
            (noisy, Kind::Noisy)
        } else {
            (rng.uniform(0.01, 4.9) * 1e-6, Kind::Cold)
        };
        Req {
            id,
            op,
            node,
            l_h_per_m,
            kind,
        }
    }
}

/// One answered request as the client saw it.
struct Sample {
    /// Nanoseconds from the client epoch to the request's write.
    sent_ns: u64,
    latency_ns: u64,
    op: usize,
    response_len: usize,
}

/// What one session (connection) observed.
#[derive(Default)]
struct Session {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    /// Requests whose response id did not match, in order.
    misordered: u64,
    /// `(request, response)` of sampled hot requests for the answer
    /// check.
    hot_answers: Vec<(Req, String)>,
    /// `(hits, misses)` from the session's closing `stats` barrier.
    memo: Option<(u64, u64)>,
}

fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// `(hits, misses)` of a `stats` response.
fn memo_hits_misses(line: &str) -> Option<(u64, u64)> {
    Some((field_u64(line, "hits")?, field_u64(line, "misses")?))
}

impl Session {
    /// Accounts one response line with its timing (`None`: the
    /// connection ended first).
    fn answer(&mut self, req: &Req, response: Option<(&str, Sample)>) {
        self.attempted += 1;
        let Some((line, sample)) = response else {
            self.failed += 1;
            return;
        };
        match response_id(line) {
            // An error without an id (a capacity refusal) is a failure,
            // not a reordering.
            None => {
                self.failed += 1;
                return;
            }
            Some(id) if id != req.id => self.misordered += 1,
            Some(_) => {}
        }
        if !line.contains("\"ok\":true") {
            self.failed += 1;
            return;
        }
        if req.kind == Kind::Hot && self.hot_answers.len() < CHECK_SAMPLE {
            self.hot_answers.push((req.clone(), line.to_string()));
        }
        self.samples.push(sample);
    }

    /// Sends the closing `stats` barrier and records the memo counters.
    fn close_with_stats(&mut self, writer: &mut TcpStream, reader: &mut impl BufRead, id: u64) {
        let mut line = String::new();
        let asked = writer.write_all(format!("{{\"id\":{id},\"op\":\"stats\"}}\n").as_bytes());
        if asked.is_ok() && reader.read_line(&mut line).is_ok_and(|n| n > 0) {
            self.memo = memo_hits_misses(&line);
        }
        let _ = writer.shutdown(Shutdown::Write);
        while reader.read_line(&mut line).is_ok_and(|n| n > 0) {}
    }
}

/// Holds client threads at the end of their traffic, with every session
/// still open, until the daemon's CPU time has been read: the daemon
/// runs a session on threads that end when the connection closes, and
/// the CPU time of an ended thread can only be read to the tick.
struct Gate {
    /// `(threads arrived, open)`.
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl Gate {
    fn new() -> Self {
        Self {
            state: Mutex::new((0, false)),
            changed: Condvar::new(),
        }
    }

    /// Counts `threads` arrivals without waiting (a refused connection's
    /// threads, which have nothing to hold open).
    fn pass(&self, threads: usize) {
        self.state.lock().expect("gate lock").0 += threads;
        self.changed.notify_all();
    }

    /// Counts one arrival and waits until the gate opens.
    fn arrive(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.0 += 1;
        self.changed.notify_all();
        while !state.1 {
            state = self.changed.wait(state).expect("gate lock");
        }
    }

    /// Waits for `threads` arrivals, reads the daemon's CPU seconds since
    /// `cpu_before`, and opens the gate.
    fn read_cpu(&self, threads: usize, pid: u32, cpu_before: f64) -> f64 {
        let mut state = self.state.lock().expect("gate lock");
        while state.0 < threads {
            state = self.changed.wait(state).expect("gate lock");
        }
        let cpu = crate::proc::live_threads_cpu_seconds(pid).unwrap_or(f64::NAN) - cpu_before;
        state.1 = true;
        self.changed.notify_all();
        cpu
    }
}

/// Runs nproc closed-loop sessions until `seconds` pass or each has
/// made `cap` requests. `round` keeps request streams distinct across
/// calls.
fn closed_sessions(
    daemon: &mut Daemon,
    mix: &Mix,
    seed: u64,
    round: u64,
    seconds: f64,
    cap: usize,
) -> Vec<Session> {
    let n = rlckit_par::available_threads();
    let streams: Vec<Option<TcpStream>> = (0..n).map(|_| daemon.connect().ok()).collect();
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(s, stream)| {
                scope.spawn(move || {
                    let mut session = Session::default();
                    let Some(mut writer) = stream else {
                        // A refused connection is one failed attempt.
                        session.attempted = 1;
                        session.failed = 1;
                        return session;
                    };
                    let _ = writer.set_nodelay(true);
                    let Ok(read_half) = writer.try_clone() else {
                        session.attempted = 1;
                        session.failed = 1;
                        return session;
                    };
                    let mut reader = BufReader::new(read_half);
                    let mut rng = Rng::new(
                        seed ^ (round << 32) ^ (s as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    );
                    let mut line = String::new();
                    let mut id = 1;
                    while epoch.elapsed().as_secs_f64() < seconds && session.attempted < cap as u64
                    {
                        let req = mix.next(&mut rng, id);
                        let text = req.line();
                        let sent = Instant::now();
                        line.clear();
                        let got = writer.write_all(text.as_bytes()).is_ok()
                            && reader.read_line(&mut line).is_ok_and(|n| n > 0);
                        let sample = Sample {
                            sent_ns: (sent - epoch).as_nanos() as u64,
                            latency_ns: sent.elapsed().as_nanos() as u64,
                            op: req.op,
                            response_len: line.trim_end().len(),
                        };
                        session.answer(&req, got.then_some((line.trim_end(), sample)));
                        if !got {
                            break;
                        }
                        id += 1;
                    }
                    session.close_with_stats(&mut writer, &mut reader, id);
                    session
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// What pipelined connections observed: their sessions, the daemon's
/// CPU seconds over them and the wall seconds they took.
struct Pipelined {
    sessions: Vec<Session>,
    cpu_s: f64,
    secs: f64,
}

/// Runs nproc pipelined connections until `seconds` pass or each has
/// sent `cap` requests. Each connection keeps `IN_FLIGHT` chunks of
/// `CHUNK` requests outstanding: a sender thread writes a new chunk as
/// soon as the reader has the whole answer to an earlier one, so the
/// daemon's queue never drains. A request's latency runs from the start
/// of its chunk's write to its response line. `round` keeps request
/// streams distinct across calls.
fn pipelined_sessions(
    daemon: &mut Daemon,
    mix: &Mix,
    seed: u64,
    round: u64,
    seconds: f64,
    cap: usize,
) -> Pipelined {
    let n = rlckit_par::available_threads();
    let pid = daemon.pid();
    let cpu_before = crate::proc::live_threads_cpu_seconds(pid).unwrap_or(f64::NAN);
    let streams: Vec<Option<TcpStream>> = (0..n).map(|_| daemon.connect().ok()).collect();
    // A sender and a reader per connection arrive at the gate.
    let gate = &Gate::new();
    let epoch = Instant::now();
    let (sessions, cpu_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(s, stream)| {
                scope.spawn(move || {
                    let mut session = Session::default();
                    let refused = |mut session: Session| {
                        session.attempted = 1;
                        session.failed = 1;
                        gate.pass(2);
                        session
                    };
                    let Some(mut writer) = stream else {
                        return refused(session);
                    };
                    let Ok(read_half) = writer.try_clone() else {
                        return refused(session);
                    };
                    // The sender hands each chunk to the reader before
                    // writing it; the reader returns a token per answered
                    // chunk.
                    let (chunk_tx, chunk_rx) = mpsc::channel::<(Vec<Req>, Instant)>();
                    let (token_tx, token_rx) = mpsc::channel::<()>();
                    scope.spawn(move || {
                        let mut rng = Rng::new(
                            seed ^ (round << 32)
                                ^ (s as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        );
                        let (mut id, mut chunks) = (1, 0);
                        while epoch.elapsed().as_secs_f64() < seconds && (id as usize) <= cap {
                            if chunks >= IN_FLIGHT && token_rx.recv().is_err() {
                                break;
                            }
                            let size = CHUNK.min(cap + 1 - id as usize) as u64;
                            let reqs: Vec<Req> =
                                (id..id + size).map(|i| mix.next(&mut rng, i)).collect();
                            let text: String = reqs.iter().map(Req::line).collect();
                            id += size;
                            chunks += 1;
                            if chunk_tx.send((reqs, Instant::now())).is_err()
                                || writer.write_all(text.as_bytes()).is_err()
                            {
                                break;
                            }
                        }
                        drop(chunk_tx);
                        gate.arrive();
                        // The session closes with a `stats` barrier.
                        let _ = writer
                            .write_all(format!("{{\"id\":{id},\"op\":\"stats\"}}\n").as_bytes());
                        let _ = writer.shutdown(Shutdown::Write);
                    });
                    let mut reader = BufReader::new(read_half);
                    let mut line = String::new();
                    for (reqs, start) in chunk_rx {
                        for req in &reqs {
                            line.clear();
                            let got = reader.read_line(&mut line).is_ok_and(|n| n > 0);
                            let latency = start.elapsed();
                            let sample = Sample {
                                sent_ns: (start - epoch).as_nanos() as u64,
                                latency_ns: latency.as_nanos() as u64,
                                op: req.op,
                                response_len: line.trim_end().len(),
                            };
                            session.answer(req, got.then_some((line.trim_end(), sample)));
                        }
                        let _ = token_tx.send(());
                    }
                    gate.arrive();
                    line.clear();
                    if reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                        session.memo = memo_hits_misses(&line);
                    }
                    while reader.read_line(&mut line).is_ok_and(|n| n > 0) {}
                    session
                })
            })
            .collect();
        let cpu = gate.read_cpu(2 * n, pid, cpu_before);
        let sessions: Vec<Session> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (sessions, cpu)
    });
    Pipelined {
        sessions,
        cpu_s,
        secs: epoch.elapsed().as_secs_f64(),
    }
}

/// Median daemon boot time over `SETUP_REPEATS` fresh daemons; the last
/// one is returned running for the measurement.
fn boot(cfg: &Config, opts: &Options) -> Result<(Daemon, f64), String> {
    let mut samples = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        let d = Daemon::start(&cfg.serve_bin, opts)?;
        samples.push(d.setup_s);
        daemon = Some(d);
    }
    let daemon = daemon.ok_or("no daemon started")?;
    Ok((daemon, stats::median(&mut samples)))
}

/// Strips the `"source"` field, which says memo or solve and is the one
/// part of an answer allowed to differ from a direct solve.
fn without_source(line: &str) -> &str {
    line.find(",\"source\":").map_or(line, |at| &line[..at])
}

/// Checks sampled hot answers against a direct solve rendered by the
/// protocol module.
fn answers_match(sessions: &[Session]) -> bool {
    let mut solved: HashMap<(usize, u64), RlcOptimum> = HashMap::new();
    sessions
        .iter()
        .flat_map(|s| &s.hot_answers)
        .all(|(req, got)| {
            let opt = *solved
                .entry((req.node, req.l_h_per_m.to_bits()))
                .or_insert_with(|| {
                    let tech = NODES[req.node].tech();
                    let line = LineRlc::new(
                        tech.line().resistance,
                        HenriesPerMeter::new(req.l_h_per_m),
                        tech.line().capacitance,
                    );
                    optimize_rlc(&line, &tech.driver(), OptimizerOptions::default())
                        .expect("warm-grid point solves")
                });
            let want = match req.op {
                0 => response_optimum(req.id, &opt, Served::Hit),
                1 => {
                    let length = Meters::new(ROUTE_MM * 1e-3);
                    response_route_delay(req.id, length, opt.total_delay(length), Served::Hit)
                }
                _ => response_lcrit(req.id, opt.critical_inductance, Served::Hit),
            };
            without_source(&want) == without_source(got)
        })
}

/// Totals over sessions, plus the output checks.
struct Totals {
    attempted: u64,
    failed: u64,
    latencies_us: Vec<f64>,
    checks: Checks,
}

fn totals(sessions: &[Session]) -> Totals {
    Totals {
        attempted: sessions.iter().map(|s| s.attempted).sum(),
        failed: sessions.iter().map(|s| s.failed).sum(),
        latencies_us: sessions
            .iter()
            .flat_map(|s| &s.samples)
            .map(|s| s.latency_ns as f64 / 1e3)
            .collect(),
        checks: vec![
            (
                "serve.ids_answered_once_in_order".to_string(),
                sessions.iter().all(|s| s.misordered == 0),
            ),
            (
                "serve.hot_answers_equal_direct_solve".to_string(),
                answers_match(sessions),
            ),
        ],
    }
}

/// The report of a timed serving run: the daemon's CPU time per
/// answered request, the client's wall-clock view in the details.
fn report(
    t: Totals,
    run: &Pipelined,
    speed: &Speed,
    setup_s: f64,
    extra: Vec<(String, String)>,
) -> Report {
    let answered = t.attempted - t.failed;
    let (metrics, mut details) = stats::metrics(run.cpu_s, answered, speed, setup_s);
    details.insert(0, ("operation".to_string(), "\"one request\"".to_string()));
    details.extend(
        Wall {
            ops: answered,
            busy_s: run.secs,
            latencies_us: t.latencies_us,
        }
        .details(),
    );
    details.push((
        "connections".to_string(),
        rlckit_par::available_threads().to_string(),
    ));
    details.extend(extra);
    details.push(("checks".to_string(), render_checks(&t.checks)));
    Report {
        correct: t.checks.iter().all(|(_, ok)| *ok),
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        details,
    }
}

/// The daemon flags of a serving workload: the closed loop's memo holds
/// everything it asks, the pipelined one's evicts.
fn daemon_options(closed: bool, traced: Option<(PathBuf, PathBuf)>) -> Options {
    Options {
        warm_grid: WARM_GRID,
        shard_capacity: if closed {
            CLOSED_SHARD_CAPACITY
        } else {
            PIPELINED_SHARD_CAPACITY
        },
        traced,
    }
}

/// Per-layer metrics the traced run takes from its closed-loop phase:
/// the service path of one request and the wire, which only a client
/// with one request outstanding sees without a queue in front of them.
const CLOSED_LOOP_LAYERS: [&str; 11] = [
    "serve.engine.parse_us_p50",
    "serve.engine.memo_us_p50",
    "serve.engine.solve_us_p50",
    "serve.engine.solve_us_p99",
    "serve.engine.write_us_p50",
    "serve.engine.total_us_p50",
    "serve.wire_us_p50",
    "serve.wire_us_p99",
    "serve.wire_join_ambiguous_ratio",
    "serve.client_us_p50",
    "serve.ledger_residual_ratio",
];

/// The traced run of `serve_pipelined`: a closed-loop phase (loadgen's
/// serving mix, nproc `TCP_NODELAY` connections with one request
/// outstanding) for the per-request ledger, then the pipelined phase
/// for every other serving layer.
fn run_traced_both(cfg: &Config, mix: &Mix) -> Result<Report, String> {
    let closed = run_traced(cfg, &Mix::new(0.64, 0.30), true)?;
    let mut report = run_traced(cfg, mix, false)?;
    for metric in &mut report.metrics {
        if let Some(m) = closed
            .metrics
            .iter()
            .find(|m| m.name == metric.name && CLOSED_LOOP_LAYERS.contains(&m.name))
        {
            metric.value = m.value;
        }
    }
    let closed_queue = closed
        .metrics
        .iter()
        .find(|m| m.name == "par.pool.queue_depth_p50")
        .map_or(f64::NAN, |m| m.value);
    report.correct &= closed.correct;
    report.attempted += closed.attempted;
    report.failed += closed.failed;
    report.details.extend(
        closed
            .details
            .into_iter()
            .map(|(k, v)| (format!("closed_loop_{k}"), v)),
    );
    report.details.push((
        "closed_loop_pool_queue_depth_p50".into(),
        crate::json_number(closed_queue),
    ));
    Ok(report)
}

pub fn run_pipelined(cfg: &Config) -> Result<Report, String> {
    let mix = Mix::new(0.60, 0.0);
    if cfg.trace {
        return run_traced_both(cfg, &mix);
    }
    let (mut daemon, setup_s) = boot(cfg, &daemon_options(false, None))?;
    // The pipeline never pauses, so the calibration runs only around it.
    let (run, speed) = calib::around(|_| {
        Ok(pipelined_sessions(
            &mut daemon,
            &mix,
            cfg.seed,
            0,
            cfg.seconds,
            usize::MAX,
        ))
    })?;
    daemon.stop();
    let mut extra = memo_details(&run.sessions);
    extra.push((
        "in_flight_per_connection".into(),
        (IN_FLIGHT * CHUNK).to_string(),
    ));
    Ok(report(totals(&run.sessions), &run, &speed, setup_s, extra))
}

fn memo_details(sessions: &[Session]) -> Vec<(String, String)> {
    let (h, m) = memo_counts(sessions);
    vec![
        ("memo_hits".into(), h.to_string()),
        ("memo_misses".into(), m.to_string()),
    ]
}

fn memo_counts(sessions: &[Session]) -> (u64, u64) {
    sessions
        .iter()
        .filter_map(|s| s.memo)
        .fold((0, 0), |(h, m), (a, b)| (h + a, m + b))
}

/// Requests of the traced serve run.
fn workload_requests(mix: &Mix, seed: u64, n: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ 0x1a7e_4500);
    (1..=n as u64).map(|id| mix.next(&mut rng, id)).collect()
}

/// The traced run of either serving workload. Two daemons run side by
/// side with the same flags, one traced (`--trace-events` plus a
/// `jsonl+:` metric sink) and one not. A first traced phase, sized to
/// fit the flight recorder, produces the per-request ledger; then short
/// phases alternate between the daemons for `trace.overhead_ratio`.
fn run_traced(cfg: &Config, mix: &Mix, closed: bool) -> Result<Report, String> {
    let events_path = cfg.work_dir.join("events.jsonl");
    let sink = cfg.work_dir.join("sink.jsonl");
    let traced_opts = daemon_options(closed, Some((events_path.clone(), sink.clone())));
    let mut traced = Daemon::start(&cfg.serve_bin, &traced_opts)?;
    let mut plain = Daemon::start(&cfg.serve_bin, &daemon_options(closed, None))?;
    // The first sink block is the post-boot baseline (warm-grid solves).
    let baseline = await_sink_blocks(&sink, 1)?.remove(0);

    let phase_s = cfg.seconds * 0.35;
    let sessions = if closed {
        closed_sessions(&mut traced, mix, cfg.seed, 1, phase_s, TRACED_SESSION_CAP)
    } else {
        pipelined_sessions(
            &mut traced,
            mix,
            cfg.seed,
            1,
            f64::INFINITY,
            TRACED_SESSION_CAP,
        )
        .sessions
    };
    traced.await_closed()?;
    let events_text =
        std::fs::read_to_string(&events_path).map_err(|e| format!("no event drain: {e}"))?;
    // The first flush block begun after the sessions closed holds their
    // complete counts.
    let flushed =
        crate::layers::jsonl_blocks(&std::fs::read_to_string(&sink).unwrap_or_default()).len();
    let after = await_sink_blocks(&sink, flushed + 1)?
        .pop()
        .ok_or("empty metric sink")?;
    let delta = Telemetry(after.since(&baseline));

    let mut ledger = Ledger::new();
    delta.fill_solver_layers(&mut ledger);
    let (hits, misses) = memo_counts(&sessions);
    ledger.set(
        "core.memo.hit_ratio",
        stats::ratio(hits as f64, (hits + misses) as f64),
    );
    ledger.set("core.memo.evictions", delta.counter("memo.evictions"));
    ledger.set(
        "par.pool.backpressure",
        delta.counter("par.pool.backpressure"),
    );
    ledger.set(
        "par.pool.queue_depth_p50",
        // The pool observes its depth including the job just submitted;
        // the ledger reports the jobs already waiting ahead of it.
        delta
            .0
            .histograms
            .get("par.pool.queue_depth")
            .map_or(0.0, |h| (bucket_median(&h.buckets) - 1.0).max(0.0)),
    );
    let (events, dropped) = traceview::parse_events(&events_text);
    ledger.set("trace.events_dropped", dropped as f64);
    let joined = request_ledger(&events, &sessions, &mut ledger);

    // Overhead: alternate equal phases on the plain and traced daemons.
    // The traced daemon drains its whole flight recorder as each
    // connection closes, so every traced phase waits for its drains.
    let (mut plain_cost, mut traced_cost) = (Vec::new(), Vec::new());
    let mut all = sessions;
    for pair in 0..OVERHEAD_PAIRS {
        for (daemon, cost) in [
            (&mut plain, &mut plain_cost),
            (&mut traced, &mut traced_cost),
        ] {
            // Time per request: the client's median latency in the closed
            // loop, the round's wall time per request when pipelined.
            let mut done = if closed {
                let done = closed_sessions(daemon, mix, cfg.seed, 2 + pair as u64, 1.0, usize::MAX);
                cost.push(stats::median(&mut totals(&done).latencies_us));
                done
            } else {
                let run = pipelined_sessions(
                    daemon,
                    mix,
                    cfg.seed,
                    2 + pair as u64,
                    f64::INFINITY,
                    OVERHEAD_PAYLOAD,
                );
                cost.push(run.secs / totals(&run.sessions).attempted as f64);
                run.sessions
            };
            daemon.await_closed()?;
            all.append(&mut done);
        }
    }
    ledger.set(
        "trace.overhead_ratio",
        stats::median(&mut traced_cost) / stats::median(&mut plain_cost),
    );
    traced.stop();
    plain.stop();

    layer_timings(cfg, mix, &mut ledger);
    let t = totals(&all);
    Ok(Report {
        correct: t.checks.iter().all(|(_, ok)| *ok),
        attempted: t.attempted,
        failed: t.failed,
        metrics: ledger.into_metrics(),
        details: vec![
            ("traced_requests".into(), joined.0.to_string()),
            ("joined_requests".into(), joined.1.to_string()),
            ("events".into(), events.len().to_string()),
            ("checks".into(), render_checks(&t.checks)),
        ],
    })
}

/// Median of an exact-bucket histogram (bucket index = value).
fn bucket_median(buckets: &[u64]) -> f64 {
    let total: u64 = buckets.iter().sum();
    let mut seen = 0;
    for (value, &count) in buckets.iter().enumerate() {
        seen += count;
        if total > 0 && 2 * seen >= total {
            return value as f64;
        }
    }
    0.0
}

/// Per-request server phases from the drained flight recorder, joined
/// to the client's timings for the wire share. Returns `(traces,
/// joined)` counts.
fn request_ledger(
    events: &[traceview::Event],
    sessions: &[Session],
    ledger: &mut Ledger,
) -> (usize, usize) {
    let times = traceview::kind_times(events);
    let phases = traceview::phase_samples(events);
    let us = |v: &[u64]| v.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<f64>>();
    let p = |phase: &str, q: f64| {
        let mut v = phases.get(phase).map(|v| us(v)).unwrap_or_default();
        stats::quantile(&mut v, q)
    };
    ledger.set("serve.engine.parse_us_p50", p("parse", 0.5));
    ledger.set("serve.engine.queue_us_p50", p("queue", 0.5));
    ledger.set("serve.engine.queue_us_p99", p("queue", 0.99));
    ledger.set("serve.engine.solve_us_p50", p("solve", 0.5));
    ledger.set("serve.engine.solve_us_p99", p("solve", 0.99));
    ledger.set("serve.engine.write_us_p50", p("write", 0.5));
    ledger.set("serve.engine.total_us_p50", p("total", 0.5));
    let mut memo: Vec<f64> = times
        .values()
        .filter_map(|t| Some(t.get("probe")?.checked_sub(*t.get("dequeue")?)? as f64 / 1e3))
        .collect();
    ledger.set("serve.engine.memo_us_p50", stats::median(&mut memo));

    let mut traces: BTreeMap<u64, (u64, Option<u64>)> = BTreeMap::new();
    for e in events {
        let entry = traces.entry(e.trace_id).or_insert((u64::MAX, None));
        match e.kind.as_str() {
            "parse" => entry.0 = e.value,
            "write" => entry.1 = Some(e.value),
            _ => {}
        }
    }
    let labelled: Vec<(u64, (u64, u64))> = traces
        .iter()
        .filter_map(|(&id, &(op, len))| Some((id, (op, len?))).filter(|_| op < 3))
        .collect();
    let (mut wire, mut client_us) = (Vec::new(), Vec::new());
    let (pairs, ambiguous) = join(&labelled, sessions);
    ledger.set(
        "serve.wire_join_ambiguous_ratio",
        stats::ratio(ambiguous as f64, pairs.len() as f64),
    );
    for (trace_id, sample) in pairs {
        let t = &times[&trace_id];
        if let (Some(&a), Some(&b)) = (t.get("parse"), t.get("write")) {
            let latency_us = sample.latency_ns as f64 / 1e3;
            wire.push(latency_us - b.saturating_sub(a) as f64 / 1e3);
            client_us.push(latency_us);
        }
    }
    let queries = labelled.len();
    let joined = wire.len();
    let wire_p50 = stats::median(&mut wire);
    ledger.set("serve.wire_us_p50", wire_p50);
    ledger.set("serve.wire_us_p99", stats::quantile(&mut wire, 0.99));
    let client_p50 = stats::median(&mut client_us);
    ledger.set("serve.client_us_p50", client_p50);
    let layers = ["parse", "queue", "solve", "write"]
        .iter()
        .map(|ph| p(ph, 0.5))
        .sum::<f64>();
    ledger.set(
        "serve.ledger_residual_ratio",
        ((layers + wire_p50) - client_p50).abs() / client_p50,
    );
    (queries, joined)
}

/// Pairs query traces with the client requests they served, best
/// effort, and counts the pairs that were ambiguous.
///
/// Trace ids are handed out in arrival order, so each session's
/// requests occupy its traces in order; a trace carries its op code and
/// response length (`label`), the client knows both for each request.
/// Labels repeat, so the pairing is not unique in general. With two
/// sessions a dynamic program finds a split of the trace sequence into
/// the two sessions' label sequences; where the next request of both
/// sessions carries a trace's label, the one sent later takes the later
/// trace. That guess follows send order, which arrival order need not
/// follow (in `serve_pipelined` a whole chunk shares one send time), so
/// each such pair counts as ambiguous. Otherwise each trace goes to the
/// nearest pending request of any session with its label (a few
/// requests of lookahead), ambiguous when more than one session has
/// one.
fn join<'a>(
    labelled: &[(u64, (u64, u64))],
    sessions: &'a [Session],
) -> (Vec<(u64, &'a Sample)>, usize) {
    let label = |s: &Sample| (s.op as u64, s.response_len as u64);
    if let [a, b] = sessions {
        let (a, b) = (&a.samples, &b.samples);
        let (n, m) = (a.len(), b.len());
        if n + m == labelled.len() {
            // reach[i][j]: a[..i] and b[..j] explain labelled[..i + j].
            let mut reach = vec![vec![false; m + 1]; n + 1];
            reach[0][0] = true;
            for i in 0..=n {
                for j in 0..=m {
                    let t = i + j;
                    if t == 0 {
                        continue;
                    }
                    let want = labelled[t - 1].1;
                    reach[i][j] = (i > 0 && reach[i - 1][j] && label(&a[i - 1]) == want)
                        || (j > 0 && reach[i][j - 1] && label(&b[j - 1]) == want);
                }
            }
            if reach[n][m] {
                let mut pairs = Vec::with_capacity(n + m);
                let mut ambiguous = 0;
                let (mut i, mut j) = (n, m);
                while i + j > 0 {
                    let t = labelled[i + j - 1];
                    let from_a = i > 0 && reach[i - 1][j] && label(&a[i - 1]) == t.1;
                    let from_b = j > 0 && reach[i][j - 1] && label(&b[j - 1]) == t.1;
                    ambiguous += usize::from(from_a && from_b);
                    // Walking backwards, the later-sent request takes the
                    // later trace.
                    if from_a && (!from_b || a[i - 1].sent_ns >= b[j - 1].sent_ns) {
                        i -= 1;
                        pairs.push((t.0, &a[i]));
                    } else {
                        j -= 1;
                        pairs.push((t.0, &b[j]));
                    }
                }
                return (pairs, ambiguous);
            }
        }
    }
    let mut next = vec![0usize; sessions.len()];
    let mut pairs = Vec::new();
    let mut ambiguous = 0;
    for &(trace_id, want) in labelled {
        let candidates: Vec<_> = (0..sessions.len())
            .filter_map(|k| {
                let pending = sessions[k].samples.get(next[k]..)?;
                let skip = pending
                    .iter()
                    .take(JOIN_WINDOW)
                    .position(|s| label(s) == want)?;
                Some((skip, pending[skip].sent_ns, k))
            })
            .collect();
        ambiguous += usize::from(candidates.len() > 1);
        if let Some(&(skip, _, k)) = candidates.iter().min() {
            pairs.push((trace_id, &sessions[k].samples[next[k] + skip]));
            next[k] += skip + 1;
        }
    }
    (pairs, ambiguous)
}

/// Per-call medians of the serving layers on this run's own requests,
/// tracing off: protocol parse and render, memo key + probe against a
/// memo holding the hot keys, and the optimizer on cold keys.
fn layer_timings(cfg: &Config, mix: &Mix, ledger: &mut Ledger) {
    let requests = workload_requests(mix, cfg.seed, 2048);
    let lines: Vec<String> = requests.iter().map(Req::line).collect();
    ledger.set(
        "serve.protocol.parse_ns",
        stats::median_call_ns(&lines, 3, |l| parse_request(l)),
    );
    let queries: Vec<_> = lines
        .iter()
        .filter_map(|l| match parse_request(l) {
            Ok(Request::Query(q)) => Some(q),
            _ => None,
        })
        .collect();

    let memo = OptimumMemo::sharded_with_eviction(4, CLOSED_SHARD_CAPACITY, Eviction::Lru);
    let options = OptimizerOptions::default();
    let mut hot_opts = Vec::new();
    for &(node, l) in &mix.hot {
        let tech = NODES[node].tech();
        let line = LineRlc::new(
            tech.line().resistance,
            HenriesPerMeter::new(l),
            tech.line().capacitance,
        );
        if let Ok(opt) = optimize_rlc(&line, &tech.driver(), options) {
            memo.preload(key_for(&line, &tech.driver(), options), opt);
            hot_opts.push(opt);
        }
    }
    ledger.set(
        "core.memo.probe_ns",
        stats::median_call_ns(&queries, 3, |q| {
            memo.probe(&key_for(&q.line, &q.driver, q.options))
        }),
    );
    ledger.set(
        "serve.protocol.render_ns",
        stats::median_call_ns(&hot_opts, 64, |opt| response_optimum(7, opt, Served::Hit)),
    );
    let cold: Vec<_> = requests
        .iter()
        .zip(&queries)
        .filter(|(r, _)| r.kind == Kind::Cold)
        .map(|(_, q)| q)
        .take(64)
        .collect();
    ledger.set(
        "core.optimizer.solve_us_p50",
        stats::median_call_ns(&cold, 2, |q| optimize_rlc(&q.line, &q.driver, q.options)) / 1e3,
    );
}
