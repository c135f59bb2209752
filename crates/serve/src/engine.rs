//! The serving engine: bounded intake, sharded workers, ordered output.
//!
//! # Pipeline
//!
//! ```text
//! session A: reader ──► router ──┐                      ┌──► writer A
//!                                ├─► ShardedPool ───────┤
//! session B: reader ──► router ──┘   (worker i owns     └──► writer B
//!                                     memo shard i)
//! ```
//!
//! One [`Server`] owns a single [`rlckit_par::ShardedPool`] and memo
//! for its whole lifetime, and **any number of sessions** (TCP
//! connections, stdin, bench replays) run [`Server::serve`] against it
//! concurrently. Each session has its own router thread (the caller of
//! `serve`) reading requests line by line, its own **sequence space**,
//! and its own writer thread reordering worker responses back into that
//! session's request order. Every routed query carries its session's
//! reply sender, so the shared workers answer straight back to the
//! session that asked. This shape is what makes the daemon
//! **deterministic**:
//!
//! * Same-key requests hash to the same shard, whose queue is FIFO and
//!   whose worker is pinned — so of two back-to-back asks of one cold
//!   key, the first always solves and the second always hits, *even
//!   when the two asks come from different connections* (they
//!   serialize on the pinned shard worker). No global lock is
//!   contended across shards.
//! * Responses are emitted strictly in request order **per session**
//!   regardless of which worker finished first, so a connection's
//!   response stream is byte-identical (modulo `*_ns` wall-clock
//!   fields) to serving it alone against the same warm memo — the
//!   tier-1 parallel-clients smoke `cmp`s exactly this.
//! * A `stats` request is a **per-session barrier**: the router sleeps
//!   on a condvar (`Progress`) until its writer has put every
//!   earlier response of *this session* on the wire, then answers from
//!   the session's quiescent telemetry scope — so its `hits` and
//!   `misses` are a pure function of the session's request prefix, not
//!   of scheduling. (Other sessions keep flowing; the barrier never
//!   stalls the shared pool.) Its `evictions` count the evictions the
//!   session's own inserts made, and its latency percentiles, like
//!   those of a `trace` request, cover the session's own requests.
//! * A `trace` request is the deliberate exception: a *live*
//!   observability snapshot the router answers without a barrier, so
//!   its in-flight count and slowest ranking reflect scheduling and sit
//!   outside the byte-identity contract.
//!
//! # Eviction
//!
//! The shared memo defaults to **LRU** ([`Eviction::Lru`]): a serving
//! mix re-asks its hot (warm-grid) keys, and per-shard FIFO would
//! evict exactly those oldest inserts first under cold churn.
//! [`ServeConfig::eviction`] selects the policy; campaign paths build
//! their own FIFO memos and are untouched.
//!
//! # Observability
//!
//! Every request line is assigned a process-monotonic `trace_id` and
//! leaves a span tree in the flight recorder
//! ([`rlckit_trace::events`]):
//!
//! | event scope | kind | thread | value |
//! |---|---|---|---|
//! | `serve.parse` | `Parse` | router | [`Op::code`], or 5 on a parse error |
//! | `serve.route` | `Route` | router | shard index |
//! | `par.pool.dequeue` | `Dequeue` | worker | shard index (= worker) |
//! | `serve.memo` | `Probe` | worker | 1 = hit, 0 = miss |
//! | `serve.solve` | `Solve` | worker | 0 = served, 1 = solve error, 2 = panic |
//! | `serve.write` | `Write` | writer | response bytes (query requests only) |
//!
//! Everything but each event's `t_ns` is deterministic for a solo
//! session, so two seeded runs drain byte-identical event streams
//! after stripping `t_ns`. (Concurrent sessions interleave their
//! traces; each trace's own span tree stays intact and causal.)
//!
//! `serve.requests` / `serve.parse_errors` / `serve.solve_errors`
//! count intake and failures; `serve.latency_log2_ns` is a log₂-bucketed
//! **end-to-end** (parse-to-write) latency histogram for query
//! requests, recorded only while tracing is enabled so the disabled
//! path stays clock-free. Percentiles come from
//! [`HistogramSnapshot::percentile`] via [`log2_percentile_ns`]. Queue
//! depth is `par.pool.queue_depth` from the pool, and hit rate is
//! `memo.hits` / `memo.misses` from the memo.
//!
//! Each session's router, writer and pool jobs record in a [`Scope`] of
//! its own inside the caller's, which its `stats`, `trace` and
//! [`ServeSummary`] read; a pool worker keeps a recorder parked per
//! session, so a job enters its session's scope without a lock.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use rlckit::memo::{key_for, Eviction, MemoKey, OptimumMemo, Served, DEFAULT_CAPACITY};
use rlckit::optimizer::optimize_rlc;
use rlckit_par::{par_map, Context, Parallelism, ShardedPool};
use rlckit_tech::{DriverParams, TechNode};
use rlckit_tline::LineRlc;
use rlckit_trace::events::EventKind;
use rlckit_trace::{counter, event, histogram, span, HistogramSnapshot, Scope, Snapshot};
use rlckit_units::HenriesPerMeter;

use crate::protocol::{
    parse_request, request_id_of, response_error, response_lcrit, response_optimum,
    response_route_delay, response_stats, response_trace, Op, Query, Request, SlowRequest,
    StatsView, TraceOpView,
};

/// The `serve.parse` event value for lines that failed to parse (the
/// real ops use [`Op::code`], 0–4).
pub const PARSE_ERROR_CODE: u64 = 5;

/// Slowest requests the live slow log retains (the `trace` response's
/// table size).
pub const SLOW_LOG_CAPACITY: usize = 8;

/// Allocates request trace ids, monotonic across the whole process so
/// ids stay unique when one process serves several sessions (TCP
/// connections, bench replays).
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Bounded per-worker queue depth: intake backpressures beyond it.
const QUEUE_DEPTH: usize = 64;

/// Sizing knobs of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads — one per memo shard.
    pub workers: usize,
    /// Memo entries retained per shard.
    pub shard_capacity: usize,
    /// Eviction policy of the shared memo. Defaults to
    /// [`Eviction::Lru`]: a serving mix re-asks its warm-grid keys, and
    /// FIFO evicts exactly those oldest inserts first under cold churn.
    pub eviction: Eviction,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            shard_capacity: DEFAULT_CAPACITY,
            eviction: Eviction::Lru,
        }
    }
}

/// What one [`Server::serve`] session did, read from its telemetry
/// scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Request lines consumed (blank lines excluded).
    pub requests: u64,
    /// Requests answered from the memo.
    pub hits: u64,
    /// Requests answered by a fresh solve.
    pub misses: u64,
    /// Malformed requests plus failed solves (each still got an error
    /// response).
    pub errors: u64,
    /// Whether the session ended because the reader hit its idle read
    /// timeout (the connection was closed cleanly with a final error
    /// response) rather than end-of-input.
    pub timed_out: bool,
}

/// What a worker (or the router, for inline answers) hands a session's
/// writer: `(seq, trace_id, query started-at, response text)`.
type Reply = (u64, u64, Option<Instant>, String);

/// One routed query in flight through the shared pool. Owns everything
/// the worker needs to answer — including the submitting session's
/// reply sender, which is how one pool serves many sessions without
/// knowing they exist.
struct Job {
    seq: u64,
    trace_id: u64,
    t0: Option<Instant>,
    query: Box<Query>,
    reply: mpsc::Sender<Reply>,
}

/// A session's write-progress cursor: how many responses its writer has
/// put on the wire, guarded by a condvar so the router's `stats`
/// barrier *sleeps* until the writer catches up instead of busy-spinning
/// `yield_now()` (which, on a loaded box, burned a core per barrier).
struct Progress {
    written: Mutex<u64>,
    wrote: Condvar,
}

impl Progress {
    fn new() -> Self {
        Self {
            written: Mutex::new(0),
            wrote: Condvar::new(),
        }
    }

    /// Writer-side: every response with `seq < next` is on the wire.
    fn advance_to(&self, next: u64) {
        *self
            .written
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = next;
        self.wrote.notify_all();
    }

    /// Writer-side, on an I/O error: releases every waiter forever. A
    /// barrier that outlives its writer would otherwise hang the
    /// session's router.
    fn abandon(&self) {
        self.advance_to(u64::MAX);
    }

    /// Router-side: blocks until at least `seq` responses are written
    /// (or the writer abandoned the session).
    fn wait_for(&self, seq: u64) {
        let mut written = self
            .written
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while *written < seq {
            written = self
                .wrote
                .wait(written)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn current(&self) -> u64 {
        *self
            .written
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Bytes of in-order responses a session writer gathers before it
/// writes them out even though more replies are ready.
const WRITE_BATCH_BYTES: usize = 64 * 1024;

/// In-order responses a session writer has gathered for one write.
/// With `TCP_NODELAY` each write leaves as its own segment; gathering
/// the replies that are ready keeps pipelined replies sharing segments
/// (about 6 % less CPU per request than one write per response on
/// perfbench `serve_pipelined`, 2-CPU Linux VM).
#[derive(Default)]
struct WriteBatch {
    bytes: Vec<u8>,
    /// Per response: `(trace_id, t0, response bytes)`, recorded once
    /// the batch is on the wire.
    sent: Vec<(u64, Option<Instant>, usize)>,
}

impl WriteBatch {
    fn push(&mut self, trace_id: u64, t0: Option<Instant>, text: &str) {
        self.bytes.extend_from_slice(text.as_bytes());
        self.bytes.push(b'\n');
        self.sent.push((trace_id, t0, text.len()));
    }

    /// Puts the batch on the wire with a single `write_all` (a response
    /// split over two writes meets Nagle's algorithm and the peer's
    /// delayed ACK: a ~40 ms stall per response). Only then does it
    /// record each response's `serve.write` event and latency and
    /// advance the session's cursor to `next`, so the `stats` barrier
    /// still means "on the wire". No-op on an empty batch.
    fn write_out(
        &mut self,
        writer: &mut impl Write,
        next: u64,
        slow: &Mutex<SlowLog>,
        progress: &Progress,
    ) -> std::io::Result<()> {
        if self.bytes.is_empty() {
            return Ok(());
        }
        writer.write_all(&self.bytes)?;
        writer.flush()?;
        self.bytes.clear();
        for (trace_id, t0, bytes) in self.sent.drain(..) {
            // Query requests only (`t0` is set iff the request was a
            // query with tracing live): their response bytes are
            // deterministic, keeping the drained event stream
            // byte-identical across seeded runs. The router-answered
            // ops' responses embed wall-clock digits, so a Write event
            // for them would leak `*_ns` entropy into the `value` field.
            if let Some(t0) = t0 {
                event!(trace_id, "serve.write", EventKind::Write, bytes as u64);
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX - 1);
                histogram!("serve.latency_log2_ns").observe(u64::from((ns + 1).ilog2()));
                slow.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .record(trace_id, ns);
            }
        }
        progress.advance_to(next);
        Ok(())
    }
}

/// The server-lifetime log of the slowest requests, worst first, ties
/// broken toward the earlier trace id. Maintained by the writer threads
/// (only while tracing is enabled), read by any router's `trace` op.
#[derive(Debug, Default)]
struct SlowLog {
    entries: Vec<SlowRequest>,
}

impl SlowLog {
    fn record(&mut self, trace_id: u64, total_ns: u64) {
        self.entries.push(SlowRequest { trace_id, total_ns });
        self.entries
            .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.trace_id.cmp(&b.trace_id)));
        self.entries.truncate(SLOW_LOG_CAPACITY);
    }
}

/// The paper's standard inductance sweep: `points` values spanning
/// 0–4.95 nH/mm, matching the campaign grid so warm-started entries
/// cover the asks a figure-replay workload makes.
#[must_use]
pub fn standard_grid(points: usize) -> Vec<f64> {
    match points {
        0 => Vec::new(),
        1 => vec![0.0],
        n => (0..n)
            .map(|i| 4.95 * i as f64 / (n - 1) as f64)
            .collect(),
    }
}

/// A query daemon: a sharded memo plus the serving pipeline around it.
/// One `Server` serves any number of concurrent sessions — see the
/// module docs.
pub struct Server {
    memo: Arc<OptimumMemo>,
    pool: ShardedPool<Job>,
    config: ServeConfig,
    started: Instant,
    slow: Mutex<SlowLog>,
}

impl Server {
    /// Creates a server with one memo shard per worker. The worker pool
    /// lives as long as the server and is shared by every session.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        let memo = Arc::new(OptimumMemo::sharded_with_eviction(
            config.workers.max(1),
            config.shard_capacity,
            config.eviction,
        ));
        let pool = {
            let memo = Arc::clone(&memo);
            ShardedPool::new(config.workers, QUEUE_DEPTH, move |_shard, job: Job| {
                let Job {
                    seq,
                    trace_id,
                    t0,
                    query,
                    reply,
                } = job;
                let response = catch_unwind(AssertUnwindSafe(|| answer(&memo, trace_id, &query)))
                    .unwrap_or_else(|_| {
                        counter!("serve.solve_errors").incr();
                        event!(trace_id, "serve.solve", EventKind::Solve, 2);
                        response_error(Some(query.id), "internal error: solver panicked")
                    });
                let _ = reply.send((seq, trace_id, t0, response));
            })
        };
        Self {
            memo,
            pool,
            config,
            started: Instant::now(),
            slow: Mutex::new(SlowLog::default()),
        }
    }

    /// The shared memo (snapshot save/load operates on this).
    #[must_use]
    pub fn memo(&self) -> &Arc<OptimumMemo> {
        &self.memo
    }

    /// The sizing knobs this server was built with.
    #[must_use]
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Nanoseconds since this server was created.
    #[must_use]
    pub fn uptime_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Shuts the shared worker pool down (drains queued jobs, joins the
    /// workers). Idempotent. Sessions still running afterwards answer
    /// every further query inline with a `"pool shut down"` error
    /// response that keeps the request's `id` — they do not hang and do
    /// not lose the correlation.
    pub fn shutdown_pool(&self) {
        self.pool.shutdown();
    }

    /// Pre-solves the default-threshold optimum for every Table 1 node
    /// (plus the identical-`c` control) over [`standard_grid`] points
    /// and preloads the results, so on-grid asks hit from the first
    /// request. Returns the number of entries preloaded (grid points
    /// already present — e.g. from a snapshot — are skipped unsolved).
    ///
    /// The missing points are listed by one serial probe pass, solved
    /// on [`Parallelism::Auto`] workers ([`par_map`]), and preloaded in
    /// grid order; a point that was present at the probe but has since
    /// been evicted by an earlier preload of this pass is solved inline.
    /// So the memo it leaves — entries, value bits and recency order —
    /// and the count it returns are those of one serial loop over the
    /// grid, at every worker count. Timed as the `serve.warm_grid` span.
    ///
    /// # Panics
    ///
    /// Panics if the optimizer panics on a grid point (a failed solve is
    /// skipped, not a panic).
    pub fn warm_grid(&self, points_per_node: usize) -> usize {
        let _span = span!("serve.warm_grid");
        let options = rlckit::optimizer::OptimizerOptions::default();
        let grid = standard_grid(points_per_node);
        let points: Vec<(LineRlc, DriverParams)> = [
            TechNode::nm250(),
            TechNode::nm100(),
            TechNode::nm100_with_250nm_dielectric(),
        ]
        .iter()
        .flat_map(|node| {
            grid.iter().map(|&l_nh_mm| {
                let line = LineRlc::new(
                    node.line().resistance,
                    HenriesPerMeter::from_nano_per_milli(l_nh_mm),
                    node.line().capacitance,
                );
                (line, node.driver())
            })
        })
        .collect();
        let keys: Vec<MemoKey> = points
            .iter()
            .map(|(line, driver)| key_for(line, driver, options))
            .collect();
        let solve =
            |(line, driver): &(LineRlc, DriverParams)| optimize_rlc(line, driver, options).ok();

        let missing: Vec<usize> = (0..points.len())
            .filter(|&i| self.memo.probe(&keys[i]).is_none())
            .collect();
        let solved = par_map(&missing, Parallelism::Auto, |_, &i| Ok(solve(&points[i])))
            .unwrap_or_else(|e| panic!("warm-grid solve: {e}"));

        let mut solved = missing.into_iter().zip(solved).peekable();
        let mut preloaded = 0;
        for (i, (point, key)) in points.iter().zip(keys).enumerate() {
            let answer = match solved.next_if(|&(at, _)| at == i) {
                Some((_, answer)) => answer,
                None if self.memo.probe(&key).is_some() => continue,
                None => solve(point),
            };
            if answer.is_some_and(|opt| self.memo.preload(key, opt)) {
                preloaded += 1;
            }
        }
        preloaded
    }

    /// Runs one serving session until `reader` reaches end of input,
    /// writing one response line per request line in **request order**
    /// (this session's own sequence space). Any number of sessions may
    /// run concurrently against one server; see the module docs for
    /// the determinism contract.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures of the reader or writer. Malformed
    /// requests and failed solves are *not* errors here — they get
    /// error response lines and are tallied in
    /// [`ServeSummary::errors`]. Neither is an idle read timeout
    /// ([`std::io::ErrorKind::WouldBlock`] / `TimedOut` from a reader
    /// over a socket with a read timeout, see the `rlckit-serve`
    /// `--idle-timeout-secs` flag): the session ends *cleanly* with a
    /// final `"ok":false` response, a `serve.timeouts` counter tick,
    /// and [`ServeSummary::timed_out`] set — so one stalled client can
    /// never wedge the daemon.
    ///
    /// # Panics
    ///
    /// Panics if the writer thread itself panicked (it contains no
    /// panicking code of its own).
    pub fn serve<R: BufRead, W: Write + Send>(
        &self,
        reader: R,
        writer: W,
    ) -> std::io::Result<ServeSummary> {
        let session = Scope::new();
        let progress = Progress::new();
        let (tx, rx) = mpsc::channel::<Reply>();

        std::thread::scope(|scope| {
            let writer_handle = {
                let progress = &progress;
                let slow = &self.slow;
                let write = move || -> std::io::Result<()> {
                    let mut writer = writer;
                    let mut pending: BTreeMap<u64, (u64, Option<Instant>, String)> =
                        BTreeMap::new();
                    let mut next = 0u64;
                    let mut batch = WriteBatch::default();
                    let result = (|| -> std::io::Result<()> {
                        // Block for one reply, then take every reply that
                        // is already waiting; write when none is left.
                        while let Ok(first) = rx.recv() {
                            let mut ready = Some(first);
                            while let Some((seq, trace_id, t0, text)) = ready {
                                pending.insert(seq, (trace_id, t0, text));
                                while let Some((trace_id, t0, text)) = pending.remove(&next) {
                                    batch.push(trace_id, t0, &text);
                                    next += 1;
                                }
                                if batch.bytes.len() >= WRITE_BATCH_BYTES {
                                    batch.write_out(&mut writer, next, slow, progress)?;
                                }
                                ready = rx.try_recv().ok();
                            }
                            batch.write_out(&mut writer, next, slow, progress)?;
                        }
                        writer.flush()
                    })();
                    if result.is_err() {
                        // A dead writer must not strand barrier waiters.
                        progress.abandon();
                    }
                    result
                };
                // The writer records its session's latencies in the
                // session's scope.
                let context = session.enter(Context::capture);
                scope.spawn(move || context.run(write))
            };

            let mut seq = 0u64;
            let mut parse_errors = 0u64;
            let mut timed_out = false;
            // The router and its pool jobs record in the session's scope.
            let router = session.enter(|| -> std::io::Result<()> {
                for line in reader.lines() {
                    let line = match line {
                        Ok(line) => line,
                        // An idle client (read timeout armed by the
                        // daemon) ends the session cleanly: tell the
                        // client why, then fall through to the normal
                        // drain-and-close path.
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            counter!("serve.timeouts").incr();
                            timed_out = true;
                            let trace_id = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
                            let _ = tx.send((
                                seq,
                                trace_id,
                                None,
                                response_error(None, "idle timeout: closing connection"),
                            ));
                            seq += 1;
                            return Ok(());
                        }
                        Err(e) => return Err(e),
                    };
                    if line.trim().is_empty() {
                        continue;
                    }
                    counter!("serve.requests").incr();
                    let trace_id = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
                    let t0 = rlckit_trace::enabled().then(Instant::now);
                    match parse_request(&line) {
                        Ok(Request::Query(query)) => {
                            event!(trace_id, "serve.parse", EventKind::Parse, query.op.code());
                            let key = key_for(&query.line, &query.driver, query.options);
                            let shard = self.memo.shard_of(&key);
                            event!(trace_id, "serve.route", EventKind::Route, shard as u64);
                            let job = Job {
                                seq,
                                trace_id,
                                t0,
                                query,
                                reply: tx.clone(),
                            };
                            if let Err(rejected) = self.pool.submit_traced(shard, trace_id, job)
                            {
                                // Possible only mid-teardown. The pool
                                // hands the unanswered job back, so the
                                // inline error keeps the id the client
                                // sent — it can still correlate the
                                // failure to its request.
                                let Job {
                                    seq,
                                    trace_id,
                                    query,
                                    reply,
                                    ..
                                } = rejected.request;
                                let _ = reply.send((
                                    seq,
                                    trace_id,
                                    None,
                                    response_error(Some(query.id), "pool shut down"),
                                ));
                            }
                        }
                        Ok(Request::Stats { id }) => {
                            event!(trace_id, "serve.parse", EventKind::Parse, Op::Stats.code());
                            // Barrier: every earlier response of THIS
                            // session must be on the wire before the
                            // counters are read. Sleeps on the condvar —
                            // other sessions keep flowing meanwhile.
                            progress.wait_for(seq);
                            let snap = session.snapshot();
                            let (hits, misses, _) = outcomes(&snap);
                            let latency = snap.histograms.get("serve.latency_log2_ns");
                            let stats = StatsView {
                                entries: self.memo.len(),
                                workers: self.pool.workers(),
                                hits,
                                misses,
                                evictions: snap.counter("memo.evictions"),
                                in_flight: seq.saturating_sub(progress.current()),
                                uptime_ns: self.uptime_ns(),
                                p50_ns: log2_percentile_ns(latency, 0.50),
                                p95_ns: log2_percentile_ns(latency, 0.95),
                                p99_ns: log2_percentile_ns(latency, 0.99),
                            };
                            let _ = tx.send((seq, trace_id, None, response_stats(id, &stats)));
                        }
                        Ok(Request::Trace { id }) => {
                            event!(trace_id, "serve.parse", EventKind::Parse, Op::Trace.code());
                            // Live snapshot: no barrier, answered from
                            // whatever is true right now.
                            let snap = session.snapshot();
                            let latency = snap.histograms.get("serve.latency_log2_ns");
                            let events = rlckit_trace::events::collect().events.len() as u64;
                            let view = TraceOpView {
                                // Self-inclusive: counts this trace
                                // request itself, unlike the stats view
                                // (see the protocol.rs contract).
                                requests: seq + 1,
                                parse_errors,
                                solve_errors: outcomes(&snap).2,
                                in_flight: seq.saturating_sub(progress.current()),
                                events,
                                uptime_ns: self.uptime_ns(),
                                p50_ns: log2_percentile_ns(latency, 0.50),
                                p95_ns: log2_percentile_ns(latency, 0.95),
                                p99_ns: log2_percentile_ns(latency, 0.99),
                                slowest: self
                                    .slow
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                                    .entries
                                    .clone(),
                            };
                            let _ = tx.send((seq, trace_id, None, response_trace(id, &view)));
                        }
                        Err(message) => {
                            event!(trace_id, "serve.parse", EventKind::Parse, PARSE_ERROR_CODE);
                            counter!("serve.parse_errors").incr();
                            parse_errors += 1;
                            let id = request_id_of(&line);
                            let _ = tx.send((seq, trace_id, None, response_error(id, &message)));
                        }
                    }
                    seq += 1;
                }
                Ok(())
            });

            // Session drain: every routed job answers through the reply
            // sender it carries, so waiting for this session's cursor to
            // reach `seq` — rather than joining the shared pool, which
            // other sessions are still using — is what ends the session.
            // (If the writer died, `abandon` has already released us.)
            progress.wait_for(seq);
            drop(tx);
            let writer_result = writer_handle.join().expect("writer thread panicked");
            router.and(writer_result)?;
            let (hits, misses, solve_errors) = outcomes(&session.snapshot());
            Ok(ServeSummary {
                // The timeout notice occupies a writer slot but is not
                // a consumed request line.
                requests: seq - u64::from(timed_out),
                hits,
                misses,
                errors: parse_errors + solve_errors,
                timed_out,
            })
        })
    }
}

/// `(hits, misses, solve errors)` in a session's snapshot. A failed
/// solve counts a memo miss first.
fn outcomes(snap: &Snapshot) -> (u64, u64, u64) {
    let errors = snap.counter("serve.solve_errors");
    let misses = snap.counter("memo.misses").saturating_sub(errors);
    (snap.counter("memo.hits"), misses, errors)
}

/// Computes the response for one validated query (worker-side).
fn answer(memo: &OptimumMemo, trace_id: u64, query: &Query) -> String {
    match memo.optimum_served(&query.line, &query.driver, query.options) {
        Ok((opt, served)) => {
            event!(
                trace_id,
                "serve.memo",
                EventKind::Probe,
                u64::from(served == Served::Hit)
            );
            let response = match query.op {
                Op::Optimum => response_optimum(query.id, &opt, served),
                Op::RouteDelay => {
                    let length = query.length.expect("validated by parse_request");
                    response_route_delay(query.id, length, opt.total_delay(length), served)
                }
                Op::Lcrit => response_lcrit(query.id, opt.critical_inductance, served),
                // Stats and trace never reach a worker (router-handled).
                Op::Stats | Op::Trace => {
                    response_error(Some(query.id), "stats/trace are router-handled")
                }
            };
            event!(trace_id, "serve.solve", EventKind::Solve, 0);
            response
        }
        Err(e) => {
            counter!("serve.solve_errors").incr();
            event!(trace_id, "serve.memo", EventKind::Probe, 0);
            event!(trace_id, "serve.solve", EventKind::Solve, 1);
            response_error(Some(query.id), &format!("solve failed: {e}"))
        }
    }
}

/// The interpolated `q`-quantile of a log₂-ns latency histogram,
/// converted back to nanoseconds (`2^percentile`, rounded). 0 when the
/// histogram is absent or empty — "no latency recorded yet" renders as
/// 0 ns rather than an error.
#[must_use]
pub fn log2_percentile_ns(h: Option<&HistogramSnapshot>, q: f64) -> u64 {
    h.and_then(|h| h.percentile(q))
        .map_or(0, |p| 2f64.powf(p).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(server: &Server, input: &str) -> (String, ServeSummary) {
        let mut out = Vec::new();
        let summary = server.serve(input.as_bytes(), &mut out).unwrap();
        (String::from_utf8(out).unwrap(), summary)
    }

    /// Removes every `"<key>_ns":<digits>` field (and its trailing
    /// comma, when present) — the documented wall-clock escape hatch —
    /// so byte-identity can be asserted on everything else.
    fn strip_ns_fields(text: &str) -> String {
        let mut out = String::new();
        for line in text.lines() {
            let mut s = line.to_string();
            while let Some(found) = s.find("_ns\":") {
                let key_start = s[..found].rfind('"').unwrap_or(0);
                let mut end = found + "_ns\":".len();
                while s.as_bytes().get(end).is_some_and(u8::is_ascii_digit) {
                    end += 1;
                }
                if s.as_bytes().get(end) == Some(&b',') {
                    end += 1;
                }
                s.replace_range(key_start..end, "");
            }
            out.push_str(&s);
            out.push('\n');
        }
        out
    }

    #[test]
    fn responses_come_back_in_request_order_with_hits_after_misses() {
        let server = Server::new(ServeConfig::default());
        let input = r#"{"id":1,"op":"optimum","node":"100nm","l_nh_mm":1.8}
{"id":2,"op":"optimum","node":"100nm","l_nh_mm":1.8}
{"id":3,"op":"route_delay","node":"100nm","l_nh_mm":1.8,"length_mm":30}
"#;
        let (out, summary) = run(&server, input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"id\":1,"), "{}", lines[0]);
        assert!(lines[0].contains("\"source\":\"solve\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"id\":2,"), "{}", lines[1]);
        assert!(lines[1].contains("\"source\":\"memo\""), "{}", lines[1]);
        // Same key again: route_delay rides the optimum's entry.
        assert!(lines[2].contains("\"source\":\"memo\""), "{}", lines[2]);
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.misses, 1);
        assert_eq!(summary.hits, 2);
        assert_eq!(summary.errors, 0);
    }

    /// A reader that yields some bytes, then fails every further read
    /// with `WouldBlock` — exactly what a `BufReader` over a TCP
    /// stream with a read timeout produces when the client stalls
    /// mid-session.
    struct StallingReader {
        data: &'static [u8],
        pos: usize,
    }

    impl std::io::Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn idle_read_timeout_closes_the_session_cleanly() {
        let server = Server::new(ServeConfig::default());
        let reader = std::io::BufReader::new(StallingReader {
            data: b"{\"id\":1,\"op\":\"optimum\",\"node\":\"100nm\",\"l_nh_mm\":1.8}\n",
            pos: 0,
        });
        let mut out = Vec::new();
        let summary = server
            .serve(reader, &mut out)
            .expect("an idle timeout must not surface as an I/O error");
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        // The request before the stall was answered normally...
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        // ...and the stalled client got a clean goodbye, not a cut wire.
        assert!(lines[1].contains("\"ok\":false"), "{}", lines[1]);
        assert!(lines[1].contains("idle timeout"), "{}", lines[1]);
        assert!(summary.timed_out);
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.errors, 0);
    }

    /// A writer that forwards the bytes of each `write` call over a
    /// channel, one message per call.
    struct ChunkWriter(mpsc::Sender<Vec<u8>>);

    impl std::io::Write for ChunkWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn newlines(chunk: &[u8]) -> usize {
        chunk.iter().filter(|&&b| b == b'\n').count()
    }

    /// A reader fed chunk by chunk over a channel; EOF once the sender
    /// is dropped.
    struct FedReader {
        feed: mpsc::Receiver<Vec<u8>>,
        buffered: Vec<u8>,
    }

    impl std::io::Read for FedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.buffered.is_empty() {
                match self.feed.recv() {
                    Ok(bytes) => self.buffered = bytes,
                    Err(_) => return Ok(0),
                }
            }
            let n = buf.len().min(self.buffered.len());
            buf[..n].copy_from_slice(&self.buffered[..n]);
            self.buffered.drain(..n);
            Ok(n)
        }
    }

    /// Parse errors and `stats` barriers: both are answered by the
    /// router and reach the client through the same writer as worker
    /// answers. They never probe the memo, so these sessions leave no
    /// query span trees for `every_request_leaves_a_reconstructible_span_tree`
    /// to catch half-written in the process-global recorder.
    fn writer_test_requests() -> Vec<String> {
        (0..12)
            .map(|i| {
                if i % 3 == 2 {
                    format!("{{\"id\":{i},\"op\":\"stats\"}}")
                } else {
                    format!("{{\"id\":{i},\"op\":\"nope\"}}")
                }
            })
            .collect()
    }

    /// Pre-fix regression (the 44 ms Nagle stall): each response went
    /// out as `writeln!` on the bare stream — two writes, the second
    /// held back by Nagle until the peer's delayed ACK. A closed-loop
    /// client, which sends each request only after reading the previous
    /// response, must see exactly one write per response.
    #[test]
    fn closed_loop_responses_take_one_write_each() {
        let server = Server::new(ServeConfig::default());
        let (feed, input) = mpsc::channel::<Vec<u8>>();
        let (writer, writes) = mpsc::channel::<Vec<u8>>();
        let requests = writer_test_requests();
        std::thread::scope(|scope| {
            let session = scope.spawn(|| {
                let reader = FedReader {
                    feed: input,
                    buffered: Vec::new(),
                };
                server.serve(std::io::BufReader::new(reader), ChunkWriter(writer))
            });
            for request in &requests {
                feed.send(format!("{request}\n").into_bytes()).unwrap();
                let chunk = writes
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("no response to {request}"));
                // The first write after the request must carry the
                // whole response line, newline included.
                assert_eq!(newlines(&chunk), 1, "{request}: {chunk:?}");
                assert_eq!(chunk.last(), Some(&b'\n'), "{request}: {chunk:?}");
            }
            drop(feed);
            session.join().unwrap().unwrap();
        });
        let extra: Vec<Vec<u8>> = writes.try_iter().collect();
        assert!(
            extra.is_empty(),
            "writes beyond one per response: {extra:?}"
        );
    }

    /// Bulk input: replies that are ready together leave together, so a
    /// session never takes more writes than it has responses.
    #[test]
    fn bulk_input_takes_no_more_writes_than_responses() {
        let server = Server::new(ServeConfig::default());
        let (writer, writes) = mpsc::channel::<Vec<u8>>();
        let requests = writer_test_requests();
        let input: String = requests.iter().map(|r| format!("{r}\n")).collect();
        server.serve(input.as_bytes(), ChunkWriter(writer)).unwrap();
        let chunks: Vec<Vec<u8>> = writes.try_iter().collect();
        let lines: usize = chunks.iter().map(|c| newlines(c)).sum();
        assert_eq!(lines, requests.len());
        assert!(
            (1..=requests.len()).contains(&chunks.len()),
            "{} writes for {} responses",
            chunks.len(),
            requests.len()
        );
    }

    #[test]
    fn non_timeout_reader_errors_still_propagate() {
        let server = Server::new(ServeConfig::default());
        struct BrokenReader;
        impl std::io::Read for BrokenReader {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::ConnectionReset.into())
            }
        }
        let result = server.serve(std::io::BufReader::new(BrokenReader), Vec::new());
        assert!(result.is_err(), "a reset is a real error, not an idle close");
    }

    /// Pre-fix regression: the pool-shutdown fallback answered
    /// `response_error(None, ...)` although the parsed query's id was
    /// in hand, so the client could not correlate the error to its
    /// request. The pool now hands the rejected job back and the
    /// router answers with the id preserved.
    #[test]
    fn pool_shutdown_answers_keep_the_request_id() {
        let server = Server::new(ServeConfig::default());
        server.shutdown_pool();
        let (out, summary) = run(
            &server,
            "{\"id\":41,\"op\":\"optimum\",\"node\":\"100nm\",\"l_nh_mm\":1.0}\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "{out}");
        assert!(lines[0].contains("\"id\":41"), "the id must survive: {out}");
        assert!(lines[0].contains("\"ok\":false"), "{out}");
        assert!(lines[0].contains("pool shut down"), "{out}");
        assert_eq!(summary.requests, 1);
        // Double shutdown is a no-op; the session still ran to completion.
        server.shutdown_pool();
    }

    /// The documented asymmetry (see `protocol.rs`): `stats` is a
    /// barrier over the *preceding* prefix, while the `trace` view's
    /// `requests` count is **self-inclusive** — it counts the trace
    /// request itself.
    #[test]
    fn trace_requests_is_self_inclusive_while_stats_covers_the_prefix() {
        let server = Server::new(ServeConfig::default());
        let input = r#"{"id":1,"op":"optimum","node":"100nm","l_nh_mm":0.3}
{"id":2,"op":"stats"}
{"id":3,"op":"trace"}
"#;
        let (out, summary) = run(&server, input);
        assert_eq!(summary.requests, 3);
        let stats_line = out.lines().nth(1).unwrap();
        // Stats: exactly the one preceding query, barrier-drained.
        assert!(stats_line.contains("\"misses\":1"), "{stats_line}");
        assert!(stats_line.contains("\"hits\":0"), "{stats_line}");
        assert!(stats_line.contains("\"in_flight\":0"), "{stats_line}");
        let trace_line = out.lines().nth(2).unwrap();
        // Trace: two preceding requests plus itself.
        assert!(trace_line.contains("\"requests\":3"), "{trace_line}");
    }

    /// The tentpole in miniature: two sessions run against one server
    /// *simultaneously* and each gets its own in-order response stream,
    /// while keys solved by either session warm the shared memo.
    #[test]
    fn concurrent_sessions_share_the_pool_and_the_memo() {
        let server = Server::new(ServeConfig::default());
        let input_a = "{\"id\":1,\"op\":\"optimum\",\"node\":\"250nm\",\"l_nh_mm\":0.8}\n\
                       {\"id\":2,\"op\":\"optimum\",\"node\":\"250nm\",\"l_nh_mm\":0.8}\n";
        let input_b = "{\"id\":1,\"op\":\"lcrit\",\"node\":\"100nm\",\"l_nh_mm\":1.3}\n\
                       {\"id\":2,\"op\":\"lcrit\",\"node\":\"100nm\",\"l_nh_mm\":1.3}\n";
        let (summary_a, summary_b, out_a, out_b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let mut out = Vec::new();
                let s = server.serve(input_a.as_bytes(), &mut out).unwrap();
                (s, String::from_utf8(out).unwrap())
            });
            let b = scope.spawn(|| {
                let mut out = Vec::new();
                let s = server.serve(input_b.as_bytes(), &mut out).unwrap();
                (s, String::from_utf8(out).unwrap())
            });
            let (summary_a, out_a) = a.join().unwrap();
            let (summary_b, out_b) = b.join().unwrap();
            (summary_a, summary_b, out_a, out_b)
        });
        for (out, summary) in [(&out_a, summary_a), (&out_b, summary_b)] {
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), 2, "{out}");
            assert!(lines[0].starts_with("{\"id\":1,"), "{out}");
            assert!(lines[1].starts_with("{\"id\":2,"), "{out}");
            // Each session's second ask of its own key hits: same-key
            // requests serialize on the pinned shard worker.
            assert!(lines[1].contains("\"source\":\"memo\""), "{out}");
            assert_eq!(summary.requests, 2);
            assert_eq!(summary.hits, 1);
            assert_eq!(summary.misses, 1);
        }
        // Cross-session warming: a third session re-asks both keys and
        // hits both — the memo outlives and spans the sessions.
        let (out, summary) = run(
            &server,
            "{\"id\":9,\"op\":\"optimum\",\"node\":\"250nm\",\"l_nh_mm\":0.8}\n\
             {\"id\":10,\"op\":\"lcrit\",\"node\":\"100nm\",\"l_nh_mm\":1.3}\n",
        );
        assert_eq!(summary.hits, 2, "{out}");
        assert_eq!(summary.misses, 0, "{out}");
    }

    #[test]
    fn two_runs_over_the_same_input_are_byte_identical_modulo_ns() {
        let input = r#"{"id":1,"op":"optimum","node":"250nm","l_nh_mm":0.9}
{"id":2,"op":"lcrit","node":"100nm","l_nh_mm":2.2}
{"id":3,"op":"optimum","node":"250nm","l_nh_mm":0.9}
{"id":4,"op":"stats"}
{"id":5,"op":"route_delay","node":"100nm","l_nh_mm":2.2,"length_mm":15}
not json at all
{"id":7,"op":"optimum","node":"100nm","l_nh_mm":2.2000000000001}
"#;
        let (a, sa) = run(&Server::new(ServeConfig::default()), input);
        let (b, sb) = run(&Server::new(ServeConfig::default()), input);
        assert_eq!(
            strip_ns_fields(&a),
            strip_ns_fields(&b),
            "same input must produce byte-identical output modulo *_ns fields"
        );
        assert_eq!(sa, sb);
        assert_eq!(sa.errors, 1);
        // The mid-stream stats saw exactly the first three requests.
        let stats_line = a.lines().nth(3).unwrap();
        assert!(stats_line.contains("\"hits\":1"), "{stats_line}");
        assert!(stats_line.contains("\"misses\":2"), "{stats_line}");
        // The barrier guarantees nothing is in flight, deterministically.
        assert!(stats_line.contains("\"in_flight\":0"), "{stats_line}");
        for field in ["\"uptime_ns\":", "\"p50_ns\":", "\"p95_ns\":", "\"p99_ns\":"] {
            assert!(stats_line.contains(field), "{field} missing: {stats_line}");
        }
    }

    /// The number after `"<key>":` in a response line.
    fn field(line: &str, key: &str) -> u64 {
        let (_, rest) = line
            .split_once(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("{key}: {line}"));
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
        digits.unwrap().parse().unwrap()
    }

    /// Session A stays open while session B churns a small memo to
    /// completion: A's `stats` and `trace` read A's scope, so B's
    /// evictions and latencies do not show in them, and A's later
    /// percentiles are those of its one query.
    #[test]
    fn a_session_reports_its_own_evictions_and_latencies() {
        rlckit_trace::set_enabled(true);
        let server = Server::new(ServeConfig {
            workers: 1,
            shard_capacity: 2,
            ..ServeConfig::default()
        });
        let ask = |i: usize| {
            format!(
                "{{\"id\":{i},\"op\":\"optimum\",\"node\":\"250nm\",\"l_nh_mm\":{}}}",
                0.1 * i as f64
            )
        };
        let (feed, input) = mpsc::channel::<Vec<u8>>();
        let (writer, writes) = mpsc::channel::<Vec<u8>>();
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let reader = FedReader {
                    feed: input,
                    buffered: Vec::new(),
                };
                server.serve(std::io::BufReader::new(reader), ChunkWriter(writer))
            });
            let ask_a = |request: &str| {
                feed.send(format!("{request}\n").into_bytes()).unwrap();
                let chunk = writes
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("no response to {request}"));
                String::from_utf8(chunk).unwrap()
            };
            assert!(ask_a("not json").contains("\"ok\":false"));

            let churn: String = (1..=8).map(|i| ask(i) + "\n").collect();
            let (out_b, summary_b) = run(&server, &(churn + "{\"id\":9,\"op\":\"stats\"}\n"));
            assert_eq!(summary_b.misses, 8, "{out_b}");
            let stats_b = out_b.lines().last().unwrap();
            assert_eq!(field(stats_b, "evictions"), 6, "{stats_b}");
            assert!(field(stats_b, "p50_ns") > 0, "{stats_b}");

            let stats_a = ask_a("{\"id\":2,\"op\":\"stats\"}");
            let trace_a = ask_a("{\"id\":3,\"op\":\"trace\"}");
            for line in [&stats_a, &trace_a] {
                for key in ["p50_ns", "p95_ns", "p99_ns"] {
                    assert_eq!(field(line, key), 0, "{key}: {line}");
                }
            }
            assert_eq!(field(&stats_a, "evictions"), 0, "{stats_a}");
            assert_eq!(field(&stats_a, "hits") + field(&stats_a, "misses"), 0);

            // B's last key is still retained: a hit, and no eviction.
            assert!(ask_a(&ask(8)).contains("\"source\":\"memo\""));
            let stats_a = ask_a("{\"id\":5,\"op\":\"stats\"}");
            assert_eq!(field(&stats_a, "hits"), 1, "{stats_a}");
            assert_eq!(field(&stats_a, "evictions"), 0, "{stats_a}");
            // One observation in log₂ bucket `b` puts the q-quantile at
            // 2^(b + q).
            let p = |q: f64, b: f64| 2f64.powf(b + q).round() as u64;
            let p50 = field(&stats_a, "p50_ns");
            let b = (0..64)
                .map(f64::from)
                .find(|&b| p(0.5, b) == p50)
                .unwrap_or_else(|| panic!("p50 of one observation: {stats_a}"));
            assert_eq!(field(&stats_a, "p95_ns"), p(0.95, b), "{stats_a}");
            assert_eq!(field(&stats_a, "p99_ns"), p(0.99, b), "{stats_a}");

            drop(feed);
            let summary_a = a.join().unwrap().unwrap();
            let counts = (summary_a.hits, summary_a.misses, summary_a.errors);
            assert_eq!(counts, (1, 0, 1));
        });
    }

    /// A caller's scope holds its sessions' counts: the session scope
    /// nests in it and folds upward.
    #[test]
    fn a_scoped_caller_sees_its_sessions_counts() {
        let server = Server::new(ServeConfig {
            workers: 1,
            shard_capacity: 1,
            ..ServeConfig::default()
        });
        let input = "{\"id\":1,\"op\":\"optimum\",\"node\":\"100nm\",\"l_nh_mm\":0.4}\n\
                     {\"id\":2,\"op\":\"optimum\",\"node\":\"100nm\",\"l_nh_mm\":0.4}\n\
                     {\"id\":3,\"op\":\"lcrit\",\"node\":\"100nm\",\"l_nh_mm\":0.5}\n\
                     {\"id\":4,\"op\":\"lcrit\",\"node\":\"100nm\",\"l_nh_mm\":0.6}\n\
                     {\"id\":5,\"op\":\"stats\"}\n";
        let ((out, summary), snap) = rlckit_trace::scoped(|| run(&server, input));
        assert_eq!((summary.hits, summary.misses), (1, 3), "{out}");
        assert_eq!(snap.counter("memo.hits"), summary.hits);
        assert_eq!(snap.counter("memo.misses"), summary.misses);
        assert_eq!(snap.counter("serve.requests"), summary.requests);
        assert_eq!(snap.counter("memo.evictions"), 2);
        let stats = out.lines().last().unwrap();
        assert_eq!(field(stats, "evictions"), 2, "{stats}");
    }

    /// A reader that runs `first` on its first read, on the router
    /// thread inside the session's scope, then yields `input`.
    struct Hooked<'a, F: FnOnce()> {
        first: Option<F>,
        input: &'a [u8],
    }

    impl<F: FnOnce()> std::io::Read for Hooked<'_, F> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if let Some(first) = self.first.take() {
                first();
            }
            self.input.read(buf)
        }
    }

    /// A solve that panics after its memo miss counts one error and no
    /// miss, and the session's hits and misses stay exact.
    #[test]
    fn a_panicked_solve_counts_one_error_and_no_miss() {
        let server = Server::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        // Validation refuses a route_delay without a length, so this
        // job's worker panics after the solve, past its memo miss.
        let line =
            "{\"id\":7,\"op\":\"route_delay\",\"node\":\"100nm\",\"l_nh_mm\":0.3,\"length_mm\":5}";
        let Ok(Request::Query(mut query)) = parse_request(line) else {
            panic!("{line}")
        };
        query.length = None;
        let panicking = || {
            let (reply, replies) = mpsc::channel();
            let job = Job {
                seq: 0,
                trace_id: 0,
                t0: None,
                query,
                reply,
            };
            assert!(server.pool.submit(0, job).is_ok());
            let (.., response) = replies.recv().unwrap();
            assert!(response.contains("solver panicked"), "{response}");
        };
        let ask = "{\"id\":1,\"op\":\"optimum\",\"node\":\"100nm\",\"l_nh_mm\":0.4}\n";
        let input = format!("{ask}{ask}");
        let reader = Hooked {
            first: Some(panicking),
            input: input.as_bytes(),
        };
        let mut out = Vec::new();
        let summary = server
            .serve(std::io::BufReader::new(reader), &mut out)
            .unwrap();
        let counts = (summary.hits, summary.misses, summary.errors);
        assert_eq!(counts, (1, 1, 1), "{}", String::from_utf8_lossy(&out));
    }

    #[test]
    fn trace_op_answers_a_live_snapshot() {
        rlckit_trace::set_enabled(true);
        let server = Server::new(ServeConfig::default());
        let input = r#"{"id":1,"op":"optimum","node":"100nm","l_nh_mm":0.7}
{"id":2,"op":"stats"}
{"id":3,"op":"trace"}
"#;
        let (out, summary) = run(&server, input);
        assert_eq!(summary.requests, 3);
        let trace_line = out.lines().nth(2).unwrap();
        assert!(trace_line.starts_with("{\"id\":3,\"ok\":true,\"op\":\"trace\""), "{trace_line}");
        assert!(trace_line.contains("\"requests\":3"), "{trace_line}");
        assert!(trace_line.contains("\"parse_errors\":0"), "{trace_line}");
        assert!(trace_line.contains("\"uptime_ns\":"), "{trace_line}");
        assert!(trace_line.contains("\"slowest\":[{\"trace_id\":"), "{trace_line}");
        // The flight recorder had recorded events by answer time.
        let events: u64 = trace_line
            .split("\"events\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(events > 0, "{trace_line}");
    }

    #[test]
    fn every_request_leaves_a_reconstructible_span_tree() {
        rlckit_trace::set_enabled(true);
        let server = Server::new(ServeConfig::default());
        let input = r#"{"id":1,"op":"optimum","node":"250nm","l_nh_mm":1.1}
{"id":2,"op":"lcrit","node":"250nm","l_nh_mm":1.1}
"#;
        let ((_, summary), snap) = rlckit_trace::scoped(|| run(&server, input));
        assert_eq!(summary.requests, 2);
        // The writer records each query's latency in the caller's scope.
        assert_eq!(snap.histograms["serve.latency_log2_ns"].count, 2);
        // This server's slow log holds the trace id of every query it
        // answered (two, below its capacity). Only those traces are
        // checked: a sibling test's query may still be in flight, its
        // span tree not yet complete.
        let own: Vec<u64> = server
            .slow
            .lock()
            .unwrap()
            .entries
            .iter()
            .map(|r| r.trace_id)
            .collect();
        assert_eq!(own.len(), 2, "both queries must reach the slow log");
        let drained = rlckit_trace::events::collect();
        let mut by_trace: BTreeMap<u64, Vec<&rlckit_trace::events::EventRecord>> = BTreeMap::new();
        for e in drained.events.iter().filter(|e| own.contains(&e.trace_id)) {
            by_trace.entry(e.trace_id).or_default().push(e);
        }
        assert_eq!(by_trace.len(), 2, "both queries must leave events: {by_trace:?}");
        for events in by_trace.values() {
            // A served query carries the whole pipeline, in causal
            // order.
            let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
            assert_eq!(
                kinds,
                vec![
                    EventKind::Parse,
                    EventKind::Route,
                    EventKind::Dequeue,
                    EventKind::Probe,
                    EventKind::Solve,
                    EventKind::Write,
                ],
                "incomplete span tree: {events:?}"
            );
            // Route and Dequeue agree on the shard (worker pinning).
            assert_eq!(events[1].value, events[2].value, "{events:?}");
            // Causal order is also temporal order within one trace.
            for pair in events.windows(2) {
                assert!(pair[0].t_ns <= pair[1].t_ns, "{events:?}");
            }
        }
    }

    #[test]
    fn warm_start_makes_the_first_on_grid_ask_a_memo_hit() {
        let server = Server::new(ServeConfig::default());
        let preloaded = server.warm_grid(5);
        assert_eq!(preloaded, 3 * 5, "three nodes × five grid points");
        assert_eq!(server.memo().len(), 15);
        // 4.95/4 * 2 = 2.475 nH/mm is the third grid point of the 100nm node.
        let (out, summary) = run(
            &server,
            "{\"id\":1,\"op\":\"optimum\",\"node\":\"100nm\",\"l_nh_mm\":2.475}\n",
        );
        assert!(out.contains("\"source\":\"memo\""), "{out}");
        assert_eq!(summary.hits, 1);
        assert_eq!(summary.misses, 0);
        // Re-warming is idempotent: everything is already present.
        assert_eq!(server.warm_grid(5), 0);
    }

    /// The memo `warm_grid` leaves, as comparable bits: every entry's
    /// key and snapshot-encoded value, shard by shard in recency order.
    fn memo_bits(server: &Server) -> Vec<(MemoKey, [u64; 8])> {
        let export = server.memo().export();
        export
            .iter()
            .map(|(key, v)| (*key, crate::snapshot::encode_value(v)))
            .collect()
    }

    /// The one-pass serial warm `warm_grid` must reproduce: probe each
    /// grid point in order, and solve and preload it if it is missing.
    fn warm_grid_one_pass(server: &Server, points_per_node: usize) -> usize {
        let options = rlckit::optimizer::OptimizerOptions::default();
        let mut preloaded = 0;
        for node in [
            TechNode::nm250(),
            TechNode::nm100(),
            TechNode::nm100_with_250nm_dielectric(),
        ] {
            for l_nh_mm in standard_grid(points_per_node) {
                let line = LineRlc::new(
                    node.line().resistance,
                    HenriesPerMeter::from_nano_per_milli(l_nh_mm),
                    node.line().capacitance,
                );
                let key = key_for(&line, &node.driver(), options);
                if server.memo().probe(&key).is_none() {
                    let opt = optimize_rlc(&line, &node.driver(), options).unwrap();
                    preloaded += usize::from(server.memo().preload(key, opt));
                }
            }
        }
        preloaded
    }

    /// `warm_grid` leaves the memo (keys, value bits, recency order) and
    /// returns the count of the one-pass serial warm: from a cold memo,
    /// from a memo seeded by a smaller grid (the snapshot boot), and
    /// with shards small enough that the warm evicts, seeded (so points
    /// present at the probe are evicted before their turn) or not. The
    /// tier-1 warm-grid leg runs the same comparison of snapshot bytes
    /// at `RLCKIT_THREADS=1` and at nproc.
    #[test]
    fn parallel_warm_grid_leaves_the_serial_memo_bit_for_bit() {
        let cases = [
            ("cold", DEFAULT_CAPACITY, 0),
            ("seeded", DEFAULT_CAPACITY, 7),
            ("evicting", 8, 0),
            ("seeded and evicting", 8, 7),
        ];
        for (case, shard_capacity, seed_points) in cases {
            let warm = |one_pass: bool| {
                let server = Server::new(ServeConfig {
                    workers: 2,
                    shard_capacity,
                    ..ServeConfig::default()
                });
                warm_grid_one_pass(&server, seed_points);
                let count = if one_pass {
                    warm_grid_one_pass(&server, 41)
                } else {
                    server.warm_grid(41)
                };
                (count, memo_bits(&server))
            };
            let reference = warm(true);
            assert!(reference.0 > 0, "{case}: the warm must preload something");
            assert!(
                warm(false) == reference,
                "{case}: warm_grid differs from the one-pass serial warm"
            );
        }
    }

    #[test]
    fn served_answers_are_bit_identical_to_a_cold_solve() {
        let server = Server::new(ServeConfig::default());
        server.warm_grid(3);
        let node = rlckit_tech::TechNode::nm250();
        let line = LineRlc::new(
            node.line().resistance,
            HenriesPerMeter::from_nano_per_milli(2.475),
            node.line().capacitance,
        );
        let cold = optimize_rlc(
            &line,
            &node.driver(),
            rlckit::optimizer::OptimizerOptions::default(),
        )
        .unwrap();
        let (out, summary) = run(
            &server,
            "{\"id\":1,\"op\":\"optimum\",\"node\":\"250nm\",\"l_nh_mm\":2.475}\n",
        );
        assert_eq!(summary.hits, 1, "on-grid ask must hit the warm memo");
        assert!(
            out.contains(&format!("\"h_m\":{}", cold.segment_length.get())),
            "served h must print the cold solve's bits: {out}"
        );
        assert!(
            out.contains(&format!("\"segment_delay_s\":{}", cold.segment_delay.get())),
            "served delay must print the cold solve's bits: {out}"
        );
    }

    #[test]
    fn log2_percentile_ns_interpolates_the_latency_histogram() {
        assert_eq!(log2_percentile_ns(None, 0.95), 0);
        let empty = HistogramSnapshot::default();
        assert_eq!(log2_percentile_ns(Some(&empty), 0.95), 0);
        // All observations in log₂ bucket 10 (≈1–2 µs): the
        // interpolated p95 sits inside [2^10, 2^11).
        let mut h = HistogramSnapshot {
            count: 100,
            sum: 1000,
            min: Some(10),
            max: Some(10),
            buckets: vec![0; rlckit_trace::BUCKETS],
        };
        h.buckets[10] = 100;
        let p95 = log2_percentile_ns(Some(&h), 0.95);
        assert!((1024..2048).contains(&p95), "{p95}");
    }

    #[test]
    fn slow_log_keeps_the_worst_n_sorted() {
        let mut log = SlowLog::default();
        for (id, ns) in (0..20u64).map(|i| (i, 1000 * (i % 10) + 7)) {
            log.record(id, ns);
        }
        assert_eq!(log.entries.len(), SLOW_LOG_CAPACITY);
        for pair in log.entries.windows(2) {
            assert!(pair[0].total_ns >= pair[1].total_ns, "{:?}", log.entries);
        }
        assert_eq!(log.entries[0].total_ns, 9007, "worst first");
    }

    #[test]
    fn solver_failures_get_error_responses_not_hangs() {
        // threshold is validated at parse; an in-range but pathological
        // ask that the solver rejects still must produce a response.
        // Use a raw line with absurd values that parse but fail to
        // converge... the optimizer is robust, so instead exercise the
        // parse-error path plus a valid ask around it.
        let server = Server::new(ServeConfig::default());
        let input = "{\"id\":1,\"op\":\"optimum\",\"node\":\"100nm\"}\n\
                     {\"id\":2,\"op\":\"optimum\",\"node\":\"100nm\",\"l_nh_mm\":1.0}\n";
        let (out, summary) = run(&server, input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ok\":false"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
        assert_eq!(summary.errors, 1);
    }
}
