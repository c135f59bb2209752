//! Seeded load generator and throughput baseline for `rlckit-serve`.
//!
//! Builds a deterministic query mix of the three shapes an interactive
//! serving workload exhibits:
//!
//! * **hot repeats** — exact re-asks of a small set of on-grid keys
//!   (always memo hits once warm);
//! * **noisy neighbours** — hot keys with the inductance perturbed by a
//!   few ulps, inside one `QUANT_BITS` quantization bucket (hits via
//!   key rounding — the case the round-to-nearest quantizer exists
//!   for);
//! * **cold misses** — full-precision random inductances that land in
//!   fresh buckets and pay a real solve.
//!
//! In bench mode the mix is replayed through an in-process
//! [`rlckit_serve::Server`] and the result is the `results/
//! BENCH_serve.json` baseline: replay time plus derived
//! queries-per-second, hit rate, and the interpolated p95 end-to-end
//! latency in nanoseconds — the numbers the tier-1 perf guard checks;
//! plus a `concurrent_replay` entry (the same mix replayed by several
//! sessions at once over the one shared pool) and an `eviction_churn`
//! entry comparing LRU and FIFO warm-grid hit rates under a
//! multi-connection hot + cold-churn mix against a small memo. With
//! `--emit=N` the mix (plus a trailing `stats` barrier) is printed to
//! stdout instead, for the tier-1 smoke that pipes the same seeded mix
//! through the daemon binary twice and `cmp`s the responses byte for
//! byte; `--hot-only` restricts the emitted mix to strictly on-grid
//! keys (pure hits against a `--warm-grid 5` daemon — the
//! parallel-clients cmp smoke needs every session's response stream,
//! stats lines included, to be independent of its concurrent
//! neighbours). With `--connect=ADDR` the same mix is instead played
//! as a **live TCP client**: written to the daemon at `ADDR`, write
//! half shut down, responses streamed to stdout.
//!
//! ```text
//! loadgen [--emit=N] [--seed=S] [--hot-only] [--connect=ADDR]
//!         [bench-name filters...]
//! ```

#![forbid(unsafe_code)]

use rlckit::memo::{Eviction, QUANT_BITS};
use rlckit_bench::timer::{BenchOptions, Harness};
use rlckit_numeric::rng::Rng;
use rlckit_serve::{ServeConfig, Server};

/// One hot key: a named node and an on-grid inductance.
const NODES: [&str; 3] = ["250nm", "100nm", "100nm_eps33"];

/// Number of grid points per node the hot set (and the server warm-up)
/// uses.
const WARM_POINTS: usize = 5;

fn grid_l(index: usize) -> f64 {
    4.95 * index as f64 / (WARM_POINTS - 1) as f64
}

/// Perturbs `l` by up to a quarter of a quantization bucket — the
/// "measurement noise" a noisy neighbour carries. Round-to-nearest
/// keying collapses it onto the hot key's bucket (up to the rare
/// boundary straddle, which just becomes one extra cold solve).
fn noisy(l: f64, rng: &mut Rng) -> f64 {
    if l == 0.0 {
        return 0.0;
    }
    let quarter_bucket = 1u64 << (QUANT_BITS - 2);
    let offset = rng.next_u64() % quarter_bucket;
    f64::from_bits(l.to_bits() + offset)
}

fn query_line(id: usize, op: &str, node: &str, l_nh_mm: f64) -> String {
    let length = if op == "route_delay" {
        ",\"length_mm\":20"
    } else {
        ""
    };
    format!("{{\"id\":{id},\"op\":\"{op}\",\"node\":\"{node}\",\"l_nh_mm\":{l_nh_mm}{length}}}")
}

/// The seeded mix: ~64 % hot repeats, ~30 % noisy neighbours, ~6 % cold
/// misses, ops rotating through `optimum` / `route_delay` / `lcrit`.
/// With `hot_only`, every draw is an exact on-grid hot repeat.
fn build_mix(seed: u64, requests: usize, hot_only: bool) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let ops = ["optimum", "route_delay", "lcrit"];
    let mut out = Vec::with_capacity(requests);
    for id in 1..=requests {
        let op = ops[id % ops.len()];
        let node = NODES[rng.index(NODES.len())];
        let draw = rng.next_f64();
        let l = if hot_only || draw < 0.64 {
            grid_l(rng.index(WARM_POINTS))
        } else if draw < 0.94 {
            noisy(grid_l(rng.index(WARM_POINTS)), &mut rng)
        } else {
            rng.uniform(0.01, 4.9)
        };
        out.push(query_line(id, op, node, l));
    }
    out
}

/// The eviction-pressure mix: ~60 % hot on-grid repeats and ~40 %
/// unique full-precision cold keys (asked once, never again). Returns
/// the lines plus the hot-request count, so the caller can compute the
/// **warm-grid hit rate** — every hit in this mix is a hot-request hit,
/// since cold keys are one-shot. This is the mix where FIFO eviction
/// visibly eats the warm grid (preloaded entries are the oldest
/// inserts, so cold churn evicts exactly them) while LRU's
/// promote-on-hit keeps the one-shot cold keys as victims instead.
fn build_churn_mix(seed: u64, requests: usize) -> (Vec<String>, usize) {
    let mut rng = Rng::new(seed);
    let ops = ["optimum", "route_delay", "lcrit"];
    let mut out = Vec::with_capacity(requests);
    let mut hot = 0;
    for id in 1..=requests {
        let op = ops[id % ops.len()];
        let node = NODES[rng.index(NODES.len())];
        let l = if rng.next_f64() < 0.6 {
            hot += 1;
            grid_l(rng.index(WARM_POINTS))
        } else {
            rng.uniform(0.01, 4.9)
        };
        out.push(query_line(id, op, node, l));
    }
    (out, hot)
}

/// Emit-shaped payload: the mix plus the trailing `stats` barrier the
/// daemon answers only after every mix response is on the wire.
fn payload(seed: u64, requests: usize, hot_only: bool) -> String {
    let mut text = build_mix(seed, requests, hot_only).join("\n");
    text.push('\n');
    text.push_str(&format!("{{\"id\":{},\"op\":\"stats\"}}\n", requests + 1));
    text
}

/// Plays `text` against a live daemon at `addr` as one TCP session:
/// write everything, shut the write half down, stream the response
/// bytes to stdout.
fn connect_and_replay(addr: &str, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.write_all(text.as_bytes())?;
    stream.flush()?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut stdout = std::io::stdout().lock();
    std::io::copy(&mut stream, &mut stdout)?;
    Ok(())
}

/// Replays per-session churn mixes concurrently against a small memo
/// under `eviction`, returning the aggregate warm-grid hit rate
/// (hits / hot requests across all sessions).
fn churn_hit_rate(eviction: Eviction, connections: usize, shard_capacity: usize) -> f64 {
    let server = Server::new(ServeConfig {
        workers: 4,
        shard_capacity,
        eviction,
    });
    server.warm_grid(WARM_POINTS);
    let mixes: Vec<(String, usize)> = (0..connections)
        .map(|i| {
            let (lines, hot) = build_churn_mix(0xE71C_7104 + i as u64, 240);
            (lines.join("\n") + "\n", hot)
        })
        .collect();
    let summaries: Vec<rlckit_serve::ServeSummary> = std::thread::scope(|scope| {
        let handles: Vec<_> = mixes
            .iter()
            .map(|(input, _)| {
                let server = &server;
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(64 * 240);
                    server
                        .serve(input.as_bytes(), &mut out)
                        .expect("in-memory replay cannot fail on I/O")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let hot_total: usize = mixes.iter().map(|(_, hot)| hot).sum();
    let hits: u64 = summaries.iter().map(|s| s.hits).sum();
    hits as f64 / hot_total.max(1) as f64
}

fn main() {
    let mut emit: Option<usize> = None;
    let mut seed = 0x4c4f_4144_4745_4e21; // "LOADGEN!"
    let mut hot_only = false;
    let mut connect: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if let Some(n) = arg.strip_prefix("--emit=") {
            emit = Some(n.parse().expect("--emit=N needs an integer"));
        } else if let Some(s) = arg.strip_prefix("--seed=") {
            seed = s.parse().expect("--seed=S needs an integer");
        } else if arg == "--hot-only" {
            hot_only = true;
        } else if let Some(addr) = arg.strip_prefix("--connect=") {
            connect = Some(addr.to_string());
        }
    }

    if let Some(addr) = connect {
        let requests = emit.unwrap_or(60);
        if let Err(e) = connect_and_replay(&addr, &payload(seed, requests, hot_only)) {
            eprintln!("loadgen: client session against {addr} failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    if let Some(requests) = emit {
        print!("{}", payload(seed, requests, hot_only));
        return;
    }

    // Bench mode: latency histograms only record while tracing is on.
    rlckit_trace::set_enabled(true);
    let mut h = Harness::from_args("serve");

    let mix = build_mix(seed, 240, false);
    let requests = mix.len();
    let input = mix.join("\n") + "\n";

    let server = Server::new(ServeConfig::default());
    let warmed = server.warm_grid(WARM_POINTS);
    // One priming replay pays the mix's cold solves, so the measured
    // replays see the steady serving state a long-running daemon is in.
    let mut out = Vec::with_capacity(64 * requests);
    let primed = server
        .serve(input.as_bytes(), &mut out)
        .expect("in-memory replay cannot fail on I/O");

    let mut last = primed;
    h.bench_profiled(
        "hot_mix_replay",
        &BenchOptions::with_samples(10),
        || {
            let mut out = Vec::with_capacity(64 * requests);
            last = server
                .serve(input.as_bytes(), &mut out)
                .expect("in-memory replay cannot fail on I/O");
            out.len()
        },
        |delta| {
            let mut extras = Vec::new();
            if let Some(hist) = delta.histograms.get("serve.latency_log2_ns") {
                if let Some(p95) = hist.percentile(0.95) {
                    // The headline number: the interpolated log₂-bucket
                    // p95 converted back to nanoseconds.
                    extras.push(("p95_latency_ns".to_string(), 2f64.powf(p95).round()));
                }
            }
            extras
        },
    );
    let hit_rate = last.hits as f64 / last.requests.max(1) as f64;
    let qps = h
        .stats("hot_mix_replay")
        .map(|s| 1e9 * requests as f64 / s.median_ns);
    let mut extras = vec![
        ("requests", requests as f64),
        ("warm_entries", warmed as f64),
        ("hit_rate", hit_rate),
        ("errors", last.errors as f64),
    ];
    if let Some(qps) = qps {
        extras.push(("qps", qps));
    }
    h.annotate("hot_mix_replay", &extras);
    println!(
        "loadgen: {requests} requests, hit rate {hit_rate:.3}, {} errors",
        last.errors
    );

    // Multi-connection replay: the same mix replayed by several
    // concurrent sessions over the one shared pool — the serving shape
    // the concurrent daemon runs. qps counts all sessions' requests;
    // `cores` lets the tier-1 scaling guard gate on the hardware.
    let connections = 4usize;
    h.bench_with("concurrent_replay", &BenchOptions::with_samples(10), || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..connections)
                .map(|_| {
                    let server = &server;
                    let input = input.as_str();
                    scope.spawn(move || {
                        let mut out = Vec::with_capacity(64 * requests);
                        server
                            .serve(input.as_bytes(), &mut out)
                            .expect("in-memory replay cannot fail on I/O");
                        out.len()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<usize>()
        })
    });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut extras = vec![
        ("connections", connections as f64),
        ("requests_per_connection", requests as f64),
        ("cores", cores as f64),
    ];
    if let Some(s) = h.stats("concurrent_replay") {
        extras.push(("qps", 1e9 * (connections * requests) as f64 / s.median_ns));
    }
    h.annotate("concurrent_replay", &extras);

    // Eviction face-off: hot + one-shot-cold churn from 3 concurrent
    // sessions against a deliberately small memo. LRU must hold the
    // warm grid (> 0.9 hit rate guarded in tier1); FIFO, which evicts
    // its oldest — i.e. precisely the preloaded warm entries — must
    // measurably degrade on the same byte-identical workload.
    let shard_capacity = 12usize;
    let lru_rate = churn_hit_rate(Eviction::Lru, 3, shard_capacity);
    let fifo_rate = churn_hit_rate(Eviction::Fifo, 3, shard_capacity);
    h.bench_with("eviction_churn", &BenchOptions::with_samples(3), || {
        // The timed body replays the LRU face-off; the headline
        // metrics are the pre-computed aggregate hit rates.
        churn_hit_rate(Eviction::Lru, 3, shard_capacity)
    });
    h.annotate(
        "eviction_churn",
        &[
            ("lru_warm_hit_rate", lru_rate),
            ("fifo_warm_hit_rate", fifo_rate),
            ("connections", 3.0),
            ("shard_capacity", shard_capacity as f64),
        ],
    );
    println!(
        "loadgen: eviction churn warm-grid hit rate — lru {lru_rate:.3}, fifo {fifo_rate:.3}"
    );

    // Reference: what one un-memoized ask costs, for eyeballing the
    // serving win in the same results file.
    let node = rlckit_tech::TechNode::nm100();
    let line = rlckit_tline::LineRlc::new(
        node.line().resistance,
        rlckit_units::HenriesPerMeter::from_nano_per_milli(1.83),
        node.line().capacitance,
    );
    h.bench_with(
        "cold_solve",
        &BenchOptions::with_samples(10),
        || {
            rlckit::optimizer::optimize_rlc(
                &line,
                &node.driver(),
                rlckit::optimizer::OptimizerOptions::default(),
            )
            .expect("table 1 point converges")
        },
    );

    h.finish();
    rlckit_bench::trace_footer("loadgen");
}
