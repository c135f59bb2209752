//! The per-layer ledger: every per-layer metric the traced run reports,
//! named by crate and module. A workload fills in the layers it
//! exercises; the rest read 0, which is how a bypassed layer shows.
//! The list matches the `per_layer` section of `BENCHMARK.json`
//! (`run.py` refuses a result whose names differ).

use std::collections::BTreeMap;

use crate::Metric;

/// `(name, unit)` of every per-layer metric.
pub const CATALOG: [(&str, &str); 48] = [
    ("tline.delay_solves", "count"),
    ("tline.delay_iters_per_solve", "count"),
    ("core.optimizer.solves", "count"),
    ("core.optimizer.newton_iters_per_solve", "count"),
    ("core.optimizer.solve_us_p50", "us"),
    ("core.optimizer.cache_hit_ratio", "ratio"),
    ("core.batch.lanes", "count"),
    ("core.batch.retired_per_iter", "count"),
    ("core.planner.point_us_p50", "us"),
    ("core.planner.cache_hit_ratio", "ratio"),
    ("core.sweeps.point_us_p50", "us"),
    ("core.outcome.retried", "count"),
    ("core.outcome.degraded", "count"),
    ("par.tasks", "count"),
    ("par.worker_imbalance", "ratio"),
    ("par.speedup_vs_serial", "x"),
    ("campaign.solve_us_per_point", "us"),
    ("core.checkpoint.append_us_per_point", "us"),
    ("core.checkpoint.bytes_per_point", "bytes"),
    ("campaign.shard_ms", "ms"),
    ("campaign.merge_ms", "ms"),
    ("campaign.render_csv_ms", "ms"),
    ("campaign.supervise_overhead_ms", "ms"),
    ("campaign.shards_launched", "count"),
    ("campaign.shards_relaunched", "count"),
    ("campaign.shards_stalled", "count"),
    ("serve.protocol.parse_ns", "ns"),
    ("serve.protocol.render_ns", "ns"),
    ("serve.engine.parse_us_p50", "us"),
    ("serve.engine.queue_us_p50", "us"),
    ("serve.engine.queue_us_p99", "us"),
    ("serve.engine.memo_us_p50", "us"),
    ("serve.engine.solve_us_p50", "us"),
    ("serve.engine.solve_us_p99", "us"),
    ("serve.engine.write_us_p50", "us"),
    ("serve.engine.total_us_p50", "us"),
    ("serve.wire_us_p50", "us"),
    ("serve.wire_us_p99", "us"),
    ("serve.wire_join_ambiguous_ratio", "ratio"),
    ("serve.client_us_p50", "us"),
    ("serve.ledger_residual_ratio", "ratio"),
    ("core.memo.hit_ratio", "ratio"),
    ("core.memo.evictions", "count"),
    ("core.memo.probe_ns", "ns"),
    ("par.pool.queue_depth_p50", "count"),
    ("par.pool.backpressure", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.events_dropped", "count"),
];

/// Per-layer values being filled in by a traced run.
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Every catalog metric at 0.
    pub fn new() -> Self {
        Self(CATALOG.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Sets one metric. Panics on a name outside the catalog — a typo in
    /// this benchmark, not a runtime condition.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalog"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// The ledger as metrics, in catalog order.
    pub fn into_metrics(self) -> Vec<Metric> {
        CATALOG
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0[name],
                unit,
            })
            .collect()
    }
}

/// Counter, histogram and span deltas of an in-process traced region.
pub struct Telemetry(pub rlckit_trace::Snapshot);

impl Telemetry {
    /// Runs `f` with tracing on and returns its result plus the metric
    /// deltas it produced.
    pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Self) {
        rlckit_trace::set_enabled(true);
        let before = rlckit_trace::snapshot();
        let out = f();
        let delta = rlckit_trace::snapshot().since(&before);
        rlckit_trace::set_enabled(false);
        (out, Self(delta))
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.0.counter(name) as f64
    }

    /// Mean observation of a histogram over the region (0 when absent).
    pub fn hist_mean(&self, name: &str) -> f64 {
        self.0.histograms.get(name).map_or(0.0, |h| h.mean())
    }

    /// Largest observed bucket over the mean — the worker imbalance of
    /// a per-worker task histogram (1.0 is perfect balance).
    pub fn hist_max_over_mean(&self, name: &str) -> f64 {
        self.0.histograms.get(name).map_or(0.0, |h| {
            let max = h.max_bucket().unwrap_or(0) as f64;
            crate::stats::ratio(max, h.mean())
        })
    }

    /// `hits / (hits + misses)` of a counter pair.
    pub fn hit_ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.counter(hits), self.counter(misses));
        crate::stats::ratio(h, h + m)
    }

    /// Fills the solver-layer rows every in-process workload shares.
    pub fn fill_solver_layers(&self, ledger: &mut Ledger) {
        ledger.set("tline.delay_solves", self.counter("twopole.delay.solves"));
        ledger.set(
            "tline.delay_iters_per_solve",
            self.hist_mean("twopole.delay.iterations"),
        );
        ledger.set("core.optimizer.solves", self.counter("optimizer.solves"));
        ledger.set(
            "core.optimizer.newton_iters_per_solve",
            self.hist_mean("optimizer.newton.iterations"),
        );
        ledger.set(
            "core.optimizer.cache_hit_ratio",
            self.hit_ratio("optimizer.cache.hits", "optimizer.cache.misses"),
        );
        ledger.set("core.batch.lanes", self.counter("batch.lanes"));
        ledger.set(
            "core.batch.retired_per_iter",
            self.hist_mean("batch.retired_per_iter"),
        );
        ledger.set(
            "core.planner.cache_hit_ratio",
            self.hit_ratio("planner.cache.hits", "planner.cache.misses"),
        );
        ledger.set("core.outcome.retried", self.counter("optimizer.retries"));
        ledger.set("core.outcome.degraded", self.counter("optimizer.degraded"));
        ledger.set("par.tasks", self.counter("par.tasks"));
        ledger.set(
            "par.worker_imbalance",
            self.hist_max_over_mean("par.tasks_per_worker"),
        );
    }
}

pub(crate) fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let rest = &line[line.find(&needle)? + needle.len()..];
    Some(&rest[..rest.find('"')?])
}

/// Adds one rendered metric line of the `RLCKIT_TRACE` JSONL sink into
/// `snap` (counters and histograms sum; spans are not needed here).
fn absorb_line(snap: &mut rlckit_trace::Snapshot, line: &str) {
    let (Some(kind), Some(name)) = (field_str(line, "type"), field_str(line, "name")) else {
        return;
    };
    match kind {
        "counter" => {
            *snap.counters.entry(name.to_string()).or_insert(0) +=
                field_u64(line, "value").unwrap_or(0);
        }
        "histogram" => {
            let h = snap.histograms.entry(name.to_string()).or_default();
            h.count += field_u64(line, "count").unwrap_or(0);
            h.sum += field_u64(line, "sum").unwrap_or(0);
            let max = field_u64(line, "max").unwrap_or(0);
            h.max = Some(h.max.map_or(max, |m| m.max(max)));
            let buckets = line
                .find("\"buckets\":[")
                .map(|at| &line[at + 11..])
                .and_then(|rest| rest.find(']').map(|end| &rest[..end]))
                .unwrap_or("");
            for (i, b) in buckets
                .split(',')
                .filter_map(|b| b.parse::<u64>().ok())
                .enumerate()
            {
                if h.buckets.len() <= i {
                    h.buckets.resize(i + 1, 0);
                }
                h.buckets[i] += b;
            }
        }
        _ => {}
    }
}

/// Splits an `RLCKIT_TRACE=jsonl+:` file into its flush blocks, each
/// parsed into a snapshot. Every process appending to the file writes
/// whole blocks, one per flush.
pub fn jsonl_blocks(text: &str) -> Vec<rlckit_trace::Snapshot> {
    let mut blocks = Vec::new();
    for line in text.lines() {
        if line.contains("\"type\":\"flush\"") {
            blocks.push(rlckit_trace::Snapshot::default());
        } else if let Some(block) = blocks.last_mut() {
            absorb_line(block, line);
        }
    }
    blocks
}

/// Every metric line of a JSONL sink file summed into one snapshot — the
/// total over all processes that appended their final flush to it.
pub fn jsonl_total(text: &str) -> rlckit_trace::Snapshot {
    let mut total = rlckit_trace::Snapshot::default();
    for line in text.lines() {
        absorb_line(&mut total, line);
    }
    total
}
