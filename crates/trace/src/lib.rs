//! `rlckit-trace` — zero-dependency solver/campaign telemetry.
//!
//! Every performance rung on the ROADMAP (hot-path profiling of the
//! two-pole delay solve, work-stealing for the planner's uneven
//! golden-section calls, a sharded campaign driver) needs to know where
//! iterations and wall-clock actually go. This crate is that
//! instrumentation layer: process-wide **counters** and **iteration
//! histograms** backed by relaxed atomics, lightweight RAII **span
//! timers**, and an opt-in end-of-run **sink** selected by the
//! `RLCKIT_TRACE` environment variable.
//!
//! # Cost model
//!
//! * A counter increment or histogram observation is one relaxed
//!   `fetch_add` on a `static` atomic — no allocation, no branch on a
//!   global flag, safe to leave in the hottest solver loops. The only
//!   allocation a metric ever performs is its one-time registration
//!   (a `Vec` push) the first time it is touched in a process.
//! * Span timers *are* gated: when tracing is disabled
//!   ([`enabled`] returns `false`) [`SpanTimer::start`] returns an
//!   inert guard without reading the clock, so the disabled path costs
//!   one relaxed load and allocates nothing. The `trace_overhead`
//!   bench group quantifies both paths against a bare arithmetic op.
//!
//! # Determinism contract
//!
//! Counters and histograms record *algorithmic* quantities (iterations,
//! bracket doublings, fallback tallies): for every metric **except the
//! `par.*` family** they are a pure function of the computation's
//! inputs — re-running the same campaign yields bit-identical values,
//! regardless of thread count. The `par.*` metrics intentionally record
//! scheduling (tasks per worker, claims taken) and vary run to run.
//! Wall-clock quantities appear **only** under JSON keys ending in
//! `_ns` (and the derived `mean_ns`), so a determinism check can parse
//! the JSONL sink and ignore exactly the `*_ns` keys.
//!
//! # Sink selection
//!
//! | `RLCKIT_TRACE` | behaviour of [`flush`] |
//! |---|---|
//! | unset, empty, `0`, `off` | nothing (tracing disabled) |
//! | `summary` | aligned text summary to stderr |
//! | `jsonl` | JSON lines to stderr |
//! | `jsonl:<path>` | JSON lines written to `<path>` (truncate: last flush wins) |
//! | `jsonl+:<path>` | JSON lines **appended** to `<path>`, one marker-delimited snapshot per flush |
//!
//! Any other value behaves like `summary` (fail open: asking for
//! telemetry should never silence it).
//!
//! `jsonl:` truncation is the right semantics for one-shot campaign
//! bins — the final flush is the complete report. A long-running daemon
//! flushing periodically needs `jsonl+:`: every flush appends a
//! `{"type":"flush","value":<seq>}` marker line followed by the full
//! metric snapshot, so the file preserves the whole history instead of
//! only the last flush.
//!
//! # Examples
//!
//! ```
//! use rlckit_trace::{counter, histogram, span};
//!
//! rlckit_trace::set_enabled(true);
//! {
//!     let _guard = span!("example.work");
//!     counter!("example.calls").incr();
//!     histogram!("example.iterations").observe(3);
//! }
//! let snap = rlckit_trace::snapshot();
//! assert_eq!(snap.counter("example.calls"), 1);
//! assert!(snap.histograms["example.iterations"].mean() >= 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of exact histogram buckets: values `0..BUCKETS-1` count into
/// their own bucket, anything `>= BUCKETS-1` lands in the last
/// (overflow) bucket. Iteration counts in this workspace are single
/// digits, so the exact range is generous.
pub const BUCKETS: usize = 33;

/// One registered metric (all three kinds live in the same registry so
/// a snapshot is a single lock + walk).
enum Metric {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
    Span(&'static SpanTimer),
}

/// The process-wide metric registry. Metrics self-register on first
/// touch; the vector only ever grows (bounded by the number of metric
/// *call sites*, not calls).
static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

/// A monotonically increasing event counter.
///
/// Declare one per call site with [`counter!`]; the `static` storage is
/// what makes increments allocation-free.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Creates an unregistered counter (const: usable in `static`s).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n` to the counter (relaxed; safe from any thread).
    pub fn add(&'static self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) && !self.registered.swap(true, Ordering::SeqCst)
        {
            REGISTRY.lock().expect("registry lock").push(Metric::Counter(self));
        }
    }

    /// Increments the counter by one.
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A histogram of small non-negative integer observations (iteration
/// counts, tasks per worker, …) with exact buckets plus running
/// count/sum/min/max.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// Creates an unregistered histogram (const: usable in `static`s).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            name,
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one observation (relaxed; safe from any thread).
    pub fn observe(&'static self, value: u64) {
        let bucket = (value as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) && !self.registered.swap(true, Ordering::SeqCst)
        {
            REGISTRY.lock().expect("registry lock").push(Metric::Histogram(self));
        }
    }

    /// Records `n` identical observations in one pass (relaxed; safe
    /// from any thread). Equivalent to calling [`Histogram::observe`]
    /// `n` times with the same `value`; batch engines use it to flush
    /// locally-accumulated per-round tallies without one RMW per event.
    pub fn observe_n(&'static self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let bucket = (value as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) && !self.registered.swap(true, Ordering::SeqCst)
        {
            REGISTRY.lock().expect("registry lock").push(Metric::Histogram(self));
        }
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Metric name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Aggregated wall-clock timings for one span label: count, total,
/// min and max, all in nanoseconds.
pub struct SpanTimer {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    registered: AtomicBool,
}

impl SpanTimer {
    /// Creates an unregistered span timer (const: usable in `static`s).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Starts a span. When tracing is disabled the returned guard is
    /// inert — no clock read, no allocation, nothing recorded on drop.
    #[must_use]
    pub fn start(&'static self) -> SpanGuard {
        if enabled() {
            SpanGuard(Some((self, Instant::now())))
        } else {
            SpanGuard(None)
        }
    }

    /// Records a completed span of `ns` nanoseconds directly.
    pub fn record_ns(&'static self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) && !self.registered.swap(true, Ordering::SeqCst)
        {
            REGISTRY.lock().expect("registry lock").push(Metric::Span(self));
        }
    }

    /// Metric name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// RAII guard returned by [`SpanTimer::start`]; records the elapsed
/// time on drop (or nothing, if tracing was disabled at start).
pub struct SpanGuard(Option<(&'static SpanTimer, Instant)>);

impl SpanGuard {
    /// True if this guard is actually timing (tracing was enabled).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((timer, start)) = self.0.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            timer.record_ns(ns);
        }
    }
}

/// Declares a `static` [`Counter`] at the call site and yields a
/// `&'static Counter` handle.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __RLCKIT_TRACE_COUNTER: $crate::Counter = $crate::Counter::new($name);
        &__RLCKIT_TRACE_COUNTER
    }};
}

/// Declares a `static` [`Histogram`] at the call site and yields a
/// `&'static Histogram` handle.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __RLCKIT_TRACE_HISTOGRAM: $crate::Histogram = $crate::Histogram::new($name);
        &__RLCKIT_TRACE_HISTOGRAM
    }};
}

/// Declares a `static` [`SpanTimer`] at the call site and starts a
/// span, yielding the [`SpanGuard`]. Bind it (`let _guard = span!(…);`)
/// so it lives to the end of the scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __RLCKIT_TRACE_SPAN: $crate::SpanTimer = $crate::SpanTimer::new($name);
        __RLCKIT_TRACE_SPAN.start()
    }};
}

// ---------------------------------------------------------------------------
// Enablement and sink configuration
// ---------------------------------------------------------------------------

/// Where [`flush`] sends the end-of-run report.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Sink {
    Disabled,
    Summary,
    Jsonl(Option<PathBuf>),
    JsonlAppend(PathBuf),
}

impl Sink {
    /// Parses an `RLCKIT_TRACE` value. Unknown non-empty values fail
    /// open to `Summary`.
    fn parse(raw: &str) -> Self {
        let v = raw.trim();
        match v {
            "" | "0" | "off" => Self::Disabled,
            "summary" | "1" => Self::Summary,
            "jsonl" => Self::Jsonl(None),
            _ => {
                if let Some(path) = v.strip_prefix("jsonl+:") {
                    Self::JsonlAppend(PathBuf::from(path))
                } else if let Some(path) = v.strip_prefix("jsonl:") {
                    Self::Jsonl(Some(PathBuf::from(path)))
                } else {
                    Self::Summary
                }
            }
        }
    }
}

/// The parsed `RLCKIT_TRACE` value, read once per process.
fn env_sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| {
        Sink::parse(&std::env::var("RLCKIT_TRACE").unwrap_or_default())
    })
}

/// Programmatic enablement override: 0 = follow the environment,
/// 1 = forced on, 2 = forced off.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// True when tracing is on: either [`set_enabled`] forced it, or
/// `RLCKIT_TRACE` selects a sink. Counters and histograms record
/// regardless (they are effectively free); this flag gates the span
/// timers and is what makes the disabled path clock-free.
#[must_use]
pub fn enabled() -> bool {
    match FORCED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => *env_sink() != Sink::Disabled,
    }
}

/// Forces tracing on or off for this process, overriding `RLCKIT_TRACE`
/// (used by tests and the bench harness; campaigns normally rely on the
/// environment variable alone).
pub fn set_enabled(on: bool) {
    FORCED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Point-in-time value of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation (`None` when empty). After
    /// [`Snapshot::since`] this is the *process-lifetime* minimum, not
    /// the interval's — exact bucket/count/sum deltas are what interval
    /// arithmetic should use.
    pub min: Option<u64>,
    /// Largest observation (`None` when empty); same caveat as `min`.
    pub max: Option<u64>,
    /// Exact buckets: index = observed value, last bucket = overflow.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty). A pure function of count and
    /// sum, so deterministic whenever they are.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest bucket index with a nonzero count, capped at the
    /// overflow bucket (`None` when empty). Unlike `max` this *is*
    /// interval-exact after [`Snapshot::since`] (for values below the
    /// overflow bucket).
    #[must_use]
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// The `q`-quantile of the observations (`q` in `[0, 1]`), with
    /// linear interpolation *within* the containing bucket: bucket `i`
    /// holds observations of exact value `i`, modelled as uniformly
    /// spread over `[i, i+1)`, so e.g. the median of 100 observations
    /// of `3` is `3.5` rather than a bare bucket index. `None` when the
    /// histogram is empty or `q` is out of range / non-finite.
    ///
    /// The last bucket is the overflow bucket (observations `>=
    /// BUCKETS-1`): a quantile landing there interpolates between the
    /// bucket's lower bound and the recorded `max` instead of
    /// pretending the bucket is one unit wide — including the
    /// all-overflow case where *every* observation saturated. (After
    /// [`Snapshot::since`] the `max` is process-lifetime, not
    /// interval-exact — see [`HistogramSnapshot::min`] — so overflow
    /// interpolation on a delta is an upper-bound estimate.)
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !q.is_finite() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let last = self.buckets.len().checked_sub(1)?;
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            let before = cumulative as f64;
            cumulative += bucket;
            if cumulative as f64 >= rank {
                let fraction = ((rank - before) / bucket as f64).clamp(0.0, 1.0);
                let (lo, hi) = if index == last {
                    let bound = self.max.map_or(last as f64, |m| m as f64).max(last as f64);
                    (last as f64, bound)
                } else {
                    (index as f64, index as f64 + 1.0)
                };
                return Some(lo + fraction * (hi - lo));
            }
        }
        // Floating-point slack consumed every bucket: the answer is the
        // top of the populated range.
        Some(self.max.map_or(last as f64, |m| m as f64))
    }
}

/// Point-in-time value of one span timer. All fields are wall-clock
/// derived and therefore non-deterministic; they serialize only under
/// `*_ns` keys.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanSnapshot {
    /// Number of completed spans.
    pub count: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
    /// Shortest span (`u64::MAX` when empty).
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
}

/// A consistent-enough copy of every registered metric (individual
/// loads are relaxed; concurrent increments may straddle the walk,
/// which telemetry tolerates by design).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span timer states by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl Snapshot {
    /// A counter's value, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of all counters whose name ends with `suffix` (e.g.
    /// `".no_convergence"` for the campaign failure tally).
    #[must_use]
    pub fn counters_ending_with(&self, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// The change since an `earlier` snapshot: counters, histogram
    /// counts/sums/buckets and span counts/totals subtract
    /// (saturating); histogram and span min/max keep this snapshot's
    /// process-lifetime values (see [`HistogramSnapshot::min`]).
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        let counters = self
            .counters
            .iter()
            .map(|(name, &v)| (name.clone(), v.saturating_sub(earlier.counter(name))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let old = earlier.histograms.get(name);
                let mut d = h.clone();
                if let Some(old) = old {
                    d.count = d.count.saturating_sub(old.count);
                    d.sum = d.sum.saturating_sub(old.sum);
                    for (b, ob) in d.buckets.iter_mut().zip(&old.buckets) {
                        *b = b.saturating_sub(*ob);
                    }
                }
                (name.clone(), d)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(name, s)| {
                let old = earlier.spans.get(name);
                let mut d = s.clone();
                if let Some(old) = old {
                    d.count = d.count.saturating_sub(old.count);
                    d.total_ns = d.total_ns.saturating_sub(old.total_ns);
                }
                (name.clone(), d)
            })
            .collect();
        Self {
            counters,
            histograms,
            spans,
        }
    }
}

/// Captures the current value of every registered metric.
#[must_use]
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    let registry = REGISTRY.lock().expect("registry lock");
    for metric in registry.iter() {
        match metric {
            Metric::Counter(c) => {
                *snap.counters.entry(c.name.to_string()).or_insert(0) += c.value();
            }
            Metric::Histogram(h) => {
                let entry = snap
                    .histograms
                    .entry(h.name.to_string())
                    .or_default();
                let count = h.count.load(Ordering::Relaxed);
                entry.count += count;
                entry.sum += h.sum.load(Ordering::Relaxed);
                if count > 0 {
                    let min = h.min.load(Ordering::Relaxed);
                    let max = h.max.load(Ordering::Relaxed);
                    entry.min = Some(entry.min.map_or(min, |m| m.min(min)));
                    entry.max = Some(entry.max.map_or(max, |m| m.max(max)));
                }
                if entry.buckets.is_empty() {
                    entry.buckets = vec![0; BUCKETS];
                }
                for (dst, src) in entry.buckets.iter_mut().zip(&h.buckets) {
                    *dst += src.load(Ordering::Relaxed);
                }
            }
            Metric::Span(s) => {
                let entry = snap.spans.entry(s.name.to_string()).or_default();
                let count = s.count.load(Ordering::Relaxed);
                entry.count += count;
                entry.total_ns += s.total_ns.load(Ordering::Relaxed);
                if count > 0 {
                    entry.min_ns = entry.min_ns.min(s.min_ns.load(Ordering::Relaxed));
                }
                if entry.count == 0 {
                    entry.min_ns = u64::MAX;
                }
                entry.max_ns = entry.max_ns.max(s.max_ns.load(Ordering::Relaxed));
            }
        }
    }
    // Normalize empty span minima so Default (0) doesn't masquerade as
    // a measured 0 ns span.
    for s in snap.spans.values_mut() {
        if s.count == 0 {
            s.min_ns = u64::MAX;
        }
    }
    snap
}

// ---------------------------------------------------------------------------
// Sinks: text summary and JSONL
// ---------------------------------------------------------------------------

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Renders the aligned text summary of a snapshot. Zero-valued metrics
/// are omitted — a grep for a counter name in the summary is therefore
/// a nonzero check (the tier-1 gate relies on this for
/// `*.no_convergence`).
#[must_use]
pub fn summary_of(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        if *value > 0 {
            out.push_str(&format!("  counter   {name:<48} {value}\n"));
        }
    }
    for (name, h) in &snap.histograms {
        if h.count > 0 {
            out.push_str(&format!(
                "  histogram {name:<48} count {}  mean {:.3}  min {}  max {}\n",
                h.count,
                h.mean(),
                h.min.unwrap_or(0),
                h.max.unwrap_or(0),
            ));
        }
    }
    for (name, s) in &snap.spans {
        if s.count > 0 {
            out.push_str(&format!(
                "  span      {name:<48} count {}  total {}  mean {}\n",
                s.count,
                format_ns(s.total_ns as f64),
                format_ns(s.total_ns as f64 / s.count as f64),
            ));
        }
    }
    if out.is_empty() {
        out.push_str("  (no metrics recorded)\n");
    }
    out
}

/// Renders the current metrics as an aligned text summary.
#[must_use]
pub fn summary_string() -> String {
    summary_of(&snapshot())
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a snapshot as JSON lines: one object per metric, sorted by
/// kind then name. Deterministic fields only, except values under keys
/// ending in `_ns` (span wall-clock) — the documented escape hatch the
/// JSONL guard test checks.
#[must_use]
pub fn jsonl_of(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}\n",
            json_escape(name)
        ));
    }
    for (name, h) in &snap.histograms {
        let buckets: Vec<String> = {
            let last = h.max_bucket().map_or(0, |i| i + 1);
            h.buckets[..last].iter().map(u64::to_string).collect()
        };
        out.push_str(&format!(
            "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\
             \"min\":{},\"max\":{},\"buckets\":[{}]}}\n",
            json_escape(name),
            h.count,
            h.sum,
            h.min.unwrap_or(0),
            h.max.unwrap_or(0),
            buckets.join(","),
        ));
    }
    for (name, s) in &snap.spans {
        let min_ns = if s.count == 0 { 0 } else { s.min_ns };
        out.push_str(&format!(
            "{{\"type\":\"span\",\"name\":{},\"count\":{},\"total_ns\":{},\
             \"min_ns\":{min_ns},\"max_ns\":{}}}\n",
            json_escape(name),
            s.count,
            s.total_ns,
            s.max_ns,
        ));
    }
    out
}

/// Renders the current metrics as JSON lines.
#[must_use]
pub fn jsonl_string() -> String {
    jsonl_of(&snapshot())
}

/// Per-process sequence number stamped into `jsonl+:` flush markers.
static FLUSH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Serializes concurrent flushes so each appended block is one
/// contiguous byte range with an in-order marker (see
/// [`append_jsonl_snapshot`]).
static FLUSH_LOCK: Mutex<()> = Mutex::new(());

/// Appends one marker-delimited snapshot of the current metrics to
/// `path`: a `{"type":"flush","value":<seq>}` marker line (`seq` is a
/// per-process counter starting at 0) followed by the full
/// [`jsonl_string`] rendering. This is the `jsonl+:<path>` sink body —
/// the history-preserving flush a periodically-flushing daemon needs,
/// where the truncating `jsonl:<path>` sink would leave only the last
/// flush on disk. The file is created if absent.
///
/// Flushes are atomic with respect to each other: the marker's
/// sequence number is claimed and the whole block written as a single
/// `write_all` under one process-wide lock, so a reader never sees a
/// torn block and marker values appear in strictly increasing file
/// order even when a background flusher races an exit flush.
///
/// # Errors
///
/// Propagates the underlying open/write failure.
pub fn append_jsonl_snapshot(path: &std::path::Path) -> std::io::Result<()> {
    let _guard = FLUSH_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let seq = FLUSH_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut block = format!("{{\"type\":\"flush\",\"value\":{seq}}}\n");
    block.push_str(&jsonl_string());
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(block.as_bytes())
}

/// Writes the end-of-run report to the sink `RLCKIT_TRACE` selects
/// (nothing when tracing is disabled). One-shot campaign binaries and
/// the bench harness call it once at the end; with the truncating
/// `jsonl:<path>` sink a later flush overwrites an earlier one (last
/// flush wins — the final flush is the complete report). Long-running
/// processes that flush periodically should run under `jsonl+:<path>`,
/// where every flush appends a marker-delimited snapshot instead (see
/// [`append_jsonl_snapshot`]).
pub fn flush() {
    match env_sink() {
        Sink::Disabled => {}
        Sink::Summary => {
            let _ = writeln!(std::io::stderr(), "trace summary:\n{}", summary_string());
        }
        Sink::Jsonl(None) => {
            let _ = write!(std::io::stderr(), "{}", jsonl_string());
        }
        Sink::Jsonl(Some(path)) => {
            if let Err(e) = std::fs::write(path, jsonl_string()) {
                eprintln!("warning: could not write trace jsonl {}: {e}", path.display());
            }
        }
        Sink::JsonlAppend(path) => {
            if let Err(e) = append_jsonl_snapshot(path) {
                eprintln!("warning: could not append trace jsonl {}: {e}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter!("test.counters_accumulate");
        c.incr();
        c.add(4);
        assert_eq!(c.value(), 5);
        assert_eq!(snapshot().counter("test.counters_accumulate"), 5);
        assert_eq!(snapshot().counter("test.never_touched"), 0);
    }

    #[test]
    fn histograms_track_buckets_and_extremes() {
        let h = histogram!("test.histogram_buckets");
        for v in [2u64, 2, 7, 40] {
            h.observe(v);
        }
        let snap = snapshot();
        let hs = &snap.histograms["test.histogram_buckets"];
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 51);
        assert_eq!(hs.min, Some(2));
        assert_eq!(hs.max, Some(40));
        assert_eq!(hs.buckets[2], 2);
        assert_eq!(hs.buckets[7], 1);
        assert_eq!(hs.buckets[BUCKETS - 1], 1, "40 overflows the exact range");
        assert!((hs.mean() - 12.75).abs() < 1e-12);
        assert_eq!(hs.max_bucket(), Some(BUCKETS - 1));
    }

    #[test]
    fn observe_n_matches_repeated_observe() {
        let bulk = histogram!("test.observe_n_bulk");
        let loop_h = histogram!("test.observe_n_loop");
        bulk.observe_n(3, 5);
        bulk.observe_n(40, 2);
        bulk.observe_n(7, 0); // zero repeats must not register min/max
        for _ in 0..5 {
            loop_h.observe(3);
        }
        for _ in 0..2 {
            loop_h.observe(40);
        }
        let snap = snapshot();
        let b = &snap.histograms["test.observe_n_bulk"];
        let l = &snap.histograms["test.observe_n_loop"];
        assert_eq!(b.count, l.count);
        assert_eq!(b.sum, l.sum);
        assert_eq!(b.min, l.min);
        assert_eq!(b.max, l.max);
        assert_eq!(b.buckets, l.buckets);
    }

    #[test]
    fn snapshot_delta_subtracts_counts_and_buckets() {
        let c = counter!("test.delta_counter");
        let h = histogram!("test.delta_histogram");
        c.add(2);
        h.observe(3);
        let before = snapshot();
        c.add(5);
        h.observe(3);
        h.observe(9);
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("test.delta_counter"), 5);
        let hd = &delta.histograms["test.delta_histogram"];
        assert_eq!(hd.count, 2);
        assert_eq!(hd.sum, 12);
        assert_eq!(hd.buckets[3], 1);
        assert_eq!(hd.buckets[9], 1);
    }

    #[test]
    fn span_guards_record_only_when_enabled() {
        // One test owns both states: parallel tests must not fight over
        // the global flag mid-assertion.
        set_enabled(false);
        {
            let guard = span!("test.span_disabled");
            assert!(!guard.is_active(), "disabled tracing must yield inert guards");
        }
        assert_eq!(snapshot().spans.get("test.span_disabled").map_or(0, |s| s.count), 0);

        set_enabled(true);
        {
            let guard = span!("test.span_enabled");
            assert!(guard.is_active());
            std::hint::black_box(3u64.pow(7));
        }
        let snap = snapshot();
        let s = &snap.spans["test.span_enabled"];
        assert_eq!(s.count, 1);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
        set_enabled(true);
    }

    #[test]
    fn sink_parsing_covers_the_documented_grammar() {
        assert_eq!(Sink::parse(""), Sink::Disabled);
        assert_eq!(Sink::parse("0"), Sink::Disabled);
        assert_eq!(Sink::parse("off"), Sink::Disabled);
        assert_eq!(Sink::parse("summary"), Sink::Summary);
        assert_eq!(Sink::parse("1"), Sink::Summary);
        assert_eq!(Sink::parse("jsonl"), Sink::Jsonl(None));
        assert_eq!(
            Sink::parse("jsonl:/tmp/trace.jsonl"),
            Sink::Jsonl(Some(PathBuf::from("/tmp/trace.jsonl")))
        );
        // Pre-fix regression: `jsonl+:` used to fall through to the
        // summary sink, so a daemon asking for append-mode history got
        // no file at all.
        assert_eq!(
            Sink::parse("jsonl+:/tmp/trace.jsonl"),
            Sink::JsonlAppend(PathBuf::from("/tmp/trace.jsonl"))
        );
        // Unknown values fail open to summary.
        assert_eq!(Sink::parse("weird"), Sink::Summary);
    }

    /// Pre-fix regression for the truncate-on-flush sink: periodic
    /// flushes through the append sink must *accumulate* — two flushes
    /// yield two marker-delimited snapshots, not one surviving "last
    /// flush wins" image.
    #[test]
    fn two_append_flushes_preserve_two_snapshots() {
        let path = std::env::temp_dir().join(format!(
            "rlckit_trace_append_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        counter!("test.append_flush_counter").incr();
        append_jsonl_snapshot(&path).expect("first append");
        counter!("test.append_flush_counter").incr();
        append_jsonl_snapshot(&path).expect("second append");

        let text = std::fs::read_to_string(&path).expect("read back");
        let markers: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"flush\""))
            .collect();
        assert_eq!(markers.len(), 2, "each flush must leave its marker: {text}");
        // Marker sequence numbers are distinct and increasing.
        assert_ne!(markers[0], markers[1]);
        let counter_lines = text
            .lines()
            .filter(|l| l.contains("\"name\":\"test.append_flush_counter\""))
            .count();
        assert_eq!(counter_lines, 2, "both snapshots must carry the counter");
        // Every line is still a standalone JSON object.
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Pre-fix regression for flush atomicity: the marker's sequence
    /// number used to be claimed outside any lock and the block written
    /// through `write!` (multiple underlying writes), so two racing
    /// flushes could interleave their bytes — torn lines — or land
    /// their markers out of order. Post-fix each flush is one
    /// `write_all` under a lock that also claims the sequence number.
    #[test]
    fn interleaved_append_flushes_never_tear_blocks() {
        let path = std::env::temp_dir().join(format!(
            "rlckit_trace_interleave_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        const THREADS: u64 = 8;
        const FLUSHES: u64 = 5;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let path = &path;
                scope.spawn(move || {
                    for i in 0..FLUSHES {
                        // Grow the snapshot between flushes so blocks are
                        // big enough that an unserialized writer would
                        // interleave.
                        histogram!("test.interleave_flush_load").observe(t * FLUSHES + i);
                        append_jsonl_snapshot(path).expect("append");
                    }
                });
            }
        });

        let text = std::fs::read_to_string(&path).expect("read back");
        let mut markers = Vec::new();
        for line in text.lines() {
            // No torn lines: every line is a standalone JSON object.
            assert!(line.starts_with('{') && line.ends_with('}'), "torn line: {line:?}");
            if let Some(rest) = line.strip_prefix("{\"type\":\"flush\",\"value\":") {
                let seq: u64 = rest.trim_end_matches('}').parse().expect(line);
                markers.push(seq);
            }
        }
        assert_eq!(markers.len() as u64, THREADS * FLUSHES);
        // Markers appear in strictly increasing file order: the claim
        // and the write happened under one lock.
        for pair in markers.windows(2) {
            assert!(pair[0] < pair[1], "markers out of order: {markers:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        // 100 observations uniformly over values 0..10: the exact
        // distribution's quantile function is q -> 10q.
        let mut h = HistogramSnapshot {
            count: 100,
            sum: 450,
            min: Some(0),
            max: Some(9),
            buckets: vec![0; BUCKETS],
        };
        for b in 0..10 {
            h.buckets[b] = 10;
        }
        assert!((h.percentile(0.5).unwrap() - 5.0).abs() < 1e-12);
        assert!((h.percentile(0.95).unwrap() - 9.5).abs() < 1e-12);
        assert!((h.percentile(1.0).unwrap() - 10.0).abs() < 1e-12);
        assert!((h.percentile(0.0).unwrap() - 0.0).abs() < 1e-12);

        // A point mass at 3 spreads over [3, 4): the median is 3.5, not
        // the bare bucket index.
        let point = HistogramSnapshot {
            count: 100,
            sum: 300,
            min: Some(3),
            max: Some(3),
            buckets: {
                let mut b = vec![0; BUCKETS];
                b[3] = 100;
                b
            },
        };
        assert!((point.percentile(0.5).unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_handles_overflow_and_degenerate_inputs() {
        // All-overflow: every observation saturated into the last
        // bucket. Interpolation runs between the bucket's lower bound
        // and the recorded max instead of a fictitious +1 width.
        let mut all_over = HistogramSnapshot {
            count: 10,
            sum: 400,
            min: Some(40),
            max: Some(40),
            buckets: vec![0; BUCKETS],
        };
        all_over.buckets[BUCKETS - 1] = 10;
        let lo = (BUCKETS - 1) as f64;
        let p50 = all_over.percentile(0.5).unwrap();
        assert!((p50 - (lo + 0.5 * (40.0 - lo))).abs() < 1e-12, "{p50}");
        assert!((all_over.percentile(1.0).unwrap() - 40.0).abs() < 1e-12);

        // Mixed: half exact, half overflow — p25 is exact-range, p75
        // overflow-range.
        let mut mixed = all_over.clone();
        mixed.count = 20;
        mixed.buckets[2] = 10;
        mixed.min = Some(2);
        assert!(mixed.percentile(0.25).unwrap() < 3.0);
        assert!(mixed.percentile(0.75).unwrap() > lo);

        // Empty and out-of-range inputs answer None, never panic.
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.percentile(0.5), None);
        assert_eq!(all_over.percentile(-0.1), None);
        assert_eq!(all_over.percentile(1.5), None);
        assert_eq!(all_over.percentile(f64::NAN), None);
    }

    #[test]
    fn summary_omits_zero_valued_metrics() {
        let mut snap = Snapshot::default();
        snap.counters.insert("zeros.are.hidden".into(), 0);
        snap.counters.insert("ones.are.shown".into(), 1);
        let text = summary_of(&snap);
        assert!(!text.contains("zeros.are.hidden"));
        assert!(text.contains("ones.are.shown"));
    }

    #[test]
    fn jsonl_lines_are_wellformed_objects() {
        let c = counter!("test.jsonl_counter");
        c.incr();
        let h = histogram!("test.jsonl_histogram");
        h.observe(4);
        let text = jsonl_string();
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"type\":\"counter\""));
        assert!(text.contains("\"type\":\"histogram\""));
        assert!(text.contains("\"name\":\"test.jsonl_counter\""));
    }

    #[test]
    fn counters_ending_with_sums_the_family() {
        let mut snap = Snapshot::default();
        snap.counters.insert("a.no_convergence".into(), 2);
        snap.counters.insert("b.c.no_convergence".into(), 3);
        snap.counters.insert("b.converged".into(), 100);
        assert_eq!(snap.counters_ending_with(".no_convergence"), 5);
    }
}
