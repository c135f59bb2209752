//! A lightweight bench timer: the workspace's replacement for Criterion.
//!
//! Each measurement runs a warmup, then collects timed samples of a
//! calibrated iteration batch and reports min / median / p95 / mean
//! nanoseconds per iteration. Results are printed as aligned text and
//! written as JSON lines to `results/BENCH_<group>.json` (one object per
//! benchmark) so future runs can be diffed mechanically.
//!
//! Bench targets are `harness = false` binaries:
//!
//! ```no_run
//! use rlckit_bench::timer::Harness;
//!
//! fn main() {
//!     let mut h = Harness::from_args("my_group");
//!     h.bench("fast_thing", || 2 + 2);
//!     h.finish();
//! }
//! ```
//!
//! Under `cargo bench` the full measurement runs; when the binary is
//! invoked with `--test` (as `cargo test --benches` does) or with
//! `RLCKIT_BENCH_SMOKE=1`, every benchmark body runs exactly once as a
//! smoke check and nothing is measured. Positional command-line
//! arguments act as substring filters on benchmark names, mirroring
//! `cargo bench -- <filter>`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-benchmark measurement knobs.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// How long to spin the body before sampling begins.
    pub warmup: Duration,
    /// Number of timed samples to collect.
    pub samples: usize,
    /// Target wall-clock duration of one sample; the iteration batch is
    /// calibrated so one sample takes roughly this long.
    pub target_sample: Duration,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            warmup: Duration::from_millis(100),
            samples: 30,
            target_sample: Duration::from_millis(5),
        }
    }
}

impl BenchOptions {
    /// A reduced-sample configuration for expensive bodies (the
    /// `sample_size(n)` idiom).
    #[must_use]
    pub fn with_samples(samples: usize) -> Self {
        Self {
            samples,
            ..Self::default()
        }
    }
}

/// Summary statistics for one benchmark.
///
/// For measured benchmarks the four summary fields are nanoseconds per
/// iteration (`unit == "ns_per_iter"`); for entries derived with
/// [`Harness::record_speedup`] they are dimensionless baseline/contender
/// ratios (`unit == "speedup_x"`) and the `_ns` suffix is historical.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Benchmark name (unique within its group).
    pub name: String,
    /// Unit of the four summary fields.
    pub unit: &'static str,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 95th-percentile sample.
    pub p95_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Iterations per timed sample after calibration.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Extra context fields emitted verbatim into the JSON record
    /// (e.g. `("threads", 4.0)`).
    pub extra: Vec<(String, f64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Measure,
    Smoke,
}

/// A group of benchmarks sharing one results file.
#[derive(Debug)]
pub struct Harness {
    group: String,
    mode: Mode,
    filters: Vec<String>,
    results: Vec<Stats>,
}

impl Harness {
    /// Creates a harness, inspecting the process arguments the way a
    /// `harness = false` target must: `--test` (or
    /// `RLCKIT_BENCH_SMOKE=1`) selects smoke mode, `--bench` and other
    /// flags are ignored, and positional arguments become name filters.
    #[must_use]
    pub fn from_args(group: &str) -> Self {
        let mut mode = Mode::Measure;
        if std::env::var_os("RLCKIT_BENCH_SMOKE").is_some_and(|v| v != "0") {
            mode = Mode::Smoke;
        }
        let mut filters = Vec::new();
        for arg in std::env::args().skip(1) {
            if arg == "--test" {
                mode = Mode::Smoke;
            } else if !arg.starts_with('-') {
                filters.push(arg);
            }
        }
        Self {
            group: group.to_string(),
            mode,
            filters,
            results: Vec::new(),
        }
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty()
            || self
                .filters
                .iter()
                .any(|f| name.contains(f.as_str()) || self.group.contains(f.as_str()))
    }

    /// Measures `body` with default options.
    pub fn bench<T>(&mut self, name: &str, body: impl FnMut() -> T) {
        self.bench_with(name, &BenchOptions::default(), body);
    }

    /// Measures `body` with explicit options.
    pub fn bench_with<T>(&mut self, name: &str, opts: &BenchOptions, mut body: impl FnMut() -> T) {
        if !self.selected(name) {
            return;
        }
        if self.mode == Mode::Smoke {
            black_box(body());
            println!("smoke {}/{name}: ok", self.group);
            return;
        }

        // Calibrate the batch size on a single run.
        let once = {
            let t0 = Instant::now();
            black_box(body());
            t0.elapsed().max(Duration::from_nanos(1))
        };
        let iters = (opts.target_sample.as_nanos() / once.as_nanos()).clamp(1, 50_000_000) as u64;

        // Warmup.
        let warm_until = Instant::now() + opts.warmup;
        while Instant::now() < warm_until {
            black_box(body());
        }

        // Timed samples.
        let mut samples_ns: Vec<f64> = Vec::with_capacity(opts.samples);
        for _ in 0..opts.samples.max(1) {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(body());
            }
            samples_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));

        let stats = Stats {
            name: name.to_string(),
            unit: "ns_per_iter",
            min_ns: samples_ns[0],
            median_ns: percentile(&samples_ns, 0.50),
            p95_ns: percentile(&samples_ns, 0.95),
            mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
            iters_per_sample: iters,
            samples: samples_ns.len(),
            extra: Vec::new(),
        };
        println!(
            "bench {:<44} min {:>10}  median {:>10}  p95 {:>10}",
            format!("{}/{}", self.group, stats.name),
            format_ns(stats.min_ns),
            format_ns(stats.median_ns),
            format_ns(stats.p95_ns),
        );
        self.results.push(stats);
    }

    /// Measures `body` like [`Harness::bench_with`] in a trace scope of
    /// its own and hands that scope's snapshot — the body's exact
    /// telemetry, including the `rlckit-par` workers and pool jobs it
    /// hands out — to `derive`, whose `(key, value)` pairs are appended
    /// to the JSON record's extra fields.
    ///
    /// The snapshot covers calibration and warmup runs too, so derive
    /// ratios *within* it (e.g. a histogram's
    /// `mean()` = iterations per solve) rather than dividing by the
    /// timed iteration count — ratios are insensitive to the extra
    /// runs. A no-op beyond the plain measurement in smoke mode.
    pub fn bench_profiled<T>(
        &mut self,
        name: &str,
        opts: &BenchOptions,
        body: impl FnMut() -> T,
        derive: impl FnOnce(&rlckit_trace::Snapshot) -> Vec<(String, f64)>,
    ) {
        if !self.selected(name) {
            return;
        }
        let ((), snap) = rlckit_trace::scoped(|| self.bench_with(name, opts, body));
        if self.mode == Mode::Smoke {
            return;
        }
        let extras = derive(&snap);
        if let Some(s) = self.results.last_mut() {
            if s.name == name {
                s.extra.extend(extras);
            }
        }
    }

    /// Looks up an already-recorded benchmark by exact name.
    #[must_use]
    pub fn stats(&self, name: &str) -> Option<&Stats> {
        self.results.iter().find(|s| s.name == name)
    }

    /// Appends extra `(key, value)` context fields to an
    /// already-recorded benchmark's JSON record — for quantities
    /// computed *from* the measurement after the fact (a replay bench's
    /// queries-per-second derives from its own median, which no closure
    /// passed into the measurement can see). A no-op in smoke mode or
    /// when `name` was filtered out, like the other derived entries.
    pub fn annotate(&mut self, name: &str, extra: &[(&str, f64)]) {
        if let Some(s) = self.results.iter_mut().find(|s| s.name == name) {
            s.extra
                .extend(extra.iter().map(|&(k, v)| (k.to_string(), v)));
        }
    }

    /// Records a derived `baseline / contender` speedup entry computed
    /// from two previously-measured benchmarks in this group, ratioed
    /// statistic by statistic (min/min, median/median, …). `extra`
    /// carries context fields such as the thread count into the JSON
    /// record. A no-op in smoke mode or when either side was filtered
    /// out (so bench filters keep working).
    pub fn record_speedup(
        &mut self,
        name: &str,
        baseline: &str,
        contender: &str,
        extra: &[(&str, f64)],
    ) {
        if self.mode == Mode::Smoke {
            return;
        }
        let (Some(b), Some(c)) = (self.stats(baseline).cloned(), self.stats(contender).cloned())
        else {
            return;
        };
        let stats = Stats {
            name: name.to_string(),
            unit: "speedup_x",
            min_ns: b.min_ns / c.min_ns,
            median_ns: b.median_ns / c.median_ns,
            p95_ns: b.p95_ns / c.p95_ns,
            mean_ns: b.mean_ns / c.mean_ns,
            iters_per_sample: c.iters_per_sample,
            samples: c.samples,
            extra: extra.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        };
        println!(
            "bench {:<44} min {:>9.3}x  median {:>6.3}x  p95 {:>9.3}x",
            format!("{}/{}", self.group, stats.name),
            stats.min_ns,
            stats.median_ns,
            stats.p95_ns,
        );
        self.results.push(stats);
    }

    /// Writes the JSON-lines results file and consumes the harness. In
    /// smoke mode (or when every benchmark was filtered out) nothing is
    /// written. When `RLCKIT_TRACE` selects a sink, the group's counter
    /// summary is printed to stderr in *both* modes — this is how the
    /// tier-1 smoke pass audits `*.no_convergence` counters.
    pub fn finish(self) {
        if rlckit_trace::enabled() {
            eprint!(
                "trace[{}]:\n{}",
                self.group,
                rlckit_trace::summary_string()
            );
        }
        if self.mode == Mode::Smoke || self.results.is_empty() {
            return;
        }
        let mut out = String::new();
        for s in &self.results {
            let mut extra = String::new();
            for (k, v) in &s.extra {
                extra.push_str(&format!(",{}:{v:.3}", json_string(k)));
            }
            out.push_str(&format!(
                "{{\"group\":{},\"name\":{},\"unit\":{},\
                 \"min\":{:.3},\"median\":{:.3},\"p95\":{:.3},\"mean\":{:.3},\
                 \"samples\":{},\"iters_per_sample\":{}{extra}}}\n",
                json_string(&self.group),
                json_string(&s.name),
                json_string(s.unit),
                s.min_ns,
                s.median_ns,
                s.p95_ns,
                s.mean_ns,
                s.samples,
                s.iters_per_sample,
            ));
        }
        let path = crate::results_dir().join(format!("BENCH_{}.json", self.group));
        match std::fs::write(&path, out) {
            Ok(()) => println!("(bench json written to {})", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn json_string(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_expected_samples() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
    }

    #[test]
    fn ns_formatting_scales_units() {
        assert_eq!(format_ns(512.0), "512.0 ns");
        assert_eq!(format_ns(2_500.0), "2.50 µs");
        assert_eq!(format_ns(7_300_000.0), "7.30 ms");
        assert_eq!(format_ns(1.2e9), "1.200 s");
    }

    #[test]
    fn json_strings_escape_quotes() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }

    #[test]
    fn smoke_mode_runs_body_once_and_records_nothing() {
        let mut h = Harness {
            group: "t".into(),
            mode: Mode::Smoke,
            filters: Vec::new(),
            results: Vec::new(),
        };
        let mut runs = 0;
        h.bench("x", || runs += 1);
        assert_eq!(runs, 1);
        assert!(h.results.is_empty());
    }

    #[test]
    fn filters_skip_unmatched_names() {
        let mut h = Harness {
            group: "grp".into(),
            mode: Mode::Smoke,
            filters: vec!["wanted".into()],
            results: Vec::new(),
        };
        let mut runs = 0;
        h.bench("other", || runs += 1);
        assert_eq!(runs, 0);
        h.bench("wanted_thing", || runs += 1);
        assert_eq!(runs, 1);
    }

    #[test]
    fn measurement_produces_ordered_stats() {
        let mut h = Harness {
            group: "t".into(),
            mode: Mode::Measure,
            filters: Vec::new(),
            results: Vec::new(),
        };
        let opts = BenchOptions {
            warmup: Duration::from_millis(1),
            samples: 5,
            target_sample: Duration::from_micros(200),
        };
        h.bench_with("spin", &opts, || std::hint::black_box(3u64.pow(7)));
        let s = &h.results[0];
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p95_ns);
        assert_eq!(s.samples, 5);
        assert_eq!(s.unit, "ns_per_iter");
    }

    fn canned(name: &str, scale: f64) -> Stats {
        Stats {
            name: name.into(),
            unit: "ns_per_iter",
            min_ns: 100.0 * scale,
            median_ns: 120.0 * scale,
            p95_ns: 150.0 * scale,
            mean_ns: 125.0 * scale,
            iters_per_sample: 10,
            samples: 5,
            extra: Vec::new(),
        }
    }

    #[test]
    fn speedup_ratios_each_statistic_and_keeps_context() {
        let mut h = Harness {
            group: "t".into(),
            mode: Mode::Measure,
            filters: Vec::new(),
            results: vec![canned("serial", 4.0), canned("parallel", 1.0)],
        };
        h.record_speedup("speedup", "serial", "parallel", &[("threads", 8.0)]);
        let s = h.stats("speedup").expect("recorded");
        assert_eq!(s.unit, "speedup_x");
        assert!((s.min_ns - 4.0).abs() < 1e-12);
        assert!((s.median_ns - 4.0).abs() < 1e-12);
        assert!((s.p95_ns - 4.0).abs() < 1e-12);
        assert_eq!(s.extra, vec![("threads".to_string(), 8.0)]);
    }

    #[test]
    fn speedup_is_a_noop_when_a_side_is_missing_or_in_smoke_mode() {
        let mut h = Harness {
            group: "t".into(),
            mode: Mode::Measure,
            filters: Vec::new(),
            results: vec![canned("serial", 1.0)],
        };
        h.record_speedup("speedup", "serial", "absent", &[]);
        assert!(h.stats("speedup").is_none());

        let mut smoke = Harness {
            group: "t".into(),
            mode: Mode::Smoke,
            filters: Vec::new(),
            results: vec![canned("serial", 2.0), canned("parallel", 1.0)],
        };
        smoke.record_speedup("speedup", "serial", "parallel", &[]);
        assert!(smoke.stats("speedup").is_none());
    }
}
