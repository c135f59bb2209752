//! Small statistics and hashing helpers shared by every workload.

use std::time::Instant;

use crate::calib::Speed;

/// Nearest-rank `q`-quantile of `samples` (sorted in place). `NaN` when
/// there are no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly above the `q`-quantile: the count the "at least ten
/// samples beyond the reported percentile" rule is checked against.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Times `f` once per input and returns the median per-call time in
/// nanoseconds; `rounds` passes over `inputs` are made so that short
/// calls are timed many times.
pub fn median_call_ns<T, R>(inputs: &[T], rounds: usize, mut f: impl FnMut(&T) -> R) -> f64 {
    let mut samples = Vec::with_capacity(inputs.len() * rounds);
    for _ in 0..rounds {
        for input in inputs {
            let t0 = Instant::now();
            std::hint::black_box(f(std::hint::black_box(input)));
            samples.push(t0.elapsed().as_secs_f64() * 1e9);
        }
    }
    median(&mut samples)
}

/// The end-to-end metrics of a run: CPU time per operation and set-up
/// time, both at the reference speed.
///
/// The CPU time is that of the processes doing the work (the library
/// in process, the campaign processes, the daemon), as the kernel
/// counts it, so neither other processes on this machine nor the host
/// stealing its CPUs inflates it; `speed` rescales it for the host's
/// drift (see [`crate::calib`]). Wall-clock figures, which both inflate,
/// go to the detail line ([`Wall`]), with the CPU and set-up times as
/// measured.
pub fn metrics(
    cpu_s: f64,
    ops: u64,
    speed: &Speed,
    setup_s: f64,
) -> (Vec<crate::Metric>, Vec<(String, String)>) {
    let cpu_us_per_op = cpu_s * 1e6 / ops as f64;
    let metrics = vec![
        crate::Metric {
            name: "ref_cpu_us_per_op",
            value: speed.at_reference(cpu_us_per_op),
            unit: "us",
        },
        crate::Metric {
            name: "setup_s",
            value: speed.at_reference(setup_s),
            unit: "s",
        },
    ];
    let mut details = vec![
        ("cpu_us_per_op".to_string(), json_or_null(cpu_us_per_op)),
        ("measured_setup_s".to_string(), json_or_null(setup_s)),
    ];
    details.extend(speed.details());
    (metrics, details)
}

/// Wall-clock figures of a run, for the detail line: operations over
/// busy seconds, and the latency of each timed unit of work.
#[derive(Default)]
pub struct Wall {
    pub ops: u64,
    pub busy_s: f64,
    pub latencies_us: Vec<f64>,
}

impl Wall {
    /// Throughput, latency p50 and p99 with their sample counts.
    pub fn details(mut self) -> Vec<(String, String)> {
        let n = self.latencies_us.len();
        vec![
            (
                "wall_throughput_per_s".to_string(),
                json_or_null(ratio(self.ops as f64, self.busy_s)),
            ),
            ("latency_samples".to_string(), n.to_string()),
            (
                "latency_p50_us".to_string(),
                json_or_null(median(&mut self.latencies_us)),
            ),
            (
                "latency_p99_us".to_string(),
                json_or_null(quantile(&mut self.latencies_us, 0.99)),
            ),
            (
                "samples_beyond_p99".to_string(),
                beyond(n, 0.99).to_string(),
            ),
        ]
    }
}

fn json_or_null(x: f64) -> String {
    if x.is_finite() {
        crate::json_number(x)
    } else {
        "null".to_string()
    }
}

/// A 64-bit FNV-1a hash over words, used to compare solver outputs bit
/// for bit without keeping them.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Ratio `num / den`, 0 when the denominator is 0 (a layer that did no
/// work reads 0, not `NaN`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(quantile(&mut [], 0.5).is_nan());
    }
}
