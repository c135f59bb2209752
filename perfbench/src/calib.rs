//! The machine's speed while a workload runs, from a fixed reference
//! kernel.
//!
//! On a shared host the CPU time one operation takes moves by 10–20 %
//! over minutes, with the host's load on the physical cores behind the
//! VM's CPUs, and the same shift shows in any compute-bound code.
//! [`around`] runs a fixed kernel on nproc threads, in ~10 ms bursts
//! timed in CPU time, while nothing else of the benchmark runs: back to
//! back just before and just after the timed region of a workload, and
//! inside it every [`PERIOD`] wherever the workload can pause between
//! two units of work ([`Calibration::between`]). The workload's CPU time per operation, divided by the kernel's time
//! relative to [`REFERENCE_NS_PER_ITER`], then reads as CPU time at one
//! reference speed, and so does its set-up time. The kernel is this
//! benchmark's own code, so a change to the program cannot move it.

use std::time::{Duration, Instant};

/// Kernel iterations per thread in one burst (~10 ms).
const BURST_ITERS: usize = 4000;
/// Length of each of the two calibration windows.
const WINDOW: Duration = Duration::from_millis(1500);
/// Least time between two bursts inside the timed region.
const PERIOD: Duration = Duration::from_millis(250);
/// Median CPU nanoseconds per kernel iteration on the 2-vCPU VM this
/// benchmark was tuned on; figures are rescaled to this speed.
pub const REFERENCE_NS_PER_ITER: f64 = 2700.0;

/// The reference kernel: exp, sqrt, division and number formatting over
/// a small array, the same mix of work as a solve and its record.
fn kernel(iters: usize) -> f64 {
    let mut acc = 0.0f64;
    let mut v: Vec<f64> = (0..256).map(|i| 1.0 + i as f64 * 1e-3).collect();
    for k in 0..iters {
        for x in v.iter_mut() {
            let y = (*x * 0.999).exp().sqrt() / (1.0 + *x);
            *x = 1.0 + y.fract();
            acc += y;
        }
        if k % 7 == 0 {
            acc += format!("{acc:.6}").len() as f64 * 1e-9;
        }
    }
    acc
}

/// CPU nanoseconds of the calling thread (`/proc/thread-self/schedstat`).
fn thread_cpu_ns() -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("cannot read /proc/thread-self/schedstat: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| "cannot parse /proc/thread-self/schedstat".to_string())
}

/// One burst on `threads` threads at once: the mean CPU nanoseconds
/// per iteration, and the CPU seconds the burst used.
fn burst(threads: usize) -> Result<(f64, f64), String> {
    let per_thread: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let before = thread_cpu_ns()?;
                    std::hint::black_box(kernel(BURST_ITERS));
                    Ok(thread_cpu_ns()? - before)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    let ns = per_thread
        .into_iter()
        .collect::<Result<Vec<u64>, String>>()?;
    let total = ns.iter().sum::<u64>() as f64;
    Ok((total / (threads * BURST_ITERS) as f64, total / 1e9))
}

/// The bursts of one run.
pub struct Calibration {
    threads: usize,
    /// CPU nanoseconds per kernel iteration of each burst.
    samples: Vec<f64>,
    /// CPU seconds of this process that the bursts inside the timed
    /// region used.
    pub cpu_s: f64,
    last: Instant,
}

impl Calibration {
    /// Runs a burst when [`PERIOD`] has passed since the last one. A
    /// workload calls this where it can pause between two units of work.
    pub fn between(&mut self) -> Result<(), String> {
        if self.last.elapsed() >= PERIOD {
            let (ns, cpu_s) = burst(self.threads)?;
            self.samples.push(ns);
            self.cpu_s += cpu_s;
            self.last = Instant::now();
        }
        Ok(())
    }

    /// Back-to-back bursts for [`WINDOW`].
    fn window(&mut self) -> Result<(), String> {
        let start = Instant::now();
        while start.elapsed() < WINDOW {
            self.samples.push(burst(self.threads)?.0);
        }
        self.last = Instant::now();
        Ok(())
    }
}

/// Runs `timed` between two calibration windows and returns its result
/// with the speed all the bursts saw.
pub fn around<R>(
    timed: impl FnOnce(&mut Calibration) -> Result<R, String>,
) -> Result<(R, Speed), String> {
    let mut calibration = Calibration {
        threads: rlckit_par::available_threads(),
        samples: Vec::new(),
        cpu_s: 0.0,
        last: Instant::now(),
    };
    calibration.window()?;
    let result = timed(&mut calibration)?;
    calibration.window()?;
    Ok((
        result,
        Speed {
            bursts: calibration.samples.len(),
            ns_per_iter: crate::stats::median(&mut calibration.samples),
        },
    ))
}

/// What the calibration windows of a run saw.
pub struct Speed {
    /// Median CPU nanoseconds per kernel iteration over the bursts.
    pub ns_per_iter: f64,
    pub bursts: usize,
}

impl Speed {
    /// A time measured at this speed, rescaled to the reference speed.
    pub fn at_reference(&self, time: f64) -> f64 {
        time * REFERENCE_NS_PER_ITER / self.ns_per_iter
    }

    /// Detail-line fields.
    pub fn details(&self) -> Vec<(String, String)> {
        vec![
            (
                "calibration_ns_per_iter".to_string(),
                crate::json_number(self.ns_per_iter),
            ),
            ("calibration_bursts".to_string(), self.bursts.to_string()),
        ]
    }
}
