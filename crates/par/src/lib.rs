//! `rlckit-par` — a hermetic, std-only parallel campaign engine.
//!
//! The paper's entire §3 analysis (Figs. 4–12) is one embarrassingly
//! parallel outer loop: an inductance sweep that re-runs the Eq. 5–8
//! Newton optimizer and the Eq. 3 delay solve at every point. This crate
//! provides the execution substrate for that loop — and for the §3.2
//! Monte-Carlo and the route-planner sweep — without pulling in any
//! registry dependency: scoped threads from `std::thread::scope`, work
//! distribution by guided claims off one atomic counter, and results
//! collected **in input order** regardless of scheduling.
//!
//! # Determinism contract
//!
//! [`par_map`] guarantees that its output vector is element-wise
//! identical — bit-for-bit for floating-point payloads — to the serial
//! `items.iter().map(f)` evaluation, for every thread count. Two
//! ingredients make this true:
//!
//! 1. the mapped function receives the item *and its input index*, never
//!    any shared mutable state, so each element's value is a pure
//!    function of the input; and
//! 2. every claim is recorded under its start index and the claims are
//!    reassembled sorted by start, so collection order is input order,
//!    not completion order.
//!
//! Stochastic callers (the §3.2 Monte-Carlo) keep the contract by
//! deriving one child generator per item up front via
//! [`rlckit_numeric::rng::Rng::split`] and handing workers the child
//! streams — never a shared generator.
//!
//! # Panic policy
//!
//! A panic inside `f` must not poison a lock, wedge the join, or unwind
//! into the caller: every run of `f` — on a worker or on the calling
//! thread's serial path — sits inside `catch_unwind`, the remaining
//! claims are still processed, and the whole map returns
//! [`NumericError::InvalidInput`] naming the index of the earliest
//! panicking item and its panic message. Callers therefore see an
//! `Err`, never a hang and never an abort of the calling thread, and the
//! message is the same for every worker count.
//!
//! # Scope
//!
//! [`par_map`] workers and pool jobs run in the [`Context`] of the
//! thread that handed them work: its trace scope and fault plan.
//!
//! # Worker count
//!
//! [`Parallelism::Auto`] resolves to the `RLCKIT_THREADS` environment
//! variable when set to a positive integer, otherwise to
//! [`std::thread::available_parallelism`]. `RLCKIT_THREADS=1` forces the
//! serial path — useful to bisect any suspected parallelism issue.
//!
//! The `Auto` count is resolved **once per process** (the same pattern
//! `rlckit-trace` uses for `RLCKIT_TRACE`): a campaign resolves the same
//! worker count at every stage, and the hot path never pays a per-call
//! env lookup or cgroup read. Code that needs a particular count passes
//! [`Parallelism::Threads`] to the call instead.
//!
//! # When `Auto` spawns
//!
//! Spawning and joining scoped workers is not free: about 220 µs of
//! wall time and 110 µs of CPU for two workers on a 2-CPU Linux VM. The
//! calling thread is itself one of the workers, so a map at `n` workers
//! spawns `n − 1` threads (one on a 2-CPU host) and folds one recorder
//! fewer. A map whose whole work is shorter than the spawn is faster on
//! the calling thread, and only the items say how long they take. So under
//! [`Parallelism::Auto`] the calling thread maps items itself, one at a
//! time, and spawns the workers for the rest only once it has spent
//! 200 µs (`AUTO_SPAWN_AFTER`, the spawn's own cost) on them (the
//! rent-or-buy rule: never more than twice the time of the better
//! choice made in hindsight). Short maps, such as a trade-off over a
//! few repeater counts, never spawn. A pinned [`Parallelism::Threads`]
//! spawns at once. Either way the output is the serial one, bit for
//! bit; only the scheduling telemetry depends on the timing.
//!
//! # Scheduling
//!
//! [`par_map`] uses guided self-scheduling, which suits workloads with
//! large per-item cost variance (the route planner's trade-off sweep
//! spans ~3× between its cheapest and dearest points): workers claim
//! `remaining / (2·workers)` items at a time, so claims start large and
//! halve toward the tail, bounding the straggler tail by the cost of one
//! small claim while keeping the claim count — and therefore counter
//! contention — logarithmic.
//!
//! # Examples
//!
//! ```
//! use rlckit_par::{par_map, Parallelism};
//!
//! # fn main() -> Result<(), rlckit_numeric::NumericError> {
//! let xs: Vec<f64> = (0..1000).map(f64::from).collect();
//! let squares = par_map(&xs, Parallelism::Auto, |_, &x| Ok(x * x))?;
//! assert_eq!(squares[7], 49.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use pool::{PoolClosed, ShardedPool};

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use rlckit_numeric::{NumericError, Result};
use rlckit_trace::{counter, histogram, Scope};

/// A thread's `rlckit-trace` scope and `rlckit-fault` plan, captured
/// so that work it hands to another thread runs as if on this one.
pub struct Context(Scope, Option<(u64, f64)>);

impl Context {
    /// The calling thread's scope and plan.
    #[must_use]
    pub fn capture() -> Self {
        Self(Scope::current(), rlckit_fault::plan())
    }

    /// Runs `f` in the captured scope and under the captured plan.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        self.0.enter(|| rlckit_fault::with_plan(self.1, f))
    }
}

/// How a parallel map distributes its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run on the calling thread; spawns nothing. The reference
    /// semantics every parallel mode must reproduce exactly.
    Serial,
    /// Resolve the worker count from `RLCKIT_THREADS`, falling back to
    /// [`std::thread::available_parallelism`].
    #[default]
    Auto,
    /// Exactly this many workers (clamped to ≥ 1; `1` is [`Self::Serial`]).
    Threads(usize),
}

impl Parallelism {
    /// The worker count this policy resolves to (always ≥ 1).
    #[must_use]
    pub fn resolve(self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Auto => available_threads(),
            Self::Threads(n) => n.max(1),
        }
    }
}

/// The `Auto` worker count: `RLCKIT_THREADS` when it parses as a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (1 if even that is unavailable). Both are read once per process;
/// later mutations of the process environment or of the CPU quota do
/// not change the resolved count. (`available_parallelism` reads the cgroup quota
/// files on Linux, which costs tens of microseconds per call.)
#[must_use]
pub fn available_threads() -> usize {
    *AUTO_THREADS.get_or_init(|| {
        env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    })
}

/// Once-per-process cache of the `Auto` worker count: the parsed
/// `RLCKIT_THREADS` value, or the detected parallelism when it is unset
/// or unparseable.
static AUTO_THREADS: OnceLock<usize> = OnceLock::new();

/// Reads and parses `RLCKIT_THREADS` (called at most once per process).
fn env_threads() -> Option<usize> {
    parse_threads(&std::env::var("RLCKIT_THREADS").ok()?)
}

/// Parses an `RLCKIT_THREADS` value; empty, non-numeric or zero values
/// are ignored (auto-detection applies).
fn parse_threads(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Time the calling thread spends mapping items itself before
/// [`Parallelism::Auto`] spawns workers for the rest: the measured cost
/// of spawning and joining them (see the crate docs).
const AUTO_SPAWN_AFTER: Duration = Duration::from_micros(200);

/// Maps `f` over `items` with `parallelism` workers, collecting results
/// in input order.
///
/// `f` receives `(input_index, &item)` and may fail. Under
/// [`Parallelism::Auto`] the calling thread first maps items itself for
/// up to `AUTO_SPAWN_AFTER`. Workers then CAS-claim
/// `remaining / (2·workers)` consecutive items at a time (guided
/// self-scheduling), so claims start large and halve toward the tail.
/// The calling thread is one of those workers: a map at `n` workers
/// spawns `n − 1` threads. `par.tasks` counts the items the workers
/// took.
///
/// The output is bit-identical to the serial evaluation for every
/// worker count: each element is a pure function of `(input_index,
/// item)` and results are collected sorted by claim start, so the
/// claim-boundary race affects scheduling only, never values. On
/// failure the error of the **earliest** failing input is returned,
/// exactly as the serial loop would report it.
///
/// # Errors
///
/// Propagates the earliest `Err` returned by `f`, or
/// [`NumericError::InvalidInput`] naming the earliest item whose `f`
/// panicked — the same error for every worker count, including the
/// serial path.
pub fn par_map<T, U, F>(items: &[T], parallelism: Parallelism, f: F) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> Result<U> + Sync,
{
    let threads = parallelism.resolve();
    let len = items.len();
    if threads <= 1 || len <= 1 {
        counter!("par.serial_maps").incr();
        return map_range(items, 0..len, &f);
    }

    // Items the calling thread has mapped before spawning, in order.
    let mut results = Vec::with_capacity(len);
    let mut first = 0;
    if parallelism == Parallelism::Auto {
        let started = Instant::now();
        while first < len && started.elapsed() < AUTO_SPAWN_AFTER {
            results.extend(map_range(items, first..first + 1, &f)?);
            first += 1;
        }
        if first == len {
            counter!("par.serial_maps").incr();
            return Ok(results);
        }
    }

    let next = AtomicUsize::new(first);
    let claims: Mutex<Vec<(usize, Result<Vec<U>>)>> = Mutex::new(Vec::new());

    let worker = || {
        // Scheduling telemetry: how many tasks and claims this worker
        // ended up taking. These are the one `par.*` metric family that
        // is *not* deterministic run-to-run (totals are; the per-worker
        // split is whatever the race produced).
        let mut my_tasks = 0u64;
        let mut my_claims = 0u64;
        let mut start = next.load(Ordering::Relaxed);
        'claims: loop {
            // CAS-claim [start, end): the claim size is recomputed from
            // the *observed* remaining count, so a failed exchange
            // retries against the freshest counter value.
            let end = loop {
                if start >= len {
                    break 'claims;
                }
                let end = start + guided_claim(len - start, threads);
                match next.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => break end,
                    Err(observed) => start = observed,
                }
            };
            my_tasks += (end - start) as u64;
            my_claims += 1;
            // `map_range` catches panics, so the lock below is never
            // taken by a panicking thread and can never be poisoned.
            let outcome = map_range(items, start..end, &f);
            claims
                .lock()
                .expect("claim slots never poisoned")
                .push((start, outcome));
            start = next.load(Ordering::Relaxed);
        }
        histogram!("par.tasks_per_worker").observe(my_tasks);
        histogram!("par.claims_per_worker").observe(my_claims);
    };

    counter!("par.guided_maps").incr();
    counter!("par.tasks").add((len - first) as u64);
    // The calling thread is one of the workers, so a map spawns one
    // thread fewer than it has workers.
    let context = Context::capture();
    std::thread::scope(|scope| {
        for _ in 1..threads.min(len - first) {
            scope.spawn(|| context.run(worker));
        }
        worker();
    });

    // The claims partition [first, len); sorted by start they reproduce
    // the input order, and the first failed claim in that order contains
    // the earliest failing input (each claim short-circuits in order).
    let mut claims = claims.into_inner().expect("claim slots never poisoned");
    claims.sort_unstable_by_key(|&(start, _)| start);
    for (_, outcome) in claims {
        results.extend(outcome?);
    }
    debug_assert_eq!(results.len(), len, "claims must partition the input");
    Ok(results)
}

/// The guided self-scheduling claim size: `remaining / (2·workers)`, at
/// least 1. Early claims grab long contiguous runs (minimal counter
/// traffic, cache-friendly); late claims shrink geometrically so the
/// slowest worker finishes at most one small claim after its siblings.
fn guided_claim(remaining: usize, threads: usize) -> usize {
    (remaining / (threads * 2)).max(1)
}

/// Maps `f` over `items[range]` in order on the calling thread,
/// short-circuiting on the first error exactly like `collect` over
/// `Result`s. A panic in `f` is caught and returned as
/// [`NumericError::InvalidInput`] naming the panicking item's index.
/// This is the serial reference path and the body of every claim.
fn map_range<T, U>(
    items: &[T],
    range: Range<usize>,
    f: &impl Fn(usize, &T) -> Result<U>,
) -> Result<Vec<U>> {
    let mut out = Vec::with_capacity(range.len());
    let mut at = range.start;
    let run = catch_unwind(AssertUnwindSafe(|| {
        for i in range {
            at = i;
            out.push(f(i, &items[i])?);
        }
        Ok(())
    }));
    match run {
        Ok(done) => done.map(|()| out),
        Err(payload) => Err(NumericError::InvalidInput(format!(
            "mapped function panicked at item {at}: {}",
            panic_message(payload.as_ref())
        ))),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every execution path: the serial reference, the parallel engine
    /// at several worker counts, `Threads(1)` (serial by policy) and
    /// `Auto` (the calling thread first, workers once it has run long
    /// enough).
    const MODES: [Parallelism; 6] = [
        Parallelism::Serial,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(3),
        Parallelism::Threads(8),
        Parallelism::Auto,
    ];

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let xs: Vec<f64> = (0..511).map(|i| f64::from(i) * 0.73 - 4.0).collect();
        let f = |i: usize, &x: &f64| Ok((x * x).sin() + i as f64 * 1e-3);
        let serial: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| f(i, x).unwrap())
            .collect();
        for mode in MODES {
            let got = par_map(&xs, mode, f).unwrap();
            assert_eq!(serial.len(), got.len());
            for (a, b) in serial.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "{mode:?}");
            }
        }
    }

    #[test]
    fn indices_arrive_in_input_order() {
        let xs: Vec<u32> = (0..100).collect();
        for mode in MODES {
            let out = par_map(&xs, mode, |i, &x| {
                assert_eq!(i as u32, x, "index must match the input position");
                Ok(i)
            })
            .unwrap();
            assert_eq!(out, (0..100).collect::<Vec<_>>(), "{mode:?}");
        }
    }

    #[test]
    fn earliest_error_wins() {
        let xs: Vec<usize> = (0..96).collect();
        for mode in MODES {
            match par_map(&xs, mode, |i, _| {
                if i >= 23 {
                    Err(NumericError::InvalidInput(format!("boom at {i}")))
                } else {
                    Ok(i)
                }
            }) {
                Err(NumericError::InvalidInput(msg)) => {
                    assert!(msg.contains("boom at 23"), "{mode:?}: {msg}");
                }
                other => panic!("{mode:?}: expected earliest error, got {other:?}"),
            }
        }
    }

    /// The serial path used to call `f` bare, so under `Serial`,
    /// `Threads(1)` or a one-item input a panicking `f` unwound the
    /// caller; the parallel path named the claim start, which varies
    /// with scheduling. Every path must now return the same `Err`,
    /// naming the earliest panicking item.
    #[test]
    fn a_panic_is_the_same_error_on_every_path() {
        let xs: Vec<usize> = (0..48).collect();
        let f = |i: usize, _: &usize| {
            assert!(i != 29 && i != 41, "unlucky index");
            Ok(i)
        };
        for mode in MODES {
            match par_map(&xs, mode, f) {
                Err(NumericError::InvalidInput(msg)) => assert_eq!(
                    msg, "mapped function panicked at item 29: unlucky index",
                    "{mode:?}"
                ),
                other => panic!("{mode:?}: expected a surfaced panic, got {other:?}"),
            }
        }
        let one = [7usize];
        match par_map(&one, Parallelism::Threads(8), |_, _| -> Result<usize> {
            panic!("lone item")
        }) {
            Err(NumericError::InvalidInput(msg)) => {
                assert_eq!(msg, "mapped function panicked at item 0: lone item");
            }
            other => panic!("expected a surfaced panic, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_single_inputs_stay_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let empty: [f64; 0] = [];
        assert_eq!(
            par_map(&empty, Parallelism::Threads(8), |_, &x: &f64| Ok(x)).unwrap(),
            Vec::<f64>::new()
        );
        let one = [42.0f64];
        assert_eq!(
            par_map(&one, Parallelism::Threads(8), |_, &x| {
                assert_eq!(std::thread::current().id(), caller);
                Ok(x * 2.0)
            })
            .unwrap(),
            vec![84.0]
        );
    }

    /// `Auto` hands the rest of a map to workers once the calling
    /// thread has spent `AUTO_SPAWN_AFTER` on it: with every item
    /// longer than that, item 0 runs on the calling thread, which then
    /// works on as one of the workers while at least one item runs on a
    /// spawned one, and the result is still the serial one. (A calling
    /// thread's later item waits, boundedly, for a spawned worker to
    /// take one, so the split does not hang on scheduling luck.)
    #[test]
    fn auto_spawns_once_the_calling_thread_has_run_long_enough() {
        if available_threads() < 2 {
            return;
        }
        let caller = std::thread::current().id();
        let off_caller = std::sync::atomic::AtomicBool::new(false);
        let xs: Vec<usize> = (0..6).collect();
        let out = par_map(&xs, Parallelism::Auto, |i, &x| {
            std::thread::sleep(AUTO_SPAWN_AFTER + Duration::from_micros(100));
            let on_caller = std::thread::current().id() == caller;
            if on_caller && i > 0 {
                let deadline = Instant::now() + Duration::from_secs(5);
                while !off_caller.load(Ordering::Relaxed) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            off_caller.fetch_or(!on_caller, Ordering::Relaxed);
            Ok((x * 2, on_caller))
        })
        .unwrap();
        let (doubled, on_caller): (Vec<_>, Vec<_>) = out.into_iter().unzip();
        assert_eq!(doubled, (0..6).map(|x| x * 2).collect::<Vec<_>>());
        assert!(on_caller[0], "item 0 ran off the calling thread");
        assert!(on_caller.contains(&false), "no item ran on a spawned worker");
    }

    /// Pre-fix regression (a spawn per short `Auto` map): a map that is
    /// done well within `AUTO_SPAWN_AFTER` stays on the calling thread.
    /// Timing-based, so it asks this of one run in twenty; a run that is
    /// preempted past the spawn time may spawn.
    #[test]
    fn a_short_auto_map_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let xs: Vec<u64> = (0..8).collect();
        let stayed = (0..20).any(|_| {
            let threads = par_map(&xs, Parallelism::Auto, |_, _| {
                Ok(std::thread::current().id())
            })
            .unwrap();
            threads.iter().all(|&t| t == caller)
        });
        assert!(stayed, "every short Auto map spawned workers");
    }

    /// Work lands in the caller's trace scope and runs under its fault
    /// plan: a map at `Threads(3)` and a pool job.
    #[test]
    fn workers_run_in_the_callers_scope_and_plan() {
        let plan = Some((5, 0.5));
        let ((), snap) = rlckit_trace::scoped(|| {
            rlckit_fault::with_plan(plan, || {
                let xs: Vec<u64> = (0..30).collect();
                let plans = par_map(&xs, Parallelism::Threads(3), |_, &x| {
                    counter!("test.par.scoped").add(x);
                    Ok(rlckit_fault::plan())
                });
                assert!(plans.unwrap().iter().all(|&p| p == plan));
                let (tx, rx) = std::sync::mpsc::channel();
                let pool = ShardedPool::new(1, 1, move |_, ()| {
                    counter!("test.par.scoped").add(1000);
                    tx.send(rlckit_fault::plan()).unwrap();
                });
                pool.submit(0, ()).unwrap();
                pool.join();
                assert_eq!(rx.recv().unwrap(), plan);
            });
        });
        assert_eq!(snap.counter("test.par.scoped"), 435 + 1000);
        assert_eq!(snap.counter("par.tasks"), 30);
        assert_eq!(snap.counter("par.pool.submitted"), 1);
    }

    #[test]
    fn parallelism_resolution_is_at_least_one() {
        assert_eq!(Parallelism::Serial.resolve(), 1);
        assert_eq!(Parallelism::Threads(0).resolve(), 1);
        assert_eq!(Parallelism::Threads(6).resolve(), 6);
        assert!(Parallelism::Auto.resolve() >= 1);
    }

    #[test]
    fn threads_value_parsing_ignores_garbage_and_zero() {
        assert_eq!(parse_threads("3"), Some(3));
        assert_eq!(parse_threads(" 12 "), Some(12));
        for bad in ["0", "", "  ", "many", "-4", "1.5"] {
            assert_eq!(parse_threads(bad), None, "RLCKIT_THREADS={bad:?}");
        }
    }

    #[test]
    fn guided_claims_start_large_and_halve_toward_the_tail() {
        assert_eq!(guided_claim(1000, 4), 125);
        assert_eq!(guided_claim(100, 4), 12);
        assert_eq!(guided_claim(8, 4), 1);
        assert_eq!(guided_claim(1, 4), 1);
    }
}
