//! Deterministic seeded fault injection for the `rlckit` workspace.
//!
//! Solver entry points carry [`faultpoint!`] sites. Each thread runs
//! under a *plan*, `(seed, rate)` or none: it starts with the plan of
//! `RLCKIT_FAULTS`, [`with_plan`] runs a closure under another one, and
//! `rlckit-par` workers and pool jobs run under the plan of the thread
//! that handed them work. Without a plan (the default) a site costs a
//! thread-local read and injects nothing. Under one, each *scope* (one
//! campaign point, keyed by its grid index) deterministically either
//! stays clean or takes **exactly one** injected fault at a seed-chosen
//! faultpoint hit, and only on the scope's **first attempt**. Retrying
//! the scope (after [`next_attempt`]) therefore re-runs a pure
//! computation with no injection, which is what makes retried campaign
//! points bit-identical to an uninterrupted clean run.
//!
//! The decision for a scope depends only on `(seed, key)` — not on
//! thread assignment, global call order, or how many other scopes ran
//! before it — so serial and parallel campaigns inject identically, and
//! a checkpoint-resumed campaign re-injects exactly what the killed run
//! would have seen. A plan is per thread, so a caller's plan never
//! reaches another caller's threads.
//!
//! # Environment
//!
//! `RLCKIT_FAULTS=<seed>:<rate>` with `seed` a decimal (or `0x`-hex)
//! `u64` and `rate` a fraction in `[0, 1]` of scopes that take a fault.
//! A malformed value leaves threads without a plan (fail-safe) and
//! prints a single warning to stderr.
//!
//! # Example
//!
//! ```
//! use rlckit_fault::{faultpoint, next_attempt, with_plan, with_scope};
//!
//! // Every scope faults, at a seed-chosen hit.
//! let fired = with_plan(Some((7, 1.0)), || {
//!     with_scope(0, || {
//!         let mut fired = false;
//!         for _ in 0..64 {
//!             fired |= faultpoint!("doc.example");
//!         }
//!         // A retry of the same scope injects nothing.
//!         next_attempt();
//!         for _ in 0..64 {
//!             assert!(!faultpoint!("doc.example"));
//!         }
//!         fired
//!     })
//! });
//! assert!(fired);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::OnceLock;

#[doc(hidden)]
pub use rlckit_trace as __trace;

/// Number of faultpoint hits a scope's single injection can land on.
///
/// The target hit index is drawn uniformly from `0..TARGET_WINDOW`; a
/// scope whose computation performs fewer hits than its target simply
/// stays clean, so the effective fault rate is slightly below the
/// configured one for short scopes. One clean `rlckit` sweep point
/// performs about 18 hits: the optimizer's Newton entry plus two per
/// delay solve (about 7 for the Newton solve's evaluations, one for the
/// optimum's own delay, one for the RC-design probe). A window of 16
/// keeps the effective rate at the configured one for such points.
pub const TARGET_WINDOW: u32 = 16;

/// Per-thread injection state. `plan` is the thread's fault plan (the
/// seed and the fraction of scopes that fault), `key` identifies the
/// campaign point, `attempt` counts retries (injection fires only at
/// attempt 0), `hits` counts faultpoint passes within the current
/// attempt, and `poisoned` records that this attempt took an injection
/// — consulted by solvers whose callers swallow typed errors into NaN/∞
/// objective values. The default is attempt 0 of the root scope,
/// without a plan.
#[derive(Clone, Copy, Default)]
struct Scope {
    plan: Option<(u64, f64)>,
    key: u64,
    attempt: u32,
    hits: u32,
    poisoned: bool,
}

thread_local! {
    static SCOPE: Cell<Scope> = Cell::new(Scope { plan: env_config(), ..Scope::default() });
}

/// Replaces the calling thread's injection state by `enter(state)` for
/// the duration of `f`, restoring it afterwards (also on panic).
fn entered<R>(enter: impl FnOnce(Scope) -> Scope, f: impl FnOnce() -> R) -> R {
    struct Restore(Scope);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(SCOPE.with(|cell| cell.replace(enter(cell.get()))));
    f()
}

fn env_config() -> Option<(u64, f64)> {
    static CONFIG: OnceLock<Option<(u64, f64)>> = OnceLock::new();
    *CONFIG.get_or_init(|| {
        let raw = std::env::var("RLCKIT_FAULTS").ok()?;
        match parse_spec(&raw) {
            Some(cfg) => Some(cfg),
            None => {
                eprintln!(
                    "rlckit-fault: ignoring malformed RLCKIT_FAULTS={raw:?} \
                     (want <seed>:<rate> with rate in [0, 1]); injection stays disarmed"
                );
                None
            }
        }
    })
}

/// Parses `<seed>:<rate>` (seed decimal or `0x`-hex; rate in `[0, 1]`).
fn parse_spec(raw: &str) -> Option<(u64, f64)> {
    let (seed_str, rate_str) = raw.split_once(':')?;
    let seed_str = seed_str.trim();
    let seed = match seed_str.strip_prefix("0x").or_else(|| seed_str.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok()?,
        None => seed_str.parse().ok()?,
    };
    let rate: f64 = rate_str.trim().parse().ok()?;
    if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
        return None;
    }
    Some((seed, rate))
}

/// The calling thread's fault plan: `RLCKIT_FAULTS` unless a
/// [`with_plan`] (or the `rlckit-par` work it was handed) says
/// otherwise.
#[must_use]
pub fn plan() -> Option<(u64, f64)> {
    SCOPE.with(|cell| cell.get().plan)
}

/// Runs `f` with the calling thread under `plan` (`None`: inject
/// nothing; a rate is clamped to `[0, 1]`), restoring the previous plan
/// and scope afterwards (also on panic). Other threads keep their own
/// plans; `rlckit-par` work that `f` hands out runs under this one.
pub fn with_plan<R>(plan: Option<(u64, f64)>, f: impl FnOnce() -> R) -> R {
    let plan = plan.map(|(seed, rate)| (seed, rate.clamp(0.0, 1.0)));
    entered(|outer| Scope { plan, ..outer }, f)
}

/// Whether the calling thread's plan injects at a nonzero rate.
#[must_use]
pub fn armed() -> bool {
    plan().is_some_and(|(_, rate)| rate > 0.0)
}

// SplitMix64 finalizer: the standard avalanche mix, also used (via the
// full generator) by rlckit_numeric::rng. Re-implemented here because
// this crate must sit *below* rlckit-numeric in the dependency graph.
fn mix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The faultpoint hit index (within attempt 0) at which a scope
/// faults, `None` if it stays clean. Depends only on `(seed, rate,
/// key)`.
fn target_hit(seed: u64, rate: f64, key: u64) -> Option<u32> {
    let h = mix(mix(seed) ^ key);
    // 53 uniform mantissa bits, as in rlckit_numeric::rng::next_f64.
    let uniform = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    if uniform >= rate {
        return None;
    }
    Some((mix(h) % u64::from(TARGET_WINDOW)) as u32)
}

/// Runs `f` inside the injection scope `key`, restoring the previous
/// scope afterwards (also on panic). Campaign engines call this once
/// per point with the point's *original* grid index, which is what
/// keeps injection decisions stable across serial/parallel execution
/// and checkpoint resume.
pub fn with_scope<R>(key: u64, f: impl FnOnce() -> R) -> R {
    entered(|outer| Scope { plan: outer.plan, key, ..Scope::default() }, f)
}

/// Advances the current scope to its next attempt: resets the hit
/// counter, clears the poison flag, and — because injection fires only
/// at attempt 0 — guarantees the re-run is injection-free. Retry
/// ladders call this after consuming an injected failure. No-op
/// without a plan.
pub fn next_attempt() {
    if !armed() {
        return;
    }
    SCOPE.with(|cell| {
        let mut scope = cell.get();
        scope.attempt = scope.attempt.saturating_add(1);
        scope.hits = 0;
        scope.poisoned = false;
        cell.set(scope);
    });
}

/// Whether the current scope's current attempt has taken an injection.
///
/// Solvers whose objective closures swallow typed errors (mapping them
/// to NaN or ∞) consult this before *accepting* a result, so an
/// injected fault can never silently perturb a "successful" solve; and
/// retry ladders consult it to classify an otherwise type-erased
/// failure as transient.
#[must_use]
pub fn poisoned() -> bool {
    armed() && SCOPE.with(|cell| cell.get().poisoned)
}

/// Decides whether the faultpoint being passed right now injects.
/// Prefer the [`faultpoint!`] macro, which also counts the injection
/// under `<site>.injected_faults`.
#[must_use]
pub fn should_inject(_site: &'static str) -> bool {
    SCOPE.with(|cell| {
        let mut scope = cell.get();
        let Some((seed, rate)) = scope.plan.filter(|&(_, rate)| rate > 0.0) else {
            return false;
        };
        let hit = scope.hits;
        scope.hits = scope.hits.saturating_add(1);
        let fire =
            scope.attempt == 0 && !scope.poisoned && target_hit(seed, rate, scope.key) == Some(hit);
        if fire {
            scope.poisoned = true;
        }
        cell.set(scope);
        fire
    })
}

/// A named fault-injection site. Evaluates to `true` when the thread's
/// plan injects at this pass, incrementing the site's
/// `<site>.injected_faults` trace counter; `false` (a cheap read)
/// without a plan or when the plan says this pass stays clean.
///
/// ```
/// use rlckit_fault::{faultpoint, with_plan};
///
/// // Without a plan a site never fires.
/// assert!(!with_plan(None, || faultpoint!("doc.site")));
/// ```
#[macro_export]
macro_rules! faultpoint {
    ($site:literal) => {{
        let fire = $crate::should_inject($site);
        if fire {
            $crate::__trace::counter!(concat!($site, ".injected_faults")).incr();
        }
        fire
    }};
}

/// Process-level shard fault injection (`RLCKIT_SHARD_FAULTS`).
///
/// Where [`faultpoint!`] injects *solver* faults that the in-process
/// retry ladder absorbs, this module describes faults that kill (or
/// hang) a whole **shard process** of a multi-process campaign, so a
/// supervisor's detect/relaunch/resume path can be exercised
/// deterministically. The module is pure decision logic: it parses the
/// spec and answers "does shard generation `g` die at point `i`?" —
/// actually aborting or hanging is the shard runner's job
/// (`rlckit-campaign`), which keeps this crate side-effect-free and the
/// decisions unit-testable.
///
/// # Environment
///
/// `RLCKIT_SHARD_FAULTS=<seed>:<rate>[:<mode>]` with `seed`/`rate` as
/// in `RLCKIT_FAULTS` and `mode` either `abort` (default — the shard
/// process dies before computing the chosen point) or `hang` (the
/// shard stalls forever at it, exercising the supervisor's
/// progress-stall timeout instead of its death detection).
///
/// # Determinism
///
/// The decision depends only on `(seed, generation, point index)`. The
/// generation (0 for the first launch, incremented by the supervisor on
/// each relaunch) is part of the key so a relaunched shard does not die
/// at the same point forever: with `rate < 1` every shard eventually
/// gets a clean generation, and the whole kill schedule — which shards
/// die, where, and how many relaunches each needs — replays exactly
/// given the same seed.
pub mod shard {
    use std::sync::OnceLock;

    /// What a triggered shard fault does to the process.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ShardFaultMode {
        /// The shard process aborts (simulating a crash / SIGKILL).
        Abort,
        /// The shard process stops making progress but stays alive.
        Hang,
    }

    /// A parsed `RLCKIT_SHARD_FAULTS` spec.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ShardFaultSpec {
        /// Seed of the kill schedule.
        pub seed: u64,
        /// Fraction of `(generation, point)` slots that fault.
        pub rate: f64,
        /// What a triggered fault does.
        pub mode: ShardFaultMode,
    }

    /// Parses `<seed>:<rate>[:abort|hang]`.
    #[must_use]
    pub fn parse_shard_spec(raw: &str) -> Option<ShardFaultSpec> {
        let mut parts = raw.splitn(3, ':');
        let seed_str = parts.next()?;
        let rate_str = parts.next()?;
        let (seed, rate) = super::parse_spec(&format!("{seed_str}:{rate_str}"))?;
        let mode = match parts.next().map(str::trim) {
            None => ShardFaultMode::Abort,
            Some("abort") => ShardFaultMode::Abort,
            Some("hang") => ShardFaultMode::Hang,
            Some(_) => return None,
        };
        Some(ShardFaultSpec { seed, rate, mode })
    }

    /// The `RLCKIT_SHARD_FAULTS` spec, read once per process. A
    /// malformed value disarms shard faults (fail-safe) with a single
    /// stderr warning, mirroring `RLCKIT_FAULTS`.
    #[must_use]
    pub fn env_spec() -> Option<ShardFaultSpec> {
        static CONFIG: OnceLock<Option<ShardFaultSpec>> = OnceLock::new();
        *CONFIG.get_or_init(|| {
            let raw = std::env::var("RLCKIT_SHARD_FAULTS").ok()?;
            match parse_shard_spec(&raw) {
                Some(spec) => Some(spec),
                None => {
                    eprintln!(
                        "rlckit-fault: ignoring malformed RLCKIT_SHARD_FAULTS={raw:?} \
                         (want <seed>:<rate>[:abort|hang]); shard faults stay disarmed"
                    );
                    None
                }
            }
        })
    }

    /// Whether shard generation `generation` faults at grid point
    /// `point_index`. Pure in `(spec, generation, point_index)`: every
    /// process — shard, supervisor, or test — computes the same kill
    /// schedule.
    #[must_use]
    pub fn should_fault(spec: &ShardFaultSpec, generation: u32, point_index: u64) -> bool {
        if spec.rate <= 0.0 {
            return false;
        }
        let h = super::mix(super::mix(super::mix(spec.seed) ^ u64::from(generation)) ^ point_index);
        // 53 uniform mantissa bits, as in the in-scope fault plan.
        let uniform = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        uniform < spec.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_decimal_and_hex_seeds() {
        assert_eq!(parse_spec("42:0.25"), Some((42, 0.25)));
        assert_eq!(parse_spec("0xFF:1"), Some((255, 1.0)));
        assert_eq!(parse_spec(" 7 : 0.5 "), Some((7, 0.5)));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["", "42", "x:0.5", "42:1.5", "42:-0.1", "42:NaN", "42:inf"] {
            assert_eq!(parse_spec(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn disarmed_never_injects() {
        with_plan(None, || {
            with_scope(3, || {
                for _ in 0..200 {
                    assert!(!should_inject("test.site"));
                }
            });
            assert!(!armed());
            assert!(!poisoned());
        });
    }

    #[test]
    fn plan_is_deterministic_and_rate_bounded() {
        let hits: Vec<Option<u32>> = (0..1000).map(|k| target_hit(99, 0.3, k)).collect();
        assert_eq!(hits, (0..1000).map(|k| target_hit(99, 0.3, k)).collect::<Vec<_>>());
        let faulted = hits.iter().filter(|h| h.is_some()).count();
        // 30 % of 1000 scopes, generously bracketed.
        assert!((200..400).contains(&faulted), "{faulted} faulted scopes");
        for hit in hits.into_iter().flatten() {
            assert!(hit < TARGET_WINDOW);
        }
        // Rate 1.0 faults every scope; rate 0 faults none.
        assert!((0..100).all(|k| target_hit(5, 1.0, k).is_some()));
        assert!((0..100).all(|k| target_hit(5, 0.0, k).is_none()));
    }

    #[test]
    fn injection_fires_exactly_once_and_only_on_attempt_zero() {
        with_plan(Some((11, 1.0)), || {
            with_scope(0, || {
                let target = target_hit(11, 1.0, 0).expect("rate 1.0 faults every scope");
                let mut fired_at = Vec::new();
                for hit in 0..TARGET_WINDOW {
                    if should_inject("test.site") {
                        fired_at.push(hit);
                    }
                }
                assert_eq!(fired_at, vec![target]);
                assert!(poisoned());
                next_attempt();
                assert!(!poisoned());
                for _ in 0..TARGET_WINDOW {
                    assert!(!should_inject("test.site"), "attempt 1 must stay clean");
                }
            });
        });
    }

    #[test]
    fn scopes_are_independent_and_restored() {
        with_plan(Some((11, 1.0)), || {
            with_scope(1, || {
                while !should_inject("test.site") {}
                assert!(poisoned());
                // A nested scope starts clean and restores the outer
                // poison state on exit.
                with_scope(2, || assert!(!poisoned()));
                assert!(poisoned());
            });
            // Outside the scope, the root scope is back.
            assert!(!poisoned());
        });
    }

    /// A plan is the calling thread's alone: a sibling thread running
    /// the same scope key at the same time takes no injection, and the
    /// plan ends with its closure.
    #[test]
    fn a_plan_injects_into_its_own_thread_only() {
        let barrier = std::sync::Barrier::new(2);
        let run = |plan| {
            with_plan(plan, || {
                with_scope(0, || {
                    barrier.wait();
                    (0..TARGET_WINDOW).filter(|_| should_inject("test.site")).count()
                })
            })
        };
        std::thread::scope(|s| {
            let armed = s.spawn(|| run(Some((11, 1.0))));
            assert_eq!(run(None), 0);
            assert_eq!(armed.join().unwrap(), 1);
        });
        let outer = plan();
        with_plan(Some((1, 7.0)), || assert_eq!(plan(), Some((1, 1.0))));
        assert_eq!(plan(), outer);
    }

    #[test]
    fn shard_spec_parses_modes_and_rejects_garbage() {
        use shard::{parse_shard_spec, ShardFaultMode, ShardFaultSpec};
        assert_eq!(
            parse_shard_spec("42:0.25"),
            Some(ShardFaultSpec {
                seed: 42,
                rate: 0.25,
                mode: ShardFaultMode::Abort
            })
        );
        assert_eq!(
            parse_shard_spec("0xFF:1:hang"),
            Some(ShardFaultSpec {
                seed: 255,
                rate: 1.0,
                mode: ShardFaultMode::Hang
            })
        );
        assert_eq!(
            parse_shard_spec("7:0.5:abort").map(|s| s.mode),
            Some(ShardFaultMode::Abort)
        );
        for bad in ["", "42", "42:1.5", "42:0.5:explode", "x:0.5", "42:0.5:hang:extra"] {
            assert_eq!(parse_shard_spec(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn shard_fault_schedule_is_deterministic_rate_bounded_and_generation_keyed() {
        use shard::{should_fault, ShardFaultMode, ShardFaultSpec};
        let spec = ShardFaultSpec {
            seed: 77,
            rate: 0.3,
            mode: ShardFaultMode::Abort,
        };
        let gen0: Vec<bool> = (0..1000).map(|i| should_fault(&spec, 0, i)).collect();
        assert_eq!(
            gen0,
            (0..1000).map(|i| should_fault(&spec, 0, i)).collect::<Vec<_>>()
        );
        let faulted = gen0.iter().filter(|&&f| f).count();
        assert!((200..400).contains(&faulted), "{faulted} faulted slots");
        // The relaunch generation is part of the key: a shard that died
        // at point i in generation 0 does not deterministically die
        // there again in generation 1.
        let gen1: Vec<bool> = (0..1000).map(|i| should_fault(&spec, 1, i)).collect();
        assert_ne!(gen0, gen1, "generations must have independent kill schedules");
        // Rate bounds.
        let always = ShardFaultSpec { rate: 1.0, ..spec };
        let never = ShardFaultSpec { rate: 0.0, ..spec };
        assert!((0..100).all(|i| should_fault(&always, 0, i)));
        assert!((0..100).all(|i| !should_fault(&never, 0, i)));
    }

    #[test]
    fn faultpoint_macro_counts_per_site() {
        let (fired, snap) = rlckit_trace::scoped(|| {
            with_plan(Some((23, 1.0)), || {
                with_scope(4, || {
                    (0..TARGET_WINDOW).filter(|_| faultpoint!("fault.selftest")).count()
                })
            })
        });
        assert_eq!(fired, 1);
        assert_eq!(snap.counter("fault.selftest.injected_faults"), 1);
    }
}
