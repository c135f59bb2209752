//! Minimal deterministic property-testing harness for the `rlckit`
//! workspace.
//!
//! The workspace builds fully offline, so this crate replaces `proptest`
//! for the invariants the test suites assert. The model is deliberately
//! simple:
//!
//! * a [`Gen<T>`] draws values from seeded ranges and composes via
//!   [`Gen::map`] and tuple/vec combinators (see [`gen`]);
//! * a [`Check`] runs a property over `N` generated cases, each case
//!   seeded as `master_seed + case_index`;
//! * a failing case panics with its **case seed**, and re-running with
//!   `RLCKIT_CHECK_SEED=<that seed> RLCKIT_CHECK_CASES=1` replays exactly
//!   that input — seed replay takes the place of shrinking.
//!
//! [`oracle`] holds the reference implementations the numeric tests
//! compare against: the dense LU and the central-difference Jacobian.
//!
//! Environment overrides:
//!
//! * `RLCKIT_CHECK_SEED` — master seed (decimal or `0x`-prefixed hex);
//! * `RLCKIT_CHECK_CASES` — number of cases for every suite.
//!
//! # Examples
//!
//! ```
//! use rlckit_check::{gen, Check};
//!
//! Check::new().cases(64).run(
//!     &gen::tuple2(gen::range(0.0, 10.0), gen::range(0.0, 10.0)),
//!     |&(a, b)| assert!((a + b) - (b + a) == 0.0),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod oracle;

use std::panic::{catch_unwind, AssertUnwindSafe};

pub use gen::Gen;
pub use rlckit_numeric::rng::Rng;

/// Default master seed: ASCII `"RLCKIT_1"`, fixed so every suite is
/// reproducible without any configuration.
pub const DEFAULT_SEED: u64 = 0x524C_4349_545F_3031;

/// Default number of generated cases per property.
pub const DEFAULT_CASES: u64 = 64;

/// Skips the remainder of a property body when a precondition does not
/// hold (the `prop_assume!` idiom). The case counts as passed.
///
/// # Examples
///
/// ```
/// use rlckit_check::{check_assume, gen, Check};
///
/// Check::new().run(&gen::range(-1.0, 1.0), |&x| {
///     check_assume!(x != 0.0);
///     assert!(x * x > 0.0);
/// });
/// ```
#[macro_export]
macro_rules! check_assume {
    ($cond:expr) => {
        // `match` instead of `if !` keeps clippy's partial-ord lints
        // quiet when the caller's condition is a float comparison.
        match $cond {
            true => {}
            false => return,
        }
    };
}

/// Parses a seed string: decimal, or hex with a `0x`/`0X` prefix.
#[must_use]
pub fn parse_seed(text: &str) -> Option<u64> {
    let text = text.trim();
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        text.replace('_', "").parse().ok()
    }
}

fn env_u64(name: &str, parse: fn(&str) -> Option<u64>) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match parse(&raw) {
        Some(v) => Some(v),
        None => panic!("could not parse {name}={raw:?} as an integer"),
    }
}

/// A configured property-test run.
#[derive(Debug, Clone)]
pub struct Check {
    cases: u64,
    seed: u64,
    env_cases: Option<u64>,
    env_seed: Option<u64>,
}

impl Default for Check {
    fn default() -> Self {
        Self::new()
    }
}

impl Check {
    /// Creates a runner with the default seed and case count, honouring
    /// the `RLCKIT_CHECK_SEED` / `RLCKIT_CHECK_CASES` overrides.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cases: DEFAULT_CASES,
            seed: DEFAULT_SEED,
            env_cases: env_u64("RLCKIT_CHECK_CASES", |s| s.parse().ok()),
            env_seed: env_u64("RLCKIT_CHECK_SEED", parse_seed),
        }
    }

    /// Sets the number of cases (the environment override still wins, so
    /// a failing seed can always be replayed with `RLCKIT_CHECK_CASES=1`).
    #[must_use]
    pub fn cases(mut self, n: u64) -> Self {
        self.cases = n;
        self
    }

    /// Sets the master seed (the environment override still wins).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The case count this run will actually use.
    #[must_use]
    pub fn effective_cases(&self) -> u64 {
        self.env_cases.unwrap_or(self.cases)
    }

    /// The master seed this run will actually use.
    #[must_use]
    pub fn effective_seed(&self) -> u64 {
        self.env_seed.unwrap_or(self.seed)
    }

    /// Runs `property` over generated cases; case `i` draws its input
    /// from a generator seeded with `master_seed + i`.
    ///
    /// # Panics
    ///
    /// Panics if the property panics for any case, reporting the case
    /// seed, the generated input and the original panic message.
    pub fn run<T: core::fmt::Debug + 'static>(&self, input: &Gen<T>, property: impl Fn(&T)) {
        let seed = self.effective_seed();
        let cases = self.effective_cases();
        for i in 0..cases {
            let case_seed = seed.wrapping_add(i);
            let mut rng = Rng::new(case_seed);
            let value = input.sample(&mut rng);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&value))) {
                let cause = panic_message(payload.as_ref());
                panic!(
                    "property failed on case {i} of {cases} (case seed {case_seed:#x})\n  \
                     input: {value:?}\n  \
                     cause: {cause}\n  \
                     replay exactly this case with:\n    \
                     RLCKIT_CHECK_SEED={case_seed:#x} RLCKIT_CHECK_CASES=1 cargo test -- <this test>"
                );
            }
        }
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
    use std::cell::Cell;

    #[test]
    fn runs_the_requested_number_of_cases() {
        let count = Cell::new(0u64);
        Check::new()
            .cases(37)
            .run(&gen::range(0.0, 1.0), |_| count.set(count.get() + 1));
        assert_eq!(count.get(), 37);
    }

    #[test]
    fn same_seed_generates_identical_case_streams() {
        let collect = |seed: u64| {
            let mut values = Vec::new();
            // Cell-free: capture through a RefCell-like pattern via Cell of Vec
            let g = gen::range(0.0, 100.0);
            let store = std::cell::RefCell::new(&mut values);
            Check::new()
                .seed(seed)
                .cases(16)
                .run(&g, |&v| store.borrow_mut().push(v.to_bits()));
            values
        };
        assert_eq!(collect(77), collect(77));
        assert_ne!(collect(77), collect(78));
    }

    #[test]
    fn failing_case_reports_its_seed_for_replay() {
        let outcome = std::panic::catch_unwind(|| {
            Check::new()
                .seed(500)
                .cases(64)
                .run(&gen::range(0.0, 1.0), |&v| assert!(v < 0.5, "too big: {v}"));
        });
        let message = panic_message(outcome.expect_err("must fail").as_ref());
        assert!(message.contains("RLCKIT_CHECK_SEED="), "{message}");
        assert!(message.contains("cause: too big"), "{message}");

        // The advertised seed replays the same failing input as case 0.
        let seed_hex = message
            .split("case seed ")
            .nth(1)
            .and_then(|rest| rest.split(')').next())
            .expect("seed in message");
        let case_seed = parse_seed(seed_hex).expect("parse seed");
        let replay = std::panic::catch_unwind(|| {
            Check::new()
                .seed(case_seed)
                .cases(1)
                .run(&gen::range(0.0, 1.0), |&v| assert!(v < 0.5, "too big: {v}"));
        });
        let replay_message = panic_message(replay.expect_err("replay must fail").as_ref());
        assert!(replay_message.contains("case 0"), "{replay_message}");
    }

    #[test]
    fn assume_macro_skips_without_failing() {
        let ran = Cell::new(0u64);
        Check::new().cases(32).run(&gen::range(-1.0, 1.0), |&v| {
            check_assume!(v > 0.0);
            ran.set(ran.get() + 1);
            assert!(v > 0.0);
        });
        assert!(ran.get() < 32, "some cases must be discarded");
    }

    #[test]
    fn parse_seed_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2a"), Some(42));
        assert_eq!(parse_seed("0X2A"), Some(42));
        assert_eq!(parse_seed(" 0x2a_0 "), Some(0x2a0));
        assert_eq!(parse_seed("nope"), None);
    }
}
