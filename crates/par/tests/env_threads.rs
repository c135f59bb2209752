//! `RLCKIT_THREADS` once-per-process semantics. Lives in its own test
//! binary (one `#[test]`) because the process environment and the
//! process-wide thread-count cache are global state: the harness would
//! otherwise race concurrent tests on them.

use rlckit_par::{available_threads, par_map, set_threads, Parallelism};

/// Regression test for the mid-process env-mutation bug: `Auto` used to
/// re-read and re-parse `RLCKIT_THREADS` on every `resolve()`, so an env
/// change between campaign stages silently changed worker counts (and
/// every resolve paid an env lookup). This test FAILED before the fix —
/// `available_threads()` tracked the second `set_var` — and passes now
/// that the variable is read exactly once per process.
#[test]
fn rlckit_threads_is_read_once_per_process() {
    // The first resolve snapshots the environment…
    std::env::set_var("RLCKIT_THREADS", "3");
    assert_eq!(available_threads(), 3);
    assert_eq!(Parallelism::Auto.resolve(), 3);

    // …and mid-process mutations no longer alter the resolved count.
    std::env::set_var("RLCKIT_THREADS", "7");
    assert_eq!(
        available_threads(),
        3,
        "mid-process RLCKIT_THREADS change must not alter the worker count"
    );
    std::env::remove_var("RLCKIT_THREADS");
    assert_eq!(
        available_threads(),
        3,
        "unsetting RLCKIT_THREADS mid-process must not alter the worker count"
    );

    // The programmatic override is the supported way to change the
    // count mid-process; it takes precedence and is reversible.
    set_threads(Some(5));
    assert_eq!(available_threads(), 5);
    assert_eq!(Parallelism::Auto.resolve(), 5);
    set_threads(Some(1));
    let xs = [1.0f64, 2.0, 3.0];
    let out = par_map(&xs, Parallelism::Auto, |_, &x| Ok(x + 1.0)).unwrap();
    assert_eq!(out, vec![2.0, 3.0, 4.0]);
    set_threads(None);
    assert_eq!(available_threads(), 3, "clearing the override restores the cached env value");
}
