//! Armed-fault differential test for the batched delay solver.
//!
//! Lives in its own integration binary because arming `rlckit-fault` is
//! process-global: unit tests of the library crate must never see
//! injected faults. For the same reason the tests below take `ARMED`
//! for their whole body, so one test's `disarm` cannot land in the
//! middle of another's armed run.

use std::sync::{Mutex, MutexGuard, PoisonError};

use rlckit_numeric::NumericError;
use rlckit_tline::batch::{solve_delays, DelayConfig, DelayOutcome};
use rlckit_tline::TwoPole;

static ARMED: Mutex<()> = Mutex::new(());

fn armed() -> MutexGuard<'static, ()> {
    ARMED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fault hits a scope armed at rate 1.0 may take before it poisons.
const MAX_WARMUP_HITS: usize = 1_000;

fn scalar(config: &DelayConfig) -> Result<DelayOutcome, NumericError> {
    let (delay, iterations) =
        TwoPole::try_new(config.b1, config.b2)?.delay_with_iterations(config.threshold)?;
    Ok(DelayOutcome { delay, iterations })
}

/// With faults armed, a batch pushed under one scope must reproduce the
/// scalar sequential loop's injection decisions exactly: same lanes
/// fail with `InjectedFault`, same lanes succeed with identical bits.
#[test]
fn armed_batch_reproduces_the_scalar_injection_sequence() {
    let _guard = armed();
    let configs: Vec<DelayConfig> = (0..48)
        .map(|i| DelayConfig {
            b1: 1.0,
            b2: 0.02 + 0.09 * f64::from(i),
            threshold: 0.5,
        })
        .collect();

    for seed in [1, 2001, 0xDEAD] {
        for rate in [0.05, 0.5, 1.0] {
            rlckit_fault::arm(seed, rate);
            let scalar_run: Vec<_> = rlckit_fault::with_scope(7, || {
                configs.iter().map(scalar).collect()
            });
            let batched_run = rlckit_fault::with_scope(7, || solve_delays(&configs));
            rlckit_fault::disarm();

            let mut injected = 0;
            for (i, (want, got)) in scalar_run.iter().zip(&batched_run).enumerate() {
                match (want, got) {
                    (Ok(w), Ok(g)) => {
                        assert_eq!(
                            w.delay.get().to_bits(),
                            g.delay.get().to_bits(),
                            "seed={seed} rate={rate} lane {i}"
                        );
                        assert_eq!(w.iterations, g.iterations, "seed={seed} rate={rate} lane {i}");
                    }
                    (Err(w), Err(g)) => {
                        assert_eq!(w, g, "seed={seed} rate={rate} lane {i}");
                        if matches!(w, NumericError::InjectedFault { .. }) {
                            injected += 1;
                        }
                    }
                    other => panic!("seed={seed} rate={rate} lane {i}: kind drifted: {other:?}"),
                }
            }
            if rate >= 1.0 {
                assert!(injected > 0, "seed={seed}: full rate must inject somewhere");
            }
        }
    }
}

/// A poisoned scope (a fault already fired before the batch ran) must
/// suppress further injections in both paths identically.
#[test]
fn batch_respects_an_already_poisoned_scope() {
    let _guard = armed();
    let configs: Vec<DelayConfig> = (0..8)
        .map(|i| DelayConfig {
            b1: 1.0,
            b2: 0.05 + 0.1 * f64::from(i),
            threshold: 0.5,
        })
        .collect();
    rlckit_fault::arm(99, 1.0);
    let run = |f: &dyn Fn() -> Vec<Result<DelayOutcome, NumericError>>| {
        rlckit_fault::with_scope(3, || {
            // Burn fault hits until the one-shot injection fires.
            for _ in 0..MAX_WARMUP_HITS {
                if rlckit_fault::poisoned() {
                    break;
                }
                let _ = rlckit_fault::should_inject("warmup");
            }
            assert!(
                rlckit_fault::poisoned(),
                "a scope armed at rate 1.0 took {MAX_WARMUP_HITS} fault hits without poisoning"
            );
            f()
        })
    };
    let scalar_run = run(&|| configs.iter().map(scalar).collect());
    let batched_run = run(&|| solve_delays(&configs));
    rlckit_fault::disarm();
    for (want, got) in scalar_run.iter().zip(&batched_run) {
        match (want, got) {
            (Ok(w), Ok(g)) => {
                assert_eq!(w.delay.get().to_bits(), g.delay.get().to_bits());
            }
            other => panic!("poisoned-scope outcome drifted: {other:?}"),
        }
    }
}
