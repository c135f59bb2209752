//! The determinism contract, property-tested: `par_map` must equal the
//! serial map **bit-for-bit** for arbitrary inputs and thread counts.
//! Seeded via the `rlckit-check` harness, so a failure replays from its
//! reported `RLCKIT_CHECK_SEED`.

use rlckit_check::{gen, Check};
use rlckit_numeric::{NumericError, Result};
use rlckit_par::{par_map, Parallelism};

/// A mildly expensive, strictly per-item pure function: enough floating
/// point that any cross-thread interference or reordering would show up
/// in the bits.
fn work(i: usize, x: f64) -> f64 {
    let mut acc = x;
    for k in 0..40 {
        acc = (acc * 1.000_000_1 + f64::from(k as u16)).sin().mul_add(0.5, x) + i as f64 * 1e-9;
    }
    acc
}

#[test]
fn par_map_equals_serial_map_for_random_shapes() {
    Check::new().cases(48).run(
        &gen::tuple3(
            gen::vec_in(gen::range(-1e3, 1e3), 0, 300),
            gen::usize_range(1, 9),  // thread count
            gen::range(-10.0, 10.0), // offset folded into the work
        ),
        |(xs, threads, offset)| {
            let f = |i: usize, x: &f64| -> Result<f64> { Ok(work(i, x + offset)) };
            let serial = par_map(xs, Parallelism::Serial, f).unwrap();
            let parallel = par_map(xs, Parallelism::Threads(*threads), f).unwrap();
            assert_eq!(serial.len(), parallel.len());
            for (idx, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "element {idx} diverged (threads={threads})"
                );
            }
        },
    );
}

#[test]
fn errors_replay_identically_in_serial_and_parallel() {
    Check::new().cases(32).run(
        &gen::tuple3(
            gen::usize_range(2, 200), // input length
            gen::usize_range(0, 199), // first failing index
            gen::usize_range(1, 8),   // thread count
        ),
        |(len, fail_at, threads)| {
            let items: Vec<usize> = (0..*len).collect();
            let f = |i: usize, _: &usize| -> Result<usize> {
                if i >= *fail_at {
                    Err(NumericError::InvalidInput(format!("fail at {i}")))
                } else {
                    Ok(i)
                }
            };
            let serial = par_map(&items, Parallelism::Serial, f);
            let parallel = par_map(&items, Parallelism::Threads(*threads), f);
            match (serial, parallel) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(ea), Err(eb)) => assert_eq!(
                    format!("{ea}"),
                    format!("{eb}"),
                    "both modes must report the earliest failure"
                ),
                (a, b) => panic!("modes disagree: serial {a:?} vs parallel {b:?}"),
            }
        },
    );
}
