//! The `RLCKIT_CHECK_SEED` / `RLCKIT_CHECK_CASES` environment overrides,
//! exercised in a dedicated integration binary so the process-global
//! environment mutation cannot race any other test.

use rlckit_check::{gen, Check, DEFAULT_CASES, DEFAULT_SEED};

#[test]
fn env_overrides_win_over_code_configuration() {
    // Without the variables set, code configuration applies.
    let plain = Check::new().seed(123).cases(9);
    assert_eq!(plain.effective_seed(), 123);
    assert_eq!(plain.effective_cases(), 9);
    assert_eq!(Check::new().effective_seed(), DEFAULT_SEED);
    assert_eq!(Check::new().effective_cases(), DEFAULT_CASES);

    // With the variables set, the environment wins — this is what makes
    // a reported failing seed replayable without editing the test.
    std::env::set_var("RLCKIT_CHECK_SEED", "0xabc");
    std::env::set_var("RLCKIT_CHECK_CASES", "3");
    let overridden = Check::new().seed(123).cases(9);
    assert_eq!(overridden.effective_seed(), 0xabc);
    assert_eq!(overridden.effective_cases(), 3);

    // And the run really honours them: exactly 3 cases, seeded 0xabc.
    let mut seen = Vec::new();
    {
        let store = std::cell::RefCell::new(&mut seen);
        overridden.run(&gen::range(0.0, 1.0), |&v| {
            store.borrow_mut().push(v.to_bits());
        });
    }
    std::env::remove_var("RLCKIT_CHECK_SEED");
    std::env::remove_var("RLCKIT_CHECK_CASES");
    assert_eq!(seen.len(), 3);

    let mut expected = Vec::new();
    {
        let store = std::cell::RefCell::new(&mut expected);
        Check::new()
            .seed(0xabc)
            .cases(3)
            .run(&gen::range(0.0, 1.0), |&v| {
                store.borrow_mut().push(v.to_bits());
            });
    }
    assert_eq!(seen, expected);
}
