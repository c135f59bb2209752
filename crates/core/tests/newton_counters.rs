//! The optimizer's Newton fails an attempt for one of two reasons, and
//! each has its own counter: `optimizer.newton.line_search_stalls` (30
//! halvings found no descent) and `optimizer.newton.budget_exhausted`
//! (every iteration was spent). A stall must not also count as a spent
//! budget, or the counters cannot say why a point retried.
//!
//! Trace counters are process-global, so this file holds exactly one
//! test: no sibling test shares its process to move them.

use rlckit::optimizer::{optimize_rlc, OptimizerOptions};
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::HenriesPerMeter;

#[test]
fn line_search_stalls_are_not_counted_as_spent_budgets() {
    rlckit_fault::disarm();
    // At a 1e-9 delay threshold the 100 nm residuals bottom out above
    // `f_tol`: every Newton attempt stalls in its line search long
    // before its 60 iterations are spent, and the point falls back to
    // Nelder–Mead.
    let node = TechNode::nm100();
    let line = LineRlc::new(
        node.line().resistance,
        HenriesPerMeter::from_nano_per_milli(1.0),
        node.line().capacitance,
    );
    let options = OptimizerOptions {
        threshold: 1e-9,
        ..OptimizerOptions::default()
    };
    let before = rlckit_trace::snapshot();
    let opt = optimize_rlc(&line, &node.driver(), options).expect("the fallback optimum");
    let delta = rlckit_trace::snapshot().since(&before);
    assert!(opt.used_fallback, "Newton converged: no stall to count");
    assert_eq!(
        delta.counter("optimizer.newton.line_search_stalls"),
        u64::from(opt.restarts) + 1,
        "every Newton attempt should have stalled"
    );
    assert_eq!(
        delta.counter("optimizer.newton.budget_exhausted"),
        0,
        "a line-search stall was counted as a spent iteration budget"
    );
}
