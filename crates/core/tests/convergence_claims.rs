//! Asserts the paper's convergence claims empirically, from the
//! `rlckit-trace` iteration histograms, over the same campaign grids
//! that regenerate Table 1 and Figs. 4–8.
//!
//! Banerjee & Mehrotra (DAC 2001) report that
//!
//! * the Eq. 3 delay crossing converges by Newton–Raphson "in less than
//!   four iterations in all cases", and
//! * the Eqs. 5–8 stationarity system converges "in less than six
//!   iterations in all cases".
//!
//! These tests hard-fail if solver changes push the campaign-wide
//! iteration *averages* past those claims (the strict per-solve maxima
//! get a small regression margin: the reproduction's bracketed Newton
//! trades a bisection safeguard for one or two extra iterations on the
//! worst points).

use rlckit::optimizer::{optimize_rlc, optimize_rlc_direct, OptimizerOptions};
use rlckit::sweeps::standard_node_sweep;
use rlckit_numeric::grid::linspace;
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_trace::Snapshot;
use rlckit_units::HenriesPerMeter;

/// Grid density per node: the fig bins sweep 50 points over the paper's
/// `0 ≤ l < 5 nH/mm` range.
const GRID_POINTS: usize = 50;

/// Table 1's two nodes plus the Fig. 7 dielectric-control node.
fn campaign_nodes() -> Vec<TechNode> {
    let mut nodes = TechNode::table1();
    nodes.push(TechNode::nm100_with_250nm_dielectric());
    nodes
}

/// Runs the full campaign in a trace scope of its own and returns the
/// telemetry it produced.
fn campaign_delta() -> Snapshot {
    // The claims are about clean solves: no fault plan, even if the
    // test process inherited RLCKIT_FAULTS.
    let campaign = || {
        for node in campaign_nodes() {
            standard_node_sweep(&node, GRID_POINTS).expect("campaign sweep");
        }
    };
    rlckit_trace::scoped(|| rlckit_fault::with_plan(None, campaign)).1
}

#[test]
fn eq3_delay_newton_averages_at_most_four_iterations() {
    let delta = campaign_delta();
    let iters = &delta.histograms["twopole.delay.iterations"];
    // Every optimizer point needs many delay solves; make sure the
    // campaign actually exercised the solver at scale.
    assert!(
        iters.count > 1_000,
        "campaign too small to test the claim: {} delay solves",
        iters.count
    );
    let mean = iters.mean();
    assert!(
        mean <= 4.0,
        "Eq. 3 Newton claim regressed: campaign average {mean:.3} iterations > 4"
    );
    // Regression margin over the paper's "all cases" wording: the
    // bracketed solver currently peaks at 7 on near-critical points.
    let max = iters.max_bucket().expect("nonempty histogram");
    assert!(max <= 8, "worst delay solve took {max} iterations");
}

#[test]
fn eqs5_to_8_optimizer_newton_averages_at_most_six_iterations() {
    let delta = campaign_delta();
    let iters = &delta.histograms["optimizer.newton.iterations"];
    let solves = campaign_nodes().len() * GRID_POINTS;
    assert_eq!(
        iters.count,
        solves as u64,
        "every campaign point must solve via Newton (no fallbacks)"
    );
    let mean = iters.mean();
    assert!(
        mean <= 6.0,
        "Eqs. 5-8 Newton claim regressed: campaign average {mean:.3} iterations > 6"
    );
    let max = iters.max_bucket().expect("nonempty histogram");
    assert!(max <= 10, "worst optimizer solve took {max} iterations");
}

#[test]
fn every_delay_solve_observes_its_iterations_once() {
    let delta = campaign_delta();
    // Every delay solve observes its iteration count exactly once, so
    // on a clean campaign the histogram population equals the solve
    // count: the budgets above then speak about every solve.
    let iters = &delta.histograms["twopole.delay.iterations"];
    assert_eq!(
        iters.count,
        delta.counter("twopole.delay.solves"),
        "per-solve iteration accounting drifted from the solve count"
    );
}

#[test]
fn campaign_completes_without_surfaced_or_internal_failures() {
    let delta = campaign_delta();
    assert_eq!(
        delta.counters_ending_with(".no_convergence"),
        0,
        "campaign-level NoConvergence was surfaced"
    );
    assert_eq!(
        delta.counters_ending_with(".budget_exhausted"),
        0,
        "a solver exhausted its iteration budget"
    );
    assert_eq!(
        delta.counters_ending_with(".line_search_stalls"),
        0,
        "a solver's line search stalled"
    );
    assert_eq!(
        delta.counter("optimizer.fallbacks"),
        0,
        "the optimizer fell back to Nelder-Mead on a campaign point"
    );
}

#[test]
fn newton_converges_at_every_threshold_without_fallback() {
    // The paper's method works for any delay threshold and any
    // damping: over both Table 1 nodes, the 10/50/90 % thresholds and
    // the campaign's inductance grid, every optimum comes from the
    // first Newton attempt — no perturbed restart, no Nelder–Mead
    // fallback. Checked per solve.
    let mut worst = 0;
    for node in TechNode::table1() {
        for f in [0.1, 0.5, 0.9] {
            let options = OptimizerOptions {
                threshold: f,
                ..OptimizerOptions::default()
            };
            for l in linspace(0.0, 4.95, GRID_POINTS) {
                let line = LineRlc::new(
                    node.line().resistance,
                    HenriesPerMeter::from_nano_per_milli(l),
                    node.line().capacitance,
                );
                let opt = optimize_rlc(&line, &node.driver(), options).expect("optimum");
                let at = format!("{} f={f} l={l:.3}", node.name());
                assert!(!opt.used_fallback, "{at}: fell back to Nelder-Mead");
                assert_eq!(opt.restarts, 0, "{at}: restarted");
                worst = worst.max(opt.iterations);
                // The optimum is the derivative-free minimizer's: the
                // same delay per length (measured ≤ 7e-15 apart) and
                // `(h, k)` within the simplex's own tolerance.
                let direct = optimize_rlc_direct(&line, &node.driver(), options).expect("direct");
                let gap = opt.delay_per_length() / direct.delay_per_length() - 1.0;
                assert!(gap.abs() < 1e-12, "{at}: τ/h off the direct optimum by {gap:e}");
                let gap_h = opt.segment_length / direct.segment_length - 1.0;
                let gap_k = opt.repeater_size / direct.repeater_size - 1.0;
                assert!(gap_h.abs() < 5e-3 && gap_k.abs() < 5e-3, "{at}: (h, k) off by ({gap_h:e}, {gap_k:e})");
            }
        }
    }
    // Measured maximum. The paper claims < 6 in all cases; this
    // reproduction takes 6 on some points and 7 on five 100 nm points at
    // f = 0.5 (see DESIGN.md).
    assert!(worst <= 7, "worst optimizer solve took {worst} iterations");
}

#[test]
fn clean_campaign_spends_no_retry_budget() {
    // The retry ladder must be invisible on a clean pass: no transient
    // re-runs, no perturbed restarts, no degradations to Nelder-Mead,
    // no failed points — and, with injection disarmed, no injected
    // faults anywhere in the stack.
    let delta = campaign_delta();
    assert_eq!(delta.counter("optimizer.retries"), 0, "optimizer retried");
    assert_eq!(
        delta.counter("optimizer.degraded"),
        0,
        "optimizer degraded to the fallback"
    );
    assert_eq!(
        delta.counter("campaign.point_retries"),
        0,
        "a campaign point was retried"
    );
    assert_eq!(
        delta.counter("campaign.points_failed"),
        0,
        "a campaign point failed outright"
    );
    assert_eq!(
        delta.counters_ending_with(".injected_faults"),
        0,
        "an injected fault fired in a disarmed campaign"
    );
}

/// The optimizer's Newton fails an attempt for one of two reasons, and
/// each has its own counter: `optimizer.newton.line_search_stalls` (30
/// halvings found no descent) and `optimizer.newton.budget_exhausted`
/// (every iteration was spent). A stall must not also count as a spent
/// budget, or the counters cannot say why a point retried.
#[test]
fn line_search_stalls_are_not_counted_as_spent_budgets() {
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
    let (opt, delta) = rlckit_trace::scoped(|| {
        rlckit_fault::with_plan(None, || optimize_rlc(&line, &node.driver(), options))
    });
    let opt = opt.expect("the fallback optimum");
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
