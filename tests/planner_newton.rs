//! The planner's size re-optimization (Newton on the paper's Eq. 8 at a
//! fixed segment length) against a derivative-free reference: a
//! golden-section search of the rigorous segment delay over
//! `ln k ∈ [ln 1, ln 20 000]`.
//!
//! Over the three campaign nodes, the Fig. 4–8 inductance range, 10–30
//! mm routes, counts 1–40 and thresholds 0.1 / 0.5 / 0.9, every plan's
//! repeater size must agree with the reference to 1e-6 relative (golden
//! section resolves a flat minimum only to a few 1e-7) and its delay to
//! 1e-11 relative. The trade-off must also be bit-identical between
//! serial and threaded execution.

use rlckit::optimizer::segment_delay;
use rlckit::planner::{segment_count_tradeoff_with, RoutePlan};
use rlckit_numeric::grid::linspace;
use rlckit_numeric::minimize::golden_section;
use rlckit_par::Parallelism;
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::{HenriesPerMeter, Meters};

const COUNTS: std::ops::RangeInclusive<usize> = 1..=40;

fn nodes() -> [TechNode; 3] {
    [
        TechNode::nm250(),
        TechNode::nm100(),
        TechNode::nm100_with_250nm_dielectric(),
    ]
}

/// The reference size and delay at segment length `h`: golden section
/// on `ln k`, then the delay at the size it returns.
fn golden_reference(line: &LineRlc, node: &TechNode, h: Meters, f: f64) -> (f64, f64) {
    let driver = node.driver();
    let minimum = golden_section(
        |ln_k| segment_delay(line, &driver, h, ln_k.exp(), f).map_or(f64::INFINITY, |d| d.get()),
        (1.0f64).ln(),
        (20_000.0f64).ln(),
        1e-10,
        400,
    )
    .expect("golden-section reference");
    let k = minimum.x[0].exp();
    (k, segment_delay(line, &driver, h, k, f).unwrap().get())
}

fn tradeoff(
    line: &LineRlc,
    node: &TechNode,
    route: Meters,
    f: f64,
    parallelism: Parallelism,
) -> Vec<RoutePlan> {
    segment_count_tradeoff_with(line, &node.driver(), route, f, COUNTS, parallelism)
        .expect("trade-off")
}

#[test]
fn newton_size_reopt_matches_the_golden_section_reference() {
    let (mut worst_k, mut worst_tau) = (0.0f64, 0.0f64);
    for node in nodes() {
        for l in linspace(0.3, 4.8, 4) {
            let line = LineRlc::new(
                node.line().resistance,
                HenriesPerMeter::from_nano_per_milli(l),
                node.line().capacitance,
            );
            for route_mm in [10.0, 20.0, 30.0] {
                let route = Meters::from_milli(route_mm);
                for f in [0.1, 0.5, 0.9] {
                    let plans = tradeoff(&line, &node, route, f, Parallelism::Serial);
                    assert_eq!(plans.len(), COUNTS.count());
                    for plan in &plans {
                        let (k_ref, tau_ref) =
                            golden_reference(&line, &node, plan.segment_length, f);
                        let tau = plan.total_delay.get() / plan.segments as f64;
                        let dk = (plan.repeater_size - k_ref).abs() / k_ref;
                        let dtau = (tau - tau_ref).abs() / tau_ref;
                        let at = format!(
                            "{} l = {l} nH/mm, route = {route_mm} mm, f = {f}, n = {}",
                            node.name(),
                            plan.segments
                        );
                        assert!(
                            dk <= 1e-6,
                            "{at}: k {} vs reference {k_ref} ({dk:e} relative)",
                            plan.repeater_size
                        );
                        assert!(
                            dtau <= 1e-11,
                            "{at}: τ {tau:e} vs reference {tau_ref:e} ({dtau:e} relative)"
                        );
                        worst_k = worst_k.max(dk);
                        worst_tau = worst_tau.max(dtau);
                    }
                    let threaded = tradeoff(&line, &node, route, f, Parallelism::Threads(3));
                    assert_eq!(
                        plans,
                        threaded,
                        "{} l = {l} route = {route_mm} f = {f}: \
                         threaded trade-off drifted from serial",
                        node.name()
                    );
                }
            }
        }
    }
    eprintln!("worst relative deviation: k {worst_k:e}, τ {worst_tau:e}");
}
