//! Property tests for the quantity newtypes, on the in-tree
//! `rlckit-check` harness (seeded, deterministic, replayable via
//! `RLCKIT_CHECK_SEED`).

use rlckit_check::{gen, Check};
use rlckit_units::{Farads, HenriesPerMeter, Meters, Ohms, OhmsPerMeter, Seconds};

/// Addition is commutative and associative within a dimension.
#[test]
fn addition_laws() {
    Check::new().cases(64).run(
        &gen::tuple3(
            gen::range(-1e3, 1e3),
            gen::range(-1e3, 1e3),
            gen::range(-1e3, 1e3),
        ),
        |&(a, b, c)| {
            let (qa, qb, qc) = (Ohms::new(a), Ohms::new(b), Ohms::new(c));
            assert!(((qa + qb) - (qb + qa)).get().abs() < 1e-9);
            let assoc = ((qa + qb) + qc) - (qa + (qb + qc));
            assert!(assoc.get().abs() < 1e-9);
        },
    );
}

/// Scaling distributes over addition.
#[test]
fn scaling_distributes() {
    Check::new().cases(64).run(
        &gen::tuple3(
            gen::range(-1e3, 1e3),
            gen::range(-1e3, 1e3),
            gen::range(-10.0, 10.0),
        ),
        |&(a, b, k)| {
            let lhs = (Seconds::new(a) + Seconds::new(b)) * k;
            let rhs = Seconds::new(a) * k + Seconds::new(b) * k;
            assert!((lhs - rhs).get().abs() < 1e-6);
        },
    );
}

/// Density × length followed by ÷ length round-trips.
#[test]
fn per_length_round_trip() {
    Check::new().cases(64).run(
        &gen::tuple2(gen::range(0.1, 100.0), gen::range(1e-6, 1.0)),
        |&(r, len)| {
            let density = OhmsPerMeter::from_ohm_per_milli(r);
            let total = density * Meters::new(len);
            let back = total / Meters::new(len);
            assert!((back.get() - density.get()).abs() < 1e-6 * density.get());
        },
    );
}

/// An RC product is invariant under compensating rescaling.
#[test]
fn rc_product_is_scale_invariant() {
    Check::new().cases(64).run(
        &gen::tuple2(gen::range(1.0, 1e5), gen::range(1e-16, 1e-9)),
        |&(r, c)| {
            let tau1 = Ohms::new(r) * Farads::new(c);
            let tau2 = Ohms::new(2.0 * r) * Farads::new(c / 2.0);
            assert!((tau1 - tau2).get().abs() < 1e-12 * tau1.get().abs().max(1e-300));
        },
    );
}

/// The paper-unit conversions are exact inverses.
#[test]
fn paper_unit_conversions() {
    Check::new().cases(64).run(&gen::range(0.0, 10.0), |&l| {
        let q = HenriesPerMeter::from_nano_per_milli(l);
        assert!((q.to_nano_per_milli() - l).abs() < 1e-12 * l.max(1.0));
    });
}

/// Engineering display always ends with the unit symbol.
#[test]
fn display_is_well_formed() {
    Check::new().cases(64).run(&gen::range(-1e12, 1e12), |&v| {
        let text = format!("{}", Seconds::new(v));
        assert!(text.ends_with('s'));
        assert!(!text.is_empty());
    });
}
