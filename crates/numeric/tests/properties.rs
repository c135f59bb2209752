//! Property-based tests for the numeric kernels, on the in-tree
//! `rlckit-check` harness (seeded, deterministic, replayable via
//! `RLCKIT_CHECK_SEED`).

use rlckit_check::oracle::Matrix;
use rlckit_check::{check_assume, gen, Check, Gen};

use rlckit_numeric::complex::Complex;
use rlckit_numeric::ilt::EulerInversion;
use rlckit_numeric::poly::Polynomial;
use rlckit_numeric::series::Series;
use rlckit_numeric::sparse::SparseMatrix;

fn well_conditioned_matrix(n: usize) -> Gen<Matrix> {
    gen::vec_of(gen::range(-1.0, 1.0), n * n).map(move |data| {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = data[i * n + j];
            }
            // Diagonal dominance keeps the condition number tame.
            m[(i, i)] += n as f64;
        }
        m
    })
}

fn complex_in(lo: f64, hi: f64) -> Gen<Complex> {
    gen::tuple2(gen::range(lo, hi), gen::range(lo, hi)).map(|(re, im)| Complex::new(re, im))
}

/// Dense LU: `A·solve(A, b) = b` for well-conditioned matrices.
#[test]
fn dense_lu_round_trip() {
    Check::new().cases(64).run(
        &gen::tuple2(
            well_conditioned_matrix(6),
            gen::vec_of(gen::range(-10.0, 10.0), 6),
        ),
        |(m, b)| {
            let x = m.solve(b).expect("solvable");
            let r = m.mul_vec(&x).expect("dims");
            for i in 0..6 {
                assert!((r[i] - b[i]).abs() < 1e-9);
            }
        },
    );
}

/// Sparse LU agrees with dense LU on the same matrix.
#[test]
fn sparse_matches_dense() {
    let entry = gen::tuple3(
        gen::usize_range(0, 8),
        gen::usize_range(0, 8),
        gen::range(-1.0, 1.0),
    );
    Check::new().cases(64).run(
        &gen::tuple2(
            gen::vec_in(entry, 1, 40),
            gen::vec_of(gen::range(-5.0, 5.0), 8),
        ),
        |(entries, b)| {
            let mut a = SparseMatrix::new(8);
            let mut dense = Matrix::zeros(8, 8);
            for &(i, j, v) in entries {
                a.add(i, j, v);
                dense[(i, j)] += v;
            }
            for i in 0..8 {
                a.add(i, i, 10.0);
                dense[(i, i)] += 10.0;
            }
            let xs = a.lu().expect("factor").solve(b).expect("solve");
            let xd = dense.solve(b).expect("solve");
            for i in 0..8 {
                assert!(
                    (xs[i] - xd[i]).abs() < 1e-9,
                    "i={i}: {} vs {}",
                    xs[i],
                    xd[i]
                );
            }
        },
    );
}

/// Complex field axioms hold numerically.
#[test]
fn complex_field_axioms() {
    Check::new().cases(64).run(
        &gen::tuple3(
            complex_in(-10.0, 10.0),
            complex_in(-10.0, 10.0),
            complex_in(-10.0, 10.0),
        ),
        |&(a, b, c)| {
            // Distributivity.
            let lhs = a * (b + c);
            let rhs = a * b + a * c;
            assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
            // |ab| = |a||b|.
            assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9 * (1.0 + a.abs() * b.abs()));
            // Conjugation is multiplicative.
            assert!(
                ((a * b).conj() - a.conj() * b.conj()).abs() < 1e-9 * (1.0 + a.abs() * b.abs())
            );
        },
    );
}

/// `exp(a + b) = exp(a)·exp(b)` within range.
#[test]
fn complex_exp_is_a_homomorphism() {
    Check::new().cases(64).run(
        &gen::tuple2(complex_in(-3.0, 3.0), complex_in(-3.0, 3.0)),
        |&(a, b)| {
            let lhs = (a + b).exp();
            let rhs = a.exp() * b.exp();
            assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
        },
    );
}

/// Series reciprocal is a two-sided inverse up to the truncation order.
#[test]
fn series_recip_round_trip() {
    Check::new().cases(64).run(
        &gen::tuple2(gen::vec_of(gen::range(-2.0, 2.0), 5), gen::range(0.5, 3.0)),
        |(coeffs, lead)| {
            let mut v = coeffs.clone();
            v[0] = *lead; // nonzero constant term
            let s = Series::from_coeffs(v);
            let r = s.recip().expect("invertible");
            let id = s.mul(&r);
            assert!((id.coeff(0) - 1.0).abs() < 1e-9);
            for i in 1..=s.order() {
                assert!(id.coeff(i).abs() < 1e-7, "order {i}: {}", id.coeff(i));
            }
        },
    );
}

/// Polynomial roots evaluate to ~zero, and there are degree-many.
#[test]
fn polynomial_roots_are_roots() {
    Check::new().cases(64).run(
        &gen::tuple2(
            gen::vec_in(gen::range(-3.0, 3.0), 3, 7),
            gen::select(vec![1.0f64, -1.0, 2.0]),
        ),
        |(coeffs, lead)| {
            let mut v = coeffs.clone();
            let n = v.len();
            v.push(*lead);
            let p = Polynomial::new(v);
            check_assume!(p.degree() == n);
            let roots = p.roots().expect("roots");
            assert_eq!(roots.len(), n);
            // Scale tolerance by the polynomial's coefficient magnitude at the root.
            for z in roots {
                let scale: f64 = p
                    .coeffs()
                    .iter()
                    .enumerate()
                    .map(|(i, c)| c.abs() * z.abs().powi(i as i32))
                    .sum();
                assert!(
                    p.eval_complex(z).abs() <= 1e-6 * scale.max(1.0),
                    "residual at {z}"
                );
            }
        },
    );
}

/// The Euler inverse Laplace transform reproduces e^{-a t} across a
/// random decay-rate/time grid.
#[test]
fn euler_ilt_matches_exponential() {
    Check::new().cases(64).run(
        &gen::tuple2(gen::range(0.2, 5.0), gen::range(0.1, 4.0)),
        |&(a, t)| {
            let euler = EulerInversion::default();
            let got = euler.invert(|s| (s + a).recip(), t).expect("invert");
            let want = (-a * t).exp();
            assert!((got - want).abs() < 1e-6, "a={a}, t={t}: {got} vs {want}");
        },
    );
}

/// Damped cosine: an oscillatory transform with a closed form.
#[test]
fn euler_ilt_matches_damped_cosine() {
    Check::new().cases(64).run(
        &gen::tuple3(
            gen::range(0.1, 2.0),
            gen::range(0.5, 6.0),
            gen::range(0.1, 3.0),
        ),
        |&(a, w, t)| {
            let euler = EulerInversion::new(18);
            let got = euler
                .invert(|s| (s + a) / ((s + a) * (s + a) + w * w), t)
                .expect("invert");
            let want = (-a * t).exp() * (w * t).cos();
            assert!((got - want).abs() < 1e-5, "a={a}, w={w}, t={t}");
        },
    );
}
