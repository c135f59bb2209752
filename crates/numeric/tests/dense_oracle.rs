//! Tests against the dense LU reference (`rlckit_check::oracle`): the
//! reference's own unit tests, `solve2`'s bit identity with it, and the
//! sparse LU's agreement with it.
//!
//! They live here rather than in `rlckit-numeric`'s unit tests because
//! the reference links `rlckit-numeric` through `rlckit-check`, and a
//! unit test would see a second copy of the crate.

use rlckit_check::oracle::Matrix;
use rlckit_numeric::dense::solve2;
use rlckit_numeric::rng::Rng;
use rlckit_numeric::sparse::TripletMatrix;
use rlckit_numeric::NumericError;

#[test]
fn identity_solves_to_rhs() {
    let a = Matrix::from_rows(&[
        &[1.0, 0.0, 0.0, 0.0],
        &[0.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, 1.0, 0.0],
        &[0.0, 0.0, 0.0, 1.0],
    ]);
    let x = a.solve(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn known_3x3_system() {
    let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
    let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
    assert!((x[0] - 2.0).abs() < 1e-12);
    assert!((x[1] - 3.0).abs() < 1e-12);
    assert!((x[2] + 1.0).abs() < 1e-12);
}

#[test]
fn pivoting_handles_zero_leading_entry() {
    let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
    let x = a.solve(&[3.0, 7.0]).unwrap();
    assert_eq!(x, vec![7.0, 3.0]);
}

#[test]
fn singular_matrix_is_reported() {
    let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
    assert!(matches!(a.lu(), Err(NumericError::SingularMatrix { .. })));
}

#[test]
fn non_square_is_dimension_error() {
    let a = Matrix::zeros(2, 3);
    assert!(matches!(
        a.lu(),
        Err(NumericError::DimensionMismatch { .. })
    ));
}

#[test]
fn reusing_factors_for_multiple_rhs() {
    let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
    let lu = a.lu().unwrap();
    for b in [[1.0, 0.0], [0.0, 1.0], [2.0, -5.0]] {
        let x = lu.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        assert!((r[0] - b[0]).abs() < 1e-12);
        assert!((r[1] - b[1]).abs() < 1e-12);
    }
}

#[test]
fn mul_vec_dimension_mismatch() {
    let a = Matrix::zeros(2, 2);
    assert!(a.mul_vec(&[1.0]).is_err());
}

#[test]
fn solve2_is_the_lu_solve_bit_for_bit() {
    // Seeded random, badly scaled, near-singular and NaN-carrying
    // 2×2s: same bits (or the same error) as `Matrix::solve`.
    let mut rng = Rng::new(0x2b2);
    let mut cases = Vec::new();
    for _ in 0..2000 {
        let mut m = [[0.0; 2]; 2];
        for v in m.iter_mut().flatten() {
            *v = rng.uniform(-1.0, 1.0) * 10f64.powf(rng.uniform(-12.0, 12.0));
        }
        let g = [rng.uniform(-1.0, 1.0), rng.uniform(-1e6, 1e6)];
        // Near-singular: second row a multiple of the first, off by
        // about one rounding.
        let t = rng.uniform(-3.0, 3.0);
        let near = [m[0], [m[0][0] * t, m[0][1] * t * (1.0 + 1e-15)]];
        let (i, j) = (
            (rng.next_f64() * 2.0) as usize,
            (rng.next_f64() * 2.0) as usize,
        );
        let mut holed = m;
        holed[i][j] = f64::NAN;
        cases.extend([(m, g), (near, g), (holed, g), (m, [g[0], f64::NAN])]);
    }
    cases.extend([
        ([[0.0, 1.0], [1.0, 0.0]], [3.0, 7.0]),
        ([[0.0, 1.0], [0.0, 2.0]], [1.0, 1.0]),
        ([[1.0, 2.0], [1.0, 2.0]], [1.0, 1.0]),
        ([[-2.0, 1.0], [2.0, 5.0]], [1.0, 1.0]),
        ([[0.0, 1.0], [f64::NAN, 2.0]], [1.0, 1.0]),
        ([[f64::NAN, 1.0], [1.0, 2.0]], [1.0, 1.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [f64::INFINITY, 1.0]),
    ]);
    for (m, g) in cases {
        let lu = Matrix::from_rows(&[&m[0], &m[1]])
            .solve(&g)
            .map(|x| [x[0].to_bits(), x[1].to_bits()]);
        let fixed = solve2(m, g).map(|x| [x[0].to_bits(), x[1].to_bits()]);
        assert_eq!(fixed, lu, "{m:?} {g:?}");
    }
}

#[test]
fn random_systems_round_trip() {
    // Deterministic LCG so the test is reproducible without rand.
    let mut state = 0x12345678u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / f64::from(u32::MAX) * 2.0 - 1.0
    };
    for n in [1usize, 2, 5, 20, 50] {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 4.0; // diagonally dominant => well conditioned
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-9, "n={n} i={i}");
        }
    }
}

fn dense_of(t: &TripletMatrix) -> Matrix {
    let n = t.order();
    let csr = t.to_csr();
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        let (cols, vals) = csr.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            m[(i, c)] += v;
        }
    }
    m
}

#[test]
fn mul_vec_matches_dense() {
    let mut t = TripletMatrix::new(3);
    t.push(0, 0, 2.0);
    t.push(0, 2, -1.0);
    t.push(1, 1, 3.0);
    t.push(2, 0, 4.0);
    t.push(2, 2, 5.0);
    let x = [1.0, 2.0, 3.0];
    let y = t.to_csr().mul_vec(&x).unwrap();
    let yd = dense_of(&t).mul_vec(&x).unwrap();
    assert_eq!(y, yd);
}

#[test]
fn agrees_with_dense_on_random_matrices() {
    let mut state = 0xdeadbeefu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / f64::from(u32::MAX) * 2.0 - 1.0
    };
    for n in [3usize, 8, 25] {
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.push(i, i, 5.0 + next());
            for _ in 0..3 {
                let j = ((next().abs() * n as f64) as usize).min(n - 1);
                t.push(i, j, next());
            }
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let xs = t.to_csr().lu().unwrap().solve(&b).unwrap();
        let xd = dense_of(&t).solve(&b).unwrap();
        for i in 0..n {
            assert!((xs[i] - xd[i]).abs() < 1e-9, "n={n} i={i}");
        }
    }
}
