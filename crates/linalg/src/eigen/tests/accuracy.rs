//! Accuracy of [`leading_eigenpairs`] against the matrix itself and against
//! the Jacobi oracle in [`crate::reference`], whatever the matrix, for the
//! leading 1, 3 and all `n` rows: residual, orthonormality and eigenvalue
//! error inside stated multiples of `n * eps * ||A||_F`, well-separated
//! eigenvectors inside a Davis–Kahan bound, descending order, canonical
//! signs, finite output, the same bits from a second call, and prefix
//! stability — the `k` rows are the first `k` of the `n`, bit for bit.  Bits
//! are *not* compared with the oracle: that is the contract within a
//! numerics version, this is the one across versions.

use super::*;
use crate::covariance::covariance_matrix;
use crate::reference::sorted_eigenpairs_reference;
use crate::vector::dot;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every size up to 40: every remainder of the eight-lane dot, many times.
fn small_sizes() -> impl Iterator<Item = usize> {
    1..=40
}

/// Sizes straddling a lane boundary far from the origin, and the paper's
/// 210 bands — in release only, where the oracle takes milliseconds.
fn large_sizes() -> impl Iterator<Item = usize> {
    let sizes: &[usize] = if cfg!(debug_assertions) {
        &[]
    } else {
        &[127, 128, 129, 210]
    };
    sizes.iter().copied()
}

// The multiples: the largest residual / orthonormality seen over these
// suites run with 3 000 property cases was 2.6 / 2.3, and over 160 000
// further random matrices 5.8 / 2.3 — the residual's in the clustered
// family, where shifts pushed apart converge slowly.  Eigenvalues are
// version 2's: 2.3.
/// `||A v - lambda v||_2 <= RESIDUAL * n * eps * ||A||_F` for every pair.
const RESIDUAL: f64 = 8.0;
/// `|<v_i, v_j> - delta_ij| <= ORTHONORMALITY * n * eps` for every two rows.
const ORTHONORMALITY: f64 = 8.0;
/// `|lambda_k - oracle_k| <= EIGENVALUE * n * eps * ||A||_F`, both sorted.
const EIGENVALUE: f64 = 8.0;
/// The oracle is run to an off-diagonal norm of `eps * ||A||_F` (its default
/// `1e-12` would leave its own eigenvalues further off than the bounds here).
const ORACLE_TOLERANCE: f64 = f64::EPSILON;
/// Eigenvectors are compared where both neighbouring eigenvalues are
/// further away than this, relative to `||A||_F`.
const SEPARATED: f64 = 1e-6;

/// Every property of the module documentation, for one matrix.
fn assert_accurate(matrix: &SymMatrix, what: &str) {
    let options = JacobiOptions::default();
    let n = matrix.dim();
    let (values, all_rows) = leading_eigenpairs(matrix, n, options).expect(what);
    let oracle = JacobiOptions {
        tolerance: ORACLE_TOLERANCE,
        ..options
    };
    let (oracle_values, oracle_rows) = sorted_eigenpairs_reference(matrix, oracle).expect(what);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    for k in [1, 3, n] {
        let what = &format!("{what}, k {k}");
        let (k_values, rows) = leading_eigenpairs(matrix, k, options).expect(what);
        let (again_values, again_rows) = leading_eigenpairs(matrix, k, options).expect(what);
        assert_eq!(bits(&k_values), bits(&again_values), "{what}: second call");
        assert_eq!(
            bits(rows.as_slice()),
            bits(again_rows.as_slice()),
            "{what}: second call"
        );
        assert_eq!(bits(&k_values), bits(&values), "{what}: eigenvalues");
        assert_eq!((rows.rows(), rows.cols()), (k.min(n), n), "{what}: shape");
        assert_eq!(
            bits(rows.as_slice()),
            bits(&all_rows.as_slice()[..k.min(n) * n]),
            "{what}: prefix stability"
        );
        assert_rows_accurate(matrix, &values, &rows, (&oracle_values, &oracle_rows), what);
    }
}

/// The returned `rows` against the matrix and against the oracle's pairs;
/// `values` and the oracle's are all `n` eigenvalues.
fn assert_rows_accurate(
    matrix: &SymMatrix,
    values: &[f64],
    rows: &Matrix,
    (oracle_values, oracle_rows): (&[f64], &Matrix),
    what: &str,
) {
    let n = matrix.dim();
    let dense = matrix.to_dense();
    let norm = matrix.frobenius_norm();
    let unit = n as f64 * f64::EPSILON;
    assert!(
        values.iter().chain(rows.as_slice()).all(|x| x.is_finite()),
        "{what}: non-finite output"
    );
    assert!(values.windows(2).all(|w| w[0] >= w[1]), "{what}: order");
    for (k, &lambda) in values.iter().enumerate().take(rows.rows()) {
        let v = rows.row(k);
        let largest = v.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        let first = v.iter().find(|x| x.abs() == largest).unwrap();
        assert!(*first > 0.0, "{what}: sign of row {k}");
        let residual: Vec<f64> = (0..n)
            .map(|i| dot(dense.row(i), v) - lambda * v[i])
            .collect();
        assert!(
            dot(&residual, &residual).sqrt() <= RESIDUAL * unit * norm,
            "{what}: residual of pair {k}"
        );
        for j in 0..=k {
            let expected = if j == k { 1.0 } else { 0.0 };
            assert!(
                (dot(v, rows.row(j)) - expected).abs() <= ORTHONORMALITY * unit,
                "{what}: rows {j} and {k}"
            );
        }
    }

    // Davis–Kahan: a unit vector with residual r against an eigenvalue `gap`
    // away from the rest of the spectrum lies within sin(theta) <= r / gap
    // of the eigenvector; here r is this solver's bound plus the off-diagonal
    // norm the oracle stops at, 1 - cos(theta) <= sin(theta)^2, and neither
    // vector's length is 1 more closely than the orthonormality bound.
    let both_residuals = (RESIDUAL * unit + ORACLE_TOLERANCE) * norm;
    for k in 0..n {
        assert!(
            (values[k] - oracle_values[k]).abs() <= EIGENVALUE * unit * norm,
            "{what}: eigenvalue {k}"
        );
        let gap = [k.checked_sub(1), Some(k + 1).filter(|&j| j < n)]
            .into_iter()
            .flatten()
            .map(|j| (oracle_values[k] - oracle_values[j]).abs())
            .fold(f64::INFINITY, f64::min);
        if k < rows.rows() && gap > SEPARATED * norm {
            let sin = both_residuals / gap;
            assert!(
                1.0 - dot(rows.row(k), oracle_rows.row(k)).abs()
                    <= sin * sin + ORTHONORMALITY * unit,
                "{what}: eigenvector {k}"
            );
        }
    }
}

/// Random dense symmetric matrix, entries in `scale * [-1, 1)`.
fn dense(rng: &mut StdRng, n: usize, scale: f64) -> SymMatrix {
    let mut m = SymMatrix::zeros(n);
    for i in 0..n {
        for j in i..n {
            m.set(i, j, scale * rng.gen_range(-1.0..1.0));
        }
    }
    m
}

/// Covariance of `samples` correlated vectors over `n` bands: rank-deficient
/// whenever `samples <= n`, which is the `derive_bound` workload's case
/// (128 unique vectors, 210 bands).
fn covariance(rng: &mut StdRng, n: usize, samples: usize) -> SymMatrix {
    let sources: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let vectors: Vec<Vector> = (0..samples)
        .map(|_| {
            let weights: Vec<f64> = sources.iter().map(|_| rng.gen_range(0.0..100.0)).collect();
            (0..n)
                .map(|b| {
                    let mix: f64 = sources.iter().zip(&weights).map(|(s, w)| w * s[b]).sum();
                    mix + rng.gen_range(-0.5..0.5)
                })
                .collect::<Vec<f64>>()
                .into()
        })
        .collect();
    covariance_matrix(&vectors).unwrap()
}

/// A block-diagonal matrix under a random permutation: indices fall into
/// `groups` interleaved sets, dense inside a set, and between sets exactly
/// zero or — one entry in four, if `tiny` — a value at or around
/// `MIN_POSITIVE`: sub-diagonal rows that are exactly zero, or whose squares
/// underflow, anywhere in the reduction, and a tridiagonal form that splits
/// into blocks; `groups >= n` gives a diagonal matrix.
fn interleaved_blocks(rng: &mut StdRng, n: usize, groups: usize, tiny: bool) -> SymMatrix {
    let group: Vec<usize> = (0..n).map(|_| rng.gen_range(0..groups)).collect();
    let tiny_values = [
        5e-324,
        -1e-320,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        2.5e-308,
        -3e-308,
    ];
    let mut m = SymMatrix::zeros(n);
    for i in 0..n {
        for j in i..n {
            let value = if i == j || (group[i] == group[j] && groups < n) {
                rng.gen_range(-1.0..1.0)
            } else if tiny && rng.gen_range(0..4_u32) == 0 {
                tiny_values[rng.gen_range(0..tiny_values.len())]
            } else {
                0.0
            };
            m.set(i, j, value);
        }
    }
    m
}

/// `Q D Q^T` for a diagonal `D` drawn from three tight clusters (exact
/// repeats and neighbours 1e-13 apart) and `Q` a product of random plane
/// rotations.
fn clustered(rng: &mut StdRng, n: usize) -> SymMatrix {
    let mut dense = Matrix::zeros(n, n);
    for i in 0..n {
        let centre = [1.0, 2.0, -0.5][rng.gen_range(0..3_usize)];
        dense[(i, i)] = centre + 1e-13 * f64::from(rng.gen_range(0..3_u32));
    }
    for _ in 0..3 * n {
        let (p, q) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if p == q {
            continue;
        }
        let (s, c) = rng.gen_range(0.0..std::f64::consts::TAU).sin_cos();
        for k in 0..n {
            let (x, y) = (dense[(k, p)], dense[(k, q)]);
            dense[(k, p)] = c * x - s * y;
            dense[(k, q)] = s * x + c * y;
        }
        for k in 0..n {
            let (x, y) = (dense[(p, k)], dense[(q, k)]);
            dense[(p, k)] = c * x - s * y;
            dense[(q, k)] = s * x + c * y;
        }
    }
    SymMatrix::from_dense(&dense).unwrap()
}

#[test]
fn random_dense_symmetric_matrices() {
    for n in small_sizes().chain(large_sizes()) {
        let mut rng = StdRng::seed_from_u64(1400 + n as u64);
        assert_accurate(&dense(&mut rng, n, 1.0), &format!("dense, n {n}"));
    }
}

#[test]
fn entries_scaled_towards_underflow_and_overflow() {
    for n in small_sizes() {
        let mut rng = StdRng::seed_from_u64(1500 + n as u64);
        for scale in [1e-150, 1e150] {
            assert_accurate(
                &dense(&mut rng, n, scale),
                &format!("dense at scale {scale:e}, n {n}"),
            );
        }
    }
}

#[test]
fn rank_deficient_covariances() {
    for n in small_sizes() {
        let mut rng = StdRng::seed_from_u64(1600 + n as u64);
        for samples in [2, n / 2 + 1, n + 3] {
            assert_accurate(
                &covariance(&mut rng, n, samples),
                &format!("covariance of {samples} samples, n {n}"),
            );
        }
    }
    // The workload's own shape.
    for n in large_sizes().filter(|&n| n == 210) {
        let mut rng = StdRng::seed_from_u64(1601);
        assert_accurate(
            &covariance(&mut rng, n, 128),
            "covariance of 128 samples, n 210",
        );
    }
}

#[test]
fn interleaved_blocks_with_entries_around_min_positive() {
    for n in small_sizes().chain(large_sizes()) {
        let mut rng = StdRng::seed_from_u64(1700 + n as u64);
        // Large sizes take one grouping; small ones also the diagonal case.
        let (groupings, tiny): (&[usize], bool) = if n > 40 {
            (&[3], false)
        } else {
            (&[2, 5, usize::MAX], true)
        };
        for &groups in groupings {
            assert_accurate(
                &interleaved_blocks(&mut rng, n, groups, tiny),
                &format!("{groups} interleaved blocks, n {n}"),
            );
        }
    }
}

/// Every vector of the zero matrix is an eigenvector: the rows must still be
/// orthonormal.
#[test]
fn zero_matrices() {
    for n in small_sizes() {
        assert_accurate(&SymMatrix::zeros(n), &format!("zero, n {n}"));
    }
}

/// The 45 degree shape's case, k > rank: a covariance of two samples over
/// 32 bands has rank one, so the leading three rows hold two vectors of its
/// null space.
#[test]
fn leading_rows_past_the_rank() {
    let mut rng = StdRng::seed_from_u64(1650);
    let matrix = covariance(&mut rng, 32, 2);
    let (values, _) = leading_eigenpairs(&matrix, 0, JacobiOptions::default()).unwrap();
    assert!(
        values[1].abs() <= 32.0 * f64::EPSILON * values[0],
        "rank one"
    );
    assert_accurate(&matrix, "covariance of 2 samples, n 32");
}

#[test]
fn clustered_and_repeated_eigenvalues() {
    for n in small_sizes().chain(large_sizes().filter(|&n| n == 129)) {
        let mut rng = StdRng::seed_from_u64(1900 + n as u64);
        assert_accurate(&clustered(&mut rng, n), &format!("clustered, n {n}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_family_at_any_small_size(n in 1usize..41, family in 0usize..5, seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let matrix = match family {
            0 => dense(&mut rng, n, 1.0),
            1 => dense(&mut rng, n, 1e150),
            2 => covariance(&mut rng, n, 1 + seed as usize % (n + 2)),
            3 => interleaved_blocks(&mut rng, n, 1 + seed as usize % 6, true),
            _ => clustered(&mut rng, n),
        };
        assert_accurate(&matrix, &format!("family {family}, n {n}, seed {seed}"));
    }
}
