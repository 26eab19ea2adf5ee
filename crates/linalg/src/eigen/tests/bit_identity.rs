//! Bit-identity proof for the row-contiguous schedule: whatever the matrix,
//! [`jacobi_eigen`] and [`sorted_eigenpairs`] return what the direct
//! formulation in [`crate::reference`] returns — eigenvalues, every
//! eigenvector entry and the sweep count compared by bit pattern, errors
//! compared whole.

use super::*;
use crate::covariance::covariance_matrix;
use crate::reference::{jacobi_eigen_reference, sorted_eigenpairs_reference};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every size up to 40: every remainder of the four-row blocks, many times.
fn small_sizes() -> impl Iterator<Item = usize> {
    1..=40
}

/// Sizes straddling a block boundary far from the origin, and the paper's
/// 210 bands.
const LARGE_SIZES: [usize; 4] = [127, 128, 129, 210];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Index and values of the first entry whose bit patterns differ.
fn first_difference(left: &[f64], right: &[f64]) -> Option<(usize, f64, f64)> {
    assert_eq!(left.len(), right.len());
    (0..left.len())
        .find(|&i| left[i].to_bits() != right[i].to_bits())
        .map(|i| (i, left[i], right[i]))
}

fn assert_same_decomposition(
    fast: Result<EigenDecomposition>,
    slow: Result<EigenDecomposition>,
    what: &str,
) {
    match (fast, slow) {
        (Ok(fast), Ok(slow)) => {
            assert_eq!(fast.sweeps, slow.sweeps, "{what}: sweep count");
            assert_eq!(
                first_difference(&fast.eigenvalues, &slow.eigenvalues),
                None,
                "{what}: eigenvalues"
            );
            assert_eq!(
                first_difference(fast.eigenvectors.as_slice(), slow.eigenvectors.as_slice()),
                None,
                "{what}: eigenvectors"
            );
        }
        (fast, slow) => assert_eq!(fast.err(), slow.err(), "{what}: outcome"),
    }
}

/// Both entry points against their references, to convergence and stopped
/// after 0, 1 and 2 sweeps.
fn assert_matches_reference(matrix: &SymMatrix, what: &str) {
    let converged = JacobiOptions::default();
    assert_same_decomposition(
        jacobi_eigen(matrix, converged),
        jacobi_eigen_reference(matrix, converged),
        what,
    );
    for max_sweeps in 0..=2 {
        let stopped = JacobiOptions {
            max_sweeps,
            ..converged
        };
        assert_same_decomposition(
            jacobi_eigen(matrix, stopped),
            jacobi_eigen_reference(matrix, stopped),
            &format!("{what}, max_sweeps {max_sweeps}"),
        );
    }
    match (
        sorted_eigenpairs(matrix, converged),
        sorted_eigenpairs_reference(matrix, converged),
    ) {
        (Ok((fast_values, fast_rows)), Ok((slow_values, slow_rows))) => {
            assert_eq!(
                first_difference(&fast_values, &slow_values),
                None,
                "{what}: sorted eigenvalues"
            );
            assert_eq!(
                first_difference(fast_rows.as_slice(), slow_rows.as_slice()),
                None,
                "{what}: sorted, sign-canonical eigenvectors"
            );
        }
        (fast, slow) => assert_eq!(fast.err(), slow.err(), "{what}: sorted outcome"),
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
/// `MIN_POSITIVE`.  The skipped rotations then sit anywhere in a batch, first
/// and last `q` included; the values just above the skip threshold rotate
/// with `c = 1`, `s = 0` (their `theta` overflows), and `groups >= n` gives a
/// diagonal matrix.  (Rotations spread the tiny values over every entry
/// between two sets and subnormal arithmetic is slow in hardware, so large
/// matrices go without.)
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
    for n in small_sizes().chain(LARGE_SIZES) {
        let mut rng = StdRng::seed_from_u64(1400 + n as u64);
        assert_matches_reference(&dense(&mut rng, n, 1.0), &format!("dense, n {n}"));
    }
}

#[test]
fn entries_scaled_towards_underflow_and_overflow() {
    for n in small_sizes() {
        let mut rng = StdRng::seed_from_u64(1500 + n as u64);
        for scale in [1e-150, 1e150] {
            assert_matches_reference(
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
            assert_matches_reference(
                &covariance(&mut rng, n, samples),
                &format!("covariance of {samples} samples, n {n}"),
            );
        }
    }
    // The workload's own shape.
    let mut rng = StdRng::seed_from_u64(1601);
    assert_matches_reference(
        &covariance(&mut rng, 210, 128),
        "covariance of 128 samples, n 210",
    );
}

#[test]
fn skipped_rotations_anywhere_in_a_batch() {
    for n in small_sizes().chain(LARGE_SIZES) {
        let mut rng = StdRng::seed_from_u64(1700 + n as u64);
        // Large sizes take one grouping; small ones also the diagonal case.
        let (groupings, tiny): (&[usize], bool) = if n > 40 {
            (&[3], false)
        } else {
            (&[2, 5, usize::MAX], true)
        };
        for &groups in groupings {
            assert_matches_reference(
                &interleaved_blocks(&mut rng, n, groups, tiny),
                &format!("{groups} interleaved blocks, n {n}"),
            );
        }
    }
}

#[test]
fn a_batch_may_skip_its_first_and_its_last_rotation() {
    // Rows 0 and 1 coupled only through the middle of the matrix: rotation
    // (0, 1) and rotation (0, n-1) are skipped, those between are not.
    for n in [5, 6, 7, 8, 9, 12, 13] {
        let mut rng = StdRng::seed_from_u64(1800 + n as u64);
        let mut m = SymMatrix::zeros(n);
        for i in 0..n {
            m.set(i, i, rng.gen_range(-1.0..1.0));
        }
        for i in 2..n - 1 {
            for j in i + 1..n - 1 {
                m.set(i, j, rng.gen_range(-1.0..1.0));
            }
            m.set(0, i, rng.gen_range(-1.0..1.0));
        }
        assert_eq!((m.get(0, 1), m.get(0, n - 1)), (0.0, 0.0));
        assert_matches_reference(&m, &format!("first and last q skipped, n {n}"));
    }
}

#[test]
fn clustered_and_repeated_eigenvalues() {
    for n in small_sizes().chain([129]) {
        let mut rng = StdRng::seed_from_u64(1900 + n as u64);
        assert_matches_reference(&clustered(&mut rng, n), &format!("clustered, n {n}"));
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
        assert_matches_reference(&matrix, &format!("family {family}, n {n}, seed {seed}"));
    }
}

/// What a slip in the schedule would look like, for the test that the
/// comparison above notices one.
#[derive(Clone, Copy, PartialEq)]
enum Slip {
    /// The schedule as documented.
    None,
    /// Rows are flushed last to first: harmless, rows are independent.
    FlushRowsBackwards,
    /// A row's pending rotations are replayed in descending `j`.
    ReplayDescending,
    /// `c*x - s*y` is contracted into a fused multiply-add.
    FusedMultiplyAdd,
}

/// One sweep in the deferred schedule, one row at a time, with a `slip`.
fn plain_deferred_sweep(a: &mut Matrix, vt: &mut Matrix, slip: Slip) {
    let replay = |row: &mut [f64], p: usize, js: Range<usize>, rotations: &[Rotation]| {
        let js: Vec<usize> = if slip == Slip::ReplayDescending {
            js.rev().collect()
        } else {
            js.collect()
        };
        for j in js {
            if let Some((c, s)) = rotations[j] {
                let (x, y) = (row[p], row[j]);
                row[p] = if slip == Slip::FusedMultiplyAdd {
                    c.mul_add(x, -(s * y))
                } else {
                    c * x - s * y
                };
                row[j] = s * x + c * y;
            }
        }
    };
    let n = a.rows();
    let mut rotations: Vec<Rotation> = vec![None; n];
    for p in 0..n - 1 {
        for q in p + 1..n {
            replay(a.row_mut(q), p, p + 1..q, &rotations);
            rotations[q] = annihilating_rotation(a[(p, p)], a[(q, q)], a[(p, q)]);
            if let Some((c, s)) = rotations[q] {
                rotate_pivot_rows(a, vt, p, q, c, s);
            }
        }
        let mut rows: Vec<usize> = (0..n).filter(|&k| k != p).collect();
        if slip == Slip::FlushRowsBackwards {
            rows.reverse();
        }
        for k in rows {
            replay(a.row_mut(k), p, (p + 1).max(k + 1)..n, &rotations);
        }
    }
}

/// The state after exactly one sweep, as the reference leaves it: the
/// diagonal of `A` and `V`, columns being eigenvectors.
fn one_reference_sweep(matrix: &SymMatrix) -> (Vec<u64>, Vec<u64>) {
    // One sweep never raises the off-diagonal norm above the matrix norm,
    // so this tolerance lets the sweep run and accepts whatever it leaves.
    let options = JacobiOptions {
        max_sweeps: 1,
        tolerance: 1e-3,
    };
    let decomposition = jacobi_eigen_reference(matrix, options).unwrap();
    assert_eq!(decomposition.sweeps, 1);
    (
        bits(&decomposition.eigenvalues),
        bits(decomposition.eigenvectors.as_slice()),
    )
}

fn one_slipped_sweep(matrix: &SymMatrix, slip: Slip) -> (Vec<u64>, Vec<u64>) {
    let n = matrix.dim();
    let mut a = matrix.to_dense();
    let mut vt = Matrix::identity(n);
    plain_deferred_sweep(&mut a, &mut vt, slip);
    let diagonal: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
    (bits(&diagonal), bits(vt.transpose().as_slice()))
}

#[test]
fn the_comparison_notices_a_slip_in_the_schedule() {
    for n in [9, 24, 37] {
        let mut rng = StdRng::seed_from_u64(2000 + n as u64);
        let matrix = dense(&mut rng, n, 1.0);
        let reference = one_reference_sweep(&matrix);
        assert!(one_slipped_sweep(&matrix, Slip::None) == reference);
        assert!(one_slipped_sweep(&matrix, Slip::FlushRowsBackwards) == reference);
        assert!(one_slipped_sweep(&matrix, Slip::ReplayDescending) != reference);
        assert!(one_slipped_sweep(&matrix, Slip::FusedMultiplyAdd) != reference);
    }
}
