//! Symmetric eigensolver (algorithm step 6): Householder reduction and
//! values-only QL for every eigenvalue; inverse iteration and a
//! back-transform for only the eigenvectors asked for.
//!
//! Step 6 of the paper sorts the covariance's eigenvectors by descending
//! eigenvalue so the leading principal components carry the most variance.
//! It is `O(n^3)` in the band count (≤ 210) and runs once per job in one
//! process — the serial fraction no lane can spread.  Step 7 reads only the
//! leading `output_components` eigenvectors (3 of the paper's 210), while
//! the whole spectrum is an output (`FusionOutput::eigenvalues`, the colour
//! map's noise floor); [`leading_eigenpairs`] splits the work along that line.
//!
//! # Every output: reduction and values-only QL
//!
//! `A = Q T Q^T` is reduced to tridiagonal `T` in `4/3 n^3` by rows of one
//! row-major buffer, where the reflectors stay (`Q` is never formed); QL finds
//! every eigenvalue of `T` in `O(n^2)`, deflating at `|e_m| <= eps * ||T||`,
//! so a rank-deficient covariance's null space costs no rotation.
//!
//! # Only the k rows: inverse iteration, back-transform
//!
//! For each of the `k` largest eigenvalues, descending (`||T||` is the
//! largest absolute row sum of `T`):
//!
//! * the shift is the eigenvalue, pushed down to `10 * eps * ||T||` below
//!   the previous shift if closer (LAPACK `dstein`'s rule);
//! * `(T - shift I) x = b` is solved by Gaussian elimination with partial
//!   pivoting, a pivot below `eps * ||T||` in magnitude (zero included)
//!   replaced by `eps * ||T||` with its sign;
//! * `x` starts from a SplitMix64 stream seeded by the row's index, and
//!   each solve is followed by the reorthogonalisation below and a
//!   normalisation.  A unit vector a solve grows to length `g` has a
//!   residual of about `1 / g` against the shift, so the first solve that
//!   brings `1 / g` within `n * eps * ||T||` of the shift's distance to its
//!   eigenvalue has converged; two more follow, eight solves at most;
//! * consecutive eigenvalues at most `||T|| / (2n)` apart share a *cluster*,
//!   and `x` is orthogonalised (modified Gram–Schmidt, twice) against the
//!   earlier vectors of its own cluster only.  Why that gap: inverse
//!   iteration leaves a residual of order `eps * ||T||`, so by Davis–Kahan a
//!   vector lies within `eps * ||T|| / gap` of its eigenvector, `gap` being
//!   the distance to the nearest eigenvalue outside its cluster, here over
//!   `||T|| / (2n)`.  Vectors of two clusters are then within `4n * eps` of
//!   orthogonal — half the accuracy suite's `8n * eps` bound, the other half
//!   left to the back-transform — and those of one cluster are orthogonal to
//!   working precision.
//!
//! Each tridiagonal eigenvector `y` becomes `Q y = H_{n-1} ... H_1 y`, `H_1`
//! first, one dot and one update per reflector (`O(n^2 k)` in all), and its
//! largest-magnitude entry is made positive.  Row `j` depends on the
//! eigenvalues, its seed and the earlier rows of its cluster, never on a
//! later row: the first `k` rows are the same bits for every larger `k`
//! (*prefix-stable*), and [`sorted_eigenpairs`] is the call for all `n`.
//!
//! # Why no libm
//!
//! The identity contract is "same bytes from every process of one
//! [`crate::NUMERICS_VERSION`]", on whatever platform each runs.  `+ - * /`
//! and `sqrt` are correctly rounded by IEEE-754; library functions are not.
//! So the solver uses those five only (and exact sign and magnitude
//! operations), sums in the order written (the multi-lane sums are
//! [`dot_fast`]'s fixed lane order), no fused multiply-add.  The matrix is
//! scaled by an exact power of two to a largest entry in `[1, 2)` — no sum of
//! squares can overflow, and `||T|| >= 1` — and the eigenvalues are scaled
//! back exactly; a sum of squares too small to be rounded relatively
//! (`TINY`) is treated as the zero it is against entries of order one.
//!
//! # Where the oracle lives
//!
//! [`crate::reference::jacobi_eigen_reference`], the cyclic Jacobi of
//! numerics version 1, is the accuracy oracle of `eigen::tests::accuracy`
//! and of the across-version property in `pct::pipeline`; nothing selects
//! it at run time.

use crate::matrix::Matrix;
use crate::sym::SymMatrix;
use crate::vector::dot_fast;
use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};

/// Options controlling the eigensolver's iteration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JacobiOptions {
    /// Iteration cap: QL iterations spent on any one eigenvalue by
    /// [`leading_eigenpairs`], full sweeps of the Jacobi oracle in
    /// [`crate::reference`].
    pub max_sweeps: usize,
    /// Read by the Jacobi oracle only: its threshold on the off-diagonal
    /// Frobenius norm relative to the matrix's.
    pub tolerance: f64,
}

impl Default for JacobiOptions {
    fn default() -> Self {
        Self {
            max_sweeps: 64,
            tolerance: 1e-12,
        }
    }
}

/// A sum of squares at or below this has been rounded absolutely (gradual
/// underflow), not relatively, and a reflector or rotation normalised by its
/// root would not be orthogonal.  With the largest entry scaled to `[1, 2)`
/// its terms are below `1e-146` and are dropped as zeros.
const TINY: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// Inverse iteration's solves per eigenvector: at most `MAX_SOLVES`, and
/// `EXTRA_SOLVES` after the first that converges.
const MAX_SOLVES: usize = 8;
const EXTRA_SOLVES: usize = 2;

/// `2^k` and `2^-k` such that the largest magnitude in `values` times `2^k`
/// lies in `[1, 2)` (`k` clamped to what both powers can represent).
fn power_of_two_scale(values: &[f64]) -> (f64, f64) {
    let max = values.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
    let exponent = (max.to_bits() >> 52) as i64 - 1023;
    let k = (-exponent).clamp(-1022, 1022);
    let power = |k: i64| f64::from_bits(((1023 + k) as u64) << 52);
    (power(k), power(-k))
}

/// Householder reduction of the symmetric matrix held in the lower triangle
/// of the `n x n` row-major buffer `w` (its strict upper triangle zero) to
/// tridiagonal form `T = Q^T A Q`.  Returns the diagonal of `T`, its
/// sub-diagonal (`e[i]` couples `i - 1` and `i`; `e[0] = 0`) and `h`: the
/// reflector `H_i = I - u u^T / h[i]` that cleared row `i` keeps its vector
/// `u` in `w[i][..i]` (`h[i] = 0`: none was needed), and `Q = H_{n-1} ... H_1`.
fn tridiagonalise(w: &mut [f64], n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut e = vec![0.0; n];
    let mut h = vec![0.0; n];
    for i in (1..n).rev() {
        let (above, row_i) = w.split_at_mut(i * n);
        let u = &mut row_i[..i];
        let l = i - 1;
        let f = u[l];
        let sigma = dot_fast(&u[..l], &u[..l]);
        if sigma <= TINY {
            e[i] = f;
            continue;
        }
        let norm2 = sigma + f * f;
        let g = if f >= 0.0 {
            -norm2.sqrt()
        } else {
            norm2.sqrt()
        };
        e[i] = g;
        h[i] = norm2 - f * g;
        u[l] = f - g;
        // p = A u / h over the leading i x i block, read by rows of its
        // lower triangle: row j gives p[j] its dot and rows above it an
        // update.
        let p = &mut e[..i];
        for j in 0..i {
            let row = &above[j * n..j * n + j + 1];
            p[j] = dot_fast(row, &u[..=j]);
            for (pk, ajk) in p[..j].iter_mut().zip(row) {
                *pk += ajk * u[j];
            }
        }
        let mut up = 0.0;
        for (pj, uj) in p.iter_mut().zip(u.iter()) {
            *pj /= h[i];
            up += *pj * uj;
        }
        // q = p - (u.p / 2h) u, then A <- A - u q^T - q u^T.
        let k = up / (h[i] + h[i]);
        for (qj, uj) in p.iter_mut().zip(u.iter()) {
            *qj -= k * uj;
        }
        let q = &e[..i];
        for j in 0..i {
            let row = &mut above[j * n..j * n + j + 1];
            let (uj, qj) = (u[j], q[j]);
            for ((a, uk), qk) in row.iter_mut().zip(u.iter()).zip(q) {
                *a -= uj * qk + qj * uk;
            }
        }
    }
    e[0] = 0.0;
    let d = (0..n).map(|i| w[i * n + i]).collect();
    (d, e, h)
}

/// Implicit-shift QL iteration on the tridiagonal matrix `(d, e)` produced by
/// [`tridiagonalise`]; on return `d` holds the eigenvalues and `e` is spent.
fn implicit_ql(d: &mut [f64], e: &mut [f64], max_iterations: usize) -> Result<()> {
    let n = d.len();
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    // Absolute deflation threshold, eps * ||T||.
    let norm = d.iter().zip(e.iter()).map(|(d, e)| d.abs() + e.abs());
    let negligible = f64::EPSILON * norm.fold(0.0, f64::max);
    for l in 0..n {
        let mut iterations = 0;
        'iterate: loop {
            let m = (l..n - 1)
                .find(|&m| e[m].abs() <= negligible)
                .unwrap_or(n - 1);
            if m == l {
                break;
            }
            if iterations == max_iterations {
                return Err(LinalgError::NotConverged {
                    sweeps: iterations,
                    off_norm_bits: e[l].abs().to_bits(),
                });
            }
            iterations += 1;
            // Wilkinson shift from the leading 2 x 2 of the block.
            let g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let r = (g * g + 1.0).sqrt();
            let mut g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                let norm2 = f * f + g * g;
                let r = norm2.sqrt();
                e[i + 1] = r;
                if norm2 <= TINY {
                    // The bulge vanished: the block splits at i + 1.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    continue 'iterate;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                let r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// `x <- (T - shift I)^-1 x` for the tridiagonal `(d, e)`, by the
/// elimination the module describes, each row of `U` summed left to right.
fn solve_shifted(d: &[f64], e: &[f64], shift: f64, floor: f64, x: &mut [f64]) {
    let n = d.len();
    // The rows of U: pivot, entries (i, i + 1) and (i, i + 2).
    let mut u = vec![[0.0; 3]; n];
    let off = |i: usize| e.get(i).copied().unwrap_or(0.0);
    let at_least = |p: f64| p.abs().max(floor).copysign(p);
    // Row i as elimination reaches it: columns i and i + 1, right-hand side.
    let (mut a, mut b, mut r) = (d[0] - shift, off(1), x[0]);
    for i in 0..n - 1 {
        // Row i + 1: columns i, i + 1 and i + 2, right-hand side.
        let (c, dc, f, s) = (e[i + 1], d[i + 1] - shift, off(i + 2), x[i + 1]);
        if a.abs() >= c.abs() {
            let p = at_least(a);
            let m = c / p;
            (u[i], x[i]) = ([p, b, 0.0], r);
            (a, b, r) = (dc - m * b, f, s - m * r);
        } else {
            let p = at_least(c);
            let m = a / p;
            (u[i], x[i]) = ([p, dc, f], s);
            (a, b, r) = (b - m * dc, -(m * f), r - m * s);
        }
    }
    (u[n - 1], x[n - 1]) = ([at_least(a), 0.0, 0.0], r);
    for i in (0..n).rev() {
        // Past the last row both terms are an exact +0.0.
        let at = |k: usize| x.get(k).copied().unwrap_or(0.0);
        x[i] = (x[i] - u[i][1] * at(i + 1) - u[i][2] * at(i + 2)) / u[i][0];
    }
}

/// Scales `x` to unit length and returns the length it had.
fn normalise(x: &mut [f64]) -> f64 {
    let length = dot_fast(x, x).sqrt();
    x.iter_mut().for_each(|x| *x /= length);
    length
}

/// Inverse iteration on the tridiagonal `(d, e)`: row `j` of the row-major
/// `vectors` becomes the unit eigenvector of `shifts[j]` (the eigenvalues
/// QL found, descending), by the module's rules.
fn inverse_iteration(d: &[f64], e: &[f64], shifts: &[f64], vectors: &mut [f64]) -> Result<()> {
    let n = d.len();
    let off = |i: usize| e.get(i).map_or(0.0, |x| x.abs());
    let norm = (0..n)
        .map(|i| off(i) + d[i].abs() + off(i + 1))
        .fold(1.0, f64::max);
    let floor = f64::EPSILON * norm;
    let (mut cluster, mut shift) = (0, f64::INFINITY);
    for (j, &lambda) in shifts.iter().enumerate() {
        if j > 0 && shifts[j - 1] - lambda > norm / (2 * n) as f64 {
            cluster = j;
        }
        shift = lambda.min(shift - 10.0 * floor);
        let (earlier, rest) = vectors.split_at_mut(j * n);
        let cluster_rows = &earlier[cluster * n..];
        let x = &mut rest[..n];
        // SplitMix64 seeded by j, entries in [-1, 1).
        let mut state = (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for x in x.iter_mut() {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *x = ((z ^ (z >> 31)) >> 11) as f64 / (1_u64 << 52) as f64 - 1.0;
        }
        normalise(x);
        // A unit vector grown to `length` by a solve leaves a residual
        // against the shift of about 1 / length: converged at `target`.
        let target = lambda - shift + n as f64 * floor;
        let mut left = MAX_SOLVES;
        while left > 0 {
            left -= 1;
            solve_shifted(d, e, shift, floor, x);
            // Modified Gram–Schmidt, twice.
            let twice = cluster_rows
                .chunks_exact(n)
                .chain(cluster_rows.chunks_exact(n));
            for v in twice {
                let c = dot_fast(v, x);
                for (x, v) in x.iter_mut().zip(v) {
                    *x -= c * v;
                }
            }
            if normalise(x) * target >= 1.0 && left > EXTRA_SOLVES {
                left = EXTRA_SOLVES;
            }
        }
    }
    Ok(())
}

/// `y <- H_{n-1} ... H_1 y` for every row `y` of the row-major `vectors`,
/// with the reflectors [`tridiagonalise`] left in `w` and `h`.
fn back_transform(w: &[f64], h: &[f64], vectors: &mut [f64]) {
    let n = h.len();
    for i in 1..n {
        if h[i] == 0.0 {
            continue;
        }
        let u = &w[i * n..i * n + i];
        for y in vectors.chunks_exact_mut(n) {
            let g = dot_fast(&y[..i], u) / h[i];
            for (y, u) in y[..i].iter_mut().zip(u) {
                *y -= g * u;
            }
        }
    }
}

/// Step 6 as step 7 reads it: every eigenvalue of `matrix`, descending, and
/// as the *rows* of the returned matrix the unit eigenvectors of the leading
/// `min(k, n)` — the transformation matrix applied to centred pixels in
/// step 7.  Each row's largest-magnitude entry is positive, so equivalent
/// inputs (covariances of slightly different unique sets) cannot invert a
/// colour channel.  Prefix-stable: the rows do not depend on `k`.
///
/// Returns [`LinalgError::NonFinite`] before any work when the matrix holds
/// a `NaN` or an infinity, and [`LinalgError::NotConverged`] when some
/// eigenvalue is not isolated within `options.max_sweeps` QL iterations.
pub fn leading_eigenpairs(
    matrix: &SymMatrix,
    k: usize,
    options: JacobiOptions,
) -> Result<(Vec<f64>, Matrix)> {
    // A NaN or an infinity would fail every convergence test.
    if matrix.packed().iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::NonFinite {
            op: "leading_eigenpairs",
        });
    }
    let n = matrix.dim();
    if n == 0 {
        return Ok((Vec::new(), Matrix::zeros(0, 0)));
    }
    let (scale, unscale) = power_of_two_scale(matrix.packed());
    let mut w = vec![0.0; n * n];
    let mut packed = matrix.packed().iter();
    for i in 0..n {
        for j in i..n {
            w[j * n + i] = scale * packed.next().expect("n (n + 1) / 2 packed entries");
        }
    }
    let (d, e, h) = tridiagonalise(&mut w, n);
    let (mut values, mut spent) = (d.clone(), e.clone());
    implicit_ql(&mut values, &mut spent, options.max_sweeps)?;
    let unscaled: Vec<f64> = values.iter().map(|lambda| lambda * unscale).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        unscaled[b]
            .partial_cmp(&unscaled[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let k = k.min(n);
    let shifts: Vec<f64> = order[..k].iter().map(|&i| values[i]).collect();
    let mut transform = Matrix::zeros(k, n);
    inverse_iteration(&d, &e, &shifts, transform.as_mut_slice())?;
    back_transform(&w, &h, transform.as_mut_slice());
    for row in transform.as_mut_slice().chunks_exact_mut(n) {
        // The first entry of largest magnitude.
        let largest = (0..n).fold(0, |m, i| if row[i].abs() > row[m].abs() { i } else { m });
        if row[largest] < 0.0 {
            row.iter_mut().for_each(|x| *x = -*x);
        }
    }
    Ok((order.iter().map(|&i| unscaled[i]).collect(), transform))
}

/// [`leading_eigenpairs`] for all `n` eigenvectors.
pub fn sorted_eigenpairs(matrix: &SymMatrix, options: JacobiOptions) -> Result<(Vec<f64>, Matrix)> {
    leading_eigenpairs(matrix, matrix.dim(), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vector;

    mod accuracy;

    fn sym_from_rows(rows: &[Vec<f64>]) -> SymMatrix {
        SymMatrix::from_dense(&Matrix::from_rows(rows).unwrap()).unwrap()
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_the_diagonal() {
        let m = sym_from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let (vals, _) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 2.0).abs() < 1e-10);
        assert!((vals[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = sym_from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (vals, _) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_sum_to_trace() {
        let m = sym_from_rows(&[
            vec![4.0, 1.0, -2.0],
            vec![1.0, 2.0, 0.5],
            vec![-2.0, 0.5, 3.0],
        ]);
        let (vals, _) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        let sum: f64 = vals.iter().sum();
        assert!((sum - m.trace()).abs() < 1e-9);
    }

    #[test]
    fn eigenvectors_are_orthonormal_rows() {
        let m = sym_from_rows(&[
            vec![5.0, 2.0, 1.0, 0.0],
            vec![2.0, 4.0, 0.5, 1.0],
            vec![1.0, 0.5, 3.0, 0.2],
            vec![0.0, 1.0, 0.2, 2.0],
        ]);
        let (_, t) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let ri = Vector::from(t.row(i));
                let rj = Vector::from(t.row(j));
                let dot = ri.dot(&rj).unwrap();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-9, "rows {i},{j} dot = {dot}");
            }
        }
    }

    #[test]
    fn reconstruction_matches_original() {
        // A = V^T diag(lambda) V where V rows are eigenvectors.
        let m = sym_from_rows(&[
            vec![6.0, 2.0, 0.0],
            vec![2.0, 5.0, 1.0],
            vec![0.0, 1.0, 4.0],
        ]);
        let (vals, t) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        let mut diag = Matrix::zeros(3, 3);
        for i in 0..3 {
            diag[(i, i)] = vals[i];
        }
        let reconstructed = t
            .transpose()
            .mul_matrix(&diag)
            .unwrap()
            .mul_matrix(&t)
            .unwrap();
        let dense = m.to_dense();
        assert!(reconstructed.max_abs_diff(&dense).unwrap() < 1e-9);
    }

    #[test]
    fn transform_of_eigenvector_scales_by_eigenvalue() {
        let m = sym_from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (vals, t) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        let dense = m.to_dense();
        for (k, &lambda) in vals.iter().enumerate() {
            let v = Vector::from(t.row(k));
            let av = dense.mul_vector(&v).unwrap();
            let lv = v.scale(lambda);
            for (a, b) in av.iter().zip(lv.iter()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_matrix_decomposes_trivially() {
        let m = SymMatrix::zeros(0);
        let (vals, t) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        assert!(vals.is_empty());
        assert_eq!((t.rows(), t.cols()), (0, 0));
    }

    fn no_iterations() -> JacobiOptions {
        JacobiOptions {
            max_sweeps: 0,
            ..JacobiOptions::default()
        }
    }

    #[test]
    fn non_finite_input_is_rejected_before_the_first_sweep() {
        // At a diagonal and at an off-diagonal position; an iteration limit
        // of zero shows the check comes before any work.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (i, j) in [(1, 1), (0, 2)] {
                let mut m = sym_from_rows(&[
                    vec![4.0, 1.0, -2.0],
                    vec![1.0, 2.0, 0.5],
                    vec![-2.0, 0.5, 3.0],
                ]);
                m.set(i, j, bad);
                let rejected = LinalgError::NonFinite {
                    op: "leading_eigenpairs",
                };
                for options in [JacobiOptions::default(), no_iterations()] {
                    assert_eq!(sorted_eigenpairs(&m, options).err(), Some(rejected.clone()));
                    for k in [0, 1, 5] {
                        assert_eq!(
                            leading_eigenpairs(&m, k, options).err(),
                            Some(rejected.clone())
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn an_exhausted_iteration_limit_is_a_typed_error() {
        // A diagonal matrix needs no iteration; anything else needs one.
        let diagonal = sym_from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]);
        assert!(sorted_eigenpairs(&diagonal, no_iterations()).is_ok());
        let coupled = sym_from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        assert!(matches!(
            sorted_eigenpairs(&coupled, no_iterations()),
            Err(LinalgError::NotConverged { sweeps: 0, .. })
        ));
        // Every eigenvalue is computed whatever k asks for.
        for k in [0, 1, 3] {
            assert!(leading_eigenpairs(&diagonal, k, no_iterations()).is_ok());
            assert!(matches!(
                leading_eigenpairs(&coupled, k, no_iterations()),
                Err(LinalgError::NotConverged { sweeps: 0, .. })
            ));
        }
    }

    #[test]
    fn zero_rows_and_more_rows_than_bands() {
        let m = sym_from_rows(&[
            vec![4.0, 1.0, -2.0],
            vec![1.0, 2.0, 0.5],
            vec![-2.0, 0.5, 3.0],
        ]);
        let options = JacobiOptions::default();
        let (values, all) = sorted_eigenpairs(&m, options).unwrap();
        let (none_values, none) = leading_eigenpairs(&m, 0, options).unwrap();
        assert_eq!(none_values, values);
        assert_eq!((none.rows(), none.cols()), (0, 3));
        let (more_values, more) = leading_eigenpairs(&m, 7, options).unwrap();
        assert_eq!((more_values, more), (values, all));
        let (empty_values, empty) = leading_eigenpairs(&SymMatrix::zeros(0), 2, options).unwrap();
        assert!(empty_values.is_empty());
        assert_eq!((empty.rows(), empty.cols()), (0, 0));
    }

    #[test]
    fn one_by_one_matrix() {
        let mut m = SymMatrix::zeros(1);
        m.set(0, 0, 42.0);
        let (vals, t) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        assert_eq!(vals, vec![42.0]);
        assert!((t[(0, 0)].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_of_correlated_data_puts_variance_in_first_component() {
        // Strongly correlated two-band data: nearly all variance along (1,1).
        let pixels: Vec<Vector> = (0..200)
            .map(|i| {
                let t = i as f64 * 0.1;
                Vector::from_vec(vec![
                    t + 0.01 * (i as f64).sin(),
                    t - 0.01 * (i as f64).cos(),
                ])
            })
            .collect();
        let cov = crate::covariance::covariance_matrix(&pixels).unwrap();
        let (vals, t) = sorted_eigenpairs(&cov, JacobiOptions::default()).unwrap();
        assert!(vals[0] > 100.0 * vals[1]);
        // First eigenvector should be close to (1,1)/sqrt(2) up to sign.
        let e0 = t.row(0);
        assert!((e0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01);
        assert!((e0[1].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01);
    }

    #[test]
    fn larger_random_like_matrix_converges() {
        // Deterministic pseudo-random symmetric matrix, 30x30.
        let n = 30;
        let mut m = SymMatrix::zeros(n);
        let mut state = 0x12345678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in i..n {
                m.set(i, j, next());
            }
        }
        let (vals, t) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        // Eigenvalues sorted descending.
        for w in vals.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // Rows orthonormal.
        for i in 0..n {
            let ri = Vector::from(t.row(i));
            assert!((ri.norm() - 1.0).abs() < 1e-8);
        }
        // Trace preserved.
        let sum: f64 = vals.iter().sum();
        assert!((sum - m.trace()).abs() < 1e-7);
    }
}
