//! Cyclic Jacobi eigensolver for symmetric matrices (algorithm step 6).
//!
//! Step 6 of the paper computes the eigenvectors of the covariance matrix and
//! sorts them by descending eigenvalue so the high-variance spectral content
//! is packed into the leading principal components.  The paper notes this
//! step is `O(n^3)` in the number of bands and is executed sequentially by
//! the manager because its cost depends on the band count (≤ 210), not the
//! image size.
//!
//! The cyclic Jacobi method is used here because it is simple, dependency
//! free, numerically robust for symmetric matrices, and produces orthogonal
//! eigenvectors to machine precision — properties the property-based tests in
//! this module assert directly.
//!
//! # The schedule
//!
//! A rotation `(p, q)` with cosine `c` and sine `s` does three things: it
//! rotates columns `p, q` of `A` (the *column half* of `A <- J^T A J`), then
//! rows `p, q` of `A` (the *row half*), then columns `p, q` of `V`.  Written
//! down directly (`reference::jacobi_eigen_reference`) two of the three walk
//! columns of row-major matrices.  Here every inner loop runs along a row:
//!
//! * **`V` is accumulated transposed.**  Rotating columns `p, q` of `V` is
//!   rotating rows `p, q` of `V^T`, the same loop as the row half of `A`.
//!   Eigenvector `k` is then row `k`, which is what [`sorted_eigenpairs`]
//!   copies out; [`jacobi_eigen`] transposes once to keep exposing
//!   columns.
//! * **The column half is deferred and applied along rows.**  Within one
//!   `p`-batch (`q = p+1 .. n`) the column half of `(p, j)` touches
//!   `a[k][p]` and `a[k][j]` of every row `k`, reading nothing but row `k`
//!   and `(c_j, s_j)`; and nothing else reads row `k` until it is itself
//!   the `q` row.  So `(c_j, s_j)` is recorded (or a skip marker when
//!   `|a_pq| <= MIN_POSITIVE`), rotation `(p, q)` is applied at once only to
//!   rows `p` and `q`, and row `k` receives its column halves later, in
//!   ascending `j`, as one sweep along the row with `a[k][p]` carried in a
//!   register: just before `(p, q)` row `q` is brought up to date with
//!   `(p, p+1 .. q-1)`, and after the batch the rest is flushed — every
//!   rotation of the batch for a row above `p`, those with `j > k` for a row
//!   `k` below it.
//!
//! # Why the result has the same bits
//!
//! No arithmetic is changed, only the order in which independent operations
//! are issued.  Every element sees the same sequence of
//! `c*x - s*y` / `s*x + c*y` updates with the same operands as in the direct
//! form: an element `a[k][j]` of a row `k != p` is written by the column
//! half of `(p, j)` once per batch and `a[k][p]` by each of them in ascending
//! `j`, which is the order they are replayed in; the row half reaches row
//! `k` only when `k = q`, and by then the replay has caught up.  The
//! rotation order (`p` outer, `q` inner), the angle formula, the skip test,
//! the summation order of the off-diagonal norm and both convergence tests
//! are the direct form's.  There is no fused multiply-add and no
//! reassociation, so the data-flow graph — and with it every rounding — is
//! identical; `eigen::tests::bit_identity` compares eigenvalues,
//! eigenvectors and sweep counts by bit pattern.
//!
//! Carrying one triangle and mirroring it would halve the work but is *not*
//! the same graph: in the two-sided update `a[p][q]` and `a[q][p]` go
//! through the column half and the row half in opposite roles and pick up
//! different rounding residues, the two triangles drift apart by a few ulps,
//! and that asymmetry feeds the diagonal through later rotations.  The full
//! matrix is carried.
//!
//! # Four rows at a time
//!
//! A row's replay is a serial chain through `a[k][p]` (a multiply and a
//! subtract per step), but rows are independent, so the replay advances
//! `ROW_BLOCK` = 4 rows in lock step: four chains in flight hide the
//! latency of one.  Rows below `p` are grouped in blocks of four counted from
//! `p + 1`; a block is brought up to its first row's position together, and
//! the at most three rotations between rows of one block are replayed
//! singly.

use crate::matrix::Matrix;
use crate::sym::SymMatrix;
use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Options controlling the Jacobi iteration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JacobiOptions {
    /// Maximum number of full sweeps over all off-diagonal entries.
    pub max_sweeps: usize,
    /// Convergence threshold on the off-diagonal Frobenius norm relative to
    /// the matrix Frobenius norm.
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

/// Result of an eigen-decomposition: `A = V diag(lambda) V^T`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EigenDecomposition {
    /// Eigenvalues, in the order produced by the solver (see
    /// [`sorted_eigenpairs`] for the descending order the PCT needs).
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors stored as *columns* of this matrix, in the same order as
    /// `eigenvalues`.
    pub eigenvectors: Matrix,
    /// Number of sweeps the solver performed.
    pub sweeps: usize,
}

impl EigenDecomposition {
    /// Returns eigenvector `k` as a row vector.
    pub fn eigenvector(&self, k: usize) -> crate::Vector {
        self.eigenvectors.column(k)
    }

    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }
}

pub(crate) fn off_diagonal_norm(a: &Matrix) -> f64 {
    let n = a.rows();
    let mut acc = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                acc += a[(i, j)] * a[(i, j)];
            }
        }
    }
    acc.sqrt()
}

/// Rows advanced together when pending column rotations are applied.  Each
/// row's chain is serial through its `a[k][p]`; four independent chains fill
/// the floating-point pipeline (eight measured slower: they spill registers).
const ROW_BLOCK: usize = 4;

/// The `(c, s)` of rotation `(p, q)` of the current `p`-batch, indexed by
/// `q`; `None` where the rotation was skipped (`|a_pq| <= MIN_POSITIVE`).
/// A skip cannot be recorded as the identity rotation: `1*x - 0*y` is not
/// `x` for `x = -0.0` or non-finite `y`.
type Rotation = Option<(f64, f64)>;

/// `(x, y) <- (c*x - s*y, s*x + c*y)` along two rows: the row half of
/// `A <- J^T A J`, and all of `V^T <- J^T V^T`.
fn rotate_rows(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (x, y) in x.iter_mut().zip(y.iter_mut()) {
        let (xv, yv) = (*x, *y);
        *x = c * xv - s * yv;
        *y = s * xv + c * yv;
    }
}

/// Applies the column halves of rotations `(p, j)`, `j` ascending over `js`,
/// to each of `R` whole rows of `A`: `(a[k][p], a[k][j])` is rotated with
/// `a[k][p]` carried in a register.  The `R` chains are independent and
/// advance in lock step.
fn apply_pending<const R: usize>(
    mut rows: [&mut [f64]; R],
    p: usize,
    js: Range<usize>,
    rotations: &[Rotation],
) {
    let mut x: [f64; R] = std::array::from_fn(|r| rows[r][p]);
    {
        let ys: [&mut [f64]; R] = rows.each_mut().map(|row| &mut row[js.clone()]);
        for (i, rotation) in rotations[js].iter().enumerate() {
            if let Some((c, s)) = *rotation {
                let y: [f64; R] = std::array::from_fn(|r| ys[r][i]);
                for r in 0..R {
                    ys[r][i] = s * x[r] + c * y[r];
                }
                x = std::array::from_fn(|r| c * x[r] - s * y[r]);
            }
        }
    }
    for r in 0..R {
        rows[r][p] = x[r];
    }
}

/// Rows `p < q` of a square matrix.
fn two_rows_mut(m: &mut Matrix, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let n = m.cols();
    let (head, tail) = m.as_mut_slice().split_at_mut(q * n);
    (&mut head[p * n..(p + 1) * n], &mut tail[..n])
}

/// [`apply_pending`] over the contiguous rows `rows` of `a`: [`ROW_BLOCK`]
/// rows per pass, the remainder singly.
fn apply_pending_to_rows(
    a: &mut Matrix,
    rows: Range<usize>,
    p: usize,
    js: Range<usize>,
    rotations: &[Rotation],
) {
    if js.is_empty() {
        return;
    }
    let n = a.cols();
    let mut k = rows.start;
    while k + ROW_BLOCK <= rows.end {
        let mut tail = &mut a.as_mut_slice()[k * n..];
        let block: [&mut [f64]; ROW_BLOCK] = std::array::from_fn(|_| {
            tail.split_off_mut(..n)
                .expect("the block lies inside the matrix")
        });
        apply_pending(block, p, js.clone(), rotations);
        k += ROW_BLOCK;
    }
    for k in k..rows.end {
        apply_pending([a.row_mut(k)], p, js.clone(), rotations);
    }
}

/// The rotation that annihilates `a[p][q]`, or `None` when that entry is
/// already negligible.
fn annihilating_rotation(app: f64, aqq: f64, apq: f64) -> Rotation {
    if apq.abs() <= f64::MIN_POSITIVE {
        return None;
    }
    let theta = 0.5 * (aqq - app) / apq;
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    Some((c, t * c))
}

/// Everything rotation `(p, q)` does at once: `A <- J^T A J` on rows `p` and
/// `q` — the column half on their four `(p, q)` entries, then the row half
/// along both rows — and `V^T <- J^T V^T`.  The column half on the other
/// rows stays pending.
fn rotate_pivot_rows(a: &mut Matrix, vt: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let (row_p, row_q) = two_rows_mut(a, p, q);
    for row in [&mut *row_p, &mut *row_q] {
        let (akp, akq) = (row[p], row[q]);
        row[p] = c * akp - s * akq;
        row[q] = s * akp + c * akq;
    }
    rotate_rows(row_p, row_q, c, s);
    let (vt_p, vt_q) = two_rows_mut(vt, p, q);
    rotate_rows(vt_p, vt_q, c, s);
}

/// One cyclic sweep over `a` (the matrix being diagonalised) and `vt` (the
/// transposed eigenvector accumulator), in the schedule the module
/// documentation describes.
fn sweep(a: &mut Matrix, vt: &mut Matrix) {
    let n = a.rows();
    let mut rotations: Vec<Rotation> = vec![None; n];
    for p in 0..n - 1 {
        for q in p + 1..n {
            // Row q still lacks the column halves of (p, p+1 .. q-1).  The
            // first row of a block brings the whole block up to the block's
            // start; the few rotations inside the block follow singly.
            let block_start = q - (q - (p + 1)) % ROW_BLOCK;
            if q == block_start {
                let block = q..(q + ROW_BLOCK).min(n);
                apply_pending_to_rows(a, block, p, p + 1..q, &rotations);
            }
            apply_pending([a.row_mut(q)], p, block_start..q, &rotations);

            rotations[q] = annihilating_rotation(a[(p, p)], a[(q, q)], a[(p, q)]);
            if let Some((c, s)) = rotations[q] {
                rotate_pivot_rows(a, vt, p, q, c, s);
            }
        }
        // Flush what the batch left pending: every rotation for the rows
        // above p, those with j > k for a row k below it.
        apply_pending_to_rows(a, 0..p, p, p + 1..n, &rotations);
        for block_start in (p + 1..n).step_by(ROW_BLOCK) {
            let block_end = (block_start + ROW_BLOCK).min(n);
            for k in block_start..block_end {
                apply_pending([a.row_mut(k)], p, k + 1..block_end, &rotations);
            }
            let block = block_start..block_end;
            apply_pending_to_rows(a, block, p, block_end..n, &rotations);
        }
    }
}

/// The solver proper.  Returns the eigenvalues, the eigenvectors as *rows*
/// (the accumulated `V^T`) and the sweep count.
fn jacobi_rows(matrix: &SymMatrix, options: JacobiOptions) -> Result<(Vec<f64>, Matrix, usize)> {
    // A NaN or an infinity fails both convergence tests for ever: the solver
    // would spend every sweep and return garbage.
    if matrix.packed().iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::NonFinite { op: "jacobi_eigen" });
    }
    let n = matrix.dim();
    if n == 0 {
        return Ok((Vec::new(), Matrix::zeros(0, 0), 0));
    }
    let mut a = matrix.to_dense();
    let mut vt = Matrix::identity(n);
    let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);

    let mut sweeps = 0;
    while sweeps < options.max_sweeps {
        let off = off_diagonal_norm(&a);
        if off <= options.tolerance * scale {
            break;
        }
        sweeps += 1;
        sweep(&mut a, &mut vt);
    }

    let off = off_diagonal_norm(&a);
    if off > options.tolerance * scale * 1e3 && sweeps >= options.max_sweeps {
        return Err(LinalgError::NotConverged {
            sweeps,
            off_norm_bits: off.to_bits(),
        });
    }

    let eigenvalues = (0..n).map(|i| a[(i, i)]).collect();
    Ok((eigenvalues, vt, sweeps))
}

/// Computes the eigen-decomposition of a symmetric matrix with the cyclic
/// Jacobi method.
///
/// Returns [`LinalgError::NonFinite`] before the first sweep when the matrix
/// holds a `NaN` or an infinity, and [`LinalgError::NotConverged`] when
/// `options.max_sweeps` sweeps leave the off-diagonal norm above a thousand
/// times the tolerance.
pub fn jacobi_eigen(matrix: &SymMatrix, options: JacobiOptions) -> Result<EigenDecomposition> {
    let (eigenvalues, rows, sweeps) = jacobi_rows(matrix, options)?;
    Ok(EigenDecomposition {
        eigenvalues,
        eigenvectors: rows.transpose(),
        sweeps,
    })
}

/// Computes the eigen-decomposition and returns the eigenpairs sorted by
/// descending eigenvalue, as step 6 of the paper requires ("sorted according
/// to their corresponding eigenvalues which provide a measure of their
/// variances").
///
/// The returned matrix has the sorted eigenvectors as *rows*, i.e. it is the
/// transformation matrix `A` applied to centred pixel vectors in step 7.
pub fn sorted_eigenpairs(matrix: &SymMatrix, options: JacobiOptions) -> Result<(Vec<f64>, Matrix)> {
    let (unsorted, rows, _) = jacobi_rows(matrix, options)?;
    let n = unsorted.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        unsorted[b]
            .partial_cmp(&unsorted[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let eigenvalues: Vec<f64> = order.iter().map(|&i| unsorted[i]).collect();
    let mut transform = Matrix::zeros(n, n);
    for (row, &src) in order.iter().enumerate() {
        let row = transform.row_mut(row);
        row.copy_from_slice(rows.row(src));
        // Canonicalise the sign: eigenvectors are only defined up to sign,
        // and different (but equivalent) inputs — e.g. covariance matrices
        // built from slightly different unique sets in the sequential versus
        // distributed pipelines — could otherwise flip a component and
        // invert a colour channel.  Make the largest-magnitude entry
        // positive so every implementation agrees.
        let mut max_idx = 0;
        let mut max_abs = 0.0_f64;
        for (k, x) in row.iter().enumerate() {
            if x.abs() > max_abs {
                max_abs = x.abs();
                max_idx = k;
            }
        }
        if row[max_idx] < 0.0 {
            for x in row.iter_mut() {
                *x = -*x;
            }
        }
    }
    Ok((eigenvalues, transform))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vector;

    mod bit_identity;

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
        let decomp = jacobi_eigen(&m, JacobiOptions::default()).unwrap();
        let dense = m.to_dense();
        for k in 0..2 {
            let v = decomp.eigenvector(k);
            let av = dense.mul_vector(&v).unwrap();
            let lv = v.scale(decomp.eigenvalues[k]);
            for (a, b) in av.iter().zip(lv.iter()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_matrix_decomposes_trivially() {
        let m = SymMatrix::zeros(0);
        let d = jacobi_eigen(&m, JacobiOptions::default()).unwrap();
        assert!(d.eigenvalues.is_empty());
    }

    #[test]
    fn non_finite_input_is_rejected_before_the_first_sweep() {
        // At a diagonal and at an off-diagonal position.  The direct
        // formulation would spend all 64 sweeps on these and return NaNs;
        // a sweep limit of zero shows the check comes first.
        let no_sweeps = JacobiOptions {
            max_sweeps: 0,
            ..JacobiOptions::default()
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (i, j) in [(1, 1), (0, 2)] {
                let mut m = sym_from_rows(&[
                    vec![4.0, 1.0, -2.0],
                    vec![1.0, 2.0, 0.5],
                    vec![-2.0, 0.5, 3.0],
                ]);
                m.set(i, j, bad);
                let rejected = LinalgError::NonFinite { op: "jacobi_eigen" };
                for options in [JacobiOptions::default(), no_sweeps] {
                    assert_eq!(jacobi_eigen(&m, options).err(), Some(rejected.clone()));
                    assert_eq!(sorted_eigenpairs(&m, options).err(), Some(rejected.clone()));
                }
            }
        }
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
