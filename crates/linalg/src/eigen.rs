//! Symmetric eigensolver (algorithm step 6): Householder tridiagonalisation,
//! then implicit-shift QL with the eigenvectors accumulated along rows.
//!
//! Step 6 of the paper computes the eigenvectors of the covariance matrix and
//! sorts them by descending eigenvalue so the high-variance spectral content
//! is packed into the leading principal components.  It is `O(n^3)` in the
//! band count (≤ 210), independent of the image size, and runs once per job
//! in one process — the serial fraction no lane can spread.
//!
//! # Why QL
//!
//! A cyclic Jacobi method pays `O(n^3)` per *sweep* and needs 8–10 sweeps at
//! 210 bands.  Reducing `A = Q T Q^T` to tridiagonal `T` once costs
//! `4/3 n^3`, forming `Q` as much again, and the QL iteration on `T` converges
//! cubically (under two iterations per eigenvalue) with `O(n)` work per
//! rotation plus the eigenvector update.  The convergence test is absolute,
//! `|e_m| <= eps * ||T||`, so the numerical null space of a rank-deficient
//! covariance (fewer unique vectors than bands) deflates without a single
//! rotation.  Eigenvalues and residuals carry an absolute error of a small
//! multiple of `n * eps * ||A||`, which is what a principal-component
//! transform needs; eigenvalues that small are rounding noise either way.
//!
//! # Why `Q^T`
//!
//! Everything runs along rows of one row-major buffer.  The reduction reads
//! and updates the lower triangle by rows (`A u` is one dot and one update
//! per row).  `Q^T = H_1 ... H_{n-1}` is then accumulated in the same buffer,
//! one dot and one update per row.  A QL rotation of columns `i, i+1` of `Q`
//! is a two-row rotation (`rotate_rows`) on `Q^T`, eigenvector `k` ends up
//! as row `k`, and [`sorted_eigenpairs`] copies rows out in sorted order:
//! two `n x n` buffers in all, no transpose.
//!
//! # Why no libm
//!
//! The identity contract is "same bytes from every process of one
//! [`crate::NUMERICS_VERSION`]", on whatever platform each runs.  `+ - * /`
//! and `sqrt` are correctly rounded by IEEE-754; library functions are not.
//! So the solver uses those five only, sums in the order written (the one
//! multi-lane sum is [`dot_fast`]'s fixed lane order), no fused multiply-add.
//! What a library's overflow-safe `sqrt(x^2 + y^2)` would protect against is
//! handled up front: the matrix is scaled by an exact power of two to a
//! largest entry in `[1, 2)` — no sum of squares can overflow — and the
//! eigenvalues are scaled back exactly; a sum of squares too small to be
//! rounded relatively (`TINY`) is treated as the zero it is against entries
//! of order one.
//!
//! # Where the oracle lives
//!
//! [`crate::reference::jacobi_eigen_reference`] is the directly written
//! cyclic Jacobi every build up to numerics version 1 was bit-identical to.
//! It is the accuracy oracle of `eigen::tests::accuracy` and of the
//! across-version property in `pct::pipeline`; nothing selects it at run
//! time.

use crate::matrix::Matrix;
use crate::sym::SymMatrix;
use crate::vector::dot_fast;
use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};

/// Options controlling the eigensolver's iteration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JacobiOptions {
    /// Iteration cap: QL iterations spent on any one eigenvalue by
    /// [`sorted_eigenpairs`], full sweeps of the Jacobi oracle.
    pub max_sweeps: usize,
    /// The Jacobi oracle's convergence threshold on the off-diagonal
    /// Frobenius norm relative to the matrix Frobenius norm.
    /// [`sorted_eigenpairs`] does not read it: QL deflates at
    /// `eps * ||T||`.
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

/// A sum of squares at or below this has been rounded absolutely (gradual
/// underflow), not relatively, and a reflector or rotation normalised by its
/// root would not be orthogonal.  With the largest entry scaled to `[1, 2)`
/// its terms are below `1e-146` and are dropped as zeros.
const TINY: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// `(x, y) <- (c*x - s*y, s*x + c*y)` along two rows.
fn rotate_rows(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (x, y) in x.iter_mut().zip(y.iter_mut()) {
        let (xv, yv) = (*x, *y);
        *x = c * xv - s * yv;
        *y = s * xv + c * yv;
    }
}

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
/// tridiagonal form `T = Q^T A Q`.  Returns the diagonal of `T` and its
/// sub-diagonal (`e[i]` couples `i - 1` and `i`; `e[0] = 0`) and leaves
/// `Q^T` in `w`.
fn tridiagonalise(w: &mut [f64], n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut e = vec![0.0; n];
    // `h[i]` is `|u|^2 / 2` of the reflector that cleared row `i`, whose
    // vector `u` stays in `w[i][..i]`; zero where none was needed.
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
    // Q^T = H_1 ... H_{n-1}, smallest reflector first: before step i the
    // product is the identity outside its leading (i-1) x (i-1) block.
    let mut d = vec![0.0; n];
    for i in 0..n {
        let (above, row_i) = w.split_at_mut(i * n);
        if h[i] != 0.0 {
            let u = &row_i[..i];
            for r in 0..i {
                let row = &mut above[r * n..r * n + i];
                let g = dot_fast(row, u) / h[i];
                for (x, uk) in row.iter_mut().zip(u) {
                    *x -= g * uk;
                }
            }
        }
        d[i] = row_i[i];
        row_i[..i].fill(0.0);
        row_i[i] = 1.0;
    }
    (d, e)
}

/// Implicit-shift QL iteration on the tridiagonal matrix `(d, e)` produced by
/// [`tridiagonalise`], applying every rotation to rows `i, i + 1` of `qt`.
/// On return `d` holds the eigenvalues and row `k` of `qt` the eigenvector of
/// `d[k]`.
fn implicit_ql(d: &mut [f64], e: &mut [f64], qt: &mut [f64], max_iterations: usize) -> Result<()> {
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
                let (x, y) = qt[i * n..(i + 2) * n].split_at_mut(n);
                rotate_rows(x, y, c, s);
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// The solver proper.  Returns the eigenvalues in the order the iteration
/// left them and the eigenvectors as *rows*.
fn eigen_rows(matrix: &SymMatrix, options: JacobiOptions) -> Result<(Vec<f64>, Matrix)> {
    // A NaN or an infinity would fail every convergence test.
    if matrix.packed().iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::NonFinite {
            op: "sorted_eigenpairs",
        });
    }
    let n = matrix.dim();
    let mut qt = Matrix::zeros(n, n);
    if n == 0 {
        return Ok((Vec::new(), qt));
    }
    let (scale, unscale) = power_of_two_scale(matrix.packed());
    let w = qt.as_mut_slice();
    let mut packed = matrix.packed().iter();
    for i in 0..n {
        for j in i..n {
            w[j * n + i] = scale * packed.next().expect("n (n + 1) / 2 packed entries");
        }
    }
    let (mut d, mut e) = tridiagonalise(w, n);
    implicit_ql(&mut d, &mut e, w, options.max_sweeps)?;
    for lambda in &mut d {
        *lambda *= unscale;
    }
    Ok((d, qt))
}

/// Computes the eigen-decomposition and returns the eigenpairs sorted by
/// descending eigenvalue, as step 6 of the paper requires ("sorted according
/// to their corresponding eigenvalues which provide a measure of their
/// variances").
///
/// The returned matrix has the sorted eigenvectors as *rows*, i.e. it is the
/// transformation matrix `A` applied to centred pixel vectors in step 7.
///
/// Returns [`LinalgError::NonFinite`] before any work when the matrix holds
/// a `NaN` or an infinity, and [`LinalgError::NotConverged`] when some
/// eigenvalue is not isolated within `options.max_sweeps` QL iterations.
pub fn sorted_eigenpairs(matrix: &SymMatrix, options: JacobiOptions) -> Result<(Vec<f64>, Matrix)> {
    let (unsorted, rows) = eigen_rows(matrix, options)?;
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
                    op: "sorted_eigenpairs",
                };
                for options in [JacobiOptions::default(), no_iterations()] {
                    assert_eq!(sorted_eigenpairs(&m, options).err(), Some(rejected.clone()));
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
