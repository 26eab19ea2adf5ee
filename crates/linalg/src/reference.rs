//! Retained reference kernels, kept in one place so the unit and property
//! suites and the benches all compare against the same code: the plain
//! formulation the optimised rank-one update is proven bit-identical to, and
//! the cyclic Jacobi that is the eigensolver's accuracy oracle.  Not part of
//! the supported API.

use crate::eigen::JacobiOptions;
use crate::matrix::Matrix;
use crate::sym::SymMatrix;
use crate::vector::Vector;
use crate::{LinalgError, Result};

/// What the Jacobi oracle returns: `A = V diag(lambda) V^T`.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenDecomposition {
    /// Eigenvalues, in the order the sweeps left them.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors stored as *columns* of this matrix, in the same order as
    /// `eigenvalues`.
    pub eigenvectors: Matrix,
    /// Number of sweeps the solver performed.
    pub sweeps: usize,
}

/// The textbook triangular walk of the rank-one update `m += x x^T`: one
/// linear pass over the packed upper triangle.  The blocked
/// [`SymMatrix::rank_one_update`] must match this bit-for-bit.
pub fn rank_one_update_reference(m: &mut SymMatrix, x: &Vector) -> Result<()> {
    if x.len() != m.dim() {
        return Err(LinalgError::DimensionMismatch {
            op: "rank_one_update_reference",
            left: m.dim(),
            right: x.len(),
        });
    }
    let xs = x.as_slice();
    let data = m.packed_mut();
    let mut idx = 0;
    for (i, &xi) in xs.iter().enumerate() {
        for &xj in &xs[i..] {
            data[idx] += xi * xj;
            idx += 1;
        }
    }
    Ok(())
}

fn off_diagonal_norm(a: &Matrix) -> f64 {
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

/// The cyclic Jacobi method as first written: every rotation applied at
/// once to two columns of `A`, two rows of `A` and two columns of `V`, all
/// three stored row-major.  Step 6 of every build of numerics version 1
/// returned these bits; [`crate::eigen::sorted_eigenpairs`] is held to it
/// within stated error bounds (`eigen::tests::accuracy`).  It does not
/// reject non-finite input (it spends every sweep on it), so feed it finite
/// matrices.
pub fn jacobi_eigen_reference(
    matrix: &SymMatrix,
    options: JacobiOptions,
) -> Result<EigenDecomposition> {
    let n = matrix.dim();
    if n == 0 {
        return Ok(EigenDecomposition {
            eigenvalues: Vec::new(),
            eigenvectors: Matrix::zeros(0, 0),
            sweeps: 0,
        });
    }
    let mut a = matrix.to_dense();
    let mut v = Matrix::identity(n);
    let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);

    let mut sweeps = 0;
    while sweeps < options.max_sweeps {
        let off = off_diagonal_norm(&a);
        if off <= options.tolerance * scale {
            break;
        }
        sweeps += 1;
        for p in 0..n - 1 {
            for q in p + 1..n {
                let apq = a[(p, q)];
                if apq.abs() <= f64::MIN_POSITIVE {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                // Rotation angle that annihilates a[p][q].
                let theta = 0.5 * (aqq - app) / apq;
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply the rotation to A from both sides: A <- J^T A J.
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
                // Accumulate the eigenvector matrix: V <- V J.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let off = off_diagonal_norm(&a);
    if off > options.tolerance * scale * 1e3 && sweeps >= options.max_sweeps {
        return Err(LinalgError::NotConverged {
            sweeps,
            off_norm_bits: off.to_bits(),
        });
    }

    let eigenvalues = (0..n).map(|i| a[(i, i)]).collect();
    Ok(EigenDecomposition {
        eigenvalues,
        eigenvectors: v,
        sweeps,
    })
}

/// Step 6 as first written on top of [`jacobi_eigen_reference`]: sort by
/// descending eigenvalue, copy each eigenvector *column* out as a row,
/// canonicalise its sign — the oracle [`crate::eigen::sorted_eigenpairs`]
/// is compared with.
pub fn sorted_eigenpairs_reference(
    matrix: &SymMatrix,
    options: JacobiOptions,
) -> Result<(Vec<f64>, Matrix)> {
    let decomp = jacobi_eigen_reference(matrix, options)?;
    let n = decomp.eigenvalues.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        decomp.eigenvalues[b]
            .partial_cmp(&decomp.eigenvalues[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let eigenvalues: Vec<f64> = order.iter().map(|&i| decomp.eigenvalues[i]).collect();
    let mut transform = Matrix::zeros(n, n);
    for (row, &src) in order.iter().enumerate() {
        for k in 0..n {
            transform[(row, k)] = decomp.eigenvectors[(k, src)];
        }
        let mut max_idx = 0;
        let mut max_abs = 0.0_f64;
        for k in 0..n {
            if transform[(row, k)].abs() > max_abs {
                max_abs = transform[(row, k)].abs();
                max_idx = k;
            }
        }
        if transform[(row, max_idx)] < 0.0 {
            for k in 0..n {
                transform[(row, k)] = -transform[(row, k)];
            }
        }
    }
    Ok((eigenvalues, transform))
}
