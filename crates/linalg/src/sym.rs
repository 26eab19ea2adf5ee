//! Packed symmetric matrices used for covariance sums (steps 4–5).
//!
//! A covariance matrix over `n` spectral bands is symmetric, so only the
//! upper triangle (including the diagonal) is stored — `n (n + 1) / 2`
//! entries instead of `n^2`.  For the 210-band HYDICE cube this also halves
//! the bytes each worker ships back to the manager in step 4, which matters
//! for the communication model in `netsim`.

use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};

/// A symmetric `f64` matrix stored as a packed upper triangle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SymMatrix {
    n: usize,
    /// Upper triangle in row-major packed order:
    /// `(0,0), (0,1), ..., (0,n-1), (1,1), ..., (n-1,n-1)`.
    data: Vec<f64>,
}

impl SymMatrix {
    /// Creates an `n x n` symmetric zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * (n + 1) / 2],
        }
    }

    /// Creates an identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Immutable view of the packed storage, used when shipping partial
    /// covariance sums between workers and the manager.
    pub fn packed(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the packed storage, for the retained reference kernel.
    pub(crate) fn packed_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reconstructs a symmetric matrix from packed storage.
    pub fn from_packed(n: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != n * (n + 1) / 2 {
            return Err(LinalgError::DimensionMismatch {
                op: "from_packed",
                left: n * (n + 1) / 2,
                right: data.len(),
            });
        }
        Ok(Self { n, data })
    }

    fn index(&self, i: usize, j: usize) -> usize {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        debug_assert!(j < self.n);
        // Offset of row i in the packed upper triangle plus column offset.
        i * self.n - i * (i + 1) / 2 + j
    }

    /// Reads entry `(i, j)` (symmetric access).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.index(i, j)]
    }

    /// Writes entry `(i, j)` (and by symmetry `(j, i)`).
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        let idx = self.index(i, j);
        self.data[idx] = value;
    }

    /// Column-tile width of the blocked [`SymMatrix::rank_one_update`].
    /// 128 `f64`s = 1 KiB of `x` per tile: the tile of `x[j]` values stays
    /// resident in L1 across every row of the block instead of being
    /// re-streamed once per row, which is what makes the blocked walk
    /// cache-friendly at 210 bands and beyond.
    const ROU_TILE: usize = 128;

    /// Rank-one update `self += x x^T`, the inner operation of step 4.
    ///
    /// The triangular loop is blocked into `ROU_TILE`-wide column tiles.
    /// Each packed entry is still updated exactly once with
    /// the same single `+= x[i] * x[j]`, so the result is **bit-identical**
    /// to the naive walk (`reference::rank_one_update_reference`, kept as the
    /// comparison oracle for tests and the kernels bench) — reordering
    /// independent updates cannot change any entry's rounding.
    pub fn rank_one_update(&mut self, x: &Vector) -> Result<()> {
        if x.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                op: "rank_one_update",
                left: self.n,
                right: x.len(),
            });
        }
        let xs = x.as_slice();
        let n = self.n;
        for jb in (0..n).step_by(Self::ROU_TILE) {
            let j_end = (jb + Self::ROU_TILE).min(n);
            let x_tile = &xs[jb..j_end];
            // Rows at or above the tile's diagonal block contribute to it.
            for (i, &xi) in xs.iter().enumerate().take(j_end) {
                let j0 = jb.max(i);
                let row = i * n - i * (i + 1) / 2;
                let dst = &mut self.data[row + j0..row + j_end];
                let src = &x_tile[j0 - jb..];
                for (d, &xj) in dst.iter_mut().zip(src) {
                    *d += xi * xj;
                }
            }
        }
        Ok(())
    }

    /// Element-wise addition of another symmetric matrix (merging the partial
    /// covariance sums from different workers).
    pub fn add_assign_sym(&mut self, other: &SymMatrix) -> Result<()> {
        if self.n != other.n {
            return Err(LinalgError::DimensionMismatch {
                op: "add_assign_sym",
                left: self.n,
                right: other.n,
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Scales every entry (dividing the covariance sum by the sample count).
    pub fn scale_in_place(&mut self, scale: f64) {
        for x in &mut self.data {
            *x *= scale;
        }
    }

    /// Converts to a full dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in i..self.n {
                let v = self.get(i, j);
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    /// Builds a packed symmetric matrix from a dense matrix, averaging the two
    /// triangles so slightly asymmetric numerical input is symmetrised.
    pub fn from_dense(m: &Matrix) -> Result<Self> {
        if m.rows() != m.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "from_dense",
                left: m.rows(),
                right: m.cols(),
            });
        }
        let n = m.rows();
        let mut s = Self::zeros(n);
        for i in 0..n {
            for j in i..n {
                s.set(i, j, 0.5 * (m[(i, j)] + m[(j, i)]));
            }
        }
        Ok(s)
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> f64 {
        (0..self.n).map(|i| self.get(i, i)).sum()
    }

    /// Frobenius norm of the full (unpacked) matrix.
    pub fn frobenius_norm(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.n {
            for j in i..self.n {
                let v = self.get(i, j);
                acc += if i == j { v * v } else { 2.0 * v * v };
            }
        }
        acc.sqrt()
    }

    /// Maximum absolute difference between two symmetric matrices.
    pub fn max_abs_diff(&self, other: &SymMatrix) -> Result<f64> {
        if self.n != other.n {
            return Err(LinalgError::DimensionMismatch {
                op: "max_abs_diff",
                left: self.n,
                right: other.n,
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::rank_one_update_reference;

    #[test]
    fn packed_indexing_is_symmetric() {
        let mut m = SymMatrix::zeros(4);
        m.set(1, 3, 7.5);
        assert_eq!(m.get(3, 1), 7.5);
        assert_eq!(m.get(1, 3), 7.5);
    }

    #[test]
    fn packed_len_is_triangular_number() {
        assert_eq!(SymMatrix::zeros(210).packed().len(), 210 * 211 / 2);
    }

    #[test]
    fn rank_one_update_matches_dense_outer_product() {
        let x = Vector::from_vec(vec![1.0, -2.0, 0.5]);
        let mut s = SymMatrix::zeros(3);
        s.rank_one_update(&x).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((s.get(i, j) - x[i] * x[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rank_one_update_rejects_wrong_dimension() {
        let mut s = SymMatrix::zeros(3);
        assert!(s.rank_one_update(&Vector::zeros(4)).is_err());
        assert!(rank_one_update_reference(&mut s, &Vector::zeros(4)).is_err());
    }

    #[test]
    fn blocked_rank_one_update_is_bit_identical_to_the_reference() {
        // Dimensions straddling the tile width (including the paper's 210
        // bands), accumulated over many updates from a messy deterministic
        // sequence: every packed entry must match the naive walk bit for
        // bit, not approximately.
        for n in [1usize, 7, 127, 128, 129, 210, 300] {
            let mut blocked = SymMatrix::zeros(n);
            let mut naive = SymMatrix::zeros(n);
            for k in 0..5u64 {
                let x = Vector::from_vec(
                    (0..n)
                        .map(|i| {
                            let t = (i as f64 + 1.3) * (k as f64 + 0.7);
                            t.sin() * 1e3 + 1.0 / t
                        })
                        .collect(),
                );
                blocked.rank_one_update(&x).unwrap();
                rank_one_update_reference(&mut naive, &x).unwrap();
            }
            assert_eq!(
                blocked.packed().len(),
                naive.packed().len(),
                "n={n}: packed length"
            );
            for (idx, (a, b)) in blocked.packed().iter().zip(naive.packed()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "n={n}: entry {idx} diverged ({a} vs {b})"
                );
            }
        }
    }

    #[test]
    fn merging_partial_sums_matches_single_accumulation() {
        let xs: Vec<Vector> = (0..20)
            .map(|i| Vector::from_vec(vec![i as f64, (i * i) as f64 * 0.1, (i as f64).sin()]))
            .collect();
        let mut whole = SymMatrix::zeros(3);
        for x in &xs {
            whole.rank_one_update(x).unwrap();
        }
        let mut a = SymMatrix::zeros(3);
        let mut b = SymMatrix::zeros(3);
        for x in &xs[..10] {
            a.rank_one_update(x).unwrap();
        }
        for x in &xs[10..] {
            b.rank_one_update(x).unwrap();
        }
        a.add_assign_sym(&b).unwrap();
        assert!(whole.max_abs_diff(&a).unwrap() < 1e-9);
    }

    #[test]
    fn dense_round_trip_preserves_entries() {
        let mut s = SymMatrix::zeros(5);
        for i in 0..5 {
            for j in i..5 {
                s.set(i, j, (i * 10 + j) as f64);
            }
        }
        let round = SymMatrix::from_dense(&s.to_dense()).unwrap();
        assert!(s.max_abs_diff(&round).unwrap() < 1e-12);
    }

    #[test]
    fn from_dense_symmetrises_asymmetric_input() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 1.0]]).unwrap();
        let s = SymMatrix::from_dense(&m).unwrap();
        assert_eq!(s.get(0, 1), 3.0);
    }

    #[test]
    fn from_dense_rejects_non_square() {
        assert!(SymMatrix::from_dense(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn from_packed_validates_length() {
        assert!(SymMatrix::from_packed(3, vec![0.0; 5]).is_err());
        assert!(SymMatrix::from_packed(3, vec![0.0; 6]).is_ok());
    }

    #[test]
    fn trace_and_identity() {
        assert_eq!(SymMatrix::identity(7).trace(), 7.0);
    }

    #[test]
    fn frobenius_norm_counts_off_diagonals_twice() {
        let mut s = SymMatrix::zeros(2);
        s.set(0, 1, 3.0);
        // Full matrix is [[0,3],[3,0]] with Frobenius norm sqrt(18).
        assert!((s.frobenius_norm() - 18.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn scale_in_place_scales_all_entries() {
        let mut s = SymMatrix::identity(3);
        s.scale_in_place(0.5);
        assert_eq!(s.get(0, 0), 0.5);
        assert_eq!(s.trace(), 1.5);
    }
}
