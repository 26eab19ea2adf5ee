//! Dense row-major matrices.
//!
//! Used for the transformation matrix `A` of step 6 (rows are the sorted
//! eigenvectors of the covariance matrix) and for the fixed 3x3 colour-mapping
//! matrix of step 8.

use crate::vector::Vector;
use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_row_major",
                left: rows * cols,
                right: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// Returns an error when rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    left: cols,
                    right: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the row-major storage (the eigensolver works on whole
    /// rows of it in place).
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a mutable slice of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as a freshly allocated vector.
    pub fn column(&self, c: usize) -> Vector {
        Vector::from_vec((0..self.rows).map(|r| self[(r, c)]).collect())
    }

    /// Matrix–vector product `A x`.
    pub fn mul_vector(&self, x: &Vector) -> Result<Vector> {
        if self.cols != x.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_vector",
                left: self.cols,
                right: x.len(),
            });
        }
        let mut out = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.as_slice()) {
                acc += a * b;
            }
            out.push(acc);
        }
        Ok(Vector::from_vec(out))
    }

    /// Matrix–matrix product `A B`.
    pub fn mul_matrix(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_matrix",
                left: self.cols,
                right: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::reduce::neumaier_sum(self.data.iter().map(|x| x * x)).sqrt()
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "max_abs_diff",
                left: self.rows * self.cols,
                right: other.rows * other.cols,
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs())))
    }

    /// Returns the top `k` rows as a new matrix (used to keep the first few
    /// principal components).
    pub fn top_rows(&self, k: usize) -> Matrix {
        let k = k.min(self.rows);
        Matrix {
            rows: k,
            cols: self.cols,
            data: self.data[..k * self.cols].to_vec(),
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_vector_is_vector() {
        let i = Matrix::identity(4);
        let x = Vector::from_vec(vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(i.mul_vector(&x).unwrap(), x);
    }

    #[test]
    fn from_row_major_rejects_bad_length() {
        assert!(Matrix::from_row_major(2, 3, vec![0.0; 5]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
    }

    #[test]
    fn matrix_vector_product_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let x = Vector::from_vec(vec![5.0, 6.0]);
        let y = a.mul_vector(&x).unwrap();
        assert_eq!(y.as_slice(), &[17.0, 39.0]);
    }

    #[test]
    fn matrix_matrix_product_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let c = a.mul_matrix(&b).unwrap();
        assert_eq!(c.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_dimensions() {
        let a = Matrix::zeros(2, 5);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (5, 2));
    }

    #[test]
    fn column_extraction() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(a.column(1).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn top_rows_truncates_and_saturates() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        assert_eq!(a.top_rows(2).as_slice(), &[1.0, 2.0]);
        assert_eq!(a.top_rows(10).rows(), 3);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((Matrix::identity(9).frobenius_norm() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_detects_the_largest_entrywise_gap() {
        let a = Matrix::identity(2);
        let mut b = Matrix::identity(2);
        b[(0, 1)] = 0.25;
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.25);
    }

    #[test]
    fn mul_incompatible_shapes_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.mul_matrix(&b).is_err());
        assert!(a.mul_vector(&Vector::zeros(2)).is_err());
    }
}
