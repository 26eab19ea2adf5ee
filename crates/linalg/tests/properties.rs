//! Property-based tests for the linear-algebra substrate.
//!
//! These check the algebraic invariants the PCT pipeline relies on:
//! scale-invariance of the spectral angle, mergeability of covariance
//! accumulators, orthogonality of the eigenvectors and trace preservation.

use linalg::{
    covariance::{covariance_matrix, mean_vector, CovarianceAccumulator},
    eigen::{sorted_eigenpairs, JacobiOptions},
    reduce, Matrix, SymMatrix, Vector,
};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, len)
}

fn pixel_set(bands: usize, max_pixels: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(finite_vec(bands), 1..max_pixels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spectral_angle_is_symmetric(a in finite_vec(8), b in finite_vec(8)) {
        let va = Vector::from_vec(a);
        let vb = Vector::from_vec(b);
        let ab = va.spectral_angle(&vb).unwrap();
        let ba = vb.spectral_angle(&va).unwrap();
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn spectral_angle_in_valid_range(a in finite_vec(8), b in finite_vec(8)) {
        let angle = Vector::from_vec(a).spectral_angle(&Vector::from_vec(b)).unwrap();
        prop_assert!((0.0..=std::f64::consts::PI + 1e-12).contains(&angle));
    }

    #[test]
    fn spectral_angle_scale_invariant(a in finite_vec(6), b in finite_vec(6), s in 0.001..1000.0f64) {
        let va = Vector::from_vec(a);
        let vb = Vector::from_vec(b);
        let base = va.spectral_angle(&vb).unwrap();
        let scaled = va.scale(s).spectral_angle(&vb).unwrap();
        prop_assert!((base - scaled).abs() < 1e-7);
    }

    #[test]
    fn dot_product_commutes(a in finite_vec(16), b in finite_vec(16)) {
        let va = Vector::from_vec(a);
        let vb = Vector::from_vec(b);
        prop_assert!((va.dot(&vb).unwrap() - vb.dot(&va).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn neumaier_sum_matches_exact_on_integers(values in prop::collection::vec(-1000i32..1000, 0..200)) {
        let floats: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        let exact: i64 = values.iter().map(|&v| v as i64).sum();
        prop_assert_eq!(reduce::neumaier_sum(floats.iter().copied()), exact as f64);
    }

    #[test]
    fn running_sum_split_merge_invariant(values in prop::collection::vec(-1e6..1e6f64, 1..200), split in 0usize..200) {
        let split = split % values.len();
        let mut whole = reduce::RunningSum::new();
        for v in &values { whole.add(*v); }
        let mut left = reduce::RunningSum::new();
        let mut right = reduce::RunningSum::new();
        for v in &values[..split] { left.add(*v); }
        for v in &values[split..] { right.add(*v); }
        left.merge(&right);
        prop_assert!((whole.total() - left.total()).abs() < 1e-6 * (1.0 + whole.total().abs()));
    }

    #[test]
    fn covariance_merge_matches_sequential(pixels in pixel_set(4, 40), split in 0usize..40) {
        let pixels: Vec<Vector> = pixels.into_iter().map(Vector::from_vec).collect();
        let split = split % pixels.len();
        let mean = mean_vector(&pixels).unwrap();
        let seq = covariance_matrix(&pixels).unwrap();

        let mut a = CovarianceAccumulator::new(mean.clone());
        let mut b = CovarianceAccumulator::new(mean.clone());
        a.push_all(&pixels[..split]).unwrap();
        b.push_all(&pixels[split..]).unwrap();
        a.merge(&b).unwrap();
        let merged = a.finalize().unwrap();
        let scale = 1.0 + seq.frobenius_norm();
        prop_assert!(seq.max_abs_diff(&merged).unwrap() < 1e-7 * scale);
    }

    #[test]
    fn covariance_diagonal_nonnegative(pixels in pixel_set(3, 30)) {
        let pixels: Vec<Vector> = pixels.into_iter().map(Vector::from_vec).collect();
        let cov = covariance_matrix(&pixels).unwrap();
        for i in 0..cov.dim() {
            prop_assert!(cov.get(i, i) >= -1e-9);
        }
    }

    #[test]
    fn jacobi_eigenvalue_sum_equals_trace(rows in prop::collection::vec(finite_vec(5), 5)) {
        let dense = Matrix::from_rows(&rows).unwrap();
        let sym = SymMatrix::from_dense(&dense).unwrap();
        let (vals, _) = sorted_eigenpairs(&sym, JacobiOptions::default()).unwrap();
        let sum: f64 = vals.iter().sum();
        prop_assert!((sum - sym.trace()).abs() < 1e-6 * (1.0 + sym.trace().abs()));
    }

    #[test]
    fn jacobi_rows_are_orthonormal(rows in prop::collection::vec(finite_vec(4), 4)) {
        let dense = Matrix::from_rows(&rows).unwrap();
        let sym = SymMatrix::from_dense(&dense).unwrap();
        let (_, t) = sorted_eigenpairs(&sym, JacobiOptions::default()).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let d = Vector::from(t.row(i)).dot(&Vector::from(t.row(j))).unwrap();
                let expected = if i == j { 1.0 } else { 0.0 };
                prop_assert!((d - expected).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn jacobi_eigenvalues_sorted_descending(rows in prop::collection::vec(finite_vec(6), 6)) {
        let dense = Matrix::from_rows(&rows).unwrap();
        let sym = SymMatrix::from_dense(&dense).unwrap();
        let (vals, _) = sorted_eigenpairs(&sym, JacobiOptions::default()).unwrap();
        for w in vals.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn sym_matrix_rank_one_update_is_symmetric(x in finite_vec(7)) {
        let v = Vector::from_vec(x);
        let mut s = SymMatrix::zeros(7);
        s.rank_one_update(&v).unwrap();
        for i in 0..7 {
            for j in 0..7 {
                prop_assert_eq!(s.get(i, j), s.get(j, i));
            }
        }
    }

    #[test]
    fn matrix_transpose_preserves_frobenius(rows in prop::collection::vec(finite_vec(5), 3)) {
        let m = Matrix::from_rows(&rows).unwrap();
        prop_assert!((m.frobenius_norm() - m.transpose().frobenius_norm()).abs() < 1e-9);
    }
}
