//! Dense `f64` vectors and the spectral-angle primitives of algorithm step 1.

use crate::reduce;
use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// Compensated (Neumaier) dot product of two equal-length slices: the
/// arithmetic of [`Vector::dot`], for callers that hold borrowed pixels.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    reduce::neumaier_sum(a.iter().zip(b).map(|(a, b)| a * b))
}

/// Compensated Euclidean norm of a slice: the arithmetic of [`Vector::norm`].
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    reduce::neumaier_sum(a.iter().map(|x| x * x)).sqrt()
}

/// Independent partial sums kept by [`dot_fast`].
const FAST_LANES: usize = 8;

/// Plain multi-accumulator dot product of two equal-length slices.
///
/// Eight independent partial sums in a fixed lane order, so the result is
/// deterministic and the loop vectorises; no compensation.  With
/// `n = a.len()` and `u = 2^-53` it differs from the compensated [`dot`] by
/// at most `(n + 4) * u * |a| * |b|`: both sum the same rounded products,
/// plain summation of `n` terms errs by at most `(n - 1) u` of
/// `sum |a_i b_i| <= (1 + u) |a| |b|` (Cauchy-Schwarz), and the compensated
/// sum by at most `2u` of it.  Spectral screening decides a comparison on
/// this value whenever it lies further than that from the threshold.
pub fn dot_fast(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_fast operands differ in length");
    let mut lanes = [0.0_f64; FAST_LANES];
    let (a_blocks, b_blocks) = (a.chunks_exact(FAST_LANES), b.chunks_exact(FAST_LANES));
    let tail = a_blocks.remainder().iter().zip(b_blocks.remainder());
    for (x, y) in a_blocks.zip(b_blocks) {
        for lane in 0..FAST_LANES {
            lanes[lane] += x[lane] * y[lane];
        }
    }
    let mut sum = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    for (x, y) in tail {
        sum += x * y;
    }
    sum
}

/// A dense vector of `f64` values.
///
/// In the fusion pipeline a `Vector` is most often a *pixel vector*: the
/// per-band radiance samples of a single spatial location of the
/// hyper-spectral cube.  The spectral-angle helpers ([`Vector::spectral_angle`])
/// implement the classification metric of step 1 of the paper:
/// `alpha(x, y) = arccos(x . y / (|x| |y|))`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector from raw data.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Self { data }
    }

    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n] }
    }

    /// Creates a vector of length `n` filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Self {
            data: vec![value; n],
        }
    }

    /// Vector length (number of components / spectral bands).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Dot product `self . other`.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "dot",
                left: self.len(),
                right: other.len(),
            });
        }
        Ok(dot(&self.data, &other.data))
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        norm(&self.data)
    }

    /// Spectral angle between two pixel vectors in radians.
    ///
    /// This is the screening metric of step 1 of the paper:
    /// `alpha(x, y) = arccos((x . y) / (|x| |y|))`.  The cosine argument is
    /// clamped to `[-1, 1]` so rounding noise can never produce a NaN.
    ///
    /// Returns an error when the vectors have different lengths; returns
    /// `pi / 2` when either vector has zero norm (a zero pixel carries no
    /// spectral direction, so it is treated as maximally dissimilar — this
    /// keeps degenerate pixels out of every similarity class).
    pub fn spectral_angle(&self, other: &Vector) -> Result<f64> {
        let dot = self.dot(other)?;
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return Ok(std::f64::consts::FRAC_PI_2);
        }
        let cos = (dot / denom).clamp(-1.0, 1.0);
        Ok(cos.acos())
    }

    /// Squared Euclidean distance to another vector.
    pub fn distance_sq(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "distance_sq",
                left: self.len(),
                right: other.len(),
            });
        }
        Ok(reduce::neumaier_sum(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b) * (a - b)),
        ))
    }

    /// Component-wise subtraction producing a new vector.
    pub fn sub_vec(&self, other: &Vector) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                left: self.len(),
                right: other.len(),
            });
        }
        Ok(Vector::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        ))
    }

    /// Component-wise addition producing a new vector.
    pub fn add_vec(&self, other: &Vector) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                left: self.len(),
                right: other.len(),
            });
        }
        Ok(Vector::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        ))
    }

    /// Adds `other` into `self` in place.
    pub fn add_assign_vec(&mut self, other: &Vector) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "add_assign",
                left: self.len(),
                right: other.len(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every component by `scale`.
    pub fn scale(&self, scale: f64) -> Vector {
        Vector::from_vec(self.data.iter().map(|x| x * scale).collect())
    }

    /// Multiplies every component by `scale` in place.
    pub fn scale_in_place(&mut self, scale: f64) {
        for x in &mut self.data {
            *x *= scale;
        }
    }

    /// Returns a unit vector pointing in the same direction, or a zero vector
    /// if the norm is zero.
    pub fn normalized(&self) -> Vector {
        let n = self.norm();
        if n == 0.0 {
            self.clone()
        } else {
            self.scale(1.0 / n)
        }
    }

    /// Mean of the components.
    pub fn mean(&self) -> Result<f64> {
        if self.is_empty() {
            return Err(LinalgError::Empty { op: "mean" });
        }
        Ok(reduce::neumaier_sum(self.data.iter().copied()) / self.len() as f64)
    }

    /// Iterator over components.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector::from_vec(data)
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector::from_vec(data.to_vec())
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        self.add_vec(rhs)
            .expect("vector addition dimension mismatch")
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        self.sub_vec(rhs)
            .expect("vector subtraction dimension mismatch")
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scale(rhs)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.add_assign_vec(rhs)
            .expect("vector add-assign dimension mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn v(data: &[f64]) -> Vector {
        Vector::from_vec(data.to_vec())
    }

    #[test]
    fn dot_product_matches_manual_computation() {
        let a = v(&[1.0, 2.0, 3.0]);
        let b = v(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn dot_product_dimension_mismatch_is_an_error() {
        let a = v(&[1.0, 2.0]);
        let b = v(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn norm_of_pythagorean_triple() {
        let a = v(&[3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn spectral_angle_of_identical_direction_is_zero() {
        let a = v(&[1.0, 2.0, 3.0]);
        let b = a.scale(7.5);
        assert!(a.spectral_angle(&b).unwrap().abs() < 1e-9);
    }

    #[test]
    fn spectral_angle_of_orthogonal_vectors_is_half_pi() {
        let a = v(&[1.0, 0.0]);
        let b = v(&[0.0, 1.0]);
        assert!((a.spectral_angle(&b).unwrap() - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn spectral_angle_of_opposite_vectors_is_pi() {
        let a = v(&[1.0, 1.0]);
        let b = v(&[-1.0, -1.0]);
        assert!((a.spectral_angle(&b).unwrap() - PI).abs() < 1e-6);
    }

    #[test]
    fn spectral_angle_with_zero_vector_is_half_pi() {
        let a = v(&[0.0, 0.0]);
        let b = v(&[1.0, 2.0]);
        assert_eq!(a.spectral_angle(&b).unwrap(), FRAC_PI_2);
    }

    #[test]
    fn spectral_angle_is_scale_invariant() {
        let a = v(&[0.2, 0.9, 0.4]);
        let b = v(&[0.8, 0.1, 0.3]);
        let angle = a.spectral_angle(&b).unwrap();
        let angle_scaled = a.scale(123.0).spectral_angle(&b.scale(0.004)).unwrap();
        assert!((angle - angle_scaled).abs() < 1e-9);
    }

    #[test]
    fn add_and_sub_are_inverses() {
        let a = v(&[1.0, -2.0, 3.5]);
        let b = v(&[0.5, 4.0, -1.0]);
        let sum = a.add_vec(&b).unwrap();
        let back = sum.sub_vec(&b).unwrap();
        for (x, y) in back.iter().zip(a.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_has_unit_norm() {
        let a = v(&[3.0, -4.0, 12.0]);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_vector_stays_zero() {
        let a = Vector::zeros(4);
        assert_eq!(a.normalized(), Vector::zeros(4));
    }

    #[test]
    fn mean_of_empty_vector_errors() {
        assert!(matches!(
            Vector::zeros(0).mean(),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn mean_of_constant_vector_is_the_constant() {
        assert_eq!(Vector::filled(10, 2.5).mean().unwrap(), 2.5);
    }

    #[test]
    fn operator_overloads_match_methods() {
        let a = v(&[1.0, 2.0]);
        let b = v(&[3.0, 5.0]);
        assert_eq!(&a + &b, a.add_vec(&b).unwrap());
        assert_eq!(&a - &b, a.sub_vec(&b).unwrap());
        assert_eq!(&a * 2.0, a.scale(2.0));
    }

    #[test]
    fn distance_sq_matches_norm_of_difference() {
        let a = v(&[1.0, 2.0, 3.0]);
        let b = v(&[4.0, 6.0, 3.0]);
        let d = a.distance_sq(&b).unwrap();
        let diff = a.sub_vec(&b).unwrap();
        assert!((d - diff.dot(&diff).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn indexing_reads_and_writes_components() {
        let mut a = v(&[1.0, 2.0, 3.0]);
        a[1] = 10.0;
        assert_eq!(a[1], 10.0);
        assert_eq!(a.as_slice(), &[1.0, 10.0, 3.0]);
    }

    /// `|dot_fast - dot| <= (n + 4) * 2^-53 * |a| * |b|`, the bound spectral
    /// screening's fast tier is built on.
    fn assert_dot_fast_within_bound(a: &[f64], b: &[f64]) {
        let bound = (a.len() + 4) as f64 * (f64::EPSILON / 2.0) * norm(a) * norm(b);
        let gap = (dot_fast(a, b) - dot(a, b)).abs();
        assert!(
            gap <= bound,
            "n = {}: gap {gap:e} > bound {bound:e}",
            a.len()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn dot_fast_stays_within_its_bound_on_random_inputs(
            samples in prop::collection::vec(-1.0e3..1.0e3f64, 0..460),
            exponent in -100i32..100,
        ) {
            let (a, b) = samples.split_at(samples.len() / 2);
            let a: Vec<f64> = a.iter().map(|x| x * 10f64.powi(exponent)).collect();
            assert_dot_fast_within_bound(&a, &b[..a.len()]);
        }

        #[test]
        fn dot_fast_stays_within_its_bound_under_heavy_cancellation(
            samples in prop::collection::vec(0.5..2.0f64, 2..230),
            tilt in -1.0e-9..1.0e-9f64,
        ) {
            // `a . b` is a sum of large terms that cancel in pairs, leaving
            // a result many orders below the terms.
            let (x, y) = samples.split_at(samples.len() / 2);
            let a: Vec<f64> = x.iter().chain(x).copied().collect();
            let b: Vec<f64> = y[..x.len()]
                .iter()
                .map(|v| v * 1e8)
                .chain(y[..x.len()].iter().map(|v| -v * 1e8 * (1.0 + tilt)))
                .collect();
            assert_dot_fast_within_bound(&a, &b);
        }
    }

    #[test]
    fn dot_fast_is_exact_on_small_integers_of_every_length() {
        for n in 0..40 {
            let a: Vec<f64> = (0..n).map(|i| (i as f64) - 7.0).collect();
            let b: Vec<f64> = (0..n).map(|i| ((i * 3 % 11) as f64) - 5.0).collect();
            assert_eq!(dot_fast(&a, &b), dot(&a, &b), "length {n}");
        }
    }

    #[test]
    #[should_panic(expected = "dot_fast operands differ in length")]
    fn dot_fast_rejects_mismatched_lengths() {
        dot_fast(&[1.0, 2.0], &[1.0, 2.0, 3.0]);
    }
}
