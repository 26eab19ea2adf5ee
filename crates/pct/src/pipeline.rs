//! Shared building blocks of steps 3–7, used by every implementation.
//!
//! The statistics phase (mean, covariance, eigen-decomposition) always runs
//! over the merged unique set; what differs between implementations is *who*
//! computes which piece and how the pieces travel.  Keeping the numerical
//! kernels here guarantees that the sequential, shared-memory, distributed
//! and resilient variants produce the same transformation matrix given the
//! same unique set.

use crate::config::PctConfig;
use crate::{PctError, Result};
use hsi::{CubeDims, CubeView, HyperCube};
use linalg::{
    covariance::{mean_vector, CovarianceAccumulator},
    eigen::{sorted_eigenpairs, JacobiOptions},
    Matrix, SymMatrix, Vector,
};

/// The statistics derived from the unique set: everything a worker needs to
/// transform its share of the image (steps 6→7 hand-off).
#[derive(Debug, Clone, PartialEq)]
pub struct TransformSpec {
    /// Mean vector of the unique set (step 3).
    pub mean: Vector,
    /// Rows are the leading eigenvectors of the covariance matrix, sorted by
    /// descending eigenvalue (step 6); only the first `output_components`
    /// rows are retained.
    pub transform: Matrix,
    /// All eigenvalues, sorted descending.
    pub eigenvalues: Vec<f64>,
}

impl TransformSpec {
    /// Number of output components the spec produces.
    pub fn components(&self) -> usize {
        self.transform.rows()
    }

    /// Number of spectral bands the spec consumes.
    pub fn bands(&self) -> usize {
        self.mean.len()
    }
}

/// Steps 3–6: mean vector, covariance matrix and sorted eigen-decomposition
/// of the unique set, truncated to `config.output_components`.
pub fn derive_transform(unique: &[Vector], config: &PctConfig) -> Result<TransformSpec> {
    config.validate()?;
    if unique.is_empty() {
        return Err(PctError::InvalidConfig(
            "cannot derive a transform from an empty unique set".to_string(),
        ));
    }
    let mean = mean_vector(unique)?;
    let mut acc = CovarianceAccumulator::new(mean.clone());
    acc.push_all(unique)?;
    let covariance = acc.finalize()?;
    finalize_transform(mean, &covariance, config)
}

/// Step 5–6 only: given the already-merged covariance matrix (the manager's
/// view in the distributed protocol), sort the eigenpairs and truncate.
pub fn finalize_transform(
    mean: Vector,
    covariance: &SymMatrix,
    config: &PctConfig,
) -> Result<TransformSpec> {
    let (eigenvalues, full_transform) = sorted_eigenpairs(covariance, JacobiOptions::default())?;
    let components = config.output_components.min(full_transform.rows());
    Ok(TransformSpec {
        mean,
        transform: full_transform.top_rows(components),
        eigenvalues,
    })
}

/// Step 7 for one pixel: centre and project onto the leading eigenvectors.
pub fn transform_pixel(spec: &TransformSpec, pixel: &[f64]) -> Vec<f64> {
    let bands = spec.bands();
    debug_assert_eq!(pixel.len(), bands);
    let mut out = Vec::with_capacity(spec.components());
    for row in 0..spec.components() {
        let eigvec = spec.transform.row(row);
        let mut acc = 0.0;
        for b in 0..bands {
            acc += eigvec[b] * (pixel[b] - spec.mean[b]);
        }
        out.push(acc);
    }
    out
}

/// Step 7 for a whole cube (or sub-cube): produces a cube whose "bands" are
/// the leading principal components.
pub fn transform_cube(spec: &TransformSpec, cube: &HyperCube) -> Result<HyperCube> {
    if cube.bands() != spec.bands() {
        return Err(PctError::InvalidConfig(format!(
            "cube has {} bands but the transform expects {}",
            cube.bands(),
            spec.bands()
        )));
    }
    let dims = CubeDims::new(cube.width(), cube.height(), spec.components());
    let mut samples = Vec::with_capacity(dims.samples());
    for pixel in cube.iter_pixels() {
        samples.extend_from_slice(&transform_pixel(spec, pixel));
    }
    Ok(HyperCube::from_samples(dims, samples)?)
}

/// Step 7 for a zero-copy sub-cube view: identical arithmetic to
/// [`transform_cube`], reading pixels straight out of the shared storage.
/// The produced component cube is new data (it has different values, not a
/// copy), so this is not a clone in the message-plane sense.
pub fn transform_view(spec: &TransformSpec, view: &CubeView) -> Result<HyperCube> {
    if view.bands() != spec.bands() {
        return Err(PctError::InvalidConfig(format!(
            "view has {} bands but the transform expects {}",
            view.bands(),
            spec.bands()
        )));
    }
    let dims = CubeDims::new(view.width(), view.height(), spec.components());
    let mut samples = Vec::with_capacity(dims.samples());
    for pixel in view.iter_pixels() {
        samples.extend_from_slice(&transform_pixel(spec, pixel));
    }
    Ok(HyperCube::from_samples(dims, samples)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn correlated_pixels(n: usize) -> Vec<Vector> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.05;
                Vector::from_vec(vec![
                    t + 0.01 * (i as f64).sin(),
                    2.0 * t + 0.01 * (i as f64).cos(),
                    -t + 0.02 * ((i * 3) as f64).sin(),
                    0.5 * t,
                ])
            })
            .collect()
    }

    #[test]
    fn derive_transform_produces_requested_components() {
        let spec = derive_transform(&correlated_pixels(100), &PctConfig::paper()).unwrap();
        assert_eq!(spec.components(), 3);
        assert_eq!(spec.bands(), 4);
        assert_eq!(spec.eigenvalues.len(), 4);
    }

    #[test]
    fn eigen_across_versions_derive_transform_agrees_with_the_oracle_spec() {
        use crate::colormap::{map_cube, ComponentScale};
        // Numerics version 2 against version 1 (the Jacobi oracle), on the
        // `derive_bound` workload's shape — the paper's 210 bands, fewer
        // unique vectors than bands — and on `ingest_replay`'s, whose 45
        // degree screening leaves a unique set of rank below three.
        for (dims, degrees) in [
            (CubeDims::new(32, 32, 210), 5.0_f64),
            (CubeDims::new(64, 64, 32), 45.0),
        ] {
            let mut scene = hsi::SceneConfig::small(14);
            scene.dims = dims;
            let cube = hsi::SceneGenerator::new(scene).unwrap().generate();
            let config = PctConfig {
                screening_angle_rad: degrees.to_radians(),
                ..PctConfig::paper()
            };
            let unique =
                crate::screening::screen_slices(cube.iter_pixels(), config.screening_angle_rad);
            assert!(unique.len() < dims.bands);
            let spec = derive_transform(&unique, &config).unwrap();

            let mean = mean_vector(&unique).unwrap();
            let mut acc = CovarianceAccumulator::new(mean.clone());
            acc.push_all(&unique).unwrap();
            let covariance = acc.finalize().unwrap();
            let options = JacobiOptions::default();
            let (eigenvalues, full_transform) =
                linalg::reference::sorted_eigenpairs_reference(&covariance, options).unwrap();
            let oracle = TransformSpec {
                mean,
                transform: full_transform.top_rows(config.output_components),
                eigenvalues,
            };

            // Eigenvalues: the accuracy suite's multiple of n eps ||C||_F,
            // plus the off-diagonal norm the oracle stops at.
            let bound = (8.0 * dims.bands as f64 * f64::EPSILON + options.tolerance)
                * covariance.frobenius_norm();
            for (ours, theirs) in spec.eigenvalues.iter().zip(&oracle.eigenvalues) {
                assert!(
                    (ours - theirs).abs() <= bound,
                    "{dims:?}: {ours} vs {theirs}"
                );
            }
            // The image: the same bytes, noise eigenvalues having no colour.
            let image = |spec: &TransformSpec| {
                let scales = ComponentScale::from_eigenvalues(&spec.eigenvalues, 3);
                map_cube(&transform_cube(spec, &cube).unwrap(), &scales)
            };
            assert!(image(&spec) == image(&oracle), "{dims:?}: images differ");
        }
    }

    #[test]
    fn derive_transform_rejects_non_finite_samples() {
        let mut pixels = correlated_pixels(40);
        pixels[7][2] = f64::NAN;
        assert!(matches!(
            derive_transform(&pixels, &PctConfig::paper()),
            Err(PctError::Linalg(linalg::LinalgError::NonFinite { .. }))
        ));
    }

    #[test]
    fn derive_transform_rejects_empty_unique_set() {
        assert!(derive_transform(&[], &PctConfig::paper()).is_err());
    }

    #[test]
    fn eigenvalues_are_sorted_descending() {
        let spec = derive_transform(&correlated_pixels(80), &PctConfig::paper()).unwrap();
        for w in spec.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn first_component_captures_most_variance_of_correlated_data() {
        let spec = derive_transform(&correlated_pixels(200), &PctConfig::paper()).unwrap();
        let total: f64 = spec.eigenvalues.iter().sum();
        assert!(spec.eigenvalues[0] / total > 0.95);
    }

    #[test]
    fn transformed_components_are_decorrelated() {
        let pixels = correlated_pixels(300);
        let spec = derive_transform(&pixels, &PctConfig::paper()).unwrap();
        let transformed: Vec<Vec<f64>> = pixels
            .iter()
            .map(|p| transform_pixel(&spec, p.as_slice()))
            .collect();
        // Empirical covariance between component 0 and 1 should be ~0
        // relative to the variances.
        let n = transformed.len() as f64;
        let mean0: f64 = transformed.iter().map(|t| t[0]).sum::<f64>() / n;
        let mean1: f64 = transformed.iter().map(|t| t[1]).sum::<f64>() / n;
        let cov01: f64 = transformed
            .iter()
            .map(|t| (t[0] - mean0) * (t[1] - mean1))
            .sum::<f64>()
            / n;
        let var0: f64 = transformed
            .iter()
            .map(|t| (t[0] - mean0).powi(2))
            .sum::<f64>()
            / n;
        let var1: f64 = transformed
            .iter()
            .map(|t| (t[1] - mean1).powi(2))
            .sum::<f64>()
            / n;
        let denom = (var0 * var1).sqrt();
        if denom > 1e-12 {
            assert!(
                cov01.abs() / denom < 0.05,
                "components still correlated: {}",
                cov01 / denom
            );
        }
    }

    #[test]
    fn transform_of_mean_pixel_is_zero() {
        let pixels = correlated_pixels(60);
        let spec = derive_transform(&pixels, &PctConfig::paper()).unwrap();
        let projected = transform_pixel(&spec, spec.mean.as_slice());
        for c in projected {
            assert!(c.abs() < 1e-9);
        }
    }

    #[test]
    fn transform_cube_maps_each_pixel_independently() {
        let pixels = correlated_pixels(12);
        let spec = derive_transform(&pixels, &PctConfig::paper()).unwrap();
        let dims = CubeDims::new(4, 3, 4);
        let samples: Vec<f64> = pixels.iter().flat_map(|p| p.as_slice().to_vec()).collect();
        let cube = HyperCube::from_samples(dims, samples).unwrap();
        let out = transform_cube(&spec, &cube).unwrap();
        assert_eq!(out.bands(), 3);
        assert_eq!(out.pixels(), 12);
        let direct = transform_pixel(&spec, cube.pixel(2, 1).unwrap());
        assert_eq!(out.pixel(2, 1).unwrap(), direct.as_slice());
    }

    #[test]
    fn transform_view_matches_transform_cube() {
        use std::sync::Arc;
        let pixels = correlated_pixels(12);
        let spec = derive_transform(&pixels, &PctConfig::paper()).unwrap();
        let dims = CubeDims::new(4, 3, 4);
        let samples: Vec<f64> = pixels.iter().flat_map(|p| p.as_slice().to_vec()).collect();
        let cube = Arc::new(HyperCube::from_samples(dims, samples).unwrap());
        let whole = transform_cube(&spec, &cube).unwrap();
        let view = CubeView::window(Arc::clone(&cube), 0, 1, 4, 2).unwrap();
        let part = transform_view(&spec, &view).unwrap();
        assert_eq!(part, whole.window(0, 1, 4, 2).unwrap());
        let mismatched = CubeView::full(cube).with_band_window(0, 2).unwrap();
        assert!(transform_view(&spec, &mismatched).is_err());
    }

    #[test]
    fn transform_cube_rejects_band_mismatch() {
        let spec = derive_transform(&correlated_pixels(10), &PctConfig::paper()).unwrap();
        let cube = HyperCube::zeros(CubeDims::new(2, 2, 7));
        assert!(transform_cube(&spec, &cube).is_err());
    }

    #[test]
    fn finalize_transform_respects_component_cap() {
        let pixels = correlated_pixels(50);
        let mean = mean_vector(&pixels).unwrap();
        let mut acc = CovarianceAccumulator::new(mean.clone());
        acc.push_all(&pixels).unwrap();
        let cov = acc.finalize().unwrap();
        let config = PctConfig {
            output_components: 10,
            ..PctConfig::paper()
        };
        let spec = finalize_transform(mean, &cov, &config).unwrap();
        // Only 4 bands exist, so at most 4 components.
        assert_eq!(spec.components(), 4);
    }
}
