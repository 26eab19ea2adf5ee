//! Shared building blocks of steps 3–7, used by every implementation.
//!
//! The statistics phase (mean, covariance, eigen-decomposition) always runs
//! over the merged unique set; what differs between implementations is *who*
//! computes which piece and how the pieces travel.  Keeping the numerical
//! kernels here guarantees that the sequential, shared-memory, distributed
//! and resilient variants produce the same transformation matrix given the
//! same unique set.
//!
//! Step 7 lives here and nowhere else: `project_pixels` is the one loop
//! behind `transform_cube`, [`transform_view`] and the workers' transform
//! task.  Its per-component sum order (ascending bands, from `0.0`, nothing
//! fused) has been fixed since numerics version 2; what it is free to choose
//! is how many such sums run side by side.

use crate::config::PctConfig;
use crate::{PctError, Result};
use hsi::{CubeDims, CubeView, HyperCube};
use linalg::{
    covariance::{mean_vector, CovarianceAccumulator},
    eigen::{leading_eigenpairs, JacobiOptions},
    Matrix, SymMatrix, Vector,
};

/// The statistics derived from the unique set: everything a worker needs to
/// transform its share of the image (steps 6→7 hand-off).
#[derive(Debug, Clone, PartialEq)]
pub struct TransformSpec {
    /// Mean vector of the unique set (step 3).
    pub mean: Vector,
    /// Rows are the leading `output_components` eigenvectors of the
    /// covariance matrix, sorted by descending eigenvalue (step 6); the rest
    /// are never computed.
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
/// view in the distributed protocol), every eigenvalue and the leading
/// `config.output_components` eigenvectors, by
/// [`linalg::eigen::leading_eigenpairs`].
pub(crate) fn finalize_transform(
    mean: Vector,
    covariance: &SymMatrix,
    config: &PctConfig,
) -> Result<TransformSpec> {
    let (eigenvalues, transform) = leading_eigenpairs(
        covariance,
        config.output_components,
        JacobiOptions::default(),
    )?;
    Ok(TransformSpec {
        mean,
        transform,
        eigenvalues,
    })
}

/// Pixels whose sums one pass of [`project_pixels`] carries side by side.
const PIXEL_BLOCK: usize = 4;
/// Components carried per pass: the paper's three.
const COMPONENT_BLOCK: usize = 3;

/// Step 7, written once: appends to `out`, pixel after pixel, the
/// `transform.rows()` principal components of every pixel — each the sum
/// over ascending bands `b` of `e[b] * (pixel[b] - mean[b])`, started from
/// `0.0`, nothing fused or reassociated (that order has been fixed since
/// numerics version 2; `crate::reference` keeps the per-pixel oracle).
///
/// The speed is in what runs beside each sum, not inside it: a pass carries
/// `PIXEL_BLOCK` x `COMPONENT_BLOCK` independent sums, so no addition waits
/// on its neighbour, and centres each sample once for all of them.  Panics
/// if a pixel or a transform row is shorter than `mean`.
pub(crate) fn project_pixels<'a>(
    mean: &[f64],
    transform: &Matrix,
    pixels: impl Iterator<Item = &'a [f64]>,
    out: &mut Vec<f64>,
) {
    let components = transform.rows();
    // One pass: the components of the first `keep` pixels of `block`.
    let mut project = |block: [&[f64]; PIXEL_BLOCK], keep: usize| {
        let base = out.len();
        out.resize(base + keep * components, 0.0);
        for first in (0..components).step_by(COMPONENT_BLOCK) {
            // Past the last component the last row is repeated and dropped.
            let rows = std::array::from_fn(|c| transform.row((first + c).min(components - 1)));
            let sums = block_sums(mean, rows, block);
            for (k, pixel) in out[base..].chunks_exact_mut(components).enumerate() {
                for (component, sums) in pixel[first..].iter_mut().zip(&sums) {
                    *component = sums[k];
                }
            }
        }
    };
    let mut block: [&[f64]; PIXEL_BLOCK] = [&[]; PIXEL_BLOCK];
    let mut filled = 0;
    for pixel in pixels {
        block[filled] = pixel;
        filled += 1;
        if filled == PIXEL_BLOCK {
            project(block, filled);
            filled = 0;
        }
    }
    if filled > 0 {
        // A short last block is padded with its first pixel, whose extra
        // sums are computed and dropped: the tail takes the same loop.
        let first = block[0];
        block[filled..].fill(first);
        project(block, filled);
    }
}

/// The arithmetic of step 7 over the leading `mean.len()` samples of every
/// slice.  A function of its own on purpose: the compiler vectorises the
/// loop (two pixels to an SSE2 register, element-wise, so no sum changes)
/// starting from the stores of the returned array; inlined, the caller's
/// scattered stores leave it scalar and spilling (measured 1.2 against
/// 0.65 ns per pixel·band).
#[inline(never)]
fn block_sums(
    mean: &[f64],
    rows: [&[f64]; COMPONENT_BLOCK],
    block: [&[f64]; PIXEL_BLOCK],
) -> [[f64; PIXEL_BLOCK]; COMPONENT_BLOCK] {
    let bands = mean.len();
    let rows = rows.map(|row| &row[..bands]);
    let [p0, p1, p2, p3] = block.map(|pixel| &pixel[..bands]);
    let mut sums = [[0.0_f64; PIXEL_BLOCK]; COMPONENT_BLOCK];
    for b in 0..bands {
        let m = mean[b];
        let centred = [p0[b] - m, p1[b] - m, p2[b] - m, p3[b] - m];
        for (sums, row) in sums.iter_mut().zip(rows) {
            for (sum, centred) in sums.iter_mut().zip(centred) {
                *sum += row[b] * centred;
            }
        }
    }
    sums
}

/// Step 7 over the `pixels` of a cube or view of `dims`, as a cube of the
/// same extent whose "bands" are the leading principal components.
fn project_to_cube<'a>(
    spec: &TransformSpec,
    dims: CubeDims,
    pixels: impl Iterator<Item = &'a [f64]>,
) -> Result<HyperCube> {
    if dims.bands != spec.bands() {
        return Err(PctError::InvalidConfig(format!(
            "cube has {} bands but the transform expects {}",
            dims.bands,
            spec.bands()
        )));
    }
    let dims = CubeDims::new(dims.width, dims.height, spec.components());
    let mut samples = Vec::with_capacity(dims.samples());
    project_pixels(spec.mean.as_slice(), &spec.transform, pixels, &mut samples);
    Ok(HyperCube::from_samples(dims, samples)?)
}

/// Step 7 for a whole cube (or sub-cube): produces a cube whose "bands" are
/// the leading principal components.
pub(crate) fn transform_cube(spec: &TransformSpec, cube: &HyperCube) -> Result<HyperCube> {
    project_to_cube(spec, cube.dims(), cube.iter_pixels())
}

/// Step 7 for a zero-copy sub-cube view: identical arithmetic to
/// `transform_cube`, reading pixels straight out of the shared storage.
/// The produced component cube is new data (it has different values, not a
/// copy), so this is not a clone in the message-plane sense.
pub fn transform_view(spec: &TransformSpec, view: &CubeView) -> Result<HyperCube> {
    project_to_cube(spec, view.dims(), view.iter_pixels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::transform_pixel;

    mod image_rows;

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
        // This numerics version against version 1 (the Jacobi oracle), on the
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
            let unique = crate::screening::screen_slices_seeded(
                Vec::new(),
                cube.iter_pixels(),
                config.screening_angle_rad,
            );
            assert!(unique.len() < dims.bands);
            let spec = derive_transform(&unique, &config).unwrap();

            let mean = mean_vector(&unique).unwrap();
            let mut acc = CovarianceAccumulator::new(mean.clone());
            acc.push_all(&unique).unwrap();
            let covariance = acc.finalize().unwrap();
            let options = JacobiOptions::default();
            let (eigenvalues, full_transform) =
                linalg::reference::sorted_eigenpairs_reference(&covariance, options).unwrap();
            let leading = &full_transform.as_slice()[..config.output_components * dims.bands];
            let oracle = TransformSpec {
                mean,
                transform: Matrix::from_row_major(
                    config.output_components,
                    dims.bands,
                    leading.to_vec(),
                )
                .unwrap(),
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
        let view = CubeView::window(Arc::clone(&cube), 1, 2).unwrap();
        let part = transform_view(&spec, &view).unwrap();
        assert_eq!(part, whole.window(0, 1, 4, 2).unwrap());
        let mismatched = CubeView::full(Arc::new(HyperCube::zeros(CubeDims::new(4, 3, 2))));
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

    /// The step 7 bit-identity suite: [`project_pixels`] against the
    /// per-pixel oracle, whatever the block boundaries fall on.
    mod projection {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::Arc;

        /// `pixels` pixels of ordinary samples with signed zeros and
        /// subnormals sprinkled in; every fifth pixel also holds an infinity
        /// or a NaN, every tenth two of them (most pixels must stay finite,
        /// or the suite would compare little but NaNs).
        fn samples(rng: &mut StdRng, pixels: usize, bands: usize) -> Vec<f64> {
            let mut samples: Vec<f64> = (0..pixels * bands)
                .map(|_| match rng.gen_range(0..16_u32) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::MIN_POSITIVE / 8.0,
                    3 => -f64::from_bits(1),
                    _ => rng.gen_range(-4.0..4.0) * 10f64.powi(rng.gen_range(0..7_u32) as i32 - 3),
                })
                .collect();
            for (i, pixel) in samples.chunks_exact_mut(bands).enumerate() {
                for _ in 0..usize::from(i % 5 == 4) + usize::from(i % 10 == 9) {
                    pixel[rng.gen_range(0..bands)] =
                        [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3_usize)];
                }
            }
            samples
        }

        fn spec(rng: &mut StdRng, bands: usize, components: usize) -> TransformSpec {
            let mut finite =
                |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
            TransformSpec {
                mean: Vector::from_vec(finite(bands)),
                transform: Matrix::from_row_major(components, bands, finite(components * bands))
                    .unwrap(),
                eigenvalues: Vec::new(),
            }
        }

        /// Every component of every pixel carries the oracle's bits — a
        /// NaN's payload too, which both loops keep by adding the product
        /// *to* the running sum.
        fn assert_matches_oracle(spec: &TransformSpec, pixels: &[&[f64]], what: &str) {
            let mut out = vec![7.0];
            project_pixels(
                spec.mean.as_slice(),
                &spec.transform,
                pixels.iter().copied(),
                &mut out,
            );
            assert_eq!(out.len(), 1 + pixels.len() * spec.components(), "{what}");
            assert_eq!(out[0], 7.0, "{what}: the kernel appends");
            for (i, (pixel, got)) in pixels
                .iter()
                .zip(out[1..].chunks_exact(spec.components()))
                .enumerate()
            {
                let want = transform_pixel(spec, pixel);
                for (c, (got, want)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        got.to_bits() == want.to_bits(),
                        "{what}: pixel {i} component {c}: {got:e} vs {want:e}"
                    );
                }
            }
        }

        #[test]
        fn matches_the_oracle_over_bands_components_and_pixel_counts() {
            let mut rng = StdRng::seed_from_u64(0x57E97);
            for bands in [1, 4, 32, 33, 210] {
                let samples = samples(&mut rng, 23, bands);
                let pixels: Vec<&[f64]> = samples.chunks_exact(bands).collect();
                for components in 1..=6 {
                    let spec = spec(&mut rng, bands, components);
                    for count in [0, 1, 3, 4, 5, 8, 9, 10, 11, 21, 22, 23] {
                        let what = format!("{bands} bands, {components} components, {count} px");
                        assert_matches_oracle(&spec, &pixels[..count], &what);
                    }
                }
            }
        }

        #[test]
        fn matches_the_oracle_on_cubes_and_windowed_views() {
            let mut rng = StdRng::seed_from_u64(0x57E98);
            let dims = CubeDims::new(7, 5, 33);
            let samples = samples(&mut rng, dims.pixels(), dims.bands);
            let cube = Arc::new(HyperCube::from_samples(dims, samples).unwrap());
            let views = [
                ("full cube", CubeView::full(Arc::clone(&cube))),
                (
                    "row band",
                    CubeView::window(Arc::clone(&cube), 1, 3).unwrap(),
                ),
                (
                    "last rows",
                    CubeView::window(Arc::clone(&cube), 3, 2).unwrap(),
                ),
                (
                    "single row",
                    CubeView::window(Arc::clone(&cube), 4, 1).unwrap(),
                ),
            ];
            for (what, view) in views {
                for components in [1, 3, 4] {
                    let spec = spec(&mut rng, view.bands(), components);
                    let pixels: Vec<&[f64]> = view.iter_pixels().collect();
                    assert_matches_oracle(&spec, &pixels, what);
                    // The public wrappers are the kernel and nothing else.
                    let mut projected = Vec::new();
                    project_pixels(
                        spec.mean.as_slice(),
                        &spec.transform,
                        view.iter_pixels(),
                        &mut projected,
                    );
                    let bits = |values: &[f64]| -> Vec<u64> {
                        values.iter().map(|v| v.to_bits()).collect()
                    };
                    let by_view = transform_view(&spec, &view).unwrap();
                    assert_eq!(bits(by_view.samples()), bits(&projected), "{what}");
                    let by_cube = transform_cube(&spec, &view.materialize()).unwrap();
                    assert_eq!(bits(by_cube.samples()), bits(&projected), "{what}");
                }
            }
        }
    }
}
