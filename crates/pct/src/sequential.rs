//! The sequential reference implementation of the eight-step pipeline.
//!
//! Every concurrent implementation is validated against this one: same
//! unique-set rule, same statistics, same transform, same colour mapping —
//! just executed on one thread in step order.

use crate::colormap::{map_cube, ComponentScale};
use crate::config::{FusionOutput, PctConfig};
use crate::pipeline::{derive_transform, transform_cube, TransformSpec};
use crate::screening::screen_slices;
use crate::Result;
use hsi::HyperCube;
use std::sync::Arc;

/// The sequential fusion pipeline.
#[derive(Debug, Clone)]
pub struct SequentialPct {
    config: PctConfig,
}

impl SequentialPct {
    /// Creates a sequential pipeline with the given configuration.
    pub fn new(config: PctConfig) -> Self {
        Self { config }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PctConfig {
        &self.config
    }

    /// Runs steps 1–6 only, returning the derived transform together with
    /// the unique-set size.  Exposed so tests and ablations can inspect the
    /// statistics phase without paying for the full transform.
    pub fn derive(&self, cube: &HyperCube) -> Result<(TransformSpec, usize)> {
        let unique = screen_slices(cube.iter_pixels(), self.config.screening_angle_rad);
        let spec = derive_transform(&unique, &self.config)?;
        Ok((spec, unique.len()))
    }

    /// Runs the full pipeline and produces the fused colour composite.
    pub fn run(&self, cube: &HyperCube) -> Result<FusionOutput> {
        self.config.validate()?;
        let (spec, unique_count) = self.derive(cube)?;
        let transformed = transform_cube(&spec, cube)?;
        let scales = ComponentScale::from_eigenvalues(&spec.eigenvalues, 3);
        let image = map_cube(&transformed, &scales);
        Ok(FusionOutput {
            image,
            eigenvalues: spec.eigenvalues,
            unique_count,
            pixels: cube.pixels(),
        })
    }

    /// Runs the full pipeline over shared storage.  Sequential execution
    /// never partitions, so this is already zero-copy; it exists so the
    /// reference implementation has the same shared entry point as the
    /// concurrent ones.
    pub fn run_shared(&self, cube: &Arc<HyperCube>) -> Result<FusionOutput> {
        self.run(cube)
    }
}

impl Default for SequentialPct {
    fn default() -> Self {
        Self::new(PctConfig::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi::{SceneConfig, SceneGenerator};

    fn small_scene() -> HyperCube {
        SceneGenerator::new(SceneConfig::small(42))
            .unwrap()
            .generate()
    }

    #[test]
    fn full_pipeline_produces_image_of_scene_size() {
        let cube = small_scene();
        let out = SequentialPct::default().run(&cube).unwrap();
        assert_eq!(out.image.width(), cube.width());
        assert_eq!(out.image.height(), cube.height());
        assert_eq!(out.pixels, cube.pixels());
    }

    #[test]
    fn screening_reduces_the_unique_set() {
        let cube = small_scene();
        let out = SequentialPct::default().run(&cube).unwrap();
        assert!(out.unique_count > 0);
        assert!(
            out.unique_count < cube.pixels(),
            "screening kept all {} pixels",
            out.unique_count
        );
    }

    #[test]
    fn leading_components_capture_most_variance() {
        // The paper's premise: hyper-spectral bands are highly redundant, so
        // three principal components carry nearly everything.
        let cube = small_scene();
        let out = SequentialPct::default().run(&cube).unwrap();
        assert!(
            out.variance_fraction(3) > 0.95,
            "first three components only carry {}",
            out.variance_fraction(3)
        );
    }

    #[test]
    fn fused_image_has_contrast() {
        let cube = small_scene();
        let out = SequentialPct::default().run(&cube).unwrap();
        assert!(out.image.rms_contrast() > 10.0);
    }

    #[test]
    fn fusion_is_deterministic() {
        let cube = small_scene();
        let a = SequentialPct::default().run(&cube).unwrap();
        let b = SequentialPct::default().run(&cube).unwrap();
        assert_eq!(a.image, b.image);
        assert_eq!(a.unique_count, b.unique_count);
    }

    #[test]
    fn disabling_screening_keeps_every_pixel() {
        let cube = small_scene();
        let out = SequentialPct::new(PctConfig::without_screening())
            .run(&cube)
            .unwrap();
        assert_eq!(out.unique_count, cube.pixels());
    }

    #[test]
    fn camouflaged_target_region_differs_from_forest_in_fused_image() {
        // The paper's qualitative claim for Figure 3: the camouflaged vehicle
        // is enhanced against its background.  Compare the fused colour at a
        // target pixel with the median background colour.
        let generator = SceneGenerator::new(SceneConfig::small(42)).unwrap();
        let (cube, truth) = generator.generate_with_truth();
        let out = SequentialPct::default().run(&cube).unwrap();
        let width = cube.width();
        let mut target_px = None;
        let mut forest_px = None;
        for (idx, material) in truth.iter().enumerate() {
            let (x, y) = (idx % width, idx / width);
            match material {
                hsi::Material::CamouflageNet if target_px.is_none() => {
                    target_px = Some(out.image.get(x, y).unwrap())
                }
                hsi::Material::Forest if forest_px.is_none() => {
                    forest_px = Some(out.image.get(x, y).unwrap())
                }
                _ => {}
            }
        }
        let t = target_px.expect("target present");
        let f = forest_px.expect("forest present");
        let dist: i32 = (0..3).map(|c| (t[c] as i32 - f[c] as i32).abs()).sum();
        assert!(
            dist > 20,
            "target and forest colours too similar: {t:?} vs {f:?}"
        );
    }

    #[test]
    fn derive_only_matches_full_run_statistics() {
        let cube = small_scene();
        let pct = SequentialPct::default();
        let (spec, unique) = pct.derive(&cube).unwrap();
        let out = pct.run(&cube).unwrap();
        assert_eq!(out.unique_count, unique);
        assert_eq!(out.eigenvalues, spec.eigenvalues);
    }
}
