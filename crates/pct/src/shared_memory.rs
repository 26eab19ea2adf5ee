//! Shared-memory parallel implementation (rayon).
//!
//! Section 4 of the paper notes that on a shared-memory multiprocessor the
//! concurrent algorithm "operates within 5 % of linear speedup on a wide
//! range of problem sizes and machine sizes" because no communication is
//! involved.  This implementation reproduces that variant: the data-parallel
//! steps (screening, covariance accumulation, transformation, colour
//! mapping) run as rayon parallel folds over row blocks of the cube, while
//! the small sequential steps (merge, eigen-decomposition) stay on the
//! calling thread exactly as in the paper.

use crate::colormap::{map_cube, ComponentScale};
use crate::config::{FusionOutput, PctConfig};
use crate::pipeline::{finalize_transform, transform_view};
use crate::screening::{merge_unique_sets, screen_slices};
use crate::Result;
use hsi::partition::partition_views;
use hsi::{CubeView, HyperCube};
use linalg::covariance::{mean_vector, CovarianceAccumulator};
use rayon::prelude::*;
use std::sync::Arc;

/// The shared-memory fusion pipeline.
#[derive(Debug, Clone)]
pub struct SharedMemoryPct {
    config: PctConfig,
    /// Number of row blocks the data-parallel steps are split into.  More
    /// blocks than threads keeps the pool busy; the default matches rayon's
    /// current thread count times four.
    blocks: usize,
}

impl SharedMemoryPct {
    /// Creates a shared-memory pipeline using the global rayon pool.
    pub fn new(config: PctConfig) -> Self {
        Self {
            config,
            blocks: rayon::current_num_threads().max(1) * 4,
        }
    }

    /// Overrides the number of parallel row blocks.
    pub fn with_blocks(mut self, blocks: usize) -> Self {
        self.blocks = blocks.max(1);
        self
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PctConfig {
        &self.config
    }

    /// Runs the full pipeline on a borrowed cube.  The cube is copied once
    /// into shared storage at this ingestion boundary; `Arc` holders use
    /// [`SharedMemoryPct::run_shared`] and copy nothing.
    pub fn run(&self, cube: &HyperCube) -> Result<FusionOutput> {
        self.run_shared(&Arc::new(cube.clone()))
    }

    /// Runs the full pipeline over shared storage: the data-parallel steps
    /// read zero-copy row-band [`CubeView`]s instead of extracting owned
    /// sub-cubes per block (the pre-view implementation copied every block
    /// twice — once for screening, once for the transform).
    pub fn run_shared(&self, cube: &Arc<HyperCube>) -> Result<FusionOutput> {
        self.config.validate()?;
        let views: Vec<CubeView> = partition_views(cube, self.blocks)?;

        // Step 1 in parallel: each block screens its own pixels through its
        // view of the shared cube.
        let per_block_unique: Vec<Vec<linalg::Vector>> = views
            .par_iter()
            .map(|view| screen_slices(view.iter_pixels(), self.config.screening_angle_rad))
            .collect();

        // Step 2 sequentially at the "manager" (the calling thread).
        let unique = merge_unique_sets(per_block_unique, self.config.screening_angle_rad);
        let unique_count = unique.len();

        // Step 3 sequential (cheap), steps 4 in parallel over chunks of the
        // unique set, step 5 merge, step 6 sequential eigen.
        let mean = mean_vector(&unique)?;
        let chunk = (unique.len() / self.blocks.max(1)).max(1);
        let partials: Vec<CovarianceAccumulator> = unique
            .par_chunks(chunk)
            .map(|pixels| {
                let mut acc = CovarianceAccumulator::new(mean.clone());
                acc.push_all(pixels).expect("uniform band count");
                acc
            })
            .collect();
        let mut total = CovarianceAccumulator::new(mean.clone());
        for p in &partials {
            total.merge(p)?;
        }
        let covariance = total.finalize()?;
        let spec = finalize_transform(mean, &covariance, &self.config)?;

        // Step 7 in parallel over row-band views, reassembled into one cube.
        let transformed_blocks: Vec<(usize, HyperCube)> = views
            .par_iter()
            .map(|view| {
                (
                    view.row_start(),
                    transform_view(&spec, view).expect("band counts match"),
                )
            })
            .collect();
        let mut transformed = HyperCube::zeros(hsi::CubeDims::new(
            cube.width(),
            cube.height(),
            spec.components(),
        ));
        for (row_start, block) in &transformed_blocks {
            transformed.blit(0, *row_start, block)?;
        }

        // Step 8: eigenvalue-derived scales (known after step 6) then the
        // colour mapping; cheap relative to step 7.
        let scales = ComponentScale::from_eigenvalues(&spec.eigenvalues, 3);
        let image = map_cube(&transformed, &scales);

        Ok(FusionOutput {
            image,
            eigenvalues: spec.eigenvalues,
            unique_count,
            pixels: cube.pixels(),
        })
    }
}

impl Default for SharedMemoryPct {
    fn default() -> Self {
        Self::new(PctConfig::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialPct;
    use hsi::{SceneConfig, SceneGenerator};

    fn small_scene() -> HyperCube {
        SceneGenerator::new(SceneConfig::small(7))
            .unwrap()
            .generate()
    }

    #[test]
    fn shared_memory_output_matches_sequential_closely() {
        let cube = small_scene();
        let seq = SequentialPct::default().run(&cube).unwrap();
        let par = SharedMemoryPct::default().run(&cube).unwrap();
        assert_eq!(par.pixels, seq.pixels);
        // The unique sets can differ slightly because screening order differs
        // (per-block then merge), but the fused images must be visually
        // identical: tiny mean per-channel difference.
        let diff = seq.image.mean_abs_diff(&par.image).unwrap();
        assert!(diff < 10.0, "mean abs channel difference {diff}");
        // Variance compaction is preserved.
        assert!(par.variance_fraction(3) > 0.95);
    }

    #[test]
    fn block_count_does_not_change_the_result_materially() {
        let cube = small_scene();
        let a = SharedMemoryPct::default()
            .with_blocks(2)
            .run(&cube)
            .unwrap();
        let b = SharedMemoryPct::default()
            .with_blocks(8)
            .run(&cube)
            .unwrap();
        let diff = a.image.mean_abs_diff(&b.image).unwrap();
        assert!(diff < 10.0, "block-count sensitivity {diff}");
    }

    #[test]
    fn unique_count_is_close_to_sequential() {
        let cube = small_scene();
        let seq = SequentialPct::default().run(&cube).unwrap();
        let par = SharedMemoryPct::default().run(&cube).unwrap();
        let ratio = par.unique_count as f64 / seq.unique_count as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "unique counts diverge: {ratio}"
        );
    }

    #[test]
    fn without_screening_every_pixel_is_unique() {
        let cube = small_scene();
        let out = SharedMemoryPct::new(PctConfig::without_screening())
            .run(&cube)
            .unwrap();
        assert_eq!(out.unique_count, cube.pixels());
    }

    #[test]
    fn run_shared_copies_no_payload_and_matches_run() {
        let cube = Arc::new(small_scene());
        let ledger = hsi::CloneLedger::snapshot();
        let shared = SharedMemoryPct::default().run_shared(&cube).unwrap();
        assert_eq!(ledger.delta(), 0, "run_shared deep-copied payload bytes");
        let borrowed = SharedMemoryPct::default().run(&cube).unwrap();
        assert_eq!(shared.image, borrowed.image);
        assert_eq!(shared.unique_count, borrowed.unique_count);
    }

    #[test]
    fn single_block_degenerates_to_sequential_semantics() {
        let cube = small_scene();
        let seq = SequentialPct::default().run(&cube).unwrap();
        let par = SharedMemoryPct::default()
            .with_blocks(1)
            .run(&cube)
            .unwrap();
        assert_eq!(par.unique_count, seq.unique_count);
        assert_eq!(par.image, seq.image);
    }
}
