//! Shared-memory parallel implementation (rayon).
//!
//! Section 4 of the paper notes that on a shared-memory multiprocessor the
//! concurrent algorithm "operates within 5 % of linear speedup on a wide
//! range of problem sizes and machine sizes" because no communication is
//! involved.  This implementation is that variant: the paper's [`Plan`]
//! over four row shards per rayon thread, run by [`Plan::run_in_process`] —
//! each fan-out (screening, covariance sums, transform and colour mapping)
//! in parallel on the pool, the merge and the eigen-decomposition on the
//! calling thread, exactly as in the paper.  The manager is the
//! message-passing implementation's, so the output is the paper protocol's
//! over the same shards, byte for byte.

use crate::config::{FusionOutput, PctConfig};
use crate::plan::{Plan, Protocol};
use crate::Result;
use hsi::partition::partition_rows;
use hsi::HyperCube;
use std::sync::Arc;

/// The shared-memory fusion pipeline.
#[derive(Debug, Clone)]
pub struct SharedMemoryPct {
    config: PctConfig,
}

impl SharedMemoryPct {
    /// Creates a shared-memory pipeline on the current rayon pool.
    pub fn new(config: PctConfig) -> Self {
        Self { config }
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

    /// Runs the full pipeline over shared storage: every task reads a
    /// zero-copy row-band view of `cube`.  The cube is cut into four shards
    /// per thread of the current rayon pool, which keeps the pool busy.
    pub fn run_shared(&self, cube: &Arc<HyperCube>) -> Result<FusionOutput> {
        self.config.validate()?;
        let shards = partition_rows(cube.dims(), rayon::current_num_threads() * 4)?;
        Plan::new(Protocol::Paper, Arc::clone(cube), self.config, shards).run_in_process()
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

    /// The paper's protocol over `shards` row shards, run in process.
    fn paper_plan(cube: &HyperCube, shards: usize) -> FusionOutput {
        let shards = partition_rows(cube.dims(), shards).unwrap();
        Plan::new(
            Protocol::Paper,
            Arc::new(cube.clone()),
            PctConfig::paper(),
            shards,
        )
        .run_in_process()
        .unwrap()
    }

    #[test]
    fn block_count_does_not_change_the_result_materially() {
        let cube = small_scene();
        let (a, b) = (paper_plan(&cube, 2), paper_plan(&cube, 8));
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
        assert_eq!(paper_plan(&cube, 1), seq);
    }
}
