//! Tests of the paper's shared-memory variant.
//!
//! Section 4 of the paper notes that on a shared-memory multiprocessor the
//! concurrent algorithm "operates within 5 % of linear speedup on a wide
//! range of problem sizes and machine sizes" because no communication is
//! involved.  That variant is no type of its own here: it is the paper's
//! [`Plan`] over row shards, run by [`Plan::run_in_process`] — each fan-out
//! (screening, covariance sums, transform and colour mapping) in parallel on
//! the rayon pool, the merge and the eigen-decomposition on the calling
//! thread, exactly as in the paper.  Its output is the paper protocol's over
//! the same shards, byte for byte, whatever the pool size; these tests hold
//! it to the sequential reference.
//!
//! [`Plan`]: crate::plan::Plan
//! [`Plan::run_in_process`]: crate::plan::Plan::run_in_process

#[cfg(test)]
mod tests {
    use crate::config::{FusionOutput, PctConfig};
    use crate::plan::{Plan, Protocol};
    use crate::sequential::SequentialPct;
    use hsi::partition::partition_rows;
    use hsi::{HyperCube, SceneConfig, SceneGenerator};
    use std::sync::Arc;

    /// The shard count of the comparisons with the sequential reference.
    const SHARDS: usize = 8;

    fn small_scene() -> Arc<HyperCube> {
        Arc::new(
            SceneGenerator::new(SceneConfig::small(7))
                .unwrap()
                .generate(),
        )
    }

    /// The paper's protocol over `shards` row shards, run in process.
    fn paper_plan(cube: &Arc<HyperCube>, config: PctConfig, shards: usize) -> FusionOutput {
        let shards = partition_rows(cube.dims(), shards).unwrap();
        Plan::new(Protocol::Paper, Arc::clone(cube), config, shards)
            .run_in_process()
            .unwrap()
    }

    #[test]
    fn shared_memory_output_matches_sequential_closely() {
        let cube = small_scene();
        let seq = SequentialPct::default().run(&cube).unwrap();
        let par = paper_plan(&cube, PctConfig::paper(), SHARDS);
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
        let a = paper_plan(&cube, PctConfig::paper(), 2);
        let b = paper_plan(&cube, PctConfig::paper(), 8);
        let diff = a.image.mean_abs_diff(&b.image).unwrap();
        assert!(diff < 10.0, "block-count sensitivity {diff}");
    }

    #[test]
    fn unique_count_is_close_to_sequential() {
        let cube = small_scene();
        let seq = SequentialPct::default().run(&cube).unwrap();
        let par = paper_plan(&cube, PctConfig::paper(), SHARDS);
        let ratio = par.unique_count as f64 / seq.unique_count as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "unique counts diverge: {ratio}"
        );
    }

    #[test]
    fn without_screening_every_pixel_is_unique() {
        let cube = small_scene();
        let out = paper_plan(&cube, PctConfig::without_screening(), SHARDS);
        assert_eq!(out.unique_count, cube.pixels());
    }

    /// Every task reads a zero-copy row band of the shared cube, and the
    /// output does not depend on the size of the pool that ran it.
    #[test]
    fn an_in_process_run_copies_no_payload_and_ignores_the_pool_size() {
        let cube = small_scene();
        let ledger = hsi::CloneLedger::snapshot();
        let shared = paper_plan(&cube, PctConfig::paper(), SHARDS);
        assert_eq!(ledger.delta(), 0, "the run deep-copied payload bytes");
        for threads in [1, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let other = pool.install(|| paper_plan(&cube, PctConfig::paper(), SHARDS));
            assert_eq!(other, shared, "{threads} threads");
        }
    }

    #[test]
    fn single_block_degenerates_to_sequential_semantics() {
        let cube = small_scene();
        let seq = SequentialPct::default().run(&cube).unwrap();
        assert_eq!(paper_plan(&cube, PctConfig::paper(), 1), seq);
    }
}
