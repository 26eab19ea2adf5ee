//! Calibrated cost model for the spectral-screening PCT workload.
//!
//! Figure 4 and Figure 5 of the paper are wall-clock measurements on 300 MHz
//! Sun workstations.  To regenerate their *shape* on a simulator we need a
//! translation from workload parameters (pixels, bands, sub-cube sizes,
//! unique-set sizes) to compute seconds and message bytes.  The flop counts
//! below follow directly from the eight algorithm steps; the sustained
//! floating-point rate is calibrated so the single-processor time of the
//! 320×320×105 cube lands in the few-hundred-second range shown on the
//! paper's log-scale time axis.  Absolute seconds are not the claim — the
//! speed-up ratios and the granularity crossovers are.

use crate::time::Duration;
use serde::{Deserialize, Serialize};

/// The cost model used by the DES-driven PCT implementation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Sustained floating-point rate of one worker CPU (ops/second).
    pub flops: f64,
    /// Bytes per raw sensor sample on the wire (HYDICE delivers 16-bit
    /// samples, so 2).
    pub bytes_per_sample: u64,
    /// Average number of unique-set candidates each pixel is compared
    /// against during spectral screening (step 1).
    pub screen_comparisons: f64,
    /// Average number of merged-set candidates each unique vector is
    /// compared against during the manager's merge (step 2).
    pub merge_comparisons: f64,
    /// Fraction of pixels that survive screening into the unique set.
    pub unique_fraction: f64,
    /// Number of principal components produced per pixel in step 7.  The
    /// colour mapping needs three; producing only the leading components is
    /// the standard optimisation and what the flop budget assumes.
    pub output_components: usize,
    /// Fixed per-task software overhead at a worker (unmarshalling the
    /// sub-problem, setting up buffers, marshalling the result), in seconds.
    /// This is what makes very fine granularity counter-productive in
    /// Figure 5.
    pub per_task_overhead_secs: f64,
}

impl CostModel {
    /// The calibration used for reproducing the paper's figures.
    pub fn paper() -> Self {
        Self {
            // The paper's testbed: 300 MHz UltraSPARC workstations.  The
            // sustained rate on cache-unfriendly image code of that era is
            // far below peak; 12 MFLOP/s reproduces the magnitude of the
            // reported runtimes.
            flops: 12.0e6,
            bytes_per_sample: 2,
            screen_comparisons: 60.0,
            merge_comparisons: 6.0,
            unique_fraction: 0.02,
            output_components: 3,
            per_task_overhead_secs: 0.15,
        }
    }

    /// Converts a floating-point operation count into reference CPU time.
    pub fn work(&self, flop_count: f64) -> Duration {
        if self.flops <= 0.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(flop_count.max(0.0) / self.flops)
    }

    // ----- per-step compute costs -------------------------------------------------

    /// Step 1: spectral-angle screening of `pixels` pixel vectors with
    /// `bands` bands.  Each comparison is a dot product plus two norms
    /// (≈ 6·bands flops including the arccos).
    pub fn screening_work(&self, pixels: usize, bands: usize) -> Duration {
        self.work(pixels as f64 * self.screen_comparisons * 6.0 * bands as f64)
    }

    /// Step 2: merging `parts` unique sets of roughly `unique_pixels` total
    /// vectors at the manager (pairwise angle checks against the merged set).
    pub fn merge_work(&self, unique_pixels: usize, bands: usize) -> Duration {
        self.work(unique_pixels as f64 * self.merge_comparisons * 6.0 * bands as f64)
    }

    /// Fixed per-task software overhead (marshalling, scheduling) charged at
    /// the worker for every sub-problem it handles.
    pub fn per_task_overhead(&self) -> Duration {
        Duration::from_secs_f64(self.per_task_overhead_secs)
    }

    /// Step 3: mean vector over the unique set.
    pub fn mean_work(&self, unique_pixels: usize, bands: usize) -> Duration {
        self.work(unique_pixels as f64 * bands as f64 * 2.0)
    }

    /// Step 4: centred outer-product accumulation over one worker's share of
    /// the unique set (`unique_pixels` vectors): `bands·(bands+1)` flops per
    /// vector for the packed upper triangle.
    pub fn covariance_work(&self, unique_pixels: usize, bands: usize) -> Duration {
        self.work(unique_pixels as f64 * (bands as f64) * (bands as f64 + 1.0))
    }

    /// Step 5: averaging `parts` partial covariance matrices at the manager.
    pub fn covariance_reduce_work(&self, parts: usize, bands: usize) -> Duration {
        self.work(parts as f64 * (bands as f64) * (bands as f64))
    }

    /// Step 6: Jacobi eigen-decomposition of the `bands × bands` covariance
    /// matrix (≈ 12 n³ for a handful of sweeps), executed sequentially by the
    /// manager as in the paper.
    pub fn eigen_work(&self, bands: usize) -> Duration {
        self.work(12.0 * (bands as f64).powi(3))
    }

    /// Step 7: transforming `pixels` pixel vectors into
    /// `output_components` principal components (2·bands flops per output
    /// component per pixel, plus the centring subtraction).
    pub fn transform_work(&self, pixels: usize, bands: usize) -> Duration {
        self.work(
            pixels as f64 * (self.output_components as f64 * 2.0 * bands as f64 + bands as f64),
        )
    }

    /// Step 8: human-centred colour mapping of `pixels` pixels (a 3×3 matrix
    /// multiply plus clamping per pixel).
    pub fn colormap_work(&self, pixels: usize) -> Duration {
        self.work(pixels as f64 * 30.0)
    }

    /// Expected number of unique-set vectors produced by screening `pixels`
    /// pixels.
    pub fn unique_pixels(&self, pixels: usize) -> usize {
        ((pixels as f64 * self.unique_fraction).round() as usize).max(1)
    }

    // ----- message sizes ----------------------------------------------------------

    /// Bytes of a raw sub-cube payload sent from the manager to a worker.
    pub fn subcube_bytes(&self, pixels: usize, bands: usize) -> u64 {
        pixels as u64 * bands as u64 * self.bytes_per_sample
    }

    /// Bytes of a unique set of `unique_pixels` vectors returned to the
    /// manager after step 1.
    pub fn unique_set_bytes(&self, unique_pixels: usize, bands: usize) -> u64 {
        unique_pixels as u64 * bands as u64 * self.bytes_per_sample
    }

    /// Bytes of the broadcast carrying the mean vector and transformation
    /// matrix to each worker before step 7 (stored as f64).
    pub fn transform_broadcast_bytes(&self, bands: usize) -> u64 {
        ((bands * bands + bands) * std::mem::size_of::<f64>()) as u64
    }

    /// Bytes of one packed partial covariance sum returned after step 4.
    pub fn covariance_bytes(&self, bands: usize) -> u64 {
        (bands * (bands + 1) / 2 * std::mem::size_of::<f64>()) as u64
    }

    /// Bytes of the fused colour result for `pixels` pixels returned after
    /// step 8 (3 bytes per pixel).
    pub fn result_bytes(&self, pixels: usize) -> u64 {
        pixels as u64 * 3
    }

    /// Bytes of a small control message (work request, acknowledgement,
    /// heartbeat).
    pub fn control_bytes(&self) -> u64 {
        64
    }

    /// Total single-processor compute time for a full image of
    /// `pixels × bands` — the denominator of every speed-up number.
    pub fn sequential_total(&self, pixels: usize, bands: usize) -> Duration {
        let unique = self.unique_pixels(pixels);
        self.screening_work(pixels, bands)
            + self.merge_work(unique, bands)
            + self.mean_work(unique, bands)
            + self.covariance_work(unique, bands)
            + self.covariance_reduce_work(1, bands)
            + self.eigen_work(bands)
            + self.transform_work(pixels, bands)
            + self.colormap_work(pixels)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PIXELS: usize = 320 * 320;
    const BANDS: usize = 105;

    #[test]
    fn work_is_linear_in_flops() {
        let m = CostModel::paper();
        let a = m.work(1e6).as_secs_f64();
        let b = m.work(2e6).as_secs_f64();
        assert!((b - 2.0 * a).abs() < 1e-9);
    }

    #[test]
    fn negative_or_zero_flops_cost_nothing() {
        let m = CostModel::paper();
        assert_eq!(m.work(-5.0), Duration::ZERO);
        let broken = CostModel {
            flops: 0.0,
            ..CostModel::paper()
        };
        assert_eq!(broken.work(1e9), Duration::ZERO);
    }

    #[test]
    fn sequential_total_is_in_the_papers_ballpark() {
        // Figure 4 shows the single-processor run of the 320x320x105 cube
        // taking on the order of hundreds of seconds (log-scale axis up to
        // 1000+).  The calibrated model must land in that range.
        let t = CostModel::paper()
            .sequential_total(PIXELS, BANDS)
            .as_secs_f64();
        assert!(t > 100.0, "sequential time {t} unrealistically small");
        assert!(t < 2000.0, "sequential time {t} unrealistically large");
    }

    #[test]
    fn transform_dominates_eigen_at_paper_scale() {
        // The paper notes that although step 6 is O(n^3), at 210 frames it
        // does not dominate the overall time.
        let m = CostModel::paper();
        assert!(m.transform_work(PIXELS, 210) > m.eigen_work(210));
    }

    #[test]
    fn per_step_costs_scale_with_problem_size() {
        let m = CostModel::paper();
        assert!(m.screening_work(PIXELS, BANDS) > m.screening_work(PIXELS / 2, BANDS));
        assert!(m.covariance_work(1000, BANDS) > m.covariance_work(1000, BANDS / 2));
        assert!(m.eigen_work(210) > m.eigen_work(105));
    }

    #[test]
    fn unique_pixels_respects_fraction_and_floor() {
        let m = CostModel::paper();
        assert_eq!(m.unique_pixels(1000), 20);
        assert_eq!(m.unique_pixels(0), 1);
    }

    #[test]
    fn message_sizes_match_layouts() {
        let m = CostModel::paper();
        assert_eq!(m.subcube_bytes(100, 105), 100 * 105 * 2);
        assert_eq!(m.covariance_bytes(105), 105 * 106 / 2 * 8);
        assert_eq!(m.transform_broadcast_bytes(105), (105 * 105 + 105) * 8);
        assert_eq!(m.result_bytes(100), 300);
        assert!(m.control_bytes() < 1000);
        assert!(m.per_task_overhead().as_secs_f64() > 0.0);
    }

    #[test]
    fn full_cube_transfer_is_tens_of_megabytes() {
        // 320x320x105 at 2 bytes/sample is about 21.5 MB, which over the
        // paper's effective LAN throughput is a few seconds — noticeable but
        // small compared with compute, which is why the paper sees
        // near-linear speed-up while granularity (Figure 5) still matters.
        let m = CostModel::paper();
        let bytes = m.subcube_bytes(PIXELS, BANDS);
        assert!(bytes > 20_000_000 && bytes < 25_000_000);
    }
}
