//! Sub-cube decomposition and granularity control.
//!
//! The distributed algorithm of the paper partitions the hyper-spectral cube
//! into sub-cubes that the manager hands to workers ("Each sub-problem is a
//! sub-cube of the hyper-spectral image set").  Figure 5 studies the effect
//! of decomposing into more sub-cubes than there are workers
//! (`#sub-cubes = #proc`, `#proc × 2`, `#proc × 3`): over-decomposition lets
//! a worker overlap the request for its next sub-problem with computation on
//! the current one, but too-fine granularity makes communication dominate.
//! The paper notes the 320×320×105 cube stops benefiting past ~32 sub-cubes.
//!
//! Sub-cubes are horizontal row bands of the image: contiguous rows keep the
//! BIP samples of a sub-cube contiguous in memory, which both the real
//! runtime (cheap copies) and the cost model (message size = contiguous byte
//! range) rely on.

use crate::cube::{CubeDims, HyperCube};
use crate::view::CubeView;
use crate::{HsiError, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How many sub-cubes to create for a given worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GranularityPolicy {
    /// Exactly one sub-cube per worker (`#sub-cube = #proc` in Figure 5).
    OnePerWorker,
    /// `multiplier` sub-cubes per worker (`#proc × 2`, `#proc × 3`, …).
    PerWorkerMultiple(
        /// Sub-cubes per worker.
        usize,
    ),
    /// A fixed total number of sub-cubes regardless of worker count.
    FixedTotal(
        /// Total number of sub-cubes.
        usize,
    ),
}

impl GranularityPolicy {
    /// The number of sub-cubes this policy produces for `workers` workers.
    pub fn sub_cube_count(&self, workers: usize) -> usize {
        let count = match self {
            GranularityPolicy::OnePerWorker => workers,
            GranularityPolicy::PerWorkerMultiple(m) => workers * m.max(&1),
            GranularityPolicy::FixedTotal(n) => *n,
        };
        count.max(1)
    }
}

/// Description of one sub-cube: a contiguous range of image rows.
///
/// The spec is what travels in control messages; the pixel payload itself is
/// extracted lazily with [`SubCubeSpec::extract`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubCubeSpec {
    /// Stable identifier (0-based, in row order).
    pub id: usize,
    /// First image row covered by this sub-cube.
    pub row_start: usize,
    /// Number of rows covered.
    pub rows: usize,
    /// Image width (columns) — every sub-cube spans the full width.
    pub width: usize,
    /// Number of spectral bands.
    pub bands: usize,
}

impl SubCubeSpec {
    /// Number of pixels in the sub-cube.
    pub fn pixels(&self) -> usize {
        self.rows * self.width
    }

    /// Number of `f64` samples in the sub-cube payload.
    pub fn samples(&self) -> usize {
        self.pixels() * self.bands
    }

    /// Payload size in bytes when shipped to a worker (used by the
    /// communication cost model).
    pub fn payload_bytes(&self) -> usize {
        self.samples() * std::mem::size_of::<f64>()
    }

    /// Extracts the pixel payload from the full cube as an owned deep copy.
    ///
    /// This is the pre-view code path, kept for true process/serialization
    /// boundaries and as the byte-identity reference the view property tests
    /// compare against.  The copy is charged to the clone ledger
    /// (`crate::view::cloned_bytes_total`); the in-process message plane
    /// uses [`SubCubeSpec::view`] instead, which copies nothing.
    pub fn extract(&self, cube: &HyperCube) -> Result<SubCube> {
        crate::view::charge_cloned_bytes(self.payload_bytes());
        let window = cube.window(0, self.row_start, self.width, self.rows)?;
        Ok(SubCube {
            spec: *self,
            data: window,
        })
    }

    /// A zero-copy [`CubeView`] of this sub-cube's window over the shared
    /// full cube: the payload the message plane ships instead of an owned
    /// [`SubCube`].
    pub fn view(&self, cube: &Arc<HyperCube>) -> Result<CubeView> {
        if self.bands != cube.bands() || self.width != cube.width() {
            return Err(HsiError::ShapeMismatch {
                expected: self.width * self.bands,
                actual: cube.width() * cube.bands(),
            });
        }
        CubeView::window(Arc::clone(cube), 0, self.row_start, self.width, self.rows)
    }
}

/// A sub-cube with its payload: the unit of work a worker receives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubCube {
    /// The spec describing where this sub-cube sits in the full image.
    pub spec: SubCubeSpec,
    /// The pixel payload.
    pub data: HyperCube,
}

/// Partitions a cube into `count` sub-cubes of (nearly) equal row counts.
///
/// Rows are distributed as evenly as possible: the first `height % count`
/// sub-cubes get one extra row.  When `count > height` the excess sub-cubes
/// are simply not produced (a sub-cube must contain at least one row), so the
/// returned vector may be shorter than requested — callers that care (the
/// granularity bench) check `len()`.
pub fn partition_rows(dims: CubeDims, count: usize) -> Result<Vec<SubCubeSpec>> {
    if dims.height == 0 || dims.width == 0 || dims.bands == 0 {
        return Err(HsiError::InvalidConfig(
            "cannot partition an empty cube".to_string(),
        ));
    }
    let count = count.max(1).min(dims.height);
    let base = dims.height / count;
    let extra = dims.height % count;
    let mut specs = Vec::with_capacity(count);
    let mut row = 0;
    for id in 0..count {
        let rows = base + usize::from(id < extra);
        specs.push(SubCubeSpec {
            id,
            row_start: row,
            rows,
            width: dims.width,
            bands: dims.bands,
        });
        row += rows;
    }
    debug_assert_eq!(row, dims.height);
    Ok(specs)
}

/// Partitions a shared cube into `count` zero-copy row-band views — the
/// view-based message plane's counterpart of [`partition_rows`].  The specs
/// and views are index-aligned (`views[i]` is `specs[i]`'s window).
pub fn partition_views(cube: &Arc<HyperCube>, count: usize) -> Result<Vec<CubeView>> {
    partition_rows(cube.dims(), count)?
        .iter()
        .map(|spec| spec.view(cube))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SceneConfig, SceneGenerator};

    #[test]
    fn policy_counts() {
        assert_eq!(GranularityPolicy::OnePerWorker.sub_cube_count(8), 8);
        assert_eq!(
            GranularityPolicy::PerWorkerMultiple(3).sub_cube_count(8),
            24
        );
        assert_eq!(GranularityPolicy::FixedTotal(32).sub_cube_count(8), 32);
        assert_eq!(GranularityPolicy::PerWorkerMultiple(0).sub_cube_count(8), 8);
        assert_eq!(GranularityPolicy::FixedTotal(0).sub_cube_count(8), 1);
    }

    #[test]
    fn partition_covers_every_row_exactly_once() {
        let dims = CubeDims::new(10, 37, 4);
        let specs = partition_rows(dims, 5).unwrap();
        assert_eq!(specs.len(), 5);
        let mut covered = vec![0usize; 37];
        for s in &specs {
            for c in &mut covered[s.row_start..s.row_start + s.rows] {
                *c += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn partition_is_balanced() {
        let dims = CubeDims::new(10, 100, 4);
        let specs = partition_rows(dims, 7).unwrap();
        let min = specs.iter().map(|s| s.rows).min().unwrap();
        let max = specs.iter().map(|s| s.rows).max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn partition_caps_at_row_count() {
        let dims = CubeDims::new(5, 3, 2);
        let specs = partition_rows(dims, 10).unwrap();
        assert_eq!(specs.len(), 3);
        assert!(specs.iter().all(|s| s.rows == 1));
    }

    #[test]
    fn partition_rejects_empty_cube() {
        assert!(partition_rows(CubeDims::new(0, 5, 3), 2).is_err());
        assert!(partition_rows(CubeDims::new(5, 0, 3), 2).is_err());
        assert!(partition_rows(CubeDims::new(5, 5, 0), 2).is_err());
    }

    #[test]
    fn spec_sizes_are_consistent() {
        let dims = CubeDims::new(320, 320, 105);
        let specs = partition_rows(dims, 16).unwrap();
        let total_samples: usize = specs.iter().map(|s| s.samples()).sum();
        assert_eq!(total_samples, dims.samples());
        assert_eq!(specs[0].payload_bytes(), specs[0].samples() * 8);
    }

    #[test]
    fn extract_and_blit_reassemble_the_original() {
        let gen = SceneGenerator::new(SceneConfig::small(9)).unwrap();
        let cube = gen.generate();
        let specs = partition_rows(cube.dims(), 5).unwrap();
        let mut rebuilt = HyperCube::zeros(cube.dims());
        for spec in &specs {
            let sub = spec.extract(&cube).unwrap();
            assert_eq!(sub.data.height(), spec.rows);
            rebuilt.blit(0, spec.row_start, &sub.data).unwrap();
        }
        assert_eq!(rebuilt, cube);
    }

    #[test]
    fn views_read_byte_identical_to_extracted_sub_cubes() {
        let gen = SceneGenerator::new(SceneConfig::small(9)).unwrap();
        let cube = Arc::new(gen.generate());
        let specs = partition_rows(cube.dims(), 7).unwrap();
        let views = partition_views(&cube, 7).unwrap();
        assert_eq!(specs.len(), views.len());
        for (spec, view) in specs.iter().zip(&views) {
            let owned = spec.extract(&cube).unwrap();
            assert_eq!(view.row_start(), spec.row_start);
            assert_eq!(view.dims(), owned.data.dims());
            assert_eq!(view.materialize(), owned.data);
            assert_eq!(view.pixel_vectors(), owned.data.pixel_vectors());
        }
    }

    #[test]
    fn view_rejects_mismatched_storage() {
        let spec = SubCubeSpec {
            id: 0,
            row_start: 0,
            rows: 2,
            width: 4,
            bands: 3,
        };
        let other = Arc::new(HyperCube::zeros(CubeDims::new(4, 4, 2)));
        assert!(spec.view(&other).is_err());
        let narrow = Arc::new(HyperCube::zeros(CubeDims::new(3, 4, 3)));
        assert!(spec.view(&narrow).is_err());
    }

    #[test]
    fn paper_granularity_tail_off_point_is_representable() {
        // The paper says performance tails off past 32 sub-cubes for the
        // 320x320x105 cube; make sure that decomposition exists and is valid.
        let dims = CubeDims::paper_eval();
        let specs = partition_rows(dims, 32).unwrap();
        assert_eq!(specs.len(), 32);
        assert_eq!(specs.iter().map(|s| s.rows).sum::<usize>(), 320);
    }
}
