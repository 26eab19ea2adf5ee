//! Zero-copy, `Arc`-backed row bands of a [`HyperCube`].
//!
//! The distributed protocols ship every sub-cube to workers twice per run
//! (screening and transform phases).  A sub-cube is a run of whole image
//! rows ([`crate::partition::partition_rows`]), and a [`CubeView`] is
//! exactly that: the full cube behind an `Arc`, the band's first row and
//! its row count.  Cloning a view — and therefore cloning any task message
//! built from one — moves a reference count, not pixels.  Every row of a
//! band spans the full width and every spectral band, so a view's samples
//! are one contiguous slice of the backing cube's BIP storage.
//!
//! The module also keeps the process-wide **clone ledger**: every deep copy
//! of sub-cube payload bytes goes through [`CubeView::copy_runs`] (and
//! [`CubeView::materialize`] on top of it), which charges it.  Pipelines and
//! the service layer read deltas of this ledger to report `bytes_cloned`,
//! which is how the zero-copy claim is measured rather than asserted.

use crate::cube::{CubeDims, HyperCube};
use crate::{HsiError, Result};
use linalg::Vector;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of sub-cube payload bytes that were deep-copied.
static CLONE_LEDGER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread mirror of [`CLONE_LEDGER`].  Serialization boundaries
    /// (the `wire` codec) assert "encode copied payload only via
    /// [`CubeView::copy_runs`]" by comparing a before/after delta of this
    /// counter against the encoded views' payload bytes; the thread-local
    /// mirror makes that exact equality race-free even while other threads
    /// materialize concurrently.
    static THREAD_CLONE_LEDGER: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Process-wide count of payload bytes streamed *directly into* shared cube
/// storage by an ingestion path (decoded in place, never copied again).
static ASSEMBLY_LEDGER: AtomicU64 = AtomicU64::new(0);

/// Charges `bytes` of deep-copied sub-cube payload to the clone ledger.
pub(crate) fn charge_cloned_bytes(bytes: usize) {
    CLONE_LEDGER.fetch_add(bytes as u64, Ordering::Relaxed);
    THREAD_CLONE_LEDGER.with(|c| c.set(c.get() + bytes as u64));
}

/// Total sub-cube payload bytes deep-copied by this process so far.
pub(crate) fn cloned_bytes_total() -> u64 {
    CLONE_LEDGER.load(Ordering::Relaxed)
}

/// Sub-cube payload bytes deep-copied *by the calling thread* so far.  The
/// wire codec's encode path snapshots this around serialization to
/// `debug_assert` that copying out the message's views is the only copy it
/// performed — see the wire-invariant note on [`CubeView`].
pub fn thread_cloned_bytes_total() -> u64 {
    THREAD_CLONE_LEDGER.with(|c| c.get())
}

/// Charges `bytes` of streamed payload that were decoded directly into
/// their final position in shared cube storage.  Ingestion decoders call
/// this once per assembled sample run; together with a zero
/// [`CloneLedger::delta`] it *measures* the claim that streaming assembly
/// involves no post-assembly copy.
pub fn charge_assembled_bytes(bytes: usize) {
    ASSEMBLY_LEDGER.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Total payload bytes assembled in place by this process so far.
pub(crate) fn assembled_bytes_total() -> u64 {
    ASSEMBLY_LEDGER.load(Ordering::Relaxed)
}

/// A snapshot of the clone and assembly ledgers; [`CloneLedger::delta`]
/// measures the payload bytes deep-copied since the snapshot was taken and
/// [`CloneLedger::assembled_delta`] the bytes streamed straight into shared
/// storage.
#[derive(Debug, Clone, Copy)]
pub struct CloneLedger {
    cloned: u64,
    assembled: u64,
}

impl CloneLedger {
    /// Snapshots the current ledger values.
    pub fn snapshot() -> Self {
        Self {
            cloned: cloned_bytes_total(),
            assembled: assembled_bytes_total(),
        }
    }

    /// Payload bytes deep-copied since this snapshot.
    pub fn delta(&self) -> u64 {
        cloned_bytes_total().saturating_sub(self.cloned)
    }

    /// Payload bytes assembled in place since this snapshot.
    pub fn assembled_delta(&self) -> u64 {
        assembled_bytes_total().saturating_sub(self.assembled)
    }
}

/// A zero-copy row band of a shared [`HyperCube`]: the rows
/// `[row_start, row_start + height)`, every column, every band.
///
/// Cloning a view is an `Arc` reference-count bump; the pixel data is never
/// duplicated until [`CubeView::copy_runs`] or [`CubeView::materialize`] is
/// called (which charge the clone ledger).
///
/// # The wire invariant
///
/// [`CubeView::copy_runs`] is the **only** path by which view payload
/// leaves the shared storage.  The `wire` codec relies on this: encoding a
/// message copies each embedded view's samples straight into the frame
/// body, so the clone-ledger delta across an encode equals exactly the sum
/// of the encoded views' [`CubeView::payload_bytes`] — no hidden copy is
/// possible without moving the ledger.  The encode path `debug_assert`s this
/// reconciliation, turning "zero-copy except at the serialization boundary"
/// from a convention into a checked invariant.
///
/// On the decode side a view is rebuilt over its own freshly-owned shard
/// cube with [`CubeView::standalone`], which preserves the band's original
/// scene row ([`CubeView::row_start`]) so workers across a process boundary
/// label results — e.g. `RgbStrip::row_start` — identically to in-process
/// workers sharing the full cube.
#[derive(Debug, Clone)]
pub struct CubeView {
    storage: Arc<HyperCube>,
    /// First row of the band in the backing storage.
    y0: usize,
    height: usize,
    /// Scene row the band starts at.  Equal to `y0` for views into the
    /// scene cube; a decoded standalone view has `y0 == 0` (its storage
    /// *is* the shard) but keeps the scene row here so coordinate-dependent
    /// results stay identical across the wire.
    row_start: usize,
}

impl CubeView {
    /// A view of the whole cube.
    pub fn full(storage: Arc<HyperCube>) -> Self {
        Self::standalone(storage, 0)
    }

    /// A full view over an owned shard cube that reports the scene row
    /// `row_start` the shard was cut from.  This is the decode-side
    /// constructor of the wire codec: the shard's samples were copied into
    /// the frame on the sending side, so the receiver owns a standalone
    /// cube but must still answer [`CubeView::row_start`] with the original
    /// band position for results to be byte-identical to in-process
    /// execution.
    pub fn standalone(storage: Arc<HyperCube>, row_start: usize) -> Self {
        let height = storage.height();
        Self {
            storage,
            y0: 0,
            height,
            row_start,
        }
    }

    /// A view of the row band `[y0, y0 + height)` of `storage`.
    pub fn window(storage: Arc<HyperCube>, y0: usize, height: usize) -> Result<Self> {
        if y0 + height > storage.height() {
            return Err(HsiError::OutOfBounds {
                what: "view y extent",
                index: y0 + height,
                bound: storage.height(),
            });
        }
        Ok(Self {
            storage,
            y0,
            height,
            row_start: y0,
        })
    }

    /// The backing storage the view shares.
    pub fn storage(&self) -> &Arc<HyperCube> {
        &self.storage
    }

    /// Dimensions of the *viewed* band (not the backing cube).
    pub fn dims(&self) -> CubeDims {
        CubeDims::new(self.width(), self.height, self.bands())
    }

    /// Width of the band in pixels: the backing cube's width.
    pub fn width(&self) -> usize {
        self.storage.width()
    }

    /// Height of the band in rows.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of spectral bands: the backing cube's.
    pub fn bands(&self) -> usize {
        self.storage.bands()
    }

    /// First *scene* row of the band (the sub-cube's `row_start`).  This
    /// survives a trip across the wire even though the decoded view's
    /// backing storage starts at row zero.
    pub fn row_start(&self) -> usize {
        self.row_start
    }

    /// Number of pixels in the band.
    pub fn pixels(&self) -> usize {
        self.width() * self.height
    }

    /// Number of samples the view exposes.
    pub fn samples(&self) -> usize {
        self.pixels() * self.bands()
    }

    /// Payload size in bytes if this view were materialized or shipped by
    /// value — the amount the zero-copy message plane *avoids* cloning.
    pub fn payload_bytes(&self) -> usize {
        self.samples() * std::mem::size_of::<f64>()
    }

    /// The band's samples: one contiguous slice of the shared storage.
    fn run(&self) -> &[f64] {
        let row = self.width() * self.bands();
        &self.storage.samples()[self.y0 * row..(self.y0 + self.height) * row]
    }

    /// The spectral samples of view pixel `(x, y)` — a borrow of the shared
    /// storage, no copy.
    pub fn pixel(&self, x: usize, y: usize) -> Result<&[f64]> {
        if x >= self.width() {
            return Err(HsiError::OutOfBounds {
                what: "view x",
                index: x,
                bound: self.width(),
            });
        }
        if y >= self.height {
            return Err(HsiError::OutOfBounds {
                what: "view y",
                index: y,
                bound: self.height,
            });
        }
        let off = (y * self.width() + x) * self.bands();
        Ok(&self.run()[off..off + self.bands()])
    }

    /// Iterates the band's pixel slices in row-major order, without copying.
    pub fn iter_pixels(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.run().chunks_exact(self.bands().max(1))
    }

    /// Collects every pixel of the band as an owned [`Vector`] (the
    /// pixel-vector type the screening and transform kernels operate on).
    pub fn pixel_vectors(&self) -> Vec<Vector> {
        self.iter_pixels().map(Vector::from).collect()
    }

    /// Hands the band's samples to `sink` as the one contiguous run they
    /// are (BIP, row-major) and returns what `sink` returns.  This is the
    /// only way pixel data leaves the shared storage — a true process or
    /// serialization boundary — so the whole payload is charged to the
    /// clone ledger: a serializer copies the run straight into its output
    /// with no owned cube in between.
    pub fn copy_runs<R>(&self, sink: impl FnOnce(&[f64]) -> R) -> R {
        charge_cloned_bytes(self.payload_bytes());
        sink(self.run())
    }

    /// Deep-copies the band into an owned cube: [`CubeView::copy_runs`]
    /// into fresh storage, charged to the clone ledger the same way.
    pub fn materialize(&self) -> HyperCube {
        HyperCube::from_samples(self.dims(), self.copy_runs(<[f64]>::to_vec))
            .expect("view dims are consistent")
    }
}

impl PartialEq for CubeView {
    /// Views are equal when they expose the same dimensions and the same
    /// sample values — regardless of which storage or offsets back them.
    fn eq(&self, other: &Self) -> bool {
        self.dims() == other.dims() && self.run() == other.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coded_cube(width: usize, height: usize, bands: usize) -> Arc<HyperCube> {
        // Sample value encodes (x, y, band) uniquely.
        let dims = CubeDims::new(width, height, bands);
        let mut cube = HyperCube::zeros(dims);
        for y in 0..height {
            for x in 0..width {
                let v: Vec<f64> = (0..bands)
                    .map(|b| (x * 10_000 + y * 100 + b) as f64)
                    .collect();
                cube.set_pixel(x, y, &v).unwrap();
            }
        }
        Arc::new(cube)
    }

    #[test]
    fn full_view_exposes_the_whole_cube() {
        let cube = coded_cube(4, 3, 2);
        let view = CubeView::full(Arc::clone(&cube));
        assert_eq!(view.dims(), cube.dims());
        assert_eq!(view.pixel(3, 2).unwrap(), cube.pixel(3, 2).unwrap());
        assert_eq!(view.pixels(), 12);
        assert_eq!(view.samples(), 24);
        assert_eq!(view.payload_bytes(), 24 * 8);
    }

    #[test]
    fn window_view_reads_the_right_pixels_without_copying() {
        let cube = coded_cube(5, 4, 3);
        let view = CubeView::window(Arc::clone(&cube), 2, 2).unwrap();
        assert_eq!(view.row_start(), 2);
        assert_eq!(view.dims(), CubeDims::new(5, 2, 3));
        for y in 0..2 {
            for x in 0..5 {
                assert_eq!(view.pixel(x, y).unwrap(), cube.pixel(x, y + 2).unwrap());
            }
        }
        // Storage is shared, not duplicated.
        assert!(Arc::ptr_eq(view.storage(), &cube));
    }

    #[test]
    fn window_rejects_out_of_bounds_extents() {
        let cube = coded_cube(3, 3, 2);
        assert!(CubeView::window(Arc::clone(&cube), 2, 2).is_err());
        assert!(CubeView::window(Arc::clone(&cube), 4, 0).is_err());
        let view = CubeView::full(cube);
        assert!(view.pixel(3, 0).is_err());
        assert!(view.pixel(0, 3).is_err());
    }

    #[test]
    fn iter_pixels_matches_owned_window() {
        let cube = coded_cube(6, 5, 2);
        let view = CubeView::window(Arc::clone(&cube), 1, 4).unwrap();
        let owned = cube.window(0, 1, 6, 4).unwrap();
        let from_view: Vec<&[f64]> = view.iter_pixels().collect();
        let from_owned: Vec<&[f64]> = owned.iter_pixels().collect();
        assert_eq!(from_view, from_owned);
        assert_eq!(view.pixel_vectors(), owned.pixel_vectors());
    }

    #[test]
    fn materialize_round_trips_and_charges_the_ledger() {
        let cube = coded_cube(4, 4, 3);
        let view = CubeView::window(Arc::clone(&cube), 1, 3).unwrap();
        let before = CloneLedger::snapshot();
        let owned = view.materialize();
        assert_eq!(owned, cube.window(0, 1, 4, 3).unwrap());
        assert!(before.delta() >= view.payload_bytes() as u64);
    }

    #[test]
    fn views_compare_by_content() {
        let cube = coded_cube(4, 4, 2);
        let a = CubeView::window(Arc::clone(&cube), 1, 2).unwrap();
        let b = CubeView::window(Arc::clone(&cube), 1, 2).unwrap();
        let c = CubeView::window(Arc::clone(&cube), 2, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // A clone is an Arc bump, equal by definition.
        assert_eq!(a.clone(), a);
    }

    #[test]
    fn assembly_ledger_tracks_in_place_decoding_separately_from_clones() {
        let before = CloneLedger::snapshot();
        charge_assembled_bytes(4096);
        assert!(before.assembled_delta() >= 4096);
        // Assembly charges never leak into the clone counter: the clone
        // delta only moves when payload is actually deep-copied.
        let cube = coded_cube(2, 2, 2);
        let cloned_before = before.delta();
        CubeView::full(cube).materialize();
        assert!(before.delta() >= cloned_before + 2 * 2 * 2 * 8);
    }

    #[test]
    fn standalone_view_preserves_scene_origin() {
        let cube = coded_cube(5, 4, 3);
        let window = CubeView::window(Arc::clone(&cube), 2, 2).unwrap();
        // Simulate the wire: materialize the band, rebuild a standalone
        // view over the owned shard with the original scene row.
        let shard = Arc::new(window.materialize());
        let decoded = CubeView::standalone(shard, window.row_start());
        assert_eq!(decoded.row_start(), 2);
        assert_eq!(decoded.dims(), window.dims());
        // Content-equal to the original band even though the storage and
        // internal offsets differ.
        assert_eq!(decoded, window);
    }

    #[test]
    fn single_pixel_view_is_valid() {
        // One row of a one-column cube is the smallest view there is.
        let cube = coded_cube(1, 3, 2);
        let view = CubeView::window(Arc::clone(&cube), 2, 1).unwrap();
        assert_eq!(view.pixels(), 1);
        assert_eq!(view.pixel(0, 0).unwrap(), cube.pixel(0, 2).unwrap());
        assert_eq!(view.materialize(), cube.window(0, 2, 1, 1).unwrap());
    }
}
