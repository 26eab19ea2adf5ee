//! Zero-copy, `Arc`-backed views into a [`HyperCube`].
//!
//! The distributed protocols ship every sub-cube to workers twice per run
//! (screening and transform phases).  Shipping an owned [`crate::SubCube`]
//! deep-copies the payload for every task; a [`CubeView`] instead shares the
//! full cube behind an `Arc` and carries only a window spec, so cloning a
//! view — and therefore cloning any task message built from one — moves a
//! reference count, not pixels.
//!
//! A view selects a spatial window `[x0, x0+width) × [y0, y0+height)` and a
//! band window `[band0, band0+bands)`.  Rows of the window are strided
//! through the backing cube's BIP layout (`storage_width × storage_bands`
//! samples apart), and the band window makes per-pixel access strided too,
//! so a view can describe anything from the full cube down to a single
//! sample run without touching the data.
//!
//! The module also keeps the process-wide **clone ledger**: every deep copy
//! of sub-cube payload bytes — [`CubeView::copy_runs`] (and
//! [`CubeView::materialize`] on top of it) and
//! [`crate::SubCubeSpec::extract`] — is charged to it.  Pipelines and the
//! service layer read deltas of this ledger to report `bytes_cloned`, which
//! is how the zero-copy claim is measured rather than asserted.

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
pub fn cloned_bytes_total() -> u64 {
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
pub fn assembled_bytes_total() -> u64 {
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

/// A zero-copy window into a shared [`HyperCube`].
///
/// Cloning a view is an `Arc` reference-count bump; the pixel data is never
/// duplicated until [`CubeView::copy_runs`] or [`CubeView::materialize`] is
/// called (which charge the clone ledger).
///
/// # The wire invariant
///
/// [`CubeView::copy_runs`] is the **only** path by which view payload
/// leaves the shared storage.  The `wire` codec relies on this: encoding a
/// message copies each embedded view's runs straight into the frame body, so
/// the clone-ledger delta across an encode equals exactly the sum of the
/// encoded views' [`CubeView::payload_bytes`] — no hidden copy is possible
/// without moving the ledger.  The encode path `debug_assert`s this
/// reconciliation, turning "zero-copy except at the serialization boundary"
/// from a convention into a checked invariant.
///
/// On the decode side a view is rebuilt over its own freshly-owned shard
/// cube with [`CubeView::standalone`], which preserves the window's original
/// scene coordinates ([`CubeView::x0`] / [`CubeView::row_start`]) so workers
/// across a process boundary label results — e.g. `RgbStrip::row_start` —
/// identically to in-process workers sharing the full cube.
#[derive(Debug, Clone)]
pub struct CubeView {
    storage: Arc<HyperCube>,
    x0: usize,
    y0: usize,
    width: usize,
    height: usize,
    band0: usize,
    bands: usize,
    /// Scene coordinates the window originally described.  Equal to
    /// `(x0, y0)` for views into the full scene cube; a decoded standalone
    /// view has `x0 == y0 == 0` (its storage *is* the shard) but keeps the
    /// scene origin here so coordinate-dependent results stay identical
    /// across the wire.
    origin_x: usize,
    origin_y: usize,
}

impl CubeView {
    /// A view of the whole cube.
    pub fn full(storage: Arc<HyperCube>) -> Self {
        let dims = storage.dims();
        Self {
            storage,
            x0: 0,
            y0: 0,
            width: dims.width,
            height: dims.height,
            band0: 0,
            bands: dims.bands,
            origin_x: 0,
            origin_y: 0,
        }
    }

    /// A full view over an owned shard cube that reports the scene
    /// coordinates `(origin_x, origin_y)` the shard was cut from.  This is
    /// the decode-side constructor of the wire codec: the shard's samples
    /// were materialized into the frame on the sending side, so the
    /// receiver owns a standalone cube but must still answer
    /// [`CubeView::x0`] / [`CubeView::row_start`] with the original window
    /// position for results to be byte-identical to in-process execution.
    pub fn standalone(storage: Arc<HyperCube>, origin_x: usize, origin_y: usize) -> Self {
        let dims = storage.dims();
        Self {
            storage,
            x0: 0,
            y0: 0,
            width: dims.width,
            height: dims.height,
            band0: 0,
            bands: dims.bands,
            origin_x,
            origin_y,
        }
    }

    /// A view of the spatial window `[x0, x0+width) × [y0, y0+height)` over
    /// every band.
    pub fn window(
        storage: Arc<HyperCube>,
        x0: usize,
        y0: usize,
        width: usize,
        height: usize,
    ) -> Result<Self> {
        if x0 + width > storage.width() {
            return Err(HsiError::OutOfBounds {
                what: "view x extent",
                index: x0 + width,
                bound: storage.width(),
            });
        }
        if y0 + height > storage.height() {
            return Err(HsiError::OutOfBounds {
                what: "view y extent",
                index: y0 + height,
                bound: storage.height(),
            });
        }
        let bands = storage.bands();
        Ok(Self {
            storage,
            x0,
            y0,
            width,
            height,
            band0: 0,
            bands,
            origin_x: x0,
            origin_y: y0,
        })
    }

    /// Narrows the view to the band window `[band0, band0+bands)`; per-pixel
    /// access becomes strided through the backing pixel's full band run.
    pub fn with_band_window(mut self, band0: usize, bands: usize) -> Result<Self> {
        if self.band0 + band0 + bands > self.band0 + self.bands {
            return Err(HsiError::OutOfBounds {
                what: "view band extent",
                index: band0 + bands,
                bound: self.bands,
            });
        }
        self.band0 += band0;
        self.bands = bands;
        Ok(self)
    }

    /// The backing storage the view shares.
    pub fn storage(&self) -> &Arc<HyperCube> {
        &self.storage
    }

    /// Dimensions of the *viewed* region (not the backing cube).
    pub fn dims(&self) -> CubeDims {
        CubeDims::new(self.width, self.height, self.bands)
    }

    /// Width of the viewed window in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height of the viewed window in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of bands the view exposes.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// First *scene* column of the window.  For views into the scene cube
    /// this is the backing-cube column; for a decoded [`CubeView::standalone`]
    /// view it is the column the shard was originally cut from.
    // Deliberately not the `x0` *field* (the storage offset): the public
    // coordinate system is the scene's, which `origin_x` tracks across a
    // wire trip.
    #[allow(clippy::misnamed_getters)]
    pub fn x0(&self) -> usize {
        self.origin_x
    }

    /// First *scene* row of the window (the sub-cube's `row_start`).  Like
    /// [`CubeView::x0`], this survives a trip across the wire even though
    /// the decoded view's backing storage starts at row zero.
    pub fn row_start(&self) -> usize {
        self.origin_y
    }

    /// Number of pixels in the window.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// Number of samples the view exposes.
    pub fn samples(&self) -> usize {
        self.pixels() * self.bands
    }

    /// Payload size in bytes if this view were materialized or shipped by
    /// value — the amount the zero-copy message plane *avoids* cloning.
    pub fn payload_bytes(&self) -> usize {
        self.samples() * std::mem::size_of::<f64>()
    }

    /// Flat offset in the backing storage of view pixel `(x, y)`'s first
    /// exposed band.
    fn pixel_offset(&self, x: usize, y: usize) -> Result<usize> {
        if x >= self.width {
            return Err(HsiError::OutOfBounds {
                what: "view x",
                index: x,
                bound: self.width,
            });
        }
        if y >= self.height {
            return Err(HsiError::OutOfBounds {
                what: "view y",
                index: y,
                bound: self.height,
            });
        }
        Ok(
            ((self.y0 + y) * self.storage.width() + self.x0 + x) * self.storage.bands()
                + self.band0,
        )
    }

    /// The exposed spectral samples of view pixel `(x, y)` — a borrow of the
    /// shared storage, no copy.
    pub fn pixel(&self, x: usize, y: usize) -> Result<&[f64]> {
        let off = self.pixel_offset(x, y)?;
        Ok(&self.storage.samples()[off..off + self.bands])
    }

    /// One full window row as a contiguous sample slice.  Only possible when
    /// the band window covers every backing band (otherwise pixels within
    /// the row are not adjacent); callers needing per-band access use
    /// [`CubeView::pixel`] or [`CubeView::iter_pixels`].
    pub fn row_samples(&self, y: usize) -> Option<&[f64]> {
        if self.band0 != 0 || self.bands != self.storage.bands() || y >= self.height {
            return None;
        }
        let off = ((self.y0 + y) * self.storage.width() + self.x0) * self.storage.bands();
        Some(&self.storage.samples()[off..off + self.width * self.bands])
    }

    /// Iterates the window's pixel slices in row-major order, striding
    /// through the backing storage without copying.
    pub fn iter_pixels(&self) -> impl Iterator<Item = &[f64]> + '_ {
        let samples = self.storage.samples();
        let storage_width = self.storage.width();
        let storage_bands = self.storage.bands();
        (0..self.height).flat_map(move |y| {
            (0..self.width).map(move |x| {
                let off =
                    ((self.y0 + y) * storage_width + self.x0 + x) * storage_bands + self.band0;
                &samples[off..off + self.bands]
            })
        })
    }

    /// Collects every window pixel as an owned [`Vector`] (the pixel-vector
    /// type the screening and transform kernels operate on).
    pub fn pixel_vectors(&self) -> Vec<Vector> {
        self.iter_pixels().map(Vector::from).collect()
    }

    /// Hands the window's samples to `sink` in materialization order (BIP,
    /// row-major) as the longest contiguous runs the backing layout allows —
    /// whole rows, or single pixels under a band window.  This is the only
    /// way pixel data leaves the shared storage — a true process or
    /// serialization boundary — so the whole payload is charged to the
    /// clone ledger: a serializer copies each run straight into its output
    /// with no owned cube in between.
    pub fn copy_runs(&self, mut sink: impl FnMut(&[f64])) {
        charge_cloned_bytes(self.payload_bytes());
        for y in 0..self.height {
            if let Some(row) = self.row_samples(y) {
                sink(row);
            } else {
                for x in 0..self.width {
                    sink(self.pixel(x, y).expect("in bounds"));
                }
            }
        }
    }

    /// Deep-copies the viewed window into an owned cube: [`CubeView::copy_runs`]
    /// into fresh storage, charged to the clone ledger the same way.
    pub fn materialize(&self) -> HyperCube {
        let dims = self.dims();
        let mut samples = Vec::with_capacity(dims.samples());
        self.copy_runs(|run| samples.extend_from_slice(run));
        HyperCube::from_samples(dims, samples).expect("view dims are consistent")
    }
}

impl PartialEq for CubeView {
    /// Views are equal when they expose the same dimensions and the same
    /// sample values — regardless of which storage or offsets back them.
    fn eq(&self, other: &Self) -> bool {
        self.dims() == other.dims() && self.iter_pixels().eq(other.iter_pixels())
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
        let view = CubeView::window(Arc::clone(&cube), 1, 2, 3, 2).unwrap();
        assert_eq!(view.row_start(), 2);
        assert_eq!(view.x0(), 1);
        for y in 0..2 {
            for x in 0..3 {
                assert_eq!(view.pixel(x, y).unwrap(), cube.pixel(x + 1, y + 2).unwrap());
            }
        }
        // Storage is shared, not duplicated.
        assert!(Arc::ptr_eq(view.storage(), &cube));
    }

    #[test]
    fn window_rejects_out_of_bounds_extents() {
        let cube = coded_cube(3, 3, 2);
        assert!(CubeView::window(Arc::clone(&cube), 2, 0, 2, 1).is_err());
        assert!(CubeView::window(Arc::clone(&cube), 0, 2, 1, 2).is_err());
        let view = CubeView::full(cube);
        assert!(view.pixel(3, 0).is_err());
        assert!(view.pixel(0, 3).is_err());
    }

    #[test]
    fn band_window_strides_within_pixels() {
        let cube = coded_cube(2, 2, 5);
        let view = CubeView::full(Arc::clone(&cube))
            .with_band_window(1, 3)
            .unwrap();
        assert_eq!(view.bands(), 3);
        assert_eq!(view.pixel(1, 1).unwrap(), &cube.pixel(1, 1).unwrap()[1..4]);
        // Narrowing an already-narrow view is relative to the current window.
        let narrower = view.with_band_window(1, 1).unwrap();
        assert_eq!(
            narrower.pixel(0, 0).unwrap(),
            &cube.pixel(0, 0).unwrap()[2..3]
        );
        // Rows of a band-windowed view are not contiguous.
        assert!(narrower.row_samples(0).is_none());
    }

    #[test]
    fn band_window_rejects_overflow() {
        let cube = coded_cube(2, 2, 4);
        assert!(CubeView::full(Arc::clone(&cube))
            .with_band_window(3, 2)
            .is_err());
        assert!(CubeView::full(cube).with_band_window(0, 5).is_err());
    }

    #[test]
    fn iter_pixels_matches_owned_window() {
        let cube = coded_cube(6, 5, 2);
        let view = CubeView::window(Arc::clone(&cube), 2, 1, 3, 4).unwrap();
        let owned = cube.window(2, 1, 3, 4).unwrap();
        let from_view: Vec<&[f64]> = view.iter_pixels().collect();
        let from_owned: Vec<&[f64]> = owned.iter_pixels().collect();
        assert_eq!(from_view, from_owned);
        assert_eq!(view.pixel_vectors(), owned.pixel_vectors());
    }

    #[test]
    fn materialize_round_trips_and_charges_the_ledger() {
        let cube = coded_cube(4, 4, 3);
        let view = CubeView::window(Arc::clone(&cube), 1, 1, 2, 3).unwrap();
        let before = CloneLedger::snapshot();
        let owned = view.materialize();
        assert_eq!(owned, cube.window(1, 1, 2, 3).unwrap());
        assert!(before.delta() >= view.payload_bytes() as u64);
    }

    #[test]
    fn materialize_handles_band_windows() {
        let cube = coded_cube(3, 2, 4);
        let view = CubeView::full(Arc::clone(&cube))
            .with_band_window(2, 2)
            .unwrap();
        let owned = view.materialize();
        assert_eq!(owned.dims(), CubeDims::new(3, 2, 2));
        assert_eq!(owned.pixel(2, 1).unwrap(), &cube.pixel(2, 1).unwrap()[2..4]);
    }

    #[test]
    fn views_compare_by_content() {
        let cube = coded_cube(4, 4, 2);
        let a = CubeView::window(Arc::clone(&cube), 0, 1, 2, 2).unwrap();
        let b = CubeView::window(Arc::clone(&cube), 0, 1, 2, 2).unwrap();
        let c = CubeView::window(Arc::clone(&cube), 1, 1, 2, 2).unwrap();
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
        let window = CubeView::window(Arc::clone(&cube), 1, 2, 3, 2).unwrap();
        // Simulate the wire: materialize the window, rebuild a standalone
        // view over the owned shard with the original scene coordinates.
        let shard = Arc::new(window.materialize());
        let decoded = CubeView::standalone(shard, window.x0(), window.row_start());
        assert_eq!(decoded.x0(), 1);
        assert_eq!(decoded.row_start(), 2);
        assert_eq!(decoded.dims(), window.dims());
        // Content-equal to the original window even though the storage and
        // internal offsets differ.
        assert_eq!(decoded, window);
    }

    #[test]
    fn single_pixel_view_is_valid() {
        let cube = coded_cube(3, 3, 2);
        let view = CubeView::window(Arc::clone(&cube), 2, 2, 1, 1).unwrap();
        assert_eq!(view.pixels(), 1);
        assert_eq!(view.pixel(0, 0).unwrap(), cube.pixel(2, 2).unwrap());
        assert_eq!(view.materialize(), cube.window(2, 2, 1, 1).unwrap());
    }
}
