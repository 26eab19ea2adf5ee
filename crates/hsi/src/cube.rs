//! In-memory hyper-spectral image cubes.
//!
//! A cube is `width x height` spatial pixels by `bands` spectral channels.
//! Storage is band-interleaved by pixel (BIP): all bands of pixel (0,0), then
//! all bands of pixel (1,0), and so on in row-major spatial order.  BIP makes
//! the per-pixel operations of the PCT pipeline (spectral angle, centring,
//! transformation) contiguous memory walks, which is the access pattern the
//! hpc-parallel guides recommend optimising for.

use crate::{HsiError, Result};
use linalg::Vector;
use serde::{Deserialize, Serialize};

/// Spatial and spectral dimensions of a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CubeDims {
    /// Spatial width in pixels (columns).
    pub width: usize,
    /// Spatial height in pixels (rows).
    pub height: usize,
    /// Number of spectral bands.
    pub bands: usize,
}

impl CubeDims {
    /// Creates a dimension descriptor.
    pub fn new(width: usize, height: usize, bands: usize) -> Self {
        Self {
            width,
            height,
            bands,
        }
    }

    /// Number of spatial pixels.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// Total number of samples (`pixels * bands`).
    pub fn samples(&self) -> usize {
        self.pixels() * self.bands
    }

    /// In-memory payload size of a cube with these dimensions
    /// (`samples * size_of::<f64>()`) — the one place this arithmetic
    /// lives; routing and transfer-cost models consult it.
    pub fn byte_size(&self) -> usize {
        self.samples() * std::mem::size_of::<f64>()
    }

    /// The cube size used throughout the paper's evaluation: 320×320×105
    /// ("the initial cube size was 320x320x105").
    pub fn paper_eval() -> Self {
        Self::new(320, 320, 105)
    }

    /// The full HYDICE acquisition used for the qualitative result
    /// (Figure 3): 320×320 spatial, 210 spectral bands.
    pub fn paper_full() -> Self {
        Self::new(320, 320, 210)
    }
}

/// A hyper-spectral image cube with BIP storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperCube {
    dims: CubeDims,
    /// BIP samples: `data[(y * width + x) * bands + b]`.
    data: Vec<f64>,
}

impl HyperCube {
    /// Creates a zero-filled cube.
    pub fn zeros(dims: CubeDims) -> Self {
        Self {
            data: vec![0.0; dims.samples()],
            dims,
        }
    }

    /// Creates a cube from an existing BIP sample buffer.
    pub fn from_samples(dims: CubeDims, data: Vec<f64>) -> Result<Self> {
        if data.len() != dims.samples() {
            return Err(HsiError::ShapeMismatch {
                expected: dims.samples(),
                actual: data.len(),
            });
        }
        Ok(Self { dims, data })
    }

    /// Cube dimensions.
    pub fn dims(&self) -> CubeDims {
        self.dims
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.dims.width
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.dims.height
    }

    /// Number of spectral bands.
    pub fn bands(&self) -> usize {
        self.dims.bands
    }

    /// Number of spatial pixels.
    pub fn pixels(&self) -> usize {
        self.dims.pixels()
    }

    /// Immutable view of the raw BIP samples.
    pub fn samples(&self) -> &[f64] {
        &self.data
    }

    /// Flat offset of the first sample of pixel `(x, y)`.
    fn pixel_offset(&self, x: usize, y: usize) -> Result<usize> {
        if x >= self.dims.width {
            return Err(HsiError::OutOfBounds {
                what: "x",
                index: x,
                bound: self.dims.width,
            });
        }
        if y >= self.dims.height {
            return Err(HsiError::OutOfBounds {
                what: "y",
                index: y,
                bound: self.dims.height,
            });
        }
        Ok((y * self.dims.width + x) * self.dims.bands)
    }

    /// Returns the spectral samples of pixel `(x, y)` as a slice.
    pub fn pixel(&self, x: usize, y: usize) -> Result<&[f64]> {
        let off = self.pixel_offset(x, y)?;
        Ok(&self.data[off..off + self.dims.bands])
    }

    /// Returns pixel `(x, y)` as an owned [`Vector`] (the pixel-vector type
    /// the PCT pipeline operates on).
    pub fn pixel_vector(&self, x: usize, y: usize) -> Result<Vector> {
        Ok(Vector::from(self.pixel(x, y)?))
    }

    /// Overwrites the spectral samples of pixel `(x, y)`.
    pub fn set_pixel(&mut self, x: usize, y: usize, values: &[f64]) -> Result<()> {
        if values.len() != self.dims.bands {
            return Err(HsiError::ShapeMismatch {
                expected: self.dims.bands,
                actual: values.len(),
            });
        }
        let off = self.pixel_offset(x, y)?;
        self.data[off..off + self.dims.bands].copy_from_slice(values);
        Ok(())
    }

    /// Reads one sample.
    pub fn sample(&self, x: usize, y: usize, band: usize) -> Result<f64> {
        if band >= self.dims.bands {
            return Err(HsiError::OutOfBounds {
                what: "band",
                index: band,
                bound: self.dims.bands,
            });
        }
        let off = self.pixel_offset(x, y)?;
        Ok(self.data[off + band])
    }

    /// Extracts one spectral band as a `width * height` plane in row-major
    /// order (used to render Figure 2-style single-band images).
    pub fn band_plane(&self, band: usize) -> Result<Vec<f64>> {
        if band >= self.dims.bands {
            return Err(HsiError::OutOfBounds {
                what: "band",
                index: band,
                bound: self.dims.bands,
            });
        }
        let mut plane = Vec::with_capacity(self.pixels());
        for p in 0..self.pixels() {
            plane.push(self.data[p * self.dims.bands + band]);
        }
        Ok(plane)
    }

    /// Iterates over all pixel vectors in row-major spatial order.
    pub fn iter_pixels(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.dims.bands.max(1))
    }

    /// Collects every pixel as an owned [`Vector`]; convenient for the
    /// sequential reference implementation and for tests.
    pub fn pixel_vectors(&self) -> Vec<Vector> {
        self.iter_pixels().map(Vector::from).collect()
    }

    /// Extracts a spatial window `[x0, x0+w) x [y0, y0+h)` as a new cube with
    /// the same band count: an owned copy, the reference the zero-copy
    /// [`crate::CubeView`] tests compare against.
    pub fn window(&self, x0: usize, y0: usize, w: usize, h: usize) -> Result<HyperCube> {
        if x0 + w > self.dims.width {
            return Err(HsiError::OutOfBounds {
                what: "window x extent",
                index: x0 + w,
                bound: self.dims.width,
            });
        }
        if y0 + h > self.dims.height {
            return Err(HsiError::OutOfBounds {
                what: "window y extent",
                index: y0 + h,
                bound: self.dims.height,
            });
        }
        let dims = CubeDims::new(w, h, self.dims.bands);
        let mut out = HyperCube::zeros(dims);
        for dy in 0..h {
            let src_off = ((y0 + dy) * self.dims.width + x0) * self.dims.bands;
            let dst_off = dy * w * self.dims.bands;
            let len = w * self.dims.bands;
            out.data[dst_off..dst_off + len].copy_from_slice(&self.data[src_off..src_off + len]);
        }
        Ok(out)
    }

    /// Approximate in-memory size in bytes (used by the communication cost
    /// model when estimating sub-problem transfer times).
    pub fn byte_size(&self) -> usize {
        self.dims.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cube() -> HyperCube {
        // 3x2 spatial, 4 bands; sample value encodes (x, y, band).
        let dims = CubeDims::new(3, 2, 4);
        let mut cube = HyperCube::zeros(dims);
        for y in 0..2 {
            for x in 0..3 {
                let v: Vec<f64> = (0..4).map(|b| (x * 100 + y * 10 + b) as f64).collect();
                cube.set_pixel(x, y, &v).unwrap();
            }
        }
        cube
    }

    #[test]
    fn dims_arithmetic() {
        let d = CubeDims::new(320, 320, 105);
        assert_eq!(d.pixels(), 102_400);
        assert_eq!(d.samples(), 10_752_000);
        assert_eq!(CubeDims::paper_eval(), d);
        assert_eq!(CubeDims::paper_full().bands, 210);
    }

    #[test]
    fn from_samples_validates_length() {
        let dims = CubeDims::new(2, 2, 3);
        assert!(HyperCube::from_samples(dims, vec![0.0; 11]).is_err());
        assert!(HyperCube::from_samples(dims, vec![0.0; 12]).is_ok());
    }

    #[test]
    fn pixel_round_trip() {
        let cube = small_cube();
        assert_eq!(cube.pixel(2, 1).unwrap(), &[210.0, 211.0, 212.0, 213.0]);
        assert_eq!(cube.sample(1, 0, 3).unwrap(), 103.0);
    }

    #[test]
    fn pixel_out_of_bounds_errors() {
        let cube = small_cube();
        assert!(cube.pixel(3, 0).is_err());
        assert!(cube.pixel(0, 2).is_err());
        assert!(cube.sample(0, 0, 4).is_err());
    }

    #[test]
    fn set_pixel_rejects_wrong_band_count() {
        let mut cube = small_cube();
        assert!(cube.set_pixel(0, 0, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn band_plane_is_row_major() {
        let cube = small_cube();
        let plane = cube.band_plane(1).unwrap();
        assert_eq!(plane, vec![1.0, 101.0, 201.0, 11.0, 111.0, 211.0]);
    }

    #[test]
    fn band_plane_out_of_range_errors() {
        assert!(small_cube().band_plane(4).is_err());
    }

    #[test]
    fn window_extracts_expected_pixels() {
        let cube = small_cube();
        let win = cube.window(1, 0, 2, 2).unwrap();
        assert_eq!(win.dims(), CubeDims::new(2, 2, 4));
        assert_eq!(win.pixel(0, 0).unwrap(), cube.pixel(1, 0).unwrap());
        assert_eq!(win.pixel(1, 1).unwrap(), cube.pixel(2, 1).unwrap());
    }

    #[test]
    fn window_out_of_bounds_errors() {
        let cube = small_cube();
        assert!(cube.window(2, 0, 2, 1).is_err());
        assert!(cube.window(0, 1, 1, 2).is_err());
    }

    #[test]
    fn pixel_vectors_matches_iteration_order() {
        let cube = small_cube();
        let vs = cube.pixel_vectors();
        assert_eq!(vs.len(), 6);
        assert_eq!(vs[0].as_slice(), cube.pixel(0, 0).unwrap());
        assert_eq!(vs[5].as_slice(), cube.pixel(2, 1).unwrap());
    }

    #[test]
    fn byte_size_reflects_sample_count() {
        let cube = small_cube();
        assert_eq!(cube.byte_size(), 6 * 4 * 8);
    }
}
