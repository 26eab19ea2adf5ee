//! RGB colour-composite images — the output of the fusion pipeline.

use crate::{HsiError, Result};
use serde::{Deserialize, Serialize};

/// An 8-bit-per-channel RGB image in row-major order.
///
/// This is the final product of the fusion pipeline (the Figure 3
/// colour-composite): the first three principal components mapped through the
/// human-centred colour matrix and quantised to `[0, 255]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RgbImage {
    width: usize,
    height: usize,
    /// Interleaved RGB bytes, `3 * width * height` long.
    data: Vec<u8>,
}

impl RgbImage {
    /// Creates a black image.
    pub fn black(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![0; width * height * 3],
        }
    }

    /// Creates an image from interleaved RGB bytes.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Result<Self> {
        if data.len() != width * height * 3 {
            return Err(HsiError::ShapeMismatch {
                expected: width * height * 3,
                actual: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Interleaved RGB bytes.
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    /// Reads the pixel at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> Result<[u8; 3]> {
        if x >= self.width {
            return Err(HsiError::OutOfBounds {
                what: "x",
                index: x,
                bound: self.width,
            });
        }
        if y >= self.height {
            return Err(HsiError::OutOfBounds {
                what: "y",
                index: y,
                bound: self.height,
            });
        }
        let off = (y * self.width + x) * 3;
        Ok([self.data[off], self.data[off + 1], self.data[off + 2]])
    }

    /// Writes the pixel at `(x, y)`.
    pub fn set(&mut self, x: usize, y: usize, rgb: [u8; 3]) -> Result<()> {
        if x >= self.width {
            return Err(HsiError::OutOfBounds {
                what: "x",
                index: x,
                bound: self.width,
            });
        }
        if y >= self.height {
            return Err(HsiError::OutOfBounds {
                what: "y",
                index: y,
                bound: self.height,
            });
        }
        let off = (y * self.width + x) * 3;
        self.data[off..off + 3].copy_from_slice(&rgb);
        Ok(())
    }

    /// Root-mean-square contrast of the luma channel — the paper argues the
    /// fused composite shows "significantly improved contrast levels", and
    /// the integration tests quantify that with this metric.
    pub fn rms_contrast(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let lumas: Vec<f64> = self
            .data
            .chunks_exact(3)
            .map(|px| 0.299 * px[0] as f64 + 0.587 * px[1] as f64 + 0.114 * px[2] as f64)
            .collect();
        let mean = lumas.iter().sum::<f64>() / lumas.len() as f64;
        (lumas.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / lumas.len() as f64).sqrt()
    }

    /// Mean absolute per-channel difference to another image of the same
    /// size; used to compare sequential and distributed fusion outputs.
    pub fn mean_abs_diff(&self, other: &RgbImage) -> Result<f64> {
        if self.width != other.width || self.height != other.height {
            return Err(HsiError::ShapeMismatch {
                expected: self.data.len(),
                actual: other.data.len(),
            });
        }
        if self.data.is_empty() {
            return Ok(0.0);
        }
        let total: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum();
        Ok(total / self.data.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn black_image_has_zero_luma_and_contrast() {
        let img = RgbImage::black(4, 4);
        assert_eq!(img.rms_contrast(), 0.0);
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(RgbImage::from_raw(2, 2, vec![0; 11]).is_err());
        assert!(RgbImage::from_raw(2, 2, vec![0; 12]).is_ok());
    }

    #[test]
    fn get_set_round_trip() {
        let mut img = RgbImage::black(3, 2);
        img.set(2, 1, [10, 20, 30]).unwrap();
        assert_eq!(img.get(2, 1).unwrap(), [10, 20, 30]);
        assert_eq!(img.get(0, 0).unwrap(), [0, 0, 0]);
    }

    #[test]
    fn out_of_bounds_access_errors() {
        let mut img = RgbImage::black(3, 2);
        assert!(img.get(3, 0).is_err());
        assert!(img.get(0, 2).is_err());
        assert!(img.set(5, 5, [0, 0, 0]).is_err());
    }

    #[test]
    fn checkerboard_has_positive_contrast() {
        let mut img = RgbImage::black(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                if (x + y) % 2 == 0 {
                    img.set(x, y, [255, 255, 255]).unwrap();
                }
            }
        }
        assert!(img.rms_contrast() > 100.0);
    }

    #[test]
    fn mean_abs_diff_of_identical_images_is_zero() {
        let img = RgbImage::black(5, 5);
        assert_eq!(img.mean_abs_diff(&img.clone()).unwrap(), 0.0);
    }

    #[test]
    fn mean_abs_diff_detects_differences() {
        let a = RgbImage::black(2, 2);
        let b = RgbImage::from_raw(2, 2, vec![10; 12]).unwrap();
        assert_eq!(a.mean_abs_diff(&b).unwrap(), 10.0);
        let c = RgbImage::black(3, 2);
        assert!(a.mean_abs_diff(&c).is_err());
    }
}
