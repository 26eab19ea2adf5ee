//! Retained reference kernels: the naive formulations the optimised kernels
//! are proven against, kept in one place so the unit and property suites and
//! the benches all compare against the same code.  Not part of the supported
//! API.

use crate::pipeline::TransformSpec;
use linalg::Vector;

/// Spectral screening as the paper states it: a full `spectral_angle` (two
/// norms, a compensated dot, `acos`) per pixel–member pair, members scanned
/// in admission order.  [`crate::screening`] must match this bit-for-bit.
///
/// A pixel is rejected when some member's angle is `<= threshold_rad`, so a
/// NaN angle (a non-finite sample) rejects nothing.
pub fn naive_screen(pixels: &[Vector], threshold_rad: f64) -> Vec<Vector> {
    if threshold_rad <= 0.0 {
        return pixels.to_vec();
    }
    let mut unique: Vec<Vector> = Vec::new();
    for pixel in pixels {
        let screened = unique.iter().any(|member| {
            pixel
                .spectral_angle(member)
                .expect("pixels in one scene share a band count")
                <= threshold_rad
        });
        if !screened {
            unique.push(pixel.clone());
        }
    }
    unique
}

/// Step 7 for one pixel as the paper states it: centre and project onto the
/// leading eigenvectors, one component after the other.
/// [`crate::pipeline::project_pixels`] must match this bit-for-bit.
pub fn transform_pixel(spec: &TransformSpec, pixel: &[f64]) -> Vec<f64> {
    let bands = spec.bands();
    debug_assert_eq!(pixel.len(), bands);
    let mut out = Vec::with_capacity(spec.components());
    for row in 0..spec.components() {
        let eigvec = spec.transform.row(row);
        let mut acc = 0.0;
        for b in 0..bands {
            acc += eigvec[b] * (pixel[b] - spec.mean[b]);
        }
        out.push(acc);
    }
    out
}
