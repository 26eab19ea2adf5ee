//! Step 8: human-centred colour mapping.
//!
//! The paper maps the first principal component to the achromatic channel,
//! the second to red–green opponency and the third to blue–yellow opponency,
//! matching "the spatial-spectral content of the output image with the
//! spatial-spectral processing capabilities of the human visual system"
//! [Boynton 1979, Poirson & Wandell 1993].  Concretely each pixel's first
//! three principal components are rescaled to an 8-bit range, centred at
//! 128, pushed through a fixed 3×3 opponent-to-RGB matrix and re-centred —
//! the per-pixel formula printed in step 8 of the paper.
//!
//! Note on coefficients: the archived copy of the paper typesets the 3×3
//! matrix ambiguously (the rows are interleaved with the surrounding
//! formula).  The matrix below uses exactly the nine printed coefficient
//! magnitudes (0.4387, 0.4972, 0.0641, 0.0795, 0.1403, 0.1355, 0.0116 and
//! the repeated 0.4972) arranged as a standard opponent-colour
//! reconstruction: every output channel receives the achromatic component
//! positively, red and green receive the red–green opponent with opposite
//! signs, and blue receives the blue–yellow opponent negatively.  The
//! mapping is a fixed linear transform either way, so performance behaviour
//! (what Figures 4–5 measure) is identical and the qualitative behaviour —
//! PC1 drives luminance, PC2/PC3 drive hue — is preserved.

use hsi::{HyperCube, RgbImage};
use linalg::Matrix;

/// The nine coefficients of the opponent-to-RGB matrix (rows produce R, G, B;
/// columns consume the achromatic, red–green and blue–yellow components).
const OPPONENT: [[f64; 3]; 3] = [
    [0.4387, 0.4972, 0.0641],
    [0.4972, -0.1403, 0.0795],
    [0.1355, -0.0116, -0.4972],
];

/// The 3×3 opponent-to-RGB matrix [`map_pixel`] applies.
pub fn opponent_matrix() -> Matrix {
    Matrix::from_rows(&OPPONENT.map(Vec::from)).expect("static 3x3 matrix is well formed")
}

/// Per-component affine rescaling parameters mapping a principal component
/// into the 8-bit range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentScale {
    /// Minimum component value observed.
    pub min: f64,
    /// Maximum component value observed.
    pub max: f64,
}

impl ComponentScale {
    /// Computes scales for the first `k` bands of a transformed cube.
    pub fn from_cube(cube: &HyperCube, k: usize) -> Vec<ComponentScale> {
        let k = k.min(cube.bands());
        (0..k)
            .map(|band| {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for pixel in cube.iter_pixels() {
                    let v = pixel[band];
                    min = min.min(v);
                    max = max.max(v);
                }
                ComponentScale { min, max }
            })
            .collect()
    }

    /// Derives scales from the per-component eigenvalues (variances): the
    /// component is mapped from `[-3.5 sigma, +3.5 sigma]` to `[0, 255]`.
    ///
    /// Principal components have zero mean over the unique set, so an
    /// eigenvalue-based range is known to the manager as soon as step 6
    /// finishes — which is what lets the *workers* perform the colour
    /// mapping (step 8) in the distributed implementations without a second
    /// pass over the data, as the paper's decomposition requires.
    ///
    /// An eigenvalue at or below `8 n eps lambda_0` (`n` eigenvalues, the
    /// largest first) is zero variance and maps to mid-grey.  A unique set
    /// of rank `r` leaves `n - r` eigenvalues that are nothing but the
    /// solver's rounding (measured at about `0.05 n eps lambda_0`), and a
    /// range of `3.5 sqrt` of that would stretch rounding noise over all 256
    /// levels of a colour channel.  8 is the multiple of
    /// `n eps ||A||_F >= n eps lambda_0` the eigensolver's accuracy suite
    /// holds every eigenvalue's error to: below it an eigenvalue is not told
    /// from zero.
    pub fn from_eigenvalues(eigenvalues: &[f64], k: usize) -> Vec<ComponentScale> {
        let largest = eigenvalues.first().map_or(0.0, |l| l.max(0.0));
        let noise = 8.0 * eigenvalues.len() as f64 * f64::EPSILON * largest;
        eigenvalues
            .iter()
            .take(k)
            .map(|&lambda| {
                let sigma = if lambda <= noise { 0.0 } else { lambda.sqrt() };
                ComponentScale {
                    min: -3.5 * sigma,
                    max: 3.5 * sigma,
                }
            })
            .collect()
    }

    /// Maps a raw component value into `[0, 255]`.
    pub fn to_byte_range(&self, value: f64) -> f64 {
        let range = self.max - self.min;
        if range <= 0.0 {
            return 128.0;
        }
        ((value - self.min) / range * 255.0).clamp(0.0, 255.0)
    }
}

/// Maps one pixel's first three (rescaled) principal components to RGB using
/// the paper's centred opponent transform.
pub fn map_pixel(components: [f64; 3]) -> [u8; 3] {
    let centred = [
        components[0] - 128.0,
        components[1] - 128.0,
        components[2] - 128.0,
    ];
    let mut rgb = [0u8; 3];
    for (row, out) in rgb.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (col, c) in centred.iter().enumerate() {
            acc += OPPONENT[row][col] * c;
        }
        *out = (128.0 + acc).round().clamp(0.0, 255.0) as u8;
    }
    rgb
}

/// Step 8 for one pixel: its leading three components rescaled by `scales`
/// (a component or scale that is not there is mid-grey), then [`map_pixel`].
pub(crate) fn map_components(components: &[f64], scales: &[ComponentScale]) -> [u8; 3] {
    let mut rescaled = [128.0_f64; 3];
    for ((slot, &value), scale) in rescaled.iter_mut().zip(components).zip(scales) {
        *slot = scale.to_byte_range(value);
    }
    map_pixel(rescaled)
}

/// Maps a transformed cube (principal components per pixel, leading three
/// used) to the fused colour composite.  `scales` must have been computed
/// over the *whole* image so distributed workers produce consistent colours;
/// the manager computes them once and broadcasts them with the transform.
pub fn map_cube(cube: &HyperCube, scales: &[ComponentScale]) -> RgbImage {
    let width = cube.width();
    let height = cube.height();
    let mut image = RgbImage::black(width, height);
    for y in 0..height {
        for x in 0..width {
            let pixel = cube.pixel(x, y).expect("in-bounds iteration");
            image
                .set(x, y, map_components(pixel, scales))
                .expect("in-bounds write");
        }
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi::CubeDims;

    #[test]
    fn opponent_matrix_uses_papers_coefficients() {
        let m = opponent_matrix();
        let mut magnitudes: Vec<f64> = (0..3)
            .flat_map(|r| (0..3).map(move |c| (r, c)))
            .map(|(r, c)| m[(r, c)].abs())
            .collect();
        magnitudes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expected = vec![
            0.4387, 0.4972, 0.0641, 0.4972, 0.1403, 0.0795, 0.1355, 0.0116, 0.4972,
        ];
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (a, b) in magnitudes.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn map_pixel_equals_the_matrix_form() {
        // Every combination of the clamping corners, the centre, values that
        // round at .5 and a coarse grid between them.
        let matrix = opponent_matrix();
        let mut values = vec![-40.0, 0.0, 0.5, 127.5, 128.0, 128.5, 254.5, 255.0, 300.0];
        values.extend((0..16).map(|i| i as f64 * 17.3));
        for &a in &values {
            for &b in &values {
                for &c in &values {
                    let centred = [a - 128.0, b - 128.0, c - 128.0];
                    let expected: [u8; 3] = std::array::from_fn(|row| {
                        let mut acc = 0.0;
                        for (col, x) in centred.iter().enumerate() {
                            acc += matrix[(row, col)] * x;
                        }
                        (128.0 + acc).round().clamp(0.0, 255.0) as u8
                    });
                    assert_eq!(map_pixel([a, b, c]), expected, "{a} {b} {c}");
                }
            }
        }
    }

    #[test]
    fn neutral_components_map_to_midgray() {
        assert_eq!(map_pixel([128.0, 128.0, 128.0]), [128, 128, 128]);
    }

    #[test]
    fn bright_achromatic_component_raises_all_channels() {
        let bright = map_pixel([255.0, 128.0, 128.0]);
        let dark = map_pixel([0.0, 128.0, 128.0]);
        for c in 0..3 {
            assert!(bright[c] > 128, "bright channel {c} = {}", bright[c]);
            assert!(dark[c] < 128, "dark channel {c} = {}", dark[c]);
        }
    }

    #[test]
    fn red_green_opponency_has_opposite_signs_on_r_and_g() {
        let push = map_pixel([128.0, 255.0, 128.0]);
        assert!(push[0] > 128, "red should rise");
        assert!(push[1] < 128, "green should fall");
    }

    #[test]
    fn output_is_always_in_byte_range() {
        for a in [0.0, 64.0, 200.0, 255.0] {
            for b in [0.0, 128.0, 255.0] {
                for c in [0.0, 128.0, 255.0] {
                    let _ = map_pixel([a, b, c]); // clamps internally; would panic on overflow cast otherwise
                }
            }
        }
    }

    #[test]
    fn component_scale_maps_extremes_to_0_and_255() {
        let s = ComponentScale {
            min: -2.0,
            max: 6.0,
        };
        assert_eq!(s.to_byte_range(-2.0), 0.0);
        assert_eq!(s.to_byte_range(6.0), 255.0);
        assert!((s.to_byte_range(2.0) - 127.5).abs() < 1e-9);
    }

    #[test]
    fn degenerate_scale_maps_to_midpoint() {
        let s = ComponentScale { min: 3.0, max: 3.0 };
        assert_eq!(s.to_byte_range(3.0), 128.0);
    }

    #[test]
    fn map_cube_produces_full_size_image() {
        let dims = CubeDims::new(4, 3, 3);
        let mut cube = HyperCube::zeros(dims);
        for y in 0..3 {
            for x in 0..4 {
                cube.set_pixel(x, y, &[(x + y) as f64, x as f64, y as f64])
                    .unwrap();
            }
        }
        let scales = ComponentScale::from_cube(&cube, 3);
        let img = map_cube(&cube, &scales);
        assert_eq!((img.width(), img.height()), (4, 3));
        // Different pixels get different colours.
        assert_ne!(img.get(0, 0).unwrap(), img.get(3, 2).unwrap());
    }

    #[test]
    fn eigenvalue_scales_are_symmetric_and_monotone() {
        let scales = ComponentScale::from_eigenvalues(&[9.0, 1.0, 0.0], 3);
        assert_eq!(scales.len(), 3);
        assert_eq!(scales[0].min, -scales[0].max);
        assert!((scales[0].max - 10.5).abs() < 1e-12);
        assert!(scales[0].max > scales[1].max);
        // Zero variance degenerates to a point range -> midgray mapping.
        assert_eq!(scales[2].to_byte_range(0.0), 128.0);
    }

    #[test]
    fn noise_eigenvalues_of_a_rank_deficient_set_are_zero_variance() {
        // What a 32-band, 2-vector unique set leaves: one variance and
        // rounding.
        let mut eigenvalues = vec![6e5, 3e-11, 2e-11];
        eigenvalues.resize(32, -1e-12);
        let scales = ComponentScale::from_eigenvalues(&eigenvalues, 3);
        assert!(scales[0].max > 2000.0);
        for noise in &scales[1..] {
            assert_eq!((noise.min, noise.max), (0.0, 0.0));
            assert_eq!(noise.to_byte_range(1e-5), 128.0);
        }
        // A small variance that is a variance keeps its range.
        let real = ComponentScale::from_eigenvalues(&[6e5, 1e-6, 2e-11], 3);
        assert!((real[1].max - 3.5e-3).abs() < 1e-12);
        assert_eq!(real[2].max, 0.0);
    }

    #[test]
    fn scales_from_cube_cover_requested_components() {
        let cube = HyperCube::zeros(CubeDims::new(2, 2, 5));
        assert_eq!(ComponentScale::from_cube(&cube, 3).len(), 3);
        assert_eq!(ComponentScale::from_cube(&cube, 9).len(), 5);
    }
}
