//! Image rows per numerics version: what step 6's last bits do to the
//! picture.  The cross-version contract of `linalg` bounds eigenpairs, not
//! pictures, so each fusebench shape's fused image is pinned here by
//! reference-free measures (no ground truth ships with the repository) and
//! by digests:
//!
//! * the fraction of the variance the three leading components capture;
//! * the Shannon entropy of each channel of the RGB image, in bits;
//! * the contrast gain: the luma RMS contrast of the image over the RMS
//!   contrast of the best single band, min-max stretched to grey;
//! * an FNV-1a digest of the image bytes, and one of the eigenvalue bits.
//!
//! A new numerics version re-runs these scenes: a row whose image digest
//! moves is a picture that changed, and its measures say by how much.

use crate::{PctConfig, SequentialPct};
use hsi::{CubeDims, HyperCube, RgbImage, SceneConfig, SceneGenerator};

/// One shape's row: `(width, height, bands, screening degrees, unique
/// count, variance fraction, [R, G, B] entropy, contrast gain, image
/// digest, eigenvalue digest)`.
type Row = (
    usize,
    usize,
    usize,
    f64,
    usize,
    f64,
    [f64; 3],
    f64,
    u64,
    u64,
);

/// The five fusebench shapes, each on the first cube `fusebench/run.sh
/// --seed 1` generates for it.  Pinned at numerics version 2; version 3
/// gives the same rows, every image and eigenvalue digest included.
#[rustfmt::skip]
const ROWS: [Row; 5] = [
    (32, 32, 210, 5.0, 128, 0.975432000828, [4.164168876034, 4.346764298220, 3.062782642103], 0.230167861634, 0xec2e_db84_0935_e160, 0x0446_a6cb_bbdb_42b0),
    (64, 64, 32, 5.0, 427, 0.966047721090, [2.042867165238, 1.917344153437, 2.013009421762], 0.240309875211, 0x64b5_63c9_ee8e_89d3, 0x0dea_530f_ada3_6f3c),
    (28, 28, 14, 5.0, 100, 0.980235733495, [5.078181948681, 4.125657433136, 5.172288344921], 0.249121916981, 0x16da_00fe_bf53_ee19, 0x5305_6941_c7b1_1459),
    (64, 64, 64, 30.0, 13, 0.859547782556, [1.526212415692, 1.245876379954, 2.127163177385], 0.254568914073, 0xd068_db9c_be7c_28bf, 0x1faf_65d3_6fbf_e760),
    (64, 64, 32, 45.0, 2, 1.000000000000, [1.609374214363, 1.640642066254, 1.306754000336], 0.280350104914, 0xbe36_b44f_964e_d68f, 0xa4ce_1fe1_802d_0a2e),
];

/// The measures are sums of logarithms and roots: pinned to this relative
/// precision, so a library's last bit cannot move them.
const PRECISION: f64 = 1e-9;

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn entropy(image: &RgbImage, channel: usize) -> f64 {
    let mut histogram = [0usize; 256];
    for pixel in image.raw().chunks_exact(3) {
        histogram[usize::from(pixel[channel])] += 1;
    }
    let total = (image.width() * image.height()) as f64;
    histogram
        .iter()
        .filter(|&&count| count > 0)
        .map(|&count| {
            let p = count as f64 / total;
            -p * p.log2()
        })
        .sum()
}

fn best_band_contrast(cube: &HyperCube) -> f64 {
    (0..cube.bands())
        .map(|band| {
            let gray = hsi::io::plane_to_gray(&cube.band_plane(band).unwrap());
            let n = gray.len() as f64;
            let mean = gray.iter().map(|&g| f64::from(g)).sum::<f64>() / n;
            let var = gray
                .iter()
                .map(|&g| (f64::from(g) - mean) * (f64::from(g) - mean))
                .sum::<f64>()
                / n;
            var.sqrt()
        })
        .fold(0.0, f64::max)
}

fn measure(width: usize, height: usize, bands: usize, degrees: f64) -> Row {
    let mut scene = SceneConfig::small(1_000_003);
    scene.dims = CubeDims::new(width, height, bands);
    let cube = SceneGenerator::new(scene).unwrap().generate();
    let config = PctConfig {
        screening_angle_rad: degrees.to_radians(),
        ..PctConfig::paper()
    };
    let fused = SequentialPct::new(config).run(&cube).unwrap();
    let image = &fused.image;
    (
        width,
        height,
        bands,
        degrees,
        fused.unique_count,
        fused.variance_fraction(3),
        [0, 1, 2].map(|channel| entropy(image, channel)),
        image.rms_contrast() / best_band_contrast(&cube),
        fnv1a(image.raw().iter().copied()),
        fnv1a(
            fused
                .eigenvalues
                .iter()
                .flat_map(|e| e.to_bits().to_le_bytes()),
        ),
    )
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= PRECISION * want.abs().max(1.0)
}

#[test]
fn image_rows_of_the_five_fusebench_shapes() {
    let mut failures = Vec::new();
    for want in ROWS {
        let (width, height, bands, degrees, ..) = want;
        let got = measure(width, height, bands, degrees);
        let same = got.4 == want.4
            && close(got.5, want.5)
            && got.6.iter().zip(want.6).all(|(g, w)| close(*g, w))
            && close(got.7, want.7)
            && (got.8, got.9) == (want.8, want.9);
        if !same {
            failures.push(format!(
                "    ({}, {}, {}, {:.1}, {}, {:.12}, [{:.12}, {:.12}, {:.12}], {:.12}, {:#018x}, {:#018x}),",
                got.0, got.1, got.2, got.3, got.4, got.5, got.6[0], got.6[1], got.6[2], got.7, got.8, got.9
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "rows moved; now:\n{}",
        failures.join("\n")
    );
}
