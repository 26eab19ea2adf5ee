//! Bit-identity proof for the two-tier membership test: whatever the fast
//! tier decides, and in whatever order members are probed, the unique set is
//! the one [`naive_screen`] builds — compared by bit pattern, so NaN samples
//! and signed zeros count too.

use super::*;
use hsi::{CubeDims, HyperCube, SceneConfig, SceneGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

fn thresholds() -> [f64; 8] {
    [
        0.01,
        1.0_f64.to_radians(),
        5.0_f64.to_radians(),
        0.11,
        30.0_f64.to_radians(),
        FRAC_PI_2,
        2.0,
        PI,
    ]
}

fn bits(vectors: &[Vector]) -> Vec<Vec<u64>> {
    vectors
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn assert_matches_naive(pixels: &[Vector], threshold: f64, what: &str) {
    let fast = screen_pixels(pixels, threshold);
    let slow = naive_screen(pixels, threshold);
    assert_eq!(
        bits(&fast),
        bits(&slow),
        "{what}: diverged from the naive reference at threshold {threshold}"
    );
}

fn scene(seed: u64, width: usize, height: usize, bands: usize) -> HyperCube {
    let mut config = SceneConfig::small(seed);
    config.dims = CubeDims::new(width, height, bands);
    for target in &mut config.targets {
        target.x = target.x * width / 32;
        target.y = target.y * height / 32;
    }
    SceneGenerator::new(config).unwrap().generate()
}

/// A clustered cloud: a few random centres, each pixel a centre scaled by a
/// random brightness plus noise whose size spans twelve decades — so the
/// cloud has near-duplicates at every distance from the threshold.
fn cloud(rng: &mut StdRng, pixels: usize, bands: usize) -> Vec<Vector> {
    let centres: Vec<Vec<f64>> = (0..1 + pixels / 12)
        .map(|_| (0..bands).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    (0..pixels)
        .map(|_| {
            let centre = &centres[rng.gen_range(0..centres.len())];
            let brightness = rng.gen_range(0.1..10.0);
            let noise = 10f64.powf(rng.gen_range(-12.0..0.0));
            centre
                .iter()
                .map(|c| brightness * (c + noise * rng.gen_range(-1.0..1.0)))
                .collect::<Vec<f64>>()
                .into()
        })
        .collect()
}

/// `b` at `angle` from a random `a`, in a random plane of `bands`-space.
fn pair_at_angle(rng: &mut StdRng, bands: usize, angle: f64) -> (Vector, Vector) {
    let a: Vec<f64> = (0..bands).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let r: Vec<f64> = (0..bands).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let (a, r) = (Vector::from(a), Vector::from(r));
    let a_hat = a.normalized();
    // Gram–Schmidt: the part of `r` orthogonal to `a`.
    let w = r
        .sub_vec(&a_hat.scale(r.dot(&a_hat).unwrap()))
        .unwrap()
        .normalized();
    let b = a_hat
        .scale(angle.cos())
        .add_vec(&w.scale(angle.sin()))
        .unwrap();
    (a, b.scale(rng.gen_range(0.5..50.0)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scenes_match_naive_and_rarely_leave_the_fast_tier(
        seed in 0u64..1 << 40,
        bands in 1usize..225,
        side in 8usize..17,
        pick in 0usize..8,
    ) {
        let threshold = thresholds()[pick];
        let cube = scene(seed, side, side + 3, bands);
        take_tier_counts();
        let fast = screen_slices(cube.iter_pixels(), threshold);
        let (comparisons, exact) = take_tier_counts();
        let slow = naive_screen(&cube.pixel_vectors(), threshold);
        prop_assert_eq!(bits(&fast), bits(&slow), "seed {} bands {} threshold {}", seed, bands, threshold);
        prop_assert!(comparisons > 0);
        prop_assert!(
            exact * 100 < comparisons,
            "{exact} of {comparisons} comparisons left the fast tier"
        );
    }

    #[test]
    fn random_clouds_match_naive(
        seed in 0u64..1 << 40,
        bands in 1usize..225,
        pixels in 1usize..160,
        pick in 0usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cloud = cloud(&mut rng, pixels, bands);
        assert_matches_naive(&cloud, thresholds()[pick], "cloud");
    }

    #[test]
    fn chain_over_any_split_equals_whole_screening(
        seed in 0u64..1 << 40,
        bands in 1usize..64,
        pick in 0usize..8,
    ) {
        let threshold = thresholds()[pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let pixels = cloud(&mut rng, 120, bands);
        // Up to six cut points, repeats allowed: some links are empty.
        let mut cuts: Vec<usize> = (0..rng.gen_range(0..7usize))
            .map(|_| rng.gen_range(0..pixels.len() + 1))
            .collect();
        cuts.extend([0, pixels.len()]);
        cuts.sort_unstable();
        let mut chained: Vec<Vector> = Vec::new();
        for link in cuts.windows(2) {
            let part = &pixels[link[0]..link[1]];
            let newly = screen_slices_seeded(
                chained.clone(),
                part.iter().map(Vector::as_slice),
                threshold,
            );
            prop_assert_eq!(bits(&newly), bits(&screen_pixels_seeded(&chained, part, threshold)));
            chained.extend(newly);
        }
        prop_assert_eq!(bits(&chained), bits(&screen_pixels(&pixels, threshold)), "cuts {:?}", cuts);
    }

    #[test]
    fn admitted_set_does_not_depend_on_which_member_is_probed_first(
        seed in 0u64..1 << 40,
        bands in 1usize..64,
        pick in 0usize..8,
    ) {
        let threshold = thresholds()[pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let pixels = cloud(&mut rng, 150, bands);
        let mut set = UniqueSet::new(threshold);
        for pixel in &pixels {
            // Any index, including ones past the end of the set.
            set.last_hit = rng.gen_range(0..set.len() + 2);
            let unique = set.is_unique(pixel.as_slice());
            prop_assert_eq!(set.admit(pixel.as_slice()), unique);
        }
        prop_assert_eq!(bits(set.vectors()), bits(&naive_screen(&pixels, threshold)));
    }
}

/// Pairs built at `threshold ± ε` for ε down to zero land inside the fast
/// tier's guard band, so the exact tier *is* exercised — and agrees.
#[test]
fn adversarial_pairs_at_the_threshold_reach_the_exact_tier_and_match() {
    let mut rng = StdRng::seed_from_u64(13);
    take_tier_counts();
    for bands in [2, 3, 14, 32, 64, 105, 210, 224] {
        for threshold in thresholds() {
            for eps in [0.0, 1e-15, 1e-12, 1e-10, 1e-8] {
                for angle in [threshold - eps, threshold + eps] {
                    let (a, b) = pair_at_angle(&mut rng, bands, angle.clamp(0.0, PI));
                    assert_matches_naive(&[a.clone(), b.clone()], threshold, "pair");
                    assert_matches_naive(&[b, a], threshold, "swapped pair");
                }
            }
        }
    }
    let (comparisons, exact) = take_tier_counts();
    assert!(exact > 0, "no pair reached the exact tier");
    assert!(exact < comparisons, "no pair was decided by the fast tier");
}

/// Pixels whose norms are zero, subnormal-squared, out of the fast tier's
/// range, infinite or NaN go to the exact tier and screen as the naive rule
/// screens them.
#[test]
fn degenerate_pixels_match_naive() {
    let mut rng = StdRng::seed_from_u64(29);
    for bands in [1, 2, 7, 32] {
        let mut pixels = cloud(&mut rng, 40, bands);
        let ordinary = pixels[3].clone();
        for scale in [0.0, -0.0, 1e-310, 1e-160, 1e-141, 1e139, 1e150, 1e200] {
            pixels.push(ordinary.scale(scale));
            pixels.push(ordinary.scale(-scale));
        }
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX] {
            let mut pixel = ordinary.clone();
            pixel[bands / 2] = poison;
            pixels.push(pixel);
            pixels.push(Vector::filled(bands, poison));
        }
        // Every degenerate pixel twice, so each also meets itself as a member.
        let mut twice = pixels.clone();
        twice.extend(pixels.iter().rev().cloned());
        for threshold in thresholds() {
            assert_matches_naive(&twice, threshold, "degenerate pixels");
        }
    }
}

#[test]
#[should_panic(expected = "pixels in one scene share a band count")]
fn mismatched_band_counts_still_panic() {
    screen_pixels(&[v(&[1.0, 2.0]), v(&[1.0, 2.0, 3.0])], 0.1);
}
