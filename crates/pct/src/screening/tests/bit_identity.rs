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
        let fast = screen_slices_seeded(Vec::new(), cube.iter_pixels(), threshold);
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

/// A random orthonormal frame of `k` directions in `bands`-space
/// (Gram–Schmidt over random vectors; `k <= bands`).
fn frame(rng: &mut StdRng, bands: usize, k: usize) -> Vec<Vector> {
    let mut basis: Vec<Vector> = Vec::new();
    while basis.len() < k {
        let mut w = Vector::from(
            (0..bands)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect::<Vec<f64>>(),
        );
        for e in &basis {
            w = w.sub_vec(&e.scale(w.dot(e).unwrap())).unwrap();
        }
        if w.norm() > 1e-3 {
            basis.push(w.normalized());
        }
    }
    basis
}

/// The point at `angle` from `e1` towards `e2` on their great circle.
fn on_circle(e1: &Vector, e2: &Vector, angle: f64, scale: f64) -> Vector {
    e1.scale(scale * angle.cos())
        .add_vec(&e2.scale(scale * angle.sin()))
        .unwrap()
}

/// Vectors the index must leave to the linear path.
fn irregular(ordinary: &Vector) -> Vec<Vector> {
    let bands = ordinary.len();
    let mut poisoned = ordinary.clone();
    poisoned[bands / 2] = f64::NAN;
    vec![
        Vector::filled(bands, f64::NAN),
        Vector::filled(bands, f64::INFINITY),
        Vector::filled(bands, f64::NEG_INFINITY),
        Vector::zeros(bands),
        ordinary.scale(1e-150),
        ordinary.scale(1e150),
        poisoned,
    ]
}

/// Where the index is most fragile: pixels within 1e-7 rad of a pivot and
/// of its antipode (where `acos` is ill-conditioned), and pixel–member
/// pairs on one great circle with the first pivot, so their pivot angles
/// differ by their whole angle, at `threshold ± ε` — with irregular vectors
/// admitted before, between and after the pivots.
#[test]
fn pivot_neighbourhoods_match_naive() {
    let mut rng = StdRng::seed_from_u64(41);
    for bands in [1, 3, 32, 210, 224] {
        for threshold in thresholds() {
            let (e1, e2) = if bands == 1 {
                (v(&[1.0]), v(&[0.0]))
            } else {
                let f = frame(&mut rng, bands, 2);
                (f[0].clone(), f[1].clone())
            };
            let pivot = e1.scale(rng.gen_range(0.5..5.0));
            let second = on_circle(&e1, &e2, (threshold + 0.3).min(PI), 2.0);
            let mut pixels = irregular(&pivot);
            pixels.push(pivot.clone());
            pixels.extend(irregular(&second));
            pixels.push(second);
            pixels.extend(irregular(&pivot).into_iter().rev());
            for eps in [0.0, 1e-15, 1e-12, 1e-9, 1e-7] {
                for (near, far) in [(eps, threshold), (PI - eps, PI - eps - threshold)] {
                    let scale = rng.gen_range(0.5..50.0);
                    pixels.push(on_circle(&e1, &e2, near, scale));
                    for delta in [-1e-9, -1e-12, 0.0, 1e-12, 1e-9] {
                        pixels.push(on_circle(&e1, &e2, (far + delta).clamp(0.0, PI), scale));
                    }
                }
                for centre in [0.4, 1.3, 2.5] {
                    for offset in [-eps, eps] {
                        pixels.push(on_circle(&e1, &e2, centre, 3.0));
                        pixels.push(on_circle(&e1, &e2, centre + threshold + offset, 7.0));
                    }
                }
            }
            pixels.extend(irregular(&pivot));
            assert_matches_naive(&pixels, threshold, "pivot neighbourhoods");
            let mut chained: Vec<Vector> = Vec::new();
            for part in pixels.chunks(17) {
                chained.extend(screen_pixels_seeded(&chained, part, threshold));
            }
            assert_eq!(bits(&chained), bits(&naive_screen(&pixels, threshold)));
        }
    }
}

/// A member whose pivot angle differs from the pixel's by the last float
/// inside the index's reach is tested; one a float further out is not.
/// Found by bisection on the member's place on the pixel's great circle
/// through the pivot, for the first and the second pivot, on either side.
#[test]
fn the_window_edge_is_inclusive_to_the_float() {
    let mut rng = StdRng::seed_from_u64(43);
    for bands in [3, 32, 210, 224] {
        for threshold in thresholds().into_iter().filter(|&t| t < 0.6) {
            let basis = frame(&mut rng, bands, 3);
            let (e1, e2, off) = (&basis[0], &basis[1], basis[2].scale(4.0));
            let reach = reach(threshold, bands);
            for in_plane in 0..2 {
                // The pivots, in admission order: the one on the circle is
                // pivot `in_plane`; the other is a right angle off it.
                let on = e1.scale(2.0);
                let pivots = if in_plane == 0 {
                    [on.clone(), off.clone()]
                } else {
                    [off.clone(), on.clone()]
                };
                let pixel_at = 2.0 * threshold + 0.25;
                let pixel = on_circle(e1, e2, pixel_at, 1.5);
                let angle_to_pivot = |x: &Vector| {
                    angle(fast_cosine(
                        x.as_slice(),
                        fast_norm(x.as_slice()),
                        on.as_slice(),
                        fast_norm(on.as_slice()),
                    ))
                };
                let pixel_angle = angle_to_pivot(&pixel);
                for side in [1.0, -1.0] {
                    let gap = |at: f64| {
                        side * (angle_to_pivot(&on_circle(e1, e2, at, 0.8)) - pixel_angle)
                    };
                    let (mut inside, mut outside) = (
                        pixel_at + side * (reach - 1e-6),
                        pixel_at + side * (reach + 1e-6),
                    );
                    assert!(gap(inside) <= reach && gap(outside) > reach);
                    while (inside - outside).abs() > f64::EPSILON * inside.abs() {
                        let mid = 0.5 * (inside + outside);
                        if gap(mid) <= reach {
                            inside = mid;
                        } else {
                            outside = mid;
                        }
                    }
                    for (at, tested) in [(inside, true), (outside, false)] {
                        assert!((gap(at) - reach).abs() < 1e-13);
                        let member = on_circle(e1, e2, at, 0.8);
                        let mut set = UniqueSet::seeded(
                            [pivots[0].clone(), pivots[1].clone(), member.clone()],
                            threshold,
                        );
                        take_tier_counts();
                        let unique = set.admit(pixel.as_slice());
                        let (comparisons, _) = take_tier_counts();
                        assert_eq!(
                            comparisons,
                            2 + u64::from(tested),
                            "bands {bands} threshold {threshold} pivot {in_plane} side {side}"
                        );
                        let all = [pivots[0].clone(), pivots[1].clone(), member, pixel.clone()];
                        assert_eq!(unique, naive_screen(&all, threshold).len() == 4);
                        assert_eq!(bits(set.vectors()), bits(&naive_screen(&all, threshold)));
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Step 2 in filter form is the admission loop it replaced: every
    /// vector of every set, in order, admitted against all admitted so far
    /// — over sets that are screens of consecutive parts of one cloud with
    /// zero vectors and NaN samples in it, at the eight thresholds and 0.
    #[test]
    fn merge_equals_the_admission_loop(
        seed in 0u64..1 << 40,
        bands in 1usize..40,
        parts in 1usize..7,
        pick in 0usize..9,
    ) {
        let threshold = thresholds().get(pick).copied().unwrap_or(0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pixels = cloud(&mut rng, 150, bands);
        for i in (0..pixels.len()).step_by(11) {
            if rng.gen_range(0..2usize) == 0 {
                pixels[i] = Vector::zeros(bands);
            } else {
                pixels[i][rng.gen_range(0..bands)] = f64::NAN;
            }
        }
        let size = pixels.len().div_ceil(parts);
        let sets: Vec<Vec<Vector>> = pixels
            .chunks(size)
            .map(|part| screen_pixels(part, threshold))
            .collect();
        let looped = if threshold <= 0.0 {
            sets.concat()
        } else {
            let mut merged = UniqueSet::new(threshold);
            for vector in sets.iter().flatten() {
                merged.admit(vector.as_slice());
            }
            merged.into_vectors()
        };
        let filtered = merge_unique_sets(sets.clone(), threshold);
        prop_assert_eq!(bits(&filtered), bits(&looped));
        prop_assert_eq!(bits(&filtered), bits(&naive_screen(&sets.concat(), threshold)));
    }
}

/// The top rows of a `width`-wide scene 160 rows tall: ten rows of river,
/// where at small thresholds every pixel is unique, then six of land.
fn river_rows(seed: u64, width: usize, bands: usize) -> Vec<Vector> {
    let cube = scene(seed, width, 160, bands);
    cube.iter_pixels()
        .take(width * 16)
        .map(Vector::from)
        .collect()
}

/// [`cloud`] with a zero, a NaN-bearing and an out-of-range vector among
/// every 40 pixels: irregular pixels end a dense block.
fn irregular_cloud(rng: &mut StdRng, pixels: usize, bands: usize) -> Vec<Vector> {
    let mut cloud = cloud(rng, pixels, bands);
    for (i, pixel) in cloud.iter_mut().enumerate() {
        match i % 40 {
            13 => *pixel = Vector::zeros(bands),
            27 => pixel[i % bands] = f64::NAN,
            33 => *pixel = pixel.scale(1e150),
            _ => {}
        }
    }
    cloud
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whichever kernel screens each block, and at any block size, a whole
    /// screen, a chain over any split and a merge admit what the naive rule
    /// admits: over river-heavy scenes and clouds with irregular vectors, at
    /// the eight thresholds and 1e-4.
    #[test]
    fn the_dense_kernel_and_the_index_admit_the_same_vectors(
        seed in 0u64..1 << 40,
        bands in 1usize..64,
        pick in 0usize..9,
        size in 0usize..4,
        river in 0usize..2,
    ) {
        let threshold = thresholds().get(pick).copied().unwrap_or(1e-4);
        let block = [1, 7, 64, 1024][size];
        let mut rng = StdRng::seed_from_u64(seed);
        let pixels = if river == 1 {
            river_rows(seed, 12 + (seed % 8) as usize, bands)
        } else {
            irregular_cloud(&mut rng, 200, bands)
        };
        let naive = bits(&naive_screen(&pixels, threshold));
        let mut cuts: Vec<usize> = (0..rng.gen_range(0..5usize))
            .map(|_| rng.gen_range(0..pixels.len() + 1))
            .collect();
        cuts.extend([0, pixels.len()]);
        cuts.sort_unstable();
        for kernel in [Kernel::Index, Kernel::Dense] {
            forcing(kernel, block, || {
                let whole = screen_pixels(&pixels, threshold);
                prop_assert_eq!(bits(&whole), naive.clone(), "{:?} whole, block {}", kernel, block);
                let mut chained: Vec<Vector> = Vec::new();
                for link in cuts.windows(2) {
                    chained.extend(screen_pixels_seeded(&chained, &pixels[link[0]..link[1]], threshold));
                }
                prop_assert_eq!(bits(&chained), naive.clone(), "{:?} chain, cuts {:?}", kernel, cuts);
                let sets: Vec<Vec<Vector>> = cuts
                    .windows(2)
                    .map(|link| screen_pixels(&pixels[link[0]..link[1]], threshold))
                    .collect();
                let merged = merge_unique_sets(sets.clone(), threshold);
                prop_assert_eq!(bits(&merged), bits(&naive_screen(&sets.concat(), threshold)));
            });
        }
    }
}

/// Admission at 1e-4 rad, where every pixel of `paper_eval(11)` at
/// `side × side × 16` is unique and the windows are nearly empty.  Counted,
/// not timed: a search visits only rows whose first pivot angle is within
/// `2 reach` of the pixel's (the buckets `reach` wide that its window
/// `± reach` meets), checked against a scan of the whole index for every
/// 61st pixel; an insert is a push, so nothing moves (the sorted vector
/// this replaced moved half the index per admission); and the dense kernel
/// is never chosen.
fn admission_work_is_bounded(side: usize) {
    let mut config = SceneConfig::paper_eval(11);
    config.dims = CubeDims::new(side, side, 16);
    let cube = SceneGenerator::new(config).unwrap().generate();
    let threshold = 1e-4;
    let mut set = UniqueSet::new(threshold);
    take_index_work();
    let (mut visited, mut sampled, mut windows) = (0, 0, 0);
    for (i, pixel) in cube.iter_pixels().enumerate() {
        // The pixel's first pivot angle, as the engine computes it, and
        // the rows within one and two reaches of it.
        let first = set.pivots.first().map(|&pivot| {
            let norm = fast_norm(pixel);
            angle(fast_cosine(
                pixel,
                norm,
                set.vectors[pivot].as_slice(),
                set.norms[pivot],
            ))
        });
        let within = |reach: f64| -> u64 {
            let first = first.expect("a sampled pixel has a pivot angle");
            let angles = set.index.buckets.iter().flat_map(|bucket| &bucket.angles);
            angles.filter(|a| (a[0] - first).abs() <= reach).count() as u64
        };
        let sample = i % 61 == 0 && first.is_some();
        let (window, double) = if sample {
            (
                within(set.reach),
                within(2.0 * set.reach + 2.0 * WINDOW_MARGIN),
            )
        } else {
            (0, 0)
        };
        set.admit(pixel);
        let rows = take_index_work();
        visited += rows;
        if sample {
            assert!(
                rows <= double,
                "pixel {i} searched {rows} rows, {double} within 2 reach"
            );
            (sampled, windows) = (sampled + rows, windows + window);
        }
    }
    let pixels = (side * side) as u64;
    assert_eq!(
        set.len() as u64,
        pixels,
        "every pixel is unique at 1e-4 rad"
    );
    assert_eq!(set.index.width, set.reach, "the buckets are reach wide");
    eprintln!(
        "{side} x {side}: {visited} rows searched; sampled pixels searched {sampled} \
         rows for windows of {windows}"
    );
    let mut blocks = UniqueSet::new(threshold);
    blocks.extend(cube.iter_pixels());
    assert!(blocks.kernel_angles.is_empty(), "the dense kernel ran");
    assert_eq!(bits(blocks.vectors()), bits(set.vectors()));
}

#[test]
fn admission_work_is_bounded_at_160_by_160() {
    admission_work_is_bounded(160);
}

/// The same at 320 × 320 × 16, screened in under 100 ms of wall time, the
/// best of three (release only:
/// `cargo test --release -p pct admission_work -- --ignored`).
#[test]
#[ignore = "release only"]
fn admission_work_is_bounded_at_320_by_320() {
    let mut config = SceneConfig::paper_eval(11);
    config.dims = CubeDims::new(320, 320, 16);
    let cube = SceneGenerator::new(config).unwrap().generate();
    let elapsed = (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            let unique = screen_slices_seeded(Vec::new(), cube.iter_pixels(), 1e-4);
            assert_eq!(unique.len(), 320 * 320);
            start.elapsed()
        })
        .min()
        .expect("three runs");
    eprintln!("320 x 320 x 16 at 1e-4 rad: {elapsed:?}");
    assert!(
        elapsed.as_millis() < 100,
        "{elapsed:?} to screen 320 x 320 x 16 at 1e-4 rad"
    );
    admission_work_is_bounded(320);
}
