//! Step 1 and step 2: spectral-angle screening and unique-set merging.
//!
//! Screening prevents the PCT "from highlighting only the variation that
//! dominates numerically": an object that occurs frequently (trees) would
//! otherwise swamp a rare object (a mechanized vehicle).  Each worker builds
//! a *unique set* — a subset of its pixels such that every pair is separated
//! by at least the threshold spectral angle — and the manager merges the
//! per-worker sets with the same rule.  The covariance of step 4 is then
//! computed over the merged unique set, so each distinct spectral signature
//! contributes roughly equally regardless of how many pixels carry it.
//!
//! ## Hot-path note
//!
//! Screening is O(unique × pixels) and dominates phase 1 at paper scale.
//! The membership test decides every comparison exactly as the naive
//! `spectral_angle`-per-pair rule ([`crate::reference::naive_screen`]) would,
//! with far less arithmetic:
//!
//! * **Cached norms.**  A member's norm is computed once, on admission; a
//!   pixel's once per pixel.
//! * **Exact tier** (`AngleGuard::similar`): compensated dot → clamp →
//!   cosine band; `acos` runs only within `BOUND_SLACK_RAD` of the threshold,
//!   a band far wider than the `acos` rounding error.
//! * **Fast tier** (`AngleGuard::similar_fast`): the plain
//!   [`linalg::dot_fast`] over the same cached norms.  Both dots sum the same
//!   rounded products `p_i = fl(a_i b_i)`.  With `n` bands, `u = 2^-53` and
//!   `N = |a||b|`: plain summation is off by at most `(n - 1) u Σ|p_i|`, the
//!   compensated sum by at most `2u Σ|p_i|`, and `Σ|p_i| <= (1 + u) N` by
//!   Cauchy–Schwarz, so `|fast - exact| <= (n + 4) u N`.  The cached
//!   denominator is within `7u` of `N` and each of the two divisions rounds
//!   by at most `u`, so the two cosines differ by less than `(n + 8) u`.
//!   The fast cosine decides only when it clears a band edge by
//!   `δ = (n + 16) · f64::EPSILON = 2 (n + 16) u` — at least twice that —
//!   where the exact cosine is on the same side of the same edge and the
//!   exact tier returns the same answer without reaching `acos`.  Everything
//!   else falls through to the exact tier: a cosine inside `δ` of an edge, a
//!   norm that is zero, non-finite or outside `FAST_NORM_RANGE` (where a
//!   product could overflow or underflow and void the bound), and mismatched
//!   band counts (which still panic there).
//! * **Last-hit probe.**  Admission is the predicate "some member is within
//!   the threshold", which no scan order can change.  The member that
//!   rejected the latest rejected pixel is tested first; in spatially
//!   coherent imagery it usually rejects the next pixel too, and after a
//!   miss the scan skips it, so no member is tested twice.
//!
//! The engine takes borrowed `&[f64]` pixels; only admitted pixels are
//! copied into a [`Vector`].

use linalg::{dot, dot_fast, norm, Vector};
use std::f64::consts::FRAC_PI_2;
use std::ops::RangeInclusive;

/// Angular slack (radians) around the screening threshold inside which the
/// cosine bound is considered inconclusive and the exact `acos` comparison
/// runs instead.  `acos` is accurate to a few ulps (≪ 1e-12 rad), so any
/// cosine outside this band decides the comparison exactly as the naive
/// formulation would.
const BOUND_SLACK_RAD: f64 = 1e-9;

/// Norms for which the fast tier's error bound holds: with both operands in
/// this range no product or partial sum of `dot_fast` overflows, and what
/// underflow can lose is below `1e-40` of the bound.
const FAST_NORM_RANGE: RangeInclusive<f64> = 1e-140..=1e140;

/// The spectral-angle acceptance rule with precomputed cosine bounds.
#[derive(Debug, Clone, Copy)]
struct AngleGuard {
    threshold_rad: f64,
    /// `cos(threshold - slack)`: a cosine at or above this is certainly
    /// within the threshold (similar) — no `acos` needed.
    cos_similar: f64,
    /// `cos(threshold + slack)`: a cosine strictly below this is certainly
    /// beyond the threshold (distinct) — no `acos` needed.
    cos_distinct: f64,
}

impl AngleGuard {
    fn new(threshold_rad: f64) -> Self {
        Self {
            threshold_rad,
            cos_similar: (threshold_rad - BOUND_SLACK_RAD).max(0.0).cos(),
            cos_distinct: (threshold_rad + BOUND_SLACK_RAD)
                .min(std::f64::consts::PI)
                .cos(),
        }
    }

    /// Whether `pixel` and `other` are within the threshold angle (i.e.
    /// `other` *screens out* `pixel`).  `pixel_norm` and `other_norm` are the
    /// callers' cached Euclidean norms of the two vectors.
    fn similar(&self, pixel: &[f64], pixel_norm: f64, other: &[f64], other_norm: f64) -> bool {
        let denom = pixel_norm * other_norm;
        if denom == 0.0 {
            // A zero pixel carries no spectral direction: the angle is
            // defined as pi/2 (see `Vector::spectral_angle`).
            return FRAC_PI_2 <= self.threshold_rad;
        }
        assert_eq!(
            pixel.len(),
            other.len(),
            "pixels in one scene share a band count"
        );
        let cos = (dot(pixel, other) / denom).clamp(-1.0, 1.0);
        if cos >= self.cos_similar {
            return true;
        }
        if cos < self.cos_distinct {
            return false;
        }
        cos.acos() <= self.threshold_rad
    }

    /// [`AngleGuard::similar`] decided on the plain dot, or `None` where its
    /// rounding error could reach a band edge (see the module's hot-path
    /// note for the bound).
    fn similar_fast(
        &self,
        pixel: &[f64],
        pixel_norm: f64,
        other: &[f64],
        other_norm: f64,
    ) -> Option<bool> {
        if pixel.len() != other.len()
            || !FAST_NORM_RANGE.contains(&pixel_norm)
            || !FAST_NORM_RANGE.contains(&other_norm)
        {
            return None;
        }
        let cos = dot_fast(pixel, other) / (pixel_norm * other_norm);
        let delta = (pixel.len() + 16) as f64 * f64::EPSILON;
        if cos >= self.cos_similar + delta {
            Some(true)
        } else if cos < self.cos_distinct - delta {
            Some(false)
        } else {
            None
        }
    }
}

/// An incrementally built unique set with cached member norms.
///
/// This is the screening engine shared by [`screen_pixels`],
/// [`screen_pixels_seeded`], their slice-fed forms and
/// [`merge_unique_sets`]; the service layer's exact screening chain drives
/// it through [`screen_slices_seeded`].
#[derive(Debug, Clone)]
pub struct UniqueSet {
    guard: AngleGuard,
    vectors: Vec<Vector>,
    norms: Vec<f64>,
    /// Index of the member that rejected the latest rejected pixel; probed
    /// first.
    last_hit: usize,
}

impl UniqueSet {
    /// Creates an empty unique set for the given screening threshold.
    pub fn new(threshold_rad: f64) -> Self {
        Self::seeded(Vec::new(), threshold_rad)
    }

    /// Creates a unique set pre-populated with `seed` — vectors that are
    /// already known to satisfy the screening rule (a previously computed
    /// unique set) and are therefore admitted without re-checking.
    pub fn seeded(seed: impl IntoIterator<Item = Vector>, threshold_rad: f64) -> Self {
        let vectors: Vec<Vector> = seed.into_iter().collect();
        let norms = vectors.iter().map(Vector::norm).collect();
        Self {
            guard: AngleGuard::new(threshold_rad),
            vectors,
            norms,
            last_hit: 0,
        }
    }

    /// Number of vectors in the set.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The vectors admitted so far, in admission order.
    pub fn vectors(&self) -> &[Vector] {
        &self.vectors
    }

    /// Consumes the set and returns its vectors in admission order.
    pub fn into_vectors(self) -> Vec<Vector> {
        self.vectors
    }

    /// Whether `pixel` is separated from every member by more than the
    /// threshold angle.
    pub fn is_unique(&self, pixel: &[f64]) -> bool {
        self.screening_member(pixel, norm(pixel)).is_none()
    }

    /// Admits `pixel` if it is unique against the current members; returns
    /// whether it was admitted.
    pub fn admit(&mut self, pixel: &[f64]) -> bool {
        let norm = norm(pixel);
        if let Some(hit) = self.screening_member(pixel, norm) {
            self.last_hit = hit;
            return false;
        }
        self.vectors.push(Vector::from(pixel));
        self.norms.push(norm);
        true
    }

    /// Index of a member within the threshold angle of `pixel`, if any:
    /// the last hit when it still applies, else the first in admission order.
    fn screening_member(&self, pixel: &[f64], pixel_norm: f64) -> Option<usize> {
        let screens = |member: usize| {
            let (other, other_norm) = (self.vectors[member].as_slice(), self.norms[member]);
            let fast = self
                .guard
                .similar_fast(pixel, pixel_norm, other, other_norm);
            #[cfg(test)]
            tests::count_comparison(fast.is_none());
            fast.unwrap_or_else(|| self.guard.similar(pixel, pixel_norm, other, other_norm))
        };
        let last = self.last_hit;
        if last < self.len() && screens(last) {
            return Some(last);
        }
        (0..self.len()).find(|&member| member != last && screens(member))
    }
}

/// Builds the unique set of a collection of pixel vectors using greedy
/// spectral-angle screening (step 1).
///
/// A pixel joins the unique set if its spectral angle to *every* vector
/// already in the set exceeds `threshold_rad`.  With a threshold of zero the
/// screening keeps every pixel (no screening).
pub fn screen_pixels(pixels: &[Vector], threshold_rad: f64) -> Vec<Vector> {
    screen_slices(pixels.iter().map(Vector::as_slice), threshold_rad)
}

/// [`screen_pixels`] over borrowed pixel slices (`CubeView::iter_pixels`):
/// only the admitted pixels are copied.
pub fn screen_slices<'a>(
    pixels: impl IntoIterator<Item = &'a [f64]>,
    threshold_rad: f64,
) -> Vec<Vector> {
    screen_slices_seeded(Vec::new(), pixels, threshold_rad)
}

/// Greedy screening of `pixels` against an already-accepted `seed` set,
/// returning only the *newly* admitted vectors in admission order.
///
/// This is the exactness primitive of the service layer's screening chain:
/// for any split of a pixel sequence into consecutive parts, folding the
/// parts through seeded screening reproduces [`screen_pixels`] of the whole
/// sequence bit-for-bit —
/// `screen(A ++ B) == screen(A) ++ screen_seeded(screen(A), B)`.
pub fn screen_pixels_seeded(seed: &[Vector], pixels: &[Vector], threshold_rad: f64) -> Vec<Vector> {
    screen_slices_seeded(
        seed.to_vec(),
        pixels.iter().map(Vector::as_slice),
        threshold_rad,
    )
}

/// [`screen_pixels_seeded`] over an owned seed and borrowed pixel slices.
pub fn screen_slices_seeded<'a>(
    seed: Vec<Vector>,
    pixels: impl IntoIterator<Item = &'a [f64]>,
    threshold_rad: f64,
) -> Vec<Vector> {
    if threshold_rad <= 0.0 {
        return pixels.into_iter().map(Vector::from).collect();
    }
    let seeded = seed.len();
    let mut unique = UniqueSet::seeded(seed, threshold_rad);
    for pixel in pixels {
        unique.admit(pixel);
    }
    let mut vectors = unique.into_vectors();
    vectors.drain(..seeded);
    vectors
}

/// Merges several per-worker unique sets into one (step 2), applying the same
/// screening rule across sets so signatures found by two different workers
/// are not duplicated.
pub fn merge_unique_sets(sets: Vec<Vec<Vector>>, threshold_rad: f64) -> Vec<Vector> {
    if threshold_rad <= 0.0 {
        return sets.into_iter().flatten().collect();
    }
    let mut merged = UniqueSet::new(threshold_rad);
    for set in sets {
        for pixel in &set {
            merged.admit(pixel.as_slice());
        }
    }
    merged.into_vectors()
}

/// Summary of a screening pass, reported by the examples and the screening
/// ablation benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreeningSummary {
    /// Number of pixels examined.
    pub input_pixels: usize,
    /// Number of unique vectors retained.
    pub unique_pixels: usize,
}

impl ScreeningSummary {
    /// Fraction of pixels retained by screening.
    pub fn retention(&self) -> f64 {
        if self.input_pixels == 0 {
            return 0.0;
        }
        self.unique_pixels as f64 / self.input_pixels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_screen;
    use std::cell::Cell;

    mod bit_identity;

    thread_local! {
        /// `(comparisons, of which fell through to the exact tier)` made by
        /// `UniqueSet` on this thread.
        static TIER_COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    /// Called by `UniqueSet` for every member comparison.
    pub(super) fn count_comparison(exact: bool) {
        TIER_COUNTS.with(|c| {
            let (all, fell_through) = c.get();
            c.set((all + 1, fell_through + u64::from(exact)));
        });
    }

    /// Resets this thread's tier counters, returning the old values.
    fn take_tier_counts() -> (u64, u64) {
        TIER_COUNTS.with(|c| c.replace((0, 0)))
    }

    fn v(data: &[f64]) -> Vector {
        Vector::from_vec(data.to_vec())
    }

    /// A deterministic pseudo-random pixel cloud with clusters, outliers and
    /// degenerate (zero) vectors.
    fn pixel_cloud(n: usize) -> Vec<Vector> {
        (0..n)
            .map(|i| {
                if i % 47 == 13 {
                    return Vector::zeros(4);
                }
                let a = (i % 23) as f64 * 0.11 + (i as f64) * 1e-4;
                let s = 1.0 + (i % 5) as f64;
                v(&[
                    s * a.cos(),
                    s * a.sin(),
                    s * (a * 1.7).cos(),
                    s * (0.3 + (i % 7) as f64 * 0.01),
                ])
            })
            .collect()
    }

    #[test]
    fn zero_threshold_keeps_everything() {
        let pixels = vec![v(&[1.0, 0.0]), v(&[1.0, 0.0]), v(&[0.0, 1.0])];
        assert_eq!(screen_pixels(&pixels, 0.0).len(), 3);
    }

    #[test]
    fn identical_pixels_collapse_to_one() {
        let pixels = vec![v(&[1.0, 2.0, 3.0]); 50];
        let unique = screen_pixels(&pixels, 0.01);
        assert_eq!(unique.len(), 1);
    }

    #[test]
    fn orthogonal_pixels_are_all_kept() {
        let pixels = vec![
            v(&[1.0, 0.0, 0.0]),
            v(&[0.0, 1.0, 0.0]),
            v(&[0.0, 0.0, 1.0]),
        ];
        assert_eq!(screen_pixels(&pixels, 0.3).len(), 3);
    }

    #[test]
    fn scaled_copies_are_screened_out() {
        // The spectral angle is scale invariant, so bright and dark pixels of
        // the same material collapse together.
        let pixels = vec![
            v(&[0.2, 0.5, 0.1]),
            v(&[2.0, 5.0, 1.0]),
            v(&[0.02, 0.05, 0.01]),
        ];
        assert_eq!(screen_pixels(&pixels, 0.05).len(), 1);
    }

    #[test]
    fn threshold_controls_set_size_monotonically() {
        // A fan of vectors at 10-degree increments.
        let pixels: Vec<Vector> = (0..9)
            .map(|i| {
                let a = (i as f64) * 10.0_f64.to_radians();
                v(&[a.cos(), a.sin()])
            })
            .collect();
        let tight = screen_pixels(&pixels, 5.0_f64.to_radians()).len();
        let loose = screen_pixels(&pixels, 25.0_f64.to_radians()).len();
        assert!(tight > loose);
        assert_eq!(tight, 9);
        assert_eq!(loose, 3);
    }

    #[test]
    fn rare_signature_survives_screening() {
        // 99 copies of "forest" and one "vehicle": the unique set keeps both,
        // which is the whole point of screening.
        let mut pixels = vec![v(&[0.3, 0.8, 0.5]); 99];
        pixels.push(v(&[0.9, 0.2, 0.4]));
        let unique = screen_pixels(&pixels, 0.05);
        assert_eq!(unique.len(), 2);
    }

    #[test]
    fn optimised_screening_matches_naive_reference_exactly() {
        let pixels = pixel_cloud(400);
        for threshold in [
            0.01,
            5.0_f64.to_radians(),
            0.11, // lands exactly on cluster spacing used by pixel_cloud
            FRAC_PI_2,
            2.0,
            std::f64::consts::PI,
        ] {
            let fast = screen_pixels(&pixels, threshold);
            let slow = naive_screen(&pixels, threshold);
            assert_eq!(
                fast, slow,
                "optimised screening diverged at threshold {threshold}"
            );
        }
    }

    #[test]
    fn seeded_screening_chain_equals_whole_screening() {
        let pixels = pixel_cloud(300);
        let threshold = 5.0_f64.to_radians();
        let whole = screen_pixels(&pixels, threshold);

        // Fold the same sequence through an arbitrary consecutive split.
        let mut acc: Vec<Vector> = Vec::new();
        for part in pixels.chunks(71) {
            let newly = screen_pixels_seeded(&acc, part, threshold);
            acc.extend(newly);
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn seeded_screening_with_zero_threshold_keeps_everything() {
        let seed = vec![v(&[1.0, 0.0])];
        let pixels = vec![v(&[1.0, 0.0]), v(&[0.0, 1.0])];
        assert_eq!(screen_pixels_seeded(&seed, &pixels, 0.0).len(), 2);
    }

    #[test]
    fn unique_set_admit_reports_membership() {
        let mut set = UniqueSet::new(0.3);
        assert!(set.is_empty());
        assert!(set.admit(&[1.0, 0.0]));
        assert!(!set.admit(&[1.0, 0.001]));
        assert!(set.admit(&[0.0, 1.0]));
        assert_eq!(set.len(), 2);
        assert!(!set.is_unique(&[0.001, 1.0]));
        assert_eq!(set.vectors().len(), 2);
        assert_eq!(set.clone().into_vectors().len(), 2);
    }

    #[test]
    fn zero_vectors_are_mutually_unique_below_right_angle_threshold() {
        // A zero pixel's angle to anything is pi/2, so with the usual small
        // thresholds every zero pixel is admitted — matching the naive rule.
        let pixels = vec![Vector::zeros(3), Vector::zeros(3), v(&[1.0, 0.0, 0.0])];
        assert_eq!(screen_pixels(&pixels, 0.1).len(), 3);
        // With a threshold at or beyond pi/2 they collapse.
        assert_eq!(screen_pixels(&pixels, FRAC_PI_2).len(), 1);
    }

    #[test]
    fn merge_deduplicates_across_workers() {
        let worker_a = vec![v(&[1.0, 0.0]), v(&[0.0, 1.0])];
        let worker_b = vec![v(&[1.0, 0.001]), v(&[1.0, 1.0])];
        let merged = merge_unique_sets(vec![worker_a, worker_b], 0.05);
        // (1,0.001) is a near-duplicate of (1,0) and is dropped.
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn merge_with_zero_threshold_concatenates() {
        let merged = merge_unique_sets(vec![vec![v(&[1.0])], vec![v(&[2.0])]], 0.0);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merge_of_partitioned_input_matches_whole_input_screening_size() {
        // Screening the whole set and screening per-part then merging need
        // not give identical sets, but the sizes must be close and every kept
        // vector must respect the threshold.
        let pixels: Vec<Vector> = (0..200)
            .map(|i| {
                let a = (i % 37) as f64 * 0.07;
                v(&[a.cos(), a.sin(), (a * 2.0).cos()])
            })
            .collect();
        let threshold = 0.1;
        let whole = screen_pixels(&pixels, threshold);
        let part_a = screen_pixels(&pixels[..100], threshold);
        let part_b = screen_pixels(&pixels[100..], threshold);
        let merged = merge_unique_sets(vec![part_a, part_b], threshold);
        assert_eq!(whole.len(), merged.len());
        for (i, a) in merged.iter().enumerate() {
            for b in merged.iter().skip(i + 1) {
                assert!(a.spectral_angle(b).unwrap() > threshold);
            }
        }
    }

    #[test]
    fn summary_retention() {
        let s = ScreeningSummary {
            input_pixels: 200,
            unique_pixels: 20,
        };
        assert!((s.retention() - 0.1).abs() < 1e-12);
        let empty = ScreeningSummary {
            input_pixels: 0,
            unique_pixels: 0,
        };
        assert_eq!(empty.retention(), 0.0);
    }
}
