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
//! The membership test decides every comparison exactly as the naive
//! `spectral_angle`-per-pair rule ([`crate::reference::naive_screen`]) would.
//! A test costs about one plain dot product, and most pixels need few:
//!
//! * **Cost model.**  Every pixel pays its fast norm (one plain dot) and the
//!   last-hit probe (one test), which settles most pixels of coherent land.
//!   A pixel that misses it pays its two pivot tests (which give its pivot
//!   angles) and then a search by one of two kernels: the pivot index,
//!   whose cost is the rows of the buckets its window meets, or the dense
//!   kernel, one bound check per row admitted before its block and a test
//!   for each row the bound leaves.  Admitting a pixel appends it, and
//!   files it in one bucket.  A chain link's seed is filed the same way, in
//!   one pass.
//! * **Fast tier** (`AngleGuard::decide_fast`): the cosine of
//!   [`linalg::dot_fast`] over *fast norms*, `sqrt(dot_fast(v, v))`, cached
//!   once per member and computed once per pixel.  With `n` bands,
//!   `u = 2^-53`, `γ_n = n u / (1 - n u)` and true norms `N = |a||b|`: each
//!   rounded product reaches the plain sum through at most `n - 1`
//!   additions, so whatever the order of the sum the dot is within
//!   `γ_n Σ|a_i b_i| <= γ_n N` (Cauchy–Schwarz) of `a·b`; a sum of squares
//!   is within `γ_n` relative, its root within `γ_n / 2 + u`, the product of
//!   two roots within `γ_n + 3u` of `N`, and the division rounds by `u`.  So
//!   the fast cosine is within `2γ_n + 4u + O(n²u²) < (2n + 5) u` of the
//!   true one.
//! * **Exact tier** (`AngleGuard::similar`): the naive rule's arithmetic —
//!   compensated dot over compensated norms, which it computes itself on
//!   the rare fall-through → clamp → cosine band; `acos` runs only within
//!   `BOUND_SLACK_RAD` of the threshold, a band far wider than the `acos`
//!   rounding error.  Its products round by `u`, its sums by `2u` plus
//!   `O(n u²)`, its norms by `2.5u` each and its division by `u`, so its
//!   cosine is within `11u` of the true one.
//! * **The two tiers agree.**  They differ by less than `(2n + 16) u`.  The
//!   fast cosine decides only when it clears a band edge by
//!   `δ = (n + 16) · f64::EPSILON = (2n + 32) u`, where the exact cosine is
//!   at least `16u` past the same edge and the exact tier returns the same
//!   answer without reaching `acos`.  Everything else falls through to the
//!   exact tier: a cosine inside `δ` of an edge, a norm that is zero,
//!   non-finite or outside `FAST_NORM_RANGE` (where a product could overflow
//!   or underflow and void the bound), and mismatched band counts (which
//!   still panic there).  The dense kernel's cosines are `dot_fast`'s, summed
//!   in its order; the bound above holds for any order, so a kernel that
//!   summed otherwise (a register tile) would need no new one.
//! * **Last-hit probe.**  Admission is the predicate "some member is within
//!   the threshold", which no scan order can change.  The member that
//!   rejected the latest rejected pixel is tested first; in spatially
//!   coherent imagery it usually rejects the next pixel too, and after a
//!   miss the search skips it, so no member is tested twice.
//! * **Pivot bound.**  The spectral angle is a metric on the sphere, so for
//!   any pivot `r`, `θ(p, u) >= |θ(p, r) - θ(u, r)|`: a member whose angle
//!   to a pivot differs from the pixel's by more than the threshold cannot
//!   screen the pixel and is not tested (LAESA-style pivot indexing).  Every
//!   angle here is `acos` of a fast cosine, clamped.
//!   - *The slack.*  `reach = t + 3·acos(1 - (n + 16) ε) + 2·BOUND_SLACK_RAD`.
//!     Either tier's cosine is within `e = (n + 16) ε = (2n + 32) u` of the
//!     true cosine (above).  `acos` is ill-conditioned next to ±1, where
//!     `|acos c₁ - acos c₂| <= acos(1 - |c₁ - c₂|)`, so a computed angle is
//!     within `η = acos(1 - e)` of the true one, and a member the guard
//!     calls similar is truly within `t + η` of the pixel.  By the triangle
//!     inequality its computed pivot angle then differs from the pixel's by
//!     at most `t + 3η`; the `2·BOUND_SLACK_RAD` covers the rounding of
//!     `acos` and of the bound's own differences, each below `1e-15` rad.
//!     A pivot is tested from the very fast-tier cosine its angle comes
//!     from, so a pivot angle costs no test of its own.
//!   - *The bypass.*  A vector is *regular* when its fast norm is in
//!     `FAST_NORM_RANGE` (so it is non-zero and finite) and it has the first
//!     pivot's band count.  The first `PIVOTS` regular members are the
//!     pivots; every other regular member is a *row*.  Only rows are
//!     searched and only regular pixels search them.  The rest — zero,
//!     non-finite, out-of-range or of another band count — are tested the
//!     linear way: an irregular member by every regular pixel that misses
//!     the probe, an irregular pixel against every member in admission
//!     order, so a mismatched band count still panics as before.
//! * **Pivot index** (the index kernel).  Each row is filed with its angles
//!   to the two pivots in a bucket of its first angle, `reach` wide (wider
//!   only below a threshold of about 5e-5 rad), in admission order.  A pixel
//!   searches the at most four buckets its window `θ(p, r₀) ± reach` meets
//!   and tests the rows within `reach` of both of its pivot angles.  The
//!   order in which a search meets the rows may change which member is
//!   found first, and so `last_hit` and the count of tests, never a verdict.
//! * **Dense kernel** (the river kernel).  Where every pixel is unique — a
//!   river at 5°, where 48-band noise vectors all lie at about the same
//!   angle to any pivot — a window holds most of the index and searching it
//!   costs more than a plain scan.  The dense kernel screens a block in two
//!   passes: it drops every pixel that a member admitted before the block
//!   screens, then takes the survivors in order, each against the rows the
//!   block has admitted before it, so it is exact for any block.  Its
//!   first pass tests the first `KERNEL_PIVOTS` rows (its own pivots) from
//!   the cosines that give the pixel's angles to them, and every other row
//!   only inside the pivot bound at all of them, checked without a branch
//!   over rows stored contiguously, a chunk at a time.  The kernel for each
//!   block of `BLOCK` pixels is chosen from the one before it: the dense
//!   kernel when the buckets its pixels' windows met held more than half of
//!   the index, the index otherwise — the windows' size, not how many
//!   pixels survive, so an all-unique cube at 1e-4 rad, whose windows are
//!   nearly empty, stays on the index.
//!
//! A NaN sample that reaches screening (one that skipped ingest's checks)
//! makes its pixel's norm NaN, and every angle to that pixel NaN, which is
//! never within the threshold: the pixel is distinct from every member, so
//! it is always admitted, and as a member it screens nothing.
//!
//! The engine takes borrowed `&[f64]` pixels; only admitted pixels are
//! copied into a [`Vector`], and a row's samples into the dense kernel's
//! contiguous store once that kernel first runs.

use linalg::{dot, dot_fast, norm, Vector};
use std::f64::consts::{FRAC_PI_2, PI};
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
            cos_distinct: (threshold_rad + BOUND_SLACK_RAD).min(PI).cos(),
        }
    }

    /// Whether `pixel` and `other` are within the threshold angle (i.e.
    /// `other` *screens out* `pixel`), decided on the compensated dot over
    /// the compensated norms: the naive rule's arithmetic.
    fn similar(&self, pixel: &[f64], other: &[f64]) -> bool {
        let denom = norm(pixel) * norm(other);
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

    /// [`AngleGuard::similar`] decided on the fast tier's cosine, or `None`
    /// where its rounding error could reach a band edge (see the module's
    /// hot-path note for the bound).
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
        self.decide_fast(
            fast_cosine(pixel, pixel_norm, other, other_norm),
            pixel.len(),
        )
    }

    /// The fast tier's decision on a cosine from [`fast_cosine`] over
    /// `bands` bands, or `None` inside its error band.
    #[inline(always)]
    fn decide_fast(&self, cos: f64, bands: usize) -> Option<bool> {
        let delta = (bands + 16) as f64 * f64::EPSILON;
        if cos >= self.cos_similar + delta {
            Some(true)
        } else if cos < self.cos_distinct - delta {
            Some(false)
        } else {
            None
        }
    }
}

/// The fast tier's norm: the plain dot of a vector with itself, rooted.
fn fast_norm(v: &[f64]) -> f64 {
    dot_fast(v, v).sqrt()
}

/// The fast tier's cosine: the plain dot over the two fast norms.
fn fast_cosine(a: &[f64], a_norm: f64, b: &[f64], b_norm: f64) -> f64 {
    dot_fast(a, b) / (a_norm * b_norm)
}

/// The angle a [`fast_cosine`] stands for.
fn angle(cos: f64) -> f64 {
    cos.clamp(-1.0, 1.0).acos()
}

/// Pivots of the index.  In a probe that counted tests, two left fewer
/// than one on `screen_bound`'s cube (39 709 against 44 711) and at
/// 160 × 160 × 48 (1 169 997 against 1 351 231); four and eight left more
/// at 210 bands.
const PIVOTS: usize = 2;

/// The index's half-width around a pixel's pivot angle at `bands` bands:
/// the threshold plus the slack derived in the module's hot-path note.
fn reach(threshold_rad: f64, bands: usize) -> f64 {
    let cosine_error = (bands + 16) as f64 * f64::EPSILON;
    threshold_rad + 3.0 * (1.0 - cosine_error).acos() + 2.0 * BOUND_SLACK_RAD
}

/// A pixel's angles to the pivots, as far as they have been computed.
type Angles = [Option<f64>; PIVOTS];

/// Whether the pivot angles `a` and `b` are all within `reach` of each
/// other: the pivot bound, without which no member can screen a pixel.
/// Every pair is compared, without a branch.
#[inline(always)]
fn near<const N: usize>(a: &[f64; N], b: &[f64; N], reach: f64) -> bool {
    let mut near = true;
    for (x, y) in a.iter().zip(b) {
        near &= (x - y).abs() <= reach;
    }
    near
}

/// Most buckets a [`PivotIndex`] may have: a bucket is `reach` wide down to
/// a threshold of about 5e-5 rad, and never narrower than `π / 2^16`.
const MAX_BUCKETS: usize = 1 << 16;

/// Past a window's ends by at most this much (radians), a first angle is
/// certainly outside it: far above the rounding of `angle ± reach`.
const WINDOW_MARGIN: f64 = 1e-12;

/// The rows of one bucket of a [`PivotIndex`], in admission order, with
/// their angles to the pivots.
#[derive(Debug, Clone, Default)]
struct Bucket {
    angles: Vec<[f64; PIVOTS]>,
    rows: Vec<usize>,
}

/// The indexed members (the rows) in buckets of their angle to the first
/// pivot, each bucket `width >= reach` wide.  A member within `reach` of a
/// pixel's first angle is in one of the at most four buckets the window
/// `θ ± reach` meets, so a search scans those and an insert is a push.
#[derive(Debug, Clone)]
struct PivotIndex {
    width: f64,
    buckets: Vec<Bucket>,
}

impl PivotIndex {
    fn new(reach: f64) -> Self {
        Self {
            width: reach.max(PI / MAX_BUCKETS as f64),
            buckets: Vec::new(),
        }
    }

    /// The bucket of a first angle: monotone in it, and 0 below zero.
    fn bucket(&self, first_angle: f64) -> usize {
        (first_angle / self.width) as usize
    }

    /// Files `row` under its `angles` to the pivots.
    fn insert(&mut self, angles: [f64; PIVOTS], row: usize) {
        let at = self.bucket(angles[0]);
        if at >= self.buckets.len() {
            self.buckets.resize_with(at + 1, Bucket::default);
        }
        self.buckets[at].angles.push(angles);
        self.buckets[at].rows.push(row);
    }

    /// The buckets the window `first_angle ± reach` meets.  A window is
    /// `2 reach` wide (plus margins far below a bucket) and a bucket at least
    /// `reach`, so it meets at most four.
    fn met(&self, first_angle: f64, reach: f64) -> &[Bucket] {
        let last = self.bucket(first_angle + reach + WINDOW_MARGIN);
        let to = self.buckets.len().min(last.saturating_add(1));
        let from = self.bucket(first_angle - reach - WINDOW_MARGIN).min(to);
        assert!(to - from <= 4, "a window meets at most four buckets");
        &self.buckets[from..to]
    }
}

/// How a pixel that gets past the last hit, the bypass and the pivots looks
/// for the rest of the members (see the module's hot-path note).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Only the rows in the buckets its window meets, in the pivot index.
    Index,
    /// Every row admitted before the block, in admission order, behind the
    /// dense kernel's pivot bound.
    Dense,
}

/// The dense kernel's pivots: the first this many rows.  On the river of
/// `smp_speedup`'s cube (rows 0–8 at 160 × 160 × 48, 5°) the screen makes
/// 330 565 tests for its 1 036 080 pairs, where the two-pivot index makes
/// 682 067; in a probe, two, four and eight pivots spread over the river
/// left 65 %, 46 % and 24 % of the pairs to test.
const KERNEL_PIVOTS: usize = 8;

/// Rows the dense kernel bounds before it tests the ones left.
const CHUNK: usize = 64;

/// Pixels screened as one block; the kernel for the next block is chosen
/// from the windows of this one.
const BLOCK: usize = 64;

/// Rows the index must hold, on average over a block's searches, before
/// the dense kernel may screen the next block: below it, the dense
/// kernel's own pivot tests and bounds cost more than they save.
const DENSE_ROWS: usize = 256;

/// What the windows of a block's `searches` met: `held` rows in the
/// buckets met, out of `of` rows in the index at the time.
#[derive(Debug, Clone, Copy, Default)]
struct Windows {
    searches: usize,
    held: usize,
    of: usize,
}

impl Windows {
    /// The kernel for the next block: the dense one when the windows met
    /// most of the index, where the index only adds its own cost.
    fn kernel(self) -> Kernel {
        #[cfg(test)]
        if let Some((kernel, _)) = tests::forced_kernel() {
            return kernel;
        }
        if self.held * 2 > self.of && self.of >= DENSE_ROWS * self.searches {
            Kernel::Dense
        } else {
            Kernel::Index
        }
    }
}

/// The pixels of one block, with their fast norms.
type Block<'a> = Vec<(&'a [f64], f64)>;

/// An incrementally built unique set with cached member norms, an exact
/// pivot index and the dense kernel (see the module's hot-path note).
///
/// This is the screening engine behind `screen_slices_seeded` (and so
/// `screen_pixels` and [`screen_pixels_seeded`]) and `merge_unique_sets`.
/// Both protocols' step 1 drives it through `screen_slices_seeded`: the
/// paper's fan-out with an empty seed, the service's chain with what the
/// earlier links accepted.
#[derive(Debug, Clone)]
pub(crate) struct UniqueSet {
    guard: AngleGuard,
    vectors: Vec<Vector>,
    /// Each member's fast norm.
    norms: Vec<f64>,
    /// Index of the member that rejected the latest rejected pixel; probed
    /// first.
    last_hit: usize,
    /// The first `PIVOTS` regular members, in admission order.
    pivots: Vec<usize>,
    /// The members that are not regular, in admission order.
    bypass: Vec<usize>,
    /// The first pivot's band count: every regular vector's.
    bands: usize,
    /// [`reach`] at `bands` bands.
    reach: f64,
    /// Every other regular member (a *row*), in admission order.
    rows: Vec<usize>,
    /// The rows' fast norms.
    row_norms: Vec<f64>,
    /// The samples of the rows with kernel angles, `bands` to a row: the
    /// dense kernel reads them in order.
    samples: Vec<f64>,
    /// The rows by their angles to the pivots.
    index: PivotIndex,
    /// The angles of a prefix of the rows to the dense kernel's pivots.
    kernel_angles: Vec<[f64; KERNEL_PIVOTS]>,
}

impl UniqueSet {
    /// Creates an empty unique set for the given screening threshold.
    pub(crate) fn new(threshold_rad: f64) -> Self {
        Self::seeded(Vec::new(), threshold_rad)
    }

    /// Creates a unique set pre-populated with `seed` — vectors that are
    /// already known to satisfy the screening rule (a previously computed
    /// unique set) and are therefore admitted without re-checking, in one
    /// pass.
    pub(crate) fn seeded(seed: impl IntoIterator<Item = Vector>, threshold_rad: f64) -> Self {
        let mut set = Self {
            guard: AngleGuard::new(threshold_rad),
            vectors: Vec::new(),
            norms: Vec::new(),
            last_hit: 0,
            pivots: Vec::with_capacity(PIVOTS),
            bypass: Vec::new(),
            bands: 0,
            reach: 0.0,
            rows: Vec::new(),
            row_norms: Vec::new(),
            samples: Vec::new(),
            index: PivotIndex::new(0.0),
            kernel_angles: Vec::new(),
        };
        for vector in seed {
            let norm = fast_norm(vector.as_slice());
            set.push(vector, norm, [None; PIVOTS]);
        }
        set
    }

    /// Number of vectors in the set.
    pub(crate) fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the set is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The vectors admitted so far, in admission order.
    #[cfg(test)]
    pub(crate) fn vectors(&self) -> &[Vector] {
        &self.vectors
    }

    /// Consumes the set and returns its vectors in admission order.
    fn into_vectors(self) -> Vec<Vector> {
        self.vectors
    }

    /// Whether `pixel` is separated from every member by more than the
    /// threshold angle.
    #[cfg(test)]
    pub(crate) fn is_unique(&self, pixel: &[f64]) -> bool {
        let (mut angles, mut windows) = ([None; PIVOTS], Windows::default());
        self.screening_member(
            pixel,
            fast_norm(pixel),
            &mut angles,
            Kernel::Index,
            &mut windows,
        )
        .is_none()
    }

    /// Admits `pixel` if it is unique against the current members; returns
    /// whether it was admitted.
    #[cfg(test)]
    pub(crate) fn admit(&mut self, pixel: &[f64]) -> bool {
        self.admit_one(pixel, fast_norm(pixel), &mut Windows::default())
    }

    /// `UniqueSet::admit` over the pivot index, recording its window.
    fn admit_one(&mut self, pixel: &[f64], norm: f64, windows: &mut Windows) -> bool {
        match self.probe(pixel, norm, Kernel::Index, windows) {
            Some(angles) => {
                self.push(Vector::from(pixel), norm, angles);
                true
            }
            None => false,
        }
    }

    /// Screens `pixels` in order, admitting each one no member screens, in
    /// blocks of [`BLOCK`] pixels: each block on the kernel the windows of
    /// the one before chose.
    fn extend<'a>(&mut self, pixels: impl IntoIterator<Item = &'a [f64]>) {
        let size = block_size();
        let mut block: Block<'a> = Vec::with_capacity(size);
        let (mut windows, mut kernel, mut seen) = (Windows::default(), Kernel::Index, 0);
        for pixel in pixels {
            let norm = fast_norm(pixel);
            // A dense block holds regular pixels after the pivots: any
            // other pixel ends it and is admitted alone.
            if kernel == Kernel::Dense
                && self.pivots.len() == PIVOTS
                && self.is_regular(pixel, norm)
            {
                block.push((pixel, norm));
            } else {
                self.screen_block(&mut block, &mut windows);
                self.admit_one(pixel, norm, &mut windows);
            }
            seen += 1;
            if seen == size {
                self.screen_block(&mut block, &mut windows);
                kernel = std::mem::take(&mut windows).kernel();
                seen = 0;
            }
        }
        self.screen_block(&mut block, &mut windows);
    }

    /// The dense kernel over a block of regular pixels, which it empties:
    /// filter the block against the members admitted before it, then take
    /// the survivors in order, each against the rows the block admitted
    /// before it.
    fn screen_block(&mut self, block: &mut Block<'_>, windows: &mut Windows) {
        if block.is_empty() {
            return;
        }
        let before = self.rows.len();
        self.bound_rows();
        let survivors: Vec<_> = block
            .drain(..)
            .filter_map(|(pixel, norm)| {
                let angles = self.probe(pixel, norm, Kernel::Dense, windows)?;
                Some((pixel, norm, angles))
            })
            .collect();
        for (pixel, norm, angles) in survivors {
            match self.scan(pixel, norm, before..self.rows.len(), usize::MAX) {
                Some(hit) => self.last_hit = hit,
                None => self.push(Vector::from(pixel), norm, angles),
            }
        }
    }

    /// Gives every row its angles to the dense kernel's pivots, and copies
    /// its samples into the kernel's store, once there are that many rows.
    fn bound_rows(&mut self) {
        if self.rows.len() < KERNEL_PIVOTS {
            return;
        }
        for row in self.kernel_angles.len()..self.rows.len() {
            let samples = self.vectors[self.rows[row]].as_slice();
            self.samples.extend_from_slice(samples);
            let (samples, norm) = (self.row_samples(row), self.row_norms[row]);
            let angles = std::array::from_fn(|pivot| {
                #[cfg(test)]
                tests::count_comparison(false);
                angle(fast_cosine(
                    samples,
                    norm,
                    self.row_samples(pivot),
                    self.row_norms[pivot],
                ))
            });
            self.kernel_angles.push(angles);
        }
    }

    /// The pivot angles a unique `pixel` was found with, or `None` when a
    /// member screens it (that member becomes the last hit).
    fn probe(
        &mut self,
        pixel: &[f64],
        pixel_norm: f64,
        kernel: Kernel,
        windows: &mut Windows,
    ) -> Option<Angles> {
        let mut angles = [None; PIVOTS];
        match self.screening_member(pixel, pixel_norm, &mut angles, kernel, windows) {
            Some(hit) => {
                self.last_hit = hit;
                None
            }
            None => Some(angles),
        }
    }

    /// Appends `vector`, which no member screens, and indexes it if it is
    /// regular, computing whatever of its `angles` to the pivots is missing.
    fn push(&mut self, vector: Vector, norm: f64, mut angles: Angles) {
        let member = self.len();
        if !self.is_regular(vector.as_slice(), norm) {
            self.bypass.push(member);
        } else if self.pivots.len() < PIVOTS {
            if self.pivots.is_empty() {
                self.bands = vector.len();
                self.reach = reach(self.guard.threshold_rad, self.bands);
                self.index = PivotIndex::new(self.reach);
            }
            self.pivots.push(member);
        } else {
            for (slot, &pivot) in angles.iter_mut().zip(&self.pivots) {
                slot.get_or_insert_with(|| {
                    #[cfg(test)]
                    tests::count_comparison(false);
                    angle(fast_cosine(
                        vector.as_slice(),
                        norm,
                        self.vectors[pivot].as_slice(),
                        self.norms[pivot],
                    ))
                });
            }
            let angles = angles.map(|angle| angle.expect("every pivot's angle is known"));
            self.index.insert(angles, self.rows.len());
            self.rows.push(member);
            self.row_norms.push(norm);
        }
        self.vectors.push(vector);
        self.norms.push(norm);
    }

    /// Whether the index may hold or search `pixel` (the bypass rule).
    fn is_regular(&self, pixel: &[f64], pixel_norm: f64) -> bool {
        FAST_NORM_RANGE.contains(&pixel_norm)
            && (self.pivots.is_empty() || self.bands == pixel.len())
    }

    /// The samples of row `row`: from the dense kernel's store once the row
    /// is there, else from its vector.
    #[inline(always)]
    fn row_samples(&self, row: usize) -> &[f64] {
        match self.samples.get(row * self.bands..(row + 1) * self.bands) {
            Some(samples) => samples,
            None => self.vectors[self.rows[row]].as_slice(),
        }
    }

    /// Whether `member` screens `pixel`, decided in two tiers.
    fn screens(&self, pixel: &[f64], pixel_norm: f64, member: usize) -> bool {
        let (other, other_norm) = (self.vectors[member].as_slice(), self.norms[member]);
        let fast = self
            .guard
            .similar_fast(pixel, pixel_norm, other, other_norm);
        self.decide(fast, pixel, member)
    }

    /// [`UniqueSet::screens`] for a regular `pixel` and pivot `j`, on the
    /// fast tier's cosine, whose angle is kept as the pixel's.
    fn screens_as_pivot(
        &self,
        pixel: &[f64],
        pixel_norm: f64,
        j: usize,
        angles: &mut Angles,
    ) -> bool {
        let pivot = self.pivots[j];
        let cos = fast_cosine(
            pixel,
            pixel_norm,
            self.vectors[pivot].as_slice(),
            self.norms[pivot],
        );
        angles[j] = Some(angle(cos));
        self.decide_regular(cos, pixel, pivot)
    }

    /// [`UniqueSet::screens`] for a regular `pixel` and row `row`.
    #[inline(always)]
    fn screens_row(&self, pixel: &[f64], pixel_norm: f64, row: usize) -> bool {
        let cos = self.row_cosine(pixel, pixel_norm, row);
        self.decide_regular(cos, pixel, self.rows[row])
    }

    /// The fast tier's cosine of a regular `pixel` and row `row`.
    #[inline(always)]
    fn row_cosine(&self, pixel: &[f64], pixel_norm: f64, row: usize) -> f64 {
        fast_cosine(
            pixel,
            pixel_norm,
            self.row_samples(row),
            self.row_norms[row],
        )
    }

    /// [`UniqueSet::decide`] on the fast tier's cosine of a regular pixel
    /// and a regular member.
    #[inline(always)]
    fn decide_regular(&self, cos: f64, pixel: &[f64], member: usize) -> bool {
        self.decide(self.guard.decide_fast(cos, self.bands), pixel, member)
    }

    /// The fast tier's answer, or the exact tier's where it has none.
    #[inline(always)]
    fn decide(&self, fast: Option<bool>, pixel: &[f64], member: usize) -> bool {
        match fast {
            Some(similar) => {
                #[cfg(test)]
                tests::count_comparison(false);
                similar
            }
            None => self.exact(pixel, member),
        }
    }

    /// The exact tier's answer: the naive rule's.
    #[cold]
    fn exact(&self, pixel: &[f64], member: usize) -> bool {
        #[cfg(test)]
        tests::count_comparison(true);
        self.guard.similar(pixel, self.vectors[member].as_slice())
    }

    /// The index kernel: the first row but `skip`'s in the buckets `met`
    /// within the pivot bound of `angles` that screens the regular `pixel`.
    fn search(
        &self,
        pixel: &[f64],
        pixel_norm: f64,
        angles: &[f64; PIVOTS],
        met: &[Bucket],
        skip: usize,
    ) -> Option<usize> {
        for bucket in met {
            for (bound, &row) in bucket.angles.iter().zip(&bucket.rows) {
                if near(bound, angles, self.reach)
                    && self.rows[row] != skip
                    && self.screens_row(pixel, pixel_norm, row)
                {
                    return Some(self.rows[row]);
                }
            }
        }
        None
    }

    /// The dense kernel: the first row but `skip`'s that screens the regular
    /// `pixel`.  The kernel's pivots are tested first, from the cosines the
    /// pixel's angles to them come from; every other row with angles is
    /// tested only inside the pivot bound, a chunk of rows bounded at a
    /// time; the rows after those are tested outright.
    fn dense(&self, pixel: &[f64], pixel_norm: f64, skip: usize) -> Option<usize> {
        let bounded = self.kernel_angles.len();
        let mut angles = [0.0; KERNEL_PIVOTS];
        if bounded > 0 {
            for (row, slot) in angles.iter_mut().enumerate() {
                let (member, cos) = (self.rows[row], self.row_cosine(pixel, pixel_norm, row));
                if member != skip && self.decide_regular(cos, pixel, member) {
                    return Some(member);
                }
                *slot = angle(cos);
            }
        }
        let from = KERNEL_PIVOTS.min(bounded);
        let mut candidates = [0; CHUNK];
        for (first, bounds) in (from..bounded)
            .step_by(CHUNK)
            .zip(self.kernel_angles[from..].chunks(CHUNK))
        {
            let mut found = 0;
            for (row, bound) in (first..).zip(bounds) {
                candidates[found] = row;
                found += usize::from(near(bound, &angles, self.reach));
            }
            let hit = candidates[..found]
                .iter()
                .find(|&&row| self.rows[row] != skip && self.screens_row(pixel, pixel_norm, row));
            if let Some(&row) = hit {
                return Some(self.rows[row]);
            }
        }
        self.scan(pixel, pixel_norm, bounded..self.rows.len(), skip)
    }

    /// The first of `rows` but `skip`'s that screens the regular `pixel`,
    /// each tested in turn.
    fn scan(
        &self,
        pixel: &[f64],
        pixel_norm: f64,
        rows: std::ops::Range<usize>,
        skip: usize,
    ) -> Option<usize> {
        rows.into_iter()
            .find(|&row| self.rows[row] != skip && self.screens_row(pixel, pixel_norm, row))
            .map(|row| self.rows[row])
    }

    /// Index of a member within the threshold angle of `pixel`, if any: the
    /// last hit when it still applies, else one the pivot bound cannot rule
    /// out, found by `kernel`.  Fills in the pixel's `angles` to the pivots
    /// on the way, and records its window in `windows`.
    fn screening_member(
        &self,
        pixel: &[f64],
        pixel_norm: f64,
        angles: &mut Angles,
        kernel: Kernel,
        windows: &mut Windows,
    ) -> Option<usize> {
        let regular = self.is_regular(pixel, pixel_norm);
        let last = self.last_hit;
        if last < self.len() {
            let hit = match self.pivots.iter().position(|&pivot| pivot == last) {
                Some(j) if regular => self.screens_as_pivot(pixel, pixel_norm, j, angles),
                _ => self.screens(pixel, pixel_norm, last),
            };
            if hit {
                return Some(last);
            }
        }
        let screens = |member: usize| member != last && self.screens(pixel, pixel_norm, member);
        if !regular {
            return (0..self.len()).find(|&member| screens(member));
        }
        if let Some(&member) = self.bypass.iter().find(|&&member| screens(member)) {
            return Some(member);
        }
        for (j, &pivot) in self.pivots.iter().enumerate() {
            if angles[j].is_none() && self.screens_as_pivot(pixel, pixel_norm, j, angles) {
                return Some(pivot);
            }
        }
        if self.rows.is_empty() {
            return None;
        }
        // The index holds rows only once every pivot is chosen, so every
        // angle is known here.
        let angles = angles.map(|angle| angle.expect("every pivot's angle is known"));
        let met = self.index.met(angles[0], self.reach);
        let held: usize = met.iter().map(|bucket| bucket.rows.len()).sum();
        windows.searches += 1;
        windows.held += held;
        windows.of += self.rows.len();
        match kernel {
            Kernel::Index => {
                #[cfg(test)]
                tests::count_index_work(held);
                self.search(pixel, pixel_norm, &angles, met, last)
            }
            Kernel::Dense => self.dense(pixel, pixel_norm, last),
        }
    }
}

/// Pixels per block: [`BLOCK`], or what a test sets.
fn block_size() -> usize {
    #[cfg(test)]
    if let Some((_, size)) = tests::forced_kernel() {
        return size;
    }
    BLOCK
}

/// Builds the unique set of a collection of pixel vectors using greedy
/// spectral-angle screening (step 1).
///
/// A pixel joins the unique set if its spectral angle to *every* vector
/// already in the set exceeds `threshold_rad`.  With a threshold of zero the
/// screening keeps every pixel (no screening).
#[cfg(test)]
pub(crate) fn screen_pixels(pixels: &[Vector], threshold_rad: f64) -> Vec<Vector> {
    screen_slices_seeded(
        Vec::new(),
        pixels.iter().map(Vector::as_slice),
        threshold_rad,
    )
}

/// Greedy screening of `pixels` against an already-accepted `seed` set,
/// returning only the *newly* admitted vectors in admission order.
///
/// This is the exactness primitive of the service layer's screening chain:
/// for any split of a pixel sequence into consecutive parts, folding the
/// parts through seeded screening reproduces `screen_pixels` of the whole
/// sequence bit-for-bit —
/// `screen(A ++ B) == screen(A) ++ screen_seeded(screen(A), B)`.
pub fn screen_pixels_seeded(seed: &[Vector], pixels: &[Vector], threshold_rad: f64) -> Vec<Vector> {
    screen_slices_seeded(
        seed.to_vec(),
        pixels.iter().map(Vector::as_slice),
        threshold_rad,
    )
}

/// [`screen_pixels_seeded`] over an owned seed and borrowed pixel slices
/// (`CubeView::iter_pixels`): only the admitted pixels are copied.  An
/// empty seed is step 1 on its own: `screen_pixels`.
pub(crate) fn screen_slices_seeded<'a>(
    seed: Vec<Vector>,
    pixels: impl IntoIterator<Item = &'a [f64]>,
    threshold_rad: f64,
) -> Vec<Vector> {
    if threshold_rad <= 0.0 {
        return pixels.into_iter().map(Vector::from).collect();
    }
    let seeded = seed.len();
    let mut unique = UniqueSet::seeded(seed, threshold_rad);
    unique.extend(pixels);
    let mut vectors = unique.into_vectors();
    vectors.drain(..seeded);
    vectors
}

/// Merges several per-worker unique sets into one (step 2), applying the same
/// screening rule across sets so signatures found by two different workers
/// are not duplicated.
///
/// The result is greedy screening of the sets' concatenation, in filter
/// form: set k's survivors are exactly its members that no survivor of sets
/// 0..k screens, so each member is tested against those alone.  Two facts
/// make that exact.  Each set is an unseeded screen at the same threshold
/// (a worker's answer to a `ScreenSeededTask` with an empty seed), so the
/// guard already found each of its members unique against every earlier
/// member of the set; testing the set against its own survivors could only
/// repeat those answers.  And the
/// guard's predicate is symmetric bit for bit — both tiers' dots sum the
/// same commuted products in the same order, over a commuted product of the
/// same two norms — so those answers hold whichever vector of a pair is the
/// pixel.  A set that is not such a screen (a faulty or hostile worker's)
/// makes the merged set wrong under the admission loop as well; nothing
/// here guards against it.  This is the dense kernel's first pass with the
/// sets for blocks, each set on the kernel the windows of the one before
/// chose.
pub(crate) fn merge_unique_sets(sets: Vec<Vec<Vector>>, threshold_rad: f64) -> Vec<Vector> {
    if threshold_rad <= 0.0 {
        return sets.into_iter().flatten().collect();
    }
    let mut merged = UniqueSet::new(threshold_rad);
    let mut windows = Windows::default();
    for set in sets {
        let kernel = std::mem::take(&mut windows).kernel();
        if kernel == Kernel::Dense {
            merged.bound_rows();
        }
        let survivors: Vec<_> = set
            .into_iter()
            .filter_map(|vector| {
                let norm = fast_norm(vector.as_slice());
                let angles = merged.probe(vector.as_slice(), norm, kernel, &mut windows)?;
                Some((vector, norm, angles))
            })
            .collect();
        for (vector, norm, angles) in survivors {
            merged.push(vector, norm, angles);
        }
    }
    merged.into_vectors()
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

    thread_local! {
        /// Rows in the pivot-index buckets searched on this thread.
        static INDEX_WORK: Cell<u64> = const { Cell::new(0) };
        /// The kernel and block size every screen on this thread uses, when
        /// set.
        static FORCED: Cell<Option<(Kernel, usize)>> = const { Cell::new(None) };
    }

    /// Called by `UniqueSet` for the rows of the buckets it searches.
    pub(super) fn count_index_work(rows: usize) {
        INDEX_WORK.with(|c| c.set(c.get() + rows as u64));
    }

    /// Resets this thread's index-work counter, returning the old value.
    fn take_index_work() -> u64 {
        INDEX_WORK.with(|c| c.replace(0))
    }

    /// The kernel and block size forced on this thread, if any.
    pub(super) fn forced_kernel() -> Option<(Kernel, usize)> {
        FORCED.with(Cell::get)
    }

    /// Runs `f` with every screen on this thread on `kernel` in blocks of
    /// `block` pixels.
    fn forcing<T>(kernel: Kernel, block: usize, f: impl FnOnce() -> T) -> T {
        let old = FORCED.with(|c| c.replace(Some((kernel, block))));
        let out = f();
        FORCED.with(|c| c.set(old));
        out
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

    /// Step 1's comparisons, pivot cosines included, on the first cube
    /// `fusebench --seed 1` generates for each of its five shapes (the
    /// `image_rows` cubes), with the unique count they leave.  This is the
    /// count the pivot index drives down: before it, the same screens made
    /// 11 466, 185 250, 9 825, 4 268 and 4 096 comparisons, and with the
    /// index kept sorted by first angle 4 542, 37 166, 2 604, 4 255 and
    /// 4 096.  None of these shapes holds enough rows for the dense kernel.
    #[test]
    fn comparisons_per_fusebench_shape_are_pinned() {
        use hsi::{CubeDims, SceneConfig, SceneGenerator};
        let shapes = [
            (32, 32, 210, 5.0, 128, 4_234),
            (64, 64, 32, 5.0, 427, 33_248),
            (28, 28, 14, 5.0, 100, 2_464),
            (64, 64, 64, 30.0, 13, 4_250),
            (64, 64, 32, 45.0, 2, 4_096),
        ];
        for (width, height, bands, degrees, unique, comparisons) in shapes {
            let mut scene = SceneConfig::small(1_000_003);
            scene.dims = CubeDims::new(width, height, bands);
            let cube = SceneGenerator::new(scene).unwrap().generate();
            take_tier_counts();
            let screened =
                screen_slices_seeded(Vec::new(), cube.iter_pixels(), f64::to_radians(degrees));
            let (all, exact) = take_tier_counts();
            assert_eq!(
                (screened.len(), all, exact),
                (unique, comparisons, 0),
                "{width} x {height} x {bands} at {degrees} degrees"
            );
        }
    }

    /// The river of `smp_speedup`'s cube (rows 0–8 of `paper_eval(11)` at
    /// 160 × 160 × 48, every pixel unique at 5°) screens in less time than
    /// the plain all-pairs `dot_fast` loop over the same pixels, the best
    /// of seven runs each, in the same process (release only:
    /// `cargo test --release -p pct river -- --ignored`).
    #[test]
    #[ignore = "release only: a timing"]
    fn the_river_screens_faster_than_all_pairs_dot_fast() {
        use hsi::{CubeDims, SceneConfig, SceneGenerator};
        use std::hint::black_box;
        use std::time::Instant;
        let mut config = SceneConfig::paper_eval(11);
        config.dims = CubeDims::new(160, 160, 48);
        let cube = SceneGenerator::new(config).unwrap().generate();
        let river: Vec<&[f64]> = cube.iter_pixels().take(160 * 9).collect();
        let best = |run: &mut dyn FnMut() -> usize| {
            (0..7)
                .map(|_| {
                    let start = Instant::now();
                    black_box(run());
                    start.elapsed()
                })
                .min()
                .expect("seven runs")
        };
        let threshold = 5.0_f64.to_radians();
        let screen =
            best(&mut || screen_slices_seeded(Vec::new(), river.iter().copied(), threshold).len());
        let all_pairs = best(&mut || {
            let mut sum = 0.0;
            for (i, a) in river.iter().enumerate() {
                for b in &river[..i] {
                    sum += dot_fast(a, b);
                }
            }
            black_box(sum) as usize
        });
        assert_eq!(
            screen_slices_seeded(Vec::new(), river.iter().copied(), threshold).len(),
            river.len()
        );
        eprintln!("river: screen {screen:?}, all-pairs dot_fast {all_pairs:?}");
        assert!(
            screen < all_pairs,
            "screen {screen:?}, all pairs {all_pairs:?}"
        );
    }
}
