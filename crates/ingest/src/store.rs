//! The content-addressed cube store: repeated scenes become `Arc` bumps.
//!
//! Ingestion often sees the same scene more than once — re-submitted
//! acquisitions, the same product exported in different interleaves, a
//! directory replayed after a crash.  The store addresses cubes by a hash
//! of their *content* (dimensions + every sample's bit pattern, i.e. the
//! canonical in-memory BIP form — the file interleave is an encoding
//! detail, so the same scene shipped as BIL and BSQ deduplicates), keeps
//! them behind `Arc`s with LRU eviction bounded in bytes, and counts hits
//! and misses so dedup is a measured number in the [`crate::IngestReport`].

use hsi::HyperCube;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// 64-bit hash of the cube's dimensions and sample bit patterns in
/// canonical BIP order, eight bytes at a time: the words go round four
/// independent multiply-rotate lanes (so four multiplies are in flight and
/// the hash runs at memory speed), a last partial round of one to three
/// words is taken explicitly, and the lanes are folded together with the
/// sample count and avalanched.  No per-process seed and no
/// platform-dependent step (`f64::to_bits` words, wrapping `u64`
/// arithmetic), so store behaviour — and therefore the bench counters —
/// is replayable; the value is an in-process map key that nothing persists.
pub fn content_hash(cube: &HyperCube) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    let round = |lane: u64, word: u64| {
        lane.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let dims = cube.dims();
    let mut lanes = [dims.width, dims.height, dims.bands, 0].map(|word| round(P3, word as u64));
    let samples = cube.samples();
    let mut blocks = samples.chunks_exact(lanes.len());
    for block in &mut blocks {
        for (lane, sample) in lanes.iter_mut().zip(block) {
            *lane = round(*lane, sample.to_bits());
        }
    }
    for (lane, sample) in lanes.iter_mut().zip(blocks.remainder()) {
        *lane = round(*lane, sample.to_bits());
    }
    let mut hash = samples.len() as u64;
    for lane in lanes {
        hash = round(hash.rotate_left(27), lane);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// Whether two cubes hold the same dimensions and the same sample *bit
/// patterns* — the relation [`content_hash`] hashes, which `f64 ==` is not
/// (a `NaN` differs from itself, `0.0 == -0.0`).  Differences are OR-ed
/// over 64 samples between tests, which is what lets the compare run at
/// `memcmp` speed.
fn same_bits(a: &HyperCube, b: &HyperCube) -> bool {
    let same = |(a, b): (&[f64], &[f64])| {
        let differences = |bits, (x, y): (&f64, &f64)| bits | (x.to_bits() ^ y.to_bits());
        a.iter().zip(b).fold(0, differences) == 0
    };
    let (a_runs, b_runs) = (a.samples().chunks(64), b.samples().chunks(64));
    a.dims() == b.dims() && a_runs.zip(b_runs).all(same)
}

/// A content-addressed, LRU-evicted cache of ingested cubes.
#[derive(Debug)]
pub struct CubeStore {
    capacity_bytes: usize,
    resident: HashMap<u64, Arc<HyperCube>>,
    /// Least-recently-used order, front = coldest.
    lru: VecDeque<u64>,
    resident_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
}

impl CubeStore {
    /// Creates a store holding at most `capacity_bytes` of cube payload.
    /// A single cube larger than the capacity is still admitted (everything
    /// else is evicted first); the bound is honoured again as soon as it is
    /// evicted or joined by another cube.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            resident: HashMap::new(),
            lru: VecDeque::new(),
            resident_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            collisions: 0,
        }
    }

    /// Interns a freshly decoded cube: if a cube with identical content is
    /// resident, the stored `Arc` is returned (a hit — the duplicate is
    /// dropped and downstream holds the shared storage); otherwise the cube
    /// is inserted (a miss), evicting cold entries to stay within capacity.
    /// Returns the canonical `Arc` and whether it was a hit.
    ///
    /// A hit is only declared after the resident cube's content is compared
    /// equal: a 64-bit hash collision (crafted or birthday-paradox) must
    /// never substitute a different image.  A verified collision is counted
    /// ([`CubeStore::collisions`]) and the new cube passes through uncached.
    pub fn intern(&mut self, cube: Arc<HyperCube>) -> (Arc<HyperCube>, bool) {
        let hash = content_hash(&cube);
        if let Some(stored) = self.resident.get(&hash) {
            if same_bits(stored, &cube) {
                self.hits += 1;
                let stored = Arc::clone(stored);
                self.touch(hash);
                return (stored, true);
            }
            // Same hash, different content: the slot stays with the
            // resident cube; the arrival is served uncached.
            self.collisions += 1;
            self.misses += 1;
            return (cube, false);
        }
        self.misses += 1;
        self.resident_bytes += cube.byte_size();
        self.resident.insert(hash, Arc::clone(&cube));
        self.lru.push_back(hash);
        self.evict_to_capacity(hash);
        (cube, false)
    }

    /// Moves `hash` to the hot end of the LRU order.
    fn touch(&mut self, hash: u64) {
        if let Some(pos) = self.lru.iter().position(|&h| h == hash) {
            self.lru.remove(pos);
            self.lru.push_back(hash);
        }
    }

    /// Evicts cold entries (never `keep`) until the byte bound holds.
    fn evict_to_capacity(&mut self, keep: u64) {
        while self.resident_bytes > self.capacity_bytes && self.lru.len() > 1 {
            let Some(pos) = self.lru.iter().position(|&h| h != keep) else {
                break;
            };
            let cold = self.lru.remove(pos).expect("position is in bounds");
            if let Some(evicted) = self.resident.remove(&cold) {
                self.resident_bytes -= evicted.byte_size();
                self.evictions += 1;
            }
        }
    }

    /// Whether a cube with this content hash is resident.
    pub fn contains(&self, hash: u64) -> bool {
        self.resident.contains_key(&hash)
    }

    /// Number of resident cubes.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Payload bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The configured byte bound.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Interns that found identical content resident.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Interns that inserted new content.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to hold the byte bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hash collisions caught by the content comparison (the arrival was
    /// served uncached instead of being substituted).
    pub fn collisions(&self) -> u64 {
        self.collisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi::{CubeDims, SceneConfig, SceneGenerator};

    fn cube(seed: u64, side: usize) -> Arc<HyperCube> {
        let mut config = SceneConfig::small(seed);
        config.dims = CubeDims::new(side, side, 4);
        Arc::new(SceneGenerator::new(config).unwrap().generate())
    }

    #[test]
    fn identical_content_dedups_into_an_arc_bump() {
        let mut store = CubeStore::new(1 << 20);
        let first = cube(1, 8);
        // A *different allocation* with identical content: dedup must be by
        // content, not pointer.
        let second = Arc::new((*cube(1, 8)).clone());
        assert!(!Arc::ptr_eq(&first, &second));

        let (stored_a, hit_a) = store.intern(Arc::clone(&first));
        let (stored_b, hit_b) = store.intern(second);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&stored_a, &stored_b), "hit returns shared Arc");
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.resident_bytes(), first.byte_size());
    }

    #[test]
    fn distinct_content_is_kept_apart() {
        let mut store = CubeStore::new(1 << 20);
        let (_, hit_a) = store.intern(cube(1, 8));
        let (_, hit_b) = store.intern(cube(2, 8));
        assert!(!hit_a && !hit_b);
        assert_eq!(store.len(), 2);
        assert_eq!(store.misses(), 2);
    }

    #[test]
    fn lru_eviction_holds_the_byte_bound_and_prefers_cold_entries() {
        let one = cube(1, 8);
        let size = one.byte_size();
        let mut store = CubeStore::new(2 * size);
        store.intern(one);
        store.intern(cube(2, 8));
        // Touch cube 1 so cube 2 is the cold one.
        let (_, hit) = store.intern(cube(1, 8));
        assert!(hit);
        store.intern(cube(3, 8));
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert!(store.resident_bytes() <= store.capacity_bytes());
        // Cube 1 (hot) survived; cube 2 (cold) was evicted.
        assert!(store.contains(content_hash(&cube(1, 8))));
        assert!(!store.contains(content_hash(&cube(2, 8))));
    }

    #[test]
    fn oversized_cube_is_admitted_alone() {
        let big = cube(9, 16);
        let mut store = CubeStore::new(big.byte_size() / 2);
        store.intern(cube(1, 8));
        let (stored, hit) = store.intern(Arc::clone(&big));
        assert!(!hit);
        assert!(Arc::ptr_eq(&stored, &big));
        assert_eq!(store.len(), 1, "everything else was evicted");
        // The next intern evicts the oversized resident again.
        store.intern(cube(2, 8));
        assert!(store.resident_bytes() <= store.capacity_bytes());
    }

    #[test]
    fn hash_collisions_are_detected_and_never_substitute_content() {
        // Forge a collision: plant cube A under cube B's hash (white-box —
        // real 64-bit collisions are impractical to construct here).
        let a = cube(1, 8);
        let b = cube(2, 8);
        let b_hash = content_hash(&b);
        let mut store = CubeStore::new(1 << 20);
        store.resident.insert(b_hash, Arc::clone(&a));
        store.lru.push_back(b_hash);
        store.resident_bytes += a.byte_size();

        let (returned, hit) = store.intern(Arc::clone(&b));
        assert!(!hit, "a collision must not be declared a hit");
        assert!(Arc::ptr_eq(&returned, &b), "the arrival passes through");
        assert_eq!(store.collisions(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), 0);
        // The resident slot still holds cube A.
        assert!(Arc::ptr_eq(store.resident.get(&b_hash).unwrap(), &a));
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let a = cube(4, 8);
        assert_eq!(content_hash(&a), content_hash(&a.clone()));
        assert_ne!(content_hash(&a), content_hash(&cube(5, 8)));
        // Same samples, different dims hash differently.
        let flat = HyperCube::from_samples(
            CubeDims::new(a.pixels() * a.bands(), 1, 1),
            a.samples().to_vec(),
        )
        .unwrap();
        assert_ne!(content_hash(&a), content_hash(&flat));
    }

    #[test]
    fn a_store_hit_is_bit_equality_like_the_hash() {
        // A cube holding a NaN is not `==` to itself, yet re-arrives as a hit.
        let mut samples = cube(3, 8).samples().to_vec();
        samples[5] = f64::NAN;
        let nan = |samples: &[f64]| {
            Arc::new(HyperCube::from_samples(CubeDims::new(8, 8, 4), samples.to_vec()).unwrap())
        };
        let mut store = CubeStore::new(1 << 20);
        let (first, _) = store.intern(nan(&samples));
        let (second, hit) = store.intern(nan(&samples));
        assert!(hit, "the same bits are the same cube");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((store.hits(), store.collisions(), store.len()), (1, 0, 1));
        // Signed zeros are `==` but hash apart: two cubes, never a hit.
        samples[5] = 0.0;
        let (_, hit) = store.intern(nan(&samples));
        samples[5] = -0.0;
        let (negative, hit_negative) = store.intern(nan(&samples));
        assert!(!hit && !hit_negative);
        assert!(negative.samples()[5].is_sign_negative());
        assert_eq!((store.collisions(), store.len()), (0, 3));
    }

    /// A seeded cube of `n` samples (`n x 1 x 1`), every one distinct.
    fn line(n: usize, seed: u64) -> HyperCube {
        let samples = (0..n as u64)
            .map(|i| f64::from_bits((seed + i).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 2))
            .collect();
        HyperCube::from_samples(CubeDims::new(n, 1, 1), samples).unwrap()
    }

    fn edited(cube: &HyperCube, edit: impl FnOnce(&mut [f64])) -> HyperCube {
        let mut samples = cube.samples().to_vec();
        edit(&mut samples);
        HyperCube::from_samples(cube.dims(), samples).unwrap()
    }

    #[test]
    fn content_hash_changes_with_any_one_bit_of_any_one_sample() {
        // Lengths of every residue mod the four lanes, so the last sample
        // falls in the explicit tail as well as in a whole round.
        for n in [1, 2, 3, 4, 5, 6, 7, 8, 61, 62, 63, 64] {
            let cube = line(n, 11);
            let hash = content_hash(&cube);
            for position in [n - 1, 0, n / 2, (n * 7 + 3) % n] {
                for bit in 0..64 {
                    let flipped = edited(&cube, |s| {
                        s[position] = f64::from_bits(s[position].to_bits() ^ (1 << bit));
                    });
                    assert_ne!(
                        hash,
                        content_hash(&flipped),
                        "{n} samples: {position}/{bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn content_hash_changes_when_two_samples_swap() {
        let cube = line(23, 5);
        let hash = content_hash(&cube);
        // Neighbours, the same lane one and three rounds apart, and into
        // the tail.
        for (a, b) in [(0, 1), (2, 6), (3, 15), (1, 21), (20, 22), (0, 22)] {
            let swapped = edited(&cube, |s| s.swap(a, b));
            assert_ne!(hash, content_hash(&swapped), "swap {a} <-> {b}");
        }
    }

    #[test]
    fn content_hash_tells_prefixes_apart() {
        let longest = line(9, 2);
        let hashes: Vec<u64> = (1..=9)
            .map(|n| {
                let prefix = longest.samples()[..n].to_vec();
                content_hash(&HyperCube::from_samples(CubeDims::new(n, 1, 1), prefix).unwrap())
            })
            .collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn content_hash_is_pinned_across_runs_and_platforms() {
        let cube = line(37, 0xF05E);
        assert_eq!(content_hash(&cube), content_hash(&cube));
        assert_eq!(content_hash(&cube), 0x42a4_4c23_5a19_b2b4);
    }

    #[test]
    fn content_hash_interns_the_three_interleaves_of_a_scene_once() {
        use crate::StreamDecoder;
        use hsi::io::{interleave_to_bip_offset, CubeFileHeader, Interleave};
        let scene = cube(6, 8);
        let dims = scene.dims();
        let mut store = CubeStore::new(1 << 20);
        for interleave in Interleave::ALL {
            let payload: Vec<u8> = (0..dims.samples())
                .flat_map(|i| {
                    scene.samples()[interleave_to_bip_offset(dims, interleave, i)].to_le_bytes()
                })
                .collect();
            let mut decoder = StreamDecoder::new(CubeFileHeader::new(dims, interleave));
            decoder.push(&payload).unwrap();
            store.intern(decoder.finish().unwrap());
        }
        assert_eq!((store.len(), store.misses(), store.hits()), (1, 1, 2));
    }
}
