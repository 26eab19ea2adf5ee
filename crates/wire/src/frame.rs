//! Length-prefixed, CRC-checked frames.
//!
//! Every message travels as one frame:
//!
//! ```text
//! ┌──────────┬──────────┬──────────┬──────────────────────┐
//! │ magic    │ body len │ CRC-32   │ body (codec payload) │
//! │ u32 LE   │ u32 LE   │ u32 LE   │ `len` bytes          │
//! └──────────┴──────────┴──────────┴──────────────────────┘
//! ```
//!
//! The magic resynchronizes nothing — a stream that loses sync is dead —
//! but it turns "connected to the wrong service" into a typed
//! [`WireError::BadMagic`] instead of garbage decoding.  The CRC-32 (IEEE
//! polynomial, the zlib/ethernet one) covers the body only.  On `x86_64` a
//! CPU with `pclmulqdq` and `sse4.1` folds the body's 16-byte blocks by
//! carry-less multiplication and a Barrett reduction (Gopal et al., *Fast CRC
//! Computation for Generic Polynomials Using PCLMULQDQ Instruction*, Intel,
//! 2009); short bodies, the last < 16 bytes and every other CPU run the
//! slicing-by-8 table.  Both give the same CRC bit for bit.  A length beyond
//! [`MAX_FRAME_BYTES`] is rejected *before* any allocation, so a corrupted
//! or hostile length prefix cannot OOM the receiver.
//!
//! A frame's bytes are written once on each side.  The encoder reserves the
//! header, writes the body behind it and [`seal`]s the header in place; the
//! [`FrameReader`] reserves the announced body length once, checks the CRC
//! where the bytes landed and hands that same buffer out as the body.

use crate::{Result, WireError};
use std::io::Read;

/// `"FUS1"` little-endian: the frame magic.
pub const MAGIC: u32 = 0x3153_5546;

/// Bytes of the fixed frame header (magic + body length + CRC).
pub const FRAME_HEADER_BYTES: usize = 12;

/// Ceiling on a frame body.  The largest legitimate message — a transform
/// task carrying a full 320×320×105 scene as f64 plus the transform matrix
/// — is ≈ 86 MB; 256 MiB leaves generous headroom while still bounding a
/// corrupt length prefix.
pub const MAX_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// CRC-32 (IEEE) slicing-by-8 tables, computed at compile time.  Table 0
/// is the classic one-byte-at-a-time table; entry `b` of table `k` is the
/// CRC state byte `b` leaves behind after `k` further zero bytes, so eight
/// lookups — one per input byte, each in the table matching that byte's
/// distance from the end of the block — advance the state by eight bytes.
pub(crate) const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE polynomial) of `bytes`.
///
/// A body of at least 64 bytes on a CPU with `pclmulqdq` and
/// `sse4.1` (detected at run time, `x86_64` only) has its 16-byte blocks
/// folded by carry-less multiplication at about memory speed; the slicing-by-8
/// table takes the < 16-byte tail, short bodies such as heartbeats, and
/// every other CPU.  The fold and its Barrett reduction are those of Gopal
/// et al., *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction* (Intel, 2009).  Both kernels compute the same CRC bit for
/// bit, and nothing but the CPU chooses between them.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut state = !0;
    let mut tail = bytes;
    if bytes.len() >= FOLD_MIN_BYTES {
        if let Some(folded) = fold_blocks(state, bytes) {
            (state, tail) = folded;
        }
    }
    !slice_by_8(state, tail)
}

/// The shortest body the folding kernel takes: its four 128-bit lanes.
const FOLD_MIN_BYTES: usize = 64;

/// The folding kernel on this CPU: CRC state `state` advanced over the
/// whole 16-byte blocks of `bytes`, and the < 16-byte tail they leave
/// (`bytes` itself when it holds fewer than four blocks).  `None` on a CPU
/// without `pclmulqdq` and `sse4.1`, and off `x86_64`.
#[allow(unsafe_code)]
fn fold_blocks(state: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        // SAFETY: `clmul::fold` enables `pclmulqdq` and `sse4.1` and nothing
        // else, and this CPU was just detected to have both.
        return Some(unsafe { clmul::fold(state, bytes) });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (state, bytes);
    None
}

/// The table kernel: CRC state `state` advanced over `bytes`, eight bytes
/// per step, then byte by byte.
fn slice_by_8(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (blocks, rest) = bytes.as_chunks::<8>();
    for block in blocks {
        let [b0, b1, b2, b3, b4, b5, b6, b7] = *block;
        let lo = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in rest {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 by folding (Gopal et al., 2009): the body is four 128-bit lanes,
/// each multiplied carry-less by the pair x^(512±32) mod P and added to the
/// block 64 bytes on; the lanes fold into one, the remaining 16-byte blocks fold into it
/// 128 bits on, and a last fold and a Barrett reduction leave the 32-bit
/// state.  Everything is bit-reflected, as the table's state is.  The
/// constants are the reflected ones of Linux's `crc32-pclmul_asm.S`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// x^(4·128+32) and x^(4·128-32) mod P: one lane 512 bits on.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128-32) mod P: one block 128 bits on.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: the last 32-bit fold.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P (with its x^32 term) and μ = x^64 / P of the
    /// Barrett reduction.
    const P_PRIME: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// One 16-byte block, little-endian, as 128 bits.
    #[target_feature(enable = "sse2")]
    fn load(&[lo, hi]: &[[u8; 8]; 2]) -> __m128i {
        _mm_set_epi64x(u64::from_le_bytes(hi) as i64, u64::from_le_bytes(lo) as i64)
    }

    /// `x` moved 128 · n bits on by the pair `k` = (lo, hi), plus `data`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(x: __m128i, k: __m128i, data: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), data)
    }

    /// See [`super::fold_blocks`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (words, _) = bytes.as_chunks::<8>();
        let (blocks, _) = words.as_chunks::<2>();
        let Some((first, rest)) = blocks.split_first_chunk::<4>() else {
            return (state, bytes);
        };
        let tail = &bytes[blocks.len() * 16..];

        let mut lanes = first.map(|block| load(&block));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_into(*lane, k1k2, load(block));
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let [l0, l1, l2, l3] = lanes;
        let mut x = fold_into(fold_into(fold_into(l0, k3k4, l1), k3k4, l2), k3k4, l3);
        for block in singles {
            x = fold_into(x, k3k4, load(block));
        }

        // 128 → 64 bits: the low half × K4 onto the high half.
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 64 → 32 bits: the low word × K5 onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: q = (x mod x^32) · μ, then x + (q mod x^32) · P.
        let poly = _mm_set_epi64x(MU, P_PRIME);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
        let r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
        (_mm_extract_epi32(_mm_xor_si128(x, r), 1) as u32, tail)
    }
}

/// Seals a frame in place: `buf` holds [`FRAME_HEADER_BYTES`] reserved
/// bytes followed by the body, and the header is written over the reserved
/// bytes — no second buffer, no body copy.
pub fn seal(buf: &mut [u8]) {
    let (header, body) = buf.split_at_mut(FRAME_HEADER_BYTES);
    debug_assert!(
        body.len() <= MAX_FRAME_BYTES,
        "encoder produced an oversized frame"
    );
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[8..12].copy_from_slice(&crc32(body).to_le_bytes());
}

/// Wraps a codec body into a complete frame (header + body).
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    out.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    out.extend_from_slice(body);
    seal(&mut out);
    out
}

/// Incremental frame parser over an arbitrary byte stream.
///
/// Transports push whatever bytes arrive — partial frames, several frames
/// at once — and pop complete, CRC-verified bodies.  Any header-level
/// violation (bad magic, oversized length, CRC mismatch) is a typed error;
/// a partial frame simply waits for more bytes.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Header of the frame being assembled, as far as it has arrived.
    header: Vec<u8>,
    /// Its body, as far as it has arrived, in a buffer reserved at the
    /// announced length: the buffer [`FrameReader::next_frame`] hands out.
    body: Vec<u8>,
    /// Bytes pushed behind the end of that frame; they wait for its pop.
    behind: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes received from the stream.
    pub fn push(&mut self, mut bytes: &[u8]) {
        let mut take = |n: usize| {
            let (head, tail) = bytes.split_at(n.min(bytes.len()));
            bytes = tail;
            head
        };
        self.header
            .extend_from_slice(take(FRAME_HEADER_BYTES - self.header.len()));
        // An invalid header takes no body; `next_frame` reports it.
        if let Ok(Some((len, _))) = self.announced() {
            let missing = len - self.body.len();
            self.body.reserve_exact(missing);
            self.body.extend_from_slice(take(missing));
        }
        self.behind.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a complete frame.
    pub fn buffered(&self) -> usize {
        self.header.len() + self.body.len() + self.behind.len()
    }

    /// The body length and CRC the buffered header announces, `None` while
    /// the header is incomplete, or a typed error if it is invalid.
    fn announced(&self) -> Result<Option<(usize, u32)>> {
        let (words, _) = self.header.as_chunks::<4>();
        let &[magic, len, crc, ..] = words else {
            return Ok(None);
        };
        let magic = u32::from_le_bytes(magic);
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let len = u32::from_le_bytes(len) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::OversizedFrame {
                len: len as u64,
                max: MAX_FRAME_BYTES as u64,
            });
        }
        Ok(Some((len, u32::from_le_bytes(crc))))
    }

    /// Reads from `src` straight into the frame being assembled, for a
    /// caller that [`FrameReader::next_frame`] just told `Ok(None)`: the rest
    /// of its header, or the rest of its body — into room reserved at the
    /// announced length, and never past its end.  `Ok(0)` is end of stream;
    /// on an error (a read timeout included) the bytes read so far stay
    /// buffered.
    pub(crate) fn fill_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let (buf, total) = match self.announced() {
            Ok(Some((len, _))) => (&mut self.body, len),
            _ => (&mut self.header, FRAME_HEADER_BYTES),
        };
        let missing = total - buf.len();
        // Once per frame: later calls find the capacity already there.
        buf.reserve_exact(missing);
        src.take(missing as u64).read_to_end(buf)
    }

    /// Pops the next complete frame body, `Ok(None)` if more bytes are
    /// needed, or a typed error if the buffered header is invalid.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let Some((len, expected)) = self.announced()? else {
            return Ok(None);
        };
        if self.body.len() < len {
            return Ok(None);
        }
        let found = crc32(&self.body);
        if found != expected {
            return Err(WireError::CrcMismatch { expected, found });
        }
        self.header.clear();
        let body = std::mem::take(&mut self.body);
        // Whatever was pushed behind this frame starts the next one.
        let behind = std::mem::take(&mut self.behind);
        self.push(&behind);
        Ok(Some(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::crc32_reference;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE polynomial's classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_reference(b""), 0);
    }

    proptest! {
        // One seeded buffer is 32 800 slices; unoptimised, that is seconds.
        #![proptest_config(ProptestConfig::with_cases(1))]

        /// `crc32`, whichever kernel this CPU gives it, equals the bytewise
        /// reference for every length 0..=4099 — short bodies, every block
        /// count of both kernels and every tail — at every start offset 0..8
        /// of a random buffer.
        #[test]
        fn crc32_dispatcher_equals_the_bytewise_reference(
            words in collection::vec(0u64..u64::MAX, (4099 + 7usize).div_ceil(8)),
        ) {
            let buffer: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            for offset in 0..8 {
                for len in 0..=4099 {
                    let slice = &buffer[offset..offset + len];
                    prop_assert_eq!(
                        crc32(slice),
                        crc32_reference(slice),
                        "offset {}, length {}",
                        offset,
                        len
                    );
                }
            }
        }
    }

    /// Asserts `kernel` equals the bytewise reference on every length
    /// 0..=4099 at every start offset 0..16, on 64·k + {−1, 0, 1, 15, 16,
    /// 17} bytes up to 8 KiB, and on one 512 KiB body (a `remote_wire`
    /// shard), all cut from `buffer`.
    fn assert_matches_reference(buffer: &[u8], kernel: impl Fn(&[u8]) -> u32) {
        for offset in 0..16 {
            for len in 0..=4099 {
                let slice = &buffer[offset..offset + len];
                assert_eq!(
                    kernel(slice),
                    crc32_reference(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
        for k in 1..=8192 / 64 {
            for len in [63, 64, 65, 79, 80, 81].map(|d| 64 * (k - 1) + d) {
                let slice = &buffer[1..1 + len];
                assert_eq!(kernel(slice), crc32_reference(slice), "length {len}");
            }
        }
        let shard = &buffer[..SHARD_BYTES];
        assert_eq!(kernel(shard), crc32_reference(shard));
    }

    const SHARD_BYTES: usize = 512 * 1024;

    proptest! {
        // Each kernel: 65 600 slices of one buffer; unoptimised, seconds.
        #![proptest_config(ProptestConfig::with_cases(1))]

        #[test]
        fn the_folding_kernel_equals_the_bytewise_reference(
            words in collection::vec(0u64..u64::MAX, SHARD_BYTES / 8 + 2),
        ) {
            if fold_blocks(!0, &[]).is_none() {
                println!("skipped: this CPU has no carry-less multiply folding kernel");
            } else {
                let buffer: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                assert_matches_reference(&buffer, |bytes| {
                    let (state, tail) = fold_blocks(!0, bytes).unwrap();
                    // The kernel leaves the table less than one block, or
                    // all of a body shorter than its four lanes.
                    assert!(tail.len() < 16 || tail.len() == bytes.len() && bytes.len() < FOLD_MIN_BYTES);
                    !slice_by_8(state, tail)
                });
            }
        }

        #[test]
        fn the_table_kernel_equals_the_bytewise_reference(
            words in collection::vec(0u64..u64::MAX, SHARD_BYTES / 8 + 2),
        ) {
            let buffer: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_matches_reference(&buffer, |bytes| !slice_by_8(!0, bytes));
        }
    }

    /// A single flipped bit anywhere in the body fails the frame, whether it
    /// lands in the 64-byte folded blocks, in a 16-byte block folded on its
    /// own or in the < 16-byte tail the table takes.
    #[test]
    fn any_single_flipped_body_bit_is_a_crc_mismatch() {
        // Three 64-byte rounds, two lone 16-byte blocks, a 7-byte tail.
        let body: Vec<u8> = (0..3 * 64 + 2 * 16 + 7).map(|i| (i * 37) as u8).collect();
        let sealed = frame(&body);
        for bit in 0..body.len() * 8 {
            let mut bytes = sealed.clone();
            bytes[FRAME_HEADER_BYTES + bit / 8] ^= 1 << (bit % 8);
            let mut reader = FrameReader::new();
            reader.push(&bytes);
            assert!(
                matches!(reader.next_frame(), Err(WireError::CrcMismatch { .. })),
                "bit {bit} of the body flipped unnoticed"
            );
        }
    }

    #[test]
    fn frames_round_trip_through_the_reader() {
        let mut reader = FrameReader::new();
        reader.push(&frame(b"alpha"));
        reader.push(&frame(b""));
        reader.push(&frame(b"bravo"));
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"alpha");
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"");
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"bravo");
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let full = frame(b"split me");
        let mut reader = FrameReader::new();
        for chunk in full.chunks(3) {
            assert!(matches!(reader.next_frame(), Ok(None) | Ok(Some(_))));
            reader.push(chunk);
        }
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"split me");
    }

    #[test]
    fn frames_pushed_behind_one_another_in_one_chunk_all_pop() {
        let mut stream = Vec::new();
        for body in [&b"first"[..], b"", b"third and longest"] {
            stream.extend_from_slice(&frame(body));
        }
        // One push, cut mid-header of the third frame, then the rest.
        let cut = stream.len() - b"third and longest".len() - 5;
        let mut reader = FrameReader::new();
        reader.push(&stream[..cut]);
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"first");
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"");
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!(reader.buffered(), FRAME_HEADER_BYTES - 5);
        reader.push(&stream[cut..]);
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"third and longest");
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn fill_from_reads_exactly_one_frame_and_reports_end_of_stream() {
        let mut stream = frame(b"one");
        stream.extend_from_slice(&frame(b"two"));
        let mut src = &stream[..];
        let mut reader = FrameReader::new();
        let mut bodies = Vec::new();
        loop {
            if let Some(body) = reader.next_frame().unwrap() {
                // Nothing was read past the end of the popped frame.
                assert_eq!(reader.buffered(), 0);
                bodies.push(body);
                continue;
            }
            if reader.fill_from(&mut src).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(bodies, [b"one", b"two"]);
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        let mut reader = FrameReader::new();
        reader.push(b"NOTAFRAMEHDR");
        assert!(matches!(reader.next_frame(), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn corrupted_crc_is_a_typed_error() {
        let mut bytes = frame(b"payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        assert!(matches!(
            reader.next_frame(),
            Err(WireError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = frame(b"x");
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        assert!(matches!(
            reader.next_frame(),
            Err(WireError::OversizedFrame { .. })
        ));
    }
}
