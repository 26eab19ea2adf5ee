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
//! [`WireError::BadMagic`] instead of garbage decoding.  The CRC-32
//! (IEEE polynomial, the zlib/ethernet one, computed eight bytes per step
//! by slicing-by-8) covers the body only; a length beyond
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
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = c ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
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
        if self.header.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let word =
            |at: usize| u32::from_le_bytes(self.header[at..at + 4].try_into().expect("4 bytes"));
        if word(0) != MAGIC {
            return Err(WireError::BadMagic(word(0)));
        }
        let len = word(4) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::OversizedFrame {
                len: len as u64,
                max: MAX_FRAME_BYTES as u64,
            });
        }
        Ok(Some((len, word(8))))
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

        /// Slicing-by-8 equals the bytewise reference for every length
        /// 0..=4099 — every block count and every remainder, well past the
        /// 8-byte step — at every start offset 0..8 of a random buffer.
        #[test]
        fn slicing_by_8_equals_the_bytewise_reference(
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
