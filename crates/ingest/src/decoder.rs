//! The chunked streaming decoder: raw file-order bytes in, one
//! `Arc<HyperCube>` out, with **no post-assembly copy**.
//!
//! A [`StreamDecoder`] is created from a parsed [`CubeFileHeader`] and fed
//! arbitrary byte chunks (chunk boundaries may split an `f64` — a carry
//! buffer stitches partial samples across pushes).  Every completed sample
//! is scattered straight to its final BIP offset in the one buffer that
//! becomes the cube's storage, so assembling BSQ or BIL input costs exactly
//! one write per sample and zero reshuffling afterwards.  The proof is
//! measured, not asserted: each assembled byte is charged to the `hsi`
//! assembly ledger ([`hsi::charge_assembled_bytes`]) while the *clone*
//! ledger — which every deep payload copy in the workspace charges — stays
//! untouched.

use crate::{IngestError, Result};
use hsi::io::{interleave_to_bip_offset, CubeFileHeader};
use hsi::HyperCube;
use std::sync::Arc;

/// Assembles file-order byte chunks directly into BIP cube storage.
#[derive(Debug)]
pub struct StreamDecoder {
    header: CubeFileHeader,
    /// The cube's final storage, written in place as samples complete.
    data: Vec<f64>,
    /// Samples decoded so far (file order).
    filled: usize,
    /// Bytes of a split trailing sample carried to the next push.
    carry: [u8; 8],
    carry_len: usize,
    /// Chunks pushed so far.
    chunks: u64,
}

impl StreamDecoder {
    /// Starts decoding a cube described by `header`.  The storage is
    /// allocated once, up front; no later step reallocates or copies it.
    pub fn new(header: CubeFileHeader) -> Self {
        Self {
            header,
            data: vec![0.0; header.dims.samples()],
            filled: 0,
            carry: [0; 8],
            carry_len: 0,
            chunks: 0,
        }
    }

    /// The header this decoder was created from.
    pub fn header(&self) -> CubeFileHeader {
        self.header
    }

    /// Samples decoded and placed so far.
    pub fn samples_filled(&self) -> usize {
        self.filled
    }

    /// Chunks pushed so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Decodes one chunk of file-order payload bytes, scattering every
    /// completed sample to its BIP offset.  Chunks may be any size,
    /// including sizes that split an `f64` across pushes.
    pub fn push(&mut self, mut bytes: &[u8]) -> Result<()> {
        self.chunks += 1;
        let total = self.header.dims.samples();
        let mut assembled = 0usize;
        // Finish a sample split across the previous push.
        if self.carry_len > 0 {
            let need = 8 - self.carry_len;
            let take = need.min(bytes.len());
            self.carry[self.carry_len..self.carry_len + take].copy_from_slice(&bytes[..take]);
            self.carry_len += take;
            bytes = &bytes[take..];
            if self.carry_len < 8 {
                return Ok(());
            }
            self.carry_len = 0;
            if self.filled >= total {
                return Err(IngestError::Overflow {
                    expected_samples: total,
                });
            }
            self.place(f64::from_le_bytes(self.carry));
            assembled += 8;
        }
        let whole = bytes.len() / 8;
        if self.filled + whole > total {
            return Err(IngestError::Overflow {
                expected_samples: total,
            });
        }
        for chunk in bytes.chunks_exact(8) {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.place(f64::from_le_bytes(buf));
            assembled += 8;
        }
        let rest = &bytes[whole * 8..];
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carry_len = rest.len();
        if self.carry_len > 0 && self.filled >= total {
            return Err(IngestError::Overflow {
                expected_samples: total,
            });
        }
        hsi::charge_assembled_bytes(assembled);
        Ok(())
    }

    /// Writes one completed file-order sample at its final BIP offset.
    fn place(&mut self, value: f64) {
        let off = interleave_to_bip_offset(self.header.dims, self.header.interleave, self.filled);
        self.data[off] = value;
        self.filled += 1;
    }

    /// Finishes decoding: the storage buffer is *moved* into the cube and
    /// wrapped in an `Arc` — the zero-copy hand-off.  Errors if the stream
    /// ended early ([`IngestError::Truncated`]) or mid-sample.
    pub fn finish(self) -> Result<Arc<HyperCube>> {
        let total = self.header.dims.samples();
        if self.carry_len != 0 {
            return Err(IngestError::Malformed(format!(
                "stream ended mid-sample ({} trailing bytes)",
                self.carry_len
            )));
        }
        if self.filled != total {
            return Err(IngestError::Truncated {
                expected_samples: total,
                actual_samples: self.filled,
            });
        }
        let cube = HyperCube::from_samples(self.header.dims, self.data)?;
        Ok(Arc::new(cube))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi::io::{write_cube_as, Interleave, CUBE_FILE_HEADER_LEN};
    use hsi::{CloneLedger, CubeDims, SceneConfig, SceneGenerator};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scene_cube() -> HyperCube {
        let mut config = SceneConfig::small(17);
        config.dims = CubeDims::new(9, 7, 5);
        SceneGenerator::new(config).unwrap().generate()
    }

    fn file_bytes(cube: &HyperCube, interleave: Interleave) -> Vec<u8> {
        // The harness runs these tests on parallel threads: a path shared
        // between calls lets one test remove the file another is reading.
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "ingest_decoder_{}_{}_{}.hsif",
            std::process::id(),
            CALLS.fetch_add(1, Ordering::Relaxed),
            interleave.label()
        ));
        write_cube_as(cube, interleave, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn decodes_every_interleave_bit_identical_in_awkward_chunks() {
        let cube = scene_cube();
        for interleave in Interleave::ALL {
            let bytes = file_bytes(&cube, interleave);
            let header = CubeFileHeader::parse(&bytes).unwrap();
            let payload = &bytes[CUBE_FILE_HEADER_LEN..];
            let mut decoder = StreamDecoder::new(header);
            // 13-byte chunks split f64s across pushes on purpose.
            for chunk in payload.chunks(13) {
                decoder.push(chunk).unwrap();
            }
            let decoded = decoder.finish().unwrap();
            assert_eq!(
                decoded.samples(),
                cube.samples(),
                "{} chunked decode diverged",
                interleave.label()
            );
        }
    }

    #[test]
    fn assembly_is_charged_to_the_ledger_without_cloning() {
        let cube = scene_cube();
        let bytes = file_bytes(&cube, Interleave::Bsq);
        let header = CubeFileHeader::parse(&bytes).unwrap();
        let ledger = CloneLedger::snapshot();
        let mut decoder = StreamDecoder::new(header);
        decoder.push(&bytes[CUBE_FILE_HEADER_LEN..]).unwrap();
        let _cube = decoder.finish().unwrap();
        assert!(ledger.assembled_delta() >= cube.byte_size() as u64);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let cube = scene_cube();
        let bytes = file_bytes(&cube, Interleave::Bil);
        let header = CubeFileHeader::parse(&bytes).unwrap();
        let mut decoder = StreamDecoder::new(header);
        decoder
            .push(&bytes[CUBE_FILE_HEADER_LEN..bytes.len() - 16])
            .unwrap();
        assert!(matches!(
            decoder.finish(),
            Err(IngestError::Truncated { .. })
        ));
    }

    #[test]
    fn mid_sample_end_is_an_error() {
        let cube = scene_cube();
        let bytes = file_bytes(&cube, Interleave::Bip);
        let header = CubeFileHeader::parse(&bytes).unwrap();
        let mut decoder = StreamDecoder::new(header);
        decoder
            .push(&bytes[CUBE_FILE_HEADER_LEN..bytes.len() - 3])
            .unwrap();
        assert!(matches!(decoder.finish(), Err(IngestError::Malformed(_))));
    }

    #[test]
    fn overflowing_stream_is_an_error() {
        let cube = scene_cube();
        let bytes = file_bytes(&cube, Interleave::Bip);
        let header = CubeFileHeader::parse(&bytes).unwrap();
        let mut decoder = StreamDecoder::new(header);
        decoder.push(&bytes[CUBE_FILE_HEADER_LEN..]).unwrap();
        assert!(matches!(
            decoder.push(&[0u8; 8]),
            Err(IngestError::Overflow { .. })
        ));
    }
}
