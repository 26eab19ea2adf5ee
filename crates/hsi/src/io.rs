//! Image and cube file I/O.
//!
//! Provides binary PGM (P5) output for single spectral bands (the Figure 2
//! frames), binary PPM (P6) output for fused colour composites (Figure 3),
//! and the self-describing band-interleaved container (`.hsif`) that
//! persists cubes and that the streaming ingestion path reads: a fixed
//! [`CubeFileHeader`] (magic, version, [`Interleave`], dimensions) followed
//! by the samples in BSQ, BIL or BIP order — the three layouts real
//! imaging-spectrometer products ship in.
//!
//! Both readers take their sizes from the file, so both bound them before
//! trusting them: a cube header beyond [`MAX_CUBE_FILE_PAYLOAD_BYTES`] and a
//! PPM header whose pixel count overflows or exceeds the bytes present are
//! typed errors, never an allocation or a slice index.

use crate::cube::{CubeDims, HyperCube};
use crate::rgb::RgbImage;
use crate::{HsiError, Result};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying the self-describing interleaved cube file.
pub const CUBE_FILE_MAGIC: &[u8; 4] = b"HSIF";

/// Version byte of the interleaved cube file format.
pub const CUBE_FILE_VERSION: u8 = 1;

/// Encoded size of a [`CubeFileHeader`]: magic, version, interleave, three
/// little-endian `u64` dimensions.
pub const CUBE_FILE_HEADER_LEN: usize = 4 + 1 + 1 + 3 * 8;

/// Canonical file extension of the interleaved cube container.
pub const CUBE_FILE_EXTENSION: &str = "hsif";

/// Largest payload a [`CubeFileHeader`] is allowed to announce (16 GiB —
/// an order of magnitude above any real acquisition).  Headers beyond it
/// are rejected at parse time so a corrupt or hostile file surfaces as a
/// typed error in the reader instead of a multi-terabyte allocation (and
/// likely abort) in whoever trusts the dimensions.
pub const MAX_CUBE_FILE_PAYLOAD_BYTES: u64 = 16 << 30;

/// Sample ordering of an interleaved cube file.
///
/// In-memory cubes are always BIP; the file layer supports all three
/// interleaves because that is what real sensor products ship in, and the
/// streaming decoder scatters file-order samples straight into BIP storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interleave {
    /// Band-interleaved by pixel: all bands of a pixel are adjacent
    /// (`for y { for x { for band } }` — the in-memory layout).
    Bip,
    /// Band-interleaved by line: one row of one band at a time
    /// (`for y { for band { for x } }`).
    Bil,
    /// Band-sequential: whole band planes back to back
    /// (`for band { for y { for x } }`).
    Bsq,
}

impl Interleave {
    /// Every interleave, in a stable order.
    pub const ALL: [Interleave; 3] = [Interleave::Bip, Interleave::Bil, Interleave::Bsq];

    /// A short lower-case label (`bip` / `bil` / `bsq`).
    pub fn label(&self) -> &'static str {
        match self {
            Interleave::Bip => "bip",
            Interleave::Bil => "bil",
            Interleave::Bsq => "bsq",
        }
    }

    /// The header byte encoding this interleave.
    pub fn as_byte(&self) -> u8 {
        match self {
            Interleave::Bip => 0,
            Interleave::Bil => 1,
            Interleave::Bsq => 2,
        }
    }

    /// Decodes a header byte.
    pub fn from_byte(byte: u8) -> Result<Interleave> {
        match byte {
            0 => Ok(Interleave::Bip),
            1 => Ok(Interleave::Bil),
            2 => Ok(Interleave::Bsq),
            other => Err(HsiError::InvalidConfig(format!(
                "unknown interleave byte {other}"
            ))),
        }
    }
}

/// The self-describing fixed header of an interleaved cube file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CubeFileHeader {
    /// Dimensions of the cube that follows.
    pub dims: CubeDims,
    /// Sample ordering of the payload.
    pub interleave: Interleave,
}

impl CubeFileHeader {
    /// Creates a header.
    pub fn new(dims: CubeDims, interleave: Interleave) -> Self {
        Self { dims, interleave }
    }

    /// Size in bytes of the sample payload the header announces.
    pub fn payload_bytes(&self) -> usize {
        self.dims.byte_size()
    }

    /// Encodes the header into its fixed wire form.
    pub fn encode(&self) -> [u8; CUBE_FILE_HEADER_LEN] {
        let mut out = [0u8; CUBE_FILE_HEADER_LEN];
        out[..4].copy_from_slice(CUBE_FILE_MAGIC);
        out[4] = CUBE_FILE_VERSION;
        out[5] = self.interleave.as_byte();
        out[6..14].copy_from_slice(&(self.dims.width as u64).to_le_bytes());
        out[14..22].copy_from_slice(&(self.dims.height as u64).to_le_bytes());
        out[22..30].copy_from_slice(&(self.dims.bands as u64).to_le_bytes());
        out
    }

    /// Parses and validates a header from the first
    /// [`CUBE_FILE_HEADER_LEN`] bytes of a file.
    pub fn parse(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < CUBE_FILE_HEADER_LEN {
            return Err(HsiError::InvalidConfig(format!(
                "cube file header truncated: {} of {CUBE_FILE_HEADER_LEN} bytes",
                bytes.len()
            )));
        }
        if &bytes[..4] != CUBE_FILE_MAGIC {
            return Err(HsiError::InvalidConfig(
                "not an HSIF cube file (bad magic)".to_string(),
            ));
        }
        if bytes[4] != CUBE_FILE_VERSION {
            return Err(HsiError::InvalidConfig(format!(
                "unsupported cube file version {}",
                bytes[4]
            )));
        }
        let interleave = Interleave::from_byte(bytes[5])?;
        let u64_at = |off: usize| {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[off..off + 8]);
            u64::from_le_bytes(buf)
        };
        let (width, height, bands) = (u64_at(6), u64_at(14), u64_at(22));
        if width == 0 || height == 0 || bands == 0 {
            return Err(HsiError::InvalidConfig(format!(
                "cube file header declares a zero dimension: {width}x{height}x{bands}"
            )));
        }
        // Checked arithmetic: wrapped products would let a corrupt header
        // smuggle absurd dimensions past the payload bound below.
        let payload = width
            .checked_mul(height)
            .and_then(|p| p.checked_mul(bands))
            .and_then(|s| s.checked_mul(std::mem::size_of::<f64>() as u64))
            .filter(|&p| p <= MAX_CUBE_FILE_PAYLOAD_BYTES)
            .ok_or_else(|| {
                HsiError::InvalidConfig(format!(
                    "cube file header declares an implausible payload: \
                     {width}x{height}x{bands} exceeds {MAX_CUBE_FILE_PAYLOAD_BYTES} bytes"
                ))
            })?;
        debug_assert!(payload <= MAX_CUBE_FILE_PAYLOAD_BYTES);
        Ok(Self {
            dims: CubeDims::new(width as usize, height as usize, bands as usize),
            interleave,
        })
    }
}

/// Flat BIP storage offset of the `index`-th sample of a file written in
/// `interleave` order over a cube of `dims`.  This is the scatter map the
/// streaming decoder applies chunk by chunk; `index` must be below
/// `dims.samples()`.
pub fn interleave_to_bip_offset(dims: CubeDims, interleave: Interleave, index: usize) -> usize {
    debug_assert!(index < dims.samples());
    let (w, bands) = (dims.width, dims.bands);
    match interleave {
        Interleave::Bip => index,
        Interleave::Bil => {
            // File order: for y { for band { for x } }.
            let y = index / (w * bands);
            let rem = index % (w * bands);
            let band = rem / w;
            let x = rem % w;
            (y * w + x) * bands + band
        }
        Interleave::Bsq => {
            // File order: for band { for y { for x } }.
            let pixels = dims.pixels();
            let band = index / pixels;
            let rem = index % pixels;
            (rem * bands) + band
        }
    }
}

/// Writes a cube as a self-describing interleaved cube file (`.hsif`):
/// [`CubeFileHeader`] followed by all samples as little-endian `f64` in the
/// requested interleave order.
pub fn write_cube_as<P: AsRef<Path>>(
    cube: &HyperCube,
    interleave: Interleave,
    path: P,
) -> Result<()> {
    let header = CubeFileHeader::new(cube.dims(), interleave);
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(&header.encode())?;
    let samples = cube.samples();
    for index in 0..cube.dims().samples() {
        let bip = interleave_to_bip_offset(cube.dims(), interleave, index);
        w.write_all(&samples[bip].to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a whole interleaved cube file back into a BIP [`HyperCube`] (the
/// non-streaming convenience counterpart of the `ingest` crate's chunked
/// decoder; used by tests and small tools).
pub fn read_cube_file<P: AsRef<Path>>(path: P) -> Result<(HyperCube, Interleave)> {
    let mut bytes = Vec::new();
    BufReader::new(std::fs::File::open(path)?).read_to_end(&mut bytes)?;
    let header = CubeFileHeader::parse(&bytes)?;
    let payload = &bytes[CUBE_FILE_HEADER_LEN..];
    if payload.len() != header.payload_bytes() {
        return Err(HsiError::ShapeMismatch {
            expected: header.payload_bytes(),
            actual: payload.len(),
        });
    }
    let mut data = vec![0.0_f64; header.dims.samples()];
    for (index, chunk) in payload.chunks_exact(8).enumerate() {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(chunk);
        data[interleave_to_bip_offset(header.dims, header.interleave, index)] =
            f64::from_le_bytes(buf);
    }
    Ok((
        HyperCube::from_samples(header.dims, data)?,
        header.interleave,
    ))
}

/// Linearly rescales a band plane to 8-bit grey values.
///
/// A constant plane maps to mid-grey so the output is still a valid image.
pub fn plane_to_gray(plane: &[f64]) -> Vec<u8> {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in plane {
        min = min.min(v);
        max = max.max(v);
    }
    if plane.is_empty() || !min.is_finite() || !max.is_finite() {
        return vec![0; plane.len()];
    }
    let range = max - min;
    if range <= 0.0 {
        return vec![128; plane.len()];
    }
    plane
        .iter()
        .map(|&v| (((v - min) / range) * 255.0).round().clamp(0.0, 255.0) as u8)
        .collect()
}

/// Writes one spectral band of a cube as a binary PGM file.
pub fn write_band_pgm<P: AsRef<Path>>(cube: &HyperCube, band: usize, path: P) -> Result<()> {
    let plane = cube.band_plane(band)?;
    let gray = plane_to_gray(&plane);
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    write!(w, "P5\n{} {}\n255\n", cube.width(), cube.height())?;
    w.write_all(&gray)?;
    w.flush()?;
    Ok(())
}

/// Writes an RGB image as a binary PPM file.
pub fn write_ppm<P: AsRef<Path>>(image: &RgbImage, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    write!(w, "P6\n{} {}\n255\n", image.width(), image.height())?;
    w.write_all(image.raw())?;
    w.flush()?;
    Ok(())
}

/// Reads a binary PPM file back into an [`RgbImage`] (used by tests that
/// verify the example binaries produce well-formed output).
pub fn read_ppm<P: AsRef<Path>>(path: P) -> Result<RgbImage> {
    let mut bytes = Vec::new();
    BufReader::new(std::fs::File::open(path)?).read_to_end(&mut bytes)?;
    parse_ppm(&bytes)
}

fn parse_ppm(bytes: &[u8]) -> Result<RgbImage> {
    let bad = |msg: &str| HsiError::InvalidConfig(format!("malformed PPM: {msg}"));
    let mut pos = 0usize;
    let mut next_token = |bytes: &[u8]| -> Result<String> {
        // Skip whitespace and comments.
        while pos < bytes.len() {
            if bytes[pos].is_ascii_whitespace() {
                pos += 1;
            } else if bytes[pos] == b'#' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            } else {
                break;
            }
        }
        let start = pos;
        while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if start == pos {
            return Err(bad("unexpected end of header"));
        }
        // A lossy conversion here would silently mangle a corrupt header
        // token into U+FFFD and then fail later with a misleading "bad
        // width"-style message; report the real defect instead.
        String::from_utf8(bytes[start..pos].to_vec()).map_err(|_| bad("non-UTF-8 header token"))
    };

    if next_token(bytes)? != "P6" {
        return Err(bad("missing P6 magic"));
    }
    let width: usize = next_token(bytes)?.parse().map_err(|_| bad("bad width"))?;
    let height: usize = next_token(bytes)?.parse().map_err(|_| bad("bad height"))?;
    let maxval: usize = next_token(bytes)?.parse().map_err(|_| bad("bad maxval"))?;
    if maxval != 255 {
        return Err(bad("only maxval 255 supported"));
    }
    // Exactly one whitespace byte separates the header from pixel data.
    pos += 1;
    let end = width
        .checked_mul(height)
        .and_then(|pixels| pixels.checked_mul(3))
        .and_then(|expected| pos.checked_add(expected))
        .ok_or_else(|| bad("dimensions overflow"))?;
    let pixels = bytes
        .get(pos..end)
        .ok_or_else(|| bad("truncated pixel data"))?;
    RgbImage::from_raw(width, height, pixels.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SceneConfig, SceneGenerator};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hsi_io_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn plane_to_gray_scales_to_full_range() {
        let gray = plane_to_gray(&[0.0, 5.0, 10.0]);
        assert_eq!(gray, vec![0, 128, 255]);
    }

    #[test]
    fn plane_to_gray_constant_plane_is_midgray() {
        assert_eq!(plane_to_gray(&[3.3; 4]), vec![128; 4]);
    }

    #[test]
    fn plane_to_gray_empty_is_empty() {
        assert!(plane_to_gray(&[]).is_empty());
    }

    #[test]
    fn ppm_round_trip_preserves_pixels() {
        let mut img = RgbImage::black(7, 5);
        for y in 0..5 {
            for x in 0..7 {
                img.set(x, y, [(x * 30) as u8, (y * 40) as u8, ((x + y) * 10) as u8])
                    .unwrap();
            }
        }
        let path = temp_path("roundtrip.ppm");
        write_ppm(&img, &path).unwrap();
        let back = read_ppm(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(img, back);
    }

    #[test]
    fn parse_ppm_rejects_garbage() {
        assert!(parse_ppm(b"not an image").is_err());
        assert!(parse_ppm(b"P6\n2 2\n255\n\x00").is_err()); // truncated
        assert!(parse_ppm(b"P6\n2 2\n65535\n").is_err()); // unsupported depth
    }

    #[test]
    fn parse_ppm_bounds_file_supplied_dimensions() {
        // The product wraps `usize`: a panic in debug, a passing length
        // check and a slice-range panic in release, before the checked form.
        let err = parse_ppm(b"P6 18446744073709551615 2 255\n").unwrap_err();
        assert!(err.to_string().contains("dimensions overflow"), "{err}");
        // The product fits but is far beyond the bytes present.
        let err = parse_ppm(b"P6 4294967296 1024 255\n").unwrap_err();
        assert!(err.to_string().contains("truncated pixel data"), "{err}");
    }

    #[test]
    fn parse_ppm_reports_non_utf8_header_instead_of_mangling_it() {
        // A corrupt width token must surface as a header error, not be
        // lossily replaced with U+FFFD and misreported downstream.
        let err = parse_ppm(b"P6\n\xff\xfe 2\n255\n").unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("non-UTF-8 header token"),
            "unexpected error: {text}"
        );
    }

    #[test]
    fn pgm_writer_produces_valid_header_and_size() {
        let cube = SceneGenerator::new(SceneConfig::small(2))
            .unwrap()
            .generate();
        let path = temp_path("band.pgm");
        write_band_pgm(&cube, 3, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(bytes.starts_with(b"P5\n32 32\n255\n"));
        assert_eq!(bytes.len(), "P5\n32 32\n255\n".len() + 32 * 32);
    }

    #[test]
    fn pgm_writer_rejects_bad_band() {
        let cube = SceneGenerator::new(SceneConfig::small(2))
            .unwrap()
            .generate();
        assert!(write_band_pgm(&cube, 99, temp_path("never.pgm")).is_err());
    }

    #[test]
    fn interleaved_files_round_trip_in_every_order() {
        let cube = SceneGenerator::new(SceneConfig::small(6))
            .unwrap()
            .generate();
        for interleave in Interleave::ALL {
            let path = temp_path(&format!("cube_{}.hsif", interleave.label()));
            write_cube_as(&cube, interleave, &path).unwrap();
            let expected = CUBE_FILE_HEADER_LEN + cube.byte_size();
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, expected);
            let (back, read_interleave) = read_cube_file(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(read_interleave, interleave);
            assert_eq!(back, cube, "{} round trip", interleave.label());
        }
    }

    #[test]
    fn interleave_offsets_are_a_bijection() {
        let dims = CubeDims::new(3, 4, 5);
        for interleave in Interleave::ALL {
            let mut seen = vec![false; dims.samples()];
            for index in 0..dims.samples() {
                let off = interleave_to_bip_offset(dims, interleave, index);
                assert!(
                    !seen[off],
                    "{} maps two samples to {off}",
                    interleave.label()
                );
                seen[off] = true;
            }
        }
    }

    #[test]
    fn header_parse_rejects_corrupt_headers() {
        let good = CubeFileHeader::new(CubeDims::new(2, 3, 4), Interleave::Bil);
        let encoded = good.encode();
        assert_eq!(CubeFileHeader::parse(&encoded).unwrap(), good);

        assert!(CubeFileHeader::parse(&encoded[..10]).is_err(), "truncated");
        let mut bad_magic = encoded;
        bad_magic[0] = b'X';
        assert!(CubeFileHeader::parse(&bad_magic).is_err());
        let mut bad_version = encoded;
        bad_version[4] = 99;
        assert!(CubeFileHeader::parse(&bad_version).is_err());
        let mut bad_interleave = encoded;
        bad_interleave[5] = 7;
        assert!(CubeFileHeader::parse(&bad_interleave).is_err());
        let zero_dim = CubeFileHeader::new(CubeDims::new(2, 0, 4), Interleave::Bip).encode();
        assert!(CubeFileHeader::parse(&zero_dim).is_err());
        // Implausible and overflowing dimensions are rejected at parse time
        // (a consumer trusting them would attempt the allocation).
        let huge = CubeFileHeader::new(CubeDims::new(1 << 30, 1 << 30, 100), Interleave::Bip);
        assert!(CubeFileHeader::parse(&huge.encode()).is_err());
        let mut wrapping = encoded;
        for off in [6, 14] {
            wrapping[off..off + 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        }
        assert!(CubeFileHeader::parse(&wrapping).is_err(), "wrapped product");
    }

    #[test]
    fn read_cube_file_rejects_truncated_payload() {
        let cube = SceneGenerator::new(SceneConfig::small(8))
            .unwrap()
            .generate();
        let path = temp_path("truncated.hsif");
        write_cube_as(&cube, Interleave::Bsq, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 9);
        std::fs::write(&path, &bytes).unwrap();
        let result = read_cube_file(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(result, Err(HsiError::ShapeMismatch { .. })));
    }
}
