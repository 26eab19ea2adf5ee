//! Fixed-layout little-endian codec for the fusion message set.
//!
//! Every body is `[tag u8][fields…]` with a fixed field order per tag and
//! no self-description: widths are part of the protocol version.  Scalars
//! are little-endian; `f64` travels as its IEEE-754 bit pattern, so a
//! round trip is *bit*-identical (NaN payloads and signed zeros included)
//! and the byte-identity oracle holds across the process boundary.
//!
//! Composite layouts:
//!
//! | type            | layout                                              |
//! |-----------------|-----------------------------------------------------|
//! | `TaskId`        | `u64`                                               |
//! | `Vector`        | `[len u32][f64 × len]`                              |
//! | `Vec<Vector>`   | `[count u32][Vector × count]`                       |
//! | `Matrix`        | `[rows u32][cols u32][f64 × rows·cols]` (row-major) |
//! | `Vec<u8>`/`str` | `[len u32][bytes]`                                  |
//! | `PctConfig`     | `[screening_angle_rad f64][output_components u32]`  |
//! | `CubeView`      | `[x0 u32][row_start u32][w u32][h u32][bands u32][f64 × w·h·bands]` |
//!
//! A `CubeView` encodes via [`CubeView::copy_runs`] — the charged deep-copy
//! traversal, writing the window's samples straight into the frame — and
//! decodes into a fresh owned shard wrapped in [`CubeView::standalone`],
//! preserving the window's scene coordinates.  [`encode_message`]
//! `debug_assert`s, via the thread-local clone ledger, that this is the
//! *only* payload copy the encoder performed.
//!
//! A message is encoded into one buffer: [`encode_message`] allocates the
//! frame at its exact size, reserves the header, writes the body behind it
//! and seals the header in place ([`frame::seal`]).

use crate::frame::{self, FRAME_HEADER_BYTES};
use crate::{Result, WireError, PROTOCOL_VERSION};
use hsi::{CubeDims, CubeView, HyperCube};
use linalg::{Matrix, Vector, NUMERICS_VERSION};
use pct::messages::PctMessage;
use pct::PctConfig;
use std::sync::Arc;

/// A message on the wire: protocol control or fusion payload.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// The handshake frame: first thing each peer sends.
    Hello {
        /// The sender's [`PROTOCOL_VERSION`].
        version: u32,
        /// The sender's [`linalg::NUMERICS_VERSION`].
        numerics: u32,
    },
    /// A fusion protocol message.
    Pct(PctMessage),
}

impl WireMessage {
    /// A `Hello` announcing this build's protocol and numerics versions.
    pub fn hello() -> Self {
        WireMessage::Hello {
            version: PROTOCOL_VERSION,
            numerics: NUMERICS_VERSION,
        }
    }
}

// Body tags.  Stable protocol constants: renumbering is a version bump.
const TAG_HELLO: u8 = 0;
const TAG_SCREEN_TASK: u8 = 1;
const TAG_UNIQUE_SET: u8 = 2;
const TAG_COVARIANCE_TASK: u8 = 3;
const TAG_COVARIANCE_SUM: u8 = 4;
const TAG_TRANSFORM_TASK: u8 = 5;
const TAG_RGB_STRIP: u8 = 6;
const TAG_SCREEN_SEEDED_TASK: u8 = 7;
const TAG_SEEDED_UNIQUE: u8 = 8;
const TAG_DERIVE_TASK: u8 = 9;
const TAG_DERIVED_TRANSFORM: u8 = 10;
const TAG_TASK_FAILED: u8 = 11;
const TAG_HEARTBEAT: u8 = 12;
const TAG_SHUTDOWN: u8 = 13;

// ----- encoding ---------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `vs` as little-endian bytes, a block at a time: each block is
/// converted on the stack and lands in `out` as one slice copy.
fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    let mut block = [0u8; 512];
    for run in vs.chunks(block.len() / 8) {
        let bytes = &mut block[..run.len() * 8];
        for (dst, v) in bytes.chunks_exact_mut(8).zip(run) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(bytes);
    }
}

fn put_vector(out: &mut Vec<u8>, v: &Vector) {
    put_u32(out, v.len() as u32);
    put_f64s(out, v.as_slice());
}

fn put_vectors(out: &mut Vec<u8>, vs: &[Vector]) {
    put_u32(out, vs.len() as u32);
    for v in vs {
        put_vector(out, v);
    }
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_u32(out, m.rows() as u32);
    put_u32(out, m.cols() as u32);
    put_f64s(out, m.as_slice());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_view(out: &mut Vec<u8>, view: &CubeView) {
    put_u32(out, view.x0() as u32);
    put_u32(out, view.row_start() as u32);
    put_u32(out, view.width() as u32);
    put_u32(out, view.height() as u32);
    put_u32(out, view.bands() as u32);
    // The one charged deep copy: window samples leave shared storage here,
    // straight into the frame.
    view.copy_runs(|run| put_f64s(out, run));
}

/// Encodes `msg` into a frame buffer allocated at its exact size: the
/// header's bytes reserved (for [`frame::seal`]), the body behind them.
fn encode_unsealed(msg: &WireMessage) -> Vec<u8> {
    let len = frame_len(msg);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    match msg {
        WireMessage::Hello { version, numerics } => {
            out.push(TAG_HELLO);
            put_u32(&mut out, *version);
            put_u32(&mut out, *numerics);
        }
        WireMessage::Pct(PctMessage::ScreenTask {
            task,
            view,
            threshold_rad,
        }) => {
            out.push(TAG_SCREEN_TASK);
            put_u64(&mut out, *task as u64);
            put_view(&mut out, view);
            put_f64(&mut out, *threshold_rad);
        }
        WireMessage::Pct(PctMessage::UniqueSet { task, unique }) => {
            out.push(TAG_UNIQUE_SET);
            put_u64(&mut out, *task as u64);
            put_vectors(&mut out, unique);
        }
        WireMessage::Pct(PctMessage::CovarianceTask { task, mean, pixels }) => {
            out.push(TAG_COVARIANCE_TASK);
            put_u64(&mut out, *task as u64);
            put_vector(&mut out, mean);
            put_vectors(&mut out, pixels);
        }
        WireMessage::Pct(PctMessage::CovarianceSum {
            task,
            packed,
            bands,
            count,
        }) => {
            out.push(TAG_COVARIANCE_SUM);
            put_u64(&mut out, *task as u64);
            put_u32(&mut out, packed.len() as u32);
            put_f64s(&mut out, packed);
            put_u32(&mut out, *bands as u32);
            put_u64(&mut out, *count);
        }
        WireMessage::Pct(PctMessage::TransformTask {
            task,
            view,
            mean,
            transform,
            scales,
        }) => {
            out.push(TAG_TRANSFORM_TASK);
            put_u64(&mut out, *task as u64);
            put_view(&mut out, view);
            put_vector(&mut out, mean);
            put_matrix(&mut out, transform);
            put_u32(&mut out, scales.len() as u32);
            for &(lo, hi) in scales {
                put_f64(&mut out, lo);
                put_f64(&mut out, hi);
            }
        }
        WireMessage::Pct(PctMessage::RgbStrip {
            task,
            row_start,
            rows,
            width,
            rgb,
        }) => {
            out.push(TAG_RGB_STRIP);
            put_u64(&mut out, *task as u64);
            put_u32(&mut out, *row_start as u32);
            put_u32(&mut out, *rows as u32);
            put_u32(&mut out, *width as u32);
            put_bytes(&mut out, rgb);
        }
        WireMessage::Pct(PctMessage::ScreenSeededTask {
            task,
            view,
            seed,
            threshold_rad,
        }) => {
            out.push(TAG_SCREEN_SEEDED_TASK);
            put_u64(&mut out, *task as u64);
            put_view(&mut out, view);
            put_vectors(&mut out, seed);
            put_f64(&mut out, *threshold_rad);
        }
        WireMessage::Pct(PctMessage::SeededUnique { task, accepted }) => {
            out.push(TAG_SEEDED_UNIQUE);
            put_u64(&mut out, *task as u64);
            put_vectors(&mut out, accepted);
        }
        WireMessage::Pct(PctMessage::DeriveTask {
            task,
            unique,
            config,
        }) => {
            out.push(TAG_DERIVE_TASK);
            put_u64(&mut out, *task as u64);
            put_vectors(&mut out, unique);
            put_f64(&mut out, config.screening_angle_rad);
            put_u32(&mut out, config.output_components as u32);
        }
        WireMessage::Pct(PctMessage::DerivedTransform {
            task,
            mean,
            transform,
            eigenvalues,
        }) => {
            out.push(TAG_DERIVED_TRANSFORM);
            put_u64(&mut out, *task as u64);
            put_vector(&mut out, mean);
            put_matrix(&mut out, transform);
            put_u32(&mut out, eigenvalues.len() as u32);
            put_f64s(&mut out, eigenvalues);
        }
        WireMessage::Pct(PctMessage::TaskFailed { task, error }) => {
            out.push(TAG_TASK_FAILED);
            put_u64(&mut out, *task as u64);
            put_bytes(&mut out, error.as_bytes());
        }
        WireMessage::Pct(PctMessage::Heartbeat) => out.push(TAG_HEARTBEAT),
        WireMessage::Pct(PctMessage::Shutdown) => out.push(TAG_SHUTDOWN),
    }
    debug_assert_eq!(out.len(), len, "frame_len disagrees with the encoder");
    out
}

/// Exact byte length of the frame [`encode_message`] produces for `msg`,
/// read off the message by reference: nothing is encoded, cloned or charged
/// to the clone ledger.  The layout's sizes are stated in this module and
/// nowhere else — the encoder allocates its one buffer by this, and the
/// simulator costs every send with it.
pub fn frame_len(msg: &WireMessage) -> usize {
    FRAME_HEADER_BYTES + body_len(msg)
}

/// Exact byte length of the body [`encode_unsealed`] writes for `msg`.
fn body_len(msg: &WireMessage) -> usize {
    // `[tag u8][task u64]` opens every task and reply.
    const TASK: usize = 1 + 8;
    let vector = |v: &Vector| 4 + 8 * v.len();
    let vectors = |vs: &[Vector]| 4 + vs.iter().map(vector).sum::<usize>();
    let matrix = |m: &Matrix| 8 + 8 * m.as_slice().len();
    let view = |v: &CubeView| 20 + v.payload_bytes();
    let WireMessage::Pct(msg) = msg else {
        return 1 + 4 + 4;
    };
    match msg {
        PctMessage::ScreenTask { view: v, .. } => TASK + view(v) + 8,
        PctMessage::UniqueSet { unique, .. } => TASK + vectors(unique),
        PctMessage::CovarianceTask { mean, pixels, .. } => TASK + vector(mean) + vectors(pixels),
        PctMessage::CovarianceSum { packed, .. } => TASK + 4 + 8 * packed.len() + 4 + 8,
        PctMessage::TransformTask {
            view: v,
            mean,
            transform,
            scales,
            ..
        } => TASK + view(v) + vector(mean) + matrix(transform) + 4 + 16 * scales.len(),
        PctMessage::RgbStrip { rgb, .. } => TASK + 12 + 4 + rgb.len(),
        PctMessage::ScreenSeededTask { view: v, seed, .. } => TASK + view(v) + vectors(seed) + 8,
        PctMessage::SeededUnique { accepted, .. } => TASK + vectors(accepted),
        PctMessage::DeriveTask { unique, .. } => TASK + vectors(unique) + 8 + 4,
        PctMessage::DerivedTransform {
            mean,
            transform,
            eigenvalues,
            ..
        } => TASK + vector(mean) + matrix(transform) + 4 + 8 * eigenvalues.len(),
        PctMessage::TaskFailed { error, .. } => TASK + 4 + error.len(),
        PctMessage::Heartbeat | PctMessage::Shutdown => 1,
    }
}

/// Sub-cube payload bytes the encoder is *expected* to copy for `msg`: the
/// sum of its embedded views' [`CubeView::payload_bytes`].
fn expected_copy_bytes(msg: &WireMessage) -> u64 {
    match msg {
        WireMessage::Pct(m) => m.payload_bytes(),
        WireMessage::Hello { .. } => 0,
    }
}

/// Encodes a message into one complete frame (header + body), in one
/// buffer allocated at the frame's exact size.
///
/// In debug builds this asserts the wire invariant: the calling thread's
/// clone-ledger delta across encoding equals exactly the payload bytes of
/// the message's embedded views — i.e. [`CubeView::copy_runs`] is the only
/// deep copy the encoder performs, and every shipped payload byte is
/// charged to the ledger.
pub fn encode_message(msg: &WireMessage) -> Vec<u8> {
    let before = hsi::thread_cloned_bytes_total();
    let mut out = encode_unsealed(msg);
    debug_assert_eq!(
        hsi::thread_cloned_bytes_total() - before,
        expected_copy_bytes(msg),
        "wire encode must deep-copy payload only via CubeView::copy_runs"
    );
    frame::seal(&mut out);
    out
}

// ----- decoding ---------------------------------------------------------------

/// Cursor over a frame body with typed-error reads.  Every read checks the
/// remaining length first, so a hostile or truncated body can neither panic
/// nor trigger an oversized allocation (vectors are length-checked against
/// the bytes actually present before reserving).
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let rest = &self.buf[self.pos..];
        let Some(&bytes) = rest.first_chunk::<N>() else {
            return Err(WireError::Truncated {
                needed: N,
                have: rest.len(),
            });
        };
        self.pos += N;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    fn usize64(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("u64 exceeds usize"))
    }

    fn f64s(&mut self, count: usize) -> Result<Vec<f64>> {
        let bytes = self.take(
            count
                .checked_mul(8)
                .ok_or(WireError::Malformed("sample count overflows"))?,
        )?;
        let (samples, _) = bytes.as_chunks::<8>();
        Ok(samples.iter().map(|&c| f64::from_le_bytes(c)).collect())
    }

    fn vector(&mut self) -> Result<Vector> {
        let len = self.u32()? as usize;
        Ok(Vector::from_vec(self.f64s(len)?))
    }

    fn vectors(&mut self) -> Result<Vec<Vector>> {
        let count = self.u32()? as usize;
        // Each vector needs at least its 4-byte length prefix.
        if self.remaining()
            < count
                .checked_mul(4)
                .ok_or(WireError::Malformed("vector count overflows"))?
        {
            return Err(WireError::Truncated {
                needed: count * 4,
                have: self.remaining(),
            });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.vector()?);
        }
        Ok(out)
    }

    fn matrix(&mut self) -> Result<Matrix> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let data = self.f64s(
            rows.checked_mul(cols)
                .ok_or(WireError::Malformed("matrix dims overflow"))?,
        )?;
        Matrix::from_row_major(rows, cols, data)
            .map_err(|_| WireError::Malformed("matrix dims inconsistent"))
    }

    fn byte_vec(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String> {
        String::from_utf8(self.byte_vec()?).map_err(|_| WireError::Malformed("non-UTF-8 text"))
    }

    fn view(&mut self) -> Result<CubeView> {
        let x0 = self.u32()? as usize;
        let row_start = self.u32()? as usize;
        let width = self.u32()? as usize;
        let height = self.u32()? as usize;
        let bands = self.u32()? as usize;
        let pixels = width
            .checked_mul(height)
            .ok_or(WireError::Malformed("view dims overflow"))?;
        let samples = self.f64s(
            pixels
                .checked_mul(bands)
                .ok_or(WireError::Malformed("view dims overflow"))?,
        )?;
        let shard = HyperCube::from_samples(CubeDims::new(width, height, bands), samples)
            .map_err(|_| WireError::Malformed("view dims inconsistent"))?;
        Ok(CubeView::standalone(Arc::new(shard), x0, row_start))
    }

    fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes after message"));
        }
        Ok(())
    }
}

/// Decodes one frame *body* (as produced by [`FrameReader::next_frame`])
/// into a message.  Never panics: every malformation is a typed error.
///
/// [`FrameReader::next_frame`]: crate::frame::FrameReader::next_frame
pub fn decode_body(body: &[u8]) -> Result<WireMessage> {
    let mut r = Reader::new(body);
    let tag = r.u8()?;
    let msg = match tag {
        TAG_HELLO => WireMessage::Hello {
            version: r.u32()?,
            // A body that ends here is a protocol-1 `Hello`; every such
            // build had numerics version 1.
            numerics: if r.remaining() == 0 { 1 } else { r.u32()? },
        },
        TAG_SCREEN_TASK => WireMessage::Pct(PctMessage::ScreenTask {
            task: r.usize64()?,
            view: r.view()?,
            threshold_rad: r.f64()?,
        }),
        TAG_UNIQUE_SET => WireMessage::Pct(PctMessage::UniqueSet {
            task: r.usize64()?,
            unique: r.vectors()?,
        }),
        TAG_COVARIANCE_TASK => WireMessage::Pct(PctMessage::CovarianceTask {
            task: r.usize64()?,
            mean: r.vector()?,
            pixels: r.vectors()?,
        }),
        TAG_COVARIANCE_SUM => {
            let task = r.usize64()?;
            let len = r.u32()? as usize;
            let packed = r.f64s(len)?;
            let bands = r.u32()? as usize;
            let count = r.u64()?;
            WireMessage::Pct(PctMessage::CovarianceSum {
                task,
                packed,
                bands,
                count,
            })
        }
        TAG_TRANSFORM_TASK => {
            let task = r.usize64()?;
            let view = r.view()?;
            let mean = r.vector()?;
            let transform = r.matrix()?;
            let n = r.u32()? as usize;
            let mut scales = Vec::with_capacity(n.min(r.remaining() / 16));
            for _ in 0..n {
                scales.push((r.f64()?, r.f64()?));
            }
            WireMessage::Pct(PctMessage::TransformTask {
                task,
                view,
                mean,
                transform,
                scales,
            })
        }
        TAG_RGB_STRIP => WireMessage::Pct(PctMessage::RgbStrip {
            task: r.usize64()?,
            row_start: r.u32()? as usize,
            rows: r.u32()? as usize,
            width: r.u32()? as usize,
            rgb: r.byte_vec()?,
        }),
        TAG_SCREEN_SEEDED_TASK => WireMessage::Pct(PctMessage::ScreenSeededTask {
            task: r.usize64()?,
            view: r.view()?,
            seed: r.vectors()?,
            threshold_rad: r.f64()?,
        }),
        TAG_SEEDED_UNIQUE => WireMessage::Pct(PctMessage::SeededUnique {
            task: r.usize64()?,
            accepted: r.vectors()?,
        }),
        TAG_DERIVE_TASK => WireMessage::Pct(PctMessage::DeriveTask {
            task: r.usize64()?,
            unique: r.vectors()?,
            config: PctConfig {
                screening_angle_rad: r.f64()?,
                output_components: r.u32()? as usize,
            },
        }),
        TAG_DERIVED_TRANSFORM => {
            let task = r.usize64()?;
            let mean = r.vector()?;
            let transform = r.matrix()?;
            let n = r.u32()? as usize;
            let eigenvalues = r.f64s(n)?;
            WireMessage::Pct(PctMessage::DerivedTransform {
                task,
                mean,
                transform,
                eigenvalues,
            })
        }
        TAG_TASK_FAILED => WireMessage::Pct(PctMessage::TaskFailed {
            task: r.usize64()?,
            error: r.string()?,
        }),
        TAG_HEARTBEAT => WireMessage::Pct(PctMessage::Heartbeat),
        TAG_SHUTDOWN => WireMessage::Pct(PctMessage::Shutdown),
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameReader;

    fn coded_view(w: usize, h: usize, b: usize) -> CubeView {
        let dims = CubeDims::new(w, h, b);
        let mut cube = HyperCube::zeros(dims);
        for y in 0..h {
            for x in 0..w {
                let v: Vec<f64> = (0..b)
                    .map(|k| (x * 977 + y * 31 + k) as f64 * 0.5)
                    .collect();
                cube.set_pixel(x, y, &v).unwrap();
            }
        }
        CubeView::full(Arc::new(cube))
    }

    fn round_trip(msg: WireMessage) -> WireMessage {
        let frame = encode_message(&msg);
        let mut reader = FrameReader::new();
        reader.push(&frame);
        let body = reader.next_frame().unwrap().unwrap();
        decode_body(&body).unwrap()
    }

    /// One message of every kind.  The views are the awkward case on
    /// purpose: a window that starts mid-row and mid-band-run, so its rows
    /// are strided through the backing cube and not even contiguous.
    fn one_of_every_kind() -> Vec<WireMessage> {
        let view = CubeView::window(Arc::clone(coded_view(7, 6, 5).storage()), 2, 1, 4, 3)
            .unwrap()
            .with_band_window(1, 3)
            .unwrap();
        assert!(view.row_samples(0).is_none());
        let vecs = vec![
            Vector::from_vec(vec![1.0, -2.5]),
            Vector::from_vec(vec![f64::MIN_POSITIVE, 0.0]),
        ];
        let matrix = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        vec![
            WireMessage::hello(),
            WireMessage::Pct(PctMessage::ScreenTask {
                task: 7,
                view: view.clone(),
                threshold_rad: 0.087,
            }),
            WireMessage::Pct(PctMessage::UniqueSet {
                task: 8,
                unique: vecs.clone(),
            }),
            WireMessage::Pct(PctMessage::CovarianceTask {
                task: 9,
                mean: vecs[0].clone(),
                pixels: vecs.clone(),
            }),
            WireMessage::Pct(PctMessage::CovarianceSum {
                task: 10,
                packed: vec![0.25, -0.5, 1e300],
                bands: 2,
                count: 42,
            }),
            WireMessage::Pct(PctMessage::TransformTask {
                task: 11,
                view: view.clone(),
                mean: vecs[1].clone(),
                transform: matrix.clone(),
                scales: vec![(0.0, 1.0), (-3.5, 3.5)],
            }),
            WireMessage::Pct(PctMessage::RgbStrip {
                task: 12,
                row_start: 5,
                rows: 2,
                width: 4,
                rgb: vec![0, 127, 255, 1, 2, 3],
            }),
            WireMessage::Pct(PctMessage::ScreenSeededTask {
                task: 13,
                view,
                seed: vecs.clone(),
                threshold_rad: 0.1,
            }),
            WireMessage::Pct(PctMessage::SeededUnique {
                task: 14,
                accepted: vec![],
            }),
            WireMessage::Pct(PctMessage::DeriveTask {
                task: 15,
                unique: vecs.clone(),
                config: PctConfig {
                    screening_angle_rad: 0.0874,
                    output_components: 3,
                },
            }),
            WireMessage::Pct(PctMessage::DerivedTransform {
                task: 16,
                mean: vecs[0].clone(),
                transform: matrix,
                eigenvalues: vec![3.0, 1.0, 0.25],
            }),
            WireMessage::Pct(PctMessage::TaskFailed {
                task: 17,
                error: "solver diverged: λ≈∞".to_string(),
            }),
            WireMessage::Pct(PctMessage::Heartbeat),
            WireMessage::Pct(PctMessage::Shutdown),
        ]
    }

    #[test]
    fn every_message_kind_round_trips() {
        for msg in one_of_every_kind() {
            assert_eq!(round_trip(msg.clone()), msg);
        }
    }

    /// The encoder as first written — every field appended one element at a
    /// time, views through [`CubeView::materialize`], the body then wrapped
    /// by [`frame::frame`] — kept as the reference that freezes the wire
    /// format (protocol 1's, but for the `Hello`, which protocol 2 extended
    /// by the numerics word): [`encode_message`] may get there any way it
    /// likes, but not to different bytes.
    fn reference_encode(msg: &WireMessage) -> Vec<u8> {
        fn u32_(out: &mut Vec<u8>, v: usize) {
            out.extend_from_slice(&(v as u32).to_le_bytes());
        }
        fn u64_(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn f64s(out: &mut Vec<u8>, vs: &[f64]) {
            for v in vs {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        fn vector(out: &mut Vec<u8>, v: &Vector) {
            u32_(out, v.len());
            f64s(out, v.as_slice());
        }
        fn vectors(out: &mut Vec<u8>, vs: &[Vector]) {
            u32_(out, vs.len());
            for v in vs {
                vector(out, v);
            }
        }
        fn matrix(out: &mut Vec<u8>, m: &Matrix) {
            u32_(out, m.rows());
            u32_(out, m.cols());
            f64s(out, m.as_slice());
        }
        fn view(out: &mut Vec<u8>, view: &CubeView) {
            let shard = view.materialize();
            let dims = shard.dims();
            for field in [
                view.x0(),
                view.row_start(),
                dims.width,
                dims.height,
                dims.bands,
            ] {
                u32_(out, field);
            }
            f64s(out, shard.samples());
        }
        let out = &mut Vec::new();
        let pct = match msg {
            WireMessage::Hello { version, numerics } => {
                out.push(0);
                u32_(out, *version as usize);
                u32_(out, *numerics as usize);
                return frame::frame(out);
            }
            WireMessage::Pct(pct) => pct,
        };
        let (tag, task) = match pct {
            PctMessage::ScreenTask { task, .. } => (1, task),
            PctMessage::UniqueSet { task, .. } => (2, task),
            PctMessage::CovarianceTask { task, .. } => (3, task),
            PctMessage::CovarianceSum { task, .. } => (4, task),
            PctMessage::TransformTask { task, .. } => (5, task),
            PctMessage::RgbStrip { task, .. } => (6, task),
            PctMessage::ScreenSeededTask { task, .. } => (7, task),
            PctMessage::SeededUnique { task, .. } => (8, task),
            PctMessage::DeriveTask { task, .. } => (9, task),
            PctMessage::DerivedTransform { task, .. } => (10, task),
            PctMessage::TaskFailed { task, .. } => (11, task),
            PctMessage::Heartbeat => return frame::frame(&[12]),
            PctMessage::Shutdown => return frame::frame(&[13]),
        };
        out.push(tag);
        u64_(out, *task as u64);
        match pct {
            PctMessage::ScreenTask {
                view: v,
                threshold_rad,
                ..
            } => {
                view(out, v);
                f64s(out, &[*threshold_rad]);
            }
            PctMessage::UniqueSet { unique: vs, .. }
            | PctMessage::SeededUnique { accepted: vs, .. } => vectors(out, vs),
            PctMessage::CovarianceTask { mean, pixels, .. } => {
                vector(out, mean);
                vectors(out, pixels);
            }
            PctMessage::CovarianceSum {
                packed,
                bands,
                count,
                ..
            } => {
                u32_(out, packed.len());
                f64s(out, packed);
                u32_(out, *bands);
                u64_(out, *count);
            }
            PctMessage::TransformTask {
                view: v,
                mean,
                transform,
                scales,
                ..
            } => {
                view(out, v);
                vector(out, mean);
                matrix(out, transform);
                u32_(out, scales.len());
                for (lo, hi) in scales {
                    f64s(out, &[*lo, *hi]);
                }
            }
            PctMessage::RgbStrip {
                row_start,
                rows,
                width,
                rgb,
                ..
            } => {
                for field in [*row_start, *rows, *width, rgb.len()] {
                    u32_(out, field);
                }
                out.extend_from_slice(rgb);
            }
            PctMessage::ScreenSeededTask {
                view: v,
                seed,
                threshold_rad,
                ..
            } => {
                view(out, v);
                vectors(out, seed);
                f64s(out, &[*threshold_rad]);
            }
            PctMessage::DeriveTask { unique, config, .. } => {
                vectors(out, unique);
                f64s(out, &[config.screening_angle_rad]);
                u32_(out, config.output_components);
            }
            PctMessage::DerivedTransform {
                mean,
                transform,
                eigenvalues,
                ..
            } => {
                vector(out, mean);
                matrix(out, transform);
                u32_(out, eigenvalues.len());
                f64s(out, eigenvalues);
            }
            PctMessage::TaskFailed { error, .. } => {
                u32_(out, error.len());
                out.extend_from_slice(error.as_bytes());
            }
            PctMessage::Heartbeat | PctMessage::Shutdown => unreachable!("returned above"),
        }
        frame::frame(out)
    }

    #[test]
    fn wire_format_is_frozen_against_the_reference_encoder() {
        for msg in one_of_every_kind() {
            let frame = encode_message(&msg);
            assert_eq!(frame, reference_encode(&msg), "{msg:?}");
            // One buffer, allocated at the frame's exact size.
            assert_eq!(frame.capacity(), frame.len(), "{msg:?}");
        }
        // And against literal bytes, so the header layout, the polynomial
        // and the tag numbering are pinned to something no code here made.
        assert_eq!(
            encode_message(&WireMessage::hello()),
            [
                b'F', b'U', b'S', b'1', 9, 0, 0, 0, 0x3d, 0xbc, 0x99, 0xb6, 0, 2, 0, 0, 0, 3, 0, 0,
                0
            ]
        );
    }

    #[test]
    fn decoded_views_preserve_scene_coordinates() {
        let cube = {
            let mut c = HyperCube::zeros(CubeDims::new(6, 5, 3));
            for y in 0..5 {
                for x in 0..6 {
                    let v: Vec<f64> = (0..3).map(|b| (x + 10 * y + 100 * b) as f64).collect();
                    c.set_pixel(x, y, &v).unwrap();
                }
            }
            Arc::new(c)
        };
        let window = CubeView::window(Arc::clone(&cube), 2, 1, 3, 4).unwrap();
        let msg = WireMessage::Pct(PctMessage::ScreenTask {
            task: 0,
            view: window.clone(),
            threshold_rad: 0.05,
        });
        let decoded = round_trip(msg);
        let WireMessage::Pct(PctMessage::ScreenTask { view, .. }) = decoded else {
            panic!("wrong variant");
        };
        assert_eq!(view.x0(), 2);
        assert_eq!(view.row_start(), 1);
        assert_eq!(view, window);
    }

    #[test]
    fn encode_charges_exactly_the_view_payload_to_the_ledger() {
        let view = coded_view(5, 4, 3);
        let msg = WireMessage::Pct(PctMessage::ScreenTask {
            task: 1,
            view: view.clone(),
            threshold_rad: 0.1,
        });
        let before = hsi::thread_cloned_bytes_total();
        encode_message(&msg);
        assert_eq!(
            hsi::thread_cloned_bytes_total() - before,
            view.payload_bytes() as u64
        );
        // Payload-free messages charge nothing.
        let before = hsi::thread_cloned_bytes_total();
        encode_message(&WireMessage::Pct(PctMessage::Heartbeat));
        assert_eq!(hsi::thread_cloned_bytes_total() - before, 0);
    }

    #[test]
    fn unknown_tags_and_truncations_are_typed_errors() {
        assert_eq!(decode_body(&[200]), Err(WireError::UnknownTag(200)));
        assert!(matches!(decode_body(&[]), Err(WireError::Truncated { .. })));
        // A screen task cut short mid-view.
        let frame_bytes = encode_message(&WireMessage::Pct(PctMessage::ScreenTask {
            task: 1,
            view: coded_view(3, 3, 2),
            threshold_rad: 0.1,
        }));
        let mut reader = FrameReader::new();
        reader.push(&frame_bytes);
        let body = reader.next_frame().unwrap().unwrap();
        assert!(matches!(
            decode_body(&body[..body.len() / 2]),
            Err(WireError::Truncated { .. })
        ));
        // Trailing garbage after a complete message is malformed, not ignored.
        let mut extended = body;
        extended.push(0);
        assert!(matches!(
            decode_body(&extended),
            Err(WireError::Malformed(_))
        ));
    }
}
