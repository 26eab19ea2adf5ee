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
//! A `CubeView` is a run of whole rows, so its `x0` is always 0: the word
//! keeps the view layout every protocol version has sent, and a view
//! that names any other column is [`WireError::Malformed`].  A view encodes
//! via [`CubeView::copy_runs`] — the charged deep copy, writing the band's
//! samples straight into the frame — and decodes into a fresh owned shard
//! wrapped in [`CubeView::standalone`], preserving the band's scene row.
//! [`encode_message`] `debug_assert`s, via the thread-local clone ledger,
//! that this is the *only* payload copy the encoder performed.
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
// Tags 1 and 2 (protocol 2's unseeded screen task and its unique set) are
// retired, not reused: a body carrying either is `WireError::UnknownTag`.
const TAG_HELLO: u8 = 0;
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
    // x0: a view spans the full width.
    put_u32(out, 0);
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
        if self.u32()? != 0 {
            return Err(WireError::Malformed("view does not start at column 0"));
        }
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
        Ok(CubeView::standalone(Arc::new(shard), row_start))
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

    /// One message of every kind.  The views are a row band that starts
    /// past row 0 of its backing cube, so neither its samples nor its scene
    /// row start at zero.
    fn one_of_every_kind() -> Vec<WireMessage> {
        let view = CubeView::window(Arc::clone(coded_view(7, 6, 5).storage()), 1, 3).unwrap();
        let vecs = vec![
            Vector::from_vec(vec![1.0, -2.5]),
            Vector::from_vec(vec![f64::MIN_POSITIVE, 0.0]),
        ];
        let matrix = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        vec![
            WireMessage::hello(),
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
    /// by [`frame::frame`] — made these frames of [`one_of_every_kind`], kept
    /// as `(length, FNV-1a 64 of the frame)`: the reference that freezes the
    /// wire format (protocol 1's, but for the `Hello`, which protocol 2
    /// extended by the numerics word and protocol 3 announces as version 3,
    /// and for tags 1 and 2, which protocol 3 retired).  [`encode_message`]
    /// may get there any way it likes, but not to different bytes.
    #[test]
    fn wire_format_is_frozen_against_the_reference_encoder() {
        let fnv = |frame: &[u8]| {
            frame.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let reference = [
            (21, 0x5ed5_2588_35f2_0189),
            (85, 0xd25e_770a_c9c3_bc59),
            (61, 0xef08_c6ed_71eb_50d5),
            (977, 0x1936_900a_3158_0d50),
            (43, 0xc042_6ff1_b77f_8017),
            (933, 0xeb95_bcc6_39b7_e983),
            (25, 0x55ea_c71d_e704_b296),
            (77, 0x6ece_7890_fd2e_019f),
            (109, 0xa40b_2d4f_a5df_2dc0),
            (50, 0x4ef3_fb55_24d7_b3d0),
            (13, 0x49ee_acf4_d944_a621),
            (13, 0xd417_edcd_a890_ecba),
        ];
        let messages = one_of_every_kind();
        assert_eq!(messages.len(), reference.len());
        for (msg, pinned) in messages.iter().zip(reference) {
            let frame = encode_message(msg);
            assert_eq!((frame.len(), fnv(&frame)), pinned, "{msg:?}");
            // One buffer, allocated at the frame's exact size.
            assert_eq!(frame.capacity(), frame.len(), "{msg:?}");
        }
        assert_eq!(PROTOCOL_VERSION, 3);
        // And against literal bytes, so the header layout, the polynomial
        // and the tag numbering are pinned to something no code here made.
        assert_eq!(
            encode_message(&WireMessage::hello()),
            [
                b'F', b'U', b'S', b'1', 9, 0, 0, 0, 0xa3, 0xbc, 0x33, 0x7a, 0, 3, 0, 0, 0, 3, 0, 0,
                0
            ]
        );
    }

    /// A view whose `x0` word is not 0 names a column window no view can
    /// be: every task kind that carries one decodes to `Malformed`, never to
    /// a view, whatever the column.
    #[test]
    fn a_view_that_does_not_start_at_column_0_is_malformed() {
        for msg in one_of_every_kind() {
            let WireMessage::Pct(pct) = &msg else {
                continue;
            };
            if pct.payload_bytes() == 0 {
                continue;
            }
            let frame = encode_message(&msg);
            let mut body = frame[FRAME_HEADER_BYTES..].to_vec();
            // `[tag u8][task u64]`, then the view's x0 word.
            assert_eq!(body[9..13], [0; 4], "{msg:?}");
            for x0 in [1u32, 2, u32::MAX] {
                body[9..13].copy_from_slice(&x0.to_le_bytes());
                assert_eq!(
                    decode_body(&body),
                    Err(WireError::Malformed("view does not start at column 0")),
                    "{msg:?} at x0 {x0}"
                );
            }
        }
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
        let window = CubeView::window(Arc::clone(&cube), 1, 4).unwrap();
        let msg = WireMessage::Pct(PctMessage::ScreenSeededTask {
            task: 0,
            view: window.clone(),
            seed: Vec::new(),
            threshold_rad: 0.05,
        });
        let decoded = round_trip(msg);
        let WireMessage::Pct(PctMessage::ScreenSeededTask { view, .. }) = decoded else {
            panic!("wrong variant");
        };
        assert_eq!(view.row_start(), 1);
        assert_eq!(view, window);
    }

    #[test]
    fn encode_charges_exactly_the_view_payload_to_the_ledger() {
        let view = coded_view(5, 4, 3);
        let msg = WireMessage::Pct(PctMessage::ScreenSeededTask {
            task: 1,
            view: view.clone(),
            seed: Vec::new(),
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
        // Tags 1 and 2 are retired, not reused: not even protocol 2's empty
        // unique set (`[tag][task u64][count u32]`) decodes under either.
        for tag in [1, 2] {
            let body = [[tag].as_slice(), &[0; 12]].concat();
            assert_eq!(decode_body(&body), Err(WireError::UnknownTag(tag)));
        }
        assert!(matches!(decode_body(&[]), Err(WireError::Truncated { .. })));
        // A screen task cut short mid-view.
        let frame_bytes = encode_message(&WireMessage::Pct(PctMessage::ScreenSeededTask {
            task: 1,
            view: coded_view(3, 3, 2),
            seed: Vec::new(),
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
