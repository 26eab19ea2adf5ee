//! Exact byte sizes of the real wire protocol, for tying the simulator to
//! the wire.
//!
//! [`crate::CostModel`] models the *paper's* message volumes — 16-bit raw
//! sensor samples, era-calibrated — and its constants are pinned by the
//! figure-regeneration benches, so they must not drift.  The `wire` crate
//! ships `f64` samples inside framed, CRC-checked messages, which is a
//! different (larger, exactly knowable) byte count.  This module states
//! that layout as arithmetic: one function per message kind, mirroring the
//! codec's field tables constant for constant.
//!
//! The `wire` crate's `netsim_crosscheck` test encodes a real message set
//! and asserts `encoded.len()` equals these formulas for every kind — if
//! the codec layout changes, that test fails and whoever bumps the
//! protocol version fixes the constants here in the same commit.  The
//! simulator can therefore cost scenarios in *real wire bytes* rather
//! than modeled sensor bytes by swapping these in for the
//! [`crate::CostModel`] message-size methods.

/// Bytes of the frame header (`magic u32 + body len u32 + CRC-32`).
pub const FRAME_HEADER_BYTES: u64 = 12;
/// Bytes of the message tag that starts every body.
pub const TAG_BYTES: u64 = 1;
/// Bytes of a task id on the wire (`u64`).
pub const TASK_ID_BYTES: u64 = 8;
/// Bytes of every length/count/dimension prefix (`u32`).
pub const LEN_PREFIX_BYTES: u64 = 4;
/// Bytes of one spectral sample on the wire (`f64` bit pattern — the wire
/// ships full-precision samples, not the sensor's 16-bit rawscans).
pub const SAMPLE_BYTES: u64 = 8;
/// Bytes of a cube-view header (`x0, row_start, width, height, bands`,
/// each a `u32`).
pub const VIEW_HEADER_BYTES: u64 = 5 * LEN_PREFIX_BYTES;

/// Frame bytes of a message whose body is `body` bytes long.
pub fn framed(body: u64) -> u64 {
    FRAME_HEADER_BYTES + body
}

/// Body bytes of an encoded `CubeView` of `pixels × bands`.
pub fn view_bytes(pixels: u64, bands: u64) -> u64 {
    VIEW_HEADER_BYTES + pixels * bands * SAMPLE_BYTES
}

/// Body bytes of an encoded `Vector` of `bands` components.
pub fn vector_bytes(bands: u64) -> u64 {
    LEN_PREFIX_BYTES + bands * SAMPLE_BYTES
}

/// Body bytes of an encoded `Vec<Vector>` of `count` vectors.
pub fn vector_set_bytes(count: u64, bands: u64) -> u64 {
    LEN_PREFIX_BYTES + count * vector_bytes(bands)
}

/// Body bytes of an encoded row-major `Matrix`.
pub fn matrix_bytes(rows: u64, cols: u64) -> u64 {
    2 * LEN_PREFIX_BYTES + rows * cols * SAMPLE_BYTES
}

// ----- whole frames, one per message kind -------------------------------------

/// `ScreenTask{task, view, threshold_rad}`.
pub fn screen_task_frame(pixels: u64, bands: u64) -> u64 {
    framed(TAG_BYTES + TASK_ID_BYTES + view_bytes(pixels, bands) + SAMPLE_BYTES)
}

/// `ScreenSeededTask{task, view, seed, threshold_rad}`.
pub fn screen_seeded_task_frame(pixels: u64, bands: u64, seed: u64) -> u64 {
    framed(
        TAG_BYTES
            + TASK_ID_BYTES
            + view_bytes(pixels, bands)
            + vector_set_bytes(seed, bands)
            + SAMPLE_BYTES,
    )
}

/// `UniqueSet{task, unique}` / `SeededUnique{task, accepted}` (identical
/// layouts under different tags).
pub fn unique_set_frame(unique: u64, bands: u64) -> u64 {
    framed(TAG_BYTES + TASK_ID_BYTES + vector_set_bytes(unique, bands))
}

/// `CovarianceTask{task, mean, pixels}`.
pub fn covariance_task_frame(share: u64, bands: u64) -> u64 {
    framed(TAG_BYTES + TASK_ID_BYTES + vector_bytes(bands) + vector_set_bytes(share, bands))
}

/// `CovarianceSum{task, packed, bands, count}` — the packed upper triangle
/// holds `bands·(bands+1)/2` samples.
pub fn covariance_sum_frame(bands: u64) -> u64 {
    let packed = bands * (bands + 1) / 2;
    framed(
        TAG_BYTES + TASK_ID_BYTES + LEN_PREFIX_BYTES + packed * SAMPLE_BYTES + LEN_PREFIX_BYTES + 8,
    )
}

/// `TransformTask{task, view, mean, transform, scales}` with
/// `components` output components (matrix rows and scale pairs).
pub fn transform_task_frame(pixels: u64, bands: u64, components: u64) -> u64 {
    framed(
        TAG_BYTES
            + TASK_ID_BYTES
            + view_bytes(pixels, bands)
            + vector_bytes(bands)
            + matrix_bytes(components, bands)
            + LEN_PREFIX_BYTES
            + components * 2 * SAMPLE_BYTES,
    )
}

/// `RgbStrip{task, row_start, rows, width, rgb}` for `pixels` strip pixels.
pub fn rgb_strip_frame(pixels: u64) -> u64 {
    framed(TAG_BYTES + TASK_ID_BYTES + 3 * LEN_PREFIX_BYTES + LEN_PREFIX_BYTES + pixels * 3)
}

/// `Heartbeat` / `Shutdown` — tag-only control frames.
pub fn control_frame() -> u64 {
    framed(TAG_BYTES)
}

/// `Hello{version, numerics}` — the handshake frame.
pub fn hello_frame() -> u64 {
    framed(TAG_BYTES + 4 + 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;

    #[test]
    fn wire_payloads_are_4x_the_modeled_sensor_bytes_plus_overhead() {
        // The paper model ships 2-byte sensor samples; the wire ships their
        // 8-byte f64 expansion.  The fixed relation keeps the simulator's
        // calibrated constants honest about what the real protocol costs.
        let m = CostModel::paper();
        let (pixels, bands) = (320 * 64, 105);
        let modeled = m.subcube_bytes(pixels, bands as usize);
        let wire = screen_task_frame(pixels as u64, bands);
        let overhead = FRAME_HEADER_BYTES + TAG_BYTES + TASK_ID_BYTES + VIEW_HEADER_BYTES + 8;
        assert_eq!(wire, 4 * modeled + overhead);
    }

    #[test]
    fn control_frames_fit_the_modeled_control_budget() {
        // The model budgets 64 bytes per control message; real heartbeat
        // and shutdown frames are far under it.
        assert!(control_frame() <= CostModel::paper().control_bytes());
        assert!(hello_frame() <= CostModel::paper().control_bytes());
    }

    #[test]
    fn sizes_are_monotone_in_their_parameters() {
        assert!(screen_task_frame(200, 105) > screen_task_frame(100, 105));
        assert!(unique_set_frame(50, 105) > unique_set_frame(49, 105));
        assert!(transform_task_frame(100, 105, 3) > screen_task_frame(100, 105));
        assert!(covariance_sum_frame(210) > covariance_sum_frame(105));
        assert!(rgb_strip_frame(100) > control_frame());
    }
}
