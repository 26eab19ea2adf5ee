//! Backend routing: where a job's [`Route`] gets resolved.
//!
//! A job carries a [`Route`]: either [`Route::Pinned`] to a concrete
//! [`BackendKind`], or [`Route::Auto`], which the scheduler resolves at
//! admission with [`route`] — the size rule: small cubes go to the
//! in-process shared-memory lane (no protocol messages at all), everything
//! else to the standard lane.  The admission governor then clamps the
//! answer to an enabled lane of the live [`LaneSnapshot`] (falling back to
//! the first enabled lane in preference order — standard, then resilient,
//! then shared-memory, then remote), so no job is stranded.

use crate::job::BackendKind;

/// How a job chooses its execution lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Route {
    /// Run on exactly this lane (validated against the pool at submission).
    Pinned(BackendKind),
    /// Let the size rule ([`route`]) decide at admission time.
    #[default]
    Auto,
}

impl Route {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Route::Pinned(kind) => kind.label(),
            Route::Auto => "auto",
        }
    }
}

impl From<BackendKind> for Route {
    fn from(kind: BackendKind) -> Self {
        Route::Pinned(kind)
    }
}

/// Occupancy of one pool lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneLoad {
    /// Execution slots the lane has in total (0 = lane disabled).
    pub total: usize,
    /// Slots currently free.
    pub free: usize,
}

impl LaneLoad {
    /// Whether the lane exists at all.
    pub fn enabled(&self) -> bool {
        self.total > 0
    }
}

/// A point-in-time view of every lane, read when a route is resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// The standard worker lane.
    pub standard: LaneLoad,
    /// The resilient replica-group lane.
    pub resilient: LaneLoad,
    /// The in-process shared-memory executor lane.
    pub shared_memory: LaneLoad,
    /// The remote worker-process lane (wire protocol over TCP).
    pub remote: LaneLoad,
}

impl LaneSnapshot {
    /// The load of one lane.
    pub fn lane(&self, kind: BackendKind) -> LaneLoad {
        match kind {
            BackendKind::Standard => self.standard,
            BackendKind::Resilient => self.resilient,
            BackendKind::SharedMemory => self.shared_memory,
            BackendKind::Remote => self.remote,
        }
    }

    /// The lanes that exist in this pool, in preference order.
    pub(crate) fn enabled_lanes(&self) -> Vec<BackendKind> {
        BackendKind::ALL
            .into_iter()
            .filter(|kind| self.lane(*kind).enabled())
            .collect()
    }
}

/// Largest job payload (in bytes of samples) [`route`] sends to the
/// shared-memory lane: 256 KiB (a 64×64×8 cube, say), small enough that
/// per-task messaging overhead dominates compute.
const SMALL_CUBE_MAX_BYTES: u64 = 256 * 1024;

/// The lane of an [`Route::Auto`] job of `payload_bytes` (the whole cube,
/// before sharding): the in-process shared-memory lane for a small cube,
/// when the pool has one, and the standard lane otherwise.  The governor
/// clamps the answer to an enabled lane.
pub fn route(payload_bytes: u64, lanes: &LaneSnapshot) -> BackendKind {
    if payload_bytes <= SMALL_CUBE_MAX_BYTES && lanes.shared_memory.enabled() {
        BackendKind::SharedMemory
    } else {
        BackendKind::Standard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi::CubeDims;

    fn snapshot(standard: usize, resilient: usize, shm: usize) -> LaneSnapshot {
        let load = |total| LaneLoad { total, free: total };
        LaneSnapshot {
            standard: load(standard),
            resilient: load(resilient),
            shared_memory: load(shm),
            ..Default::default()
        }
    }

    /// The payload of a `side`×`side`×`bands` cube.
    fn bytes(side: usize, bands: usize) -> u64 {
        CubeDims::new(side, side, bands).byte_size() as u64
    }

    #[test]
    fn size_threshold_splits_small_and_large() {
        let lanes = snapshot(4, 2, 2);
        // 16×16×8×8 B = 16 KiB — small.
        assert_eq!(route(bytes(16, 8), &lanes), BackendKind::SharedMemory);
        // 64×64×8×8 B = 256 KiB — the threshold is inclusive.
        assert_eq!(bytes(64, 8), SMALL_CUBE_MAX_BYTES);
        assert_eq!(route(bytes(64, 8), &lanes), BackendKind::SharedMemory);
        // 128×128×32×8 B = 4 MiB — large.
        assert_eq!(route(bytes(128, 32), &lanes), BackendKind::Standard);
    }

    #[test]
    fn size_threshold_without_shared_memory_lane_falls_back() {
        let lanes = snapshot(4, 2, 0);
        assert_eq!(route(bytes(16, 8), &lanes), BackendKind::Standard);
    }

    #[test]
    fn remote_lane_is_routable_but_least_preferred() {
        // The size rule never picks the remote lane; the clamp's preference
        // order reaches it last, after every in-process lane.
        let mut lanes = snapshot(4, 0, 0);
        lanes.remote = LaneLoad { total: 2, free: 2 };
        assert_eq!(route(bytes(16, 8), &lanes), BackendKind::Standard);
        assert_eq!(
            lanes.enabled_lanes(),
            vec![BackendKind::Standard, BackendKind::Remote]
        );
        lanes.standard = LaneLoad::default();
        assert_eq!(lanes.enabled_lanes(), vec![BackendKind::Remote]);
    }

    #[test]
    fn lane_snapshot_accessors() {
        let lanes = snapshot(4, 0, 2);
        assert!(lanes.lane(BackendKind::Standard).enabled());
        assert!(!lanes.lane(BackendKind::Resilient).enabled());
        assert_eq!(
            lanes.enabled_lanes(),
            vec![BackendKind::Standard, BackendKind::SharedMemory]
        );
        assert_eq!(Route::Auto.label(), "auto");
        assert_eq!(Route::Pinned(BackendKind::Resilient).label(), "resilient");
        assert_eq!(
            Route::from(BackendKind::Standard),
            Route::Pinned(BackendKind::Standard)
        );
        assert_eq!(Route::default(), Route::Auto);
    }
}
