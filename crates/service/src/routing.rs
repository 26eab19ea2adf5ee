//! Policy-driven backend routing: where a job's [`Route`] gets resolved.
//!
//! Callers used to pin every job to a concrete [`BackendKind`].  That cannot
//! serve a heterogeneous stream of requests — small cubes drown in per-task
//! protocol overhead on the message-plane lanes, and a caller has no view of
//! lane load.  A job now carries a [`Route`]: either [`Route::Pinned`]
//! (the old behaviour, still available) or [`Route::Auto`], which the
//! scheduler resolves at admission time through the service's pluggable
//! [`RoutingPolicy`] using a [`RoutingRequest`] (what the job looks like)
//! and a [`LaneSnapshot`] (what the pool looks like right now).
//!
//! Three concrete policies ship with the service:
//!
//! * [`SizeThresholdPolicy`] — small cubes go to the in-process
//!   shared-memory lane (cheapest path: no protocol messages at all),
//!   everything else to the standard lane.  The R-FUSE observation: route
//!   small jobs to the cheapest execution path.
//! * [`LeastLoadedPolicy`] — pick the enabled lane with the most free
//!   capacity, by free-slot fraction.
//! * [`RoundRobinPolicy`] — rotate over the enabled lanes.
//!
//! Every policy only ever returns an *enabled* lane; the scheduler
//! additionally clamps the answer (falling back to the first *enabled* lane
//! in preference order — standard, then resilient, then shared-memory, then
//! remote) so a misbehaving custom policy cannot strand a job.

use crate::job::BackendKind;
use hsi::CubeDims;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How a job chooses its execution lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Route {
    /// Run on exactly this lane (validated against the pool at submission).
    Pinned(BackendKind),
    /// Let the service's [`RoutingPolicy`] decide at admission time.
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

/// What the router knows about one job at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingRequest {
    /// Dimensions of the cube to fuse.
    pub dims: CubeDims,
    /// Whole-cube payload volume of the job (`samples * 8` bytes), before
    /// any sharding — divide by [`RoutingRequest::shards`] for the per-task
    /// volume a message-plane lane would reference.
    pub payload_bytes: u64,
    /// Number of shards the job would be split into on a message-plane lane.
    pub shards: usize,
}

impl RoutingRequest {
    /// Builds a request for a cube of the given dimensions.
    pub fn for_dims(dims: CubeDims, shards: usize) -> Self {
        Self {
            dims,
            payload_bytes: dims.byte_size() as u64,
            shards,
        }
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

    /// Fraction of slots free (0.0 when the lane is disabled).
    pub fn free_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.free as f64 / self.total as f64
        }
    }
}

/// A point-in-time view of every lane, handed to the routing policy.
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
    pub fn enabled_lanes(&self) -> Vec<BackendKind> {
        BackendKind::ALL
            .into_iter()
            .filter(|kind| self.lane(*kind).enabled())
            .collect()
    }
}

/// Decides which lane an [`Route::Auto`] job runs on.
///
/// Implementations must be cheap (called on the scheduler thread once per
/// admitted job) and must return an enabled lane from the snapshot; the
/// scheduler clamps anything else to the first enabled lane in preference
/// order (standard, then resilient, then shared-memory, then remote).
///
/// ```
/// use service::{BackendKind, LaneSnapshot, RoutingPolicy, RoutingRequest};
///
/// /// Everything to the resilient lane when it exists.
/// #[derive(Debug)]
/// struct Paranoid;
/// impl RoutingPolicy for Paranoid {
///     fn name(&self) -> &'static str {
///         "paranoid"
///     }
///     fn route(&self, _job: &RoutingRequest, lanes: &LaneSnapshot) -> BackendKind {
///         if lanes.resilient.enabled() {
///             BackendKind::Resilient
///         } else {
///             BackendKind::Standard
///         }
///     }
/// }
/// ```
pub trait RoutingPolicy: Send + Sync + std::fmt::Debug {
    /// A short name for reports and logs.
    fn name(&self) -> &'static str;

    /// Picks the lane for one auto-routed job.
    fn route(&self, job: &RoutingRequest, lanes: &LaneSnapshot) -> BackendKind;
}

/// Routes by cube size: jobs at or under the threshold go to the in-process
/// shared-memory lane (no protocol round trips), larger jobs to the
/// standard lane.  This is the service's default policy.
#[derive(Debug, Clone, Copy)]
pub struct SizeThresholdPolicy {
    /// Largest payload (in bytes) still considered "small".
    pub small_cube_max_bytes: u64,
}

impl SizeThresholdPolicy {
    /// Default threshold: 256 KiB of samples (a 64×64×8 cube, say).  Small
    /// enough that per-task messaging overhead dominates compute.
    pub const DEFAULT_THRESHOLD_BYTES: u64 = 256 * 1024;
}

impl Default for SizeThresholdPolicy {
    fn default() -> Self {
        Self {
            small_cube_max_bytes: Self::DEFAULT_THRESHOLD_BYTES,
        }
    }
}

impl RoutingPolicy for SizeThresholdPolicy {
    fn name(&self) -> &'static str {
        "size-threshold"
    }

    fn route(&self, job: &RoutingRequest, lanes: &LaneSnapshot) -> BackendKind {
        if job.payload_bytes <= self.small_cube_max_bytes && lanes.shared_memory.enabled() {
            BackendKind::SharedMemory
        } else {
            BackendKind::Standard
        }
    }
}

/// Routes to the enabled lane with the highest free-slot fraction; ties are
/// broken in the order standard, shared-memory, resilient, remote (cheapest
/// first — remote last because it alone pays serialisation and a process
/// boundary per task).
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoadedPolicy;

impl RoutingPolicy for LeastLoadedPolicy {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&self, _job: &RoutingRequest, lanes: &LaneSnapshot) -> BackendKind {
        let mut best = BackendKind::Standard;
        let mut best_free = -1.0_f64;
        for kind in [
            BackendKind::Standard,
            BackendKind::SharedMemory,
            BackendKind::Resilient,
            BackendKind::Remote,
        ] {
            let lane = lanes.lane(kind);
            if lane.enabled() && lane.free_fraction() > best_free {
                best = kind;
                best_free = lane.free_fraction();
            }
        }
        best
    }
}

/// Rotates over the enabled lanes in a fixed order, independent of job shape
/// or load — the baseline spreading policy.
#[derive(Debug, Default)]
pub struct RoundRobinPolicy {
    next: AtomicUsize,
}

impl RoutingPolicy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&self, _job: &RoutingRequest, lanes: &LaneSnapshot) -> BackendKind {
        let enabled = lanes.enabled_lanes();
        if enabled.is_empty() {
            return BackendKind::Standard;
        }
        let slot = self.next.fetch_add(1, Ordering::Relaxed);
        enabled[slot % enabled.len()]
    }
}

/// The shareable policy handle stored in the service configuration.
pub type SharedRoutingPolicy = Arc<dyn RoutingPolicy>;

/// The service's default policy: [`SizeThresholdPolicy`] with its default
/// threshold.
pub fn default_policy() -> SharedRoutingPolicy {
    Arc::new(SizeThresholdPolicy::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(standard: usize, resilient: usize, shm: usize) -> LaneSnapshot {
        LaneSnapshot {
            standard: LaneLoad {
                total: standard,
                free: standard,
            },
            resilient: LaneLoad {
                total: resilient,
                free: resilient,
            },
            shared_memory: LaneLoad {
                total: shm,
                free: shm,
            },
            ..Default::default()
        }
    }

    fn request(side: usize, bands: usize) -> RoutingRequest {
        RoutingRequest::for_dims(CubeDims::new(side, side, bands), 4)
    }

    #[test]
    fn size_threshold_splits_small_and_large() {
        let policy = SizeThresholdPolicy::default();
        let lanes = snapshot(4, 2, 2);
        // 16×16×8×8 B = 16 KiB — small.
        assert_eq!(
            policy.route(&request(16, 8), &lanes),
            BackendKind::SharedMemory
        );
        // 128×128×32×8 B = 4 MiB — large.
        assert_eq!(
            policy.route(&request(128, 32), &lanes),
            BackendKind::Standard
        );
    }

    #[test]
    fn size_threshold_without_shared_memory_lane_falls_back() {
        let policy = SizeThresholdPolicy::default();
        let lanes = snapshot(4, 2, 0);
        assert_eq!(policy.route(&request(16, 8), &lanes), BackendKind::Standard);
    }

    #[test]
    fn least_loaded_picks_the_freest_lane() {
        let policy = LeastLoadedPolicy;
        let mut lanes = snapshot(4, 2, 2);
        lanes.standard.free = 1; // 25 % free
        lanes.resilient.free = 2; // 100 % free
        lanes.shared_memory.free = 1; // 50 % free
        assert_eq!(
            policy.route(&request(16, 8), &lanes),
            BackendKind::Resilient
        );
        // Ties prefer the cheaper lane (standard before shared-memory).
        let mut even = snapshot(4, 0, 2);
        even.standard.free = 4;
        even.shared_memory.free = 2;
        assert_eq!(policy.route(&request(16, 8), &even), BackendKind::Standard);
    }

    #[test]
    fn least_loaded_ignores_disabled_lanes() {
        let policy = LeastLoadedPolicy;
        let mut lanes = snapshot(4, 0, 0);
        lanes.standard.free = 0;
        assert_eq!(policy.route(&request(16, 8), &lanes), BackendKind::Standard);
    }

    #[test]
    fn round_robin_cycles_over_enabled_lanes() {
        let policy = RoundRobinPolicy::default();
        let lanes = snapshot(4, 2, 2);
        let picks: Vec<BackendKind> = (0..6)
            .map(|_| policy.route(&request(8, 4), &lanes))
            .collect();
        assert_eq!(
            picks,
            vec![
                BackendKind::Standard,
                BackendKind::Resilient,
                BackendKind::SharedMemory,
                BackendKind::Standard,
                BackendKind::Resilient,
                BackendKind::SharedMemory,
            ]
        );
        // With a lane disabled, the rotation shrinks to what exists.
        let two_lane = snapshot(4, 0, 2);
        let picks: Vec<BackendKind> = (0..4)
            .map(|_| policy.route(&request(8, 4), &two_lane))
            .collect();
        assert!(picks
            .iter()
            .all(|k| *k == BackendKind::Standard || *k == BackendKind::SharedMemory));
    }

    #[test]
    fn remote_lane_is_routable_but_least_preferred() {
        let mut lanes = snapshot(4, 0, 0);
        lanes.remote = LaneLoad { total: 2, free: 2 };
        // A tie on free fraction keeps the in-process lane.
        assert_eq!(
            LeastLoadedPolicy.route(&request(16, 8), &lanes),
            BackendKind::Standard
        );
        // A strictly freer remote lane wins.
        lanes.standard.free = 1;
        assert_eq!(
            LeastLoadedPolicy.route(&request(16, 8), &lanes),
            BackendKind::Remote
        );
        assert_eq!(
            lanes.enabled_lanes(),
            vec![BackendKind::Standard, BackendKind::Remote]
        );
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
        assert_eq!(LaneLoad::default().free_fraction(), 0.0);
        assert_eq!(Route::Auto.label(), "auto");
        assert_eq!(Route::Pinned(BackendKind::Resilient).label(), "resilient");
        assert_eq!(
            Route::from(BackendKind::Standard),
            Route::Pinned(BackendKind::Standard)
        );
        assert_eq!(Route::default(), Route::Auto);
    }
}
