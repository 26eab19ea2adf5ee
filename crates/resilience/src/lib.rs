//! Computational resiliency library.
//!
//! The paper's central idea is that replication alone only provides graceful
//! degradation: each failure permanently consumes a replica until the system
//! dies.  *Computational resiliency* goes further — the system detects the
//! loss (attack assessment), regenerates the lost replica at another
//! location with sufficient resources, and reconfigures communication so the
//! application never notices.  The concepts are provided as an
//! application-independent library layered on the `scp` message-passing
//! substrate, exactly as the paper layers its protocols on SCPlib.
//!
//! The pieces (the one owner that keeps groups alive with them, and starts
//! each replacement, is `pct::ResilientManagerState`, driven by the service
//! scheduler):
//!
//! * [`group`] — replica groups: a logical thread name backed by several
//!   physical member threads, and the record of one regeneration.  (The
//!   paper replicates all workers to level 2 and leaves the manager, the
//!   sensor, unreplicated; the level is each group's own target.)
//! * [`detector`] — heartbeat-based failure detection with a deterministic
//!   clock so detection latency and false-positive behaviour are testable.
//! * [`attack`] — kill switches used to emulate information-warfare attacks
//!   against live worker threads in tests and chaos schedules.
//! * [`overhead`] — an analytic accounting of the protocol overhead
//!   (duplicate payloads, acknowledgements, heartbeats) used by the
//!   simulator-driven benchmarks to charge resiliency costs and to
//!   decompose the ≈10 % overhead the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod attack;
pub mod detector;
pub mod group;
pub mod overhead;

pub use attack::KillSwitch;
pub use detector::{DetectorConfig, FailureDetector};
pub use group::{MemberId, RegenerationEvent, ReplicaGroup};
pub use overhead::OverheadModel;

/// Errors produced by the resiliency layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceError {
    /// The named replica group does not exist.
    UnknownGroup(String),
    /// An error bubbled up from the message-passing layer.
    Scp(scp::ScpError),
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilienceError::UnknownGroup(g) => write!(f, "unknown replica group '{g}'"),
            ResilienceError::Scp(e) => write!(f, "message-passing error: {e}"),
        }
    }
}

impl std::error::Error for ResilienceError {}

impl From<scp::ScpError> for ResilienceError {
    fn from(e: scp::ScpError) -> Self {
        ResilienceError::Scp(e)
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ResilienceError>;
