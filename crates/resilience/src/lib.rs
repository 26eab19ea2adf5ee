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
//! The pieces:
//!
//! * [`policy`] — the placement policy: where a group's members and their
//!   regenerated replacements live.  (The paper replicates all workers to
//!   level 2 and leaves the manager, the sensor, unreplicated; the level is
//!   each group's own target.)
//! * [`group`] — replica groups: a logical thread name backed by several
//!   physical member threads, with group send (every live member receives
//!   each message) and membership tracking.
//! * [`detector`] — heartbeat-based failure detection with a deterministic
//!   clock so detection latency and false-positive behaviour are testable.
//! * [`regen`] — the regeneration protocol: pick a placement for the
//!   replacement member, register it in the router, restart it from the
//!   group's state, and bring membership back to the target level.
//! * [`attack`] — kill switches used to emulate information-warfare attacks
//!   against live worker threads in examples and tests.
//! * [`overhead`] — an analytic accounting of the protocol overhead
//!   (duplicate payloads, acknowledgements, heartbeats) used by the
//!   simulator-driven benchmarks to charge resiliency costs, and by
//!   EXPERIMENTS.md to decompose the ≈10 % overhead the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod detector;
pub mod group;
pub mod overhead;
pub mod policy;
pub mod regen;

pub use attack::KillSwitch;
pub use detector::{DetectorConfig, FailureDetector};
pub use group::{MemberId, MembershipTable, ReplicaGroup};
pub use overhead::OverheadModel;
pub use policy::PlacementPolicy;
pub use regen::{RegenerationEvent, Regenerator};

/// Errors produced by the resiliency layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceError {
    /// The named replica group does not exist.
    UnknownGroup(String),
    /// The named member does not exist within its group.
    UnknownMember(String),
    /// No live member remains and no resources are available to regenerate.
    GroupExhausted(String),
    /// An error bubbled up from the message-passing layer.
    Scp(scp::ScpError),
    /// An invalid configuration value.
    InvalidConfig(String),
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilienceError::UnknownGroup(g) => write!(f, "unknown replica group '{g}'"),
            ResilienceError::UnknownMember(m) => write!(f, "unknown group member '{m}'"),
            ResilienceError::GroupExhausted(g) => {
                write!(
                    f,
                    "replica group '{g}' has no live members and cannot be regenerated"
                )
            }
            ResilienceError::Scp(e) => write!(f, "message-passing error: {e}"),
            ResilienceError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
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
