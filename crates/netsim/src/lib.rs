//! Discrete-event cluster and LAN simulator.
//!
//! The paper's evaluation ran on 16 Sun 300 MHz workstations connected with
//! 100BaseT networking — hardware we cannot reproduce directly.  This crate
//! is the substitute substrate: a deterministic discrete-event simulator
//! (DES) of a small workstation cluster with
//!
//! * a virtual clock with nanosecond resolution ([`time`]),
//! * nodes with configurable compute rates whose CPUs serialise work
//!   requests ([`node`]) — this is what makes "replication costs roughly a
//!   factor of two" emerge naturally when two worker replicas share a
//!   processor pool,
//! * a switched-LAN network model with per-message overhead, latency and
//!   bandwidth-limited NIC serialisation ([`link`]),
//! * an actor-style programming interface in which reactive processes
//!   exchange messages, request compute blocks and kill nodes
//!   ([`cluster`]) — the same "important transitions happen at message
//!   receipt" model the paper adopts from SCPlib,
//! * a calibrated cost model translating PCT workload parameters (pixels,
//!   bands, sub-cube sizes) into compute seconds and the *paper's* message
//!   bytes ([`cost`]; the real protocol's frame sizes are `wire::frame_len`,
//!   which the `sim` crate passes to [`ActorContext::send`]), and
//! * traffic metrics of a run ([`trace`]).
//!
//! Two crates drive it.  `pct::distributed_sim` models the costs of the
//! paper's manager/worker protocol — its own messages, no pixels — to
//! regenerate Figures 4 and 5; the `sim` crate hosts the service's real
//! scheduler and workers, running the actual protocol, on virtual time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cluster;
pub mod cost;
pub mod link;
pub mod node;
pub mod time;
pub mod trace;

pub use cluster::{
    Actor, ActorContext, ActorId, ClusterSim, LinkFault, LinkVerdict, SimConfig, SimOutcome,
};
pub use cost::CostModel;
pub use link::NetworkModel;
pub use node::{NodeId, NodeSpec};
pub use time::{Duration, SimTime};

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An actor or node id referenced an entity that does not exist.
    UnknownEntity {
        /// What kind of entity was referenced.
        kind: &'static str,
        /// The offending identifier.
        id: usize,
    },
    /// The simulation exceeded its configured event budget, which usually
    /// indicates a protocol livelock in the driver.
    EventBudgetExhausted {
        /// The number of events processed before giving up.
        processed: u64,
    },
    /// An invalid configuration value.
    InvalidConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownEntity { kind, id } => write!(f, "unknown {kind} id {id}"),
            SimError::EventBudgetExhausted { processed } => {
                write!(f, "event budget exhausted after {processed} events")
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid simulator configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SimError>;
