//! The concurrent spectral-screening PCT algorithm — the paper's primary
//! contribution.
//!
//! The algorithm summarises the information content of a hyper-spectral
//! image into a single colour-composite image using three techniques:
//! spectral-angle classification (screening), principal component
//! transformation, and human-centred colour mapping.  This crate provides
//! four interchangeable implementations of the same eight-step pipeline:
//!
//! | Implementation | Substrate | Purpose |
//! |---|---|---|
//! | [`sequential::SequentialPct`] | single thread | reference semantics; every other implementation is validated against it |
//! | [`shared_memory::SharedMemoryPct`] | rayon thread pool | the paper's shared-memory-multiprocessor result (§4: within ~5 % of linear speed-up) |
//! | [`resilient::ResilientPct`] | `scp` + `resilience` | the paper's message-passing implementation on real threads: replica groups with attack injection and regeneration (level 1 is the plain manager/worker run) |
//! | [`distributed_sim`] | `netsim` discrete-event cluster | regenerates Figures 4 and 5 on a simulated 16-node 100BaseT LAN |
//!
//! The manager side of the message-passing implementations is written once,
//! sans-IO, in [`plan`]: [`plan::PaperPlan`] is the paper's protocol, run by
//! `ResilientPct`; [`plan::ChainPlan`] is the seeded-chain protocol of the
//! `service` scheduler and the `sim` crate's manager.  The worker side is
//! [`distributed::handle_task`].  ([`distributed_sim`] is cost-only — no
//! pixels, its own message type — and shares no code path with them.)
//!
//! The eight steps (paper §3): (1) spectral classification, (2) merge unique
//! sets, (3) mean vector, (4) covariance sums, (5) covariance matrix,
//! (6) transformation matrix, (7) transformation of the data, (8) colour
//! mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod colormap;
pub mod config;
pub mod distributed;
pub mod distributed_sim;
pub mod messages;
pub mod pipeline;
pub mod plan;
#[doc(hidden)]
pub mod reference;
pub mod resilient;
pub mod screening;
pub mod sequential;
pub mod shared_memory;

pub use config::{FusionOutput, PctConfig};
pub use resilient::{ResilientManagerState, ResilientPct, ResilientRunReport};
pub use sequential::SequentialPct;
pub use shared_memory::SharedMemoryPct;

/// Errors produced by the fusion pipeline.
#[derive(Debug)]
pub enum PctError {
    /// An error from the linear-algebra substrate.
    Linalg(linalg::LinalgError),
    /// An error from the imagery substrate.
    Hsi(hsi::HsiError),
    /// An error from the message-passing layer.
    Scp(scp::ScpError),
    /// An error from the resiliency layer.
    Resilience(resilience::ResilienceError),
    /// An error from the cluster simulator.
    Sim(netsim::SimError),
    /// The pipeline was configured inconsistently.
    InvalidConfig(String),
    /// A worker failed and could not be recovered.
    WorkerLost(String),
}

impl std::fmt::Display for PctError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PctError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            PctError::Hsi(e) => write!(f, "imagery error: {e}"),
            PctError::Scp(e) => write!(f, "message passing error: {e}"),
            PctError::Resilience(e) => write!(f, "resiliency error: {e}"),
            PctError::Sim(e) => write!(f, "simulator error: {e}"),
            PctError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PctError::WorkerLost(name) => write!(f, "worker '{name}' was lost and not recovered"),
        }
    }
}

impl std::error::Error for PctError {}

impl From<linalg::LinalgError> for PctError {
    fn from(e: linalg::LinalgError) -> Self {
        PctError::Linalg(e)
    }
}
impl From<hsi::HsiError> for PctError {
    fn from(e: hsi::HsiError) -> Self {
        PctError::Hsi(e)
    }
}
impl From<scp::ScpError> for PctError {
    fn from(e: scp::ScpError) -> Self {
        PctError::Scp(e)
    }
}
impl From<resilience::ResilienceError> for PctError {
    fn from(e: resilience::ResilienceError) -> Self {
        PctError::Resilience(e)
    }
}
impl From<netsim::SimError> for PctError {
    fn from(e: netsim::SimError) -> Self {
        PctError::Sim(e)
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PctError>;
