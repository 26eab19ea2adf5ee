//! Simulation traffic metrics.

use serde::{Deserialize, Serialize};

/// Aggregated metrics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Messages actors attempted to send.
    pub messages_sent: u64,
    /// Messages dropped (dead sender, dead receiver, unknown actor).
    pub messages_dropped: u64,
    /// Payload bytes that actually crossed the network (inter-node sends).
    pub network_bytes: u64,
}
