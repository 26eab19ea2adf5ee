//! Simulation metrics and utilisation accounting.

use crate::time::Duration;
use serde::{Deserialize, Serialize};

/// Aggregated metrics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Messages actors attempted to send.
    pub messages_sent: u64,
    /// Messages delivered to a live actor.
    pub messages_delivered: u64,
    /// Messages dropped (dead sender, dead receiver, unknown actor).
    pub messages_dropped: u64,
    /// Total payload bytes of attempted sends.
    pub bytes_sent: u64,
    /// Payload bytes that actually crossed the network (inter-node sends).
    pub network_bytes: u64,
    /// Node failures injected.
    pub node_failures: u64,
    /// Per-node CPU busy time.
    pub per_node_busy: Vec<Duration>,
    /// Per-node bytes transmitted.
    pub per_node_bytes_sent: Vec<u64>,
}

impl SimMetrics {
    /// Creates zeroed metrics for a cluster of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            per_node_busy: vec![Duration::ZERO; nodes],
            per_node_bytes_sent: vec![0; nodes],
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_metrics_are_zeroed() {
        let m = SimMetrics::new(4);
        assert_eq!(m.per_node_busy, [Duration::ZERO; 4]);
        assert_eq!(m.per_node_bytes_sent, [0; 4]);
        assert_eq!((m.messages_sent, m.messages_delivered), (0, 0));
    }
}
