//! Simulated workstation nodes.
//!
//! A node models one machine in the cluster: a single CPU with a relative
//! compute rate and a full-duplex NIC.  Work submitted to a node's CPU is
//! serialised — two worker replicas placed on the same physical pool of
//! processors each take their turn, which is exactly why the paper expects
//! "performance would decrease by a factor of two" under level-2 replication.

use crate::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifier of a node in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Static description of a node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Relative CPU speed: 1.0 is the reference workstation (a 300 MHz
    /// UltraSPARC in the paper's testbed).  A compute request of `d` seconds
    /// of reference work takes `d / speed` seconds on this node.
    pub speed: f64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        Self { speed: 1.0 }
    }
}

impl NodeSpec {
    /// A uniform cluster of `n` reference-speed nodes, the configuration of
    /// the paper's testbed.
    pub fn uniform(n: usize) -> Vec<NodeSpec> {
        vec![NodeSpec::default(); n]
    }
}

/// Dynamic per-node simulation state: CPU and NIC availability.
#[derive(Debug, Clone)]
pub(crate) struct NodeState {
    pub spec: NodeSpec,
    /// Earliest time the CPU can start new work.
    pub cpu_free_at: SimTime,
    /// Earliest time the NIC can start transmitting a new outgoing message.
    pub tx_free_at: SimTime,
    /// Earliest time the NIC can start receiving a new incoming message.
    pub rx_free_at: SimTime,
    /// Whether the node is alive (an actor can kill it).
    pub alive: bool,
}

impl NodeState {
    pub(crate) fn new(spec: NodeSpec) -> Self {
        Self {
            spec,
            cpu_free_at: SimTime::ZERO,
            tx_free_at: SimTime::ZERO,
            rx_free_at: SimTime::ZERO,
            alive: true,
        }
    }

    /// Reserves the CPU for `reference_work` seconds of reference-speed work
    /// starting no earlier than `now`; returns the completion time.
    pub(crate) fn reserve_cpu(&mut self, now: SimTime, reference_work: Duration) -> SimTime {
        let scaled = if self.spec.speed > 0.0 {
            reference_work.mul_f64(1.0 / self.spec.speed)
        } else {
            reference_work
        };
        let start = self.cpu_free_at.max(now);
        let done = start + scaled;
        self.cpu_free_at = done;
        done
    }

    /// Reserves the transmit side of the NIC for `occupancy` starting no
    /// earlier than `now`; returns the time transmission finishes.
    pub(crate) fn reserve_tx(&mut self, now: SimTime, occupancy: Duration) -> SimTime {
        let start = self.tx_free_at.max(now);
        let done = start + occupancy;
        self.tx_free_at = done;
        done
    }

    /// Reserves the receive side of the NIC.
    pub(crate) fn reserve_rx(&mut self, now: SimTime, occupancy: Duration) -> SimTime {
        let start = self.rx_free_at.max(now);
        let done = start + occupancy;
        self.rx_free_at = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cluster_has_reference_speed() {
        let nodes = NodeSpec::uniform(16);
        assert_eq!(nodes.len(), 16);
        assert!(nodes.iter().all(|n| n.speed == 1.0));
    }

    #[test]
    fn cpu_requests_serialise() {
        let mut node = NodeState::new(NodeSpec::default());
        let t1 = node.reserve_cpu(SimTime::ZERO, Duration::from_secs(2));
        let t2 = node.reserve_cpu(SimTime::ZERO, Duration::from_secs(3));
        assert_eq!(t1, SimTime::from_nanos(2_000_000_000));
        assert_eq!(t2, SimTime::from_nanos(5_000_000_000));
    }

    #[test]
    fn faster_node_finishes_sooner() {
        let mut fast = NodeState::new(NodeSpec { speed: 2.0 });
        let mut slow = NodeState::new(NodeSpec { speed: 0.5 });
        let work = Duration::from_secs(4);
        assert_eq!(
            fast.reserve_cpu(SimTime::ZERO, work),
            SimTime::from_secs_f64(2.0)
        );
        assert_eq!(
            slow.reserve_cpu(SimTime::ZERO, work),
            SimTime::from_secs_f64(8.0)
        );
    }

    #[test]
    fn cpu_idle_gap_respected() {
        let mut node = NodeState::new(NodeSpec::default());
        let later = SimTime::from_secs_f64(10.0);
        let done = node.reserve_cpu(later, Duration::from_secs(1));
        assert_eq!(done, SimTime::from_secs_f64(11.0));
    }

    #[test]
    fn nic_sides_are_independent() {
        let mut node = NodeState::new(NodeSpec::default());
        let tx = node.reserve_tx(SimTime::ZERO, Duration::from_millis(10));
        let rx = node.reserve_rx(SimTime::ZERO, Duration::from_millis(4));
        assert_eq!(tx, SimTime::from_nanos(10_000_000));
        assert_eq!(rx, SimTime::from_nanos(4_000_000));
    }

    #[test]
    fn zero_speed_node_falls_back_to_reference() {
        let mut node = NodeState::new(NodeSpec { speed: 0.0 });
        let done = node.reserve_cpu(SimTime::ZERO, Duration::from_secs(1));
        assert_eq!(done, SimTime::from_secs_f64(1.0));
    }
}
