//! Switched-LAN network model.
//!
//! The paper's testbed used 100BaseT (switched fast Ethernet).  The model
//! here is the standard latency/bandwidth/overhead decomposition used for
//! message-passing performance analysis:
//!
//! * a fixed per-message software overhead at the sender (protocol stack,
//!   SCPlib marshalling),
//! * serialisation of the payload onto the wire at the link bandwidth
//!   (occupying the sender NIC, and later the receiver NIC),
//! * a propagation-plus-switching latency between any two ports.
//!
//! A switched full-duplex network has no shared-medium contention, so two
//! disjoint node pairs can communicate simultaneously; contention only
//! appears at a node's own NIC, which the per-node `tx/rx` reservations in
//! [`crate::node`] capture.

use crate::time::Duration;
use serde::{Deserialize, Serialize};

/// Parameters of the LAN connecting the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Usable bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation plus switch latency.
    pub latency: Duration,
    /// Fixed per-message software overhead charged at the sender.
    pub per_message_overhead: Duration,
}

impl NetworkModel {
    /// 100BaseT switched Ethernet as used in the paper: 100 Mbit/s with
    /// ~90 Mbit/s usable after framing, ~100 µs switch+stack latency, and
    /// ~0.5 ms per-message software overhead typical of late-90s TCP stacks
    /// on workstation-class machines.
    pub fn fast_ethernet_100baset() -> Self {
        Self {
            bandwidth_bps: 90.0e6,
            latency: Duration::from_micros(100),
            per_message_overhead: Duration::from_micros(500),
        }
    }

    /// The paper's testbed as seen by SCPlib: 100BaseT links, but with the
    /// effective application-level throughput of a late-90s TCP stack on a
    /// 300 MHz workstation (~50 Mbit/s) and a per-message marshalling and
    /// protocol cost (~10 ms).  This is the model the Figure 4/5 simulations
    /// use; the per-message cost and the staging of sub-problem transfers
    /// are what make granularity matter.
    pub fn paper_lan() -> Self {
        Self {
            bandwidth_bps: 50.0e6,
            latency: Duration::from_micros(100),
            per_message_overhead: Duration::from_millis(10),
        }
    }

    /// An idealised zero-cost network; with this model the simulated speed-up
    /// should be essentially linear, which the tests use as a sanity check
    /// and the paper invokes when discussing shared-memory execution
    /// ("no communication overhead involved in the algorithm").
    #[cfg(test)]
    pub(crate) fn ideal() -> Self {
        Self {
            bandwidth_bps: f64::INFINITY,
            latency: Duration::ZERO,
            per_message_overhead: Duration::ZERO,
        }
    }

    /// Time the payload occupies a NIC (serialisation time).
    pub(crate) fn serialization_time(&self, bytes: u64) -> Duration {
        if !self.bandwidth_bps.is_finite() || self.bandwidth_bps <= 0.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }

    /// Total sender-side occupancy for one message (overhead + serialisation).
    pub(crate) fn sender_occupancy(&self, bytes: u64) -> Duration {
        self.per_message_overhead + self.serialization_time(bytes)
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::fast_ethernet_100baset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end delivery time for one message on an otherwise idle path,
    /// as the cluster charges it: sender occupancy, propagation, and
    /// receiver-side serialisation.
    fn point_to_point_time(net: &NetworkModel, bytes: u64) -> Duration {
        net.sender_occupancy(bytes) + net.latency + net.serialization_time(bytes)
    }

    #[test]
    fn serialization_time_scales_with_bytes() {
        let net = NetworkModel::fast_ethernet_100baset();
        let one_mb = net.serialization_time(1_000_000);
        let two_mb = net.serialization_time(2_000_000);
        assert!((two_mb.as_secs_f64() - 2.0 * one_mb.as_secs_f64()).abs() < 1e-9);
        // 1 MB over 90 Mbit/s is about 89 ms.
        assert!((one_mb.as_secs_f64() - 0.0889).abs() < 0.002);
    }

    #[test]
    fn ideal_network_is_free() {
        let net = NetworkModel::ideal();
        assert_eq!(point_to_point_time(&net, 10_000_000), Duration::ZERO);
    }

    #[test]
    fn point_to_point_includes_all_terms() {
        let net = NetworkModel {
            bandwidth_bps: 8e6, // 1 byte per microsecond
            latency: Duration::from_micros(100),
            per_message_overhead: Duration::from_micros(50),
        };
        let t = point_to_point_time(&net, 1000);
        // 50us overhead + 1000us tx + 100us latency + 1000us rx = 2150us.
        assert_eq!(t, Duration::from_micros(2150));
    }

    #[test]
    fn paper_lan_pays_more_per_message_than_raw_fast_ethernet() {
        let raw = NetworkModel::fast_ethernet_100baset();
        let paper = NetworkModel::paper_lan();
        assert!(point_to_point_time(&paper, 1000) > point_to_point_time(&raw, 1000));
        // The effective stack throughput is below the raw link rate.
        assert!(paper.serialization_time(1_000_000) > raw.serialization_time(1_000_000));
    }

    #[test]
    fn zero_byte_message_still_pays_overhead_and_latency() {
        let net = NetworkModel::fast_ethernet_100baset();
        let t = point_to_point_time(&net, 0);
        assert_eq!(t, Duration::from_micros(600));
    }
}
