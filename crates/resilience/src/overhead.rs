//! Analytic accounting of resiliency overheads.
//!
//! The paper's headline performance claim is that resiliency costs "the cost
//! of replication plus approximately 10 %" — the 10 % being the more complex
//! communication protocols (group sends, acknowledgements, sequence
//! bookkeeping, heartbeats).  The simulator-driven reproduction needs those
//! costs as explicit model parameters so Figure 4 can be regenerated and so
//! the decomposition (replication versus protocol) can be reported
//! separately, which is what [`OverheadModel`] provides.

use serde::{Deserialize, Serialize};

/// Parameters describing the cost of running a workload under the resiliency
/// protocols.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadModel {
    /// Replication level of the worker groups.
    pub replication_level: usize,
    /// Fractional CPU/protocol overhead added to every message-handling and
    /// compute step by the group-communication protocols (sequence numbers,
    /// duplicate suppression, acknowledgements).  The paper measures this at
    /// roughly 0.10.
    pub protocol_overhead: f64,
    /// Size of one heartbeat/acknowledgement control message in bytes.
    pub control_message_bytes: u64,
}

impl OverheadModel {
    /// No resiliency at all.
    pub fn none() -> Self {
        Self {
            replication_level: 1,
            protocol_overhead: 0.0,
            control_message_bytes: 0,
        }
    }

    /// The configuration evaluated in Figure 4: level-2 replication with the
    /// ~10 % protocol overhead the paper reports.
    pub fn paper_level_2() -> Self {
        Self::with_level(2)
    }

    /// A model with an arbitrary replication level and paper-calibrated
    /// protocol costs, used by the replication-level ablation bench.
    pub fn with_level(level: usize) -> Self {
        let level = level.max(1);
        if level == 1 {
            return Self::none();
        }
        Self {
            replication_level: level,
            protocol_overhead: 0.10,
            control_message_bytes: 64,
        }
    }

    /// Whether the model represents a resilient configuration.
    pub fn is_resilient(&self) -> bool {
        self.replication_level > 1
    }

    /// Multiplier applied to worker compute time purely due to protocol
    /// processing (not replication — replication costs emerge from the
    /// duplicated work itself).
    pub fn compute_multiplier(&self) -> f64 {
        1.0 + self.protocol_overhead
    }

    /// The idealised slowdown the paper *expected* from replication alone
    /// ("performance would decrease by a factor of two"): with the worker
    /// pool fixed, running `level` copies of every worker multiplies the
    /// parallel compute by `level`.
    pub fn expected_replication_slowdown(&self) -> f64 {
        self.replication_level as f64
    }

    /// The total slowdown predicted by the model: replication times protocol
    /// overhead.  Figure 4's measured resilient curve should sit close to
    /// the non-resilient curve multiplied by this factor.
    pub fn predicted_slowdown(&self) -> f64 {
        self.expected_replication_slowdown() * self.compute_multiplier()
    }
}

impl Default for OverheadModel {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_model_costs_nothing() {
        let m = OverheadModel::none();
        assert!(!m.is_resilient());
        assert_eq!(m.compute_multiplier(), 1.0);
        assert_eq!(m.predicted_slowdown(), 1.0);
    }

    #[test]
    fn paper_level_2_matches_reported_overheads() {
        let m = OverheadModel::paper_level_2();
        assert!(m.is_resilient());
        assert!((m.compute_multiplier() - 1.10).abs() < 1e-12);
        assert_eq!(m.expected_replication_slowdown(), 2.0);
        assert!((m.predicted_slowdown() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn with_level_one_degenerates_to_none() {
        assert_eq!(OverheadModel::with_level(1), OverheadModel::none());
        assert_eq!(OverheadModel::with_level(0), OverheadModel::none());
    }

    #[test]
    fn higher_levels_predict_proportionally_larger_slowdowns() {
        let l2 = OverheadModel::with_level(2).predicted_slowdown();
        let l3 = OverheadModel::with_level(3).predicted_slowdown();
        assert!(l3 > l2);
        assert!((l3 / l2 - 1.5).abs() < 1e-12);
    }
}
