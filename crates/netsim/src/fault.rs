//! Fault and attack injection schedules.
//!
//! The paper motivates computational resiliency with information-warfare
//! attacks on battlefield command-and-control systems.  From the
//! application's point of view every attack the resiliency layer handles
//! manifests as a process or node that stops participating (crashes, is
//! taken off the network, or is deliberately killed), so the injector models
//! exactly that: nodes die at scheduled virtual times.  Richer behaviours
//! (message delay storms) are expressed as per-message delay factors.

use crate::node::NodeId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A schedule of node failures to inject into a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// `(time, node)` pairs; at `time`, `node` stops computing and both
    /// sending and receiving.
    failures: Vec<(SimTime, NodeId)>,
}

impl FaultPlan {
    /// No faults — the baseline configuration of Figures 4 and 5.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kills a single node at the given time.
    pub fn kill_at(node: NodeId, time: SimTime) -> Self {
        Self {
            failures: vec![(time, node)],
        }
    }

    /// Adds a failure to the plan (builder style).
    pub fn and_kill(mut self, node: NodeId, time: SimTime) -> Self {
        self.failures.push((time, node));
        self
    }

    /// Number of scheduled failures.
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// The scheduled failures, in insertion order.
    pub fn failures(&self) -> &[(SimTime, NodeId)] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_has_no_failures() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn kill_at_records_one_failure() {
        let p = FaultPlan::kill_at(NodeId(3), SimTime::from_secs_f64(2.0));
        assert_eq!(p.len(), 1);
        assert_eq!(p.failures()[0], (SimTime::from_secs_f64(2.0), NodeId(3)));
    }

    #[test]
    fn builder_accumulates_failures() {
        let p = FaultPlan::none()
            .and_kill(NodeId(1), SimTime::from_secs_f64(1.0))
            .and_kill(NodeId(2), SimTime::from_secs_f64(2.0));
        assert_eq!(p.len(), 2);
    }
}
