//! Explicit communication-structure descriptors.
//!
//! SCPlib threads carry "a machine independent description of \[their\]
//! communication structure".  The descriptor serves two purposes here:
//!
//! 1. *Validation* — the runtime can reject sends over undeclared channels,
//!    catching protocol bugs early (a property the paper's protocols rely on
//!    when reasoning about which channels must be preserved across
//!    reconfiguration).
//! 2. *Reconfiguration planning* — when a thread is regenerated on another
//!    node, the resiliency layer walks the graph to find every peer whose
//!    routing entry must be rebound.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One declared unidirectional channel.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChannelSpec {
    /// Sending thread name.
    pub from: String,
    /// Receiving thread name.
    pub to: String,
    /// Free-form label describing what flows over the channel (sub-problems,
    /// results, heartbeats…).  Purely documentary.
    pub label: String,
}

/// A communication graph over logical thread names.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommGraph {
    channels: BTreeSet<(String, String)>,
    labels: BTreeMap<(String, String), String>,
}

impl CommGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a channel `from -> to`.
    pub fn declare(
        &mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        label: impl Into<String>,
    ) {
        let key = (from.into(), to.into());
        self.labels.insert(key.clone(), label.into());
        self.channels.insert(key);
    }

    /// Whether `from -> to` has been declared.
    pub fn allows(&self, from: &str, to: &str) -> bool {
        self.channels.contains(&(from.to_string(), to.to_string()))
    }

    /// All declared channels.
    pub fn channels(&self) -> Vec<ChannelSpec> {
        self.channels
            .iter()
            .map(|(from, to)| ChannelSpec {
                from: from.clone(),
                to: to.clone(),
                label: self
                    .labels
                    .get(&(from.clone(), to.clone()))
                    .cloned()
                    .unwrap_or_default(),
            })
            .collect()
    }

    /// Number of declared channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether no channels are declared.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Builds the manager/worker star topology the paper's decomposition
    /// uses: the manager exchanges sub-problems and results with each of
    /// `workers` workers.
    pub fn manager_worker(manager: &str, workers: &[String]) -> Self {
        let mut graph = Self::new();
        for w in workers {
            graph.declare(manager, w.clone(), "sub-problem");
            graph.declare(w.clone(), manager, "result");
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_channels_are_allowed() {
        let mut g = CommGraph::new();
        g.declare("manager", "worker0", "sub-problem");
        assert!(g.allows("manager", "worker0"));
        assert!(!g.allows("worker0", "manager"));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn duplicate_declarations_are_idempotent() {
        let mut g = CommGraph::new();
        g.declare("a", "b", "x");
        g.declare("a", "b", "y");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn manager_worker_star_shape() {
        let workers: Vec<String> = (0..4).map(|i| format!("w{i}")).collect();
        let g = CommGraph::manager_worker("manager", &workers);
        assert_eq!(g.len(), 8);
        for w in &workers {
            assert!(g.allows("manager", w));
            assert!(g.allows(w, "manager"));
        }
        assert!(!g.allows("w0", "w1"));
    }

    #[test]
    fn empty_graph_reports_empty() {
        let g = CommGraph::new();
        assert!(g.is_empty());
        assert!(g.channels().is_empty());
    }

    #[test]
    fn channel_specs_carry_labels() {
        let mut g = CommGraph::new();
        g.declare("a", "b", "results");
        let specs = g.channels();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].label, "results");
    }
}
