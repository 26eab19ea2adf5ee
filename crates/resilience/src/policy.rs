//! Placement policy.
//!
//! "In any realistic system, there will never be sufficient resources to
//! replicate all resources, therefore some policy-based methods for
//! controlling replication are required."  How many members a group gets is
//! the `level` its owner passes to `ReplicaGroup::new`; a
//! [`PlacementPolicy`] decides where members (and regenerated replacements)
//! live, preferring to spread a group across distinct nodes so one node
//! failure cannot take out a whole group.

use serde::{Deserialize, Serialize};

/// Where to place group members and regenerated replacements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PlacementPolicy {
    /// Members of a group are spread round-robin over the node list, skipping
    /// nodes that already host a member of the same group when possible.
    #[default]
    SpreadAcrossNodes,
    /// Members are packed onto the lowest-numbered live nodes (useful for
    /// studying worst-case contention).
    Pack,
}

impl PlacementPolicy {
    /// Chooses a node (index into `live_nodes`, which lists currently usable
    /// node identifiers) for a new member of a group whose existing members
    /// occupy `occupied_nodes`.  Returns `None` when no node is available.
    pub fn choose(
        &self,
        live_nodes: &[usize],
        occupied_nodes: &[usize],
        member_index: usize,
    ) -> Option<usize> {
        if live_nodes.is_empty() {
            return None;
        }
        match self {
            PlacementPolicy::Pack => Some(live_nodes[member_index % live_nodes.len()]),
            PlacementPolicy::SpreadAcrossNodes => {
                // Prefer a live node not already hosting a member of this
                // group; fall back to round-robin when all are occupied.
                let free: Vec<usize> = live_nodes
                    .iter()
                    .copied()
                    .filter(|n| !occupied_nodes.contains(n))
                    .collect();
                if free.is_empty() {
                    Some(live_nodes[member_index % live_nodes.len()])
                } else {
                    Some(free[member_index % free.len()])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_prefers_unoccupied_nodes() {
        let policy = PlacementPolicy::SpreadAcrossNodes;
        let live = vec![0, 1, 2, 3];
        let chosen = policy.choose(&live, &[0], 0).unwrap();
        assert_ne!(chosen, 0);
    }

    #[test]
    fn spread_falls_back_when_all_occupied() {
        let policy = PlacementPolicy::SpreadAcrossNodes;
        let live = vec![0, 1];
        assert!(policy.choose(&live, &[0, 1], 3).is_some());
    }

    #[test]
    fn pack_uses_round_robin() {
        let policy = PlacementPolicy::Pack;
        let live = vec![5, 6, 7];
        assert_eq!(policy.choose(&live, &[], 0), Some(5));
        assert_eq!(policy.choose(&live, &[], 1), Some(6));
        assert_eq!(policy.choose(&live, &[], 3), Some(5));
    }

    #[test]
    fn no_live_nodes_means_no_placement() {
        assert_eq!(PlacementPolicy::SpreadAcrossNodes.choose(&[], &[], 0), None);
        assert_eq!(PlacementPolicy::Pack.choose(&[], &[], 0), None);
    }
}
