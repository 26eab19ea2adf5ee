//! Replica groups: one logical thread, several physical members.
//!
//! A logical worker `worker3` replicated to level 2 is backed by two member
//! threads, `worker3#0` and `worker3#1` (Figure 1's "shadow threads").  The
//! manager addresses the *group*: `pct::ResilientManagerState::group_send`
//! fans each task out to every live member, and because all members process
//! the same inputs in the same order they produce the same results, which the
//! manager's per-task-id deduplication (`pct::plan`) collapses back to a
//! single logical stream.  Membership is tracked in a shared
//! [`MembershipTable`] that the failure detector and the regeneration
//! protocol update.

use crate::{ResilienceError, Result};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of one physical member of a replica group.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MemberId {
    /// The logical group (thread) name, e.g. `worker3`.
    pub group: String,
    /// Incarnation number distinguishing members and their regenerated
    /// replacements: the original members are 0..level, replacements keep
    /// counting upward.
    pub incarnation: usize,
}

impl MemberId {
    /// Creates a member id.
    pub fn new(group: impl Into<String>, incarnation: usize) -> Self {
        Self {
            group: group.into(),
            incarnation,
        }
    }

    /// The routing name of this member (`group#incarnation`).
    pub fn routing_name(&self) -> String {
        format!("{}#{}", self.group, self.incarnation)
    }

    /// Parses a routing name back into a member id.
    pub fn parse(routing_name: &str) -> Option<MemberId> {
        let (group, inc) = routing_name.rsplit_once('#')?;
        Some(MemberId {
            group: group.to_string(),
            incarnation: inc.parse().ok()?,
        })
    }
}

impl std::fmt::Display for MemberId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.routing_name())
    }
}

/// A replica group descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaGroup {
    /// Logical name of the group.
    pub name: String,
    /// Target replication level.
    pub level: usize,
    /// Live members (routing incarnations currently believed healthy).
    pub members: Vec<MemberId>,
    /// Node each member lives on (parallel to `members`); the placement
    /// policy uses this to avoid co-locating members.
    pub placements: Vec<usize>,
    /// Next incarnation number to assign to a regenerated member.
    pub next_incarnation: usize,
}

impl ReplicaGroup {
    /// Creates a group with `level` initial members placed on `nodes`
    /// (cycled if shorter than `level`).
    pub fn new(name: impl Into<String>, level: usize, nodes: &[usize]) -> Result<Self> {
        let name = name.into();
        let level = level.max(1);
        if nodes.is_empty() {
            return Err(ResilienceError::InvalidConfig(format!(
                "group '{name}' needs at least one node to place members on"
            )));
        }
        let members = (0..level).map(|i| MemberId::new(name.clone(), i)).collect();
        let placements = (0..level).map(|i| nodes[i % nodes.len()]).collect();
        Ok(Self {
            name,
            level,
            members,
            placements,
            next_incarnation: level,
        })
    }

    /// Whether the group is below its target replication level.
    pub fn is_degraded(&self) -> bool {
        self.members.len() < self.level
    }

    /// Removes a member (because it failed); returns `true` if it was
    /// present.
    pub fn remove_member(&mut self, member: &MemberId) -> bool {
        if let Some(pos) = self.members.iter().position(|m| m == member) {
            self.members.remove(pos);
            self.placements.remove(pos);
            true
        } else {
            false
        }
    }

    /// Adds a regenerated member on `node` and returns its id.
    pub fn add_member(&mut self, node: usize) -> MemberId {
        let member = MemberId::new(self.name.clone(), self.next_incarnation);
        self.next_incarnation += 1;
        self.members.push(member.clone());
        self.placements.push(node);
        member
    }

    /// Nodes currently hosting members of this group.
    pub fn occupied_nodes(&self) -> Vec<usize> {
        self.placements.clone()
    }
}

/// Shared, concurrently updatable table of every replica group.
#[derive(Clone, Default)]
pub struct MembershipTable {
    groups: Arc<RwLock<BTreeMap<String, ReplicaGroup>>>,
}

impl MembershipTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a group.
    pub fn insert(&self, group: ReplicaGroup) {
        self.groups.write().insert(group.name.clone(), group);
    }

    /// Returns a snapshot of a group.
    pub fn get(&self, name: &str) -> Result<ReplicaGroup> {
        self.groups
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ResilienceError::UnknownGroup(name.to_string()))
    }

    /// Applies a mutation to a group under the write lock.
    pub fn update<T>(&self, name: &str, f: impl FnOnce(&mut ReplicaGroup) -> T) -> Result<T> {
        let mut groups = self.groups.write();
        let group = groups
            .get_mut(name)
            .ok_or_else(|| ResilienceError::UnknownGroup(name.to_string()))?;
        Ok(f(group))
    }

    /// Names of all groups, sorted.
    pub fn group_names(&self) -> Vec<String> {
        self.groups.read().keys().cloned().collect()
    }

    /// Live members across all groups.
    pub fn all_members(&self) -> Vec<MemberId> {
        self.groups
            .read()
            .values()
            .flat_map(|g| g.members.iter().cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_routing_name_round_trips() {
        let m = MemberId::new("worker3", 1);
        assert_eq!(m.routing_name(), "worker3#1");
        assert_eq!(MemberId::parse("worker3#1"), Some(m));
        assert_eq!(MemberId::parse("garbage"), None);
        assert_eq!(MemberId::parse("worker#x"), None);
    }

    #[test]
    fn new_group_has_level_members_spread_over_nodes() {
        let g = ReplicaGroup::new("w0", 2, &[3, 5, 7]).unwrap();
        assert_eq!(g.members.len(), 2);
        assert_eq!(g.placements, vec![3, 5]);
        assert!(!g.members.is_empty());
        assert!(!g.is_degraded());
    }

    #[test]
    fn group_needs_nodes() {
        assert!(ReplicaGroup::new("w0", 2, &[]).is_err());
    }

    #[test]
    fn removing_members_degrades_then_kills_the_group() {
        let mut g = ReplicaGroup::new("w0", 2, &[0, 1]).unwrap();
        let first = g.members[0].clone();
        assert!(g.remove_member(&first));
        assert!(g.is_degraded());
        assert!(!g.members.is_empty());
        let second = g.members[0].clone();
        assert!(g.remove_member(&second));
        assert!(g.members.is_empty());
        assert!(!g.remove_member(&first));
    }

    #[test]
    fn regenerated_members_get_fresh_incarnations() {
        let mut g = ReplicaGroup::new("w0", 2, &[0, 1]).unwrap();
        let lost = g.members[1].clone();
        g.remove_member(&lost);
        let replacement = g.add_member(4);
        assert_eq!(replacement.incarnation, 2);
        assert_eq!(g.members.len(), 2);
        assert!(!g.is_degraded());
        assert_eq!(g.occupied_nodes(), vec![0, 4]);
    }

    #[test]
    fn membership_table_lookup_and_update() {
        let table = MembershipTable::new();
        table.insert(ReplicaGroup::new("w0", 2, &[0, 1]).unwrap());
        table.insert(ReplicaGroup::new("w1", 2, &[2, 3]).unwrap());
        assert_eq!(
            table.group_names(),
            vec!["w0".to_string(), "w1".to_string()]
        );
        assert_eq!(table.all_members().len(), 4);
        assert!(table.get("w2").is_err());

        table
            .update("w0", |g| {
                let m = g.members[0].clone();
                g.remove_member(&m);
            })
            .unwrap();
        assert!(table.get("w0").unwrap().is_degraded());
    }
}
