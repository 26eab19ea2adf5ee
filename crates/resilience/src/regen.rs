//! The regeneration protocol.
//!
//! Replication alone degrades gracefully "to the point of failure"; the
//! resiliency protocols instead *recreate* the lost replica so operational
//! readiness is restored, "subject only to the constraints imposed by the
//! total available resources".  The [`Regenerator`] implements that control
//! loop for the thread level:
//!
//! 1. a failure report arrives (from the failure detector or from a send
//!    error),
//! 2. the failed member is removed from its group's membership,
//! 3. a placement is chosen for the replacement on a live node with
//!    resources (placement policy),
//! 4. an application-supplied factory actually spawns the replacement thread
//!    (registering or rebinding its routing name), and
//! 5. membership is updated so group sends include the new member.
//!
//! The factory indirection keeps the library application independent, as the
//! paper requires: the fusion code provides a closure that knows how to
//! restart a PCT worker from the group's state, while the protocol logic
//! lives here.

use crate::group::{MemberId, MembershipTable};
use crate::policy::PlacementPolicy;
use crate::{ResilienceError, Result};
use serde::{Deserialize, Serialize};

/// A record of one regeneration performed by the protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegenerationEvent {
    /// The member that failed.
    pub failed: MemberId,
    /// The replacement member that was created.
    pub replacement: MemberId,
    /// The node the replacement was placed on.
    pub node: usize,
}

/// The regeneration protocol driver.
pub struct Regenerator {
    membership: MembershipTable,
    placement: PlacementPolicy,
    live_nodes: Vec<usize>,
    history: Vec<RegenerationEvent>,
    telemetry: telemetry::Telemetry,
}

impl Regenerator {
    /// Creates a regenerator over the given membership table.
    pub fn new(
        membership: MembershipTable,
        placement: PlacementPolicy,
        live_nodes: Vec<usize>,
    ) -> Self {
        Self {
            membership,
            placement,
            live_nodes,
            history: Vec::new(),
            telemetry: telemetry::Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: every regeneration is recorded as a
    /// `member_regenerated` instant and counted in
    /// `resilience_regenerations_total`.
    pub fn set_telemetry(&mut self, telemetry: telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Currently usable nodes.
    pub fn live_nodes(&self) -> &[usize] {
        &self.live_nodes
    }

    /// All regenerations performed so far.
    pub fn history(&self) -> &[RegenerationEvent] {
        &self.history
    }

    /// Handles the failure of `member`: restores its group to the target
    /// replication level by creating one replacement, spawned via `factory`.
    ///
    /// `factory` receives the replacement's [`MemberId`] and chosen node and
    /// must start the new thread (typically via `scp::Runtime::spawn`).  If
    /// the factory fails, membership is left without the replacement so a
    /// later retry can run.
    ///
    /// Returns `Ok(None)` when the member was not present (already handled —
    /// e.g. both the detector and a send error reported the same failure).
    pub fn handle_failure<F>(
        &mut self,
        member: &MemberId,
        mut factory: F,
    ) -> Result<Option<RegenerationEvent>>
    where
        F: FnMut(&MemberId, usize) -> Result<()>,
    {
        let group_name = member.group.clone();
        // Step 2: remove the failed member.
        let removed = self
            .membership
            .update(&group_name, |g| g.remove_member(member))?;
        if !removed {
            return Ok(None);
        }
        // Step 3: choose a placement for the replacement.
        let snapshot = self.membership.get(&group_name)?;
        let node = self
            .placement
            .choose(
                &self.live_nodes,
                &snapshot.occupied_nodes(),
                snapshot.next_incarnation,
            )
            .ok_or_else(|| ResilienceError::GroupExhausted(group_name.clone()))?;
        // Step 4/5: reserve the membership slot, then spawn.
        let replacement = self
            .membership
            .update(&group_name, |g| g.add_member(node))?;
        if let Err(e) = factory(&replacement, node) {
            // Roll back so the group does not list a member that never started.
            self.membership
                .update(&group_name, |g| g.remove_member(&replacement))?;
            return Err(e);
        }
        let event = RegenerationEvent {
            failed: member.clone(),
            replacement,
            node,
        };
        self.telemetry.instant(
            "member_regenerated",
            None,
            None,
            &format!(
                "{} -> {}",
                event.failed.routing_name(),
                event.replacement.routing_name()
            ),
        );
        self.telemetry.count("resilience_regenerations_total", &[]);
        self.history.push(event.clone());
        Ok(Some(event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::ReplicaGroup;

    fn setup() -> (MembershipTable, Regenerator) {
        let table = MembershipTable::new();
        table.insert(ReplicaGroup::new("w0", 2, &[0, 1]).unwrap());
        table.insert(ReplicaGroup::new("w1", 2, &[2, 3]).unwrap());
        let regen = Regenerator::new(
            table.clone(),
            PlacementPolicy::SpreadAcrossNodes,
            vec![0, 1, 2, 3, 4, 5],
        );
        (table, regen)
    }

    #[test]
    fn failure_triggers_regeneration_on_a_fresh_node() {
        let (table, mut regen) = setup();
        let failed = MemberId::new("w0", 1);
        let mut spawned = Vec::new();
        let event = regen
            .handle_failure(&failed, |m, node| {
                spawned.push((m.clone(), node));
                Ok(())
            })
            .unwrap()
            .expect("regeneration happened");
        assert_eq!(event.failed, failed);
        assert_eq!(event.replacement.incarnation, 2);
        assert_eq!(spawned.len(), 1);
        // The group is back at full strength.
        let group = table.get("w0").unwrap();
        assert_eq!(group.members.len(), 2);
        assert!(!group.is_degraded());
        // The replacement does not share a node with the survivor (node 0).
        assert_ne!(event.node, 0);
        assert_eq!(regen.history().len(), 1);
    }

    #[test]
    fn duplicate_failure_reports_are_idempotent() {
        let (_, mut regen) = setup();
        let failed = MemberId::new("w0", 1);
        regen.handle_failure(&failed, |_, _| Ok(())).unwrap();
        let second = regen
            .handle_failure(&failed, |_, _| panic!("must not spawn twice"))
            .unwrap();
        assert!(second.is_none());
    }

    #[test]
    fn factory_failure_rolls_back_membership() {
        let (table, mut regen) = setup();
        let failed = MemberId::new("w1", 0);
        let result = regen.handle_failure(&failed, |_, _| {
            Err(ResilienceError::InvalidConfig("no resources".into()))
        });
        assert!(result.is_err());
        let group = table.get("w1").unwrap();
        // The failed member is gone and no phantom replacement was recorded.
        assert_eq!(group.members.len(), 1);
        assert!(group.is_degraded());
        assert!(regen.history().is_empty());
    }

    #[test]
    fn unknown_group_failure_is_an_error() {
        let (_, mut regen) = setup();
        let bogus = MemberId::new("ghost", 0);
        assert!(matches!(
            regen.handle_failure(&bogus, |_, _| Ok(())),
            Err(ResilienceError::UnknownGroup(_))
        ));
    }

    #[test]
    fn exhausted_node_pool_reports_group_exhausted() {
        let table = MembershipTable::new();
        table.insert(ReplicaGroup::new("w0", 2, &[0]).unwrap());
        let mut regen = Regenerator::new(table, PlacementPolicy::SpreadAcrossNodes, vec![]);
        let failed = MemberId::new("w0", 0);
        assert!(matches!(
            regen.handle_failure(&failed, |_, _| Ok(())),
            Err(ResilienceError::GroupExhausted(_))
        ));
    }

    #[test]
    fn successive_failures_keep_restoring_the_level() {
        // Repeatedly kill the newest member; the group must always come back
        // to level 2 as long as nodes remain.
        let (table, mut regen) = setup();
        let mut victim = MemberId::new("w0", 0);
        for round in 0..4 {
            let event = regen
                .handle_failure(&victim, |_, _| Ok(()))
                .unwrap()
                .expect("regenerated");
            assert_eq!(event.replacement.incarnation, 2 + round);
            let group = table.get("w0").unwrap();
            assert_eq!(group.members.len(), 2);
            victim = event.replacement;
        }
        assert_eq!(regen.history().len(), 4);
    }
}
