//! Tests of regeneration, the loop
//! [`ResilientManagerState::handle_member_failure`] runs on every confirmed
//! loss: the failed member leaves its group, the group's next incarnation
//! starts and is sent what the group still owes, and the group is back at its
//! replication level.  The members start as mailboxes the tests hold, so each
//! step is observed without threads or timing.
//!
//! [`ResilientManagerState::handle_member_failure`]: crate::ResilientManagerState::handle_member_failure

#[cfg(test)]
mod tests {
    use crate::distributed::MANAGER;
    use crate::messages::PctMessage;
    use crate::{PctError, ResilientManagerState};
    use resilience::{MemberId, ResilienceError};
    use scp::{Runtime, ThreadContext};
    use std::sync::{Arc, Mutex};

    type Mailboxes = Arc<Mutex<Vec<ThreadContext<PctMessage>>>>;

    /// Level-2 groups `w0` and `w1`, every member started as a mailbox kept,
    /// in start order, in the returned list.
    fn setup() -> (ThreadContext<PctMessage>, ResilientManagerState, Mailboxes) {
        let runtime: Runtime<PctMessage> = Runtime::new();
        let ctx = runtime.context(MANAGER).unwrap();
        let started = Mailboxes::default();
        let held = Arc::clone(&started);
        let start = move |name: &str, _kill| {
            held.lock().unwrap().push(runtime.context(name)?);
            Ok(None)
        };
        let names = ["w0".to_string(), "w1".to_string()];
        let injector = resilience::attack::AttackInjector::new();
        let state = ResilientManagerState::build(&names, 2, injector, start).unwrap();
        (ctx, state, started)
    }

    fn started_names(started: &Mailboxes) -> Vec<String> {
        let started = started.lock().unwrap();
        started
            .iter()
            .map(|mailbox| mailbox.name().to_string())
            .collect()
    }

    #[test]
    fn failure_triggers_regeneration_on_a_fresh_node() {
        let (ctx, mut state, started) = setup();
        let failed = MemberId::new("w0", 1);
        let owed = [PctMessage::Heartbeat, PctMessage::Heartbeat];
        let event = state.handle_member_failure(&ctx, &failed, &owed).unwrap();
        let event = event.expect("regeneration happened");
        assert_eq!(event.failed, failed);
        assert_eq!(event.replacement, MemberId::new("w0", 2));
        // One replacement started under a name of its own; the lost name no
        // longer routes.
        let names = ["w0#0", "w0#1", "w1#0", "w1#1", "w0#2"];
        assert_eq!(started_names(&started), names);
        assert!(ctx.router().is_bound("w0#2"));
        assert!(!ctx.router().is_bound("w0#1"));
        // The group is back at full strength, survivor first.
        let group = &state.groups["w0"];
        assert_eq!(
            group.members,
            [MemberId::new("w0", 0), event.replacement.clone()]
        );
        assert!(!group.is_degraded());
        // What the group owed went to the replacement alone.
        let pending: Vec<usize> = started
            .lock()
            .unwrap()
            .iter()
            .map(|m| m.pending())
            .collect();
        assert_eq!(pending, [0, 0, 0, 0, owed.len()]);
        state.shutdown(&ctx);
    }

    #[test]
    fn duplicate_failure_reports_are_idempotent() {
        // The detector and a failed group send may both report one loss.
        let (ctx, mut state, started) = setup();
        let failed = MemberId::new("w0", 1);
        let first = state.handle_member_failure(&ctx, &failed, []).unwrap();
        assert_eq!(first.map(|e| e.failed), Some(failed.clone()));
        let again = [&PctMessage::Heartbeat];
        assert_eq!(
            state.handle_member_failure(&ctx, &failed, again).unwrap(),
            None
        );
        assert_eq!(started_names(&started).len(), 5, "started twice");
        assert_eq!(state.groups["w0"].members.len(), 2);
        state.shutdown(&ctx);
    }

    #[test]
    fn unknown_group_failure_is_an_error() {
        let (ctx, mut state, started) = setup();
        let bogus = MemberId::new("ghost", 0);
        assert!(matches!(
            state.handle_member_failure(&ctx, &bogus, []),
            Err(PctError::Resilience(ResilienceError::UnknownGroup(group))) if group == "ghost"
        ));
        // Nothing started and no group changed.
        assert_eq!(started_names(&started).len(), 4);
        assert_eq!(state.members().len(), 4);
        state.shutdown(&ctx);
    }

    #[test]
    fn successive_failures_keep_restoring_the_level() {
        // Lose the newest member again and again; the group must always come
        // back to level 2.
        let (ctx, mut state, started) = setup();
        let mut victim = MemberId::new("w0", 0);
        let mut regenerations = Vec::new();
        for round in 0..4 {
            let event = state.handle_member_failure(&ctx, &victim, []).unwrap();
            let event = event.expect("regenerated");
            assert_eq!(event.replacement.incarnation, 2 + round);
            assert_eq!(state.groups["w0"].members.len(), 2);
            assert_eq!(event.failed, victim);
            victim = event.replacement.clone();
            regenerations.push(event);
        }
        assert_eq!(started_names(&started).len(), 4 + 4);
        assert_eq!(state.groups["w1"].members.len(), 2, "w1 untouched");
        assert_eq!(regenerations.len(), 4);
        state.shutdown(&ctx);
    }
}
