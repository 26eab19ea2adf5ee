//! The replica-group machinery of the resilient lane: the paper's
//! intrusion tolerance.
//!
//! Every logical worker is a *replica group* of members that all receive
//! every task and all return results; the manager's plan acts on the first
//! result per task id and calls the others stale, so replication is
//! transparent to the application by construction (level 1 is the plain
//! manager/worker run).  Members emit heartbeats; the service scheduler's
//! failure detector notices a member that has gone silent (because an
//! attack killed it), and regeneration immediately starts a replacement
//! member — rebinding its routing name and re-issuing the tasks its group
//! still owes — restoring the replication level instead of merely
//! degrading.  That restore-not-degrade behaviour is the paper's definition
//! of computational resiliency.
//!
//! The groups have one owner, [`ResilientManagerState`]: membership, kill
//! switches, regeneration and member start.  The `service`
//! worker pool owns it for the lifetime of the process and the `service`
//! scheduler drives it.  Starting a member is the owner's effect, handed to
//! [`ResilientManagerState::build`] once and used for every member it
//! starts and every replacement it regenerates: the threaded pool starts a
//! [`member_loop`] thread, a pool hosted on virtual time binds a mailbox its
//! host drives.

use crate::distributed::{handle_task, MANAGER};
use crate::messages::PctMessage;
use crate::Result;
use resilience::attack::AttackInjector;
use resilience::{KillSwitch, MemberId, RegenerationEvent, ReplicaGroup, ResilienceError};
use scp::{ScpError, ThreadContext, ThreadHandle};
use std::any::Any;
use std::collections::BTreeMap;
use std::time::Duration;

/// Starts one member under its routing name with the kill switch its loop
/// must poll.  A thread start returns the thread's handle, which the state
/// reaps and joins; a member whose mailbox its owner drives returns `None`.
type StartMember = Box<dyn FnMut(&str, KillSwitch) -> scp::Result<Option<ThreadHandle<()>>> + Send>;

/// The state of a set of replica groups, and their one owner.
///
/// Owns everything needed to keep the groups alive: the groups themselves,
/// the kill-switch registry used to emulate attacks, the owner's member
/// start, and the handles of every member thread not yet reaped.  The
/// service layer's worker pool owns one for the lifetime of the process;
/// the scheduler's failure detector reports the losses, and the scheduler
/// records each regeneration [`ResilientManagerState::handle_member_failure`]
/// returns.
pub struct ResilientManagerState {
    /// The replica groups, by name.
    pub groups: BTreeMap<String, ReplicaGroup>,
    /// Kill-switch registry used to emulate attacks against members.
    pub injector: AttackInjector,
    /// Handles of every thread-started member still running or not yet
    /// reaped (including regenerated replacements and members falsely
    /// declared failed); [`ResilientManagerState::handle_member_failure`]
    /// joins and removes the ones that have exited.
    pub handles: Vec<ThreadHandle<()>>,
    /// The first panic of a member thread reaped mid-run, re-raised by
    /// [`ResilientManagerState::shutdown`].
    member_panic: Option<Box<dyn Any + Send>>,
    /// How a member is started: at build and for every replacement.
    start: StartMember,
}

/// How long a group-lane task may go unanswered before it is re-sent to
/// every current member of its group (× [`backoff_factor`]): 500 ms, of
/// wall time on threads and of virtual time in the simulator.  Retransmits
/// are idempotent (workers recompute, the manager dedups by task id), so a
/// conservative base only costs latency on genuinely lost sends.
pub const RETRANSMIT_AFTER: Duration = Duration::from_millis(500);

/// The retransmit-backoff policy of the scheduler's group lane: the wait
/// doubles with every attempt, capped at 32×, so a genuinely long task on a healthy group
/// costs at most a handful of idempotent duplicates instead of a re-send
/// storm, while a genuinely lost send is still recovered after one base
/// timeout, [`RETRANSMIT_AFTER`].
pub fn backoff_factor(attempts: u32) -> u32 {
    1 << attempts.min(5)
}

impl ResilientManagerState {
    /// Builds the state for one replica group per name in `group_names`,
    /// each with `level` members, starting every member with `start` (which
    /// also starts every later replacement) and registering its kill switch
    /// in `injector`.
    pub fn build(
        group_names: &[String],
        level: usize,
        injector: AttackInjector,
        start: impl FnMut(&str, KillSwitch) -> scp::Result<Option<ThreadHandle<()>>> + Send + 'static,
    ) -> Result<Self> {
        let mut state = Self {
            groups: BTreeMap::new(),
            injector,
            handles: Vec::new(),
            member_panic: None,
            start: Box::new(start),
        };
        for name in group_names {
            let group = ReplicaGroup::new(name.clone(), level);
            for member in &group.members {
                let name = member.routing_name();
                let kill = state.injector.register(name.clone());
                state.handles.extend((state.start)(&name, kill)?);
            }
            state.groups.insert(name.clone(), group);
        }
        Ok(state)
    }

    /// Every live member of every group: by group name, each group's in the
    /// order they joined it.
    pub fn members(&self) -> Vec<MemberId> {
        self.groups
            .values()
            .flat_map(|group| group.members.iter().cloned())
            .collect()
    }

    /// Sends a task to every live member of a group.  Returns the members
    /// whose mailboxes turned out to be gone — a killed thread's queue
    /// disappears when it exits, so a failed send is an immediate failure
    /// report that complements the heartbeat detector.
    ///
    /// Message clones here are `Arc` bumps on view payloads, so replicating
    /// a task across a group costs reference counts, not pixel copies.
    pub fn group_send(
        &self,
        ctx: &ThreadContext<PctMessage>,
        group: &str,
        msg: &PctMessage,
    ) -> Result<Vec<MemberId>> {
        let group = self
            .groups
            .get(group)
            .ok_or_else(|| ResilienceError::UnknownGroup(group.to_string()))?;
        let mut dead = Vec::new();
        for member in &group.members {
            let name = member.routing_name();
            if let Err(ScpError::Disconnected(_)) = ctx.send(&name, msg.clone()) {
                dead.push(member.clone());
            }
        }
        Ok(dead)
    }

    /// Handles one confirmed member failure (reported by the detector or by
    /// a failed send): remove `failed` from its group, start the group's
    /// next incarnation through the start function, and re-issue to it the
    /// tasks its group still `owed`.  Returns the regeneration — `None`
    /// when `failed` had already left its group, and nothing was started.
    /// A start that fails — or that the owner refuses, for a group that is
    /// not to be regenerated — is rolled back (the group keeps its
    /// survivors, possibly none, and records no regeneration) and returned
    /// with its `scp` cause.
    pub fn handle_member_failure<'a>(
        &mut self,
        ctx: &ThreadContext<PctMessage>,
        failed: &MemberId,
        owed: impl IntoIterator<Item = &'a PctMessage>,
    ) -> Result<Option<RegenerationEvent>> {
        let Self {
            groups,
            injector,
            handles,
            member_panic,
            start,
        } = self;
        // Reap the thread-started members that have exited: joining releases
        // the stack (the mailbox's queue went with its receiver), so neither
        // accumulates per kill.  A panic is kept for `shutdown` to re-raise —
        // a crashed member is regenerated like a killed one, it must not take
        // the manager down mid-run.  Only `failed`, whose loss is confirmed,
        // loses its routing entry: another exited member not yet reported
        // must keep answering `Disconnected`, the one signal a group send and
        // the detector's probe count as a death.  A member thread falsely
        // declared failed is still running and stays listed and bound, so
        // `shutdown` still reaches it.
        let (exited, running): (Vec<_>, Vec<_>) =
            handles.drain(..).partition(ThreadHandle::is_finished);
        *handles = running;
        for handle in exited {
            if let Err(panic) = handle.try_join() {
                member_panic.get_or_insert(panic);
            }
        }
        let failed_name = failed.routing_name();
        if !handles.iter().any(|handle| handle.name == failed_name) {
            ctx.router().unbind(&failed_name);
        }
        let group = groups
            .get_mut(&failed.group)
            .ok_or_else(|| ResilienceError::UnknownGroup(failed.group.clone()))?;
        if !group.remove_member(failed) {
            return Ok(None);
        }
        let replacement = group.add_member();
        let name = replacement.routing_name();
        match start(&name, injector.register(name.clone())) {
            Ok(handle) => handles.extend(handle),
            Err(e) => {
                // Neither the group nor the injector may list a member that
                // never started.
                group.remove_member(&replacement);
                injector.unregister(&name);
                return Err(ResilienceError::Scp(e).into());
            }
        }
        for message in owed {
            let _ = ctx.send(&name, message.clone());
        }
        Ok(Some(RegenerationEvent {
            failed: failed.clone(),
            replacement,
        }))
    }

    /// Shuts down every member thread still running — not just current group
    /// membership.  A member falsely declared failed is removed from its
    /// group but its thread keeps running; addressing the shutdown by spawn
    /// handle reaches those orphans too, so the joins cannot hang on them.
    /// Members without a thread are their owner's to stop.
    ///
    /// # Panics
    /// Re-raises the first panic of a member thread, whether joined here or
    /// reaped earlier by [`ResilientManagerState::handle_member_failure`].
    pub fn shutdown(mut self, ctx: &ThreadContext<PctMessage>) {
        for handle in &self.handles {
            let _ = ctx.send(&handle.name, PctMessage::Shutdown);
        }
        // Killed members exit via their kill switches; joining is safe either
        // way.  A member's panic — now or reaped earlier — propagates here,
        // once every thread is joined.
        for handle in self.handles {
            if let Err(panic) = handle.try_join() {
                self.member_panic.get_or_insert(panic);
            }
        }
        if let Some(panic) = self.member_panic {
            std::panic::resume_unwind(panic);
        }
    }
}

/// The reactive loop of every killable worker — a replica-group member
/// here, a standard-lane worker in the service pool: service tasks, poll the
/// [`KillSwitch`] at every timeout boundary and before replying, heartbeat
/// the manager while idle and after every reply (the feed of its failure
/// detector), and stop silently when attacked.  No goodbye message is the
/// point: the detector must notice the silence, not be told.
pub fn member_loop(ctx: ThreadContext<PctMessage>, kill: KillSwitch) {
    loop {
        if kill.is_killed() {
            return;
        }
        match ctx.recv_timeout(Duration::from_millis(25)) {
            Ok(envelope) => match envelope.payload {
                PctMessage::Shutdown => return,
                msg => {
                    if let Some(reply) = handle_task(msg) {
                        if kill.is_killed() {
                            return;
                        }
                        if ctx.send(MANAGER, reply).is_err() {
                            return;
                        }
                        let _ = ctx.send(MANAGER, PctMessage::Heartbeat);
                    }
                }
            },
            Err(ScpError::Timeout) => {
                if ctx.send(MANAGER, PctMessage::Heartbeat).is_err() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scp::Runtime;
    use std::time::Instant;

    #[test]
    fn backoff_doubles_per_attempt_and_caps_at_32x() {
        let factors: Vec<u32> = (0..=7).map(backoff_factor).collect();
        assert_eq!(factors, [1, 2, 4, 8, 16, 32, 32, 32]);
    }

    /// Builds level-`level` groups named `names` on a fresh runtime, every
    /// member a [`member_loop`] thread.
    fn groups(
        names: &[&str],
        level: usize,
    ) -> (
        Runtime<PctMessage>,
        ThreadContext<PctMessage>,
        ResilientManagerState,
    ) {
        let runtime: Runtime<PctMessage> = Runtime::new();
        let threads = runtime.clone();
        let start = move |name: &str, kill| {
            let member = threads.spawn(name, move |ctx| member_loop(ctx, kill));
            member.map(Some)
        };
        let (ctx, state) = build(&runtime, names, level, start);
        (runtime, ctx, state)
    }

    fn build(
        runtime: &Runtime<PctMessage>,
        names: &[&str],
        level: usize,
        start: impl FnMut(&str, KillSwitch) -> scp::Result<Option<ThreadHandle<()>>> + Send + 'static,
    ) -> (ThreadContext<PctMessage>, ResilientManagerState) {
        let ctx = runtime.context(MANAGER).unwrap();
        let names: Vec<String> = names.iter().map(|name| name.to_string()).collect();
        let state =
            ResilientManagerState::build(&names, level, AttackInjector::new(), start).unwrap();
        (ctx, state)
    }

    fn wait_until_all_exited(state: &ResilientManagerState, names: &[&str]) {
        let start = Instant::now();
        while state
            .handles
            .iter()
            .any(|h| names.contains(&h.name.as_str()) && !h.is_finished())
        {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{names:?} still run"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The members of `group` a send finds dead.
    fn probe(
        state: &ResilientManagerState,
        ctx: &ThreadContext<PctMessage>,
        group: &str,
    ) -> Vec<MemberId> {
        state
            .group_send(ctx, group, &PctMessage::Heartbeat)
            .unwrap()
    }

    fn members_of(state: &ResilientManagerState, group: &str) -> Vec<MemberId> {
        state.groups[group].members.clone()
    }

    #[test]
    fn manager_state_builds_watches_and_shuts_down_cleanly() {
        let (_runtime, ctx, state) = groups(&["g0", "g1"], 2);
        let names: Vec<String> = state.members().iter().map(MemberId::routing_name).collect();
        assert_eq!(names, ["g0#0", "g0#1", "g1#0", "g1#1"]);
        assert_eq!(state.handles.len(), 4);
        // The scheduler's detector watches what `members` lists.
        let mut watch = resilience::FailureDetector::new(Default::default());
        state.members().into_iter().for_each(|m| watch.watch(m, 0));
        assert_eq!(watch.watched(), 4);
        assert!(matches!(
            state.group_send(&ctx, "ghost", &PctMessage::Heartbeat),
            Err(crate::PctError::Resilience(ResilienceError::UnknownGroup(
                _
            )))
        ));
        assert!(state.injector.attack_log().is_empty());
        state.shutdown(&ctx);
    }

    #[test]
    fn manager_state_regenerates_a_killed_member_on_probe() {
        let (_runtime, ctx, mut state) = groups(&["g0"], 2);
        // Kill one member and wait for its thread to exit (mailbox gone).
        assert!(state.injector.attack("g0#0"));
        wait_until_all_exited(&state, &["g0#0"]);
        // A send now reports the death; hand it to the failure handler.
        let dead = probe(&state, &ctx, "g0");
        assert_eq!(dead.len(), 1);
        let event = state.handle_member_failure(&ctx, &dead[0], []).unwrap();
        let event = event.expect("regenerated");
        assert_eq!(event.replacement, MemberId::new("g0", 2));
        assert_eq!(members_of(&state, "g0").len(), 2);
        // A second report of the same loss starts nothing.
        assert_eq!(
            state.handle_member_failure(&ctx, &dead[0], []).unwrap(),
            None
        );
        assert_eq!(state.injector.attack_log(), vec!["g0#0".to_string()]);
        assert_eq!(event.failed, dead[0]);
        state.shutdown(&ctx);
    }

    #[test]
    fn repeated_kills_do_not_accumulate_handles_or_mailboxes() {
        let (runtime, ctx, mut state) = groups(&["g0"], 2);
        let mut regenerations = 0;
        for round in 0..50 {
            let victim = members_of(&state, "g0")[0].clone();
            assert!(state.injector.attack(&victim.routing_name()));
            // The victim's mailbox goes with its thread; a send then reports it.
            let start = Instant::now();
            let dead = loop {
                let dead = probe(&state, &ctx, "g0");
                if !dead.is_empty() {
                    break dead;
                }
                assert!(start.elapsed() < Duration::from_secs(5), "round {round}");
                std::thread::sleep(Duration::from_millis(1));
            };
            assert_eq!(dead, vec![victim]);
            let event = state.handle_member_failure(&ctx, &dead[0], []).unwrap();
            regenerations += usize::from(event.is_some());
            let live = members_of(&state, "g0").len();
            assert_eq!(live, 2);
            // At most the member killed this round is still waiting to be
            // reaped (its thread may not have fully exited yet).
            assert!(state.handles.len() <= live + 1, "round {round}");
            assert!(runtime.router().bound_names().len() <= live + 2);
        }
        assert_eq!(regenerations, 50);
        state.shutdown(&ctx);
    }

    #[test]
    fn a_second_dead_member_is_still_detected_after_the_first_is_handled() {
        // Two single-member groups lose their member at the same time; only
        // g0's loss is reported.  Reaping g1's exited thread while handling
        // g0 must leave g1#0 answering `Disconnected` — to the detector's
        // probe and to a group send — or g1 silently runs below its level
        // for good.
        let (runtime, ctx, mut state) = groups(&["g0", "g1"], 1);
        assert!(state.injector.attack("g0#0"));
        assert!(state.injector.attack("g1#0"));
        wait_until_all_exited(&state, &["g0#0", "g1#0"]);
        let g0_dead = probe(&state, &ctx, "g0");
        assert_eq!(g0_dead.len(), 1);
        let g0_event = state.handle_member_failure(&ctx, &g0_dead[0], []).unwrap();
        // g1#0's thread was reaped with g0#0's, its loss not yet confirmed.
        assert_eq!(state.handles.len(), 1);
        assert!(!runtime.router().is_bound("g0#0"));
        assert!(runtime.router().is_bound("g1#0"));
        // Both detection paths still see it.
        assert!(matches!(
            ctx.send("g1#0", PctMessage::Heartbeat),
            Err(ScpError::Disconnected(_))
        ));
        let g1_dead = probe(&state, &ctx, "g1");
        assert_eq!(g1_dead, [MemberId::new("g1", 0)]);
        let g1_event = state.handle_member_failure(&ctx, &g1_dead[0], []).unwrap();
        assert!(!runtime.router().is_bound("g1#0"));
        for group in ["g0", "g1"] {
            let members = members_of(&state, group);
            assert_eq!(members.len(), 1);
            assert!(members[0].incarnation >= 1, "{group} was not regenerated");
        }
        assert!(g0_event.is_some() && g1_event.is_some());
        state.shutdown(&ctx);
    }

    #[test]
    fn a_falsely_failed_member_stays_bound_and_is_shut_down() {
        let (runtime, ctx, mut state) = groups(&["g0", "g1"], 2);
        let alive = members_of(&state, "g0")[0].clone();
        let event = state.handle_member_failure(&ctx, &alive, []).unwrap();
        // Still running, so still listed and reachable: `shutdown` would
        // hang on its join otherwise.
        assert!(runtime.router().is_bound(&alive.routing_name()));
        assert_eq!(state.handles.len(), 5);
        assert_eq!(event.map(|e| e.failed), Some(alive));
        state.shutdown(&ctx);
    }

    #[test]
    fn a_refused_start_rolls_the_group_back_and_keeps_its_cause() {
        // Members start as mailboxes the test holds; every replacement's
        // start is refused.
        let runtime: Runtime<PctMessage> = Runtime::new();
        let mailboxes = runtime.clone();
        let mut held = Vec::new();
        let start = move |name: &str, _kill| {
            if MemberId::parse(name).is_some_and(|m| m.incarnation >= 2) {
                return Err(ScpError::DuplicateName(name.to_string()));
            }
            held.push(mailboxes.context(name)?);
            Ok(None)
        };
        let (ctx, mut state) = build(&runtime, &["g0"], 2, start);
        let failed = MemberId::new("g0", 0);
        let error = state
            .handle_member_failure(&ctx, &failed, [])
            .expect_err("the start was refused");
        assert_eq!(members_of(&state, "g0"), [MemberId::new("g0", 1)]);
        // No kill switch is left for the member that never ran.
        assert_eq!(state.injector.targets(), ["g0#0", "g0#1"]);
        assert!(!state.injector.attack("g0#2"));
        assert!(
            error
                .to_string()
                .contains("thread name 'g0#2' already registered"),
            "{error}"
        );
        // The group's next try takes the next incarnation.
        assert!(state
            .handle_member_failure(&ctx, &failed, [])
            .unwrap()
            .is_none());
        let survivor = MemberId::new("g0", 1);
        let error = state
            .handle_member_failure(&ctx, &survivor, [])
            .unwrap_err();
        assert!(error.to_string().contains("'g0#3'"), "{error}");
        assert!(members_of(&state, "g0").is_empty());
        state.shutdown(&ctx);
    }

    #[test]
    fn a_panicked_member_is_regenerated_and_its_panic_surfaces_at_shutdown() {
        let (runtime, ctx, mut state) = groups(&["g0", "g1"], 2);
        // g0#0 crashes: its thread is retired and one under its name whose
        // body panics takes its place.
        assert!(state.injector.attack("g0#0"));
        wait_until_all_exited(&state, &["g0#0"]);
        runtime.router().unbind("g0#0");
        let crash = |_: ThreadContext<PctMessage>| panic!("member g0#0 crashed");
        state.handles.push(runtime.spawn("g0#0", crash).unwrap());
        wait_until_all_exited(&state, &["g0#0"]);
        let dead = probe(&state, &ctx, "g0");
        assert_eq!(dead.len(), 1);
        // Handling the crash regenerates the member and does not re-raise.
        let event = state.handle_member_failure(&ctx, &dead[0], []).unwrap();
        assert_eq!(members_of(&state, "g0").len(), 2);
        assert_eq!(event.map(|e| e.failed), Some(dead[0].clone()));
        assert_eq!(state.handles.len(), 4);
        // ... and a later, unrelated failure is handled as well.
        assert!(state.injector.attack("g1#1"));
        wait_until_all_exited(&state, &["g1#1"]);
        let dead = probe(&state, &ctx, "g1");
        state.handle_member_failure(&ctx, &dead[0], []).unwrap();
        // The crash is reported where it always was: at shutdown.
        let panic =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || state.shutdown(&ctx)))
                .expect_err("the member's panic was swallowed");
        let text = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert_eq!(text, "member g0#0 crashed");
    }
}
