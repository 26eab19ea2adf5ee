//! The intrusion-tolerant (resilient) distributed implementation, and the
//! one executor of the paper's protocol.
//!
//! [`ResilientPct`] runs one [`PaperPlan`] over replica groups: every
//! logical worker is a *replica group* of `level` member threads that all
//! receive every task and all return results.  The plan acts on the first
//! result per task id and calls the others stale, so replication is
//! transparent to the application by construction; level 1 is the plain
//! manager/worker run.  Members emit heartbeats; a failure detector at the
//! manager notices a member that has gone silent (because an attack killed
//! it), and the regeneration protocol immediately spawns a replacement
//! member — rebinding its routing name and re-issuing any tasks its group
//! still owes — restoring the replication level instead of merely degrading.
//! That restore-not-degrade behaviour is the paper's definition of
//! computational resiliency.
//!
//! The machinery that keeps groups alive (membership, kill switches,
//! failure detection, regeneration, member start and run accounting) is
//! one owned [`ResilientManagerState`], shared with the service layer's
//! worker pool, which owns one for the lifetime of the process.  Starting a
//! member is the owner's effect, handed to [`ResilientManagerState::build`]
//! once and used for every member it starts and every replacement it
//! regenerates: [`ResilientPct`] and the threaded pool start a
//! [`member_loop`] thread, a pool hosted on virtual time binds a mailbox its
//! host drives.  What only a run of the paper's protocol needs — its
//! in-flight table, the retransmit sweep and the staged [`AttackPlan`] —
//! stays with the executor.

use crate::config::{FusionOutput, PctConfig};
use crate::distributed::{handle_task, MANAGER};
use crate::messages::{PctMessage, TaskId};
use crate::plan::{PaperPlan, Step};
use crate::{PctError, Result};
use hsi::partition::{partition_for_workers, GranularityPolicy};
use hsi::HyperCube;
use resilience::attack::AttackInjector;
use resilience::group::ReplicaGroup;
use resilience::{
    DetectorConfig, FailureDetector, KillSwitch, MemberId, MembershipTable, PlacementPolicy,
    Regenerator,
};
use scp::{Runtime, ScpError, ThreadContext, ThreadHandle};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A staged attack against the running computation: after the manager has
/// received `after_results` task results, the listed member routing names are
/// killed.  This emulates an adversary taking out processes mid-run.
///
/// `drop_sends` additionally emulates *lost messages*: the next `count`
/// group-send deliveries to each listed member are silently discarded in
/// transit (the send "succeeds" but nothing arrives).  Dropping the sends to
/// every member of a group loses the task entirely without killing anyone —
/// the task-loss window that retransmit-on-timeout closes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttackPlan {
    /// Number of results to wait for before the attack fires.
    pub after_results: usize,
    /// Member routing names (e.g. `worker0#0`) to kill.
    pub victims: Vec<String>,
    /// `(member routing name, deliveries to drop)` send-fault injections.
    pub drop_sends: Vec<(String, usize)>,
}

impl AttackPlan {
    /// No attack.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kills one member of logical worker 0 early in the run.
    pub fn kill_first_worker_member() -> Self {
        Self {
            after_results: 1,
            victims: vec!["worker0#0".to_string()],
            drop_sends: Vec::new(),
        }
    }

    /// Drops the next delivery to each listed member without killing anyone:
    /// a group send made "mid-group" reaches nobody on the first attempt.
    pub fn drop_next_send_to(members: &[&str]) -> Self {
        Self {
            after_results: 0,
            victims: Vec::new(),
            drop_sends: members.iter().map(|m| (m.to_string(), 1)).collect(),
        }
    }
}

/// What happened during a resilient run, beyond the fused output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilientRunReport {
    /// Heartbeats the manager consumed.
    pub heartbeats: u64,
    /// Duplicate task results discarded by the manager.
    pub duplicates_ignored: u64,
    /// Members the attack plan killed.
    pub members_attacked: Vec<String>,
    /// Regenerations the protocol performed.
    pub regenerations: Vec<resilience::RegenerationEvent>,
    /// Tasks that had to be re-issued after a regeneration.
    pub tasks_reissued: u64,
    /// Whole-group retransmissions of tasks that timed out without a result
    /// (covers sends lost in transit to members that never acked).
    pub retransmits: u64,
    /// Sub-cube payload bytes deep-copied while building and routing task
    /// messages (clone-ledger delta over the run): 0 on the view-based
    /// message plane.
    pub bytes_cloned: u64,
}

/// Starts one member under its routing name with the kill switch its loop
/// must poll.  A thread start returns the thread's handle, which the state
/// reaps and joins; a member whose mailbox its owner drives returns `None`.
type StartMember = Box<dyn FnMut(&str, KillSwitch) -> scp::Result<Option<ThreadHandle<()>>> + Send>;

/// The folded executor-side state of a set of replica groups.
///
/// Owns everything needed to keep the groups alive: membership, the
/// kill-switch registry used to emulate attacks, the heartbeat failure
/// detector, the regeneration driver, the owner's member start, the handles
/// of every member thread not yet reaped, and the run accounting.
/// [`ResilientPct`] builds one per run; the service layer's worker pool owns
/// one for the lifetime of the process.
pub struct ResilientManagerState {
    /// Replica-group membership, shared with the regenerator.
    pub membership: MembershipTable,
    /// Kill-switch registry used to emulate attacks against members.
    pub injector: AttackInjector,
    /// Heartbeat failure detector over all live members.
    pub detector: FailureDetector,
    /// The regeneration protocol driver.
    pub regenerator: Regenerator,
    /// Handles of every thread-started member still running or not yet
    /// reaped (including regenerated replacements and members falsely
    /// declared failed); [`ResilientManagerState::handle_member_failure`]
    /// joins and removes the ones that have exited.
    pub handles: Vec<ThreadHandle<()>>,
    /// Run accounting (heartbeats, duplicates, re-issues).
    pub report: ResilientRunReport,
    /// How long an outstanding task may go unanswered before it is re-sent
    /// to every current member of its group (× [`backoff_factor`]).
    /// Retransmits are idempotent (workers recompute, the manager dedups by
    /// task id), so a conservative default only costs latency on genuinely
    /// lost sends.
    pub retransmit_after: Duration,
    /// Remaining send-fault injections ([`AttackPlan::drop_sends`]):
    /// deliveries to drop per routing name.  Empty but for a
    /// [`ResilientPct`] run under attack, which sets it: the drops act on
    /// single member deliveries, and [`ResilientManagerState::group_send`]
    /// is the one loop that makes them.
    send_drops: HashMap<String, usize>,
    /// The first panic of a member thread reaped mid-run, re-raised by
    /// [`ResilientManagerState::shutdown`].
    member_panic: Option<Box<dyn Any + Send>>,
    /// How a member is started: at build and for every replacement.
    start: StartMember,
}

/// The single retransmit-backoff policy of both managers — the resilient
/// pipeline's executor and the service scheduler: the wait doubles with
/// every attempt, capped at 32×, so a genuinely long task on a healthy group
/// costs at most a handful of idempotent duplicates instead of a re-send
/// storm, while a genuinely lost send is still recovered after one base
/// timeout.
///
/// The base is the policy's single parameter,
/// [`ResilientManagerState::retransmit_after`]: 500 ms, of wall time on
/// threads and of virtual time in the simulator.
pub fn backoff_factor(attempts: u32) -> u32 {
    1 << attempts.min(5)
}

impl ResilientManagerState {
    /// Attaches a telemetry handle to the resilience machinery: the
    /// failure detector records `member_failed` instants and the
    /// regenerator records `member_regenerated` instants, each with a
    /// matching counter.
    pub fn with_telemetry(mut self, telemetry: telemetry::Telemetry) -> Self {
        self.detector.set_telemetry(telemetry.clone());
        self.regenerator.set_telemetry(telemetry);
        self
    }

    /// Builds the state for one replica group per name in `group_names`,
    /// each with `level` members, starting every member with `start` (which
    /// also starts every later replacement) and watching it in a detector
    /// configured by `detector_config`.  Members are placed round-robin over
    /// virtual nodes `0..group_names.len()` (placement bookkeeping only).
    pub fn build(
        group_names: &[String],
        level: usize,
        detector_config: DetectorConfig,
        start: impl FnMut(&str, KillSwitch) -> scp::Result<Option<ThreadHandle<()>>> + Send + 'static,
    ) -> Result<Self> {
        let membership = MembershipTable::new();
        let nodes: Vec<usize> = (0..group_names.len()).collect();
        let regenerator = Regenerator::new(
            membership.clone(),
            PlacementPolicy::SpreadAcrossNodes,
            nodes,
        );
        let mut state = Self {
            membership,
            injector: AttackInjector::new(),
            detector: FailureDetector::new(detector_config),
            regenerator,
            handles: Vec::new(),
            report: ResilientRunReport::default(),
            retransmit_after: Duration::from_millis(500),
            send_drops: HashMap::new(),
            member_panic: None,
            start: Box::new(start),
        };
        for (w, name) in group_names.iter().enumerate() {
            let placements: Vec<usize> = (0..level)
                .map(|m| (w + m) % group_names.len().max(1))
                .collect();
            let group = ReplicaGroup::new(name.clone(), level, &placements)?;
            for member in &group.members {
                let name = member.routing_name();
                let kill = state.injector.register(name.clone());
                state.handles.extend((state.start)(&name, kill)?);
            }
            state.membership.insert(group);
        }
        for member in state.membership.all_members() {
            state.detector.watch(member, 0);
        }
        Ok(state)
    }

    /// Records a heartbeat-equivalent signal from the routing name `from` at
    /// `now_ms`, refreshing its detector lease if it names a group member.
    pub fn heartbeat_from(&mut self, from: &str, now_ms: u64) {
        if let Some(member) = MemberId::parse(from) {
            self.detector.heartbeat(&member, now_ms);
        }
    }

    /// Sends a task to every live member of a group.  Returns the members
    /// whose mailboxes turned out to be gone — a killed thread's queue
    /// disappears when it exits, so a failed send is an immediate failure
    /// report that complements the heartbeat detector.
    ///
    /// Message clones here are `Arc` bumps on view payloads, so replicating
    /// a task across a group costs reference counts, not pixel copies.  A
    /// pending send-fault injection ([`AttackPlan::drop_sends`]) consumes
    /// one delivery: the message is discarded in transit while the send
    /// appears to succeed.
    pub fn group_send(
        &mut self,
        ctx: &ThreadContext<PctMessage>,
        group: &str,
        msg: &PctMessage,
    ) -> Result<Vec<MemberId>> {
        let snapshot = self.membership.get(group)?;
        let mut dead = Vec::new();
        for member in &snapshot.members {
            let name = member.routing_name();
            if let Some(remaining) = self.send_drops.get_mut(&name) {
                if *remaining > 0 {
                    *remaining -= 1;
                    continue;
                }
            }
            if let Err(ScpError::Disconnected(_)) = ctx.send(&name, msg.clone()) {
                dead.push(member.clone());
            }
        }
        Ok(dead)
    }

    /// Attack assessment: sweeps the detector at `now_ms` and probes each
    /// silence-flagged member through its mailbox.  Heartbeat silence alone
    /// is not proof of death — a member deep in a long screening task goes
    /// silent too — so a probe that is *accepted* refreshes the member's
    /// lease, while a probe that reports `Disconnected` confirms the member
    /// is gone.  Returns the confirmed failures.
    pub fn sweep_and_probe(
        &mut self,
        ctx: &ThreadContext<PctMessage>,
        now_ms: u64,
    ) -> Vec<MemberId> {
        let mut failures = Vec::new();
        for suspect in self.detector.sweep(now_ms) {
            match ctx.send(&suspect.routing_name(), PctMessage::Heartbeat) {
                Err(ScpError::Disconnected(_)) => failures.push(suspect),
                _ => self.detector.heartbeat(&suspect, now_ms),
            }
        }
        failures
    }

    /// The earliest `now_ms` at which [`ResilientManagerState::sweep_and_probe`]
    /// has a suspect to probe ([`FailureDetector::next_deadline_ms`]); an
    /// event-driven owner sleeps until then instead of sweeping on a tick.
    pub fn next_sweep_ms(&self) -> Option<u64> {
        self.detector.next_deadline_ms()
    }

    /// Handles one member failure (reported by the detector or by a failed
    /// send): regenerate the member on another node through the start
    /// function, start watching the replacement, and re-issue to it the
    /// tasks its group still `owed`.  Returns whether a replacement was
    /// started — `false` when `failed` had already left its group, and
    /// nothing was re-issued.
    pub fn handle_member_failure<'a>(
        &mut self,
        ctx: &ThreadContext<PctMessage>,
        now_ms: u64,
        failed: &MemberId,
        owed: impl IntoIterator<Item = &'a PctMessage>,
    ) -> Result<bool> {
        let Self {
            injector,
            detector,
            regenerator,
            handles,
            report,
            member_panic,
            start,
            ..
        } = self;
        detector.unwatch(failed);
        // Reap the thread-started members that have exited: joining releases
        // the stack (the mailbox's queue went with its receiver), so neither
        // accumulates per kill.  A panic is kept for `shutdown` to re-raise —
        // a crashed member is regenerated like a killed one, it must not take
        // the manager down mid-run.  Only `failed`, whose loss is confirmed,
        // loses its routing entry: another exited member not yet reported
        // must keep answering `Disconnected`, the one signal `group_send`
        // and `sweep_and_probe` count as a death.  A member thread falsely
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
        let event = regenerator.handle_failure(failed, |replacement, _node| {
            let name = replacement.routing_name();
            let started = start(&name, injector.register(name.clone()));
            let refused = |_| resilience::ResilienceError::InvalidConfig("start failed".into());
            handles.extend(started.map_err(refused)?);
            Ok(())
        })?;
        let Some(event) = event else {
            return Ok(false);
        };
        detector.watch(event.replacement.clone(), now_ms);
        for message in owed {
            let _ = ctx.send(&event.replacement.routing_name(), message.clone());
            report.tasks_reissued += 1;
        }
        Ok(true)
    }

    /// Shuts down every member thread still running — not just current group
    /// membership.  A member falsely declared failed is removed from its
    /// group but its thread keeps running; addressing the shutdown by spawn
    /// handle reaches those orphans too, so the joins cannot hang on them.
    /// Members without a thread are their owner's to stop.  Folds the attack
    /// and regeneration logs into the report and returns it.
    ///
    /// # Panics
    /// Re-raises the first panic of a member thread, whether joined here or
    /// reaped earlier by [`ResilientManagerState::handle_member_failure`].
    pub fn shutdown(mut self, ctx: &ThreadContext<PctMessage>) -> ResilientRunReport {
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
        self.report.regenerations = self.regenerator.history().to_vec();
        self.report.members_attacked = self.injector.attack_log();
        self.report
    }
}

/// The resilient distributed fusion pipeline.
#[derive(Debug, Clone)]
pub struct ResilientPct {
    config: PctConfig,
    workers: usize,
    level: usize,
}

impl ResilientPct {
    /// Creates a resilient pipeline with `workers` logical workers replicated
    /// to `level` members each (the paper evaluates level 2; level 1 is the
    /// plain manager/worker run).
    pub fn new(config: PctConfig, workers: usize, level: usize) -> Self {
        Self {
            config,
            workers: workers.max(1),
            level: level.max(1),
        }
    }

    /// Runs the pipeline with no attack.
    pub fn run(&self, cube: &HyperCube) -> Result<FusionOutput> {
        self.run_with_attack(cube, AttackPlan::none())
            .map(|(out, _)| out)
    }

    /// Runs the pipeline while an [`AttackPlan`] kills members (and drops
    /// sends) mid-run.  The cube is copied once into shared storage at this
    /// ingestion boundary; every task payload is then a zero-copy
    /// [`hsi::CubeView`] of it, and the report's `bytes_cloned` measures
    /// (via the clone ledger) that no sub-cube payload was deep-copied.
    pub fn run_with_attack(
        &self,
        cube: &HyperCube,
        attack: AttackPlan,
    ) -> Result<(FusionOutput, ResilientRunReport)> {
        self.config.validate()?;
        let cube = Arc::new(cube.clone());
        let shards = partition_for_workers(
            cube.dims(),
            self.workers,
            GranularityPolicy::PerWorkerMultiple(2),
        )?;
        let plan = PaperPlan::new(Arc::clone(&cube), self.config, shards, self.workers);
        let runtime: Runtime<PctMessage> = Runtime::new();
        let ctx = runtime.context(MANAGER)?;
        let groups: Vec<String> = (0..self.workers).map(|w| format!("worker{w}")).collect();
        // 50 ms heartbeats, a member declared failed after 8 misses.
        let detector = DetectorConfig {
            heartbeat_period_ms: 50,
            miss_threshold: 8,
        };
        let start = thread_start(runtime.clone());
        let mut state = ResilientManagerState::build(&groups, self.level, detector, start)?;
        state.send_drops = attack.drop_sends.iter().cloned().collect();

        let ledger = hsi::CloneLedger::snapshot();
        let result = execute(&ctx, &mut state, plan, attack);
        state.report.bytes_cloned = ledger.delta();
        let report = state.shutdown(&ctx);
        result.map(|out| (out, report))
    }
}

/// The thread start: one [`member_loop`] thread per member on `runtime`.
fn thread_start(
    runtime: Runtime<PctMessage>,
) -> impl FnMut(&str, KillSwitch) -> scp::Result<Option<ThreadHandle<()>>> + Send + 'static {
    move |name, kill| {
        runtime
            .spawn(name, move |ctx| member_loop(ctx, kill))
            .map(Some)
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

/// A task sent to a group and not yet answered.
struct Outstanding {
    group: String,
    /// Kept for retransmission and re-issue (view payloads make cloning an
    /// `Arc` bump).
    message: PctMessage,
    /// When the task was last delivered.
    sent_at: Instant,
    /// Retransmissions so far (drives the backoff).
    attempts: u32,
}

/// The one executor of the paper's protocol: runs `plan` to completion over
/// the replica groups of `state`.
///
/// Free groups wait in a queue, first in the membership's (lexicographic)
/// order.  Each turn hands the plan's next tasks to free groups, feeds one
/// arrival to [`PaperPlan::accept`] (a heartbeat is stale there; a
/// result's group goes back on the queue unless it was stale too), fires
/// the staged attack once enough results are in, retransmits overdue tasks,
/// and regenerates every member confirmed lost, re-issuing what its group
/// owes.
fn execute(
    ctx: &ThreadContext<PctMessage>,
    state: &mut ResilientManagerState,
    mut plan: PaperPlan,
    attack: AttackPlan,
) -> Result<FusionOutput> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(300);
    let mut free: VecDeque<String> = state.membership.group_names().into();
    let mut outstanding: HashMap<TaskId, Outstanding> = HashMap::new();
    let mut next_id: TaskId = 0;
    let mut dead_members: Vec<MemberId> = Vec::new();
    let (mut victims, mut results) = (attack.victims, 0);
    loop {
        while let Some(group) = free.pop_front() {
            let Some(message) = plan.next_task(next_id) else {
                free.push_front(group);
                break;
            };
            dead_members.extend(state.group_send(ctx, &group, &message)?);
            let sent_at = Instant::now();
            let task = Outstanding {
                group,
                message,
                sent_at,
                attempts: 0,
            };
            outstanding.insert(next_id, task);
            next_id += 1;
        }
        if Instant::now() > deadline {
            return Err(PctError::WorkerLost(
                "resilient run exceeded its deadline waiting for results".to_string(),
            ));
        }
        let now_ms = start.elapsed().as_millis() as u64;
        match ctx.recv_timeout(Duration::from_millis(25)) {
            Ok(envelope) => {
                state.heartbeat_from(&envelope.from, now_ms);
                let task = envelope.payload.task();
                match plan
                    .accept(envelope.payload)
                    .map_err(PctError::InvalidConfig)?
                {
                    Step::Complete => return plan.into_output(),
                    Step::Stale if task.is_none() => state.report.heartbeats += 1,
                    Step::Stale => state.report.duplicates_ignored += 1,
                    Step::Continue | Step::Entered(_) => {
                        results += 1;
                        if let Some(done) = task.and_then(|task| outstanding.remove(&task)) {
                            free.push_back(done.group);
                        }
                    }
                }
            }
            Err(ScpError::Timeout) => {}
            Err(e) => return Err(e.into()),
        }

        if results >= attack.after_results {
            for victim in victims.drain(..) {
                state.injector.attack(&victim);
            }
        }

        // Retransmit tasks that have gone unanswered too long to every
        // current member of their group: a send lost in transit (or a
        // member that died holding the only copy) leaves survivors that
        // never received the task, which regeneration-only re-issue would
        // never repair.
        let base = state.retransmit_after;
        for task in outstanding.values_mut() {
            if task.sent_at.elapsed() > base * backoff_factor(task.attempts) {
                dead_members.extend(state.group_send(ctx, &task.group, &task.message)?);
                task.sent_at = Instant::now();
                task.attempts = task.attempts.saturating_add(1);
                state.report.retransmits += 1;
            }
        }

        // Attack assessment: anything whose heartbeat stopped (and whose
        // mailbox probe confirms the silence), or whose mailbox vanished
        // under a send, is regenerated immediately.
        let now_ms = start.elapsed().as_millis() as u64;
        let mut failures = state.sweep_and_probe(ctx, now_ms);
        failures.append(&mut dead_members);
        for failed in failures {
            let owed = outstanding
                .values()
                .filter(|task| task.group == failed.group);
            let owed = owed.map(|task| &task.message);
            if state.handle_member_failure(ctx, now_ms, &failed, owed)? {
                // The re-issue restarts the owed tasks' retransmit timers.
                for task in outstanding.values_mut() {
                    if task.group == failed.group {
                        task.sent_at = Instant::now();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi::{SceneConfig, SceneGenerator};

    fn small_scene() -> HyperCube {
        SceneGenerator::new(SceneConfig::small(13))
            .unwrap()
            .generate()
    }

    /// The non-replicated run with the identical decomposition — the
    /// resilient pipeline must produce exactly the same statistics and
    /// image, since replication and regeneration are transparent to the
    /// application.
    fn reference(cube: &HyperCube) -> FusionOutput {
        ResilientPct::new(PctConfig::paper(), 2, 1)
            .run(cube)
            .unwrap()
    }

    #[test]
    fn resilient_level_1_matches_sequential() {
        let cube = SceneGenerator::new(SceneConfig::small(5))
            .unwrap()
            .generate();
        let sequential = crate::SequentialPct::new(PctConfig::paper())
            .run(&cube)
            .unwrap();
        let runs = [1, 4].map(|workers| {
            ResilientPct::new(PctConfig::paper(), workers, 1)
                .run(&cube)
                .unwrap()
        });
        for res in &runs {
            assert_eq!(res.pixels, sequential.pixels);
            let diff = sequential.image.mean_abs_diff(&res.image).unwrap();
            assert!(diff < 10.0, "level-1 resilient output diverges: {diff}");
            assert!(res.variance_fraction(3) > 0.95);
        }
        let diff = runs[0].image.mean_abs_diff(&runs[1].image).unwrap();
        assert!(diff < 10.0, "worker-count sensitivity {diff}");
    }

    #[test]
    fn resilient_level_2_matches_sequential_and_dedups() {
        let cube = small_scene();
        let reference = reference(&cube);
        let (out, report) = ResilientPct::new(PctConfig::paper(), 2, 2)
            .run_with_attack(&cube, AttackPlan::none())
            .unwrap();
        let diff = reference.image.mean_abs_diff(&out.image).unwrap();
        assert!(diff < 0.5, "level-2 resilient output diverges: {diff}");
        // With two members per group, every task produces a duplicate result.
        assert!(
            report.duplicates_ignored > 0,
            "no duplicates observed: {report:?}"
        );
        assert!(report.regenerations.is_empty());
        // The view-based message plane never deep-copies a sub-cube payload.
        assert_eq!(report.bytes_cloned, 0, "payload bytes were cloned");
    }

    #[test]
    fn lost_group_send_is_retransmitted_to_surviving_members() {
        // Drop the first delivery to BOTH members of worker0's group: the
        // primed screening task is lost in transit while every member stays
        // alive and heartbeating.  No failure is ever detected, so the old
        // regeneration-only re-issue path would stall until the run
        // deadline; retransmit-on-timeout re-sends the task to the
        // survivors that never acked it.
        let cube = small_scene();
        let reference = reference(&cube);
        let (out, report) = ResilientPct::new(PctConfig::paper(), 2, 2)
            .run_with_attack(
                &cube,
                AttackPlan::drop_next_send_to(&["worker0#0", "worker0#1"]),
            )
            .unwrap();
        assert!(
            report.retransmits >= 1,
            "the dropped task was never retransmitted: {report:?}"
        );
        assert!(
            report.regenerations.is_empty(),
            "nobody died, nothing should regenerate: {report:?}"
        );
        // Retransmission is transparent: the fused image stays bit-for-bit
        // identical to the undisturbed distributed run with the same
        // decomposition.
        assert_eq!(out.image, reference.image, "post-loss output diverges");
    }

    /// A somewhat larger scene than `small_scene`, so a run outlives the
    /// attack that fires after its first result.
    fn attacked_scene() -> HyperCube {
        let mut config = SceneConfig::small(13);
        config.dims = hsi::CubeDims::new(64, 64, 24);
        SceneGenerator::new(config).unwrap().generate()
    }

    #[test]
    fn attack_on_one_member_is_survived_and_regenerated() {
        let cube = attacked_scene();
        let reference = reference(&cube);
        let (out, report) = ResilientPct::new(PctConfig::paper(), 2, 2)
            .run_with_attack(&cube, AttackPlan::kill_first_worker_member())
            .unwrap();
        // The fused image is still correct: identical to the undisturbed run.
        let diff = reference.image.mean_abs_diff(&out.image).unwrap();
        assert!(diff < 0.5, "post-attack output diverges: {diff}");
        assert_eq!(report.members_attacked, vec!["worker0#0".to_string()]);
        // The surviving replica answers every task, so the run may end
        // inside the detection window: the one victim is regenerated at most
        // once, and nothing else is.  That a loss *is* repaired is forced —
        // not raced — in `attack_on_a_whole_group_forces_regeneration`.
        assert!(report.regenerations.len() <= 1, "{report:?}");
    }

    #[test]
    fn attack_on_a_whole_group_forces_regeneration() {
        // With both members of worker0 dead nobody answers its tasks, and
        // every phase primes every group: the run cannot complete until a
        // member of worker0 is regenerated.
        let cube = attacked_scene();
        let reference = reference(&cube);
        let attack = AttackPlan {
            after_results: 1,
            victims: vec!["worker0#0".to_string(), "worker0#1".to_string()],
            drop_sends: Vec::new(),
        };
        let (out, report) = ResilientPct::new(PctConfig::paper(), 2, 2)
            .run_with_attack(&cube, attack)
            .unwrap();
        // Regeneration is transparent: bit-for-bit the undisturbed run.
        assert_eq!(out.image, reference.image, "post-attack output diverges");
        assert_eq!(report.members_attacked, ["worker0#0", "worker0#1"]);
        assert!(
            !report.regenerations.is_empty(),
            "the killed group was never regenerated: {report:?}"
        );
        let regen = &report.regenerations[0];
        assert_eq!(regen.failed.group, "worker0");
        assert!(regen.replacement.incarnation >= 2);
    }

    #[test]
    fn backoff_doubles_per_attempt_and_caps_at_32x() {
        let factors: Vec<u32> = (0..=7).map(backoff_factor).collect();
        assert_eq!(factors, [1, 2, 4, 8, 16, 32, 32, 32]);
    }

    #[test]
    fn attack_plan_constructors() {
        assert_eq!(AttackPlan::none().victims.len(), 0);
        let plan = AttackPlan::kill_first_worker_member();
        assert_eq!(plan.victims, vec!["worker0#0".to_string()]);
        assert_eq!(plan.after_results, 1);
    }

    /// Builds level-`level` groups named `names` on a fresh runtime.
    fn groups(
        names: &[&str],
        level: usize,
    ) -> (
        Runtime<PctMessage>,
        ThreadContext<PctMessage>,
        ResilientManagerState,
    ) {
        let runtime: Runtime<PctMessage> = Runtime::new();
        let ctx = runtime.context(MANAGER).unwrap();
        let names: Vec<String> = names.iter().map(|name| name.to_string()).collect();
        let detector = DetectorConfig {
            heartbeat_period_ms: 5,
            miss_threshold: 2,
        };
        let start = thread_start(runtime.clone());
        let state = ResilientManagerState::build(&names, level, detector, start).unwrap();
        (runtime, ctx, state)
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
        state: &mut ResilientManagerState,
        ctx: &ThreadContext<PctMessage>,
        group: &str,
    ) -> Vec<MemberId> {
        state
            .group_send(ctx, group, &PctMessage::Heartbeat)
            .unwrap()
    }

    #[test]
    fn manager_state_builds_watches_and_shuts_down_cleanly() {
        let (_runtime, ctx, state) = groups(&["g0", "g1"], 2);
        assert_eq!(state.membership.all_members().len(), 4);
        assert_eq!(state.detector.watched(), 4);
        assert_eq!(state.handles.len(), 4);
        let report = state.shutdown(&ctx);
        assert!(report.regenerations.is_empty());
        assert!(report.members_attacked.is_empty());
    }

    #[test]
    fn manager_state_regenerates_a_killed_member_on_probe() {
        let (_runtime, ctx, mut state) = groups(&["g0"], 2);
        // Kill one member and wait for its thread to exit (mailbox gone).
        assert!(state.injector.attack("g0#0"));
        wait_until_all_exited(&state, &["g0#0"]);
        // A send now reports the death; hand it to the failure handler.
        let dead = probe(&mut state, &ctx, "g0");
        assert_eq!(dead.len(), 1);
        state.handle_member_failure(&ctx, 0, &dead[0], []).unwrap();
        assert_eq!(state.regenerator.history().len(), 1);
        assert_eq!(state.membership.get("g0").unwrap().members.len(), 2);
        let report = state.shutdown(&ctx);
        assert_eq!(report.members_attacked, vec!["g0#0".to_string()]);
        assert_eq!(report.regenerations.len(), 1);
    }

    #[test]
    fn repeated_kills_do_not_accumulate_handles_or_mailboxes() {
        let (runtime, ctx, mut state) = groups(&["g0"], 2);
        for round in 0..50 {
            let victim = state.membership.get("g0").unwrap().members[0].clone();
            assert!(state.injector.attack(&victim.routing_name()));
            // The victim's mailbox goes with its thread; a send then reports it.
            let start = Instant::now();
            let dead = loop {
                let dead = probe(&mut state, &ctx, "g0");
                if !dead.is_empty() {
                    break dead;
                }
                assert!(start.elapsed() < Duration::from_secs(5), "round {round}");
                std::thread::sleep(Duration::from_millis(1));
            };
            assert_eq!(dead, vec![victim]);
            state.handle_member_failure(&ctx, 0, &dead[0], []).unwrap();
            let live = state.membership.get("g0").unwrap().members.len();
            assert_eq!(live, 2);
            // At most the member killed this round is still waiting to be
            // reaped (its thread may not have fully exited yet).
            assert!(state.handles.len() <= live + 1, "round {round}");
            assert!(runtime.router().bound_names().len() <= live + 2);
        }
        let report = state.shutdown(&ctx);
        assert_eq!(report.regenerations.len(), 50);
    }

    #[test]
    fn a_second_dead_member_is_still_detected_after_the_first_is_handled() {
        // Two single-member groups lose their member at the same time; only
        // g0's loss is reported.  Reaping g1's exited thread while handling
        // g0 must leave g1#0 answering `Disconnected` — to the probe and to
        // a group send — or g1 silently runs below its level for good.
        let (runtime, ctx, mut state) = groups(&["g0", "g1"], 1);
        assert!(state.injector.attack("g0#0"));
        assert!(state.injector.attack("g1#0"));
        wait_until_all_exited(&state, &["g0#0", "g1#0"]);
        let g0_dead = probe(&mut state, &ctx, "g0");
        assert_eq!(g0_dead.len(), 1);
        state
            .handle_member_failure(&ctx, 0, &g0_dead[0], [])
            .unwrap();
        // g1#0's thread was reaped with g0#0's, its loss not yet confirmed.
        assert_eq!(state.handles.len(), 1);
        assert!(!runtime.router().is_bound("g0#0"));
        assert!(runtime.router().is_bound("g1#0"));
        // Both detection paths still see it.
        let suspects = state.sweep_and_probe(&ctx, 10_000);
        assert_eq!(suspects.len(), 1, "{suspects:?}");
        assert_eq!(suspects[0].routing_name(), "g1#0");
        let g1_dead = probe(&mut state, &ctx, "g1");
        assert_eq!(g1_dead, suspects);
        state
            .handle_member_failure(&ctx, 10_000, &g1_dead[0], [])
            .unwrap();
        assert!(!runtime.router().is_bound("g1#0"));
        for group in ["g0", "g1"] {
            let members = state.membership.get(group).unwrap().members;
            assert_eq!(members.len(), 1);
            assert!(members[0].incarnation >= 1, "{group} was not regenerated");
        }
        let report = state.shutdown(&ctx);
        assert_eq!(report.regenerations.len(), 2);
    }

    #[test]
    fn a_falsely_failed_member_stays_bound_and_is_shut_down() {
        let (runtime, ctx, mut state) = groups(&["g0", "g1"], 2);
        let alive = state.membership.get("g0").unwrap().members[0].clone();
        state.handle_member_failure(&ctx, 0, &alive, []).unwrap();
        // Still running, so still listed and reachable: `shutdown` would
        // hang on its join otherwise.
        assert!(runtime.router().is_bound(&alive.routing_name()));
        assert_eq!(state.handles.len(), 5);
        let report = state.shutdown(&ctx);
        assert_eq!(report.regenerations.len(), 1);
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
        let dead = probe(&mut state, &ctx, "g0");
        assert_eq!(dead.len(), 1);
        // Handling the crash regenerates the member and does not re-raise.
        state.handle_member_failure(&ctx, 0, &dead[0], []).unwrap();
        assert_eq!(state.membership.get("g0").unwrap().members.len(), 2);
        assert_eq!(state.regenerator.history().len(), 1);
        assert_eq!(state.handles.len(), 4);
        // ... and a later, unrelated failure is handled as well.
        assert!(state.injector.attack("g1#1"));
        wait_until_all_exited(&state, &["g1#1"]);
        let dead = probe(&mut state, &ctx, "g1");
        state.handle_member_failure(&ctx, 0, &dead[0], []).unwrap();
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
