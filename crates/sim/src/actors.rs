//! The host and member actors: the service's own scheduler on the simulated
//! cluster, and the pool members it schedules onto.
//!
//! The host is node 0.  It holds a hosted [`FusionService`] and its
//! [`HostedScheduler`], owns every member's mailbox, and keeps no table of
//! tasks, no detector and no timer of the protocol — those are the
//! scheduler's.  It performs effects: it submits jobs at their arrival
//! instants and plays their clients off the event stream; turns the
//! scheduler after every delivery and timer and arms one timer at the
//! deadline the turn returns; carries what a mailbox holds to the member's
//! node, costed at [`wire::frame_len`], and posts the member's replies and
//! heartbeats under its routing name; and when a kill switch flips or a
//! machine is scheduled to crash, kills the node and drops the mailbox, so
//! the next send or probe reads `Disconnected` as for a dead thread.  A
//! replacement the resilient lane starts is bound to a spare node.
//!
//! Members execute tasks with [`pct::distributed::handle_task`] on real
//! pixels while the virtual clock is charged by [`netsim::CostModel`].
//! Every table here and in the scheduler is ordered: no iteration depends
//! on a hash function, one leg of the determinism contract (the others are
//! the integer-nanos virtual clock and the `(SimTime, sequence)` tie-break).

use crate::scenario::{Boundary, Client, Scenario};
use crate::trace::TraceLog;
use netsim::{Actor, ActorContext, ActorId, CostModel, Duration, NodeId, SimTime};
use pct::distributed::handle_task;
use pct::messages::PctMessage;
use resilience::KillSwitch;
use service::{
    CubeSource, EventSubscriber, FusionService, HostedScheduler, JobHandle, JobId, JobOutcome,
    JobSpec, JobStatus, Protocol, ServiceError, ServiceEvent, ServiceReport, TenantId,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use telemetry::Telemetry;
use wire::WireMessage;

/// A member's heartbeat timer tag.
const HEARTBEAT_TIMER: u64 = 0;
/// Host timer tags: arrivals (the job's index), machine crashes, then one
/// tag each.
const CRASH_TIMER: u64 = 1 << 20;
const ATTACK_TIMER: u64 = 2 << 20;
const SHUTDOWN_TIMER: u64 = (2 << 20) + 1;
const HORIZON_TIMER: u64 = (2 << 20) + 2;
/// Turn timers carry a generation above this base; only the newest counts.
const TURN_TIMER: u64 = 3 << 20;

/// A member mailbox, held as the closure that takes its next message: its
/// type belongs to the message-passing crate, which `sim` does not depend
/// on.  Dropping it closes the mailbox.
pub(crate) type Mailbox = Box<dyn FnMut() -> Option<PctMessage>>;

/// Posts into the manager mailbox under a routing name.
pub(crate) type Post = Rc<dyn Fn(&str, PctMessage)>;

/// A member's mailbox handed to the host.
pub(crate) struct Joined {
    /// The member's routing name.
    pub name: String,
    /// The next message the scheduler queued for the member.
    pub next: Mailbox,
    /// Posts into the manager mailbox under a routing name.
    pub post: Post,
    /// The kill switch registered for the member.
    pub kill: KillSwitch,
}

/// Sends `msg` costed at the exact size of its frame on the real wire
/// ([`wire::frame_len`]: read off the message, nothing encoded or copied).
fn send_framed(ctx: &mut ActorContext<PctMessage>, to: ActorId, msg: PctMessage) {
    let framed = WireMessage::Pct(msg);
    let bytes = wire::frame_len(&framed) as u64;
    let WireMessage::Pct(msg) = framed else {
        unreachable!("wrapped three lines up");
    };
    ctx.send(to, msg, bytes);
}

/// Virtual CPU cost of executing a task: the paper's calibration with a
/// 5 ms per-task overhead instead of its 150 ms, so a tiny cube's job takes
/// tens of virtual milliseconds against detection windows of 10–400 ms.
fn compute_cost(msg: &PctMessage) -> Duration {
    let model = CostModel {
        per_task_overhead_secs: 0.005,
        ..CostModel::paper()
    };
    match msg {
        PctMessage::ScreenTask { view, .. } | PctMessage::ScreenSeededTask { view, .. } => {
            model.screening_work(view.pixels(), view.bands()) + model.per_task_overhead()
        }
        PctMessage::DeriveTask { unique, .. } => {
            let bands = unique.first().map_or(0, |v| v.len());
            model.mean_work(unique.len(), bands)
                + model.covariance_work(unique.len(), bands)
                + model.eigen_work(bands)
                + model.per_task_overhead()
        }
        PctMessage::CovarianceTask { mean, pixels, .. } => {
            model.covariance_work(pixels.len(), mean.len()) + model.per_task_overhead()
        }
        PctMessage::TransformTask { view, .. } => {
            model.transform_work(view.pixels(), view.bands())
                + model.colormap_work(view.pixels())
                + model.per_task_overhead()
        }
        _ => Duration::ZERO,
    }
}

// ---------------------------------------------------------------- members

/// A pool member: heartbeats the host on a virtual timer and executes every
/// task it receives with the real `handle_task`, charging the virtual CPU
/// before replying.  Members at start beat out of phase with each other, as
/// threads do; a spare stays silent until the first message for the
/// replacement bound to it arrives.
pub(crate) struct MemberActor {
    host: ActorId,
    heartbeat: Duration,
    /// When the first heartbeat is due; `None` for a spare.
    first_beat: Option<Duration>,
    pending: BTreeMap<u64, PctMessage>,
    next_tag: u64,
}

impl MemberActor {
    pub fn new(host: ActorId, heartbeat: Duration, first_beat: Option<Duration>) -> Self {
        Self {
            host,
            heartbeat,
            first_beat,
            pending: BTreeMap::new(),
            next_tag: 1,
        }
    }
}

impl Actor<PctMessage> for MemberActor {
    fn on_start(&mut self, ctx: &mut ActorContext<PctMessage>) {
        if let Some(first) = self.first_beat {
            ctx.set_timer(HEARTBEAT_TIMER, first);
        }
    }

    fn on_timer(&mut self, ctx: &mut ActorContext<PctMessage>, _tag: u64) {
        send_framed(ctx, self.host, PctMessage::Heartbeat);
        ctx.set_timer(HEARTBEAT_TIMER, self.heartbeat);
    }

    fn on_message(&mut self, ctx: &mut ActorContext<PctMessage>, _from: ActorId, msg: PctMessage) {
        if self.first_beat.is_none() {
            self.first_beat = Some(self.heartbeat);
            ctx.set_timer(HEARTBEAT_TIMER, self.heartbeat);
        }
        if msg.task().is_none() {
            return;
        }
        let work = compute_cost(&msg);
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, msg);
        ctx.compute(tag, work);
    }

    fn on_compute_done(&mut self, ctx: &mut ActorContext<PctMessage>, tag: u64) {
        if let Some(result) = self.pending.remove(&tag).and_then(handle_task) {
            send_framed(ctx, self.host, result);
        }
    }
}

// ------------------------------------------------------------------- host

/// What the host saw of one job, for the harness to judge.
#[derive(Debug, Default)]
pub(crate) struct JobFacts {
    /// The id of the accepted submission; `None` if it was refused.
    pub id: Option<JobId>,
    /// The refusal, when `try_submit` bounced.
    pub refused: Option<ServiceError>,
    pub submitted_at: Option<SimTime>,
    pub admitted_at: Option<SimTime>,
    /// Every `Terminal` event of the job, with its instant.
    pub terminals: Vec<(SimTime, JobStatus)>,
    /// The outcome a waiting client took.
    pub outcome: Option<JobOutcome>,
    /// A cancel or drop landed while the job was live.
    pub cancelled: bool,
    /// The client took its outcome after admission had closed, through a
    /// handle that outlived the service.
    pub taken_after_shutdown: bool,
}

/// Everything the host records for the harness.
#[derive(Default)]
pub(crate) struct HostOutput {
    pub jobs: Vec<JobFacts>,
    /// The admission queue's transitions in order: `(popped, tenant)`.
    pub queue: Vec<(bool, u64)>,
    /// Members whose node the host killed.
    pub killed: BTreeSet<String>,
    /// Replica members attacked while live.
    pub attacked: BTreeSet<String>,
    /// Regenerated members.
    pub regenerated: BTreeSet<String>,
    /// Things that must not happen, seen as they happened.
    pub anomalies: Vec<String>,
    /// Messages other than `Shutdown` left in a mailbox after finish.
    pub leftovers: usize,
    /// Every service event, stamped with virtual nanoseconds.
    pub log: Vec<String>,
    /// Every service event folded with [`ServiceReport::record`].
    pub fold: ServiceReport,
    pub report: Option<ServiceReport>,
    pub finished_at: Option<SimTime>,
}

/// A pool member as the host holds it.
struct Member {
    actor: ActorId,
    node: NodeId,
    /// `None` once dead: dropped with the node.
    next: Option<Mailbox>,
    /// Kept after death, so a reply already in flight is still posted.
    post: Post,
    kill: KillSwitch,
}

/// One job, its client's handle, and what was seen of it.
struct Job {
    cube: Arc<hsi::HyperCube>,
    handle: Option<JobHandle>,
    acted: bool,
    facts: JobFacts,
}

/// Everything the host needs at construction besides the service.
pub(crate) struct HostParams {
    pub scenario: Scenario,
    /// Each job's cube, in job order.
    pub cubes: Vec<Arc<hsi::HyperCube>>,
    pub events: EventSubscriber,
    /// Yields each member mailbox the pool hands over: the members at start,
    /// then every replacement.
    pub joined: Box<dyn FnMut() -> Option<Joined>>,
    pub telemetry: Telemetry,
    /// The instant virtual time zero stands for on the scheduler's clock.
    pub epoch: Instant,
    /// Actor and node of every member at start, by routing name.
    pub initial: BTreeMap<String, (ActorId, NodeId)>,
    /// Actor and node of every spare, in binding order.
    pub spares: VecDeque<(ActorId, NodeId)>,
    pub trace: TraceLog,
    /// Filled when the run ends.
    pub output: Rc<RefCell<HostOutput>>,
}

/// Node 0: the hosted service, its clients, and the members' mailboxes.
pub(crate) struct HostActor {
    p: HostParams,
    /// Dropped at shutdown, which closes admission.
    service: Option<FusionService>,
    /// Taken by `finish`.
    driver: Option<HostedScheduler>,
    jobs: Vec<Job>,
    by_id: BTreeMap<JobId, usize>,
    members: BTreeMap<String, Member>,
    /// The routing name bound to each member actor.
    names: BTreeMap<ActorId, String>,
    out: HostOutput,
    arrivals_left: usize,
    /// The instant of the armed turn timer, and its generation.
    armed: Option<SimTime>,
    turn_generation: u64,
    shut: bool,
}

impl HostActor {
    pub fn new(service: FusionService, driver: HostedScheduler, mut p: HostParams) -> Self {
        let jobs: Vec<Job> = std::mem::take(&mut p.cubes)
            .into_iter()
            .map(|cube| Job {
                cube,
                handle: None,
                acted: false,
                facts: JobFacts::default(),
            })
            .collect();
        Self {
            arrivals_left: jobs.len(),
            p,
            service: Some(service),
            driver: Some(driver),
            jobs,
            by_id: BTreeMap::new(),
            members: BTreeMap::new(),
            names: BTreeMap::new(),
            out: HostOutput::default(),
            armed: None,
            turn_generation: 0,
            shut: false,
        }
    }

    fn anomaly(&mut self, now: SimTime, what: String) {
        self.p.trace.push(now, format!("ANOMALY: {what}"));
        self.out.anomalies.push(what);
    }

    /// Ends the run: hands what the host saw to the harness and halts.
    fn stop(&mut self, ctx: &mut ActorContext<PctMessage>) {
        self.out.jobs = self
            .jobs
            .iter_mut()
            .map(|j| std::mem::take(&mut j.facts))
            .collect();
        *self.p.output.borrow_mut() = std::mem::take(&mut self.out);
        self.driver = None;
        ctx.halt();
    }

    /// Turns the scheduler at `ctx.now()` and performs what the turn asks
    /// for, turning again at the same instant while a client acted or
    /// admission closed, until the run settles on its next deadline — or
    /// has drained after shutdown, and finishes.
    fn pump(&mut self, ctx: &mut ActorContext<PctMessage>) {
        let now = ctx.now();
        loop {
            let Some(driver) = self.driver.as_mut() else {
                return;
            };
            let at = self.p.epoch + std::time::Duration::from_nanos(now.as_nanos());
            let deadline = driver.turn(at, None);
            self.bind(ctx);
            self.reap(ctx);
            let acted = self.observe();
            self.ship(ctx);
            if acted {
                continue;
            }
            if self.may_shut_down(now) {
                self.shut_down(now);
                continue;
            }
            if self.shut && self.driver.as_ref().is_some_and(HostedScheduler::idle) {
                return self.finish(ctx);
            }
            return self.arm(ctx, deadline);
        }
    }

    /// Binds every mailbox the pool handed over since the last look: a
    /// member at start to its own node, a replacement to the next spare.
    fn bind(&mut self, ctx: &mut ActorContext<PctMessage>) {
        while let Some(joined) = (self.p.joined)() {
            let name = joined.name;
            let initial = self.p.initial.remove(&name);
            let Some((actor, node)) = initial.or_else(|| self.p.spares.pop_front()) else {
                self.anomaly(ctx.now(), format!("no spare node for {name}"));
                continue;
            };
            self.names.insert(actor, name.clone());
            let member = Member {
                actor,
                node,
                next: Some(joined.next),
                post: joined.post,
                kill: joined.kill,
            };
            self.members.insert(name.clone(), member);
            if initial.is_none() {
                let line = format!("bind {name} to spare node {}", node.0);
                self.p.trace.push(ctx.now(), line);
                if std::mem::take(&mut self.p.scenario.kill_during_regeneration) {
                    if let Some(service) = &self.service {
                        service.inject_attack(&name);
                    }
                }
            }
        }
    }

    /// Kills the node and drops the mailbox of every live member whose kill
    /// switch has flipped.
    fn reap(&mut self, ctx: &mut ActorContext<PctMessage>) {
        let flipped: Vec<String> = self
            .members
            .iter()
            .filter(|(_, m)| m.next.is_some() && m.kill.is_killed())
            .map(|(name, _)| name.clone())
            .collect();
        for name in flipped {
            if Scenario::is_replica(&name) {
                self.out.attacked.insert(name.clone());
            }
            self.kill(ctx, &name, "kill switch");
        }
    }

    fn kill(&mut self, ctx: &mut ActorContext<PctMessage>, name: &str, why: &str) {
        let Some(member) = self.members.get_mut(name) else {
            return;
        };
        if member.next.take().is_none() {
            return;
        }
        ctx.kill_node(member.node);
        self.out.killed.insert(name.to_string());
        self.p.trace.push(ctx.now(), format!("kill {name} ({why})"));
    }

    /// Carries every message the scheduler queued for a live member to the
    /// member's node.
    fn ship(&mut self, ctx: &mut ActorContext<PctMessage>) {
        for (name, member) in &mut self.members {
            let Some(next) = member.next.as_mut() else {
                continue;
            };
            while let Some(msg) = next() {
                if let Some(task) = msg.task() {
                    let line = format!("host -> {name} {} task {task}", msg.kind());
                    self.p.trace.push(ctx.now(), line);
                }
                send_framed(ctx, member.actor, msg);
            }
        }
    }

    /// Arms the one turn timer at `deadline`, unless it already is.
    fn arm(&mut self, ctx: &mut ActorContext<PctMessage>, deadline: Option<Instant>) {
        let Some(deadline) = deadline else {
            return;
        };
        let nanos = deadline.saturating_duration_since(self.p.epoch).as_nanos() as u64;
        let at = SimTime::from_nanos(nanos);
        if self.armed == Some(at) {
            return;
        }
        if at <= ctx.now() {
            self.anomaly(
                ctx.now(),
                format!("a turn answered {nanos} ns, not after now"),
            );
            return self.stop(ctx);
        }
        self.turn_generation += 1;
        self.armed = Some(at);
        ctx.set_timer(TURN_TIMER + self.turn_generation, at.since(ctx.now()));
    }

    /// Submits job `i` as its arrival timer fires.
    fn submit(&mut self, now: SimTime, i: usize) {
        self.arrivals_left -= 1;
        let Some(service) = &self.service else {
            return;
        };
        let plan = &self.p.scenario.jobs[i];
        let job = &mut self.jobs[i];
        let mut spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&job.cube)))
            .config(self.p.scenario.config)
            .pinned(plan.route)
            .protocol(plan.protocol)
            .tenant(TenantId(plan.tenant))
            .priority(plan.priority)
            .shards(plan.shards);
        if let Some(timeout) = plan.timeout {
            spec = spec.timeout(std::time::Duration::from_nanos(timeout.as_nanos()));
        }
        let handle = match service.try_submit(spec.build().expect("scenario jobs are valid")) {
            Ok(handle) => handle,
            Err(refusal) => {
                self.p
                    .trace
                    .push(now, format!("job {i} refused: {refusal}"));
                job.facts.refused = Some(refusal);
                return;
            }
        };
        let id = handle.id();
        self.p.trace.push(now, format!("job {i} submitted as {id}"));
        job.facts.id = Some(id);
        job.facts.submitted_at = Some(now);
        self.out.queue.push((false, plan.tenant));
        self.by_id.insert(id, i);
        match plan.client {
            Client::Detach => {
                handle.detach();
            }
            Client::Cancel(Boundary::Queued) | Client::Drop(Boundary::Queued) => {
                job.handle = Some(handle);
                self.act(now, i);
            }
            _ => job.handle = Some(handle),
        }
    }

    /// A cancelling client acts: cancels through its handle, or drops it
    /// (cancel-on-drop).  Records whether the cancel landed on a live job.
    fn act(&mut self, now: SimTime, i: usize) {
        let job = &mut self.jobs[i];
        let Some(handle) = job.handle.take().filter(|_| !job.acted) else {
            return;
        };
        job.acted = true;
        let how = if let Client::Cancel(_) = self.p.scenario.jobs[i].client {
            job.facts.cancelled = handle.cancel();
            job.handle = Some(handle);
            "cancels"
        } else {
            job.facts.cancelled = !handle.is_terminal();
            drop(handle);
            "drops"
        };
        let line = format!("client of job {i} {how} its handle");
        self.p.trace.push(now, line);
    }

    /// Reads every new service event: logs it, plays the clients it cues,
    /// and records what the harness judges.  Returns whether a client
    /// acted, which the scheduler must see at this same instant.
    fn observe(&mut self) -> bool {
        let mut acted = false;
        while let Some(stamped) = self.p.events.try_next_stamped() {
            let at = SimTime::from_nanos(stamped.at_nanos.unwrap_or_default());
            let event = stamped.event;
            self.out
                .log
                .push(format!("{:>15} {event:?}", at.as_nanos()));
            self.out.fold.record(&event);
            let job = match &event {
                ServiceEvent::Admitted { job, .. }
                | ServiceEvent::Dispatched { job, .. }
                | ServiceEvent::Terminal { job, .. } => *job,
                // Only a dead mailbox confirms a loss: a retired member
                // must have been killed.
                ServiceEvent::WorkerLost { worker: retired }
                | ServiceEvent::MemberRegenerated {
                    failed: retired, ..
                } => {
                    if !self.out.killed.contains(retired) {
                        let what = format!("{retired} was retired but never killed");
                        self.out.anomalies.push(what);
                    }
                    if matches!(event, ServiceEvent::MemberRegenerated { .. }) {
                        self.out.regenerated.insert(retired.clone());
                    }
                    continue;
                }
                _ => continue,
            };
            let Some(&i) = self.by_id.get(&job) else {
                self.out
                    .anomalies
                    .push(format!("an event of job {job}, never accepted"));
                continue;
            };
            let plan = &self.p.scenario.jobs[i];
            let (client, protocol) = (plan.client, plan.protocol);
            let job = &mut self.jobs[i];
            match event {
                ServiceEvent::Admitted { tenant, .. } => {
                    self.out.queue.push((true, tenant.0));
                    job.facts.admitted_at = Some(at);
                    let early = job
                        .handle
                        .as_mut()
                        .map(|h| h.wait_timeout(std::time::Duration::ZERO));
                    if !matches!(early, None | Some(Ok(None))) {
                        let what =
                            format!("job {i}'s outcome was takeable at admission: {early:?}");
                        self.out.anomalies.push(what);
                    }
                }
                ServiceEvent::Dispatched { kind, .. } => {
                    // What the task says of its job: the protocol it runs,
                    // which must be the one it was submitted with, and its
                    // phase (the paper's covariance fan-out is `derive`).
                    let (ran, task_phase) = match kind {
                        "screen-task" => (Protocol::Paper, "screen"),
                        "covariance-task" => (Protocol::Paper, "derive"),
                        "screen-seeded-task" => (Protocol::Chain, "screen"),
                        "derive-task" => (Protocol::Chain, "derive"),
                        kind => (protocol, kind),
                    };
                    if ran != protocol {
                        let what = format!("job {i} dispatched a {kind} under {protocol:?}");
                        self.out.anomalies.push(what);
                    }
                    if let Client::Cancel(Boundary::Dispatch(phase))
                    | Client::Drop(Boundary::Dispatch(phase)) = client
                    {
                        if !job.acted && task_phase.starts_with(phase.name()) {
                            self.act(at, i);
                            acted = true;
                        }
                    }
                }
                ServiceEvent::Terminal { tenant, status, .. } => {
                    // Popped off the queue without an admission: cancelled
                    // while queued, or failed at shutdown.
                    if job.facts.admitted_at.is_none() && job.facts.terminals.is_empty() {
                        self.out.queue.push((true, tenant.0));
                    }
                    job.facts.terminals.push((at, status));
                    let Some(handle) = job.handle.as_mut().filter(|_| job.facts.outcome.is_none())
                    else {
                        continue;
                    };
                    job.facts.taken_after_shutdown = self.shut;
                    match handle.wait_timeout(std::time::Duration::ZERO) {
                        Ok(Some(outcome)) => job.facts.outcome = Some(outcome),
                        other => self.out.anomalies.push(format!(
                            "job {i}'s terminal outcome is not takeable: {other:?}"
                        )),
                    }
                }
                _ => {}
            }
        }
        acted
    }

    /// Whether admission closes now: every job has arrived, and either the
    /// scenario's shutdown instant has come or every accepted job is
    /// terminal.
    fn may_shut_down(&self, now: SimTime) -> bool {
        if self.shut || self.arrivals_left > 0 {
            return false;
        }
        match self.p.scenario.shutdown_at {
            Some(at) => now >= SimTime::ZERO + at,
            None => self
                .jobs
                .iter()
                .all(|job| job.facts.id.is_none() || !job.facts.terminals.is_empty()),
        }
    }

    /// Closes admission (an attack due "at shutdown" lands first); running
    /// jobs drain on the turns that follow.
    fn shut_down(&mut self, now: SimTime) {
        let attack = self
            .p
            .scenario
            .attack
            .as_ref()
            .filter(|(_, at)| at.is_none());
        if let (Some((member, _)), Some(service)) = (attack, &self.service) {
            service.inject_attack(member);
        }
        self.p.trace.push(now, "shutdown: admission closes");
        self.service = None;
        self.shut = true;
    }

    /// Closes the books once the service has drained: what the pool's
    /// teardown leaves in a mailbox must be its `Shutdown`.
    fn finish(&mut self, ctx: &mut ActorContext<PctMessage>) {
        let report = self.driver.take().expect("finishes once").finish();
        self.bind(ctx);
        self.observe();
        self.out.leftovers = self
            .members
            .values_mut()
            .filter_map(|member| member.next.as_mut())
            .map(|next| {
                std::iter::from_fn(next)
                    .filter(|msg| !matches!(msg, PctMessage::Shutdown))
                    .count()
            })
            .sum();
        self.out.report = Some(report);
        self.out.finished_at = Some(ctx.now());
        self.p.trace.push(ctx.now(), "finished");
        self.stop(ctx);
    }
}

impl Actor<PctMessage> for HostActor {
    fn on_start(&mut self, ctx: &mut ActorContext<PctMessage>) {
        let sc = &self.p.scenario;
        for (i, job) in sc.jobs.iter().enumerate() {
            ctx.set_timer(i as u64, job.arrival);
        }
        for (i, (at, _)) in sc.machine_kills.iter().enumerate() {
            ctx.set_timer(CRASH_TIMER + i as u64, *at);
        }
        if let Some(at) = sc.attack.as_ref().and_then(|(_, at)| *at) {
            ctx.set_timer(ATTACK_TIMER, at);
        }
        if let Some(at) = sc.shutdown_at {
            ctx.set_timer(SHUTDOWN_TIMER, at);
        }
        ctx.set_timer(HORIZON_TIMER, sc.makespan_bound);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ActorContext<PctMessage>, tag: u64) {
        if self.driver.is_none() {
            return;
        }
        let now = ctx.now();
        match tag {
            TURN_TIMER.. => {
                if tag - TURN_TIMER != self.turn_generation {
                    return;
                }
                self.armed = None;
            }
            HORIZON_TIMER => {
                self.anomaly(now, "the run did not finish within its bound".into());
                return self.stop(ctx);
            }
            SHUTDOWN_TIMER => {}
            ATTACK_TIMER => match (&self.service, &self.p.scenario.attack) {
                (Some(service), Some((member, _))) => {
                    service.inject_attack(member);
                }
                _ => self.p.trace.push(now, "attack after shutdown: skipped"),
            },
            CRASH_TIMER.. => {
                let name = self.p.scenario.machine_kills[(tag - CRASH_TIMER) as usize]
                    .1
                    .clone();
                if self.members.get(&name).is_some_and(|m| m.next.is_some()) {
                    self.p.telemetry.note_kill(&name);
                    self.kill(ctx, &name, "machine crash");
                }
            }
            _ => self.submit(now, tag as usize),
        }
        self.pump(ctx);
    }

    fn on_message(&mut self, ctx: &mut ActorContext<PctMessage>, from: ActorId, msg: PctMessage) {
        if self.driver.is_none() {
            return;
        }
        if let Some(name) = self.names.get(&from) {
            if let Some(task) = msg.task() {
                let line = format!("{name} -> manager {} task {task}", msg.kind());
                self.p.trace.push(ctx.now(), line);
            }
            (self.members[name].post)(name, msg);
        }
        self.pump(ctx);
    }
}
