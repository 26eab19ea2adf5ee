//! The manager and member actors that run the real fusion protocol on the
//! simulated cluster.
//!
//! The manager drives the same [`pct::plan::ChainPlan`] as the service
//! scheduler — seeded screening chain → single derive task → transform
//! fan-out — so the fused output is byte-identical to
//! [`pct::SequentialPct`] by construction, whatever the fault schedule
//! does; what it adds is the executor side on virtual timers: detection,
//! re-dispatch, regeneration and retransmission.  Members execute tasks
//! with [`pct::distributed::handle_task`] (real pixels, real results)
//! while the virtual clock is charged by the calibrated
//! [`netsim::CostModel`] and every message is costed at the size of the frame
//! the codec would write for it ([`wire::frame_len`]), so the simulator and
//! the socket cannot disagree about a byte.
//!
//! All bookkeeping lives in `Vec`s and `BTreeMap`s: no iteration order in
//! this module depends on a hash function, which is one of the three legs
//! the determinism contract stands on (the others are the integer-nanos
//! virtual clock and the `(SimTime, sequence)` event tie-break).

use crate::scenario::member_index;
use crate::trace::TraceLog;
use hsi::RgbImage;
use netsim::{Actor, ActorContext, ActorId, CostModel, Duration, NodeId, SimTime};
use pct::distributed::handle_task;
use pct::messages::{PctMessage, TaskId};
use pct::plan::{ChainPlan, Phase, Step};
use pct::resilient::backoff_factor;
use resilience::DetectorConfig;
use service::ChaosPlan;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use telemetry::{SpanId, Telemetry};
use wire::WireMessage;

/// The manager's timer tag for the periodic detector sweep.
const SWEEP_TIMER: u64 = 0;
/// Base of regeneration-completion timer tags (`REGEN_TIMER_BASE + spare`).
const REGEN_TIMER_BASE: u64 = 1_000;
/// A member's heartbeat timer tag.
const HEARTBEAT_TIMER: u64 = 0;

/// Counters and artefacts the manager publishes to the harness.
#[derive(Debug, Default)]
pub(crate) struct SharedOutput {
    pub image: Option<RgbImage>,
    pub error: Option<String>,
    pub kills_injected: u32,
    pub detections: u32,
    pub false_positives: u32,
    pub regenerations: u32,
    pub duplicates: u32,
    pub retransmits: u32,
    pub detection_latency_ns: Vec<u64>,
}

pub(crate) type SharedOutputCell = Rc<RefCell<SharedOutput>>;

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

/// Virtual CPU cost of executing a task, per the calibrated cost model.
pub(crate) fn compute_cost(model: &CostModel, msg: &PctMessage, bands: usize) -> Duration {
    match msg {
        PctMessage::ScreenTask { view, .. } | PctMessage::ScreenSeededTask { view, .. } => {
            model.screening_work(view.pixels(), bands) + model.per_task_overhead()
        }
        PctMessage::DeriveTask { unique, .. } => {
            model.mean_work(unique.len(), bands)
                + model.covariance_work(unique.len(), bands)
                + model.eigen_work(bands)
                + model.per_task_overhead()
        }
        PctMessage::TransformTask { view, .. } => {
            model.transform_work(view.pixels(), bands)
                + model.colormap_work(view.pixels())
                + model.per_task_overhead()
        }
        _ => Duration::ZERO,
    }
}

// ---------------------------------------------------------------- members

/// A replica-group member: heartbeats on a virtual timer and executes
/// every task it receives with the real `handle_task`, charging the
/// virtual CPU before replying.
pub(crate) struct MemberActor {
    pub manager: ActorId,
    pub bands: usize,
    pub heartbeat: Duration,
    pub cost: CostModel,
    pub trace: TraceLog,
    pub name: String,
    pending: BTreeMap<u64, PctMessage>,
    next_tag: u64,
}

impl MemberActor {
    pub fn new(
        manager: ActorId,
        bands: usize,
        heartbeat: Duration,
        cost: CostModel,
        trace: TraceLog,
        name: String,
    ) -> Self {
        Self {
            manager,
            bands,
            heartbeat,
            cost,
            trace,
            name,
            pending: BTreeMap::new(),
            next_tag: 1,
        }
    }
}

impl Actor<PctMessage> for MemberActor {
    fn on_start(&mut self, ctx: &mut ActorContext<PctMessage>) {
        ctx.set_timer(HEARTBEAT_TIMER, self.heartbeat);
    }

    fn on_timer(&mut self, ctx: &mut ActorContext<PctMessage>, tag: u64) {
        if tag == HEARTBEAT_TIMER {
            send_framed(ctx, self.manager, PctMessage::Heartbeat);
            ctx.set_timer(HEARTBEAT_TIMER, self.heartbeat);
        }
    }

    fn on_message(&mut self, ctx: &mut ActorContext<PctMessage>, _from: ActorId, msg: PctMessage) {
        if msg.task().is_none() {
            return;
        }
        let work = compute_cost(&self.cost, &msg, self.bands);
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, msg);
        ctx.compute(tag, work);
    }

    fn on_compute_done(&mut self, ctx: &mut ActorContext<PctMessage>, tag: u64) {
        let Some(task_msg) = self.pending.remove(&tag) else {
            return;
        };
        if let Some(result) = handle_task(task_msg) {
            self.trace.push(
                ctx.now(),
                format!(
                    "{} -> manager {} task {}",
                    self.name,
                    result.kind(),
                    result.task().map_or(-1, |t| t as i64)
                ),
            );
            send_framed(ctx, self.manager, result);
        }
    }
}

// ---------------------------------------------------------------- manager

struct Outstanding {
    msg: PctMessage,
    member: Option<usize>,
    sent_at: SimTime,
    attempts: u32,
}

/// Everything the manager needs at construction.
pub(crate) struct ManagerParams {
    pub scenario_name: String,
    pub members: usize,
    pub spares: usize,
    pub detector: DetectorConfig,
    pub chaos: ChaosPlan,
    pub attack_after_results: usize,
    pub attack_victims: Vec<usize>,
    /// Ground-truth kill times of scheduled machine kills, for detection
    /// latency measurement.
    pub machine_kill_times: Vec<(usize, SimTime)>,
    pub kill_during_regeneration: bool,
    pub member_actors: Vec<ActorId>,
    pub member_nodes: Vec<NodeId>,
    pub telemetry: Telemetry,
    pub trace: TraceLog,
    pub output: SharedOutputCell,
}

/// The manager: the job's plan plus failure detector, retransmitter,
/// regenerator and chaos injector, all on virtual timers.
pub(crate) struct ManagerActor {
    p: ManagerParams,
    /// The job's protocol state; taken when the job completes.
    plan: Option<ChainPlan>,
    outstanding: BTreeMap<TaskId, Outstanding>,
    next_task: TaskId,
    /// Round-robin rotation of members currently eligible for work.
    active: Vec<usize>,
    spare_pool: Vec<usize>,
    rr: usize,
    last_hb: Vec<SimTime>,
    declared_dead: Vec<bool>,
    /// Ground truth: when each member's node actually died (scheduled
    /// machine kills are pre-seeded; chaos/attack kills recorded as they
    /// fire).  Detections without an entry are false positives.
    kill_times: BTreeMap<usize, SimTime>,
    chaos_fired: Vec<bool>,
    attack_fired: bool,
    results_seen: usize,
    kdr_fired: bool,
    regen_spans: BTreeMap<usize, (Option<SpanId>, SimTime)>,
    job_span: Option<SpanId>,
    phase_span: Option<SpanId>,
}

impl ManagerActor {
    pub fn new(plan: ChainPlan, p: ManagerParams) -> Self {
        let total = p.members + p.spares;
        let mut kill_times = BTreeMap::new();
        for (member, at) in &p.machine_kill_times {
            kill_times.insert(*member, *at);
        }
        let chaos_fired = vec![false; p.chaos.kills.len()];
        Self {
            plan: Some(plan),
            outstanding: BTreeMap::new(),
            next_task: 1,
            active: (0..p.members).collect(),
            spare_pool: (p.members..total).collect(),
            rr: 0,
            last_hb: vec![SimTime::ZERO; total],
            declared_dead: vec![false; total],
            kill_times,
            chaos_fired,
            attack_fired: false,
            results_seen: 0,
            kdr_fired: false,
            regen_spans: BTreeMap::new(),
            job_span: None,
            phase_span: None,
            p,
        }
    }

    fn hb_period(&self) -> Duration {
        Duration::from_millis(self.p.detector.heartbeat_period_ms.max(1))
    }

    fn silence_threshold(&self) -> Duration {
        self.hb_period()
            .saturating_mul(self.p.detector.miss_threshold.max(1) as u64)
    }

    /// Base retransmit timeout on virtual time — the single parameter of
    /// the shared [`backoff_factor`] policy.  Dead members are recovered
    /// faster by the detector (their tasks are orphaned and re-dispatched
    /// immediately), so retransmits only chase frames lost in transit — the
    /// base sits well above task service time (≥ `per_task_overhead` even
    /// on a straggler) to avoid duplicate storms.
    fn retransmit_base(&self) -> Duration {
        let window = self
            .hb_period()
            .saturating_mul(self.p.detector.miss_threshold.max(1) as u64 + 1);
        window.saturating_mul(4).max(Duration::from_millis(1_000))
    }

    fn regen_delay(&self) -> Duration {
        self.hb_period()
    }

    fn kill_member(&mut self, ctx: &mut ActorContext<PctMessage>, member: usize, why: &str) {
        if self.kill_times.contains_key(&member) {
            return;
        }
        self.kill_times.insert(member, ctx.now());
        self.p.output.borrow_mut().kills_injected += 1;
        self.p.telemetry.note_kill(&crate::member_name(member));
        ctx.kill_node(self.p.member_nodes[member]);
        self.p
            .trace
            .push(ctx.now(), format!("kill m{member} ({why})"));
    }

    /// Fires unfired chaos kills anchored on `phase`, exactly like the
    /// service scheduler: immediately before the first dispatch of that
    /// phase's task.
    fn fire_chaos(&mut self, ctx: &mut ActorContext<PctMessage>, phase: Phase) {
        for k in 0..self.p.chaos.kills.len() {
            if self.chaos_fired[k] || self.p.chaos.kills[k].phase != phase {
                continue;
            }
            self.chaos_fired[k] = true;
            if let Some(m) = member_index(&self.p.chaos.kills[k].member) {
                self.kill_member(ctx, m, "chaos");
            }
        }
    }

    fn fire_attack_if_due(&mut self, ctx: &mut ActorContext<PctMessage>) {
        if self.attack_fired
            || self.p.attack_victims.is_empty()
            || self.results_seen < self.p.attack_after_results
        {
            return;
        }
        self.attack_fired = true;
        let victims = self.p.attack_victims.clone();
        for m in victims {
            self.kill_member(ctx, m, "attack");
        }
    }

    fn pick_member(&mut self) -> Option<usize> {
        if self.active.is_empty() {
            return None;
        }
        let m = self.active[self.rr % self.active.len()];
        self.rr += 1;
        Some(m)
    }

    fn send_task(
        &mut self,
        ctx: &mut ActorContext<PctMessage>,
        task: TaskId,
        msg: PctMessage,
        member: usize,
        attempts: u32,
    ) {
        if let Some(phase) = self.plan.as_ref().map(ChainPlan::phase) {
            self.fire_chaos(ctx, phase);
        }
        self.p.trace.push(
            ctx.now(),
            format!("manager -> m{member} {} task {task}", msg.kind()),
        );
        send_framed(ctx, self.p.member_actors[member], msg.clone());
        self.outstanding.insert(
            task,
            Outstanding {
                msg,
                member: Some(member),
                sent_at: ctx.now(),
                attempts,
            },
        );
    }

    /// Re-sends unassigned outstanding tasks and pulls new phase tasks
    /// while members are available.
    fn try_dispatch(&mut self, ctx: &mut ActorContext<PctMessage>) {
        let orphans: Vec<TaskId> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.member.is_none())
            .map(|(t, _)| *t)
            .collect();
        for task in orphans {
            let Some(member) = self.pick_member() else {
                return;
            };
            let o = self.outstanding.remove(&task).expect("orphan exists");
            self.p.output.borrow_mut().retransmits += 1;
            self.send_task(ctx, task, o.msg, member, o.attempts + 1);
        }
        loop {
            if self.active.is_empty() {
                return;
            }
            let task = self.next_task;
            let Some(msg) = self.plan.as_mut().and_then(|plan| plan.next_task(task)) else {
                return;
            };
            self.next_task += 1;
            let member = self.pick_member().expect("active checked non-empty");
            self.send_task(ctx, task, msg, member, 0);
        }
    }

    /// Closes the open phase span and opens `next`'s (`None`: the job is
    /// done).
    fn roll_phase(&mut self, ctx: &mut ActorContext<PctMessage>, next: Option<Phase>) {
        self.p.telemetry.span_end(self.phase_span.take());
        let name = next.map_or("done", Phase::name);
        if next.is_some() {
            self.phase_span = self
                .p
                .telemetry
                .span_start(name, self.job_span, Some(1), "");
        }
        self.p.trace.push(ctx.now(), format!("phase -> {name}"));
    }

    fn declare_dead(&mut self, ctx: &mut ActorContext<PctMessage>, member: usize) {
        if self.declared_dead[member] {
            return;
        }
        self.declared_dead[member] = true;
        self.active.retain(|&m| m != member);
        self.spare_pool.retain(|&m| m != member);
        let now = ctx.now();
        let name = crate::member_name(member);
        match self
            .kill_times
            .get(&member)
            .copied()
            .filter(|kt| *kt <= now)
        {
            Some(kt) => {
                let latency = now.since(kt);
                let mut out = self.p.output.borrow_mut();
                out.detections += 1;
                out.detection_latency_ns.push(latency.as_nanos());
                drop(out);
                let _ = self.p.telemetry.take_kill(&name);
                self.p.telemetry.span_closed(
                    "detect",
                    self.phase_span,
                    Some(1),
                    kt.as_nanos(),
                    &name,
                );
                self.p.telemetry.observe(
                    "sim_detection_latency_seconds",
                    &[],
                    std::time::Duration::from_nanos(latency.as_nanos()),
                );
                self.p.trace.push(
                    now,
                    format!(
                        "detected death of m{member} after {} ns",
                        latency.as_nanos()
                    ),
                );
            }
            None => {
                self.p.output.borrow_mut().false_positives += 1;
                self.p.telemetry.span_closed(
                    "detect",
                    self.phase_span,
                    Some(1),
                    now.as_nanos()
                        .saturating_sub(self.silence_threshold().as_nanos()),
                    "false-positive",
                );
                self.p
                    .trace
                    .push(now, format!("false-positive detection of m{member}"));
            }
        }
        // Orphan the dead member's outstanding tasks for re-dispatch.
        for o in self.outstanding.values_mut() {
            if o.member == Some(member) {
                o.member = None;
            }
        }
        self.start_regeneration(ctx);
        self.try_dispatch(ctx);
        if self.active.is_empty() && self.regen_spans.is_empty() && self.spare_pool.is_empty() {
            self.fail(ctx, "all members dead and no spares left");
        }
    }

    fn start_regeneration(&mut self, ctx: &mut ActorContext<PctMessage>) {
        if self.spare_pool.is_empty() {
            return;
        }
        let spare = self.spare_pool.remove(0);
        let span = self
            .p
            .telemetry
            .span_start("regenerate", self.job_span, Some(1), "");
        self.regen_spans.insert(spare, (span, ctx.now()));
        ctx.set_timer(REGEN_TIMER_BASE + spare as u64, self.regen_delay());
        self.p
            .trace
            .push(ctx.now(), format!("regenerating via spare m{spare}"));
        if self.p.kill_during_regeneration && !self.kdr_fired {
            self.kdr_fired = true;
            self.kill_member(ctx, spare, "kill-during-regeneration");
        }
    }

    fn fail(&mut self, ctx: &mut ActorContext<PctMessage>, why: &str) {
        let mut out = self.p.output.borrow_mut();
        if out.error.is_none() {
            out.error = Some(why.to_string());
        }
        drop(out);
        self.p.trace.push(ctx.now(), format!("FAILED: {why}"));
        self.p.telemetry.span_end(self.phase_span.take());
        self.p.telemetry.span_end(self.job_span.take());
        ctx.halt();
    }
}

impl Actor<PctMessage> for ManagerActor {
    fn on_start(&mut self, ctx: &mut ActorContext<PctMessage>) {
        self.job_span = self
            .p
            .telemetry
            .span_start("job", None, Some(1), &self.p.scenario_name);
        self.phase_span = self
            .p
            .telemetry
            .span_start("screen", self.job_span, Some(1), "");
        let now = ctx.now();
        for hb in &mut self.last_hb {
            *hb = now;
        }
        ctx.set_timer(SWEEP_TIMER, self.hb_period());
        if self.p.attack_after_results == 0 {
            self.fire_attack_if_due(ctx);
        }
        self.try_dispatch(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ActorContext<PctMessage>, tag: u64) {
        if tag >= REGEN_TIMER_BASE {
            let spare = (tag - REGEN_TIMER_BASE) as usize;
            if let Some((span, started)) = self.regen_spans.remove(&spare) {
                self.p.telemetry.span_end(span);
                if self.declared_dead[spare] {
                    self.p.trace.push(
                        ctx.now(),
                        format!("regeneration via m{spare} failed (spare died)"),
                    );
                } else {
                    self.active.push(spare);
                    self.p.output.borrow_mut().regenerations += 1;
                    self.p.telemetry.observe(
                        "sim_regeneration_seconds",
                        &[],
                        std::time::Duration::from_nanos(ctx.now().since(started).as_nanos()),
                    );
                    self.p
                        .trace
                        .push(ctx.now(), format!("m{spare} joined as replacement"));
                    self.try_dispatch(ctx);
                }
            }
            return;
        }
        // Detector sweep + retransmit pass.
        let now = ctx.now();
        let threshold = self.silence_threshold();
        let total = self.p.members + self.p.spares;
        for member in 0..total {
            if !self.declared_dead[member] && now.since(self.last_hb[member]) > threshold {
                self.declare_dead(ctx, member);
            }
        }
        let base = self.retransmit_base();
        let overdue: Vec<TaskId> = self
            .outstanding
            .iter()
            .filter(|(_, o)| {
                o.member.is_some()
                    && now.since(o.sent_at)
                        > base.saturating_mul(u64::from(backoff_factor(o.attempts)))
            })
            .map(|(t, _)| *t)
            .collect();
        for task in overdue {
            let Some(member) = self.pick_member() else {
                break;
            };
            let o = self.outstanding.remove(&task).expect("overdue task exists");
            self.p.output.borrow_mut().retransmits += 1;
            self.p.trace.push(
                now,
                format!("retransmit task {task} (attempt {})", o.attempts + 1),
            );
            self.send_task(ctx, task, o.msg, member, o.attempts + 1);
        }
        self.try_dispatch(ctx);
        if self.plan.is_some() {
            ctx.set_timer(SWEEP_TIMER, self.hb_period());
        }
    }

    fn on_message(&mut self, ctx: &mut ActorContext<PctMessage>, from: ActorId, msg: PctMessage) {
        if matches!(msg, PctMessage::Heartbeat) {
            if let Some(m) = self.p.member_actors.iter().position(|&a| a == from) {
                self.last_hb[m] = ctx.now();
            }
            return;
        }
        let (Some(task), Some(plan)) = (msg.task(), self.plan.as_mut()) else {
            return;
        };
        let step = match plan.accept(msg) {
            Err(error) => return self.fail(ctx, &format!("task {task} failed: {error}")),
            // Late results from partitioned or falsely-declared members,
            // and echoes of retransmits: the plan consumed the id already.
            Ok(Step::Stale) => {
                self.p.output.borrow_mut().duplicates += 1;
                return;
            }
            Ok(step) => step,
        };
        let screening = plan.phase() == Phase::Screen;
        self.outstanding.remove(&task);
        self.results_seen += 1;
        self.fire_attack_if_due(ctx);
        match step {
            // The chain's next link is sent from here, not the sweep timer;
            // a transform strip frees nothing the plan is waiting on.
            Step::Continue if screening => self.try_dispatch(ctx),
            Step::Continue | Step::Stale => {}
            Step::Entered(phase) => {
                self.roll_phase(ctx, Some(phase));
                self.try_dispatch(ctx);
            }
            Step::Complete => {
                let plan = self.plan.take().expect("the plan just accepted a result");
                match plan.into_output() {
                    Ok(output) => {
                        self.p.output.borrow_mut().image = Some(output.image);
                        self.roll_phase(ctx, None);
                        self.p.telemetry.span_end(self.job_span.take());
                        self.p.trace.push(ctx.now(), "job complete");
                        ctx.halt();
                    }
                    Err(e) => self.fail(ctx, &format!("assembly failed: {e}")),
                }
            }
        }
    }
}
