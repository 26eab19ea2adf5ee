//! The batch scheduler: admits jobs from the queue, resolves their routes,
//! shards them, and multiplexes their tasks over the shared pool.
//!
//! The scheduler is event-driven.  Everything it reacts to arrives in the one
//! mailbox it blocks on — results and heartbeats from the pool, and a
//! [`Doorbell`] ring from whoever changed something it would otherwise have
//! to poll (a submission, a cancellation, the shutdown flag, a finished
//! shared-memory job) — and every periodic duty is an explicit deadline:
//! the failure detector, the retransmit backoff and the job timeouts.  One
//! [`Scheduler::turn`] is a function of the time it is told: consume what
//! arrived (mailbox, shared-memory results, cancellations), run the timers
//! that are due, admit, dispatch, and answer with the next deadline.
//! Nothing that can make a task runnable — a confirmed loss, a lane
//! failover, a regeneration, an orphan — happens after the last dispatch of
//! a turn, because no later event would pick it up.
//!
//! The turn has two hosts, and nothing in it knows which one drives it.
//! [`Scheduler::run`], on the service's own thread, blocks until a message
//! or the earliest deadline and turns at the wall clock.  A
//! [`HostedScheduler`] is turned by its host instead — the cluster simulator
//! turns it at virtual instants after every delivery and timer, and carries
//! what it sends to the members' mailboxes across its simulated network.
//!
//! A dispatch forms a batch: every runnable task of every admitted job,
//! ordered by priority then submission, is matched against the free
//! execution slots of its lane (replica groups — standard and remote workers
//! are groups of one — or shared-memory executors).  Each message-plane
//! job owns a [`pct::plan::Plan`] of its [`crate::Protocol`] — the seeded
//! chain (screening chain → one derive task → transform fan-out,
//! byte-identical to the sequential reference) or, on the resilient lane,
//! the paper's (screening, covariance and transform fan-outs) — which alone
//! decides which task comes next and what a result means.  The scheduler is
//! the one executor of both and decides everything else: which slot runs a task
//! ([`Scheduler::place`], the one function that sends one), and what happens
//! when the slot dies.
//!
//! Shared-memory jobs skip the message plane entirely: the whole job is
//! handed to an in-process executor that runs the sequential reference over
//! the shared cube — byte-identical by construction.
//!
//! A job's lane comes from its [`Route`]: pinned by the caller, or resolved
//! at admission by the size rule ([`crate::routing::route`]) against the
//! live lane loads.  Every lifecycle fact — an admission with its route, a
//! dispatch, a kill, a loss, a regeneration, a terminal transition — is one
//! [`ServiceEvent`] written once through the service's recorder (see
//! [`crate::events`]), which derives the [`ServiceReport`]'s counters, the
//! telemetry counters and instants and the subscribers' stream from it.
//!
//! Every message-plane slot is a replica group owned by its lane's
//! [`pct::ResilientManagerState`]; a standard worker `svc<i>` and a remote
//! worker `rw<i>` are level-1 groups whose one member is `svc<i>#0` /
//! `rw<i>#0`.  One watchdog covers every member: a
//! [`resilience::FailureDetector`] flags one whose heartbeats stop, and a
//! mailbox probe confirms the loss (an accepted probe refreshes the lease —
//! a member deep in a long task is silent too).  The remote lane rides it
//! too: a killed worker *process* closes its socket, its bridge exits, and
//! the probe reads `Disconnected` as for a dead thread (see
//! [`crate::remote`]).
//!
//! A confirmed loss takes one path on every lane.  The lane's owner starts
//! the member's next incarnation and re-issues what its group owes: the
//! resilient lane regenerates, all without disturbing job outputs, while
//! the standard and remote lanes refuse (no thread is restarted, no process
//! respawned).  A refused group with survivors keeps its tasks; one left
//! empty is retired, and its tasks are re-dispatched to the lane's other
//! groups — idempotent by task id, byte-identical because every task message
//! is deterministic in its inputs.  A lane drained to zero groups *fails
//! over* each running job through the size rule to another enabled
//! lane (whose groups re-run the orphans, or whose shared-memory executor
//! recomputes the job) — save a job on the paper's protocol, which no other
//! lane runs.  Queued jobs need nothing: admission reads the live snapshot.
//!
//! Every in-flight task has one retransmit timer: unanswered past its
//! backoff, it is re-sent to every current member of its group, which
//! repairs a send lost in transit on any lane.

use crate::admission::{AdmissionGovernor, TenantId};
use crate::chaos::ChaosPlan;
use crate::events::{Recorder, ServiceEvent};
use crate::job::{BackendKind, JobId, JobStatus, Priority, Protocol};
use crate::pool::{Doorbell, InlineJob, InlineResult, WorkerPool};
use crate::report::ServiceReport;
use crate::routing::{LaneLoad, LaneSnapshot, Route};
use crate::status::StatusTable;
use hsi::partition::partition_rows;
use hsi::CloneLedger;
use pct::messages::{PctMessage, TaskId};
use pct::plan::{Phase, Plan, Step};
use pct::resilient::{backoff_factor, RETRANSMIT_AFTER};
use pct::FusionOutput;
use resilience::{DetectorConfig, FailureDetector, MemberId};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::{SpanId, Telemetry};

use scp::{Envelope, ScpError, ThreadContext};

/// One dispatched, not-yet-answered task.
struct InFlight {
    job: JobId,
    /// The lane and the group the task rides on.
    lane: BackendKind,
    group: String,
    /// Kept for re-issue to a regenerated member and for retransmission;
    /// view payloads make holding and cloning this an `Arc` bump.
    message: PctMessage,
    /// When the task was last (re)transmitted.
    sent_at: Instant,
    /// Retransmissions so far (drives [`backoff_factor`]).
    attempts: u32,
}

impl InFlight {
    /// When the task is next due for retransmission to its group.
    fn retransmit_due(&self) -> Instant {
        self.sent_at + RETRANSMIT_AFTER * backoff_factor(self.attempts)
    }
}

/// A task ready for [`Scheduler::place`]: fresh from its job's plan, or
/// pulled off a lost (or never-reached) execution slot and waiting in the
/// orphan queue.  Re-dispatch is idempotent by task id: whichever copy
/// answers first wins, later copies are discarded as duplicates.
struct Orphan {
    task: TaskId,
    job: JobId,
    message: PctMessage,
    /// Deliveries so far (carried into the new [`InFlight`] so retransmit
    /// backoff keeps compounding across reassignments).
    attempts: u32,
    /// The member that was lost holding the task; empty for a task that
    /// was never sent (a loss landed between the lane check and the pop),
    /// which re-dispatches as a plain first delivery.
    from: String,
}

/// Scheduler-side state of one admitted job.
struct JobRun {
    tenant: TenantId,
    priority: Priority,
    /// The resolved execution lane.
    backend: BackendKind,
    /// The manager protocol its plan runs.
    protocol: Protocol,
    /// The job's protocol state; abandoned if the job runs (or is failed
    /// over to run) on the shared-memory lane.
    plan: Plan,
    deadline: Option<Instant>,
    /// Shared-memory lane: whether the whole job is already on an executor.
    inline_dispatched: bool,
    /// Root telemetry span of the job's phase tree (carried over from
    /// submission; `None` when telemetry is disabled).
    span: Option<SpanId>,
    /// The currently open phase span, a child of `span`.
    phase_span: Option<SpanId>,
    /// Name of the current phase, labelling its histogram.
    phase_name: &'static str,
}

impl JobRun {
    /// Closes the open phase span, observing its duration into the phase
    /// histogram, then opens the span of `next` (when the job is moving on
    /// rather than terminating).  With telemetry disabled there is no span
    /// and nothing is timed.  Takes the telemetry handle, so it can run
    /// while the job is borrowed out of the run table.
    fn roll_phase(&mut self, telemetry: &Telemetry, id: JobId, next: Option<&'static str>) {
        if let Some(ended) = telemetry.span_end(self.phase_span.take()) {
            telemetry.observe(
                "fusiond_phase_duration_seconds",
                &[("phase", self.phase_name)],
                ended,
            );
        }
        if let Some(name) = next {
            self.phase_span = telemetry.span_start(name, self.span, Some(id), "");
            self.phase_name = name;
        }
    }
}

/// How many recently completed task ids are remembered for duplicate
/// accounting.  Duplicates — level - 1 extra replica results per task,
/// re-issues and retransmits — arrive promptly, so a small bounded window
/// keeps `duplicates_ignored` accurate without growing with service
/// lifetime.  An evicted id merely stops being counted.
const DEDUP_WINDOW: usize = 4096;

/// The scheduler: owns the pool and drives everything from one thread.
pub(crate) struct Scheduler {
    pool: WorkerPool,
    ctx: ThreadContext<PctMessage>,
    governor: Arc<AdmissionGovernor>,
    status: Arc<StatusTable>,
    cancels: Arc<Mutex<Vec<JobId>>>,
    shutdown: Arc<AtomicBool>,
    max_in_flight: usize,
    /// The one writer of lifecycle facts, shared with the front end.
    recorder: Arc<Recorder>,
    running: BTreeMap<JobId, JobRun>,
    /// Every table the turn iterates is ordered, so what it does with them —
    /// the order of retransmits and orphans, which job a loss is charged to —
    /// is a function of the turn's inputs, the same on every replay.
    tasks: BTreeMap<TaskId, InFlight>,
    completed_tasks: HashSet<TaskId>,
    completed_order: VecDeque<TaskId>,
    cancelled_queued: HashSet<JobId>,
    /// The free execution slots of every lane, each in start order until
    /// results reorder it.
    free: BTreeMap<BackendKind, VecDeque<String>>,
    next_task: TaskId,
    /// The pool's one watchdog, over the members of every message-plane
    /// lane: heartbeat silence flags a suspect, a mailbox probe confirms.
    /// Remote workers heartbeat over the wire through their bridges, so one
    /// detector covers both sides of the process boundary.
    watch: FailureDetector,
    /// Tasks of retired groups awaiting re-dispatch, oldest first.
    orphans: VecDeque<Orphan>,
    started: Instant,
    /// The time the current turn was told.  Every decision — detector
    /// clocks, retransmit and job deadlines, `sent_at` stamps — reads this,
    /// never the wall clock, so a turn can be replayed at any instant.
    now: Instant,
    /// Set when something happened that a finished admit-and-dispatch pass
    /// would not have seen: a loss orphaned tasks or failed a lane over, or
    /// a failed job freed an admission slot.  The turn repeats the pass
    /// until one completes with this still clear.
    unsettled: bool,
    /// The measurements no event carries; the counters of lifecycle facts
    /// are the recorder's fold and the governor's, merged in at
    /// [`Scheduler::finalize`].
    report: ServiceReport,
    chaos: ChaosPlan,
    chaos_fired: Vec<bool>,
    telemetry: Telemetry,
    /// Open `recompute` spans: jobs whose group tasks were re-issued after a
    /// regeneration, closed when the job next consumes a result (or ends).
    recompute: BTreeMap<JobId, SpanId>,
}

impl Scheduler {
    /// A scheduler over `pool` whose clock starts at `started`: the
    /// millisecond clock of its failure detector, tuned by `detector`,
    /// counts from there.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        started: Instant,
        pool: WorkerPool,
        ctx: ThreadContext<PctMessage>,
        governor: Arc<AdmissionGovernor>,
        status: Arc<StatusTable>,
        cancels: Arc<Mutex<Vec<JobId>>>,
        shutdown: Arc<AtomicBool>,
        max_in_flight: usize,
        recorder: Arc<Recorder>,
        chaos: ChaosPlan,
        detector: DetectorConfig,
        telemetry: Telemetry,
    ) -> Self {
        let mut watch = FailureDetector::new(detector);
        for member in pool.lanes.values().flat_map(|state| state.members()) {
            watch.watch(member, 0);
        }
        let free = BackendKind::ALL
            .into_iter()
            .map(|lane| (lane, pool.slots(lane).into()))
            .collect();
        let chaos_fired = vec![false; chaos.kills.len()];
        Self {
            pool,
            ctx,
            governor,
            status,
            cancels,
            shutdown,
            max_in_flight: max_in_flight.max(1),
            recorder,
            running: BTreeMap::new(),
            tasks: BTreeMap::new(),
            completed_tasks: HashSet::new(),
            completed_order: VecDeque::new(),
            cancelled_queued: HashSet::new(),
            free,
            next_task: 1,
            watch,
            orphans: VecDeque::new(),
            started,
            now: started,
            unsettled: false,
            report: ServiceReport::default(),
            chaos,
            chaos_fired,
            telemetry,
            recompute: BTreeMap::new(),
        }
    }

    /// The current turn's time on the detector's millisecond clock.
    fn now_ms(&self) -> u64 {
        self.now.saturating_duration_since(self.started).as_millis() as u64
    }

    /// The live occupancy of every lane, read when a route is resolved.
    fn lane_snapshot(&self) -> LaneSnapshot {
        let load = |lane| LaneLoad {
            total: self.pool.capacity(lane),
            free: self.free[&lane].len(),
        };
        LaneSnapshot {
            standard: load(BackendKind::Standard),
            resilient: load(BackendKind::Resilient),
            shared_memory: load(BackendKind::SharedMemory),
            remote: load(BackendKind::Remote),
        }
    }

    /// The scheduler main loop; returns the final report at shutdown.
    pub(crate) fn run(mut self) -> ServiceReport {
        let mut woke = None;
        loop {
            let next = self.turn(Instant::now(), woke.take());
            if self.shutdown.load(Ordering::Acquire)
                && self.running.is_empty()
                && self.governor.queue_depth() == 0
            {
                break;
            }
            // The one place the scheduler blocks: until a message, or the
            // earliest armed timer.  With no timer armed nothing can become
            // due on its own, and whatever else changes rings the doorbell.
            let received = match next {
                Some(deadline) => self
                    .ctx
                    .recv_timeout(deadline.saturating_duration_since(Instant::now())),
                None => self.ctx.recv(),
            };
            woke = match received {
                Ok(envelope) => Some(envelope),
                Err(ScpError::Timeout) => None,
                Err(_) => break,
            };
        }
        self.finalize()
    }

    /// One scheduler turn at `now`: consumes `woke` (the envelope that ended
    /// the wait, if one did) and everything else that arrived, runs the
    /// timers due at `now`, admits and dispatches, and returns the earliest
    /// deadline still armed (`None`: nothing will become due by itself).
    fn turn(&mut self, now: Instant, woke: Option<Envelope<PctMessage>>) -> Option<Instant> {
        self.now = now;
        self.report.scheduler_turns += 1;
        if let Some(envelope) = woke {
            self.on_message(envelope);
        }
        while let Ok(Some(envelope)) = self.ctx.try_recv() {
            self.on_message(envelope);
        }
        while let Ok(result) = self.pool.inline.results.try_recv() {
            self.on_inline_result(result);
        }
        self.drain_cancels();
        self.sweep_and_probe();
        self.retransmit_overdue_tasks();
        self.enforce_deadlines();
        // Admit and dispatch last, and again for as long as the pass itself
        // disturbs what it decided on (a slot found dead at send time, a job
        // failed while placing): the scheduler blocks after this, so a task
        // made runnable behind the last dispatch would wait for an unrelated
        // event.  Every repeat costs a worker or a running job, so it ends.
        loop {
            self.unsettled = false;
            self.admit();
            self.dispatch_orphans();
            self.dispatch();
            if !self.unsettled {
                break;
            }
        }
        self.next_deadline()
    }

    /// The earliest armed timer: the failure detector's next suspicion,
    /// the next retransmit, the next job timeout.  Each is moved or
    /// cleared by the duty it triggers, so a deadline returned twice means
    /// nothing was due.
    fn next_deadline(&self) -> Option<Instant> {
        self.watch
            .next_deadline_ms()
            .map(|ms| self.started + Duration::from_millis(ms))
            .into_iter()
            .chain(self.tasks.values().map(InFlight::retransmit_due))
            .chain(self.running.values().filter_map(|job| job.deadline))
            .min()
    }

    /// Applies client cancellation requests.
    fn drain_cancels(&mut self) {
        let drained: Vec<JobId> = {
            let mut cancels = self.cancels.lock().expect("cancel lock");
            std::mem::take(&mut *cancels)
        };
        for id in drained {
            if self.running.contains_key(&id) {
                self.fail_job(id, JobStatus::Cancelled, String::new());
            } else if self.status.status(id) == Some(JobStatus::Queued) {
                self.cancelled_queued.insert(id);
            }
        }
    }

    /// Marks a job terminal in the results plane, reports it back to the
    /// admission governor (releasing its in-flight bytes), and records the
    /// fact.  `route` is the lane the job ended on, `None` if it never left
    /// the queue.
    fn terminal_transition(
        &mut self,
        id: JobId,
        tenant: TenantId,
        status: JobStatus,
        route: Option<BackendKind>,
        output: Option<FusionOutput>,
        error: Option<String>,
    ) {
        self.status.transition(id, status, output, error);
        let terminal = ServiceEvent::Terminal {
            job: id,
            tenant,
            status,
            route,
        };
        self.recorder.record(terminal, None);
    }

    /// Admits queued jobs while in-flight capacity remains, resolving each
    /// job's route against the live lane snapshot.
    fn admit(&mut self) {
        while self.running.len() < self.max_in_flight {
            let Some(queued) = self.governor.next() else {
                break;
            };
            let tenant = queued.spec.tenant;
            if self.cancelled_queued.remove(&queued.id) {
                self.telemetry
                    .span_end_with_detail(queued.queued_span, Some("cancelled"));
                self.telemetry
                    .span_end_with_detail(queued.span, Some("cancelled"));
                let cancelled = JobStatus::Cancelled;
                self.terminal_transition(queued.id, tenant, cancelled, None, None, None);
                continue;
            }
            let prepared = queued.spec.source.realize().map_err(|e| e.to_string());
            let prepared = prepared.and_then(|cube| {
                let shards = partition_rows(cube.dims(), queued.spec.shards);
                Ok((cube, shards.map_err(|e| e.to_string())?))
            });
            let (cube, shards) = match prepared {
                Ok(prepared) => prepared,
                Err(error) => {
                    self.telemetry
                        .span_end_with_detail(queued.queued_span, Some("failed"));
                    self.telemetry
                        .span_end_with_detail(queued.span, Some("failed"));
                    let (failed, error) = (JobStatus::Failed, Some(error));
                    self.terminal_transition(queued.id, tenant, failed, None, None, error);
                    continue;
                }
            };
            let bytes = cube.dims().byte_size() as u64;
            let (backend, auto_routed) =
                self.governor
                    .resolve(queued.spec.route, bytes, &self.lane_snapshot());
            // Close the `queued` span: its duration *is* the admission wait.
            if let Some(wait) = self.telemetry.span_end(queued.queued_span) {
                self.telemetry
                    .observe("fusiond_admission_wait_seconds", &[], wait);
            }
            let phase_name = match backend {
                BackendKind::SharedMemory => "inline",
                _ => "screen",
            };
            let phase_span =
                self.telemetry
                    .span_start(phase_name, queued.span, Some(queued.id), "");
            let run = JobRun {
                tenant,
                priority: queued.spec.priority,
                backend,
                protocol: queued.spec.protocol,
                plan: Plan::new(queued.spec.protocol, cube, queued.spec.config, shards),
                deadline: queued.spec.timeout.map(|t| self.now + t),
                inline_dispatched: false,
                span: queued.span,
                phase_span,
                phase_name,
            };
            self.status
                .transition(queued.id, JobStatus::Running, None, None);
            let admitted = ServiceEvent::Admitted {
                job: queued.id,
                tenant,
                route: backend,
                auto: auto_routed,
            };
            self.recorder.record(admitted, queued.span);
            self.running.insert(queued.id, run);
        }
    }

    /// Forms this turn's dispatch batch: runnable jobs in (priority,
    /// submission) order, each matched to free slots of its lane.
    fn dispatch(&mut self) {
        let mut order: Vec<(u8, JobId)> = self
            .running
            .iter()
            .map(|(id, job)| (job.priority.rank(), *id))
            .collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, id) in order {
            self.dispatch_job(id);
        }
    }

    /// Hands one whole shared-memory job to a free in-process executor.
    fn dispatch_inline(&mut self, id: JobId) {
        let Some(job) = self.running.get_mut(&id) else {
            return;
        };
        if job.inline_dispatched {
            return;
        }
        let free = self.free.entry(BackendKind::SharedMemory).or_default();
        let Some(executor) = free.pop_front() else {
            return;
        };
        job.inline_dispatched = true;
        let task = self.next_task;
        self.next_task += 1;
        let work = InlineJob {
            job: id,
            cube: Arc::clone(job.plan.cube()),
            config: job.plan.config(),
        };
        // No payload accounting here: the inline lane ships an `Arc`, not a
        // message, so it neither clones nor "ships" sub-cube bytes — keeping
        // `payload_bytes_shipped` the message-plane denominator it has
        // always been in BENCH_history.csv.
        if self.pool.inline.dispatch(&executor, work) {
            let dispatched = ServiceEvent::Dispatched {
                job: id,
                route: BackendKind::SharedMemory,
                task,
                kind: "inline-job",
            };
            self.recorder.record(dispatched, None);
        } else {
            // The executor thread is gone; its slot is not returned.
            self.fail_job(
                id,
                JobStatus::Failed,
                format!("shared-memory executor '{executor}' lost"),
            );
        }
    }

    /// Dispatches as many of one job's ready tasks as its lane has slots.
    fn dispatch_job(&mut self, id: JobId) {
        if matches!(
            self.running.get(&id).map(|job| job.backend),
            Some(BackendKind::SharedMemory)
        ) {
            self.dispatch_inline(id);
            return;
        }
        loop {
            let Some(job) = self.running.get_mut(&id) else {
                return;
            };
            if self.free[&job.backend].is_empty() {
                return;
            }
            let task = self.next_task;
            // Measure (via the clone ledger) any sub-cube payload bytes the
            // task construction deep-copies: 0 on the view-based plane, and
            // attributed per phase so the bench can prove it per phase.
            let ledger = CloneLedger::snapshot();
            let Some(message) = job.plan.next_task(task) else {
                return;
            };
            let cloned = ledger.delta();
            let phase = job.plan.phase();
            match phase {
                Phase::Screen => self.report.bytes_cloned_screen += cloned,
                Phase::Transform => self.report.bytes_cloned_transform += cloned,
                Phase::Derive => {}
            }
            self.report.payload_bytes_shipped += message.payload_bytes();
            self.fire_chaos_kills(id, phase);
            self.next_task += 1;
            let ready = Orphan {
                task,
                job: id,
                message,
                attempts: 0,
                from: String::new(),
            };
            // Handed back when a loss landed between the lane check and the
            // pop: the plan has already issued the task, so park it.
            let unplaced = self.place(ready);
            self.orphans.extend(unplaced);
            if !self.tasks.contains_key(&task) {
                // Not in flight after all — parked, orphaned by a mailbox
                // found dead, or its job failed: a later pass carries on.
                return;
            }
        }
    }

    /// Puts one ready task on a free slot of its job's (possibly
    /// failed-over) lane — the only place a task is recorded in flight and
    /// sent.  Hands the task back when the lane has no free slot right now;
    /// drops it when its job has finished or was failed over to an inline
    /// executor (which recomputes the job start to finish, byte-identical
    /// by construction).
    fn place(&mut self, ready: Orphan) -> Option<Orphan> {
        let lane = self.running.get(&ready.job)?.backend;
        if lane == BackendKind::SharedMemory {
            return None;
        }
        let Some(group) = self.free.entry(lane).or_default().pop_front() else {
            return Some(ready);
        };
        // Recorded before sending, so a failure-triggered re-issue or
        // orphaning covers it; the record keeps the message, the group gets
        // copies.
        self.tasks.insert(
            ready.task,
            InFlight {
                job: ready.job,
                lane,
                group: group.clone(),
                message: ready.message,
                sent_at: self.now,
                attempts: ready.attempts,
            },
        );
        let message = &self.tasks[&ready.task].message;
        let state = &self.pool.lanes[&lane];
        let level = state.groups[&group].members.len();
        // A free group is in service, so the send can only find members dead.
        let dead = state
            .group_send(&self.ctx, &group, message)
            .unwrap_or_default();
        // Dead mailboxes discovered at send time: the watchdog would confirm
        // them at its deadline, but the task is already recorded in flight,
        // so confirm the losses now.  A task that reached no live member is
        // placed only if its group outlives them.
        let mut unplaced = Some((ready.task, ready.from.as_str()));
        if dead.len() < level {
            self.note_placed(ready.task, &ready.from, lane, &group);
            unplaced = None;
        }
        for failed in dead {
            self.on_member_lost(lane, failed, unplaced.take());
        }
        None
    }

    /// Consumes one finished whole-job result from the shared-memory lane.
    fn on_inline_result(&mut self, result: InlineResult) {
        let free = self.free.entry(BackendKind::SharedMemory).or_default();
        free.push_back(result.executor);
        self.report.results_received += 1;
        let id = result.job;
        let Some(job) = self.running.get(&id) else {
            // Job already cancelled, timed out or failed; slot reclaimed.
            return;
        };
        debug_assert!(matches!(job.backend, BackendKind::SharedMemory));
        match result.result {
            Ok(output) => self.complete_job(id, Some(output)),
            Err(error) => self.fail_job(id, JobStatus::Failed, error),
        }
    }

    /// Consumes one envelope from the mailbox.
    fn on_message(&mut self, envelope: Envelope<PctMessage>) {
        if Doorbell::rang(&envelope) {
            // Its work is done: the scheduler is awake, and the turn looks
            // at everything a ring can stand for.
            return;
        }
        // Any traffic from a watched member is proof of life.
        let member = MemberId::parse(&envelope.from);
        if let Some(member) = &member {
            self.watch.heartbeat(member, self.now_ms());
        }
        match envelope.payload {
            PctMessage::Heartbeat => self.report.heartbeats += 1,
            msg => {
                let Some(task) = msg.task() else { return };
                let id = match self.tasks.get(&task) {
                    // A reply from a group the task has been moved away from
                    // (it got its answer out just before its loss, after the
                    // task was re-dispatched): the live assignment stands,
                    // the stale copy is a duplicate.
                    Some(inflight)
                        if member.as_ref().map(|m| m.group.as_str()) != Some(&inflight.group) =>
                    {
                        self.report.duplicates_ignored += 1;
                        return;
                    }
                    Some(_) => {
                        let inflight = self.tasks.remove(&task).expect("just found");
                        let free = self.free.entry(inflight.lane).or_default();
                        free.push_back(inflight.group);
                        self.remember_completed(task);
                        inflight.job
                    }
                    None => {
                        // The lost member got its reply out before its group
                        // was retired: consume it and drop the pending
                        // re-dispatch (there is no slot to return).
                        let Some(pos) = self.orphans.iter().position(|o| o.task == task) else {
                            if self.completed_tasks.contains(&task) {
                                self.report.duplicates_ignored += 1;
                            }
                            return;
                        };
                        self.orphans.remove(pos).expect("position just found").job
                    }
                };
                self.report.results_received += 1;
                // A consumed result proves the post-regeneration pipeline is
                // flowing again: close any open `recompute` span.
                if let Some(span) = self.recompute.remove(&id) {
                    self.telemetry.span_end(Some(span));
                }
                let Some(job) = self.running.get_mut(&id) else {
                    // Job already cancelled, timed out or failed.
                    return;
                };
                match job.plan.accept(msg) {
                    Ok(Step::Continue | Step::Stale) => {}
                    Ok(Step::Entered(phase)) => {
                        job.roll_phase(&self.telemetry, id, Some(phase.name()));
                    }
                    Ok(Step::Complete) => self.complete_job(id, None),
                    Err(error) => self.fail_job(id, JobStatus::Failed, error),
                }
            }
        }
    }

    /// Publishes a finished job.  `inline` is the whole-job output of a
    /// shared-memory executor; a message-plane job's is assembled from its
    /// plan.
    fn complete_job(&mut self, id: JobId, inline: Option<FusionOutput>) {
        let Some(mut job) = self.running.remove(&id) else {
            return;
        };
        if let Some(span) = self.recompute.remove(&id) {
            self.telemetry.span_end(Some(span));
        }
        job.roll_phase(&self.telemetry, id, None);
        let (tenant, route) = (job.tenant, Some(job.backend));
        // Assembly runs after the roll, outside the `transform` span.
        match inline.map_or_else(|| job.plan.into_output(), Ok) {
            Ok(output) => {
                let latency = self
                    .telemetry
                    .span_end_with_detail(job.span, Some("completed"));
                if let Some(latency) = latency {
                    self.telemetry
                        .observe("fusiond_job_latency_seconds", &[], latency);
                }
                let (completed, output) = (JobStatus::Completed, Some(output));
                self.terminal_transition(id, tenant, completed, route, output, None);
            }
            Err(e) => {
                let error = e.to_string();
                self.telemetry
                    .span_end_with_detail(job.span, Some("failed"));
                let (failed, error) = (JobStatus::Failed, Some(error));
                self.terminal_transition(id, tenant, failed, route, None, error);
            }
        }
    }

    /// Removes a job with a non-success terminal status.  Its outstanding
    /// tasks stay in the table so their eventual results free the slots.
    fn fail_job(&mut self, id: JobId, status: JobStatus, error: String) {
        let Some(mut job) = self.running.remove(&id) else {
            return;
        };
        self.unsettled = true;
        if let Some(span) = self.recompute.remove(&id) {
            self.telemetry.span_end(Some(span));
        }
        job.roll_phase(&self.telemetry, id, None);
        self.telemetry
            .span_end_with_detail(job.span, Some(status.label()));
        let error = if error.is_empty() { None } else { Some(error) };
        let route = Some(job.backend);
        self.terminal_transition(id, job.tenant, status, route, None, error);
    }

    /// Fires every not-yet-fired chaos kill anchored to this dispatch event
    /// (the first task of `job`'s `phase`).  A kill naming no registered
    /// member misses: it fires, and nothing is killed, stamped or recorded.
    fn fire_chaos_kills(&mut self, job: JobId, phase: Phase) {
        if self.chaos.kills.is_empty() {
            return;
        }
        let span = self.running.get(&job).and_then(|j| j.phase_span);
        for (kill, fired) in self.chaos.kills.iter().zip(self.chaos_fired.iter_mut()) {
            if *fired || kill.job != job || kill.phase != phase {
                continue;
            }
            *fired = true;
            if self.pool.injector.attack(&kill.member) {
                // Stamp the kill time so the detection that eventually fires
                // can report its latency and back-date the `detect` span.
                self.telemetry.note_kill(&kill.member);
                let member = kill.member.clone();
                self.recorder
                    .record(ServiceEvent::MemberKilled { member }, span);
            }
        }
    }

    /// The watchdog's timer: sweep the detector and probe each suspect's
    /// mailbox.  Only a dead mailbox confirms a loss — anything else
    /// refreshes the lease.  Probing a remote worker rings its bridge
    /// mailbox: a bridge that lost its socket has exited and dropped the
    /// mailbox, so the probe reports `Disconnected` exactly as a dead
    /// thread's would.
    fn sweep_and_probe(&mut self) {
        let now_ms = self.now_ms();
        for suspect in self.watch.sweep(now_ms) {
            let probe = self
                .ctx
                .send(&suspect.routing_name(), PctMessage::Heartbeat);
            match (probe, self.pool.lane_of(&suspect.group)) {
                (Err(ScpError::Disconnected(_)), Some(lane)) => {
                    self.on_member_lost(lane, suspect, None)
                }
                _ => self.watch.heartbeat(&suspect, now_ms),
            }
        }
    }

    /// Handles one confirmed loss of a member of `lane`, the same on every
    /// lane: the lane's owner starts the member's next incarnation and
    /// re-issues to it what the group owes.  After a refusal, a group with
    /// survivors keeps its tasks in flight, and one left empty is retired.
    /// `unplaced` is a task whose send just found the group dead: it is
    /// placed if the group outlives the loss, and orphaned with it if not.
    fn on_member_lost(
        &mut self,
        lane: BackendKind,
        failed: MemberId,
        unplaced: Option<(TaskId, &str)>,
    ) {
        let group = failed.group.clone();
        // The loss's telemetry hangs under the phase span of the job whose
        // tasks were riding on the group (if any).
        let affected = self
            .tasks
            .values()
            .find_map(|inflight| (inflight.group == group).then_some(inflight.job));
        let parent = affected.and_then(|id| self.running.get(&id).and_then(|j| j.phase_span));
        let member = failed.routing_name();
        // A stamped kill back-dates the `detect` span, so its width *is* the
        // detection latency.
        if let Some(kill) = self.telemetry.take_kill(&member) {
            let now = self.telemetry.now_nanos().unwrap_or(kill);
            let latency = Duration::from_nanos(now.saturating_sub(kill));
            self.telemetry
                .observe("fusiond_detection_latency_seconds", &[], latency);
            self.telemetry
                .span_closed("detect", parent, affected, kill, &member);
        }
        self.watch.unwatch(&failed);
        let started = self.telemetry.now_nanos();
        // What the group owes, re-issued to the replacement (view payloads
        // make the message clones `Arc` bumps).
        let owed = self.tasks.values().filter(|t| t.group == group);
        let state = self
            .pool
            .lanes
            .get_mut(&lane)
            .expect("a message-plane lane");
        let result = state.handle_member_failure(&self.ctx, &failed, owed.map(|t| &t.message));
        if result.is_err()
            && state
                .groups
                .get(&group)
                .is_some_and(|g| g.members.is_empty())
        {
            return self.retire(lane, &group, &member, parent);
        }
        if let Some((task, from)) = unplaced {
            self.note_placed(task, from, lane, &group);
        }
        // A refused group with survivors keeps its tasks in flight.
        let Ok(Some(regen)) = result else {
            return;
        };
        if let Some(start) = started {
            self.telemetry
                .span_closed("regenerate", parent, affected, start, &member);
            let took = self.telemetry.now_nanos().unwrap_or(start) - start;
            self.telemetry.observe(
                "fusiond_regeneration_seconds",
                &[],
                Duration::from_nanos(took),
            );
        }
        // The re-issued tasks now recompute lost work; the span closes when
        // the job next consumes a result.
        if let Some(id) = affected.filter(|id| !self.recompute.contains_key(id)) {
            let span = self
                .telemetry
                .span_start("recompute", parent, Some(id), &group);
            self.recompute.extend(span.map(|span| (id, span)));
        }
        // The re-issue just delivered these tasks afresh; restart their
        // retransmit timers so they are not re-sent on the old deadline.
        for inflight in self.tasks.values_mut().filter(|t| t.group == group) {
            inflight.sent_at = self.now;
        }
        self.watch.watch(regen.replacement.clone(), self.now_ms());
        let regenerated = ServiceEvent::MemberRegenerated {
            failed: member,
            replacement: regen.replacement.routing_name(),
        };
        self.recorder.record(regenerated, parent);
    }

    /// Retires `group`, left empty by the loss of `member`: it leaves its
    /// lane's owner and free list, its in-flight tasks are orphaned for
    /// re-dispatch to the lane's other groups, and the lane fails over once
    /// it has none.
    fn retire(&mut self, lane: BackendKind, group: &str, member: &str, parent: Option<SpanId>) {
        if let Some(state) = self.pool.lanes.get_mut(&lane) {
            state.groups.remove(group);
        }
        self.free.entry(lane).or_default().retain(|g| g != group);
        self.unsettled = true;
        let worker = member.to_string();
        self.recorder
            .record(ServiceEvent::WorkerLost { worker }, parent);
        // Orphan every task the group was holding, dropping tasks of
        // already-terminal jobs on the floor.
        let orphaned: Vec<TaskId> = self
            .tasks
            .iter()
            .filter_map(|(task, inflight)| (inflight.group == group).then_some(*task))
            .collect();
        for task in orphaned {
            let inflight = self.tasks.remove(&task).expect("key just listed");
            if self.running.contains_key(&inflight.job) {
                self.orphans.push_back(Orphan {
                    task,
                    job: inflight.job,
                    message: inflight.message,
                    attempts: inflight.attempts.saturating_add(1),
                    from: member.to_string(),
                });
            }
        }
        if self.pool.capacity(lane) == 0 {
            self.fail_over_jobs(lane);
        }
    }

    /// Re-dispatches orphaned tasks through [`Scheduler::place`].  Orphans
    /// whose lane has no free slot right now stay queued; the result that
    /// frees one starts the turn that places them.
    /// A group retired while draining may orphan more tasks onto the queue
    /// being drained — they get their turn in this same loop.
    fn dispatch_orphans(&mut self) {
        let mut deferred: VecDeque<Orphan> = VecDeque::new();
        while let Some(orphan) = self.orphans.pop_front() {
            deferred.extend(self.place(orphan));
        }
        self.orphans = deferred;
    }

    /// Records the in-flight `task` landing on the group `to`: a
    /// reassignment if it was ever delivered to a lost member (`from`), a
    /// (possibly deferred) first dispatch otherwise.
    fn note_placed(&mut self, task: TaskId, from: &str, route: BackendKind, to: &str) {
        let placed = &self.tasks[&task];
        let (job, kind) = (placed.job, placed.message.kind());
        let span = self.running.get(&job).and_then(|j| j.phase_span);
        let placed = if from.is_empty() {
            ServiceEvent::Dispatched {
                job,
                route,
                task,
                kind,
            }
        } else {
            ServiceEvent::TaskReassigned {
                job,
                task,
                from: from.to_string(),
                to: to.to_string(),
            }
        };
        self.recorder.record(placed, span);
    }

    /// A message-plane lane drained to zero groups: move every running job
    /// of that lane to another enabled lane through the size rule and the
    /// lane clamp instead of failing it — but fail a job on
    /// the paper's protocol, which no other lane runs.  Queued jobs need
    /// nothing — admission resolves against the live snapshot, which now
    /// reads the lane as disabled.
    fn fail_over_jobs(&mut self, lane: BackendKind) {
        let stranded: Vec<JobId> = self
            .running
            .iter()
            .filter(|(_, job)| job.backend == lane)
            .map(|(id, _)| *id)
            .collect();
        if stranded.is_empty() {
            return;
        }
        let snapshot = self.lane_snapshot();
        for id in stranded {
            let Some(job) = self.running.get(&id) else {
                continue;
            };
            let bytes = job.plan.cube().dims().byte_size() as u64;
            let (target, _) = self.governor.resolve(Route::Auto, bytes, &snapshot);
            // No other lane runs the paper's protocol; the clamp may have
            // found no other enabled lane.
            if job.protocol == Protocol::Paper || target == lane || !snapshot.lane(target).enabled()
            {
                let error = format!(
                    "{} lane drained and no other lane can run the job",
                    lane.label()
                );
                self.fail_job(id, JobStatus::Failed, error);
                continue;
            }
            let job = self.running.get_mut(&id).expect("present: checked above");
            job.backend = target;
            if target == BackendKind::SharedMemory {
                // The inline lane recomputes the whole job from the shared
                // cube; partial message-plane progress (the plan, orphans)
                // is abandoned rather than merged, and the phase tree rolls
                // to `inline` like a natively-routed inline job's.
                job.inline_dispatched = false;
                job.roll_phase(&self.telemetry, id, Some("inline"));
                self.orphans.retain(|o| o.job != id);
            }
            let span = self.running.get(&id).and_then(|j| j.phase_span);
            let failover = ServiceEvent::LaneFailover {
                job: id,
                from: lane,
                to: target,
            };
            self.recorder.record(failover, span);
        }
    }

    /// Re-sends tasks that have gone unanswered past their backoff (the
    /// shared [`backoff_factor`] policy) to every *current* member of their
    /// group — covering a send lost in transit, or a member that died
    /// holding the only copy, which regeneration-only re-issue would never
    /// repair.  Retransmits are idempotent: members recompute and the
    /// result plane dedups by task id.
    fn retransmit_overdue_tasks(&mut self) {
        let now = self.now;
        let overdue: Vec<(TaskId, BackendKind, String, PctMessage)> = self
            .tasks
            .iter()
            .filter(|(_, inflight)| now >= inflight.retransmit_due())
            .map(|(task, t)| (*task, t.lane, t.group.clone(), t.message.clone()))
            .collect();
        for (task, lane, group, message) in overdue {
            // Gone only if a retirement earlier in this loop orphaned it.
            let Some(inflight) = self.tasks.get_mut(&task) else {
                continue;
            };
            // The timer restarts whatever becomes of the send: a deadline
            // left in the past would turn the blocked loop into a spin.
            inflight.sent_at = now;
            inflight.attempts = inflight.attempts.saturating_add(1);
            let job = inflight.job;
            let Ok(dead) = self.pool.lanes[&lane].group_send(&self.ctx, &group, &message) else {
                continue;
            };
            let span = self.running.get(&job).and_then(|j| j.phase_span);
            let retransmitted = ServiceEvent::Retransmitted { job, task, group };
            self.recorder.record(retransmitted, span);
            for failed in dead {
                self.on_member_lost(lane, failed, None);
            }
        }
    }

    /// Records a completed task id in the bounded duplicate window (replica
    /// results and retransmit echoes for it may still be in flight).
    fn remember_completed(&mut self, task: TaskId) {
        if self.completed_tasks.insert(task) {
            self.completed_order.push_back(task);
            if self.completed_order.len() > DEDUP_WINDOW {
                if let Some(evicted) = self.completed_order.pop_front() {
                    self.completed_tasks.remove(&evicted);
                }
            }
        }
    }

    /// Abandons jobs whose deadline has come.
    fn enforce_deadlines(&mut self) {
        let now = self.now;
        let expired: Vec<JobId> = self
            .running
            .iter()
            .filter_map(|(id, job)| match job.deadline {
                Some(deadline) if now >= deadline => Some(*id),
                _ => None,
            })
            .collect();
        for id in expired {
            self.fail_job(id, JobStatus::TimedOut, String::new());
        }
    }

    /// Tears the pool down and closes the books.
    fn finalize(mut self) -> ServiceReport {
        // Anything still tracked at this point (abnormal exit) fails.
        let leftover: Vec<JobId> = self.running.keys().copied().collect();
        for id in leftover {
            self.fail_job(id, JobStatus::Failed, "service stopped".to_string());
        }
        while let Some(queued) = self.governor.next() {
            let (error, tenant) = (Some("service stopped".to_string()), queued.spec.tenant);
            self.terminal_transition(queued.id, tenant, JobStatus::Failed, None, None, error);
        }
        // A member attacked too late for a probe or a send to find it gone —
        // a kill at shutdown — is as lost as one they found: the books close
        // with every attacked member regenerated or its group retired.
        let attacked = self.pool.injector.attack_log();
        let lost: Vec<(BackendKind, MemberId)> = self
            .pool
            .lanes
            .iter()
            .flat_map(|(lane, state)| state.members().into_iter().map(|m| (*lane, m)))
            .filter(|(_, member)| attacked.contains(&member.routing_name()))
            .collect();
        for (lane, member) in lost {
            self.on_member_lost(lane, member, None);
        }
        self.pool.shutdown(&self.ctx);
        self.report.queue_high_water = self.governor.queue_high_water();
        let mut report = self.recorder.report().with_measurements(self.report);
        self.governor.fold_into(&mut report);
        report
    }
}

/// The scheduler of a hosted service ([`crate::FusionService::hosted`]),
/// turned by its host instead of a thread of its own: the same turn the
/// threaded service runs, at instants the host chooses.
pub struct HostedScheduler(pub(crate) Scheduler);

impl HostedScheduler {
    /// One scheduler turn at `now`: consumes `woke` and everything else in
    /// the manager mailbox, runs the timers due at `now`, admits and
    /// dispatches.  Returns the earliest deadline still armed — the host
    /// turns again by then — or `None` when nothing becomes due by itself.
    pub fn turn(&mut self, now: Instant, woke: Option<Envelope<PctMessage>>) -> Option<Instant> {
        self.0.turn(now, woke)
    }

    /// Whether the service has drained: nothing queued, running, in flight
    /// or orphaned, no recompute span open, and every execution slot free.
    pub fn idle(&self) -> bool {
        let s = &self.0;
        s.running.is_empty()
            && s.tasks.is_empty()
            && s.orphans.is_empty()
            && s.recompute.is_empty()
            && s.governor.queue_depth() == 0
            && (s.free.iter()).all(|(lane, free)| free.len() == s.pool.capacity(*lane))
    }

    /// Shuts the service down and closes the books: admission closes,
    /// anything still queued or running fails, the pool is torn down, and
    /// the report [`crate::FusionService::shutdown`] would return comes back.
    pub fn finish(self) -> ServiceReport {
        let scheduler = self.0;
        scheduler.shutdown.store(true, Ordering::Release);
        scheduler.governor.close();
        scheduler.finalize()
    }
}

/// The timers, without sleeping: no thread runs these schedulers, the tests
/// call [`Scheduler::turn`] with times of their choosing.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::QueuedJob;
    use crate::config::{PoolConfig, ServiceConfig};
    use crate::job::{CubeSource, JobSpec, Protocol};
    use crate::status::JobRecord;
    use hsi::SceneConfig;
    use pct::distributed::{handle_task, MANAGER};

    /// A scheduler whose only threads are one shared-memory executor and
    /// the members of `replica_groups` level-2 groups.
    fn scheduler(replica_groups: usize) -> Scheduler {
        scheduler_at_level(replica_groups, 2)
    }

    /// The same, with groups of `level` members.
    fn scheduler_at_level(replica_groups: usize, level: usize) -> Scheduler {
        let config = ServiceConfig::builder()
            .pool(PoolConfig {
                standard_workers: 0,
                replica_groups,
                replication_level: level,
                shared_memory_executors: 1,
                ..PoolConfig::default()
            })
            .build()
            .unwrap();
        let (pool, ctx) = WorkerPool::start(&config.pool, None).unwrap();
        let governor = AdmissionGovernor::new(config.queue_capacity, config.tenant_quotas.clone());
        Scheduler::new(
            Instant::now(),
            pool,
            ctx,
            Arc::new(governor),
            Arc::new(StatusTable::new()),
            Arc::default(),
            Arc::default(),
            config.max_in_flight,
            Arc::new(Recorder::default()),
            config.chaos.clone(),
            config.pool.detector,
            Telemetry::disabled(),
        )
    }

    /// The detector window.
    fn window(scheduler: &Scheduler) -> Duration {
        Duration::from_millis(scheduler.watch.config().failure_timeout_ms())
    }

    /// Adds a standard-lane worker — the level-1 group `name` — whose one
    /// member is the test itself: tasks sent to it queue in the returned
    /// context's mailbox, and nothing heartbeats or answers unless the test
    /// does.
    fn add_mute_worker(scheduler: &mut Scheduler, name: &str) -> ThreadContext<PctMessage> {
        let (member, lane) = (MemberId::new(name, 0), BackendKind::Standard);
        let worker = scheduler.pool.runtime.context(member.routing_name());
        let group = resilience::ReplicaGroup::new(name, 1);
        let state = scheduler.pool.lanes.get_mut(&lane).unwrap();
        state.groups.insert(name.into(), group);
        scheduler
            .free
            .entry(lane)
            .or_default()
            .push_back(name.into());
        scheduler.watch.watch(member, 0);
        worker.unwrap()
    }

    /// The free slots of `lane`.
    fn free(scheduler: &Scheduler, lane: BackendKind) -> Vec<&str> {
        scheduler.free[&lane].iter().map(String::as_str).collect()
    }

    /// Attacks the resilient member `name` and waits for its thread to exit.
    fn kill_and_wait(scheduler: &Scheduler, name: &str) {
        assert!(scheduler.pool.injector.attack(name));
        let start = Instant::now();
        while !scheduler.pool.lanes[&BackendKind::Resilient]
            .handles
            .iter()
            .any(|h| h.name == name && h.is_finished())
        {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{name} still runs"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A two-shard chain job of a small synthetic cube, pinned to `lane`.
    fn job(lane: BackendKind) -> crate::job::JobSpecBuilder {
        JobSpec::builder(CubeSource::Synthetic(SceneConfig::small(3)))
            .pinned(lane)
            .shards(2)
    }

    fn submit(scheduler: &Scheduler, id: JobId, spec: JobSpec) {
        scheduler.status.insert(id, JobRecord::queued());
        let queued = QueuedJob {
            id,
            spec,
            span: None,
            queued_span: None,
        };
        scheduler.governor.submit(queued, false).unwrap();
    }

    /// A synthetic unanswered task on `group`, last sent at `sent_at`.
    fn add_group_task(scheduler: &mut Scheduler, task: TaskId, group: &str, sent_at: Instant) {
        scheduler.tasks.insert(
            task,
            InFlight {
                job: 0,
                lane: BackendKind::Resilient,
                group: group.to_string(),
                // Members ignore it: only the timer is under test.
                message: PctMessage::Heartbeat,
                sent_at,
                attempts: 0,
            },
        );
    }

    #[test]
    fn a_job_timeout_is_a_deadline_and_fires_at_the_time_told() {
        let mut scheduler = scheduler(0);
        let worker = add_mute_worker(&mut scheduler, "mute");
        let timeout = Duration::from_millis(50);
        submit(
            &scheduler,
            1,
            job(BackendKind::Standard).timeout(timeout).build().unwrap(),
        );
        let t0 = scheduler.started;
        assert_eq!(scheduler.turn(t0, None), Some(t0 + timeout));
        assert_eq!(scheduler.status.status(1), Some(JobStatus::Running));
        assert_eq!(worker.pending(), 1, "first screening task dispatched");
        // Nothing is due one millisecond early: same state, same deadline.
        let early = t0 + timeout - Duration::from_millis(1);
        assert_eq!(scheduler.turn(early, None), Some(t0 + timeout));
        assert_eq!(scheduler.status.status(1), Some(JobStatus::Running));
        // Told a time past the deadline, the turn abandons the job and the
        // detector (nobody heartbeat since t0) owns the next deadline, ahead
        // of the outstanding task's retransmit.
        let late = t0 + Duration::from_millis(60);
        assert!(window(&scheduler) < RETRANSMIT_AFTER);
        assert_eq!(scheduler.turn(late, None), Some(t0 + window(&scheduler)));
        assert_eq!(scheduler.status.status(1), Some(JobStatus::TimedOut));
        assert_eq!(scheduler.recorder.report().jobs_timed_out, 1);
        assert_eq!(
            scheduler.tasks.len(),
            1,
            "the outstanding task stays tabled so its result frees the slot"
        );
        assert!(free(&scheduler, BackendKind::Standard).is_empty());
        // The late result does exactly that.
        let task = worker.recv().unwrap().payload;
        worker.send(MANAGER, handle_task(task).unwrap()).unwrap();
        scheduler.turn(late, None);
        assert!(scheduler.tasks.is_empty());
        assert_eq!(free(&scheduler, BackendKind::Standard), ["mute"]);
        scheduler.finalize();
    }

    #[test]
    fn an_idle_turn_returns_exactly_the_detector_deadline_and_does_not_spin() {
        let mut scheduler = scheduler(0);
        let t0 = scheduler.started;
        assert_eq!(
            scheduler.turn(t0, None),
            None,
            "nothing watched, nothing running: no timer, block until rung"
        );
        let worker = add_mute_worker(&mut scheduler, "mute");
        let window = window(&scheduler);
        let deadline = t0 + window;
        assert_eq!(scheduler.turn(t0, None), Some(deadline));
        // A turn with nothing due answers with the same deadline.
        let early = deadline - Duration::from_millis(1);
        assert_eq!(scheduler.turn(early, None), Some(deadline));
        assert_eq!(worker.pending(), 0, "not probed before its deadline");
        // At the deadline the suspect is probed; its mailbox is alive, so
        // its lease is refreshed and the timer moves a whole window on.
        assert_eq!(scheduler.turn(deadline, None), Some(deadline + window));
        assert_eq!(worker.pending(), 1, "probed once");
        assert_eq!(scheduler.recorder.report().workers_lost, 0);
        // A heartbeat moves it too.
        worker.send(MANAGER, PctMessage::Heartbeat).unwrap();
        let beat = deadline + Duration::from_millis(100);
        assert_eq!(scheduler.turn(beat, None), Some(beat + window));
        // A dead mailbox at the deadline confirms the loss and clears it.
        drop(worker);
        assert_eq!(scheduler.turn(beat + window, None), None);
        assert_eq!(scheduler.recorder.report().workers_lost, 1);
        scheduler.finalize();
    }

    #[test]
    fn one_deadline_confirms_a_silent_worker_and_a_silent_member_in_one_turn() {
        let mut scheduler = scheduler(1);
        // `rg0#0` dies without a word; whatever it said before is read by
        // the first turn, at t0.
        kill_and_wait(&scheduler, "rg0#0");
        let lost = add_mute_worker(&mut scheduler, "lost");
        let spare = add_mute_worker(&mut scheduler, "spare");
        submit(&scheduler, 1, job(BackendKind::Standard).build().unwrap());
        // Workers and members are watched from t0 by the one detector: one
        // deadline covers both lanes.
        let events = scheduler.recorder.subscribe();
        let t0 = scheduler.started;
        let deadline = t0 + window(&scheduler);
        assert_eq!(scheduler.turn(t0, None), Some(deadline));
        assert_eq!(lost.pending(), 1, "the chain's first link went to `lost`");
        // `lost` dies too; `spare` stays silent but alive, and `rg0#1`
        // heartbeats (or is probed alive).
        drop(lost);
        scheduler.turn(deadline, None);
        // Both losses are confirmed by the same turn's probes: the worker's
        // task moves to the spare, and the member is regenerated.
        assert_eq!(scheduler.recorder.report().workers_lost, 1);
        assert_eq!(scheduler.recorder.report().tasks_reassigned, 1);
        assert_eq!(spare.pending(), 2, "its probe, then the orphaned task");
        let regenerated: Vec<ServiceEvent> = events
            .drain()
            .filter(|e| matches!(e, ServiceEvent::MemberRegenerated { .. }))
            .collect();
        let replacement = "rg0#2".to_string();
        let failed = "rg0#0".to_string();
        let regeneration = ServiceEvent::MemberRegenerated {
            failed,
            replacement,
        };
        assert_eq!(regenerated, [regeneration]);
        assert_eq!(scheduler.recorder.report().regenerations, 1);
        let members = scheduler.pool.lanes[&BackendKind::Resilient].members();
        assert_eq!(members, [MemberId::new("rg0", 1), MemberId::new("rg0", 2)]);
        scheduler.finalize();
    }

    #[test]
    fn one_turn_fans_a_paper_job_out_over_free_groups_and_a_chain_job_one_link() {
        for (protocol, dispatched) in [(Protocol::Paper, 3), (Protocol::Chain, 1)] {
            let mut scheduler = scheduler(3);
            let spec = job(BackendKind::Resilient).protocol(protocol).shards(3);
            submit(&scheduler, 1, spec.build().unwrap());
            scheduler.turn(scheduler.started, None);
            // Both screen with the seeded task: every task of the paper's
            // fan-out, and the chain's first link, seeded with nothing.
            let seeds: Vec<usize> = scheduler
                .tasks
                .values()
                .map(|t| match &t.message {
                    PctMessage::ScreenSeededTask { seed, .. } => seed.len(),
                    other => panic!("{protocol:?} dispatched a {}", other.kind()),
                })
                .collect();
            assert_eq!(seeds, vec![0; dispatched], "{protocol:?}");
            let free = free(&scheduler, BackendKind::Resilient);
            assert_eq!(free.len(), 3 - dispatched, "{protocol:?}");
            scheduler.finalize();
        }
    }

    #[test]
    fn a_group_task_past_its_backoff_is_retransmitted_once_and_its_timer_moves() {
        let mut scheduler = scheduler(1);
        let t0 = scheduler.started;
        let base = RETRANSMIT_AFTER;
        add_group_task(&mut scheduler, 1, "rg0", t0);
        // No such group: `group_send` fails, and the timer must move anyway.
        add_group_task(&mut scheduler, 2, "ghost", t0);
        scheduler.turn(t0 + base - Duration::from_millis(1), None);
        assert_eq!(scheduler.recorder.report().tasks_retransmitted, 0);
        let now = t0 + base;
        let next = scheduler.turn(now, None).expect("timers armed");
        assert_eq!(
            scheduler.recorder.report().tasks_retransmitted,
            1,
            "rg0 only"
        );
        for task in [1, 2] {
            let inflight = &scheduler.tasks[&task];
            assert_eq!((inflight.sent_at, inflight.attempts), (now, 1), "{task}");
        }
        // Nothing is left due at `now`: the next deadline is ahead (the
        // detector's, or the doubled backoff), and a second turn at the
        // same instant re-sends nothing.
        assert!(next > now && next <= now + 2 * base);
        assert!(scheduler.turn(now, None) > Some(now));
        assert_eq!(scheduler.recorder.report().tasks_retransmitted, 1);
        scheduler.finalize();
    }

    #[test]
    fn a_refused_regeneration_retires_the_group_and_a_survivor_finishes_its_job() {
        let mut scheduler = scheduler_at_level(2, 1);
        // The replacement's name is taken, so its spawn is refused.
        let _squatter = scheduler.pool.runtime.context("rg0#1").unwrap();
        kill_and_wait(&scheduler, "rg0#0");
        submit(&scheduler, 1, job(BackendKind::Resilient).build().unwrap());
        // The turns are told one instant: no timer fires, only results move
        // the job.  The first task goes to rg0, whose dead member is found
        // by the send and cannot be replaced.
        let t0 = scheduler.started;
        scheduler.turn(t0, None);
        let give_up = Instant::now() + Duration::from_secs(20);
        while scheduler.status.status(1) == Some(JobStatus::Running) {
            let envelope = scheduler.ctx.recv_timeout(Duration::from_secs(5)).unwrap();
            scheduler.turn(t0, Some(envelope));
            assert!(Instant::now() < give_up, "the job never finished");
        }
        assert_eq!(scheduler.status.status(1), Some(JobStatus::Completed));
        let members = scheduler.pool.lanes[&BackendKind::Resilient].members();
        assert_eq!(members, [MemberId::new("rg1", 0)], "rg0 retired");
        assert!(!scheduler.pool.injector.targets().contains(&"rg0#1".into()));
        let report = scheduler.recorder.report();
        assert_eq!((report.workers_lost, report.tasks_reassigned), (1, 1));
        let resilient = scheduler.lane_snapshot().resilient;
        assert_eq!(resilient, LaneLoad { total: 1, free: 1 });
        let hosted = HostedScheduler(scheduler);
        assert!(hosted.idle(), "every slot is free again");
        hosted.0.finalize();
    }

    #[test]
    fn a_standard_task_lost_in_transit_is_sent_again_at_its_retransmit_deadline() {
        let mut scheduler = scheduler(0);
        let worker = add_mute_worker(&mut scheduler, "mute");
        submit(&scheduler, 1, job(BackendKind::Standard).build().unwrap());
        let t0 = scheduler.started;
        let due = t0 + RETRANSMIT_AFTER;
        scheduler.turn(t0, None);
        // The worker heartbeats, but the task never reaches it.
        let lost = worker.recv().unwrap().payload;
        worker.send(MANAGER, PctMessage::Heartbeat).unwrap();
        let early = due - Duration::from_millis(1);
        assert_eq!(scheduler.turn(early, None), Some(due));
        assert_eq!(scheduler.recorder.report().tasks_retransmitted, 0);
        scheduler.turn(due, None);
        assert_eq!(scheduler.recorder.report().tasks_retransmitted, 1);
        assert_eq!(scheduler.recorder.report().workers_lost, 0);
        let again = worker.recv().unwrap().payload;
        assert_eq!(again.task(), lost.task());
        // Its answer moves the chain on; a late echo is a duplicate.
        let reply = handle_task(again).unwrap();
        worker.send(MANAGER, reply.clone()).unwrap();
        worker.send(MANAGER, reply).unwrap();
        scheduler.turn(due, None);
        assert_eq!(scheduler.report.duplicates_ignored, 1);
        assert_eq!(worker.pending(), 1, "the chain's next link");
        scheduler.finalize();
    }
}
