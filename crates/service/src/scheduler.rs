//! The batch scheduler: admits jobs from the queue, resolves their routes,
//! shards them, and multiplexes their tasks over the shared pool.
//!
//! The scheduler is event-driven.  Everything it reacts to arrives in the one
//! mailbox it blocks on — results and heartbeats from the pool, and a
//! [`Doorbell`] ring from whoever changed something it would otherwise have
//! to poll (a submission, a cancellation, the shutdown flag, a finished
//! shared-memory job) — and every periodic duty is an explicit deadline:
//! both failure detectors, the group-retransmit backoff and the job
//! timeouts.  One [`Scheduler::turn`] is a function of the time it is told:
//! consume what arrived (mailbox, shared-memory results, cancellations), run
//! the timers that are due, admit, dispatch, and answer with the next
//! deadline.  Nothing that can make a task runnable — a confirmed loss, a
//! lane failover, a regeneration, an orphan — happens after the last
//! dispatch of a turn, because no later event would pick it up.
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
//! execution slots of its lane (standard workers, replica groups,
//! shared-memory executors, or remote worker processes).  Each message-plane
//! job owns a [`pct::plan::ChainPlan`] — seeded screening chain → one derive
//! task → transform fan-out, byte-identical to the sequential reference —
//! which alone decides which task comes next and what a result means.  The
//! scheduler decides everything else: which slot runs a task
//! ([`Scheduler::place`], the one function that sends one), and what happens
//! when the slot dies.
//!
//! Shared-memory jobs skip the message plane entirely: the whole job is
//! handed to an in-process executor that runs the sequential reference over
//! the shared cube — byte-identical by construction.
//!
//! A job's lane comes from its [`Route`]: pinned by the caller, or resolved
//! at admission by the service's [`crate::RoutingPolicy`] from the job shape
//! and the live lane loads.  Every resolution is counted per route in the
//! [`ServiceReport`] and published on the [`ServiceEvent`] stream.
//!
//! The resilient lane reuses [`pct::ResilientManagerState`], the state
//! `pct::ResilientPct` builds per run: heartbeats are consumed here,
//! silence-flagged members are probed, dead members are regenerated and the
//! tasks their groups owe re-issued, and duplicate replica results are
//! discarded by task id — all without disturbing job outputs.
//!
//! The standard lane gets the same *detection* without the replication: a
//! [`resilience::FailureDetector`] watches every worker's heartbeats
//! (silence is confirmed with a mailbox probe, exactly the
//! `sweep_and_probe` pattern).  A confirmed loss orphans the worker's
//! in-flight tasks, which are re-dispatched to surviving workers —
//! idempotent by task id, byte-identical because every task message is
//! deterministic in its inputs.  If the lane drains to zero workers, each
//! running standard job *fails over* through the routing policy to another
//! enabled lane (replica groups re-run the orphaned tasks; the shared-memory
//! lane recomputes the whole job inline) instead of failing.  Queued jobs
//! need no special handling: admission resolves routes against the live
//! lane snapshot, which now reads the drained lane as disabled.
//!
//! The remote lane rides the same watchdog.  Remote workers are plain
//! routing names behind bridges (see [`crate::remote`]); a killed
//! worker *process* closes its socket, its bridge exits, and the probe's
//! `Disconnected` confirms the loss exactly as for a dead thread — the
//! orphan/re-dispatch/failover path is shared code, not a parallel copy.

use crate::admission::{AdmissionGovernor, TenantId};
use crate::chaos::ChaosPlan;
use crate::events::{EventBus, ServiceEvent};
use crate::job::{BackendKind, JobId, JobStatus, Priority};
use crate::pool::{Doorbell, InlineJob, InlineResult, WorkerPool};
use crate::report::ServiceReport;
use crate::routing::{LaneLoad, LaneSnapshot, Route, RoutingRequest};
use crate::status::StatusTable;
use hsi::partition::partition_rows;
use hsi::CloneLedger;
use pct::messages::{PctMessage, TaskId};
use pct::plan::{ChainPlan, Phase, Step};
use pct::resilient::backoff_factor;
use pct::FusionOutput;
use resilience::{DetectorConfig, FailureDetector, MemberId};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};
use telemetry::{SpanId, Telemetry};

use scp::{Envelope, ScpError, ThreadContext};

/// Which pool slot a task occupies.
#[derive(Debug, Clone)]
enum Assignee {
    Worker(String),
    Group(String),
}

/// One dispatched, not-yet-answered task.
struct InFlight {
    job: JobId,
    assignee: Assignee,
    /// Kept for re-issue when a replica-group member is regenerated; view
    /// payloads make holding and cloning this an `Arc` bump.
    message: PctMessage,
    /// When the task was last (re)transmitted.
    sent_at: Instant,
    /// Retransmissions so far (drives [`backoff_factor`]).
    attempts: u32,
}

impl InFlight {
    /// The group a group-lane task rides on and when it is next due for
    /// retransmission (`base` is the lane's retransmit timeout).  Worker-lane
    /// tasks are re-dispatched on a confirmed loss instead and arm no timer.
    fn retransmit_due(&self, base: Duration) -> Option<(&str, Instant)> {
        match &self.assignee {
            Assignee::Group(group) => {
                Some((group, self.sent_at + base * backoff_factor(self.attempts)))
            }
            Assignee::Worker(_) => None,
        }
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
    /// Deliveries so far (carried into the new [`InFlight`] so group
    /// retransmit backoff keeps compounding across reassignments).
    attempts: u32,
    /// The worker that was lost holding the task; empty for a task that
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
    /// The job's protocol state; abandoned if the job runs (or is failed
    /// over to run) on the shared-memory lane.
    plan: ChainPlan,
    /// Shard count, for routing decisions.
    shards: usize,
    deadline: Option<Instant>,
    submitted: Instant,
    /// Shared-memory lane: whether the whole job is already on an executor.
    inline_dispatched: bool,
    /// Root telemetry span of the job's phase tree (carried over from
    /// submission; `None` when telemetry is disabled).
    span: Option<SpanId>,
    /// The currently open phase span, a child of `span`.
    phase_span: Option<SpanId>,
    /// Name of the current phase, labelling its histogram and report rows.
    phase_name: &'static str,
    /// When the current phase was entered — the report's duration source
    /// when telemetry is disabled and spans return nothing.
    phase_entered: Instant,
}

impl JobRun {
    /// Closes the open phase span at `now`, accounting its duration into
    /// the phase histogram and the report's per-phase totals, then opens the
    /// span of `next` (when the job is moving on rather than terminating).
    /// Takes the scheduler's parts, so it can run while the job is borrowed
    /// out of the run table.
    fn roll_phase(
        &mut self,
        telemetry: &Telemetry,
        report: &mut ServiceReport,
        id: JobId,
        next: Option<&'static str>,
        now: Instant,
    ) {
        let ended = telemetry
            .span_end(self.phase_span.take())
            .unwrap_or_else(|| now.saturating_duration_since(self.phase_entered));
        telemetry.observe(
            "fusiond_phase_duration_seconds",
            &[("phase", self.phase_name)],
            ended,
        );
        report.record_phase(self.phase_name, ended);
        if let Some(name) = next {
            self.phase_span = telemetry.span_start(name, self.span, Some(id), "");
            self.phase_name = name;
            self.phase_entered = now;
        }
    }
}

/// How many recently completed group-lane task ids are remembered for
/// duplicate accounting.  Only replica groups produce duplicates (level - 1
/// extra results per task, plus re-issues), and those arrive promptly, so a
/// small bounded window keeps `duplicates_ignored` accurate without growing
/// with service lifetime.  An evicted id merely stops being counted.
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
    events: Arc<EventBus>,
    running: BTreeMap<JobId, JobRun>,
    /// Every table the turn iterates is ordered, so what it does with them —
    /// the order of retransmits and orphans, which job a loss is charged to —
    /// is a function of the turn's inputs, the same on every replay.
    tasks: BTreeMap<TaskId, InFlight>,
    completed_group_tasks: HashSet<TaskId>,
    completed_group_order: VecDeque<TaskId>,
    cancelled_queued: HashSet<JobId>,
    free_workers: VecDeque<String>,
    free_groups: VecDeque<String>,
    free_inline: VecDeque<String>,
    free_remote: VecDeque<String>,
    next_task: TaskId,
    /// The worker watchdog of the standard *and* remote lanes: heartbeat
    /// silence flags a suspect, a mailbox probe confirms (workers are keyed
    /// as incarnation-0 [`MemberId`]s so the shared detector fits
    /// unchanged).  Remote workers heartbeat over the wire through their
    /// bridges, so one detector covers both sides of the process boundary.
    standard_watch: FailureDetector,
    /// Tasks of lost workers awaiting re-dispatch, oldest first.
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
    report: ServiceReport,
    chaos: ChaosPlan,
    chaos_fired: Vec<bool>,
    regenerations_seen: usize,
    telemetry: Telemetry,
    /// Open `recompute` spans: jobs whose group tasks were re-issued after a
    /// regeneration, closed when the job next consumes a result (or ends).
    recompute: BTreeMap<JobId, SpanId>,
}

impl Scheduler {
    /// A scheduler over `pool` whose clock starts at `started`: the
    /// detectors' millisecond clock counts from there.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        started: Instant,
        pool: WorkerPool,
        ctx: ThreadContext<PctMessage>,
        governor: Arc<AdmissionGovernor>,
        status: Arc<StatusTable>,
        cancels: Arc<Mutex<Vec<JobId>>>,
        shutdown: Arc<AtomicBool>,
        max_in_flight: usize,
        events: Arc<EventBus>,
        chaos: ChaosPlan,
        standard_detector: DetectorConfig,
        telemetry: Telemetry,
    ) -> Self {
        let mut standard_watch = FailureDetector::new(standard_detector);
        for name in pool.standard.iter().chain(&pool.remote.workers) {
            standard_watch.watch(MemberId::new(name.clone(), 0), 0);
        }
        let free_workers = pool.standard.iter().cloned().collect();
        let free_remote = pool.remote.workers.iter().cloned().collect();
        let free_groups = pool.groups.iter().cloned().collect();
        let free_inline = pool.inline.executors.iter().cloned().collect();
        let chaos_fired = vec![false; chaos.kills.len()];
        let report = ServiceReport {
            started_at: Some(SystemTime::now()),
            ..ServiceReport::default()
        };
        Self {
            pool,
            ctx,
            governor,
            status,
            cancels,
            shutdown,
            max_in_flight: max_in_flight.max(1),
            events,
            running: BTreeMap::new(),
            tasks: BTreeMap::new(),
            completed_group_tasks: HashSet::new(),
            completed_group_order: VecDeque::new(),
            cancelled_queued: HashSet::new(),
            free_workers,
            free_groups,
            free_inline,
            free_remote,
            next_task: 1,
            standard_watch,
            orphans: VecDeque::new(),
            started,
            now: started,
            unsettled: false,
            report,
            chaos,
            chaos_fired,
            regenerations_seen: 0,
            telemetry,
            recompute: BTreeMap::new(),
        }
    }

    /// The current turn's time on the detectors' millisecond clock.
    fn now_ms(&self) -> u64 {
        self.now.saturating_duration_since(self.started).as_millis() as u64
    }

    /// The live occupancy of every lane, handed to the routing policy.
    fn lane_snapshot(&self) -> LaneSnapshot {
        LaneSnapshot {
            standard: LaneLoad {
                total: self.pool.standard.len(),
                free: self.free_workers.len(),
            },
            resilient: LaneLoad {
                total: self.pool.groups.len(),
                free: self.free_groups.len(),
            },
            shared_memory: LaneLoad {
                total: self.pool.inline.executors.len(),
                free: self.free_inline.len(),
            },
            remote: LaneLoad {
                total: self.pool.remote.workers.len(),
                free: self.free_remote.len(),
            },
        }
    }

    /// The scheduler main loop; returns the final report at shutdown.
    pub fn run(mut self) -> ServiceReport {
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
        self.maintain_resilient();
        self.maintain_standard();
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

    /// The earliest armed timer: either failure detector's next suspicion,
    /// the next group retransmit, the next job timeout.  Each is moved or
    /// cleared by the duty it triggers, so a deadline returned twice means
    /// nothing was due.
    fn next_deadline(&self) -> Option<Instant> {
        let detectors = [
            self.pool.resilient.next_sweep_ms(),
            self.standard_watch.next_deadline_ms(),
        ];
        let retransmit_after = self.pool.resilient.retransmit_after;
        detectors
            .into_iter()
            .flatten()
            .map(|ms| self.started + Duration::from_millis(ms))
            .chain(
                self.tasks
                    .values()
                    .filter_map(|inflight| inflight.retransmit_due(retransmit_after))
                    .map(|(_, due)| due),
            )
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
    /// admission governor (releasing its in-flight bytes and crediting the
    /// tenant), and publishes the event.
    fn terminal_transition(
        &mut self,
        id: JobId,
        tenant: TenantId,
        status: JobStatus,
        output: Option<FusionOutput>,
        error: Option<String>,
    ) {
        self.governor.note_terminal(id, tenant, status);
        self.status.transition(id, status, output, error);
        self.events.publish(ServiceEvent::Terminal {
            job: id,
            tenant,
            status,
        });
    }

    /// Admits queued jobs while in-flight capacity remains, resolving each
    /// job's route against the live lane snapshot.
    fn admit(&mut self) {
        while self.running.len() < self.max_in_flight {
            let Some(queued) = self.governor.next() else {
                break;
            };
            let tenant = queued.spec.tenant;
            self.report.jobs_submitted += 1;
            if self.cancelled_queued.remove(&queued.id) {
                self.report.jobs_cancelled += 1;
                self.telemetry
                    .span_end_with_detail(queued.queued_span, Some("cancelled"));
                self.telemetry
                    .span_end_with_detail(queued.span, Some("cancelled"));
                self.terminal_transition(queued.id, tenant, JobStatus::Cancelled, None, None);
                continue;
            }
            let cube = match queued.spec.source.realize() {
                Ok(cube) => cube,
                Err(e) => {
                    self.report.jobs_failed += 1;
                    self.telemetry
                        .span_end_with_detail(queued.queued_span, Some("failed"));
                    self.telemetry
                        .span_end_with_detail(queued.span, Some("failed"));
                    self.terminal_transition(
                        queued.id,
                        tenant,
                        JobStatus::Failed,
                        None,
                        Some(e.to_string()),
                    );
                    continue;
                }
            };
            let shards = match partition_rows(cube.dims(), queued.spec.shards) {
                Ok(shards) => shards,
                Err(e) => {
                    self.report.jobs_failed += 1;
                    self.telemetry
                        .span_end_with_detail(queued.queued_span, Some("failed"));
                    self.telemetry
                        .span_end_with_detail(queued.span, Some("failed"));
                    self.terminal_transition(
                        queued.id,
                        tenant,
                        JobStatus::Failed,
                        None,
                        Some(e.to_string()),
                    );
                    continue;
                }
            };
            let request = RoutingRequest::for_dims(cube.dims(), shards.len());
            let (backend, auto_routed) =
                self.governor
                    .resolve(queued.spec.route, &request, &self.lane_snapshot());
            self.report.route_admitted(backend, auto_routed);
            // Close the `queued` span: its duration *is* the admission wait.
            let wait = self
                .telemetry
                .span_end(queued.queued_span)
                .unwrap_or_else(|| self.now.saturating_duration_since(queued.submitted));
            self.telemetry
                .observe("fusiond_admission_wait_seconds", &[], wait);
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
                shards: shards.len(),
                plan: ChainPlan::new(cube, queued.spec.config, shards.clone(), shards),
                deadline: queued.spec.timeout.map(|t| self.now + t),
                submitted: queued.submitted,
                inline_dispatched: false,
                span: queued.span,
                phase_span,
                phase_name,
                phase_entered: self.now,
            };
            self.status
                .transition(queued.id, JobStatus::Running, None, None);
            self.events.publish_correlated(
                ServiceEvent::Admitted {
                    job: queued.id,
                    tenant,
                    route: backend,
                    auto: auto_routed,
                },
                queued.span,
            );
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
        let Some(executor) = self.free_inline.pop_front() else {
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
            self.report.tasks_dispatched += 1;
            self.report.route_task(BackendKind::SharedMemory);
            self.events.publish(ServiceEvent::Dispatched {
                job: id,
                route: BackendKind::SharedMemory,
                task,
                kind: "inline-job",
            });
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
            let lane_free = match job.backend {
                BackendKind::Standard => !self.free_workers.is_empty(),
                BackendKind::Resilient => !self.free_groups.is_empty(),
                BackendKind::Remote => !self.free_remote.is_empty(),
                BackendKind::SharedMemory => unreachable!("handled by dispatch_inline"),
            };
            if !lane_free {
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
        let backend = self.running.get(&ready.job)?.backend;
        let (free, assignee): (_, fn(String) -> Assignee) = match backend {
            BackendKind::Standard => (&mut self.free_workers, Assignee::Worker),
            BackendKind::Remote => (&mut self.free_remote, Assignee::Worker),
            BackendKind::Resilient => (&mut self.free_groups, Assignee::Group),
            BackendKind::SharedMemory => return None,
        };
        let Some(slot) = free.pop_front() else {
            return Some(ready);
        };
        // Recorded before sending, so a failure-triggered re-issue or
        // orphaning covers it; the record keeps the message, the slot gets
        // a copy.
        self.tasks.insert(
            ready.task,
            InFlight {
                job: ready.job,
                assignee: assignee(slot.clone()),
                message: ready.message,
                sent_at: self.now,
                attempts: ready.attempts,
            },
        );
        let message = &self.tasks[&ready.task].message;
        if backend != BackendKind::Resilient {
            if self.ctx.send(&slot, message.clone()).is_ok() {
                self.note_placed(ready.task, &ready.from, backend, &slot);
            } else {
                // Dead mailbox discovered at send time — the watchdog would
                // confirm it at its deadline, but the task is already
                // recorded in flight, so confirm the loss now: that orphans
                // the task (and may orphan more) for a later placement.
                self.on_worker_lost(&slot);
            }
            return None;
        }
        match self.pool.resilient.group_send(&self.ctx, &slot, message) {
            Ok(dead) => {
                self.note_placed(ready.task, &ready.from, backend, &slot);
                let now_ms = self.now_ms();
                for failed in dead {
                    self.recover_member(failed, now_ms);
                }
            }
            Err(e) => {
                self.tasks.remove(&ready.task);
                self.fail_job(ready.job, JobStatus::Failed, e.to_string());
            }
        }
        None
    }

    /// Consumes one finished whole-job result from the shared-memory lane.
    fn on_inline_result(&mut self, result: InlineResult) {
        self.free_inline.push_back(result.executor);
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
        let now_ms = self.now_ms();
        let from = envelope.from;
        match envelope.payload {
            PctMessage::Heartbeat => {
                self.report.heartbeats += 1;
                self.note_liveness(&from, now_ms);
            }
            msg => {
                // Any traffic from a member is proof of life.
                self.note_liveness(&from, now_ms);
                let Some(task) = msg.task() else { return };
                // A reply from a worker the task has been reassigned away
                // from (it got its answer out just before dying, after the
                // watchdog re-dispatched): the live assignment stands, the
                // stale copy is a duplicate.
                if let Some(InFlight {
                    assignee: Assignee::Worker(name),
                    ..
                }) = self.tasks.get(&task)
                {
                    if *name != from {
                        self.report.duplicates_ignored += 1;
                        return;
                    }
                }
                let id = if let Some(inflight) = self.tasks.remove(&task) {
                    match inflight.assignee {
                        Assignee::Worker(name) => {
                            if self.pool.remote.workers.contains(&name) {
                                self.free_remote.push_back(name);
                            } else {
                                self.free_workers.push_back(name);
                            }
                        }
                        Assignee::Group(name) => {
                            self.free_groups.push_back(name);
                            self.remember_completed_group_task(task);
                        }
                    }
                    inflight.job
                } else if let Some(pos) = self.orphans.iter().position(|o| o.task == task) {
                    // The lost worker got its reply out before dying:
                    // consume it and drop the pending re-dispatch (there is
                    // no slot to return — the worker is gone).
                    let orphan = self.orphans.remove(pos).expect("position just found");
                    orphan.job
                } else {
                    if self.completed_group_tasks.contains(&task) {
                        self.report.duplicates_ignored += 1;
                    }
                    return;
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
                        job.roll_phase(
                            &self.telemetry,
                            &mut self.report,
                            id,
                            Some(phase.name()),
                            self.now,
                        );
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
        job.roll_phase(&self.telemetry, &mut self.report, id, None, self.now);
        let tenant = job.tenant;
        // Assembly runs after the roll, outside the `transform` span.
        match inline.map_or_else(|| job.plan.into_output(), Ok) {
            Ok(output) => {
                self.telemetry
                    .span_end_with_detail(job.span, Some("completed"));
                self.report.jobs_completed += 1;
                self.report.route_completed(job.backend);
                let latency = self.now.saturating_duration_since(job.submitted);
                self.telemetry
                    .observe("fusiond_job_latency_seconds", &[], latency);
                self.report.record_latency(job.priority, latency);
                self.terminal_transition(id, tenant, JobStatus::Completed, Some(output), None);
            }
            Err(e) => {
                let error = e.to_string();
                self.telemetry
                    .span_end_with_detail(job.span, Some("failed"));
                self.telemetry.dump_failure(Some(id), &error);
                self.report.jobs_failed += 1;
                self.terminal_transition(id, tenant, JobStatus::Failed, None, Some(error));
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
        job.roll_phase(&self.telemetry, &mut self.report, id, None, self.now);
        let label = match status {
            JobStatus::Cancelled => "cancelled",
            JobStatus::TimedOut => "timed-out",
            _ => "failed",
        };
        self.telemetry.span_end_with_detail(job.span, Some(label));
        match status {
            JobStatus::Failed => self.report.jobs_failed += 1,
            JobStatus::Cancelled => self.report.jobs_cancelled += 1,
            JobStatus::TimedOut => self.report.jobs_timed_out += 1,
            _ => {}
        }
        if status == JobStatus::Failed {
            self.telemetry.dump_failure(Some(id), &error);
        }
        let error = if error.is_empty() { None } else { Some(error) };
        self.terminal_transition(id, job.tenant, status, None, error);
    }

    /// Fires every not-yet-fired chaos kill anchored to this dispatch event
    /// (the first task of `job`'s `phase`).
    fn fire_chaos_kills(&mut self, job: JobId, phase: Phase) {
        if self.chaos.kills.is_empty() {
            return;
        }
        let mut killed = Vec::new();
        for (kill, fired) in self.chaos.kills.iter().zip(self.chaos_fired.iter_mut()) {
            if !*fired && kill.job == job && kill.phase == phase {
                self.pool.resilient.injector.attack(&kill.member);
                // Stamp the kill time so the detection that eventually fires
                // can report its latency and back-date the `detect` span.
                self.telemetry.note_kill(&kill.member);
                killed.push(kill.member.clone());
                *fired = true;
            }
        }
        let span = self.running.get(&job).and_then(|j| j.phase_span);
        for member in killed {
            self.telemetry.instant("kill", Some(job), span, &member);
            self.events
                .publish_correlated(ServiceEvent::MemberKilled { member }, span);
        }
    }

    /// Resilient-lane timers: sweep, probe, retransmit, regenerate.
    fn maintain_resilient(&mut self) {
        if self.pool.groups.is_empty() {
            return;
        }
        let now_ms = self.now_ms();
        let failures = self.pool.resilient.sweep_and_probe(&self.ctx, now_ms);
        for failed in failures {
            self.recover_member(failed, now_ms);
        }
        self.retransmit_overdue_group_tasks();
    }

    /// Refreshes the failure-detector lease of whichever lane `from`
    /// belongs to.  `heartbeat_from` parses `group#incarnation` routing
    /// names and ignores everything else, so plain worker names never
    /// collide with it.
    fn note_liveness(&mut self, from: &str, now_ms: u64) {
        self.pool.resilient.heartbeat_from(from, now_ms);
        if self.pool.standard.iter().any(|w| w == from)
            || self.pool.remote.workers.iter().any(|w| w == from)
        {
            self.standard_watch
                .heartbeat(&MemberId::new(from, 0), now_ms);
        }
    }

    /// Standard/remote-lane timer: sweep the worker watchdog and probe the
    /// suspects' mailboxes (only a dead mailbox confirms a loss — anything
    /// else refreshes the lease, the `sweep_and_probe` pattern).  Probing a
    /// remote worker rings its bridge mailbox: a bridge that lost its socket
    /// has exited and dropped the mailbox, so the probe reports
    /// `Disconnected` exactly as a dead thread's would.
    fn maintain_standard(&mut self) {
        let now_ms = self.now_ms();
        for suspect in self.standard_watch.sweep(now_ms) {
            match self.ctx.send(&suspect.group, PctMessage::Heartbeat) {
                Err(ScpError::Disconnected(_)) => self.on_worker_lost(&suspect.group),
                _ => self.standard_watch.heartbeat(&suspect, now_ms),
            }
        }
    }

    /// Records a confirmed loss of `who` (a worker or a replica member) whose
    /// kill was stamped: the `detect` span is back-dated to the kill, so its
    /// width *is* the detection latency.
    fn note_detected(&self, who: &str, affected: Option<JobId>, parent: Option<SpanId>) {
        let Some(kill_nanos) = self.telemetry.take_kill(who) else {
            return;
        };
        if let Some(now) = self.telemetry.now_nanos() {
            self.telemetry.observe(
                "fusiond_detection_latency_seconds",
                &[],
                Duration::from_nanos(now.saturating_sub(kill_nanos)),
            );
        }
        self.telemetry
            .span_closed("detect", parent, affected, kill_nanos, who);
    }

    /// Handles one confirmed worker loss (standard thread or remote
    /// process): retire the worker, orphan its in-flight tasks for
    /// re-dispatch, and fail the lane over if it just drained to zero
    /// workers.
    fn on_worker_lost(&mut self, worker: &str) {
        let lane = if self.pool.standard.iter().any(|w| w == worker) {
            BackendKind::Standard
        } else if self.pool.remote.workers.iter().any(|w| w == worker) {
            BackendKind::Remote
        } else {
            // Already retired (a send failure and the watchdog can both
            // report the same loss).
            return;
        };
        if lane == BackendKind::Standard {
            self.pool.standard.retain(|w| w != worker);
            self.free_workers.retain(|w| w != worker);
        } else {
            self.pool.remote.workers.retain(|w| w != worker);
            self.free_remote.retain(|w| w != worker);
        }
        self.standard_watch.unwatch(&MemberId::new(worker, 0));
        self.unsettled = true;
        self.report.workers_lost += 1;
        // The loss's telemetry hangs under the phase span of the job whose
        // tasks were riding on the dead worker (if any).
        let affected = self.tasks.values().find_map(|inflight| {
            matches!(&inflight.assignee, Assignee::Worker(w) if w == worker).then_some(inflight.job)
        });
        let parent = affected.and_then(|id| self.running.get(&id).and_then(|j| j.phase_span));
        self.note_detected(worker, affected, parent);
        self.telemetry
            .instant("worker-lost", affected, parent, worker);
        self.events.publish_correlated(
            ServiceEvent::WorkerLost {
                worker: worker.to_string(),
            },
            parent,
        );
        // Orphan every task the dead worker was holding; dropping tasks of
        // already-terminal jobs on the floor.
        let orphaned: Vec<TaskId> = self
            .tasks
            .iter()
            .filter_map(|(task, inflight)| {
                matches!(&inflight.assignee, Assignee::Worker(w) if w == worker).then_some(*task)
            })
            .collect();
        for task in orphaned {
            let inflight = self.tasks.remove(&task).expect("key just listed");
            if self.running.contains_key(&inflight.job) {
                self.orphans.push_back(Orphan {
                    task,
                    job: inflight.job,
                    message: inflight.message,
                    attempts: inflight.attempts.saturating_add(1),
                    from: worker.to_string(),
                });
            }
        }
        let lane_empty = match lane {
            BackendKind::Standard => self.pool.standard.is_empty(),
            _ => self.pool.remote.workers.is_empty(),
        };
        if lane_empty {
            self.fail_over_jobs(lane);
        }
    }

    /// Re-dispatches orphaned tasks through [`Scheduler::place`].  Orphans
    /// whose lane has no free slot right now stay queued; the result that
    /// frees one starts the turn that places them.
    /// A worker found dead while draining may orphan more tasks onto the
    /// queue being drained — they get their turn in this same loop.
    fn dispatch_orphans(&mut self) {
        let mut deferred: VecDeque<Orphan> = VecDeque::new();
        while let Some(orphan) = self.orphans.pop_front() {
            deferred.extend(self.place(orphan));
        }
        self.orphans = deferred;
    }

    /// Accounts and publishes the in-flight `task` landing on the slot `to`:
    /// a reassignment if it was ever delivered to a lost worker (`from`), a
    /// (possibly deferred) first dispatch otherwise.
    fn note_placed(&mut self, task: TaskId, from: &str, route: BackendKind, to: &str) {
        let placed = &self.tasks[&task];
        let (job, kind) = (placed.job, placed.message.kind());
        let span = self.running.get(&job).and_then(|j| j.phase_span);
        if from.is_empty() {
            self.report.tasks_dispatched += 1;
            self.report.route_task(route);
            let dispatched = ServiceEvent::Dispatched {
                job,
                route,
                task,
                kind,
            };
            self.events.publish_correlated(dispatched, span);
        } else {
            self.report.tasks_reassigned += 1;
            self.telemetry
                .count("fusiond_worker_reassignments_total", &[]);
            self.telemetry.instant("reassign", Some(job), span, to);
            let reassigned = ServiceEvent::TaskReassigned {
                job,
                task,
                from: from.to_string(),
                to: to.to_string(),
            };
            self.events.publish_correlated(reassigned, span);
        }
    }

    /// A worker lane (`Standard` or `Remote`) drained to zero workers: move
    /// every running job of that lane to another enabled lane through the
    /// routing policy (honouring its lane clamps) instead of failing it.
    /// Queued jobs need nothing — admission resolves against the live
    /// snapshot, which now reads the lane as disabled.
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
            let request = RoutingRequest::for_dims(job.plan.cube().dims(), job.shards);
            let (target, _) = self.governor.resolve(Route::Auto, &request, &snapshot);
            if target == lane || !snapshot.lane(target).enabled() {
                // The clamp found no other enabled lane.
                self.fail_job(
                    id,
                    JobStatus::Failed,
                    format!(
                        "{} lane drained and no other lane is configured",
                        lane.label()
                    ),
                );
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
                job.roll_phase(
                    &self.telemetry,
                    &mut self.report,
                    id,
                    Some("inline"),
                    self.now,
                );
                self.orphans.retain(|o| o.job != id);
            }
            self.report.lane_failovers += 1;
            self.telemetry.count("fusiond_lane_failovers_total", &[]);
            let span = self.running.get(&id).and_then(|j| j.phase_span);
            self.telemetry
                .instant("lane-failover", Some(id), span, target.label());
            self.events.publish_correlated(
                ServiceEvent::LaneFailover {
                    job: id,
                    from: lane,
                    to: target,
                },
                span,
            );
        }
    }

    /// Re-sends group-lane tasks that have gone unanswered past their
    /// backoff (the shared [`backoff_factor`] policy) to every
    /// *current* member of their group — covering survivors that never
    /// received the original send, the same task-loss window
    /// `pct::ResilientPct`'s executor closes.  Retransmits are idempotent:
    /// workers recompute and the result plane dedups by task id.
    fn retransmit_overdue_group_tasks(&mut self) {
        let retransmit_after = self.pool.resilient.retransmit_after;
        let now = self.now;
        let overdue: Vec<(TaskId, String, PctMessage)> = self
            .tasks
            .iter()
            .filter_map(|(task, inflight)| {
                let (group, due) = inflight.retransmit_due(retransmit_after)?;
                (now >= due).then(|| (*task, group.to_string(), inflight.message.clone()))
            })
            .collect();
        let now_ms = self.now_ms();
        for (task, group, message) in overdue {
            // The timer restarts whatever becomes of the send: a deadline
            // left in the past would turn the blocked loop into a spin.
            let mut job = None;
            if let Some(inflight) = self.tasks.get_mut(&task) {
                inflight.sent_at = now;
                inflight.attempts = inflight.attempts.saturating_add(1);
                job = Some(inflight.job);
            }
            let Ok(dead) = self.pool.resilient.group_send(&self.ctx, &group, &message) else {
                continue;
            };
            self.report.tasks_retransmitted += 1;
            if let Some(job) = job {
                let span = self.running.get(&job).and_then(|j| j.phase_span);
                self.telemetry
                    .instant("retransmit", Some(job), span, &group);
                self.events.publish_correlated(
                    ServiceEvent::Retransmitted {
                        job,
                        task,
                        group: group.clone(),
                    },
                    span,
                );
            }
            for failed in dead {
                self.recover_member(failed, now_ms);
            }
        }
    }

    /// Records a completed group-lane task id in the bounded duplicate
    /// window (replica results for it may still be in flight).
    fn remember_completed_group_task(&mut self, task: TaskId) {
        if self.completed_group_tasks.insert(task) {
            self.completed_group_order.push_back(task);
            if self.completed_group_order.len() > DEDUP_WINDOW {
                if let Some(evicted) = self.completed_group_order.pop_front() {
                    self.completed_group_tasks.remove(&evicted);
                }
            }
        }
    }

    /// Regenerates a failed member; if regeneration is impossible, fails the
    /// jobs whose tasks were riding on that group.
    fn recover_member(&mut self, failed: MemberId, now_ms: u64) {
        let on_group = |inflight: &InFlight| match &inflight.assignee {
            Assignee::Group(g) => *g == failed.group,
            Assignee::Worker(_) => false,
        };
        // The failure's telemetry hangs under the phase span of the job
        // whose tasks were riding on the dead member's group (if any).
        let affected = self
            .tasks
            .values()
            .find_map(|inflight| on_group(inflight).then_some(inflight.job));
        let parent = affected.and_then(|id| self.running.get(&id).and_then(|j| j.phase_span));
        let member = failed.routing_name();
        self.note_detected(&member, affected, parent);
        let regen_span = self
            .telemetry
            .span_start("regenerate", parent, affected, &member);
        // What the group owes, re-issued to the replacement (view payloads
        // make the message clones `Arc` bumps).
        let owed = self
            .tasks
            .values()
            .filter(|t| on_group(t))
            .map(|t| &t.message);
        let result = self
            .pool
            .resilient
            .handle_member_failure(&self.ctx, now_ms, &failed, owed);
        if let Some(regen_time) = self.telemetry.span_end(regen_span) {
            self.telemetry
                .observe("fusiond_regeneration_seconds", &[], regen_time);
        }
        if result.is_ok() {
            // The re-issued tasks now recompute lost work; the span closes
            // when the job next consumes a result.
            if let Some(id) = affected {
                if !self.recompute.contains_key(&id) {
                    if let Some(span) =
                        self.telemetry
                            .span_start("recompute", parent, Some(id), &failed.group)
                    {
                        self.recompute.insert(id, span);
                    }
                }
            }
            // The re-issue just delivered these tasks afresh; restart their
            // retransmit timers so they are not re-sent on the old deadline.
            for inflight in self.tasks.values_mut().filter(|t| on_group(t)) {
                inflight.sent_at = self.now;
            }
            // Publish every regeneration the protocol performed since the
            // last look (normally exactly one).  The regenerator's history
            // is the live log; the run report only folds it in at shutdown.
            let history = self.pool.resilient.regenerator.history();
            for regen in &history[self.regenerations_seen..] {
                self.events.publish_correlated(
                    ServiceEvent::MemberRegenerated {
                        failed: regen.failed.routing_name(),
                        replacement: regen.replacement.routing_name(),
                    },
                    parent,
                );
            }
            self.regenerations_seen = self.pool.resilient.regenerator.history().len();
        }
        if let Err(e) = result {
            let affected: Vec<(TaskId, JobId)> = self
                .tasks
                .iter()
                .filter_map(|(task, inflight)| match &inflight.assignee {
                    Assignee::Group(group) if *group == failed.group => Some((*task, inflight.job)),
                    _ => None,
                })
                .collect();
            for (task, _) in &affected {
                self.tasks.remove(task);
            }
            for (_, id) in affected {
                self.fail_job(
                    id,
                    JobStatus::Failed,
                    format!("replica group '{}' unrecoverable: {e}", failed.group),
                );
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
            self.report.jobs_submitted += 1;
            self.report.jobs_failed += 1;
            self.terminal_transition(
                queued.id,
                queued.spec.tenant,
                JobStatus::Failed,
                None,
                Some("service stopped".to_string()),
            );
        }
        // A replica member attacked too late for a probe or a send to find
        // it gone — a kill at shutdown — is as lost as one they found: the
        // books close with every attacked member regenerated.
        let attacked = self.pool.resilient.injector.attack_log();
        let now_ms = self.now_ms();
        for member in self.pool.resilient.membership.all_members() {
            if attacked.contains(&member.routing_name()) {
                self.recover_member(member, now_ms);
            }
        }
        let resilient_report = self.pool.shutdown(&self.ctx);
        self.report.regenerations = resilient_report.regenerations.len();
        self.report.members_attacked = resilient_report.members_attacked;
        self.report.queue_high_water = self.governor.queue_high_water();
        self.report.elapsed = self.started.elapsed();
        self.report.finished_at = Some(SystemTime::now());
        self.report
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
        let l = s.lane_snapshot();
        let lanes = [l.standard, l.resilient, l.shared_memory, l.remote];
        s.running.is_empty()
            && s.tasks.is_empty()
            && s.orphans.is_empty()
            && s.recompute.is_empty()
            && s.governor.queue_depth() == 0
            && lanes.iter().all(|lane| lane.free == lane.total)
    }

    /// Shuts the service down and closes the books: admission closes,
    /// anything still queued or running fails, the pool is torn down, and
    /// the report [`crate::FusionService::shutdown`] would return comes back.
    pub fn finish(self) -> ServiceReport {
        let scheduler = self.0;
        scheduler.shutdown.store(true, Ordering::Release);
        scheduler.governor.close();
        let governor = Arc::clone(&scheduler.governor);
        let mut report = scheduler.finalize();
        governor.fold_into(&mut report);
        report
    }
}

/// The timers, without sleeping: no thread runs these schedulers, the tests
/// call [`Scheduler::turn`] with times of their choosing.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::QueuedJob;
    use crate::config::{PoolConfig, ServiceConfig};
    use crate::job::{CubeSource, JobSpec};
    use crate::status::JobRecord;
    use hsi::SceneConfig;
    use pct::distributed::{handle_task, MANAGER};

    /// A scheduler whose only threads are one shared-memory executor and
    /// the members of `replica_groups` level-2 groups.
    fn scheduler(replica_groups: usize) -> Scheduler {
        let config = ServiceConfig::builder()
            .pool(PoolConfig {
                standard_workers: 0,
                replica_groups,
                replication_level: 2,
                shared_memory_executors: 1,
                ..PoolConfig::default()
            })
            .build()
            .unwrap();
        let (pool, ctx) = WorkerPool::start(&config.pool, Telemetry::disabled(), None).unwrap();
        let governor = AdmissionGovernor::new(
            config.queue_capacity,
            config.admission.clone(),
            Arc::clone(&config.routing),
        );
        Scheduler::new(
            Instant::now(),
            pool,
            ctx,
            Arc::new(governor),
            Arc::new(StatusTable::new()),
            Arc::default(),
            Arc::default(),
            config.max_in_flight,
            Arc::new(EventBus::new()),
            config.chaos.clone(),
            config.pool.standard_detector,
            Telemetry::disabled(),
        )
    }

    /// The standard-lane detector window.
    fn window(scheduler: &Scheduler) -> Duration {
        Duration::from_millis(scheduler.standard_watch.config().failure_timeout_ms())
    }

    /// Adds a standard-lane worker that is the test itself: tasks sent to it
    /// queue in the returned context's mailbox, and nothing heartbeats or
    /// answers unless the test does.
    fn add_mute_worker(scheduler: &mut Scheduler, name: &str) -> ThreadContext<PctMessage> {
        let worker = scheduler.pool.runtime.context(name).unwrap();
        scheduler.pool.standard.push(name.to_string());
        scheduler.free_workers.push_back(name.to_string());
        scheduler.standard_watch.watch(MemberId::new(name, 0), 0);
        worker
    }

    fn submit(scheduler: &Scheduler, id: JobId, spec: JobSpec) {
        scheduler.status.insert(id, JobRecord::queued());
        let queued = QueuedJob {
            id,
            submitted: Instant::now(),
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
                assignee: Assignee::Group(group.to_string()),
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
            JobSpec::builder(CubeSource::Synthetic(SceneConfig::small(3)))
                .pinned(BackendKind::Standard)
                .shards(2)
                .timeout(timeout)
                .build()
                .unwrap(),
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
        // detector (nobody heartbeat since t0) owns the next deadline.
        let late = t0 + Duration::from_millis(60);
        assert_eq!(scheduler.turn(late, None), Some(t0 + window(&scheduler)));
        assert_eq!(scheduler.status.status(1), Some(JobStatus::TimedOut));
        assert_eq!(scheduler.report.jobs_timed_out, 1);
        assert_eq!(
            scheduler.tasks.len(),
            1,
            "the outstanding task stays tabled so its result frees the slot"
        );
        assert!(scheduler.free_workers.is_empty());
        // The late result does exactly that.
        let task = worker.recv().unwrap().payload;
        worker.send(MANAGER, handle_task(task).unwrap()).unwrap();
        scheduler.turn(late, None);
        assert!(scheduler.tasks.is_empty());
        assert_eq!(scheduler.free_workers, ["mute"]);
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
        assert_eq!(scheduler.report.workers_lost, 0);
        // A heartbeat moves it too.
        worker.send(MANAGER, PctMessage::Heartbeat).unwrap();
        let beat = deadline + Duration::from_millis(100);
        assert_eq!(scheduler.turn(beat, None), Some(beat + window));
        // A dead mailbox at the deadline confirms the loss and clears it.
        drop(worker);
        assert_eq!(scheduler.turn(beat + window, None), None);
        assert_eq!(scheduler.report.workers_lost, 1);
        scheduler.finalize();
    }

    #[test]
    fn a_group_task_past_its_backoff_is_retransmitted_once_and_its_timer_moves() {
        let mut scheduler = scheduler(1);
        let t0 = scheduler.started;
        let base = scheduler.pool.resilient.retransmit_after;
        add_group_task(&mut scheduler, 1, "rg0", t0);
        // No such group: `group_send` fails, and the timer must move anyway.
        add_group_task(&mut scheduler, 2, "ghost", t0);
        scheduler.turn(t0 + base - Duration::from_millis(1), None);
        assert_eq!(scheduler.report.tasks_retransmitted, 0);
        let now = t0 + base;
        let next = scheduler.turn(now, None).expect("timers armed");
        assert_eq!(scheduler.report.tasks_retransmitted, 1, "rg0 only");
        for task in [1, 2] {
            let inflight = &scheduler.tasks[&task];
            assert_eq!((inflight.sent_at, inflight.attempts), (now, 1), "{task}");
        }
        // Nothing is left due at `now`: the next deadline is ahead (the
        // detector's, or the doubled backoff), and a second turn at the
        // same instant re-sends nothing.
        assert!(next > now && next <= now + 2 * base);
        assert!(scheduler.turn(now, None) > Some(now));
        assert_eq!(scheduler.report.tasks_retransmitted, 1);
        scheduler.finalize();
    }
}
