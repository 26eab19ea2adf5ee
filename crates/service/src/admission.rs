//! The admission plane: one policy point for *who* gets in, *in what
//! order*, *onto which lane*, and *what happens under pressure*.
//!
//! The [`AdmissionGovernor`] holds the bounded queue, the byte and tenant
//! accounting and the pressure ladder under one lock, so a submission's
//! quota check, the load it is judged against and its push are one step:
//!
//! * **Tenancy** — every [`crate::JobSpec`] names a [`TenantId`] and a
//!   [`JobClass`].  Per-tenant [`TenantQuota`]s bound how much queue a
//!   tenant may hold and weight its share of dequeue bandwidth.
//! * **Weighted fair dequeue** — the queue is drained by a deterministic
//!   deficit-round-robin over tenants ([`DrrQueue`]): each backlogged
//!   tenant receives `weight` pops per round, visited in `TenantId` order,
//!   priority-then-FIFO *within* a tenant.  Dequeue order never affects job
//!   *output* (every job is byte-identical to `pct::SequentialPct`
//!   regardless of scheduling), so fairness composes with the determinism
//!   contract, and the order itself is replayable for a fixed arrival
//!   order.
//! * **Tiered degradation** — under pressure the governor first
//!   *downgrades* degradable jobs to [`Priority::Low`], then *sheds*
//!   sheddable jobs, then *rejects* with a typed
//!   [`RetryAfter`] hint ([`crate::ServiceError::Saturated`] /
//!   [`crate::ServiceError::Shed`] / [`crate::ServiceError::QuotaExceeded`]),
//!   all decided by one [`PressurePolicy::decide`].  The ingest crate's
//!   `SheddingPolicy` is a thin adapter over the same function, fed by the
//!   same [`crate::ServiceEvent`] stream through a [`PressureGauge`].
//! * **Routing** — the governor resolves every route
//!   ([`AdmissionGovernor::resolve`]): the size rule ([`crate::routing::route`])
//!   for an auto route, then the clamp to an enabled lane, so every route
//!   decision flows through one place.

use crate::job::{BackendKind, JobId, JobSpec, Priority};
use crate::report::{ServiceReport, TenantStats};
use crate::routing::{self, LaneSnapshot, Route};
use crate::ServiceError;
use crate::ServiceEvent;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Identifier of the tenant a job is submitted on behalf of.
///
/// Tenants are the unit of fairness and quota accounting.  The default
/// tenant (`TenantId(0)`) keeps every pre-tenancy call site working: a
/// service with one tenant degenerates to the old global priority queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl TenantId {
    /// A short label for reports and CSV counters (`t0`, `t1`, ...).
    pub fn label(&self) -> String {
        format!("t{}", self.0)
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// How a job may be degraded under pressure.  The class decides which tier
/// of the downgrade → shed → reject ladder applies to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobClass {
    /// Never downgraded, never shed: rejected only by hard backpressure
    /// (queue saturation or tenant quota).
    Interactive,
    /// May be downgraded to [`Priority::Low`] past the soft watermark, but
    /// never shed.  The default for directly submitted jobs.
    #[default]
    Standard,
    /// May be downgraded *and* shed at the hard watermarks.  The default
    /// for streaming ingest, where dropping an arrival is cheaper than
    /// drowning the queue.
    Bulk,
}

impl JobClass {
    /// Whether the soft watermark may lower this class to [`Priority::Low`].
    pub fn degradable(&self) -> bool {
        matches!(self, JobClass::Standard | JobClass::Bulk)
    }

    /// Whether the hard watermarks may drop this class entirely.
    pub fn sheddable(&self) -> bool {
        matches!(self, JobClass::Bulk)
    }

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobClass::Interactive => "interactive",
            JobClass::Standard => "standard",
            JobClass::Bulk => "bulk",
        }
    }
}

/// A machine-readable back-off hint attached to every admission rejection
/// ([`crate::ServiceError::Saturated`], [`crate::ServiceError::Shed`],
/// [`crate::ServiceError::QuotaExceeded`]) and to the corresponding
/// [`crate::ServiceEvent::Rejected`], so clients wait instead of
/// hot-looping resubmission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RetryAfter(pub Duration);

impl std::fmt::Display for RetryAfter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "retry after {:?}", self.0)
    }
}

/// Why an arrival was shed or rejected instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShedReason {
    /// The queue depth was at or above the hard watermark.
    QueueDepth,
    /// The payload bytes of submitted-but-unfinished jobs were at or above
    /// the hard watermark.
    InFlightBytes,
    /// The submitting tenant already holds its `max_queued` quota.
    Quota,
    /// The bounded admission queue itself was full
    /// ([`crate::ServiceError::Saturated`]).
    Saturated,
}

impl ShedReason {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueDepth => "queue-depth",
            ShedReason::InFlightBytes => "in-flight-bytes",
            ShedReason::Quota => "quota",
            ShedReason::Saturated => "saturated",
        }
    }
}

/// Per-tenant admission limits: fair-share weight and queue quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Dequeue bandwidth share: a backlogged tenant receives `weight` pops
    /// per deficit-round-robin round.  Must be at least 1.
    pub weight: u64,
    /// Hard bound on the tenant's queued (submitted, not yet scheduled)
    /// jobs; `None` leaves the tenant bounded only by queue capacity.
    pub max_queued: Option<usize>,
}

impl TenantQuota {
    /// A quota with the given fair-share weight and no queue bound.
    pub fn weighted(weight: u64) -> Self {
        Self {
            weight,
            max_queued: None,
        }
    }

    /// Bounds how many jobs the tenant may hold queued at once.
    pub fn with_max_queued(mut self, max_queued: usize) -> Self {
        self.max_queued = Some(max_queued);
        self
    }
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self {
            weight: 1,
            max_queued: None,
        }
    }
}

/// The load the pressure policy decides against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadView {
    /// Jobs submitted but not yet scheduled.
    pub queue_depth: usize,
    /// Payload bytes of jobs submitted but not yet terminal.
    pub in_flight_bytes: usize,
}

/// The outcome of one [`PressurePolicy::decide`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureDecision {
    /// Admit the job; `downgrade` asks the caller to lower it to
    /// [`Priority::Low`] first (soft watermark on a degradable class).
    Admit {
        /// Whether the job should be admitted at [`Priority::Low`].
        downgrade: bool,
    },
    /// Drop the job (hard watermark on a sheddable class).
    Shed {
        /// Which watermark fired.
        reason: ShedReason,
    },
}

/// Watermarks of the tiered degradation ladder, shared by the service
/// front end and the ingest pump (whose `SheddingPolicy` is an adapter
/// over this type).  `usize::MAX` (the default) disables a watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressurePolicy {
    /// Soft watermark: at or above this queue depth, degradable classes
    /// are admitted at [`Priority::Low`].
    pub downgrade_queue_depth: usize,
    /// Hard watermark: at or above this queue depth, sheddable classes
    /// are shed with [`ShedReason::QueueDepth`].
    pub shed_queue_depth: usize,
    /// Hard watermark: at or above these in-flight payload bytes,
    /// sheddable classes are shed with [`ShedReason::InFlightBytes`].
    pub shed_in_flight_bytes: usize,
    /// The back-off hint attached to every shed and rejection.
    pub retry_after: Duration,
}

impl PressurePolicy {
    /// No watermarks: everything is admitted at its requested priority
    /// until the bounded queue itself saturates.
    pub fn unbounded() -> Self {
        Self {
            downgrade_queue_depth: usize::MAX,
            shed_queue_depth: usize::MAX,
            shed_in_flight_bytes: usize::MAX,
            retry_after: Duration::from_millis(25),
        }
    }

    /// Sets the soft down-prioritization watermark.
    pub fn with_downgrade_queue_depth(mut self, depth: usize) -> Self {
        self.downgrade_queue_depth = depth;
        self
    }

    /// Sets the hard queue-depth watermark.
    pub fn with_shed_queue_depth(mut self, depth: usize) -> Self {
        self.shed_queue_depth = depth;
        self
    }

    /// Sets the hard in-flight-bytes watermark.
    pub fn with_shed_in_flight_bytes(mut self, bytes: usize) -> Self {
        self.shed_in_flight_bytes = bytes;
        self
    }

    /// The typed back-off hint for this policy's rejections.
    pub fn retry_hint(&self) -> RetryAfter {
        RetryAfter(self.retry_after)
    }

    /// The single tiered-degradation decision: shed a sheddable class past
    /// a hard watermark, otherwise admit, downgrading a degradable class
    /// past the soft watermark.  Every watermark decision of the service
    /// *and* of the ingest pump goes through here.
    pub fn decide(&self, load: LoadView, class: JobClass) -> PressureDecision {
        if class.sheddable() {
            if load.queue_depth >= self.shed_queue_depth {
                return PressureDecision::Shed {
                    reason: ShedReason::QueueDepth,
                };
            }
            if load.in_flight_bytes >= self.shed_in_flight_bytes {
                return PressureDecision::Shed {
                    reason: ShedReason::InFlightBytes,
                };
            }
        }
        PressureDecision::Admit {
            downgrade: class.degradable() && load.queue_depth >= self.downgrade_queue_depth,
        }
    }
}

impl Default for PressurePolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Admission-plane configuration: tenant quotas and the pressure ladder.
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Per-tenant quotas; tenants not listed use `default_quota`.
    pub quotas: BTreeMap<TenantId, TenantQuota>,
    /// The quota of tenants without an explicit entry.
    pub default_quota: TenantQuota,
    /// The tiered-degradation watermarks applied at submission.
    pub pressure: PressurePolicy,
}

impl AdmissionConfig {
    /// Validates every quota (weights must be at least 1, explicit queue
    /// quotas at least 1).
    pub fn validate(&self) -> Result<(), crate::config::ConfigError> {
        use crate::config::ConfigError;
        for (tenant, quota) in self
            .quotas
            .iter()
            .map(|(t, q)| (*t, *q))
            .chain(std::iter::once((TenantId::default(), self.default_quota)))
        {
            if quota.weight == 0 {
                return Err(ConfigError::ZeroTenantWeight(tenant));
            }
            if quota.max_queued == Some(0) {
                return Err(ConfigError::ZeroTenantQuota(tenant));
            }
        }
        Ok(())
    }
}

/// One queued item of a tenant lane: priority-ordered, FIFO within a
/// priority, using a globally monotone sequence so replay order is exact.
struct Entry<T> {
    rank: u8,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: more urgent first; among equals, earlier arrival first.
        self.rank.cmp(&other.rank).then(other.seq.cmp(&self.seq))
    }
}

/// One tenant's backlog plus its deficit-round-robin state.
struct Lane<T> {
    weight: u64,
    deficit: u64,
    heap: BinaryHeap<Entry<T>>,
}

/// A deterministic weighted fair queue: deficit round-robin over tenants,
/// priority-then-FIFO within a tenant.
///
/// Tenants are visited in `TenantId` order (a `BTreeMap` walk with a
/// wrapping cursor).  A newly visited backlogged tenant has its deficit
/// replenished to its weight; each pop costs one unit (jobs are the unit
/// of service).  A tenant whose backlog empties forfeits its remaining
/// deficit — the classic anti-hoarding rule — so an idle tenant cannot
/// bank credit and later burst past its share.
///
/// **Fairness bound**: between any two continuously backlogged tenants
/// `a`, `b`, the normalized service difference
/// `|served_a / weight_a - served_b / weight_b|` never exceeds 1 — no
/// tenant gets ahead of its weight share by more than one round's worth.
/// The property suite (`fairness_properties.rs`) checks this over seeded
/// arbitrary arrival schedules.
///
/// The structure is single-threaded; [`crate::AdmissionGovernor`] holds it
/// under its lock as the service's bounded blocking queue.
pub struct DrrQueue<T> {
    lanes: BTreeMap<TenantId, Lane<T>>,
    /// The tenant currently being served (holding unspent deficit).
    cursor: Option<TenantId>,
    len: usize,
    next_seq: u64,
}

impl<T> Default for DrrQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DrrQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            lanes: BTreeMap::new(),
            cursor: None,
            len: 0,
            next_seq: 0,
        }
    }

    /// Total queued items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued items of one tenant.
    pub fn tenant_len(&self, tenant: TenantId) -> usize {
        self.lanes.get(&tenant).map_or(0, |lane| lane.heap.len())
    }

    /// Enqueues `item` for `tenant` at `priority`.  `weight` (re)sets the
    /// tenant's fair-share weight (clamped to at least 1); callers pass it
    /// from the tenant's quota on every push.
    pub fn push(&mut self, tenant: TenantId, weight: u64, priority: Priority, item: T) {
        let lane = self.lanes.entry(tenant).or_insert(Lane {
            weight: 1,
            deficit: 0,
            heap: BinaryHeap::new(),
        });
        lane.weight = weight.max(1);
        let seq = self.next_seq;
        self.next_seq += 1;
        lane.heap.push(Entry {
            rank: priority.rank(),
            seq,
            item,
        });
        self.len += 1;
    }

    /// The first backlogged tenant strictly after `after` in `TenantId`
    /// order, wrapping; `None` when everything is empty.
    fn next_backlogged(&self, after: Option<TenantId>) -> Option<TenantId> {
        use std::ops::Bound::{Excluded, Unbounded};
        let tail = match after {
            Some(t) => self.lanes.range((Excluded(t), Unbounded)),
            None => self.lanes.range(..),
        };
        tail.chain(self.lanes.range(..))
            .find(|(_, lane)| !lane.heap.is_empty())
            .map(|(t, _)| *t)
    }

    /// Dequeues the next item under deficit round-robin, returning it with
    /// the tenant it belonged to.
    pub fn pop(&mut self) -> Option<(TenantId, T)> {
        if self.len == 0 {
            return None;
        }
        // Keep serving the cursor tenant while it has backlog and deficit;
        // otherwise advance to the next backlogged tenant and replenish.
        let serving = match self.cursor {
            Some(t)
                if self
                    .lanes
                    .get(&t)
                    .is_some_and(|lane| lane.deficit > 0 && !lane.heap.is_empty()) =>
            {
                t
            }
            _ => {
                // A tenant that stopped being servable forfeits leftover
                // deficit (anti-hoarding).
                if let Some(t) = self.cursor {
                    if let Some(lane) = self.lanes.get_mut(&t) {
                        if lane.heap.is_empty() {
                            lane.deficit = 0;
                        }
                    }
                }
                let t = self.next_backlogged(self.cursor).expect("len > 0");
                let lane = self.lanes.get_mut(&t).expect("backlogged lane exists");
                lane.deficit = lane.weight;
                self.cursor = Some(t);
                t
            }
        };
        let lane = self.lanes.get_mut(&serving).expect("serving lane exists");
        let entry = lane.heap.pop().expect("serving lane is backlogged");
        lane.deficit -= 1;
        if lane.heap.is_empty() {
            lane.deficit = 0;
        }
        self.len -= 1;
        Some((serving, entry.item))
    }
}

/// The event-fed view of service load, shared by every consumer of the
/// pressure plane that sits *outside* the service (the ingest pump today).
///
/// Feed it every [`ServiceEvent`] from a subscription opened before the
/// first submission, and tell it about each submission with
/// [`PressureGauge::on_submit`]; it tracks queued jobs and in-flight
/// payload bytes for exactly the jobs it was told about — events of other
/// clients' jobs fall through untouched.
#[derive(Debug, Default)]
pub struct PressureGauge {
    /// Submitted, not yet admitted by the scheduler (bytes per job).
    queued: HashMap<JobId, usize>,
    /// Admitted, not yet terminal (bytes per job).
    running: HashMap<JobId, usize>,
    /// Sum of bytes across both maps.
    in_flight_bytes: usize,
}

impl PressureGauge {
    /// A gauge tracking nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one accepted submission.
    pub fn on_submit(&mut self, job: JobId, bytes: usize) {
        self.queued.insert(job, bytes);
        self.in_flight_bytes += bytes;
    }

    /// Applies one service event; events of untracked jobs are ignored.
    pub fn observe(&mut self, event: &ServiceEvent) {
        match event {
            ServiceEvent::Admitted { job, .. } => {
                if let Some(bytes) = self.queued.remove(job) {
                    self.running.insert(*job, bytes);
                }
            }
            ServiceEvent::Terminal { job, .. } => {
                if let Some(bytes) = self.queued.remove(job).or_else(|| self.running.remove(job)) {
                    self.in_flight_bytes -= bytes;
                }
            }
            _ => {}
        }
    }

    /// Tracked jobs submitted but not yet admitted.
    pub fn queue_depth(&self) -> usize {
        self.queued.len()
    }

    /// Payload bytes of tracked jobs submitted but not yet terminal.
    pub fn in_flight_bytes(&self) -> usize {
        self.in_flight_bytes
    }

    /// The load view handed to [`PressurePolicy::decide`].
    pub fn load(&self) -> LoadView {
        LoadView {
            queue_depth: self.queue_depth(),
            in_flight_bytes: self.in_flight_bytes,
        }
    }
}

/// A job as it travels from the front end to the scheduler.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    /// The job's identifier.
    pub id: JobId,
    /// When the front end accepted it (latency is measured from here).
    pub submitted: Instant,
    /// The full specification.
    pub spec: JobSpec,
    /// The job's root telemetry span, opened at submission (`None` with
    /// telemetry disabled).
    pub span: Option<telemetry::SpanId>,
    /// The `queued` child span, closed at admission to measure queue wait.
    pub queued_span: Option<telemetry::SpanId>,
}

/// Everything an admission decision reads or writes, under the governor's
/// one lock: a quota check, the [`LoadView`] it decides against and the push
/// that follows are one atomic step.
#[derive(Default)]
struct GovernorState {
    /// Submitted, not yet scheduled: the bounded weighted-fair backlog.
    queue: DrrQueue<QueuedJob>,
    /// Deepest `queue` has ever been.
    high_water: usize,
    /// Set by [`AdmissionGovernor::close`]: no further submissions.
    closed: bool,
    /// Payload bytes per accepted, not-yet-terminal job.
    in_flight: HashMap<JobId, usize>,
    /// Sum over `in_flight`.
    in_flight_bytes: usize,
    /// Per-tenant weights and queue counters (admitted, downgraded), folded
    /// into the report at shutdown.
    tenants: BTreeMap<TenantId, TenantStats>,
}

impl GovernorState {
    fn stats(&mut self, tenant: TenantId, weight: u64) -> &mut TenantStats {
        self.tenants.entry(tenant).or_insert_with(|| TenantStats {
            weight,
            ..TenantStats::default()
        })
    }
}

/// The unified admission plane of a running service: quota checks, tiered
/// degradation, the bounded weighted fair queue, and route resolution.
///
/// Constructed from [`crate::ServiceConfig`] at service start; the front
/// end submits through it, the scheduler dequeues and routes through it,
/// and every terminal transition is reported back so in-flight byte
/// accounting and per-tenant counters stay exact.
///
/// It is the backpressure point of the service: a non-blocking submission
/// to a full queue is rejected ([`ServiceError::Saturated`], with the
/// plane's [`RetryAfter`] hint), a blocking one parks the submitter until
/// the scheduler takes a job or the governor closes.
pub struct AdmissionGovernor {
    quotas: BTreeMap<TenantId, TenantQuota>,
    default_quota: TenantQuota,
    pressure: PressurePolicy,
    capacity: usize,
    state: Mutex<GovernorState>,
    /// Parks blocking submitters while the queue is full.
    space: Condvar,
    telemetry: telemetry::Telemetry,
}

impl AdmissionGovernor {
    /// A governor whose queue holds at most `queue_capacity` jobs (floor 1).
    pub(crate) fn new(queue_capacity: usize, admission: AdmissionConfig) -> Self {
        Self {
            quotas: admission.quotas,
            default_quota: admission.default_quota,
            pressure: admission.pressure,
            capacity: queue_capacity.max(1),
            state: Mutex::new(GovernorState::default()),
            space: Condvar::new(),
            telemetry: telemetry::Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: the per-tenant queued counter and the
    /// live queue-depth gauge.
    pub(crate) fn with_telemetry(mut self, telemetry: telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the `fusiond_queue_depth` gauge (one branch when telemetry is
    /// disabled).
    fn gauge_queue_depth(&self, depth: usize) {
        if let Some(gauge) = self.telemetry.gauge("fusiond_queue_depth", &[]) {
            gauge.set(depth as i64);
        }
    }

    /// The effective quota of `tenant`.
    pub fn quota(&self, tenant: TenantId) -> TenantQuota {
        self.quotas
            .get(&tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }

    /// Front-end submission: quota check, pressure decision, downgrade,
    /// then the bounded weighted-fair push — one step under the lock, taken
    /// again from the top each time a `blocking` submitter wakes with space
    /// in the queue.  Every rejection carries the policy's [`RetryAfter`]
    /// hint.
    pub(crate) fn submit(&self, mut job: QueuedJob, blocking: bool) -> Result<(), ServiceError> {
        let tenant = job.spec.tenant;
        let class = job.spec.class;
        let quota = self.quota(tenant);
        let retry_after = self.pressure.retry_hint();
        let mut state = self.state.lock().expect("governor lock");
        let mut waited = false;
        let refusal = loop {
            if state.closed {
                break ServiceError::ShuttingDown;
            }
            if quota
                .max_queued
                .is_some_and(|max| state.queue.tenant_len(tenant) >= max)
            {
                break ServiceError::QuotaExceeded {
                    tenant,
                    retry_after,
                };
            }
            let load = LoadView {
                queue_depth: state.queue.len(),
                in_flight_bytes: state.in_flight_bytes,
            };
            let downgrade = match self.pressure.decide(load, class) {
                PressureDecision::Shed { reason } => {
                    break ServiceError::Shed {
                        reason,
                        retry_after,
                    }
                }
                PressureDecision::Admit { downgrade } => downgrade,
            };
            if state.queue.len() < self.capacity {
                if downgrade {
                    job.spec.priority = Priority::Low;
                }
                let bytes = job.spec.source.payload_bytes();
                state.in_flight.insert(job.id, bytes);
                state.in_flight_bytes += bytes;
                let stats = state.stats(tenant, quota.weight);
                stats.jobs_admitted += 1;
                stats.jobs_downgraded += u64::from(downgrade);
                let priority = job.spec.priority;
                state.queue.push(tenant, quota.weight, priority, job);
                let depth = state.queue.len();
                state.high_water = state.high_water.max(depth);
                drop(state);
                self.telemetry
                    .count("fusiond_jobs_queued_total", &[("tenant", &tenant.label())]);
                self.gauge_queue_depth(depth);
                return Ok(());
            }
            if !blocking {
                break ServiceError::Saturated { retry_after };
            }
            waited = true;
            state = self.space.wait(state).expect("governor lock");
        };
        // A refused tenant still gets its report row and weight (the front
        // end records the refusal itself); a closed governor's refusal is
        // not the tenant's.
        if !matches!(refusal, ServiceError::ShuttingDown) {
            state.stats(tenant, quota.weight);
        }
        drop(state);
        if waited {
            // Woken for a slot it did not take: hand it to the next waiter.
            self.space.notify_one();
        }
        Err(refusal)
    }

    /// Scheduler side: the next job under weighted fair dequeue; frees one
    /// slot for a parked submitter.
    pub(crate) fn next(&self) -> Option<QueuedJob> {
        let mut state = self.state.lock().expect("governor lock");
        let (_, job) = state.queue.pop()?;
        let depth = state.queue.len();
        drop(state);
        self.space.notify_one();
        self.gauge_queue_depth(depth);
        Some(job)
    }

    /// Resolves a route to a concrete, enabled lane.  Pinned routes were
    /// validated at submission; an auto route of a job of `payload_bytes`
    /// takes the size rule ([`routing::route`]), and anything pointing at a
    /// disabled lane is clamped to the first enabled lane in preference
    /// order (a drained lane cannot strand a job).  Returns the lane and
    /// whether the size rule (rather than the caller) chose it.
    pub fn resolve(
        &self,
        route: Route,
        payload_bytes: u64,
        lanes: &LaneSnapshot,
    ) -> (BackendKind, bool) {
        let (kind, auto) = match route {
            Route::Pinned(kind) => (kind, false),
            Route::Auto => (routing::route(payload_bytes, lanes), true),
        };
        if lanes.lane(kind).enabled() {
            return (kind, auto);
        }
        let fallback = lanes
            .enabled_lanes()
            .first()
            .copied()
            .unwrap_or(BackendKind::Standard);
        (fallback, auto)
    }

    /// Reports a job's terminal transition: releases its in-flight bytes.
    pub(crate) fn note_terminal(&self, job: JobId) {
        let mut state = self.state.lock().expect("governor lock");
        if let Some(bytes) = state.in_flight.remove(&job) {
            state.in_flight_bytes -= bytes;
        }
    }

    /// Jobs currently queued (all tenants).
    pub fn queue_depth(&self) -> usize {
        self.state.lock().expect("governor lock").queue.len()
    }

    /// Deepest the queue has ever been.
    pub(crate) fn queue_high_water(&self) -> usize {
        self.state.lock().expect("governor lock").high_water
    }

    /// Stops accepting submissions and wakes blocked submitters; jobs
    /// already queued still drain through [`AdmissionGovernor::next`].
    pub(crate) fn close(&self) {
        self.state.lock().expect("governor lock").closed = true;
        self.space.notify_all();
    }

    /// Folds what only the governor knows into a finished report: each
    /// tenant's weight and its admitted and downgraded jobs.
    pub(crate) fn fold_into(&self, report: &mut ServiceReport) {
        let state = self.state.lock().expect("governor lock");
        for (tenant, ours) in &state.tenants {
            let stats = report.tenants.entry(*tenant).or_default();
            stats.weight = ours.weight;
            stats.jobs_admitted = ours.jobs_admitted;
            stats.jobs_downgraded = ours.jobs_downgraded;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;

    #[test]
    fn tenant_ids_label_and_order() {
        assert_eq!(TenantId(3).label(), "t3");
        assert_eq!(TenantId(3).to_string(), "t3");
        assert!(TenantId(1) < TenantId(2));
        assert_eq!(TenantId::default(), TenantId(0));
    }

    #[test]
    fn job_classes_govern_the_degradation_tiers() {
        assert!(!JobClass::Interactive.degradable());
        assert!(!JobClass::Interactive.sheddable());
        assert!(JobClass::Standard.degradable());
        assert!(!JobClass::Standard.sheddable());
        assert!(JobClass::Bulk.degradable());
        assert!(JobClass::Bulk.sheddable());
        assert_eq!(JobClass::default(), JobClass::Standard);
        assert_eq!(JobClass::Bulk.label(), "bulk");
    }

    #[test]
    fn pressure_decisions_follow_the_ladder() {
        let policy = PressurePolicy::unbounded()
            .with_downgrade_queue_depth(2)
            .with_shed_queue_depth(4)
            .with_shed_in_flight_bytes(1000);
        let calm = LoadView {
            queue_depth: 0,
            in_flight_bytes: 0,
        };
        let soft = LoadView {
            queue_depth: 2,
            in_flight_bytes: 0,
        };
        let deep = LoadView {
            queue_depth: 4,
            in_flight_bytes: 0,
        };
        let heavy = LoadView {
            queue_depth: 0,
            in_flight_bytes: 1000,
        };
        for class in [JobClass::Interactive, JobClass::Standard, JobClass::Bulk] {
            assert_eq!(
                policy.decide(calm, class),
                PressureDecision::Admit { downgrade: false }
            );
        }
        // Soft watermark downgrades degradable classes only.
        assert_eq!(
            policy.decide(soft, JobClass::Interactive),
            PressureDecision::Admit { downgrade: false }
        );
        assert_eq!(
            policy.decide(soft, JobClass::Standard),
            PressureDecision::Admit { downgrade: true }
        );
        // Hard watermarks shed bulk only; standard is downgraded instead.
        assert_eq!(
            policy.decide(deep, JobClass::Bulk),
            PressureDecision::Shed {
                reason: ShedReason::QueueDepth
            }
        );
        assert_eq!(
            policy.decide(deep, JobClass::Standard),
            PressureDecision::Admit { downgrade: true }
        );
        assert_eq!(
            policy.decide(heavy, JobClass::Bulk),
            PressureDecision::Shed {
                reason: ShedReason::InFlightBytes
            }
        );
        assert_eq!(
            policy.decide(heavy, JobClass::Interactive),
            PressureDecision::Admit { downgrade: false }
        );
        assert_eq!(policy.retry_hint(), RetryAfter(Duration::from_millis(25)));
    }

    #[test]
    fn admission_config_validates_quotas() {
        let mut config = AdmissionConfig::default();
        assert!(config.validate().is_ok());
        config.quotas.insert(TenantId(1), TenantQuota::weighted(0));
        assert_eq!(
            config.validate().unwrap_err(),
            crate::config::ConfigError::ZeroTenantWeight(TenantId(1))
        );
        config.quotas.clear();
        config
            .quotas
            .insert(TenantId(2), TenantQuota::weighted(1).with_max_queued(0));
        assert_eq!(
            config.validate().unwrap_err(),
            crate::config::ConfigError::ZeroTenantQuota(TenantId(2))
        );
    }

    #[test]
    fn single_tenant_drr_degenerates_to_priority_fifo() {
        let mut q = DrrQueue::new();
        let t = TenantId::default();
        q.push(t, 1, Priority::Low, 1u32);
        q.push(t, 1, Priority::Normal, 2);
        q.push(t, 1, Priority::High, 3);
        q.push(t, 1, Priority::Normal, 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, x)| x).collect();
        assert_eq!(order, vec![3, 2, 4, 1]);
    }

    #[test]
    fn drr_shares_bandwidth_by_weight() {
        let mut q = DrrQueue::new();
        // Tenant 1 weight 3, tenant 2 weight 1, both continuously backlogged.
        for i in 0..8u32 {
            q.push(TenantId(1), 3, Priority::Normal, i);
            q.push(TenantId(2), 1, Priority::Normal, 100 + i);
        }
        let tenants: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
        // Rounds of 3-from-t1 then 1-from-t2 until t1 drains, then t2 alone.
        assert_eq!(
            tenants,
            vec![1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 2, 2, 2, 2, 2, 2],
        );
    }

    #[test]
    fn drr_resets_deficit_when_a_tenant_drains() {
        let mut q = DrrQueue::new();
        // Tenant 1 has a huge weight but only one item: draining forfeits
        // the unspent deficit, so after re-arrival it cannot burst.
        q.push(TenantId(1), 100, Priority::Normal, 0u32);
        q.push(TenantId(2), 1, Priority::Normal, 1);
        assert_eq!(q.pop().unwrap().0, TenantId(1));
        assert_eq!(q.pop().unwrap().0, TenantId(2));
        // Tenant 1 returns; service resumes in round-robin order, not on
        // banked credit beyond a fresh round.
        q.push(TenantId(1), 100, Priority::Normal, 2);
        q.push(TenantId(2), 1, Priority::Normal, 3);
        assert_eq!(q.pop().unwrap().0, TenantId(1));
        assert_eq!(q.pop().unwrap().0, TenantId(2));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn drr_is_replayable_for_a_fixed_arrival_order() {
        let arrivals = [
            (TenantId(3), 2, Priority::High),
            (TenantId(1), 1, Priority::Normal),
            (TenantId(3), 2, Priority::Low),
            (TenantId(2), 4, Priority::Normal),
            (TenantId(1), 1, Priority::High),
            (TenantId(2), 4, Priority::Normal),
        ];
        let run = || {
            let mut q = DrrQueue::new();
            for (i, (t, w, p)) in arrivals.iter().enumerate() {
                q.push(*t, *w, *p, i);
            }
            std::iter::from_fn(move || q.pop()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pressure_gauge_tracks_only_its_own_jobs() {
        let mut gauge = PressureGauge::new();
        gauge.on_submit(1, 100);
        gauge.on_submit(2, 50);
        assert_eq!(gauge.queue_depth(), 2);
        assert_eq!(gauge.in_flight_bytes(), 150);
        // A foreign job's events fall through untouched.
        gauge.observe(&ServiceEvent::Terminal {
            job: 99,
            tenant: TenantId::default(),
            status: JobStatus::Completed,
            route: None,
        });
        assert_eq!(gauge.in_flight_bytes(), 150);
        // Admission moves queued -> running; terminal releases the bytes.
        gauge.observe(&ServiceEvent::Admitted {
            job: 1,
            tenant: TenantId::default(),
            route: BackendKind::Standard,
            auto: true,
        });
        assert_eq!(gauge.queue_depth(), 1);
        assert_eq!(gauge.in_flight_bytes(), 150);
        gauge.observe(&ServiceEvent::Terminal {
            job: 1,
            tenant: TenantId::default(),
            status: JobStatus::Completed,
            route: Some(BackendKind::Standard),
        });
        assert_eq!(gauge.in_flight_bytes(), 50);
        assert_eq!(
            gauge.load(),
            LoadView {
                queue_depth: 1,
                in_flight_bytes: 50
            }
        );
    }

    #[test]
    fn shed_reasons_and_retry_hints_render() {
        assert_eq!(ShedReason::QueueDepth.label(), "queue-depth");
        assert_eq!(ShedReason::InFlightBytes.label(), "in-flight-bytes");
        assert_eq!(ShedReason::Quota.label(), "quota");
        assert_eq!(ShedReason::Saturated.label(), "saturated");
        let hint = RetryAfter(Duration::from_millis(10));
        assert!(hint.to_string().contains("retry after"));
    }

    fn governor(capacity: usize, admission: AdmissionConfig) -> AdmissionGovernor {
        AdmissionGovernor::new(capacity, admission)
    }

    fn job(id: JobId, tenant: TenantId) -> QueuedJob {
        use crate::job::CubeSource;
        QueuedJob {
            id,
            submitted: Instant::now(),
            spec: JobSpec::builder(CubeSource::Synthetic(hsi::SceneConfig::small(id)))
                .tenant(tenant)
                .build()
                .unwrap(),
            span: None,
            queued_span: None,
        }
    }

    fn saturated() -> ServiceError {
        ServiceError::Saturated {
            retry_after: PressurePolicy::unbounded().retry_hint(),
        }
    }

    #[test]
    fn saturation_rejects_and_high_water_tracks() {
        let g = governor(2, AdmissionConfig::default());
        let t = TenantId::default();
        g.submit(job(1, t), false).unwrap();
        g.submit(job(2, t), false).unwrap();
        assert_eq!(g.submit(job(3, t), false).unwrap_err(), saturated());
        assert_eq!(g.queue_depth(), 2);
        assert_eq!(g.queue_high_water(), 2);
        g.next().unwrap();
        g.submit(job(3, t), false).unwrap();
        assert_eq!(g.queue_high_water(), 2);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let g = std::sync::Arc::new(governor(1, AdmissionConfig::default()));
        let t = TenantId::default();
        g.submit(job(1, t), false).unwrap();
        let (done, parked) = std::sync::mpsc::channel();
        let g2 = std::sync::Arc::clone(&g);
        let pusher = std::thread::spawn(move || {
            let pushed = g2.submit(job(2, t), true);
            done.send(()).unwrap();
            pushed
        });
        // The submitter stays parked while the queue is full...
        assert!(parked.recv_timeout(Duration::from_millis(30)).is_err());
        // ...and gets in as soon as the scheduler takes a job.
        assert_eq!(g.next().unwrap().id, 1);
        pusher.join().unwrap().unwrap();
        assert_eq!(g.next().unwrap().id, 2);
    }

    #[test]
    fn close_rejects_and_wakes_blocked_pushers() {
        let g = std::sync::Arc::new(governor(1, AdmissionConfig::default()));
        let t = TenantId::default();
        g.submit(job(1, t), false).unwrap();
        let (done, parked) = std::sync::mpsc::channel();
        let g2 = std::sync::Arc::clone(&g);
        let pusher = std::thread::spawn(move || {
            let pushed = g2.submit(job(2, t), true);
            done.send(()).unwrap();
            pushed
        });
        assert!(parked.recv_timeout(Duration::from_millis(30)).is_err());
        g.close();
        assert_eq!(
            pusher.join().unwrap().unwrap_err(),
            ServiceError::ShuttingDown
        );
        assert_eq!(
            g.submit(job(3, t), false).unwrap_err(),
            ServiceError::ShuttingDown
        );
        // Already-queued jobs still drain.
        assert_eq!(g.next().unwrap().id, 1);
        assert_eq!(g.queue_depth(), 0);
    }

    #[test]
    fn capacity_floor_is_one() {
        let g = governor(0, AdmissionConfig::default());
        let t = TenantId::default();
        g.submit(job(1, t), false).unwrap();
        assert_eq!(g.submit(job(2, t), false).unwrap_err(), saturated());
    }

    /// The quota check and the push are one step: however eight submitters
    /// of one tenant interleave, the tenant never holds more than its quota
    /// and every attempt is either admitted or refused with the typed error.
    #[test]
    fn tenant_quota_holds_under_concurrent_submitters() {
        const THREADS: u64 = 8;
        const ATTEMPTS: u64 = 200;
        let tenant = TenantId(7);
        let mut admission = AdmissionConfig::default();
        admission
            .quotas
            .insert(tenant, TenantQuota::weighted(1).with_max_queued(3));
        let g = governor(64, admission);
        let start = std::sync::Barrier::new(THREADS as usize);
        let (admitted, refused, deepest) = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (g, start) = (&g, &start);
                    scope.spawn(move || {
                        let (mut admitted, mut refused, mut deepest) = (0, 0, 0);
                        start.wait();
                        for attempt in 0..ATTEMPTS {
                            match g.submit(job(thread * ATTEMPTS + attempt, tenant), false) {
                                Ok(()) => admitted += 1,
                                Err(ServiceError::QuotaExceeded { .. }) => refused += 1,
                                Err(other) => panic!("unexpected refusal: {other:?}"),
                            }
                            deepest = deepest.max(g.queue_depth());
                        }
                        (admitted, refused, deepest)
                    })
                })
                .collect();
            submitters
                .into_iter()
                .map(|s| s.join().unwrap())
                .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2.max(b.2)))
        });
        assert_eq!(deepest, 3);
        assert_eq!(g.queue_depth(), 3);
        assert_eq!(admitted, 3);
        assert_eq!(admitted + refused, THREADS * ATTEMPTS);
    }
}
