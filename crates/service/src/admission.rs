//! The admission plane: one policy point for *who* gets in, *in what
//! order* and *onto which lane*.
//!
//! The service's admission governor holds the bounded queue and the
//! per-tenant accounting under one lock, so a submission's capacity check
//! and its push are one step:
//!
//! * **Tenancy** — every [`crate::JobSpec`] names a [`TenantId`].  A
//!   tenant's [`TenantQuota`] weights its share of dequeue bandwidth;
//!   tenants without one weigh 1.
//! * **Weighted fair dequeue** — the queue is drained by a deterministic
//!   deficit-round-robin over tenants ([`DrrQueue`]): each backlogged
//!   tenant receives `weight` pops per round, visited in `TenantId` order,
//!   priority-then-FIFO *within* a tenant.  Dequeue order never affects job
//!   *output* (every job is byte-identical to `pct::SequentialPct`
//!   regardless of scheduling), so fairness composes with the determinism
//!   contract, and the order itself is replayable for a fixed arrival
//!   order.
//! * **Backpressure** — a non-blocking submission to a full queue is
//!   refused with [`crate::ServiceError::Saturated`] carrying the
//!   [`RETRY_AFTER`] hint; a blocking one parks until the scheduler takes a
//!   job or the service shuts down.
//! * **Routing** — the governor resolves every route: the size rule
//!   ([`crate::routing::route`]) for an auto route, then the clamp to an
//!   enabled lane, so every route decision flows through one place.

use crate::job::{BackendKind, JobId, JobSpec, Priority};
use crate::report::{ServiceReport, TenantStats};
use crate::routing::{self, LaneSnapshot, Route};
use crate::ServiceError;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Identifier of the tenant a job is submitted on behalf of.
///
/// Tenants are the unit of fair-share accounting.  The default
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

/// A machine-readable back-off hint attached to every admission refusal
/// ([`crate::ServiceError::Saturated`]) and to the corresponding
/// [`crate::ServiceEvent::Rejected`], so clients wait instead of
/// hot-looping resubmission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RetryAfter(pub Duration);

impl std::fmt::Display for RetryAfter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "retry after {:?}", self.0)
    }
}

/// The back-off hint of every admission refusal.
pub const RETRY_AFTER: RetryAfter = RetryAfter(Duration::from_millis(25));

/// A tenant's fair-share weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Dequeue bandwidth share: a backlogged tenant receives `weight` pops
    /// per deficit-round-robin round.  Must be at least 1.
    pub weight: u64,
}

impl TenantQuota {
    /// A quota with the given fair-share weight.
    pub fn weighted(weight: u64) -> Self {
        Self { weight }
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
/// The structure is single-threaded; the service's admission governor holds it
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

/// A job as it travels from the front end to the scheduler.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    /// The job's identifier.
    pub id: JobId,
    /// The full specification.
    pub spec: JobSpec,
    /// The job's root telemetry span, opened at submission (`None` with
    /// telemetry disabled).
    pub span: Option<telemetry::SpanId>,
    /// The `queued` child span, closed at admission to measure queue wait.
    pub queued_span: Option<telemetry::SpanId>,
}

/// Everything a submission reads or writes, under the governor's one lock:
/// the capacity check and the push that follows are one atomic step.
#[derive(Default)]
struct GovernorState {
    /// Submitted, not yet scheduled: the bounded weighted-fair backlog.
    queue: DrrQueue<QueuedJob>,
    /// Deepest `queue` has ever been.
    high_water: usize,
    /// Set by [`AdmissionGovernor::close`]: no further submissions.
    closed: bool,
    /// Per-tenant weights and admission counts, folded into the report at
    /// shutdown.
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

/// The admission plane of a running service: the bounded weighted fair
/// queue and route resolution.
///
/// Constructed from [`crate::ServiceConfig`] at service start; the front
/// end submits through it and the scheduler dequeues and routes through
/// it.
///
/// It is the backpressure point of the service: a non-blocking submission
/// to a full queue is rejected ([`ServiceError::Saturated`], with the
/// [`RETRY_AFTER`] hint), a blocking one parks the submitter until the
/// scheduler takes a job or the governor closes.
pub(crate) struct AdmissionGovernor {
    weights: BTreeMap<TenantId, TenantQuota>,
    capacity: usize,
    state: Mutex<GovernorState>,
    /// Parks blocking submitters while the queue is full.
    space: Condvar,
    telemetry: telemetry::Telemetry,
}

impl AdmissionGovernor {
    /// A governor whose queue holds at most `queue_capacity` jobs (floor 1),
    /// weighting each tenant by its entry in `weights` (1 if it has none).
    pub(crate) fn new(queue_capacity: usize, weights: BTreeMap<TenantId, TenantQuota>) -> Self {
        Self {
            weights,
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

    /// The fair-share weight of `tenant`.
    fn weight(&self, tenant: TenantId) -> u64 {
        self.weights.get(&tenant).map_or(1, |quota| quota.weight)
    }

    /// Front-end submission: the capacity check and the bounded
    /// weighted-fair push, one step under the lock, taken again from the
    /// top each time a `blocking` submitter wakes with space in the queue.
    pub(crate) fn submit(&self, job: QueuedJob, blocking: bool) -> Result<(), ServiceError> {
        let tenant = job.spec.tenant;
        let weight = self.weight(tenant);
        let mut state = self.state.lock().expect("governor lock");
        let mut waited = false;
        let refusal = loop {
            if state.closed {
                break ServiceError::ShuttingDown;
            }
            if state.queue.len() < self.capacity {
                state.stats(tenant, weight).jobs_admitted += 1;
                let priority = job.spec.priority;
                state.queue.push(tenant, weight, priority, job);
                let depth = state.queue.len();
                state.high_water = state.high_water.max(depth);
                drop(state);
                self.telemetry
                    .count("fusiond_jobs_queued_total", &[("tenant", &tenant.label())]);
                self.gauge_queue_depth(depth);
                return Ok(());
            }
            if !blocking {
                break ServiceError::Saturated {
                    retry_after: RETRY_AFTER,
                };
            }
            waited = true;
            state = self.space.wait(state).expect("governor lock");
        };
        // A refused tenant still gets its report row and weight (the front
        // end records the refusal itself); a closed governor's refusal is
        // not the tenant's.
        if !matches!(refusal, ServiceError::ShuttingDown) {
            state.stats(tenant, weight);
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
    pub(crate) fn resolve(
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

    /// Jobs currently queued (all tenants).
    pub(crate) fn queue_depth(&self) -> usize {
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
    /// tenant's weight and its admitted jobs.
    pub(crate) fn fold_into(&self, report: &mut ServiceReport) {
        let state = self.state.lock().expect("governor lock");
        for (tenant, ours) in &state.tenants {
            let stats = report.tenants.entry(*tenant).or_default();
            stats.weight = ours.weight;
            stats.jobs_admitted = ours.jobs_admitted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_ids_label_and_order() {
        assert_eq!(TenantId(3).label(), "t3");
        assert_eq!(TenantId(3).to_string(), "t3");
        assert!(TenantId(1) < TenantId(2));
        assert_eq!(TenantId::default(), TenantId(0));
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
    fn retry_hints_render() {
        assert_eq!(RETRY_AFTER, RetryAfter(Duration::from_millis(25)));
        assert!(RETRY_AFTER.to_string().contains("retry after"));
    }

    fn governor(capacity: usize) -> AdmissionGovernor {
        AdmissionGovernor::new(capacity, BTreeMap::new())
    }

    fn job(id: JobId, tenant: TenantId) -> QueuedJob {
        use crate::job::CubeSource;
        QueuedJob {
            id,
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
            retry_after: RETRY_AFTER,
        }
    }

    #[test]
    fn saturation_rejects_and_high_water_tracks() {
        let g = governor(2);
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
        let g = std::sync::Arc::new(governor(1));
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
        let g = std::sync::Arc::new(governor(1));
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
        let g = governor(0);
        let t = TenantId::default();
        g.submit(job(1, t), false).unwrap();
        assert_eq!(g.submit(job(2, t), false).unwrap_err(), saturated());
    }

    /// The capacity check and the push are one step: however eight
    /// submitters interleave, the queue never holds more than its capacity
    /// and every attempt is either admitted or refused as saturated.
    #[test]
    fn capacity_holds_under_concurrent_submitters() {
        const THREADS: u64 = 8;
        const ATTEMPTS: u64 = 200;
        let tenant = TenantId(7);
        let g = governor(3);
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
                                Err(ServiceError::Saturated { .. }) => refused += 1,
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
