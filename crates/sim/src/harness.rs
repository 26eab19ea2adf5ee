//! The harness: builds the simulated cluster and the hosted service for a
//! [`Scenario`], runs it on virtual time, and judges what happened into an
//! assertable [`ScenarioReport`].

use crate::actors::{HostActor, HostOutput, HostParams, Joined, MemberActor};
use crate::clock::SimClock;
use crate::scenario::{Client, Scenario};
use crate::trace::{render_span_tree, TraceLog};
use crate::SplitMix64;
use hsi::HyperCube;
use netsim::{
    ActorId, ClusterSim, Duration, LinkFault, LinkVerdict, NodeId, NodeSpec, SimConfig, SimTime,
};
use pct::distributed::MANAGER;
use pct::messages::PctMessage;
use pct::FusionOutput;
use service::{
    FusionService, JobOutcome, JobStatus, PoolConfig, ServiceConfig, ServiceError, ServiceReport,
    TenantId, TenantQuota,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use telemetry::Telemetry;

/// A scenario that could not be built or run.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// Name of the failing scenario.
    pub scenario: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario {:?}: {}", self.scenario, self.message)
    }
}

impl std::error::Error for SimFailure {}

/// A job's cube and its reference output.
pub type JobInput = (Arc<HyperCube>, Arc<FusionOutput>);

/// Everything observable about one scenario run — a pure function of the
/// scenario, assertable byte-for-byte.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Scenario seed.
    pub seed: u64,
    /// Every invariant the run broke; empty when it passed.
    pub violations: Vec<String>,
    /// Each job's terminal status; `None` for a refused submission.
    pub statuses: Vec<Option<JobStatus>>,
    /// FNV-1a digest of each completed output a client took.
    pub images: Vec<Option<u64>>,
    /// Virtual time from start to the service's finish.
    pub makespan: Duration,
    /// The bound the scenario demanded of every job and of the makespan.
    pub makespan_bound: Duration,
    /// Simulator events processed.
    pub events: u64,
    /// Messages actors attempted to send.
    pub messages_sent: u64,
    /// Messages lost to dead nodes, partitions or transit drops.
    pub messages_dropped: u64,
    /// Members whose node was killed.
    pub kills: u32,
    /// Outcomes clients took after admission closed, through handles that
    /// outlived the service.
    pub late_outcomes: usize,
    /// Losses of killed members the service confirmed (its `detect` spans).
    pub detections: u32,
    /// Detection latencies in virtual nanoseconds, in detection order.
    pub detection_latency_ns: Vec<u64>,
    /// The service's own report, as [`service::HostedScheduler::finish`]
    /// returned it: counts only, a function of the run.
    pub service: ServiceReport,
    /// Every service event, stamped with virtual nanoseconds.
    pub event_log: String,
    /// The host's deterministic trace.
    pub trace: String,
    /// The telemetry span tree rendered on virtual time.
    pub span_tree: String,
    /// Prometheus-format histogram/counter snapshot.
    pub metrics_snapshot: String,
}

impl ScenarioReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Jobs that ended with `status`.
    pub fn terminal_count(&self, status: JobStatus) -> usize {
        self.statuses.iter().filter(|s| **s == Some(status)).count()
    }

    /// Submissions admission refused.
    pub fn refused(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_none()).count()
    }

    /// A single string capturing every observable of the run; two runs of
    /// the same scenario must produce byte-identical blobs.
    pub fn replay_blob(&self) -> String {
        format!(
            "scenario={} seed={:#x}\nviolations={:?}\nstatuses={:?} images={:x?}\n\
             makespan_ns={} events={} sent={} dropped={} kills={} detections={}\n\
             latencies={:?}\nservice={:?}\n--- events ---\n{}\n--- trace ---\n{}\n\
             --- spans ---\n{}--- metrics ---\n{}",
            self.name,
            self.seed,
            self.violations,
            self.statuses,
            self.images,
            self.makespan.as_nanos(),
            self.events,
            self.messages_sent,
            self.messages_dropped,
            self.kills,
            self.detections,
            self.detection_latency_ns,
            self.service,
            self.event_log,
            self.trace,
            self.span_tree,
            self.metrics_snapshot,
        )
    }
}

/// The composed link-fault hook: partitions, transit drop budgets,
/// constant per-member delays and seeded reorder jitter, judged in that
/// order.
struct ScenarioLinkFault {
    /// `(member node, window start, window end)`.
    partitions: Vec<(NodeId, SimTime, SimTime)>,
    /// Remaining host→member task drops, keyed by member node index.
    drop_budget: BTreeMap<usize, usize>,
    /// Constant extra delay keyed by member node index.
    delays: BTreeMap<usize, Duration>,
    jitter: Option<(SplitMix64, Duration)>,
}

impl LinkFault<PctMessage> for ScenarioLinkFault {
    fn judge(&mut self, now: SimTime, from: NodeId, to: NodeId, msg: &PctMessage) -> LinkVerdict {
        for &(node, start, until) in &self.partitions {
            let cut = (from == HOST && to == node) || (from == node && to == HOST);
            if cut && now >= start && now < until {
                return LinkVerdict::Drop;
            }
        }
        if from == HOST && msg.task().is_some() {
            if let Some(left) = self.drop_budget.get_mut(&to.0).filter(|left| **left > 0) {
                *left -= 1;
                return LinkVerdict::Drop;
            }
        }
        let mut extra = Duration::ZERO;
        for node in [from.0, to.0] {
            if let Some(d) = self.delays.get(&node) {
                extra += *d;
            }
        }
        if let Some((rng, max)) = &mut self.jitter {
            extra += Duration::from_nanos(rng.below(max.as_nanos()));
        }
        if extra > Duration::ZERO {
            LinkVerdict::Delay(extra)
        } else {
            LinkVerdict::Deliver
        }
    }
}

/// The host's node; members follow in [`Scenario::members`] order, then the
/// spares.
const HOST: NodeId = NodeId(0);

/// Builds and runs one [`Scenario`] on virtual time.
#[derive(Debug, Clone)]
pub struct SimHarness {
    scenario: Scenario,
}

impl SimHarness {
    /// Wraps a scenario.
    pub fn new(scenario: Scenario) -> Self {
        Self { scenario }
    }

    /// Generates each job's cube and reference, and runs the scenario.
    pub fn run(&self) -> Result<ScenarioReport, SimFailure> {
        let inputs: Vec<JobInput> = self
            .scenario
            .jobs
            .iter()
            .map(|job| {
                let cube = Arc::new(job.cube.generate());
                let reference = job
                    .reference(&cube, self.scenario.config)
                    .map_err(|e| self.fail(format!("reference: {e}")))?;
                Ok((cube, Arc::new(reference)))
            })
            .collect::<Result<_, SimFailure>>()?;
        self.run_on(&inputs)
    }

    fn fail(&self, message: impl Into<String>) -> SimFailure {
        SimFailure {
            scenario: self.scenario.name.clone(),
            message: message.into(),
        }
    }

    /// Runs the scenario on already-generated inputs, one per job (the
    /// sweep runner caches cubes and references across scenarios).
    pub(crate) fn run_on(&self, inputs: &[JobInput]) -> Result<ScenarioReport, SimFailure> {
        let sc = &self.scenario;
        sc.validate().map_err(|e| self.fail(e))?;
        let members = sc.members();
        let node_of = |name: &str| NodeId(1 + members.iter().position(|m| m == name).unwrap_or(0));
        let mut nodes = NodeSpec::uniform(1 + members.len() + sc.spares);
        for (member, speed) in &sc.stragglers {
            nodes[node_of(member).0].speed = *speed;
        }
        let mut sim = ClusterSim::<PctMessage>::new(SimConfig {
            nodes,
            network: sc.network,
            max_events: 2_000_000,
        })
        .map_err(|e| self.fail(format!("cluster build: {e}")))?;
        let mut drop_budget = BTreeMap::new();
        for (member, count) in &sc.drops {
            *drop_budget.entry(node_of(member).0).or_insert(0) += count;
        }
        let mut delays = BTreeMap::new();
        for (member, extra) in &sc.link_delays {
            *delays.entry(node_of(member).0).or_insert(Duration::ZERO) += *extra;
        }
        sim.set_link_fault(Box::new(ScenarioLinkFault {
            partitions: sc
                .partitions
                .iter()
                .map(|p| {
                    (
                        node_of(&p.member),
                        SimTime::ZERO + p.from,
                        SimTime::ZERO + p.until,
                    )
                })
                .collect(),
            drop_budget,
            delays,
            jitter: sc
                .reorder
                .map(|(max, salt)| (SplitMix64::new(sc.seed ^ salt), max)),
        }));

        let clock = SimClock::new();
        sim.bind_clock(clock.cell());
        let telemetry = Telemetry::with_clock(Arc::new(clock), 1 << 12);
        let mut config = ServiceConfig::builder()
            .pool(PoolConfig {
                standard_workers: sc.standard_workers,
                replica_groups: sc.replica_groups,
                replication_level: sc.replication_level,
                shared_memory_executors: 0,
                detector: sc.detector,
                remote_workers: Vec::new(),
            })
            .queue_capacity(sc.queue_capacity)
            .max_in_flight(sc.max_in_flight)
            .chaos(sc.chaos.clone())
            .telemetry(telemetry.clone());
        for &(tenant, weight) in &sc.weights {
            config = config.tenant_quota(TenantId(tenant), TenantQuota::weighted(weight));
        }
        let config = config
            .build()
            .map_err(|e| self.fail(format!("config: {e}")))?;
        // Virtual time zero is this instant on the scheduler's clock.
        let epoch = Instant::now();
        let (service, driver, pool) =
            FusionService::hosted(config, epoch).map_err(|e| self.fail(format!("service: {e}")))?;
        let events = service.subscribe();
        let joined = Box::new(move || {
            pool.try_recv().ok().map(|(mailbox, kill)| {
                let router = mailbox.router();
                Joined {
                    name: mailbox.name().to_string(),
                    post: Rc::new(move |from: &str, msg| {
                        // A stopped manager no longer reads its mailbox.
                        let _ = router.send(from, MANAGER, msg);
                    }),
                    next: Box::new(move || mailbox.try_recv().ok().flatten().map(|e| e.payload)),
                    kill,
                }
            })
        });

        let trace = TraceLog::new();
        trace.push(
            SimTime::ZERO,
            format!("scenario {} seed {:#x}", sc.name, sc.seed),
        );
        let output = Rc::new(RefCell::new(HostOutput::default()));
        let actor_on = |node: usize| (ActorId(node), NodeId(node));
        let params = HostParams {
            scenario: sc.clone(),
            cubes: inputs.iter().map(|(cube, _)| Arc::clone(cube)).collect(),
            events,
            joined,
            telemetry: telemetry.clone(),
            epoch,
            initial: members
                .iter()
                .enumerate()
                .map(|(i, name)| (name.clone(), actor_on(1 + i)))
                .collect(),
            spares: (0..sc.spares)
                .map(|j| actor_on(1 + members.len() + j))
                .collect::<VecDeque<_>>(),
            trace: trace.clone(),
            output: Rc::clone(&output),
        };
        let host = sim
            .add_actor(HOST, Box::new(HostActor::new(service, driver, params)))
            .map_err(|e| self.fail(format!("add host: {e}")))?;
        let heartbeat = Duration::from_millis(sc.detector.heartbeat_period_ms.max(1));
        for i in 0..members.len() + sc.spares {
            let first_beat = (i < members.len())
                .then(|| heartbeat.mul_f64((1 + i) as f64 / (1 + members.len()) as f64));
            let member = MemberActor::new(host, heartbeat, first_beat);
            sim.add_actor(NodeId(1 + i), Box::new(member))
                .map_err(|e| self.fail(format!("add member {i}: {e}")))?;
        }

        let outcome = sim
            .run()
            .map_err(|e| self.fail(format!("simulation: {e}")))?;
        // The simulator still owns the host (and its `Rc` clone), so take
        // the contents rather than unwrapping the cell.
        let out = std::mem::take(&mut *output.borrow_mut());
        let violations = judge(sc, &out, inputs, &telemetry);
        let latencies: Vec<u64> = telemetry
            .spans()
            .iter()
            .filter(|s| s.name == "detect")
            .map(|s| s.duration_nanos())
            .collect();
        let service = out.report.unwrap_or_default();
        Ok(ScenarioReport {
            name: sc.name.clone(),
            seed: sc.seed,
            violations,
            statuses: out
                .jobs
                .iter()
                .map(|facts| facts.terminals.first().map(|&(_, status)| status))
                .collect(),
            images: out
                .jobs
                .iter()
                .map(|facts| match &facts.outcome {
                    // FNV-1a of the image bytes.
                    Some(JobOutcome::Completed(output)) => Some(
                        output
                            .image
                            .raw()
                            .iter()
                            .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                            }),
                    ),
                    _ => None,
                })
                .collect(),
            makespan: out
                .finished_at
                .unwrap_or(outcome.finished_at)
                .since(SimTime::ZERO),
            makespan_bound: sc.makespan_bound,
            events: outcome.events_processed,
            messages_sent: outcome.metrics.messages_sent,
            messages_dropped: outcome.metrics.messages_dropped,
            kills: out.killed.len() as u32,
            late_outcomes: out.jobs.iter().filter(|f| f.taken_after_shutdown).count(),
            detections: latencies.len() as u32,
            detection_latency_ns: latencies,
            service,
            event_log: out.log.join("\n"),
            trace: trace.render(),
            span_tree: render_span_tree(&telemetry.spans()),
            metrics_snapshot: telemetry.snapshot_prometheus().unwrap_or_default(),
        })
    }
}

/// The invariants of one run, as violations.
fn judge(
    sc: &Scenario,
    out: &HostOutput,
    inputs: &[JobInput],
    telemetry: &Telemetry,
) -> Vec<String> {
    let mut violations: Vec<String> = out.anomalies.clone();
    let bound = sc.makespan_bound;
    if out
        .finished_at
        .is_none_or(|at| at.since(SimTime::ZERO) > bound)
    {
        let at = out.finished_at.map(|at| at.as_nanos());
        violations.push(format!(
            "finished at {at:?} ns, bound {} ns",
            bound.as_nanos()
        ));
    }
    let spans = telemetry.spans();
    for (i, ((plan, facts), (_, reference))) in
        sc.jobs.iter().zip(&out.jobs).zip(inputs).enumerate()
    {
        if let Some(refusal) = &facts.refused {
            // Backpressure is the one refusal, and it carries its hint.
            if !matches!(refusal, ServiceError::Saturated { retry_after } if !retry_after.0.is_zero())
            {
                violations.push(format!("job {i} refused: {refusal}"));
            }
            continue;
        }
        let &[(at, status)] = facts.terminals.as_slice() else {
            violations.push(format!(
                "job {i}: {} terminal events",
                facts.terminals.len()
            ));
            continue;
        };
        let deadline = plan
            .timeout
            .zip(facts.admitted_at)
            .map(|(t, admitted)| admitted + t);
        let expected = if facts.cancelled {
            status == JobStatus::Cancelled
        } else {
            match (status, deadline) {
                (JobStatus::TimedOut, Some(deadline)) => at == deadline,
                (JobStatus::Completed, deadline) => deadline.is_none_or(|d| at < d),
                _ => false,
            }
        };
        if !expected {
            violations.push(format!(
                "job {i} ended {status:?} at {} ns (cancelled {}, deadline {:?})",
                at.as_nanos(),
                facts.cancelled,
                deadline.map(|d| d.as_nanos())
            ));
        }
        if let Some(submitted) = facts.submitted_at {
            if at.since(submitted) > bound {
                violations.push(format!("job {i}'s latency is over the bound"));
            }
        }
        let waits = matches!(plan.client, Client::Wait | Client::Cancel(_));
        match &facts.outcome {
            Some(JobOutcome::Completed(output)) if output != reference.as_ref() => {
                violations.push(format!("job {i}'s output differs from its reference"))
            }
            Some(outcome) if outcome.status() != status => violations.push(format!(
                "job {i}'s outcome {:?} is not its event",
                outcome.status()
            )),
            None if waits => violations.push(format!("job {i}'s client took no outcome")),
            _ => {}
        }
        // The job's root span is closed, with its terminal status.
        let label = match status {
            JobStatus::Completed => "completed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::TimedOut => "timed-out",
            _ => "failed",
        };
        let id = facts.id;
        if !spans
            .iter()
            .any(|s| s.name == "job" && s.job == id && s.detail == label)
        {
            violations.push(format!("job {i}'s span is open or mislabelled"));
        }
    }
    violations.extend(fairness(sc, &out.queue));
    if let Some(report) = &out.report {
        violations.extend(attribution(sc, out, report));
    }
    for member in out.attacked.difference(&out.regenerated) {
        violations.push(format!("attacked {member} was never regenerated"));
    }
    if out.leftovers > 0 {
        violations.push(format!("{} messages left in mailboxes", out.leftovers));
    }
    if telemetry.dropped_records() > 0 {
        violations.push("the flight recorder dropped records".into());
    }
    let ids: std::collections::BTreeSet<_> = spans.iter().map(|s| s.id).collect();
    if spans
        .iter()
        .any(|s| s.parent.is_some_and(|p| !ids.contains(&p)))
    {
        violations.push("a span's parent was never closed".into());
    }
    violations
}

/// The report's accounting against what the clients saw: per tenant,
/// admissions, completions and refusals; every counter of a lifecycle fact
/// exactly what the host's subscription folds to; and no payload byte
/// deep-copied into a task on the view message plane.
fn attribution(sc: &Scenario, out: &HostOutput, report: &ServiceReport) -> Vec<String> {
    let mut violations = Vec::new();
    if out.fold != report.facts() {
        violations.push(format!(
            "the event stream folds to {:?}, the report's facts are {:?}",
            out.fold,
            report.facts()
        ));
    }
    let mut seen: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for (plan, facts) in sc.jobs.iter().zip(&out.jobs) {
        let tenant = seen.entry(plan.tenant).or_default();
        if facts.refused.is_some() {
            tenant.2 += 1;
        } else {
            tenant.0 += 1;
            let completed = facts.terminals.first().map(|t| t.1) == Some(JobStatus::Completed);
            tenant.1 += u64::from(completed);
        }
    }
    for (tenant, (admitted, completed, rejected)) in seen {
        let stats = report.tenants.get(&TenantId(tenant)).copied();
        let stats = stats.unwrap_or_default();
        let reported = (
            stats.jobs_admitted,
            stats.jobs_completed,
            stats.jobs_rejected,
        );
        if reported != (admitted, completed, rejected) {
            violations.push(format!(
                "tenant {tenant} reported {stats:?}, clients saw {admitted} admitted, \
                 {completed} completed, {rejected} rejected"
            ));
        }
    }
    let cloned = report.bytes_cloned();
    if cloned > 0 {
        violations.push(format!("{cloned} payload bytes cloned into tasks"));
    }
    violations
}

/// Deficit round-robin, checked over the admission queue's transitions: for
/// two tenants continuously backlogged together, `served / weight` never
/// differs by more than one round — failures and cancellations included,
/// since they leave the queue the same way.
fn fairness(sc: &Scenario, queue: &[(bool, u64)]) -> Option<String> {
    let weight = |tenant: u64| {
        sc.weights
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(1, |(_, w)| *w) as f64
    };
    let mut backlog: BTreeMap<u64, usize> = BTreeMap::new();
    let mut served: BTreeMap<u64, f64> = BTreeMap::new();
    for &(popped, tenant) in queue {
        let was = backlog.get(&tenant).copied().unwrap_or(0);
        let joint = backlog.values().filter(|n| **n > 0).count() >= 2;
        if popped {
            backlog.insert(tenant, was.saturating_sub(1));
            if joint {
                *served.entry(tenant).or_default() += 1.0 / weight(tenant);
                let (lo, hi) = served
                    .values()
                    .fold((f64::MAX, 0.0_f64), |(lo, hi), s| (lo.min(*s), hi.max(*s)));
                let spread = hi - lo;
                if served.len() >= 2 && spread > 1.0 + 1e-9 {
                    return Some(format!(
                        "tenant {tenant} ran {spread:.2} rounds ahead of its share"
                    ));
                }
            }
        } else {
            backlog.insert(tenant, was + 1);
        }
        // A joint backlog starts afresh whenever a tenant joins or drains.
        if (was == 0) != (backlog[&tenant] == 0) {
            served.clear();
            for (t, n) in &backlog {
                if *n > 0 {
                    served.insert(*t, 0.0);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use service::ChaosPhase;

    #[test]
    fn fault_free_run_matches_sequential_byte_for_byte() {
        let report = SimHarness::new(Scenario::baseline("calm", 7))
            .run()
            .unwrap();
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.terminal_count(JobStatus::Completed), 1);
        assert_eq!((report.kills, report.detections), (0, 0));
    }

    #[test]
    fn chaos_kill_still_converges_to_identical_output() {
        let sc = Scenario::baseline("kill-screen", 7).with_chaos_kill(ChaosPhase::Screen, "rg0#0");
        let report = SimHarness::new(sc).run().unwrap();
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.kills, 1);
        assert_eq!(report.service.regenerations, 1);
        assert!(report.span_tree.contains("regenerate"));
    }

    /// The spans are the one instrument of time: every job, phase and
    /// completion they close reaches its histogram, on virtual time.
    #[test]
    fn the_histograms_see_every_job_and_every_phase() {
        let sc = Scenario::baseline("histograms", 7).with_chaos_kill(ChaosPhase::Screen, "rg0#0");
        let report = SimHarness::new(sc).run().unwrap();
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.kills, 1);
        let metric = |series: &str| -> Option<f64> {
            let value = |line: &str| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok();
            report.metrics_snapshot.lines().find_map(value)
        };
        // Every closed span as (name, virtual nanoseconds, detail).
        let spans: Vec<(&str, u64, &str)> = (report.span_tree.lines())
            .map(|line| {
                let (name, rest) = line.trim_start().split_once(" [").unwrap();
                let (range, detail) = rest.split_once(']').unwrap();
                let (start, end) = range
                    .strip_suffix(" ns")
                    .unwrap()
                    .split_once(" ns .. ")
                    .unwrap();
                let nanos = end.parse::<u64>().unwrap() - start.parse::<u64>().unwrap();
                (name, nanos, detail.trim_start())
            })
            .collect();
        let completed: Vec<u64> = (spans.iter())
            .filter(|&&(name, _, detail)| name == "job" && detail == "completed")
            .map(|&(_, nanos, _)| nanos)
            .collect();
        let jobs = report.service.jobs_completed;
        assert!(jobs > 0);
        assert_eq!(completed.len() as u64, jobs);
        assert_eq!(
            metric("fusiond_job_latency_seconds_count"),
            Some(jobs as f64)
        );
        let sum = std::time::Duration::from_nanos(completed.iter().sum()).as_secs_f64();
        assert_eq!(metric("fusiond_job_latency_seconds_sum"), Some(sum));
        for phase in ["screen", "derive", "transform", "inline"] {
            let closed = spans.iter().filter(|&&(name, ..)| name == phase).count();
            let series = format!("fusiond_phase_duration_seconds_count{{phase=\"{phase}\"}}");
            assert_eq!(metric(&series).unwrap_or(0.0), closed as f64, "{phase}");
        }
        assert!(metric("fusiond_phase_duration_seconds_count{phase=\"screen\"}").is_some());
    }

    #[test]
    fn same_scenario_replays_byte_identically() {
        let sc = Scenario::baseline("replay", 42).with_chaos_kill(ChaosPhase::Derive, "svc0#0");
        let a = SimHarness::new(sc.clone()).run().unwrap();
        let b = SimHarness::new(sc).run().unwrap();
        assert_eq!(a.replay_blob(), b.replay_blob());
    }
}
