//! The [`ServiceReport`]: counters and latency statistics describing one
//! service lifetime.

use crate::admission::{ShedReason, TenantId};
use crate::events::ServiceEvent;
use crate::job::{BackendKind, JobStatus, Priority};
use std::collections::BTreeMap;
use std::time::{Duration, SystemTime};

/// Per-tenant accounting.  `weight`, `jobs_admitted` and `jobs_downgraded`
/// are kept by the [`crate::AdmissionGovernor`] and folded into the report
/// at shutdown; the rest is the fold of the tenant's events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's fair-share weight at the time it was first seen.
    pub weight: u64,
    /// Jobs accepted into the admission queue.
    pub jobs_admitted: u64,
    /// Of the admitted, jobs down-prioritized by the soft watermark.
    pub jobs_downgraded: u64,
    /// Submissions shed at a hard watermark.
    pub jobs_shed: u64,
    /// Submissions rejected (queue saturation or tenant quota).
    pub jobs_rejected: u64,
    /// Admitted jobs that completed successfully.
    pub jobs_completed: u64,
}

/// Per-route accounting: how many jobs ran on one execution lane and how
/// they got there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Jobs admitted onto this lane (pinned or auto-routed).
    pub jobs_routed: u64,
    /// Of those, jobs the size rule chose ([`crate::Route::Auto`]).
    pub auto_routed: u64,
    /// Jobs that completed successfully on this lane.
    pub jobs_completed: u64,
    /// Tasks dispatched onto this lane (a shared-memory whole-job dispatch
    /// counts once).
    pub tasks_dispatched: u64,
}

/// Latency statistics for one priority class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of completed jobs measured.
    pub count: u64,
    /// Sum of submit-to-completion latencies.
    pub total: Duration,
    /// Worst submit-to-completion latency.
    pub max: Duration,
}

impl LatencyStats {
    /// Records one completed job's latency.
    pub fn record(&mut self, latency: Duration) {
        self.count += 1;
        self.total += latency;
        self.max = self.max.max(latency);
    }

    /// Mean latency (zero when nothing was measured).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }
}

/// Aggregate accounting of one service lifetime, returned by
/// [`crate::FusionService::shutdown`].
///
/// Two kinds of field.  The *fold* is what the run's [`ServiceEvent`]s say,
/// and [`ServiceReport::record`] is its only writer: the job counts
/// (`jobs_*`), the task counts `tasks_dispatched`, `tasks_retransmitted` and
/// `tasks_reassigned`, `workers_lost`, `lane_failovers`, `regenerations`,
/// `members_attacked`, every [`RouteStats`] field, and each tenant's
/// `jobs_shed`, `jobs_rejected` and `jobs_completed`.  Folding a
/// subscriber's stream from [`ServiceReport::default`] reproduces them
/// ([`ServiceReport::facts`]).  Everything else is a *measurement* no event
/// carries — message counts (`heartbeats`, `scheduler_turns`,
/// `results_received`, `duplicates_ignored`), the byte ledger, the queue's
/// high-water mark, phase durations, latencies, wall-clock times — or a
/// tenant's `weight`, `jobs_admitted` and `jobs_downgraded`, which only the
/// admission governor knows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// Jobs accepted into the queue (admitted or still queued at shutdown).
    pub jobs_submitted: u64,
    /// Jobs that completed successfully.
    pub jobs_completed: u64,
    /// Jobs that failed.
    pub jobs_failed: u64,
    /// Jobs cancelled by clients.
    pub jobs_cancelled: u64,
    /// Jobs abandoned after exceeding their deadline.
    pub jobs_timed_out: u64,
    /// Submissions rejected by admission backpressure (queue saturation or
    /// tenant quota).
    pub jobs_rejected: u64,
    /// Submissions shed by the pressure ladder's hard watermarks.
    pub jobs_shed: u64,
    /// Tasks dispatched to the pool (group sends count once).
    pub tasks_dispatched: u64,
    /// First-per-task results consumed.
    pub results_received: u64,
    /// Duplicate results discarded: replicas, retransmit echoes, and
    /// replies of a group the task was moved away from.
    pub duplicates_ignored: u64,
    /// Tasks re-sent to every current member of their group after going
    /// unanswered past the retransmit timeout (covers lost sends to
    /// members that never acked), on every lane.
    pub tasks_retransmitted: u64,
    /// Heartbeats consumed from pool members (replica members and standard
    /// workers alike).
    pub heartbeats: u64,
    /// Times the scheduler woke and ran a turn — on a message, a doorbell
    /// ring (submit, cancel, shutdown, a finished shared-memory job) or an
    /// armed timer.  It blocks in between, so an idle service adds none.
    pub scheduler_turns: u64,
    /// Groups retired by a confirmed loss their lane would not replace —
    /// every lost standard or remote worker.
    pub workers_lost: u64,
    /// In-flight tasks of retired groups re-dispatched to surviving groups
    /// (idempotent by task id, like retransmits).
    pub tasks_reassigned: u64,
    /// Running jobs moved off a drained lane onto another enabled lane.
    pub lane_failovers: u64,
    /// Sub-cube payload bytes deep-copied while building screening-phase
    /// task messages (clone-ledger delta): 0 on the view-based message
    /// plane.
    pub bytes_cloned_screen: u64,
    /// Sub-cube payload bytes deep-copied while building transform-phase
    /// task messages: 0 on the view-based message plane.
    pub bytes_cloned_transform: u64,
    /// Sub-cube payload bytes *referenced* by dispatched task messages —
    /// the volume the pre-view message plane deep-copied per task, kept as
    /// the denominator that makes `bytes_cloned_*` meaningful.
    pub payload_bytes_shipped: u64,
    /// Deepest the admission queue ever got.
    pub queue_high_water: usize,
    /// Member regenerations performed by the resilient lane.
    pub regenerations: usize,
    /// Members killed by attack injection during the run.
    pub members_attacked: Vec<String>,
    /// Wall-clock lifetime of the scheduler.
    pub elapsed: Duration,
    /// Wall-clock time the scheduler thread started.
    pub started_at: Option<SystemTime>,
    /// Wall-clock time the scheduler finished (set at shutdown).
    pub finished_at: Option<SystemTime>,
    /// Total time jobs spent in each execution phase, keyed by phase name
    /// (`screen`, `derive`, `transform`, `inline`) — sourced from telemetry
    /// spans when enabled, from the scheduler's own clock otherwise.
    pub phase_durations: BTreeMap<&'static str, Duration>,
    /// Submit-to-completion latency per priority class.
    pub latency: BTreeMap<Priority, LatencyStats>,
    /// Per-route accounting: jobs and tasks per execution lane, and how many
    /// lane choices came from the size rule.
    pub routes: BTreeMap<BackendKind, RouteStats>,
    /// Per-tenant admission accounting (weights, admissions, downgrades,
    /// sheds, rejections, completions).
    pub tenants: BTreeMap<TenantId, TenantStats>,
}

impl ServiceReport {
    /// Total sub-cube payload bytes deep-copied for task messages across
    /// both accounted phases.
    pub fn bytes_cloned(&self) -> u64 {
        self.bytes_cloned_screen + self.bytes_cloned_transform
    }

    /// Completed jobs per wall-clock second.
    pub fn throughput_jobs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.jobs_completed as f64 / secs
        }
    }

    /// Records one completed job's latency under its priority class.
    pub fn record_latency(&mut self, priority: Priority, latency: Duration) {
        self.latency.entry(priority).or_default().record(latency);
    }

    /// Accumulates one job's time spent in `phase`.
    pub fn record_phase(&mut self, phase: &'static str, duration: Duration) {
        *self.phase_durations.entry(phase).or_default() += duration;
    }

    /// Folds one event into the report: the only writer of the fold fields
    /// (see the type's documentation).  Every job taken off the admission
    /// queue ends in exactly one `Terminal`, so `jobs_submitted` counts
    /// those; a refusal is `Rejected` — quota and saturation count as
    /// rejected, a watermark as shed.
    pub fn record(&mut self, event: &ServiceEvent) {
        match event {
            ServiceEvent::Admitted { route, auto, .. } => {
                let stats = self.routes.entry(*route).or_default();
                stats.jobs_routed += 1;
                stats.auto_routed += u64::from(*auto);
            }
            ServiceEvent::Rejected { tenant, reason, .. } => {
                let stats = self.tenants.entry(*tenant).or_default();
                if matches!(reason, ShedReason::Quota | ShedReason::Saturated) {
                    self.jobs_rejected += 1;
                    stats.jobs_rejected += 1;
                } else {
                    self.jobs_shed += 1;
                    stats.jobs_shed += 1;
                }
            }
            ServiceEvent::Dispatched { route, .. } => {
                self.tasks_dispatched += 1;
                self.routes.entry(*route).or_default().tasks_dispatched += 1;
            }
            ServiceEvent::Retransmitted { .. } => self.tasks_retransmitted += 1,
            ServiceEvent::MemberKilled { member } => self.members_attacked.push(member.clone()),
            ServiceEvent::WorkerLost { .. } => self.workers_lost += 1,
            ServiceEvent::TaskReassigned { .. } => self.tasks_reassigned += 1,
            ServiceEvent::LaneFailover { .. } => self.lane_failovers += 1,
            ServiceEvent::MemberRegenerated { .. } => self.regenerations += 1,
            ServiceEvent::Terminal {
                tenant,
                status,
                route,
                ..
            } => {
                self.jobs_submitted += 1;
                let stats = self.tenants.entry(*tenant).or_default();
                match status {
                    JobStatus::Completed => {
                        self.jobs_completed += 1;
                        stats.jobs_completed += 1;
                        if let Some(route) = route {
                            self.routes.entry(*route).or_default().jobs_completed += 1;
                        }
                    }
                    JobStatus::Cancelled => self.jobs_cancelled += 1,
                    JobStatus::TimedOut => self.jobs_timed_out += 1,
                    _ => self.jobs_failed += 1,
                }
            }
        }
    }

    /// This report's fold fields with `measured`'s measurements.
    pub(crate) fn with_measurements(self, measured: ServiceReport) -> ServiceReport {
        ServiceReport {
            results_received: measured.results_received,
            duplicates_ignored: measured.duplicates_ignored,
            heartbeats: measured.heartbeats,
            scheduler_turns: measured.scheduler_turns,
            bytes_cloned_screen: measured.bytes_cloned_screen,
            bytes_cloned_transform: measured.bytes_cloned_transform,
            payload_bytes_shipped: measured.payload_bytes_shipped,
            queue_high_water: measured.queue_high_water,
            elapsed: measured.elapsed,
            started_at: measured.started_at,
            finished_at: measured.finished_at,
            phase_durations: measured.phase_durations,
            latency: measured.latency,
            ..self
        }
    }

    /// The fold fields alone, every measurement and governor field at its
    /// default: what folding the run's event stream from
    /// [`ServiceReport::default`] with [`ServiceReport::record`] gives.
    pub fn facts(&self) -> ServiceReport {
        let mut facts = self.clone().with_measurements(ServiceReport::default());
        for stats in facts.tenants.values_mut() {
            stats.weight = 0;
            stats.jobs_admitted = 0;
            stats.jobs_downgraded = 0;
        }
        facts
    }

    /// The stats of one lane (all-zero if nothing ever ran there).
    pub fn route(&self, route: BackendKind) -> RouteStats {
        self.routes.get(&route).copied().unwrap_or_default()
    }

    /// A human-readable multi-line rendering for examples and logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("fusiond service report\n");
        // What a remote worker must announce to join this service's pool:
        // outputs are byte-identical within a numerics version only.
        out.push_str(&format!(
            "  build:  wire protocol v{}, numerics n{}\n",
            wire::PROTOCOL_VERSION,
            linalg::NUMERICS_VERSION,
        ));
        out.push_str(&format!(
            "  jobs:   {} completed, {} failed, {} cancelled, {} timed out ({} submitted, {} rejected by backpressure)\n",
            self.jobs_completed,
            self.jobs_failed,
            self.jobs_cancelled,
            self.jobs_timed_out,
            self.jobs_submitted,
            self.jobs_rejected,
        ));
        if self.jobs_shed > 0 {
            out.push_str(&format!(
                "          {} shed by pressure watermarks\n",
                self.jobs_shed
            ));
        }
        out.push_str(&format!(
            "  tasks:  {} dispatched, {} results ({} replica duplicates ignored, {} retransmits), {} heartbeats, {} scheduler turns\n",
            self.tasks_dispatched,
            self.results_received,
            self.duplicates_ignored,
            self.tasks_retransmitted,
            self.heartbeats,
            self.scheduler_turns,
        ));
        out.push_str(&format!(
            "  copies: {} payload bytes cloned ({} screen, {} transform) of {} shipped by view\n",
            self.bytes_cloned(),
            self.bytes_cloned_screen,
            self.bytes_cloned_transform,
            self.payload_bytes_shipped,
        ));
        for kind in BackendKind::ALL {
            if let Some(stats) = self.routes.get(&kind) {
                out.push_str(&format!(
                    "  route {:>13}: {} jobs ({} auto-routed), {} completed, {} tasks\n",
                    kind.label(),
                    stats.jobs_routed,
                    stats.auto_routed,
                    stats.jobs_completed,
                    stats.tasks_dispatched,
                ));
            }
        }
        for (tenant, stats) in &self.tenants {
            out.push_str(&format!(
                "  tenant {:>6} (w{}): {} admitted ({} downgraded), {} shed, {} rejected, {} completed\n",
                tenant.label(),
                stats.weight,
                stats.jobs_admitted,
                stats.jobs_downgraded,
                stats.jobs_shed,
                stats.jobs_rejected,
                stats.jobs_completed,
            ));
        }
        out.push_str(&format!(
            "  queue:  high-water mark {} jobs\n",
            self.queue_high_water
        ));
        out.push_str(&format!(
            "  pool:   {} regenerations, attacked members: {:?}\n",
            self.regenerations, self.members_attacked
        ));
        if self.workers_lost > 0 || self.tasks_reassigned > 0 || self.lane_failovers > 0 {
            out.push_str(&format!(
                "  failover: {} workers lost, {} tasks reassigned, {} lane failovers\n",
                self.workers_lost, self.tasks_reassigned, self.lane_failovers,
            ));
        }
        out.push_str(&format!(
            "  time:   {:.3} s elapsed -> {:.1} jobs/s throughput\n",
            self.elapsed.as_secs_f64(),
            self.throughput_jobs_per_sec(),
        ));
        if let (Some(started), Some(finished)) = (self.started_at, self.finished_at) {
            out.push_str(&format!(
                "  wall:   started {:.3}, finished {:.3} (unix)\n",
                unix_secs(started),
                unix_secs(finished),
            ));
        }
        for (phase, duration) in &self.phase_durations {
            out.push_str(&format!(
                "  phase {:>9}: {:>8.3} s total\n",
                phase,
                duration.as_secs_f64(),
            ));
        }
        for priority in Priority::ALL {
            if let Some(stats) = self.latency.get(&priority) {
                out.push_str(&format!(
                    "  latency {:>6}: mean {:>8.3} ms, max {:>8.3} ms ({} jobs)\n",
                    priority.label(),
                    stats.mean().as_secs_f64() * 1e3,
                    stats.max.as_secs_f64() * 1e3,
                    stats.count,
                ));
            }
        }
        out
    }
}

/// Seconds since the Unix epoch (0.0 for pre-epoch times).
fn unix_secs(t: SystemTime) -> f64 {
    t.duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::one_of_each;

    #[test]
    fn latency_stats_track_mean_and_max() {
        let mut stats = LatencyStats::default();
        assert_eq!(stats.mean(), Duration::ZERO);
        stats.record(Duration::from_millis(10));
        stats.record(Duration::from_millis(30));
        assert_eq!(stats.count, 2);
        assert_eq!(stats.mean(), Duration::from_millis(20));
        assert_eq!(stats.max, Duration::from_millis(30));
    }

    #[test]
    fn throughput_handles_zero_elapsed() {
        let report = ServiceReport::default();
        assert_eq!(report.throughput_jobs_per_sec(), 0.0);
    }

    #[test]
    fn render_mentions_the_headline_numbers() {
        let mut report = ServiceReport {
            queue_high_water: 3,
            elapsed: Duration::from_secs(2),
            ..ServiceReport::default()
        };
        report.bytes_cloned_screen = 7;
        report.payload_bytes_shipped = 99;
        report.scheduler_turns = 11;
        report.record_latency(Priority::High, Duration::from_millis(12));
        for event in &one_of_each() {
            report.record(event);
        }
        assert_eq!(report.bytes_cloned(), 7);
        let text = report.render();
        assert!(text.contains("  build:  wire protocol v2, numerics n3\n"));
        assert!(text.contains("1 completed"));
        assert!(text.contains("1 rejected"));
        assert!(text.contains("high-water mark 3"));
        assert!(text.contains("0 heartbeats, 11 scheduler turns"));
        assert!(text.contains("7 payload bytes cloned"));
        assert!(text.contains("99 shipped by view"));
        assert!(text.contains("latency   high"));
        assert!(text.contains("route      standard: 1 jobs (1 auto-routed), 0 completed, 1 tasks"));
        assert!(text.contains("route shared-memory: 0 jobs (0 auto-routed), 1 completed, 0 tasks"));
        assert!(text.contains("1 workers lost, 1 tasks reassigned, 1 lane failovers"));
        assert!(text.contains("1 regenerations, attacked members: [\"svc0#0\"]"));
        assert!((report.throughput_jobs_per_sec() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn wall_clock_and_phase_durations_render() {
        let mut report = ServiceReport {
            started_at: Some(SystemTime::UNIX_EPOCH + Duration::from_secs(100)),
            finished_at: Some(SystemTime::UNIX_EPOCH + Duration::from_secs(103)),
            ..Default::default()
        };
        report.record_phase("screen", Duration::from_millis(250));
        report.record_phase("screen", Duration::from_millis(250));
        report.record_phase("derive", Duration::from_millis(100));
        assert_eq!(
            report.phase_durations.get("screen"),
            Some(&Duration::from_millis(500))
        );
        let text = report.render();
        assert!(text.contains("started 100.000, finished 103.000"));
        assert!(text.contains("phase    screen:    0.500 s total"));
        assert!(text.contains("phase    derive:    0.100 s total"));
    }

    #[test]
    fn route_stats_accumulate_per_lane() {
        let mut report = ServiceReport::default();
        for event in one_of_each().iter().chain(&one_of_each()) {
            report.record(event);
        }
        let stats = report.route(BackendKind::Standard);
        assert_eq!(stats.jobs_routed, 2);
        assert_eq!(stats.auto_routed, 2);
        assert_eq!(stats.tasks_dispatched, 2);
        // The job completes on the lane it failed over to.
        assert_eq!(stats.jobs_completed, 0);
        assert_eq!(report.route(BackendKind::SharedMemory).jobs_completed, 2);
        // Lanes nothing ran on read as all-zero.
        assert_eq!(report.route(BackendKind::Resilient), RouteStats::default());
    }

    #[test]
    fn a_stream_of_every_kind_folds_to_exact_counters() {
        use JobStatus::{Cancelled, Failed, TimedOut};
        use ShedReason::{InFlightBytes, QueueDepth, Saturated};
        let (a, b) = (TenantId(2), TenantId(5));
        // Every kind once (a failover before a completion among them), then
        // a terminal of every other status and a refusal of every other
        // reason.
        let mut stream = one_of_each();
        for (job, tenant, status) in [(3, a, Failed), (4, b, Cancelled), (5, b, TimedOut)] {
            let route = Some(BackendKind::Resilient).filter(|_| status != Cancelled);
            stream.push(ServiceEvent::Terminal {
                job,
                tenant,
                status,
                route,
            });
        }
        for (job, reason) in [(6, QueueDepth), (7, InFlightBytes), (8, Saturated)] {
            let retry_after = crate::RetryAfter::default();
            stream.push(ServiceEvent::Rejected {
                job,
                tenant: b,
                reason,
                retry_after,
            });
        }
        let mut report = ServiceReport::default();
        for event in &stream {
            report.record(event);
        }
        let jobs = [
            report.jobs_submitted,
            report.jobs_completed,
            report.jobs_failed,
            report.jobs_cancelled,
            report.jobs_timed_out,
            report.jobs_rejected,
            report.jobs_shed,
        ];
        assert_eq!(jobs, [4, 1, 1, 1, 1, 2, 2]);
        let faults = [
            report.tasks_dispatched,
            report.tasks_retransmitted,
            report.workers_lost,
            report.tasks_reassigned,
            report.lane_failovers,
        ];
        assert_eq!(faults, [1, 1, 1, 1, 1]);
        assert_eq!(report.regenerations, 1);
        assert_eq!(report.members_attacked, ["svc0#0"]);
        let route = |jobs_routed, auto_routed, jobs_completed, tasks_dispatched| RouteStats {
            jobs_routed,
            auto_routed,
            jobs_completed,
            tasks_dispatched,
        };
        let routes = BTreeMap::from([
            (BackendKind::Standard, route(1, 1, 0, 1)),
            (BackendKind::SharedMemory, route(0, 0, 1, 0)),
        ]);
        assert_eq!(report.routes, routes);
        let tenant = |jobs_shed, jobs_rejected, jobs_completed| TenantStats {
            jobs_shed,
            jobs_rejected,
            jobs_completed,
            ..TenantStats::default()
        };
        let tenants = BTreeMap::from([(a, tenant(0, 1, 1)), (b, tenant(2, 1, 0))]);
        assert_eq!(report.tenants, tenants);
        // Nothing but the fold moved, so the report is its own facts.
        assert_eq!(report.facts(), report);
    }

    #[test]
    fn facts_keep_the_fold_and_drop_the_measurements() {
        let mut report = ServiceReport {
            heartbeats: 3,
            queue_high_water: 2,
            ..ServiceReport::default()
        };
        for event in &one_of_each() {
            report.record(event);
        }
        report.tenants.get_mut(&TenantId(2)).unwrap().weight = 4;
        let facts = report.facts();
        assert_eq!((facts.jobs_completed, facts.heartbeats), (1, 0));
        assert_eq!(facts.tenants[&TenantId(2)].weight, 0);
        assert_eq!(facts.tenants[&TenantId(2)].jobs_completed, 1);
        // Measurements come back over the fold.
        let merged = facts.with_measurements(report.clone());
        assert_eq!((merged.heartbeats, merged.queue_high_water), (3, 2));
    }
}
