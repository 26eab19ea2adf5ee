//! The public face of `fusiond`: starting the service, submitting jobs,
//! observing events, shutting down.
//!
//! Submission returns an owned [`JobHandle`] — waiting, polling,
//! cancellation and cancel-on-drop live there.  (The pre-handle id-keyed
//! methods spent one release as `#[deprecated]` shims and are gone.)

use crate::admission::{AdmissionGovernor, QueuedJob, ShedReason, TenantId};
use crate::config::ServiceConfig;
use crate::events::{EventBus, EventSubscriber, ServiceEvent};
use crate::handle::{HandlePlane, JobHandle};
use crate::job::{BackendKind, JobId, JobSpec};
use crate::pool::{Doorbell, WorkerPool};
use crate::report::ServiceReport;
use crate::routing::Route;
use crate::scheduler::Scheduler;
use crate::status::{JobRecord, StatusTable};
use crate::{Result, ServiceError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use telemetry::Telemetry;

/// A running fusion service: one scheduler thread driving one long-lived
/// four-lane worker pool, fed through a bounded admission queue.
///
/// ```no_run
/// use hsi::SceneConfig;
/// use service::{CubeSource, FusionService, JobSpec, ServiceConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = FusionService::start(ServiceConfig::builder().build()?)?;
/// let mut handle = service.submit(
///     JobSpec::builder(CubeSource::Synthetic(SceneConfig::small(1))).build()?,
/// )?;
/// let outcome = handle.wait()?;
/// println!("fused {} pixels", outcome.output().unwrap().pixels);
/// service.shutdown();
/// # Ok(())
/// # }
/// ```
///
/// Dropping the service without calling [`FusionService::shutdown`] tears the
/// pool down but discards the report.
pub struct FusionService {
    governor: Arc<AdmissionGovernor>,
    status: Arc<StatusTable>,
    cancels: Arc<Mutex<Vec<JobId>>>,
    shutdown_flag: Arc<AtomicBool>,
    /// Wakes the scheduler, which blocks on its mailbox alone: rung after
    /// every change it must see (a submission, the shutdown flag).
    doorbell: Doorbell,
    events: Arc<EventBus>,
    injector: resilience::attack::AttackInjector,
    lane_totals: [usize; 4],
    /// `(routing name, OS pid)` of every remote worker, captured at start.
    remote_workers: Vec<(String, Option<u32>)>,
    next_job: AtomicU64,
    scheduler: Option<JoinHandle<ServiceReport>>,
    telemetry: Telemetry,
}

impl FusionService {
    /// Starts the pool and the scheduler thread.
    pub fn start(config: ServiceConfig) -> Result<FusionService> {
        config.validate()?;
        let telemetry = config.telemetry.clone();
        let (pool, ctx) = WorkerPool::start(&config.pool, telemetry.clone())?;
        let injector = pool.injector();
        let doorbell = pool.doorbell();
        let lane_totals = [
            pool.standard.len(),
            pool.groups.len(),
            pool.inline.executors.len(),
            pool.remote.workers.len(),
        ];
        let remote_workers = pool.remote.worker_pids();
        let governor = Arc::new(
            AdmissionGovernor::new(
                config.queue_capacity,
                config.admission.clone(),
                Arc::clone(&config.routing),
            )
            .with_telemetry(telemetry.clone()),
        );
        let status = Arc::new(StatusTable::new());
        let cancels = Arc::new(Mutex::new(Vec::new()));
        let shutdown_flag = Arc::new(AtomicBool::new(false));
        let events = Arc::new(EventBus::with_telemetry(telemetry.clone()));
        let scheduler = Scheduler::new(
            pool,
            ctx,
            Arc::clone(&governor),
            Arc::clone(&status),
            Arc::clone(&cancels),
            Arc::clone(&shutdown_flag),
            config.max_in_flight,
            Arc::clone(&events),
            config.chaos.clone(),
            config.pool.standard_detector,
            telemetry.clone(),
        );
        let handle = std::thread::Builder::new()
            .name("fusiond-scheduler".to_string())
            .spawn(move || scheduler.run())
            .expect("failed to spawn scheduler thread");
        Ok(FusionService {
            governor,
            status,
            cancels,
            shutdown_flag,
            doorbell,
            events,
            injector,
            lane_totals,
            remote_workers,
            next_job: AtomicU64::new(1),
            scheduler: Some(handle),
            telemetry,
        })
    }

    /// Whether the pool has the lane a pinned route asks for.
    fn lane_exists(&self, kind: BackendKind) -> bool {
        let [standard, resilient, shared_memory, remote] = self.lane_totals;
        match kind {
            BackendKind::Standard => standard > 0,
            BackendKind::Resilient => resilient > 0,
            BackendKind::SharedMemory => shared_memory > 0,
            BackendKind::Remote => remote > 0,
        }
    }

    /// `(routing name, OS pid)` of every remote-lane worker.  The pid is
    /// `None` for workers that are not separate processes
    /// ([`crate::RemoteWorkerSpec::Thread`] and
    /// [`crate::RemoteWorkerSpec::Connect`]); chaos drills use the pid to
    /// kill a real worker process from outside.
    pub fn remote_workers(&self) -> &[(String, Option<u32>)] {
        &self.remote_workers
    }

    fn enqueue(&self, spec: JobSpec, blocking: bool) -> Result<JobHandle> {
        spec.validate()?;
        if let Route::Pinned(kind) = spec.route {
            if !self.lane_exists(kind) {
                return Err(ServiceError::InvalidConfig(format!(
                    "job pinned to the {} lane, but the pool has none",
                    kind.label()
                )));
            }
        }
        // Pay any cube-generation cost here, on the submitting thread — the
        // scheduler's control plane must never stall on ingestion.
        let spec = spec.into_realized()?;
        let tenant = spec.tenant;
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.status.insert(id, JobRecord::queued());
        // Root span of the job's phase tree, plus the `queued` child the
        // scheduler closes at admission (both `None` if telemetry is off).
        let span = self
            .telemetry
            .span_start("job", None, Some(id), &tenant.label());
        let queued_span = self.telemetry.span_start("queued", span, Some(id), "");
        let queued = QueuedJob {
            id,
            submitted: Instant::now(),
            spec,
            span,
            queued_span,
        };
        match self.governor.submit(queued, blocking) {
            Ok(()) => {
                self.doorbell.ring();
                Ok(JobHandle::new(
                    id,
                    HandlePlane {
                        status: Arc::clone(&self.status),
                        cancels: Arc::clone(&self.cancels),
                        doorbell: self.doorbell.clone(),
                    },
                ))
            }
            Err(e) => {
                self.status.remove(id);
                self.telemetry
                    .span_end_with_detail(queued_span, Some("rejected"));
                self.telemetry.span_end_with_detail(span, Some("rejected"));
                self.publish_rejection(id, tenant, &e);
                Err(e)
            }
        }
    }

    /// Mirrors a typed admission refusal onto the event stream, so
    /// observers can account rejections they did not themselves submit.
    fn publish_rejection(&self, id: JobId, tenant: TenantId, error: &ServiceError) {
        let (reason, retry_after) = match error {
            ServiceError::Saturated { retry_after } => (ShedReason::Saturated, *retry_after),
            ServiceError::Shed {
                reason,
                retry_after,
            } => (*reason, *retry_after),
            ServiceError::QuotaExceeded { retry_after, .. } => (ShedReason::Quota, *retry_after),
            // Shutdown (and anything else) is not an admission verdict.
            _ => return,
        };
        self.events.publish(ServiceEvent::Rejected {
            job: id,
            tenant,
            reason,
            retry_after,
        });
    }

    /// Submits a job, blocking while the admission queue is full.  The
    /// returned [`JobHandle`] owns the job: wait on it, cancel through it,
    /// or [`JobHandle::detach`] it to let the job run unobserved.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle> {
        self.enqueue(spec, true)
    }

    /// Submits a job, rejecting immediately with [`ServiceError::Saturated`]
    /// when the admission queue is full (backpressure).
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobHandle> {
        self.enqueue(spec, false)
    }

    /// Opens an independent subscription to the [`ServiceEvent`] stream
    /// (admissions with their resolved route, dispatches, retransmits,
    /// member kills and regenerations, terminal transitions).
    pub fn subscribe(&self) -> EventSubscriber {
        self.events.subscribe()
    }

    /// Number of jobs currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.governor.queue_depth()
    }

    /// Routing names of the resilient lane's live attack targets.
    pub fn attack_targets(&self) -> Vec<String> {
        self.injector.targets()
    }

    /// Kills a pool member by routing name — a replica member (`rg0#1`) or
    /// a standard worker (`svc0`) — as an attack drill.  Returns whether
    /// the member was a registered target.
    pub fn inject_attack(&self, member: &str) -> bool {
        let hit = self.injector.attack(member);
        if hit {
            // Stamp the kill time so the eventual detection can report its
            // latency and back-date the `detect` span.
            self.telemetry.note_kill(member);
            self.telemetry.instant("kill", None, None, member);
            self.events.publish(ServiceEvent::MemberKilled {
                member: member.to_string(),
            });
        }
        hit
    }

    /// Number of live event-stream subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.events.subscriber_count()
    }

    /// The service's telemetry handle: spans, metrics snapshot
    /// ([`Telemetry::snapshot_prometheus`]) and the flight recorder
    /// ([`Telemetry::chrome_trace`]).  Disabled unless the configuration
    /// supplied an enabled handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Graceful shutdown: stops accepting jobs, drains the queue and every
    /// running job, tears the pool down and returns the final report.
    /// Outstanding [`JobHandle`]s stay valid: they hold the results plane
    /// and observe the final terminal states.
    pub fn shutdown(mut self) -> ServiceReport {
        let mut report = self.stop().unwrap_or_default();
        self.governor.fold_into(&mut report);
        report
    }

    /// Stops the scheduler if it still runs and returns its report: the
    /// flag and the closed governor are what it checks, the ring is what
    /// makes it look.
    fn stop(&mut self) -> Option<ServiceReport> {
        let handle = self.scheduler.take()?;
        self.shutdown_flag.store(true, Ordering::Release);
        self.governor.close();
        self.doorbell.ring();
        handle.join().ok()
    }
}

impl Drop for FusionService {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PoolConfig, RemoteWorkerSpec};
    use crate::handle::JobOutcome;
    use crate::job::{CubeSource, JobStatus, Priority};
    use hsi::{CubeDims, SceneConfig, SceneGenerator};
    use pct::{PctConfig, SequentialPct};
    use std::sync::Arc;
    use std::time::Duration;

    fn tiny_pool() -> ServiceConfig {
        ServiceConfig::builder()
            .pool(PoolConfig {
                standard_workers: 2,
                replica_groups: 1,
                replication_level: 2,
                shared_memory_executors: 1,
                remote_workers: vec![RemoteWorkerSpec::Thread],
                ..PoolConfig::default()
            })
            .queue_capacity(16)
            .max_in_flight(4)
            .build()
            .unwrap()
    }

    fn scene(seed: u64, side: usize, bands: usize) -> SceneConfig {
        let mut config = SceneConfig::small(seed);
        config.dims = CubeDims::new(side, side, bands);
        config
    }

    #[test]
    fn jobs_complete_byte_identical_to_sequential_on_every_lane() {
        let service = FusionService::start(tiny_pool()).unwrap();
        // The Thread remote worker is a worker without a process of its own.
        assert_eq!(service.remote_workers(), &[("rw0".to_string(), None)]);
        let mut jobs = Vec::new();
        for (i, kind) in BackendKind::ALL.iter().enumerate() {
            let config = scene(40 + i as u64, 16, 8);
            let cube = Arc::new(SceneGenerator::new(config).unwrap().generate());
            let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
                .pinned(*kind)
                .shards(3)
                .build()
                .unwrap();
            let handle = service.submit(spec).unwrap();
            jobs.push((handle, cube));
        }
        for (mut handle, cube) in jobs {
            assert!(handle.status().is_ok());
            let outcome = handle.wait().unwrap();
            let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
            assert_eq!(
                outcome.output().expect("completed"),
                &reference,
                "job {} diverged from sequential",
                handle.id()
            );
            // The record is consumed, but the handle still reports status.
            assert_eq!(handle.status().unwrap(), JobStatus::Completed);
        }
        let report = service.shutdown();
        assert_eq!(report.jobs_completed, 4);
        assert_eq!(report.jobs_failed, 0);
        for kind in BackendKind::ALL {
            assert_eq!(report.route(kind).jobs_completed, 1, "{}", kind.label());
            assert_eq!(report.route(kind).auto_routed, 0);
        }
    }

    #[test]
    fn auto_routing_sends_small_cubes_to_the_shared_memory_lane() {
        let service = FusionService::start(tiny_pool()).unwrap();
        let cube = Arc::new(SceneGenerator::new(scene(7, 12, 6)).unwrap().generate());
        let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
            .route(Route::Auto)
            .priority(Priority::High)
            .build()
            .unwrap();
        let mut handle = service.submit(spec).unwrap();
        let outcome = handle.wait().unwrap();
        let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
        assert_eq!(outcome, JobOutcome::Completed(reference));
        let report = service.shutdown();
        let shm = report.route(BackendKind::SharedMemory);
        assert_eq!(shm.jobs_routed, 1);
        assert_eq!(shm.auto_routed, 1);
        assert_eq!(shm.jobs_completed, 1);
        assert!(report.latency.contains_key(&Priority::High));
    }

    #[test]
    fn pinned_submission_without_lane_is_rejected() {
        let mut config = tiny_pool();
        config.pool.replica_groups = 0;
        let service = FusionService::start(config).unwrap();
        let err = service
            .submit(
                JobSpec::builder(CubeSource::Synthetic(scene(1, 8, 4)))
                    .pinned(BackendKind::Resilient)
                    .build()
                    .unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        service.shutdown();
    }

    #[test]
    fn zero_timeout_job_times_out() {
        let service = FusionService::start(tiny_pool()).unwrap();
        let mut handle = service
            .submit(
                JobSpec::builder(CubeSource::Synthetic(scene(3, 24, 12)))
                    .pinned(BackendKind::Standard)
                    .timeout(Duration::ZERO)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(handle.wait().unwrap(), JobOutcome::TimedOut);
        let report = service.shutdown();
        assert_eq!(report.jobs_timed_out, 1);
    }

    #[test]
    fn detached_jobs_run_to_completion_unobserved() {
        let service = FusionService::start(tiny_pool()).unwrap();
        let cube = Arc::new(SceneGenerator::new(scene(9, 12, 6)).unwrap().generate());
        let events = service.subscribe();
        let id = service
            .submit(
                JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
                    .build()
                    .unwrap(),
            )
            .unwrap()
            .detach();
        // No handle is left; the event stream still reports the terminal
        // transition and the report accounts the job.
        let terminal = events
            .wait_for(
                Duration::from_secs(30),
                |e| matches!(e, crate::ServiceEvent::Terminal { job, .. } if *job == id),
            )
            .expect("terminal event");
        assert_eq!(
            terminal,
            crate::ServiceEvent::Terminal {
                job: id,
                tenant: TenantId::default(),
                status: JobStatus::Completed
            }
        );
        let report = service.shutdown();
        assert_eq!(report.jobs_completed, 1);
    }

    /// A pool in which nothing heartbeats: one shared-memory executor and
    /// no message-plane member.  The scheduler has no timer to arm there, so
    /// a lost doorbell ring is a hang, not a few milliseconds' delay.
    fn heartbeat_free(max_in_flight: usize) -> ServiceConfig {
        ServiceConfig::builder()
            .pool(PoolConfig {
                standard_workers: 0,
                replica_groups: 0,
                shared_memory_executors: 1,
                ..PoolConfig::default()
            })
            .queue_capacity(16)
            .max_in_flight(max_in_flight)
            .build()
            .unwrap()
    }

    /// Runs `test` on a thread of its own and fails it after 20 s: the
    /// failure these tests look for is a scheduler that never wakes.
    fn within_watchdog(test: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
            test();
            let _ = done.send(());
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            finished.recv_timeout(Duration::from_secs(20))
        {
            panic!("hung: the scheduler was never woken");
        }
        // Finished, or panicked and dropped its sender: surface which.
        if let Err(panic) = body.join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn scheduler_wakeup_every_submission_of_concurrent_callers_completes() {
        within_watchdog(|| {
            let service = FusionService::start(heartbeat_free(4)).unwrap();
            let cube = Arc::new(SceneGenerator::new(scene(21, 8, 4)).unwrap().generate());
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for _ in 0..200 {
                            let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
                                .build()
                                .unwrap();
                            let outcome = service.submit(spec).unwrap().wait().unwrap();
                            assert_eq!(outcome.status(), JobStatus::Completed);
                        }
                    });
                }
            });
            let report = service.shutdown();
            assert_eq!(report.jobs_completed, 800);
        });
    }

    #[test]
    fn scheduler_wakeup_cancel_behind_a_blocker_and_idle_shutdown() {
        within_watchdog(|| {
            let service = FusionService::start(heartbeat_free(1)).unwrap();
            let mut blocker = service
                .submit(
                    JobSpec::builder(CubeSource::Synthetic(scene(22, 64, 24)))
                        .build()
                        .unwrap(),
                )
                .unwrap();
            // One job in flight at most: this one stays queued behind it.
            let mut queued = service
                .submit(
                    JobSpec::builder(CubeSource::Synthetic(scene(23, 8, 4)))
                        .build()
                        .unwrap(),
                )
                .unwrap();
            assert!(queued.cancel());
            assert_eq!(queued.wait().unwrap(), JobOutcome::Cancelled);
            assert_eq!(blocker.wait().unwrap().status(), JobStatus::Completed);
            // Idle now, with no timer armed: only the ring ends the wait.
            let report = service.shutdown();
            assert_eq!((report.jobs_completed, report.jobs_cancelled), (1, 1));
        });
    }

    #[test]
    fn scheduler_wakeup_an_idle_service_takes_no_turns() {
        within_watchdog(|| {
            // Nothing heartbeats and nothing is submitted: the start-up turn
            // and the shutdown ring are all there is (≈ 30 turns on a 5 ms
            // tick).
            let service = FusionService::start(heartbeat_free(4)).unwrap();
            std::thread::sleep(Duration::from_millis(150));
            let report = service.shutdown();
            assert!(report.scheduler_turns <= 3, "{}", report.scheduler_turns);

            // With workers, their idle heartbeats are the only wake-ups.
            let mut config = heartbeat_free(4);
            config.pool.standard_workers = 2;
            let service = FusionService::start(config).unwrap();
            std::thread::sleep(Duration::from_millis(300));
            let report = service.shutdown();
            assert!(
                report.scheduler_turns < report.heartbeats + 8,
                "{} turns for {} heartbeats",
                report.scheduler_turns,
                report.heartbeats
            );
        });
    }

    #[test]
    fn dropped_handles_cancel_their_jobs() {
        let service = FusionService::start(tiny_pool()).unwrap();
        let spec = JobSpec::builder(CubeSource::Synthetic(scene(5, 48, 24)))
            .pinned(BackendKind::Standard)
            .shards(2)
            .build()
            .unwrap();
        let handle = service.submit(spec).unwrap();
        let id = handle.id();
        drop(handle);
        let report = service.shutdown();
        assert_eq!(
            report.jobs_cancelled + report.jobs_completed,
            1,
            "job {id} neither cancelled nor completed"
        );
    }
}
