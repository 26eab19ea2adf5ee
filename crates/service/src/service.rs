//! The public face of `fusiond`: starting the service, submitting jobs,
//! observing events, shutting down.
//!
//! Submission returns an owned [`JobHandle`] — waiting, polling,
//! cancellation and cancel-on-drop live there.  (The pre-handle id-keyed
//! methods spent one release as `#[deprecated]` shims and are gone.)

use crate::admission::{AdmissionGovernor, QueuedJob, TenantId};
use crate::config::ServiceConfig;
use crate::events::{EventSubscriber, Recorder, ServiceEvent};
use crate::handle::{HandlePlane, JobHandle};
use crate::job::{BackendKind, JobId, JobSpec};
use crate::pool::{Doorbell, WorkerPool};
use crate::report::ServiceReport;
use crate::routing::Route;
use crate::scheduler::{HostedScheduler, Scheduler};
use crate::status::{JobRecord, StatusTable};
use crate::{Result, ServiceError};
use pct::messages::PctMessage;
use resilience::KillSwitch;
use scp::ThreadContext;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use telemetry::Telemetry;

/// The submitters' clock: stamps each job's submission.
type Clock = Arc<dyn Fn() -> Instant + Send + Sync>;

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
    /// The one writer of lifecycle facts, shared with the scheduler.
    recorder: Arc<Recorder>,
    injector: resilience::attack::AttackInjector,
    lane_totals: [usize; 4],
    /// `(routing name, OS pid)` of every remote worker, captured at start.
    remote_workers: Vec<(String, Option<u32>)>,
    next_job: AtomicU64,
    scheduler: Option<JoinHandle<ServiceReport>>,
    telemetry: Telemetry,
    clock: Clock,
}

impl FusionService {
    /// Starts the pool and the scheduler thread.
    pub fn start(config: ServiceConfig) -> Result<FusionService> {
        config.validate()?;
        let (pool, ctx) = WorkerPool::start(&config.pool, None)?;
        let (mut service, scheduler) = Self::assemble(config, pool, ctx, Arc::new(Instant::now));
        let handle = std::thread::Builder::new()
            .name("fusiond-scheduler".to_string())
            .spawn(move || scheduler.run())
            .expect("failed to spawn scheduler thread");
        service.scheduler = Some(handle);
        Ok(service)
    }

    /// Builds the same service, governor and scheduler as
    /// [`FusionService::start`] for a host that drives them on its own clock
    /// (the cluster simulator's virtual time), starting no thread.  Jobs are
    /// stamped with `clock`.  Returns the service, the scheduler's driver,
    /// and the mailboxes of the pool's members — at start, then each
    /// replacement — with the kill switches the pool's injector holds for
    /// them.  Standard and resilient lanes only; the final report comes from
    /// [`HostedScheduler::finish`].
    #[allow(clippy::type_complexity)]
    pub fn hosted(
        config: ServiceConfig,
        clock: impl Fn() -> Instant + Send + Sync + 'static,
    ) -> Result<(
        FusionService,
        HostedScheduler,
        Receiver<(ThreadContext<PctMessage>, KillSwitch)>,
    )> {
        config.validate()?;
        if config.pool.shared_memory_executors > 0 || !config.pool.remote_workers.is_empty() {
            return Err(ServiceError::InvalidConfig(
                "a hosted pool has standard workers and replica groups only".into(),
            ));
        }
        let (host, members) = std::sync::mpsc::channel();
        let (pool, ctx) = WorkerPool::start(&config.pool, Some(host))?;
        let (service, scheduler) = Self::assemble(config, pool, ctx, Arc::new(clock));
        Ok((service, HostedScheduler(scheduler), members))
    }

    /// The service and its scheduler over a started pool.
    fn assemble(
        config: ServiceConfig,
        pool: WorkerPool,
        ctx: ThreadContext<PctMessage>,
        clock: Clock,
    ) -> (FusionService, Scheduler) {
        let telemetry = config.telemetry.clone();
        let injector = pool.injector.clone();
        let doorbell = pool.doorbell();
        let lane_totals = BackendKind::ALL.map(|lane| pool.capacity(lane));
        let remote_workers = pool.remote.worker_pids();
        let governor = Arc::new(
            AdmissionGovernor::new(config.queue_capacity, config.tenant_quotas.clone())
                .with_telemetry(telemetry.clone()),
        );
        let status = Arc::new(StatusTable::new());
        let cancels = Arc::new(Mutex::new(Vec::new()));
        let shutdown_flag = Arc::new(AtomicBool::new(false));
        let recorder = Arc::new(Recorder::new(telemetry.clone()));
        let scheduler = Scheduler::new(
            clock(),
            pool,
            ctx,
            Arc::clone(&governor),
            Arc::clone(&status),
            Arc::clone(&cancels),
            Arc::clone(&shutdown_flag),
            config.max_in_flight,
            Arc::clone(&recorder),
            config.chaos.clone(),
            config.pool.detector,
            telemetry.clone(),
        );
        let service = FusionService {
            governor,
            status,
            cancels,
            shutdown_flag,
            doorbell,
            recorder,
            injector,
            lane_totals,
            remote_workers,
            next_job: AtomicU64::new(1),
            scheduler: None,
            telemetry,
            clock,
        };
        (service, scheduler)
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
            submitted: (self.clock)(),
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
                self.record_rejection(id, tenant, &e);
                Err(e)
            }
        }
    }

    /// Records a typed admission refusal, so the report and observers
    /// account rejections they did not themselves submit.
    fn record_rejection(&self, id: JobId, tenant: TenantId, error: &ServiceError) {
        // Shutdown (and anything else) is not an admission verdict.
        let ServiceError::Saturated { retry_after } = *error else {
            return;
        };
        let rejected = ServiceEvent::Rejected {
            job: id,
            tenant,
            retry_after,
        };
        self.recorder.record(rejected, None);
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
        self.recorder.subscribe()
    }

    /// Number of jobs currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.governor.queue_depth()
    }

    /// Routing names of the attack targets: the replica members and the
    /// standard workers.
    pub fn attack_targets(&self) -> Vec<String> {
        self.injector.targets()
    }

    /// Kills a pool member by routing name — a replica member (`rg0#1`) or
    /// a standard worker (`svc0#0`) — as an attack drill.  Returns whether
    /// the member was a registered target.
    pub fn inject_attack(&self, member: &str) -> bool {
        let hit = self.injector.attack(member);
        if hit {
            // Stamp the kill time so the eventual detection can report its
            // latency and back-date the `detect` span.
            self.telemetry.note_kill(member);
            let member = member.to_string();
            self.recorder
                .record(ServiceEvent::MemberKilled { member }, None);
        }
        hit
    }

    /// Number of live event-stream subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.recorder.subscriber_count()
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
        self.stop().unwrap_or_default()
    }

    /// Closes admission and stops the scheduler thread if one still runs,
    /// returning its report: the flag and the closed governor are what it
    /// checks, the ring is what makes it look.  A hosted scheduler drains
    /// on its host's turns and reports through its own `finish`.
    fn stop(&mut self) -> Option<ServiceReport> {
        self.shutdown_flag.store(true, Ordering::Release);
        self.governor.close();
        self.doorbell.ring();
        self.scheduler.take()?.join().ok()
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
    fn a_chaos_kill_naming_no_member_is_not_recorded_as_a_kill() {
        let telemetry = Telemetry::enabled();
        let config = ServiceConfig::builder()
            .pool(PoolConfig {
                standard_workers: 0,
                replica_groups: 1,
                replication_level: 2,
                shared_memory_executors: 0,
                ..PoolConfig::default()
            })
            .chaos(crate::ChaosPlan::kill_at(
                1,
                crate::ChaosPhase::Screen,
                "rg0#9",
            ))
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let service = FusionService::start(config).unwrap();
        let events = service.subscribe();
        let cube = Arc::new(SceneGenerator::new(scene(11, 16, 8)).unwrap().generate());
        let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
            .pinned(BackendKind::Resilient)
            .shards(2)
            .build()
            .unwrap();
        let outcome = service.submit(spec).unwrap().wait().unwrap();
        let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
        assert_eq!(outcome, JobOutcome::Completed(reference));
        let report = service.shutdown();
        let kills = events
            .drain()
            .filter(|e| matches!(e, ServiceEvent::MemberKilled { .. }))
            .count();
        assert_eq!(kills, 0, "a kill that missed was recorded");
        assert!(report.members_attacked.is_empty());
        assert_eq!(report.regenerations, 0);
        // Nor was it stamped for a detection that will never come.
        assert_eq!(telemetry.take_kill("rg0#9"), None);
        let instants = telemetry.records().into_iter().filter(|r| {
            matches!(r, telemetry::TraceRecord::Instant { name, .. } if *name == "member_killed")
        });
        assert_eq!(instants.count(), 0);
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
                status: JobStatus::Completed,
                route: Some(BackendKind::SharedMemory),
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
