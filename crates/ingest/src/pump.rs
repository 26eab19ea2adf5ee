//! The [`IngestPump`]: sources → decoder → store → `fusiond`, with
//! event-driven load shedding.
//!
//! The pump pulls [`crate::SourceEvent`]s from its sources, assembles each
//! arrival with a [`crate::StreamDecoder`], interns the result in the
//! [`CubeStore`] (dedup happens *before* admission, so a repeated scene is
//! an `Arc` bump even when it is later shed), and then consults the
//! service's admission plane.  The [`SheddingPolicy`] is a thin adapter
//! over [`service::PressurePolicy`] — the same tiered downgrade → shed
//! ladder the service itself applies — and its view of the service is a
//! [`service::PressureGauge`] fed entirely by the subscribed
//! [`service::ServiceEvent`] stream: a submission enters the *queued* set, an
//! `Admitted` event moves it to *running*, a `Terminal` event retires it
//! and releases its bytes.  Arrivals beyond a hard watermark are **shed**
//! (dropped, counted with a [`RetryAfter`] hint, never blocking the
//! source), arrivals beyond the soft watermark are **down-prioritized** to
//! [`Priority::Low`] — production back-pressure behaviour instead of an
//! unbounded mirror of the admission queue.
//!
//! The watermarks govern ingest-originated load: jobs submitted by other
//! clients of the same service are not counted (they are invisible to the
//! gauge even though their events arrive; only tracked job ids move the
//! state).  Whatever the service's own admission plane refuses —
//! saturation, a shed watermark of its own, or the ingest tenant's quota —
//! comes back as a typed error the pump folds into the same shed
//! accounting.

use crate::report::{IngestReport, ShedReason};
use crate::source::{CubeSource, SourceEvent};
use crate::store::CubeStore;
use crate::{Result, StreamDecoder};
use hsi::{CloneLedger, HyperCube};
use pct::PctConfig;
use service::{
    CubeSource as JobCubeSource, EventSubscriber, FusionService, JobClass, JobHandle, JobOutcome,
    JobSpec, JobStatus, PressureDecision, PressureGauge, PressurePolicy, Priority, RetryAfter,
    Route, ServiceError, TenantId,
};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};
use telemetry::{SpanId, Telemetry};

/// Watermarks deciding when arrivals are shed or down-prioritized instead
/// of submitted at the configured priority.  `usize::MAX` (the default)
/// disables a watermark.
///
/// This is a thin adapter over the service's [`PressurePolicy`]
/// ([`SheddingPolicy::plane`]): the pump keeps no watermark arithmetic of
/// its own, it feeds the shared ladder with an event-fed
/// [`PressureGauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SheddingPolicy {
    /// Hard watermark on the number of ingest jobs submitted but not yet
    /// admitted by the scheduler: at or above it, arrivals are shed with
    /// [`ShedReason::QueueDepth`].
    pub max_queue_depth: usize,
    /// Hard watermark on the payload bytes of ingest jobs submitted but
    /// not yet terminal: at or above it, arrivals are shed with
    /// [`ShedReason::InFlightBytes`].
    pub max_in_flight_bytes: usize,
    /// Soft watermark on queue depth: at or above it (but below the hard
    /// watermarks), arrivals are admitted at [`Priority::Low`].
    pub downgrade_queue_depth: usize,
}

impl SheddingPolicy {
    /// No watermarks: every decodable arrival is submitted.
    pub fn unbounded() -> Self {
        Self {
            max_queue_depth: usize::MAX,
            max_in_flight_bytes: usize::MAX,
            downgrade_queue_depth: usize::MAX,
        }
    }

    /// Sets the hard in-flight-bytes watermark.
    pub fn with_max_in_flight_bytes(mut self, bytes: usize) -> Self {
        self.max_in_flight_bytes = bytes;
        self
    }

    /// Sets the soft down-prioritization watermark.
    pub fn with_downgrade_queue_depth(mut self, depth: usize) -> Self {
        self.downgrade_queue_depth = depth;
        self
    }

    /// The service-side pressure ladder these watermarks adapt to: every
    /// pump decision is a [`PressurePolicy::decide`] call on this value.
    pub fn plane(&self) -> PressurePolicy {
        PressurePolicy::unbounded()
            .with_downgrade_queue_depth(self.downgrade_queue_depth)
            .with_shed_queue_depth(self.max_queue_depth)
            .with_shed_in_flight_bytes(self.max_in_flight_bytes)
    }
}

impl Default for SheddingPolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// One in-progress arrival: its decoder plus the telemetry bookkeeping of
/// its `decode` span (Begin → End wall time).
struct ActiveDecode {
    tag: String,
    decoder: StreamDecoder,
    span: Option<SpanId>,
    /// Duration fallback when telemetry is disabled and the span returns
    /// nothing.
    started: Instant,
}

impl ActiveDecode {
    /// Closes the decode span (marking errors) and returns its duration,
    /// observed into `ingest_decode_seconds`.
    fn close(self, telemetry: &Telemetry, error: bool) -> Duration {
        Self::close_parts(telemetry, self.span, self.started, error)
    }

    /// [`ActiveDecode::close`] for a decode already taken apart (the End
    /// path consumes the decoder before the span can be closed).
    fn close_parts(
        telemetry: &Telemetry,
        span: Option<SpanId>,
        started: Instant,
        error: bool,
    ) -> Duration {
        let elapsed = telemetry
            .span_end_with_detail(span, error.then_some("error"))
            .unwrap_or_else(|| started.elapsed());
        telemetry.observe("ingest_decode_seconds", &[], elapsed);
        elapsed
    }
}

/// Configuration of one pump run.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// The shedding watermarks.
    pub shedding: SheddingPolicy,
    /// The tenant submitted jobs are attributed to (fair-share weight and
    /// quota come from the service's [`service::AdmissionConfig`]).
    pub tenant: TenantId,
    /// The admission class of submitted jobs.  Defaults to
    /// [`JobClass::Bulk`]: streaming arrivals are degradable *and*
    /// sheddable, so the service-side ladder treats them exactly as the
    /// pump's own watermarks do.
    pub class: JobClass,
    /// Route of submitted jobs (pinned lane or [`Route::Auto`]).
    pub route: Route,
    /// Priority of submitted jobs (downgraded to [`Priority::Low`] past the
    /// soft watermark).
    pub priority: Priority,
    /// Shard count of submitted jobs.
    pub shards: usize,
    /// Pipeline configuration of submitted jobs.
    pub pct: PctConfig,
    /// Optional per-job deadline.
    pub timeout: Option<Duration>,
    /// Byte bound of the content-addressed store.
    pub store_capacity_bytes: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            shedding: SheddingPolicy::unbounded(),
            tenant: TenantId::default(),
            class: JobClass::Bulk,
            route: Route::Auto,
            priority: Priority::Normal,
            shards: 4,
            pct: PctConfig::paper(),
            timeout: None,
            store_capacity_bytes: 256 << 20,
        }
    }
}

/// One admitted arrival, resolved after its job reached a terminal state.
#[derive(Debug)]
pub struct IngestedJob {
    /// Name of the source that delivered the cube.
    pub source: String,
    /// The arrival's tag (file name, synthetic label).
    pub tag: String,
    /// The store-resident cube the job fused (shared storage — equal
    /// content means `Arc`-equal cubes).
    pub cube: Arc<HyperCube>,
    /// The effective priority it was submitted at.
    pub priority: Priority,
    /// The job's typed terminal outcome.
    pub outcome: JobOutcome,
}

/// One shed arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedCube {
    /// Name of the source that delivered the cube.
    pub source: String,
    /// The arrival's tag.
    pub tag: String,
    /// Why it was shed.
    pub reason: ShedReason,
    /// Its payload size.
    pub bytes: usize,
    /// The machine-readable back-off hint the admission plane attached.
    pub retry_after: RetryAfter,
}

/// Everything one pump run produced.
#[derive(Debug)]
pub struct IngestRun {
    /// Counters per source plus aggregate store/job/ledger accounting.
    pub report: IngestReport,
    /// Every admitted arrival with its terminal outcome, in admission
    /// order.
    pub jobs: Vec<IngestedJob>,
    /// Every shed arrival, in arrival order.
    pub shed: Vec<ShedCube>,
    /// The store as the run left it (resident cubes stay shared).
    pub store: CubeStore,
}

/// Drives cube sources through decode, dedup and admission into a running
/// [`FusionService`].
///
/// ```no_run
/// use ingest::{DirectorySource, IngestConfig, IngestPump};
/// use service::{FusionService, ServiceConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = FusionService::start(ServiceConfig::builder().build()?)?;
/// let pump = IngestPump::new(&service, IngestConfig::default());
/// let run = pump.run(vec![Box::new(DirectorySource::new("/data/cubes"))])?;
/// println!("{}", run.report.render());
/// service.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct IngestPump<'a> {
    service: &'a FusionService,
    events: EventSubscriber,
    config: IngestConfig,
    store: CubeStore,
    /// The service's telemetry handle: decode spans and ingest counters
    /// land in the same registry/recorder as the scheduler's (disabled
    /// together with the service's).
    telemetry: Telemetry,
}

impl<'a> IngestPump<'a> {
    /// Creates a pump over a running service.  The event subscription is
    /// opened here, before any submission, so no admission or terminal
    /// event can be missed.
    pub fn new(service: &'a FusionService, config: IngestConfig) -> Self {
        let events = service.subscribe();
        let store = CubeStore::new(config.store_capacity_bytes);
        let telemetry = service.telemetry().clone();
        Self {
            service,
            events,
            config,
            store,
            telemetry,
        }
    }

    /// Ingests every source to exhaustion (sequentially, in order — the
    /// deterministic arrival schedule), waits for every admitted job's
    /// terminal outcome, and returns the full accounting.
    pub fn run(mut self, mut sources: Vec<Box<dyn CubeSource>>) -> Result<IngestRun> {
        let ledger = CloneLedger::snapshot();
        let mut report = IngestReport {
            tenant: self.config.tenant,
            started_at: Some(SystemTime::now()),
            ..IngestReport::default()
        };
        let ingest_span = self.telemetry.span_start("ingest", None, None, "");
        let mut gauge = PressureGauge::new();
        let mut pending: Vec<(String, String, Arc<HyperCube>, Priority, JobHandle)> = Vec::new();
        let mut shed = Vec::new();

        for source in sources.iter_mut() {
            let name = source.name().to_string();
            report.sources.entry(name.clone()).or_default();
            let mut decoder: Option<ActiveDecode> = None;
            while let Some(event) = source.next_event() {
                let counters = report.sources.get_mut(&name).expect("entry inserted");
                match event {
                    Err(_) => {
                        counters.decode_errors += 1;
                        self.telemetry.count("ingest_decode_errors_total", &[]);
                        if let Some(active) = decoder.take() {
                            report.decode_time += active.close(&self.telemetry, true);
                        }
                    }
                    Ok(SourceEvent::Begin { tag, header }) => {
                        // A Begin while a decode is active means the source
                        // never delivered the previous cube's End: the
                        // partial decode is abandoned and must be accounted,
                        // or seen/admitted/shed/error stops adding up.
                        if let Some(active) = decoder.take() {
                            counters.decode_errors += 1;
                            self.telemetry.count("ingest_decode_errors_total", &[]);
                            report.decode_time += active.close(&self.telemetry, true);
                        }
                        counters.cubes_seen += 1;
                        self.telemetry.count("ingest_cubes_seen_total", &[]);
                        decoder = Some(ActiveDecode {
                            span: self.telemetry.span_start("decode", ingest_span, None, &tag),
                            started: Instant::now(),
                            tag,
                            decoder: StreamDecoder::new(header),
                        });
                    }
                    Ok(SourceEvent::Chunk(bytes)) => {
                        if let Some(active) = decoder.as_mut() {
                            counters.chunks += 1;
                            if active.decoder.push(&bytes).is_err() {
                                counters.decode_errors += 1;
                                self.telemetry.count("ingest_decode_errors_total", &[]);
                                if let Some(active) = decoder.take() {
                                    report.decode_time += active.close(&self.telemetry, true);
                                }
                            }
                        }
                    }
                    Ok(SourceEvent::End) => {
                        let Some(active) = decoder.take() else {
                            continue;
                        };
                        counters.bytes_assembled += (active.decoder.samples_filled() * 8) as u64;
                        let ActiveDecode {
                            tag,
                            decoder: d,
                            span,
                            started,
                        } = active;
                        let result = d.finish();
                        report.decode_time += ActiveDecode::close_parts(
                            &self.telemetry,
                            span,
                            started,
                            result.is_err(),
                        );
                        let cube = match result {
                            Ok(cube) => cube,
                            Err(_) => {
                                counters.decode_errors += 1;
                                self.telemetry.count("ingest_decode_errors_total", &[]);
                                continue;
                            }
                        };
                        // Dedup before admission: a repeated scene becomes
                        // an Arc bump whether or not it is then shed.
                        let (cube, hit) = self.store.intern(cube);
                        if hit {
                            counters.store_hits += 1;
                            self.telemetry.count("ingest_store_hits_total", &[]);
                        } else {
                            counters.store_misses += 1;
                            self.telemetry.count("ingest_store_misses_total", &[]);
                        }
                        self.admit(
                            &name,
                            tag,
                            cube,
                            &mut gauge,
                            &mut report,
                            &mut pending,
                            &mut shed,
                        )?;
                    }
                }
            }
        }

        // Resolve every admitted job's terminal outcome.
        let mut jobs = Vec::with_capacity(pending.len());
        for (source, tag, cube, priority, mut handle) in pending {
            let outcome = handle.wait()?;
            match outcome.status() {
                JobStatus::Completed => report.jobs_completed += 1,
                JobStatus::Failed => report.jobs_failed += 1,
                JobStatus::Cancelled => report.jobs_cancelled += 1,
                JobStatus::TimedOut => report.jobs_timed_out += 1,
                JobStatus::Queued | JobStatus::Running => unreachable!("wait is terminal"),
            }
            jobs.push(IngestedJob {
                source,
                tag,
                cube,
                priority,
                outcome,
            });
        }

        report.store_len = self.store.len();
        report.store_resident_bytes = self.store.resident_bytes();
        report.store_evictions = self.store.evictions();
        report.bytes_cloned = ledger.delta();
        self.telemetry.span_end(ingest_span);
        report.finished_at = Some(SystemTime::now());
        Ok(IngestRun {
            report,
            jobs,
            shed,
            store: self.store,
        })
    }

    /// Applies the admission-plane decision for one decoded arrival and
    /// submits it if admitted.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        source: &str,
        tag: String,
        cube: Arc<HyperCube>,
        gauge: &mut PressureGauge,
        report: &mut IngestReport,
        pending: &mut Vec<(String, String, Arc<HyperCube>, Priority, JobHandle)>,
        shed: &mut Vec<ShedCube>,
    ) -> Result<()> {
        // Fold in everything the service reported since the last arrival.
        while let Some(event) = self.events.try_next() {
            gauge.observe(&event);
        }
        let counters = report.sources.get_mut(source).expect("entry inserted");
        let plane = self.config.shedding.plane();
        let bytes = cube.byte_size();
        let downgraded = match plane.decide(gauge.load(), self.config.class) {
            PressureDecision::Shed { reason } => {
                counters.record_shed(reason);
                self.telemetry
                    .count("ingest_cubes_shed_total", &[("reason", reason.label())]);
                shed.push(ShedCube {
                    source: source.to_string(),
                    tag,
                    reason,
                    bytes,
                    retry_after: plane.retry_hint(),
                });
                return Ok(());
            }
            PressureDecision::Admit { downgrade } => downgrade,
        };
        let priority = if downgraded {
            Priority::Low
        } else {
            self.config.priority
        };
        let mut builder = JobSpec::builder(JobCubeSource::InMemory(Arc::clone(&cube)))
            .route(self.config.route)
            .priority(priority)
            .tenant(self.config.tenant)
            .class(self.config.class)
            .shards(self.config.shards)
            .config(self.config.pct);
        if let Some(timeout) = self.config.timeout {
            builder = builder.timeout(timeout);
        }
        let spec = builder.build().map_err(ServiceError::from)?;
        // The service's own admission plane may still refuse: saturation,
        // a service-side watermark, or the ingest tenant's quota.  Each
        // refusal carries a typed reason and retry hint the shed
        // accounting preserves.
        let refusal = match self.service.try_submit(spec) {
            Ok(handle) => {
                counters.cubes_admitted += 1;
                self.telemetry.count("ingest_cubes_admitted_total", &[]);
                if downgraded {
                    counters.cubes_downgraded += 1;
                }
                gauge.on_submit(handle.id(), bytes);
                pending.push((source.to_string(), tag, cube, priority, handle));
                return Ok(());
            }
            Err(ServiceError::Saturated { retry_after }) => (ShedReason::Saturated, retry_after),
            Err(ServiceError::Shed {
                reason,
                retry_after,
            }) => (reason, retry_after),
            Err(ServiceError::QuotaExceeded { retry_after, .. }) => {
                (ShedReason::Quota, retry_after)
            }
            Err(e) => return Err(e.into()),
        };
        let (reason, retry_after) = refusal;
        counters.record_shed(reason);
        self.telemetry
            .count("ingest_cubes_shed_total", &[("reason", reason.label())]);
        shed.push(ShedCube {
            source: source.to_string(),
            tag,
            reason,
            bytes,
            retry_after,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SyntheticSource;
    use hsi::io::Interleave;
    use hsi::{CubeDims, SceneConfig};
    use pct::SequentialPct;
    use service::{BackendKind, ServiceConfig};

    fn scene(seed: u64, side: usize, bands: usize) -> SceneConfig {
        let mut config = SceneConfig::small(seed);
        config.dims = CubeDims::new(side, side, bands);
        config
    }

    fn small_service() -> FusionService {
        FusionService::start(
            ServiceConfig::builder()
                .standard_workers(2)
                .replica_groups(0)
                .shared_memory_executors(1)
                .queue_capacity(16)
                .max_in_flight(4)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn pump_ingests_dedups_and_fuses_byte_identical() {
        let service = small_service();
        // Scene 50 arrives twice, in *different* interleaves: content dedup.
        let arrivals = vec![
            ("a".into(), scene(50, 12, 6), Interleave::Bsq),
            ("b".into(), scene(51, 12, 6), Interleave::Bil),
            ("a-again".into(), scene(50, 12, 6), Interleave::Bip),
        ];
        let source = SyntheticSource::new("synth", arrivals, 97);
        let pump = IngestPump::new(&service, IngestConfig::default());
        let run = pump.run(vec![Box::new(source)]).unwrap();
        service.shutdown();

        let totals = run.report.totals();
        assert_eq!(totals.cubes_seen, 3);
        assert_eq!(totals.cubes_admitted, 3);
        assert_eq!(totals.cubes_shed(), 0);
        assert_eq!(totals.store_misses, 2);
        assert_eq!(totals.store_hits, 1, "repeated scene deduplicated");
        assert_eq!(run.report.jobs_completed, 3);
        assert_eq!(run.store.len(), 2);

        // The duplicate fused the *same shared storage* as the original.
        assert!(Arc::ptr_eq(&run.jobs[0].cube, &run.jobs[2].cube));
        for job in &run.jobs {
            let reference = SequentialPct::new(PctConfig::paper())
                .run(&job.cube)
                .unwrap();
            assert_eq!(
                job.outcome.output().expect("completed"),
                &reference,
                "{} diverged from sequential",
                job.tag
            );
        }
    }

    #[test]
    fn in_flight_bytes_watermark_sheds_deterministically() {
        // One standard worker, one job in flight at a time: the big blocker
        // occupies the only slot for far longer than the pump needs to
        // process the burst, so the accounting below is deterministic.
        let service = FusionService::start(
            ServiceConfig::builder()
                .standard_workers(1)
                .replica_groups(0)
                .shared_memory_executors(0)
                .queue_capacity(16)
                .max_in_flight(1)
                .build()
                .unwrap(),
        )
        .unwrap();
        let blocker = scene(60, 64, 32);
        let small = scene(61, 10, 5);
        let blocker_bytes = blocker.dims.byte_size();
        let small_bytes = small.dims.byte_size();
        let mut arrivals = vec![("blocker".into(), blocker, Interleave::Bip)];
        for i in 0..5u64 {
            arrivals.push((format!("burst-{i}"), scene(70 + i, 10, 5), Interleave::Bil));
        }
        let source = SyntheticSource::new("burst", arrivals, 4096);
        // Watermark admits the blocker plus exactly two burst cubes.
        let config = IngestConfig {
            shedding: SheddingPolicy::unbounded()
                .with_max_in_flight_bytes(blocker_bytes + 2 * small_bytes),
            route: Route::Pinned(BackendKind::Standard),
            shards: 2,
            ..IngestConfig::default()
        };
        let run = IngestPump::new(&service, config)
            .run(vec![Box::new(source)])
            .unwrap();
        service.shutdown();

        let totals = run.report.totals();
        assert_eq!(totals.cubes_seen, 6);
        assert_eq!(totals.cubes_admitted, 3, "blocker + two burst cubes");
        assert_eq!(totals.shed_in_flight_bytes, 3);
        assert_eq!(
            run.shed.iter().map(|s| s.tag.as_str()).collect::<Vec<_>>(),
            vec!["burst-2", "burst-3", "burst-4"],
            "shedding hits the tail of the burst, in order"
        );
        assert_eq!(run.report.jobs_completed, 3, "admitted cubes still fuse");
    }

    #[test]
    fn downgrade_watermark_lowers_priority_without_shedding() {
        let service = FusionService::start(
            ServiceConfig::builder()
                .standard_workers(1)
                .replica_groups(0)
                .shared_memory_executors(0)
                .queue_capacity(16)
                .max_in_flight(1)
                .build()
                .unwrap(),
        )
        .unwrap();
        // A blocker submitted *outside* the pump occupies the only in-flight
        // slot before ingestion starts, so every pump submission stays
        // queued deterministically (the pump only tracks its own jobs).
        let blocker_cube = Arc::new(
            hsi::SceneGenerator::new(scene(80, 64, 32))
                .unwrap()
                .generate(),
        );
        let mut blocker = service
            .submit(
                JobSpec::builder(JobCubeSource::InMemory(blocker_cube))
                    .route(Route::Pinned(BackendKind::Standard))
                    .shards(2)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        while blocker.status().unwrap() == JobStatus::Queued {
            std::thread::sleep(Duration::from_millis(2));
        }

        let arrivals = (0..4u64)
            .map(|i| (format!("late-{i}"), scene(90 + i, 10, 5), Interleave::Bsq))
            .collect();
        let source = SyntheticSource::new("soft", arrivals, 8192);
        // Soft watermark only: once two ingest jobs sit in the queue,
        // later arrivals are admitted at Low priority.
        let config = IngestConfig {
            shedding: SheddingPolicy::unbounded().with_downgrade_queue_depth(2),
            route: Route::Pinned(BackendKind::Standard),
            priority: Priority::High,
            shards: 2,
            ..IngestConfig::default()
        };
        let run = IngestPump::new(&service, config)
            .run(vec![Box::new(source)])
            .unwrap();
        assert!(matches!(blocker.wait().unwrap(), JobOutcome::Completed(_)));
        service.shutdown();

        let totals = run.report.totals();
        assert_eq!(totals.cubes_admitted, 4, "soft watermark never sheds");
        assert_eq!(totals.cubes_downgraded, 2, "arrivals at queue depth >= 2");
        assert_eq!(run.jobs[0].priority, Priority::High);
        assert_eq!(run.jobs[1].priority, Priority::High);
        assert_eq!(run.jobs[2].priority, Priority::Low);
        assert_eq!(run.jobs[3].priority, Priority::Low);
        assert_eq!(run.report.jobs_completed, 4);
    }
}
