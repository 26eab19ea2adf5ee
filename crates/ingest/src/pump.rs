//! The [`IngestPump`]: sources → decoder → store → `fusiond`, with
//! event-driven load shedding.
//!
//! The pump pulls [`crate::SourceEvent`]s from its sources, assembles each
//! arrival with a [`crate::StreamDecoder`], interns the result in the
//! [`CubeStore`] (dedup happens *before* admission, so a repeated scene is
//! an `Arc` bump even when it is later shed), and then submits it without
//! blocking.  The [`SheddingPolicy`] has one watermark, on the payload
//! bytes of the pump's submitted, not yet terminal jobs.  The pump counts
//! those bytes itself, from its subscription to the
//! [`service::ServiceEvent`] stream: a submission adds its bytes, its
//! `Terminal` event releases them.  An arrival at or past the watermark is
//! **shed** (dropped and counted with a [`RetryAfter`] hint, never blocking
//! the source).
//!
//! The watermark governs ingest-originated load: jobs submitted by other
//! clients of the same service are not counted (their events arrive, but
//! only the pump's own job ids move the count).  A submission the service
//! refuses because its queue is full comes back as
//! [`ServiceError::Saturated`], which the pump folds into the same shed
//! accounting.

use crate::report::{IngestReport, ShedReason};
use crate::source::{CubeSource, SourceEvent};
use crate::store::CubeStore;
use crate::{Result, StreamDecoder};
use hsi::{CloneLedger, HyperCube};
use pct::PctConfig;
use service::{
    CubeSource as JobCubeSource, EventSubscriber, FusionService, JobHandle, JobId, JobOutcome,
    JobSpec, JobStatus, Priority, RetryAfter, Route, ServiceError, ServiceEvent, TenantId,
    RETRY_AFTER,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{SpanId, Telemetry};

/// The watermark deciding when arrivals are shed instead of submitted.
/// `usize::MAX` (the default) disables it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SheddingPolicy {
    /// Watermark on the payload bytes of ingest jobs submitted but
    /// not yet terminal: at or above it, arrivals are shed with
    /// [`ShedReason::InFlightBytes`].
    pub max_in_flight_bytes: usize,
}

impl SheddingPolicy {
    /// No watermark: every decodable arrival is submitted.
    pub fn unbounded() -> Self {
        Self {
            max_in_flight_bytes: usize::MAX,
        }
    }

    /// Sets the in-flight-bytes watermark.
    pub fn with_max_in_flight_bytes(mut self, bytes: usize) -> Self {
        self.max_in_flight_bytes = bytes;
        self
    }
}

impl Default for SheddingPolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Payload bytes of the pump's own submitted, not yet terminal jobs, fed
/// by its event subscription: events of other clients' jobs fall through
/// untouched.
#[derive(Debug, Default)]
struct ByteGauge {
    jobs: HashMap<JobId, usize>,
    bytes: usize,
}

impl ByteGauge {
    /// Records one accepted submission.
    fn on_submit(&mut self, job: JobId, bytes: usize) {
        self.jobs.insert(job, bytes);
        self.bytes += bytes;
    }

    /// Applies one service event; only a tracked job's `Terminal` moves the
    /// count.
    fn observe(&mut self, event: &ServiceEvent) {
        if let ServiceEvent::Terminal { job, .. } = event {
            if let Some(bytes) = self.jobs.remove(job) {
                self.bytes -= bytes;
            }
        }
    }
}

/// One in-progress arrival: its decoder plus its `decode` span (Begin →
/// End).
struct ActiveDecode {
    tag: String,
    decoder: StreamDecoder,
    span: Option<SpanId>,
}

/// Closes a `decode` span (marking errors), observing its duration into
/// `ingest_decode_seconds`; with telemetry disabled there is no span and
/// nothing is timed.
fn close_decode_span(telemetry: &Telemetry, span: Option<SpanId>, error: bool) {
    if let Some(elapsed) = telemetry.span_end_with_detail(span, error.then_some("error")) {
        telemetry.observe("ingest_decode_seconds", &[], elapsed);
    }
}

/// Configuration of one pump run.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// The shedding watermarks.
    pub shedding: SheddingPolicy,
    /// The tenant submitted jobs are attributed to (its fair-share weight
    /// comes from [`service::ServiceConfig::tenant_quotas`]).
    pub tenant: TenantId,
    /// Route of submitted jobs (pinned lane or [`Route::Auto`]).
    pub route: Route,
    /// Priority of submitted jobs.
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
    /// The machine-readable back-off hint.
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
            ..IngestReport::default()
        };
        let ingest_span = self.telemetry.span_start("ingest", None, None, "");
        let mut gauge = ByteGauge::default();
        let mut pending: Vec<(String, String, Arc<HyperCube>, JobHandle)> = Vec::new();
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
                            close_decode_span(&self.telemetry, active.span, true);
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
                            close_decode_span(&self.telemetry, active.span, true);
                        }
                        counters.cubes_seen += 1;
                        self.telemetry.count("ingest_cubes_seen_total", &[]);
                        decoder = Some(ActiveDecode {
                            span: self.telemetry.span_start("decode", ingest_span, None, &tag),
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
                                    close_decode_span(&self.telemetry, active.span, true);
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
                        } = active;
                        let result = d.finish();
                        close_decode_span(&self.telemetry, span, result.is_err());
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
        for (source, tag, cube, mut handle) in pending {
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
                outcome,
            });
        }

        report.store_len = self.store.len();
        report.store_resident_bytes = self.store.resident_bytes();
        report.store_evictions = self.store.evictions();
        report.bytes_cloned = ledger.delta();
        self.telemetry.span_end(ingest_span);
        Ok(IngestRun {
            report,
            jobs,
            shed,
            store: self.store,
        })
    }

    /// Applies the watermark to one decoded arrival and submits it if it
    /// is under.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        source: &str,
        tag: String,
        cube: Arc<HyperCube>,
        gauge: &mut ByteGauge,
        report: &mut IngestReport,
        pending: &mut Vec<(String, String, Arc<HyperCube>, JobHandle)>,
        shed: &mut Vec<ShedCube>,
    ) -> Result<()> {
        // Fold in everything the service reported since the last arrival.
        while let Some(event) = self.events.try_next() {
            gauge.observe(&event);
        }
        let counters = report.sources.get_mut(source).expect("entry inserted");
        let bytes = cube.byte_size();
        let refusal = if gauge.bytes >= self.config.shedding.max_in_flight_bytes {
            (ShedReason::InFlightBytes, RETRY_AFTER)
        } else {
            let mut builder = JobSpec::builder(JobCubeSource::InMemory(Arc::clone(&cube)))
                .route(self.config.route)
                .priority(self.config.priority)
                .tenant(self.config.tenant)
                .shards(self.config.shards)
                .config(self.config.pct);
            if let Some(timeout) = self.config.timeout {
                builder = builder.timeout(timeout);
            }
            let spec = builder.build().map_err(ServiceError::from)?;
            match self.service.try_submit(spec) {
                Ok(handle) => {
                    counters.cubes_admitted += 1;
                    self.telemetry.count("ingest_cubes_admitted_total", &[]);
                    gauge.on_submit(handle.id(), bytes);
                    pending.push((source.to_string(), tag, cube, handle));
                    return Ok(());
                }
                Err(ServiceError::Saturated { retry_after }) => {
                    (ShedReason::Saturated, retry_after)
                }
                Err(e) => return Err(e.into()),
            }
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
    fn byte_gauge_tracks_only_its_own_jobs() {
        use service::BackendKind;
        let mut gauge = ByteGauge::default();
        gauge.on_submit(1, 100);
        gauge.on_submit(2, 50);
        assert_eq!(gauge.bytes, 150);
        let terminal = |job, route| ServiceEvent::Terminal {
            job,
            tenant: TenantId::default(),
            status: JobStatus::Completed,
            route,
        };
        // A foreign job's events fall through untouched.
        gauge.observe(&terminal(99, None));
        assert_eq!(gauge.bytes, 150);
        // Admission moves nothing; terminal releases the bytes.
        gauge.observe(&ServiceEvent::Admitted {
            job: 1,
            tenant: TenantId::default(),
            route: BackendKind::Standard,
            auto: true,
        });
        assert_eq!(gauge.bytes, 150);
        gauge.observe(&terminal(1, Some(BackendKind::Standard)));
        assert_eq!(gauge.bytes, 50);
    }
}
