//! Observability substrate for the resilient fusion service: spans, a
//! metrics registry, and a flight recorder.
//!
//! Everything hangs off one cheap [`Telemetry`] handle:
//!
//! * **Spans** ([`Span`], [`SpanId`]) — parent-linked intervals on a
//!   pluggable monotonic [`Clock`], recorded per job as a phase tree
//!   (`job` → `queued` → `screen`/`derive`/`transform`, with
//!   `detect`/`regenerate`/`recompute` nested under the phase a kill hit).
//! * **Metrics** ([`MetricsRegistry`]) — named counters, gauges and
//!   fixed-bucket latency histograms with a lock-free hot path, rendered
//!   on demand in Prometheus text exposition format.
//! * **Flight recorder** ([`FlightRecorder`]) — a bounded ring of recent
//!   spans/events, dumpable as Chrome `trace_event` JSON
//!   (`chrome://tracing`-loadable) on demand or automatically when a job
//!   fails.
//!
//! The handle is pay-for-what-you-use: [`Telemetry::disabled`] carries no
//! allocation and every recording call costs exactly one branch.
//!
//! ```
//! use telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! let job = tel.span_start("job", None, Some(1), "");
//! let phase = tel.span_start("screen", job, Some(1), "");
//! tel.observe(
//!     "fusiond_phase_duration_seconds",
//!     &[("phase", "screen")],
//!     std::time::Duration::from_millis(3),
//! );
//! tel.span_end(phase);
//! tel.span_end(job);
//! assert_eq!(tel.spans().len(), 2);
//! assert!(tel.chrome_trace().unwrap().contains("\"ph\":\"X\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod metrics;
mod recorder;
mod span;

pub use clock::{Clock, ManualClock, MonotonicClock, SharedClock};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, DEFAULT_LATENCY_EDGES};
pub use recorder::{FlightRecorder, TraceRecord};
pub use span::{Span, SpanId};

use span::OpenSpan;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default flight-recorder window, in records.
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

struct Inner {
    clock: SharedClock,
    metrics: MetricsRegistry,
    recorder: FlightRecorder,
    next_span: AtomicU64,
    /// Started-but-not-yet-closed spans, by raw id.
    open: Mutex<HashMap<u64, OpenSpan>>,
    /// Clock time at which each killed member went down, for detection
    /// latency: `note_kill` writes, `take_kill` consumes.
    kills: Mutex<HashMap<String, u64>>,
    /// Where to dump a Chrome trace when a job fails, if anywhere.
    failure_dump: Mutex<Option<PathBuf>>,
}

/// The shared telemetry handle.  Clone freely — all clones observe the
/// same spans, metrics and recorder.  A [`Telemetry::disabled`] handle
/// holds no state and every call on it is one branch.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A no-op handle: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle on the wall [`MonotonicClock`] with the default
    /// recorder window.
    pub fn enabled() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()), DEFAULT_RECORDER_CAPACITY)
    }

    /// An enabled handle on an explicit clock (use [`ManualClock`] in
    /// tests) and recorder capacity.
    pub fn with_clock(clock: SharedClock, recorder_capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                clock,
                metrics: MetricsRegistry::new(),
                recorder: FlightRecorder::new(recorder_capacity),
                next_span: AtomicU64::new(1),
                open: Mutex::new(HashMap::new()),
                kills: Mutex::new(HashMap::new()),
                failure_dump: Mutex::new(None),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current clock time in nanoseconds, or `None` when disabled.
    pub fn now_nanos(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.clock.now_nanos())
    }

    /// Starts a span.  Returns `None` when disabled; thread the returned
    /// id back into [`Telemetry::span_end`].
    pub fn span_start(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: Option<u64>,
        detail: &str,
    ) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let id = SpanId(inner.next_span.fetch_add(1, Ordering::Relaxed));
        let open = OpenSpan {
            parent,
            name,
            job,
            start_nanos: inner.clock.now_nanos(),
            detail: detail.to_string(),
        };
        inner.open.lock().unwrap().insert(id.0, open);
        Some(id)
    }

    /// Ends a span started with [`Telemetry::span_start`], pushing it into
    /// the flight recorder.  Returns the span's duration, or `None` when
    /// disabled, `id` is `None`, or the span is unknown (already ended).
    pub fn span_end(&self, id: Option<SpanId>) -> Option<Duration> {
        self.span_end_with_detail(id, None)
    }

    /// Like [`Telemetry::span_end`] but replaces the span's detail text
    /// (e.g. with the terminal status) when `detail` is `Some`.
    pub fn span_end_with_detail(
        &self,
        id: Option<SpanId>,
        detail: Option<&str>,
    ) -> Option<Duration> {
        let inner = self.inner.as_ref()?;
        let id = id?;
        let mut open = inner.open.lock().unwrap().remove(&id.0)?;
        if let Some(detail) = detail {
            open.detail = detail.to_string();
        }
        let span = open.close(id, inner.clock.now_nanos());
        let duration = Duration::from_nanos(span.duration_nanos());
        inner.recorder.push(TraceRecord::Span(span));
        Some(duration)
    }

    /// Records an already-closed span from explicit timestamps — used when
    /// the start was observed in the past (e.g. a `detect` span opening at
    /// the kill time and closing when the detector notices).
    pub fn span_closed(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: Option<u64>,
        start_nanos: u64,
        detail: &str,
    ) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let id = SpanId(inner.next_span.fetch_add(1, Ordering::Relaxed));
        let span = Span {
            id,
            parent,
            name,
            job,
            start_nanos,
            end_nanos: inner.clock.now_nanos().max(start_nanos),
            detail: detail.to_string(),
        };
        inner.recorder.push(TraceRecord::Span(span));
        Some(id)
    }

    /// Records a point-in-time event correlated with `span`.
    pub fn instant(
        &self,
        name: &'static str,
        job: Option<u64>,
        span: Option<SpanId>,
        detail: &str,
    ) {
        if let Some(inner) = &self.inner {
            inner.recorder.push(TraceRecord::Instant {
                name,
                at_nanos: inner.clock.now_nanos(),
                job,
                span,
                detail: detail.to_string(),
            });
        }
    }

    /// Notes the clock time at which `member` was killed, so the eventual
    /// detection can compute its latency.
    pub fn note_kill(&self, member: &str) {
        if let Some(inner) = &self.inner {
            let now = inner.clock.now_nanos();
            inner.kills.lock().unwrap().insert(member.to_string(), now);
        }
    }

    /// Consumes the kill time noted for `member`, if any.
    pub fn take_kill(&self, member: &str) -> Option<u64> {
        self.inner.as_ref()?.kills.lock().unwrap().remove(member)
    }

    /// The counter `name{labels}`, or `None` when disabled.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<Counter> {
        self.inner.as_ref().map(|i| i.metrics.counter(name, labels))
    }

    /// The gauge `name{labels}`, or `None` when disabled.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<Gauge> {
        self.inner.as_ref().map(|i| i.metrics.gauge(name, labels))
    }

    /// Records `d` into histogram `name{labels}` in one call.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], d: Duration) {
        if let Some(inner) = &self.inner {
            inner.metrics.histogram(name, labels).observe(d);
        }
    }

    /// Bumps counter `name{labels}` in one call.
    pub fn count(&self, name: &str, labels: &[(&str, &str)]) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter(name, labels).inc();
        }
    }

    /// Prometheus text snapshot of every metric, or `None` when disabled.
    pub fn snapshot_prometheus(&self) -> Option<String> {
        self.inner.as_ref().map(|i| i.metrics.render_prometheus())
    }

    /// Chrome `trace_event` JSON of the flight-recorder window, or `None`
    /// when disabled.
    pub fn chrome_trace(&self) -> Option<String> {
        self.inner.as_ref().map(|i| i.recorder.chrome_trace())
    }

    /// Snapshot of completed spans in the flight-recorder window, oldest
    /// first.  Empty when disabled.
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner
                .recorder
                .records()
                .into_iter()
                .filter_map(|r| match r {
                    TraceRecord::Span(s) => Some(s),
                    TraceRecord::Instant { .. } => None,
                })
                .collect(),
            None => Vec::new(),
        }
    }

    /// Snapshot of all records (spans and instants) in the window.
    pub fn records(&self) -> Vec<TraceRecord> {
        match &self.inner {
            Some(inner) => inner.recorder.records(),
            None => Vec::new(),
        }
    }

    /// How many flight-recorder records have been evicted.
    pub fn dropped_records(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.recorder.dropped())
            .unwrap_or(0)
    }

    /// Arms the automatic failure dump: when [`Telemetry::dump_failure`]
    /// fires (a job fails), the Chrome trace is written to `path`.
    pub fn dump_to_on_failure(&self, path: PathBuf) {
        if let Some(inner) = &self.inner {
            *inner.failure_dump.lock().unwrap() = Some(path);
        }
    }

    /// Dumps the Chrome trace to the armed failure path, if one is set.
    /// Returns the path written, or `None` when disabled/unarmed/unwritable.
    pub fn dump_failure(&self, job: Option<u64>, cause: &str) -> Option<PathBuf> {
        let inner = self.inner.as_ref()?;
        let path = inner.failure_dump.lock().unwrap().clone()?;
        self.instant("job_failed", job, None, cause);
        std::fs::write(&path, inner.recorder.chrome_trace()).ok()?;
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> (Arc<ManualClock>, Telemetry) {
        let clock = Arc::new(ManualClock::new());
        let tel = Telemetry::with_clock(clock.clone(), 64);
        (clock, tel)
    }

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert_eq!(tel.span_start("job", None, None, ""), None);
        assert_eq!(tel.span_end(Some(SpanId(1))), None);
        assert!(tel.counter("c", &[]).is_none());
        assert!(tel.snapshot_prometheus().is_none());
        assert!(tel.chrome_trace().is_none());
        assert!(tel.spans().is_empty());
        tel.instant("x", None, None, ""); // must not panic
    }

    #[test]
    fn span_tree_records_parent_links_and_durations() {
        let (clock, tel) = manual();
        let job = tel.span_start("job", None, Some(9), "");
        clock.advance(100);
        let phase = tel.span_start("screen", job, Some(9), "");
        clock.advance(400);
        assert_eq!(tel.span_end(phase), Some(Duration::from_nanos(400)));
        clock.advance(50);
        assert_eq!(tel.span_end(job), Some(Duration::from_nanos(550)));

        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        // Phase closed first, so it is recorded first.
        assert_eq!(spans[0].name, "screen");
        assert_eq!(spans[0].parent, job);
        assert_eq!(spans[1].name, "job");
        assert!(spans[1].encloses(&spans[0]));
    }

    #[test]
    fn span_end_is_idempotent_per_id() {
        let (_, tel) = manual();
        let id = tel.span_start("job", None, None, "");
        assert!(tel.span_end(id).is_some());
        assert_eq!(tel.span_end(id), None, "second end is a no-op");
    }

    #[test]
    fn concurrent_recording_preserves_invariants() {
        let (_, tel) = manual();
        let tel = Arc::new(tel);
        let handles: Vec<_> = (0..8)
            .map(|job| {
                let tel = tel.clone();
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        let root = tel.span_start("job", None, Some(job), "");
                        let child = tel.span_start("screen", root, Some(job), "");
                        tel.span_end(child);
                        tel.span_end(root);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 64, "ring holds all 8×4×2 spans");
        // Ids are unique, and every parent link points at a distinct
        // earlier-allocated span of the same job.
        let mut seen = std::collections::HashSet::new();
        for s in &spans {
            assert!(seen.insert(s.id), "duplicate span id {:?}", s.id);
        }
        for s in spans.iter().filter(|s| s.parent.is_some()) {
            let parent = spans.iter().find(|p| Some(p.id) == s.parent).unwrap();
            assert_eq!(parent.job, s.job, "parent belongs to the same job");
            assert!(parent.id < s.id, "parents allocate before children");
            assert!(parent.encloses(s), "child interval nests inside parent");
        }
    }

    #[test]
    fn kill_table_round_trips() {
        let (clock, tel) = manual();
        clock.advance(1_000);
        tel.note_kill("rg0#1");
        clock.advance(500);
        assert_eq!(tel.take_kill("rg0#1"), Some(1_000));
        assert_eq!(tel.take_kill("rg0#1"), None, "consumed");
        assert_eq!(tel.take_kill("rg9#9"), None, "never noted");
    }

    #[test]
    fn span_closed_back_dates_the_start() {
        let (clock, tel) = manual();
        clock.advance(5_000);
        let id = tel.span_closed("detect", None, Some(3), 2_000, "rg0#1");
        assert!(id.is_some());
        let spans = tel.spans();
        assert_eq!(spans[0].start_nanos, 2_000);
        assert_eq!(spans[0].end_nanos, 5_000);
    }

    #[test]
    fn failure_dump_writes_chrome_trace() {
        let (_, tel) = manual();
        let dir = std::env::temp_dir().join("telemetry-failure-dump-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        tel.dump_to_on_failure(path.clone());
        let id = tel.span_start("job", None, Some(1), "");
        tel.span_end(id);
        let written = tel.dump_failure(Some(1), "deadline exceeded").unwrap();
        assert_eq!(written, path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("job_failed"));
        std::fs::remove_file(&path).ok();
    }
}
