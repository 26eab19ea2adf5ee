//! The [`IngestReport`]: per-source and aggregate accounting of one pump
//! run — arrivals, chunks, assembled bytes, store dedup, shedding
//! decisions, and job outcomes.

use service::TenantId;
use std::collections::BTreeMap;
use std::time::{Duration, SystemTime};

/// Why the pump shed an arrival instead of submitting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShedReason {
    /// The payload bytes of the pump's submitted, not yet terminal jobs
    /// were at or above [`crate::SheddingPolicy::max_in_flight_bytes`].
    InFlightBytes,
    /// The service refused the submission because its admission queue was
    /// full ([`service::ServiceError::Saturated`]).
    Saturated,
}

impl ShedReason {
    /// A short label for reports and metric labels.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::InFlightBytes => "in-flight-bytes",
            ShedReason::Saturated => "saturated",
        }
    }
}

/// Counters for one source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCounters {
    /// Arrivals whose header parsed (complete or not).
    pub cubes_seen: u64,
    /// Arrivals submitted to the service.
    pub cubes_admitted: u64,
    /// Arrivals shed at the in-flight-bytes watermark.
    pub shed_in_flight_bytes: u64,
    /// Arrivals shed by service admission backpressure.
    pub shed_saturated: u64,
    /// Payload chunks decoded.
    pub chunks: u64,
    /// Payload bytes assembled in place into cube storage.
    pub bytes_assembled: u64,
    /// Arrivals abandoned on a malformed header, truncated payload or I/O
    /// error.
    pub decode_errors: u64,
    /// Arrivals deduplicated against store-resident content.
    pub store_hits: u64,
    /// Arrivals that inserted new content into the store.
    pub store_misses: u64,
}

impl SourceCounters {
    /// Arrivals shed for any reason.
    pub fn cubes_shed(&self) -> u64 {
        self.shed_in_flight_bytes + self.shed_saturated
    }

    /// Records a shed under its reason.
    pub(crate) fn record_shed(&mut self, reason: ShedReason) {
        match reason {
            ShedReason::InFlightBytes => self.shed_in_flight_bytes += 1,
            ShedReason::Saturated => self.shed_saturated += 1,
        }
    }

    /// Element-wise sum, used for the aggregate row.
    fn add(&mut self, other: &SourceCounters) {
        self.cubes_seen += other.cubes_seen;
        self.cubes_admitted += other.cubes_admitted;
        self.shed_in_flight_bytes += other.shed_in_flight_bytes;
        self.shed_saturated += other.shed_saturated;
        self.chunks += other.chunks;
        self.bytes_assembled += other.bytes_assembled;
        self.decode_errors += other.decode_errors;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
    }
}

/// Aggregate accounting of one [`crate::IngestPump`] run.
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
    /// The tenant the pump submitted on behalf of.
    pub tenant: TenantId,
    /// Per-source counters, keyed by source name.
    pub sources: BTreeMap<String, SourceCounters>,
    /// Cubes resident in the store at the end of the run.
    pub store_len: usize,
    /// Payload bytes resident in the store at the end of the run.
    pub store_resident_bytes: usize,
    /// Store entries evicted to hold the byte bound.
    pub store_evictions: u64,
    /// Admitted jobs that completed.
    pub jobs_completed: u64,
    /// Admitted jobs that failed.
    pub jobs_failed: u64,
    /// Admitted jobs that were cancelled.
    pub jobs_cancelled: u64,
    /// Admitted jobs that timed out.
    pub jobs_timed_out: u64,
    /// Sub-cube payload bytes deep-copied during the run (clone-ledger
    /// delta): 0 on the streaming assembly + view message plane.
    pub bytes_cloned: u64,
    /// Wall-clock time the pump run started.
    pub started_at: Option<SystemTime>,
    /// Wall-clock time the pump run finished (every job terminal).
    pub finished_at: Option<SystemTime>,
    /// Total Begin-to-End wall time spent assembling arrivals — sourced
    /// from telemetry `decode` spans when enabled, from the pump's own
    /// clock otherwise.
    pub decode_time: Duration,
}

impl IngestReport {
    /// The element-wise sum of every source's counters.
    pub fn totals(&self) -> SourceCounters {
        let mut totals = SourceCounters::default();
        for counters in self.sources.values() {
            totals.add(counters);
        }
        totals
    }

    /// A human-readable multi-line rendering for examples and logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("ingest report (tenant {})\n", self.tenant.label()));
        for (name, c) in &self.sources {
            out.push_str(&format!(
                "  source {name}: {} seen, {} admitted, {} shed \
                 ({} in-flight-bytes, {} saturated), {} decode errors\n",
                c.cubes_seen,
                c.cubes_admitted,
                c.cubes_shed(),
                c.shed_in_flight_bytes,
                c.shed_saturated,
                c.decode_errors,
            ));
        }
        let t = self.totals();
        out.push_str(&format!(
            "  decode: {} chunks, {} bytes assembled in place, {} bytes cloned\n",
            t.chunks, t.bytes_assembled, self.bytes_cloned,
        ));
        out.push_str(&format!(
            "  store:  {} hits, {} misses, {} evictions; {} cubes / {} bytes resident\n",
            t.store_hits,
            t.store_misses,
            self.store_evictions,
            self.store_len,
            self.store_resident_bytes,
        ));
        out.push_str(&format!(
            "  jobs:   {} completed, {} failed, {} cancelled, {} timed out\n",
            self.jobs_completed, self.jobs_failed, self.jobs_cancelled, self.jobs_timed_out,
        ));
        if let (Some(started), Some(finished)) = (self.started_at, self.finished_at) {
            let wall = finished
                .duration_since(started)
                .unwrap_or(Duration::ZERO)
                .as_secs_f64();
            out.push_str(&format!(
                "  time:   {:.3} s wall ({:.3} s decoding)\n",
                wall,
                self.decode_time.as_secs_f64(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_across_sources_and_render_mentions_them() {
        let mut report = IngestReport::default();
        let a = report.sources.entry("a".into()).or_default();
        a.cubes_seen = 3;
        a.cubes_admitted = 2;
        a.record_shed(ShedReason::InFlightBytes);
        a.store_misses = 2;
        let b = report.sources.entry("b".into()).or_default();
        b.cubes_seen = 2;
        b.cubes_admitted = 1;
        b.record_shed(ShedReason::Saturated);
        b.store_hits = 1;

        let totals = report.totals();
        assert_eq!(totals.cubes_seen, 5);
        assert_eq!(totals.cubes_admitted, 3);
        assert_eq!(totals.cubes_shed(), 2);
        assert_eq!(totals.store_hits, 1);
        assert_eq!(totals.store_misses, 2);

        let text = report.render();
        assert!(text.contains("source a: 3 seen, 2 admitted"));
        assert!(text.contains("1 saturated"));
        assert!(text.contains("store:  1 hits, 2 misses"));
    }

    #[test]
    fn wall_clock_and_decode_time_render() {
        let mut report = IngestReport::default();
        assert!(
            !report.render().contains("s wall"),
            "no time line without both wall-clock stamps"
        );
        report.started_at = Some(SystemTime::UNIX_EPOCH + Duration::from_secs(10));
        report.finished_at = Some(SystemTime::UNIX_EPOCH + Duration::from_millis(12_500));
        report.decode_time = Duration::from_millis(750);
        let text = report.render();
        assert!(text.contains("time:   2.500 s wall (0.750 s decoding)"));
    }

    #[test]
    fn shed_reasons_label_and_count() {
        assert_eq!(ShedReason::InFlightBytes.label(), "in-flight-bytes");
        assert_eq!(ShedReason::Saturated.label(), "saturated");
        let mut c = SourceCounters::default();
        c.record_shed(ShedReason::InFlightBytes);
        c.record_shed(ShedReason::InFlightBytes);
        c.record_shed(ShedReason::Saturated);
        assert_eq!(c.cubes_shed(), 3);
        assert_eq!(c.shed_in_flight_bytes, 2);
        assert_eq!(c.shed_saturated, 1);
    }
}
