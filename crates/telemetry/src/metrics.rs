//! Metrics: named counters, gauges and fixed-bucket latency histograms.
//!
//! The hot path is lock-free: each instrument hands out an `Arc` of
//! atomics, so recording a value is a handful of relaxed atomic ops.  The
//! registry's mutex is touched only on instrument *creation* (get-or-create
//! by name + labels) and on snapshot rendering.  Snapshots use the
//! [Prometheus exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/)
//! so a dump pastes straight into standard tooling.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default latency bucket upper edges, in seconds.  Chosen for a service
/// whose phases run microseconds-to-seconds: 100µs up to 10s, roughly
/// base-√10 spaced.
pub const DEFAULT_LATENCY_EDGES: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, live workers).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram.  Buckets hold *non-cumulative* counts
/// internally; the exporter accumulates them into Prometheus' cumulative
/// `le` form.
#[derive(Debug, Clone)]
pub struct Histogram {
    edges: Arc<Vec<f64>>,
    /// One slot per edge plus a final +Inf slot.
    buckets: Arc<Vec<AtomicU64>>,
    /// Total observed time in nanoseconds.
    sum_nanos: Arc<AtomicU64>,
}

impl Histogram {
    pub(crate) fn new(edges: &[f64]) -> Self {
        let edges: Vec<f64> = edges.to_vec();
        let buckets = (0..edges.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            edges: Arc::new(edges),
            buckets: Arc::new(buckets),
            sum_nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Records one duration.
    pub fn observe(&self, d: Duration) {
        self.observe_seconds(d.as_secs_f64());
        self.sum_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    fn observe_seconds(&self, secs: f64) {
        // Values land in the first bucket whose edge is >= the value
        // (Prometheus `le` semantics); larger values land in +Inf.
        let idx = self
            .edges
            .iter()
            .position(|&edge| secs <= edge)
            .unwrap_or(self.edges.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed durations.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed))
    }

    /// Per-bucket (edge, non-cumulative count) pairs; the final entry uses
    /// `f64::INFINITY` as its edge.
    fn buckets(&self) -> Vec<(f64, u64)> {
        self.edges
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
            .collect()
    }
}

/// One registry entry: the instrument plus its identity.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// Identity of one instrument: metric family name plus sorted label pairs.
type MetricKey = (String, Vec<(String, String)>);

/// A registry of named instruments.  Get-or-create is keyed by family name
/// and label set; the returned handles are `Arc`-backed and can be cached
/// by callers to keep the hot path off the registry mutex entirely.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    instruments: Mutex<BTreeMap<MetricKey, Instrument>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut pairs: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        pairs.sort();
        (name.to_string(), pairs)
    }

    /// Returns the counter `name{labels}`, creating it on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(Self::key(name, labels))
            .or_insert_with(|| Instrument::Counter(Counter::default()))
        {
            Instrument::Counter(c) => c.clone(),
            other => panic!(
                "metric {name} already registered as a {}",
                other.type_name()
            ),
        }
    }

    /// Returns the gauge `name{labels}`, creating it on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(Self::key(name, labels))
            .or_insert_with(|| Instrument::Gauge(Gauge::default()))
        {
            Instrument::Gauge(g) => g.clone(),
            other => panic!(
                "metric {name} already registered as a {}",
                other.type_name()
            ),
        }
    }

    /// Returns the histogram `name{labels}` with [`DEFAULT_LATENCY_EDGES`],
    /// creating it on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with_edges(name, labels, DEFAULT_LATENCY_EDGES)
    }

    /// Returns the histogram `name{labels}` with explicit bucket edges,
    /// creating it on first use.  Edges must be sorted ascending.
    fn histogram_with_edges(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        edges: &[f64],
    ) -> Histogram {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must ascend");
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(Self::key(name, labels))
            .or_insert_with(|| Instrument::Histogram(Histogram::new(edges)))
        {
            Instrument::Histogram(h) => h.clone(),
            other => panic!(
                "metric {name} already registered as a {}",
                other.type_name()
            ),
        }
    }

    /// Renders every instrument in Prometheus text exposition format.
    pub(crate) fn render_prometheus(&self) -> String {
        let map = self.instruments.lock().unwrap();
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for ((name, labels), instrument) in map.iter() {
            if last_family != Some(name.as_str()) {
                out.push_str(&format!("# TYPE {name} {}\n", instrument.type_name()));
                last_family = Some(name.as_str());
            }
            let label_text = render_labels(labels, &[]);
            match instrument {
                Instrument::Counter(c) => {
                    out.push_str(&format!("{name}{label_text} {}\n", c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("{name}{label_text} {}\n", g.get()));
                }
                Instrument::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (edge, count) in h.buckets() {
                        cumulative += count;
                        let le = if edge.is_infinite() {
                            "+Inf".to_string()
                        } else {
                            trim_float(edge)
                        };
                        let bucket_labels = render_labels(labels, &[("le", &le)]);
                        out.push_str(&format!("{name}_bucket{bucket_labels} {cumulative}\n"));
                    }
                    out.push_str(&format!(
                        "{name}_sum{label_text} {}\n",
                        trim_float(h.sum().as_secs_f64())
                    ));
                    out.push_str(&format!("{name}_count{label_text} {cumulative}\n"));
                }
            }
        }
        out
    }
}

/// Renders `{k="v",...}` from stored labels plus extra pairs; empty label
/// sets render as nothing.
fn render_labels(stored: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if stored.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = stored.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    parts.extend(extra.iter().map(|(k, v)| format!("{k}=\"{v}\"")));
    format!("{{{}}}", parts.join(","))
}

/// Formats a float compactly (no trailing zeros, but always one decimal
/// form Prometheus accepts).
fn trim_float(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("jobs_total", &[("tenant", "t0")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Same identity → same instrument.
        assert_eq!(reg.counter("jobs_total", &[("tenant", "t0")]).get(), 3);

        let g = reg.gauge("queue_depth", &[]);
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_bucket_edges_are_le_inclusive() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with_edges("lat", &[], &[0.001, 0.01, 0.1]);
        // Exactly on an edge lands in that bucket (le semantics).
        h.observe(Duration::from_millis(1));
        // Between edges lands in the next bucket up.
        h.observe(Duration::from_millis(2));
        // Above every edge lands in +Inf.
        h.observe(Duration::from_secs(1));
        let buckets = h.buckets();
        assert_eq!(buckets[0], (0.001, 1));
        assert_eq!(buckets[1], (0.01, 1));
        assert_eq!(buckets[2], (0.1, 0));
        assert!(buckets[3].0.is_infinite());
        assert_eq!(buckets[3].1, 1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), Duration::from_millis(1003));
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_typed() {
        let reg = MetricsRegistry::new();
        reg.counter("fusiond_jobs_total", &[("tenant", "t1")])
            .add(4);
        let h = reg.histogram_with_edges("fusiond_wait_seconds", &[], &[0.5, 1.0]);
        h.observe(Duration::from_millis(250));
        h.observe(Duration::from_millis(750));
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE fusiond_jobs_total counter"));
        assert!(text.contains("fusiond_jobs_total{tenant=\"t1\"} 4"));
        assert!(text.contains("# TYPE fusiond_wait_seconds histogram"));
        assert!(text.contains("fusiond_wait_seconds_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("fusiond_wait_seconds_bucket{le=\"1.0\"} 2"));
        assert!(text.contains("fusiond_wait_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("fusiond_wait_seconds_count 2"));
        assert!(text.contains("fusiond_wait_seconds_sum 1"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[]);
        reg.gauge("m", &[]);
    }
}
