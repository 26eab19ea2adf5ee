//! The metric registry: every name the benchmark may print, with its unit
//! and direction.  `BENCHMARK.json` is generated from it (`fusebench
//! manifest`; a unit test compares the committed file), so a metric cannot
//! be printed under a name the contract does not know, nor silently dropped.

use crate::json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of fusiond would see; `bound` is the share of the
/// parent's median by which it may worsen before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer (`layer.metric`, layer = crate).  `exact` marks a
/// count that must repeat exactly between runs of one build and seed.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_job",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
];

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // pct — the fusion kernels, replayed single-threaded on the workload's cubes.
    timing("pct.sequential_job_ms", "ms"),
    timing("pct.screen_ns_per_px_unique", "ns"),
    exact("pct.screen_unique_per_job", "count"),
    timing("pct.derive_ms", "ms"),
    timing("pct.transform_ns_per_px_band", "ns"),
    timing("pct.colormap_ns_per_px", "ns"),
    timing("pct.assemble_ns_per_mb", "ns"),
    timing("pct.task_compute_ms", "ms"),
    timing("pct.screen_share", "ratio"),
    timing("pct.derive_share", "ratio"),
    // hsi
    timing("hsi.pixel_vectors_ns_per_px", "ns"),
    exact("hsi.bytes_cloned_per_job", "B"),
    // linalg
    timing("linalg.dot_ns_per_elem", "ns"),
    timing("linalg.spectral_angle_ns", "ns"),
    timing("linalg.covariance_ns_per_vec_band2", "ns"),
    timing("linalg.rank_one_update_210_ns", "ns"),
    timing("linalg.eigen_210_ms", "ms"),
    // service — from the product's own spans, event stamps and report.
    timing("service.admission_wait_ms_p50", "ms"),
    timing("service.admission_wait_ms_p90", "ms"),
    timing("service.admission_share", "ratio"),
    timing("service.queue_high_water", "count"),
    timing("service.t1_over_t2_wait", "ratio"),
    timing("service.phase_screen_ms_p50", "ms"),
    timing("service.phase_derive_ms_p50", "ms"),
    timing("service.phase_transform_ms_p50", "ms"),
    timing("service.phase_inline_ms_p50", "ms"),
    timing("service.dispatch_overhead_ms_p50", "ms"),
    timing("service.overhead_ratio", "ratio"),
    exact("service.tasks_per_job", "count"),
    timing("service.start_ms", "ms"),
    timing("service.shutdown_ms", "ms"),
    timing("service.lane_standard_p50_ms", "ms"),
    timing("service.lane_resilient_p50_ms", "ms"),
    timing("service.lane_shared_memory_p50_ms", "ms"),
    timing("service.job_latency_p99_ms", "ms"),
    timing("service.residual_share", "ratio"),
    // wire — the remote lane's codec and hop, on the job's real messages.
    timing("wire.encode_ns_per_mb", "ns"),
    timing("wire.decode_ns_per_mb", "ns"),
    timing("wire.crc32_ns_per_mb", "ns"),
    timing("wire.frame_reader_ns_per_mb", "ns"),
    exact("wire.bytes_per_job", "B"),
    exact("wire.frames_per_job", "count"),
    timing("wire.tcp_roundtrip_us", "us"),
    timing("wire.hop_overhead_ms", "ms"),
    timing("wire.share_of_p50", "ratio"),
    // ingest
    timing("ingest.read_ns_per_mb", "ns"),
    timing("ingest.decode_bip_ns_per_mb", "ns"),
    timing("ingest.decode_bil_ns_per_mb", "ns"),
    timing("ingest.decode_bsq_ns_per_mb", "ns"),
    timing("ingest.content_hash_ns_per_mb", "ns"),
    timing("ingest.store_hit_us", "us"),
    timing("ingest.store_miss_us", "us"),
    exact("ingest.store_hit_ratio", "ratio"),
    exact("ingest.chunks", "count"),
    exact("ingest.bytes_assembled", "B"),
    exact("ingest.shed", "count"),
    timing("ingest.share_of_wall", "ratio"),
    // resilience — the four counts are totals of a traced run, whose number
    // of rounds follows `--seconds` and the machine's speed: not exact.
    higher("resilience.kills", "count"),
    higher("resilience.regenerations", "count"),
    timing("resilience.detect_ms_p50", "ms"),
    timing("resilience.regen_ms_p50", "ms"),
    timing("resilience.duplicates_ignored", "count"),
    timing("resilience.tasks_retransmitted", "count"),
    timing("resilience.attacked_p50_ms", "ms"),
    timing("resilience.plain_p50_ms", "ms"),
    timing("resilience.replication_cost_ratio", "ratio"),
    // telemetry
    timing("telemetry.overhead_pct", "%"),
    timing("telemetry.spans_per_job", "count"),
    timing("telemetry.dropped_records", "count"),
    // machine — the bound the ns/MB rates above chase.
    timing("machine.memcpy_ns_per_mb", "ns"),
    timing("machine.stream_sum_ns_per_mb", "ns"),
];

/// The values of one run, keyed by registered name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`, which must be registered (a typo is a
    /// bug in the benchmark, caught by the smoke test).
    pub fn set(&mut self, name: &str, value: f64) {
        let registered = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        self.values.insert(registered, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, unit, value)` of every metric of one pass, in registry order.
    /// A per-layer metric the workload never set reads 0: the layer is not
    /// on that workload's path.  An end-to-end metric must have been set.
    pub fn pass(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, self.get(m.name).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self
                        .get(m.name)
                        .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", m.name));
                    (m.name, m.unit, value)
                })
                .collect()
        }
    }
}

/// `{"name":{"value":..,"unit":..},..}` — how both the result line and the
/// merged report carry metrics.
pub fn object<S: AsRef<str>>(metrics: &[(S, S, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(name.as_ref()),
                json::number(*value),
                json::quote(unit.as_ref())
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line of the benchmark contract.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        object(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn unset_layer_metrics_read_zero_and_unregistered_names_panic() {
        let mut metrics = Metrics::default();
        metrics.set("pct.derive_ms", 1.5);
        let pass = metrics.pass(true);
        assert_eq!(pass.len(), PER_LAYER.len());
        assert!(pass.contains(&("pct.derive_ms", "ms", 1.5)));
        assert!(pass.contains(&("wire.hop_overhead_ms", "ms", 0.0)));
        assert!(std::panic::catch_unwind(|| Metrics::default().set("pct.typo", 1.0)).is_err());
    }
}
