#!/usr/bin/env bash
# Appends this checkout's trend rows to bench/BENCH_history.csv.  Every
# wall-clock row comes from one instrument, one `bash fusebench/run.sh`
# (six workloads, untraced then traced, medians with the A/A bounds of
# BENCHMARK.json; about three minutes):
#   * fb_<workload>_<metric> for the six end-to-end metrics of each workload
#     (setup_s, jobs_per_s, job_latency_p50_ms, job_latency_p90_ms,
#     cpu_ms_per_job, peak_rss_mb: 36 rows);
#   * fb_<workload>_<layer.metric> for the ledger rows listed in LEDGER below
#     and every workload's telemetry.overhead_pct.
# Then sim_scenarios_per_sec (`bench --bin sim_throughput`, wall-clock) and
# loc_<crate> / loc_tests / loc_shims / loc_examples / loc_fusebench (`wc -l`
# over the `.rs` files; ROADMAP aim 2 tracks net line count per crate).
#
# Nothing deterministic is recorded: those numbers are literals in tests
# (tests/exact_rows.rs, wire's codec_properties, sim's sweep, bench's lib),
# so a change to one fails `cargo test`.  Rows of earlier names stay in the
# CSV as history; where a trend continues it continues under:
#   service_jobs_per_sec              -> fb_mixed_burst_jobs_per_s
#   service_latency_p50_ms            -> fb_mixed_burst_job_latency_p50_ms
#   service_latency_p99_ms            -> fb_mixed_burst_service.job_latency_p99_ms
#   ingest_cubes_per_sec              -> fb_ingest_replay_jobs_per_s
#   {service,ingest}_telemetry_overhead_pct -> fb_<workload>_telemetry.overhead_pct
#   wire_{encode,decode}_ns_per_mb    -> fb_remote_wire_wire.{encode,decode}_ns_per_mb
#   kernel_screen_ns_per_px_unique    -> fb_screen_bound_pct.screen_ns_per_px_unique
#   kernel_dot_ns_per_elem            -> fb_screen_bound_linalg.dot_ns_per_elem
#   kernel_eigen_210_ms               -> fb_derive_bound_linalg.eigen_210_ms
#   kernel_transform_ns_per_px_band   -> fb_ingest_replay_pct.transform_ns_per_px_band
#   kernel_content_hash_ns_per_mb     -> fb_ingest_replay_ingest.content_hash_ns_per_mb
# kernel_dot_fast_ns_per_elem and service_scheduler_turns_per_job end without
# a successor (screening's ledger row and the wake-up suite cover them), as
# does service_latency_p95_ms; every other retired name was deterministic.
#
# Usage: bash bench/record.sh   (from anywhere; non-gating in CI)
set -euo pipefail
cd "$(dirname "$0")/.."

STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)
REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
CSV=bench/BENCH_history.csv
LEDGER="screen_bound pct.screen_ns_per_px_unique
screen_bound linalg.dot_ns_per_elem
derive_bound linalg.eigen_210_ms
ingest_replay pct.transform_ns_per_px_band
ingest_replay ingest.content_hash_ns_per_mb
remote_wire wire.encode_ns_per_mb
remote_wire wire.decode_ns_per_mb
mixed_burst service.job_latency_p99_ms"

if [ ! -f "$CSV" ]; then
    echo "recorded_at,rev,metric,value" > "$CSV"
fi

# Exits non-zero on a failed job, an output mismatch or a `# VIOLATION`.
FB=$(bash fusebench/run.sh)
SIM=$(cargo run --release -q -p bench --bin sim_throughput 2>/dev/null)

{
    # Metric lines are `workload metric unit value`; end-to-end names carry
    # no dot, ledger names are `layer.metric`.
    echo "$FB" | awk -v s="$STAMP" -v r="$REV" -v ledger="$LEDGER" '
        BEGIN { n = split(ledger, row, "\n"); for (i = 1; i <= n; i++) keep[row[i]] = 1 }
        /^#/ || NF != 4 { next }
        $2 !~ /\./ || $2 == "telemetry.overhead_pct" || ($1 " " $2) in keep {
            print s "," r ",fb_" $1 "_" $2 "," $4
        }'
    echo "$SIM" | awk -v s="$STAMP" -v r="$REV" '$1=="CSV" {print s "," r "," $2 "," $3}'
    for dir in crates/*/ tests/ shims/ examples/ fusebench/src/; do
        name=$(basename "${dir%/src/}")
        echo "$STAMP,$REV,loc_$name,$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)"
    done
} >> "$CSV"

echo "recorded $(grep -c "^$STAMP,$REV," "$CSV") metrics for $REV into $CSV:"
grep "^$STAMP,$REV," "$CSV"
