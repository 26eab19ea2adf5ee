#!/usr/bin/env bash
# Appends the stable benchmark numbers of this checkout to
# bench/BENCH_history.csv so performance trends are visible per PR.
#
# Recorded metrics:
#   * fig4_p16_plain_secs / fig4_p16_resilient_secs — simulated seconds of
#     the Figure 4 reproduction at 16 processors (deterministic discrete-event
#     simulation: stable across machines).
#   * fig5_p16_x2_secs — simulated seconds of the Figure 5 cell at 16
#     processors with 2 sub-cubes per worker (also deterministic).
#   * service_* — the fusiond throughput benchmark: job/task/unique counters
#     are deterministic; jobs_per_sec is wall-clock and trend-only.
#     service_route_{standard,resilient,shared_memory}_{jobs,auto} record
#     the per-route job mix (pinned resilient, Route::Auto resolved by the
#     default size-threshold policy to the shared-memory lane, pinned
#     standard) so routing-mix drift stays bisectable.
#     service_bytes_cloned_{screen,transform} measure (via the hsi clone
#     ledger) the sub-cube payload bytes deep-copied into task messages —
#     0 on the Arc-backed view message plane — and
#     service_payload_bytes_shipped is the volume the pre-view plane used
#     to deep-copy per task, recorded as the before/after denominator.
#   * ingest_* — the streaming ingestion benchmark: a deterministic folder
#     of BSQ/BIL/BIP cube files replayed through IngestPump -> CubeStore ->
#     fusiond.  ingest_{cubes,chunks,shed,store_hits,store_misses,
#     bytes_assembled} are deterministic by construction (fixed file set,
#     sorted replay, blocker-pinned shedding); cubes_per_sec is wall-clock
#     and trend-only.
#   * {service,ingest}_tenant_t<N>_{admitted,downgraded,shed,rejected} —
#     per-tenant admission-plane attribution from the same two benchmarks
#     (both drive fixed tenant mixes through service::admission); all four
#     counters per tenant are deterministic, so any drift means admission
#     behaviour changed.
#   * service_scheduler_turns_per_job — the same run's
#     `ServiceReport::scheduler_turns` over its completed jobs: how often the
#     event-driven scheduler woke (message, doorbell ring, timer) per job.
#     Depends on how arrivals batch, so trend-only; a busy-polling
#     regression would show as orders of magnitude.
#   * {service,ingest}_telemetry_overhead_pct — wall-clock cost of the
#     telemetry plane fully on (spans + metrics + flight recorder) versus
#     disabled, measured on a compute-dominated serial probe (submit ->
#     wait one job at a time / replay-plus-drain passes) so scheduler
#     jitter cannot dominate; min-of-5 per configuration, alternating and
#     order-flipped, after a warm-up.  The deterministic rows always come
#     from a disabled run, so they stay comparable with the pre-telemetry
#     history.  Wall-clock and trend-only; the budget is <5%.
#   * service_latency_{p50,p95,p99}_ms — submit-to-completion latency
#     percentiles estimated from the enabled run's
#     fusiond_job_latency_seconds histogram.  Wall-clock and trend-only.
#   * sim_* — the deterministic cluster simulator's 1000-scenario fault
#     sweep (fixed seed): sim_scenarios_per_sec is wall-clock and
#     trend-only; sim_detection_latency_p{50,99}_virtual_ms are measured
#     on *virtual* time and sim_sweep_{passed,detections} are counters —
#     all three are pure functions of the sweep seed, so any drift means
#     detector or protocol behaviour changed.
#   * service_worker_{lost,reassigned,failover} — standard-lane failover
#     counters from two deterministic chaos probes (worker kill on a
#     two-worker lane; lane-drain kill on a one-worker lane backed by an
#     inline executor).  Exact by construction (expected 2 / 1 / 1): any
#     drift means detection or re-dispatch behaviour changed.
#   * kernel_{screen_ns_per_px_unique,dot_fast_ns_per_elem,dot_ns_per_elem}
#     — `bench --bin kernel_rows`: the screening engine on a 64x64x32 scene
#     at 5 deg per pixel x unique member, and the plain and compensated dot
#     kernels per element, each the median of 15 runs.  Wall-clock and
#     trend-only.
#   * kernel_eigen_210_ms — same binary: step 6 (`sorted_eigenpairs`) on the
#     covariance of a 32x32x210 scene's unique set at 5 deg, median of 15.
#     Householder + implicit QL since PR 20 (numerics version 2), the cyclic
#     Jacobi before it — same row name, so the trend continues.  The binary
#     prints the Jacobi oracle's time and the ratio on the same line; only
#     the kernel's own time is recorded.
#   * kernel_transform_ns_per_px_band — same binary: step 7
#     (`pct::pipeline::transform_cube`, three components) on the 64x64x32
#     scene per pixel x band, median of 15.  ~0.85 since PR 23's blocked
#     kernel (~6 with one serial sum per component and a `Vec` per pixel).
#   * kernel_content_hash_ns_per_mb — same binary, same cube (1 MiB): the
#     ingest store's `content_hash` per MiB, median of 15.  ~80 000 since
#     PR 23's four-lane word-wise hash (1 300 000 as a bytewise FNV-1a);
#     the bound is a `memcpy` of the cube (`machine.memcpy_ns_per_mb`,
#     ~90 000 on the 2-core box).  Both wall-clock and trend-only.
#   * loc_<crate> / loc_tests / loc_shims / loc_examples / loc_fusebench —
#     `wc -l` over every `.rs` file under crates/<crate>/, tests/, shims/,
#     examples/ and fusebench/src/ (tests and comments included): ROADMAP
#     aim 2 tracks net line count per crate.
#
# After appending, the committed trend chart bench/BENCH_trends.svg is
# regenerated from the full history by `bench --bin plot_history`.
#
# Usage: bash bench/record.sh   (from anywhere; non-gating in CI)
set -euo pipefail
cd "$(dirname "$0")/.."

STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)
REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
CSV=bench/BENCH_history.csv

if [ ! -f "$CSV" ]; then
    echo "recorded_at,rev,metric,value" > "$CSV"
fi

cargo build --release -p bench --bins >/dev/null 2>&1

FIG4=$(cargo run --release -q -p bench --bin fig4_speedup 2>/dev/null)
PLAIN16=$(echo "$FIG4" | awk '$1=="16" && NF>=6 {print $2; exit}')
RESIL16=$(echo "$FIG4" | awk '$1=="16" && NF>=6 {print $3; exit}')

FIG5=$(cargo run --release -q -p bench --bin fig5_granularity 2>/dev/null)
G16X2=$(echo "$FIG5" | awk '$1=="16" && $2!="sub-cubes:" {print $3; exit}')

SVC=$(cargo run --release -q -p bench --bin service_throughput 2>/dev/null)
ING=$(cargo run --release -q -p bench --bin ingest_throughput 2>/dev/null)
SIM=$(cargo run --release -q -p bench --bin sim_throughput 2>/dev/null)
KER=$(cargo run --release -q -p bench --bin kernel_rows 2>/dev/null)

{
    echo "$STAMP,$REV,fig4_p16_plain_secs,$PLAIN16"
    echo "$STAMP,$REV,fig4_p16_resilient_secs,$RESIL16"
    echo "$STAMP,$REV,fig5_p16_x2_secs,$G16X2"
    echo "$SVC" | awk -v s="$STAMP" -v r="$REV" '$1=="CSV" {print s "," r "," $2 "," $3}'
    echo "$ING" | awk -v s="$STAMP" -v r="$REV" '$1=="CSV" {print s "," r "," $2 "," $3}'
    echo "$SIM" | awk -v s="$STAMP" -v r="$REV" '$1=="CSV" {print s "," r "," $2 "," $3}'
    echo "$KER" | awk -v s="$STAMP" -v r="$REV" '$1=="CSV" {print s "," r "," $2 "," $3}'
    for dir in crates/*/ tests/ shims/ examples/ fusebench/src/; do
        name=$(basename "${dir%/src/}")
        echo "$STAMP,$REV,loc_$name,$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)"
    done
} >> "$CSV"

echo "recorded $(grep -c "^$STAMP,$REV," "$CSV") metrics for $REV into $CSV:"
grep "^$STAMP,$REV," "$CSV"

cargo run --release -q -p bench --bin plot_history
