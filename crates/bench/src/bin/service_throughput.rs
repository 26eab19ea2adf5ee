//! Service-layer throughput benchmark: drives a fixed mixed workload of 32
//! fusion jobs through `fusiond` and reports the run.
//!
//! The deterministic counters (jobs, tasks, unique-set sizes, route mix) are
//! stable across runs and machines; the throughput figure is wall-clock and
//! recorded for trend-watching only.  Lines starting with `CSV` are parsed
//! by `bench/record.sh` into `bench/BENCH_history.csv`.
//!
//! Routing mix: every fourth job is pinned to the resilient lane, every
//! fourth is `Route::Auto` (which the default size-threshold policy resolves
//! to the shared-memory lane for these 28×28×14 cubes — deterministically),
//! and the rest are pinned standard.  The per-route job counts in the CSV
//! make routing-mix drift bisectable.
//!
//! Tenancy mix: three of every four jobs belong to tenant `t1` (weight 3),
//! the fourth to tenant `t2` (weight 1), so the admission plane's weighted
//! fair-share dequeue is exercised and the per-tenant
//! `tenant_{admitted,downgraded,shed,rejected}` counters land in the CSV.
//!
//! Telemetry overhead: the mixed workload runs once disabled (the
//! configuration every pre-telemetry row in the history was recorded
//! under, so the existing CSV rows stay comparable) and once with the
//! span layer, metrics registry and flight recorder all live (feeding
//! the `service_latency_{p50,p95,p99}_ms` percentile rows).  The
//! `service_telemetry_overhead_pct` row itself comes from a dedicated
//! *serial* probe — submit → wait one job at a time over the inline lane,
//! measured min-of-`REPS` per configuration in alternation — because the
//! concurrent run's wall clock is dominated by scheduler jitter, not by
//! the cost being measured.
//!
//! Failover counters: two deterministic chaos probes (a standard-worker
//! kill on a two-worker lane, and on a one-worker lane backed by an
//! inline executor) feed the `service_worker_{lost,reassigned,failover}`
//! rows — exact counts, not load-dependent rates.

use hsi::{CloneLedger, CubeDims, SceneConfig, SceneGenerator};
use linalg::{Matrix, Vector};
use pct::messages::PctMessage;
use resilience::DetectorConfig;
use service::{
    BackendKind, ChaosPhase, ChaosPlan, CubeSource, FusionService, JobSpec, Route, ServiceConfig,
    ServiceReport, TenantId, TenantQuota,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Telemetry;
use wire::{decode_body, encode_message, FrameReader, WireMessage};

const JOBS: u64 = 32;

fn scene(i: u64) -> SceneConfig {
    let mut config = SceneConfig::small(500 + i);
    config.dims = CubeDims::new(28, 28, 14);
    config
}

/// Runs the fixed 32-job workload once and returns the service report, the
/// sum of per-job unique-pixel counts (a determinism witness) and the
/// submit-to-last-completion wall time.
fn run(telemetry: Telemetry) -> (ServiceReport, usize, Duration) {
    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(4)
            .replica_groups(2)
            .replication_level(2)
            .shared_memory_executors(2)
            .queue_capacity(JOBS as usize)
            .max_in_flight(12)
            .tenant_quota(TenantId(1), TenantQuota::weighted(3))
            .tenant_quota(TenantId(2), TenantQuota::weighted(1))
            .telemetry(telemetry)
            .build()
            .expect("config validates"),
    )
    .expect("service starts");

    let started = Instant::now();
    let mut handles = Vec::new();
    for i in 0..JOBS {
        let cube = Arc::new(
            SceneGenerator::new(scene(i))
                .expect("valid scene")
                .generate(),
        );
        let route = match i % 4 {
            0 => Route::Pinned(BackendKind::Resilient),
            1 => Route::Auto,
            _ => Route::Pinned(BackendKind::Standard),
        };
        let tenant = if i % 4 == 3 { TenantId(2) } else { TenantId(1) };
        let spec = JobSpec::builder(CubeSource::InMemory(cube))
            .priority(service::Priority::ALL[i as usize % 3])
            .tenant(tenant)
            .route(route)
            .shards(4)
            .build()
            .expect("valid spec");
        handles.push(service.submit(spec).expect("submission accepted"));
    }

    let mut unique_sum: usize = 0;
    for handle in &mut handles {
        let outcome = handle.wait().expect("job completes");
        unique_sum += outcome.output().expect("completed").unique_count;
    }
    let elapsed = started.elapsed();
    drop(handles);
    (service.shutdown(), unique_sum, elapsed)
}

/// Repetitions per configuration for the overhead probe; the minimum wall
/// of each set is the noise-robust estimate.
const REPS: usize = 5;

/// Jobs per overhead-probe pass, each submitted and waited to completion
/// before the next (fully serial, so scheduler jitter cannot dominate).
const PROBE_JOBS: u64 = 8;

/// One serial pass over the shared-memory inline lane with a cube large
/// enough that per-job compute (tens of milliseconds) dwarfs cross-thread
/// wakeup latency — on a shared container the wakeups, not the telemetry,
/// are what varies run to run.  The per-job telemetry cost (span tree +
/// counters + histograms + recorder pushes) is fixed, so this measures it
/// against a realistic amount of work per job.
fn overhead_probe(telemetry: Telemetry) -> Duration {
    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(1)
            .replica_groups(0)
            .shared_memory_executors(1)
            .queue_capacity(4)
            .max_in_flight(1)
            .telemetry(telemetry)
            .build()
            .expect("config validates"),
    )
    .expect("service starts");
    let mut probe_scene = scene(0);
    probe_scene.dims = CubeDims::new(64, 64, 32);
    let cube = Arc::new(
        SceneGenerator::new(probe_scene)
            .expect("valid scene")
            .generate(),
    );
    let started = Instant::now();
    for _ in 0..PROBE_JOBS {
        let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
            .pinned(BackendKind::SharedMemory)
            .build()
            .expect("valid spec");
        service
            .submit(spec)
            .expect("submission accepted")
            .wait()
            .expect("job completes");
    }
    let elapsed = started.elapsed();
    service.shutdown();
    elapsed
}

/// One deterministic failover probe: a chaos kill takes `svc0` down at the
/// first screening dispatch of the (single) job.  The screening chain is
/// serial, so the dead worker holds exactly one in-flight task — with a
/// surviving worker the run yields exactly one reassignment, and with no
/// survivor it yields exactly one lane failover (to the shared-memory
/// executor).  The counters are exact, so the CSV rows alarm on any change
/// to detection or re-dispatch behaviour rather than drifting with load.
fn failover_probe(standard_workers: usize, shm_executors: usize) -> ServiceReport {
    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(standard_workers)
            .replica_groups(0)
            .shared_memory_executors(shm_executors)
            .standard_detector(DetectorConfig {
                heartbeat_period_ms: 10,
                miss_threshold: 3,
            })
            .queue_capacity(4)
            .max_in_flight(2)
            .chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "svc0"))
            .build()
            .expect("config validates"),
    )
    .expect("service starts");
    let cube = Arc::new(
        SceneGenerator::new(scene(99))
            .expect("valid scene")
            .generate(),
    );
    let spec = JobSpec::builder(CubeSource::InMemory(cube))
        .pinned(BackendKind::Standard)
        .shards(3)
        .build()
        .expect("valid spec");
    let outcome = service
        .submit(spec)
        .expect("submission accepted")
        .wait()
        .expect("job reaches a terminal state");
    assert!(
        outcome.output().is_some(),
        "failover probe job must survive the kill"
    );
    service.shutdown()
}

/// Wire-codec probe: the fixed message set of a three-shard fusion
/// exchange (handshake, screening and transform tasks per shard, a
/// unique-set reply, heartbeat, shutdown), encoded and decoded min-of-`REPS`
/// times.  The frame and byte counts are deterministic layout witnesses —
/// any codec change moves them; the per-MB timings are trend rows.
///
/// The probe also *asserts* the wire invariant in release mode: the
/// clone-ledger delta across one encode pass equals exactly the payload
/// bytes of the views embedded in the set, because the codec materializes
/// views straight into frame bodies and copies pixel data nowhere else.
fn wire_probe() -> (usize, usize, f64, f64) {
    let cube = Arc::new(SceneGenerator::new(scene(0)).unwrap().generate());
    let views = hsi::partition::partition_views(&cube, 3).expect("three shards");
    let bands = cube.dims().bands;
    let mean = Vector::from_vec(vec![0.5; bands]);
    let transform =
        Matrix::from_row_major(3, bands, (0..3 * bands).map(|i| i as f64 * 0.01).collect())
            .expect("dims consistent");
    let unique: Vec<Vector> = (0..17)
        .map(|i| Vector::from_vec((0..bands).map(|k| (i * bands + k) as f64).collect()))
        .collect();

    let mut messages = vec![WireMessage::hello()];
    for (i, view) in views.iter().enumerate() {
        messages.push(WireMessage::Pct(PctMessage::ScreenTask {
            task: i,
            view: view.clone(),
            threshold_rad: 0.0874,
        }));
        messages.push(WireMessage::Pct(PctMessage::TransformTask {
            task: 100 + i,
            view: view.clone(),
            mean: mean.clone(),
            transform: transform.clone(),
            scales: vec![(0.0, 1.0); 3],
        }));
    }
    messages.push(WireMessage::Pct(PctMessage::UniqueSet { task: 7, unique }));
    messages.push(WireMessage::Pct(PctMessage::Heartbeat));
    messages.push(WireMessage::Pct(PctMessage::Shutdown));

    // One counted pass, reconciled against the clone ledger: each view is
    // embedded in two messages, and nothing else may copy payload.
    let ledger = CloneLedger::snapshot();
    let encoded: Vec<Vec<u8>> = messages.iter().map(encode_message).collect();
    let view_payload: u64 = views.iter().map(|v| 2 * v.payload_bytes() as u64).sum();
    assert_eq!(
        ledger.delta(),
        view_payload,
        "wire bytes do not reconcile with the clone ledger"
    );

    let frames = encoded.len();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mb = bytes as f64 / (1024.0 * 1024.0);

    let mut encode_wall = Duration::MAX;
    let mut decode_wall = Duration::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        let pass: Vec<Vec<u8>> = messages.iter().map(encode_message).collect();
        encode_wall = encode_wall.min(start.elapsed());
        assert_eq!(pass.iter().map(Vec::len).sum::<usize>(), bytes);

        let start = Instant::now();
        let mut reader = FrameReader::new();
        let mut decoded = 0usize;
        for frame in &encoded {
            reader.push(frame);
            while let Some(body) = reader.next_frame().expect("frames are well-formed") {
                decode_body(&body).expect("bodies decode");
                decoded += 1;
            }
        }
        decode_wall = decode_wall.min(start.elapsed());
        assert_eq!(decoded, frames, "frame count drifted during decode");
    }
    (
        frames,
        bytes,
        encode_wall.as_nanos() as f64 / mb,
        decode_wall.as_nanos() as f64 / mb,
    )
}

fn main() {
    // Untimed warm-up so neither measured pass below absorbs the
    // cold-start costs (thread spawning, allocator, page faults) alone.
    run(Telemetry::disabled());

    // The mixed workload, disabled: the configuration all pre-existing CSV
    // rows were recorded under.  Then the same workload enabled: its
    // outputs must match, and its histograms feed the percentile rows.
    let enabled = Telemetry::enabled();
    let (report, unique_sum, _) = run(Telemetry::disabled());
    let (enabled_report, enabled_unique_sum, _) = run(enabled.clone());
    assert_eq!(
        enabled_unique_sum, unique_sum,
        "telemetry must not change job outputs"
    );
    assert_eq!(
        enabled_report.jobs_completed, report.jobs_completed,
        "telemetry must not change job outcomes"
    );

    // The serial overhead probe: both configurations in alternation so
    // they sample the same process-age distribution, with the order within
    // each pair flipped every rep so slow per-process drift (frequency
    // scaling, cache state) biases neither configuration.  The probes get
    // their own enabled instance so the big probe jobs don't pollute the
    // mixed run's latency histogram reported below.
    let probe_enabled = Telemetry::enabled();
    let mut disabled_wall = Duration::MAX;
    let mut enabled_wall = Duration::MAX;
    for rep in 0..REPS {
        if rep % 2 == 0 {
            disabled_wall = disabled_wall.min(overhead_probe(Telemetry::disabled()));
            enabled_wall = enabled_wall.min(overhead_probe(probe_enabled.clone()));
        } else {
            enabled_wall = enabled_wall.min(overhead_probe(probe_enabled.clone()));
            disabled_wall = disabled_wall.min(overhead_probe(Telemetry::disabled()));
        }
    }

    println!("service throughput benchmark — {JOBS} mixed jobs, 28x28x14 cubes");
    println!();
    print!("{}", report.render());
    println!();
    // Stable, machine-independent numbers first; wall-clock throughput last.
    println!("CSV service_jobs_completed {}", report.jobs_completed);
    println!("CSV service_tasks_dispatched {}", report.tasks_dispatched);
    println!("CSV service_unique_sum {unique_sum}");
    // The routing mix, per lane: pinned resilient (8), auto -> shared-memory
    // under the default size-threshold policy (8), pinned standard (16).
    for kind in BackendKind::ALL {
        let stats = report.route(kind);
        let label = kind.label().replace('-', "_");
        println!("CSV service_route_{label}_jobs {}", stats.jobs_routed);
        println!("CSV service_route_{label}_auto {}", stats.auto_routed);
    }
    // The zero-copy message plane, measured per phase via the clone ledger:
    // `bytes_cloned` must be 0 for the screening and transform phases, and
    // `payload_bytes_shipped` is the volume the pre-view plane deep-copied
    // per task (the "before" the view redesign removed).
    println!(
        "CSV service_bytes_cloned_screen {}",
        report.bytes_cloned_screen
    );
    println!(
        "CSV service_bytes_cloned_transform {}",
        report.bytes_cloned_transform
    );
    println!(
        "CSV service_payload_bytes_shipped {}",
        report.payload_bytes_shipped
    );
    // The wire codec, from its own deterministic probe: frame and byte
    // counts pin the binary layout (any codec change moves them and is
    // bisectable here), the per-MB timings track codec cost.  The probe
    // asserts en route that the encoded view bytes reconcile exactly with
    // the clone-ledger delta — the wire invariant, checked in release mode.
    let (wire_frames, wire_bytes, encode_ns_per_mb, decode_ns_per_mb) = wire_probe();
    println!("CSV wire_frames {wire_frames}");
    println!("CSV wire_bytes {wire_bytes}");
    println!("CSV wire_encode_ns_per_mb {encode_ns_per_mb:.0}");
    println!("CSV wire_decode_ns_per_mb {decode_ns_per_mb:.0}");
    // Per-tenant admission-plane attribution: 24 jobs for t1, 8 for t2, all
    // admitted (the queue is sized for the burst, so shed/rejected stay 0 —
    // a drift here means the admission plane changed behaviour).
    for tenant in [TenantId(1), TenantId(2)] {
        let stats = report.tenant(tenant);
        let label = tenant.label();
        println!(
            "CSV service_tenant_{label}_admitted {}",
            stats.jobs_admitted
        );
        println!(
            "CSV service_tenant_{label}_downgraded {}",
            stats.jobs_downgraded
        );
        println!("CSV service_tenant_{label}_shed {}", stats.jobs_shed);
        println!(
            "CSV service_tenant_{label}_rejected {}",
            stats.jobs_rejected
        );
    }
    println!(
        "CSV service_jobs_per_sec {:.2}",
        report.throughput_jobs_per_sec()
    );
    // Scheduler wake-ups per job: it blocks between events, so this is the
    // messages, doorbell rings and timers a job costs (batching lowers it,
    // a spin would raise it by orders of magnitude).  Wall-clock dependent.
    println!(
        "CSV service_scheduler_turns_per_job {:.1}",
        report.scheduler_turns as f64 / report.jobs_completed.max(1) as f64
    );

    let overhead_pct =
        (enabled_wall.as_secs_f64() / disabled_wall.as_secs_f64().max(1e-9) - 1.0) * 100.0;
    println!("CSV service_telemetry_overhead_pct {overhead_pct:.2}");
    // The standard-lane failover counters, from two deterministic probes:
    // a two-worker lane (the kill costs one worker and exactly one task
    // reassignment) and a one-worker lane backed by an inline executor
    // (the kill drains the lane and fails the job over).  Expected rows:
    // lost 2, reassigned 1, failover 1.
    let reassign = failover_probe(2, 0);
    let drain = failover_probe(1, 1);
    println!(
        "CSV service_worker_lost {}",
        reassign.workers_lost + drain.workers_lost
    );
    println!(
        "CSV service_worker_reassigned {}",
        reassign.tasks_reassigned
    );
    println!("CSV service_worker_failover {}", drain.lane_failovers);
    // End-to-end submit-to-completion latency percentiles from the enabled
    // run's histogram (linear interpolation within fixed buckets, the same
    // estimate Prometheus' `histogram_quantile` makes).
    let latency = enabled.histogram("fusiond_job_latency_seconds", &[]);
    for (q, name) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
        let ms = latency.as_ref().and_then(|h| h.quantile(q)).unwrap_or(0.0) * 1e3;
        println!("CSV service_latency_{name}_ms {ms:.3}");
    }
}
