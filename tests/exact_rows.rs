//! Exact rows: the deterministic numbers that pin the service's behaviour,
//! asserted instead of recorded.
//!
//! Each test drives one fixed configuration and compares counters that are
//! functions of that configuration alone — no wall-clock quantity is read.
//! A deliberate behaviour change edits the literal in the same commit, with
//! the reason.  The sibling literals live beside the suites that already
//! drove their configuration: the wire message set in
//! `crates/wire/tests/codec_properties.rs`, the 1000-scenario sweeps in
//! `crates/sim/tests/sweep.rs`, Figures 4 / 5 in `crates/bench/src/lib.rs`,
//! the paper's protocol run in-thread in `crates/pct/src/plan.rs`.

use hsi::io::{write_cube_as, Interleave};
use hsi::{CubeDims, SceneConfig, SceneGenerator};
use ingest::{DirectorySource, IngestConfig, IngestPump, SheddingPolicy};
use pct::FusionOutput;
use resilience::DetectorConfig;
use service::{
    BackendKind, ChaosPhase, ChaosPlan, CubeSource, FusionService, JobSpec, PoolConfig, Priority,
    Protocol, Route, ServiceConfig, ServiceReport, TenantId, TenantQuota, TenantStats,
};
use std::sync::Arc;
use telemetry::Telemetry;

fn scene(seed: u64, side: usize, bands: usize) -> SceneConfig {
    let mut config = SceneConfig::small(seed);
    config.dims = CubeDims::new(side, side, bands);
    config
}

fn cube(config: SceneConfig) -> Arc<hsi::HyperCube> {
    Arc::new(SceneGenerator::new(config).expect("valid scene").generate())
}

/// The historical 32-job mix (fusebench's `mixed_burst` runs the same one):
/// 28×28×14 cubes, four shards; of every four jobs one is pinned resilient,
/// one is `Route::Auto` (which the default size-threshold policy resolves to
/// the shared-memory lane), two are pinned standard; three belong to tenant
/// t1 (weight 3), the fourth to t2 (weight 1); priorities cycle.  Returns
/// the service report and the sum of the jobs' unique-set sizes.
fn mixed_workload(telemetry: Telemetry) -> (ServiceReport, usize) {
    const JOBS: u64 = 32;
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

    let mut handles = Vec::new();
    for i in 0..JOBS {
        let route = match i % 4 {
            0 => Route::Pinned(BackendKind::Resilient),
            1 => Route::Auto,
            _ => Route::Pinned(BackendKind::Standard),
        };
        let tenant = if i % 4 == 3 { TenantId(2) } else { TenantId(1) };
        let spec = JobSpec::builder(CubeSource::InMemory(cube(scene(500 + i, 28, 14))))
            .priority(Priority::ALL[i as usize % 3])
            .tenant(tenant)
            .route(route)
            .shards(4)
            .build()
            .expect("valid spec");
        handles.push(service.submit(spec).expect("submission accepted"));
    }
    let mut unique_sum = 0;
    for handle in &mut handles {
        let outcome = handle.wait().expect("job completes");
        unique_sum += outcome.output().expect("completed").unique_count;
    }
    drop(handles);
    (service.shutdown(), unique_sum)
}

#[test]
fn mixed_workload_counters_are_exact() {
    let (report, unique_sum) = mixed_workload(Telemetry::disabled());
    assert_eq!(report.jobs_completed, 32);
    assert_eq!(report.tasks_dispatched, 224);
    assert_eq!(unique_sum, 3148);

    let routed = |kind| {
        let stats = report.route(kind);
        (stats.jobs_routed, stats.auto_routed)
    };
    assert_eq!(routed(BackendKind::Standard), (16, 0));
    assert_eq!(routed(BackendKind::Resilient), (8, 0));
    assert_eq!(routed(BackendKind::SharedMemory), (8, 8));
    assert_eq!(routed(BackendKind::Remote), (0, 0));

    // The view message plane deep-copies nothing into a task;
    // `payload_bytes_shipped` is what it would have copied.
    assert_eq!(report.bytes_cloned_screen, 0);
    assert_eq!(report.bytes_cloned_transform, 0);
    assert_eq!(report.payload_bytes_shipped, 4214784);

    // The queue holds the whole burst, so admission rejects nothing.
    for (tenant, weight, jobs) in [(TenantId(1), 3, 24), (TenantId(2), 1, 8)] {
        let expected = TenantStats {
            weight,
            jobs_admitted: jobs,
            jobs_completed: jobs,
            ..TenantStats::default()
        };
        assert_eq!(report.tenants[&tenant], expected);
    }

    // Spans, metrics and the flight recorder change no outcome.
    let (traced, traced_unique_sum) = mixed_workload(Telemetry::enabled());
    assert_eq!((traced.jobs_completed, traced_unique_sum), (32, 3148));
}

/// A chaos kill takes `svc0#0` down at the first screening dispatch of the one
/// job.  The screening chain is serial, so the dead worker holds exactly one
/// task in flight.
fn failover_probe(standard_workers: usize, shared_memory_executors: usize) -> ServiceReport {
    let service = FusionService::start(
        ServiceConfig::builder()
            .pool(PoolConfig {
                standard_workers,
                replica_groups: 0,
                shared_memory_executors,
                detector: DetectorConfig {
                    heartbeat_period_ms: 10,
                    miss_threshold: 3,
                },
                ..PoolConfig::default()
            })
            .queue_capacity(4)
            .max_in_flight(2)
            .chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "svc0#0"))
            .build()
            .expect("config validates"),
    )
    .expect("service starts");
    let spec = JobSpec::builder(CubeSource::InMemory(cube(scene(599, 28, 14))))
        .pinned(BackendKind::Standard)
        .shards(3)
        .build()
        .expect("valid spec");
    let outcome = service
        .submit(spec)
        .expect("submission accepted")
        .wait()
        .expect("job reaches a terminal state");
    assert!(outcome.output().is_some(), "the job must survive the kill");
    service.shutdown()
}

#[test]
fn failover_counters_are_exact() {
    // With a surviving worker the loss costs one reassignment; with none it
    // drains the lane and the job fails over to the inline executor.
    let reassign = failover_probe(2, 0);
    let drain = failover_probe(1, 1);
    assert_eq!(reassign.workers_lost + drain.workers_lost, 2);
    assert_eq!(reassign.tasks_reassigned, 1);
    assert_eq!(drain.lane_failovers, 1);
}

/// FNV-1a (64-bit) over the image bytes, then the eigenvalues' bits.
fn fingerprint(output: &FusionOutput) -> u64 {
    let eigenvalue_bytes = output
        .eigenvalues
        .iter()
        .flat_map(|e| e.to_bits().to_le_bytes());
    output
        .image
        .raw()
        .iter()
        .copied()
        .chain(eigenvalue_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The paper's protocol through a threaded service: the four pinned rows
/// `pct::plan` computes in-thread — `(scene, slots, unique count,
/// fingerprint)` for `SceneConfig::small(5)` and the 48×48×24 end-to-end
/// scene — as one paper job over `2 · slots` shards on `slots` replica
/// groups and no other lane, at replication levels 1 and 2.  Replication is
/// transparent bit for bit.
#[test]
fn the_paper_rows_come_out_of_the_service_at_levels_1_and_2() {
    let small = cube(SceneConfig::small(5));
    let e2e = cube(scene(1, 48, 24));
    let rows = [
        (&small, 1, 108, 0x1e2a_8d0e_50f5_cea2),
        (&small, 3, 108, 0x6124_e2d4_a91b_5626),
        (&small, 4, 108, 0xec53_b25d_80b8_91f3),
        (&e2e, 3, 197, 0xfc01_55e6_8987_ff29),
    ];
    for (cube, slots, unique, hash) in rows {
        for level in [1, 2] {
            let service = FusionService::start(
                ServiceConfig::builder()
                    .standard_workers(0)
                    .replica_groups(slots)
                    .replication_level(level)
                    .shared_memory_executors(0)
                    .build()
                    .expect("config validates"),
            )
            .expect("service starts");
            let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(cube)))
                .pinned(BackendKind::Resilient)
                .protocol(Protocol::Paper)
                .shards(2 * slots)
                .build()
                .expect("valid spec");
            let outcome = service.submit(spec).expect("accepted").wait();
            let output = outcome.expect("terminal").output().cloned();
            let output = output.expect("the job completes");
            assert_eq!(
                (output.unique_count, fingerprint(&output)),
                (unique, hash),
                "{slots} slots, level {level}"
            );
            service.shutdown();
        }
    }
}

/// Twelve cube files — a 64×64×32 blocker, eight distinct 24×24×12 scenes,
/// then the first three again in another interleave — replayed through
/// `IngestPump` → `CubeStore` → a one-worker service with a watermark of the
/// blocker plus three small cubes in flight.  The blocker holds the single
/// in-flight slot for longer than the pump needs to replay the burst behind
/// it, so the watermark sheds the same eight cubes every time.
#[test]
fn ingest_replay_counters_are_exact() {
    const TENANT: TenantId = TenantId(9);
    let dir = std::env::temp_dir().join(format!("exact_rows_ingest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let small = |i: u64| scene(901 + i, 24, 12);
    let files = std::iter::once((scene(900, 64, 32), Interleave::Bip))
        .chain((0..8).map(|i| (small(i), Interleave::ALL[(i % 3) as usize])))
        .chain((0..3).map(|i| (small(i), Interleave::ALL[((i + 1) % 3) as usize])));
    for (i, (config, interleave)) in files.enumerate() {
        write_cube_as(
            &cube(config),
            interleave,
            dir.join(format!("{i:02}_cube.hsif")),
        )
        .expect("cube written");
    }

    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(1)
            .replica_groups(0)
            .shared_memory_executors(0)
            .queue_capacity(16)
            .max_in_flight(1)
            .build()
            .expect("config validates"),
    )
    .expect("service starts");
    let watermark =
        CubeDims::new(64, 64, 32).byte_size() + 3 * CubeDims::new(24, 24, 12).byte_size();
    let config = IngestConfig {
        shedding: SheddingPolicy::unbounded().with_max_in_flight_bytes(watermark),
        route: Route::Pinned(BackendKind::Standard),
        shards: 4,
        tenant: TENANT,
        ..IngestConfig::default()
    };
    let run = IngestPump::new(&service, config)
        .run(vec![Box::new(DirectorySource::with_chunk_bytes(
            &dir, 8192,
        ))])
        .expect("pump runs");
    let report = service.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let totals = run.report.totals();
    assert_eq!(totals.cubes_seen, 12);
    assert_eq!(totals.chunks, 205);
    assert_eq!(totals.cubes_shed(), 8);
    assert_eq!((totals.store_hits, totals.store_misses), (3, 9));
    assert_eq!(totals.bytes_assembled, 1656832);
    let tenant = report.tenants[&TENANT];
    assert_eq!(tenant.jobs_admitted, 4);
    assert_eq!(tenant.jobs_rejected, 0);
}
