//! Cross-crate integration tests: the whole system from synthetic scene
//! generation through every fusion implementation, the resiliency protocols,
//! the streaming ingestion front door, and the figure-regeneration
//! simulations.

use hsi::{io, CubeDims, SceneConfig, SceneGenerator};
use ingest::{DirectorySource, IngestConfig, IngestPump, ShedReason, SheddingPolicy};
use pct::distributed_sim::{simulate_fusion, SimParams};
use pct::resilient::{AttackPlan, ResilientPct};
use pct::{PctConfig, SequentialPct, SharedMemoryPct};
use resilience::DetectorConfig;
use service::{
    BackendKind, ChaosPhase, ChaosPlan, CubeSource, FusionService, JobHandle, JobOutcome, JobSpec,
    JobStatus, LeastLoadedPolicy, PhaseKill, PoolConfig, Priority, RemoteWorkerSpec,
    RoundRobinPolicy, Route, ServiceConfig, ServiceError, ServiceEvent, SharedRoutingPolicy,
    SizeThresholdPolicy, TenantId, TenantQuota,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_scene(seed: u64) -> hsi::HyperCube {
    let mut config = SceneConfig::small(seed);
    config.dims = CubeDims::new(48, 48, 24);
    SceneGenerator::new(config).unwrap().generate()
}

#[test]
fn all_implementations_agree_on_the_fused_image() {
    let cube = test_scene(1);
    let sequential = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
    let shared = SharedMemoryPct::new(PctConfig::paper()).run(&cube).unwrap();
    let distributed = ResilientPct::new(PctConfig::paper(), 3, 1)
        .run(&cube)
        .unwrap();
    let resilient = ResilientPct::new(PctConfig::paper(), 3, 2)
        .run(&cube)
        .unwrap();

    for (name, other) in [
        ("shared-memory", &shared),
        ("distributed (level 1)", &distributed),
        ("resilient (level 2)", &resilient),
    ] {
        assert_eq!(other.pixels, sequential.pixels);
        let diff = sequential.image.mean_abs_diff(&other.image).unwrap();
        assert!(diff < 10.0, "{name} image diverges from sequential: {diff}");
        assert!(
            other.variance_fraction(3) > 0.9,
            "{name} lost variance compaction"
        );
    }
    // Levels 1 and 2 run the same plan over the same decomposition, so
    // replication is transparent bit-for-bit.
    assert_eq!(distributed, resilient);
}

#[test]
fn fused_composite_improves_contrast_over_single_bands() {
    // The qualitative claim behind Figure 3: the composite shows better
    // contrast than individual raw bands.
    let cube = test_scene(2);
    let fused = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();

    // Grey-scale contrast of the best single band.
    let mut best_band_contrast: f64 = 0.0;
    for band in 0..cube.bands() {
        let plane = cube.band_plane(band).unwrap();
        let gray = io::plane_to_gray(&plane);
        let mean = gray.iter().map(|&g| g as f64).sum::<f64>() / gray.len() as f64;
        let var = gray.iter().map(|&g| (g as f64 - mean).powi(2)).sum::<f64>() / gray.len() as f64;
        best_band_contrast = best_band_contrast.max(var.sqrt());
    }
    // The opponent colour mapping spreads the dynamic range over three
    // channels, so its luma contrast need not exceed a single min-max
    // stretched band; it must however stay in the same league and be far
    // from flat.
    assert!(
        fused.image.rms_contrast() > 0.2 * best_band_contrast,
        "fused contrast {} collapsed versus best band {}",
        fused.image.rms_contrast(),
        best_band_contrast
    );
    assert!(fused.image.rms_contrast() > 5.0);
}

#[test]
fn resilient_run_under_attack_matches_undisturbed_run() {
    // Kept modest so the whole run (two fusions) stays fast in debug builds;
    // the regeneration-specific assertions live in the pct unit tests.
    let cube = test_scene(3);

    let reference = ResilientPct::new(PctConfig::paper(), 2, 1)
        .run(&cube)
        .unwrap();
    let (attacked, report) = ResilientPct::new(PctConfig::paper(), 2, 2)
        .run_with_attack(&cube, AttackPlan::kill_first_worker_member())
        .unwrap();

    assert_eq!(report.members_attacked.len(), 1);
    let diff = reference.image.mean_abs_diff(&attacked.image).unwrap();
    assert!(diff < 0.5, "attacked run diverged: {diff}");
}

#[test]
fn figure4_shape_holds_end_to_end() {
    // Speed-up grows with processors and resiliency costs roughly the
    // replication factor — the two headline claims of the evaluation.
    let t1 = simulate_fusion(&SimParams::figure4(1, false))
        .unwrap()
        .elapsed_secs;
    let t8 = simulate_fusion(&SimParams::figure4(8, false))
        .unwrap()
        .elapsed_secs;
    let t8_res = simulate_fusion(&SimParams::figure4(8, true))
        .unwrap()
        .elapsed_secs;
    assert!(t1 / t8 > 6.0, "8-processor speed-up only {}", t1 / t8);
    let ratio = t8_res / t8;
    assert!((1.8..=2.6).contains(&ratio), "resiliency ratio {ratio}");
}

#[test]
fn figure5_shape_holds_end_to_end() {
    for procs in [4usize, 8] {
        let x1 = simulate_fusion(&SimParams::figure5(procs, 1))
            .unwrap()
            .elapsed_secs;
        let x2 = simulate_fusion(&SimParams::figure5(procs, 2))
            .unwrap()
            .elapsed_secs;
        assert!(
            x2 <= x1 * 1.001,
            "over-decomposition did not help at {procs} processors: x1={x1}, x2={x2}"
        );
    }
}

#[test]
fn cube_files_round_trip_through_disk() {
    let cube = test_scene(4);
    let dir = std::env::temp_dir();
    let cube_path = dir.join(format!("e2e_cube_{}.hsif", std::process::id()));
    let ppm_path = dir.join(format!("e2e_fused_{}.ppm", std::process::id()));

    io::write_cube_as(&cube, hsi::Interleave::Bip, &cube_path).unwrap();
    let (reloaded, interleave) = io::read_cube_file(&cube_path).unwrap();
    assert_eq!((&reloaded, interleave), (&cube, hsi::Interleave::Bip));

    let fused = SequentialPct::new(PctConfig::paper())
        .run(&reloaded)
        .unwrap();
    io::write_ppm(&fused.image, &ppm_path).unwrap();
    let reread = io::read_ppm(&ppm_path).unwrap();
    assert_eq!(fused.image, reread);

    std::fs::remove_file(cube_path).ok();
    std::fs::remove_file(ppm_path).ok();
}

/// A service sized small enough that scheduling pressure is real in tests.
fn test_service(queue_capacity: usize, max_in_flight: usize) -> FusionService {
    FusionService::start(
        ServiceConfig::builder()
            .pool(PoolConfig {
                standard_workers: 2,
                replica_groups: 2,
                replication_level: 2,
                shared_memory_executors: 1,
                ..PoolConfig::default()
            })
            .queue_capacity(queue_capacity)
            .max_in_flight(max_in_flight)
            .build()
            .expect("config validates"),
    )
    .expect("service starts")
}

fn small_job_scene(seed: u64) -> SceneConfig {
    let mut config = SceneConfig::small(seed);
    config.dims = CubeDims::new(20, 20, 10);
    config
}

/// A cube big enough that a debug-build screening task reliably outlives the
/// cancellation / backpressure assertions racing against it.
fn slow_job_scene(seed: u64) -> SceneConfig {
    let mut config = SceneConfig::small(seed);
    config.dims = CubeDims::new(64, 64, 32);
    config
}

fn wait_for_running(handle: &JobHandle) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.status().unwrap() == JobStatus::Queued {
        assert!(
            Instant::now() < deadline,
            "job {} never started running",
            handle.id()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn service_concurrent_jobs_are_byte_identical_to_sequential() {
    // A dozen concurrent jobs, mixed lanes and priorities, all multiplexed
    // over one shared pool — every output must match the sequential
    // reference exactly, which is the service's determinism contract.
    let service = test_service(16, 8);
    let mut jobs = Vec::new();
    for i in 0..12u64 {
        let cube = Arc::new(
            SceneGenerator::new(small_job_scene(60 + i))
                .unwrap()
                .generate(),
        );
        let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
            .pinned(BackendKind::ALL[i as usize % 3])
            .priority(Priority::ALL[i as usize % 3])
            .shards(2 + i as usize % 3)
            .build()
            .unwrap();
        jobs.push((service.submit(spec).unwrap(), cube));
    }
    for (mut handle, cube) in jobs {
        let outcome = handle.wait().unwrap();
        let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
        assert_eq!(
            outcome.output().expect("job completes"),
            &reference,
            "job {} diverged",
            handle.id()
        );
    }
    let report = service.shutdown();
    assert_eq!(report.jobs_completed, 12);
    assert_eq!(report.jobs_failed, 0);
    assert!(report.duplicates_ignored > 0, "replica lane never deduped");
    // The three in-process lanes the jobs were pinned across; the remote
    // lane is not configured here.
    for kind in [
        BackendKind::Standard,
        BackendKind::Resilient,
        BackendKind::SharedMemory,
    ] {
        assert_eq!(
            report.route(kind).jobs_completed,
            4,
            "{} lane lost jobs",
            kind.label()
        );
    }
}

#[test]
fn service_admission_queue_applies_backpressure() {
    // One job in flight, a queue of two: once the queue is full, try_submit
    // must reject with Saturated until the scheduler drains something.
    //
    // The three submissions below race the running job: were it to finish
    // first, the scheduler would admit a queued job and the third submission
    // would be accepted.  A 64x64 blocker runs for about 0.15 s in a debug
    // build, which a loaded two-core box has been seen to eat; four times the
    // pixels gives it the margin.  The form with no race is ROADMAP item 2's
    // sweep (admission and the scheduler on virtual time).
    let service = test_service(2, 1);
    let mut blocker = slow_job_scene(70);
    blocker.dims = CubeDims::new(128, 128, 32);
    let slow = JobSpec::builder(CubeSource::Synthetic(blocker))
        .pinned(BackendKind::Standard)
        .shards(1)
        .build()
        .unwrap();
    let mut running = service.submit(slow.clone()).unwrap();
    wait_for_running(&running);

    // The scheduler is saturated (max_in_flight=1), so these two fill the
    // queue deterministically...
    let queued_a = service.try_submit(slow.clone()).unwrap();
    let queued_b = service.try_submit(slow.clone()).unwrap();
    assert_eq!(service.queue_depth(), 2);
    // ...and the third submission bounces, carrying a typed retry hint.
    let err = service.try_submit(slow.clone()).unwrap_err();
    assert!(
        matches!(
            err,
            ServiceError::Saturated { retry_after } if retry_after.0 > Duration::ZERO
        ),
        "expected Saturated with a retry hint, got {err:?}"
    );

    // Cancel the queued work so shutdown only waits for the running job.
    assert!(queued_a.cancel());
    assert!(queued_b.cancel());
    assert!(matches!(running.wait(), Ok(JobOutcome::Completed(_))));
    drop(queued_a);
    drop(queued_b);
    let report = service.shutdown();
    assert_eq!(report.jobs_rejected, 1);
    assert_eq!(report.jobs_cancelled, 2);
    assert_eq!(report.queue_high_water, 2);
}

#[test]
fn service_cancellation_mid_flight_and_while_queued() {
    let service = test_service(8, 1);
    let mut running = service
        .submit(
            JobSpec::builder(CubeSource::Synthetic(slow_job_scene(71)))
                .pinned(BackendKind::Standard)
                .shards(2)
                .build()
                .unwrap(),
        )
        .unwrap();
    let mut queued = service
        .submit(
            JobSpec::builder(CubeSource::Synthetic(small_job_scene(72)))
                .build()
                .unwrap(),
        )
        .unwrap();
    wait_for_running(&running);

    // Cancel the queued job, then the in-flight job mid-screening.  In this
    // order: the slot a cancelled running job frees could admit *and finish*
    // a job this small before its own cancel landed.
    assert!(queued.cancel());
    assert!(running.cancel());
    assert_eq!(running.wait().unwrap(), JobOutcome::Cancelled);
    assert_eq!(queued.wait().unwrap(), JobOutcome::Cancelled);

    // The other order — the running job first, so the freed slot may admit
    // the job behind it before that one's cancel lands — with a queued job
    // slow enough to still be there, queued or running, when it does.
    let slow_job = |seed| {
        let scene = CubeSource::Synthetic(slow_job_scene(seed));
        let spec = JobSpec::builder(scene).pinned(BackendKind::Standard);
        service.submit(spec.shards(2).build().unwrap()).unwrap()
    };
    let (mut first, mut behind) = (slow_job(74), slow_job(79));
    wait_for_running(&first);
    assert!(first.cancel());
    assert!(behind.cancel());
    assert_eq!(first.wait().unwrap(), JobOutcome::Cancelled);
    assert_eq!(behind.wait().unwrap(), JobOutcome::Cancelled);
    // The record is consumed, but the handle still answers — the old
    // UnknownJob footgun is gone.
    assert_eq!(running.status().unwrap(), JobStatus::Cancelled);
    // A second wait is a typed error.
    assert_eq!(
        running.wait().unwrap_err(),
        ServiceError::OutcomeTaken(running.id())
    );

    // The pool survives cancellation: fresh work still completes correctly.
    let fresh_cube = Arc::new(SceneGenerator::new(small_job_scene(73)).unwrap().generate());
    let mut fresh = service
        .submit(
            JobSpec::builder(CubeSource::InMemory(Arc::clone(&fresh_cube)))
                .build()
                .unwrap(),
        )
        .unwrap();
    let outcome = fresh.wait().unwrap();
    let reference = SequentialPct::new(PctConfig::paper())
        .run(&fresh_cube)
        .unwrap();
    assert_eq!(outcome, JobOutcome::Completed(reference));
    let report = service.shutdown();
    assert_eq!(report.jobs_cancelled, 4);
    assert_eq!(report.jobs_completed, 1);
}

#[test]
fn service_handle_lifecycle_timeout_drop_detach_and_shutdown() {
    let service = test_service(8, 4);

    // wait_timeout on a job that is still running returns Ok(None) and the
    // outcome stays takeable.
    let mut slow = service
        .submit(
            JobSpec::builder(CubeSource::Synthetic(slow_job_scene(75)))
                .pinned(BackendKind::Standard)
                .shards(2)
                .build()
                .unwrap(),
        )
        .unwrap();
    assert_eq!(slow.wait_timeout(Duration::ZERO).unwrap(), None);
    assert!(matches!(slow.wait().unwrap(), JobOutcome::Completed(_)));

    // Cancel-on-drop: a dropped handle cancels its job...
    let dropped = service
        .submit(
            JobSpec::builder(CubeSource::Synthetic(slow_job_scene(76)))
                .pinned(BackendKind::Standard)
                .shards(2)
                .build()
                .unwrap(),
        )
        .unwrap();
    drop(dropped);

    // ...while detach() lets the job run fire-and-forget: the event stream
    // observes its completion without any handle or poll.
    let events = service.subscribe();
    let cube = Arc::new(SceneGenerator::new(small_job_scene(77)).unwrap().generate());
    let detached_id = service
        .submit(
            JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
                .build()
                .unwrap(),
        )
        .unwrap()
        .detach();
    let terminal = events
        .wait_for(
            Duration::from_secs(30),
            |e| matches!(e, ServiceEvent::Terminal { job, .. } if *job == detached_id),
        )
        .expect("detached job reaches a terminal state");
    assert_eq!(
        terminal,
        ServiceEvent::Terminal {
            job: detached_id,
            tenant: TenantId::default(),
            status: JobStatus::Completed
        }
    );

    // A handle outlives shutdown: it holds the results plane by Arc and
    // observes the final terminal state.
    let mut survivor = service
        .submit(
            JobSpec::builder(CubeSource::Synthetic(small_job_scene(78)))
                .build()
                .unwrap(),
        )
        .unwrap();
    let report = service.shutdown();
    assert!(matches!(survivor.wait().unwrap(), JobOutcome::Completed(_)));
    assert_eq!(survivor.status().unwrap(), JobStatus::Completed);
    // The dropped job either cancelled or raced to completion; it must be
    // accounted either way.
    assert_eq!(
        report.jobs_completed + report.jobs_cancelled,
        4,
        "dropped job unaccounted: {report:?}"
    );
}

#[test]
fn service_resilient_jobs_survive_member_kill() {
    // Kill a replica-group member while resilient jobs stream through the
    // pool: the member is regenerated and every output stays byte-identical.
    let service = test_service(16, 4);
    let mut jobs = Vec::new();
    for i in 0..6u64 {
        let cube = Arc::new(
            SceneGenerator::new(small_job_scene(80 + i))
                .unwrap()
                .generate(),
        );
        let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
            .pinned(BackendKind::Resilient)
            .shards(4)
            .build()
            .unwrap();
        jobs.push((service.submit(spec).unwrap(), cube));
        if i == 0 {
            assert!(service.inject_attack("rg0#0"));
        }
    }
    for (mut handle, cube) in jobs {
        let outcome = handle.wait().unwrap();
        let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
        assert_eq!(
            outcome.output().expect("job completes"),
            &reference,
            "job {} diverged after the attack",
            handle.id()
        );
    }
    let report = service.shutdown();
    assert_eq!(report.jobs_completed, 6);
    assert_eq!(report.members_attacked, vec!["rg0#0".to_string()]);
    assert!(
        report.regenerations >= 1,
        "killed member was never regenerated: {report:?}"
    );
}

#[test]
fn multi_tenant_chaos_fair_share_and_byte_identity_survive_member_kill() {
    // The admission-plane acceptance scenario: two tenants with a 4:1
    // weight ratio burst-submit onto a deliberately narrow service while a
    // chaos plan kills a replica-group member mid-run.  The starved
    // low-weight tenant must still complete every job, every output must
    // stay byte-identical to the sequential reference, and the shutdown
    // report must attribute the work per tenant.
    let heavy = TenantId(1);
    let light = TenantId(2);
    let service = FusionService::start(
        ServiceConfig::builder()
            .pool(PoolConfig {
                standard_workers: 2,
                replica_groups: 1,
                replication_level: 2,
                shared_memory_executors: 1,
                ..PoolConfig::default()
            })
            .queue_capacity(32)
            .max_in_flight(2)
            .tenant_quota(heavy, TenantQuota::weighted(4))
            .tenant_quota(light, TenantQuota::weighted(1))
            .chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "rg0#0"))
            .build()
            .unwrap(),
    )
    .unwrap();

    // Burst everything up front so the DRR queue is genuinely contended:
    // the heavy tenant's eight jobs arrive before the light tenant's two.
    let mut jobs = Vec::new();
    for i in 0..10u64 {
        let tenant = if i < 8 { heavy } else { light };
        let cube = Arc::new(
            SceneGenerator::new(small_job_scene(140 + i))
                .unwrap()
                .generate(),
        );
        let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
            .tenant(tenant)
            .pinned(BackendKind::ALL[i as usize % 3])
            .shards(2 + i as usize % 3)
            .build()
            .unwrap();
        jobs.push((service.submit(spec).unwrap(), cube));
    }
    for (mut handle, cube) in jobs {
        let outcome = handle.wait().unwrap();
        let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
        assert_eq!(
            outcome.output().expect("job completes"),
            &reference,
            "job {} diverged under multi-tenant chaos",
            handle.id()
        );
    }

    let report = service.shutdown();
    assert_eq!(report.jobs_completed, 10);
    assert_eq!(report.jobs_failed, 0);
    assert!(
        report.regenerations >= 1,
        "killed member was never regenerated: {report:?}"
    );
    let h = report.tenants[&heavy];
    assert_eq!((h.weight, h.jobs_admitted, h.jobs_completed), (4, 8, 8));
    assert_eq!((h.jobs_shed, h.jobs_rejected), (0, 0));
    let l = report.tenants[&light];
    assert_eq!((l.weight, l.jobs_admitted, l.jobs_completed), (1, 2, 2));
    assert_eq!((l.jobs_shed, l.jobs_rejected), (0, 0));
    let rendered = report.render();
    assert!(
        rendered.contains("tenant     t1 (w4)") && rendered.contains("tenant     t2 (w1)"),
        "per-tenant attribution missing from rendered report:\n{rendered}"
    );
}

/// The acceptance matrix of the routing redesign: every route — the three
/// lanes pinned, plus `Auto` under each shipped routing policy — produces
/// output **byte-identical** to `SequentialPct`, including one chaos kill
/// on the pinned resilient route.
#[test]
fn route_matrix_every_route_is_byte_identical_to_sequential() {
    let policies: Vec<(&str, Option<SharedRoutingPolicy>)> = vec![
        ("pinned-standard", None),
        ("pinned-resilient", None),
        ("pinned-shared-memory", None),
        (
            "auto-size-threshold",
            Some(Arc::new(SizeThresholdPolicy::default())),
        ),
        ("auto-least-loaded", Some(Arc::new(LeastLoadedPolicy))),
        (
            "auto-round-robin",
            Some(Arc::new(RoundRobinPolicy::default())),
        ),
    ];
    for (name, policy) in policies {
        let route = match name {
            "pinned-standard" => Route::Pinned(BackendKind::Standard),
            "pinned-resilient" => Route::Pinned(BackendKind::Resilient),
            "pinned-shared-memory" => Route::Pinned(BackendKind::SharedMemory),
            _ => Route::Auto,
        };
        let mut builder = ServiceConfig::builder()
            .standard_workers(2)
            .replica_groups(1)
            .replication_level(2)
            .shared_memory_executors(1)
            .queue_capacity(8)
            .max_in_flight(4);
        if let Some(policy) = policy {
            builder = builder.routing(policy);
        }
        // The resilient route additionally takes a chaos kill mid-screen.
        if route == Route::Pinned(BackendKind::Resilient) {
            builder = builder.chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "rg0#0"));
        }
        let service = FusionService::start(builder.build().unwrap()).unwrap();

        let mut jobs = Vec::new();
        for i in 0..3u64 {
            let cube = Arc::new(
                SceneGenerator::new(small_job_scene(110 + i))
                    .unwrap()
                    .generate(),
            );
            let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
                .route(route)
                .shards(3)
                .build()
                .unwrap();
            jobs.push((service.submit(spec).unwrap(), cube));
        }
        for (mut handle, cube) in jobs {
            let outcome = handle.wait().unwrap();
            let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
            assert_eq!(
                outcome
                    .output()
                    .unwrap_or_else(|| panic!("{name}: job failed: {outcome:?}")),
                &reference,
                "{name}: job {} diverged from sequential",
                handle.id()
            );
        }
        let report = service.shutdown();
        assert_eq!(report.jobs_completed, 3, "{name}: jobs lost");
        let routed: u64 = BackendKind::ALL
            .iter()
            .map(|kind| report.route(*kind).jobs_routed)
            .sum();
        assert_eq!(routed, 3, "{name}: route accounting off: {report:?}");
        if route == Route::Auto {
            let auto: u64 = BackendKind::ALL
                .iter()
                .map(|kind| report.route(*kind).auto_routed)
                .sum();
            assert_eq!(auto, 3, "{name}: policy decisions uncounted");
        }
        if route == Route::Pinned(BackendKind::Resilient) {
            assert_eq!(report.members_attacked, vec!["rg0#0".to_string()]);
            assert!(report.regenerations >= 1, "{name}: no regeneration");
        }
    }
}

/// The event-stream acceptance criterion: a subscriber observes the chaos
/// kill → regeneration → completion sequence during a chaos run without a
/// single `status()` poll.
#[test]
fn event_stream_observes_kill_regeneration_and_completion_without_polling() {
    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(1)
            .replica_groups(1)
            .replication_level(2)
            .shared_memory_executors(1)
            .chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "rg0#1"))
            .build()
            .unwrap(),
    )
    .unwrap();
    let events = service.subscribe();

    let cube = Arc::new(
        SceneGenerator::new(small_job_scene(120))
            .unwrap()
            .generate(),
    );
    let mut handle = service
        .submit(
            JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
                .pinned(BackendKind::Resilient)
                .shards(3)
                .build()
                .unwrap(),
        )
        .unwrap();
    let id = handle.id();

    let timeout = Duration::from_secs(30);
    let admitted = events
        .wait_for(
            timeout,
            |e| matches!(e, ServiceEvent::Admitted { job, .. } if *job == id),
        )
        .expect("admission event");
    assert_eq!(
        admitted,
        ServiceEvent::Admitted {
            job: id,
            tenant: TenantId::default(),
            route: BackendKind::Resilient,
            auto: false
        }
    );
    let killed = events
        .wait_for(timeout, |e| matches!(e, ServiceEvent::MemberKilled { .. }))
        .expect("kill event");
    assert_eq!(
        killed,
        ServiceEvent::MemberKilled {
            member: "rg0#1".into()
        }
    );
    let regenerated = events
        .wait_for(timeout, |e| {
            matches!(e, ServiceEvent::MemberRegenerated { .. })
        })
        .expect("regeneration event");
    assert!(matches!(
        regenerated,
        ServiceEvent::MemberRegenerated { ref failed, .. } if failed == "rg0#1"
    ));
    let terminal = events
        .wait_for(
            timeout,
            |e| matches!(e, ServiceEvent::Terminal { job, .. } if *job == id),
        )
        .expect("terminal event");
    assert_eq!(
        terminal,
        ServiceEvent::Terminal {
            job: id,
            tenant: TenantId::default(),
            status: JobStatus::Completed
        }
    );

    // Only now touch the results plane: the output survived the kill.
    let outcome = handle.wait().unwrap();
    let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
    assert_eq!(outcome.output().expect("job completed"), &reference);
    let report = service.shutdown();
    assert!(report.regenerations >= 1);
}

/// The seeded chaos matrix: every (member index × job phase) combination is
/// replayed as a deterministic kill over the resilient lane.  The kill is
/// anchored to a scheduler event (dispatch of the first task of that phase
/// of job 1), the workload is seeded scenes, and every surviving output
/// must stay **byte-identical** to the sequential reference — while the
/// zero-copy message plane reports 0 cloned payload bytes per phase.
#[test]
fn chaos_kill_matrix_every_surviving_output_is_byte_identical_to_sequential() {
    for member_index in 0..2usize {
        for phase in [
            ChaosPhase::Screen,
            ChaosPhase::Derive,
            ChaosPhase::Transform,
        ] {
            let victim = format!("rg0#{member_index}");
            let label = format!("kill {victim} at {}", phase.name());
            let service = FusionService::start(
                ServiceConfig::builder()
                    .standard_workers(1)
                    .replica_groups(1)
                    .replication_level(2)
                    .shared_memory_executors(1)
                    .queue_capacity(8)
                    .max_in_flight(4)
                    .chaos(ChaosPlan::kill_at(1, phase, victim.clone()))
                    .build()
                    .expect("config validates"),
            )
            .expect("service starts");

            let mut jobs = Vec::new();
            for i in 0..3u64 {
                let cube = Arc::new(
                    SceneGenerator::new(small_job_scene(90 + i))
                        .unwrap()
                        .generate(),
                );
                let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
                    .pinned(BackendKind::Resilient)
                    .shards(3)
                    .build()
                    .unwrap();
                jobs.push((service.submit(spec).unwrap(), cube));
            }
            for (mut handle, cube) in jobs {
                let outcome = handle.wait().unwrap();
                let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
                assert_eq!(
                    outcome.output().expect("job completes"),
                    &reference,
                    "{label}: job {} diverged",
                    handle.id()
                );
            }

            let report = service.shutdown();
            assert_eq!(report.jobs_completed, 3, "{label}: jobs lost");
            assert_eq!(
                report.members_attacked,
                vec![victim.clone()],
                "{label}: kill never fired"
            );
            assert!(
                report.regenerations >= 1,
                "{label}: killed member was never regenerated: {report:?}"
            );
            // The zero-copy acceptance criterion, measured per phase.
            assert_eq!(
                report.bytes_cloned_screen, 0,
                "{label}: screening cloned payload bytes"
            );
            assert_eq!(
                report.bytes_cloned_transform, 0,
                "{label}: transform cloned payload bytes"
            );
            assert!(
                report.payload_bytes_shipped > 0,
                "{label}: no payload accounted"
            );
        }
    }
}

/// A pool tuned for the standard-lane failover tests: the worker watchdog
/// confirms a suspect after ~30 ms of heartbeat silence (plus the mailbox
/// probe), so a kill is detected well inside the test window.
fn failover_pool(standard: usize, groups: usize, shm: usize) -> PoolConfig {
    PoolConfig {
        standard_workers: standard,
        replica_groups: groups,
        replication_level: 2,
        shared_memory_executors: shm,
        standard_detector: DetectorConfig {
            heartbeat_period_ms: 10,
            miss_threshold: 3,
        },
        ..PoolConfig::default()
    }
}

/// Submits `count` standard-pinned jobs and returns (handle, cube) pairs.
fn submit_standard_jobs(
    service: &FusionService,
    count: u64,
    seed_base: u64,
) -> Vec<(JobHandle, Arc<hsi::HyperCube>)> {
    (0..count)
        .map(|i| {
            let cube = Arc::new(
                SceneGenerator::new(small_job_scene(seed_base + i))
                    .unwrap()
                    .generate(),
            );
            let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
                .pinned(BackendKind::Standard)
                .shards(3)
                .build()
                .unwrap();
            (service.submit(spec).unwrap(), cube)
        })
        .collect()
}

/// Blocks until `count` [`ServiceEvent::WorkerLost`] events have appeared
/// on the subscription (the watchdog runs on its own clock, so the jobs
/// can finish before the loss is confirmed).
fn await_worker_losses(events: &service::EventSubscriber, count: usize, label: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut seen = 0usize;
    while seen < count {
        assert!(
            Instant::now() < deadline,
            "{label}: only {seen}/{count} worker losses observed"
        );
        if let Some(ServiceEvent::WorkerLost { .. }) =
            events.next_timeout(Duration::from_millis(100))
        {
            seen += 1;
        }
    }
}

/// The standard-lane kill matrix (worker index × phase): killing either
/// worker of a two-worker lane at any phase of job 1 must lose **zero**
/// jobs — the watchdog confirms the silence, the dead worker's in-flight
/// tasks are re-dispatched to the survivor, and every output stays
/// byte-identical to the sequential reference.
#[test]
fn standard_kill_matrix_every_job_survives_and_is_byte_identical_to_sequential() {
    let mut total_reassigned = 0u64;
    for worker_index in 0..2usize {
        for phase in [
            ChaosPhase::Screen,
            ChaosPhase::Derive,
            ChaosPhase::Transform,
        ] {
            let victim = format!("svc{worker_index}");
            let label = format!("kill {victim} at {}", phase.name());
            let service = FusionService::start(
                ServiceConfig::builder()
                    .pool(failover_pool(2, 0, 0))
                    .queue_capacity(8)
                    .max_in_flight(4)
                    .chaos(ChaosPlan::kill_at(1, phase, victim.clone()))
                    .build()
                    .expect("config validates"),
            )
            .expect("service starts");
            let events = service.subscribe();

            for (mut handle, cube) in submit_standard_jobs(&service, 3, 150) {
                let outcome = handle.wait().unwrap();
                let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
                assert_eq!(
                    outcome.output().expect("job completes"),
                    &reference,
                    "{label}: job {} diverged",
                    handle.id()
                );
            }
            await_worker_losses(&events, 1, &label);

            let report = service.shutdown();
            assert_eq!(report.jobs_completed, 3, "{label}: jobs lost");
            assert_eq!(report.jobs_failed, 0, "{label}: a job failed");
            assert_eq!(
                report.members_attacked,
                vec![victim.clone()],
                "{label}: kill never fired"
            );
            assert_eq!(report.workers_lost, 1, "{label}: loss not confirmed");
            total_reassigned += report.tasks_reassigned;
        }
    }
    // At least the (svc0, screen) cell is deterministic: job 1's first
    // screening task lands on svc0 (free-list order), the kill anchors to
    // that dispatch, and the task must be re-issued to svc1.
    assert!(
        total_reassigned >= 1,
        "no task was ever reassigned across the matrix"
    );
}

/// A single `NaN` sample reaches the covariance through the unique set.
/// The eigensolver used to spend all 64 sweeps on it (over a second of a
/// worker at 210 bands in release, half a minute in debug) and return `NaN`
/// eigenpairs that colour-mapped into an image; it now rejects the matrix
/// before the first sweep, the job fails with the typed cause, and the one
/// worker of the lane goes on serving.
#[test]
fn standard_nan_sample_fails_the_job_typed_and_the_lane_keeps_serving() {
    let service = FusionService::start(
        ServiceConfig::builder()
            .pool(failover_pool(1, 0, 0))
            .queue_capacity(4)
            .max_in_flight(1)
            .build()
            .expect("config validates"),
    )
    .expect("service starts");

    let mut scene = SceneConfig::small(140);
    scene.dims = CubeDims::new(32, 32, 210);
    let mut poisoned = SceneGenerator::new(scene).unwrap().generate();
    let mut pixel = poisoned.pixel(5, 9).unwrap().to_vec();
    pixel[100] = f64::NAN;
    poisoned.set_pixel(5, 9, &pixel).unwrap();
    let spec = JobSpec::builder(CubeSource::InMemory(Arc::new(poisoned)))
        .pinned(BackendKind::Standard)
        .shards(3)
        .build()
        .unwrap();
    let submitted = Instant::now();
    let outcome = service.submit(spec).unwrap().wait().unwrap();
    let took = submitted.elapsed();
    match outcome {
        JobOutcome::Failed(cause) => assert!(
            cause.contains("sorted_eigenpairs requires finite input"),
            "unexpected cause: {cause}"
        ),
        other => panic!("a NaN sample must fail the job, got {:?}", other.status()),
    }
    assert!(
        took < Duration::from_secs(5),
        "the NaN job held the worker for {took:?}"
    );

    for (mut handle, cube) in submit_standard_jobs(&service, 1, 141) {
        let outcome = handle.wait().unwrap();
        let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
        assert_eq!(outcome.output().expect("job completes"), &reference);
    }
    let report = service.shutdown();
    assert_eq!(report.jobs_failed, 1);
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.workers_lost, 0);
}

/// Kill-during-reassignment: both svc0 and svc1 die at job 1's first
/// screening dispatch, so the re-dispatch of svc0's task lands on (or is
/// attempted at) the also-dead svc1 and must hop again to svc2 — the
/// orphan queue survives losing its new assignee.
#[test]
fn standard_kill_during_reassignment_still_completes_byte_identical() {
    let chaos = ChaosPlan {
        kills: vec![
            PhaseKill {
                job: 1,
                phase: ChaosPhase::Screen,
                member: "svc0".to_string(),
            },
            PhaseKill {
                job: 1,
                phase: ChaosPhase::Screen,
                member: "svc1".to_string(),
            },
        ],
    };
    let service = FusionService::start(
        ServiceConfig::builder()
            .pool(failover_pool(3, 0, 0))
            .queue_capacity(8)
            .max_in_flight(4)
            .chaos(chaos)
            .build()
            .expect("config validates"),
    )
    .expect("service starts");
    let events = service.subscribe();

    for (mut handle, cube) in submit_standard_jobs(&service, 2, 170) {
        let outcome = handle.wait().unwrap();
        let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
        assert_eq!(
            outcome.output().expect("job completes"),
            &reference,
            "job {} diverged",
            handle.id()
        );
    }
    await_worker_losses(&events, 2, "double kill");

    let report = service.shutdown();
    assert_eq!(report.jobs_completed, 2);
    assert_eq!(report.jobs_failed, 0);
    assert_eq!(report.workers_lost, 2);
    assert!(
        report.tasks_reassigned >= 1,
        "the orphaned screening task was never re-issued: {report:?}"
    );
}

/// Losing the *last* standard worker drains the lane: running standard
/// jobs must fail over to a surviving lane through the routing policy
/// (resilient when only replica groups remain, shared-memory when only
/// inline executors remain) and still finish byte-identical — and when no
/// other lane exists, the job fails with a diagnosis instead of hanging.
#[test]
fn standard_lane_drain_fails_over_running_jobs_to_surviving_lanes() {
    for (groups, shm, expect_lane) in [
        (1usize, 0usize, BackendKind::Resilient),
        (0, 1, BackendKind::SharedMemory),
    ] {
        let label = format!("failover to {}", expect_lane.label());
        let service = FusionService::start(
            ServiceConfig::builder()
                .pool(failover_pool(1, groups, shm))
                .queue_capacity(8)
                .max_in_flight(4)
                .chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "svc0"))
                .build()
                .expect("config validates"),
        )
        .expect("service starts");
        let events = service.subscribe();

        let mut jobs = submit_standard_jobs(&service, 1, 180);
        let (handle, cube) = &mut jobs[0];
        let outcome = handle.wait().unwrap();
        let reference = SequentialPct::new(PctConfig::paper()).run(cube).unwrap();
        assert_eq!(
            outcome.output().expect("job completes"),
            &reference,
            "{label}: output diverged"
        );

        // The failover must have been announced with the expected target.
        let deadline = Instant::now() + Duration::from_secs(20);
        let observed = loop {
            assert!(Instant::now() < deadline, "{label}: no LaneFailover event");
            match events.next_timeout(Duration::from_millis(100)) {
                Some(ServiceEvent::LaneFailover { from, to, .. }) => {
                    assert_eq!(from, BackendKind::Standard, "{label}");
                    break to;
                }
                _ => continue,
            }
        };
        assert_eq!(observed, expect_lane, "{label}: wrong target lane");

        let report = service.shutdown();
        assert_eq!(report.jobs_completed, 1, "{label}: job lost");
        assert_eq!(report.jobs_failed, 0, "{label}: job failed");
        assert_eq!(report.workers_lost, 1, "{label}: loss not confirmed");
        assert_eq!(report.lane_failovers, 1, "{label}: failover not counted");
    }

    // No surviving lane at all: the job must fail with a diagnosis.
    let service = FusionService::start(
        ServiceConfig::builder()
            .pool(failover_pool(1, 0, 0))
            .queue_capacity(8)
            .max_in_flight(4)
            .chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "svc0"))
            .build()
            .expect("config validates"),
    )
    .expect("service starts");
    let mut jobs = submit_standard_jobs(&service, 1, 185);
    match jobs[0].0.wait().unwrap() {
        JobOutcome::Failed(cause) => assert!(
            cause.contains("standard lane drained"),
            "unexpected failure cause: {cause}"
        ),
        other => panic!("expected a failed job, got {:?}", other.status()),
    }
    let report = service.shutdown();
    assert_eq!(report.jobs_failed, 1);
    assert_eq!(report.workers_lost, 1);
}

/// A remote-worker spec that spawns the `fusiond-worker` binary built by
/// this workspace; the service appends its listener address as the final
/// argument.
fn spawn_worker_spec() -> RemoteWorkerSpec {
    RemoteWorkerSpec::Spawn {
        command: env!("CARGO_BIN_EXE_fusiond-worker").to_string(),
        args: Vec::new(),
    }
}

/// A pool whose only lane is remote worker *processes*, with the fast
/// watchdog from [`failover_pool`] so a killed process is confirmed lost
/// well inside the test window.
fn remote_pool(workers: usize) -> PoolConfig {
    PoolConfig {
        standard_workers: 0,
        replica_groups: 0,
        shared_memory_executors: 0,
        remote_workers: (0..workers).map(|_| spawn_worker_spec()).collect(),
        standard_detector: DetectorConfig {
            heartbeat_period_ms: 10,
            miss_threshold: 3,
        },
        ..PoolConfig::default()
    }
}

/// The wire-protocol acceptance criterion: a fusion job whose workers are
/// separate OS processes — spawned `fusiond-worker` binaries spoken to over
/// TCP with the versioned `wire` codec — produces output **byte-identical**
/// to `SequentialPct`.  The remote lane is the *only* lane configured, so
/// every task provably crossed the process boundary.
#[test]
fn remote_worker_processes_produce_byte_identical_output_over_tcp() {
    let service = FusionService::start(
        ServiceConfig::builder()
            .pool(remote_pool(2))
            .queue_capacity(8)
            .max_in_flight(4)
            .build()
            .expect("config validates"),
    )
    .expect("service starts");
    // Spawned workers are real child processes with observable pids.
    let workers = service.remote_workers().to_vec();
    assert_eq!(workers.len(), 2);
    for (name, pid) in &workers {
        assert!(
            pid.is_some(),
            "spawned worker {name} has no pid: {workers:?}"
        );
    }

    let mut jobs = Vec::new();
    for i in 0..3u64 {
        let cube = Arc::new(
            SceneGenerator::new(small_job_scene(200 + i))
                .unwrap()
                .generate(),
        );
        let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
            .pinned(BackendKind::Remote)
            .shards(3)
            .build()
            .unwrap();
        jobs.push((service.submit(spec).unwrap(), cube));
    }
    for (mut handle, cube) in jobs {
        let outcome = handle.wait().unwrap();
        let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
        assert_eq!(
            outcome.output().expect("job completes"),
            &reference,
            "job {} diverged from sequential across the process boundary",
            handle.id()
        );
    }

    let report = service.shutdown();
    assert_eq!(report.jobs_completed, 3);
    assert_eq!(report.jobs_failed, 0);
    assert_eq!(report.route(BackendKind::Remote).jobs_routed, 3);
}

/// The remote-lane chaos drill: `kill -9` one of two worker *processes*
/// mid-screen.  The process cannot flush, warn, or clean up — its socket
/// just dies — yet the bridge's exit surfaces through the same watchdog
/// that covers standard threads: the loss is confirmed, the in-flight task
/// is orphaned and re-dispatched to the surviving process, and the output
/// stays byte-identical to `SequentialPct` with zero job failures.
#[test]
fn remote_worker_sigkill_mid_screen_reassigns_tasks_and_stays_byte_identical() {
    let service = FusionService::start(
        ServiceConfig::builder()
            .pool(remote_pool(2))
            .queue_capacity(8)
            .max_in_flight(4)
            .build()
            .expect("config validates"),
    )
    .expect("service starts");
    let events = service.subscribe();

    // A slow cube so the first screening task is still running on rw0 when
    // the kill lands (free-deque order guarantees rw0 gets it).
    let cube = Arc::new(SceneGenerator::new(slow_job_scene(210)).unwrap().generate());
    let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
        .pinned(BackendKind::Remote)
        .shards(3)
        .build()
        .unwrap();
    let mut handle = service.submit(spec).unwrap();

    // Wait for the first remote dispatch, then SIGKILL the worker process
    // it went to.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(Instant::now() < deadline, "no remote dispatch observed");
        match events.next_timeout(Duration::from_millis(100)) {
            Some(ServiceEvent::Dispatched {
                route: BackendKind::Remote,
                ..
            }) => break,
            _ => continue,
        }
    }
    let victim_pid = service
        .remote_workers()
        .iter()
        .find(|(name, _)| name == "rw0")
        .and_then(|(_, pid)| *pid)
        .expect("rw0 has a pid");
    let killed = std::process::Command::new("kill")
        .args(["-9", &victim_pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success(), "kill -9 {victim_pid} failed");

    let outcome = handle.wait().unwrap();
    let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
    assert_eq!(
        outcome.output().expect("job completes"),
        &reference,
        "output diverged after SIGKILL of a worker process"
    );
    await_worker_losses(&events, 1, "remote sigkill");

    let report = service.shutdown();
    assert_eq!(report.jobs_completed, 1, "job lost: {report:?}");
    assert_eq!(report.jobs_failed, 0, "job failed: {report:?}");
    assert_eq!(report.workers_lost, 1, "loss not confirmed: {report:?}");
    assert!(
        report.tasks_reassigned >= 1,
        "the killed worker's task was never re-dispatched: {report:?}"
    );
}

/// The ingest-under-pressure chaos scenario: a folder of cube files is
/// replayed into a deliberately tiny resilient-lane service while a chaos
/// plan kills a replica mid-screen of the first (big) arrival.  The burst
/// behind the blocker overruns the in-flight-bytes watermark, so shedding
/// kicks in **deterministically** (the blocker occupies the only in-flight
/// slot for far longer than the microseconds the pump needs to process the
/// burst, and queued jobs cannot reach a terminal state behind it) — and
/// every *admitted* cube still fuses byte-identical to `SequentialPct`,
/// kill, regeneration and shedding notwithstanding.
#[test]
fn ingest_under_pressure_sheds_deterministically_and_admitted_cubes_fuse_exactly() {
    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(0)
            .replica_groups(1)
            .replication_level(2)
            .shared_memory_executors(0)
            .queue_capacity(16)
            .max_in_flight(1)
            .chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "rg0#0"))
            .build()
            .expect("config validates"),
    )
    .expect("service starts");

    // The arrival schedule on disk: one big blocker, then a burst of five
    // small cubes in mixed interleaves (sorted replay order).
    let dir = std::env::temp_dir().join(format!("e2e_ingest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = slow_job_scene(130);
    let small = small_job_scene(131);
    let blocker_bytes = blocker.dims.byte_size();
    let small_bytes = small.dims.byte_size();
    let mut total_payload = 0u64;
    for (i, config) in std::iter::once(blocker)
        .chain((0..5).map(|i| small_job_scene(140 + i)))
        .enumerate()
    {
        let cube = SceneGenerator::new(config).unwrap().generate();
        total_payload += cube.byte_size() as u64;
        let name = if i == 0 {
            "00_blocker.hsif".to_string()
        } else {
            format!("{i:02}_burst.hsif")
        };
        io::write_cube_as(&cube, hsi::Interleave::ALL[i % 3], dir.join(name)).unwrap();
    }

    // Watermark: the blocker plus exactly two burst cubes may be in flight.
    let config = IngestConfig {
        shedding: SheddingPolicy::unbounded()
            .with_max_in_flight_bytes(blocker_bytes + 2 * small_bytes),
        route: Route::Pinned(BackendKind::Resilient),
        shards: 3,
        ..IngestConfig::default()
    };
    let run = IngestPump::new(&service, config)
        .run(vec![Box::new(DirectorySource::with_chunk_bytes(
            &dir, 8192,
        ))])
        .expect("pump runs");
    std::fs::remove_dir_all(&dir).ok();
    let report = service.shutdown();

    // Shedding was deterministic: the tail of the burst, in arrival order.
    let totals = run.report.totals();
    assert_eq!(totals.cubes_seen, 6);
    assert_eq!(totals.cubes_admitted, 3, "blocker + two burst cubes");
    assert_eq!(totals.shed_in_flight_bytes, 3);
    assert_eq!(totals.cubes_shed(), 3);
    assert_eq!(
        run.shed.iter().map(|s| s.tag.as_str()).collect::<Vec<_>>(),
        vec!["03_burst.hsif", "04_burst.hsif", "05_burst.hsif"]
    );
    assert!(run
        .shed
        .iter()
        .all(|s| s.reason == ShedReason::InFlightBytes));
    assert_eq!(
        totals.bytes_assembled, total_payload,
        "shed cubes decode too"
    );
    assert_eq!(totals.decode_errors, 0);

    // The chaos kill fired and the member was regenerated mid-ingest.
    assert_eq!(report.members_attacked, vec!["rg0#0".to_string()]);
    assert!(report.regenerations >= 1, "killed member never regenerated");

    // Every admitted cube fused byte-identical to the sequential reference.
    assert_eq!(run.report.jobs_completed, 3);
    for job in &run.jobs {
        let reference = SequentialPct::new(PctConfig::paper())
            .run(&job.cube)
            .unwrap();
        assert_eq!(
            job.outcome.output().expect("job completes"),
            &reference,
            "{} diverged under pressure + chaos",
            job.tag
        );
    }
}

#[test]
fn screening_threshold_trades_unique_set_size_for_work() {
    let cube = test_scene(5);
    let tight = SequentialPct::new(PctConfig {
        screening_angle_rad: 1.0_f64.to_radians(),
        output_components: 3,
    })
    .run(&cube)
    .unwrap();
    let loose = SequentialPct::new(PctConfig {
        screening_angle_rad: 15.0_f64.to_radians(),
        output_components: 3,
    })
    .run(&cube)
    .unwrap();
    assert!(tight.unique_count > loose.unique_count);
    // Both still compact the variance into the leading components.
    assert!(tight.variance_fraction(3) > 0.9);
    assert!(loose.variance_fraction(3) > 0.9);
}

/// A unique set of two vectors has one principal component; the second and
/// third eigenvalues are the eigensolver's rounding and must not be stretched
/// into colour.  With components two and three flat (128) every pixel is
/// `128 + (0.4387, 0.4972, 0.1355) * t` for one `t`, rounded per channel.
#[test]
fn rank_two_unique_set_leaves_second_and_third_components_flat() {
    // `ingest_replay`'s shape: 45 degree screening of a 64x64x32 scene.
    let cube = Arc::new(SceneGenerator::new(slow_job_scene(150)).unwrap().generate());
    let config = PctConfig {
        screening_angle_rad: 45.0_f64.to_radians(),
        ..PctConfig::paper()
    };
    let service = test_service(4, 2);
    let mut handle = service
        .submit(
            JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
                .config(config)
                .pinned(BackendKind::Standard)
                .shards(3)
                .build()
                .unwrap(),
        )
        .unwrap();
    let outcome = handle.wait().unwrap();
    let output = outcome.output().expect("job completes");
    assert_eq!(output, &SequentialPct::new(config).run(&cube).unwrap());
    assert_eq!(output.unique_count, 2);
    assert!(output.eigenvalues[1].abs() < 1e-9 * output.eigenvalues[0]);
    let mut levels = std::collections::BTreeSet::new();
    for y in 0..output.image.height() {
        for x in 0..output.image.width() {
            let [r, g, b] = output
                .image
                .get(x, y)
                .unwrap()
                .map(|c| f64::from(c) - 128.0);
            assert!(
                (r - 0.4387 / 0.4972 * g).abs() <= 1.0,
                "({x}, {y}): red {r}, green {g}"
            );
            assert!(
                (b - 0.1355 / 0.4972 * g).abs() <= 1.0,
                "({x}, {y}): blue {b}, green {g}"
            );
            levels.insert(g as i64);
        }
    }
    assert!(levels.len() > 8, "the first component still varies");
    service.shutdown();
}

/// The telemetry acceptance criterion: a chaos run with the flight recorder
/// on yields a span tree in which detection, regeneration and recompute all
/// nest inside the affected job's lifetime with intact parent links and
/// causal ordering — while the output stays byte-identical to the
/// sequential reference — and the Chrome-trace JSON artifact written from
/// the recorder renders the whole story.
#[test]
fn chaos_trace_nests_detect_regenerate_recompute_under_the_affected_job() {
    let telemetry = telemetry::Telemetry::enabled();
    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(1)
            .replica_groups(1)
            .replication_level(2)
            .shared_memory_executors(0)
            .chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "rg0#1"))
            .telemetry(telemetry.clone())
            .build()
            .unwrap(),
    )
    .unwrap();
    let events = service.subscribe();

    // The killed member still computes the link it was handed and exits
    // after it; the loss is detected by the first send to its group that
    // finds the mailbox gone.  For that send to belong to this job's
    // screening phase, which the span assertions below require, the phase
    // has to outlast the member's exit: eight links of a 64x64 cube leave it
    // seven links' worth of time, where three links of a 20x20 cube left a
    // millisecond (and were seen to lose on a loaded two-core box).
    let cube = Arc::new(SceneGenerator::new(slow_job_scene(140)).unwrap().generate());
    let mut handle = service
        .submit(
            JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
                .pinned(BackendKind::Resilient)
                .shards(8)
                .build()
                .unwrap(),
        )
        .unwrap();
    let id = handle.id();
    let outcome = handle.wait().unwrap();
    // The regeneration is on the event stream before the report is closed:
    // no hoping that detection beat completion.
    events
        .wait_for(
            Duration::from_secs(30),
            |e| matches!(e, ServiceEvent::MemberRegenerated { failed, .. } if failed == "rg0#1"),
        )
        .expect("the killed member is regenerated");

    // Byte-identity survives the kill: telemetry observes, never perturbs.
    let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
    assert_eq!(
        outcome.output().expect("job completed"),
        &reference,
        "chaos run diverged from sequential"
    );
    let report = service.shutdown();
    assert!(report.regenerations >= 1, "kill never regenerated");

    // The span tree, as the flight recorder kept it.
    let spans = telemetry.spans();
    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name && s.job == Some(id))
            .unwrap_or_else(|| {
                panic!(
                    "no {name} span for job {id}; recorded: {:?}",
                    spans.iter().map(|s| s.name).collect::<Vec<_>>()
                )
            })
    };
    let job = find("job");
    let queued = find("queued");
    let screen = find("screen");
    let detect = find("detect");
    let regenerate = find("regenerate");
    let recompute = find("recompute");

    // Parent links: queued and the first phase hang off the job root; the
    // resilience spans are parented into the tree (at the attacked phase).
    assert_eq!(job.parent, None, "job root must be unparented");
    assert_eq!(queued.parent, Some(job.id));
    assert_eq!(screen.parent, Some(job.id));
    assert_eq!(
        detect.parent,
        Some(screen.id),
        "detect hangs off the attacked phase"
    );
    for (name, span) in [("regenerate", regenerate), ("recompute", recompute)] {
        assert!(span.parent.is_some(), "{name} span unparented");
    }

    // Nesting: everything lies inside the job's lifetime, and the terminal
    // detail on the root records the outcome.
    for (name, span) in [
        ("queued", queued),
        ("screen", screen),
        ("detect", detect),
        ("regenerate", regenerate),
        ("recompute", recompute),
    ] {
        assert!(
            job.encloses(span),
            "{name} span [{}, {}] escapes job [{}, {}]",
            span.start_nanos,
            span.end_nanos,
            job.start_nanos,
            job.end_nanos
        );
    }
    assert_eq!(job.detail, "completed");

    // Causal order: the kill is detected before the member is regenerated,
    // and lost work is recomputed only after regeneration begins.  The
    // detect span is back-dated to the kill instant, so it starts at or
    // before the regeneration that reacts to it.
    assert!(detect.start_nanos <= regenerate.start_nanos);
    assert!(detect.end_nanos <= regenerate.end_nanos);
    assert!(regenerate.start_nanos <= recompute.start_nanos);

    // The Chrome-trace artifact: written where CI can pick it up, and it
    // renders the resilience story (span + instant names survive export).
    let trace = telemetry.chrome_trace().expect("enabled telemetry");
    let path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos_trace.json");
    std::fs::write(&path, &trace).expect("trace artifact written");
    let written = std::fs::read_to_string(&path).unwrap();
    assert!(written.contains("\"traceEvents\""));
    for name in [
        "\"job\"",
        "\"screen\"",
        "\"detect\"",
        "\"regenerate\"",
        "\"recompute\"",
        "\"kill\"",
    ] {
        assert!(
            written.contains(name),
            "trace artifact missing {name} events"
        );
    }
}
