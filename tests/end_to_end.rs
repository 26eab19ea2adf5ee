//! Cross-crate integration tests: the whole system from synthetic scene
//! generation through every fusion implementation, the resiliency protocols,
//! and the streaming ingestion front door.

use hsi::{io, CubeDims, SceneConfig, SceneGenerator};
use ingest::{
    CubeSource as _, DirectorySource, IngestConfig, IngestPump, ShedReason, SheddingPolicy,
    SourceEvent, StreamDecoder,
};
use pct::plan::Plan;
use pct::{FusionOutput, PctConfig, SequentialPct};
use resilience::DetectorConfig;
use service::{
    BackendKind, ChaosPhase, ChaosPlan, CubeSource, FusionService, JobHandle, JobOutcome, JobSpec,
    JobStatus, PoolConfig, Priority, Protocol, RemoteWorkerSpec, Route, ServiceConfig,
    ServiceEvent, TenantId,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_scene(seed: u64) -> hsi::HyperCube {
    let mut config = SceneConfig::small(seed);
    config.dims = CubeDims::new(48, 48, 24);
    SceneGenerator::new(config).unwrap().generate()
}

/// One job of the paper's protocol over `2 · groups` shards, on a service
/// of `groups` replica groups of `level` members and no other lane.
fn paper_job(cube: &hsi::HyperCube, groups: usize, level: usize) -> FusionOutput {
    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(0)
            .replica_groups(groups)
            .replication_level(level)
            .shared_memory_executors(0)
            .build()
            .unwrap(),
    )
    .unwrap();
    let spec = JobSpec::builder(CubeSource::InMemory(Arc::new(cube.clone())))
        .pinned(BackendKind::Resilient)
        .protocol(Protocol::Paper)
        .shards(2 * groups)
        .build()
        .unwrap();
    let outcome = service.submit(spec).unwrap().wait().unwrap();
    service.shutdown();
    outcome.output().cloned().expect("the job completes")
}

#[test]
fn all_implementations_agree_on_the_fused_image() {
    let cube = test_scene(1);
    let sequential = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
    let shards = hsi::partition::partition_rows(cube.dims(), 8).unwrap();
    let shared = Plan::new(
        Protocol::Paper,
        Arc::new(cube.clone()),
        PctConfig::paper(),
        shards,
    )
    .run_in_process()
    .unwrap();
    let [distributed, resilient] = [1, 2].map(|level| paper_job(&cube, 3, level));

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
    // The shared-memory run over eight shards is the paper's protocol over
    // the partition of a four-group service.
    assert_eq!(shared, paper_job(&cube, 4, 1));
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
fn cube_files_round_trip_through_disk() {
    let cube = test_scene(4);
    let dir = std::env::temp_dir().join(format!("e2e_cube_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ppm_path = dir.join("fused.ppm");

    // Written by the one encoder, read back by the one decoder.
    io::write_cube_as(&cube, hsi::Interleave::Bip, dir.join("scene.hsif")).unwrap();
    let mut source = DirectorySource::new(&dir);
    let Some(Ok(SourceEvent::Begin { header, .. })) = source.next_event() else {
        panic!("the cube file begins a cube");
    };
    assert_eq!(header.interleave, hsi::Interleave::Bip);
    let mut decoder = StreamDecoder::new(header);
    while let Some(Ok(SourceEvent::Chunk(bytes))) = source.next_event() {
        decoder.push(&bytes).unwrap();
    }
    let reloaded = decoder.finish().unwrap();
    assert_eq!(*reloaded, cube);

    let fused = SequentialPct::new(PctConfig::paper())
        .run(&reloaded)
        .unwrap();
    io::write_ppm(&fused.image, &ppm_path).unwrap();
    let reread = io::read_ppm(&ppm_path).unwrap();
    assert_eq!(fused.image, reread);
    std::fs::remove_dir_all(dir).ok();
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

/// A cube big enough that a debug-build screening task reliably outlives
/// the kill or the burst racing against it.
fn slow_job_scene(seed: u64) -> SceneConfig {
    let mut config = SceneConfig::small(seed);
    config.dims = CubeDims::new(64, 64, 32);
    config
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

/// The acceptance matrix of routing: every route — the three lanes pinned,
/// plus `Auto` under the size rule — produces output **byte-identical** to
/// `SequentialPct`, including one chaos kill on the pinned resilient route.
#[test]
fn route_matrix_every_route_is_byte_identical_to_sequential() {
    let routes = [
        ("pinned-standard", Route::Pinned(BackendKind::Standard)),
        ("pinned-resilient", Route::Pinned(BackendKind::Resilient)),
        (
            "pinned-shared-memory",
            Route::Pinned(BackendKind::SharedMemory),
        ),
        ("auto-size-threshold", Route::Auto),
    ];
    for (name, route) in routes {
        let mut builder = ServiceConfig::builder()
            .standard_workers(2)
            .replica_groups(1)
            .replication_level(2)
            .shared_memory_executors(1)
            .queue_capacity(8)
            .max_in_flight(4);
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
            assert_eq!(auto, 3, "{name}: size-rule decisions uncounted");
        }
        if route == Route::Pinned(BackendKind::Resilient) {
            assert_eq!(report.members_attacked, vec!["rg0#0".to_string()]);
            assert!(report.regenerations >= 1, "{name}: no regeneration");
        }
    }
}

/// The event-stream acceptance criterion: a subscriber observes the chaos
/// kill, the regeneration and the completion during a chaos run without a
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

    // Collect the stream until the regeneration and the job's terminal event
    // have both arrived: a level-2 group can finish the job before the
    // killed member's loss is confirmed, so those two come in either order.
    let is_regenerated = |e: &ServiceEvent| matches!(e, ServiceEvent::MemberRegenerated { .. });
    let is_terminal =
        |e: &ServiceEvent| matches!(e, ServiceEvent::Terminal { job, .. } if *job == id);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut seen = Vec::new();
    while !(seen.iter().any(is_regenerated) && seen.iter().any(is_terminal)) {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match events.next_timeout(remaining) {
            Some(event) => seen.push(event),
            None => panic!("timed out; events so far: {seen:?}"),
        }
    }
    seen.extend(events.drain());
    // Each event exactly once, and where it sits in the stream.
    let once = |what: &str, is: &dyn Fn(&ServiceEvent) -> bool| {
        let at: Vec<usize> = (0..seen.len()).filter(|&i| is(&seen[i])).collect();
        assert_eq!(at.len(), 1, "{what} not seen exactly once in {seen:?}");
        (at[0], &seen[at[0]])
    };
    let (admitted_at, admitted) = once(
        "admission",
        &|e| matches!(e, ServiceEvent::Admitted { job, .. } if *job == id),
    );
    assert_eq!(
        admitted,
        &ServiceEvent::Admitted {
            job: id,
            tenant: TenantId::default(),
            route: BackendKind::Resilient,
            auto: false
        }
    );
    let (killed_at, killed) = once("kill", &|e| matches!(e, ServiceEvent::MemberKilled { .. }));
    assert_eq!(
        killed,
        &ServiceEvent::MemberKilled {
            member: "rg0#1".into()
        }
    );
    let (regenerated_at, regenerated) = once("regeneration", &is_regenerated);
    assert!(matches!(
        regenerated,
        ServiceEvent::MemberRegenerated { failed, .. } if failed == "rg0#1"
    ));
    let (_, terminal) = once("terminal", &is_terminal);
    assert_eq!(
        terminal,
        &ServiceEvent::Terminal {
            job: id,
            tenant: TenantId::default(),
            status: JobStatus::Completed,
            route: Some(BackendKind::Resilient),
        }
    );
    // The orders the scheduler guarantees; the terminal event may come
    // before or after the regeneration.
    assert!(admitted_at < killed_at, "{seen:?}");
    assert!(killed_at < regenerated_at, "{seen:?}");

    // Only now touch the results plane: the output survived the kill.
    let outcome = handle.wait().unwrap();
    let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
    assert_eq!(outcome.output().expect("job completed"), &reference);
    let report = service.shutdown();
    assert!(report.regenerations >= 1);
}

/// A pool tuned for the standard-lane failover tests: the worker watchdog
/// confirms a suspect after ~30 ms of heartbeat silence (plus the mailbox
/// probe), so a kill is detected well inside the test window.
fn failover_pool(standard: usize, shm: usize) -> PoolConfig {
    PoolConfig {
        standard_workers: standard,
        replica_groups: 0,
        replication_level: 2,
        shared_memory_executors: shm,
        detector: DetectorConfig {
            heartbeat_period_ms: 10,
            miss_threshold: 3,
        },
        ..PoolConfig::default()
    }
}

/// Submits a standard-pinned job and returns its handle and cube.
fn submit_standard_job(service: &FusionService, seed: u64) -> (JobHandle, Arc<hsi::HyperCube>) {
    let cube = Arc::new(
        SceneGenerator::new(small_job_scene(seed))
            .unwrap()
            .generate(),
    );
    let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
        .pinned(BackendKind::Standard)
        .shards(3)
        .build()
        .unwrap();
    (service.submit(spec).unwrap(), cube)
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
            .pool(failover_pool(1, 0))
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
            cause.contains("leading_eigenpairs requires finite input"),
            "unexpected cause: {cause}"
        ),
        other => panic!("a NaN sample must fail the job, got {:?}", other.status()),
    }
    assert!(
        took < Duration::from_secs(5),
        "the NaN job held the worker for {took:?}"
    );

    let (mut handle, cube) = submit_standard_job(&service, 141);
    let outcome = handle.wait().unwrap();
    let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
    assert_eq!(outcome.output().expect("job completes"), &reference);
    let report = service.shutdown();
    assert_eq!(report.jobs_failed, 1);
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.workers_lost, 0);
}

/// Losing the *last* standard worker drains the lane: a running standard
/// job must fail over to a surviving lane through the size rule — here
/// the shared-memory lane, which recomputes it whole — and still finish
/// byte-identical; when no other lane exists, the job fails with a
/// diagnosis instead of hanging.  (Failover to replica groups, which
/// re-run the orphaned tasks, is the simulator sweep's `drain` family.)
#[test]
fn standard_lane_drain_fails_over_running_jobs_to_surviving_lanes() {
    let service = FusionService::start(
        ServiceConfig::builder()
            .pool(failover_pool(1, 1))
            .queue_capacity(8)
            .max_in_flight(4)
            .chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "svc0#0"))
            .build()
            .expect("config validates"),
    )
    .expect("service starts");
    let events = service.subscribe();

    let (mut handle, cube) = submit_standard_job(&service, 180);
    let outcome = handle.wait().unwrap();
    let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
    assert_eq!(outcome.output().expect("job completes"), &reference);

    // The failover must have been announced with the expected target.
    let failover = |e: &ServiceEvent| matches!(e, ServiceEvent::LaneFailover { .. });
    let announced = events.wait_for(Duration::from_secs(20), failover);
    assert!(
        matches!(
            announced,
            Some(ServiceEvent::LaneFailover {
                from: BackendKind::Standard,
                to: BackendKind::SharedMemory,
                ..
            })
        ),
        "{announced:?}"
    );

    let report = service.shutdown();
    assert_eq!(report.jobs_completed, 1, "job lost");
    assert_eq!(report.jobs_failed, 0, "job failed");
    assert_eq!(report.workers_lost, 1, "loss not confirmed");
    assert_eq!(report.lane_failovers, 1, "failover not counted");

    // No surviving lane at all: the job must fail with a diagnosis.
    let service = FusionService::start(
        ServiceConfig::builder()
            .pool(failover_pool(1, 0))
            .queue_capacity(8)
            .max_in_flight(4)
            .chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "svc0#0"))
            .build()
            .expect("config validates"),
    )
    .expect("service starts");
    match submit_standard_job(&service, 185).0.wait().unwrap() {
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
        detector: DetectorConfig {
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
    // The watchdog runs on its own clock: the job can finish first.
    let lost = |e: &ServiceEvent| matches!(e, ServiceEvent::WorkerLost { .. });
    let confirmed = events.wait_for(Duration::from_secs(20), lost);
    assert!(
        confirmed.is_some(),
        "remote sigkill: the loss was never confirmed"
    );

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
        "\"member_killed\"",
    ] {
        assert!(
            written.contains(name),
            "trace artifact missing {name} events"
        );
    }
}
