//! `fusiond` under load: 64 concurrent fusion jobs — mixed priorities,
//! mixed routes (pinned standard/resilient and policy-routed `Auto`), one
//! mid-run worker kill on the resilient lane — all multiplexed over one
//! shared, sharded worker pool, with every output verified byte-identical
//! to the sequential reference.
//!
//! Run with: `cargo run --release --example fusion_service`

use hsi::{CubeDims, HyperCube, SceneConfig, SceneGenerator};
use pct::{PctConfig, SequentialPct};
use service::{
    BackendKind, CubeSource, FusionService, JobHandle, JobSpec, Priority, Route, ServiceConfig,
};
use std::sync::Arc;

const JOBS: u64 = 64;

fn scene(i: u64) -> SceneConfig {
    let mut config = SceneConfig::small(100 + i);
    let side = 24 + (i as usize % 5) * 4; // 24..40 pixels square
    let bands = 12 + (i as usize % 3) * 4; // 12..20 spectral bands
    config.dims = CubeDims::new(side, side, bands);
    config
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(4)
            .replica_groups(2)
            .replication_level(2)
            .shared_memory_executors(2)
            .queue_capacity(JOBS as usize)
            .max_in_flight(12)
            .build()?,
    )?;

    println!(
        "fusiond up: 4 standard workers + 2 replica groups x level 2 + 2 shm executors ({:?})",
        service.attack_targets()
    );

    // Submit 64 jobs: priorities cycle high/normal/low; every third job is
    // pinned to the resilient lane, every third to standard, and the rest
    // go through the size rule (`Auto`); shard counts vary per job.
    let mut jobs: Vec<(JobHandle, Arc<HyperCube>, &'static str, &'static str)> = Vec::new();
    let mut attacked = false;
    for i in 0..JOBS {
        let cube = Arc::new(SceneGenerator::new(scene(i))?.generate());
        let priority = Priority::ALL[i as usize % 3];
        let route = match i % 3 {
            1 => Route::Pinned(BackendKind::Resilient),
            2 => Route::Auto,
            _ => Route::Pinned(BackendKind::Standard),
        };
        let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
            .priority(priority)
            .route(route)
            .shards(3 + i as usize % 3)
            .build()?;
        let handle = service.submit(spec)?;
        jobs.push((handle, cube, priority.label(), route.label()));

        // Stage the attack once a batch of resilient work is in flight: kill
        // one member of replica group 0 while the service is busy.
        if i == JOBS / 4 && !attacked {
            attacked = service.inject_attack("rg0#0");
            println!("attack injected against rg0#0 (accepted: {attacked})");
        }
    }
    assert!(attacked, "the staged attack must have fired");
    println!(
        "{} jobs submitted (queue depth now {})",
        JOBS,
        service.queue_depth()
    );

    // Collect every outcome through its handle and verify it byte-for-byte
    // against the sequential reference — concurrency, sharding, routing,
    // replication and the attack must all be invisible in the results.
    let mut verified = 0;
    for (mut handle, cube, priority, route) in jobs {
        let id = handle.id();
        let outcome = handle.wait()?;
        let output = outcome.output().expect("job completes");
        let reference = SequentialPct::new(PctConfig::paper()).run(&cube)?;
        assert_eq!(
            output, &reference,
            "job {id} ({priority}/{route}) diverged from the sequential reference"
        );
        verified += 1;
    }
    println!("{verified}/{JOBS} outputs byte-identical to SequentialPct");

    let report = service.shutdown();
    assert_eq!(report.jobs_completed, JOBS);
    assert!(
        !report.members_attacked.is_empty(),
        "attack log must record the kill"
    );
    println!();
    print!("{}", report.render());
    Ok(())
}
