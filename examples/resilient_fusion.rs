//! Resilient fusion under attack: runs the paper's replicated manager/worker
//! protocol on the service's resilient lane while a chaos plan kills a group
//! member at the first screening dispatch, and shows that the output is
//! unaffected and the replication level is regenerated.
//!
//! Run with: `cargo run --example resilient_fusion --release`

use hsi::{CubeDims, HyperCube, SceneConfig, SceneGenerator};
use pct::FusionOutput;
use service::{
    BackendKind, ChaosPhase, ChaosPlan, CubeSource, FusionService, JobSpec, Protocol,
    ServiceConfig, ServiceReport,
};
use std::sync::Arc;

/// One job of the paper's protocol over four shards, on two replica groups
/// of `level` members and no other lane, under `chaos`.
fn fuse(cube: &Arc<HyperCube>, level: usize, chaos: ChaosPlan) -> (FusionOutput, ServiceReport) {
    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(0)
            .replica_groups(2)
            .replication_level(level)
            .shared_memory_executors(0)
            .chaos(chaos)
            .build()
            .expect("valid config"),
    )
    .expect("service starts");
    let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(cube)))
        .pinned(BackendKind::Resilient)
        .protocol(Protocol::Paper)
        .shards(4)
        .build()
        .expect("valid spec");
    let outcome = service.submit(spec).expect("accepted").wait();
    let output = outcome.expect("terminal").output().cloned();
    let output = output.expect("the job survives the attack");
    (output, service.shutdown())
}

fn main() {
    let mut config = SceneConfig::small(7);
    config.dims = CubeDims::new(64, 64, 32);
    let cube = Arc::new(SceneGenerator::new(config).expect("valid scene").generate());

    // Reference: the undisturbed run without replication (level 1).
    let (reference, _) = fuse(&cube, 1, ChaosPlan::none());

    // Level-2 replication while rg0#0 is killed as screening fans out.
    let kill = ChaosPlan::kill_at(1, ChaosPhase::Screen, "rg0#0");
    let (output, report) = fuse(&cube, 2, kill);

    println!("attacked members:      {:?}", report.members_attacked);
    println!("regenerations:         {}", report.regenerations);
    println!("duplicate results:     {}", report.duplicates_ignored);
    println!("tasks retransmitted:   {}", report.tasks_retransmitted);
    println!("heartbeats observed:   {}", report.heartbeats);

    let diff = reference
        .image
        .mean_abs_diff(&output.image)
        .expect("same image size");
    println!("output difference vs undisturbed run: {diff:.3} (should be ~0)");
}
