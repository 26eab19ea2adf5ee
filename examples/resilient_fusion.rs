//! Resilient fusion under attack: runs the replicated manager/worker pipeline
//! while an adversary kills a worker member mid-run, and shows that the
//! output is unaffected and the replication level is regenerated.
//!
//! Run with: `cargo run --example resilient_fusion --release`

use hsi::{CubeDims, SceneConfig, SceneGenerator};
use pct::resilient::{AttackPlan, ResilientPct};
use pct::PctConfig;

fn main() {
    let mut config = SceneConfig::small(7);
    config.dims = CubeDims::new(64, 64, 32);
    let cube = SceneGenerator::new(config).expect("valid scene").generate();

    // Reference: the undisturbed run without replication (level 1).
    let reference = ResilientPct::new(PctConfig::paper(), 2, 1)
        .run(&cube)
        .expect("unreplicated fusion");

    // Resilient run with level-2 replication while worker0#0 is killed.
    let (output, report) = ResilientPct::new(PctConfig::paper(), 2, 2)
        .run_with_attack(&cube, AttackPlan::kill_first_worker_member())
        .expect("resilient fusion survives the attack");

    println!("attacked members:      {:?}", report.members_attacked);
    println!("regenerations:         {}", report.regenerations.len());
    for regen in &report.regenerations {
        println!(
            "  {} was lost; regenerated as {} on node {}",
            regen.failed, regen.replacement, regen.node
        );
    }
    println!("duplicate results:     {}", report.duplicates_ignored);
    println!("tasks re-issued:       {}", report.tasks_reissued);
    println!("heartbeats observed:   {}", report.heartbeats);

    let diff = reference
        .image
        .mean_abs_diff(&output.image)
        .expect("same image size");
    println!("output difference vs undisturbed run: {diff:.3} (should be ~0)");
}
