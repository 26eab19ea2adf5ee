//! Deterministic cluster-simulator sweep: 200 seeded scenarios over the
//! fusion service itself — its scheduler, admission governor and pool hosted
//! on virtual time — under member kills at every phase, double kills, kills
//! during regeneration and at shutdown, machine crashes, partitions, transit
//! loss, reorder jitter and stragglers, and under arrival bursts,
//! cancellations, timeouts and lane drains.  Every completed job is checked
//! byte-for-byte against the sequential pipeline, and the worst-case
//! scenario's span tree is printed for forensics.
//!
//! Run with: `cargo run --example cluster_sim --release` (optionally pass
//! a scenario count, e.g. `-- 100` for the CI smoke sweep).
//!
//! To reproduce any row, construct the same sweep (`Sweep::new(seed, n)`),
//! take the row's index from its `sNNNN-` name prefix, and run that
//! scenario alone under a `SimHarness` — same seed, same bytes.

use sim::Sweep;
use std::time::Instant;

fn main() {
    let seed = 0xC1A0;
    let count = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);
    println!("sweep seed {seed:#x}: {count} scenarios (family x pool x schedule)\n");

    let started = Instant::now();
    let report = Sweep::new(seed, count).run().expect("every scenario runs");
    let wall = started.elapsed();

    println!("{}", report.pass_table());
    println!(
        "{} / {} passed in {:.2} s wall ({:.0} scenarios/s)",
        report.passed(),
        report.rows.len(),
        wall.as_secs_f64(),
        report.rows.len() as f64 / wall.as_secs_f64()
    );
    if let (Some(p50), Some(p99)) = (
        report.detection_latency_quantile_ns(0.5),
        report.detection_latency_quantile_ns(0.99),
    ) {
        println!(
            "virtual detection latency: p50 {:.1} ms, p99 {:.1} ms",
            p50 as f64 / 1e6,
            p99 as f64 / 1e6
        );
    }
    for row in report.rows.iter().filter(|r| !r.passed()) {
        println!("FAILED {}: {:?}", row.name, row.violations);
    }

    if let Some(worst) = &report.worst {
        println!(
            "\nworst-case virtual makespan: {} at {:.1} ms (bound {:.1} ms)",
            worst.name,
            worst.makespan.as_secs_f64() * 1e3,
            worst.makespan_bound.as_secs_f64() * 1e3
        );
        println!(
            "  kills {} detections {} regenerations {} retransmits {}",
            worst.kills,
            worst.detections,
            worst.service.regenerations,
            worst.service.tasks_retransmitted
        );
        println!("\nworst-case span tree (virtual nanoseconds):");
        for line in worst.span_tree.lines() {
            println!("  {line}");
        }
    }

    if !report.all_passed() {
        eprintln!("sweep had failing scenarios");
        std::process::exit(1);
    }
}
