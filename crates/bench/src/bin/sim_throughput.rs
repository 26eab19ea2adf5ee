//! Cluster-simulator throughput: how many seeded fault scenarios per
//! second the deterministic simulator sustains.
//!
//! The one line starting with `CSV`, `sim_scenarios_per_sec`, is parsed by
//! `bench/record.sh`; it is wall-clock and trend-only.  What the sweep
//! *finds* — 1000 / 1000 passed, the detection count, the virtual-time
//! latency quantiles — is a function of the fixed seed and is asserted by
//! `crates/sim/tests/sweep.rs`, not recorded.

use sim::Sweep;
use std::time::Instant;

fn main() {
    let sweep = Sweep::new(0xF05E, 1000);
    let started = Instant::now();
    let report = sweep.run().expect("every scenario converges");
    let wall = started.elapsed();

    println!(
        "cluster simulator: {} scenarios in {:.2} s wall",
        report.rows.len(),
        wall.as_secs_f64()
    );
    println!("{}", report.pass_table());
    println!(
        "CSV sim_scenarios_per_sec {:.0}",
        report.rows.len() as f64 / wall.as_secs_f64()
    );
}
