//! Measures the configuration of the paper's shared-memory claim (§4): "On
//! a shared memory system, the concurrent algorithm presented here operates
//! within 5% of linear speedup" because no communication is involved.  The
//! claim is not reproduced: on a 2-core machine 2 threads run little or no
//! faster than 1, because one shard (the river rows) holds most of step 1's
//! work and the rayon pool batches statically.
//!
//! Runs the paper's protocol in process (`Plan::run_in_process`, each
//! fan-out on the rayon pool) on a synthetic scene with thread pools of
//! increasing size and reports real wall-clock speed-up on this machine.
//! Every pool size runs the same `SHARDS` row shards, so every row times
//! the same work, and each row's output is asserted byte-identical to the
//! 1-thread row's.  The cube is put in shared storage once, before any timer
//! starts, so no run is charged for copying it.  Each thread count is run
//! `RUNS` times after one untimed warm-up run, and reported as the median
//! and quartiles of those runs: one run per row could not tell two rows
//! apart when identical runs vary by a factor of two.

use hsi::partition::partition_rows;
use hsi::{SceneConfig, SceneGenerator};
use pct::plan::{Plan, Protocol};
use pct::PctConfig;
use std::sync::Arc;
use std::time::Instant;

/// Timed runs per thread count: enough for quartiles by nearest rank.
const RUNS: usize = 9;

/// Row shards of every run, whatever the pool size: one per thread of the
/// largest pool the table can show.
const SHARDS: usize = 16;

fn main() {
    // A mid-size scene: big enough to parallelise, small enough to finish in
    // seconds per configuration.
    let mut config = SceneConfig::paper_eval(11);
    config.dims = hsi::CubeDims::new(160, 160, 48);
    let cube = Arc::new(SceneGenerator::new(config).expect("valid scene").generate());

    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();

    let shards = partition_rows(cube.dims(), SHARDS).expect("shards");

    println!(
        "Shared-memory PCT speed-up ({}x{}x{} cube, {SHARDS} shards, this machine, median of {RUNS} runs)\n",
        160, 160, 48
    );
    println!(
        "{:>10} {:>12} {:>18} {:>10} {:>12}",
        "threads", "median (ms)", "quartiles (ms)", "speedup", "% of linear"
    );

    let mut one_thread = None;
    for &threads in &thread_counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("rayon pool");
        let plan = || {
            Plan::new(
                Protocol::Paper,
                Arc::clone(&cube),
                PctConfig::paper(),
                shards.clone(),
            )
        };
        // The untimed warm-up run is the one whose output is compared.
        let output = pool
            .install(|| plan().run_in_process())
            .expect("fusion succeeds");
        let run = || {
            let plan = plan();
            let start = Instant::now();
            pool.install(|| plan.run_in_process())
                .expect("fusion succeeds");
            start.elapsed().as_secs_f64() * 1e3
        };
        let mut ms: Vec<f64> = (0..RUNS).map(|_| run()).collect();
        ms.sort_by(f64::total_cmp);
        let [q1, median, q3] =
            [0.25, 0.5, 0.75].map(|p| ms[(p * (RUNS - 1) as f64).round() as usize]);
        let (one_thread_ms, one_thread_output) =
            one_thread.get_or_insert_with(|| (median, output.clone()));
        assert!(
            output == *one_thread_output,
            "{threads} threads fused a different output than 1 thread"
        );
        let speedup = *one_thread_ms / median;
        println!(
            "{:>10} {:>12.0} {:>18} {:>10.2} {:>11.1}%",
            threads,
            median,
            format!("{q1:.0}–{q3:.0}"),
            speedup,
            100.0 * speedup / threads as f64
        );
    }
    println!("\nThe paper reports within ~5% of linear on its SMP; exact numbers depend on this machine's core count and memory bandwidth.");
}
