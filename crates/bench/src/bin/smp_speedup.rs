//! Reproduces the paper's shared-memory claim (§4): "On a shared memory
//! system, the concurrent algorithm presented here operates within 5% of
//! linear speedup" because no communication is involved.
//!
//! Runs the rayon shared-memory implementation on a synthetic scene with
//! thread pools of increasing size and reports real wall-clock speed-up on
//! this machine.  The cube is put in shared storage once, before any timer
//! starts, so no run is charged for copying it.  Each thread count is run
//! `RUNS` times after one untimed warm-up run, and reported as the median
//! and quartiles of those runs: one run per row could not tell two rows
//! apart when identical runs vary by a factor of two.

use hsi::{SceneConfig, SceneGenerator};
use pct::{PctConfig, SharedMemoryPct};
use std::sync::Arc;
use std::time::Instant;

/// Timed runs per thread count: enough for quartiles by nearest rank.
const RUNS: usize = 9;

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

    println!(
        "Shared-memory PCT speed-up ({}x{}x{} cube, this machine, median of {RUNS} runs)\n",
        160, 160, 48
    );
    println!(
        "{:>10} {:>12} {:>18} {:>10} {:>12}",
        "threads", "median (ms)", "quartiles (ms)", "speedup", "% of linear"
    );

    let mut reference = None;
    for &threads in &thread_counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("rayon pool");
        let pct = SharedMemoryPct::new(PctConfig::paper());
        let run = || {
            let start = Instant::now();
            let out = pool
                .install(|| pct.run_shared(&cube))
                .expect("fusion succeeds");
            // Keep the compiler from optimising the run away.
            assert!(out.pixels > 0);
            start.elapsed().as_secs_f64() * 1e3
        };
        run();
        let mut ms: Vec<f64> = (0..RUNS).map(|_| run()).collect();
        ms.sort_by(f64::total_cmp);
        let [q1, median, q3] =
            [0.25, 0.5, 0.75].map(|p| ms[(p * (RUNS - 1) as f64).round() as usize]);
        let reference_time = *reference.get_or_insert(median);
        let speedup = reference_time / median;
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
