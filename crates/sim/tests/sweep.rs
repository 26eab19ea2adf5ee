//! The acceptance-scale sweep: ≥ 1000 seeded fault scenarios — kills at
//! every [`service::ChaosPhase`], double kills, kills during
//! regeneration, machine kills, partitions, transit loss, reorder jitter
//! and stragglers — every one of which must converge to output
//! byte-identical to [`pct::SequentialPct`] within its virtual makespan
//! bound, in well under a minute of wall time.

use sim::{SimHarness, Sweep};
use std::time::Instant;

const SWEEP_SEED: u64 = 0xF05E;

#[test]
fn thousand_scenario_sweep_holds_the_byte_identity_and_makespan_contract() {
    let started = Instant::now();
    let sweep = Sweep::new(SWEEP_SEED, 1000);
    let report = sweep.run().expect("every scenario converges");
    let wall = started.elapsed();

    assert_eq!(report.rows.len(), 1000);
    let failures: Vec<String> = report
        .rows
        .iter()
        .filter(|r| !r.passed)
        .map(|r| {
            format!(
                "{} ident={} makespan={:?} bound={:?}",
                r.name, r.byte_identical, r.makespan, r.bound
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "failing rows:\n{}\n{}",
        failures.join("\n"),
        report.pass_table()
    );

    // Coverage: every scenario family ran, and the sweep actually
    // exercised the failure machinery.
    for kind in [
        "screen-kill",
        "derive-kill",
        "transform-kill",
        "double-kill",
        "regen-kill",
        "machine-kill",
        "mischief",
    ] {
        assert!(
            report.rows.iter().any(|r| r.kind == kind),
            "family {kind} never ran"
        );
    }
    assert!(report.rows.iter().map(|r| r.kills).sum::<u32>() > 500);
    assert!(report.rows.iter().map(|r| r.regenerations).sum::<u32>() > 500);
    assert!(
        report.rows.iter().map(|r| r.false_positives).sum::<u32>() > 0,
        "partitions should provoke at least one false-positive detection"
    );
    assert!(report.worst.is_some());

    // Exact rows: pure functions of the sweep seed on virtual time.  A
    // deliberate change to detector or protocol behaviour edits these in the
    // same commit, with the reason.
    assert_eq!(report.passed(), 1000);
    assert_eq!(report.rows.iter().map(|r| r.detections).sum::<u32>(), 1117);
    assert_eq!(report.detection_latency_quantile_ns(0.5), Some(60_208_666));
    assert_eq!(
        report.detection_latency_quantile_ns(0.99),
        Some(450_000_000)
    );

    // The whole point: thousands of scenarios per minute, not per day.
    assert!(
        wall.as_secs() < 60,
        "sweep took {wall:?}, over the 60 s budget"
    );
}

#[test]
fn failing_scenario_is_reproducible_from_the_sweep_seed_alone() {
    // The replay recipe from the README: re-enumerate the sweep with its
    // seed, pick the row's index, run it alone — byte-for-byte equal.
    let scenarios = Sweep::new(SWEEP_SEED, 40).scenarios();
    for index in [3, 17, 38] {
        let sc = scenarios[index].clone();
        let cube = std::sync::Arc::new(sc.cube.generate());
        let first = SimHarness::new(sc.clone())
            .run_on(std::sync::Arc::clone(&cube))
            .expect("converges");
        let second = SimHarness::new(sc).run_on(cube).expect("converges");
        assert_eq!(first.replay_blob(), second.replay_blob());
        assert!(!first.trace.is_empty());
        assert!(first.trace.contains("seed"));
    }
}
