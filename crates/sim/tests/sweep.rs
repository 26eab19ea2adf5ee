//! The acceptance-scale sweep: 1000 seeded scenarios over the service
//! itself — member kills at every phase, double kills, kills during
//! regeneration, machine crashes, partitions, transit loss, reorder jitter
//! and stragglers, arrival bursts past the admission queue, cancellations
//! at every boundary, timeouts, lane drains and kills at shutdown — every
//! one of which must keep the service's invariants (see the crate docs) on
//! virtual time, in seconds of wall time.

use service::JobStatus::{Cancelled, Completed, Failed, TimedOut};
use sim::{ScenarioReport, SimHarness, Sweep};
use std::time::Instant;

const SWEEP_SEED: u64 = 0xF05E;

#[test]
fn thousand_scenario_sweep_holds_the_byte_identity_and_makespan_contract() {
    let started = Instant::now();
    let sweep = Sweep::new(SWEEP_SEED, 1000);
    let report = sweep.run().expect("every scenario runs");
    let wall = started.elapsed();

    assert_eq!(report.rows.len(), 1000);
    let failures: Vec<String> = report
        .rows
        .iter()
        .filter(|r| !r.passed())
        .map(|r| format!("{}: {:?}", r.name, r.violations))
        .collect();
    assert!(
        failures.is_empty(),
        "failing rows:\n{}\n{}",
        failures.join("\n"),
        report.pass_table()
    );

    // Coverage: every scenario family ran, and the sweep exercised the
    // failure, failover, backpressure and shutdown machinery.
    let families = "screen-kill derive-kill transform-kill double-kill regen-kill machine-kill \
                    mischief burst cancel timeout drain shutdown-kill";
    for kind in families.split_whitespace() {
        let runs = report.family(kind).count();
        assert!(runs > 80, "family {kind} ran {runs} times");
    }
    let total = |f: fn(&ScenarioReport) -> usize| report.rows.iter().map(f).sum::<usize>();
    assert!(total(|r| r.kills as usize) > 500);
    assert!(total(|r| r.service.regenerations) > 300);
    let reassigned = total(|r| r.service.tasks_reassigned as usize);
    assert!(reassigned > 0, "no task hopped workers");
    let failovers = total(|r| r.service.lane_failovers as usize);
    assert!(failovers > 0, "no lane drained");
    assert!(
        total(|r| r.late_outcomes) > 0,
        "no handle outlived its service"
    );
    assert!(report.worst.is_some());

    // Exact rows: pure functions of the sweep seed on virtual time.  A
    // deliberate change to scheduling, detection or the protocol edits these
    // in the same commit, with the reason.
    assert_eq!(report.passed(), 1000);
    assert_eq!(total(|r| r.detections as usize), 913);
    assert_eq!(report.detection_latency_quantile_ns(0.5), Some(17_000_000));
    assert_eq!(
        report.detection_latency_quantile_ns(0.99),
        Some(389_000_000)
    );
    let terminals = [Completed, Failed, Cancelled, TimedOut].map(|s| report.terminal_count(s));
    assert_eq!(terminals, [1441, 0, 83, 83]);
    assert_eq!(total(ScenarioReport::refused), 95);

    // Thousands of scenarios per minute, not per day.
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
        let first = SimHarness::new(sc.clone()).run().expect("runs");
        let second = SimHarness::new(sc).run().expect("runs");
        assert_eq!(first.replay_blob(), second.replay_blob());
        assert!(first.trace.contains("seed"));
    }
}

/// The same 1000 scenarios with every job pinned to the resilient lane
/// running the paper's protocol — screening and covariance fan out over the
/// replica groups, so the kill families land on fan-outs — and every
/// invariant of the harness holding, each completed paper output
/// byte-identical to `Plan::run_in_process` over the job's partition.
#[test]
fn the_same_thousand_scenarios_hold_every_invariant_under_the_paper_protocol() {
    let report = Sweep::new(SWEEP_SEED, 1000)
        .paper_protocol()
        .run()
        .expect("every scenario runs");
    let failures: Vec<String> = report
        .rows
        .iter()
        .filter(|r| !r.passed())
        .map(|r| format!("{}: {:?}", r.name, r.violations))
        .collect();
    assert!(
        failures.is_empty(),
        "failing rows:\n{}\n{}",
        failures.join("\n"),
        report.pass_table()
    );

    // Exact rows, as above; they differ from the chain's because the paper
    // jobs' tasks, and so their timing, differ.
    let total = |f: fn(&ScenarioReport) -> usize| report.rows.iter().map(f).sum::<usize>();
    assert_eq!(report.passed(), 1000);
    assert_eq!(total(|r| r.detections as usize), 906);
    assert_eq!(report.detection_latency_quantile_ns(0.5), Some(17_671_556));
    assert_eq!(
        report.detection_latency_quantile_ns(0.99),
        Some(392_261_763)
    );
    let terminals = [Completed, Failed, Cancelled, TimedOut].map(|s| report.terminal_count(s));
    assert_eq!(terminals, [1452, 0, 83, 79]);
    assert_eq!(total(ScenarioReport::refused), 88);
}
