//! The property-style sweep runner: seeded enumeration of scenarios over
//! the service — fault families, arrival bursts, cancellations, timeouts,
//! lane drains, kills at shutdown — and the pass/fail evidence table.

use crate::harness::{JobInput, ScenarioReport, SimFailure, SimHarness};
use crate::scenario::{Boundary, Client, CubeSpec, JobPlan, Partition, Scenario};
use crate::SplitMix64;
use netsim::Duration;
use pct::SequentialPct;
use service::{BackendKind, ChaosPhase, JobStatus, Priority};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// The scenario families a sweep cycles through, in order, so any sweep of
/// at least this many scenarios covers every family (and every
/// [`ChaosPhase`]).
const KINDS: [&str; 12] = [
    "screen-kill",
    "derive-kill",
    "transform-kill",
    "double-kill",
    "regen-kill",
    "machine-kill",
    "mischief",
    "burst",
    "cancel",
    "timeout",
    "drain",
    "shutdown-kill",
];

const PHASES: [ChaosPhase; 3] = [
    ChaosPhase::Screen,
    ChaosPhase::Derive,
    ChaosPhase::Transform,
];

/// The outcome of a full sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Every scenario's report, in sweep order, without its logs and
    /// renderings (a thousand of those would be megabytes).
    pub rows: Vec<ScenarioReport>,
    /// Full report of the scenario with the worst virtual makespan.
    pub worst: Option<ScenarioReport>,
}

impl SweepReport {
    /// Number of passing rows.
    pub fn passed(&self) -> usize {
        self.rows.iter().filter(|r| r.passed()).count()
    }

    /// Whether every row passed.
    pub fn all_passed(&self) -> bool {
        self.passed() == self.rows.len()
    }

    /// The rows of one scenario family (`"burst"`, `"cancel"`, …).
    pub fn family<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a ScenarioReport> {
        self.rows.iter().filter(move |r| kind_of(&r.name) == kind)
    }

    /// Jobs across the sweep that ended with `status`.
    pub fn terminal_count(&self, status: JobStatus) -> usize {
        self.rows.iter().map(|r| r.terminal_count(status)).sum()
    }

    /// All detection latencies across the sweep, sorted ascending.
    pub fn detection_latencies_ns(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .rows
            .iter()
            .flat_map(|r| r.detection_latency_ns.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// The `q`-quantile (0..=1) of detection latency in virtual
    /// nanoseconds, or `None` when no detections happened.
    pub fn detection_latency_quantile_ns(&self, q: f64) -> Option<u64> {
        let all = self.detection_latencies_ns();
        if all.is_empty() {
            return None;
        }
        let idx = ((all.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(all[idx])
    }

    /// A per-family pass table.
    pub fn pass_table(&self) -> String {
        let mut out = format!(
            "{:<15}{:>5}{:>5}{:>6}{:>8}{:>7}{:>6}{:>5}{:>7}{:>4}{:>8}{:>18}\n",
            "kind",
            "runs",
            "pass",
            "kills",
            "detects",
            "regens",
            "done",
            "fail",
            "cancel",
            "t/o",
            "refused",
            "worst_ms(virtual)"
        );
        for kind in KINDS.into_iter().chain(["TOTAL"]) {
            let rows: Vec<&ScenarioReport> = match kind {
                "TOTAL" => self.rows.iter().collect(),
                _ => self.family(kind).collect(),
            };
            let sum =
                |f: &dyn Fn(&ScenarioReport) -> usize| rows.iter().map(|r| f(r)).sum::<usize>();
            let count = |status| sum(&|r| r.terminal_count(status));
            let worst = rows
                .iter()
                .map(|r| r.makespan.as_secs_f64())
                .fold(0.0, f64::max);
            let _ = writeln!(
                out,
                "{:<15}{:>5}{:>5}{:>6}{:>8}{:>7}{:>6}{:>5}{:>7}{:>4}{:>8}{:>18.1}",
                kind,
                rows.len(),
                sum(&|r| usize::from(r.passed())),
                sum(&|r| r.kills as usize),
                sum(&|r| r.detections as usize),
                sum(&|r| r.service.regenerations),
                count(JobStatus::Completed),
                count(JobStatus::Failed),
                count(JobStatus::Cancelled),
                count(JobStatus::TimedOut),
                sum(&|r| r.refused()),
                worst * 1e3,
            );
        }
        out
    }
}

/// A seeded sweep: `count` scenarios enumerated from `seed`, cycling
/// through every scenario family.  The whole sweep — which scenarios are
/// generated and everything each one does — is a pure function of the
/// seed, so "reproduce row `s0042-…`" is: construct the same sweep,
/// [`Sweep::scenarios`], pick index 42, run it alone under a
/// [`SimHarness`].
///
/// Out of scope: a standard worker on a lost link.  The worker lanes have
/// no retransmit, so partitions and transit drops target replica members
/// only; a standard worker's messages are lost only with its node.
#[derive(Debug, Clone)]
pub struct Sweep {
    seed: u64,
    count: usize,
}

impl Sweep {
    /// A sweep of `count` scenarios from `seed`.
    pub fn new(seed: u64, count: usize) -> Self {
        Self { seed, count }
    }

    /// Enumerates the sweep's scenarios deterministically.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.count).map(|i| generate(&mut rng, i)).collect()
    }

    /// Runs every scenario against its cached sequential references.
    /// Returns `Err` only for a scenario that cannot be built or simulated;
    /// a broken invariant is a failing row.
    pub fn run(&self) -> Result<SweepReport, SimFailure> {
        let mut cache: BTreeMap<(usize, usize, usize, u64), JobInput> = BTreeMap::new();
        let mut rows = Vec::with_capacity(self.count);
        let mut worst: Option<ScenarioReport> = None;
        for sc in self.scenarios() {
            let inputs: Vec<JobInput> = sc
                .jobs
                .iter()
                .map(|job| {
                    let (cube, reference) = cache.entry(job.cube.key()).or_insert_with(|| {
                        let cube = Arc::new(job.cube.generate());
                        let reference = SequentialPct::new(sc.config)
                            .run(&cube)
                            .expect("sequential reference on a valid cube");
                        (cube, Arc::new(reference))
                    });
                    (Arc::clone(cube), Arc::clone(reference))
                })
                .collect();
            let report = SimHarness::new(sc).run_on(&inputs)?;
            if worst.as_ref().is_none_or(|w| report.makespan > w.makespan) {
                worst = Some(report.clone());
            }
            rows.push(ScenarioReport {
                event_log: String::new(),
                trace: String::new(),
                span_tree: String::new(),
                metrics_snapshot: String::new(),
                ..report
            });
        }
        Ok(SweepReport { rows, worst })
    }
}

/// The family of a scenario, read off its name (`s0042-burst-1s2x2`).
fn kind_of(name: &str) -> &'static str {
    KINDS
        .into_iter()
        .find(|k| name.contains(&format!("-{k}-")))
        .unwrap_or("")
}

fn pick(rng: &mut SplitMix64, names: &[String]) -> String {
    names[rng.range(0, names.len() - 1)].clone()
}

fn millis(rng: &mut SplitMix64, lo: u64, span: u64) -> Duration {
    Duration::from_millis(lo + rng.below(span))
}

/// Generates scenario `index` of a sweep.
fn generate(rng: &mut SplitMix64, index: usize) -> Scenario {
    let kind = KINDS[index % KINDS.len()];
    let mut sc = Scenario::baseline(String::new(), rng.next_u64());
    sc.standard_workers = if kind == "drain" {
        rng.range(1, 3)
    } else {
        rng.range(0, 3)
    };
    sc.replica_groups = rng.range(1, 3);
    sc.replication_level = rng.range(1, 2);
    sc.detector.heartbeat_period_ms = [5u64, 10, 20, 50][rng.range(0, 3)];
    sc.detector.miss_threshold = [2u32, 3, 4, 8][rng.range(0, 3)];
    let members = sc.members();
    let replicas: Vec<String> = members
        .iter()
        .filter(|m| m.contains('#'))
        .cloned()
        .collect();
    let dims_palette = [(12, 10, 4), (10, 12, 4), (14, 8, 3), (8, 14, 5)];
    let lanes = sc.standard_workers;
    let job = |rng: &mut SplitMix64| {
        let (width, height, bands) = dims_palette[rng.range(0, dims_palette.len() - 1)];
        let route = if lanes > 0 && rng.chance(1, 2) {
            BackendKind::Standard
        } else {
            BackendKind::Resilient
        };
        JobPlan {
            cube: CubeSpec {
                width,
                height,
                bands,
                seed: 1 + rng.below(2),
            },
            shards: rng.range(2, 4),
            ..JobPlan::new(route)
        }
    };
    let jobs = if kind == "burst" {
        rng.range(2, 6)
    } else {
        rng.range(1, 2)
    };
    sc.jobs = (0..jobs).map(|_| job(rng)).collect();
    for (i, plan) in sc.jobs.iter_mut().enumerate() {
        plan.arrival = millis(rng, 0, 40) + Duration::from_nanos(i as u64);
    }
    sc.jobs.sort_by_key(|plan| plan.arrival);

    match kind {
        "screen-kill" | "derive-kill" | "transform-kill" => {
            // The first three families, in phase order.
            let phase = PHASES[index % KINDS.len()];
            sc = sc.with_chaos_kill(phase, &pick(rng, &members));
        }
        "double-kill" => {
            let first = rng.range(0, members.len() - 1);
            let second =
                (first + 1 + rng.range(0, members.len().saturating_sub(2))) % members.len();
            for victim in [first, second] {
                sc = sc.with_chaos_kill(PHASES[rng.range(0, 2)], &members[victim]);
            }
        }
        "regen-kill" => {
            sc = sc.with_chaos_kill(PHASES[rng.range(0, 2)], &pick(rng, &replicas));
            sc.kill_during_regeneration = true;
        }
        "machine-kill" => {
            sc.machine_kills
                .push((millis(rng, 5, 60), pick(rng, &members)));
            if rng.chance(1, 2) {
                let from = millis(rng, 5, 30);
                sc.partitions.push(Partition {
                    member: pick(rng, &replicas),
                    from,
                    until: from + millis(rng, 20, 60),
                });
            }
        }
        "mischief" => {
            // No kills: partitions, transit loss, jitter, slow links and
            // stragglers must all converge byte-identically.
            let from = millis(rng, 0, 30);
            sc.partitions.push(Partition {
                member: pick(rng, &replicas),
                from,
                until: from + millis(rng, 20, 60),
            });
            sc.drops.push((pick(rng, &replicas), rng.range(1, 2)));
            sc.reorder = Some((
                Duration::from_micros(200 + rng.below(1_800)),
                rng.next_u64(),
            ));
            sc.link_delays.push((
                pick(rng, &members),
                Duration::from_micros(50 + rng.below(450)),
            ));
            sc.stragglers
                .push((pick(rng, &members), [0.5, 0.25][rng.range(0, 1)]));
        }
        "burst" => {
            // More arrivals than the queue and the in-flight cap hold, from
            // one or two weighted tenants over three priorities.
            sc.queue_capacity = rng.range(1, 2);
            sc.max_in_flight = rng.range(1, 2);
            let tenants = rng.range(1, 2) as u64;
            sc.weights = (0..tenants).map(|t| (t, 1 + rng.below(4))).collect();
            for plan in &mut sc.jobs {
                plan.tenant = rng.below(tenants);
                plan.priority = Priority::ALL[rng.range(0, 2)];
            }
            if rng.chance(1, 2) {
                sc = sc.with_chaos_kill(PHASES[rng.range(0, 2)], &pick(rng, &members));
            }
        }
        "cancel" => {
            let boundary = match rng.range(0, 3) {
                0 => Boundary::Queued,
                b => Boundary::Dispatch(PHASES[b - 1]),
            };
            let victim = rng.range(0, sc.jobs.len() - 1);
            sc.jobs[victim].client = if rng.chance(1, 2) {
                Client::Cancel(boundary)
            } else {
                Client::Drop(boundary)
            };
            if let Some(other) = sc.jobs.iter_mut().find(|plan| plan.client == Client::Wait) {
                if rng.chance(1, 2) {
                    other.client = Client::Detach;
                }
            }
        }
        "timeout" => {
            let victim = rng.range(0, sc.jobs.len() - 1);
            sc.jobs[victim].timeout = Some(millis(rng, 1, 40));
        }
        "drain" => {
            // Every standard worker dies at job 1's first screening
            // dispatch: its running standard jobs fail over.
            for plan in &mut sc.jobs {
                plan.route = BackendKind::Standard;
            }
            for w in 0..sc.standard_workers {
                sc = sc.with_chaos_kill(ChaosPhase::Screen, &format!("svc{w}"));
            }
        }
        _ => {
            // "shutdown-kill": an attack at a seeded instant up to and
            // including shutdown, which may itself come while jobs run.
            let at = rng.chance(1, 2).then(|| millis(rng, 0, 80));
            sc.attack = Some((pick(rng, &replicas), at));
            if rng.chance(1, 2) {
                let last = sc.jobs.last().map_or(Duration::ZERO, |plan| plan.arrival);
                sc.shutdown_at = Some(last + millis(rng, 0, 60));
            }
        }
    }
    // Independent riders on every family but mischief: slow nodes and
    // jittery links compose with every schedule.
    if kind != "mischief" {
        if rng.chance(1, 4) {
            sc.stragglers
                .push((pick(rng, &members), [0.5, 0.25][rng.range(0, 1)]));
        }
        if rng.chance(1, 4) {
            sc.reorder = Some((Duration::from_micros(100 + rng.below(900)), rng.next_u64()));
        }
        if rng.chance(1, 4) {
            sc.link_delays.push((
                pick(rng, &members),
                Duration::from_micros(50 + rng.below(250)),
            ));
        }
    }
    sc.spares = sc.chaos.kills.len()
        + sc.machine_kills.len()
        + usize::from(sc.attack.is_some())
        + usize::from(sc.kill_during_regeneration);
    sc.name = format!(
        "s{index:04}-{kind}-{}s{}x{}",
        sc.standard_workers, sc.replica_groups, sc.replication_level
    );
    sc.makespan_bound = sc.derived_makespan_bound();
    sc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_enumeration_is_deterministic_and_covers_every_kind() {
        let a = Sweep::new(99, 36).scenarios();
        let b = Sweep::new(99, 36).scenarios();
        assert_eq!(a.len(), 36);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.seed, y.seed);
        }
        for kind in KINDS {
            assert!(
                a.iter().any(|s| kind_of(&s.name) == kind),
                "kind {kind} missing"
            );
        }
        for sc in &a {
            sc.validate().expect("generated scenarios validate");
        }
    }

    #[test]
    fn small_sweep_passes_end_to_end() {
        let report = Sweep::new(7, 24).run().expect("sweep runs");
        assert!(report.all_passed(), "\n{}", report.pass_table());
        assert!(report.rows.iter().any(|r| r.detections > 0));
        assert!(report.pass_table().contains("TOTAL"));
        assert!(report.worst.is_some());
    }
}
