//! The harness: builds the simulated cluster for a [`Scenario`], runs it
//! to completion on virtual time, and returns an assertable
//! [`ScenarioReport`].

use crate::actors::{ManagerActor, ManagerParams, MemberActor, SharedOutput};
use crate::clock::SimClock;
use crate::scenario::{member_index, Scenario};
use crate::trace::{render_span_tree, TraceLog};
use crate::SplitMix64;
use hsi::partition::partition_rows;
use hsi::{HyperCube, RgbImage};
use netsim::{
    ActorId, ClusterSim, CostModel, Duration, FaultPlan, LinkFault, LinkVerdict, NodeId, NodeSpec,
    SimConfig, SimTime,
};
use pct::messages::PctMessage;
use pct::plan::ChainPlan;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use telemetry::Telemetry;

/// A scenario that could not be built or did not converge to an output.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// Name of the failing scenario.
    pub scenario: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario {:?}: {}", self.scenario, self.message)
    }
}

impl std::error::Error for SimFailure {}

/// Everything observable about one completed scenario run — a pure
/// function of the scenario, assertable byte-for-byte.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Scenario seed.
    pub seed: u64,
    /// The fused image — compared byte-for-byte against
    /// [`pct::SequentialPct`].
    pub image: RgbImage,
    /// Virtual time from start to job completion.
    pub makespan: Duration,
    /// The bound the scenario demanded.
    pub makespan_bound: Duration,
    /// Whether `makespan <= makespan_bound`.
    pub within_bound: bool,
    /// Simulator events processed.
    pub events: u64,
    /// Messages actors attempted to send.
    pub messages_sent: u64,
    /// Messages lost to dead nodes, partitions or transit drops.
    pub messages_dropped: u64,
    /// Kills actually injected (chaos + attack + machine + regeneration
    /// riders).
    pub kills_injected: u32,
    /// True-positive death detections.
    pub detections: u32,
    /// False-positive detections (e.g. partition-induced).
    pub false_positives: u32,
    /// Completed spare regenerations.
    pub regenerations: u32,
    /// Duplicate results discarded by the dedup barrier.
    pub duplicates: u32,
    /// Task retransmissions (orphan re-dispatch + timeout resends).
    pub retransmits: u32,
    /// Detection latencies in virtual nanoseconds, in detection order.
    pub detection_latency_ns: Vec<u64>,
    /// The deterministic event trace.
    pub trace: String,
    /// The telemetry span tree rendered on virtual time.
    pub span_tree: String,
    /// Prometheus-format histogram/counter snapshot.
    pub metrics_snapshot: String,
}

impl ScenarioReport {
    /// A single string capturing every observable of the run; two runs of
    /// the same scenario must produce byte-identical blobs.  The image is
    /// folded in as an FNV-1a digest to keep the blob small.
    pub fn replay_blob(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.image.raw() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!(
            "scenario={} seed={:#x}\nimage_fnv={hash:#018x} makespan_ns={} events={} \
             sent={} dropped={} kills={} detections={} false_positives={} \
             regenerations={} duplicates={} retransmits={}\nlatencies={:?}\n\
             --- trace ---\n{}\n--- spans ---\n{}--- metrics ---\n{}",
            self.name,
            self.seed,
            self.makespan.as_nanos(),
            self.events,
            self.messages_sent,
            self.messages_dropped,
            self.kills_injected,
            self.detections,
            self.false_positives,
            self.regenerations,
            self.duplicates,
            self.retransmits,
            self.detection_latency_ns,
            self.trace,
            self.span_tree,
            self.metrics_snapshot,
        )
    }
}

/// The composed link-fault hook: partitions, transit drop budgets,
/// constant per-member delays and seeded reorder jitter, judged in that
/// order.
struct ScenarioLinkFault {
    manager: NodeId,
    /// `(member node, window start, window end)`.
    partitions: Vec<(NodeId, SimTime, SimTime)>,
    /// Remaining manager→member task drops, keyed by member node index.
    drop_budget: BTreeMap<usize, usize>,
    /// Constant extra delay keyed by member node index.
    delays: BTreeMap<usize, Duration>,
    jitter: Option<(SplitMix64, Duration)>,
}

impl LinkFault<PctMessage> for ScenarioLinkFault {
    fn judge(&mut self, now: SimTime, from: NodeId, to: NodeId, msg: &PctMessage) -> LinkVerdict {
        for &(node, start, until) in &self.partitions {
            let cut = (from == self.manager && to == node) || (from == node && to == self.manager);
            if cut && now >= start && now < until {
                return LinkVerdict::Drop;
            }
        }
        if from == self.manager && msg.task().is_some() {
            if let Some(left) = self.drop_budget.get_mut(&to.0) {
                if *left > 0 {
                    *left -= 1;
                    return LinkVerdict::Drop;
                }
            }
        }
        let mut extra = Duration::ZERO;
        for node in [from.0, to.0] {
            if let Some(d) = self.delays.get(&node) {
                extra += *d;
            }
        }
        if let Some((rng, max)) = &mut self.jitter {
            extra += Duration::from_nanos(rng.below(max.as_nanos()));
        }
        if extra > Duration::ZERO {
            LinkVerdict::Delay(extra)
        } else {
            LinkVerdict::Deliver
        }
    }
}

/// Builds and runs one [`Scenario`] on virtual time.
#[derive(Debug, Clone)]
pub struct SimHarness {
    scenario: Scenario,
}

impl SimHarness {
    /// Wraps a scenario.
    pub fn new(scenario: Scenario) -> Self {
        Self { scenario }
    }

    /// The wrapped scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Generates the scenario's cube and runs it.
    pub fn run(&self) -> Result<ScenarioReport, SimFailure> {
        self.run_on(Arc::new(self.scenario.cube.generate()))
    }

    fn fail(&self, message: impl Into<String>) -> SimFailure {
        SimFailure {
            scenario: self.scenario.name.clone(),
            message: message.into(),
        }
    }

    /// Runs the scenario on an already-generated cube (the sweep runner
    /// caches cubes across scenarios sharing a [`crate::CubeSpec`]).
    pub fn run_on(&self, cube: Arc<HyperCube>) -> Result<ScenarioReport, SimFailure> {
        let sc = &self.scenario;
        sc.validate().map_err(|e| self.fail(e))?;
        let screen_shards = partition_rows(cube.dims(), sc.screen_tasks)
            .map_err(|e| self.fail(format!("screen partition: {e}")))?;
        let transform_shards = partition_rows(cube.dims(), sc.transform_tasks)
            .map_err(|e| self.fail(format!("transform partition: {e}")))?;

        let total = sc.total_members();
        let mut nodes = NodeSpec::uniform(1 + total);
        for s in &sc.stragglers {
            nodes[1 + s.member].speed = s.speed;
        }
        // Member i lives on node 1+i; the manager owns node 0.
        let mut faults = FaultPlan::none();
        let mut machine_kill_times = Vec::new();
        for &(time, node) in sc.machine_kills.failures() {
            faults = faults.and_kill(NodeId(node.0 + 1), time);
            machine_kill_times.push((node.0, time));
        }
        let mut sim = ClusterSim::<PctMessage>::new(SimConfig {
            nodes,
            network: sc.network,
            faults,
            max_events: sc.max_events,
        })
        .map_err(|e| self.fail(format!("cluster build: {e}")))?;

        let manager_node = NodeId(0);
        let member_nodes: Vec<NodeId> = (0..total).map(|i| NodeId(1 + i)).collect();
        let mut drop_budget = BTreeMap::new();
        for (target, count) in &sc.attack.drop_sends {
            if let Some(m) = member_index(target) {
                *drop_budget.entry(member_nodes[m].0).or_insert(0) += count;
            }
        }
        let mut delays = BTreeMap::new();
        for d in &sc.link_delays {
            let slot = delays
                .entry(member_nodes[d.member].0)
                .or_insert(Duration::ZERO);
            *slot += d.extra;
        }
        sim.set_link_fault(Box::new(ScenarioLinkFault {
            manager: manager_node,
            partitions: sc
                .partitions
                .iter()
                .map(|p| {
                    (
                        member_nodes[p.member],
                        SimTime::ZERO + p.from,
                        SimTime::ZERO + p.until,
                    )
                })
                .collect(),
            drop_budget,
            delays,
            jitter: sc
                .reorder
                .as_ref()
                .map(|j| (SplitMix64::new(sc.seed ^ j.salt), j.max)),
        }));

        let clock = SimClock::new();
        sim.bind_clock(clock.cell());
        let telemetry = Telemetry::with_clock(Arc::new(clock), 4096);
        let trace = TraceLog::new();
        trace.push(
            SimTime::ZERO,
            format!("scenario {} seed {:#x}", sc.name, sc.seed),
        );
        let output = Rc::new(RefCell::new(SharedOutput::default()));

        let attack_victims: Vec<usize> = sc
            .attack
            .victims
            .iter()
            .filter_map(|v| member_index(v))
            .collect();
        let member_actors: Vec<ActorId> = (0..total).map(|i| ActorId(1 + i)).collect();
        let manager = sim
            .add_actor(
                manager_node,
                Box::new(ManagerActor::new(
                    ChainPlan::new(
                        Arc::clone(&cube),
                        sc.config,
                        screen_shards,
                        transform_shards,
                    ),
                    ManagerParams {
                        scenario_name: sc.name.clone(),
                        members: sc.members,
                        spares: sc.spares,
                        detector: sc.detector,
                        chaos: sc.chaos.clone(),
                        attack_after_results: sc.attack.after_results,
                        attack_victims,
                        machine_kill_times,
                        kill_during_regeneration: sc.kill_during_regeneration,
                        member_actors: member_actors.clone(),
                        member_nodes: member_nodes.clone(),
                        telemetry: telemetry.clone(),
                        trace: trace.clone(),
                        output: Rc::clone(&output),
                    },
                )),
            )
            .map_err(|e| self.fail(format!("add manager: {e}")))?;
        let heartbeat = Duration::from_millis(sc.detector.heartbeat_period_ms.max(1));
        for i in 0..total {
            let id = sim
                .add_actor(
                    member_nodes[i],
                    Box::new(MemberActor::new(
                        manager,
                        cube.bands(),
                        heartbeat,
                        CostModel::paper(),
                        trace.clone(),
                        crate::member_name(i),
                    )),
                )
                .map_err(|e| self.fail(format!("add member {i}: {e}")))?;
            debug_assert_eq!(id, member_actors[i]);
        }

        let outcome = sim
            .run()
            .map_err(|e| self.fail(format!("simulation: {e}")))?;

        // The simulator still owns the manager actor (and its Rc clone), so
        // take the contents rather than unwrapping the cell.
        let out = std::mem::take(&mut *output.borrow_mut());
        if let Some(err) = out.error {
            return Err(self.fail(format!("protocol failed: {err}")));
        }
        let Some(image) = out.image else {
            return Err(self.fail(format!(
                "no fused image after {} events (halted={})",
                outcome.events_processed, outcome.halted
            )));
        };
        let makespan = outcome.finished_at.since(SimTime::ZERO);
        Ok(ScenarioReport {
            name: sc.name.clone(),
            seed: sc.seed,
            image,
            makespan,
            makespan_bound: sc.makespan_bound,
            within_bound: makespan <= sc.makespan_bound,
            events: outcome.events_processed,
            messages_sent: outcome.metrics.messages_sent,
            messages_dropped: outcome.metrics.messages_dropped,
            // The simulator's counter covers manager-directed kills AND
            // scheduled machine kills that actually fired.
            kills_injected: outcome.metrics.node_failures as u32,
            detections: out.detections,
            false_positives: out.false_positives,
            regenerations: out.regenerations,
            duplicates: out.duplicates,
            retransmits: out.retransmits,
            detection_latency_ns: out.detection_latency_ns,
            trace: trace.render(),
            span_tree: render_span_tree(&telemetry.spans()),
            metrics_snapshot: telemetry.snapshot_prometheus().unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pct::SequentialPct;
    use service::ChaosPhase;

    #[test]
    fn fault_free_run_matches_sequential_byte_for_byte() {
        let sc = Scenario::baseline("calm", 7);
        let cube = Arc::new(sc.cube.generate());
        let report = SimHarness::new(sc.clone())
            .run_on(Arc::clone(&cube))
            .unwrap();
        let reference = SequentialPct::new(sc.config).run(&cube).unwrap();
        assert_eq!(report.image.raw(), reference.image.raw());
        assert!(report.within_bound, "makespan {:?}", report.makespan);
        assert_eq!(report.kills_injected, 0);
        assert_eq!(report.detections, 0);
    }

    #[test]
    fn chaos_kill_still_converges_to_identical_output() {
        let sc = Scenario::baseline("kill-screen", 7).with_chaos_kill(ChaosPhase::Screen, 0);
        let cube = Arc::new(sc.cube.generate());
        let report = SimHarness::new(sc.clone())
            .run_on(Arc::clone(&cube))
            .unwrap();
        let reference = SequentialPct::new(sc.config).run(&cube).unwrap();
        assert_eq!(report.image.raw(), reference.image.raw());
        assert_eq!(report.kills_injected, 1);
        assert_eq!(report.detections, 1);
        assert!(!report.detection_latency_ns.is_empty());
        assert!(report.span_tree.contains("detect"));
    }

    #[test]
    fn same_scenario_replays_byte_identically() {
        let sc = Scenario::baseline("replay", 42).with_chaos_kill(ChaosPhase::Derive, 1);
        let cube = Arc::new(sc.cube.generate());
        let a = SimHarness::new(sc.clone())
            .run_on(Arc::clone(&cube))
            .unwrap();
        let b = SimHarness::new(sc).run_on(cube).unwrap();
        assert_eq!(a.replay_blob(), b.replay_blob());
    }
}
