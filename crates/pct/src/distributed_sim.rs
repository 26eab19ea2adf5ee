//! The simulator-driven implementation used to regenerate Figures 4 and 5.
//!
//! The paper's performance numbers come from 16 Sun workstations on 100BaseT
//! — hardware this reproduction substitutes with the `netsim` discrete-event
//! cluster.  The manager and workers here are `netsim` actors that follow
//! the shape of the real-thread protocol (work-queue distribution of
//! screening, covariance and transform tasks, sequential merge/eigen at the
//! manager), but instead of crunching real pixels they charge the calibrated
//! [`CostModel`] for compute time and the [`NetworkModel`] for message
//! bytes.  It is a cost model of its own, not `pct::plan` on another
//! transport, and differs from the real lanes in two modelled behaviours:
//! each group is primed with up to *two* tasks, so the next transfer
//! overlaps the current compute (the real managers keep one task per
//! worker in flight), and a transform task is pinned to the group that
//! screened its sub-cube, which still holds it, so only the small
//! transform broadcast crosses the network (the real lanes ship the view
//! again to whichever worker is free).  Replication is modelled faithfully:
//! every member of a replica group receives every task, members share the
//! worker nodes' CPUs, results are deduplicated at the manager, and the
//! group protocols add the ~10 % processing overhead plus acknowledgement
//! traffic described by [`OverheadModel`].

use crate::{PctError, Result};
use hsi::partition::{partition_rows, GranularityPolicy};
use hsi::CubeDims;
use netsim::{
    Actor, ActorContext, ActorId, ClusterSim, CostModel, Duration, FaultPlan, NetworkModel, NodeId,
    NodeSpec, SimConfig,
};
use resilience::OverheadModel;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Parameters of one simulated fusion run.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Image dimensions (the paper's evaluation cube is 320×320×105).
    pub dims: CubeDims,
    /// Number of worker processors (the x-axis of Figures 4 and 5).
    pub workers: usize,
    /// Sub-cube granularity (the Figure 5 knob).
    pub granularity: GranularityPolicy,
    /// Resiliency configuration (replication level and protocol overheads).
    pub overhead: OverheadModel,
    /// LAN model.
    pub network: NetworkModel,
    /// Compute cost model.
    pub cost: CostModel,
}

impl SimParams {
    /// The Figure 4 configuration for a given processor count, with or
    /// without level-2 resiliency.
    pub fn figure4(workers: usize, resilient: bool) -> Self {
        Self {
            dims: CubeDims::paper_eval(),
            workers,
            granularity: GranularityPolicy::PerWorkerMultiple(2),
            overhead: if resilient {
                OverheadModel::paper_level_2()
            } else {
                OverheadModel::none()
            },
            network: NetworkModel::paper_lan(),
            cost: CostModel::paper(),
        }
    }

    /// The Figure 5 configuration: no resiliency, varying granularity.
    pub fn figure5(workers: usize, subcubes_per_worker: usize) -> Self {
        Self {
            dims: CubeDims::paper_eval(),
            workers,
            granularity: GranularityPolicy::PerWorkerMultiple(subcubes_per_worker),
            overhead: OverheadModel::none(),
            network: NetworkModel::paper_lan(),
            cost: CostModel::paper(),
        }
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Worker processors used.
    pub workers: usize,
    /// Replication level of the run.
    pub replication_level: usize,
    /// Number of sub-cubes the image was decomposed into.
    pub sub_cubes: usize,
    /// Simulated wall-clock time of the whole fusion, in seconds.
    pub elapsed_secs: f64,
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes that crossed the network.
    pub network_bytes: u64,
}

/// Protocol messages of the simulated run.  Payload *sizes* are what the
/// network model charges; the enum itself only carries identifiers.
#[derive(Debug, Clone, PartialEq)]
enum SimMsg {
    ScreenTask { task: usize, pixels: usize },
    UniqueSet { task: usize, unique: usize },
    CovTask { task: usize, vectors: usize },
    CovSum { task: usize },
    TransformTask { task: usize, pixels: usize },
    RgbPart { task: usize },
    Ack,
}

const TAG_MERGE: u64 = 1;
const TAG_EIGEN: u64 = 2;
const TAG_WORKER_TASK: u64 = 100;

/// A worker member actor: services tasks one at a time, queueing any that
/// arrive while it is busy (which is how over-decomposition overlaps the
/// transfer of the next sub-problem with computation on the current one).
struct WorkerActor {
    manager: ActorId,
    cost: CostModel,
    overhead: OverheadModel,
    bands: usize,
    queue: VecDeque<SimMsg>,
    busy: bool,
    current: Option<SimMsg>,
}

impl WorkerActor {
    fn new(manager: ActorId, cost: CostModel, overhead: OverheadModel, bands: usize) -> Self {
        Self {
            manager,
            cost,
            overhead,
            bands,
            queue: VecDeque::new(),
            busy: false,
            current: None,
        }
    }

    fn start_next(&mut self, ctx: &mut ActorContext<SimMsg>) {
        if self.busy {
            return;
        }
        let Some(task) = self.queue.pop_front() else {
            return;
        };
        let work = match &task {
            SimMsg::ScreenTask { pixels, .. } => self.cost.screening_work(*pixels, self.bands),
            SimMsg::CovTask { vectors, .. } => self.cost.covariance_work(*vectors, self.bands),
            SimMsg::TransformTask { pixels, .. } => {
                self.cost.transform_work(*pixels, self.bands) + self.cost.colormap_work(*pixels)
            }
            _ => Duration::ZERO,
        };
        // Every task also pays the fixed SCPlib marshalling overhead, and the
        // resiliency protocols add their fractional processing cost on top.
        let work =
            (work + self.cost.per_task_overhead()).mul_f64(self.overhead.compute_multiplier());
        self.busy = true;
        self.current = Some(task);
        ctx.compute(TAG_WORKER_TASK, work);
    }
}

impl Actor<SimMsg> for WorkerActor {
    fn on_message(&mut self, ctx: &mut ActorContext<SimMsg>, _from: ActorId, msg: SimMsg) {
        match msg {
            SimMsg::ScreenTask { .. } | SimMsg::CovTask { .. } | SimMsg::TransformTask { .. } => {
                self.queue.push_back(msg);
                self.start_next(ctx);
            }
            _ => {}
        }
    }

    fn on_compute_done(&mut self, ctx: &mut ActorContext<SimMsg>, _tag: u64) {
        let finished = self
            .current
            .take()
            .expect("compute completion implies a task");
        self.busy = false;
        let (reply, bytes) = match finished {
            SimMsg::ScreenTask { task, pixels } => {
                let unique = self.cost.unique_pixels(pixels);
                (
                    SimMsg::UniqueSet { task, unique },
                    self.cost.unique_set_bytes(unique, self.bands),
                )
            }
            SimMsg::CovTask { task, .. } => (
                SimMsg::CovSum { task },
                self.cost.covariance_bytes(self.bands),
            ),
            SimMsg::TransformTask { task, pixels } => {
                (SimMsg::RgbPart { task }, self.cost.result_bytes(pixels))
            }
            other => unreachable!("unexpected current task {other:?}"),
        };
        ctx.send(self.manager, reply, bytes);
        if self.overhead.is_resilient() {
            // Group-protocol acknowledgement traffic.
            ctx.send(
                self.manager,
                SimMsg::Ack,
                self.overhead.control_message_bytes,
            );
        }
        self.start_next(ctx);
    }
}

/// Phases of the manager's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Screening,
    MergeCompute,
    Covariance,
    EigenCompute,
    Transform,
    Done,
}

/// Shared cell the manager writes its completion state into, read by the
/// driver after the simulation finishes.
type Completion = Rc<RefCell<Option<f64>>>;

/// The manager actor: drives the three distributed phases and the two
/// sequential compute blocks, exactly mirroring the real-thread manager.
struct ManagerActor {
    cost: CostModel,
    bands: usize,
    /// Group id -> member actor ids.
    groups: Vec<Vec<ActorId>>,
    /// Sub-cube pixel counts, indexed by task id (used for both the
    /// screening and transform phases).
    subcube_pixels: Vec<usize>,
    phase: Phase,
    pending: VecDeque<usize>,
    outstanding: HashMap<usize, usize>,
    completed: HashSet<usize>,
    total_unique: usize,
    cov_chunks: Vec<usize>,
    completion: Completion,
    transform_broadcast_done: HashSet<usize>,
    /// Which group screened each sub-cube.  Workers keep the sub-cubes they
    /// screened, so the step-7 transform task for a sub-cube must go to the
    /// group that already holds it — only the small transform broadcast
    /// crosses the network again, exactly as in the paper's protocol.
    screen_owner: HashMap<usize, usize>,
}

impl ManagerActor {
    fn send_task(&mut self, ctx: &mut ActorContext<SimMsg>, group: usize, task: usize) {
        let msg_and_bytes = match self.phase {
            Phase::Screening => {
                let pixels = self.subcube_pixels[task];
                (
                    SimMsg::ScreenTask { task, pixels },
                    self.cost.subcube_bytes(pixels, self.bands),
                )
            }
            Phase::Covariance => {
                let vectors = self.cov_chunks[task];
                (
                    SimMsg::CovTask { task, vectors },
                    self.cost.unique_set_bytes(vectors, self.bands),
                )
            }
            Phase::Transform => {
                let pixels = self.subcube_pixels[task];
                // The worker already holds the sub-cube it screened; only a
                // small control message is needed, plus the mean/transform
                // broadcast the first time this group is addressed.
                let mut bytes = self.cost.control_bytes();
                if self.transform_broadcast_done.insert(group) {
                    bytes += self.cost.transform_broadcast_bytes(self.bands);
                }
                (SimMsg::TransformTask { task, pixels }, bytes)
            }
            _ => return,
        };
        let (msg, bytes) = msg_and_bytes;
        for member in self.groups[group].clone() {
            ctx.send(member, msg.clone(), bytes);
        }
        self.outstanding.insert(task, group);
    }

    /// Primes each group with up to two tasks (overlap), then relies on the
    /// one-new-task-per-result work queue.  Priming two tasks is what lets a
    /// worker overlap the transfer of its next sub-problem with computation
    /// on the current one when the decomposition is finer than one sub-cube
    /// per worker.
    fn prime(&mut self, ctx: &mut ActorContext<SimMsg>) {
        for _depth in 0..2 {
            for group in 0..self.groups.len() {
                if let Some(task) = self.pending.pop_front() {
                    self.send_task(ctx, group, task);
                }
            }
        }
    }

    fn phase_tasks(&self) -> usize {
        match self.phase {
            Phase::Screening | Phase::Transform => self.subcube_pixels.len(),
            Phase::Covariance => self.cov_chunks.len(),
            _ => 0,
        }
    }

    fn begin_phase(&mut self, ctx: &mut ActorContext<SimMsg>, phase: Phase) {
        self.phase = phase;
        self.completed.clear();
        self.outstanding.clear();
        if phase == Phase::Transform {
            // Every sub-cube already sits on the group that screened it, so
            // all transform tasks are dispatched immediately to their owners.
            self.pending.clear();
            for task in 0..self.phase_tasks() {
                let owner = self
                    .screen_owner
                    .get(&task)
                    .copied()
                    .unwrap_or(task % self.groups.len());
                self.send_task(ctx, owner, task);
            }
        } else {
            self.pending = (0..self.phase_tasks()).collect();
            self.prime(ctx);
        }
    }

    fn on_result(&mut self, ctx: &mut ActorContext<SimMsg>, task: usize) {
        if !self.completed.insert(task) {
            return; // duplicate from a replica
        }
        let group = self.outstanding.remove(&task);
        if self.phase == Phase::Screening {
            if let Some(group) = group {
                self.screen_owner.insert(task, group);
            }
        }
        if let (Some(group), Some(next)) = (group, self.pending.pop_front()) {
            self.send_task(ctx, group, next);
        }
        if self.completed.len() == self.phase_tasks() {
            self.advance(ctx);
        }
    }

    fn advance(&mut self, ctx: &mut ActorContext<SimMsg>) {
        match self.phase {
            Phase::Screening => {
                self.phase = Phase::MergeCompute;
                let work = self.cost.merge_work(self.total_unique, self.bands)
                    + self.cost.mean_work(self.total_unique, self.bands);
                ctx.compute(TAG_MERGE, work);
            }
            Phase::Covariance => {
                self.phase = Phase::EigenCompute;
                let work = self
                    .cost
                    .covariance_reduce_work(self.groups.len(), self.bands)
                    + self.cost.eigen_work(self.bands);
                ctx.compute(TAG_EIGEN, work);
            }
            Phase::Transform => {
                self.phase = Phase::Done;
                *self.completion.borrow_mut() = Some(ctx.now().as_secs_f64());
                ctx.halt();
            }
            _ => {}
        }
    }
}

impl Actor<SimMsg> for ManagerActor {
    fn on_start(&mut self, ctx: &mut ActorContext<SimMsg>) {
        self.begin_phase(ctx, Phase::Screening);
    }

    fn on_message(&mut self, ctx: &mut ActorContext<SimMsg>, _from: ActorId, msg: SimMsg) {
        // Results are only meaningful in their own phase: a late duplicate
        // from a replica whose phase already finished must not be mistaken
        // for a result of the current phase.
        match msg {
            SimMsg::UniqueSet { task, unique } => {
                if self.phase != Phase::Screening {
                    return;
                }
                if !self.completed.contains(&task) {
                    self.total_unique += unique;
                }
                self.on_result(ctx, task);
            }
            SimMsg::CovSum { task } if self.phase == Phase::Covariance => {
                self.on_result(ctx, task);
            }
            SimMsg::RgbPart { task } if self.phase == Phase::Transform => {
                self.on_result(ctx, task);
            }
            SimMsg::Ack => {}
            _ => {}
        }
    }

    fn on_compute_done(&mut self, ctx: &mut ActorContext<SimMsg>, tag: u64) {
        match tag {
            TAG_MERGE => {
                // Build the covariance chunks from the merged unique set.
                let groups = self.groups.len();
                let per_chunk = self.total_unique.div_ceil(groups).max(1);
                self.cov_chunks = (0..groups)
                    .map(|i| per_chunk.min(self.total_unique.saturating_sub(i * per_chunk)))
                    .filter(|&c| c > 0)
                    .collect();
                if self.cov_chunks.is_empty() {
                    self.cov_chunks.push(1);
                }
                self.begin_phase(ctx, Phase::Covariance);
            }
            TAG_EIGEN => {
                self.transform_broadcast_done.clear();
                self.begin_phase(ctx, Phase::Transform);
            }
            _ => {}
        }
    }
}

/// Runs one simulated fusion and reports the virtual elapsed time.
pub fn simulate_fusion(params: &SimParams) -> Result<SimReport> {
    if params.workers == 0 {
        return Err(PctError::InvalidConfig(
            "at least one worker is required".into(),
        ));
    }
    let level = params.overhead.replication_level.max(1);
    let specs = partition_rows(
        params.dims,
        params.granularity.sub_cube_count(params.workers),
    )?;
    let subcube_pixels: Vec<usize> = specs.iter().map(|s| s.pixels()).collect();

    // Node 0 hosts the manager (the sensor); nodes 1..=workers host worker
    // members.  Member m of group g lives on node 1 + ((g + m) mod workers),
    // so level-2 replication puts two members on every worker node — the
    // "factor of two" resource cost the paper expects.
    let config = SimConfig {
        nodes: NodeSpec::uniform(params.workers + 1),
        network: params.network,
        faults: FaultPlan::none(),
        max_events: 10_000_000,
    };
    let mut sim: ClusterSim<SimMsg> = ClusterSim::new(config)?;
    let completion: Completion = Rc::new(RefCell::new(None));

    // The manager is registered first so workers can be handed its id; we
    // need the id before constructing it, so reserve id 0 by adding the
    // manager last and telling workers the id in advance is not possible —
    // instead add workers first and the manager afterwards, then fix up by
    // knowing the manager id deterministically: actor ids are assigned in
    // registration order, so the manager's id equals the number of workers
    // registered before it.
    let mut groups: Vec<Vec<ActorId>> = vec![Vec::new(); params.workers];
    let manager_id = ActorId(params.workers * level);
    for (g, group) in groups.iter_mut().enumerate() {
        for m in 0..level {
            let node = NodeId(1 + (g + m) % params.workers);
            let actor =
                WorkerActor::new(manager_id, params.cost, params.overhead, params.dims.bands);
            let id = sim.add_actor(node, Box::new(actor))?;
            group.push(id);
        }
    }
    let manager = ManagerActor {
        cost: params.cost,
        bands: params.dims.bands,
        groups,
        subcube_pixels: subcube_pixels.clone(),
        phase: Phase::Screening,
        pending: VecDeque::new(),
        outstanding: HashMap::new(),
        completed: HashSet::new(),
        total_unique: 0,
        cov_chunks: Vec::new(),
        completion: completion.clone(),
        transform_broadcast_done: HashSet::new(),
        screen_owner: HashMap::new(),
    };
    let actual_manager_id = sim.add_actor(NodeId(0), Box::new(manager))?;
    debug_assert_eq!(actual_manager_id, manager_id);

    let outcome = sim.run()?;
    let elapsed = completion
        .borrow()
        .ok_or_else(|| PctError::InvalidConfig("simulated fusion never completed".into()))?;
    Ok(SimReport {
        workers: params.workers,
        replication_level: level,
        sub_cubes: specs.len(),
        elapsed_secs: elapsed,
        messages: outcome.metrics.messages_sent,
        network_bytes: outcome.metrics.network_bytes,
    })
}

/// Convenience: the simulated sequential (single-worker, non-resilient) time
/// used as the speed-up reference for Figure 4.
pub fn reference_time(dims: CubeDims, cost: &CostModel) -> f64 {
    cost.sequential_total(dims.pixels(), dims.bands)
        .as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_fusion_completes_and_reports_time() {
        let report = simulate_fusion(&SimParams::figure4(4, false)).unwrap();
        assert_eq!(report.workers, 4);
        assert_eq!(report.replication_level, 1);
        assert!(report.elapsed_secs > 0.0);
        assert!(report.messages > 0);
    }

    #[test]
    fn zero_workers_is_rejected() {
        let mut params = SimParams::figure4(1, false);
        params.workers = 0;
        assert!(simulate_fusion(&params).is_err());
    }

    #[test]
    fn more_processors_reduce_elapsed_time() {
        let t1 = simulate_fusion(&SimParams::figure4(1, false))
            .unwrap()
            .elapsed_secs;
        let t4 = simulate_fusion(&SimParams::figure4(4, false))
            .unwrap()
            .elapsed_secs;
        let t16 = simulate_fusion(&SimParams::figure4(16, false))
            .unwrap()
            .elapsed_secs;
        assert!(t4 < t1, "t4={t4} not faster than t1={t1}");
        assert!(t16 < t4, "t16={t16} not faster than t4={t4}");
    }

    #[test]
    fn speedup_is_within_twenty_percent_of_linear_at_sixteen() {
        // The paper: "The concurrent algorithm operates within 20% of linear
        // speedup in both cases."
        let t1 = simulate_fusion(&SimParams::figure4(1, false))
            .unwrap()
            .elapsed_secs;
        let t16 = simulate_fusion(&SimParams::figure4(16, false))
            .unwrap()
            .elapsed_secs;
        let speedup = t1 / t16;
        assert!(
            speedup >= 0.8 * 16.0,
            "speed-up {speedup} below 80% of linear"
        );
        assert!(
            speedup <= 16.5,
            "speed-up {speedup} super-linear, model broken"
        );
    }

    #[test]
    fn resiliency_costs_roughly_replication_plus_ten_percent() {
        // The paper: overhead caused by resiliency is approximately 10% plus
        // the cost of replication.
        for workers in [4usize, 8] {
            let plain = simulate_fusion(&SimParams::figure4(workers, false))
                .unwrap()
                .elapsed_secs;
            let resilient = simulate_fusion(&SimParams::figure4(workers, true))
                .unwrap()
                .elapsed_secs;
            let ratio = resilient / plain;
            assert!(
                (1.9..=2.6).contains(&ratio),
                "resilient/plain ratio {ratio} at {workers} workers outside the paper's 2.0-2.3 ballpark"
            );
        }
    }

    #[test]
    fn over_decomposition_helps_then_hurts() {
        // Figure 5: more sub-cubes than processors enables overlap and
        // improves performance, but performance tails off when sub-cubes get
        // too small (paper: beyond ~32 sub-cubes for this problem size).
        let workers = 8;
        let one = simulate_fusion(&SimParams::figure5(workers, 1))
            .unwrap()
            .elapsed_secs;
        let two = simulate_fusion(&SimParams::figure5(workers, 2))
            .unwrap()
            .elapsed_secs;
        assert!(
            two <= one * 1.001,
            "2x decomposition ({two}) should not be slower than 1x ({one})"
        );
        // Absurdly fine granularity (40 sub-cubes per worker = 320 sub-cubes)
        // drowns in per-message overhead.
        let silly = simulate_fusion(&SimParams::figure5(workers, 40))
            .unwrap()
            .elapsed_secs;
        assert!(
            silly > two,
            "extremely fine granularity ({silly}) should cost more than 2x ({two})"
        );
    }

    #[test]
    fn replication_doubles_messages() {
        let plain = simulate_fusion(&SimParams::figure4(4, false)).unwrap();
        let resilient = simulate_fusion(&SimParams::figure4(4, true)).unwrap();
        assert!(
            resilient.messages > 2 * plain.messages / 10 * 9,
            "replication should add traffic"
        );
        assert!(resilient.network_bytes > plain.network_bytes);
    }
}
