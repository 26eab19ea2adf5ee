//! The discrete-event cluster simulator and its actor programming model.
//!
//! Applications are written as *actors*: reactive processes pinned to a node
//! that change state when a message arrives or a requested compute block
//! finishes — the same reactive model SCPlib uses ("the important transitions
//! between data states occur at the receipt of messages").  The `pct` crate
//! implements the paper's manager and worker threads as actors and runs them
//! on a simulated 16-node 100BaseT cluster to regenerate Figures 4 and 5.

use crate::fault::FaultPlan;
use crate::link::NetworkModel;
use crate::node::{NodeId, NodeSpec, NodeState};
use crate::time::{Duration, SimTime};
use crate::trace::SimMetrics;
use crate::{Result, SimError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of an actor registered with the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub usize);

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor{}", self.0)
    }
}

/// A reactive simulated process.
///
/// All callbacks receive an [`ActorContext`] through which the actor can send
/// messages, request compute blocks, and halt the simulation.  Callbacks run
/// instantaneously in virtual time; only explicit `compute` requests and
/// message transfers advance the clock.
pub trait Actor<M> {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut ActorContext<M>) {}

    /// Called when a message addressed to this actor is delivered.
    fn on_message(&mut self, ctx: &mut ActorContext<M>, from: ActorId, msg: M);

    /// Called when a compute block previously requested with
    /// [`ActorContext::compute`] finishes.  `tag` is the caller-chosen tag.
    fn on_compute_done(&mut self, _ctx: &mut ActorContext<M>, _tag: u64) {}

    /// Called when a timer previously armed with
    /// [`ActorContext::set_timer`] fires.  Timers on dead nodes never fire.
    fn on_timer(&mut self, _ctx: &mut ActorContext<M>, _tag: u64) {}
}

/// Operations an actor can request during a callback.  They are buffered and
/// applied by the simulator in call order once the callback returns, which
/// keeps the borrow structure simple without changing observable behaviour.
enum Op<M> {
    Send { to: ActorId, msg: M, bytes: u64 },
    Compute { tag: u64, work: Duration },
    Timer { tag: u64, delay: Duration },
    KillNode { node: NodeId },
    Halt,
}

/// The interface an actor uses to interact with the simulated world.
pub struct ActorContext<M> {
    now: SimTime,
    self_id: ActorId,
    self_node: NodeId,
    ops: Vec<Op<M>>,
}

impl<M> ActorContext<M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's identifier.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// The node this actor runs on.
    pub fn self_node(&self) -> NodeId {
        self.self_node
    }

    /// Sends `msg` to another actor.  `bytes` is the payload size used by the
    /// network model; the in-memory message `M` itself is delivered intact,
    /// so drivers pass real data while the clock is charged for the bytes the
    /// real system would ship.
    pub fn send(&mut self, to: ActorId, msg: M, bytes: u64) {
        self.ops.push(Op::Send { to, msg, bytes });
    }

    /// Requests a block of CPU work measured in reference-workstation
    /// seconds.  When it completes, [`Actor::on_compute_done`] fires with
    /// `tag`.
    pub fn compute(&mut self, tag: u64, work: Duration) {
        self.ops.push(Op::Compute { tag, work });
    }

    /// Arms a one-shot timer: [`Actor::on_timer`] fires with `tag` after
    /// `delay` of virtual time, unless this actor's node has died by then.
    /// Unlike [`ActorContext::compute`], timers do not occupy the CPU —
    /// they model wall-clock waits (heartbeat periods, sweep intervals,
    /// retransmit deadlines).
    pub fn set_timer(&mut self, tag: u64, delay: Duration) {
        self.ops.push(Op::Timer { tag, delay });
    }

    /// Kills a node immediately (chaos directed *by an actor* rather than
    /// scheduled ahead of time in a [`FaultPlan`]) — the hook a driver's
    /// fault-injection logic uses to anchor kills on protocol events
    /// ("the first transform task was just dispatched") instead of virtual
    /// times.  The node stops computing, sending and receiving; messages
    /// already in flight toward it are dropped at delivery.
    pub fn kill_node(&mut self, node: NodeId) {
        self.ops.push(Op::KillNode { node });
    }

    /// Stops the simulation after the current callback.
    pub fn halt(&mut self) {
        self.ops.push(Op::Halt);
    }
}

/// Queued simulation events.
enum Event<M> {
    Deliver { from: ActorId, to: ActorId, msg: M },
    ComputeDone { actor: ActorId, tag: u64 },
    Timer { actor: ActorId, tag: u64 },
    NodeFailure { node: NodeId },
}

/// What a link-fault hook decides about one inter-node send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Deliver normally under the network model.
    Deliver,
    /// Drop the message in transit (it is charged to the sender's NIC but
    /// never arrives — counted in `messages_dropped`).
    Drop,
    /// Deliver, but add `extra` to the arrival time on top of the modelled
    /// latency — the substrate for delay storms and deterministic reorder
    /// jitter.
    Delay(Duration),
}

/// A pluggable per-send fault hook: called for every inter-node send with
/// the current virtual time and the endpoints, before the network model
/// schedules delivery.  Implementations must be deterministic functions of
/// their inputs and their own (seeded) state for runs to be reproducible.
pub trait LinkFault<M> {
    /// Judges one send.
    fn judge(&mut self, now: SimTime, from: NodeId, to: NodeId, msg: &M) -> LinkVerdict;
}

struct QueuedEvent<M> {
    time: SimTime,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Node descriptions; index is the [`NodeId`].
    pub nodes: Vec<NodeSpec>,
    /// LAN model.
    pub network: NetworkModel,
    /// Scheduled node failures / attacks.
    pub faults: FaultPlan,
    /// Safety valve: maximum number of events to process before reporting a
    /// livelock.  The Figure 4/5 runs need well under a million events.
    pub max_events: u64,
}

impl SimConfig {
    /// A uniform cluster of `n` reference workstations on 100BaseT — the
    /// paper's testbed shape.
    pub fn lan_of_workstations(n: usize) -> Self {
        Self {
            nodes: NodeSpec::uniform(n),
            network: NetworkModel::fast_ethernet_100baset(),
            faults: FaultPlan::none(),
            max_events: 10_000_000,
        }
    }
}

/// Result of a completed simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Virtual time at which the run ended (last event processed or halt).
    pub finished_at: SimTime,
    /// Number of events processed.
    pub events_processed: u64,
    /// Whether an actor called [`ActorContext::halt`].
    pub halted: bool,
    /// Aggregated traffic and utilisation metrics.
    pub metrics: SimMetrics,
}

/// The discrete-event cluster simulator.
pub struct ClusterSim<M> {
    nodes: Vec<NodeState>,
    network: NetworkModel,
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    actor_nodes: Vec<NodeId>,
    queue: BinaryHeap<Reverse<QueuedEvent<M>>>,
    seq: u64,
    now: SimTime,
    metrics: SimMetrics,
    faults: FaultPlan,
    max_events: u64,
    halted: bool,
    link_fault: Option<Box<dyn LinkFault<M>>>,
    clock: Option<Arc<AtomicU64>>,
}

impl<M> ClusterSim<M> {
    /// Creates a simulator from a configuration.
    pub fn new(config: SimConfig) -> Result<Self> {
        if config.nodes.is_empty() {
            return Err(SimError::InvalidConfig(
                "cluster needs at least one node".into(),
            ));
        }
        let metrics = SimMetrics::new(config.nodes.len());
        Ok(Self {
            nodes: config.nodes.into_iter().map(NodeState::new).collect(),
            network: config.network,
            actors: Vec::new(),
            actor_nodes: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            metrics,
            faults: config.faults,
            max_events: config.max_events,
            halted: false,
            link_fault: None,
            clock: None,
        })
    }

    /// Installs a per-send [`LinkFault`] hook (drops, delays, partitions,
    /// reorder jitter).  At most one hook is active; drivers compose
    /// multiple fault kinds inside it.
    pub fn set_link_fault(&mut self, fault: Box<dyn LinkFault<M>>) {
        self.link_fault = Some(fault);
    }

    /// Binds an external clock cell: the simulator stores the current
    /// virtual time (nanoseconds since start) into it whenever the clock
    /// advances.  A driver can wrap the same cell in a `telemetry::Clock`
    /// so spans and histograms measure exact virtual time.
    pub fn bind_clock(&mut self, cell: Arc<AtomicU64>) {
        cell.store(self.now.as_nanos(), Ordering::Relaxed);
        self.clock = Some(cell);
    }

    /// Registers an actor on a node and returns its id.
    pub fn add_actor(&mut self, node: NodeId, actor: Box<dyn Actor<M>>) -> Result<ActorId> {
        if node.0 >= self.nodes.len() {
            return Err(SimError::UnknownEntity {
                kind: "node",
                id: node.0,
            });
        }
        let id = ActorId(self.actors.len());
        self.actors.push(Some(actor));
        self.actor_nodes.push(node);
        Ok(id)
    }

    fn push_event(&mut self, time: SimTime, event: Event<M>) {
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent {
            time,
            seq: self.seq,
            event,
        }));
    }

    /// Runs one actor callback and applies the operations it requested.
    fn dispatch<F>(&mut self, actor_id: ActorId, callback: F)
    where
        F: FnOnce(&mut dyn Actor<M>, &mut ActorContext<M>),
    {
        let Some(slot) = self.actors.get_mut(actor_id.0) else {
            return;
        };
        let Some(mut actor) = slot.take() else { return };
        let node = self.actor_nodes[actor_id.0];
        let mut ctx = ActorContext {
            now: self.now,
            self_id: actor_id,
            self_node: node,
            ops: Vec::new(),
        };
        callback(actor.as_mut(), &mut ctx);
        self.actors[actor_id.0] = Some(actor);
        self.apply_ops(actor_id, node, ctx.ops);
    }

    fn apply_ops(&mut self, from: ActorId, from_node: NodeId, ops: Vec<Op<M>>) {
        for op in ops {
            match op {
                Op::Send { to, msg, bytes } => self.apply_send(from, from_node, to, msg, bytes),
                Op::Compute { tag, work } => {
                    if !self.nodes[from_node.0].alive {
                        continue;
                    }
                    let done = self.nodes[from_node.0].reserve_cpu(self.now, work);
                    self.push_event(done, Event::ComputeDone { actor: from, tag });
                }
                Op::Timer { tag, delay } => {
                    if !self.nodes[from_node.0].alive {
                        continue;
                    }
                    self.push_event(self.now + delay, Event::Timer { actor: from, tag });
                }
                Op::KillNode { node } => {
                    if node.0 < self.nodes.len() && self.nodes[node.0].alive {
                        self.nodes[node.0].alive = false;
                        self.metrics.node_failures += 1;
                    }
                }
                Op::Halt => self.halted = true,
            }
        }
    }

    fn apply_send(&mut self, from: ActorId, from_node: NodeId, to: ActorId, msg: M, bytes: u64) {
        if to.0 >= self.actors.len() {
            self.metrics.messages_dropped += 1;
            return;
        }
        let to_node = self.actor_nodes[to.0];
        if !self.nodes[from_node.0].alive {
            self.metrics.messages_dropped += 1;
            return;
        }
        self.metrics.messages_sent += 1;
        self.metrics.bytes_sent += bytes;

        if from_node == to_node {
            // Intra-node delivery: memory copy, no network involvement.  A
            // small fixed overhead models the queue hand-off.
            let deliver_at = self.now + Duration::from_micros(5);
            self.push_event(deliver_at, Event::Deliver { from, to, msg });
            return;
        }

        // Consult the link-fault hook before the network model runs.  A
        // dropped message still occupies the sender's NIC (the bytes were
        // transmitted — they just never arrive).
        let verdict = match &mut self.link_fault {
            Some(hook) => hook.judge(self.now, from_node, to_node, &msg),
            None => LinkVerdict::Deliver,
        };

        let occupancy = self.network.sender_occupancy(bytes);
        let tx_done = self.nodes[from_node.0].reserve_tx(self.now, occupancy, bytes);
        if let LinkVerdict::Drop = verdict {
            self.metrics.messages_dropped += 1;
            self.metrics.network_bytes += bytes;
            return;
        }
        let arrival = tx_done + self.network.latency;
        let rx_occupancy = self.network.serialization_time(bytes);
        let delivered = if let LinkVerdict::Delay(extra) = verdict {
            // The network holds the frame: it bypasses the receive-NIC
            // FIFO reservation (which would otherwise preserve send order)
            // and lands when the network releases it — this is what lets a
            // delay verdict genuinely reorder deliveries.
            arrival + extra + rx_occupancy
        } else {
            self.nodes[to_node.0].reserve_rx(arrival, rx_occupancy, bytes)
        };
        self.metrics.network_bytes += bytes;
        self.push_event(delivered, Event::Deliver { from, to, msg });
    }

    /// Runs the simulation until the event queue drains, an actor halts it,
    /// or the event budget is exhausted.
    pub fn run(&mut self) -> Result<SimOutcome> {
        // Schedule configured node failures.
        let failures: Vec<(SimTime, NodeId)> = self.faults.failures().to_vec();
        for (time, node) in failures {
            self.push_event(time, Event::NodeFailure { node });
        }

        // Start every actor.
        for i in 0..self.actors.len() {
            self.dispatch(ActorId(i), |actor, ctx| actor.on_start(ctx));
            if self.halted {
                break;
            }
        }

        let mut processed = 0u64;
        while !self.halted {
            let Some(Reverse(next)) = self.queue.pop() else {
                break;
            };
            processed += 1;
            if processed > self.max_events {
                return Err(SimError::EventBudgetExhausted { processed });
            }
            self.now = self.now.max(next.time);
            if let Some(cell) = &self.clock {
                cell.store(self.now.as_nanos(), Ordering::Relaxed);
            }
            match next.event {
                Event::Deliver { from, to, msg } => {
                    let to_node = self.actor_nodes[to.0];
                    if !self.nodes[to_node.0].alive || self.actors[to.0].is_none() {
                        self.metrics.messages_dropped += 1;
                        continue;
                    }
                    self.metrics.messages_delivered += 1;
                    self.dispatch(to, |actor, ctx| actor.on_message(ctx, from, msg));
                }
                Event::ComputeDone { actor, tag } => {
                    let node = self.actor_nodes[actor.0];
                    if !self.nodes[node.0].alive {
                        continue;
                    }
                    self.dispatch(actor, |a, ctx| a.on_compute_done(ctx, tag));
                }
                Event::Timer { actor, tag } => {
                    let node = self.actor_nodes[actor.0];
                    if !self.nodes[node.0].alive {
                        continue;
                    }
                    self.dispatch(actor, |a, ctx| a.on_timer(ctx, tag));
                }
                Event::NodeFailure { node } => {
                    if node.0 < self.nodes.len() {
                        self.nodes[node.0].alive = false;
                        self.metrics.node_failures += 1;
                    }
                }
            }
        }

        for (i, node) in self.nodes.iter().enumerate() {
            self.metrics.per_node_busy[i] = node.cpu_busy;
            self.metrics.per_node_bytes_sent[i] = node.bytes_sent;
        }

        Ok(SimOutcome {
            finished_at: self.now,
            events_processed: processed,
            halted: self.halted,
            metrics: self.metrics.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair of actors playing ping-pong a fixed number of times.
    struct PingPong {
        peer: Option<ActorId>,
        remaining: u32,
        initiator: bool,
        finished_at: std::rc::Rc<std::cell::Cell<f64>>,
    }

    impl Actor<u32> for PingPong {
        fn on_start(&mut self, ctx: &mut ActorContext<u32>) {
            if self.initiator {
                let peer = self.peer.expect("initiator knows its peer");
                ctx.send(peer, self.remaining, 1000);
            }
        }
        fn on_message(&mut self, ctx: &mut ActorContext<u32>, from: ActorId, msg: u32) {
            if msg == 0 {
                self.finished_at.set(ctx.now().as_secs_f64());
                ctx.halt();
            } else {
                ctx.send(from, msg - 1, 1000);
            }
        }
    }

    fn pingpong_sim(network: NetworkModel, rounds: u32) -> (f64, SimOutcome) {
        let config = SimConfig {
            nodes: NodeSpec::uniform(2),
            network,
            faults: FaultPlan::none(),
            max_events: 100_000,
        };
        let mut sim: ClusterSim<u32> = ClusterSim::new(config).unwrap();
        let finished = std::rc::Rc::new(std::cell::Cell::new(0.0));
        let a = sim
            .add_actor(
                NodeId(0),
                Box::new(PingPong {
                    peer: None,
                    remaining: rounds,
                    initiator: false,
                    finished_at: finished.clone(),
                }),
            )
            .unwrap();
        let _b = sim
            .add_actor(
                NodeId(1),
                Box::new(PingPong {
                    peer: Some(a),
                    remaining: rounds,
                    initiator: true,
                    finished_at: finished.clone(),
                }),
            )
            .unwrap();
        let outcome = sim.run().unwrap();
        (finished.get(), outcome)
    }

    #[test]
    fn ping_pong_time_scales_with_rounds() {
        let (t10, o10) = pingpong_sim(NetworkModel::fast_ethernet_100baset(), 10);
        let (t20, o20) = pingpong_sim(NetworkModel::fast_ethernet_100baset(), 20);
        assert!(o10.halted && o20.halted);
        assert!(t10 > 0.0);
        // Twice the rounds, roughly twice the time.
        assert!((t20 / t10 - 2.0).abs() < 0.15, "ratio {}", t20 / t10);
    }

    #[test]
    fn ideal_network_ping_pong_is_instant() {
        let (t, outcome) = pingpong_sim(NetworkModel::ideal(), 50);
        assert!(outcome.halted);
        assert!(t < 1e-6);
    }

    #[test]
    fn message_accounting_matches_protocol() {
        let (_, outcome) = pingpong_sim(NetworkModel::fast_ethernet_100baset(), 10);
        // 11 messages cross the network (rounds 10..=0).
        assert_eq!(outcome.metrics.messages_sent, 11);
        assert_eq!(outcome.metrics.messages_delivered, 11);
        assert_eq!(outcome.metrics.messages_dropped, 0);
        assert_eq!(outcome.metrics.bytes_sent, 11 * 1000);
    }

    /// An actor that performs a fixed compute block then halts.
    struct Computer {
        work_secs: f64,
        done_at: std::rc::Rc<std::cell::Cell<f64>>,
    }
    impl Actor<()> for Computer {
        fn on_start(&mut self, ctx: &mut ActorContext<()>) {
            ctx.compute(1, Duration::from_secs_f64(self.work_secs));
        }
        fn on_message(&mut self, _ctx: &mut ActorContext<()>, _from: ActorId, _msg: ()) {}
        fn on_compute_done(&mut self, ctx: &mut ActorContext<()>, tag: u64) {
            assert_eq!(tag, 1);
            self.done_at.set(ctx.now().as_secs_f64());
        }
    }

    #[test]
    fn compute_blocks_on_one_node_serialise() {
        let config = SimConfig::lan_of_workstations(1);
        let mut sim: ClusterSim<()> = ClusterSim::new(config).unwrap();
        let d1 = std::rc::Rc::new(std::cell::Cell::new(0.0));
        let d2 = std::rc::Rc::new(std::cell::Cell::new(0.0));
        sim.add_actor(
            NodeId(0),
            Box::new(Computer {
                work_secs: 2.0,
                done_at: d1.clone(),
            }),
        )
        .unwrap();
        sim.add_actor(
            NodeId(0),
            Box::new(Computer {
                work_secs: 3.0,
                done_at: d2.clone(),
            }),
        )
        .unwrap();
        sim.run().unwrap();
        // Same CPU: second actor finishes only after both blocks ran.
        assert!((d1.get() - 2.0).abs() < 1e-9);
        assert!((d2.get() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn compute_blocks_on_different_nodes_run_concurrently() {
        let config = SimConfig::lan_of_workstations(2);
        let mut sim: ClusterSim<()> = ClusterSim::new(config).unwrap();
        let d1 = std::rc::Rc::new(std::cell::Cell::new(0.0));
        let d2 = std::rc::Rc::new(std::cell::Cell::new(0.0));
        sim.add_actor(
            NodeId(0),
            Box::new(Computer {
                work_secs: 2.0,
                done_at: d1.clone(),
            }),
        )
        .unwrap();
        sim.add_actor(
            NodeId(1),
            Box::new(Computer {
                work_secs: 3.0,
                done_at: d2.clone(),
            }),
        )
        .unwrap();
        let outcome = sim.run().unwrap();
        assert!((d1.get() - 2.0).abs() < 1e-9);
        assert!((d2.get() - 3.0).abs() < 1e-9);
        assert_eq!(outcome.finished_at, SimTime::from_secs_f64(3.0));
    }

    /// An actor that sends to a peer on a node that gets killed.
    struct Talker {
        peer: ActorId,
    }
    impl Actor<u8> for Talker {
        fn on_start(&mut self, ctx: &mut ActorContext<u8>) {
            ctx.compute(0, Duration::from_secs(2));
        }
        fn on_message(&mut self, _ctx: &mut ActorContext<u8>, _from: ActorId, _msg: u8) {}
        fn on_compute_done(&mut self, ctx: &mut ActorContext<u8>, _tag: u64) {
            ctx.send(self.peer, 7, 100);
        }
    }
    struct Sink;
    impl Actor<u8> for Sink {
        fn on_message(&mut self, _ctx: &mut ActorContext<u8>, _from: ActorId, _msg: u8) {
            panic!("dead node must not receive messages");
        }
    }

    #[test]
    fn messages_to_killed_nodes_are_dropped() {
        let mut config = SimConfig::lan_of_workstations(2);
        config.faults = FaultPlan::kill_at(NodeId(1), SimTime::from_secs_f64(1.0));
        let mut sim: ClusterSim<u8> = ClusterSim::new(config).unwrap();
        // Register the sink first so the talker knows its id.
        let sink = sim.add_actor(NodeId(1), Box::new(Sink)).unwrap();
        sim.add_actor(NodeId(0), Box::new(Talker { peer: sink }))
            .unwrap();
        let outcome = sim.run().unwrap();
        assert_eq!(outcome.metrics.node_failures, 1);
        assert_eq!(outcome.metrics.messages_dropped, 1);
        assert_eq!(outcome.metrics.messages_delivered, 0);
    }

    #[test]
    fn empty_cluster_is_rejected() {
        let config = SimConfig {
            nodes: vec![],
            network: NetworkModel::ideal(),
            faults: FaultPlan::none(),
            max_events: 100,
        };
        assert!(ClusterSim::<u8>::new(config).is_err());
    }

    #[test]
    fn adding_actor_to_missing_node_fails() {
        let mut sim: ClusterSim<u8> = ClusterSim::new(SimConfig::lan_of_workstations(2)).unwrap();
        assert!(sim.add_actor(NodeId(5), Box::new(Sink)).is_err());
    }

    /// An actor that floods itself with messages forever, to exercise the
    /// event budget safety valve.
    struct Flood;
    impl Actor<u8> for Flood {
        fn on_start(&mut self, ctx: &mut ActorContext<u8>) {
            let me = ctx.self_id();
            ctx.send(me, 0, 1);
        }
        fn on_message(&mut self, ctx: &mut ActorContext<u8>, _from: ActorId, _msg: u8) {
            let me = ctx.self_id();
            ctx.send(me, 0, 1);
        }
    }

    /// An actor that re-arms a periodic timer and counts the ticks.
    struct Ticker {
        period: Duration,
        ticks: std::rc::Rc<std::cell::Cell<u32>>,
        stop_after: u32,
    }
    impl Actor<u8> for Ticker {
        fn on_start(&mut self, ctx: &mut ActorContext<u8>) {
            ctx.set_timer(1, self.period);
        }
        fn on_message(&mut self, _ctx: &mut ActorContext<u8>, _from: ActorId, _msg: u8) {}
        fn on_timer(&mut self, ctx: &mut ActorContext<u8>, tag: u64) {
            assert_eq!(tag, 1);
            self.ticks.set(self.ticks.get() + 1);
            if self.ticks.get() < self.stop_after {
                ctx.set_timer(1, self.period);
            } else {
                ctx.halt();
            }
        }
    }

    #[test]
    fn timers_fire_periodically_on_virtual_time() {
        let mut sim: ClusterSim<u8> = ClusterSim::new(SimConfig::lan_of_workstations(1)).unwrap();
        let ticks = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.add_actor(
            NodeId(0),
            Box::new(Ticker {
                period: Duration::from_millis(50),
                ticks: ticks.clone(),
                stop_after: 4,
            }),
        )
        .unwrap();
        let outcome = sim.run().unwrap();
        assert_eq!(ticks.get(), 4);
        assert_eq!(outcome.finished_at, SimTime::from_nanos(200_000_000));
    }

    #[test]
    fn timers_on_killed_nodes_never_fire() {
        let mut config = SimConfig::lan_of_workstations(1);
        config.faults = FaultPlan::kill_at(NodeId(0), SimTime::from_nanos(75_000_000));
        let mut sim: ClusterSim<u8> = ClusterSim::new(config).unwrap();
        let ticks = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.add_actor(
            NodeId(0),
            Box::new(Ticker {
                period: Duration::from_millis(50),
                ticks: ticks.clone(),
                stop_after: 10,
            }),
        )
        .unwrap();
        let outcome = sim.run().unwrap();
        // Only the 50 ms tick precedes the 75 ms kill.
        assert_eq!(ticks.get(), 1);
        assert!(!outcome.halted);
    }

    /// An actor that kills a target node on start, then messages it.
    struct Assassin {
        victim_node: NodeId,
        victim_actor: ActorId,
    }
    impl Actor<u8> for Assassin {
        fn on_start(&mut self, ctx: &mut ActorContext<u8>) {
            ctx.kill_node(self.victim_node);
            ctx.send(self.victim_actor, 1, 100);
        }
        fn on_message(&mut self, _ctx: &mut ActorContext<u8>, _from: ActorId, _msg: u8) {}
    }

    #[test]
    fn actor_directed_kills_take_effect_immediately() {
        let mut sim: ClusterSim<u8> = ClusterSim::new(SimConfig::lan_of_workstations(2)).unwrap();
        let sink = sim.add_actor(NodeId(1), Box::new(Sink)).unwrap();
        sim.add_actor(
            NodeId(0),
            Box::new(Assassin {
                victim_node: NodeId(1),
                victim_actor: sink,
            }),
        )
        .unwrap();
        let outcome = sim.run().unwrap();
        assert_eq!(outcome.metrics.node_failures, 1);
        assert_eq!(outcome.metrics.messages_delivered, 0);
        assert_eq!(outcome.metrics.messages_dropped, 1);
    }

    /// Drops the first send, delays the second by a fixed amount, then
    /// delivers everything else untouched.
    struct DropThenDelay {
        seen: u32,
    }
    impl LinkFault<u32> for DropThenDelay {
        fn judge(&mut self, _now: SimTime, _from: NodeId, _to: NodeId, _msg: &u32) -> LinkVerdict {
            self.seen += 1;
            match self.seen {
                1 => LinkVerdict::Drop,
                2 => LinkVerdict::Delay(Duration::from_secs(1)),
                _ => LinkVerdict::Deliver,
            }
        }
    }

    /// Sends `count` messages to a peer on start; the peer records arrival
    /// times.
    struct Burst {
        peer: ActorId,
        count: u32,
    }
    impl Actor<u32> for Burst {
        fn on_start(&mut self, ctx: &mut ActorContext<u32>) {
            for i in 0..self.count {
                ctx.send(self.peer, i, 100);
            }
        }
        fn on_message(&mut self, _ctx: &mut ActorContext<u32>, _from: ActorId, _msg: u32) {}
    }
    struct Arrivals {
        log: std::rc::Rc<std::cell::RefCell<Vec<(u32, SimTime)>>>,
    }
    impl Actor<u32> for Arrivals {
        fn on_message(&mut self, ctx: &mut ActorContext<u32>, _from: ActorId, msg: u32) {
            self.log.borrow_mut().push((msg, ctx.now()));
        }
    }

    #[test]
    fn link_faults_drop_and_delay_sends() {
        let mut sim: ClusterSim<u32> = ClusterSim::new(SimConfig::lan_of_workstations(2)).unwrap();
        sim.set_link_fault(Box::new(DropThenDelay { seen: 0 }));
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let rx = sim
            .add_actor(NodeId(1), Box::new(Arrivals { log: log.clone() }))
            .unwrap();
        sim.add_actor(NodeId(0), Box::new(Burst { peer: rx, count: 3 }))
            .unwrap();
        let outcome = sim.run().unwrap();
        assert_eq!(outcome.metrics.messages_dropped, 1);
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        // Message 2 (plain) arrives before message 1 (delayed a second):
        // the delay verdict reorders deliveries.
        assert_eq!(log[0].0, 2);
        assert_eq!(log[1].0, 1);
        assert!(log[1].1.since(log[0].1) >= Duration::from_secs_f64(0.9));
    }

    #[test]
    fn bound_clock_tracks_virtual_time() {
        use std::sync::atomic::Ordering;
        let mut sim: ClusterSim<u8> = ClusterSim::new(SimConfig::lan_of_workstations(1)).unwrap();
        let cell = Arc::new(AtomicU64::new(u64::MAX));
        sim.bind_clock(cell.clone());
        assert_eq!(cell.load(Ordering::Relaxed), 0);
        let ticks = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.add_actor(
            NodeId(0),
            Box::new(Ticker {
                period: Duration::from_millis(10),
                ticks,
                stop_after: 3,
            }),
        )
        .unwrap();
        let outcome = sim.run().unwrap();
        assert_eq!(cell.load(Ordering::Relaxed), outcome.finished_at.as_nanos());
        assert_eq!(cell.load(Ordering::Relaxed), 30_000_000);
    }

    #[test]
    fn event_budget_detects_livelock() {
        let mut config = SimConfig::lan_of_workstations(1);
        config.max_events = 1000;
        let mut sim: ClusterSim<u8> = ClusterSim::new(config).unwrap();
        sim.add_actor(NodeId(0), Box::new(Flood)).unwrap();
        assert!(matches!(
            sim.run(),
            Err(SimError::EventBudgetExhausted { .. })
        ));
    }
}
