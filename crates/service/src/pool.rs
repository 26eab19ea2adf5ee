//! The long-lived worker pool shared by every job.
//!
//! Four lanes.  The three message-plane lanes are each a set of replica
//! groups with one owner, a [`pct::ResilientManagerState`] (membership,
//! kill switches, member handles, regeneration):
//!
//! * **standard** — worker `svc<i>` is a level-1 group whose member
//!   `svc<i>#0` is a thread running the replica members' own loop
//!   ([`pct::resilient::member_loop`]): it registers a kill switch in the
//!   pool's shared [`AttackInjector`] and heartbeats the manager.  A lost
//!   worker is not replaced: the lane refuses, and the group is retired;
//! * **resilient** — replica groups `rg<i>` of the configured level, whose
//!   lost members are regenerated;
//! * **shared-memory** — in-process executor threads that run whole jobs
//!   start-to-finish against the shared `Arc` cube with **zero protocol
//!   messages**: work arrives over a plain channel and the pipeline is the
//!   sequential reference (`SequentialPct::run`), which *is* the
//!   service's byte-identity contract.  Results return over a plain channel
//!   too (they carry the full output); the executor then rings the
//!   [`Doorbell`], the same wake-up clients use, so the blocked scheduler
//!   collects them at once.  The cheapest path for small cubes;
//! * **remote** — worker *processes* behind the versioned [`wire`] protocol:
//!   worker `rw<i>` is a level-1 group whose member `rw<i>#0` is the mailbox
//!   of its [`crate::remote::RemoteLane`] bridge, and which, like a standard
//!   worker, is retired when lost.  Same task loop, same heartbeat cadence,
//!   same watchdog — across a process boundary.
//!
//! The scheduler addresses the message-plane lanes through the manager
//! [`ThreadContext`] and the shared-memory lane through [`InlineLane`];
//! all threads are spawned once at service start and live until shutdown —
//! no per-request pipeline spawning.
//!
//! A *hosted* pool (started with a host) has the standard and resilient
//! lanes only, and starts no thread: every member, and every replacement
//! the resilient lane regenerates, is a mailbox bound under its routing
//! name and handed to the host, which delivers its messages and answers
//! for it on virtual time.

use crate::config::PoolConfig;
use crate::job::{BackendKind, JobId};
use crate::remote::RemoteLane;
use crate::Result;
use hsi::HyperCube;
use pct::distributed::MANAGER;
use pct::messages::PctMessage;
use pct::resilient::{member_loop, ResilientManagerState};
use pct::{FusionOutput, PctConfig, SequentialPct};
use resilience::attack::AttackInjector;
use resilience::{KillSwitch, MemberId};
use scp::{Envelope, Router, Runtime, ScpError, ThreadContext, ThreadHandle};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// A member's mailbox and kill switch, handed to the host of a hosted pool.
pub(crate) type HostedMember = (ThreadContext<PctMessage>, KillSwitch);

/// Starts one pool member under its routing name: a [`member_loop`] thread,
/// or (`host` given) a mailbox handed to the host.
fn member_start(
    runtime: &Runtime<PctMessage>,
    host: Option<&Sender<HostedMember>>,
) -> impl FnMut(&str, KillSwitch) -> scp::Result<Option<ThreadHandle<()>>> + Send + 'static {
    let runtime = runtime.clone();
    let host = host.cloned();
    move |name, kill| match &host {
        None => runtime
            .spawn(name, move |ctx| member_loop(ctx, kill))
            .map(Some),
        Some(host) => {
            // A host that has gone drops the mailbox: a dead member.
            let _ = host.send((runtime.context(name)?, kill));
            Ok(None)
        }
    }
}

/// The sender name of every doorbell ring.  Pool members are named
/// `svc<i>#0`, `rg<i>#<n>`, `shm<i>` and `rw<i>#0`, so none can have it.
const DOORBELL: &str = "~doorbell";

/// The one way to wake the scheduler from outside its mailbox: a zero-payload
/// envelope posted to the manager under the reserved [`DOORBELL`] name.  The
/// scheduler blocks on that mailbox alone, so whoever changes something it
/// would otherwise have to poll — a submission, a cancellation, the shutdown
/// flag, a finished shared-memory job — rings after making the change.  A
/// ring is a queued message, not an edge: one that lands while the scheduler
/// is mid-turn is found by its next receive.
#[derive(Clone)]
pub(crate) struct Doorbell(Router<PctMessage>);

impl Doorbell {
    pub(crate) fn new(router: Router<PctMessage>) -> Self {
        Self(router)
    }

    /// Wakes the scheduler.  A ring into a stopped service finds the
    /// manager mailbox gone; nothing is left to wake, so the error is
    /// ignored.
    pub(crate) fn ring(&self) {
        let _ = self.0.send(DOORBELL, MANAGER, PctMessage::Heartbeat);
    }

    /// Whether `envelope` is a ring rather than a member's message.
    pub(crate) fn rang(envelope: &Envelope<PctMessage>) -> bool {
        envelope.from == DOORBELL
    }
}

/// One whole job handed to a shared-memory executor.
pub(crate) struct InlineJob {
    pub job: JobId,
    pub cube: Arc<HyperCube>,
    pub config: PctConfig,
}

/// What a shared-memory executor sends back.
pub(crate) struct InlineResult {
    pub executor: String,
    pub job: JobId,
    pub result: std::result::Result<FusionOutput, String>,
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// The in-process shared-memory executor lane.
pub(crate) struct InlineLane {
    /// Names of the executors (`shm0`, `shm1`, ...).
    pub executors: Vec<String>,
    senders: HashMap<String, Sender<InlineJob>>,
    /// Results from every executor, drained by the scheduler.
    pub results: Receiver<InlineResult>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl InlineLane {
    fn start(doorbell: &Doorbell, count: usize) -> InlineLane {
        let (result_tx, results) = std::sync::mpsc::channel::<InlineResult>();
        let mut executors = Vec::new();
        let mut senders = HashMap::new();
        let mut handles = Vec::new();
        for i in 0..count {
            let name = format!("shm{i}");
            let (tx, rx) = std::sync::mpsc::channel::<InlineJob>();
            let result_tx = result_tx.clone();
            let thread_name = name.clone();
            let doorbell = doorbell.clone();
            let handle = std::thread::Builder::new()
                .name(format!("fusiond-{name}"))
                .spawn(move || {
                    // The executor loop: one whole job per message, computed
                    // by the sequential reference over the shared cube, which
                    // is byte-identical to every other lane by the service's
                    // determinism contract.  A panic inside the pipeline is
                    // caught and reported as a job failure — otherwise the
                    // job would stay Running forever (hanging every waiter
                    // and shutdown) and the slot would be lost.
                    while let Ok(work) = rx.recv() {
                        let result =
                            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                SequentialPct::new(work.config).run(&work.cube)
                            })) {
                                Ok(run) => run.map_err(|e| e.to_string()),
                                Err(panic) => Err(format!(
                                    "shared-memory executor panicked: {}",
                                    panic_message(panic.as_ref())
                                )),
                            };
                        if result_tx
                            .send(InlineResult {
                                executor: thread_name.clone(),
                                job: work.job,
                                result,
                            })
                            .is_err()
                        {
                            return;
                        }
                        doorbell.ring();
                    }
                })
                .expect("failed to spawn shared-memory executor");
            executors.push(name.clone());
            senders.insert(name, tx);
            handles.push(handle);
        }
        InlineLane {
            executors,
            senders,
            results,
            handles,
        }
    }

    /// Hands one whole job to a named executor.  Returns whether the
    /// executor accepted it (false only if its thread died).
    pub(crate) fn dispatch(&self, executor: &str, work: InlineJob) -> bool {
        match self.senders.get(executor) {
            Some(tx) => tx.send(work).is_ok(),
            None => false,
        }
    }

    /// Closes the work channels and joins the executors.  Results already
    /// sent stay readable until the lane is dropped.
    fn shutdown(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Starts incarnation 0 of each member with `start` and refuses every
/// replacement: the start effect of a lane whose groups are not regenerated,
/// so a lost member retires its group.
fn without_replacements(
    mut start: impl FnMut(&str, KillSwitch) -> scp::Result<Option<ThreadHandle<()>>> + Send + 'static,
) -> impl FnMut(&str, KillSwitch) -> scp::Result<Option<ThreadHandle<()>>> + Send + 'static {
    move |name, kill| match MemberId::parse(name) {
        Some(member) if member.incarnation == 0 => start(name, kill),
        _ => Err(ScpError::UnknownDestination(name.to_string())),
    }
}

pub(crate) struct WorkerPool {
    pub runtime: Runtime<PctMessage>,
    /// The replica groups of each message-plane lane, each lane with its
    /// one owner (membership, kill switches, regeneration, member handles).
    pub lanes: BTreeMap<BackendKind, ResilientManagerState>,
    /// The kill-switch registry the standard and resilient lanes share.
    pub injector: AttackInjector,
    /// The in-process shared-memory executor lane.
    pub inline: InlineLane,
    /// The remote worker-process lane (wire protocol over TCP).
    pub remote: RemoteLane,
}

impl WorkerPool {
    /// Spawns the pool and returns it together with the manager context the
    /// scheduler drives it through.  Start-up is all-or-nothing: when a lane
    /// fails to start, every lane started before it is shut down and joined
    /// before the error returns.  With a `host`, the pool starts no thread:
    /// each member's mailbox and kill switch go to the host instead.
    pub(crate) fn start(
        config: &PoolConfig,
        host: Option<Sender<HostedMember>>,
    ) -> Result<(WorkerPool, ThreadContext<PctMessage>)> {
        let runtime: Runtime<PctMessage> = Runtime::new();
        let ctx = runtime.context(MANAGER)?;
        let inline = InlineLane::start(&Doorbell::new(runtime.router()), 0);
        let mut pool = WorkerPool {
            runtime,
            lanes: BTreeMap::new(),
            injector: AttackInjector::new(),
            inline,
            remote: RemoteLane::default(),
        };
        match pool.start_lanes(config, host.as_ref()) {
            Ok(()) => Ok((pool, ctx)),
            Err(e) => {
                pool.shutdown(&ctx);
                Err(e)
            }
        }
    }

    /// Starts the resilient, standard, shared-memory and remote lanes, in
    /// that order.  Standard workers are level-1 groups whose replacements
    /// are refused, and they register their kill switches in the *same*
    /// injector as the replica members, so one attack surface
    /// (`inject_attack`, `ChaosPlan`) covers both lanes.  A remote worker
    /// is a level-1 group whose one member is the bridge mailbox its lane
    /// bound; its attack surface is the process, not the injector.
    fn start_lanes(
        &mut self,
        config: &PoolConfig,
        host: Option<&Sender<HostedMember>>,
    ) -> Result<()> {
        let groups = |prefix, n| (0..n).map(|i| format!("{prefix}{i}")).collect::<Vec<_>>();
        let resilient = ResilientManagerState::build(
            &groups("rg", config.replica_groups),
            config.replication_level.max(1),
            self.injector.clone(),
            member_start(&self.runtime, host),
        )?;
        self.lanes.insert(BackendKind::Resilient, resilient);
        let standard = ResilientManagerState::build(
            &groups("svc", config.standard_workers),
            1,
            self.injector.clone(),
            without_replacements(member_start(&self.runtime, host)),
        )?;
        self.lanes.insert(BackendKind::Standard, standard);
        self.inline = InlineLane::start(&self.doorbell(), config.shared_memory_executors);
        self.remote = RemoteLane::start(&self.runtime, &config.remote_workers)?;
        let remote = ResilientManagerState::build(
            &self.remote.workers,
            1,
            AttackInjector::new(),
            without_replacements(|_, _| Ok(None)),
        )?;
        self.lanes.insert(BackendKind::Remote, remote);
        Ok(())
    }

    /// A doorbell onto this pool's manager mailbox.
    pub(crate) fn doorbell(&self) -> Doorbell {
        Doorbell::new(self.runtime.router())
    }

    /// The execution slots of a lane, in start order: its groups (`rg2`
    /// before `rg10`), or its executors.
    pub(crate) fn slots(&self, lane: BackendKind) -> Vec<String> {
        let Some(state) = self.lanes.get(&lane) else {
            return self.inline.executors.clone();
        };
        let mut groups: Vec<String> = state.groups.keys().cloned().collect();
        groups.sort_by_key(|name| (name.len(), name.clone()));
        groups
    }

    /// How many execution slots a lane has in service.
    pub(crate) fn capacity(&self, lane: BackendKind) -> usize {
        match self.lanes.get(&lane) {
            Some(state) => state.groups.len(),
            None => self.inline.executors.len(),
        }
    }

    /// The message-plane lane `group` belongs to, while it is in service.
    pub(crate) fn lane_of(&self, group: &str) -> Option<BackendKind> {
        self.lanes
            .iter()
            .find_map(|(lane, state)| state.groups.contains_key(group).then_some(*lane))
    }

    /// Shuts all four lanes down.
    ///
    /// # Panics
    /// Re-raises the first panic of a member thread (see
    /// [`ResilientManagerState::shutdown`]).
    pub(crate) fn shutdown(mut self, ctx: &ThreadContext<PctMessage>) {
        // Members without a thread — remote bridges, a host's mailboxes —
        // are the pool's to stop; a member lost earlier has a dead mailbox
        // and the send just fails.
        for state in self.lanes.values() {
            for member in state.members() {
                let _ = ctx.send(&member.routing_name(), PctMessage::Shutdown);
            }
        }
        self.inline.shutdown();
        self.remote.shutdown();
        for state in self.lanes.into_values() {
            state.shutdown(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi::{SceneConfig, SceneGenerator};

    #[test]
    fn pool_starts_and_shuts_down_idle() {
        let config = PoolConfig {
            standard_workers: 2,
            replica_groups: 2,
            replication_level: 2,
            shared_memory_executors: 2,
            ..PoolConfig::default()
        };
        let (pool, ctx) = WorkerPool::start(&config, None).unwrap();
        assert_eq!(pool.slots(BackendKind::Standard), ["svc0", "svc1"]);
        assert_eq!(pool.slots(BackendKind::Resilient), ["rg0", "rg1"]);
        assert_eq!(pool.slots(BackendKind::SharedMemory), ["shm0", "shm1"]);
        assert!(pool.slots(BackendKind::Remote).is_empty());
        let standard = pool.lanes[&BackendKind::Standard].members();
        assert_eq!(
            standard,
            [MemberId::new("svc0", 0), MemberId::new("svc1", 0)]
        );
        assert_eq!(pool.lanes[&BackendKind::Resilient].members().len(), 4);
        assert_eq!(
            pool.injector.targets(),
            ["rg0#0", "rg0#1", "rg1#0", "rg1#1", "svc0#0", "svc1#0"],
            "standard workers share the replica members' kill registry"
        );
        pool.shutdown(&ctx);
    }

    #[test]
    fn pool_can_run_without_a_resilient_lane() {
        let config = PoolConfig {
            standard_workers: 1,
            replica_groups: 0,
            shared_memory_executors: 0,
            ..PoolConfig::default()
        };
        let (pool, ctx) = WorkerPool::start(&config, None).unwrap();
        assert_eq!(pool.capacity(BackendKind::Resilient), 0);
        assert_eq!(pool.capacity(BackendKind::SharedMemory), 0);
        assert!(pool.lanes[&BackendKind::Resilient].members().is_empty());
        assert!(pool.injector.attack_log().is_empty());
        pool.shutdown(&ctx);
    }

    #[test]
    fn inline_lane_computes_the_sequential_reference() {
        let (pool, ctx) = WorkerPool::start(
            &PoolConfig {
                standard_workers: 1,
                replica_groups: 0,
                shared_memory_executors: 1,
                ..PoolConfig::default()
            },
            None,
        )
        .unwrap();
        let cube = Arc::new(
            SceneGenerator::new(SceneConfig::small(11))
                .unwrap()
                .generate(),
        );
        assert!(pool.inline.dispatch(
            "shm0",
            InlineJob {
                job: 42,
                cube: Arc::clone(&cube),
                config: PctConfig::paper(),
            }
        ));
        assert!(!pool.inline.dispatch(
            "shm9",
            InlineJob {
                job: 1,
                cube: Arc::clone(&cube),
                config: PctConfig::paper(),
            }
        ));
        let result = pool.inline.results.recv().unwrap();
        assert_eq!(result.job, 42);
        assert_eq!(result.executor, "shm0");
        let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
        assert_eq!(result.result.unwrap(), reference);
        pool.shutdown(&ctx);
    }
}
