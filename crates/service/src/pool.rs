//! The long-lived worker pool shared by every job.
//!
//! Four lanes:
//!
//! * **standard** — plain worker threads running the replica members' own
//!   loop ([`pct::resilient::member_loop`]) over one `scp` runtime.  Each
//!   worker registers a kill switch in the pool's shared [`AttackInjector`]
//!   and heartbeats the manager (idle and after every reply), so the
//!   scheduler's watchdog can *detect* a lost worker instead of discovering
//!   the dead mailbox at send time;
//! * **resilient** — replica groups owned by a [`pct::ResilientManagerState`]
//!   (kill switches, heartbeat detector, regenerator), the state
//!   `pct::ResilientPct` builds per run, here owned for the pool's lifetime;
//! * **shared-memory** — in-process executor threads that run whole jobs
//!   start-to-finish against the shared `Arc` cube with **zero protocol
//!   messages**: work arrives over a plain channel and the pipeline is the
//!   sequential reference (`SequentialPct::run_shared`), which *is* the
//!   service's byte-identity contract.  Results return over a plain channel
//!   too (they carry the full output); the executor then rings the
//!   [`Doorbell`], the same wake-up clients use, so the blocked scheduler
//!   collects them at once.  The cheapest path for small cubes;
//! * **remote** — worker *processes* behind the versioned [`wire`] protocol,
//!   each fronted by a [`crate::remote::RemoteLane`] bridge so the
//!   scheduler addresses them like any standard worker.  Same task loop,
//!   same heartbeat cadence, same watchdog — across a process boundary.
//!
//! The scheduler addresses the message-plane lanes through the manager
//! [`ThreadContext`] and the shared-memory lane through [`InlineLane`];
//! all threads are spawned once at service start and live until shutdown —
//! no per-request pipeline spawning.

use crate::config::PoolConfig;
use crate::job::JobId;
use crate::remote::RemoteLane;
use crate::Result;
use hsi::HyperCube;
use pct::distributed::MANAGER;
use pct::messages::PctMessage;
use pct::resilient::{member_loop, ResilientManagerState, ResilientRunReport};
use pct::{FusionOutput, PctConfig, SequentialPct};
use resilience::attack::AttackInjector;
use scp::{Envelope, Router, Runtime, ThreadContext, ThreadHandle};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// The sender name of every doorbell ring.  Pool members are named `svc<i>`,
/// `rg<i>#<n>`, `shm<i>` and `rw<i>`, so none can have it.
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
    pub fn new(router: Router<PctMessage>) -> Self {
        Self(router)
    }

    /// Wakes the scheduler.  A ring into a stopped service finds the
    /// manager mailbox gone; nothing is left to wake, so the error is
    /// ignored.
    pub fn ring(&self) {
        let _ = self.0.send(DOORBELL, MANAGER, PctMessage::Heartbeat);
    }

    /// Whether `envelope` is a ring rather than a member's message.
    pub fn rang(envelope: &Envelope<PctMessage>) -> bool {
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
                                SequentialPct::new(work.config).run_shared(&work.cube)
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
    pub fn dispatch(&self, executor: &str, work: InlineJob) -> bool {
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

pub(crate) struct WorkerPool {
    pub runtime: Runtime<PctMessage>,
    /// Routing names of the standard-lane workers.
    pub standard: Vec<String>,
    /// Logical group names of the resilient lane.
    pub groups: Vec<String>,
    standard_handles: Vec<ThreadHandle<()>>,
    /// The folded resilient-lane state (membership, detector, regenerator,
    /// member handles).
    pub resilient: ResilientManagerState,
    /// The in-process shared-memory executor lane.
    pub inline: InlineLane,
    /// The remote worker-process lane (wire protocol over TCP).
    pub remote: RemoteLane,
}

impl WorkerPool {
    /// Spawns the pool and returns it together with the manager context the
    /// scheduler drives it through.  Start-up is all-or-nothing: when a lane
    /// fails to start, every lane started before it is shut down and joined
    /// before the error returns.
    pub fn start(
        config: &PoolConfig,
        telemetry: telemetry::Telemetry,
    ) -> Result<(WorkerPool, ThreadContext<PctMessage>)> {
        let runtime: Runtime<PctMessage> = Runtime::new();
        let ctx = runtime.context(MANAGER)?;

        let groups: Vec<String> = (0..config.replica_groups)
            .map(|i| format!("rg{i}"))
            .collect();
        let resilient = ResilientManagerState::build(
            &runtime,
            &groups,
            config.replication_level.max(1),
            config.detector,
        )?
        .with_telemetry(telemetry);
        let inline = InlineLane::start(&Doorbell::new(runtime.router()), 0);
        let mut pool = WorkerPool {
            runtime,
            standard: Vec::new(),
            groups,
            standard_handles: Vec::new(),
            resilient,
            inline,
            remote: RemoteLane::default(),
        };
        match pool.start_lanes(config) {
            Ok(()) => Ok((pool, ctx)),
            Err(e) => {
                pool.shutdown(&ctx);
                Err(e)
            }
        }
    }

    /// Starts the standard, shared-memory and remote lanes, in that order,
    /// into a pool whose resilient lane is up.
    fn start_lanes(&mut self, config: &PoolConfig) -> Result<()> {
        // Standard workers register kill switches in the *same* injector as
        // the replica members, so one attack surface (`inject_attack`,
        // `ChaosPlan`) covers both message-plane lanes.
        for i in 0..config.standard_workers {
            let name = format!("svc{i}");
            let kill = self.resilient.injector.register(name.clone());
            let handle = self
                .runtime
                .spawn(name.clone(), move |ctx| member_loop(ctx, kill))?;
            self.standard_handles.push(handle);
            self.standard.push(name);
        }
        self.inline = InlineLane::start(&self.doorbell(), config.shared_memory_executors);
        self.remote = RemoteLane::start(&self.runtime, &config.remote_workers)?;
        Ok(())
    }

    /// A doorbell onto this pool's manager mailbox.
    pub fn doorbell(&self) -> Doorbell {
        Doorbell::new(self.runtime.router())
    }

    /// The shared kill-switch registry covering both message-plane lanes —
    /// replica members *and* standard workers (for attack drills).
    pub fn injector(&self) -> AttackInjector {
        self.resilient.injector.clone()
    }

    /// Shuts all four lanes down and returns the resilient lane's run
    /// report.
    pub fn shutdown(mut self, ctx: &ThreadContext<PctMessage>) -> ResilientRunReport {
        for name in &self.standard {
            let _ = ctx.send(name, PctMessage::Shutdown);
        }
        // Remote workers get Shutdown through their bridge mailboxes; a
        // worker lost earlier has a dead mailbox and the send just fails.
        for name in &self.remote.workers {
            let _ = ctx.send(name, PctMessage::Shutdown);
        }
        for handle in self.standard_handles.drain(..) {
            handle.join();
        }
        self.inline.shutdown();
        self.remote.shutdown();
        self.resilient.shutdown(ctx)
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
        let (pool, ctx) = WorkerPool::start(&config, telemetry::Telemetry::disabled()).unwrap();
        assert_eq!(pool.standard, vec!["svc0", "svc1"]);
        assert_eq!(pool.groups, vec!["rg0", "rg1"]);
        assert_eq!(pool.inline.executors, vec!["shm0", "shm1"]);
        assert!(pool.remote.workers.is_empty());
        assert_eq!(pool.resilient.membership.all_members().len(), 4);
        let mut targets = pool.injector().targets();
        targets.sort();
        assert_eq!(
            targets,
            vec!["rg0#0", "rg0#1", "rg1#0", "rg1#1", "svc0", "svc1"],
            "standard workers share the replica members' kill registry"
        );
        let report = pool.shutdown(&ctx);
        assert!(report.regenerations.is_empty());
    }

    #[test]
    fn pool_can_run_without_a_resilient_lane() {
        let config = PoolConfig {
            standard_workers: 1,
            replica_groups: 0,
            shared_memory_executors: 0,
            ..PoolConfig::default()
        };
        let (pool, ctx) = WorkerPool::start(&config, telemetry::Telemetry::disabled()).unwrap();
        assert!(pool.groups.is_empty());
        assert!(pool.inline.executors.is_empty());
        assert!(pool.resilient.membership.all_members().is_empty());
        let report = pool.shutdown(&ctx);
        assert!(report.members_attacked.is_empty());
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
            telemetry::Telemetry::disabled(),
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
