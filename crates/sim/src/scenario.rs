//! The scenario DSL: one seeded experiment — a pool, a workload of jobs and
//! what their clients do, and a fault schedule — over the simulated cluster.
//!
//! Members are addressed by the pool's own routing names: standard workers
//! `svc0`, `svc1`, … and replica members `rg<g>#<m>`; a replacement the
//! resilient lane regenerates takes the next incarnation of its group.

use hsi::{CubeDims, HyperCube, SceneConfig, SceneGenerator};
use netsim::{Duration, NetworkModel};
use pct::PctConfig;
use resilience::DetectorConfig;
use service::{BackendKind, ChaosPhase, ChaosPlan, PhaseKill, Priority};

/// The synthetic cube a job fuses.  Kept tiny so thousands of scenarios run
/// per second; the byte-identity oracle does not care about size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeSpec {
    /// Cube width in pixels.
    pub width: usize,
    /// Cube height in pixels.
    pub height: usize,
    /// Spectral bands.
    pub bands: usize,
    /// Scene generator seed.
    pub seed: u64,
}

impl CubeSpec {
    /// A small default cube.
    pub fn tiny(seed: u64) -> Self {
        Self {
            width: 12,
            height: 10,
            bands: 4,
            seed,
        }
    }

    /// A cache key identifying the generated cube (and therefore the
    /// sequential reference output).
    pub fn key(&self) -> (usize, usize, usize, u64) {
        (self.width, self.height, self.bands, self.seed)
    }

    /// Generates the cube deterministically.
    pub fn generate(&self) -> HyperCube {
        SceneGenerator::new(SceneConfig {
            dims: CubeDims::new(self.width, self.height, self.bands),
            seed: self.seed,
            noise_sigma: 0.01,
            full_scale: 4095.0,
            targets: Vec::new(),
            open_field_fraction: 0.4,
        })
        .expect("tiny scene config is valid")
        .generate()
    }
}

/// When a cancelling client acts, read off the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Right after the submission is accepted, while the job is queued.
    Queued,
    /// At the job's first `Dispatched` event of the phase.
    Dispatch(ChaosPhase),
}

/// What a job's client does with its handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Client {
    /// Keeps the handle and takes the outcome at the job's `Terminal`
    /// event; at admission it checks the job is not yet takeable.
    Wait,
    /// Detaches the handle at submission: only the event stream sees the
    /// outcome.
    Detach,
    /// Cancels through the handle at the boundary.
    Cancel(Boundary),
    /// Drops the handle at the boundary (cancel-on-drop).
    Drop(Boundary),
}

/// One job of the workload.
#[derive(Debug, Clone)]
pub struct JobPlan {
    /// Virtual instant of the submission (`try_submit`).
    pub arrival: Duration,
    /// The cube it fuses.
    pub cube: CubeSpec,
    /// The lane it is pinned to.
    pub route: BackendKind,
    /// Its tenant.
    pub tenant: u64,
    /// Its priority.
    pub priority: Priority,
    /// Shards of its screening chain and transform fan-out.
    pub shards: usize,
    /// Its deadline after admission, if any.
    pub timeout: Option<Duration>,
    /// What its client does.
    pub client: Client,
}

impl JobPlan {
    /// A waited job of the tiny cube, pinned to `route`, arriving at once.
    pub fn new(route: BackendKind) -> Self {
        Self {
            arrival: Duration::ZERO,
            cube: CubeSpec::tiny(1),
            route,
            tenant: 0,
            priority: Priority::Normal,
            shards: 3,
            timeout: None,
            client: Client::Wait,
        }
    }
}

/// A window in which messages between the host and a replica member are
/// dropped in both directions (`from <= now < until`).  The member stays
/// alive: its silence is probed, never taken for a death.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The replica member cut off.
    pub member: String,
    /// Window start (virtual time since simulation start).
    pub from: Duration,
    /// Window end (exclusive).
    pub until: Duration,
}

/// One seeded experiment: pool, workload, detector parameters and the
/// composed fault schedule.  Everything observable about a run is a pure
/// function of this value.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name, shown in pass tables.
    pub name: String,
    /// Scenario seed: folds into jitter streams and the trace header.
    pub seed: u64,
    /// Pipeline configuration of every job.
    pub config: PctConfig,
    /// The jobs, in arrival order.
    pub jobs: Vec<JobPlan>,
    /// Standard workers (`svc<i>`).
    pub standard_workers: usize,
    /// Replica groups (`rg<g>`).
    pub replica_groups: usize,
    /// Members per replica group.
    pub replication_level: usize,
    /// Spare nodes, one per replacement the resilient lane may start.
    pub spares: usize,
    /// The admission queue's bound.
    pub queue_capacity: usize,
    /// Jobs running at once.
    pub max_in_flight: usize,
    /// `(tenant, fair-share weight)` of every tenant with a quota.
    pub weights: Vec<(u64, u64)>,
    /// Failure-detector parameters of both lanes, on *virtual* time; the
    /// members heartbeat at its period.
    pub detector: DetectorConfig,
    /// The LAN model messages travel over, costed in real wire bytes.
    pub network: NetworkModel,
    /// Phase-anchored kills, fired by the scheduler itself.
    pub chaos: ChaosPlan,
    /// Machine crashes at fixed virtual times, by routing name: the node
    /// dies and the mailbox with it, unknown to the service's injector.
    pub machine_kills: Vec<(Duration, String)>,
    /// An attack through the service's own injector on a member, at a
    /// virtual instant or (`None`) at the shutdown instant, just before
    /// admission closes.
    pub attack: Option<(String, Option<Duration>)>,
    /// If set, the first replacement is attacked as it is bound to its
    /// spare node, while the tasks re-issued to it are in flight.
    pub kill_during_regeneration: bool,
    /// Host↔replica-member partition windows.
    pub partitions: Vec<Partition>,
    /// `(replica member, count)`: the next `count` tasks sent to the member
    /// are lost in transit.
    pub drops: Vec<(String, usize)>,
    /// `(member, extra)`: a constant extra one-way delay on every message
    /// to or from the member.
    pub link_delays: Vec<(String, Duration)>,
    /// `(max, salt)`: every inter-node send waits an extra `[0, max)` drawn
    /// from a splitmix64 stream seeded with `seed ^ salt` — deliveries
    /// genuinely reorder, and stay a pure function of the seed.
    pub reorder: Option<(Duration, u64)>,
    /// `(member, speed)`: a slow node computing at `speed` in `(0, 1]` of
    /// the reference rate (0.25 is a 4× straggler).
    pub stragglers: Vec<(String, f64)>,
    /// When admission closes: at this instant (after the last arrival),
    /// jobs still running drain; `None` closes it once every job is
    /// terminal.
    pub shutdown_at: Option<Duration>,
    /// Virtual bound on every job's latency and on the makespan.
    pub makespan_bound: Duration,
}

impl Scenario {
    /// A fault-free scenario: one standard worker, two level-2 replica
    /// groups, two spares, one waited resilient job of the tiny cube.
    pub fn baseline(name: impl Into<String>, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            config: PctConfig::paper(),
            jobs: vec![JobPlan::new(BackendKind::Resilient)],
            standard_workers: 1,
            replica_groups: 2,
            replication_level: 2,
            spares: 2,
            queue_capacity: 8,
            max_in_flight: 4,
            weights: Vec::new(),
            detector: DetectorConfig {
                heartbeat_period_ms: 20,
                miss_threshold: 4,
            },
            network: NetworkModel::fast_ethernet_100baset(),
            chaos: ChaosPlan::none(),
            machine_kills: Vec::new(),
            attack: None,
            kill_during_regeneration: false,
            partitions: Vec::new(),
            drops: Vec::new(),
            link_delays: Vec::new(),
            reorder: None,
            stragglers: Vec::new(),
            shutdown_at: None,
            makespan_bound: Duration::from_secs(30),
        }
    }

    /// Adds a kill of `member` at job 1's first dispatch of `phase`
    /// (builder style).
    pub fn with_chaos_kill(mut self, phase: ChaosPhase, member: &str) -> Self {
        self.chaos.kills.push(PhaseKill {
            job: 1,
            phase,
            member: member.to_string(),
        });
        self
    }

    /// Routing names of the pool's members at start, in node order:
    /// standard workers, then each group's members.
    pub fn members(&self) -> Vec<String> {
        let standard = (0..self.standard_workers).map(|i| format!("svc{i}"));
        let replicas = (0..self.replica_groups)
            .flat_map(|g| (0..self.replication_level).map(move |m| format!("rg{g}#{m}")));
        standard.chain(replicas).collect()
    }

    /// Kills the schedule can land on replica members, each of which the
    /// resilient lane answers with a replacement on a spare node.
    fn replica_kills(&self) -> usize {
        let chaos = self.chaos.kills.iter().map(|k| &k.member);
        let machine = self.machine_kills.iter().map(|(_, m)| m);
        let attack = self.attack.iter().map(|(m, _)| m);
        chaos
            .chain(machine)
            .chain(attack)
            .filter(|m| m.contains('#'))
            .count()
            + usize::from(self.kill_during_regeneration)
    }

    /// A finite virtual bound on each job's latency and on the makespan,
    /// derived from the scenario's own schedule: a fault-free job takes
    /// tens of virtual milliseconds and jobs behind a narrow admission queue
    /// wait for each other; a kill costs a few detection windows, a lost
    /// message the resilient lane's retransmit backoff (500 ms, then 1 s).
    pub fn derived_makespan_bound(&self) -> Duration {
        let window_ms = self.detector.failure_timeout_ms();
        let kills = (self.chaos.kills.len()
            + self.machine_kills.len()
            + usize::from(self.attack.is_some())
            + usize::from(self.kill_during_regeneration)) as u64;
        let losses = (self.partitions.len() + self.drops.len()) as u64;
        let jobs = self.jobs.len() as u64;
        let mut bound = Duration::from_millis(
            100 * jobs + 2 * window_ms + kills * (3 * window_ms + 100) + losses * 1_500,
        );
        let instants = self.jobs.iter().map(|job| job.arrival);
        let instants = instants
            .chain(self.partitions.iter().map(|p| p.until))
            .chain(self.machine_kills.iter().map(|(at, _)| *at));
        let delays = self.link_delays.iter().map(|(_, extra)| *extra);
        for at in instants {
            bound += at;
        }
        for delay in delays.chain(self.reorder.map(|(max, _)| max)) {
            bound += delay.saturating_mul(64);
        }
        let min_speed = self
            .stragglers
            .iter()
            .map(|(_, speed)| *speed)
            .fold(1.0_f64, f64::min)
            .max(0.01);
        bound.mul_f64(1.0 / min_speed)
    }

    /// Validates internal consistency: every name is a member of the pool
    /// (a replica member where only replica members lose messages), every
    /// job's lane exists, every straggler's speed is in `(0, 1]`, and there
    /// is a spare node for every replacement.
    pub fn validate(&self) -> Result<(), String> {
        if self.jobs.is_empty() || self.replica_groups == 0 || self.replication_level == 0 {
            return Err("a scenario needs a job and a resilient lane to fail over to".into());
        }
        if let Some(job) = self.jobs.iter().find(|job| match job.route {
            BackendKind::Standard => self.standard_workers == 0,
            route => route != BackendKind::Resilient,
        }) {
            return Err(format!(
                "a job is pinned to the absent {} lane",
                job.route.label()
            ));
        }
        let members = self.members();
        let any = self.chaos.kills.iter().map(|k| &k.member);
        let any = any
            .chain(self.machine_kills.iter().map(|(_, m)| m))
            .chain(self.attack.iter().map(|(m, _)| m))
            .chain(self.link_delays.iter().map(|(m, _)| m))
            .chain(self.stragglers.iter().map(|(m, _)| m));
        let replica = self.partitions.iter().map(|p| &p.member);
        let replica = replica.chain(self.drops.iter().map(|(m, _)| m));
        for (member, replica_only) in any.map(|m| (m, false)).chain(replica.map(|m| (m, true))) {
            if !members.contains(member) || (replica_only && !member.contains('#')) {
                return Err(format!("{member:?} is not a member that can be named here"));
            }
        }
        if let Some((member, speed)) = self
            .stragglers
            .iter()
            .find(|(_, s)| !(*s > 0.0 && *s <= 1.0))
        {
            return Err(format!(
                "straggler {member} has speed {speed}, outside (0, 1]"
            ));
        }
        if self.replica_kills() > self.spares {
            let kills = self.replica_kills();
            return Err(format!(
                "{kills} replica kills but {} spare nodes",
                self.spares
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_names_round_trip() {
        let sc = Scenario::baseline("names", 1);
        assert_eq!(sc.members(), ["svc0", "rg0#0", "rg0#1", "rg1#0", "rg1#1"]);
        for name in &sc.members()[1..] {
            let member = resilience::MemberId::parse(name).expect("a replica member");
            assert_eq!(&member.routing_name(), name);
        }
    }

    #[test]
    fn cube_spec_generates_deterministically() {
        let a = CubeSpec::tiny(7).generate();
        let b = CubeSpec::tiny(7).generate();
        assert_eq!(a.samples(), b.samples());
        assert_eq!(CubeSpec::tiny(7).key(), (12, 10, 4, 7));
    }

    #[test]
    fn validation_rejects_total_annihilation() {
        // Every killed replica member needs a spare node to come back on.
        let ok = Scenario::baseline("one-kill", 1).with_chaos_kill(ChaosPhase::Screen, "rg0#0");
        assert!(ok.validate().is_ok());
        let mut spareless = ok.with_chaos_kill(ChaosPhase::Transform, "rg1#1");
        spareless.spares = 1;
        assert!(spareless.validate().is_err());
    }

    #[test]
    fn validation_rejects_out_of_range_references() {
        let ghost = Scenario::baseline("ghost", 1).with_chaos_kill(ChaosPhase::Screen, "m3");
        assert!(ghost.validate().is_err());
        let mut partitioned = Scenario::baseline("svc-partition", 1);
        partitioned.partitions.push(Partition {
            member: "svc0".into(),
            from: Duration::ZERO,
            until: Duration::from_millis(10),
        });
        assert!(
            partitioned.validate().is_err(),
            "standard lanes have no retransmit"
        );
    }

    #[test]
    fn derived_bound_grows_with_disruptions() {
        let calm = Scenario::baseline("calm", 1);
        let stormy = Scenario::baseline("stormy", 1)
            .with_chaos_kill(ChaosPhase::Screen, "rg0#0")
            .with_chaos_kill(ChaosPhase::Transform, "rg1#1");
        assert!(stormy.derived_makespan_bound() > calm.derived_makespan_bound());
    }
}
