//! The six workloads: what each generates from the seed, the pool it runs
//! on, and one timed round of its closed-loop load.
//!
//! `nproc` is 2 on the reference box, so the generator is one process with
//! at most 2 client threads and the pool under test is fixed at 2 standard
//! workers, 2 replica groups x level 2, 1 shared-memory executor and 2
//! remote `Thread` workers — of which each workload starts only the lanes
//! it uses.  All loads are closed loop: fusiond callers submit and `wait`.
//! A round is a *fixed job count*, so per-job counters repeat exactly; a
//! run measures as many rounds as fit in `--seconds`.

use hsi::io::{write_cube_as, Interleave};
use hsi::{CubeDims, HyperCube, SceneConfig, SceneGenerator};
use ingest::{
    CubeSource as ArrivalSource, DirectorySource, IngestConfig, IngestPump, IngestReport,
    SheddingPolicy, SourceEvent,
};
use pct::{FusionOutput, PctConfig, SequentialPct};
use resilience::DetectorConfig;
use service::{
    BackendKind, CubeSource, EventSubscriber, FusionService, JobHandle, JobId, JobOutcome, JobSpec,
    JobStatus, Priority, RemoteWorkerSpec, Route, ServiceConfig, ServiceEvent, TenantId,
    TenantQuota,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::Telemetry;

/// Shards per job on the message-plane lanes (the historical service mix).
pub const SHARDS: usize = 4;
/// Jobs one `mixed_burst` client submits before it waits for any.
pub const BURST: usize = 32;
/// Files in `ingest_replay`'s directory: 36 distinct scenes plus 12 of them
/// re-exported in another interleave.
pub const INGEST_FILES: usize = 48;
pub const INGEST_DISTINCT: usize = 36;
/// `DirectorySource` chunk size of `ingest_replay`.
pub const INGEST_CHUNK_BYTES: usize = 8192;
/// `resilient_kill` attacks one live member before every this-many-th job.
pub const KILL_EVERY: u64 = 4;
/// The tenant `ingest_replay`'s pump submits under.
const INGEST_TENANT: TenantId = TenantId(9);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScreenBound,
    DeriveBound,
    MixedBurst,
    RemoteWire,
    IngestReplay,
    ResilientKill,
}

/// The numbers a workload is made of: what it generates and what one round
/// of its closed-loop load is.
struct Shape {
    dims: CubeDims,
    /// Distinct cubes generated from the seed.
    distinct: usize,
    angle_deg: f64,
    load: Load,
}

/// One round of load (a smoke run scales the counts down).
enum Load {
    /// `clients` threads each run `jobs` submit-then-wait jobs pinned to
    /// `lane`, cycling through the distinct cubes.
    Clients {
        lane: BackendKind,
        clients: usize,
        jobs: usize,
    },
    /// One client submits this many bursts of [`BURST`] jobs.
    Bursts(usize),
    /// This many replays of the generated directory through the pump.
    Passes(usize),
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::ScreenBound,
        Kind::DeriveBound,
        Kind::MixedBurst,
        Kind::RemoteWire,
        Kind::IngestReplay,
        Kind::ResilientKill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ScreenBound => "screen_bound",
            Kind::DeriveBound => "derive_bound",
            Kind::MixedBurst => "mixed_burst",
            Kind::RemoteWire => "remote_wire",
            Kind::IngestReplay => "ingest_replay",
            Kind::ResilientKill => "resilient_kill",
        }
    }

    /// Why the workload exists, as `BENCHMARK.json` records it.
    pub fn why(self) -> &'static str {
        match self {
            Kind::ScreenBound => "64x64x32 cubes at 5 deg, standard lane: the serial screening chain is ~97 % of compute, so screening work (ROADMAP 3b/3c) shows here and wire, ingest and eigen work must not",
            Kind::DeriveBound => "32x32x210 cubes, standard lane: the single derive task (covariance + Jacobi at the paper's 210 bands) is ~87 % of compute, so 3c/3d land here and screening gains must not",
            Kind::MixedBurst => "the historical 32-job mix (28x28x14, three lanes, tenants 3:1, three priorities) behind a 32-deep backlog: ~1 ms of compute per job, so admission, scheduler ticks and replication are the latency",
            Kind::RemoteWire => "64x64x64 quick-look jobs over real loopback TCP to two remote workers: codec, CRC and relay ticks are ~90 % of latency, so wire work (ROADMAP 3a) shows here and nowhere else",
            Kind::IngestReplay => "48 .hsif files (36 scenes, 12 re-exported, 25 % store hits) replayed by the pump into 45 deg shared-memory jobs: read, decode, hash and intern are most of the wall, admission is driven as Bulk",
            Kind::ResilientKill => "screen_bound's cubes replicated x2 with a live member killed before every 4th job: p50 must stay at the fault-free value and no job may fail or differ, on every later change",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn shape(self) -> Shape {
        let (dims, distinct, angle_deg, load) = match self {
            // The serial seeded screening chain is ~97 % of compute.
            Kind::ScreenBound => (
                CubeDims::new(64, 64, 32),
                4,
                5.0,
                Load::Clients {
                    lane: BackendKind::Standard,
                    clients: 2,
                    jobs: 16,
                },
            ),
            // At the paper's 210 bands the single derive task dominates.
            Kind::DeriveBound => (
                CubeDims::new(32, 32, 210),
                4,
                5.0,
                Load::Clients {
                    lane: BackendKind::Standard,
                    clients: 2,
                    jobs: 4,
                },
            ),
            Kind::MixedBurst => (CubeDims::new(28, 28, 14), BURST, 5.0, Load::Bursts(8)),
            // Quick-look screening leaves ~11 ms of compute under 2 MiB of
            // payload crossing real loopback TCP twice.
            Kind::RemoteWire => (
                CubeDims::new(64, 64, 64),
                4,
                30.0,
                Load::Clients {
                    lane: BackendKind::Remote,
                    clients: 2,
                    jobs: 8,
                },
            ),
            // 45 deg keeps fusion (~2 ms) below the ~3 ms of ingest per cube.
            Kind::IngestReplay => (
                CubeDims::new(64, 64, 32),
                INGEST_DISTINCT,
                45.0,
                Load::Passes(2),
            ),
            // screen_bound's cubes and config, replicated x2 and attacked.
            Kind::ResilientKill => (
                CubeDims::new(64, 64, 32),
                4,
                5.0,
                Load::Clients {
                    lane: BackendKind::Resilient,
                    clients: 1,
                    jobs: 16,
                },
            ),
        };
        Shape {
            dims,
            distinct,
            angle_deg,
            load,
        }
    }

    /// The lane every job of the workload is pinned to (`mixed_burst` mixes
    /// three).
    pub fn pinned_lane(self) -> Option<BackendKind> {
        match self.shape().load {
            Load::Clients { lane, .. } => Some(lane),
            Load::Passes(_) => Some(BackendKind::SharedMemory),
            Load::Bursts(_) => None,
        }
    }

    /// Protocol tasks the scheduler dispatches per job: a seeded screening
    /// task and a transform task per shard plus one derive task on the
    /// message plane, one whole-job dispatch on the shared-memory lane.
    pub fn tasks_per_job(self) -> f64 {
        let message_plane = (2 * SHARDS + 1) as f64;
        match self {
            Kind::IngestReplay => 1.0,
            // Per burst of 32: 8 resilient + 16 standard on the message
            // plane, 8 auto-routed to shared memory.
            Kind::MixedBurst => (24.0 * message_plane + 8.0) / BURST as f64,
            _ => message_plane,
        }
    }

    /// The pipeline configuration every job of the workload carries.
    pub fn pct_config(self) -> PctConfig {
        PctConfig {
            screening_angle_rad: self.shape().angle_deg.to_radians(),
            output_components: 3,
        }
    }

    /// The pool the workload runs on: the fixed reference pool, restricted
    /// to the lanes the workload uses.
    pub fn service_config(self, telemetry: Telemetry) -> ServiceConfig {
        let builder = ServiceConfig::builder()
            .standard_workers(0)
            .replica_groups(0)
            .replication_level(2)
            .shared_memory_executors(0)
            .queue_capacity(16)
            .max_in_flight(4)
            .telemetry(telemetry);
        let builder = match self {
            Kind::ScreenBound | Kind::DeriveBound => builder.standard_workers(2),
            Kind::MixedBurst => builder
                .standard_workers(2)
                .replica_groups(2)
                .shared_memory_executors(1)
                .queue_capacity(BURST)
                .tenant_quota(TenantId(1), TenantQuota::weighted(3))
                .tenant_quota(TenantId(2), TenantQuota::weighted(1)),
            Kind::RemoteWire => {
                builder.remote_workers(vec![RemoteWorkerSpec::Thread, RemoteWorkerSpec::Thread])
            }
            // The pump refuses an arrival when the queue is full; a queue
            // deeper than the file set keeps the shed count at exactly 0.
            Kind::IngestReplay => builder.shared_memory_executors(1).queue_capacity(64),
            Kind::ResilientKill => builder.replica_groups(2).detector(DetectorConfig {
                heartbeat_period_ms: 10,
                miss_threshold: 3,
            }),
        };
        builder.build().expect("workload pool validates")
    }
}

/// What a workload generated from the seed.  The program under test sees
/// only these cubes and files.
pub struct Inputs {
    pub kind: Kind,
    pub config: PctConfig,
    /// The distinct cubes, in the order jobs cycle through them.
    pub cubes: Vec<Arc<HyperCube>>,
    /// `SequentialPct` on each cube: what every job's output must equal,
    /// byte for byte.
    pub refs: Vec<FusionOutput>,
    /// `ingest_replay` only: the generated directory, and for each file (in
    /// replay order) the index of the cube it holds.
    pub dir: Option<WorkDir>,
    pub file_cube: Vec<usize>,
}

/// A directory under the benchmark's own `out/`, removed on drop (the
/// benchmark may write nowhere else).
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scene(seed: u64, index: usize, dims: CubeDims) -> Arc<HyperCube> {
    let mut config = SceneConfig::small(seed.wrapping_mul(1_000_003).wrapping_add(index as u64));
    config.dims = dims;
    Arc::new(SceneGenerator::new(config).expect("valid scene").generate())
}

impl Inputs {
    /// Generates the workload's inputs and their reference fusions.
    /// `work` is where `ingest_replay` may create its directory.
    pub fn prepare(kind: Kind, seed: u64, work: &Path) -> Inputs {
        let config = kind.pct_config();
        let shape = kind.shape();
        let cubes: Vec<Arc<HyperCube>> = (0..shape.distinct)
            .map(|i| scene(seed, i, shape.dims))
            .collect();
        let reference = SequentialPct::new(config);
        let refs = cubes
            .iter()
            .map(|cube| reference.run(cube).expect("reference fusion"))
            .collect();
        let mut inputs = Inputs {
            kind,
            config,
            cubes,
            refs,
            dir: None,
            file_cube: Vec::new(),
        };
        if kind == Kind::IngestReplay {
            inputs.write_files(work);
        }
        inputs
    }

    /// 36 distinct scenes, 12 per interleave, then the first 12 again in a
    /// different interleave: the store must hit on exactly 12 of 48.
    fn write_files(&mut self, work: &Path) {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = work.join(format!(
            "ingest-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("work directory");
        for file in 0..INGEST_FILES {
            let (cube, interleave) = if file < INGEST_DISTINCT {
                (file, Interleave::ALL[file % 3])
            } else {
                (file - INGEST_DISTINCT, Interleave::ALL[(file + 1) % 3])
            };
            write_cube_as(
                &self.cubes[cube],
                interleave,
                dir.join(format!("{file:02}_cube.hsif")),
            )
            .expect("cube file written");
            self.file_cube.push(cube);
        }
        self.dir = Some(WorkDir(dir));
    }
}

/// One job as its caller saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub job: JobId,
    /// Submit (for `ingest_replay`: first byte read) to outcome in hand.
    pub latency_ms: f64,
    /// `resilient_kill`: a member was attacked right before this job.
    pub attacked: bool,
}

/// One timed round.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    /// One sample per *completed* job.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Failed, rejected, shed, timed out or cancelled.
    pub failed: u64,
    /// Completed with an output that differs from the reference.
    pub mismatched: u64,
    pub kills: u64,
    /// `ingest_replay`: the report of the round's last pass.
    pub ingest: Option<IngestReport>,
}

impl Round {
    fn absorb(&mut self, other: Round) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.kills += other.kills;
        self.ingest = other.ingest.or(self.ingest.take());
    }

    /// Accounts one terminal outcome against its reference.  Returns
    /// whether the job completed: only a completed job is timed, so a job
    /// that fails fast can raise neither the rate nor the percentiles.
    fn judge(&mut self, outcome: service::Result<JobOutcome>, reference: &FusionOutput) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(JobOutcome::Completed(output)) => {
                if output != *reference {
                    self.mismatched += 1;
                }
                true
            }
            _ => {
                self.failed += 1;
                false
            }
        }
    }
}

/// State a workload carries from round to round.
#[derive(Default)]
pub struct LoopState {
    /// Jobs `resilient_kill` has run, so the kill cadence spans rounds.
    jobs_run: u64,
    /// Members this run has attacked.  `attack_targets()` keeps listing a
    /// dead member, and attacking one again is silently a no-op — the kill
    /// would be counted but nothing would have to be regenerated.
    killed: BTreeSet<String>,
}

/// Attacks the newest incarnation of one replica group that this run has
/// not already killed, alternating groups.  Returns whether a live member
/// was hit.
fn attack_one_live_member(service: &FusionService, state: &mut LoopState) -> bool {
    let group = format!("rg{}#", state.killed.len() % 2);
    let victim = service
        .attack_targets()
        .into_iter()
        .filter(|name| name.starts_with(&group) && !state.killed.contains(name))
        .max_by_key(|name| name[group.len()..].parse::<u64>().unwrap_or(0));
    match victim {
        Some(name) if service.inject_attack(&name) => {
            state.killed.insert(name);
            true
        }
        _ => false,
    }
}

fn submit_pinned(
    service: &FusionService,
    inputs: &Inputs,
    cube: usize,
    lane: BackendKind,
) -> service::Result<JobHandle> {
    let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&inputs.cubes[cube])))
        .config(inputs.config)
        .pinned(lane)
        .shards(SHARDS)
        .build()
        .expect("valid spec");
    service.submit(spec)
}

/// `clients` threads, each running `jobs_per_client` submit-then-wait jobs
/// over the distinct cubes.
fn closed_loop_round(
    service: &FusionService,
    inputs: &Inputs,
    lane: BackendKind,
    clients: usize,
    jobs_per_client: usize,
    attack_state: Option<&mut LoopState>,
) -> Round {
    let attack_state = attack_state.map(Mutex::new);
    let started = Instant::now();
    let mut round = Round::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let attack_state = attack_state.as_ref();
                scope.spawn(move || {
                    let mut mine = Round::default();
                    for j in 0..jobs_per_client {
                        let cube = (client + j) % inputs.cubes.len();
                        let mut attacked = false;
                        if let Some(state) = attack_state {
                            let mut state = state.lock().expect("loop state");
                            state.jobs_run += 1;
                            if state.jobs_run % KILL_EVERY == 0 {
                                attacked = attack_one_live_member(service, &mut state);
                                mine.kills += 1;
                                if !attacked {
                                    // A kill that hit nobody is a harness
                                    // failure, not a quiet skip.
                                    mine.failed += 1;
                                }
                            }
                        }
                        let submitted = Instant::now();
                        match submit_pinned(service, inputs, cube, lane) {
                            Ok(mut handle) => {
                                let outcome = handle.wait();
                                let latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
                                if mine.judge(outcome, &inputs.refs[cube]) {
                                    mine.samples.push(Sample {
                                        job: handle.id(),
                                        latency_ms,
                                        attacked,
                                    });
                                }
                            }
                            Err(refused) => {
                                mine.judge(Err(refused), &inputs.refs[cube]);
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            round.absorb(handle.join().expect("client thread"));
        }
    });
    round.wall_s = started.elapsed().as_secs_f64();
    round
}

/// The historical `service_throughput` mix, kept verbatim: per burst of 32,
/// `i % 4` = 0 pinned resilient, 1 `Route::Auto` (resolved to shared memory
/// for these small cubes), 2-3 pinned standard; tenants t1:t2 = 3:1 by
/// weight; three priorities.  One client submits the whole burst, then
/// collects the outcomes in submission order — a job's latency is when its
/// caller had the outcome in hand.
fn burst_round(service: &FusionService, inputs: &Inputs, bursts: usize) -> Round {
    let started = Instant::now();
    let mut round = Round::default();
    for _ in 0..bursts {
        let mut pending = Vec::with_capacity(BURST);
        for i in 0..BURST {
            let route = match i % 4 {
                0 => Route::Pinned(BackendKind::Resilient),
                1 => Route::Auto,
                _ => Route::Pinned(BackendKind::Standard),
            };
            let tenant = if i % 4 == 3 { TenantId(2) } else { TenantId(1) };
            let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&inputs.cubes[i])))
                .config(inputs.config)
                .priority(Priority::ALL[i % 3])
                .tenant(tenant)
                .route(route)
                .shards(SHARDS)
                .build()
                .expect("valid spec");
            let submitted = Instant::now();
            match service.submit(spec) {
                Ok(handle) => pending.push((i, submitted, handle)),
                Err(refused) => {
                    round.judge(Err(refused), &inputs.refs[i]);
                }
            }
        }
        for (i, submitted, mut handle) in pending {
            let outcome = handle.wait();
            let latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
            if round.judge(outcome, &inputs.refs[i]) {
                round.samples.push(Sample {
                    job: handle.id(),
                    latency_ms,
                    attacked: false,
                });
            }
        }
    }
    round.wall_s = started.elapsed().as_secs_f64();
    round
}

/// `DirectorySource` plus a note of when each arrival's first bytes were
/// read: the pump gives no per-cube timing, and "file arrives → fused image
/// exists" is the latency an ingest user sees.
struct StampedSource {
    inner: DirectorySource,
    begins: Arc<Mutex<Vec<Instant>>>,
}

impl ArrivalSource for StampedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_event(&mut self) -> Option<ingest::Result<SourceEvent>> {
        // Stamp before the read, so the header read counts as ingest time.
        let before = Instant::now();
        let event = self.inner.next_event();
        if matches!(event, Some(Ok(SourceEvent::Begin { .. }))) {
            self.begins.lock().expect("arrival stamps").push(before);
        }
        event
    }
}

/// Collects `(job, receipt time, completed)` of terminal events until
/// `expected` have arrived (or nothing arrives for a long while: a lost job
/// must fail the run, not hang it).
fn collect_terminals(events: EventSubscriber, expected: usize) -> Vec<(JobId, Instant, bool)> {
    let mut done = Vec::with_capacity(expected);
    while done.len() < expected {
        match events.next_timeout(Duration::from_secs(30)) {
            Some(ServiceEvent::Terminal { job, status, .. }) => {
                done.push((job, Instant::now(), status == JobStatus::Completed));
            }
            Some(_) => {}
            None => break,
        }
    }
    done
}

/// One replay of the directory through a fresh pump and store.
fn ingest_pass(service: &FusionService, inputs: &Inputs) -> Round {
    let dir = inputs.dir.as_ref().expect("ingest directory").path();
    let begins = Arc::new(Mutex::new(Vec::with_capacity(INGEST_FILES)));
    let source = StampedSource {
        inner: DirectorySource::with_chunk_bytes(dir, INGEST_CHUNK_BYTES),
        begins: Arc::clone(&begins),
    };
    let events = service.subscribe();
    let collector = std::thread::spawn(move || collect_terminals(events, INGEST_FILES));
    let config = IngestConfig {
        shedding: SheddingPolicy::unbounded(),
        route: Route::Pinned(BackendKind::SharedMemory),
        shards: SHARDS,
        tenant: INGEST_TENANT,
        pct: inputs.config,
        ..IngestConfig::default()
    };
    let run = IngestPump::new(service, config)
        .run(vec![Box::new(source)])
        .expect("pump runs");
    let mut terminals = collector.join().expect("event collector");
    terminals.sort_by_key(|(job, ..)| *job);

    // Every arrival that did not become a checked job is a failure: shed,
    // undecodable, or lost.
    let missing = INGEST_FILES.saturating_sub(run.jobs.len()) as u64;
    let mut round = Round {
        attempted: missing,
        failed: missing,
        ..Round::default()
    };
    for job in run.jobs {
        let cube = job.tag[..2]
            .parse::<usize>()
            .ok()
            .and_then(|file| inputs.file_cube.get(file).copied())
            .expect("arrival tag names a generated file");
        round.judge(Ok(job.outcome), &inputs.refs[cube]);
    }
    // Jobs are admitted in arrival order and ids ascend with admission, so
    // the i-th terminal by id belongs to the i-th arrival.
    let begins = begins.lock().expect("arrival stamps");
    if begins.len() == terminals.len() {
        for (begin, (job, done, completed)) in begins.iter().zip(&terminals) {
            if *completed {
                round.samples.push(Sample {
                    job: *job,
                    latency_ms: done.duration_since(*begin).as_secs_f64() * 1e3,
                    attacked: false,
                });
            }
        }
    } else {
        round.failed += 1;
    }
    round.ingest = Some(run.report);
    round
}

fn ingest_round(service: &FusionService, inputs: &Inputs, passes: usize) -> Round {
    let started = Instant::now();
    let mut round = Round::default();
    for _ in 0..passes {
        round.absorb(ingest_pass(service, inputs));
    }
    round.wall_s = started.elapsed().as_secs_f64();
    round
}

/// A smoke run does a twentieth of the work (at least one job a client).
fn scaled(count: usize, smoke: bool) -> usize {
    if smoke {
        count.div_ceil(20)
    } else {
        count
    }
}

impl Kind {
    /// One timed round of the workload's fixed job count.
    pub fn round(
        self,
        service: &FusionService,
        inputs: &Inputs,
        state: &mut LoopState,
        smoke: bool,
    ) -> Round {
        match self.shape().load {
            Load::Bursts(bursts) => burst_round(service, inputs, scaled(bursts, smoke)),
            Load::Passes(passes) => ingest_round(service, inputs, scaled(passes, smoke)),
            Load::Clients {
                lane,
                clients,
                jobs,
            } => {
                // A smoke round of resilient_kill still has to reach a kill.
                let jobs = if smoke && self == Kind::ResilientKill {
                    KILL_EVERY as usize
                } else {
                    scaled(jobs, smoke)
                };
                let attack_state = (self == Kind::ResilientKill).then_some(state);
                closed_loop_round(service, inputs, lane, clients, jobs, attack_state)
            }
        }
    }

    /// Untimed warm-up, part of set-up: every distinct input once through
    /// the lanes the workload uses, so threads, allocator arenas and page
    /// cache are warm before the first timed round.
    pub fn warm_up(self, service: &FusionService, inputs: &Inputs) -> Round {
        match self.shape().load {
            Load::Bursts(_) => burst_round(service, inputs, 1),
            Load::Passes(_) => ingest_round(service, inputs, 1),
            Load::Clients { lane, .. } => {
                closed_loop_round(service, inputs, lane, 1, inputs.cubes.len(), None)
            }
        }
    }
}

/// `resilient_kill`'s fault-free comparison: the same cubes, one client, on
/// a plain standard lane (`screen_bound`'s pool), never attacked.
pub fn standard_baseline_round(service: &FusionService, inputs: &Inputs, jobs: usize) -> Round {
    closed_loop_round(service, inputs, BackendKind::Standard, 1, jobs, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job that fails fast must not count towards `jobs_per_s` or the
    /// latency percentiles; a wrong output is still a completed job (and
    /// makes the run incorrect on its own).
    #[test]
    fn only_a_completed_job_is_timed() {
        let inputs = Inputs::prepare(Kind::MixedBurst, 1, Path::new("unused"));
        let (right, wrong) = (&inputs.refs[0], &inputs.refs[1]);
        let mut round = Round::default();
        assert!(round.judge(Ok(JobOutcome::Completed(right.clone())), right));
        assert!(round.judge(Ok(JobOutcome::Completed(wrong.clone())), right));
        assert!(!round.judge(Ok(JobOutcome::Failed("worker lost".into())), right));
        assert!(!round.judge(Ok(JobOutcome::TimedOut), right));
        assert!(!round.judge(Ok(JobOutcome::Cancelled), right));
        assert_eq!((round.attempted, round.failed, round.mismatched), (5, 3, 1));
    }
}
