//! One benchmark run: one workload, one pass, in this process.
//!
//! The **untraced** pass measures the end-to-end metrics with telemetry
//! off.  The **traced** pass gives the per-layer metrics: it reruns the
//! workload in alternating traced and untraced segments (their rate
//! difference is the tracing overhead), harvests the product's own spans
//! and event stamps, replays the layers single-threaded under the
//! benchmark's spans, and checks the exact counters.

use crate::machine;
use crate::metrics::Metrics;
use crate::replay::{replay, Replayed};
use crate::spans::{self, Recorder};
use crate::stats::{
    blocked_percentile, blocks, median, percentile, resolved, samples_beyond, BLOCK_SAMPLES,
};
use crate::workloads::{
    standard_baseline_round, Inputs, Kind, LoopState, Round, Sample, INGEST_DISTINCT, INGEST_FILES,
};
use hsi::CloneLedger;
use service::{
    BackendKind, EventSubscriber, FusionService, JobId, ServiceEvent, ServiceReport, TenantId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use telemetry::{MonotonicClock, Telemetry};

pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    /// How long the pass measures.
    pub seconds: f64,
    pub traced: bool,
    /// A twentieth of the work, one set-up: exercises the harness only.
    pub smoke: bool,
    /// The benchmark's own output directory (traces, work files).
    pub out: PathBuf,
}

pub struct Outcome {
    /// No failed job, no output mismatch and no exact-counter violation.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of `--seconds` each of the four segments of a traced pass
/// measures; the layer replay takes most of the rest.
const SEGMENT_SHARE: f64 = 0.15;
/// A residual above this share of p50 is printed as a finding.
const RESIDUAL_FINDING: f64 = 0.15;
/// Flight-recorder window of a traced segment: large enough that
/// `telemetry.dropped_records` stays 0 and every measured job is harvested.
const RECORDER_CAPACITY: usize = 1 << 20;

/// Failures and violations accumulated over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: u64,
    violations: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.mismatched += round.mismatched;
    }

    /// Records an exact-counter violation unless `ok`.
    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

fn start(kind: Kind, telemetry: Telemetry) -> FusionService {
    FusionService::start(kind.service_config(telemetry)).expect("service starts")
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// User + system CPU time of this process so far, in milliseconds.
fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in USER_HZ (100) ticks.
    let after = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks * 10.0
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_ms).collect()
}

fn p(values: &[f64], percent: f64) -> f64 {
    percentile(values, percent).unwrap_or(0.0)
}

/// Runs rounds of the workload's fixed job count until `seconds` have
/// passed (always at least one).
fn measure(
    kind: Kind,
    service: &FusionService,
    inputs: &Inputs,
    seconds: f64,
    smoke: bool,
    tally: &mut Tally,
) -> Vec<Round> {
    let mut state = LoopState::default();
    let mut rounds = Vec::new();
    let started = Instant::now();
    loop {
        let round = kind.round(service, inputs, &mut state, smoke);
        tally.absorb(&round);
        rounds.push(round);
        if started.elapsed().as_secs_f64() >= seconds {
            return rounds;
        }
    }
}

fn rates(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| r.samples.len() as f64 / r.wall_s)
        .collect()
}

fn untraced(opts: &Options, metrics: &mut Metrics, tally: &mut Tally) {
    let kind = opts.kind;
    let work = opts.out.join("work");
    let mut setup_s = Vec::new();
    let mut live: Option<(Inputs, FusionService)> = None;
    for _ in 0..if opts.smoke { 1 } else { SETUPS } {
        // Tearing the previous set-up down is not part of the next one.
        if let Some((inputs, service)) = live.take() {
            service.shutdown();
            drop(inputs);
        }
        let started = Instant::now();
        let inputs = Inputs::prepare(kind, opts.seed, &work);
        let service = start(kind, Telemetry::disabled());
        let warm = kind.warm_up(&service, &inputs);
        setup_s.push(started.elapsed().as_secs_f64());
        tally.absorb(&warm);
        live = Some((inputs, service));
    }
    let (inputs, service) = live.expect("at least one set-up");

    let cpu_before = process_cpu_ms();
    let rounds = measure(kind, &service, &inputs, opts.seconds, opts.smoke, tally);
    let cpu_ms = process_cpu_ms() - cpu_before;
    service.shutdown();

    let per_round: Vec<Vec<f64>> = rounds.iter().map(|r| latencies(&r.samples)).collect();
    let blocks = blocks(&per_round, BLOCK_SAMPLES);
    let n: usize = per_round.iter().map(Vec::len).sum();
    let smallest = blocks.iter().map(Vec::len).min().unwrap_or(0);
    println!(
        "# {}: {} rounds, {n} jobs timed on {} cores, in {} blocks of at least {smallest}; p90 has {} samples beyond it in a block ({})",
        kind.name(),
        rounds.len(),
        std::thread::available_parallelism().map_or(0, |c| c.get()),
        blocks.len(),
        samples_beyond(smallest, 90.0),
        if resolved(smallest, 90.0) {
            "resolved"
        } else {
            "fewer than 10: read it as indicative"
        },
    );
    metrics.set("setup_s", median(&setup_s));
    metrics.set("jobs_per_s", median(&rates(&rounds)));
    metrics.set("job_latency_p50_ms", blocked_percentile(&blocks, 50.0));
    metrics.set("job_latency_p90_ms", blocked_percentile(&blocks, 90.0));
    metrics.set("cpu_ms_per_job", cpu_ms / n.max(1) as f64);
    metrics.set("peak_rss_mb", peak_rss_mb());
}

/// What the product's own telemetry said about the measured jobs of the
/// traced segments.
#[derive(Default)]
struct Harvest {
    jobs: usize,
    spans: usize,
    dropped: u64,
    job_ms: Vec<f64>,
    /// Per measured job: the part of its `job` span no child span covers.
    job_self_ms: Vec<f64>,
    job_ms_by_route: BTreeMap<BackendKind, Vec<f64>>,
    queued_ms: Vec<f64>,
    queued_ms_by_tenant: BTreeMap<TenantId, Vec<f64>>,
    /// Durations of every other span name (`screen`, `derive`, `transform`,
    /// `inline`, `detect`, `regenerate`, ...).
    phase_ms: BTreeMap<&'static str, Vec<f64>>,
    /// The last traced segment's spans, for the trace file.
    trace: Vec<spans::Span>,
}

impl Harvest {
    fn absorb(&mut self, telemetry: &Telemetry, events: &EventSubscriber, rounds: &[Round]) {
        let measured: BTreeSet<JobId> = rounds
            .iter()
            .flat_map(|r| r.samples.iter().map(|s| s.job))
            .collect();
        let mut admitted: BTreeMap<JobId, (TenantId, BackendKind)> = BTreeMap::new();
        while let Some(stamped) = events.try_next_stamped() {
            if let ServiceEvent::Admitted {
                job, tenant, route, ..
            } = stamped.event
            {
                admitted.insert(job, (tenant, route));
            }
        }
        self.jobs += measured.len();
        self.dropped += telemetry.dropped_records();
        let recorded = telemetry.spans();
        self.trace = recorded
            .iter()
            .map(|span| spans::Span {
                id: span.id.0,
                parent: span.parent.map(|p| p.0),
                name: span.name.to_string(),
                job: span.job.unwrap_or(0),
                start_ns: span.start_nanos,
                end_ns: span.end_nanos,
            })
            .collect();
        self.job_self_ms
            .extend(job_residuals_ms(&self.trace, &measured));
        for span in recorded {
            let ms = span.duration_nanos() as f64 / 1e6;
            // Fault-handling spans hang off whichever job was affected (or
            // none); warm-up never attacks, so all of them are measured.
            let fault = matches!(span.name, "detect" | "regenerate");
            let Some(job) = span.job.filter(|j| measured.contains(j)) else {
                if fault {
                    self.phase_ms.entry(span.name).or_default().push(ms);
                }
                continue;
            };
            self.spans += 1;
            match span.name {
                "job" => {
                    self.job_ms.push(ms);
                    if let Some((_, route)) = admitted.get(&job) {
                        self.job_ms_by_route.entry(*route).or_default().push(ms);
                    }
                }
                "queued" => {
                    self.queued_ms.push(ms);
                    if let Some((tenant, _)) = admitted.get(&job) {
                        self.queued_ms_by_tenant
                            .entry(*tenant)
                            .or_default()
                            .push(ms);
                    }
                }
                name => self.phase_ms.entry(name).or_default().push(ms),
            }
        }
    }

    fn phase_p50(&self, name: &str) -> f64 {
        self.phase_ms.get(name).map_or(0.0, |v| p(v, 50.0))
    }
}

/// Self time, in ms, of the `job` root span of every measured job: the part
/// of a job's latency that none of its child spans (`queued`, the phases)
/// covers.
fn job_residuals_ms(trace: &[spans::Span], measured: &BTreeSet<JobId>) -> Vec<f64> {
    spans::self_times(trace)
        .into_iter()
        .zip(trace)
        .filter(|(_, span)| span.name == "job" && measured.contains(&span.job))
        .map(|((_, self_ns), _)| self_ns as f64 / 1e6)
        .collect()
}

/// Closure check of the product's span tree: the median unexplained part of
/// a job as a share of the median job.
fn residual_share(job_self_ms: &[f64], job_ms: &[f64]) -> f64 {
    p(job_self_ms, 50.0) / p(job_ms, 50.0)
}

/// One segment of the traced pass: a fresh service, warm-up, rounds.
struct Segment {
    traced: bool,
    rounds: Vec<Round>,
    report: ServiceReport,
    start_ms: f64,
    shutdown_ms: f64,
    bytes_cloned: u64,
}

fn run_segment(
    opts: &Options,
    inputs: &Inputs,
    traced: bool,
    seconds: f64,
    harvest: &mut Harvest,
    tally: &mut Tally,
) -> Segment {
    let kind = opts.kind;
    let telemetry = if traced {
        Telemetry::with_clock(Arc::new(MonotonicClock::new()), RECORDER_CAPACITY)
    } else {
        Telemetry::disabled()
    };
    let ledger = CloneLedger::snapshot();
    let started = Instant::now();
    let service = start(kind, telemetry.clone());
    let start_ms = started.elapsed().as_secs_f64() * 1e3;
    let events = traced.then(|| service.subscribe());
    tally.absorb(&kind.warm_up(&service, inputs));
    let rounds = measure(kind, &service, inputs, seconds, opts.smoke, tally);
    let stopping = Instant::now();
    let report = service.shutdown();
    let shutdown_ms = stopping.elapsed().as_secs_f64() * 1e3;
    if let Some(events) = events {
        harvest.absorb(&telemetry, &events, &rounds);
    }
    Segment {
        traced,
        rounds,
        report,
        start_ms,
        shutdown_ms,
        bytes_cloned: ledger.delta(),
    }
}

fn traced(opts: &Options, metrics: &mut Metrics, tally: &mut Tally) {
    let kind = opts.kind;
    machine::probe(metrics, opts.smoke);
    let inputs = Inputs::prepare(kind, opts.seed, &opts.out.join("work"));

    // Traced and untraced segments alternate so slow drift (frequency,
    // cache state) biases neither side of the overhead comparison.
    let mut harvest = Harvest::default();
    let segments: Vec<Segment> = (0..4)
        .map(|i| {
            run_segment(
                opts,
                &inputs,
                i % 2 == 0,
                opts.seconds * SEGMENT_SHARE,
                &mut harvest,
                tally,
            )
        })
        .collect();

    let mut rec = Recorder::new();
    let replayed = replay(metrics, &mut rec, &inputs, opts.smoke);
    tally.violations.extend(replayed.violations.iter().cloned());

    service_metrics(&inputs, metrics, &harvest, &segments, &replayed, tally);
    match kind {
        Kind::IngestReplay => ingest_metrics(metrics, &segments, &replayed, tally),
        Kind::ResilientKill => {
            resilience_metrics(opts, metrics, &inputs, &harvest, &segments, tally)
        }
        _ => {}
    }

    let rate = |traced: bool| {
        let rounds: Vec<f64> = segments
            .iter()
            .filter(|s| s.traced == traced)
            .flat_map(|s| rates(&s.rounds))
            .collect();
        median(&rounds)
    };
    let (plain, with_tracing) = (rate(false), rate(true));
    metrics.set(
        "telemetry.overhead_pct",
        (plain - with_tracing) / plain * 100.0,
    );
    metrics.set(
        "telemetry.spans_per_job",
        harvest.spans as f64 / harvest.jobs.max(1) as f64,
    );
    metrics.set("telemetry.dropped_records", harvest.dropped as f64);

    // The printed layer-share table: self time of the replayed stages per
    // job (per arrival for `ingest.*`; the two are replayed a different
    // number of times).  The `replay.*` roots and the `task.*` rerun of the
    // same work through `handle_task` are left out.
    let roots = |name: &str| rec.spans().iter().filter(|s| s.name == name).count().max(1);
    let (jobs, arrivals) = (roots("replay.job"), roots("replay.arrival"));
    let mut stages: Vec<(String, f64)> = spans::self_time_by_name(rec.spans())
        .into_iter()
        .filter(|(name, _)| !name.starts_with("replay.") && !name.starts_with("task."))
        .map(|(name, ns)| {
            let calls = if name.starts_with("ingest.") {
                arrivals
            } else {
                jobs
            };
            (name, ns as f64 / 1e6 / calls as f64)
        })
        .collect();
    stages.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = stages.iter().map(|(_, ms)| ms).sum();
    println!("# {} layer replay, self time per job:", kind.name());
    for (name, ms) in &stages {
        println!(
            "#   {name:<22} {ms:>10.4} ms  {:>5.1} %",
            ms / total * 100.0
        );
    }
    let share = |name: &str| metrics.get(name).unwrap_or(0.0) * 100.0;
    println!(
        "# {} shares: pct.screen {:.0} % and pct.derive {:.0} % of replayed compute; admission wait {:.0} % and wire {:.0} % of traced p50; ingest {:.0} % of pass wall",
        kind.name(),
        share("pct.screen_share"),
        share("pct.derive_share"),
        share("service.admission_share"),
        share("wire.share_of_p50"),
        share("ingest.share_of_wall"),
    );

    let trace_path = opts.out.join(format!("trace_{}.json", kind.name()));
    std::fs::create_dir_all(&opts.out).expect("output directory");
    std::fs::write(
        &trace_path,
        spans::chrome_trace(&[
            (
                "fusiond: product spans of the last traced segment",
                &harvest.trace,
            ),
            ("fusebench: layer replay", rec.spans()),
        ]),
    )
    .expect("trace file written");
    println!("# trace {}", trace_path.display());
    let residual = metrics.get("service.residual_share").unwrap_or(0.0);
    if residual > RESIDUAL_FINDING {
        println!(
            "# FINDING {}: {:.0} % of traced p50 is in no product span (service.residual_share); see {}",
            kind.name(),
            residual * 100.0,
            trace_path.display()
        );
    }
}

fn all_rounds(segments: &[Segment]) -> impl Iterator<Item = &Round> {
    segments.iter().flat_map(|s| s.rounds.iter())
}

fn service_metrics(
    inputs: &Inputs,
    metrics: &mut Metrics,
    harvest: &Harvest,
    segments: &[Segment],
    replayed: &Replayed,
    tally: &mut Tally,
) {
    let kind = inputs.kind;
    let job_p50 = p(&harvest.job_ms, 50.0);
    let wait_p50 = p(&harvest.queued_ms, 50.0);
    metrics.set("service.admission_wait_ms_p50", wait_p50);
    metrics.set("service.admission_wait_ms_p90", p(&harvest.queued_ms, 90.0));
    metrics.set("service.admission_share", wait_p50 / job_p50);
    metrics.set(
        "service.queue_high_water",
        segments
            .iter()
            .map(|s| s.report.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    for (phase, name) in [
        ("screen", "service.phase_screen_ms_p50"),
        ("derive", "service.phase_derive_ms_p50"),
        ("transform", "service.phase_transform_ms_p50"),
        ("inline", "service.phase_inline_ms_p50"),
    ] {
        metrics.set(name, harvest.phase_p50(phase));
    }
    metrics.set(
        "service.residual_share",
        residual_share(&harvest.job_self_ms, &harvest.job_ms),
    );

    // The shared-memory lane runs the sequential reference inline; the
    // message-plane lanes run the job's task messages.
    let compute_ms = if kind.pinned_lane() == Some(BackendKind::SharedMemory) {
        replayed.sequential_ms
    } else {
        replayed.task_compute_ms
    };
    metrics.set(
        "service.dispatch_overhead_ms_p50",
        job_p50 - wait_p50 - compute_ms,
    );
    metrics.set("service.overhead_ratio", job_p50 / replayed.sequential_ms);
    metrics.set(
        "service.start_ms",
        median(&segments.iter().map(|s| s.start_ms).collect::<Vec<_>>()),
    );
    metrics.set(
        "service.shutdown_ms",
        median(&segments.iter().map(|s| s.shutdown_ms).collect::<Vec<_>>()),
    );

    let completed: u64 = segments.iter().map(|s| s.report.jobs_completed).sum();
    let tasks: u64 = segments.iter().map(|s| s.report.tasks_dispatched).sum();
    let tasks_per_job = tasks as f64 / completed.max(1) as f64;
    metrics.set("service.tasks_per_job", tasks_per_job);
    tally.gate(tasks_per_job == kind.tasks_per_job(), || {
        format!(
            "service.tasks_per_job is {tasks_per_job}, the protocol says {}",
            kind.tasks_per_job()
        )
    });

    let cloned: u64 = segments.iter().map(|s| s.bytes_cloned).sum();
    let cloned_per_job = cloned as f64 / completed.max(1) as f64;
    metrics.set("hsi.bytes_cloned_per_job", cloned_per_job);

    if kind == Kind::MixedBurst {
        for (route, name) in [
            (BackendKind::Standard, "service.lane_standard_p50_ms"),
            (BackendKind::Resilient, "service.lane_resilient_p50_ms"),
            (
                BackendKind::SharedMemory,
                "service.lane_shared_memory_p50_ms",
            ),
        ] {
            let lane = harvest.job_ms_by_route.get(&route);
            metrics.set(name, lane.map_or(0.0, |v| p(v, 50.0)));
        }
        let tenant_wait = |tenant: u64| {
            harvest
                .queued_ms_by_tenant
                .get(&TenantId(tenant))
                .map_or(0.0, |v| p(v, 50.0))
        };
        if tenant_wait(2) > 0.0 {
            metrics.set("service.t1_over_t2_wait", tenant_wait(1) / tenant_wait(2));
        }
        if resolved(harvest.job_ms.len(), 99.0) {
            metrics.set("service.job_latency_p99_ms", p(&harvest.job_ms, 99.0));
        }
    }

    if kind == Kind::RemoteWire {
        // Every shard crosses the socket twice (screen, transform), and the
        // codec's materialization is the only place pixels are copied.
        let payload = 2.0 * inputs.cubes[0].byte_size() as f64;
        tally.gate(cloned_per_job == payload, || {
            format!("hsi.bytes_cloned_per_job is {cloned_per_job} on the remote lane, the payload is {payload}")
        });
        let wire_ms = job_p50 - wait_p50 - compute_ms;
        metrics.set(
            "wire.hop_overhead_ms",
            (wire_ms - replayed.codec_ms_per_job) / kind.tasks_per_job(),
        );
        metrics.set("wire.share_of_p50", wire_ms / job_p50);
    } else {
        tally.gate(cloned == 0, || {
            format!("{cloned} payload bytes were cloned on in-process lanes")
        });
    }
}

fn ingest_metrics(
    metrics: &mut Metrics,
    segments: &[Segment],
    replayed: &Replayed,
    tally: &mut Tally,
) {
    let report = segments
        .iter()
        .rev()
        .flat_map(|s| s.rounds.iter().rev())
        .find_map(|r| r.ingest.as_ref())
        .expect("an ingest pass ran");
    let totals = report.totals();
    let (distinct, duplicates) = (
        INGEST_DISTINCT as u64,
        (INGEST_FILES - INGEST_DISTINCT) as u64,
    );
    let arrivals = (totals.store_hits + totals.store_misses).max(1);
    metrics.set(
        "ingest.store_hit_ratio",
        totals.store_hits as f64 / arrivals as f64,
    );
    metrics.set("ingest.chunks", totals.chunks as f64);
    metrics.set("ingest.bytes_assembled", totals.bytes_assembled as f64);
    metrics.set("ingest.shed", totals.cubes_shed() as f64);
    tally.gate(
        (totals.store_hits, totals.store_misses, totals.cubes_shed()) == (duplicates, distinct, 0),
        || {
            format!(
                "a pass over {INGEST_FILES} files gave {} store hits, {} misses, {} shed; expected {duplicates}, {distinct}, 0",
                totals.store_hits,
                totals.store_misses,
                totals.cubes_shed()
            )
        },
    );
    // Wall time of one pass with telemetry off.
    let pass_ms: Vec<f64> = segments
        .iter()
        .filter(|s| !s.traced)
        .flat_map(|s| s.rounds.iter())
        .map(|r| r.wall_s * 1e3 / (r.samples.len().max(1) as f64 / INGEST_FILES as f64))
        .collect();
    metrics.set(
        "ingest.share_of_wall",
        replayed.ingest_ms_per_pass / median(&pass_ms),
    );
}

fn resilience_metrics(
    opts: &Options,
    metrics: &mut Metrics,
    inputs: &Inputs,
    harvest: &Harvest,
    segments: &[Segment],
    tally: &mut Tally,
) {
    let kills: u64 = all_rounds(segments).map(|r| r.kills).sum();
    let sum =
        |f: &dyn Fn(&ServiceReport) -> u64| segments.iter().map(|s| f(&s.report)).sum::<u64>();
    let regenerations = sum(&|r| r.regenerations as u64);
    metrics.set("resilience.kills", kills as f64);
    metrics.set("resilience.regenerations", regenerations as f64);
    tally.gate(kills > 0 && kills == regenerations, || {
        format!("{kills} kills but {regenerations} regenerations: a kill missed a live member")
    });
    metrics.set("resilience.detect_ms_p50", harvest.phase_p50("detect"));
    metrics.set("resilience.regen_ms_p50", harvest.phase_p50("regenerate"));
    metrics.set(
        "resilience.duplicates_ignored",
        sum(&|r| r.duplicates_ignored) as f64,
    );
    metrics.set(
        "resilience.tasks_retransmitted",
        sum(&|r| r.tasks_retransmitted) as f64,
    );
    let by_attack = |attacked: bool| -> Vec<f64> {
        all_rounds(segments)
            .flat_map(|r| r.samples.iter())
            .filter(|s| s.attacked == attacked)
            .map(|s| s.latency_ms)
            .collect()
    };
    let plain_p50 = p(&by_attack(false), 50.0);
    metrics.set("resilience.attacked_p50_ms", p(&by_attack(true), 50.0));
    metrics.set("resilience.plain_p50_ms", plain_p50);

    // The Figure-4 ratio: the same jobs, one client, unreplicated.
    let service = start(Kind::ScreenBound, Telemetry::disabled());
    let jobs = if opts.smoke { 2 } else { 24 };
    tally.absorb(&standard_baseline_round(
        &service,
        inputs,
        inputs.cubes.len(),
    ));
    let baseline = standard_baseline_round(&service, inputs, jobs);
    tally.absorb(&baseline);
    service.shutdown();
    metrics.set(
        "resilience.replication_cost_ratio",
        plain_p50 / p(&latencies(&baseline.samples), 50.0),
    );
}

/// Runs one pass and prints every metric as `workload metric unit value`.
pub fn run(opts: &Options) -> Outcome {
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    if opts.traced {
        traced(opts, &mut metrics, &mut tally);
    } else {
        untraced(opts, &mut metrics, &mut tally);
    }
    for violation in &tally.violations {
        println!("# VIOLATION {}: {violation}", opts.kind.name());
    }
    if tally.mismatched > 0 {
        println!(
            "# VIOLATION {}: {} outputs differ from the SequentialPct reference",
            opts.kind.name(),
            tally.mismatched
        );
    }
    if tally.failed > 0 {
        println!(
            "# VIOLATION {}: {} of {} jobs failed, were refused, shed, timed out or cancelled",
            opts.kind.name(),
            tally.failed,
            tally.attempted
        );
    }
    let pass = metrics.pass(opts.traced);
    for (name, unit, value) in &pass {
        println!("{} {name} {unit} {value}", opts.kind.name());
    }
    Outcome {
        // The workloads are chosen so that nothing fails; a change that
        // makes a job fail must not read as a faster run.
        correct: tally.failed == 0 && tally.mismatched == 0 && tally.violations.is_empty(),
        attempted: tally.attempted.max(1),
        failed: tally.failed + tally.mismatched,
        metrics: pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, job: u64, ms: (u64, u64)) -> spans::Span {
        spans::Span {
            id,
            parent,
            name: name.to_string(),
            job,
            start_ns: ms.0 * 1_000_000,
            end_ns: ms.1 * 1_000_000,
        }
    }

    #[test]
    fn residual_share_is_the_median_uncovered_part_over_the_median_job() {
        // Three measured 100 ms jobs whose children leave 10, 20 and 30 ms
        // uncovered, and a warm-up job (id 9) that must not count.
        let mut trace = Vec::new();
        for (job, gap) in [(1u64, 10u64), (2, 20), (3, 30), (9, 90)] {
            let root = job * 10;
            trace.push(span(root, None, "job", job, (0, 100)));
            trace.push(span(root + 1, Some(root), "queued", job, (0, 40)));
            // Overlaps `queued` by 5 ms: the union, not the sum, is covered.
            trace.push(span(root + 2, Some(root), "screen", job, (35, 100 - gap)));
        }
        let measured: BTreeSet<JobId> = [1, 2, 3].into_iter().collect();
        let mut residuals = job_residuals_ms(&trace, &measured);
        residuals.sort_by(f64::total_cmp);
        assert_eq!(residuals, [10.0, 20.0, 30.0]);
        let share = residual_share(&residuals, &[100.0, 100.0, 100.0]);
        assert!((share - 0.20).abs() < 1e-12);
        assert!(share > RESIDUAL_FINDING, "a 20 % gap is a finding");
    }
}
