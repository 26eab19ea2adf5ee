//! The single-threaded layer replay of a traced run: for a few of the
//! workload's distinct inputs, call the layers' public functions in job
//! order under the benchmark's own spans, and time the kernels beneath them.
//!
//! Layers are measured from outside — nothing here reaches into the
//! program.  Everything replayed is also checked: the replayed image must
//! equal the workload's `SequentialPct` reference byte for byte.

use crate::metrics::Metrics;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{Inputs, Kind, INGEST_CHUNK_BYTES, SHARDS};
use hsi::io::{CubeFileHeader, Interleave, CUBE_FILE_HEADER_LEN};
use hsi::partition::partition_views;
use hsi::{CloneLedger, HyperCube};
use ingest::{store::content_hash, CubeStore, StreamDecoder};
use linalg::covariance::covariance_matrix;
use linalg::{sorted_eigenpairs, JacobiOptions, SymMatrix, Vector};
use pct::colormap::{map_cube, ComponentScale};
use pct::distributed::{assemble_image, handle_task};
use pct::messages::PctMessage;
use pct::pipeline::{derive_transform, transform_view};
use pct::screening::screen_pixels_seeded;
use pct::SequentialPct;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::{decode_body, encode_message, FrameReader, TcpTransport, Transport, WireMessage};

const MIB: f64 = (1 << 20) as f64;

/// Distinct inputs replayed per workload (the first in job order: replaying
/// all 32 or 36 would take the whole run), the time each may take, and the
/// passes over it that buys.
const REPLAY_INPUTS: usize = 2;
const REPLAY_BUDGET: Duration = Duration::from_millis(600);
const MIN_REPLAY_REPS: usize = 2;
const MAX_REPLAY_REPS: usize = 40;

/// What the replay hands back for the subtraction metrics.
#[derive(Default)]
pub struct Replayed {
    /// Single-threaded compute of one job's real task messages through
    /// `handle_task` plus image assembly, median over inputs.
    pub task_compute_ms: f64,
    /// `SequentialPct::run`, median over inputs.
    pub sequential_ms: f64,
    /// `remote_wire`: encode + decode of one job's frames, both directions.
    pub codec_ms_per_job: f64,
    /// `ingest_replay`: read + decode + intern of one pass over the files.
    pub ingest_ms_per_pass: f64,
    /// A replayed image differed from the reference.
    pub violations: Vec<String>,
}

fn ns(duration: Duration) -> f64 {
    duration.as_nanos() as f64
}

/// Median wall time of `reps` calls of `body`, in nanoseconds.
fn timed<T>(reps: usize, mut body: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(body());
            ns(start.elapsed())
        })
        .collect();
    median(&samples)
}

/// The pipeline stages of one job, each under its own span.  Returns the
/// stage times (ns) and the final unique-set size.
#[derive(Default)]
struct StageTimes {
    pixel_vectors: f64,
    screen: f64,
    derive: f64,
    transform: f64,
    colormap: f64,
    assemble: f64,
    unique: usize,
}

fn replay_stages(
    rec: &mut Recorder,
    job: u64,
    inputs: &Inputs,
    index: usize,
    violations: &mut Vec<String>,
) -> StageTimes {
    let cube = &inputs.cubes[index];
    let config = inputs.config;
    let views = partition_views(cube, SHARDS).expect("shards");
    let mut times = StageTimes::default();
    rec.span("replay.job", job, |rec| {
        let mut unique: Vec<Vector> = Vec::new();
        for view in &views {
            let (pixels, t) = rec.span("hsi.pixel_vectors", job, |_| view.pixel_vectors());
            times.pixel_vectors += t as f64;
            let (accepted, t) = rec.span("pct.screen", job, |_| {
                screen_pixels_seeded(&unique, &pixels, config.screening_angle_rad)
            });
            times.screen += t as f64;
            unique.extend(accepted);
        }
        times.unique = unique.len();
        let (spec, t) = rec.span("pct.derive", job, |_| {
            derive_transform(&unique, &config).expect("derive")
        });
        times.derive = t as f64;
        let scales = ComponentScale::from_eigenvalues(&spec.eigenvalues, 3);
        let mut strips = Vec::with_capacity(views.len());
        for view in &views {
            let (components, t) = rec.span("pct.transform", job, |_| {
                transform_view(&spec, view).expect("transform")
            });
            times.transform += t as f64;
            let (strip, t) = rec.span("pct.colormap", job, |_| map_cube(&components, &scales));
            times.colormap += t as f64;
            strips.push((
                view.row_start(),
                view.height(),
                view.width(),
                strip.raw().to_vec(),
            ));
        }
        let (image, t) = rec.span("pct.assemble", job, |_| {
            assemble_image(cube.width(), cube.height(), strips).expect("assemble")
        });
        times.assemble = t as f64;
        if image != inputs.refs[index].image || times.unique != inputs.refs[index].unique_count {
            violations.push(format!(
                "layer replay of input {index} differs from the SequentialPct reference"
            ));
        }
    });
    times
}

/// One job's real protocol exchange: the task messages the scheduler would
/// build, run through the worker's `handle_task`, with the replies.
struct Exchange {
    tasks: Vec<PctMessage>,
    replies: Vec<PctMessage>,
    compute_ns: f64,
}

fn replay_tasks(
    rec: &mut Recorder,
    job: u64,
    inputs: &Inputs,
    index: usize,
    violations: &mut Vec<String>,
) -> Exchange {
    let cube = &inputs.cubes[index];
    let config = inputs.config;
    let views = partition_views(cube, SHARDS).expect("shards");
    let mut exchange = Exchange {
        tasks: Vec::new(),
        replies: Vec::new(),
        compute_ns: 0.0,
    };
    rec.span("replay.tasks", job, |rec| {
        let mut run = |rec: &mut Recorder, name: &str, task: PctMessage| -> PctMessage {
            exchange.tasks.push(task.clone());
            let (reply, t) = rec.span(name, job, |_| handle_task(task).expect("a task message"));
            exchange.compute_ns += t as f64;
            exchange.replies.push(reply.clone());
            reply
        };
        let mut unique: Vec<Vector> = Vec::new();
        for (task, view) in views.iter().enumerate() {
            let reply = run(
                rec,
                "task.screen",
                PctMessage::ScreenSeededTask {
                    task,
                    view: view.clone(),
                    seed: unique.clone(),
                    threshold_rad: config.screening_angle_rad,
                },
            );
            let PctMessage::SeededUnique { accepted, .. } = reply else {
                panic!("screening task answered with {}", reply.kind());
            };
            unique.extend(accepted);
        }
        let reply = run(
            rec,
            "task.derive",
            PctMessage::DeriveTask {
                task: SHARDS,
                unique,
                config,
            },
        );
        let PctMessage::DerivedTransform {
            mean,
            transform,
            eigenvalues,
            ..
        } = reply
        else {
            panic!("derive task answered with {}", reply.kind());
        };
        let scales: Vec<(f64, f64)> = ComponentScale::from_eigenvalues(&eigenvalues, 3)
            .iter()
            .map(|s| (s.min, s.max))
            .collect();
        let mut strips = Vec::with_capacity(views.len());
        for (i, view) in views.iter().enumerate() {
            let reply = run(
                rec,
                "task.transform",
                PctMessage::TransformTask {
                    task: SHARDS + 1 + i,
                    view: view.clone(),
                    mean: mean.clone(),
                    transform: transform.clone(),
                    scales: scales.clone(),
                },
            );
            let PctMessage::RgbStrip {
                row_start,
                rows,
                width,
                rgb,
                ..
            } = reply
            else {
                panic!("transform task answered with {}", reply.kind());
            };
            strips.push((row_start, rows, width, rgb));
        }
        let (image, t) = rec.span("task.assemble", job, |_| {
            assemble_image(cube.width(), cube.height(), strips).expect("assemble")
        });
        exchange.compute_ns += t as f64;
        if image != inputs.refs[index].image {
            violations.push(format!(
                "task replay of input {index} differs from the SequentialPct reference"
            ));
        }
    });
    exchange
}

/// `linalg` kernels at the workload's band count, on its own pixel vectors.
fn replay_linalg(metrics: &mut Metrics, cube: &HyperCube, unique: &[Vector], smoke: bool) {
    let bands = cube.bands();
    let pixels = cube.pixel_vectors();
    let pairs = if smoke { 1_000 } else { 200_000 };
    let dot_ns = timed(3, || {
        let mut acc = 0.0;
        for i in 0..pairs {
            let a = &pixels[i % pixels.len()];
            let b = &pixels[(i * 7 + 1) % pixels.len()];
            acc += a.dot(b).expect("equal lengths");
        }
        acc
    });
    metrics.set(
        "linalg.dot_ns_per_elem",
        dot_ns / (pairs as f64 * bands as f64),
    );
    let angle_ns = timed(3, || {
        let mut acc = 0.0;
        for i in 0..pairs {
            let a = &pixels[i % pixels.len()];
            let b = &pixels[(i * 7 + 1) % pixels.len()];
            acc += a.spectral_angle(b).expect("equal lengths");
        }
        acc
    });
    metrics.set("linalg.spectral_angle_ns", angle_ns / pairs as f64);

    let covariance_ns = timed(3, || covariance_matrix(unique).expect("covariance"));
    metrics.set(
        "linalg.covariance_ns_per_vec_band2",
        covariance_ns / (unique.len() as f64 * (bands * bands) as f64),
    );

    // The two kernels ROADMAP 3c/3d name are only meaningful at the paper's
    // 210 bands, which only derive_bound runs.
    if bands == 210 {
        let updates = if smoke { 10 } else { 500 };
        let update_ns = timed(3, || {
            let mut sum = SymMatrix::zeros(bands);
            for i in 0..updates {
                sum.rank_one_update(&pixels[i % pixels.len()])
                    .expect("dims");
            }
            sum
        });
        metrics.set("linalg.rank_one_update_210_ns", update_ns / updates as f64);
        let covariance = covariance_matrix(unique).expect("covariance");
        let eigen_ns = timed(if smoke { 1 } else { 3 }, || {
            sorted_eigenpairs(&covariance, JacobiOptions::default()).expect("eigen")
        });
        metrics.set("linalg.eigen_210_ms", eigen_ns / 1e6);
    }
}

/// The wire layer on one job's real frames, plus a heartbeat echo over a
/// real loopback `TcpTransport` served by the product's worker loop.
fn replay_wire(
    metrics: &mut Metrics,
    exchange: &Exchange,
    payload_bytes: usize,
    smoke: bool,
) -> f64 {
    let messages: Vec<WireMessage> = exchange
        .tasks
        .iter()
        .chain(&exchange.replies)
        .cloned()
        .map(WireMessage::Pct)
        .collect();

    // One counted pass reconciled against the clone ledger: the codec
    // materializes each task's view into its frame and copies pixels
    // nowhere else — every shard is shipped once to screen, once to
    // transform.
    let ledger = CloneLedger::snapshot();
    let frames: Vec<Vec<u8>> = messages.iter().map(encode_message).collect();
    assert_eq!(
        ledger.delta(),
        2 * payload_bytes as u64,
        "wire bytes do not reconcile with the clone ledger"
    );
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let mb = bytes as f64 / MIB;
    metrics.set("wire.frames_per_job", frames.len() as f64);
    metrics.set("wire.bytes_per_job", bytes as f64);

    let reps = if smoke { 1 } else { 9 };
    let encode_ns = timed(reps, || {
        messages
            .iter()
            .map(encode_message)
            .map(|f| f.len())
            .sum::<usize>()
    });
    // Framing (header parse, CRC check, body copy) apart from the codec.
    let mut bodies = Vec::with_capacity(frames.len());
    let frame_ns = timed(reps, || {
        bodies.clear();
        let mut reader = FrameReader::new();
        for frame in &frames {
            reader.push(frame);
            while let Some(body) = reader.next_frame().expect("well-formed frame") {
                bodies.push(body);
            }
        }
        bodies.len()
    });
    assert_eq!(bodies.len(), frames.len(), "frame count drifted");
    let decode_ns = timed(reps, || {
        bodies
            .iter()
            .map(|body| decode_body(body).expect("body decodes"))
            .collect::<Vec<_>>()
    });
    let crc_ns = timed(reps, || {
        bodies
            .iter()
            .fold(0u32, |acc, body| acc ^ wire::frame::crc32(body))
    });
    metrics.set("wire.encode_ns_per_mb", encode_ns / mb);
    metrics.set("wire.decode_ns_per_mb", decode_ns / mb);
    metrics.set("wire.frame_reader_ns_per_mb", frame_ns / mb);
    metrics.set("wire.crc32_ns_per_mb", crc_ns / mb);
    metrics.set("wire.tcp_roundtrip_us", tcp_roundtrip_us(smoke));
    // Each frame is encoded once and framed + decoded once.
    (encode_ns + frame_ns + decode_ns) / 1e6
}

/// Median heartbeat echo time over loopback TCP against `wire::worker`.
fn tcp_roundtrip_us(smoke: bool) -> f64 {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let addr = listener.local_addr().expect("listener address").to_string();
    let worker = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("worker connection");
        let mut transport = TcpTransport::new(stream).expect("worker transport");
        wire::worker::run_worker(&mut transport)
    });
    let mut manager = TcpTransport::connect(&addr).expect("connect to worker");
    wire::handshake(&mut manager, wire::worker::HANDSHAKE_TIMEOUT).expect("handshake");
    let beat = WireMessage::Pct(PctMessage::Heartbeat);
    let echoes = if smoke { 5 } else { 200 };
    let mut samples = Vec::with_capacity(echoes);
    for _ in 0..echoes {
        let start = Instant::now();
        manager.send(&beat).expect("send heartbeat");
        loop {
            match manager.recv_timeout(Duration::from_secs(5)).expect("recv") {
                Some(WireMessage::Pct(PctMessage::Heartbeat)) => break,
                Some(_) => continue,
                None => panic!("worker stopped echoing heartbeats"),
            }
        }
        samples.push(ns(start.elapsed()) / 1e3);
    }
    manager
        .send(&WireMessage::Pct(PctMessage::Shutdown))
        .expect("send shutdown");
    worker
        .join()
        .expect("worker thread")
        .expect("worker exits cleanly");
    median(&samples)
}

/// The ingest layer on the workload's own files: read, stream-decode in the
/// pump's chunk size, hash, intern.  Returns the time of one whole pass.
fn replay_ingest(metrics: &mut Metrics, rec: &mut Recorder, inputs: &Inputs) -> f64 {
    let dir = inputs.dir.as_ref().expect("ingest directory").path();
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("ingest directory lists")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    files.sort();
    let mut store = CubeStore::new(256 << 20);
    let (mut read, mut hash, mut hit, mut miss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut decode: [Vec<f64>; 3] = Default::default();
    let mut pass_ns = 0.0;
    for (job, path) in files.iter().enumerate() {
        let job = job as u64;
        rec.span("replay.arrival", job, |rec| {
            let (bytes, t) = rec.span("ingest.read", job, |_| {
                std::fs::read(path).expect("cube file reads")
            });
            let mb = bytes.len() as f64 / MIB;
            read.push(t as f64 / mb);
            pass_ns += t as f64;
            let header = CubeFileHeader::parse(&bytes[..CUBE_FILE_HEADER_LEN]).expect("header");
            let (cube, t) = rec.span("ingest.decode", job, |_| {
                let mut decoder = StreamDecoder::new(header);
                for chunk in bytes[CUBE_FILE_HEADER_LEN..].chunks(INGEST_CHUNK_BYTES) {
                    decoder.push(chunk).expect("chunk decodes");
                }
                decoder.finish().expect("cube completes")
            });
            let slot = Interleave::ALL
                .iter()
                .position(|i| *i == header.interleave)
                .expect("known interleave");
            decode[slot].push(t as f64 / mb);
            pass_ns += t as f64;
            // `intern` hashes internally; this separate call is a kernel
            // rate like the `linalg` ones, so it gets no span of its own.
            hash.push(timed(1, || content_hash(&cube)) / mb);
            let ((_, was_hit), t) =
                rec.span("ingest.intern", job, |_| store.intern(Arc::clone(&cube)));
            if was_hit { &mut hit } else { &mut miss }.push(t as f64 / 1e3);
            pass_ns += t as f64;
        });
    }
    metrics.set("ingest.read_ns_per_mb", median(&read));
    for (slot, name) in [
        "ingest.decode_bip_ns_per_mb",
        "ingest.decode_bil_ns_per_mb",
        "ingest.decode_bsq_ns_per_mb",
    ]
    .into_iter()
    .enumerate()
    {
        metrics.set(name, median(&decode[slot]));
    }
    metrics.set("ingest.content_hash_ns_per_mb", median(&hash));
    metrics.set("ingest.store_hit_us", median(&hit));
    metrics.set("ingest.store_miss_us", median(&miss));
    pass_ns / 1e6
}

/// Runs the whole replay for `inputs` and records every replay-sourced
/// metric.
pub fn replay(metrics: &mut Metrics, rec: &mut Recorder, inputs: &Inputs, smoke: bool) -> Replayed {
    let kind = inputs.kind;
    let mut out = Replayed::default();
    let replayed = inputs
        .cubes
        .len()
        .min(if smoke { 1 } else { REPLAY_INPUTS });

    let mut stages = Vec::new();
    let mut exchanges = Vec::new();
    let mut sequential = Vec::new();
    let mut job = 0;
    for index in 0..replayed {
        // The first pass over an input says how many fit the input's share
        // of the replay: 2 of derive_bound's 0.4 s jobs, 40 of mixed_burst's
        // 3 ms ones, whose median would otherwise rest on a handful.
        let first = Instant::now();
        let mut reps = 1;
        let mut rep = 0;
        while rep < reps {
            stages.push(replay_stages(rec, job, inputs, index, &mut out.violations));
            exchanges.push(replay_tasks(rec, job, inputs, index, &mut out.violations));
            if rep == 0 && !smoke {
                let fit = REPLAY_BUDGET.as_secs_f64() / first.elapsed().as_secs_f64();
                reps = (fit as usize).clamp(MIN_REPLAY_REPS, MAX_REPLAY_REPS);
            }
            rep += 1;
            job += 1;
        }
        let reference = SequentialPct::new(inputs.config);
        let cube = &inputs.cubes[index];
        sequential.push(timed(reps, || reference.run(cube).expect("sequential run")));
    }

    let dims = inputs.cubes[0].dims();
    let pixels = dims.pixels() as f64;
    let per = |f: &dyn Fn(&StageTimes) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let unique = per(&|s| s.unique as f64);
    let screen = per(&|s| s.screen);
    let pixel_vectors = per(&|s| s.pixel_vectors);
    let derive = per(&|s| s.derive);
    let transform = per(&|s| s.transform);
    let colormap = per(&|s| s.colormap);
    let assemble = per(&|s| s.assemble);
    let total = screen + pixel_vectors + derive + transform + colormap + assemble;
    metrics.set("pct.screen_ns_per_px_unique", screen / (pixels * unique));
    // Mean over the replayed inputs (each replay was checked against its
    // reference's count above); exact for a given seed.
    metrics.set(
        "pct.screen_unique_per_job",
        inputs.refs[..replayed]
            .iter()
            .map(|r| r.unique_count as f64)
            .sum::<f64>()
            / replayed as f64,
    );
    metrics.set("hsi.pixel_vectors_ns_per_px", pixel_vectors / pixels);
    metrics.set("pct.derive_ms", derive / 1e6);
    metrics.set(
        "pct.transform_ns_per_px_band",
        transform / (pixels * dims.bands as f64),
    );
    metrics.set("pct.colormap_ns_per_px", colormap / pixels);
    metrics.set("pct.assemble_ns_per_mb", assemble / (pixels * 3.0 / MIB));
    // A screening task is pixel extraction plus the screening scan.
    metrics.set("pct.screen_share", (screen + pixel_vectors) / total);
    metrics.set("pct.derive_share", derive / total);

    out.task_compute_ms = median(&exchanges.iter().map(|e| e.compute_ns).collect::<Vec<_>>()) / 1e6;
    out.sequential_ms = median(&sequential) / 1e6;
    metrics.set("pct.task_compute_ms", out.task_compute_ms);
    metrics.set("pct.sequential_job_ms", out.sequential_ms);

    let first = &exchanges[0];
    let unique_set = first
        .tasks
        .iter()
        .find_map(|task| match task {
            PctMessage::DeriveTask { unique, .. } => Some(unique.as_slice()),
            _ => None,
        })
        .expect("a derive task");
    replay_linalg(metrics, &inputs.cubes[0], unique_set, smoke);

    if kind == Kind::RemoteWire {
        out.codec_ms_per_job = replay_wire(metrics, first, inputs.cubes[0].byte_size(), smoke);
    }
    if kind == Kind::IngestReplay {
        out.ingest_ms_per_pass = replay_ingest(metrics, rec, inputs);
    }
    out
}
