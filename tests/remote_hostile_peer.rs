//! Hostile-peer drill for the remote lane's full-duplex bridge.
//!
//! A fake worker on a raw `TcpStream` completes the version handshake,
//! accepts a task, then breaks the protocol in one of four ways.  In a
//! two-worker remote pool each case must retire that worker through the
//! ordinary watchdog path (dead mailbox → `WorkerLost` → re-dispatch), the
//! job must finish byte-identical to `SequentialPct` on the surviving
//! worker, nothing may panic, and no bridge thread may outlive
//! `FusionService::shutdown`.
//!
//! A fifth peer never gets that far: it announces another numerics version,
//! and the service must refuse to start — typed, before any task frame is
//! written to it, and with every lane started before it (replica groups,
//! standard workers, shared-memory executors, the healthy remote worker)
//! shut down and joined.
//!
//! This file holds exactly one test so that the process-wide thread scan at
//! the end of each case sees only this drill's bridges.

use hsi::{CubeDims, SceneConfig, SceneGenerator};
use pct::messages::PctMessage;
use pct::{PctConfig, SequentialPct};
use resilience::DetectorConfig;
use service::{
    BackendKind, CubeSource, FusionService, JobSpec, PoolConfig, RemoteWorkerSpec, ServiceConfig,
    ServiceEvent,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::{decode_body, encode_message, FrameReader, WireError, WireMessage, PROTOCOL_VERSION};

/// The watchdog of the drill's pool: a 30 ms detector window.
const DETECTOR: DetectorConfig = DetectorConfig {
    heartbeat_period_ms: 10,
    miss_threshold: 3,
};

/// What the fake worker does once it holds a task.
#[derive(Debug, Clone, Copy)]
enum Hostility {
    /// Closes the socket: no reply, no `Shutdown`.
    CloseWithoutShutdown,
    /// Sends the first half of a valid frame, stalls for several detector
    /// windows with the socket open, then closes.
    HalfFrameThenStall,
    /// Sends a complete frame whose header CRC has one byte flipped.
    FlippedCrcByte,
    /// Sends bytes that do not start with the frame magic.
    GarbageMagic,
}

/// Reads the next message off the raw stream.
fn read_message(stream: &mut TcpStream, reader: &mut FrameReader) -> WireMessage {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(body) = reader.next_frame().expect("the service sends valid frames") {
            return decode_body(&body).expect("the service sends valid bodies");
        }
        let n = stream.read(&mut chunk).expect("read from the service");
        assert!(n > 0, "the service hung up before sending a task");
        reader.push(&chunk[..n]);
    }
}

/// Blocks until the service's side of the connection is gone: proof that
/// the bridge hung up on the violation by itself.
fn await_hang_up(stream: &mut TcpStream) {
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            // Frames still in flight when the bridge died.
            Ok(n) if n > 0 => continue,
            Ok(_) => return,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return,
            Err(e) => panic!("the bridge never hung up on the violation: {e}"),
        }
    }
}

/// The fake worker: one connection, an honest handshake, one accepted task,
/// then `hostility`.
fn hostile_worker(listener: TcpListener, hostility: Hostility) {
    let (mut stream, _) = listener.accept().expect("the service connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = FrameReader::new();
    stream
        .write_all(&encode_message(&WireMessage::hello()))
        .unwrap();
    assert_eq!(read_message(&mut stream, &mut reader), WireMessage::hello());
    let task = loop {
        match read_message(&mut stream, &mut reader) {
            // A watchdog probe rung through the bridge.
            WireMessage::Pct(PctMessage::Heartbeat) => continue,
            WireMessage::Pct(PctMessage::ScreenSeededTask { task, .. }) => break task,
            other => panic!("expected a screening task first, got {other:?}"),
        }
    };
    // A reply that would be perfectly valid, were it sent whole and intact.
    let mut reply = encode_message(&WireMessage::Pct(PctMessage::SeededUnique {
        task,
        accepted: Vec::new(),
    }));
    match hostility {
        Hostility::CloseWithoutShutdown => {}
        Hostility::HalfFrameThenStall => {
            stream.write_all(&reply[..reply.len() / 2]).unwrap();
            std::thread::sleep(Duration::from_millis(
                5 * DETECTOR.heartbeat_period_ms * DETECTOR.miss_threshold as u64,
            ));
        }
        Hostility::FlippedCrcByte => {
            reply[8] ^= 0x01;
            stream.write_all(&reply).unwrap();
            await_hang_up(&mut stream);
        }
        Hostility::GarbageMagic => {
            stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            await_hang_up(&mut stream);
        }
    }
}

/// Names of this process's live threads that start with one of `prefixes`
/// (Linux: `/proc/self/task/*/comm`, which keeps the first 15 bytes of the
/// name).  A joined thread can stay listed until the kernel reaps it, so a
/// non-empty listing is read again until it clears or five seconds pass;
/// what is still listed then is returned.
#[cfg(target_os = "linux")]
fn leftover_threads(prefixes: &[&str]) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let left: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task lists")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .filter(|name| prefixes.iter().any(|prefix| name.starts_with(prefix)))
            .collect();
        if left.is_empty() || Instant::now() >= deadline {
            return left;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn drill(hostility: Hostility) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || hostile_worker(listener, hostility));

    // rw0 is the fake, rw1 an honest worker; free-deque order hands rw0 the
    // job's first screening task.
    let service = FusionService::start(
        ServiceConfig::builder()
            .pool(PoolConfig {
                standard_workers: 0,
                replica_groups: 0,
                shared_memory_executors: 0,
                remote_workers: vec![RemoteWorkerSpec::Connect { addr }, RemoteWorkerSpec::Thread],
                detector: DETECTOR,
                ..PoolConfig::default()
            })
            .queue_capacity(8)
            .max_in_flight(4)
            .build()
            .expect("config validates"),
    )
    .expect("service starts");
    let events = service.subscribe();

    let mut scene = SceneConfig::small(300);
    scene.dims = CubeDims::new(20, 20, 10);
    let cube = Arc::new(SceneGenerator::new(scene).unwrap().generate());
    let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
        .pinned(BackendKind::Remote)
        .shards(3)
        .build()
        .unwrap();
    let mut handle = service.submit(spec).unwrap();

    let outcome = handle.wait().unwrap();
    let reference = SequentialPct::new(PctConfig::paper()).run(&cube).unwrap();
    assert_eq!(
        outcome.output().expect("job completes"),
        &reference,
        "{hostility:?}: output diverged from sequential"
    );
    // The job cannot have finished before rw0 was retired — rw0 held a
    // task of its screening chain — so the loss is already on the stream.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(
            Instant::now() < deadline,
            "{hostility:?}: loss never confirmed"
        );
        if let Some(ServiceEvent::WorkerLost { worker }) =
            events.next_timeout(Duration::from_millis(100))
        {
            assert_eq!(
                worker, "rw0#0",
                "{hostility:?}: the honest worker was retired"
            );
            break;
        }
    }
    fake.join()
        .unwrap_or_else(|_| panic!("{hostility:?}: the fake worker's own checks failed"));

    let shutdown_started = Instant::now();
    let report = service.shutdown();
    assert!(
        shutdown_started.elapsed() < Duration::from_secs(5),
        "{hostility:?}: shutdown took {:?}",
        shutdown_started.elapsed()
    );
    assert_eq!(report.jobs_completed, 1, "{hostility:?}: {report:?}");
    assert_eq!(report.jobs_failed, 0, "{hostility:?}: {report:?}");
    assert_eq!(report.workers_lost, 1, "{hostility:?}: {report:?}");
    assert!(
        report.tasks_reassigned >= 1,
        "{hostility:?}: rw0's task was never re-dispatched: {report:?}"
    );
    #[cfg(target_os = "linux")]
    {
        let bridges = leftover_threads(&["fusiond-bridge"]);
        assert!(
            bridges.is_empty(),
            "{hostility:?}: bridge threads outlived shutdown: {bridges:?}"
        );
    }
}

/// A peer of our protocol whose kernels are numerics version 1, behind a
/// healthy worker: service start fails with the typed cause, the peer is
/// sent the service's `Hello` and not one byte more, and no thread of a lane
/// started before it — replica member, standard worker, shared-memory
/// executor, the healthy worker or its bridge — outlives the error.
fn refuse_mixed_numerics() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the service connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let hello = WireMessage::Hello {
            version: PROTOCOL_VERSION,
            numerics: 1,
        };
        stream.write_all(&encode_message(&hello)).unwrap();
        let mut received = Vec::new();
        stream
            .read_to_end(&mut received)
            .expect("the service hangs up");
        received
    });

    let started = FusionService::start(
        ServiceConfig::builder()
            .pool(PoolConfig {
                standard_workers: 2,
                replica_groups: 2,
                shared_memory_executors: 2,
                remote_workers: vec![RemoteWorkerSpec::Thread, RemoteWorkerSpec::Connect { addr }],
                ..PoolConfig::default()
            })
            .build()
            .expect("config validates"),
    );
    let error = started.err().expect("a mixed-numerics pool must not start");
    let cause = WireError::NumericsMismatch { ours: 3, theirs: 1 }.to_string();
    assert!(error.to_string().contains(&cause), "{error}");
    assert_eq!(
        fake.join().expect("the fake peer's own checks failed"),
        encode_message(&WireMessage::hello()),
        "the refused peer was sent more than the service's Hello"
    );
    #[cfg(target_os = "linux")]
    {
        // Replica members, standard workers, then every `fusiond-*` thread
        // (shared-memory executors, remote workers and their bridges).
        let left = leftover_threads(&["rg", "svc", "fusiond-"]);
        assert!(left.is_empty(), "threads outlived a failed start: {left:?}");
    }
}

#[test]
fn remote_worker_hostile_peers_are_retired_and_the_survivor_finishes_byte_identical() {
    for hostility in [
        Hostility::CloseWithoutShutdown,
        Hostility::HalfFrameThenStall,
        Hostility::FlippedCrcByte,
        Hostility::GarbageMagic,
    ] {
        drill(hostility);
    }
    refuse_mixed_numerics();
}
