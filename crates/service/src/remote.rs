//! The remote worker-process lane: `fusiond` crossing the process boundary.
//!
//! Every other lane shares the service's address space; this one does not.
//! Each remote worker is a separate endpoint — usually a separate OS
//! process — reached over a [`wire::Transport`] carrying framed,
//! CRC-checked, version-handshaken messages.  The scheduler stays oblivious:
//! it addresses remote workers by routing name (`rw0`, `rw1`, ...) through
//! the same `scp` message plane it uses for the standard lane, and a
//! full-duplex *bridge* per worker relays between the mailbox and the
//! socket.  The bridge is two threads, each blocked on its own side, so a
//! message moves the moment it exists and an idle bridge costs nothing:
//!
//! ```text
//!  scheduler ──ctx.send("rw0")──▶ outbound half ──wire frames──▶ worker
//!                                 (blocks on the mailbox)        process
//!  scheduler ◀──send(MANAGER)──── inbound half ◀──wire frames── (heartbeats,
//!               as "rw0"          (blocks on the socket)          replies)
//! ```
//!
//! Failure detection needs no new machinery.  Whichever half dies first —
//! the inbound one on EOF, a reset, a corrupt or foreign frame, a stray
//! `Hello`; the outbound one on a failed write or a forwarded `Shutdown` —
//! shuts the socket down and wakes the other, and the outbound half takes
//! the mailbox receiver with it, so the scheduler's existing watchdog probe
//! gets `ScpError::Disconnected` on the next send: exactly the signal a
//! lost standard-lane *thread* produces — a `kill -9`'d worker closes its
//! socket.  From there the established loss path runs unchanged: confirm →
//! orphan in-flight tasks → re-dispatch → lane failover if the lane is
//! empty.
//!
//! Connection establishment is synchronous in [`RemoteLane::start`]
//! (including the handshake on protocol and numerics versions), so a
//! mismatched or absent worker fails service start with a typed error instead
//! of a dead lane — and with nothing left running: the workers established
//! before it are shut down and joined first.

use crate::config::RemoteWorkerSpec;
use crate::{Result, ServiceError};
use pct::distributed::MANAGER;
use pct::messages::PctMessage;
use scp::{Router, Runtime, ThreadContext};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use wire::worker::HANDSHAKE_TIMEOUT;
use wire::{handshake, TcpTransport, Transport, WireMessage};

/// How long the service waits for a spawned worker to dial back in.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);

/// One remote worker: its routing name, how to observe the process (when
/// there is one), and the bridge relaying its traffic.
struct RemoteWorkerHandle {
    name: String,
    pid: Option<u32>,
    child: Option<std::process::Child>,
    /// The bridge's two halves (see the module docs).
    bridge: Vec<std::thread::JoinHandle<()>>,
    /// In-process protocol thread of [`RemoteWorkerSpec::Thread`] workers.
    worker_thread: Option<std::thread::JoinHandle<()>>,
}

/// The remote lane: all workers, started together, shut down together.
#[derive(Default)]
pub(crate) struct RemoteLane {
    /// Routing names of the remote workers (`rw0`, `rw1`, ...).
    pub workers: Vec<String>,
    handles: Vec<RemoteWorkerHandle>,
}

impl RemoteLane {
    /// Establishes every configured worker — spawning processes or threads,
    /// accepting their connections, running the version handshake — and
    /// starts one bridge per worker.  When a worker cannot be established
    /// (never dialled in, refused by the handshake) nothing outlives the
    /// typed error: the workers before it are shut down and joined.
    pub fn start(runtime: &Runtime<PctMessage>, specs: &[RemoteWorkerSpec]) -> Result<RemoteLane> {
        let mut lane = RemoteLane::default();
        for (i, spec) in specs.iter().enumerate() {
            if let Err(e) = lane.start_worker(runtime, format!("rw{i}"), spec) {
                lane.abandon(runtime);
                return Err(e);
            }
        }
        Ok(lane)
    }

    /// Brings one worker up.  Its handle is in `self.handles` from the
    /// moment anything of it exists, so a failure half-way leaves
    /// [`RemoteLane::abandon`] something to reap.
    fn start_worker(
        &mut self,
        runtime: &Runtime<PctMessage>,
        name: String,
        spec: &RemoteWorkerSpec,
    ) -> Result<()> {
        let ctx = runtime.context(name.clone())?;
        self.handles.push(RemoteWorkerHandle {
            name: name.clone(),
            pid: None,
            child: None,
            bridge: Vec::new(),
            worker_thread: None,
        });
        let handle = self.handles.last_mut().expect("just pushed");
        let mut transport = establish(handle, spec)?;
        handshake(&mut transport, HANDSHAKE_TIMEOUT)?;
        // The handshake was read on `transport`, so that handle keeps
        // receiving; its clone sends.
        let sender = transport.try_clone()?;
        let router = ctx.router();
        let inbound_name = name.clone();
        handle.bridge.push(spawn_half(&name, "out", move || {
            relay_outbound(ctx, sender)
        })?);
        handle.bridge.push(spawn_half(&name, "in", move || {
            relay_inbound(&inbound_name, &router, transport)
        })?);
        self.workers.push(name);
        Ok(())
    }

    /// Ends what a failed start had established, on the path a service
    /// shutdown takes: `Shutdown` into every worker's mailbox (its outbound
    /// half forwards it and hangs up), then [`RemoteLane::shutdown`].  The
    /// worker that failed has no bridge to tell: its connection, if it got
    /// one, was closed by the error, and its process is killed in case it
    /// never dialled in.
    fn abandon(&mut self, runtime: &Runtime<PctMessage>) {
        let router = runtime.router();
        for handle in &mut self.handles {
            if !handle.bridge.is_empty() {
                let name = handle.name.as_str();
                let _ = router.send(MANAGER, name, PctMessage::Shutdown);
            } else if let Some(child) = &mut handle.child {
                let _ = child.kill();
            }
        }
        self.shutdown();
    }

    /// `(routing name, OS pid)` of every worker; the pid is `None` for
    /// workers that are not separate processes ([`RemoteWorkerSpec::Thread`]
    /// and [`RemoteWorkerSpec::Connect`]).
    pub fn worker_pids(&self) -> Vec<(String, Option<u32>)> {
        self.handles
            .iter()
            .map(|h| (h.name.clone(), h.pid))
            .collect()
    }

    /// Joins the bridges and reaps worker processes.  The scheduler has
    /// already sent `Shutdown` through each worker's mailbox by the time
    /// this runs; a worker that died earlier (chaos) has a dead bridge and
    /// a zombie child, both of which this collects.
    pub fn shutdown(&mut self) {
        for handle in &mut self.handles {
            for half in handle.bridge.drain(..) {
                let _ = half.join();
            }
            if let Some(worker) = handle.worker_thread.take() {
                let _ = worker.join();
            }
            if let Some(mut child) = handle.child.take() {
                let _ = child.wait();
            }
        }
    }
}

/// Brings one worker endpoint up per its spec and returns the connected
/// transport.  Whatever owns the far side (a child process, an in-process
/// thread, or nothing for `Connect`) goes into `handle` as soon as it exists.
fn establish(handle: &mut RemoteWorkerHandle, spec: &RemoteWorkerSpec) -> Result<TcpTransport> {
    let name = handle.name.clone();
    match spec {
        RemoteWorkerSpec::Spawn { command, args } => {
            let (listener, addr) = bind_loopback(&name)?;
            let child = std::process::Command::new(command)
                .args(args)
                .arg(&addr)
                .spawn()
                .map_err(|e| {
                    ServiceError::Internal(format!(
                        "spawning remote worker {name} ({command}): {e}"
                    ))
                })?;
            handle.pid = Some(child.id());
            handle.child = Some(child);
            Ok(TcpTransport::new(accept_with_deadline(&listener, &name)?)?)
        }
        RemoteWorkerSpec::Connect { addr } => TcpTransport::connect(addr).map_err(|e| {
            ServiceError::Internal(format!("connecting to remote worker {name} at {addr}: {e}"))
        }),
        RemoteWorkerSpec::Thread => {
            let (listener, addr) = bind_loopback(&name)?;
            let thread_name = format!("fusiond-remote-{name}");
            let worker = std::thread::Builder::new()
                .name(thread_name)
                .spawn(move || {
                    // The full protocol path — real TCP, real frames, real
                    // handshake — only the process boundary is elided.
                    if let Ok(mut transport) = TcpTransport::connect(&addr) {
                        let _ = wire::worker::run_worker(&mut transport);
                    }
                })
                .map_err(|e| ServiceError::Internal(format!("spawning worker thread: {e}")))?;
            handle.worker_thread = Some(worker);
            Ok(TcpTransport::new(accept_with_deadline(&listener, &name)?)?)
        }
    }
}

/// Binds an ephemeral loopback listener for one worker to dial into.
fn bind_loopback(name: &str) -> Result<(TcpListener, String)> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| ServiceError::Internal(format!("binding listener for {name}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ServiceError::Internal(format!("listener address for {name}: {e}")))?
        .to_string();
    Ok((listener, addr))
}

/// Accepts one connection, polling so a worker that never dials in fails
/// service start with a typed error instead of hanging it.  The poll backs
/// off from 50 µs, doubling to a 5 ms cap: a thread or local process dials in
/// within a few hundred microseconds, and service start should not round
/// that up to a fixed sleep per worker.
fn accept_with_deadline(listener: &TcpListener, name: &str) -> Result<TcpStream> {
    listener
        .set_nonblocking(true)
        .map_err(|e| ServiceError::Internal(format!("listener mode for {name}: {e}")))?;
    let deadline = Instant::now() + ACCEPT_TIMEOUT;
    let mut pause = Duration::from_micros(50);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| ServiceError::Internal(format!("stream mode for {name}: {e}")))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(ServiceError::Internal(format!(
                        "remote worker {name} never connected within {ACCEPT_TIMEOUT:?}"
                    )));
                }
                std::thread::sleep(pause);
                pause = (pause * 2).min(Duration::from_millis(5));
            }
            Err(e) => {
                return Err(ServiceError::Internal(format!(
                    "accepting remote worker {name}: {e}"
                )))
            }
        }
    }
}

/// Starts one half of worker `name`'s bridge on a thread of its own.
fn spawn_half(
    name: &str,
    half: &str,
    body: impl FnOnce() + Send + 'static,
) -> Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("fusiond-bridge-{name}-{half}"))
        .spawn(body)
        .map_err(|e| ServiceError::Internal(format!("spawning bridge thread: {e}")))
}

/// Outbound half: scheduler → worker.  Blocks on the mailbox and writes
/// each message as a frame; `Shutdown` is forwarded (so the worker process
/// exits cleanly) and then ends the bridge, as does a failed write.  On the
/// way out the socket is shut down, which ends the inbound half's blocked
/// read.
///
/// Returning drops `ctx`, which drops the mailbox receiver: the scheduler's
/// next send to this worker gets `ScpError::Disconnected`, the exact signal
/// its loss-confirmation probe looks for.  That makes a socket failure
/// indistinguishable from a dead thread — deliberately, so one watchdog
/// covers both.
fn relay_outbound(ctx: ThreadContext<PctMessage>, mut sender: TcpTransport) {
    while let Ok(envelope) = ctx.recv() {
        let is_shutdown = matches!(envelope.payload, PctMessage::Shutdown);
        if sender.send(&WireMessage::Pct(envelope.payload)).is_err() || is_shutdown {
            break;
        }
    }
    sender.shutdown();
}

/// Inbound half: worker → scheduler (replies and heartbeats), forwarded to
/// `MANAGER` under the worker's routing name — the scheduler's stale-reply
/// check and its watchdog both key on it.  Blocks on the socket; any
/// receive error ends the bridge, and so does a stray `Hello` after the
/// handshake: a protocol violation, answered by dropping the connection and
/// letting the watchdog reclaim the lane slot rather than guessing at the
/// peer's state.  On the way out the socket is shut down (so the outbound
/// half's writes fail) and a `Shutdown` is posted to the worker's own
/// mailbox to end the outbound half's blocked receive.
fn relay_inbound(name: &str, router: &Router<PctMessage>, mut receiver: TcpTransport) {
    while let Ok(WireMessage::Pct(msg)) = receiver.recv() {
        if router.send(name, MANAGER, msg).is_err() {
            break;
        }
    }
    receiver.shutdown();
    // The mailbox may be gone already, the outbound half having died first.
    let _ = router.send(name, name, PctMessage::Shutdown);
}

#[cfg(test)]
mod tests {
    use super::*;
    use scp::ScpError;

    #[test]
    fn thread_worker_round_trips_a_task_over_real_tcp() {
        let runtime: Runtime<PctMessage> = Runtime::new();
        let manager = runtime.context(MANAGER).unwrap();
        let mut lane = RemoteLane::start(&runtime, &[RemoteWorkerSpec::Thread]).unwrap();
        assert_eq!(lane.workers, vec!["rw0"]);
        assert_eq!(lane.worker_pids(), vec![("rw0".to_string(), None)]);

        let mut cube = hsi::HyperCube::zeros(hsi::CubeDims::new(2, 1, 2));
        cube.set_pixel(0, 0, &[1.0, 0.0]).unwrap();
        cube.set_pixel(1, 0, &[0.0, 1.0]).unwrap();
        let view = hsi::CubeView::full(std::sync::Arc::new(cube));
        manager
            .send(
                "rw0",
                PctMessage::ScreenTask {
                    task: 7,
                    view,
                    threshold_rad: 0.1,
                },
            )
            .unwrap();
        let reply = loop {
            let envelope = manager.recv_timeout(Duration::from_secs(5)).unwrap();
            // Replies and heartbeats arrive under the worker's routing name.
            assert_eq!(envelope.from, "rw0");
            match envelope.payload {
                PctMessage::Heartbeat => continue,
                msg => break msg,
            }
        };
        let PctMessage::UniqueSet { task, unique } = reply else {
            panic!("expected a unique set, got {reply:?}");
        };
        assert_eq!(task, 7);
        assert_eq!(unique.len(), 2);

        manager.send("rw0", PctMessage::Shutdown).unwrap();
        lane.shutdown();
    }

    /// Probes `rw0`'s mailbox the way the scheduler's watchdog does until a
    /// send reports `Disconnected`, which must happen within one detector
    /// window of the default pool — the bound the loss path is entitled to,
    /// not "eventually".
    fn assert_disconnects_within_a_detector_window(manager: &mut ThreadContext<PctMessage>) {
        let window = Duration::from_millis(
            crate::config::PoolConfig::default()
                .standard_detector
                .failure_timeout_ms(),
        );
        let start = Instant::now();
        while !matches!(
            manager.send("rw0", PctMessage::Heartbeat),
            Err(ScpError::Disconnected(_))
        ) {
            assert!(
                start.elapsed() < window,
                "dead bridge did not surface as Disconnected within {window:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn dead_worker_surfaces_as_a_disconnected_mailbox() {
        let runtime: Runtime<PctMessage> = Runtime::new();
        let mut manager = runtime.context(MANAGER).unwrap();

        // A clean worker exit (Shutdown) ends the bridge the same way a
        // crash does: the mailbox dies and sends report Disconnected.
        let mut lane = RemoteLane::start(&runtime, &[RemoteWorkerSpec::Thread]).unwrap();
        manager.send("rw0", PctMessage::Shutdown).unwrap();
        assert_disconnects_within_a_detector_window(&mut manager);
        lane.shutdown();
    }

    #[test]
    fn peer_socket_dropped_mid_idle_surfaces_as_a_disconnected_mailbox() {
        let runtime: Runtime<PctMessage> = Runtime::new();
        let mut manager = runtime.context(MANAGER).unwrap();

        // The unclean exit: a peer that shook hands, then drops its socket
        // while nothing is in flight — no Shutdown, no last frame.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (drop_now, dropped) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut transport = TcpTransport::new(stream).unwrap();
            handshake(&mut transport, HANDSHAKE_TIMEOUT).unwrap();
            dropped.recv().unwrap();
        });
        let mut lane = RemoteLane::start(&runtime, &[RemoteWorkerSpec::Connect { addr }]).unwrap();
        // Both halves are up and blocked: the mailbox takes a probe.
        manager.send("rw0", PctMessage::Heartbeat).unwrap();
        drop_now.send(()).unwrap();
        peer.join().unwrap();
        assert_disconnects_within_a_detector_window(&mut manager);
        lane.shutdown();
    }
}
