//! The remote worker loop: what a `fusiond-worker` process runs after
//! connecting back to the service.
//!
//! The loop mirrors the in-process worker loop
//! ([`pct::resilient::member_loop`], which the service's standard lane and
//! every replica member run) so the scheduler's failure detector sees the
//! same liveness from both lanes: a 25 ms receive tick and a heartbeat on
//! every idle tick.  One difference: after every message it is handed,
//! answered or not, this loop also sends a heartbeat, and `member_loop`
//! does not.  The scheduler counts any message as proof of life, so the
//! in-process loop dropped its heartbeat after a reply; this one keeps it
//! because fusebench's TCP round-trip probe sends a heartbeat and times
//! the one this loop sends back.  Tasks are computed by
//! [`pct::distributed::handle_task`] — the same function every in-process
//! lane and the simulator use — so results are byte-identical by
//! construction, and a task whose parts disagree in shape is answered
//! `TaskFailed` instead of ending the process.

use crate::codec::WireMessage;
use crate::transport::{handshake, Transport};
use crate::{Result, WireError};
use pct::distributed::handle_task;
use pct::messages::PctMessage;
use std::time::Duration;

/// Receive-tick / heartbeat cadence, matching the in-process lane.
pub const TICK: Duration = Duration::from_millis(25);

/// Handshake deadline for a fresh connection.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Runs the worker protocol over an established transport until the
/// manager sends `Shutdown` (clean exit) or the connection fails.
///
/// The handshake runs first; a version-mismatched manager is rejected with
/// a typed error before any task is accepted.
pub fn run_worker(transport: &mut dyn Transport) -> Result<()> {
    handshake(transport, HANDSHAKE_TIMEOUT)?;
    serve(transport)
}

/// The post-handshake serve loop (split out for tests that have already
/// shaken hands).
pub fn serve(transport: &mut dyn Transport) -> Result<()> {
    loop {
        match transport.recv_timeout(TICK)? {
            Some(WireMessage::Pct(PctMessage::Shutdown)) => return Ok(()),
            Some(WireMessage::Pct(msg)) => {
                if let Some(reply) = handle_task(msg) {
                    transport.send(&WireMessage::Pct(reply))?;
                }
                transport.send(&WireMessage::Pct(PctMessage::Heartbeat))?;
            }
            Some(WireMessage::Hello { .. }) => {
                return Err(WireError::Malformed("unexpected Hello after handshake"))
            }
            // Idle tick: prove liveness, exactly like the thread lane.
            None => transport.send(&WireMessage::Pct(PctMessage::Heartbeat))?,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{loopback_pair, LoopbackTransport};
    use hsi::{CubeDims, CubeView, HyperCube};
    use linalg::{Matrix, Vector};
    use std::sync::Arc;

    /// A 2×2 view whose four pixels screen to two unique vectors.
    fn two_signature_view() -> CubeView {
        let mut cube = HyperCube::zeros(CubeDims::new(2, 2, 2));
        cube.set_pixel(0, 0, &[1.0, 0.0]).unwrap();
        cube.set_pixel(1, 0, &[0.0, 1.0]).unwrap();
        cube.set_pixel(0, 1, &[1.0, 0.05]).unwrap();
        cube.set_pixel(1, 1, &[0.05, 1.0]).unwrap();
        CubeView::full(Arc::new(cube))
    }

    /// The next message that is not a heartbeat.
    fn next_reply(manager: &mut LoopbackTransport) -> WireMessage {
        loop {
            match manager.recv_timeout(Duration::from_secs(2)).unwrap() {
                Some(WireMessage::Pct(PctMessage::Heartbeat)) | None => continue,
                Some(msg) => return msg,
            }
        }
    }

    #[test]
    fn worker_computes_screen_tasks_and_heartbeats() {
        let (mut manager, mut worker) = loopback_pair();
        let t = std::thread::spawn(move || run_worker(&mut worker));
        handshake(&mut manager, HANDSHAKE_TIMEOUT).unwrap();

        manager
            .send(&WireMessage::Pct(PctMessage::ScreenSeededTask {
                task: 4,
                view: two_signature_view(),
                seed: Vec::new(),
                threshold_rad: 0.1,
            }))
            .unwrap();

        // First non-heartbeat reply is the unique set.
        let reply = next_reply(&mut manager);
        let WireMessage::Pct(PctMessage::SeededUnique { task, accepted }) = reply else {
            panic!("expected a unique set, got {reply:?}");
        };
        assert_eq!(task, 4);
        assert_eq!(accepted.len(), 2);

        manager
            .send(&WireMessage::Pct(PctMessage::Shutdown))
            .unwrap();
        t.join().unwrap().unwrap();
    }

    #[test]
    fn idle_worker_heartbeats() {
        let (mut manager, mut worker) = loopback_pair();
        let t = std::thread::spawn(move || run_worker(&mut worker));
        handshake(&mut manager, HANDSHAKE_TIMEOUT).unwrap();
        let beat = manager.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(beat, Some(WireMessage::Pct(PctMessage::Heartbeat)));
        manager
            .send(&WireMessage::Pct(PctMessage::Shutdown))
            .unwrap();
        t.join().unwrap().unwrap();
    }

    /// Each length of a task decodes on its own, so a well-formed frame can
    /// carry parts of disagreeing shapes.  Every such task is answered
    /// `TaskFailed`, and the worker goes on serving.
    #[test]
    fn a_task_of_mismatched_shapes_fails_typed_and_the_worker_keeps_serving() {
        let (mut manager, mut worker) = loopback_pair();
        let t = std::thread::spawn(move || serve(&mut worker));
        let view = two_signature_view();
        let transform = |mean: usize, cols: usize| PctMessage::TransformTask {
            task: mean,
            view: view.clone(),
            mean: Vector::zeros(mean),
            transform: Matrix::zeros(3, cols),
            scales: vec![(0.0, 1.0); 3],
        };
        let malformed = [
            PctMessage::CovarianceTask {
                task: 1,
                mean: Vector::zeros(2),
                pixels: vec![Vector::from_vec(vec![1.0, 2.0, 3.0])],
            },
            // A mean longer than the view's bands, then than the rows.
            transform(3, 3),
            transform(2, 1),
            PctMessage::ScreenSeededTask {
                task: 4,
                view: view.clone(),
                seed: vec![Vector::from_vec(vec![1.0, 0.0, 0.0])],
                threshold_rad: 0.1,
            },
        ];
        for task in malformed {
            let id = task.task();
            manager.send(&WireMessage::Pct(task)).unwrap();
            let reply = next_reply(&mut manager);
            let WireMessage::Pct(PctMessage::TaskFailed { task, .. }) = reply else {
                panic!("expected TaskFailed, got {reply:?}");
            };
            assert_eq!(Some(task), id);
        }
        manager
            .send(&WireMessage::Pct(PctMessage::ScreenSeededTask {
                task: 5,
                view,
                seed: Vec::new(),
                threshold_rad: 0.1,
            }))
            .unwrap();
        let reply = next_reply(&mut manager);
        assert!(matches!(
            reply,
            WireMessage::Pct(PctMessage::SeededUnique { task: 5, .. })
        ));
        manager
            .send(&WireMessage::Pct(PctMessage::Shutdown))
            .unwrap();
        t.join().unwrap().unwrap();
    }
}
