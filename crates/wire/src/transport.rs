//! Message transports: loopback for deterministic tests, TCP for real
//! worker processes.
//!
//! A [`Transport`] moves whole [`WireMessage`]s; framing, CRC checks and
//! codec work happen inside the impls so callers never see partial frames.
//! [`handshake`] runs the symmetric version exchange (protocol, then
//! numerics) both peers perform before any payload flows.

use crate::codec::{decode_body, encode_message, WireMessage};
use crate::frame::FrameReader;
use crate::{Result, WireError, PROTOCOL_VERSION};
use linalg::NUMERICS_VERSION;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// A bidirectional, message-oriented connection to one peer.
pub trait Transport: Send {
    /// Encodes and sends one message.
    fn send(&mut self, msg: &WireMessage) -> Result<()>;

    /// Receives the next message, waiting at most `timeout`.  `Ok(None)`
    /// means the timeout elapsed with no complete frame; errors are
    /// connection-fatal (including a cleanly closed peer).
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<WireMessage>>;

    /// A human-readable label of the peer, for logs and errors.
    fn peer(&self) -> String;
}

/// Runs the version handshake on a fresh connection.
///
/// Both sides send `Hello{version, numerics}` first, then read the peer's.
/// The exchange is symmetric — neither side is the "client" — and safe on
/// both transports because a `Hello` frame is tiny and never blocks a send.
/// Any non-`Hello` first frame is [`WireError::Malformed`].  This is the one
/// place that decides compatibility: a differing protocol version is
/// [`WireError::VersionMismatch`], and between peers of one protocol a
/// differing numerics version is [`WireError::NumericsMismatch`].
pub fn handshake(transport: &mut dyn Transport, timeout: Duration) -> Result<()> {
    transport.send(&WireMessage::hello())?;
    match transport.recv_timeout(timeout)? {
        Some(WireMessage::Hello { version, .. }) if version != PROTOCOL_VERSION => {
            Err(WireError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: version,
            })
        }
        Some(WireMessage::Hello { numerics, .. }) if numerics != NUMERICS_VERSION => {
            Err(WireError::NumericsMismatch {
                ours: NUMERICS_VERSION,
                theirs: numerics,
            })
        }
        Some(WireMessage::Hello { .. }) => Ok(()),
        Some(_) => Err(WireError::Malformed("peer spoke before the handshake")),
        None => Err(WireError::Io(format!(
            "handshake with {} timed out",
            transport.peer()
        ))),
    }
}

/// In-process transport endpoint carrying *real encoded frames* over
/// channels — the codec and framing layers run exactly as they do over
/// TCP, only the socket is simulated.
pub struct LoopbackTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    reader: FrameReader,
    label: String,
}

/// A connected pair of loopback endpoints.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        LoopbackTransport {
            tx: a_tx,
            rx: a_rx,
            reader: FrameReader::new(),
            label: "loopback:a".to_string(),
        },
        LoopbackTransport {
            tx: b_tx,
            rx: b_rx,
            reader: FrameReader::new(),
            label: "loopback:b".to_string(),
        },
    )
}

impl Transport for LoopbackTransport {
    fn send(&mut self, msg: &WireMessage) -> Result<()> {
        self.tx
            .send(encode_message(msg))
            .map_err(|_| WireError::Io("loopback peer closed".to_string()))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<WireMessage>> {
        // Frames may arrive in arbitrary chunks in principle; feed them
        // through the same FrameReader the TCP path uses.
        loop {
            if let Some(body) = self.reader.next_frame()? {
                return Ok(Some(decode_body(&body)?));
            }
            match self.rx.recv_timeout(timeout) {
                Ok(bytes) => self.reader.push(&bytes),
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(WireError::Io("loopback peer closed".to_string()))
                }
            }
        }
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}

/// Framed transport over a `std::net::TcpStream`.
///
/// Receives buffer partial frames across calls — a message split over many
/// TCP segments reassembles transparently — and a read timeout that
/// expires mid-frame simply returns `Ok(None)` without losing sync.  Bytes
/// are read from the socket straight into the frame's own buffer, never
/// past the end of the frame being assembled.
pub struct TcpTransport {
    stream: TcpStream,
    reader: FrameReader,
    peer: String,
}

impl TcpTransport {
    /// Wraps a connected stream.  Disables Nagle so small task/heartbeat
    /// frames don't sit in the kernel behind a timer.
    pub fn new(stream: TcpStream) -> Result<Self> {
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp:unknown".to_string());
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            peer,
        })
    }

    /// Connects to a listening peer.
    pub fn connect(addr: &str) -> Result<Self> {
        Self::new(TcpStream::connect(addr)?)
    }

    /// A second handle on the same connection, so one thread can block
    /// receiving while another sends (full duplex).  The clone starts with
    /// an empty frame buffer and shares the socket's read timeout, so only
    /// one of the handles may receive; send on the other.
    pub fn try_clone(&self) -> Result<Self> {
        Ok(Self {
            stream: self.stream.try_clone()?,
            reader: FrameReader::new(),
            peer: self.peer.clone(),
        })
    }

    /// Shuts the connection down in both directions, on every handle: a
    /// receive blocked on any clone returns a connection error, later sends
    /// fail, and the peer reads end-of-stream after what was already sent.
    pub fn shutdown(&self) {
        // Already-closed is the state asked for.
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Blocks until the next message arrives; every error is
    /// connection-fatal (including a cleanly closed peer).
    pub fn recv(&mut self) -> Result<WireMessage> {
        self.stream.set_read_timeout(None)?;
        loop {
            if let Some(msg) = self.pump()? {
                return Ok(msg);
            }
        }
    }

    /// Assembles and decodes the next frame under the socket's current
    /// read timeout; `Ok(None)` when that timeout expires first.
    fn pump(&mut self) -> Result<Option<WireMessage>> {
        loop {
            if let Some(body) = self.reader.next_frame()? {
                return Ok(Some(decode_body(&body)?));
            }
            match self.reader.fill_from(&mut self.stream) {
                Ok(0) => {
                    return Err(WireError::Io(format!(
                        "{} closed the connection",
                        self.peer
                    )))
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: &WireMessage) -> Result<()> {
        let frame = encode_message(msg);
        self.stream.write_all(&frame)?;
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<WireMessage>> {
        // A zero timeout would mean "block forever" to the socket API.
        let timeout = timeout.max(Duration::from_millis(1));
        self.stream.set_read_timeout(Some(timeout))?;
        self.pump()
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pct::messages::PctMessage;
    use std::net::TcpListener;

    const TICK: Duration = Duration::from_millis(200);

    #[test]
    fn loopback_delivers_messages_and_times_out_when_idle() {
        let (mut a, mut b) = loopback_pair();
        a.send(&WireMessage::Pct(PctMessage::Heartbeat)).unwrap();
        assert_eq!(
            b.recv_timeout(TICK).unwrap(),
            Some(WireMessage::Pct(PctMessage::Heartbeat))
        );
        assert_eq!(b.recv_timeout(Duration::from_millis(5)).unwrap(), None);
    }

    #[test]
    fn loopback_handshake_succeeds_between_same_versions() {
        let (mut a, mut b) = loopback_pair();
        let t = std::thread::spawn(move || {
            handshake(&mut b, TICK).unwrap();
            b
        });
        handshake(&mut a, TICK).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let (mut a, mut b) = loopback_pair();
        // A peer from the future announces v999.
        b.send(&WireMessage::Hello {
            version: 999,
            numerics: NUMERICS_VERSION,
        })
        .unwrap();
        let err = handshake(&mut a, TICK).unwrap_err();
        assert_eq!(
            err,
            WireError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: 999
            }
        );
    }

    #[test]
    fn numerics_mismatch_between_peers_of_one_protocol_is_a_typed_error() {
        let (mut a, mut b) = loopback_pair();
        b.send(&WireMessage::Hello {
            version: PROTOCOL_VERSION,
            numerics: 1,
        })
        .unwrap();
        assert_eq!(
            handshake(&mut a, TICK).unwrap_err(),
            WireError::NumericsMismatch { ours: 3, theirs: 1 }
        );
    }

    #[test]
    fn pre_numerics_hello_is_a_version_mismatch_not_a_truncation() {
        // What every protocol-1 build sends: `[tag][protocol u32]`, no
        // numerics word.
        let (mut a, b) = loopback_pair();
        b.tx.send(crate::frame::frame(&[0, 1, 0, 0, 0])).unwrap();
        assert_eq!(
            handshake(&mut a, TICK).unwrap_err(),
            WireError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: 1
            }
        );
    }

    #[test]
    fn dropped_loopback_peer_is_a_connection_error() {
        let (mut a, b) = loopback_pair();
        drop(b);
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(5)),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn tcp_round_trips_messages_between_threads() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            handshake(&mut t, TICK).unwrap();
            // Echo one message back.
            loop {
                if let Some(msg) = t.recv_timeout(TICK).unwrap() {
                    t.send(&msg).unwrap();
                    break;
                }
            }
        });
        let mut client = TcpTransport::connect(&addr).unwrap();
        handshake(&mut client, TICK).unwrap();
        let msg = WireMessage::Pct(PctMessage::TaskFailed {
            task: 3,
            error: "boom".to_string(),
        });
        client.send(&msg).unwrap();
        let mut echoed = None;
        for _ in 0..50 {
            if let Some(m) = client.recv_timeout(TICK).unwrap() {
                echoed = Some(m);
                break;
            }
        }
        assert_eq!(echoed, Some(msg));
        server.join().unwrap();
    }

    #[test]
    fn tcp_peer_close_is_a_connection_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream);
        });
        let mut client = TcpTransport::connect(&addr).unwrap();
        server.join().unwrap();
        let mut saw_error = false;
        for _ in 0..50 {
            match client.recv_timeout(Duration::from_millis(20)) {
                Err(WireError::Io(_)) => {
                    saw_error = true;
                    break;
                }
                Ok(None) => continue,
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(saw_error, "closed peer never surfaced as an error");
    }
}
