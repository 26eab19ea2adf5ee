//! Offline shim of `crossbeam-channel`.
//!
//! An unbounded MPMC channel built on `Mutex<VecDeque>` + `Condvar`,
//! exposing the subset of the crossbeam-channel API the `scp` runtime uses:
//! `unbounded()`, cloneable `Sender`/`Receiver`, blocking/timeout/non-
//! blocking receive, queue length, and crossbeam's disconnection semantics
//! (send fails once every receiver is gone, and the messages still queued
//! are dropped with the last receiver; receive fails once every sender is
//! gone *and* the queue is drained).

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when every receiver has disconnected.
/// Carries the unsent message back to the caller, like crossbeam's.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender has disconnected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender has disconnected.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived before the timeout elapsed.
    Timeout,
    /// The channel is empty and every sender has disconnected.
    Disconnected,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    cond: Condvar,
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

/// The sending half of an unbounded channel. Cloneable; usable from `&self`.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of an unbounded channel. Cloneable; clones drain the
/// same queue.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        cond: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Appends a message to the queue, failing if every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.inner.lock().unwrap();
        if inner.receivers == 0 {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        drop(inner);
        self.shared.cond.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.inner.lock().unwrap().senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.senders -= 1;
        if inner.senders == 0 {
            drop(inner);
            self.shared.cond.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or every sender disconnects.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            if let Some(value) = inner.queue.pop_front() {
                return Ok(value);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = self.shared.cond.wait(inner).unwrap();
        }
    }

    /// Blocks until a message arrives, every sender disconnects, or the
    /// timeout elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            if let Some(value) = inner.queue.pop_front() {
                return Ok(value);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, result) = self.shared.cond.wait_timeout(inner, remaining).unwrap();
            inner = guard;
            if result.timed_out() && inner.queue.is_empty() {
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// Pops a queued message if one is immediately available.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.shared.inner.lock().unwrap();
        match inner.queue.pop_front() {
            Some(value) => Ok(value),
            None if inner.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.inner.lock().unwrap().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.inner.lock().unwrap().receivers += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.receivers -= 1;
        if inner.receivers == 0 {
            // Nobody can receive these any more: discard them now, as
            // crossbeam does, instead of when the last sender goes.  The
            // messages are dropped outside the lock — their `Drop` may send.
            let undeliverable = std::mem::take(&mut inner.queue);
            drop(inner);
            drop(undeliverable);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_len() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.try_recv().unwrap(), 2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(5).is_err());
    }

    #[test]
    fn queued_messages_are_dropped_with_the_last_receiver() {
        let payload = Arc::new(());
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        tx.send(Arc::clone(&payload)).unwrap();
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 2, "a receiver is left");
        drop(rx2);
        assert_eq!(Arc::strong_count(&payload), 1);
        assert!(tx.send(Arc::clone(&payload)).is_err());
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn recv_fails_after_all_senders_drop_and_queue_drains() {
        let (tx, rx) = unbounded();
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 9);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(3).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(3));
        handle.join().unwrap();
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(Duration::from_millis(10));
        tx.send(42).unwrap();
        assert_eq!(handle.join().unwrap(), 42);
    }
}
