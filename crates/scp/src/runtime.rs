//! Thread spawning and the per-thread communication context.
//!
//! A [`Runtime`] owns the shared [`Router`].  Application threads are
//! spawned with [`Runtime::spawn`]; each receives a [`ThreadContext`]
//! through which it sends and receives envelopes under its own name.

use crate::envelope::Envelope;
use crate::router::{Router, ThreadName};
use crate::{Result, ScpError};
use crossbeam_channel::{Receiver, RecvTimeoutError, TryRecvError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle to a spawned thread.
pub struct ThreadHandle<T> {
    /// Logical name of the thread.
    pub name: ThreadName,
    join: JoinHandle<T>,
}

impl<T> ThreadHandle<T> {
    /// Waits for the thread to finish and returns its result.
    ///
    /// Panics propagate, mirroring `std::thread::JoinHandle::join` semantics
    /// but with the thread's name attached for easier diagnosis.
    pub fn join(self) -> T {
        match self.try_join() {
            Ok(v) => v,
            Err(e) => std::panic::resume_unwind(e),
        }
    }

    /// Waits for the thread to finish and returns its result, or the panic
    /// payload if it panicked — for callers that must outlive a crashed
    /// thread and decide themselves when (or whether) to re-raise.
    pub fn try_join(self) -> std::thread::Result<T> {
        self.join.join()
    }

    /// Whether the thread has finished executing.
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }
}

/// The per-thread communication context.
pub struct ThreadContext<M> {
    name: ThreadName,
    router: Router<M>,
    receiver: Receiver<Envelope<M>>,
}

impl<M> ThreadContext<M> {
    /// This thread's logical name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A clone of the shared router (for unbinding a lost member's name, or
    /// sending under another name).
    pub fn router(&self) -> Router<M> {
        self.router.clone()
    }

    /// Sends `payload` to the thread currently bound to `to`.
    pub fn send(&self, to: &str, payload: M) -> Result<()> {
        self.router.send(self.name.clone(), to, payload)
    }

    /// Blocks until an envelope arrives.
    pub fn recv(&self) -> Result<Envelope<M>> {
        self.receiver.recv().map_err(|_| ScpError::Shutdown)
    }

    /// Blocks until an envelope arrives or the timeout elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>> {
        self.receiver.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => ScpError::Timeout,
            RecvTimeoutError::Disconnected => ScpError::Shutdown,
        })
    }

    /// Returns an envelope if one is already queued.
    pub fn try_recv(&self) -> Result<Option<Envelope<M>>> {
        match self.receiver.try_recv() {
            Ok(env) => Ok(Some(env)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ScpError::Shutdown),
        }
    }

    /// Number of messages queued but not yet received.
    pub fn pending(&self) -> usize {
        self.receiver.len()
    }
}

/// The thread runtime: spawning, routing and shutdown.  Clones share one
/// router, so a clone spawns into the same name space.
pub struct Runtime<M> {
    router: Router<M>,
}

impl<M> Clone for Runtime<M> {
    fn clone(&self) -> Self {
        Self {
            router: self.router.clone(),
        }
    }
}

impl<M: Send + 'static> Default for Runtime<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> Runtime<M> {
    /// Creates a runtime with an empty router.
    pub fn new() -> Self {
        Self {
            router: Router::new(),
        }
    }

    /// The shared router.
    pub fn router(&self) -> Router<M> {
        self.router.clone()
    }

    /// Creates a [`ThreadContext`] bound to `name` without spawning a thread
    /// — used by the thread that owns the runtime (typically the manager) so
    /// it can participate in the protocol directly.
    pub fn context(&self, name: impl Into<ThreadName>) -> Result<ThreadContext<M>> {
        let name = name.into();
        let receiver = self.router.register(name.clone())?;
        Ok(ThreadContext {
            name,
            router: self.router.clone(),
            receiver,
        })
    }

    /// Spawns a named thread running `body` with its own context.
    pub fn spawn<T, F>(&self, name: impl Into<ThreadName>, body: F) -> Result<ThreadHandle<T>>
    where
        T: Send + 'static,
        F: FnOnce(ThreadContext<M>) -> T + Send + 'static,
    {
        let name = name.into();
        let ctx = self.context(name.clone())?;
        let thread_name = name.clone();
        let join = std::thread::Builder::new()
            .name(thread_name.clone())
            .spawn(move || body(ctx))
            .expect("failed to spawn OS thread");
        Ok(ThreadHandle { name, join })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_and_exchange_messages() {
        let runtime: Runtime<String> = Runtime::new();
        let manager = runtime.context("manager").unwrap();
        let worker = runtime
            .spawn("worker", |ctx: ThreadContext<String>| {
                let env = ctx.recv().unwrap();
                ctx.send(&env.from, format!("echo:{}", env.payload))
                    .unwrap();
                env.payload
            })
            .unwrap();

        manager.send("worker", "ping".to_string()).unwrap();
        let reply = manager.recv().unwrap();
        assert_eq!(reply.payload, "echo:ping");
        assert_eq!(reply.from, "worker");
        assert_eq!(worker.join(), "ping");
    }

    #[test]
    fn recv_timeout_times_out() {
        let runtime: Runtime<()> = Runtime::new();
        let ctx = runtime.context("lonely").unwrap();
        let err = ctx.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, ScpError::Timeout);
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let runtime: Runtime<u8> = Runtime::new();
        let a = runtime.context("a").unwrap();
        let b = runtime.context("b").unwrap();
        assert!(b.try_recv().unwrap().is_none());
        a.send("b", 7).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap().payload, 7);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn duplicate_name_rejected_for_contexts() {
        let runtime: Runtime<()> = Runtime::new();
        let _a = runtime.context("same").unwrap();
        assert!(runtime.context("same").is_err());
    }

    #[test]
    fn many_workers_round_trip() {
        let runtime: Runtime<usize> = Runtime::new();
        let manager = runtime.context("manager").unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                runtime
                    .spawn(format!("worker{i}"), move |ctx: ThreadContext<usize>| {
                        let env = ctx.recv().unwrap();
                        ctx.send("manager", env.payload * env.payload).unwrap();
                    })
                    .unwrap()
            })
            .collect();
        for i in 0..8 {
            manager.send(&format!("worker{i}"), i + 1).unwrap();
        }
        let mut results: Vec<usize> = (0..8).map(|_| manager.recv().unwrap().payload).collect();
        results.sort();
        assert_eq!(results, vec![1, 4, 9, 16, 25, 36, 49, 64]);
        for h in handles {
            h.join();
        }
    }

    #[test]
    fn handle_reports_finished_state() {
        let runtime: Runtime<()> = Runtime::new();
        let handle = runtime.spawn("quick", |_ctx| 42u8).unwrap();
        let value = handle.join();
        assert_eq!(value, 42);
    }
}
