//! Thread spawning and the per-thread communication context.
//!
//! A [`Runtime`] owns the shared [`Router`] and an optional
//! [`CommGraph`] used to validate sends.  Application threads are spawned
//! with [`Runtime::spawn`]; each receives a [`ThreadContext`] through which
//! it sends and receives envelopes.  The context assigns outgoing sequence
//! numbers automatically, so replicated senders created from the same
//! logical state produce identical numbering.

use crate::envelope::{Envelope, SeqNum};
use crate::graph::CommGraph;
use crate::router::{Router, ThreadName};
use crate::{Result, ScpError};
use crossbeam_channel::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a runtime instance.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// When set, sends over channels not declared in `graph` are rejected
    /// with [`ScpError::ChannelNotDeclared`].
    pub validate_channels: bool,
    /// The declared communication structure.
    pub graph: CommGraph,
}

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
    graph: Arc<CommGraph>,
    validate: bool,
    next_seq: SeqNum,
}

impl<M> ThreadContext<M> {
    /// This thread's logical name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A clone of the shared router (for advanced uses such as rebinding).
    pub fn router(&self) -> Router<M> {
        self.router.clone()
    }

    /// The sequence number the next send will use.
    pub fn next_seq(&self) -> SeqNum {
        self.next_seq
    }

    /// Sends `payload` to the thread currently bound to `to`, assigning the
    /// next sequence number.
    pub fn send(&mut self, to: &str, payload: M) -> Result<SeqNum> {
        if self.validate && !self.graph.allows(&self.name, to) {
            return Err(ScpError::ChannelNotDeclared {
                from: self.name.clone(),
                to: to.to_string(),
            });
        }
        let seq = self.next_seq;
        self.router.send_envelope(Envelope::new(
            self.name.clone(),
            to.to_string(),
            seq,
            payload,
        ))?;
        self.next_seq = self.next_seq.next();
        Ok(seq)
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

/// The thread runtime: spawning, routing and shutdown.
pub struct Runtime<M> {
    router: Router<M>,
    graph: Arc<CommGraph>,
    validate: bool,
}

impl<M: Send + 'static> Runtime<M> {
    /// Creates a runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        Self {
            router: Router::new(),
            graph: Arc::new(config.graph),
            validate: config.validate_channels,
        }
    }

    /// Creates a runtime with no channel validation (the common case).
    pub fn unvalidated() -> Self {
        Self::new(RuntimeConfig::default())
    }

    /// The shared router.
    pub fn router(&self) -> Router<M> {
        self.router.clone()
    }

    /// The declared communication graph.
    pub fn graph(&self) -> &CommGraph {
        &self.graph
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
            graph: Arc::clone(&self.graph),
            validate: self.validate,
            next_seq: SeqNum::FIRST,
        })
    }

    /// Re-creates a context for an existing name by rebinding its mailbox —
    /// the runtime half of regenerating a thread.  `resume_seq` lets the new
    /// incarnation continue the sequence numbering of the old one.
    pub fn regenerate_context(
        &self,
        name: impl Into<ThreadName>,
        resume_seq: SeqNum,
    ) -> ThreadContext<M> {
        let name = name.into();
        let receiver = self.router.rebind(name.clone());
        ThreadContext {
            name,
            router: self.router.clone(),
            receiver,
            graph: Arc::clone(&self.graph),
            validate: self.validate,
            next_seq: resume_seq,
        }
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
        let runtime: Runtime<String> = Runtime::unvalidated();
        let mut manager = runtime.context("manager").unwrap();
        let worker = runtime
            .spawn("worker", |mut ctx: ThreadContext<String>| {
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
    fn sequence_numbers_increment_per_sender() {
        let runtime: Runtime<u32> = Runtime::unvalidated();
        let mut a = runtime.context("a").unwrap();
        let _b_rx = runtime.router().register("b").unwrap();
        assert_eq!(a.send("b", 1).unwrap(), SeqNum(1));
        assert_eq!(a.send("b", 2).unwrap(), SeqNum(2));
        assert_eq!(a.next_seq(), SeqNum(3));
    }

    #[test]
    fn channel_validation_rejects_undeclared_sends() {
        let mut graph = CommGraph::new();
        graph.declare("a", "b", "ok");
        let runtime: Runtime<()> = Runtime::new(RuntimeConfig {
            validate_channels: true,
            graph,
        });
        let mut a = runtime.context("a").unwrap();
        let mut b = runtime.context("b").unwrap();
        assert!(a.send("b", ()).is_ok());
        assert!(matches!(
            b.send("a", ()),
            Err(ScpError::ChannelNotDeclared { .. })
        ));
    }

    #[test]
    fn recv_timeout_times_out() {
        let runtime: Runtime<()> = Runtime::unvalidated();
        let ctx = runtime.context("lonely").unwrap();
        let err = ctx.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, ScpError::Timeout);
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let runtime: Runtime<u8> = Runtime::unvalidated();
        let mut a = runtime.context("a").unwrap();
        let b = runtime.context("b").unwrap();
        assert!(b.try_recv().unwrap().is_none());
        a.send("b", 7).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap().payload, 7);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn duplicate_name_rejected_for_contexts() {
        let runtime: Runtime<()> = Runtime::unvalidated();
        let _a = runtime.context("same").unwrap();
        assert!(runtime.context("same").is_err());
    }

    #[test]
    fn regenerate_context_takes_over_a_name() {
        let runtime: Runtime<u32> = Runtime::unvalidated();
        let mut manager = runtime.context("manager").unwrap();
        let original = runtime.context("worker").unwrap();
        manager.send("worker", 1).unwrap();
        assert_eq!(original.recv().unwrap().payload, 1);

        // Simulate the worker being lost and regenerated: rebind the name.
        let regenerated = runtime.regenerate_context("worker", SeqNum(10));
        manager.send("worker", 2).unwrap();
        assert_eq!(regenerated.recv().unwrap().payload, 2);
        // The original mailbox no longer receives anything: its sender was
        // replaced by the rebind, so it reports either empty or shutdown.
        assert!(matches!(
            original.try_recv(),
            Ok(None) | Err(ScpError::Shutdown)
        ));
        assert_eq!(regenerated.next_seq(), SeqNum(10));
    }

    #[test]
    fn many_workers_round_trip() {
        let runtime: Runtime<usize> = Runtime::unvalidated();
        let mut manager = runtime.context("manager").unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                runtime
                    .spawn(
                        format!("worker{i}"),
                        move |mut ctx: ThreadContext<usize>| {
                            let env = ctx.recv().unwrap();
                            ctx.send("manager", env.payload * env.payload).unwrap();
                        },
                    )
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
        let runtime: Runtime<()> = Runtime::unvalidated();
        let handle = runtime.spawn("quick", |_ctx| 42u8).unwrap();
        let value = handle.join();
        assert_eq!(value, 42);
    }
}
