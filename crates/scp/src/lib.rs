//! `scp` — a concurrent-programming library in the style of SCPlib.
//!
//! The paper builds its resiliency concepts on SCPlib [Taylor et al. 1995,
//! Watts et al. 1998]: distributed applications are collections of *threads*
//! that communicate by sending messages, each thread carries a
//! machine-independent description of its communication structure, and the
//! important state transitions happen at message receipt (the reactive
//! model).  Having the communication structure explicit is what makes
//! dynamic replication and reconfiguration possible — the runtime can rebind
//! a logical endpoint to a different physical thread without the application
//! changing a line of code.
//!
//! This crate is that layer, re-imagined as safe Rust on OS threads:
//!
//! * [`envelope`] — message envelopes: a payload under its sender's name.
//! * [`router`] — a dynamic name-to-mailbox registry ([`router::Router`]):
//!   every send resolves the destination name at send time, so a member
//!   regenerated under a fresh name is reachable the moment it registers and
//!   a send to a lost one fails typed.
//! * [`runtime`] — thread spawning and the per-thread context
//!   ([`runtime::ThreadContext`]) with send and blocking / timeout /
//!   non-blocking receive.
//!
//! It holds what the four execution lanes run and nothing else.  There is
//! no static communication-graph descriptor and no per-sender sequence
//! number: regenerated members introduce names a static graph cannot
//! anticipate, and duplicates are discarded by task id in `pct::plan`.
//!
//! The `resilience` crate layers replication groups, failure detection and
//! regeneration on top of these primitives, and `pct` uses both to run the
//! distributed fusion pipeline on real threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod envelope;
pub mod router;
pub mod runtime;

pub use envelope::Envelope;
pub use router::{Router, ThreadName};
pub use runtime::{Runtime, ThreadContext, ThreadHandle};

/// Errors produced by the message-passing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScpError {
    /// The destination name is not currently bound to any mailbox.
    UnknownDestination(String),
    /// The destination's mailbox has been closed (its thread exited).
    Disconnected(String),
    /// A receive timed out.
    Timeout,
    /// A thread with this name is already registered.
    DuplicateName(String),
    /// The runtime has been shut down.
    Shutdown,
}

impl std::fmt::Display for ScpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScpError::UnknownDestination(name) => write!(f, "unknown destination '{name}'"),
            ScpError::Disconnected(name) => write!(f, "destination '{name}' disconnected"),
            ScpError::Timeout => write!(f, "receive timed out"),
            ScpError::DuplicateName(name) => write!(f, "thread name '{name}' already registered"),
            ScpError::Shutdown => write!(f, "runtime has been shut down"),
        }
    }
}

impl std::error::Error for ScpError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ScpError>;
