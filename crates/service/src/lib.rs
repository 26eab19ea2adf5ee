//! `fusiond` — a sharded, batched fusion service layer over the PCT
//! pipelines.
//!
//! The paper's resilient PCT fuses *one* cube per run; this crate turns the
//! reproduction into a job-oriented service that multiplexes many fusion
//! requests over one long-lived, sharded worker pool:
//!
//! * **Ingestion front end** — a [`JobSpec`] (cube source, [`pct::PctConfig`],
//!   [`Route`], priority, shard count, optional deadline, [`Protocol`]; built with the
//!   validating [`JobSpec::builder`]) is submitted through a bounded
//!   admission queue with backpressure ([`FusionService::submit`] blocks
//!   when full, [`FusionService::try_submit`] rejects).  Submission returns
//!   an owned [`JobHandle`]: `wait`/`wait_timeout` resolve to a
//!   typed [`JobOutcome`], `cancel` and `status` are handle methods, and a
//!   dropped handle cancels its job unless [`JobHandle::detach`]ed.
//! * **Routing** — a job's [`Route`] is either pinned to a lane or
//!   [`Route::Auto`], resolved at admission by the size rule
//!   ([`routing::route`]) over four real lanes: *standard* workers, *resilient* replica groups,
//!   in-process *shared-memory* executors for small cubes, and *remote*
//!   worker processes spoken to over the versioned [`wire`] protocol.
//! * **Batch scheduler** — admitted jobs are sharded via `hsi::partition`,
//!   and their tasks are batch-dispatched in priority order onto a shared
//!   pool of long-lived `scp` workers — no per-request pipeline spawning.
//!   Every message-plane lane is a set of `resilience` replica groups owned
//!   by one [`pct::ResilientManagerState`]: *standard* and *remote* workers
//!   are level-1 groups, the *resilient* lane's groups are regenerated.
//!   The scheduler is the one executor of both manager protocols
//!   ([`pct::plan::Plan`]): the seeded chain below and, on the resilient
//!   lane, the paper's own.
//!   Shared-memory jobs bypass the message plane entirely.
//! * **Results plane** — typed per-job outcomes through the handle,
//!   cancellation, per-job timeouts, a subscribable [`ServiceEvent`] stream
//!   ([`FusionService::subscribe`]) covering admission/dispatch/retransmit/
//!   kill/regeneration/terminal transitions, and a [`ServiceReport`] of
//!   counts: jobs, tasks, the queue's high-water mark, per-route and
//!   per-tenant counters.  Durations — phase, job latency, admission wait —
//!   are the spans and histograms of [`ServiceConfig::telemetry`], measured
//!   once and only there.
//!
//! ## Determinism
//!
//! Scheduling is concurrent, but every chain job's output is **byte-identical
//! to [`pct::SequentialPct`]** on the same cube and configuration, regardless of
//! pool size, lane, interleaving with other jobs, or worker kills on the
//! resilient lane.  Three properties make that exact:
//!
//! 1. screening runs as a *chain* of seeded tasks over the job's shards
//!    (`pct::screening::screen_pixels_seeded` reproduces whole-image greedy
//!    screening bit-for-bit for consecutive splits),
//! 2. statistics (steps 3–6) are derived in a single task over the merged
//!    unique set, exactly as the sequential reference computes them, and
//! 3. the transform/colour phase is per-pixel pure, so row-strip fan-out
//!    reassembles to the identical image.
//!
//! Intra-job screening is therefore pipelined rather than fanned out; pool
//! utilisation comes from running many jobs concurrently, which is the
//! service's reason to exist.  A job of the paper's protocol
//! ([`Protocol::Paper`]) fans screening and covariance out instead; its
//! output is a function of its partition, byte-identical to
//! [`pct::plan::Plan::run_in_process`] over the same shards.
//!
//! ## Admission & tenancy
//!
//! Every admission decision — queueing and route resolution — flows
//! through one governor (module [`admission`]).  Jobs carry a [`TenantId`];
//! tenants get weighted fair-share dequeueing (deterministic deficit round
//! robin, weights from [`TenantQuota`]).  The one refusal is a full queue,
//! [`ServiceError::Saturated`], carrying the [`RETRY_AFTER`] hint in both
//! the typed error and the [`ServiceEvent::Rejected`] event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod admission;
pub mod chaos;
pub mod config;
pub mod events;
pub mod handle;
pub mod job;
pub mod report;
pub mod routing;
pub mod service;

mod pool;
mod remote;
mod scheduler;
mod status;

pub use admission::{DrrQueue, RetryAfter, TenantId, TenantQuota, RETRY_AFTER};
pub use chaos::{ChaosPhase, ChaosPlan, PhaseKill};
pub use config::{ConfigError, PoolConfig, RemoteWorkerSpec, ServiceConfig, ServiceConfigBuilder};
pub use events::{EventSubscriber, ServiceEvent, StampedEvent};
pub use handle::{JobHandle, JobOutcome};
pub use job::{
    BackendKind, CubeSource, JobId, JobSpec, JobSpecBuilder, JobStatus, Priority, Protocol,
};
pub use report::{RouteStats, ServiceReport, TenantStats};
pub use routing::{LaneLoad, LaneSnapshot, Route};
pub use scheduler::HostedScheduler;
pub use service::FusionService;

/// Errors produced by the fusion service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission queue is full (backpressure): the job was rejected.
    /// The hint tells the submitter when a retry is worthwhile.
    Saturated {
        /// Machine-readable back-off hint.
        retry_after: RetryAfter,
    },
    /// The service is shutting down and no longer accepts jobs.
    ShuttingDown,
    /// No job with this id is known to the service.
    UnknownJob(JobId),
    /// The job failed; the payload is the cause.
    Failed(String),
    /// The job was cancelled before it completed.
    Cancelled,
    /// The job exceeded its deadline and was abandoned.
    TimedOut,
    /// The handle's typed outcome was already taken by an earlier `wait`.
    OutcomeTaken(JobId),
    /// A job or service configuration value is invalid.
    InvalidConfig(String),
    /// An internal substrate error (message passing, resiliency, pipeline).
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Saturated { retry_after } => {
                write!(f, "admission queue is full ({retry_after})")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ServiceError::Failed(cause) => write!(f, "job failed: {cause}"),
            ServiceError::Cancelled => write!(f, "job was cancelled"),
            ServiceError::TimedOut => write!(f, "job timed out"),
            ServiceError::OutcomeTaken(id) => {
                write!(
                    f,
                    "outcome of job {id} was already taken by an earlier wait"
                )
            }
            ServiceError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ServiceError::Internal(msg) => write!(f, "internal service error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<scp::ScpError> for ServiceError {
    fn from(e: scp::ScpError) -> Self {
        ServiceError::Internal(format!("message passing: {e}"))
    }
}

impl From<pct::PctError> for ServiceError {
    fn from(e: pct::PctError) -> Self {
        ServiceError::Internal(format!("pipeline: {e}"))
    }
}

impl From<resilience::ResilienceError> for ServiceError {
    fn from(e: resilience::ResilienceError) -> Self {
        ServiceError::Internal(format!("resiliency: {e}"))
    }
}

impl From<hsi::HsiError> for ServiceError {
    fn from(e: hsi::HsiError) -> Self {
        ServiceError::Internal(format!("imagery: {e}"))
    }
}

impl From<wire::WireError> for ServiceError {
    fn from(e: wire::WireError) -> Self {
        ServiceError::Internal(format!("wire protocol: {e}"))
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServiceError>;
