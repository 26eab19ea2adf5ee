//! Streaming cube ingestion: the front door between raw sensor bytes and
//! the `fusiond` job plane.
//!
//! Every cube the service fused before this crate existed was synthesized
//! in memory.  Production fusion systems are gated by heterogeneous
//! multi-source ingestion, not by the fusion kernel, so this crate turns
//! the reproduction into an end-to-end service:
//!
//! * [`CubeSource`] — a pull-based stream of cube arrivals.  Real
//!   implementations: [`DirectorySource`] (replays a folder of
//!   self-describing BSQ/BIL/BIP `.hsif` cube files, read in byte chunks,
//!   as a deterministic arrival schedule and picks up files dropped in
//!   while it runs), and [`SyntheticSource`] (seeded scenes encoded and
//!   chunked exactly like a file read — the deterministic source for tests
//!   and benches).
//! * [`StreamDecoder`] — the one decoder of the `.hsif` format: assembles
//!   arbitrary byte chunks directly into the final `Arc<HyperCube>` BIP
//!   storage: each completed `f64` is scattered to its in-memory offset as
//!   it arrives, so there is **no post-assembly copy**.  The `hsi` ledger proves it: assembly charges
//!   [`hsi::charge_assembled_bytes`] while [`hsi::CloneLedger::delta`]
//!   stays zero.
//! * [`CubeStore`] — a content-addressed cache (hash of dimensions +
//!   sample bytes → `Arc<HyperCube>`) with LRU eviction and hit/miss
//!   counters: a repeated scene deduplicates into an `Arc` bump before it
//!   ever reaches admission.
//! * [`IngestPump`] — drives sources → decoder → store →
//!   [`service::FusionService::submit`] through the builder/handle API.
//!   It never blocks on the service: the [`SheddingPolicy`]'s one
//!   watermark sheds an arrival while the pump's own submitted, not yet
//!   terminal jobs hold too many payload bytes (counted from the
//!   [`service::ServiceEvent`] stream), and a submission the service
//!   refuses as saturated is shed too.  Jobs are attributed to the
//!   configured [`service::TenantId`], and every shed (with its
//!   [`service::RetryAfter`] hint) is surfaced in the [`IngestReport`] and
//!   per-source counters.
//!
//! Admitted cubes keep the service's determinism contract: each fused
//! output is byte-identical to `pct::SequentialPct` on the same cube.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod decoder;
pub mod pump;
pub mod report;
pub mod source;
pub mod store;

pub use decoder::StreamDecoder;
pub use pump::{IngestConfig, IngestPump, IngestRun, IngestedJob, ShedCube, SheddingPolicy};
pub use report::{IngestReport, ShedReason, SourceCounters};
pub use source::{CubeSource, DirectorySource, SourceEvent, SyntheticSource};
pub use store::CubeStore;

/// Errors produced by the ingestion layer.
#[derive(Debug)]
pub enum IngestError {
    /// A cube file header or chunk stream is malformed.
    Malformed(String),
    /// A source ended before delivering the payload its header announced.
    Truncated {
        /// Samples the header promised.
        expected_samples: usize,
        /// Samples actually decoded.
        actual_samples: usize,
    },
    /// A source delivered more payload than its header announced.
    Overflow {
        /// Samples the header promised.
        expected_samples: usize,
    },
    /// An I/O error while reading a source.
    Io(std::io::Error),
    /// An error from the imagery substrate.
    Hsi(hsi::HsiError),
    /// An error from the fusion service.
    Service(service::ServiceError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Malformed(msg) => write!(f, "malformed cube stream: {msg}"),
            IngestError::Truncated {
                expected_samples,
                actual_samples,
            } => write!(
                f,
                "truncated cube stream: {actual_samples} of {expected_samples} samples"
            ),
            IngestError::Overflow { expected_samples } => {
                write!(f, "cube stream overflows its {expected_samples} samples")
            }
            IngestError::Io(e) => write!(f, "ingest i/o error: {e}"),
            IngestError::Hsi(e) => write!(f, "imagery error: {e}"),
            IngestError::Service(e) => write!(f, "service error: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<hsi::HsiError> for IngestError {
    fn from(e: hsi::HsiError) -> Self {
        IngestError::Hsi(e)
    }
}

impl From<service::ServiceError> for IngestError {
    fn from(e: service::ServiceError) -> Self {
        IngestError::Service(e)
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, IngestError>;
