//! Service configuration: typed errors and validating builders.
//!
//! Struct-literal configuration let invalid shapes (zero in-flight jobs, a
//! pool with no lanes) surface only at `FusionService::start`, as stringly
//! errors.  [`ServiceConfig::builder`] and [`crate::JobSpec::builder`]
//! validate at build time and return a typed [`ConfigError`], which converts
//! into [`ServiceError`] so `?` composes across the crate boundary.
//!
//! ```
//! use service::ServiceConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ServiceConfig::builder()
//!     .standard_workers(4)
//!     .replica_groups(2)
//!     .replication_level(2)
//!     .shared_memory_executors(2)
//!     .queue_capacity(32)
//!     .max_in_flight(8)
//!     .build()?;
//! assert_eq!(config.queue_capacity, 32);
//! # Ok(())
//! # }
//! ```

use crate::admission::{TenantId, TenantQuota};
use crate::chaos::ChaosPlan;
use crate::ServiceError;
use resilience::DetectorConfig;
use std::collections::BTreeMap;
use telemetry::Telemetry;

/// A typed configuration defect, produced by the validating builders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_in_flight` was zero: the scheduler could never admit a job.
    ZeroMaxInFlight,
    /// `queue_capacity` was zero: no submission could ever be accepted.
    ZeroQueueCapacity,
    /// The pool has no execution lane at all (no standard workers, no
    /// replica groups, no shared-memory executors, no remote workers).
    NoLanes,
    /// `replica_groups` is non-zero but `replication_level` is zero.
    ZeroReplicationLevel,
    /// The pool's failure detector has a heartbeat period or a miss
    /// threshold of zero, hence a failure timeout of zero: every sweep would
    /// declare every member failed, and the scheduler's next detector
    /// deadline would always be "now".
    ZeroFailureTimeout,
    /// A job spec asked for zero shards.
    ZeroShards,
    /// A job of the paper's protocol is not pinned to the resilient lane.
    /// Its output depends on its partition, so no other lane — above all
    /// the inline lane, which computes the sequential reference — may run
    /// it, and only the resilient lane regenerates instead of failing over.
    PaperJobOffResilientLane,
    /// A tenant quota carries a fair-share weight of zero: the tenant
    /// could never be dequeued.
    ZeroTenantWeight(TenantId),
    /// The embedded pipeline configuration is invalid; the payload is the
    /// pipeline's own message.
    Pipeline(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroMaxInFlight => write!(f, "max_in_flight must be at least 1"),
            ConfigError::ZeroQueueCapacity => write!(f, "queue_capacity must be at least 1"),
            ConfigError::NoLanes => write!(
                f,
                "the pool needs at least one lane (standard workers, replica groups, shared-memory executors or remote workers)"
            ),
            ConfigError::ZeroReplicationLevel => {
                write!(f, "replica groups need a replication level of at least 1")
            }
            ConfigError::ZeroFailureTimeout => write!(
                f,
                "the failure detector needs a heartbeat period and a miss threshold of at least 1"
            ),
            ConfigError::ZeroShards => write!(f, "a job needs at least one shard"),
            ConfigError::PaperJobOffResilientLane => write!(
                f,
                "a job of the paper's protocol must be pinned to the resilient lane"
            ),
            ConfigError::ZeroTenantWeight(tenant) => {
                write!(f, "tenant {tenant} needs a fair-share weight of at least 1")
            }
            ConfigError::Pipeline(msg) => write!(f, "pipeline configuration: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::InvalidConfig(e.to_string())
    }
}

/// How one remote-lane worker comes into existence.
///
/// Whatever the variant, the worker ends up on the far side of a framed,
/// CRC-checked, version-handshaken [`wire`] connection and is driven by the
/// exact task loop the standard lane runs in-process — same heartbeat
/// cadence, same failure detection, same re-dispatch on loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteWorkerSpec {
    /// Spawn a worker *process* (typically the `fusiond-worker` binary) and
    /// have it dial back into the service over loopback TCP.  The service
    /// appends its listener address as the final argument.
    Spawn {
        /// Program to execute.
        command: String,
        /// Arguments before the appended listener address.
        args: Vec<String>,
    },
    /// Connect out to a worker already listening at `addr`
    /// (`fusiond-worker --listen <addr>`).
    Connect {
        /// `host:port` the worker listens on.
        addr: String,
    },
    /// An in-process thread speaking the full wire protocol over real
    /// loopback TCP — every byte is framed, checksummed and handshaken
    /// exactly as with a separate process.  Meant for tests and benches
    /// that want the protocol path without process management.
    Thread,
}

/// Sizing of the shared worker pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Plain worker threads of the standard lane (0 disables the lane).
    pub standard_workers: usize,
    /// Replica groups of the resilient lane (0 disables the lane).
    pub replica_groups: usize,
    /// Members per replica group (the paper evaluates level 2).
    pub replication_level: usize,
    /// In-process shared-memory executors (0 disables the lane).  Each runs
    /// whole small jobs start-to-finish with zero protocol messages.
    pub shared_memory_executors: usize,
    /// Tuning of the scheduler's one failure detector, which watches every
    /// pool member — replica members, standard workers and remote workers —
    /// by heartbeat silence confirmed with a mailbox probe.
    pub detector: DetectorConfig,
    /// Remote-lane workers, one per spec (empty disables the lane).  Each
    /// worker lives across a process boundary behind the versioned wire
    /// protocol and is watched by the same detector as every other member.
    pub remote_workers: Vec<RemoteWorkerSpec>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            standard_workers: 4,
            replica_groups: 2,
            replication_level: 2,
            shared_memory_executors: 2,
            detector: DetectorConfig {
                heartbeat_period_ms: 50,
                miss_threshold: 8,
            },
            remote_workers: Vec::new(),
        }
    }
}

/// Service-level configuration.  Build one with [`ServiceConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pool sizing.
    pub pool: PoolConfig,
    /// Bound of the admission queue (the backpressure point).
    pub queue_capacity: usize,
    /// Maximum number of jobs admitted (running) concurrently.
    pub max_in_flight: usize,
    /// Each listed tenant's fair-share weight; unlisted tenants weigh 1.
    pub tenant_quotas: BTreeMap<TenantId, TenantQuota>,
    /// Deterministic chaos schedule: member kills anchored to scheduler
    /// dispatch events (empty by default).
    pub chaos: ChaosPlan,
    /// Observability handle: spans, metrics and the flight recorder, and
    /// the service's only instrument of time.  Disabled by default, in
    /// which case every instrumentation point costs one branch and nothing
    /// is timed.
    pub telemetry: Telemetry,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            pool: PoolConfig::default(),
            queue_capacity: 64,
            max_in_flight: 16,
            tenant_quotas: BTreeMap::new(),
            chaos: ChaosPlan::none(),
            telemetry: Telemetry::disabled(),
        }
    }
}

impl ServiceConfig {
    /// Starts a validating builder from the defaults.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig::default(),
        }
    }

    /// Validates a configuration however it was produced (the builder calls
    /// this; `FusionService::start` calls it again so struct-literal
    /// configurations get the same checks).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_in_flight == 0 {
            return Err(ConfigError::ZeroMaxInFlight);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        let pool = &self.pool;
        if pool.standard_workers == 0
            && pool.replica_groups == 0
            && pool.shared_memory_executors == 0
            && pool.remote_workers.is_empty()
        {
            return Err(ConfigError::NoLanes);
        }
        if pool.replica_groups > 0 && pool.replication_level == 0 {
            return Err(ConfigError::ZeroReplicationLevel);
        }
        if pool.detector.failure_timeout_ms() == 0 {
            return Err(ConfigError::ZeroFailureTimeout);
        }
        if let Some((tenant, _)) = self.tenant_quotas.iter().find(|(_, q)| q.weight == 0) {
            return Err(ConfigError::ZeroTenantWeight(*tenant));
        }
        Ok(())
    }
}

/// Validating builder for [`ServiceConfig`] — see [`ServiceConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Replaces the whole pool sizing block.
    pub fn pool(mut self, pool: PoolConfig) -> Self {
        self.config.pool = pool;
        self
    }

    /// Number of standard-lane worker threads (0 disables the lane).
    pub fn standard_workers(mut self, workers: usize) -> Self {
        self.config.pool.standard_workers = workers;
        self
    }

    /// Number of resilient-lane replica groups (0 disables the lane).
    pub fn replica_groups(mut self, groups: usize) -> Self {
        self.config.pool.replica_groups = groups;
        self
    }

    /// Members per replica group.
    pub fn replication_level(mut self, level: usize) -> Self {
        self.config.pool.replication_level = level;
        self
    }

    /// Number of in-process shared-memory executors (0 disables the lane).
    pub fn shared_memory_executors(mut self, executors: usize) -> Self {
        self.config.pool.shared_memory_executors = executors;
        self
    }

    /// Tuning of the failure detector that watches every pool member.
    pub fn detector(mut self, detector: DetectorConfig) -> Self {
        self.config.pool.detector = detector;
        self
    }

    /// Replaces the remote-lane worker specs (empty disables the lane).
    pub fn remote_workers(mut self, specs: Vec<RemoteWorkerSpec>) -> Self {
        self.config.pool.remote_workers = specs;
        self
    }

    /// Bound of the admission queue.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Maximum number of concurrently running jobs.
    pub fn max_in_flight(mut self, max: usize) -> Self {
        self.config.max_in_flight = max;
        self
    }

    /// Sets one tenant's fair-share weight.
    pub fn tenant_quota(mut self, tenant: TenantId, quota: TenantQuota) -> Self {
        self.config.tenant_quotas.insert(tenant, quota);
        self
    }

    /// Deterministic chaos schedule.
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.config.chaos = plan;
        self
    }

    /// Observability handle shared by the scheduler, admission plane and
    /// resilient lane.  Pass [`Telemetry::enabled`] (or
    /// [`Telemetry::with_clock`] in tests) to record spans, metrics and
    /// the flight recorder; the default disabled handle records nothing.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<ServiceConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_validated_defaults() {
        let config = ServiceConfig::builder().build().unwrap();
        assert_eq!(config.queue_capacity, 64);
        assert_eq!(config.max_in_flight, 16);
        assert_eq!(config.pool.shared_memory_executors, 2);
    }

    #[test]
    fn builder_rejects_degenerate_shapes() {
        assert_eq!(
            ServiceConfig::builder()
                .max_in_flight(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroMaxInFlight
        );
        assert_eq!(
            ServiceConfig::builder()
                .queue_capacity(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroQueueCapacity
        );
        assert_eq!(
            ServiceConfig::builder()
                .standard_workers(0)
                .replica_groups(0)
                .shared_memory_executors(0)
                .build()
                .unwrap_err(),
            ConfigError::NoLanes
        );
        // A remote worker alone is a lane: the same shape passes with one.
        let remote_only = ServiceConfig::builder()
            .standard_workers(0)
            .replica_groups(0)
            .shared_memory_executors(0)
            .remote_workers(vec![RemoteWorkerSpec::Thread])
            .build()
            .unwrap();
        assert_eq!(remote_only.pool.remote_workers.len(), 1);
        assert_eq!(
            ServiceConfig::builder()
                .replica_groups(1)
                .replication_level(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroReplicationLevel
        );
    }

    #[test]
    fn a_zero_failure_timeout_is_rejected_on_either_detector() {
        let zero_period = DetectorConfig {
            heartbeat_period_ms: 0,
            miss_threshold: 3,
        };
        let zero_threshold = DetectorConfig {
            heartbeat_period_ms: 10,
            miss_threshold: 0,
        };
        // Either way of setting the one detector is validated.
        for bad in [zero_period, zero_threshold] {
            let pool = PoolConfig {
                detector: bad,
                ..PoolConfig::default()
            };
            for builder in [
                ServiceConfig::builder().pool(pool),
                ServiceConfig::builder().detector(bad),
            ] {
                assert_eq!(
                    builder.build().unwrap_err(),
                    ConfigError::ZeroFailureTimeout
                );
            }
        }
    }

    #[test]
    fn builder_rejects_degenerate_tenant_quotas() {
        assert_eq!(
            ServiceConfig::builder()
                .tenant_quota(TenantId(4), TenantQuota::weighted(0))
                .build()
                .unwrap_err(),
            ConfigError::ZeroTenantWeight(TenantId(4))
        );
        let config = ServiceConfig::builder()
            .tenant_quota(TenantId(4), TenantQuota::weighted(2))
            .build()
            .unwrap();
        assert_eq!(config.tenant_quotas[&TenantId(4)].weight, 2);
    }

    #[test]
    fn config_errors_render_and_convert() {
        let err = ConfigError::NoLanes;
        assert!(err.to_string().contains("at least one lane"));
        let service_err: ServiceError = ConfigError::ZeroShards.into();
        assert!(matches!(service_err, ServiceError::InvalidConfig(_)));
        // The std::error::Error impl composes with `?` behind a Box.
        let boxed: Box<dyn std::error::Error> = Box::new(ConfigError::ZeroMaxInFlight);
        assert!(boxed.to_string().contains("max_in_flight"));
    }
}
