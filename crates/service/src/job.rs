//! Job specifications, identifiers, priorities and lifecycle states.

use crate::admission::{JobClass, TenantId};
use crate::config::ConfigError;
use crate::routing::Route;
use crate::Result;
use hsi::{HyperCube, SceneConfig, SceneGenerator};
use pct::PctConfig;
use std::sync::Arc;
use std::time::Duration;

/// Identifier of one submitted fusion job, unique within a service instance.
pub type JobId = u64;

/// Scheduling priority of a job.  Higher priorities are admitted and
/// dispatched first; within a priority, jobs run in submission order.
///
/// Variants are declared least-urgent first so the derived `Ord` agrees
/// with [`Priority::rank`]: `Low < Normal < High`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Dispatched only when nothing more urgent is runnable.
    Low,
    /// The default.
    Normal,
    /// Dispatched before everything else.
    High,
}

impl Priority {
    /// All priorities, most urgent first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Numeric urgency used for queue ordering (larger is more urgent).
    pub fn rank(&self) -> u8 {
        *self as u8
    }

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Which pool lane executes the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendKind {
    /// Plain long-lived worker threads (no replication).
    Standard,
    /// Replica groups with failure detection and regeneration: the job
    /// survives worker kills with byte-identical output.
    Resilient,
    /// In-process execution on a dedicated shared-memory executor thread:
    /// the whole job runs start-to-finish against the shared cube with zero
    /// protocol messages — the cheapest path for small cubes.
    SharedMemory,
    /// Worker processes outside the service's address space, spoken to over
    /// the versioned `wire` protocol (framed, CRC-checked TCP).  Same task
    /// loop and liveness contract as the standard lane, across a process
    /// boundary.
    Remote,
}

impl BackendKind {
    /// Every lane, in the scheduler's preference order.  Remote comes last:
    /// it is the only lane that pays serialisation and a process boundary
    /// per task, so the clamp never prefers it over an in-process lane.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Standard,
        BackendKind::Resilient,
        BackendKind::SharedMemory,
        BackendKind::Remote,
    ];

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Standard => "standard",
            BackendKind::Resilient => "resilient",
            BackendKind::SharedMemory => "shared-memory",
            BackendKind::Remote => "remote",
        }
    }
}

/// Where a job's cube comes from.
#[derive(Debug, Clone)]
pub enum CubeSource {
    /// A cube already in memory, shared without copying.
    InMemory(Arc<HyperCube>),
    /// A synthetic scene generated at admission time from its config — the
    /// deterministic stand-in for an ingestion path that loads data on
    /// demand.
    Synthetic(SceneConfig),
}

impl CubeSource {
    /// Materialises the cube.
    pub fn realize(&self) -> Result<Arc<HyperCube>> {
        match self {
            CubeSource::InMemory(cube) => Ok(Arc::clone(cube)),
            CubeSource::Synthetic(config) => {
                let generator = SceneGenerator::new(config.clone())?;
                Ok(Arc::new(generator.generate()))
            }
        }
    }

    /// Payload bytes of the cube this source yields, used for the
    /// admission plane's in-flight byte accounting (exact for in-memory
    /// cubes, derived from the dimensions for synthetic scenes).
    pub fn payload_bytes(&self) -> usize {
        match self {
            CubeSource::InMemory(cube) => cube.byte_size(),
            CubeSource::Synthetic(config) => config.dims.byte_size(),
        }
    }
}

/// Everything the service needs to run one fusion job.
///
/// Build one with [`JobSpec::builder`], which validates as it goes:
///
/// ```
/// use hsi::SceneConfig;
/// use service::{CubeSource, JobSpec, Priority, Route};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = JobSpec::builder(CubeSource::Synthetic(SceneConfig::small(1)))
///     .route(Route::Auto)
///     .priority(Priority::High)
///     .shards(3)
///     .build()?;
/// assert_eq!(spec.route, Route::Auto);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The cube to fuse.
    pub source: CubeSource,
    /// Pipeline configuration (screening angle, output components).
    pub config: PctConfig,
    /// Which pool lane executes the job: pinned, or resolved by the
    /// service's routing policy at admission.
    pub route: Route,
    /// Scheduling priority.
    pub priority: Priority,
    /// The tenant the job is submitted on behalf of (fairness and quota
    /// accounting; defaults to [`TenantId`]`(0)`).
    pub tenant: TenantId,
    /// How the admission plane may degrade the job under pressure.
    pub class: JobClass,
    /// Number of sub-cubes the job is sharded into (clamped to the cube's
    /// row count at admission).  The decomposition is fixed per job, so the
    /// output does not depend on pool width.
    pub shards: usize,
    /// Optional deadline measured from admission; an expired job is
    /// abandoned with [`crate::JobStatus::TimedOut`].
    pub timeout: Option<Duration>,
}

/// Validating builder for [`JobSpec`] — see [`JobSpec::builder`].
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    spec: JobSpec,
}

impl JobSpecBuilder {
    /// Overrides the pipeline configuration.
    pub fn config(mut self, config: PctConfig) -> Self {
        self.spec.config = config;
        self
    }

    /// Sets the route (pinned lane or [`Route::Auto`]).
    pub fn route(mut self, route: impl Into<Route>) -> Self {
        self.spec.route = route.into();
        self
    }

    /// Pins the job to a concrete lane (shorthand for
    /// `.route(Route::Pinned(kind))`).
    pub fn pinned(self, kind: BackendKind) -> Self {
        self.route(Route::Pinned(kind))
    }

    /// Overrides the priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.spec.priority = priority;
        self
    }

    /// Attributes the job to a tenant.
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.spec.tenant = tenant;
        self
    }

    /// Overrides the admission class.
    pub fn class(mut self, class: JobClass) -> Self {
        self.spec.class = class;
        self
    }

    /// Overrides the shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Sets a deadline relative to admission.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.spec.timeout = Some(timeout);
        self
    }

    /// Validates and produces the spec.
    pub fn build(self) -> std::result::Result<JobSpec, ConfigError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

impl JobSpec {
    /// Creates a spec with the paper configuration, automatic routing,
    /// normal priority and four shards.
    pub fn new(source: CubeSource) -> Self {
        Self {
            source,
            config: PctConfig::paper(),
            route: Route::Auto,
            priority: Priority::Normal,
            tenant: TenantId::default(),
            class: JobClass::default(),
            shards: 4,
            timeout: None,
        }
    }

    /// Starts a validating builder from the defaults of [`JobSpec::new`].
    pub fn builder(source: CubeSource) -> JobSpecBuilder {
        JobSpecBuilder {
            spec: JobSpec::new(source),
        }
    }

    /// Materialises a synthetic source into an in-memory cube.  The front
    /// end calls this on the submitting thread so scene generation never
    /// stalls the scheduler's dispatch/result loop.
    pub fn into_realized(mut self) -> Result<Self> {
        let cube = self.source.realize()?;
        self.source = CubeSource::InMemory(cube);
        Ok(self)
    }

    /// Validates the spec, returning the typed configuration error.  This
    /// is the single validation path: [`JobSpecBuilder::build`] calls it,
    /// and the submission front end re-checks hand-built specs through it.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        self.config
            .validate()
            .map_err(|e| ConfigError::Pipeline(e.to_string()))?;
        Ok(())
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted into the admission queue, not yet scheduled.
    Queued,
    /// Admitted by the scheduler; tasks are in flight.
    Running,
    /// Finished successfully; the output is available.
    Completed,
    /// Finished unsuccessfully.
    Failed,
    /// Cancelled by the client before completion.
    Cancelled,
    /// Abandoned after exceeding its deadline.
    TimedOut,
}

impl JobStatus {
    /// Whether the status is final (no further transitions).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled | JobStatus::TimedOut
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceError;
    use hsi::CubeDims;

    #[test]
    fn spec_builders_compose() {
        let spec = JobSpec::builder(CubeSource::Synthetic(SceneConfig::small(1)))
            .pinned(BackendKind::Resilient)
            .priority(Priority::High)
            .tenant(TenantId(7))
            .class(JobClass::Bulk)
            .shards(2)
            .timeout(Duration::from_secs(5))
            .build()
            .unwrap();
        assert_eq!(spec.route, Route::Pinned(BackendKind::Resilient));
        assert_eq!(spec.priority, Priority::High);
        assert_eq!(spec.tenant, TenantId(7));
        assert_eq!(spec.class, JobClass::Bulk);
        assert_eq!(spec.shards, 2);
        assert!(spec.timeout.is_some());
        assert!(spec.validate().is_ok());
        // The defaults keep pre-tenancy call sites on the public tenant.
        let plain = JobSpec::new(CubeSource::Synthetic(SceneConfig::small(1)));
        assert_eq!(plain.tenant, TenantId::default());
        assert_eq!(plain.class, JobClass::Standard);
    }

    #[test]
    fn builder_rejects_invalid_specs_with_typed_errors() {
        let err = JobSpec::builder(CubeSource::Synthetic(SceneConfig::small(1)))
            .shards(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroShards);

        let mut config = PctConfig::paper();
        config.output_components = 0;
        let err = JobSpec::builder(CubeSource::Synthetic(SceneConfig::small(1)))
            .config(config)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Pipeline(_)));
        // Typed config errors convert into the service error for `?` use.
        assert!(matches!(
            ServiceError::from(err),
            ServiceError::InvalidConfig(_)
        ));
    }

    #[test]
    fn route_setters_pin_and_default_to_auto() {
        let spec = JobSpec::builder(CubeSource::Synthetic(SceneConfig::small(1)))
            .route(Route::Pinned(BackendKind::SharedMemory))
            .build()
            .unwrap();
        assert_eq!(spec.route, Route::Pinned(BackendKind::SharedMemory));
        assert_eq!(
            JobSpec::new(CubeSource::Synthetic(SceneConfig::small(1))).route,
            Route::Auto,
            "the default route is Auto"
        );
    }

    #[test]
    fn invalid_pipeline_config_is_rejected() {
        let mut spec = JobSpec::new(CubeSource::Synthetic(SceneConfig::small(1)));
        spec.config.output_components = 0;
        assert!(matches!(spec.validate(), Err(ConfigError::Pipeline(_))));
    }

    #[test]
    fn synthetic_source_is_deterministic() {
        let mut config = SceneConfig::small(9);
        config.dims = CubeDims::new(8, 8, 4);
        let source = CubeSource::Synthetic(config);
        let a = source.realize().unwrap();
        let b = source.realize().unwrap();
        assert_eq!(*a, *b);
    }

    #[test]
    fn in_memory_source_shares_the_cube() {
        let cube = Arc::new(HyperCube::zeros(CubeDims::new(2, 2, 2)));
        let source = CubeSource::InMemory(Arc::clone(&cube));
        let realized = source.realize().unwrap();
        assert!(Arc::ptr_eq(&cube, &realized));
    }

    #[test]
    fn priority_ranks_and_labels() {
        assert!(Priority::High.rank() > Priority::Normal.rank());
        assert!(Priority::Normal.rank() > Priority::Low.rank());
        // The derived Ord must agree with rank(), so either ordering is safe.
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::ALL.len(), 3);
        assert_eq!(Priority::High.label(), "high");
        assert_eq!(BackendKind::Resilient.label(), "resilient");
        assert_eq!(BackendKind::SharedMemory.label(), "shared-memory");
        assert_eq!(BackendKind::Remote.label(), "remote");
        assert_eq!(BackendKind::ALL.len(), 4);
    }

    #[test]
    fn into_realized_materialises_synthetic_sources() {
        let spec = JobSpec::new(CubeSource::Synthetic(SceneConfig::small(2)))
            .into_realized()
            .unwrap();
        assert!(matches!(spec.source, CubeSource::InMemory(_)));
        // Already-in-memory sources pass through untouched.
        let again = spec.into_realized().unwrap();
        assert!(matches!(again.source, CubeSource::InMemory(_)));
    }

    #[test]
    fn terminal_statuses() {
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
        assert!(JobStatus::Completed.is_terminal());
        assert!(JobStatus::Failed.is_terminal());
        assert!(JobStatus::Cancelled.is_terminal());
        assert!(JobStatus::TimedOut.is_terminal());
    }
}
