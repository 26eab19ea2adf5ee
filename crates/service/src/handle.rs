//! Owned, typed job handles — the client's end of one submitted job.
//!
//! `submit` used to return a bare [`JobId`] and leave the rest to id-keyed
//! free methods on the service, with two footguns: `wait(id)` consumed the
//! job's record, so a second `wait` reported `UnknownJob`; and nothing tied
//! a job's lifetime to the code that submitted it.  A [`JobHandle`] owns
//! those concerns:
//!
//! * [`JobHandle::wait`] / [`JobHandle::wait_timeout`] resolve to a typed
//!   terminal [`JobOutcome`]; a second `wait` returns the
//!   typed [`ServiceError::OutcomeTaken`] instead of pretending the job
//!   never existed.
//! * [`JobHandle::status`] and [`JobHandle::cancel`] are handle methods, not
//!   id-keyed service calls — and `status` keeps answering (from the
//!   observed terminal state) after the outcome has been taken.
//! * Dropping a handle without waiting cancels the job and releases its
//!   record (**cancel-on-drop**), so abandoned submissions can't leak
//!   results or run to completion unobserved.  [`JobHandle::detach`] opts
//!   out: the job keeps running fire-and-forget, observable through the
//!   [`crate::ServiceEvent`] stream and the final report.
//!
//! Handles outlive the service: they hold the results plane by `Arc`, so a
//! handle can still `wait` (and observe the forced terminal state) after
//! [`crate::FusionService::shutdown`].

use crate::job::{JobId, JobStatus};
use crate::pool::Doorbell;
use crate::status::StatusTable;
use crate::{Result, ServiceError};
use pct::FusionOutput;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The typed terminal state of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job finished; the fused output is attached.
    Completed(FusionOutput),
    /// The job failed; the payload is the cause.
    Failed(String),
    /// The job was cancelled before completion.
    Cancelled,
    /// The job exceeded its deadline and was abandoned.
    TimedOut,
}

impl JobOutcome {
    /// The terminal [`JobStatus`] this outcome corresponds to.
    pub fn status(&self) -> JobStatus {
        match self {
            JobOutcome::Completed(_) => JobStatus::Completed,
            JobOutcome::Failed(_) => JobStatus::Failed,
            JobOutcome::Cancelled => JobStatus::Cancelled,
            JobOutcome::TimedOut => JobStatus::TimedOut,
        }
    }

    /// The fused output, when the job completed.
    pub fn output(&self) -> Option<&FusionOutput> {
        match self {
            JobOutcome::Completed(output) => Some(output),
            _ => None,
        }
    }
}

/// The pieces of the service a handle needs to keep alive.
#[derive(Clone)]
pub(crate) struct HandlePlane {
    pub status: Arc<StatusTable>,
    pub cancels: Arc<Mutex<Vec<JobId>>>,
    pub doorbell: Doorbell,
}

impl HandlePlane {
    /// Records a cancellation request if the job is known and not yet
    /// terminal, and wakes the scheduler, which applies it asynchronously.
    fn request_cancel(&self, id: JobId) -> bool {
        let live = matches!(self.status.status(id), Some(status) if !status.is_terminal());
        if live {
            self.cancels.lock().expect("cancel lock").push(id);
            self.doorbell.ring();
        }
        live
    }
}

/// An owned handle to one submitted job.
///
/// ```no_run
/// use hsi::SceneConfig;
/// use service::{CubeSource, FusionService, JobSpec, ServiceConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = FusionService::start(ServiceConfig::builder().build()?)?;
/// let spec = JobSpec::builder(CubeSource::Synthetic(SceneConfig::small(1))).build()?;
/// let mut handle = service.submit(spec)?;
/// let outcome = handle.wait()?;
/// println!("{} unique pixels", outcome.output().unwrap().unique_count);
/// # Ok(())
/// # }
/// ```
#[must_use = "dropping a JobHandle cancels the job; call detach() to let it run"]
pub struct JobHandle {
    id: JobId,
    plane: HandlePlane,
    /// The terminal status observed through this handle, once known.
    observed: Option<JobStatus>,
    /// Whether `wait` already consumed the outcome.
    taken: bool,
    detached: bool,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("observed", &self.observed)
            .field("taken", &self.taken)
            .field("detached", &self.detached)
            .finish()
    }
}

impl JobHandle {
    pub(crate) fn new(id: JobId, plane: HandlePlane) -> Self {
        Self {
            id,
            plane,
            observed: None,
            taken: false,
            detached: false,
        }
    }

    /// The job's identifier (stable across the service's lifetime; what the
    /// event stream refers to).
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's current lifecycle status.  Keeps answering from the
    /// observed terminal state after [`JobHandle::wait`] consumed the
    /// record.
    pub fn status(&self) -> Result<JobStatus> {
        match self.plane.status.status(self.id) {
            Some(status) => Ok(status),
            None => self.observed.ok_or(ServiceError::UnknownJob(self.id)),
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self.status(), Ok(status) if status.is_terminal())
    }

    /// Blocks until the job reaches a terminal state and returns the typed
    /// outcome.  The outcome can be taken once; a second `wait` returns
    /// [`ServiceError::OutcomeTaken`] (the status stays queryable through
    /// [`JobHandle::status`]).
    pub fn wait(&mut self) -> Result<JobOutcome> {
        match self.wait_until(None)? {
            Some(outcome) => Ok(outcome),
            None => unreachable!("deadline-free wait returns an outcome or errors"),
        }
    }

    /// Blocks up to `timeout` for a terminal state.  `Ok(None)` means the
    /// job is still running when the timeout expires — the handle stays
    /// usable and a later `wait` can still take the outcome.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<Option<JobOutcome>> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    fn wait_until(&mut self, deadline: Option<Instant>) -> Result<Option<JobOutcome>> {
        if self.taken {
            return Err(ServiceError::OutcomeTaken(self.id));
        }
        match self.plane.status.wait_outcome(self.id, deadline)? {
            Some(outcome) => {
                self.taken = true;
                self.observed = Some(outcome.status());
                Ok(Some(outcome))
            }
            None => Ok(None),
        }
    }

    /// Requests cancellation.  Returns whether the job was known and not yet
    /// terminal when the request was recorded; the scheduler applies it
    /// asynchronously.
    pub fn cancel(&self) -> bool {
        self.plane.request_cancel(self.id)
    }

    /// Disarms cancel-on-drop and releases the handle: the job keeps
    /// running fire-and-forget, and its record is released at the terminal
    /// transition (no waiter is left to consume it, so retaining the full
    /// image would leak).  Returns the [`JobId`] so the caller can
    /// correlate the job's [`crate::ServiceEvent`]s.
    pub fn detach(mut self) -> JobId {
        self.detached = true;
        self.plane.status.abandon(self.id);
        self.id
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        if self.detached || self.taken {
            return;
        }
        // Cancel-on-drop: stop the work if it still runs, and mark the
        // record abandoned so the results plane can release it at the
        // terminal transition (nobody is left to consume it).
        self.plane.request_cancel(self.id);
        self.plane.status.abandon(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::JobRecord;

    fn plane() -> HandlePlane {
        HandlePlane {
            status: Arc::new(StatusTable::new()),
            cancels: Arc::new(Mutex::new(Vec::new())),
            // Rings into a router with no manager bound: an ignored error.
            doorbell: Doorbell::new(scp::Router::new()),
        }
    }

    #[test]
    fn outcome_accessors_and_conversion() {
        let failed = JobOutcome::Failed("boom".into());
        assert_eq!(failed.status(), JobStatus::Failed);
        assert!(failed.output().is_none());
    }

    #[test]
    fn double_wait_is_a_typed_error_and_status_survives() {
        let plane = plane();
        plane.status.insert(5, JobRecord::queued());
        let mut handle = JobHandle::new(5, plane.clone());
        plane.status.transition(5, JobStatus::Cancelled, None, None);
        assert_eq!(handle.wait().unwrap(), JobOutcome::Cancelled);
        // The record is consumed, but the handle still knows the status...
        assert_eq!(handle.status().unwrap(), JobStatus::Cancelled);
        assert!(handle.is_terminal());
        // ...and a second wait is a typed error, not UnknownJob.
        assert_eq!(handle.wait().unwrap_err(), ServiceError::OutcomeTaken(5));
    }

    #[test]
    fn wait_timeout_leaves_a_running_job_claimable() {
        let plane = plane();
        plane.status.insert(7, JobRecord::queued());
        let mut handle = JobHandle::new(7, plane.clone());
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(20)).unwrap(),
            None
        );
        plane.status.transition(7, JobStatus::Completed, None, None);
        // Completed-without-output is an internal error — but the point
        // here is that the outcome is still takeable after the timeout.
        assert!(matches!(
            handle.wait().unwrap_err(),
            ServiceError::Internal(_)
        ));
    }

    #[test]
    fn drop_cancels_and_abandons_but_detach_only_abandons() {
        let plane = plane();
        plane.status.insert(1, JobRecord::queued());
        let handle = JobHandle::new(1, plane.clone());
        drop(handle);
        assert_eq!(plane.cancels.lock().unwrap().as_slice(), &[1]);
        // The abandoned record is released at its terminal transition.
        plane.status.transition(1, JobStatus::Cancelled, None, None);
        assert_eq!(plane.status.status(1), None);

        // Detach never cancels; the record stays live until terminal, then
        // is released (nobody is left to consume it).
        plane.status.insert(2, JobRecord::queued());
        let handle = JobHandle::new(2, plane.clone());
        assert_eq!(handle.detach(), 2);
        assert_eq!(plane.cancels.lock().unwrap().as_slice(), &[1]);
        plane.status.transition(2, JobStatus::Running, None, None);
        assert_eq!(plane.status.status(2), Some(JobStatus::Running));
        plane.status.transition(2, JobStatus::Completed, None, None);
        assert_eq!(plane.status.status(2), None, "released at terminal");
    }

    #[test]
    fn waited_handles_do_not_cancel_on_drop() {
        let plane = plane();
        plane.status.insert(3, JobRecord::queued());
        let mut handle = JobHandle::new(3, plane.clone());
        plane.status.transition(3, JobStatus::Cancelled, None, None);
        let _ = handle.wait().unwrap();
        drop(handle);
        assert!(plane.cancels.lock().unwrap().is_empty());
    }

    #[test]
    fn cancel_reports_liveness() {
        let plane = plane();
        plane.status.insert(9, JobRecord::queued());
        let handle = JobHandle::new(9, plane.clone());
        assert!(handle.cancel());
        plane.status.transition(9, JobStatus::Cancelled, None, None);
        assert!(!handle.cancel(), "terminal jobs are not cancellable");
        let _ = handle.detach();
    }
}
