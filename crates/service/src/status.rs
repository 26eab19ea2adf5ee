//! The shared job-status table: the results plane between the scheduler and
//! waiting clients.

use crate::handle::JobOutcome;
use crate::job::{JobId, JobStatus};
use crate::{Result, ServiceError};
use pct::FusionOutput;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Everything the service remembers about one job.
#[derive(Debug, Clone)]
pub(crate) struct JobRecord {
    pub status: JobStatus,
    pub output: Option<FusionOutput>,
    pub error: Option<String>,
    /// Set when the owning handle was dropped without taking the outcome:
    /// nobody is left to consume the record, so the terminal transition
    /// releases it instead of retaining the full image.
    pub abandoned: bool,
}

impl JobRecord {
    pub(crate) fn queued() -> Self {
        Self {
            status: JobStatus::Queued,
            output: None,
            error: None,
            abandoned: false,
        }
    }

    /// Maps a terminal record to the typed outcome.
    fn into_outcome(self) -> Result<JobOutcome> {
        match self.status {
            JobStatus::Completed => match self.output {
                Some(output) => Ok(JobOutcome::Completed(output)),
                None => Err(ServiceError::Internal("completed without output".into())),
            },
            JobStatus::Failed => Ok(JobOutcome::Failed(
                self.error.unwrap_or_else(|| "unknown".into()),
            )),
            JobStatus::Cancelled => Ok(JobOutcome::Cancelled),
            JobStatus::TimedOut => Ok(JobOutcome::TimedOut),
            JobStatus::Queued | JobStatus::Running => {
                Err(ServiceError::Internal("non-terminal outcome".into()))
            }
        }
    }
}

/// Concurrently readable job table with change notification.
#[derive(Default)]
pub(crate) struct StatusTable {
    records: Mutex<HashMap<JobId, JobRecord>>,
    changed: Condvar,
}

impl StatusTable {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn insert(&self, id: JobId, record: JobRecord) {
        self.records.lock().expect("status lock").insert(id, record);
    }

    pub(crate) fn remove(&self, id: JobId) {
        self.records.lock().expect("status lock").remove(&id);
    }

    pub(crate) fn status(&self, id: JobId) -> Option<JobStatus> {
        self.records
            .lock()
            .expect("status lock")
            .get(&id)
            .map(|r| r.status)
    }

    /// Transitions a job to a (possibly terminal) status, recording output or
    /// error.  Only a terminal transition wakes waiters: `wait_outcome`
    /// leaves its loop on nothing else, so waking every parked caller at each
    /// admission would be wasted context switches.  Terminal states are never
    /// overwritten; a terminal transition of an abandoned record releases it
    /// immediately.
    pub(crate) fn transition(
        &self,
        id: JobId,
        status: JobStatus,
        output: Option<FusionOutput>,
        error: Option<String>,
    ) {
        let mut records = self.records.lock().expect("status lock");
        if let Some(record) = records.get_mut(&id) {
            if record.status.is_terminal() {
                return;
            }
            record.status = status;
            record.output = output;
            record.error = error;
            if record.abandoned && status.is_terminal() {
                records.remove(&id);
            }
        }
        drop(records);
        if status.is_terminal() {
            self.changed.notify_all();
        }
    }

    /// Marks a record as having no waiter left: if it is already terminal it
    /// is released now, otherwise the terminal transition releases it.
    pub(crate) fn abandon(&self, id: JobId) {
        let mut records = self.records.lock().expect("status lock");
        if let Some(record) = records.get_mut(&id) {
            if record.status.is_terminal() {
                records.remove(&id);
            } else {
                record.abandoned = true;
            }
        }
    }

    /// Blocks until the job reaches a terminal status (or `deadline`
    /// passes), then *consumes* its record and maps it to the typed
    /// [`JobOutcome`].  Consuming bounds the table: a long-lived service
    /// would otherwise retain every completed job's full image forever.
    ///
    /// `Ok(None)` means the deadline expired first; the record is untouched
    /// and a later call can still take the outcome.  An unknown id is
    /// [`ServiceError::UnknownJob`].
    pub(crate) fn wait_outcome(
        &self,
        id: JobId,
        deadline: Option<Instant>,
    ) -> Result<Option<JobOutcome>> {
        let mut records = self.records.lock().expect("status lock");
        loop {
            let Some(record) = records.get(&id) else {
                return Err(ServiceError::UnknownJob(id));
            };
            if record.status.is_terminal() {
                break;
            }
            match deadline {
                None => records = self.changed.wait(records).expect("status lock"),
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Ok(None);
                    }
                    let (guard, _timeout) = self
                        .changed
                        .wait_timeout(records, remaining)
                        .expect("status lock");
                    records = guard;
                }
            }
        }
        let record = records.remove(&id).expect("present: checked above");
        drop(records);
        record.into_outcome().map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn transition_and_wait_round_trip() {
        let table = Arc::new(StatusTable::new());
        table.insert(7, JobRecord::queued());
        assert_eq!(table.status(7), Some(JobStatus::Queued));

        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.wait_outcome(7, None))
        };
        table.transition(7, JobStatus::Running, None, None);
        table.transition(7, JobStatus::Failed, None, Some("boom".into()));
        assert_eq!(
            waiter.join().unwrap().unwrap(),
            Some(JobOutcome::Failed("boom".into()))
        );
    }

    #[test]
    fn terminal_states_are_sticky_and_wait_consumes() {
        let table = StatusTable::new();
        table.insert(1, JobRecord::queued());
        table.transition(1, JobStatus::Cancelled, None, None);
        table.transition(1, JobStatus::Running, None, None);
        assert_eq!(table.status(1), Some(JobStatus::Cancelled));
        assert_eq!(
            table.wait_outcome(1, None).unwrap(),
            Some(JobOutcome::Cancelled)
        );
        // The record was consumed by the wait; the table does not grow.
        assert_eq!(table.status(1), None);
        assert_eq!(
            table.wait_outcome(1, None).unwrap_err(),
            ServiceError::UnknownJob(1)
        );
    }

    #[test]
    fn unknown_job_is_an_error() {
        let table = StatusTable::new();
        assert_eq!(table.status(9), None);
        assert_eq!(
            table.wait_outcome(9, None).unwrap_err(),
            ServiceError::UnknownJob(9)
        );
        table.insert(9, JobRecord::queued());
        table.remove(9);
        assert_eq!(table.status(9), None);
    }

    #[test]
    fn wait_outcome_times_out_without_consuming() {
        let table = StatusTable::new();
        table.insert(3, JobRecord::queued());
        let deadline = Some(Instant::now() + Duration::from_millis(15));
        assert_eq!(table.wait_outcome(3, deadline).unwrap(), None);
        assert_eq!(table.status(3), Some(JobStatus::Queued));
        table.transition(3, JobStatus::TimedOut, None, None);
        assert_eq!(
            table.wait_outcome(3, None).unwrap(),
            Some(JobOutcome::TimedOut)
        );
    }

    #[test]
    fn abandoned_records_are_released_at_the_terminal_transition() {
        let table = StatusTable::new();
        table.insert(4, JobRecord::queued());
        table.abandon(4);
        assert_eq!(table.status(4), Some(JobStatus::Queued), "still tracked");
        table.transition(4, JobStatus::Cancelled, None, None);
        assert_eq!(table.status(4), None, "released at terminal");

        // Abandoning an already-terminal record releases it immediately.
        table.insert(5, JobRecord::queued());
        table.transition(5, JobStatus::Failed, None, None);
        table.abandon(5);
        assert_eq!(table.status(5), None);
    }
}
