//! The subscribable [`ServiceEvent`] stream, and the one record of every
//! lifecycle fact of the service.
//!
//! Each fact of a run — an admission (with the resolved route) or a refused
//! submission, a task dispatch, a retransmission, a member kill, a worker
//! loss with each task reassignment and any lane failover, a member
//! regeneration, a terminal transition — is a [`ServiceEvent`], and is
//! written exactly once, by the service's recorder.  One record does five
//! things, in order:
//!
//! 1. stamps the event with the telemetry clock (when telemetry is enabled)
//!    and the [`telemetry::SpanId`] of the span it belongs to;
//! 2. folds it into the run's counters with [`ServiceReport::record`] — the
//!    same function a subscriber can fold its stream with;
//! 3. bumps one telemetry counter, `fusiond_<kind>_total` after
//!    [`ServiceEvent::kind`], labelled with the event's bounded fields
//!    (`lane`, `status`, `tenant`);
//! 4. for a fault or its repair — a kill, a worker loss, a task
//!    reassignment, a lane failover, a retransmission, a regeneration —
//!    writes one flight-recorder instant named after its kind;
//! 5. fans the stamped event out to every live subscriber.
//!
//! [`EventSubscriber::try_next_stamped`] exposes the envelope, while the
//! plain accessors return bare [`ServiceEvent`]s.  Subscriptions are
//! independent unbounded channels: a slow subscriber buffers, it never
//! blocks the scheduler, and dropping the [`EventSubscriber`] unsubscribes
//! (the recorder prunes disconnected channels on both record and
//! subscribe).
//!
//! ```no_run
//! use service::{ServiceConfig, ServiceEvent};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = service::FusionService::start(ServiceConfig::builder().build()?)?;
//! let events = service.subscribe();
//! // ... submit jobs ...
//! for event in events.drain() {
//!     if let ServiceEvent::MemberRegenerated { failed, replacement } = event {
//!         eprintln!("{failed} came back as {replacement}");
//!     }
//! }
//! # Ok(())
//! # }
//! ```

use crate::admission::{RetryAfter, TenantId};
use crate::job::{BackendKind, JobId, JobStatus};
use crate::report::ServiceReport;
use pct::messages::TaskId;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;
use telemetry::{SpanId, Telemetry};

/// One observable lifecycle event of the running service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceEvent {
    /// A job left the admission queue and entered execution; `route` is the
    /// lane it was resolved to, `auto` whether the size rule (rather than
    /// the caller) chose it.
    Admitted {
        /// The job.
        job: JobId,
        /// The tenant it belongs to.
        tenant: TenantId,
        /// The resolved execution lane.
        route: BackendKind,
        /// Whether the lane came from the size rule ([`crate::Route::Auto`]).
        auto: bool,
    },
    /// The admission plane refused a submission because its queue was full.
    /// The event mirrors the typed error the submitter saw
    /// ([`crate::ServiceError::Saturated`]), so observers can account
    /// rejections they did not themselves submit.
    Rejected {
        /// The id the front end had assigned (never admitted).
        job: JobId,
        /// The tenant whose submission was refused.
        tenant: TenantId,
        /// The machine-readable back-off hint the submitter received.
        retry_after: RetryAfter,
    },
    /// A task (or, on the shared-memory lane, the whole job) was handed to
    /// an execution slot.
    Dispatched {
        /// The job the task belongs to.
        job: JobId,
        /// The lane it ran on.
        route: BackendKind,
        /// The task identifier.
        task: TaskId,
        /// The message kind (`screen-seeded-task`, `derive-task`, ...).
        kind: &'static str,
    },
    /// An unanswered group-lane task was re-sent to every current member of
    /// its replica group.
    Retransmitted {
        /// The job the task belongs to.
        job: JobId,
        /// The task identifier.
        task: TaskId,
        /// The replica group that owes the result.
        group: String,
    },
    /// A resilient-lane member or standard worker was killed (chaos plan or
    /// attack drill).
    MemberKilled {
        /// Routing name of the victim (e.g. `rg0#1` or `svc0#0`).
        member: String,
    },
    /// A confirmed loss (heartbeat silence plus a dead mailbox probe, or a
    /// send that found the mailbox dead) left a group empty and its lane
    /// would not replace the member — always so for a standard or remote
    /// worker.  The group is retired; its in-flight tasks are re-dispatched,
    /// not failed.
    WorkerLost {
        /// Routing name of the lost member (e.g. `svc0#0` or `rw0#0`).
        worker: String,
    },
    /// An in-flight task of a retired group was re-dispatched.
    TaskReassigned {
        /// The job the task belongs to.
        job: JobId,
        /// The task identifier (re-dispatch is idempotent by task id).
        task: TaskId,
        /// The member that was lost holding the task.
        from: String,
        /// The group that took it over (a surviving worker, or a replica
        /// group after a lane failover).
        to: String,
    },
    /// A running job was moved off a drained lane onto another enabled
    /// lane (resolved through the size rule).
    LaneFailover {
        /// The job that moved.
        job: JobId,
        /// The lane it was running on.
        from: BackendKind,
        /// The lane it continues on.
        to: BackendKind,
    },
    /// The regeneration protocol replaced a failed member.
    MemberRegenerated {
        /// Routing name of the failed member.
        failed: String,
        /// Routing name of its replacement.
        replacement: String,
    },
    /// A job reached a terminal status.
    Terminal {
        /// The job.
        job: JobId,
        /// The tenant it belongs to.
        tenant: TenantId,
        /// The terminal status (`Completed`, `Failed`, `Cancelled` or
        /// `TimedOut`).
        status: JobStatus,
        /// The lane the job ended on; `None` if it never left the queue.
        route: Option<BackendKind>,
    },
}

impl ServiceEvent {
    /// The event's kind, in snake case (`member_killed`, `terminal`, ...):
    /// it names the event's telemetry counter, `fusiond_<kind>_total`, and
    /// the flight-recorder instant of a fault.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceEvent::Admitted { .. } => "admitted",
            ServiceEvent::Rejected { .. } => "rejected",
            ServiceEvent::Dispatched { .. } => "dispatched",
            ServiceEvent::Retransmitted { .. } => "retransmitted",
            ServiceEvent::MemberKilled { .. } => "member_killed",
            ServiceEvent::WorkerLost { .. } => "worker_lost",
            ServiceEvent::TaskReassigned { .. } => "task_reassigned",
            ServiceEvent::LaneFailover { .. } => "lane_failover",
            ServiceEvent::MemberRegenerated { .. } => "member_regenerated",
            ServiceEvent::Terminal { .. } => "terminal",
        }
    }

    /// The job the event is about, if it is about one.
    fn job(&self) -> Option<JobId> {
        match self {
            ServiceEvent::Admitted { job, .. }
            | ServiceEvent::Rejected { job, .. }
            | ServiceEvent::Dispatched { job, .. }
            | ServiceEvent::Retransmitted { job, .. }
            | ServiceEvent::TaskReassigned { job, .. }
            | ServiceEvent::LaneFailover { job, .. }
            | ServiceEvent::Terminal { job, .. } => Some(*job),
            _ => None,
        }
    }

    /// The event's bounded fields, as metric labels.
    fn labels(&self) -> Vec<(&'static str, String)> {
        let lane = |route: &BackendKind| ("lane", route.label().to_string());
        let tenant = |tenant: &TenantId| ("tenant", tenant.label());
        match self {
            ServiceEvent::Admitted {
                tenant: t, route, ..
            } => vec![lane(route), tenant(t)],
            ServiceEvent::Rejected { tenant: t, .. } => vec![tenant(t)],
            ServiceEvent::Dispatched { route, .. } => vec![lane(route)],
            ServiceEvent::LaneFailover { to, .. } => vec![lane(to)],
            ServiceEvent::Terminal {
                tenant: t,
                status,
                route,
                ..
            } => {
                let status = ("status", status.label().to_string());
                route.iter().map(lane).chain([status, tenant(t)]).collect()
            }
            _ => Vec::new(),
        }
    }

    /// For a fault or its repair — a kill, a worker loss, a reassignment, a
    /// lane failover, a retransmission, a regeneration — what its
    /// flight-recorder instant names: the member, group or lane involved.
    /// `None` for the other kinds, which the recorder keeps no instant of.
    fn fault_detail(&self) -> Option<String> {
        Some(match self {
            ServiceEvent::MemberKilled { member } => member.clone(),
            ServiceEvent::WorkerLost { worker } => worker.clone(),
            ServiceEvent::TaskReassigned { to, .. } => to.clone(),
            ServiceEvent::LaneFailover { to, .. } => to.label().to_string(),
            ServiceEvent::Retransmitted { group, .. } => group.clone(),
            ServiceEvent::MemberRegenerated {
                failed,
                replacement,
            } => format!("{failed} -> {replacement}"),
            _ => return None,
        })
    }
}

/// A [`ServiceEvent`] plus its telemetry envelope: when it was published
/// (telemetry-clock nanoseconds) and which span it belongs to.  Both are
/// `None` when the service runs with telemetry disabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedEvent {
    /// Telemetry-clock nanoseconds at publish, when telemetry is enabled.
    pub at_nanos: Option<u64>,
    /// The span this event is correlated with, when one applies.
    pub span: Option<SpanId>,
    /// The event itself.
    pub event: ServiceEvent,
}

/// One subscription entry: the channel sender plus a liveness probe tied
/// to the subscriber's lifetime (std `Sender` cannot detect a dropped
/// `Receiver` without sending).
struct Subscription {
    sender: Sender<StampedEvent>,
    alive: Weak<()>,
}

/// The one writer of the service's lifecycle facts, shared by the
/// scheduler and the front end: each [`Recorder::record`] stamps, folds,
/// counts, keeps a fault's instant and fans out, under one lock.
#[derive(Default)]
pub(crate) struct Recorder {
    books: Mutex<Books>,
    telemetry: Telemetry,
}

/// What the recorder's lock guards.
#[derive(Default)]
struct Books {
    subscribers: Vec<Subscription>,
    /// The fold of every event recorded so far.
    report: ServiceReport,
}

impl Recorder {
    /// A recorder stamping, counting and keeping instants with `telemetry`.
    pub(crate) fn new(telemetry: Telemetry) -> Self {
        Self {
            books: Mutex::default(),
            telemetry,
        }
    }

    /// Opens a new independent subscription, pruning any subscriptions
    /// whose subscriber has been dropped.
    pub(crate) fn subscribe(&self) -> EventSubscriber {
        let (tx, rx) = std::sync::mpsc::channel();
        let token = Arc::new(());
        let mut books = self.books.lock().expect("recorder lock");
        books.subscribers.retain(|s| s.alive.upgrade().is_some());
        books.subscribers.push(Subscription {
            sender: tx,
            alive: Arc::downgrade(&token),
        });
        EventSubscriber {
            receiver: rx,
            _alive: token,
        }
    }

    /// Records one lifecycle fact, correlated with `span`: the five steps
    /// of the module documentation, in order.
    pub(crate) fn record(&self, event: ServiceEvent, span: Option<SpanId>) {
        let mut books = self.books.lock().expect("recorder lock");
        let at_nanos = self.telemetry.now_nanos();
        books.report.record(&event);
        if self.telemetry.is_enabled() {
            let labels = event.labels();
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let kind = event.kind();
            self.telemetry
                .count(&format!("fusiond_{kind}_total"), &labels);
            if let Some(detail) = event.fault_detail() {
                self.telemetry.instant(kind, event.job(), span, &detail);
            }
        }
        let stamped = StampedEvent {
            at_nanos,
            span,
            event,
        };
        let subscribers = &mut books.subscribers;
        subscribers.retain(|s| s.sender.send(stamped.clone()).is_ok());
    }

    /// The fold of every event recorded so far.
    pub(crate) fn report(&self) -> ServiceReport {
        self.books.lock().expect("recorder lock").report.clone()
    }

    /// Number of live subscriptions (dead ones linger until the next
    /// record or subscribe prunes them).
    pub(crate) fn subscriber_count(&self) -> usize {
        self.books.lock().expect("recorder lock").subscribers.len()
    }
}

/// A client-side subscription to the service's event stream.  Dropping it
/// unsubscribes.
pub struct EventSubscriber {
    receiver: Receiver<StampedEvent>,
    /// Liveness token observed by the bus through a `Weak`.
    _alive: Arc<()>,
}

impl EventSubscriber {
    /// Returns the next buffered event without blocking, or `None` when the
    /// buffer is empty (or the service is gone and fully drained).
    pub fn try_next(&self) -> Option<ServiceEvent> {
        self.try_next_stamped().map(|s| s.event)
    }

    /// Like [`EventSubscriber::try_next`] but keeps the telemetry envelope
    /// (publish timestamp and correlated span id).
    pub fn try_next_stamped(&self) -> Option<StampedEvent> {
        match self.receiver.try_recv() {
            Ok(event) => Some(event),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Drains every currently buffered event as an iterator, without
    /// blocking: `for event in sub.drain() { ... }`.
    pub fn drain(&self) -> impl Iterator<Item = ServiceEvent> + '_ {
        std::iter::from_fn(move || self.try_next())
    }

    /// Blocks up to `timeout` for the next event.  `None` means no event
    /// arrived in time (or the service shut down with nothing buffered).
    pub fn next_timeout(&self, timeout: Duration) -> Option<ServiceEvent> {
        match self.receiver.recv_timeout(timeout) {
            Ok(event) => Some(event.event),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Blocks up to `timeout` for the next event matching `predicate`,
    /// discarding everything else.  The workhorse of event-driven tests:
    /// "wait for the regeneration, whatever else happens first".
    pub fn wait_for(
        &self,
        timeout: Duration,
        mut predicate: impl FnMut(&ServiceEvent) -> bool,
    ) -> Option<ServiceEvent> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return None;
            }
            match self.next_timeout(remaining) {
                Some(event) if predicate(&event) => return Some(event),
                Some(_) => continue,
                None => return None,
            }
        }
    }
}

/// One event of every kind, in declaration order: job 1 of tenant 2 is
/// admitted to the standard lane, loses its worker, fails over and
/// completes on the shared-memory lane; job 2 finds the queue full.
#[cfg(test)]
pub(crate) fn one_of_each() -> Vec<ServiceEvent> {
    let tenant = TenantId(2);
    vec![
        ServiceEvent::Admitted {
            job: 1,
            tenant,
            route: BackendKind::Standard,
            auto: true,
        },
        ServiceEvent::Rejected {
            job: 2,
            tenant,
            retry_after: RetryAfter::default(),
        },
        ServiceEvent::Dispatched {
            job: 1,
            route: BackendKind::Standard,
            task: 7,
            kind: "derive-task",
        },
        ServiceEvent::Retransmitted {
            job: 1,
            task: 7,
            group: "svc0".into(),
        },
        ServiceEvent::MemberKilled {
            member: "svc0#0".into(),
        },
        ServiceEvent::WorkerLost {
            worker: "svc0#0".into(),
        },
        ServiceEvent::TaskReassigned {
            job: 1,
            task: 7,
            from: "svc0#0".into(),
            to: "svc1".into(),
        },
        ServiceEvent::LaneFailover {
            job: 1,
            from: BackendKind::Standard,
            to: BackendKind::SharedMemory,
        },
        ServiceEvent::MemberRegenerated {
            failed: "rg0#0".into(),
            replacement: "rg0#2".into(),
        },
        ServiceEvent::Terminal {
            job: 1,
            tenant,
            status: JobStatus::Completed,
            route: Some(BackendKind::SharedMemory),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fan_out_to_every_subscriber() {
        let bus = Recorder::default();
        let a = bus.subscribe();
        let b = bus.subscribe();
        bus.record(
            ServiceEvent::MemberKilled {
                member: "rg0#0".into(),
            },
            None,
        );
        for sub in [&a, &b] {
            assert_eq!(
                sub.try_next(),
                Some(ServiceEvent::MemberKilled {
                    member: "rg0#0".into()
                })
            );
            assert_eq!(sub.try_next(), None);
        }
    }

    #[test]
    fn dropped_subscribers_are_pruned_on_publish() {
        let bus = Recorder::default();
        let keep = bus.subscribe();
        let dropped = bus.subscribe();
        drop(dropped);
        assert_eq!(bus.subscriber_count(), 2);
        bus.record(
            ServiceEvent::Terminal {
                job: 1,
                tenant: TenantId::default(),
                status: JobStatus::Completed,
                route: None,
            },
            None,
        );
        assert_eq!(bus.subscriber_count(), 1);
        assert!(keep.try_next().is_some());
    }

    #[test]
    fn dropped_subscribers_are_pruned_on_subscribe_too() {
        let bus = Recorder::default();
        let dropped = bus.subscribe();
        drop(dropped);
        assert_eq!(bus.subscriber_count(), 1);
        let _live = bus.subscribe();
        assert_eq!(
            bus.subscriber_count(),
            1,
            "subscribe() prunes the dead entry while adding the new one"
        );
    }

    #[test]
    fn drain_yields_buffered_events_then_stops() {
        let bus = Recorder::default();
        let sub = bus.subscribe();
        for member in ["rg0#0", "rg0#1"] {
            bus.record(
                ServiceEvent::MemberKilled {
                    member: member.into(),
                },
                None,
            );
        }
        let drained: Vec<ServiceEvent> = sub.drain().collect();
        assert_eq!(drained.len(), 2);
        assert_eq!(sub.drain().count(), 0, "drain does not block when empty");
    }

    #[test]
    fn stamped_events_carry_clock_and_span() {
        let clock = Arc::new(telemetry::ManualClock::new());
        let tel = Telemetry::with_clock(clock.clone(), 16);
        let bus = Recorder::new(tel);
        let sub = bus.subscribe();
        clock.advance(1_500);
        bus.record(
            ServiceEvent::MemberKilled {
                member: "rg0#0".into(),
            },
            Some(SpanId(42)),
        );
        let stamped = sub.try_next_stamped().unwrap();
        assert_eq!(stamped.at_nanos, Some(1_500));
        assert_eq!(stamped.span, Some(SpanId(42)));

        // Telemetry disabled → no stamps, same event payload.
        let bare = Recorder::default();
        let sub = bare.subscribe();
        bare.record(
            ServiceEvent::MemberKilled {
                member: "rg0#0".into(),
            },
            None,
        );
        let stamped = sub.try_next_stamped().unwrap();
        assert_eq!(stamped.at_nanos, None);
        assert_eq!(stamped.span, None);
    }

    #[test]
    fn wait_for_skips_non_matching_events() {
        let bus = Recorder::default();
        let sub = bus.subscribe();
        bus.record(
            ServiceEvent::Admitted {
                job: 1,
                tenant: TenantId::default(),
                route: BackendKind::Standard,
                auto: true,
            },
            None,
        );
        bus.record(
            ServiceEvent::Terminal {
                job: 1,
                tenant: TenantId::default(),
                status: JobStatus::Completed,
                route: None,
            },
            None,
        );
        let hit = sub.wait_for(Duration::from_millis(100), |e| {
            matches!(e, ServiceEvent::Terminal { .. })
        });
        assert_eq!(
            hit,
            Some(ServiceEvent::Terminal {
                job: 1,
                tenant: TenantId::default(),
                status: JobStatus::Completed,
                route: None,
            })
        );
        // The stream is now drained and the timeout path returns None.
        assert_eq!(sub.wait_for(Duration::from_millis(10), |_| true), None);
    }

    #[test]
    fn record_writes_one_counter_per_event_and_an_instant_per_fault_kind() {
        let clock = Arc::new(telemetry::ManualClock::new());
        let tel = Telemetry::with_clock(clock, 64);
        let recorder = Recorder::new(tel.clone());
        let events = one_of_each();
        for event in &events {
            recorder.record(event.clone(), None);
        }
        let metrics = tel.snapshot_prometheus().unwrap();
        for event in &events {
            let name = format!("fusiond_{}_total", event.kind());
            let samples: Vec<&str> = metrics.lines().filter(|l| l.starts_with(&name)).collect();
            assert_eq!(samples.len(), 1, "{name}: {samples:?}");
            assert!(samples[0].ends_with("} 1") || samples[0] == format!("{name} 1"));
        }
        let terminal =
            r#"fusiond_terminal_total{lane="shared-memory",status="completed",tenant="t2"} 1"#;
        assert!(metrics.contains(terminal), "{metrics}");
        // One instant for each of the six fault kinds, in record order.
        let instants: Vec<(&str, Option<u64>, String)> = tel
            .records()
            .into_iter()
            .filter_map(|record| match record {
                telemetry::TraceRecord::Instant {
                    name, job, detail, ..
                } => Some((name, job, detail)),
                telemetry::TraceRecord::Span(_) => None,
            })
            .collect();
        let expected = [
            ("retransmitted", Some(1), "svc0"),
            ("member_killed", None, "svc0#0"),
            ("worker_lost", None, "svc0#0"),
            ("task_reassigned", Some(1), "svc1"),
            ("lane_failover", Some(1), "shared-memory"),
            ("member_regenerated", None, "rg0#0 -> rg0#2"),
        ];
        assert_eq!(instants, expected.map(|(n, job, d)| (n, job, d.into())));
        // The recorder's fold saw every event too.
        let report = recorder.report();
        assert_eq!((report.jobs_submitted, report.jobs_rejected), (1, 1));
        assert_eq!(report.members_attacked, ["svc0#0"]);
    }
}
