//! The subscribable [`ServiceEvent`] stream: observing the service without
//! polling.
//!
//! Examples, the chaos harness and operators used to learn what the service
//! was doing by polling `status()` in a loop.  The scheduler now publishes a
//! typed event at every interesting lifecycle point — admission (with the
//! resolved route), task dispatch, retransmission, member kill, member
//! regeneration, worker loss (a group retired, with each task reassignment
//! and any lane failover), and every terminal transition — to every live
//! subscriber.
//!
//! When the service runs with an enabled [`telemetry::Telemetry`], every
//! event is stamped with the telemetry clock and, where one applies, the
//! [`telemetry::SpanId`] of the span it belongs to; [`EventSubscriber::
//! try_next_stamped`] exposes the envelope, while the plain accessors keep
//! returning bare [`ServiceEvent`]s.
//!
//! Subscriptions are independent unbounded channels: a slow subscriber
//! buffers, it never blocks the scheduler, and dropping the
//! [`EventSubscriber`] unsubscribes (the bus prunes disconnected channels
//! on both publish and subscribe).
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

use crate::admission::{RetryAfter, ShedReason, TenantId};
use crate::job::{BackendKind, JobId, JobStatus};
use pct::messages::TaskId;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;
use telemetry::{SpanId, Telemetry};

/// One observable lifecycle event of the running service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceEvent {
    /// A job left the admission queue and entered execution; `route` is the
    /// lane it was resolved to, `auto` whether the routing policy (rather
    /// than the caller) chose it.
    Admitted {
        /// The job.
        job: JobId,
        /// The tenant it belongs to.
        tenant: TenantId,
        /// The resolved execution lane.
        route: BackendKind,
        /// Whether the lane came from the routing policy ([`crate::Route::Auto`]).
        auto: bool,
    },
    /// The admission plane refused a submission: shed at a watermark,
    /// bounced off a tenant quota, or rejected by queue saturation.  The
    /// event mirrors the typed error the submitter saw, so observers can
    /// account rejections they did not themselves submit.
    Rejected {
        /// The id the front end had assigned (never admitted).
        job: JobId,
        /// The tenant whose submission was refused.
        tenant: TenantId,
        /// Why it was refused.
        reason: ShedReason,
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
    /// lane (resolved through the routing policy).
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
    },
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

/// The scheduler-side publisher: fans every event out to all subscribers.
#[derive(Default)]
pub(crate) struct EventBus {
    subscribers: Mutex<Vec<Subscription>>,
    telemetry: Telemetry,
}

impl EventBus {
    /// A bus with telemetry disabled (events carry no stamps).
    #[cfg(test)]
    pub fn new() -> Self {
        Self::default()
    }

    /// A bus stamping events with the given telemetry clock.
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        Self {
            subscribers: Mutex::new(Vec::new()),
            telemetry,
        }
    }

    /// Opens a new independent subscription, pruning any subscriptions
    /// whose subscriber has been dropped.
    pub fn subscribe(&self) -> EventSubscriber {
        let (tx, rx) = std::sync::mpsc::channel();
        let token = Arc::new(());
        let mut subscribers = self.subscribers.lock().expect("event bus lock");
        subscribers.retain(|s| s.alive.upgrade().is_some());
        subscribers.push(Subscription {
            sender: tx,
            alive: Arc::downgrade(&token),
        });
        EventSubscriber {
            receiver: rx,
            _alive: token,
        }
    }

    /// Publishes one event to every live subscriber, pruning dead ones.
    /// Publishing with no subscribers is free apart from the lock.
    pub fn publish(&self, event: ServiceEvent) {
        self.publish_correlated(event, None);
    }

    /// Publishes one event correlated with `span`, stamped with the
    /// telemetry clock when telemetry is enabled.
    pub fn publish_correlated(&self, event: ServiceEvent, span: Option<SpanId>) {
        let stamped = StampedEvent {
            at_nanos: self.telemetry.now_nanos(),
            span,
            event,
        };
        let mut subscribers = self.subscribers.lock().expect("event bus lock");
        subscribers.retain(|s| s.sender.send(stamped.clone()).is_ok());
    }

    /// Number of live subscriptions (dead ones linger until the next
    /// publish or subscribe prunes them).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().expect("event bus lock").len()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fan_out_to_every_subscriber() {
        let bus = EventBus::new();
        let a = bus.subscribe();
        let b = bus.subscribe();
        bus.publish(ServiceEvent::MemberKilled {
            member: "rg0#0".into(),
        });
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
        let bus = EventBus::new();
        let keep = bus.subscribe();
        let dropped = bus.subscribe();
        drop(dropped);
        assert_eq!(bus.subscriber_count(), 2);
        bus.publish(ServiceEvent::Terminal {
            job: 1,
            tenant: TenantId::default(),
            status: JobStatus::Completed,
        });
        assert_eq!(bus.subscriber_count(), 1);
        assert!(keep.try_next().is_some());
    }

    #[test]
    fn dropped_subscribers_are_pruned_on_subscribe_too() {
        let bus = EventBus::new();
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
        let bus = EventBus::new();
        let sub = bus.subscribe();
        for member in ["rg0#0", "rg0#1"] {
            bus.publish(ServiceEvent::MemberKilled {
                member: member.into(),
            });
        }
        let drained: Vec<ServiceEvent> = sub.drain().collect();
        assert_eq!(drained.len(), 2);
        assert_eq!(sub.drain().count(), 0, "drain does not block when empty");
    }

    #[test]
    fn stamped_events_carry_clock_and_span() {
        let clock = Arc::new(telemetry::ManualClock::new());
        let tel = Telemetry::with_clock(clock.clone(), 16);
        let bus = EventBus::with_telemetry(tel);
        let sub = bus.subscribe();
        clock.advance(1_500);
        bus.publish_correlated(
            ServiceEvent::MemberKilled {
                member: "rg0#0".into(),
            },
            Some(SpanId(42)),
        );
        let stamped = sub.try_next_stamped().unwrap();
        assert_eq!(stamped.at_nanos, Some(1_500));
        assert_eq!(stamped.span, Some(SpanId(42)));

        // Telemetry disabled → no stamps, same event payload.
        let bare = EventBus::new();
        let sub = bare.subscribe();
        bare.publish(ServiceEvent::MemberKilled {
            member: "rg0#0".into(),
        });
        let stamped = sub.try_next_stamped().unwrap();
        assert_eq!(stamped.at_nanos, None);
        assert_eq!(stamped.span, None);
    }

    #[test]
    fn wait_for_skips_non_matching_events() {
        let bus = EventBus::new();
        let sub = bus.subscribe();
        bus.publish(ServiceEvent::Admitted {
            job: 1,
            tenant: TenantId::default(),
            route: BackendKind::Standard,
            auto: true,
        });
        bus.publish(ServiceEvent::Terminal {
            job: 1,
            tenant: TenantId::default(),
            status: JobStatus::Completed,
        });
        let hit = sub.wait_for(Duration::from_millis(100), |e| {
            matches!(e, ServiceEvent::Terminal { .. })
        });
        assert_eq!(
            hit,
            Some(ServiceEvent::Terminal {
                job: 1,
                tenant: TenantId::default(),
                status: JobStatus::Completed
            })
        );
        // The stream is now drained and the timeout path returns None.
        assert_eq!(sub.wait_for(Duration::from_millis(10), |_| true), None);
    }
}
