//! Spans: named, parent-linked intervals on the telemetry clock.
//!
//! A [`Span`] is one closed interval — a job phase, a regeneration, a
//! decode — with an optional parent link, so per-job activity reads as a
//! tree: `job` → `queued`/`screen`/`derive`/`transform` → `detect`/
//! `regenerate`/`recompute`.  Spans are cheap value types; the lifecycle
//! (open table, close-into-ring) lives on [`crate::Telemetry`].

/// Identifier of one span, unique per [`crate::Telemetry`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One completed span on the telemetry clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The span's name (`job`, `queued`, `screen`, `regenerate`, ...).
    pub name: &'static str,
    /// The job the span belongs to, if any (becomes the trace row).
    pub job: Option<u64>,
    /// Start, in clock nanoseconds.
    pub start_nanos: u64,
    /// End, in clock nanoseconds (`>= start_nanos`).
    pub end_nanos: u64,
    /// Freeform detail (member name, terminal status, tag).
    pub detail: String,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    /// Whether `other` lies fully inside this span's interval.
    pub fn encloses(&self, other: &Span) -> bool {
        self.start_nanos <= other.start_nanos && other.end_nanos <= self.end_nanos
    }
}

/// A span that has been started but not yet closed.
#[derive(Debug, Clone)]
pub(crate) struct OpenSpan {
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub job: Option<u64>,
    pub start_nanos: u64,
    pub detail: String,
}

impl OpenSpan {
    /// Closes the span at `end_nanos`.
    pub(crate) fn close(self, id: SpanId, end_nanos: u64) -> Span {
        Span {
            id,
            parent: self.parent,
            name: self.name,
            job: self.job,
            start_nanos: self.start_nanos,
            end_nanos: end_nanos.max(self.start_nanos),
            detail: self.detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64) -> Span {
        Span {
            id: SpanId(id),
            parent: None,
            name: "t",
            job: None,
            start_nanos: start,
            end_nanos: end,
            detail: String::new(),
        }
    }

    #[test]
    fn duration_and_enclosure() {
        let outer = span(1, 10, 100);
        let inner = span(2, 20, 90);
        assert_eq!(outer.duration_nanos(), 90);
        assert!(outer.encloses(&inner));
        assert!(!inner.encloses(&outer));
        assert!(outer.encloses(&outer));
    }

    #[test]
    fn close_clamps_to_monotonic() {
        let open = OpenSpan {
            parent: Some(SpanId(1)),
            name: "x",
            job: Some(7),
            start_nanos: 50,
            detail: "d".into(),
        };
        let closed = open.close(SpanId(2), 40);
        assert_eq!(closed.start_nanos, 50);
        assert_eq!(closed.end_nanos, 50, "end never precedes start");
        assert_eq!(closed.parent, Some(SpanId(1)));
    }
}
