//! Deterministic run traces and span-tree rendering.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use telemetry::Span;

/// A shared, append-only event log the scenario's actors write into.
///
/// Every line is stamped with exact virtual time, so two runs of the same
/// scenario produce byte-identical logs — the substrate of the seed/replay
/// contract.  The log lives on an `Rc` because the whole simulation is
/// single-threaded by construction (no threads are spawned, and none can
/// leak).
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    lines: Rc<RefCell<Vec<String>>>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event line stamped with virtual time.
    pub fn push(&self, now: netsim::SimTime, line: impl AsRef<str>) {
        self.lines
            .borrow_mut()
            .push(format!("{:>15} {}", now.as_nanos(), line.as_ref()));
    }

    /// Renders the log as one newline-joined string.
    pub fn render(&self) -> String {
        self.lines.borrow().join("\n")
    }
}

/// Renders closed telemetry spans as an indented tree, children ordered
/// by start time (ties by span id — both exact virtual quantities).
pub(crate) fn render_span_tree(spans: &[Span]) -> String {
    let mut out = String::new();
    let mut children: Vec<usize> = (0..spans.len()).collect();
    children.sort_by_key(|&i| (spans[i].start_nanos, spans[i].id.0));
    fn emit(out: &mut String, spans: &[Span], order: &[usize], parent: Option<u64>, depth: usize) {
        for &i in order {
            let s = &spans[i];
            if s.parent.map(|p| p.0) != parent {
                continue;
            }
            let _ = writeln!(
                out,
                "{}{} [{} ns .. {} ns]{}{}",
                "  ".repeat(depth),
                s.name,
                s.start_nanos,
                s.end_nanos,
                if s.detail.is_empty() { "" } else { " " },
                s.detail,
            );
            emit(out, spans, order, Some(s.id.0), depth + 1);
        }
    }
    emit(&mut out, spans, &children, None, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;

    #[test]
    fn trace_lines_are_stamped_and_ordered() {
        let log = TraceLog::new();
        log.push(SimTime::from_nanos(5), "first");
        log.push(SimTime::from_nanos(10), "second");
        let rendered = log.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with("first"));
        assert!(lines[1].ends_with("second"));
    }

    #[test]
    fn span_tree_nests_children_under_parents() {
        let clock = crate::SimClock::new();
        let cell = clock.cell();
        let tel = telemetry::Telemetry::with_clock(std::sync::Arc::new(clock), 64);
        let job = tel.span_start("job", None, Some(1), "");
        cell.store(10, std::sync::atomic::Ordering::Relaxed);
        let screen = tel.span_start("screen", job, Some(1), "");
        cell.store(30, std::sync::atomic::Ordering::Relaxed);
        tel.span_end(screen);
        tel.span_end(job);
        let tree = render_span_tree(&tel.spans());
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("job ["));
        assert!(lines[1].starts_with("  screen ["));
    }
}
