//! The benchmark's own spans: recorded around its calls into each layer
//! during the single-threaded layer replay, kept in memory, and written as
//! one Chrome trace per workload at exit — together with the spans the
//! product recorded during the traced rounds.
//!
//! A span is (name, start, end, parent, job).  A layer's *self time* is its
//! span's duration minus the part of that interval its children cover.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.  Times are nanoseconds on the recorder's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// The request the span belongs to; spans of one job share it.
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory recorder for the (single-threaded) layer replay: spans nest by
/// call structure, so the open-span stack is the parent chain.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    next_id: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
        }
    }

    /// Runs `body` under a span named `name` for `job`, child of whatever
    /// span is open, and returns `body`'s result with the span's duration
    /// in nanoseconds.
    pub fn span<T>(
        &mut self,
        name: &str,
        job: u64,
        body: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, u64) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = body(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            job,
            start_ns,
            end_ns,
        });
        (result, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, as `(id, nanoseconds)`: duration minus the
/// union of its children's intervals clipped to its own (children that
/// overlap each other are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    for intervals in children.values_mut() {
        intervals.sort_unstable();
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in children.get(&span.id).map_or(&[][..], Vec::as_slice) {
                let start = start.clamp(reach, span.end_ns);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64)> {
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for ((_, self_ns), span) in self_times(spans).into_iter().zip(spans) {
        *totals.entry(&span.name).or_default() += self_ns;
    }
    let mut out: Vec<(String, u64)> = totals
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Renders span groups as Chrome `trace_event` JSON (load at
/// `chrome://tracing` or <https://ui.perfetto.dev>).  Each group becomes one
/// process row (`pid` = position + 1, named by the group label); a span's
/// `tid` is its job, so one job's spans share a track.  Timestamps are
/// microseconds with nanosecond decimals, so nothing is rounded away.
pub fn chrome_trace(groups: &[(&str, &[Span])]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, event: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&event);
    };
    for (index, (label, spans)) in groups.iter().enumerate() {
        let pid = index + 1;
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{}}}}}",
                json::quote(label)
            ),
        );
        for span in *spans {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            push(
                &mut out,
                format!(
                    "{{\"name\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"span\":{},\"parent\":{parent}}}}}",
                    json::quote(&span.name),
                    span.job,
                    json::number(span.start_ns as f64 / 1e3),
                    json::number(span.duration_ns() as f64 / 1e3),
                    span.id,
                ),
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            job: 7,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, "job", 0, 100),
            // Two children overlapping on [30, 40): union covers [10, 60).
            span(2, Some(1), "screen", 10, 40),
            span(3, Some(1), "derive", 30, 60),
            // A child sticking out past its parent is clipped to it.
            span(4, Some(1), "transform", 90, 130),
            // A grandchild is its parent's business, not the root's.
            span(5, Some(2), "dot", 12, 20),
        ];
        let selfs: BTreeMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30 - 8);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 40);
        assert_eq!(selfs[&5], 8);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("job".to_string(), 40));
        assert_eq!(by_name.last().unwrap(), &("dot".to_string(), 8));
    }

    #[test]
    fn a_child_nested_inside_a_sibling_adds_no_cover() {
        let spans = vec![
            span(1, None, "job", 0, 50),
            span(2, Some(1), "a", 5, 45),
            span(3, Some(1), "b", 10, 20),
        ];
        assert_eq!(self_times(&spans)[0], (1, 10));
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new();
        let ((), outer_ns) = rec.span("outer", 3, |rec| {
            rec.span("inner", 3, |_| std::hint::black_box(1 + 1));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(
            (inner.name.as_str(), outer.name.as_str()),
            ("inner", "outer")
        );
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.duration_ns(), outer_ns);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn chrome_trace_round_trips_through_the_reader() {
        let product = vec![
            span(1, None, "job", 1_500, 9_250),
            span(2, Some(1), "que\"ued", 1_500, 2_001),
        ];
        let replay = vec![span(1, None, "pct.screen", 0, 123_456_789)];
        let text = chrome_trace(&[("fusiond", &product), ("replay", &replay)]);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let complete: Vec<&json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(events.len() - complete.len(), 2, "one name row per group");
        assert_eq!(complete.len(), 3);
        let read_back: Vec<(u64, Span)> = complete
            .iter()
            .map(|e| {
                let num = |key: &str| e.get(key).and_then(|v| v.as_f64()).unwrap();
                let args = e.get("args").unwrap();
                let start_ns = (num("ts") * 1e3).round() as u64;
                (
                    num("pid") as u64,
                    Span {
                        id: args.get("span").and_then(|v| v.as_f64()).unwrap() as u64,
                        parent: args
                            .get("parent")
                            .and_then(|v| v.as_f64())
                            .map(|p| p as u64),
                        name: e.get("name").and_then(|n| n.as_str()).unwrap().to_string(),
                        job: num("tid") as u64,
                        start_ns,
                        end_ns: start_ns + (num("dur") * 1e3).round() as u64,
                    },
                )
            })
            .collect();
        let expected: Vec<(u64, Span)> = product
            .iter()
            .map(|s| (1, s.clone()))
            .chain(replay.iter().map(|s| (2, s.clone())))
            .collect();
        assert_eq!(read_back, expected);
    }
}
