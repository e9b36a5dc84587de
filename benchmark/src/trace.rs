//! Harness-side trace spans: recorded around calls into each layer's
//! public functions, held in memory, written out when the run ends.

use crate::stats;
use hyperqd::json::{obj, Json};
use std::time::Instant;

/// One span: a named interval, the span that caused it, and the replayed
/// request it belongs to.  Times are nanoseconds since the recorder's
/// start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `crate.module.function` of the call the span brackets.
    pub name: &'static str,
    /// The replay this span belongs to; spans of one request share it.
    pub request: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; nesting follows the call structure of [`Recorder::span`].
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(index);
        let start = self.epoch.elapsed();
        let result = f(self);
        let end = self.epoch.elapsed();
        self.open.pop();
        self.spans[index].start_ns = start.as_nanos() as u64;
        self.spans[index].end_ns = end.as_nanos() as u64;
        result
    }

    /// The spans recorded, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time in ns: its duration minus the part of its
/// interval that its direct children cover.  Children may overlap (parallel
/// work) or stick out of the parent (clock skew between threads); covered
/// time is the union of their intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.nanos() - covered
        })
        .collect()
}

/// The median duration, in µs, of the spans named `name`, and how many
/// there were.  `None` if there is none.
pub fn median_us(spans: &[Span], name: &str) -> Option<(f64, usize)> {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64 / 1e3)
        .collect();
    (!durations.is_empty()).then(|| (stats::median(&durations), durations.len()))
}

/// Renders the spans as a JSON document: one object per span, with its
/// self time, one span per line.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let int = |n: u64| Json::Int(n as i64);
    let lines: Vec<String> = spans
        .iter()
        .zip(self_times(spans))
        .enumerate()
        .map(|(id, (s, self_ns))| {
            obj([
                ("id", int(id as u64)),
                ("name", Json::str(s.name)),
                ("request", int(s.request.into())),
                ("parent", s.parent.map_or(Json::Null, |p| int(p as u64))),
                ("start", int(s.start_ns)),
                ("end", int(s.end_ns)),
                ("self", int(self_ns)),
            ])
            .to_string()
        })
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"unit\":\"ns\",\"spans\":[\n{}\n]}}\n",
        Json::str(workload),
        lines.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // 10..60 and 40..80 cover 10..80 = 70, not 50 + 40.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 80),
        ];
        assert_eq!(self_times(&spans)[0], 30);
        // A child wholly inside a sibling adds nothing.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 90),
            span(Some(0), 20, 30),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn nested_children_only_count_against_their_own_parent() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 90),
            span(Some(1), 20, 40),
            span(Some(1), 30, 70),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 20, 40]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(None, 10, 50),
            span(Some(0), 0, 20),
            span(Some(0), 45, 80),
        ];
        assert_eq!(self_times(&spans)[0], 25);
        // A child entirely outside covers nothing.
        let spans = [span(None, 10, 50), span(Some(0), 60, 70)];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_stamps_request_ids() {
        let mut rec = Recorder::new();
        rec.set_request(7);
        let value = rec.span("outer", |rec| {
            rec.span("inner", |_| 1) + rec.span("inner", |_| 2)
        });
        assert_eq!(value, 3);
        let spans = &rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(median_us(spans, "inner").unwrap().1, 2);
        assert!(median_us(spans, "absent").is_none());
    }
}
