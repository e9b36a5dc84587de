//! Zero-cost-when-off trace spans: hierarchical wall-clock timings for the
//! stages of a query pipeline.
//!
//! This is the third leg of the engine's instrumentation tripod, built on
//! the same monomorphization pattern as [`MetricsSink`](crate::MetricsSink)
//! and [`Governor`](crate::Governor): a pipeline's one entry point takes the
//! tracer inside its [`ExecCtx`](crate::ExecCtx)
//! (`ExecCtx::new(&policy).trace(&tracer)`) and is generic over a
//! [`TraceSink`] whose `const ENABLED` flag gates each hook behind an
//! `if T::ENABLED` the compiler resolves at monomorphization time.  Under
//! the all-no-op context the production path is bit-identical to code with
//! no hooks at all — [`NoopTrace`] is a zero-sized type and its hooks are
//! empty `#[inline]` bodies.
//!
//! Where metrics answer "how much work" (tuples probed, kernels picked) and
//! governance answers "may I continue", spans answer "where did the wall
//! clock go": a [`CollectingTracer`] assembles the enter/exit hook stream
//! into a tree of [`Span`]s — decompose under the cyclic router,
//! materialize under decompose's sibling, reduce-up/reduce-down under the
//! reducer, join under the pipeline — each with its wall-clock duration.
//! `hyperqd` wraps the engine spans with its own parse and serialize spans
//! and stamps the whole tree with a per-query trace id for the slow-query
//! log.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The pipeline stage a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Request-frame parsing (server-side).
    Parse,
    /// Data/schema load (server-side; databases usually load at startup).
    Load,
    /// Hypertree decomposition of a cyclic schema (cache hits included).
    Decompose,
    /// Bag materialization over a decomposition.
    Materialize,
    /// The reducer's upward semijoin pass.
    ReduceUp,
    /// The reducer's downward semijoin pass.
    ReduceDown,
    /// The bottom-up join over the tree levels.
    Join,
    /// Answer-frame serialization (server-side).
    Serialize,
}

impl SpanKind {
    /// The canonical wire name of this span kind.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Parse => "parse",
            SpanKind::Load => "load",
            SpanKind::Decompose => "decompose",
            SpanKind::Materialize => "materialize",
            SpanKind::ReduceUp => "reduce-up",
            SpanKind::ReduceDown => "reduce-down",
            SpanKind::Join => "join",
            SpanKind::Serialize => "serialize",
        }
    }
}

/// A sink for hierarchical span events, threaded through the pipelines
/// exactly as [`MetricsSink`](crate::MetricsSink) is.
///
/// Span hooks fire per pipeline stage, never per kernel, so a collecting
/// implementation needs interior mutability but no per-event contention.
pub trait TraceSink {
    /// Whether this sink records anything.  `false` compiles every hook —
    /// and the `Instant::now()` reads around it — out of the pipelines.
    const ENABLED: bool;

    /// A span of `kind` has started; it becomes the parent of any span
    /// entered before its matching [`exit`](TraceSink::exit).
    #[inline]
    fn enter(&self, _kind: SpanKind) {}

    /// The innermost open span (of `kind`) has finished after `nanos`.
    #[inline]
    fn exit(&self, _kind: SpanKind, _nanos: u64) {}
}

/// The disabled trace sink: zero-sized, all hooks empty.  Pipelines
/// monomorphized over it are the production code paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTrace;

impl TraceSink for NoopTrace {
    const ENABLED: bool = false;
}

/// Runs `f` inside a span of `kind`: a no-op wrapper (no clock reads) when
/// `T::ENABLED` is false.
#[inline]
pub fn with_span<T: TraceSink, R>(tracer: &T, kind: SpanKind, f: impl FnOnce() -> R) -> R {
    if !T::ENABLED {
        return f();
    }
    tracer.enter(kind);
    let t0 = Instant::now();
    let out = f();
    tracer.exit(kind, t0.elapsed().as_nanos() as u64);
    out
}

/// One completed span in a [`TraceReport`]: a pipeline stage, its
/// wall-clock duration, and its child spans in completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The stage this span covers.
    pub kind: SpanKind,
    /// Wall-clock duration, in nanoseconds.
    pub nanos: u64,
    /// Spans entered (and exited) while this one was open.
    pub children: Vec<Span>,
}

/// A finished span tree, as taken from a [`CollectingTracer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Top-level spans, in completion order.
    pub roots: Vec<Span>,
}

impl TraceReport {
    /// Total nanoseconds across the top-level spans.
    pub fn total_nanos(&self) -> u64 {
        self.roots.iter().map(|s| s.nanos).sum()
    }
}

/// One in-flight or finished node while the tracer assembles the tree.
#[derive(Debug)]
struct OpenSpan {
    kind: SpanKind,
    nanos: u64,
    children: Vec<Span>,
}

#[derive(Debug, Default)]
struct TracerState {
    /// Open spans, innermost last.
    stack: Vec<OpenSpan>,
    /// Completed top-level spans.
    roots: Vec<Span>,
}

/// A [`TraceSink`] that assembles enter/exit events into a span tree.
///
/// Cloning shares the underlying state (like
/// [`CollectingSink`](crate::CollectingSink)), so the clone a pipeline
/// carries reports into the same tree the caller snapshots.  Events arrive
/// from the query's thread only, so the mutex is uncontended; an unmatched
/// exit (impossible through [`with_span`]) is ignored rather than
/// panicking.
#[derive(Debug, Clone, Default)]
pub struct CollectingTracer {
    inner: Arc<Mutex<TracerState>>,
}

impl CollectingTracer {
    /// A tracer with no spans yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the completed span tree, leaving the tracer empty.  Open spans
    /// (entered but not exited — only possible if a pipeline unwound) are
    /// discarded.
    pub fn take(&self) -> TraceReport {
        let mut state = self.inner.lock().expect("tracer lock");
        state.stack.clear();
        TraceReport {
            roots: std::mem::take(&mut state.roots),
        }
    }
}

impl TraceSink for CollectingTracer {
    const ENABLED: bool = true;

    fn enter(&self, kind: SpanKind) {
        let mut state = self.inner.lock().expect("tracer lock");
        state.stack.push(OpenSpan {
            kind,
            nanos: 0,
            children: Vec::new(),
        });
    }

    fn exit(&self, kind: SpanKind, nanos: u64) {
        let mut state = self.inner.lock().expect("tracer lock");
        let Some(mut open) = state.stack.pop() else {
            return; // unmatched exit: drop rather than panic
        };
        debug_assert_eq!(open.kind, kind, "span exit order");
        open.nanos = nanos;
        let span = Span {
            kind: open.kind,
            nanos,
            children: open.children,
        };
        match state.stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => state.roots.push(span),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_trace_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopTrace>(), 0);
        const { assert!(!NoopTrace::ENABLED) };
        const { assert!(CollectingTracer::ENABLED) };
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let t = CollectingTracer::new();
        with_span(&t, SpanKind::Join, || {
            with_span(&t, SpanKind::ReduceUp, || {});
            with_span(&t, SpanKind::ReduceDown, || {});
        });
        with_span(&t, SpanKind::Serialize, || {});
        let report = t.take();
        assert_eq!(report.roots.len(), 2);
        assert_eq!(report.roots[0].kind, SpanKind::Join);
        let kinds: Vec<_> = report.roots[0].children.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SpanKind::ReduceUp, SpanKind::ReduceDown]);
        assert_eq!(report.roots[1].kind, SpanKind::Serialize);
        // A taken tracer is empty again.
        assert_eq!(t.take(), TraceReport::default());
    }

    #[test]
    fn with_span_passes_results_through() {
        let t = CollectingTracer::new();
        let n = with_span(&t, SpanKind::Decompose, || 7);
        assert_eq!(n, 7);
        let err: Result<(), &str> = with_span(&t, SpanKind::Materialize, || Err("abort"));
        assert!(err.is_err());
        // Spans complete even when the closure returns an error value.
        assert_eq!(t.take().roots.len(), 2);
    }
}
