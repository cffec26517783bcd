//! Span tracing: the RAII [`Span`] guard, the per-thread nesting stack and
//! the finished [`SpanRecord`].
//!
//! A span is *recorded only when it ends* (guard drop), as one complete
//! interval — there is no separate begin/end event to mismatch, so a
//! drained trace is well-formed by construction: every record has
//! `duration_us >= 0`, and a record's parent is always an enclosing span
//! on the same thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::Telemetry;

/// Process-unique span ids; `0` is reserved as "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Small dense thread ids (`std::thread::ThreadId` has no stable integer
/// accessor), assigned on first use per thread.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// Ids of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// This thread's dense telemetry id.
pub(crate) fn current_thread() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, when one was open.
    pub parent: Option<u64>,
    /// Span name (e.g. `pass:graph-fmea`, `phase:graph-rows`).
    pub name: String,
    /// Coarse grouping for trace viewers (e.g. `pass`, `job`, `engine`).
    pub category: &'static str,
    /// Dense id of the thread the span ran on.
    pub thread: u64,
    /// Start, microseconds since the handle's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub duration_us: f64,
    /// Free-form key/value annotations.
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// End timestamp, microseconds since the epoch.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.duration_us
    }
}

/// RAII span guard: created by [`Telemetry::span`], records the span into
/// the sink when dropped. A guard from a disabled sink is inert and costs
/// nothing beyond its construction check.
#[derive(Debug)]
pub struct Span<'a> {
    /// `None` for disabled sinks — drop does nothing.
    live: Option<LiveSpan>,
    telemetry: &'a Telemetry,
}

#[derive(Debug)]
struct LiveSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    category: &'static str,
    start_us: f64,
    started: Instant,
    args: Vec<(String, String)>,
}

impl<'a> Span<'a> {
    pub(crate) fn start(
        telemetry: &'a Telemetry,
        name: impl Into<String>,
        category: &'static str,
    ) -> Span<'a> {
        if !telemetry.enabled() {
            return Span { live: None, telemetry };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        // One clock read fixes both the start and, with the elapsed time
        // at drop, the end: a span's interval then nests inside its
        // parent's even if the thread is preempted while opening it.
        let started = Instant::now();
        Span {
            live: Some(LiveSpan {
                id,
                parent,
                name: name.into(),
                category,
                start_us: telemetry.us_at(started),
                started,
                args: Vec::new(),
            }),
            telemetry,
        }
    }

    /// Annotates the span with a key/value pair (shown under `args` in
    /// trace viewers). A no-op on inert guards.
    pub fn arg(&mut self, key: impl Into<String>, value: impl Into<String>) {
        if let Some(live) = &mut self.live {
            live.args.push((key.into(), value.into()));
        }
    }

    /// The span's id, `None` for inert guards.
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|live| live.id)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards are values dropped in reverse creation order within a
            // thread, so the top of the stack is this span; `retain` keeps
            // the stack sound even if a guard was moved somewhere exotic.
            if stack.last() == Some(&live.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != live.id);
            }
        });
        let record = SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name,
            category: live.category,
            thread: current_thread(),
            start_us: live.start_us,
            duration_us: live.started.elapsed().as_secs_f64() * 1e6,
            args: live.args,
        };
        self.telemetry.sink().span(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_drop_keeps_the_stack_sound() {
        let (telemetry, sink) = Telemetry::recording();
        let a = telemetry.span("a", "test");
        let b = telemetry.span("b", "test");
        drop(a); // wrong order on purpose
        let c = telemetry.span("c", "test");
        drop(c);
        drop(b);
        let report = sink.drain();
        assert_eq!(report.spans.len(), 3);
        // `c` opened while `b` was still on the stack.
        let b = report.spans.iter().find(|s| s.name == "b").expect("b");
        let c = report.spans.iter().find(|s| s.name == "c").expect("c");
        assert_eq!(c.parent, Some(b.id));
    }

    #[test]
    fn args_are_recorded() {
        let (telemetry, sink) = Telemetry::recording();
        let mut span = telemetry.span("solve", "solver");
        span.arg("component", "D1");
        drop(span);
        let report = sink.drain();
        assert_eq!(report.spans[0].args, vec![("component".to_owned(), "D1".to_owned())]);
    }

    #[test]
    fn inert_guard_has_no_id() {
        let telemetry = Telemetry::noop();
        let span = telemetry.span("ignored", "test");
        assert_eq!(span.id(), None);
    }
}
