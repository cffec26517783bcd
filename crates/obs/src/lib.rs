//! decisive-obs: structured tracing and metrics for the analysis pipeline.
//!
//! The DECISIVE claim is that automated safety analysis is fast enough to
//! sit *inside* the design loop; sustaining that at scale requires knowing
//! where solver, scheduler and pass time actually goes. This crate is the
//! telemetry substrate: thread-safe span tracing with parent nesting,
//! monotonic counters, duration histograms, and a pluggable [`Sink`] —
//! all with **zero external dependencies** so it can sit underneath every
//! other crate in the workspace.
//!
//! Layering:
//!
//! - [`span`] — the [`Span`] RAII guard, per-thread nesting stack and the
//!   finished [`SpanRecord`];
//! - [`metrics`] — the log₂-bucketed [`DurationHistogram`];
//! - [`sink`] — the [`Sink`] trait, the free [`NoopSink`], and the
//!   [`RecordingSink`] with per-thread span buffers merged at drain;
//! - [`chrome`] — chrome://tracing JSON export (loadable in Perfetto or
//!   `chrome://tracing`) and the one-line metrics summary.
//!
//! # Handles and the thread-current context
//!
//! A [`Telemetry`] is a cheap cloneable handle around an `Arc<dyn Sink>`.
//! Code that owns a handle records through it directly; code deep in the
//! call stack (the Newton solver, the campaign supervisor) records through
//! the *thread-current* handle installed by whoever scheduled it —
//! [`set_current`] returns a guard restoring the previous handle on drop,
//! and [`with_current`] is a no-op costing one thread-local read when no
//! handle is installed or the installed sink is disabled. This is the
//! `tracing`-style dispatcher pattern, minus the global registry: scopes
//! are explicit, so concurrent tests never observe each other's sinks.
//!
//! # Example
//!
//! ```
//! let (telemetry, sink) = decisive_obs::Telemetry::recording();
//! {
//!     let _outer = telemetry.span("analysis", "engine");
//!     let mut inner = telemetry.span("solve", "solver");
//!     inner.arg("component", "D1");
//!     telemetry.count("solver.iterations", 42);
//!     telemetry.duration_ms("solver.strategy.newton", 0.8);
//! }
//! let report = sink.drain();
//! assert_eq!(report.spans.len(), 2);
//! assert_eq!(report.counters["solver.iterations"], 42);
//! assert!(report.to_chrome_json().contains("traceEvents"));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod metrics;
pub mod sink;
pub mod span;

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

pub use metrics::DurationHistogram;
pub use sink::{NoopSink, RecordingSink, Sink, TraceReport};
pub use span::{Span, SpanRecord};

/// A cheap cloneable telemetry handle: all recording goes through the
/// configured [`Sink`], and every clone shares the same time epoch so span
/// timestamps from different threads land on one timeline.
#[derive(Debug, Clone)]
pub struct Telemetry {
    sink: Arc<dyn Sink>,
    epoch: Instant,
}

impl Default for Telemetry {
    /// The default handle is a no-op: recording costs one virtual call
    /// that immediately returns.
    fn default() -> Self {
        Telemetry::noop()
    }
}

impl Telemetry {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Telemetry { sink: Arc::new(NoopSink), epoch: Instant::now() }
    }

    /// A handle backed by a fresh [`RecordingSink`], returned alongside so
    /// the caller can [`RecordingSink::drain`] it after the traced work.
    pub fn recording() -> (Self, Arc<RecordingSink>) {
        let sink = Arc::new(RecordingSink::new());
        (Telemetry::with_sink(sink.clone()), sink)
    }

    /// A handle over an arbitrary sink.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Telemetry { sink, epoch: Instant::now() }
    }

    /// `true` when the sink wants data — the cheap guard instrumentation
    /// sites check before doing any formatting work.
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// The sink behind this handle.
    pub fn sink(&self) -> &Arc<dyn Sink> {
        &self.sink
    }

    /// Microseconds from this handle's epoch to `at`.
    pub(crate) fn us_at(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span; it ends (and is recorded) when the returned guard
    /// drops. Nesting is tracked per thread: a span opened while another
    /// is active on the same thread records it as its parent.
    pub fn span(&self, name: impl Into<String>, category: &'static str) -> Span<'_> {
        Span::start(self, name, category)
    }

    /// Adds `delta` to the monotonic counter `name`.
    pub fn count(&self, name: &str, delta: u64) {
        if self.sink.enabled() {
            self.sink.count(name, delta);
        }
    }

    /// Records one `ms` observation into the duration histogram `name`.
    pub fn duration_ms(&self, name: &str, ms: f64) {
        if self.sink.enabled() {
            self.sink.duration_ms(name, ms);
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Telemetry>> = const { RefCell::new(None) };
}

/// Restores the previously installed thread-current handle on drop.
#[derive(Debug)]
pub struct CurrentGuard {
    previous: Option<Telemetry>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|current| *current.borrow_mut() = self.previous.take());
    }
}

/// Installs `telemetry` as this thread's current handle until the returned
/// guard drops (the previous handle, if any, is restored). Schedulers call
/// this inside worker threads so leaf code — the solver ladder, the
/// campaign supervisor — can record without a handle threaded through
/// every signature.
pub fn set_current(telemetry: Telemetry) -> CurrentGuard {
    let previous = CURRENT.with(|current| current.borrow_mut().replace(telemetry));
    CurrentGuard { previous }
}

/// Runs `f` with the thread-current handle when one is installed *and*
/// enabled; returns `None` (without calling `f`) otherwise. The disabled
/// path costs one thread-local read.
pub fn with_current<R>(f: impl FnOnce(&Telemetry) -> R) -> Option<R> {
    CURRENT.with(|current| {
        let borrowed = current.borrow();
        match borrowed.as_ref() {
            Some(telemetry) if telemetry.enabled() => Some(f(telemetry)),
            _ => None,
        }
    })
}

/// The thread-current handle, or a fresh no-op handle when none is
/// installed.
pub fn current() -> Telemetry {
    CURRENT.with(|current| current.borrow().clone()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing_and_is_disabled() {
        let telemetry = Telemetry::noop();
        assert!(!telemetry.enabled());
        let _span = telemetry.span("ignored", "test");
        telemetry.count("ignored", 1);
        telemetry.duration_ms("ignored", 1.0);
    }

    #[test]
    fn current_defaults_to_noop_and_scopes_nest() {
        assert!(!current().enabled());
        assert!(with_current(|_| ()).is_none());
        let (outer, outer_sink) = Telemetry::recording();
        let guard = set_current(outer);
        with_current(|t| t.count("outer", 1)).expect("outer installed");
        {
            let (inner, inner_sink) = Telemetry::recording();
            let _inner_guard = set_current(inner);
            with_current(|t| t.count("inner", 1)).expect("inner installed");
            assert_eq!(inner_sink.drain().counters.get("inner"), Some(&1));
        }
        // The inner guard restored the outer handle.
        with_current(|t| t.count("outer", 1)).expect("outer restored");
        drop(guard);
        assert!(with_current(|_| ()).is_none());
        assert_eq!(outer_sink.drain().counters.get("outer"), Some(&2));
    }

    #[test]
    fn spans_nest_within_one_thread() {
        let (telemetry, sink) = Telemetry::recording();
        {
            let _a = telemetry.span("a", "test");
            let _b = telemetry.span("b", "test");
        }
        let report = sink.drain();
        assert_eq!(report.spans.len(), 2);
        let a = report.spans.iter().find(|s| s.name == "a").expect("a recorded");
        let b = report.spans.iter().find(|s| s.name == "b").expect("b recorded");
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(a.parent, None);
        assert_eq!(a.thread, b.thread);
        assert!(b.start_us >= a.start_us);
        assert!(b.end_us() <= a.end_us());
    }

    #[test]
    fn cross_thread_spans_keep_distinct_threads() {
        let (telemetry, sink) = Telemetry::recording();
        let _outer = telemetry.span("outer", "test");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let telemetry = telemetry.clone();
                scope.spawn(move || {
                    let _inner = telemetry.span("inner", "test");
                });
            }
        });
        drop(_outer);
        let report = sink.drain();
        let outer = report.spans.iter().find(|s| s.name == "outer").expect("outer");
        for inner in report.spans.iter().filter(|s| s.name == "inner") {
            // A span opened on a fresh thread has no parent there: the
            // nesting stack is per-thread, never leaked across spawns.
            assert_eq!(inner.parent, None);
            assert_ne!(inner.thread, outer.thread);
        }
    }
}
