//! The traced replay: harness-side spans around calls into each crate,
//! folded into self time per layer.
//!
//! Spans are recorded through `decisive::obs`'s recording sink from the
//! harness side only; the program itself gains no instrumentation. A
//! replay operation is a `request` span (carrying a request id) whose
//! children are `layer.call` spans whose category is the layer. A span's
//! self time is its duration minus that of its children; a request
//! span's own self time is harness glue and counts as layer `bench`.
//!
//! Two refinements use numbers the program already reports, so the split
//! names the crate doing the work rather than the crate the harness
//! called: the time of a span that ran engine passes is divided among the
//! crates of its phases (`EngineStats` phase walls, sequential under
//! `jobs = 1`), and within those phases the circuit solver's own timings
//! (`solver.strategy.*.ms`) move from `core` to `circuit`. The same phase
//! walls and the program's `solver.*` and `campaign.*` counters give the
//! per-call layer metrics of work that runs inside the engine.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use decisive::federation::Value;
use decisive::obs::{RecordingSink, Sink, Span, SpanRecord, Telemetry, TraceReport};

use crate::report::{Report, LAYERS};
use crate::stats;

/// The crate that does the work of an engine pass phase.
fn phase_layer(phase: &str) -> &'static str {
    match phase {
        "fta-subtrees" => "fta",
        "risk-log" => "hara",
        "assurance-case" => "assurance",
        _ => "core",
    }
}

/// The per-layer metric a phase's wall time is a sample of, when the
/// phase executed work (a phase served from the cache is not a sample).
fn phase_metric(phase: &str) -> Option<&'static str> {
    Some(match phase {
        "graph-rows" => "core.graph_fmea_ms",
        "injection-rows" => "core.campaign_ms",
        "fta-subtrees" => "fta.subtrees_ms",
        "risk-log" => "hara.assess_ms",
        "assurance-case" => "assurance.eval_ms",
        _ => return None,
    })
}

/// One engine phase of a replayed operation: name, wall milliseconds and
/// jobs executed (the cache misses).
pub type Phase = (String, f64, usize);

/// What the program reported through [`ProgramCounters`] during one
/// replayed operation.
#[derive(Debug, Clone, Default)]
pub struct Counted {
    /// The solver's own solve time, milliseconds.
    pub solver_ms: f64,
    /// `solver.*` and `campaign.*` counters.
    pub counts: BTreeMap<String, u64>,
}

/// A telemetry sink for the program's engine or daemon inside a traced
/// replay. It keeps the solver's own solve time (`solver.strategy.*.ms`)
/// and the `solver.*` and `campaign.*` counters, and drops the program's
/// spans: the split is built from the harness's spans alone.
#[derive(Debug, Default)]
pub struct ProgramCounters(Mutex<Counted>);

impl ProgramCounters {
    /// What was recorded since the last call.
    pub fn take(&self) -> Counted {
        std::mem::take(&mut *self.0.lock().expect("program counters lock poisoned"))
    }
}

impl Sink for ProgramCounters {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&self, _record: SpanRecord) {}

    fn count(&self, name: &str, delta: u64) {
        if name.starts_with("solver.") || name.starts_with("campaign.") {
            let mut counted = self.0.lock().expect("program counters lock poisoned");
            *counted.counts.entry(name.to_owned()).or_default() += delta;
        }
    }

    fn duration_ms(&self, name: &str, ms: f64) {
        if name.starts_with("solver.strategy.") && name.ends_with(".ms") {
            self.0.lock().expect("program counters lock poisoned").solver_ms += ms;
        }
    }
}

/// Spans, samples and attributions of one replay.
#[derive(Debug)]
pub struct Replay {
    telemetry: Telemetry,
    sink: Option<Arc<RecordingSink>>,
    /// Net milliseconds to move between layers' self times.
    moved: RefCell<BTreeMap<&'static str, f64>>,
    /// Per-call samples, keyed by metric name.
    samples: RefCell<BTreeMap<String, Vec<f64>>>,
    started: Instant,
    ops: Cell<u64>,
}

impl Replay {
    /// A replay recording spans (`traced`) or with inert spans.
    pub fn new(traced: bool) -> Replay {
        let (telemetry, sink) = if traced {
            let (telemetry, sink) = Telemetry::recording();
            (telemetry, Some(sink))
        } else {
            (Telemetry::noop(), None)
        };
        Replay {
            telemetry,
            sink,
            moved: RefCell::default(),
            samples: RefCell::default(),
            started: Instant::now(),
            ops: Cell::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn traced(&self) -> bool {
        self.sink.is_some()
    }

    /// A telemetry handle for the program's engine or daemon inside this
    /// replay: [`ProgramCounters`] when the replay is traced, inert
    /// otherwise.
    pub fn engine_telemetry(&self) -> (Telemetry, Option<Arc<ProgramCounters>>) {
        if self.traced() {
            let counters = Arc::new(ProgramCounters::default());
            (Telemetry::with_sink(counters.clone()), Some(counters))
        } else {
            (Telemetry::noop(), None)
        }
    }

    /// Opens the span of one replay operation.
    pub fn request(&self, kind: &str) -> Span<'_> {
        self.ops.set(self.ops.get() + 1);
        let mut span = self.telemetry.span("request", "request");
        span.arg("request", self.ops.get().to_string());
        span.arg("kind", kind);
        span
    }

    /// Number of operations replayed.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Runs `f` inside span `layer.call`, records its wall time as a
    /// sample of `layer.call_ms`, and returns it with the result.
    pub fn time_ms<T>(&self, layer: &'static str, call: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let name = format!("{layer}.{call}");
        let started = Instant::now();
        let out = {
            let _span = self.telemetry.span(name.as_str(), layer);
            f()
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.sample(&format!("{name}_ms"), ms);
        (out, ms)
    }

    /// [`Replay::time_ms`] without the elapsed time.
    pub fn time<T>(&self, layer: &'static str, call: &str, f: impl FnOnce() -> T) -> T {
        self.time_ms(layer, call, f).0
    }

    /// Records one sample of `metric`.
    pub fn sample(&self, metric: &str, value: f64) {
        self.samples.borrow_mut().entry(metric.to_owned()).or_default().push(value);
    }

    /// Attributes the engine phases of one operation, which ran inside a
    /// span of layer `from`, to the crates that did their work, moving the
    /// solver's own time from `core` on to `circuit`; and samples the
    /// per-call metrics of that work from the phases and `counted`.
    pub fn attribute(&self, from: &'static str, phases: &[Phase], counted: Option<Counted>) {
        let counted = counted.unwrap_or_default();
        let mut core_ms = 0.0;
        {
            let mut moved = self.moved.borrow_mut();
            for (name, wall_ms, executed) in phases {
                let layer = phase_layer(name);
                *moved.entry(from).or_default() -= wall_ms;
                *moved.entry(layer).or_default() += wall_ms;
                if layer == "core" {
                    core_ms += wall_ms;
                }
                if *executed == 0 {
                    continue;
                }
                if name == "mc-trials" {
                    self.sample("core.mc_trial_ms", wall_ms / *executed as f64);
                } else if let Some(metric) = phase_metric(name) {
                    self.sample(metric, *wall_ms);
                }
            }
            let solver_ms = counted.solver_ms.min(core_ms);
            *moved.entry("core").or_default() -= solver_ms;
            *moved.entry("circuit").or_default() += solver_ms;
        }
        let count = |name: &str| counted.counts.get(name).copied().unwrap_or(0) as f64;
        let solves = count("solver.solves");
        if solves > 0.0 {
            self.sample("circuit.solves", solves);
            self.sample("circuit.dc_ms", counted.solver_ms / solves);
            self.sample("circuit.newton_iters", count("solver.iterations"));
            self.sample("circuit.recovered", count("solver.recovered"));
            let (reuse, refactor) =
                (count("solver.factor_reuse"), count("solver.refactorizations"));
            if reuse + refactor > 0.0 {
                self.sample("circuit.factor_reuse_ratio", reuse / (reuse + refactor));
            }
        }
        if count("campaign.cases") > 0.0 {
            self.sample("core.cases", count("campaign.cases"));
        }
    }

    /// [`Replay::attribute`] for an engine run inside an `engine.*` span,
    /// plus its hit ratio and executed jobs.
    pub fn engine_stats(&self, stats: &decisive::engine::EngineStats, counted: Option<Counted>) {
        let phases: Vec<Phase> =
            stats.phases.iter().map(|p| (p.name.clone(), p.wall_ms, p.jobs_executed)).collect();
        self.attribute("engine", &phases, counted);
        self.sample("engine.hit_ratio", stats.hit_rate());
        self.sample("engine.jobs_executed", stats.jobs_executed() as f64);
    }

    /// Median of a metric's samples, 0 when it has none.
    pub fn median(&self, metric: &str) -> f64 {
        self.samples.borrow().get(metric).and_then(|v| stats::median(v)).unwrap_or(0.0)
    }

    /// A percentile of a metric's samples, 0 when it has none.
    pub fn percentile(&self, metric: &str, p: f64) -> f64 {
        self.samples.borrow().get(metric).and_then(|v| stats::percentile(v, p)).unwrap_or(0.0)
    }

    /// Maximum of a metric's samples, 0 when it has none.
    pub fn max(&self, metric: &str) -> f64 {
        self.samples.borrow().get(metric).map_or(0.0, |v| v.iter().copied().fold(0.0, f64::max))
    }

    /// Milliseconds since the replay began.
    pub fn wall_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Drains the recorded spans (empty when untraced).
    pub fn drain(&self) -> TraceReport {
        self.sink.as_ref().map(|s| s.drain()).unwrap_or_default()
    }

    /// Self milliseconds per layer over `spans`, attributions applied.
    pub fn layer_self_ms(&self, spans: &TraceReport) -> BTreeMap<&'static str, f64> {
        let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
        for span in &spans.spans {
            if let Some(parent) = span.parent {
                *child_ms.entry(parent).or_default() += span.duration_us / 1e3;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for span in &spans.spans {
            let own = span.duration_us / 1e3 - child_ms.get(&span.id).copied().unwrap_or(0.0);
            let layer = LAYERS.iter().copied().find(|&l| l == span.category).unwrap_or("bench");
            *out.entry(layer).or_default() += own;
        }
        for (layer, ms) in self.moved.borrow().iter() {
            *out.entry(layer).or_default() += ms;
        }
        out
    }

    /// Writes the split into `report`: each layer's self time as a share
    /// of the replay's wall time `wall_ms`, and the check that the shares
    /// account for that wall time within 5 %.
    pub fn report_split(&self, spans: &TraceReport, wall_ms: f64, report: &mut Report) {
        let split = self.layer_self_ms(spans);
        let total: f64 = split.values().sum();
        for (layer, ms) in &split {
            report.set(&format!("self_pct.{layer}"), 100.0 * ms / wall_ms);
        }
        let sum_pct = 100.0 * total / wall_ms;
        report.set("replay.layer_sum_pct", sum_pct);
        report.detail("self_ms", Value::record(split.iter().map(|(l, ms)| (*l, Value::Real(*ms)))));
        if !(95.0..=100.5).contains(&sum_pct) {
            report.fail(format!("layer self times sum to {sum_pct:.1} % of the replay wall time"));
        }
    }
}
