//! Observability properties (ISSUE 5: telemetry layer).
//!
//! Telemetry must be a **pure observer**: attaching a recording sink to an
//! engine changes nothing about the artefacts it computes, under every
//! worker count, and the trace it leaves behind is structurally
//! well-formed — non-negative durations, unique span ids, and every
//! parent reference pointing at an enclosing span on the same thread.

use proptest::prelude::*;

use decisive_engine::obs::Telemetry;
use decisive_engine::{Engine, Pipeline, PipelineInput};
use decisive_workload::sets::chain_model;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `analyze_graph` with a recording sink is bitwise-identical to the
    /// same analysis under the default noop sink, for 1–8 workers, and
    /// the recorded trace passes the well-formedness check with at least
    /// one span per phase.
    #[test]
    fn recording_sink_is_a_pure_observer(n in 2usize..8, jobs in 1usize..9) {
        let (model, top) = chain_model(n);

        let mut noop_engine = Engine::builder().jobs(jobs).build().unwrap();
        let noop_table = noop_engine.analyze_graph(&model, top).expect("noop run");

        let (telemetry, sink) = Telemetry::recording();
        let mut rec_engine =
            Engine::builder().jobs(jobs).telemetry(telemetry).build().unwrap();
        let rec_table = rec_engine.analyze_graph(&model, top).expect("recording run");

        prop_assert_eq!(&noop_table, &rec_table);
        let report = sink.drain();
        let well_formed = report.check_well_formed();
        prop_assert!(well_formed.is_ok(), "trace violation: {:?}", well_formed);
        prop_assert_eq!(report.span_count("phase:graph-facts"), 1);
        prop_assert_eq!(report.span_count("phase:graph-rows"), 1);
        // One container: one facts job, scheduled on a miss; the rows are
        // computed outside the scheduler.
        prop_assert_eq!(report.counters.get("scheduler.jobs").copied(), Some(1));
        prop_assert_eq!(report.counters.get("cache.graph-facts.misses").copied(), Some(1));
    }

    /// The full standard pipeline under a recording sink equals the noop
    /// run artefact-by-artefact, nests exactly one `pass:*` span per
    /// pass, and every job span sits under a phase or pass parent.
    #[test]
    fn pipeline_trace_is_well_formed_and_invisible(n in 2usize..6, jobs in 1usize..9) {
        let (model, top) = chain_model(n);
        let input = PipelineInput::for_model(&model, top);
        let pipeline = Pipeline::standard(false);

        let mut noop_engine = Engine::builder().jobs(jobs).build().unwrap();
        let noop_run = noop_engine.run_pipeline(&pipeline, &input).expect("noop pipeline");

        let (telemetry, sink) = Telemetry::recording();
        let mut rec_engine =
            Engine::builder().jobs(jobs).telemetry(telemetry).build().unwrap();
        let rec_run = rec_engine.run_pipeline(&pipeline, &input).expect("recording pipeline");

        prop_assert_eq!(noop_run.fmea(), rec_run.fmea());
        prop_assert_eq!(noop_run.fta(), rec_run.fta());
        prop_assert_eq!(
            noop_run.monitor().map(|m| m.checks().len()),
            rec_run.monitor().map(|m| m.checks().len())
        );

        let report = sink.drain();
        let well_formed = report.check_well_formed();
        prop_assert!(well_formed.is_ok(), "trace violation: {:?}", well_formed);
        for pass in ["graph-fmea", "fta", "monitors", "hara", "assurance"] {
            prop_assert_eq!(report.span_count(&format!("pass:{pass}")), 1);
        }
        // Scheduler job spans always hang off an enclosing span — none of
        // them float free of the pass/phase tree.
        for span in &report.spans {
            if span.category == "scheduler" {
                prop_assert!(span.parent.is_some(), "job span `{}` has no parent", span.name);
            }
        }
    }
}

/// A drained sink starts over: the second identical run records hits
/// where the first recorded misses, in the same trace shape.
#[test]
fn drain_resets_and_warm_runs_record_hits() {
    let (model, top) = chain_model(4);
    let (telemetry, sink) = Telemetry::recording();
    let mut engine = Engine::builder().jobs(2).telemetry(telemetry).build().unwrap();

    engine.analyze_graph(&model, top).expect("cold run");
    let cold = sink.drain();
    assert_eq!(cold.counters.get("cache.graph-facts.misses").copied(), Some(1));
    assert_eq!(cold.counters.get("cache.graph-facts.hits").copied(), None);
    assert_eq!(cold.counters.get("scheduler.jobs").copied(), Some(1));

    engine.analyze_graph(&model, top).expect("warm run");
    let warm = sink.drain();
    assert_eq!(warm.counters.get("cache.graph-facts.hits").copied(), Some(1));
    assert_eq!(warm.counters.get("cache.graph-facts.misses").copied(), None);
    assert_eq!(warm.counters.get("scheduler.jobs").copied(), None, "a warm run schedules nothing");
    assert_eq!(warm.span_count("phase:graph-rows"), 1);
    warm.check_well_formed().expect("warm trace well-formed");
}
