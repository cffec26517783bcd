//! Bench: telemetry overhead on the warm incremental path.
//!
//! The observability layer promises to be effectively free when nobody is
//! listening: with the default noop sink the only instrumentation cost is
//! one `enabled()` check per hook. This harness times warm `analyze_graph`
//! runs on a paper-scale chain on two engines, one with the noop sink and
//! one with a live recording sink, which keeps every span it records
//! until it is drained once, at the end. After priming both engines it
//! runs them in alternating pairs, switching which side goes first each
//! pair, so a drift in the host's speed reaches both sides alike. It prints
//! one `BENCH_obs {...}` JSON line with the relative overhead, the median
//! of the per-pair differences over the median noop run, and an
//! `overhead_ok` verdict (recording must stay within 5% of noop), which CI
//! greps.
//!
//! Plain `fn main` (`harness = false`): the median of paired differences
//! is stable enough for a pass/fail gate without Criterion's machinery.

use std::time::Instant;

use decisive::engine::Engine;
use decisive::federation::{json, Value};
use decisive::obs::Telemetry;
use decisive::ssam::architecture::Component;
use decisive::ssam::id::Idx;
use decisive::ssam::model::SsamModel;
use decisive::workload::sets::chain_model;

/// Set2 of the paper's scalability study, the smallest paper-scale set.
const CHAIN: usize = 456;
/// Warm noop/recording pairs; their median difference filters scheduler
/// and allocator noise.
const PAIRS: usize = 300;

/// The wall time of one warm run, in ms.
fn warm_ms(engine: &mut Engine, model: &SsamModel, top: Idx<Component>) -> f64 {
    let t = Instant::now();
    engine.analyze_graph(model, top).expect("warm run");
    t.elapsed().as_secs_f64() * 1e3
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn main() {
    let (model, top) = chain_model(CHAIN);

    let mut noop_engine = Engine::builder().jobs(4).build().expect("noop engine");
    let (telemetry, sink) = Telemetry::recording();
    let mut recording_engine =
        Engine::builder().jobs(4).telemetry(telemetry).build().expect("recording engine");
    noop_engine.analyze_graph(&model, top).expect("prime run");
    recording_engine.analyze_graph(&model, top).expect("prime run");

    let (mut noop_ms, mut recording_ms, mut differences) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let (noop, recording) = if pair % 2 == 0 {
            let noop = warm_ms(&mut noop_engine, &model, top);
            (noop, warm_ms(&mut recording_engine, &model, top))
        } else {
            let recording = warm_ms(&mut recording_engine, &model, top);
            (warm_ms(&mut noop_engine, &model, top), recording)
        };
        noop_ms.push(noop);
        recording_ms.push(recording);
        differences.push(recording - noop);
    }
    let report = sink.drain();

    let noop_median = median(noop_ms);
    let overhead_pct = median(differences) / noop_median * 100.0;
    let summary = Value::record([
        ("set", Value::from("chain456")),
        ("elements", Value::Int(model.element_count() as i64)),
        ("pairs", Value::Int(PAIRS as i64)),
        ("warm_noop_ms", Value::Real(noop_median)),
        ("warm_recording_ms", Value::Real(median(recording_ms))),
        ("recorded_spans", Value::Int(report.spans.len() as i64)),
        ("recorded_counters", Value::Int(report.counters.len() as i64)),
        ("overhead_pct", Value::Real(overhead_pct)),
        ("overhead_ok", Value::Bool(overhead_pct < 5.0)),
    ]);
    println!("BENCH_obs {}", json::to_string(&summary));
}
