//! Bench: the incremental engine against from-scratch re-analysis on the
//! paper's scalability sets — cold cache, warm cache, and the realistic
//! "one component edited between iterations" case, plus worker scaling.
//!
//! Besides the Criterion groups, the run prints a single
//! `BENCH_incremental … ` JSON line with one-shot wall times, convenient
//! for dropping into `BENCH_incremental.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use decisive::engine::{Engine, EngineConfig};
use decisive::federation::{json, Value};
use decisive::ssam::architecture::Fit;
use decisive::ssam::model::SsamModel;
use decisive::workload::sets::chain_model;

/// Set2 and Set3 of the paper's scalability study (§VI-B), as chains of
/// equivalent element count (1369 and 5689 model elements).
const SETS: [(&str, usize); 2] = [("set2", 456), ("set3", 1896)];

fn edited_copy(
    n: usize,
) -> (SsamModel, decisive::ssam::id::Idx<decisive::ssam::architecture::Component>) {
    let (mut model, top) = chain_model(n);
    let mid = model.component_by_name(&format!("c{}", n / 2)).expect("mid component");
    model.components[mid].fit = Some(Fit::new(99.0));
    (model, top)
}

fn bench_incremental(c: &mut Criterion) {
    for (label, n) in SETS {
        let (model, top) = chain_model(n);
        let (edited, edited_top) = edited_copy(n);

        let mut group = c.benchmark_group(&format!("incremental/{label}"));
        group.bench_function("cold", |b| {
            b.iter(|| {
                Engine::new(EngineConfig::with_jobs(4))
                    .analyze_graph(black_box(&model), top)
                    .expect("cold analysis")
            })
        });
        group.bench_function("warm", |b| {
            let mut engine = Engine::new(EngineConfig::with_jobs(4));
            engine.analyze_graph(&model, top).expect("prime");
            b.iter(|| engine.analyze_graph(black_box(&model), top).expect("warm analysis"))
        });
        group.bench_function("one_edit_rerun", |b| {
            let mut engine = Engine::new(EngineConfig::with_jobs(4));
            engine.analyze_graph(&model, top).expect("prime");
            b.iter(|| {
                engine
                    .rerun(black_box(&model), black_box(&edited), edited_top)
                    .expect("incremental rerun")
            })
        });
        group.finish();

        let mut group = c.benchmark_group(&format!("incremental/{label}/scaling"));
        for jobs in [1usize, 2, 4, 8] {
            group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
                b.iter(|| {
                    Engine::new(EngineConfig::with_jobs(jobs))
                        .analyze_graph(black_box(&model), top)
                        .expect("scaling analysis")
                })
            });
        }
        group.finish();
    }

    print_summary();
}

/// One-shot wall times in a machine-readable line (BENCH_incremental.json).
fn print_summary() {
    let mut sets = Vec::new();
    for (label, n) in SETS {
        let (model, top) = chain_model(n);
        let (edited, edited_top) = edited_copy(n);

        let t = Instant::now();
        let mut engine = Engine::new(EngineConfig::with_jobs(4));
        engine.analyze_graph(&model, top).expect("cold");
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        engine.analyze_graph(&model, top).expect("warm");
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        engine.rerun(&model, &edited, edited_top).expect("rerun");
        let rerun_ms = t.elapsed().as_secs_f64() * 1e3;

        // Rows are computed on every run; the store-backed work a FIT
        // edit re-runs is the container facts, none of them.
        let facts = engine.stats().phase("graph-facts").expect("facts phase");
        sets.push(Value::record([
            ("set", Value::from(label)),
            ("elements", Value::Int(model.element_count() as i64)),
            ("cold_ms", Value::Real(cold_ms)),
            ("warm_ms", Value::Real(warm_ms)),
            ("one_edit_rerun_ms", Value::Real(rerun_ms)),
            ("rerun_facts_jobs_executed", Value::Int(facts.jobs_executed as i64)),
            ("rerun_facts_jobs_total", Value::Int(facts.jobs_total as i64)),
        ]));
    }
    println!("BENCH_incremental {}", json::to_string(&Value::List(sets)));
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
