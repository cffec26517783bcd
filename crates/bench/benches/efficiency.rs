//! Bench: the compute kernel behind Table V — the automated FMEA of
//! Systems A and B (what SAME executes while the manual analyst would be
//! reviewing spreadsheets), sequential and parallel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use decisive::core::fmea::injection::{self, InjectionConfig};
use decisive::core::mechanism::search;
use decisive::engine::Engine;
use decisive::workload::systems::{system_a, system_b};

fn bench_efficiency(c: &mut Criterion) {
    let subjects = [system_a(), system_b()];
    let mut group = c.benchmark_group("table5/automated_fmea");
    let config = InjectionConfig::default();
    for subject in &subjects {
        let id = format!("{}/threads=1", subject.name);
        group.bench_with_input(BenchmarkId::from_parameter(id), subject, |b, s| {
            b.iter(|| {
                injection::run(black_box(&s.diagram), black_box(&s.reliability), &config)
                    .expect("fmea")
            })
        });
        // The parallel sweep is the engine's injection pass; a cold engine
        // per iteration times the sweep, not the cache.
        let id = format!("{}/threads=4", subject.name);
        group.bench_with_input(BenchmarkId::from_parameter(id), subject, |b, s| {
            b.iter(|| {
                let mut engine = Engine::builder().jobs(4).build().expect("in-memory engine");
                engine
                    .analyze_injection(black_box(&s.diagram), black_box(&s.reliability), &config)
                    .expect("fmea")
            })
        });
    }
    group.finish();

    // The Step 4b search on each subject's real FMEA table.
    let mut group = c.benchmark_group("table5/mechanism_search");
    for subject in &subjects {
        let table =
            injection::run(&subject.diagram, &subject.reliability, &InjectionConfig::default())
                .expect("fmea");
        group.bench_with_input(BenchmarkId::from_parameter(&subject.name), &table, |b, t| {
            b.iter(|| search::greedy(black_box(t), black_box(&subject.catalog), 0.90))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_efficiency);
criterion_main!(benches);
