//! Bench: the federation substrate — JSON/CSV parsing, EQL evaluation and
//! the serde bridge, at the sizes the FMEA pipeline actually pushes
//! through them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use decisive::assurance::report::FMEA_LOCATION;
use decisive::assurance::{pipeline_case, PipelineEvidence};
use decisive::core::case_study;
use decisive::core::fmea::graph::{self, GraphConfig};
use decisive::federation::{csv, eql, json, serde_bridge, DriverRegistry};
use decisive::ssam::base::IntegrityLevel;
use decisive::workload::sets::{instance_model, set_by_name};

fn reliability_csv(rows: usize) -> String {
    let mut text = String::from("Component,FIT,Failure_Mode,Distribution\n");
    for i in 0..rows {
        text.push_str(&format!("Part{i},{},Open,0.3\nPart{i},{},Short,0.7\n", i % 400, i % 400));
    }
    text
}

fn bench_federation(c: &mut Criterion) {
    // CSV parsing at spreadsheet sizes.
    let mut group = c.benchmark_group("federation/csv_parse");
    for rows in [10usize, 1_000, 10_000] {
        let text = reliability_csv(rows);
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &text, |b, text| {
            b.iter(|| csv::parse(black_box(text)).expect("parses"))
        });
    }
    group.finish();

    // EQL over a parsed table: the paper's stored SPFM-style query.
    let table = csv::parse(&reliability_csv(1_000)).expect("parses");
    let query = eql::Query::parse(
        "rows.select(r | r.Failure_Mode = 'Open').collect(r | r.FIT * r.Distribution).sum()",
    )
    .expect("parses");
    c.bench_function("federation/eql_select_collect_sum_1k", |b| {
        b.iter(|| query.eval(black_box(&table)).expect("evaluates"))
    });
    c.bench_function("federation/eql_parse", |b| {
        b.iter(|| {
            eql::Query::parse(black_box(
                "rows.select(r | r.Component = 'Diode' and r.FIT >= 10).collect(r | r.FIT).sum() / 325.0",
            ))
            .expect("parses")
        })
    });

    // The pipeline's SPFM evidence query (assurance case node Sn2) over a
    // Set3-sized FMEDA, evaluated in place by the memory driver.
    let set3 = set_by_name("Set3").expect("Set3");
    let (model, top) = instance_model(&set3, 3, 1);
    let fmeda = graph::run(&model, top, &GraphConfig::default()).expect("graph FMEA");
    assert_eq!(fmeda.rows.len(), 666);
    let evidence = PipelineEvidence {
        system: "set3",
        target: IntegrityLevel::AsilB,
        subtrees: &[],
        campaign: None,
    };
    let case = pipeline_case(&evidence).expect("case");
    let spfm = case
        .nodes()
        .find(|(_, node)| node.id == "Sn2")
        .and_then(|(_, node)| node.query.clone())
        .expect("Sn2 carries the SPFM query")
        .expression;
    let registry = DriverRegistry::with_defaults();
    registry.memory().register(FMEA_LOCATION, fmeda.to_value());
    c.bench_function("federation/eql_spfm_evidence_666_rows", |b| {
        b.iter(|| registry.extract("memory", FMEA_LOCATION, black_box(&spfm)).expect("evaluates"))
    });

    // The FMEA-table digest input the HARA and assurance keys hash, by
    // both routes: building a value then printing it, and streaming.
    c.bench_function("federation/table_json_via_value_666_rows", |b| {
        b.iter(|| json::to_string(&serde_bridge::to_value(black_box(&fmeda)).expect("serializes")))
    });
    c.bench_function("federation/table_json_streamed_666_rows", |b| {
        b.iter(|| serde_bridge::to_json_string(black_box(&fmeda)).expect("serializes"))
    });

    // JSON round trip of a realistic document.
    let doc = json::to_string(&table);
    c.bench_function("federation/json_parse_reliability_1k", |b| {
        b.iter(|| json::parse(black_box(&doc)).expect("parses"))
    });

    // The serde bridge on a full SSAM model (what persistence pays).
    let (model, _) = case_study::ssam_model();
    c.bench_function("federation/serde_bridge_model_to_value", |b| {
        b.iter(|| serde_bridge::to_value(black_box(&model)).expect("serializes"))
    });
    let value = serde_bridge::to_value(&model).expect("serializes");
    c.bench_function("federation/serde_bridge_value_to_model", |b| {
        b.iter(|| {
            let back: decisive::ssam::model::SsamModel =
                serde_bridge::from_value(black_box(&value)).expect("deserializes");
            back
        })
    });
}

criterion_group!(benches, bench_federation);
criterion_main!(benches);
