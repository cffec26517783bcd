//! What a run prints and records: the metric catalogue, the one-line
//! result, and the run record appended to `e2ebench/out/runs.jsonl`.

use std::collections::BTreeMap;

use decisive::federation::{json, Value};

use crate::stats;

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
/// Each workload has one timed operation (an edit step, a sweep, a
/// campaign, a request), and the same five metrics describe it:
///
/// - `latency_ms_p50` — nearest-rank median of the operation's latency
///   (open loop: timed from when it was due, at the low rate). Tail
///   percentiles go to the run record with their sample counts;
/// - `throughput_per_s` — work per second: edit steps, models, trials, or
///   closed-loop requests;
/// - `cpu_ms_per_op` — CPU time (user plus system, all program processes)
///   per timed operation: the cost a user pays in machine time, and much
///   less sensitive than wall time to what else the host runs;
/// - `setup_s` — median of the run's repeated set-ups (inputs, daemon
///   start, priming, warm-up), before the first timed operation;
/// - `peak_rss_mb` — largest resident set of any spawned program process.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The layers of the self-time split, one per crate the replay calls
/// into, plus `bench` for the harness's own work inside a request.
pub const LAYERS: [&str; 11] = [
    "blocks",
    "circuit",
    "core",
    "fta",
    "hara",
    "assurance",
    "engine",
    "serve",
    "fleet",
    "federation",
    "bench",
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run. Each
/// comes from the workload's own replay: a median per call (per
/// operation, for counts), or the self-time split. A call the workload's
/// replay never makes reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("circuit.dc_ms", "ms"),
    ("circuit.solves", "count"),
    ("circuit.newton_iters", "count"),
    ("circuit.factor_reuse_ratio", "ratio"),
    ("circuit.recovered", "count"),
    ("core.campaign_ms", "ms"),
    ("core.cases", "count"),
    ("core.mc_trial_ms", "ms"),
    ("core.graph_fmea_ms", "ms"),
    ("fta.subtrees_ms", "ms"),
    ("hara.assess_ms", "ms"),
    ("assurance.eval_ms", "ms"),
    ("engine.open_ms", "ms"),
    ("engine.sync_ms", "ms"),
    ("engine.store_bytes", "bytes"),
    ("engine.pipeline_ms", "ms"),
    ("engine.montecarlo_ms", "ms"),
    ("engine.hit_ratio", "ratio"),
    ("engine.jobs_executed", "count"),
    ("federation.csv_parse_ms", "ms"),
    ("blocks.parse_ms", "ms"),
    ("blocks.to_ssam_ms", "ms"),
    ("serve.json_out_ms", "ms"),
    ("serve.response_bytes_p50", "bytes"),
    ("serve.response_bytes_max", "bytes"),
    ("serve.handle_ms.pipeline_warm", "ms"),
    ("serve.handle_ms.pipeline_edit", "ms"),
    ("serve.handle_ms.analyze", "ms"),
    ("serve.handle_ms.recommend", "ms"),
    ("serve.handle_ms.status", "ms"),
    ("fleet.sweep_ms", "ms"),
    ("fleet.model_ms_p50", "ms"),
    ("fleet.overhead_ms_per_model", "ms"),
    ("fleet.journal_bytes", "bytes"),
    ("self_pct.blocks", "%"),
    ("self_pct.circuit", "%"),
    ("self_pct.core", "%"),
    ("self_pct.fta", "%"),
    ("self_pct.hara", "%"),
    ("self_pct.assurance", "%"),
    ("self_pct.engine", "%"),
    ("self_pct.serve", "%"),
    ("self_pct.fleet", "%"),
    ("self_pct.federation", "%"),
    ("self_pct.bench", "%"),
    ("replay.layer_sum_pct", "%"),
    ("replay.overhead_pct", "%"),
];

/// The outcome of one run: counts, metrics and record-only details.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (timed operations, or replayed ones).
    pub attempted: u64,
    /// Operations that failed or whose output an oracle rejected.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Extra facts for the run record (sample counts, rates, lateness).
    pub details: Vec<(String, Value)>,
}

impl Report {
    /// Counts one failed operation.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        let message = message.into();
        eprintln!("# error: {message}");
        self.errors.push(message);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Adds a record-only detail.
    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.push((key.to_owned(), value));
    }

    /// Sets the median latency from `samples_ms`, and records the sample
    /// count and the tail percentiles with how many samples lie beyond
    /// each.
    pub fn latencies(&mut self, samples_ms: &[f64]) {
        self.set("latency_ms_p50", stats::percentile(samples_ms, 50.0).unwrap_or(0.0));
        self.detail("latency_samples", Value::Int(samples_ms.len() as i64));
        for p in [90.0, 95.0] {
            let value = stats::percentile(samples_ms, p).unwrap_or(0.0);
            self.detail(&format!("latency_ms_p{p}"), Value::Real(value));
            let beyond = stats::samples_beyond(p, samples_ms.len()) as i64;
            self.detail(&format!("latency_p{p}_samples_beyond"), Value::Int(beyond));
        }
    }

    /// The metrics a run prints: the end-to-end catalogue untraced, the
    /// per-layer one traced; a metric the run did not set reads 0.
    fn printed(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        catalogue
            .iter()
            .map(|&(name, unit)| (name, unit, self.metrics.get(name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The last line of standard output.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = self
            .printed(traced)
            .into_iter()
            .map(|(name, unit, value)| {
                (name, Value::record([("value", Value::Real(value)), ("unit", Value::from(unit))]))
            })
            .collect::<Vec<_>>();
        json::to_string(&Value::record([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", Value::record(metrics)),
        ]))
    }

    /// The run record: the result plus workload, seed, machine and
    /// details, one JSON line.
    pub fn record_line(&self, head: Vec<(&str, Value)>, traced: bool) -> String {
        let mut fields: Vec<(String, Value)> =
            head.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        fields.push(("correct".into(), Value::Bool(self.failed == 0)));
        fields.push(("attempted".into(), Value::Int(self.attempted as i64)));
        fields.push(("failed".into(), Value::Int(self.failed as i64)));
        let metrics = self.printed(traced).into_iter().map(|(name, _, v)| (name, Value::Real(v)));
        fields.push(("metrics".into(), Value::record(metrics)));
        fields.push(("details".into(), Value::Record(self.details.clone())));
        fields.push((
            "errors".into(),
            Value::list(self.errors.iter().map(|e| Value::from(e.as_str()))),
        ));
        json::to_string(&Value::Record(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(benchmark: &Value, key: &str) -> Vec<(String, String)> {
        let list = benchmark.get(key).and_then(Value::as_list).expect("list in BENCHMARK.json");
        list.iter()
            .map(|m| {
                let text =
                    |k: &str| m.get(k).and_then(Value::as_str).unwrap_or_default().to_owned();
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_runs_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to e2ebench/");
        let benchmark = json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |c: &[(&str, &str)]| {
            c.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect::<Vec<_>>()
        };
        assert_eq!(listed(&benchmark, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&benchmark, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> =
            listed(&benchmark, "workloads").into_iter().map(|(name, _)| name).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let traced = Report::default().result_line(true);
        assert!(traced.contains("\"self_pct.bench\":{\"value\":0.0,\"unit\":\"%\"}"), "{traced}");
    }
}
