//! `decisive-bench compare`: the parent's runs against a change's, one
//! row per workload × end-to-end metric, judged against the bounds in
//! `BENCHMARK.json`, plus the paired-win test for a claimed gain.

use std::collections::BTreeMap;

use decisive::federation::{json, Value};

use crate::stats;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the end-to-end metrics of a `BENCHMARK.json` document.
pub fn metric_specs(benchmark: &str) -> Result<Vec<MetricSpec>, String> {
    let value = json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = value.get("end_to_end").and_then(Value::as_list).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_owned);
            Ok(MetricSpec {
                name: text("name").ok_or("metric without a name")?,
                unit: text("unit").unwrap_or_default(),
                lower_is_better: text("better").as_deref() == Some("lower"),
                bound: m.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// What makes two runs comparable: the same workload, input seed and
/// run length.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RunKey {
    /// Workload.
    pub workload: String,
    /// Input seed.
    pub seed: i64,
    /// `--seconds`, as recorded.
    pub seconds: String,
}

/// Untraced runs of one record file: run key → metric → values, in file
/// order.
pub type Runs = BTreeMap<RunKey, BTreeMap<String, Vec<f64>>>;

/// Parses a run-record file (one JSON record per line); traced runs and
/// runs that failed their oracles are skipped.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if record.get("trace").and_then(Value::as_bool) == Some(true)
            || record.get("correct").and_then(Value::as_bool) != Some(true)
        {
            continue;
        }
        let field = |k: &str| record.get(k).ok_or(format!("line {}: record without {k}", n + 1));
        let key = RunKey {
            workload: field("workload")?.as_str().unwrap_or_default().to_owned(),
            seed: field("seed")?.as_i64().ok_or(format!("line {}: seed", n + 1))?,
            seconds: json::to_string(field("seconds")?),
        };
        let Value::Record(metrics) = field("metrics")? else {
            return Err(format!("line {}: metrics is not an object", n + 1));
        };
        let entry = runs.entry(key).or_default();
        for (name, value) in metrics {
            if let Some(v) = value.as_f64() {
                entry.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// How a change's runs compare with the parent's on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the parent by more than the bound, or every change run
    /// better than every parent run.
    Better,
    /// Worse than the parent by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// The run-to-run spread of either side exceeds the bound.
    Unresolved,
}

/// One compared run key × metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload, seed and run length.
    pub key: RunKey,
    /// Metric.
    pub metric: String,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Signed change of the median as a share of the parent's, positive
    /// when better.
    pub gain: f64,
    /// Larger of the two sides' interquartile range over median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn better(spec: &MetricSpec, a: f64, b: f64) -> bool {
    if spec.lower_is_better {
        a < b
    } else {
        a > b
    }
}

/// Compares one metric's parent and change values.
pub fn judge(
    spec: &MetricSpec,
    parent: &[f64],
    change: &[f64],
) -> Option<(f64, f64, f64, f64, Verdict)> {
    let p = stats::median(parent)?;
    let c = stats::median(change)?;
    let spread = stats::relative_spread(parent)
        .unwrap_or(0.0)
        .max(stats::relative_spread(change).unwrap_or(0.0));
    let gain = if p == 0.0 {
        0.0
    } else if spec.lower_is_better {
        (p - c) / p
    } else {
        (c - p) / p
    };
    let all_better = change.iter().all(|&cv| parent.iter().all(|&pv| better(spec, cv, pv)));
    let verdict = if all_better && gain > 0.0 {
        Verdict::Better
    } else if spread > spec.bound {
        Verdict::Unresolved
    } else if gain < -spec.bound {
        Verdict::Worse
    } else if gain > spec.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    Some((p, c, gain, spread, verdict))
}

/// Every run key × metric row present on both sides.
pub fn compare(specs: &[MetricSpec], parent: &Runs, change: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for (key, parent_metrics) in parent {
        let Some(change_metrics) = change.get(key) else { continue };
        for spec in specs {
            let (Some(pv), Some(cv)) =
                (parent_metrics.get(&spec.name), change_metrics.get(&spec.name))
            else {
                continue;
            };
            if let Some((p, c, gain, spread, verdict)) = judge(spec, pv, cv) {
                rows.push(Row {
                    key: key.clone(),
                    metric: spec.name.clone(),
                    parent: p,
                    change: c,
                    gain,
                    spread,
                    verdict,
                });
            }
        }
    }
    rows
}

/// The outcome of a claimed gain.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimResult {
    /// Pairs run.
    pub pairs: usize,
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    /// Median difference in the better direction, in the metric's unit.
    pub median_gain: f64,
    /// The parent's interquartile range.
    pub parent_iqr: f64,
    /// Whether the claim holds: at least ten pairs, at least nine tenths
    /// won, and a median gain larger than the parent's IQR.
    pub met: bool,
}

/// Judges a claim on paired runs of one run key: the i-th parent run
/// against the i-th change run.
pub fn claim(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> Option<ClaimResult> {
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(&p, &c)| better(spec, c, p)).count();
    let (q1, q3) = stats::quartiles(parent)?;
    let (p, c) = (stats::median(parent)?, stats::median(change)?);
    let median_gain = if spec.lower_is_better { p - c } else { c - p };
    let parent_iqr = q3 - q1;
    let met = pairs >= 10 && wins * 10 >= pairs * 9 && median_gain > parent_iqr;
    Some(ClaimResult { pairs, wins, median_gain, parent_iqr, met })
}

/// Runs the subcommand on file contents; returns the printed report and
/// whether it passes: no row `Worse` or `Unresolved`, and every claim met
/// on every seed both sides ran.
pub fn run(
    benchmark: &str,
    parent: &str,
    change: &str,
    claims: &[String],
) -> Result<(String, bool), String> {
    let specs = metric_specs(benchmark)?;
    let (parent, change) = (parse_runs(parent)?, parse_runs(change)?);
    let rows = compare(&specs, &parent, &change);
    let mut out = String::from(
        "workload      seed seconds metric              parent       change       gain     spread  verdict\n",
    );
    let mut pass = true;
    for row in &rows {
        pass &= matches!(row.verdict, Verdict::Better | Verdict::Unchanged);
        out.push_str(&format!(
            "{:<13} {:>4} {:>7} {:<18} {:>12.4} {:>12.4} {:>+8.2}% {:>7.2}%  {:?}\n",
            row.key.workload,
            row.key.seed,
            row.key.seconds,
            row.metric,
            row.parent,
            row.change,
            row.gain * 100.0,
            row.spread * 100.0,
            row.verdict
        ));
    }
    if rows.iter().any(|r| r.verdict == Verdict::Unresolved) {
        out.push_str(
            "unresolved rows: the spread exceeds the bound; they do not show \"no regression\"\n",
        );
    }
    for text in claims {
        let (metric, workload) =
            text.split_once('@').ok_or_else(|| format!("claim `{text}` is not metric@workload"))?;
        let spec = specs
            .iter()
            .find(|s| s.name == metric)
            .ok_or_else(|| format!("unknown metric `{metric}`"))?;
        let keys: Vec<&RunKey> =
            parent.keys().filter(|k| k.workload == workload && change.contains_key(k)).collect();
        if keys.is_empty() {
            return Err(format!("claim `{text}`: no seed with runs on both sides"));
        }
        for key in keys {
            let values = |runs: &Runs| {
                runs.get(key).and_then(|m| m.get(metric)).cloned().unwrap_or_default()
            };
            let Some(result) = claim(spec, &values(&parent), &values(&change)) else {
                return Err(format!("claim `{text}`: no `{metric}` values for seed {}", key.seed));
            };
            pass &= result.met;
            out.push_str(&format!(
                "claim {text} seed {}: {} — {}/{} pairs won, median gain {:.4} {} vs parent IQR {:.4}\n",
                key.seed,
                if result.met { "met" } else { "NOT met" },
                result.wins,
                result.pairs,
                result.median_gain,
                spec.unit,
                result.parent_iqr
            ));
        }
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "latency_ms_p50".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let spec = latency(0.10);
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // A clear win: every change run beats every parent run.
        let win = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(judge(&spec, &parent, &win).unwrap().4, Verdict::Better);
        // A tie within the bound.
        let tie = [101.0, 100.0, 102.0, 99.0, 100.5];
        assert_eq!(judge(&spec, &parent, &tie).unwrap().4, Verdict::Unchanged);
        // A clear regression.
        let slow = [130.0, 131.0, 129.0, 130.5, 129.5];
        assert_eq!(judge(&spec, &parent, &slow).unwrap().4, Verdict::Worse);
        // A spread wider than the bound, with overlapping runs.
        let wild = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&spec, &parent, &wild).unwrap().4, Verdict::Unresolved);
        // Higher-is-better metrics flip the direction.
        let rate = MetricSpec { lower_is_better: false, ..latency(0.10) };
        assert_eq!(judge(&rate, &parent, &win).unwrap().4, Verdict::Worse);
    }

    #[test]
    fn claims_need_nine_tenths_of_pairs_and_a_gain_beyond_the_parent_iqr() {
        let spec = latency(0.10);
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 10.0).collect();
        assert!(claim(&spec, &parent, &change).unwrap().met);
        let mut mixed = change.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert!(!claim(&spec, &parent, &mixed).unwrap().met, "8/10 wins is not enough");
        let small: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        assert!(!claim(&spec, &parent, &small).unwrap().met, "gain inside the parent IQR");
        assert!(!claim(&spec, &parent[..5], &change[..5]).unwrap().met, "too few pairs");
    }

    fn record(workload: &str, seed: i64, trace: bool, correct: bool, p50: f64) -> String {
        format!(
            r#"{{"workload":"{workload}","seed":{seed},"seconds":20.0,"trace":{trace},"correct":{correct},"metrics":{{"latency_ms_p50":{p50}}}}}"#
        )
    }

    #[test]
    fn records_round_trip_through_the_parser() {
        let text = [
            record("montecarlo", 1, false, true, 5.0),
            record("montecarlo", 1, true, true, 9.0),
            record("montecarlo", 1, false, false, 9.0),
        ]
        .join("\n");
        let runs = parse_runs(&text).unwrap();
        let key = RunKey { workload: "montecarlo".into(), seed: 1, seconds: "20.0".into() };
        assert_eq!(runs[&key]["latency_ms_p50"], vec![5.0]);
    }

    #[test]
    fn seeds_are_compared_and_paired_apart() {
        let benchmark = r#"{"end_to_end":[{"name":"latency_ms_p50","unit":"ms","better":"lower","bound":0.1}]}"#;
        // Seed 2's inputs cost twice as much as seed 1's; the change is
        // 10 % faster on both. Mixed together, the medians and spreads
        // would blend two populations and pairs would cross seeds.
        let mut parent = Vec::new();
        let mut change = Vec::new();
        for i in 0..10 {
            let jitter = f64::from(i % 3) * 0.2;
            for (seed, base) in [(1, 100.0), (2, 200.0)] {
                parent.push(record("montecarlo", seed, false, true, base + jitter));
                change.push(record("montecarlo", seed, false, true, 0.9 * base + jitter));
            }
        }
        let (parent, change) = (parent.join("\n"), change.join("\n"));
        let runs = parse_runs(&parent).unwrap();
        assert_eq!(runs.len(), 2, "one entry per seed");
        let (text, pass) =
            run(benchmark, &parent, &change, &["latency_ms_p50@montecarlo".into()]).unwrap();
        assert!(pass, "{text}");
        assert_eq!(text.matches("claim latency_ms_p50@montecarlo seed").count(), 2, "{text}");
        assert!(text.contains("seed 1: met — 10/10"), "{text}");
        assert!(text.contains("seed 2: met — 10/10"), "{text}");
    }

    #[test]
    fn an_unresolved_row_fails_the_check() {
        let benchmark = r#"{"end_to_end":[{"name":"latency_ms_p50","unit":"ms","better":"lower","bound":0.1}]}"#;
        let side = |values: &[f64]| {
            values
                .iter()
                .map(|&v| record("serve-mixed", 1, false, true, v))
                .collect::<Vec<_>>()
                .join("\n")
        };
        // A regression of the median hidden in a spread wider than the bound.
        let parent = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let change = side(&[60.0, 160.0, 130.0, 70.0, 150.0]);
        let (text, pass) = run(benchmark, &parent, &change, &[]).unwrap();
        assert!(text.contains("Unresolved"), "{text}");
        assert!(!pass, "an unresolved row must not count as no regression");
        let (_, pass) = run(benchmark, &parent, &parent, &[]).unwrap();
        assert!(pass);
    }
}
