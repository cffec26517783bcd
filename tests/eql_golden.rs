//! EQL results pinned bit for bit: a corpus of queries — every query of
//! the evaluator's unit tests, the assurance queries the pipeline
//! generates, and edge cases of `distinct`, lambdas, errors and bindings —
//! run against a small reliability CSV, a generated Set3 FMEDA, a table
//! holding NaN and signed zeros, and a record. The digest folds each
//! result's JSON and `Debug` form, or its error text, and was recorded
//! with the evaluator that cloned every binding, so the borrowing one
//! must reproduce it exactly.

use decisive::core::fmea::graph::{self, GraphConfig};
use decisive::engine::fingerprint::Hasher;
use decisive::federation::eql::Query;
use decisive::federation::{csv, json, DriverRegistry, FederationError, Value};
use decisive::workload::sets::{instance_model, set_by_name};

/// The reliability table of the evaluator's unit tests.
fn test_csv() -> Value {
    csv::parse(
        "Component,FIT,Failure_Mode,Distribution\n\
         Diode,10,Open,0.3\n\
         Diode,10,Short,0.7\n\
         Capacitor,2,Open,0.3\n\
         Capacitor,2,Short,0.7\n\
         Inductor,15,Open,0.3\n\
         Inductor,15,Short,0.7\n\
         MC,300,RAM Failure,1.0\n",
    )
    .expect("fixture parses")
}

/// The graph FMEDA of a generated Set3 instance, in the form the
/// pipeline publishes to its assurance queries.
fn set3_fmeda() -> Value {
    let set3 = set_by_name("Set3").expect("Set3");
    let (model, top) = instance_model(&set3, 3, 1);
    graph::run(&model, top, &GraphConfig::default()).expect("graph FMEA").to_value()
}

/// Table data holding the values `distinct` and comparisons find hard:
/// NaN (twice), both zeros, an int and an equal real.
fn edge_table() -> Value {
    csv::parse("k,x\na,1\nb,1.0\nc,NaN\nd,-0.0\ne,0.0\nf,NaN\ng,0\nh,2.5\n")
        .expect("fixture parses")
}

/// A record model, for field and `get` access.
fn record() -> Value {
    Value::record([
        ("@fit", Value::Int(10)),
        ("name", Value::from("D1")),
        ("nested", Value::record([("a", Value::list([Value::Int(1), Value::Real(2.5)]))])),
        ("empty", Value::list([])),
    ])
}

/// The SPFM evidence query the pipeline generated before vacuous designs
/// were handled, at `target`.
fn old_spfm_query(target: f64) -> String {
    format!(
        "1.0 - rows.collect(r | r.Single_Point_Failure_Rate).sum() / \
         rows.select(r | r.Safety_Related = 'Yes').collect(r | [r.Component, r.FIT]).distinct() \
         .collect(p | p[1]).sum() >= {target}"
    )
}

/// The same metric with the denominator computed once and a vacuous
/// design (denominator 0) scoring 1.0.
fn guarded_spfm_query(target: f64) -> String {
    format!(
        "[rows.select(r | r.Safety_Related = 'Yes').collect(r | [r.Component, r.FIT]).distinct() \
         .collect(p | p[1]).sum()].collect(d | if d = 0 then 1.0 else \
         1.0 - rows.collect(r | r.Single_Point_Failure_Rate).sum() / d endif).first() >= {target}"
    )
}

fn corpus() -> Vec<String> {
    let mut queries: Vec<String> = [
        // The evaluator's unit tests.
        "1 + 2 * 3",
        "(1 + 2) * 3",
        "10 / 4",
        "-3 + 1",
        "'a' + 'b'",
        "1 < 2 and 2 <= 2",
        "1 = 1.0",
        "'a' <> 'b'",
        "not (1 > 2) or false",
        "'abc' < 'abd'",
        "false and bogus",
        "true or bogus",
        "rows.select(r | r.Component = 'Diode').collect(r | r.FIT).sum()",
        "1.0 - rows.select(r | r.Failure_Mode = 'Open').collect(r | r.FIT * r.Distribution).sum() \
         / rows.collect(r | r.FIT * r.Distribution).sum()",
        "rows.size()",
        "rows.first().Component",
        "rows.last().FIT",
        "rows.at(2).Component",
        "rows.collect(r | r.FIT).includes(300)",
        "rows.isEmpty()",
        "rows.exists(r | r.FIT > 100)",
        "rows.forAll(r | r.FIT > 0)",
        "rows.count(r | r.Failure_Mode = 'Open')",
        "rows.collect(r | r.Component).distinct().size()",
        "rows.sortBy(r | r.FIT).first().Component",
        "rows.collect(r | r.FIT).max()",
        "rows.collect(r | r.FIT).min()",
        "rows.collect(r | r.Distribution).avg()",
        "rows.sortBy(r | r.k).collect(r | r.id)",
        "rows.sortBy(r | r.x).collect(r | r.k)",
        "rows.first().has('FIT')",
        "rows.first().get('nope')",
        "rows.first().keys().size()",
        "'30%'.toNumber()",
        "'Open'.toLower()",
        "'RAM Failure'.contains('RAM')",
        "' x '.trim().length()",
        "(0 - 2.5).abs()",
        "2.4.round()",
        "[1, 2, 3].sum()",
        "[[1,2],[3]].flatten().size()",
        "[1,2,3][1]",
        "[[1,2],[3,4]].collect(x | x.collect(x | x * 10)).flatten().sum()",
        "bogus",
        "1 / 0",
        "rows.first().Nope",
        "'x'.noSuchMethod()",
        "[1].at(5)",
        "1 +",
        "(1",
        "1 2",
        "target * fit",
        "if 1 < 2 then 'yes' else 'no' endif",
        "if false then 1 else 2 endif",
        "if true then 7 else (1 / 0) endif",
        "[0.05, 0.92, 0.98].collect(s | if s >= 0.97 then 'ASIL-C' else if s >= 0.9 then 'ASIL-B' \
         else 'below' endif endif)",
        "if 1 then 2 endif",
        "model['@fit']",
        "model['missing']",
        "null.isDefined()",
        "1.isDefined()",
        // The other generated assurance queries.
        "rows.select(r | r.Analysable = 'Yes').size() >= 1",
        "rows.exists(c | c.Unsolvable <= 0 and c.Panicked <= 0)",
        "rows.exists(r | r.Component = 'c0' and r.Failure_Mode = 'Open' and r.Safety_Mechanism = 'No SM')",
        "rows.collect(r | r.Single_Point_Failure_Rate).sum()",
        "rows.select(r | r.Safety_Related = 'Yes').collect(r | [r.Component, r.FIT]).distinct()",
        "rows.count(r | r.Safety_Related = 'Yes')",
        // distinct: `1 = 1.0` only at top level, NaN never equal, both zeros equal.
        "[1, 1.0, '1', [1], [1.0], 0.0, -0.0, 0, '1', [1], [1.0], 1].distinct()",
        "[[1, 1.0], [1.0, 1], [1, 1.0], ['a', null], ['a', null], [true], [false]].distinct()",
        "rows.collect(r | r.x).distinct()",
        "rows.collect(r | [r.x]).distinct()",
        "[rows.collect(r | r.x), [1, 1.0, '1', [1], [1.0], 0.0, -0.0]].flatten().distinct()",
        "rows.collect(r | r.x).distinct().size()",
        "rows.distinct().size()",
        "rows.collect(r | r.x).includes(0)",
        "rows.select(r | r.x = r.x).collect(r | r.k)",
        "rows.collect(r | r.x = 0)",
        "rows.collect(r | r.FIT).distinct()",
        "rows.collect(r | r.Component).distinct()",
        "[model, model].distinct().size()",
        "[].distinct()",
        // Nested and shadowed lambdas.
        "rows.collect(r | rows.count(s | s.FIT = r.FIT))",
        "rows.collect(r | [1, 2].collect(r | r * 2)).flatten().sum()",
        "rows.select(r | rows.exists(r | r.FIT > 100)).size()",
        "[1, 2].collect(x | [10, 20].collect(y | x * y)).flatten()",
        "[1, 2].collect(x | [3].collect(x | x)).flatten()",
        "[[1], [2, 3]].collect(l | l.collect(x | x + l.size()))",
        "[1, 2, 3].select(x | x > 1).collect(y | x)",
        "[1, 2].collect(model | model + 1)",
        "[1, 2].collect(rows | rows * 3)",
        "rows.collect(r | r).size()",
        // Unknown variables.
        "nope + 1",
        "rows.collect(r | q)",
        "[1].collect(x | y)",
        "self.size()",
        "model = self",
        // Errors raised inside lambdas.
        "[1, 0].collect(x | 1 / x)",
        "[1, 2].select(x | x.nope())",
        "rows.collect(r | r.Nope)",
        "['a', 1].sortBy(s | s + 1)",
        "[1, 'a'].sum()",
        "[1, 'a'].max()",
        "['a'].avg()",
        "[[1]].collect(l | l.at(3))",
        "[1].select(x)",
        "[1].collect(x | x, y | y)",
        "[1].size(2)",
        // first, last and at on empty lists and out of range.
        "[].first()",
        "[].last()",
        "[].at(0)",
        "[1, 2].at(2)",
        "[1, 2].at(0 - 1)",
        "[1, 2].at('0')",
        "[1, 2].at(1.0)",
        "[1, 2][5]",
        "[1, 2][0 - 1]",
        "[1, 2]['a']",
        "[].first().isDefined()",
        "rows.at(rows.size() - 1)",
        "rows.last()",
        "rows.first()",
        "[[1, 2], [3]].first().last()",
        // Record `get` and `values`.
        "model.get('name')",
        "model.get('missing')",
        "model.get(1)",
        "model.values()",
        "model.values().size()",
        "model.keys()",
        "model.nested.a",
        "model.nested.get('a').at(1)",
        "model.nested['a'][0]",
        "model.nested.values().flatten()",
        "model.empty.first()",
        "rows.first().values()",
        "rows.first().get('FIT')",
        "rows.collect(r | r.get('FIT'))",
        "rows.collect(r | r.values().size()).sum()",
        "model.has('name')",
        "model.name.length()",
        "model.name.get('x')",
        "model['name'].toLower()",
        "model.asString()",
        "rows.first().asString()",
        "[1, [2, 'x'], null, 2.5].asString()",
        "rows.sortBy(r | r.Component).collect(r | r.Component)",
        "rows.sortBy(r | [r.Component]).collect(r | r.FIT)",
        "rows.collect(r | r.FIT).flatten()",
        "'a'.first()",
        "model.select(x | x)",
        "rows.reject(r | r.FIT > 5).collect(r | r.Component)",
        "rows.collect(r | r.FIT).round()",
        "(0 - 2.5).round()",
        "2.5.floor() + 2.5.ceil()",
        "-(1 = 1)",
        "'a' * 2",
        "'b' > 1",
    ]
    .into_iter()
    .map(str::to_owned)
    .collect();
    for target in [0.0, 0.9, 0.97, 0.99] {
        queries.push(old_spfm_query(target));
        queries.push(guarded_spfm_query(target));
    }
    queries
}

/// The digest of a run, with one line per outcome to show on a mismatch.
#[derive(Default)]
struct Golden {
    h: Hasher,
    lines: Vec<String>,
}

impl Golden {
    /// Folds one outcome in: the result's JSON and `Debug` form, or the
    /// error text.
    fn fold(&mut self, label: &str, outcome: &Result<Value, FederationError>) {
        self.h.write_str(label);
        let line = match outcome {
            Ok(v) => {
                let (text, debug) = (json::to_string(v), format!("{v:?}"));
                self.h.write_str("ok").write_str(&text).write_str(&debug);
                format!("ok {text} {debug}")
            }
            Err(e) => {
                self.h.write_str("err").write_str(&e.to_string());
                format!("err {e}")
            }
        };
        self.lines.push(format!("{label} => {line}"));
    }
}

#[test]
fn eql_results_match_the_recorded_digest() {
    let datasets = [
        ("test-csv", test_csv()),
        ("set3-fmeda", set3_fmeda()),
        ("edge-table", edge_table()),
        ("record", record()),
    ];
    let mut golden = Golden::default();
    for query in corpus() {
        for (name, data) in &datasets {
            let outcome = Query::parse(&query).and_then(|q| q.eval(data));
            golden.fold(&format!("{name} {query}"), &outcome);
        }
    }

    // `eval_with`: explicit bindings, a rebound `rows`, and a name bound
    // twice (the later binding wins).
    let with = [
        ("target * fit", vec![("target", Value::Real(0.9)), ("fit", Value::Int(10))]),
        ("rows.size()", vec![("rows", edge_table()), ("model", test_csv())]),
        ("rows.size() + model.size()", vec![("rows", edge_table()), ("model", test_csv())]),
        ("rows.first().k", vec![("rows", test_csv()), ("rows", edge_table())]),
        ("rows.collect(r | r.x).distinct()", vec![("rows", edge_table())]),
        ("rows.collect(rows | rows.k)", vec![("rows", edge_table())]),
        ("self", vec![("rows", edge_table())]),
        ("x.collect(y | y * k)", vec![("x", Value::list([Value::Int(1)])), ("k", Value::Int(3))]),
    ];
    for (query, bindings) in with {
        let outcome = Query::parse(query).and_then(|q| q.eval_with(bindings));
        golden.fold(&format!("with {query}"), &outcome);
    }

    // Registry extraction: which failure wins when several apply.
    let registry = DriverRegistry::with_defaults();
    registry.memory().register("fmeda", set3_fmeda());
    for (kind, location, query) in [
        ("memory", "fmeda", "rows.size()"),
        ("memory", "fmeda", &*old_spfm_query(0.9)),
        ("memory", "fmeda", &*guarded_spfm_query(0.9)),
        ("memory", "fmeda", "rows.first().Component"),
        ("memory", "fmeda", "1 +"),
        ("memory", "missing", "1 +"),
        ("memory", "missing", "rows.size()"),
        ("simulink", "fmeda", "1 +"),
        ("csv", "/definitely/not/here.csv", "1 +"),
    ] {
        let outcome = registry.extract(kind, location, query);
        golden.fold(&format!("extract {kind} {location} {query}"), &outcome);
    }
    let digest = golden.h.finish().to_string();
    if digest != "ffdb9f97d3eac9e2" {
        for line in &golden.lines {
            eprintln!("{line}");
        }
    }
    assert_eq!(digest, "ffdb9f97d3eac9e2");
}
