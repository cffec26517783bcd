//! End-to-end tests of `decisive serve` as a spawned process: the exit-code
//! contract (0 success, 1 failure, 2 usage), the stdio protocol loop,
//! serve-versus-CLI result identity, SIGINT trace flushing, the CLI
//! pipeline's FTA output on the brownout design, and the table files
//! `decisive analyze` writes.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use decisive::federation::{json, Value};

fn decisive_bin() -> &'static str {
    env!("CARGO_BIN_EXE_decisive")
}

fn data(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../data").join(file)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decisive-serve-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(decisive_bin()).args(args).output().expect("decisive spawns")
}

#[test]
fn unknown_verb_is_a_usage_error() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn serve_misuse_is_a_usage_error() {
    for (case, args) in [
        ("unknown flag", vec!["serve", "--bogus"]),
        ("positional", vec!["serve", "model.bd"]),
        ("dangling value flag", vec!["serve", "--socket"]),
        ("socket and watch together", vec!["serve", "--socket", "/tmp/x", "--watch", "m.bd"]),
        ("poll-ms without watch", vec!["serve", "--poll-ms", "100"]),
        ("bad poll-ms", vec!["serve", "--watch", "m.bd", "--poll-ms", "zero"]),
        ("bad jobs", vec!["serve", "--jobs", "0"]),
    ] {
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{case}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage error"),
            "{case} names the misuse"
        );
    }
}

#[test]
fn watching_a_missing_model_is_a_failure() {
    let out = run(&["serve", "--watch", "/no/such/model.bd"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

struct Serve {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_serve(extra: &[&str]) -> Serve {
    let mut child = Command::new(decisive_bin())
        .arg("serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let stdin = child.stdin.take().expect("stdin piped");
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    Serve { child, stdin, stdout }
}

impl Serve {
    fn request(&mut self, line: &str) -> Value {
        writeln!(self.stdin, "{line}").expect("request written");
        self.stdin.flush().expect("request flushed");
        let mut response = String::new();
        self.stdout.read_line(&mut response).expect("response read");
        json::parse(response.trim()).unwrap_or_else(|e| panic!("`{response}` reparses: {e}"))
    }
}

#[test]
fn stdio_round_trip_exits_cleanly() {
    let model = data("brownout_threshold.bd");
    let mut serve = spawn_serve(&[]);
    let analyze = serve.request(&format!(
        r#"{{"op":"analyze","id":1,"session":"cli","path":"{}"}}"#,
        model.display()
    ));
    assert_eq!(analyze.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(analyze.get("id").and_then(Value::as_i64), Some(1));
    let junk = serve.request("definitely not json");
    assert_eq!(junk.get("ok").and_then(Value::as_bool), Some(false));
    let shutdown = serve.request(r#"{"op":"shutdown","id":2}"#);
    assert_eq!(shutdown.get("ok").and_then(Value::as_bool), Some(true));
    let status = serve.child.wait().expect("serve exits");
    assert_eq!(status.code(), Some(0), "clean shutdown exits 0");
}

/// Strips wall-clock fields so serve and CLI documents compare equal.
fn strip_timing(value: Value) -> Value {
    match value {
        Value::Record(fields) => Value::Record(
            fields
                .into_iter()
                .filter(|(k, _)| k != "stats" && k != "slowest" && k != "wall_ms")
                .map(|(k, v)| (k, strip_timing(v)))
                .collect(),
        ),
        Value::List(items) => Value::List(items.into_iter().map(strip_timing).collect()),
        other => other,
    }
}

/// The daemon speaks exactly the `--format json` documents: every served
/// analysis op equals a one-shot CLI run of the same request.
#[test]
fn served_pipeline_matches_cli_json_output() {
    let dir = scratch("ops");
    let demo = dir.join("model.json").display().to_string();
    assert_eq!(run(&["demo", &demo]).status.code(), Some(0));
    let brownout = data("brownout_threshold.bd").display().to_string();
    let supply = data("power_supply.bd").display().to_string();
    let montecarlo: (&[&str], &str) =
        (&["--trials", "16", "--seed", "3"], r#","trials":16,"seed":3"#);
    let cases = [
        ("analyze", &brownout, (&[][..], "")),
        ("pipeline", &brownout, (&[], "")),
        ("analyze", &demo, (&[], "")),
        ("pipeline", &demo, (&[], "")),
        ("montecarlo", &supply, montecarlo),
        ("recommend", &supply, (&[], "")),
    ];

    let mut serve = spawn_serve(&[]);
    for (op, path, (flags, fields)) in cases {
        let mut args = vec![op, path.as_str(), "--format", "json"];
        args.extend_from_slice(flags);
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{op} {path}: stderr: {stderr}");
        let cli =
            json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("CLI JSON parses");

        let response =
            serve.request(&format!(r#"{{"op":"{op}","session":"cli","path":"{path}"{fields}}}"#));
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true), "{op} {path}");
        let served = response.get("result").cloned().expect("served result");
        assert_eq!(
            strip_timing(served),
            strip_timing(cli),
            "{op} {path}: wire protocol IS the CLI JSON output"
        );
    }
    serve.request(r#"{"op":"shutdown"}"#);
    serve.child.wait().expect("serve exits");
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGINT mid-serve still flushes a valid trace file and exits through
/// the normal persist path.
/// The brownout design's one fault subtree is analysable but has no cut
/// set: its top probability is +0.0 in the text and in the JSON (an empty
/// `f64` sum is −0.0, which printed as `-0.000e0`).
#[test]
fn a_subtree_without_cut_sets_has_a_zero_top_probability() {
    let design = data("brownout_threshold.bd");
    let annex = data("brownout_reliability.csv");
    let args = |format: &str| {
        let out = run(&[
            "pipeline",
            design.to_str().unwrap(),
            "--reliability",
            annex.to_str().unwrap(),
            "--format",
            format,
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("UTF-8 stdout")
    };
    let text = args("text");
    let fta = text.lines().find(|l| l.starts_with("# fta ")).expect("an fta line");
    assert_eq!(
        fta,
        "# fta brownout-threshold-supply: top probability 0.000e0, 0 single point(s), 0 cut set(s)"
    );
    let json_text = args("json");
    assert!(json_text.contains(r#""top_probability":0.0,"#), "{json_text}");
    let document = json::parse(&json_text).expect("one JSON document");
    let subtrees = document.get("fta").and_then(Value::as_list).expect("fta subtrees");
    let top = subtrees[0].get("top_probability").and_then(Value::as_f64).expect("a number");
    assert_eq!(top.to_bits(), 0.0f64.to_bits());
}

/// `decisive analyze` writes, under `--csv` and `--json`, exactly the
/// table the in-process analysis returns: `graph::run` on the demo model,
/// `injection::run` on `data/power_supply.bd`. Each `# written to` note
/// goes to stdout, or to stderr under `--format json` so that stdout stays
/// one document. `fmea`, the verb `analyze` replaced, is an unknown
/// command.
#[test]
fn analyze_writes_the_in_process_table_to_its_file_flags() {
    use decisive::core::fmea::{graph, injection};
    use decisive::core::{persist, reliability::ReliabilityDb, request::RunSpec};

    let dir = scratch("analyze-files");
    let path = |name: &str| dir.join(name).to_str().expect("UTF-8 path").to_owned();
    let model = path("model.json");
    assert_eq!(run(&["demo", &model]).status.code(), Some(0));
    let loaded = persist::load_model(&model).expect("the demo model loads");
    let top = decisive::engine::execute::top_of(&loaded).expect("top component");
    let design = data("power_supply.bd");
    let text = std::fs::read_to_string(&design).expect("design file");
    let diagram = decisive::blocks::text::from_text(&text).expect("design parses");
    let config = RunSpec::default().injection_config();
    let tables = [
        (model.clone(), graph::run(&loaded, top, &graph::GraphConfig::default())),
        (
            design.to_str().expect("UTF-8 path").to_owned(),
            injection::run(&diagram, &ReliabilityDb::paper_table_ii(), &config),
        ),
    ];
    for (i, (input, table)) in tables.iter().enumerate() {
        let table = table.as_ref().expect("in-process table");
        let expected = path(&format!("expected-{i}.json"));
        persist::save_table(table, &expected).expect("table saves");
        for format in ["text", "json"] {
            let (csv, json_file) =
                (path(&format!("{i}-{format}.csv")), path(&format!("{i}-{format}.json")));
            let out =
                run(&["analyze", input, "--csv", &csv, "--json", &json_file, "--format", format]);
            let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
            assert_eq!(out.status.code(), Some(0), "{input} {format}: {stderr}");
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
            let written =
                |file: &str| std::fs::read(file).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(written(&csv) == table.to_csv_string().into_bytes(), "{input} {format}: csv");
            assert!(written(&json_file) == written(&expected), "{input} {format}: json");
            let (notes, clean) =
                if format == "text" { (&stdout, &stderr) } else { (&stderr, &stdout) };
            for file in [&csv, &json_file] {
                let note = format!("# written to {file}");
                assert!(notes.lines().any(|l| l == note), "{input} {format}: `{note}` missing");
                assert!(!clean.contains(&note), "{input} {format}: `{note}` misplaced");
            }
            if format == "json" {
                json::parse(&stdout).expect("stdout is one JSON document");
            }
        }
    }
    let out = run(&["fmea", &model]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command `fmea`"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigint_flushes_a_valid_trace() {
    let dir = scratch("sigint");
    let trace = dir.join("trace.json");
    let trace_arg = trace.display().to_string();
    let model = data("brownout_threshold.bd");
    let mut serve = spawn_serve(&["--trace-out", &trace_arg]);
    let analyze = serve
        .request(&format!(r#"{{"op":"analyze","session":"cli","path":"{}"}}"#, model.display()));
    assert_eq!(analyze.get("ok").and_then(Value::as_bool), Some(true));

    let interrupt = Command::new("kill")
        .args(["-INT", &serve.child.id().to_string()])
        .status()
        .expect("kill spawns");
    assert!(interrupt.success());
    let status = serve.child.wait().expect("serve exits");
    assert_eq!(status.code(), Some(0), "interrupted serve still exits through the flush path");

    let text = std::fs::read_to_string(&trace).expect("trace file written on interrupt");
    let document = json::parse(&text).expect("interrupted trace is valid JSON");
    let events = document
        .get("traceEvents")
        .and_then(Value::as_list)
        .expect("chrome trace carries traceEvents");
    assert!(!events.is_empty(), "the served request's span survived the interrupt");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--watch` streams a first result immediately, then one per mtime
/// change, and SIGINT ends the loop with exit 0.
#[test]
fn watch_streams_results_until_interrupted() {
    let dir = scratch("watch");
    let model = dir.join("probe.bd");
    std::fs::copy(data("brownout_threshold.bd"), &model).expect("model staged");
    let model_arg = model.display().to_string();

    let mut child = Command::new(decisive_bin())
        .args(["serve", "--watch", &model_arg, "--poll-ms", "50"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("watch spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));

    let mut first = String::new();
    stdout.read_line(&mut first).expect("first result streams");
    let value = json::parse(first.trim()).expect("watch result parses");
    assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(value.get("op").and_then(Value::as_str), Some("pipeline"));

    // Touch the model (content change so the analysis genuinely reruns).
    let text = std::fs::read_to_string(&model).expect("model reads");
    std::fs::write(&model, format!("{text}\n# revised\n")).expect("model touched");
    let mut second = String::new();
    stdout.read_line(&mut second).expect("revision result streams");
    let value = json::parse(second.trim()).expect("revision result parses");
    assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));

    let interrupt =
        Command::new("kill").args(["-INT", &child.id().to_string()]).status().expect("kill spawns");
    assert!(interrupt.success());
    let status = child.wait().expect("watch exits");
    assert_eq!(status.code(), Some(0), "interrupted watch exits cleanly");
    std::fs::remove_dir_all(&dir).ok();
}
