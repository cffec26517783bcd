//! End-to-end tests of `decisive fleet` as a spawned process: sweep
//! correctness (exactly one row per model, broken models included), the
//! deterministic chaos hooks (worker abort, poison, hang), journaled
//! resume, and the headline robustness claim — a campaign whose workers
//! AND supervisor are killed mid-run resumes to a report whose identity is
//! byte-identical to an uninterrupted run.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use decisive::federation::{json, Value};
use decisive::fleet::worker::{ABORT_ONCE_ENV, HANG_ENV, POISON_ENV};

fn decisive_bin() -> &'static str {
    env!("CARGO_BIN_EXE_decisive")
}

fn data(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../data").join(file)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decisive-fleet-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_env(args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    let mut command = Command::new(decisive_bin());
    command.args(args);
    for (key, value) in env {
        command.env(key, value);
    }
    command.output().expect("decisive spawns")
}

fn run(args: &[&str]) -> std::process::Output {
    run_env(args, &[])
}

/// Runs a fleet campaign to completion and returns the parsed JSON report.
fn fleet_json(args: &[&str], env: &[(&str, &str)]) -> Value {
    let mut full = vec!["fleet"];
    full.extend_from_slice(args);
    full.extend_from_slice(&["--format", "json"]);
    let out = run_env(&full, env);
    assert_eq!(
        out.status.code(),
        Some(0),
        "fleet exits 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("fleet JSON parses")
}

fn identity_of(report: &Value) -> String {
    json::to_string(report.get("identity").expect("report carries identity"))
}

fn rows_of(report: &Value) -> &[Value] {
    report.get("rows").and_then(Value::as_list).expect("report carries rows")
}

fn int_of(value: &Value, key: &str) -> i64 {
    value.get(key).and_then(Value::as_i64).unwrap_or_else(|| panic!("missing int `{key}`"))
}

#[test]
fn fleet_misuse_is_a_usage_error() {
    for (case, args) in [
        ("unknown flag", vec!["fleet", "--bogus"]),
        ("no models at all", vec!["fleet"]),
        ("scale without workload", vec!["fleet", "--scale", "5"]),
        ("bad workers", vec!["fleet", "--workload", "Set0", "--workers", "0"]),
        ("unknown set", vec!["fleet", "--workload", "Set9"]),
    ] {
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{case}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A mixed directory sweep: healthy `.bd` and `.json` models analyse,
/// a broken model gets exactly one `failed` row, nothing is dropped.
#[test]
fn directory_sweep_reports_every_model_exactly_once() {
    let dir = scratch("sweep");
    let models = dir.join("models");
    std::fs::create_dir_all(models.join("nested")).unwrap();
    std::fs::copy(data("brownout_threshold.bd"), models.join("a.bd")).unwrap();
    let demo = run(&["demo", models.join("nested/b.json").to_str().unwrap()]);
    assert_eq!(demo.status.code(), Some(0));
    std::fs::write(models.join("broken.json"), "{ this is not a model").unwrap();

    let journal = dir.join("journal");
    let report = fleet_json(
        &[models.to_str().unwrap(), "--workers", "2", "--journal", journal.to_str().unwrap()],
        &[],
    );
    let rows = rows_of(&report);
    assert_eq!(rows.len(), 3, "one row per discovered model");
    assert_eq!(int_of(&report, "models"), 3);
    assert_eq!(int_of(&report, "ok"), 2);
    assert_eq!(int_of(&report, "failed"), 1);
    let broken: Vec<&Value> = rows
        .iter()
        .filter(|r| r.get("id").and_then(Value::as_str).is_some_and(|id| id.contains("broken")))
        .collect();
    assert_eq!(broken.len(), 1, "the broken model has exactly one row");
    assert_eq!(broken[0].get("status").and_then(Value::as_str), Some("failed"));
    assert!(broken[0].get("error").and_then(Value::as_str).is_some());
    for row in rows.iter().filter(|r| r.get("status").and_then(Value::as_str) == Some("ok")) {
        assert!(row.get("spfm").and_then(Value::as_f64).is_some());
        assert!(row.get("asil").and_then(Value::as_str).is_some());
    }
    // The journal's live status file reflects the finished campaign.
    let status = std::fs::read_to_string(journal.join("FLEET_STATUS.json")).unwrap();
    let status = json::parse(&status).unwrap();
    assert_eq!(int_of(&status, "completed"), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// A fleet row reports what the CLI reports for the same file: the
/// pipeline's SPFM and ASIL for a directory sweep, the campaign's SPFM
/// mean and CI half-width under `--montecarlo`.
#[test]
fn fleet_rows_match_cli_json_output() {
    let dir = scratch("cli-equal");
    let models = dir.join("models");
    std::fs::create_dir_all(&models).unwrap();
    let supply = models.join("supply.bd");
    std::fs::copy(data("power_supply.bd"), &supply).unwrap();
    let brownout = models.join("brownout.bd");
    std::fs::copy(data("brownout_threshold.bd"), &brownout).unwrap();
    let demo = models.join("nested/demo.json");
    std::fs::create_dir_all(demo.parent().unwrap()).unwrap();
    assert_eq!(run(&["demo", demo.to_str().unwrap()]).status.code(), Some(0));
    let cli = |args: &[&str]| {
        let out = run(args);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("CLI JSON parses")
    };
    let row = |report: &Value, path: &Path| {
        let id = path.display().to_string();
        rows_of(report)
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
            .cloned()
            .unwrap_or_else(|| panic!("no row for {id}"))
    };

    let journal = dir.join("sweep");
    let sweep = fleet_json(
        &[models.to_str().unwrap(), "--workers", "1", "--journal", journal.to_str().unwrap()],
        &[],
    );
    for path in [&supply, &brownout, &demo] {
        let document = cli(&["pipeline", path.to_str().unwrap(), "--format", "json"]);
        let metrics = document.get("metrics").expect("pipeline metrics");
        let row = row(&sweep, path);
        assert_eq!(row.get("spfm"), metrics.get("spfm"), "{}", path.display());
        assert_eq!(row.get("asil"), metrics.get("achieved_asil"), "{}", path.display());
    }

    std::fs::remove_file(&demo).unwrap();
    let journal = dir.join("montecarlo");
    let campaign = ["--montecarlo", "--trials", "16", "--seed", "3"];
    let mut args = vec![models.to_str().unwrap(), "--workers", "1"];
    args.extend_from_slice(&["--journal", journal.to_str().unwrap()]);
    args.extend_from_slice(&campaign);
    let sweep = fleet_json(&args, &[]);
    for path in [&supply, &brownout] {
        let document = cli(&[
            "montecarlo",
            path.to_str().unwrap(),
            "--trials",
            "16",
            "--seed",
            "3",
            "--format",
            "json",
        ]);
        let spfm = document.get("report").and_then(|r| r.get("spfm")).expect("report spfm");
        let row = row(&sweep, path);
        assert_eq!(row.get("spfm"), spfm.get("mean"), "{}", path.display());
        assert_eq!(row.get("spfm_half_width"), spfm.get("half_width"), "{}", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker that aborts once on a chosen model (simulated segfault) is
/// respawned, the model retried — and the final report is identical to an
/// undisturbed campaign.
#[test]
fn worker_abort_is_retried_to_an_identical_report() {
    let dir = scratch("abort");
    let journal_a = dir.join("ja");
    let journal_b = dir.join("jb");
    let base = ["--workload", "Set0", "--scale", "6", "--workers", "2", "--backoff-ms", "1"];
    let mut args_a: Vec<&str> = base.to_vec();
    let ja = journal_a.to_str().unwrap().to_owned();
    args_a.extend_from_slice(&["--journal", &ja]);
    let calm = fleet_json(&args_a, &[]);

    let mut args_b: Vec<&str> = base.to_vec();
    let jb = journal_b.to_str().unwrap().to_owned();
    args_b.extend_from_slice(&["--journal", &jb]);
    let chaotic = fleet_json(&args_b, &[(ABORT_ONCE_ENV, "Set0#2")]);

    assert_eq!(identity_of(&calm), identity_of(&chaotic), "chaos does not change verdicts");
    let retried = rows_of(&chaotic)
        .iter()
        .find(|r| r.get("id").and_then(Value::as_str) == Some("Set0#2"))
        .expect("the sabotaged model has a row");
    assert_eq!(retried.get("status").and_then(Value::as_str), Some("ok"));
    assert!(int_of(retried, "attempts") >= 2, "the first attempt died");
    std::fs::remove_dir_all(&dir).ok();
}

/// Poison and hang taxonomy: a model that kills every worker it touches is
/// quarantined (exactly one row, never rescheduled); a hung model is
/// deadline-killed into a `timeout` row. The campaign itself exits 0.
#[test]
fn poison_and_hang_become_typed_rows() {
    let dir = scratch("poison");
    let journal = dir.join("journal");
    let report = fleet_json(
        &[
            "--workload",
            "Set0",
            "--scale",
            "5",
            "--workers",
            "2",
            "--deadline-ms",
            "2000",
            "--retries",
            "1",
            "--poison-kills",
            "2",
            "--backoff-ms",
            "1",
            "--journal",
            journal.to_str().unwrap(),
        ],
        &[(POISON_ENV, "Set0#1"), (HANG_ENV, "Set0#3")],
    );
    let rows = rows_of(&report);
    assert_eq!(rows.len(), 5, "every model has exactly one row");
    let status_of = |id: &str| {
        rows.iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id))
            .and_then(|r| r.get("status").and_then(Value::as_str))
            .unwrap_or_else(|| panic!("row for {id}"))
    };
    assert_eq!(status_of("Set0#1"), "quarantined");
    assert_eq!(status_of("Set0#3"), "timeout");
    assert_eq!(int_of(&report, "ok"), 3);
    assert_eq!(int_of(&report, "quarantined"), 1);
    assert_eq!(int_of(&report, "timeout"), 1);
    let taxonomy = report.get("identity").unwrap().get("taxonomy").unwrap();
    assert_eq!(int_of(taxonomy, "quarantined"), 1);
    assert_eq!(int_of(taxonomy, "timeout"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming a *finished* campaign re-runs nothing and reproduces the
/// identity; editing one model re-runs exactly that model.
#[test]
fn resume_skips_done_work_and_tracks_content_edits() {
    let dir = scratch("resume");
    let models = dir.join("models");
    std::fs::create_dir_all(&models).unwrap();
    let demo_a = models.join("a.json");
    let demo_b = models.join("b.json");
    assert_eq!(run(&["demo", demo_a.to_str().unwrap()]).status.code(), Some(0));
    assert_eq!(run(&["demo", demo_b.to_str().unwrap()]).status.code(), Some(0));
    let journal = dir.join("journal");
    let journal_arg = journal.to_str().unwrap().to_owned();
    let args = [models.to_str().unwrap(), "--workers", "1", "--journal", journal_arg.as_str()];
    let first = fleet_json(&args, &[]);
    assert_eq!(int_of(&first, "resumed"), 0);

    let mut resume_args = args.to_vec();
    resume_args.push("--resume");
    let second = fleet_json(&resume_args, &[]);
    assert_eq!(int_of(&second, "resumed"), 2, "everything came from the journal");
    assert_eq!(identity_of(&first), identity_of(&second));

    // Touch one model: same id, new content fingerprint → re-analysed.
    let text = std::fs::read_to_string(&demo_b).unwrap();
    std::fs::write(&demo_b, text.replace("power", "pOwer")).unwrap();
    let third = fleet_json(&resume_args, &[]);
    assert_eq!(int_of(&third, "resumed"), 1, "only the untouched model is restored");
    std::fs::remove_dir_all(&dir).ok();
}

/// Child pids of `parent` read from /proc (Linux).
fn children_of(parent: u32) -> Vec<u32> {
    let mut pids = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else { return pids };
    for entry in entries.flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(|n| n.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else { continue };
        // field 4 (after the parenthesised comm) is the ppid.
        let Some(rest) = stat.rsplit(')').next() else { continue };
        if rest.split_whitespace().nth(1).and_then(|p| p.parse::<u32>().ok()) == Some(parent) {
            pids.push(pid);
        }
    }
    pids
}

/// The headline chaos drill: kill -9 two workers mid-campaign, then
/// kill -9 the supervisor itself, then `--resume` — the finished report's
/// identity must be byte-identical to an uninterrupted reference run.
#[test]
fn killing_workers_and_supervisor_then_resuming_matches_reference() {
    let dir = scratch("kill9");
    let reference_journal = dir.join("ref");
    let chaos_journal = dir.join("chaos");
    let base = ["--workload", "Set0", "--scale", "14", "--workers", "2", "--backoff-ms", "1"];

    let mut reference_args: Vec<&str> = base.to_vec();
    let jr = reference_journal.to_str().unwrap().to_owned();
    reference_args.extend_from_slice(&["--journal", &jr]);
    let reference = fleet_json(&reference_args, &[]);
    assert_eq!(int_of(&reference, "models"), 14);

    // Launch the same campaign and murder it mid-flight. The sweep is
    // fast enough that the supervisor can win the race and finish before
    // the kill lands; relaunch until a kill actually interrupts it.
    let jc = chaos_journal.to_str().unwrap().to_owned();
    let mut interrupted = false;
    for _attempt in 0..10 {
        std::fs::remove_dir_all(&chaos_journal).ok();
        let mut child = Command::new(decisive_bin())
            .args(["fleet"])
            .args(base)
            .args(["--journal", &jc, "--format", "json"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("fleet spawns");
        let status_file = chaos_journal.join("FLEET_STATUS.json");
        let deadline = Instant::now() + Duration::from_secs(120);
        let progressed = loop {
            if Instant::now() > deadline {
                break false;
            }
            if let Some(completed) = std::fs::read_to_string(&status_file)
                .ok()
                .and_then(|text| json::parse(&text).ok())
                .map(|status| int_of(&status, "completed"))
            {
                if completed >= 2 {
                    break true;
                }
            }
            if child.try_wait().expect("try_wait").is_some() {
                break false; // Finished before we could interfere.
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if !progressed {
            // Either finished clean before two rows were journaled or (worse)
            // hung; reap and retry — the deadline bounds each attempt.
            let _ = Command::new("kill").args(["-9", &child.id().to_string()]).status();
            child.wait().expect("fleet reaped");
            continue;
        }
        // kill -9 up to two workers first, then the supervisor itself.
        for worker in children_of(child.id()).into_iter().take(2) {
            let _ = Command::new("kill").args(["-9", &worker.to_string()]).status();
        }
        let _ = Command::new("kill").args(["-9", &child.id().to_string()]).status();
        let status = child.wait().expect("fleet reaped");
        if !status.success() {
            interrupted = true;
            break;
        }
    }
    assert!(interrupted, "no launch was interruptible mid-flight");

    // Resume: only unfinished models re-run, and the report identity is
    // byte-identical to the uninterrupted reference.
    let mut resume_args: Vec<&str> = base.to_vec();
    resume_args.extend_from_slice(&["--journal", &jc, "--resume"]);
    let resumed = fleet_json(&resume_args, &[]);
    assert_eq!(int_of(&resumed, "models"), 14, "no model lost, none duplicated");
    assert!(int_of(&resumed, "resumed") >= 2, "journaled rows survived kill -9");
    assert_eq!(
        identity_of(&reference),
        identity_of(&resumed),
        "resumed campaign reproduces the uninterrupted report identity"
    );
    assert_eq!(
        reference.get("identity_digest").and_then(Value::as_str),
        resumed.get("identity_digest").and_then(Value::as_str),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `decisive serve --fleet` surfaces the campaign's live status document.
#[test]
fn serve_status_reports_the_fleet_journal() {
    use std::io::{BufRead, BufReader, Write};
    let dir = scratch("serve-fleet");
    let journal = dir.join("journal");
    let report = fleet_json(
        &[
            "--workload",
            "Set0",
            "--scale",
            "2",
            "--workers",
            "1",
            "--journal",
            journal.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(int_of(&report, "ok"), 2);

    let mut serve = Command::new(decisive_bin())
        .args(["serve", "--fleet", journal.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut stdin = serve.stdin.take().unwrap();
    let mut stdout = BufReader::new(serve.stdout.take().unwrap());
    writeln!(stdin, r#"{{"op":"status"}}"#).unwrap();
    let mut response = String::new();
    stdout.read_line(&mut response).unwrap();
    let parsed = json::parse(response.trim()).unwrap();
    let fleet = parsed.get("result").unwrap().get("fleet").expect("status embeds fleet");
    assert_eq!(int_of(fleet, "completed"), 2);
    writeln!(stdin, r#"{{"op":"shutdown"}}"#).unwrap();
    serve.wait().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The fleet instruments itself: `--metrics` reports fleet.* counters.
#[test]
fn fleet_metrics_expose_campaign_counters() {
    let dir = scratch("metrics");
    let journal = dir.join("journal");
    let out = run_env(
        &[
            "fleet",
            "--workload",
            "Set0",
            "--scale",
            "3",
            "--workers",
            "1",
            "--backoff-ms",
            "1",
            "--journal",
            journal.to_str().unwrap(),
            "--metrics",
        ],
        &[(ABORT_ONCE_ENV, "Set0#0")],
    );
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let metrics_line = stdout
        .lines()
        .find(|l| l.starts_with("OBS_metrics "))
        .expect("an OBS_metrics line is printed");
    let metrics = json::parse(metrics_line.trim_start_matches("OBS_metrics ")).unwrap();
    let counters = metrics.get("counters").expect("counters section");
    assert_eq!(int_of(counters, "fleet.tasks"), 3);
    assert_eq!(int_of(counters, "fleet.completed"), 3);
    assert!(int_of(counters, "fleet.worker_deaths") >= 1, "the abort hook fired");
    assert!(int_of(counters, "fleet.retries") >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Path of `Path::to_str` unwrap helper kept local: every scratch path is
/// UTF-8 by construction.
#[allow(dead_code)]
fn utf8(path: &Path) -> &str {
    path.to_str().expect("scratch paths are UTF-8")
}
