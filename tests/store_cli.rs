//! End-to-end tests of `decisive store` as a spawned process: a v3
//! snapshot exported from one cache directory and imported into another
//! re-exports byte for byte and serves a warm run, entries failing their
//! checksum are skipped one by one, and a document that is not a v3
//! snapshot is refused.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use decisive::federation::{json, Value};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decisive-store-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_decisive")).args(args).output().expect("decisive spawns")
}

/// Runs the CLI, requiring exit 0; returns stdout.
fn ok(args: &[&Path]) -> String {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn p(arg: &str) -> &Path {
    Path::new(arg)
}

/// Writes the case-study model into `dir` and runs its pipeline with
/// `--cache <dir>/a`, which stores three entries: the container facts,
/// the fault subtree and the assurance case; returns the model path.
fn seeded(dir: &Path) -> PathBuf {
    let model = dir.join("model.json");
    ok(&[p("demo"), &model]);
    ok(&[p("pipeline"), &model, p("--cache"), &dir.join("a")]);
    model
}

#[test]
fn export_import_round_trip_is_byte_identical_and_warm() {
    let dir = scratch("roundtrip");
    let model = seeded(&dir);
    let (a, b) = (dir.join("a"), dir.join("b"));
    let (s1, s2) = (dir.join("s1.json"), dir.join("s2.json"));
    ok(&[p("store"), p("export"), &s1, p("--cache"), &a]);
    let imported = ok(&[p("store"), p("import"), &s1, p("--cache"), &b]);
    assert!(imported.starts_with("# imported 3 entr(ies)"), "{imported}");
    ok(&[p("store"), p("export"), &s2, p("--cache"), &b]);
    let (first, second) = (std::fs::read(&s1).expect("s1"), std::fs::read(&s2).expect("s2"));
    assert!(first == second, "the re-export differs from the imported snapshot");

    let warm = ok(&[p("pipeline"), &model, p("--cache"), &b]);
    let phases: Vec<&str> = warm.lines().filter(|l| l.starts_with("# phase")).collect();
    assert!(!phases.is_empty(), "{warm}");
    assert!(phases.iter().all(|l| l.contains(" misses 0")), "imported store is warm: {warm}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn import_skips_entries_that_fail_their_checksum() {
    let dir = scratch("tampered");
    seeded(&dir);
    let snapshot = dir.join("snapshot.json");
    ok(&[p("store"), p("export"), &snapshot, p("--cache"), &dir.join("a")]);
    let mut value = json::parse(&std::fs::read_to_string(&snapshot).expect("snapshot"))
        .expect("snapshot parses");
    let Value::Record(fields) = &mut value else { panic!("snapshot is a record") };
    let Some((_, Value::List(entries))) = fields.iter_mut().find(|(k, _)| k == "entries") else {
        panic!("snapshot lists entries")
    };
    let Value::Record(entry) = &mut entries[0] else { panic!("entry is a record") };
    entry.iter_mut().find(|(k, _)| k == "owner").expect("owner").1 = Value::from("tampered");
    std::fs::write(&snapshot, json::to_string(&value)).expect("tamper");

    let out = run(&[p("store"), p("import"), &snapshot, p("--cache"), &dir.join("b")]);
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stdout.starts_with("# imported 2 entr(ies)"), "{stdout}");
    assert!(
        stderr.contains("# skipped: entry 0") && stderr.contains("checksum mismatch"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn importing_a_document_that_is_not_a_v3_snapshot_fails() {
    let dir = scratch("reject");
    let model = dir.join("model.json");
    ok(&[p("demo"), &model]);
    let hello = dir.join("hello.json");
    std::fs::write(&hello, "{\"hello\":1}").expect("write");
    let old = dir.join("v2.json");
    std::fs::write(&old, "{\"version\":2,\"entries\":[]}").expect("write");
    for document in [&model, &hello, &old] {
        let out = run(&[p("store"), p("import"), document, p("--cache"), &dir.join("c")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{document:?}: {stderr}");
        assert!(stderr.contains("expected a v3 snapshot"), "{document:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{document:?} imported nothing");
    }
    std::fs::remove_dir_all(&dir).ok();
}
