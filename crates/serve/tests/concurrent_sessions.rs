//! Session-identity invariants: N concurrent sessions over one daemon
//! produce results bitwise-identical (modulo wall-clock noise) to N
//! serial runs, across generated model edits — and a session that asks
//! for an already-analysed model is served entirely from the shared
//! store, recomputing nothing.

use std::sync::Arc;

use proptest::prelude::*;

use decisive_federation::{json, Value};
use decisive_obs::Telemetry;
use decisive_serve::{Daemon, ServeOptions};

/// A brown-out supply whose series resistance and threshold the cases
/// edit — the iterate-on-the-design loop the daemon exists to serve.
fn model_text(milliohms: u32, brownout_centivolts: u32) -> String {
    format!(
        "diagram identity-probe\n\
         block DC1 dc-voltage-source volts=5\n\
         block R1 resistor ohms={}.{:03}\n\
         block CS1 current-sensor\n\
         block MC1 mcu on_amps=3;brownout_volts={}.{:02};fault_amps=0.1\n\
         block GND1 ground\n\
         connect DC1.0 -> R1.0\n\
         connect R1.1 -> CS1.0\n\
         connect CS1.1 -> MC1.0\n\
         connect MC1.1 -> GND1.0\n\
         connect DC1.1 -> GND1.0\n",
        milliohms / 1000,
        milliohms % 1000,
        brownout_centivolts / 100,
        brownout_centivolts % 100,
    )
}

fn scratch_model(tag: &str, text: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("decisive-serve-identity-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("probe.bd");
    std::fs::write(&path, text).expect("model written");
    path
}

fn daemon() -> Daemon {
    Daemon::new(ServeOptions::default(), Telemetry::noop()).expect("daemon builds")
}

fn pipeline_request(session: &str, model: &std::path::Path) -> String {
    format!(r#"{{"op":"pipeline","session":"{session}","path":"{}"}}"#, model.display())
}

/// Drops the fields that legitimately differ between runs — wall-clock
/// stats and the campaign's slowest-case timings — leaving the semantic
/// payload: FMEA, metrics, FTA, monitor checks, risk log, assurance.
fn semantic(response: &str) -> Value {
    let value = json::parse(response).expect("response reparses");
    assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true), "in `{response}`");
    let Some(Value::Record(fields)) = value.get("result").cloned().map(strip_timing) else {
        panic!("pipeline result is a record, got `{response}`");
    };
    Value::Record(fields)
}

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

/// What a response's run recomputed that a store could have served: its
/// cache misses, and the phases that executed jobs while looking the
/// store up. A run on an analysed model gives `(0, [])`: store-backed
/// phases serve everything, and only the phases that compute on every run
/// (no hits, no misses) execute jobs.
fn cold_work(response: &str) -> (i64, Vec<String>) {
    let value = json::parse(response).expect("response reparses");
    let phases = value
        .get("result")
        .and_then(|r| r.get("stats"))
        .and_then(|s| s.get("phases"))
        .and_then(Value::as_list)
        .expect("stats.phases present")
        .to_vec();
    let int = |p: &Value, key: &str| p.get(key).and_then(Value::as_i64).unwrap_or(0);
    let misses = phases.iter().map(|p| int(p, "cache_misses")).sum();
    let looked_up = phases
        .iter()
        .filter(|p| {
            int(p, "jobs_executed") > 0 && int(p, "cache_hits") + int(p, "cache_misses") > 0
        })
        .filter_map(|p| p.get("name").and_then(Value::as_str).map(str::to_owned))
        .collect();
    (misses, looked_up)
}

proptest! {
    // Every case runs 3 serial + 3 concurrent full pipelines.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Three concurrent sessions match three serial ones, for every
    /// generated edit of the model.
    #[test]
    fn concurrent_sessions_match_serial_runs(
        milliohms in 300u32..900,
        brownout_centivolts in 250u32..300,
    ) {
        let model = scratch_model("case", &model_text(milliohms, brownout_centivolts));

        // Serial baseline: one fresh daemon, three sessions in sequence.
        let serial = daemon();
        let baseline: Vec<Value> = (0..3)
            .map(|i| {
                let response = serial
                    .handle_line(&pipeline_request(&format!("s{i}"), &model))
                    .expect("serial run answers");
                semantic(&response)
            })
            .collect();
        prop_assert_eq!(&baseline[1], &baseline[0]);
        prop_assert_eq!(&baseline[2], &baseline[0]);

        // The same three sessions, racing on a fresh daemon.
        let racing = Arc::new(daemon());
        let workers: Vec<_> = (0..3)
            .map(|i| {
                let daemon = Arc::clone(&racing);
                let request = pipeline_request(&format!("s{i}"), &model);
                std::thread::spawn(move || {
                    let response = daemon.handle_line(&request).expect("concurrent run answers");
                    semantic(&response)
                })
            })
            .collect();
        for worker in workers {
            let result = worker.join().expect("worker survives");
            prop_assert_eq!(&result, &baseline[0]);
        }

        // A latecomer session is served entirely from the shared store:
        // zero cache misses, and no store-backed phase executes a job.
        let response = racing
            .handle_line(&pipeline_request("late", &model))
            .expect("latecomer answers");
        prop_assert_eq!(semantic(&response), baseline[0].clone());
        prop_assert_eq!(cold_work(&response), (0, Vec::new()));

        std::fs::remove_dir_all(model.parent().expect("scratch parent")).ok();
    }
}

/// Cross-session dedup actually happened: after two sessions analyse the
/// same model, the second missed nothing in the store, and `status`
/// reports store hits and both sessions.
#[test]
fn status_accounts_for_cross_session_sharing() {
    let model = scratch_model("status", &model_text(500, 275));
    let daemon = daemon();
    for session in ["alice", "bob"] {
        let response =
            daemon.handle_line(&pipeline_request(session, &model)).expect("session answers");
        assert_eq!(
            json::parse(&response).expect("reparses").get("ok").and_then(Value::as_bool),
            Some(true)
        );
        if session == "bob" {
            assert_eq!(cold_work(&response), (0, Vec::new()), "bob is served from alice's work");
        }
    }
    let status = daemon.handle_line(r#"{"op":"status"}"#).expect("status answers");
    let value = json::parse(&status).expect("status reparses");
    let result = value.get("result").expect("status result");
    let hits = result.get("shared_hits").and_then(Value::as_i64).expect("shared_hits");
    assert!(hits > 0, "second session must hit the shared store, got {status}");
    let sessions = result.get("sessions").and_then(Value::as_list).expect("sessions list");
    let names: Vec<_> =
        sessions.iter().filter_map(|s| s.get("name").and_then(Value::as_str)).collect();
    assert_eq!(names, ["alice", "bob"]);
    std::fs::remove_dir_all(model.parent().expect("scratch parent")).ok();
}
