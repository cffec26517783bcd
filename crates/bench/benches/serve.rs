//! Bench: daemon request throughput, cold versus warm (ISSUE 6).
//!
//! The serve subsystem's promise is that keeping the engine warm turns
//! repeat analyses into cache reads. This harness drives the daemon
//! in-process through `handle_line` — the same entry the stdio and socket
//! loops use — and measures three regimes on the brown-out case study:
//!
//! - **cold**: the first pipeline request on a fresh daemon (every
//!   artefact computed);
//! - **warm**: repeat requests in the same session (store hits; graph
//!   rows, the monitor set and the risk log compute on every run);
//! - **shared**: a brand-new session per request against the populated
//!   shared store (cross-session hits).
//!
//! It prints one `BENCH_serve {...}` JSON line; `warm_ok` (warm beats
//! cold, `shared_hits > 0`, and no fresh-session request missed the store
//! or executed a job in a store-backed phase) is the CI gate, and the
//! checked-in `BENCH_serve.json` holds the first recorded baseline.
//!
//! Plain `fn main` (`harness = false`), same as the other benches:
//! minima over repeated runs are stable enough without Criterion.

use std::time::Instant;

use decisive::federation::{json, Value};
use decisive::obs::Telemetry;
use decisive::serve::{Daemon, ServeOptions};

/// The pathological brown-out supply (see `data/brownout_threshold.bd`) —
/// small enough to iterate, hard enough that the injection campaign does
/// genuine recovery work on the cold run.
const MODEL: &str = "\
diagram brownout-threshold-supply
block DC1 dc-voltage-source volts=5
block R1 resistor ohms=0.5
block CS1 current-sensor
block MC1 mcu on_amps=3;brownout_volts=2.75;fault_amps=0.1
block GND1 ground
connect DC1.0 -> R1.0
connect R1.1 -> CS1.0
connect CS1.1 -> MC1.0
connect MC1.1 -> GND1.0
connect DC1.1 -> GND1.0
";

/// Warm repetitions; the minimum filters scheduler and allocator noise.
const ITERS: usize = 20;

fn request(session: &str, path: &std::path::Path) -> String {
    format!(r#"{{"op":"pipeline","session":"{session}","path":"{}"}}"#, path.display())
}

/// Answers `line`, returning the wall time and the response.
fn timed_ok(daemon: &Daemon, line: &str) -> (f64, String) {
    let t = Instant::now();
    let response = daemon.handle_line(line).expect("request answered");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(response.contains(r#""ok":true"#), "bench request failed: {response}");
    (ms, response)
}

/// What a pipeline response recomputed that the store could have served:
/// its cache misses plus the jobs of phases that looked the store up. The
/// phases that compute on every run look nothing up and count no hit or
/// miss.
fn store_work(response: &str) -> i64 {
    let value = json::parse(response).expect("response parses");
    let phases = value.get("result").and_then(|r| r.get("stats")).and_then(|s| s.get("phases"));
    let phases = phases.and_then(Value::as_list).expect("stats.phases");
    let int = |p: &Value, key: &str| p.get(key).and_then(Value::as_i64).unwrap_or(0);
    phases
        .iter()
        .map(|p| {
            let lookups = int(p, "cache_hits") + int(p, "cache_misses");
            int(p, "cache_misses") + if lookups > 0 { int(p, "jobs_executed") } else { 0 }
        })
        .sum()
}

fn main() {
    // The bench's cwd depends on the runner, so the model goes to a
    // self-owned scratch path instead of relying on `data/`.
    let dir = std::env::temp_dir().join(format!("decisive-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let model = dir.join("brownout.bd");
    std::fs::write(&model, MODEL).expect("model written");

    let daemon = Daemon::new(ServeOptions::default(), Telemetry::noop()).expect("daemon builds");

    let (cold_ms, _) = timed_ok(&daemon, &request("bench", &model));

    let mut warm_ms = f64::INFINITY;
    for _ in 0..ITERS {
        warm_ms = warm_ms.min(timed_ok(&daemon, &request("bench", &model)).0);
    }

    // Fresh session every request: served from the shared store alone.
    let mut shared_ms = f64::INFINITY;
    let mut shared_store_work = 0;
    for i in 0..ITERS {
        let (ms, response) = timed_ok(&daemon, &request(&format!("s{i}"), &model));
        shared_ms = shared_ms.min(ms);
        shared_store_work += store_work(&response);
    }
    let shared_hits = daemon.shared().shared_hits();

    let summary = Value::record([
        ("model", Value::from("brownout-threshold-supply")),
        ("cold_ms", Value::Real(cold_ms)),
        ("warm_ms", Value::Real(warm_ms)),
        ("shared_session_ms", Value::Real(shared_ms)),
        ("warm_requests_per_sec", Value::Real(1e3 / warm_ms)),
        ("shared_requests_per_sec", Value::Real(1e3 / shared_ms)),
        ("speedup_cold_over_warm", Value::Real(cold_ms / warm_ms)),
        ("shared_hits", Value::Int(shared_hits as i64)),
        ("shared_store_work", Value::Int(shared_store_work)),
        ("warm_ok", Value::Bool(warm_ms < cold_ms && shared_hits > 0 && shared_store_work == 0)),
    ]);
    println!("BENCH_serve {}", json::to_string(&summary));
    std::fs::remove_dir_all(&dir).ok();
}
