//! Bench: fleet throughput versus the single-process pipeline (ISSUE 8).
//!
//! The fleet's promise is that process isolation is cheap enough to be the
//! default at ecosystem scale: sharding Set3-sized models across re-exec'd
//! workers should *win* on multi-core machines (the ISSUE's ≥3× target at
//! 8 workers) and cost only bounded overhead — IPC, spawn, journal fsync —
//! when there is nothing to parallelise. The gate is therefore
//! **core-aware**: the required speedup over the in-process sequential
//! baseline scales with the parallelism the machine actually has, down to
//! an overhead floor on a single core.
//!
//! It prints one `BENCH_fleet {...}` JSON line; `fleet_ok` (every model
//! exactly one `ok` row and throughput above the core-aware requirement)
//! is the CI gate, and the checked-in `BENCH_fleet.json` holds the latest
//! recorded run with the core count it was taken on.
//!
//! Plain `fn main` (`harness = false`), same as the other benches:
//! minima over repeated runs are stable enough without Criterion.

use std::path::PathBuf;
use std::time::Instant;

use decisive::engine::{Engine, Pipeline, PipelineInput};
use decisive::federation::{json, Value};
use decisive::fleet::{run_fleet, workload_tasks, FleetOptions};
use decisive::obs::Telemetry;
use decisive::workload::sets;

/// Campaign size: Set3 instances (the largest real model of the paper's
/// process, capped at `MAX_INSTANCE_ELEMENTS` per instance).
const MODELS: u64 = 10;
/// Generator seed shared by fleet and baseline (identical models).
const SEED: u64 = 42;
/// Repetitions; the minimum filters process-spawn and filesystem noise.
const ITERS: usize = 2;

/// The `decisive` binary next to this bench executable
/// (`target/<profile>/deps/fleet-* → target/<profile>/decisive`). The CI
/// step builds it first; locally, `cargo build --release -p decisive`.
fn decisive_exe() -> PathBuf {
    let mut dir = std::env::current_exe().expect("bench executable path");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let exe = dir.join(format!("decisive{}", std::env::consts::EXE_SUFFIX));
    assert!(
        exe.is_file(),
        "{} not found — build the decisive binary first (cargo build --release -p decisive)",
        exe.display()
    );
    exe
}

/// The core-aware throughput requirement: the ISSUE's 3× at ≥8 cores,
/// scaled down with available parallelism, with an overhead-only floor
/// (fleet ≥ half the sequential baseline) when there is a single core and
/// process isolation can only cost, never win.
fn required_speedup(cores: usize) -> f64 {
    match cores {
        0 | 1 => 0.5,
        2 | 3 => 1.0,
        4..=7 => 1.5,
        _ => 3.0,
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.clamp(1, 8);
    let exe = decisive_exe();
    let journal = std::env::temp_dir().join(format!("decisive-bench-fleet-{}", std::process::id()));
    std::fs::remove_dir_all(&journal).ok();

    // Baseline: the same models through one in-process sequential engine.
    let mut baseline_s = f64::INFINITY;
    for _ in 0..ITERS {
        let t = Instant::now();
        let mut engine = Engine::builder().jobs(1).build().expect("baseline engine");
        for instance in 0..MODELS {
            let set = sets::set_by_name("Set3").expect("Set3 exists");
            let (model, top) = sets::instance_model(&set, instance, SEED);
            let input = PipelineInput::for_model(&model, top).with_mission_hours(10_000.0);
            let run =
                engine.run_pipeline(&Pipeline::standard(false), &input).expect("baseline pipeline");
            assert!(run.fmea().is_some(), "baseline produces an FMEA");
        }
        baseline_s = baseline_s.min(t.elapsed().as_secs_f64());
    }

    // Fleet: same models sharded across process-isolated workers.
    let mut fleet_s = f64::INFINITY;
    let mut ok_rows = 0usize;
    let mut row_total = 0usize;
    let mut identity = String::new();
    for _ in 0..ITERS {
        let tasks = workload_tasks("Set3", MODELS, SEED).expect("workload tasks");
        let mut options = FleetOptions::new(&journal, &exe);
        options.workers = workers;
        options.deadline_ms = 120_000;
        let t = Instant::now();
        let report = run_fleet(tasks, &options, &Telemetry::noop()).expect("fleet campaign");
        fleet_s = fleet_s.min(t.elapsed().as_secs_f64());
        row_total = report.rows.len();
        ok_rows = report.rows.iter().filter(|r| r.status == "ok").count();
        identity = report.identity_digest();
    }
    std::fs::remove_dir_all(&journal).ok();

    let baseline_mps = MODELS as f64 / baseline_s;
    let fleet_mps = MODELS as f64 / fleet_s;
    let speedup = fleet_mps / baseline_mps;
    let required = required_speedup(cores);
    let fleet_ok = ok_rows as u64 == MODELS && row_total as u64 == MODELS && speedup >= required;
    let summary = Value::record([
        ("models", Value::Int(MODELS as i64)),
        ("set", Value::from("Set3")),
        ("cores", Value::Int(cores as i64)),
        ("workers", Value::Int(workers as i64)),
        ("baseline_s", Value::Real(baseline_s)),
        ("fleet_s", Value::Real(fleet_s)),
        ("baseline_models_per_sec", Value::Real(baseline_mps)),
        ("fleet_models_per_sec", Value::Real(fleet_mps)),
        ("speedup_fleet_over_baseline", Value::Real(speedup)),
        ("required_speedup", Value::Real(required)),
        ("ok_rows", Value::Int(ok_rows as i64)),
        ("identity_digest", Value::from(identity.as_str())),
        ("fleet_ok", Value::Bool(fleet_ok)),
    ]);
    println!("BENCH_fleet {}", json::to_string(&summary));
    assert!(fleet_ok, "fleet bench gate failed: {speedup:.2}x < required {required:.2}x");
}
