//! `fleet-sweep`: one client sweeps a directory of SSAM models with
//! `decisive fleet` (process-isolated workers, a fresh journal per
//! sweep). The models are the paper's Table VI sets as the workload
//! generator instantiates them: many small Set1 models, which expose
//! per-model process, IPC and journal overhead, and Set3 models, whose
//! graph FMEA, FTA, HARA and assurance case carry the analysis cost.
//! There is no circuit work at all, so a solver optimisation must leave
//! this workload unchanged.

use std::collections::BTreeMap;
use std::path::Path;

use decisive::core::persist;
use decisive::engine::{Engine, Pipeline, PipelineInput};
use decisive::federation::{json, Value};
use decisive::fleet::{run_fleet, FleetOptions};
use decisive::obs::Telemetry;
use decisive::output::{self, PipelineOutput};

use super::{repeated_setup, CpuMeter, Ctx, JOBS};
use crate::inproc::{self, MISSION_HOURS};
use crate::proc;
use crate::report::Report;
use crate::subjects;
use crate::trace::Replay;

/// Set1 models per sweep.
pub const SET1: usize = 32;
/// Set3 models per sweep.
pub const SET3: usize = 16;
/// Sweeps the traced run replays.
const REPLAY_SWEEPS: usize = 3;

/// Writes the seed's models into `dir/models`.
fn write_models(dir: &Path, seed: u64) -> Result<(), String> {
    let models = dir.join("models");
    std::fs::create_dir_all(&models).map_err(|e| format!("{}: {e}", models.display()))?;
    for (name, model) in subjects::fleet_models(SET1, SET3, seed) {
        persist::save_model(&model, models.join(format!("{name}.json")))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn sweep(ctx: &Ctx, dir: &Path, journal: &str) -> proc::Timed {
    let args = ["fleet", "models", "--workers", JOBS, "--journal", journal, "--format", "json"];
    let timed = proc::run(&ctx.exe, dir, &args);
    let _ = std::fs::remove_dir_all(dir.join(journal));
    timed
}

/// Per model: `(status, spfm, asil)` of a sweep's rows, and its identity
/// digest.
type Rows = BTreeMap<String, (String, Option<f64>, Option<String>)>;

fn rows_of(stdout: &[u8]) -> Result<(Rows, String), String> {
    let value = json::parse(&String::from_utf8_lossy(stdout)).map_err(|e| e.to_string())?;
    let digest =
        value.get("identity_digest").and_then(Value::as_str).ok_or("no identity_digest")?;
    let rows = value.get("rows").and_then(Value::as_list).ok_or("no rows")?;
    let mut out = Rows::new();
    for row in rows {
        let field = |k: &str| row.get(k).and_then(Value::as_str).unwrap_or_default().to_owned();
        let stem = Path::new(&field("id")).file_stem().map(|s| s.to_string_lossy().into_owned());
        out.insert(
            stem.unwrap_or_default(),
            (
                field("status"),
                row.get("spfm").and_then(Value::as_f64),
                row.get("asil").and_then(Value::as_str).map(str::to_owned),
            ),
        );
    }
    Ok((out, digest.to_owned()))
}

/// The timed run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    // Set-up: the models, and one warm-up sweep.
    let (dir, ()) = repeated_setup(ctx, &mut report, |dir| {
        write_models(dir, ctx.seed)?;
        sweep(ctx, dir, "journal-warmup").error.map_or(Ok(()), Err)
    })?;

    let models = (SET1 + SET3) as f64;
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut digests: Vec<String> = Vec::new();
    let mut first_rows = None;
    let deadline = ctx.deadline(1.0);
    let cpu = CpuMeter::start();
    while std::time::Instant::now() < deadline {
        let timed = sweep(ctx, &dir, &format!("journal-{}", latencies.len()));
        report.attempted += 1;
        match (timed.error, rows_of(&timed.stdout)) {
            (None, Ok((rows, digest))) => {
                latencies.push(timed.ms);
                rates.push(models / (timed.ms / 1e3));
                if !digests.contains(&digest) {
                    digests.push(digest);
                }
                first_rows.get_or_insert(rows);
            }
            (Some(e), _) | (None, Err(e)) => report.fail(format!("sweep: {e}")),
        }
    }
    report.set("cpu_ms_per_op", cpu.per_op(report.attempted as usize));
    report.latencies(&latencies);
    report.set("throughput_per_s", crate::stats::median(&rates).unwrap_or(0.0));
    report.detail("models_per_sweep", Value::Int(models as i64));

    // Oracles, untimed: one identity digest across sweeps, and every row
    // equal to an in-process pipeline run of the same model.
    if digests.len() > 1 {
        report.fail(format!("{} distinct identity digests across sweeps", digests.len()));
    }
    let rows = first_rows.unwrap_or_default();
    for (name, model) in subjects::fleet_models(SET1, SET3, ctx.seed) {
        let top = inproc::top_of(&model)?;
        let mut engine = Engine::builder().jobs(1).build().map_err(|e| e.to_string())?;
        let input = PipelineInput::for_model(&model, top).with_mission_hours(MISSION_HOURS);
        let run =
            engine.run_pipeline(&Pipeline::standard(false), &input).map_err(|e| e.to_string())?;
        let expected =
            PipelineOutput::new(&run, &engine).metrics.map(|m| (m.spfm, m.achieved_asil));
        let got =
            rows.get(&name).map(|(status, spfm, asil)| (status.as_str(), *spfm, asil.clone()));
        let matches = match (&expected, got) {
            (Some((spfm, asil)), Some(("ok", Some(s), Some(a)))) => *spfm == s && *asil == a,
            _ => false,
        };
        if !matches {
            report.fail(format!(
                "model {name}: fleet row {:?} != in-process {expected:?}",
                rows.get(&name)
            ));
        }
    }
    Ok(report)
}

/// One round of the replay: a fleet sweep through the supervisor's public
/// entry point, then every model through the in-process pipeline.
fn replay_round(
    ctx: &Ctx,
    dir: &Path,
    replay: &Replay,
    names: &[String],
    round: usize,
) -> Result<(), String> {
    let journal = dir.join(format!("journal-{round}"));
    let request = replay.request("sweep");
    let tasks =
        replay.time("fleet", "discover", || decisive::fleet::discover(&dir.join("models")))?;
    let mut options = FleetOptions::new(&journal, &ctx.exe);
    options.workers = 2;
    let (sweep, sweep_ms) =
        replay.time_ms("fleet", "sweep", || run_fleet(tasks, &options, &Telemetry::noop()));
    let sweep = sweep.map_err(|e| e.to_string())?;
    replay.sample("fleet.journal_bytes", proc::dir_bytes(&journal) as f64);
    drop(request);
    let mut model_ms = 0.0;
    for name in names {
        let request = replay.request("model");
        let path = dir.join("models").join(format!("{name}.json"));
        let loaded = replay
            .time("core", "load_model", || persist::load_model(&path))
            .map_err(|e| e.to_string())?;
        let top = inproc::top_of(&loaded)?;
        let (telemetry, counters) = replay.engine_telemetry();
        let mut engine =
            Engine::builder().jobs(1).telemetry(telemetry).build().map_err(|e| e.to_string())?;
        let input = PipelineInput::for_model(&loaded, top).with_mission_hours(MISSION_HOURS);
        let (run, ms) = replay.time_ms("engine", "pipeline", || {
            engine.run_pipeline(&Pipeline::standard(false), &input)
        });
        let run = run.map_err(|e| e.to_string())?;
        model_ms += ms;
        replay.sample("fleet.model_ms", ms);
        let document = replay.time("serve", "json_out", || {
            output::to_json_string(&PipelineOutput::new(&run, &engine))
        })?;
        replay.engine_stats(engine.stats(), counters.map(|c| c.take()));
        replay.sample("serve.response_bytes", document.len() as f64);
        drop(request);
    }
    // Per model: what the sweep cost on its workers beyond the in-process
    // pipeline — spawn, IPC, journal and supervision.
    let workers = sweep.workers.max(1) as f64;
    replay.sample(
        "fleet.overhead_ms_per_model",
        (sweep_ms * workers - model_ms) / names.len() as f64,
    );
    let _ = std::fs::remove_dir_all(&journal);
    Ok(())
}

/// Replays the first sweeps in-process.
fn replay_rounds(ctx: &Ctx, dir: &Path, traced: bool) -> Result<(Replay, f64), String> {
    write_models(dir, ctx.seed)?;
    let replay = Replay::new(traced);
    let names: Vec<String> =
        subjects::fleet_models(SET1, SET3, ctx.seed).into_iter().map(|(name, _)| name).collect();
    for round in 0..REPLAY_SWEEPS {
        replay_round(ctx, dir, &replay, &names, round)?;
    }
    let wall_ms = replay.wall_ms();
    Ok((replay, wall_ms))
}

/// The traced run.
pub fn trace(ctx: &Ctx) -> Result<Report, String> {
    super::traced_run(ctx, |dir, traced| replay_rounds(ctx, dir, traced))
}
