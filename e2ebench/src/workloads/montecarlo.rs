//! `montecarlo`: stochastic reliability campaigns on System B, after the
//! simulation-based assessment of high-level reliability models (Nagy et
//! al.). One client runs `decisive montecarlo` back to back; every trial
//! perturbs the FIT data and repeats the 298-case injection sweep, so
//! nearly all of the time is circuit solves. There is no FTA, no
//! assurance case and no store, and the output is a few hundred bytes:
//! the workload on which an optimisation of the solver or of the trial
//! loop shows, and one on which store or serialisation work must not.

use std::path::Path;

use decisive::circuit::SolverKernel;
use decisive::engine::Engine;
use decisive::federation::{json, Value};
use decisive::output::{self, MonteCarloOutput};

use super::{repeated_setup, write, CpuMeter, Ctx, JOBS};
use crate::inproc;
use crate::proc;
use crate::report::Report;
use crate::rng::Rng;
use crate::subjects::RailDesign;
use crate::trace::Replay;

/// Trials per campaign.
pub const TRIALS: usize = 48;
/// Trials of the set-up's warm-up campaign, which pages in the binary and
/// the inputs.
const WARMUP_TRIALS: usize = 2;
/// Campaigns the traced run replays.
const REPLAY_CAMPAIGNS: usize = 2;

/// The campaigns' master seed: every campaign of a run uses the same one,
/// so every report must be byte-identical.
fn mc_seed(seed: u64) -> u64 {
    Rng::new(seed, "montecarlo/seed").next_u64() >> 32
}

fn campaign(ctx: &Ctx, dir: &Path, trials: usize, jobs: &str) -> proc::Timed {
    let (trials, seed) = (trials.to_string(), mc_seed(ctx.seed).to_string());
    let args = [
        "montecarlo",
        "design.bd",
        "--reliability",
        "design.csv",
        "--trials",
        &trials,
        "--seed",
        &seed,
        "--jobs",
        jobs,
        "--format",
        "json",
    ];
    proc::run(&ctx.exe, dir, &args)
}

/// The `report` object of a campaign's JSON document.
fn report_of(stdout: &[u8]) -> Result<String, String> {
    let value = json::parse(&String::from_utf8_lossy(stdout)).map_err(|e| e.to_string())?;
    value.get("report").map(json::to_string).ok_or_else(|| "no `report` in output".to_owned())
}

/// The timed run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let design = RailDesign::sysb(ctx.seed);
    // Set-up: the design's files and one warm-up campaign.
    let (dir, ()) = repeated_setup(ctx, &mut report, |dir| {
        write(&dir.join("design.bd"), &design.bd_text())?;
        write(&dir.join("design.csv"), &design.reliability_csv())?;
        campaign(ctx, dir, WARMUP_TRIALS, JOBS).error.map_or(Ok(()), Err)
    })?;

    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut reports: Vec<String> = Vec::new();
    let deadline = ctx.deadline(1.0);
    let cpu = CpuMeter::start();
    while std::time::Instant::now() < deadline {
        let timed = campaign(ctx, &dir, TRIALS, JOBS);
        report.attempted += 1;
        match (timed.error, report_of(&timed.stdout)) {
            (None, Ok(text)) => {
                latencies.push(timed.ms);
                rates.push(TRIALS as f64 / (timed.ms / 1e3));
                if !reports.contains(&text) {
                    reports.push(text);
                }
            }
            (Some(e), _) | (None, Err(e)) => report.fail(format!("campaign: {e}")),
        }
    }
    report.set("cpu_ms_per_op", cpu.per_op(report.attempted as usize));
    report.latencies(&latencies);
    report.set("throughput_per_s", crate::stats::median(&rates).unwrap_or(0.0));
    report.detail("trials_per_campaign", Value::Int(TRIALS as i64));

    // Oracle, untimed: one report across all campaigns, equal to the
    // single-worker run's.
    if reports.len() > 1 {
        report.fail(format!("{} distinct reports across campaigns of one seed", reports.len()));
    }
    let single = campaign(ctx, &dir, TRIALS, "1");
    match (single.error, report_of(&single.stdout)) {
        (None, Ok(text)) if reports.first() == Some(&text) => {}
        (None, Ok(_)) => report.fail("the --jobs 1 report differs from the --jobs 2 reports"),
        (Some(e), _) | (None, Err(e)) => report.fail(format!("--jobs 1 campaign: {e}")),
    }
    Ok(report)
}

/// Replays the first campaigns in-process as `decisive montecarlo` runs
/// them.
fn replay_campaigns(ctx: &Ctx, traced: bool) -> Result<(Replay, f64), String> {
    let design = RailDesign::sysb(ctx.seed);
    let (bd, csv) = (design.bd_text(), design.reliability_csv());
    let replay = Replay::new(traced);
    for _ in 0..REPLAY_CAMPAIGNS {
        let request = replay.request("campaign");
        let (diagram, db) = inproc::parse_bd(&bd, &csv, &replay)?;
        let (telemetry, counters) = replay.engine_telemetry();
        let mut engine = replay
            .time("engine", "open", || Engine::builder().jobs(1).telemetry(telemetry).build())
            .map_err(|e| e.to_string())?;
        let config = inproc::injection_config(SolverKernel::Sparse);
        let mc = replay
            .time("engine", "montecarlo", || {
                engine.analyze_montecarlo(&diagram, &db, &config, TRIALS, mc_seed(ctx.seed))
            })
            .map_err(|e| e.to_string())?;
        let document = replay.time("serve", "json_out", || {
            output::to_json_string(&MonteCarloOutput::new(mc, &engine))
        })?;
        replay.engine_stats(engine.stats(), counters.map(|c| c.take()));
        replay.sample("serve.response_bytes", document.len() as f64);
        drop(request);
    }
    let wall_ms = replay.wall_ms();
    Ok((replay, wall_ms))
}

/// The traced run.
pub fn trace(ctx: &Ctx) -> Result<Report, String> {
    super::traced_run(ctx, |_, traced| replay_campaigns(ctx, traced))
}
