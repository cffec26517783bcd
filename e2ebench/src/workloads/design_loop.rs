//! `design-loop`: the paper's iterative loop on System B. One designer
//! (a closed loop, one client) first runs `decisive pipeline` on `sysb-e`
//! with a fresh cache a few times, as a new checkout or a CI job does,
//! then edits the design and re-runs `decisive pipeline --cache` after
//! every edit, against one store that keeps growing.
//!
//! The edit kinds share different amounts of work with earlier runs:
//! `touch` (save without change) and `revert` (restore one of the last
//! ten revisions) are store reads; `param` (one source voltage or
//! resistance ×[0.8, 1.25]), `fit` (one type's FIT ×[0.8, 1.25]) and
//! `struct` (add or remove one shunt) recompute every injection row, the
//! FTA and the store appends.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

use decisive::circuit::SolverKernel;
use decisive::engine::Engine;
use decisive::federation::Value;
use decisive::output;

use super::{repeated_setup, write, CpuMeter, Ctx, JOBS};
use crate::inproc;
use crate::proc;
use crate::report::Report;
use crate::rng::{BlockMix, Rng};
use crate::stats;
use crate::subjects::RailDesign;
use crate::trace::Replay;

/// One edit step of the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Save the design unchanged and re-run.
    Touch,
    /// Restore one of the last ten revisions.
    Revert,
    /// Change one electrical parameter.
    Param,
    /// Change one reliability type's FIT.
    Fit,
    /// Add or remove one shunt resistor.
    Struct,
}

impl Step {
    /// The step's name in records and traces.
    pub fn name(self) -> &'static str {
        match self {
            Step::Touch => "touch",
            Step::Revert => "revert",
            Step::Param => "param",
            Step::Fit => "fit",
            Step::Struct => "struct",
        }
    }
}

/// Steps per block of the mix (20 steps): `touch` 25 %, `param` 25 %,
/// `fit` 15 %, `struct` 15 %, `revert` 20 %.
const MIX: [(Step, usize); 5] =
    [(Step::Touch, 5), (Step::Param, 5), (Step::Fit, 3), (Step::Struct, 3), (Step::Revert, 4)];

/// Revisions a `revert` can return to.
const HISTORY: usize = 10;

/// Fresh-cache runs before the edit steps.
const COLD_RUNS: usize = 15;

/// Edit steps per second of `--seconds`, rounded up to whole blocks of
/// the mix: a fixed amount of work, about `--seconds` long with the cold
/// runs on the baseline machine, so the store ends every run the same
/// size.
const STEPS_PER_SECOND: f64 = 12.0;

/// Every this many steps, a step's output is checked as well.
const CHECK_EVERY: usize = 10;

/// Edit steps the traced run replays, after one cold run.
const REPLAY_STEPS: usize = 50;

/// The seeded sequence of steps and the revision each one leaves.
#[derive(Debug, Clone)]
pub struct EditScript {
    mix: BlockMix<Step>,
    rng: Rng,
    current: RailDesign,
    history: VecDeque<RailDesign>,
}

impl EditScript {
    /// The script of `seed`, starting from that seed's `sysb-e`.
    pub fn new(seed: u64) -> EditScript {
        EditScript {
            mix: BlockMix::new(Rng::new(seed, "design-loop/mix"), &MIX),
            rng: Rng::new(seed, "design-loop/edits"),
            current: RailDesign::sysb(seed),
            history: VecDeque::new(),
        }
    }

    /// The revision the last step left.
    pub fn current(&self) -> &RailDesign {
        &self.current
    }

    fn remember(&mut self, revision: RailDesign) {
        self.history.push_back(revision);
        if self.history.len() > HISTORY {
            self.history.pop_front();
        }
    }

    /// Draws and applies the next step.
    pub fn next_step(&mut self) -> Step {
        let step = self.mix.next_kind();
        match step {
            Step::Touch => {}
            Step::Revert => {
                if !self.history.is_empty() {
                    let k = self.rng.below(self.history.len());
                    let restored = self.history.remove(k).expect("index below length");
                    let left = std::mem::replace(&mut self.current, restored);
                    self.remember(left);
                }
            }
            Step::Param | Step::Fit | Step::Struct => {
                self.remember(self.current.clone());
                match step {
                    Step::Param => self.current.edit_param(&mut self.rng),
                    Step::Fit => self.current.edit_fit(&mut self.rng),
                    _ => self.current.edit_structure(&mut self.rng),
                }
            }
        }
        step
    }
}

/// The design's two files, as written for the program.
fn files(design: &RailDesign) -> (String, String) {
    (design.bd_text(), design.reliability_csv())
}

fn write_design(dir: &Path, design: &RailDesign) -> Result<(), String> {
    let (bd, csv) = files(design);
    write(&dir.join("design.bd"), &bd)?;
    write(&dir.join("design.csv"), &csv)
}

fn pipeline(ctx: &Ctx, dir: &Path, cache: &str) -> proc::Timed {
    let args = [
        "pipeline",
        "design.bd",
        "--reliability",
        "design.csv",
        "--cache",
        cache,
        "--jobs",
        JOBS,
        "--format",
        "json",
    ];
    proc::run(&ctx.exe, dir, &args)
}

/// The timed run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    // Set-up: the seed's base revision, primed into the loop's cache.
    let (dir, ()) = repeated_setup(ctx, &mut report, |dir| {
        write_design(dir, &RailDesign::sysb(ctx.seed))?;
        pipeline(ctx, dir, "cache").error.map_or(Ok(()), Err)
    })?;
    let mut checks: Vec<(String, RailDesign, Vec<u8>)> = Vec::new();

    // Cold runs of the base revision, each on an empty cache.
    let mut cold = Vec::with_capacity(COLD_RUNS);
    for k in 0..COLD_RUNS {
        let timed = pipeline(ctx, &dir, "cold-cache");
        let _ = std::fs::remove_dir_all(dir.join("cold-cache"));
        report.attempted += 1;
        match timed.error {
            Some(e) => report.fail(format!("cold run {k}: {e}")),
            None => {
                cold.push(timed.ms);
                checks.push((format!("cold run {k}"), RailDesign::sysb(ctx.seed), timed.stdout));
            }
        }
    }

    let mut script = EditScript::new(ctx.seed);
    let mut latencies = Vec::new();
    let mut by_step: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let block = script.mix.block_len();
    let steps = ((STEPS_PER_SECOND * ctx.seconds) as usize).div_ceil(block) * block;
    let cpu = CpuMeter::start();
    for i in 0..steps {
        let step = script.next_step();
        write_design(&dir, script.current())?;
        let timed = pipeline(ctx, &dir, "cache");
        report.attempted += 1;
        if let Some(e) = timed.error {
            report.fail(format!("step {i} ({}): {e}", step.name()));
        } else {
            latencies.push(timed.ms);
            by_step.entry(step.name()).or_default().push(timed.ms);
            if i % CHECK_EVERY == 0 {
                checks.push((format!("step {i}"), script.current().clone(), timed.stdout));
            }
        }
    }
    report.set("cpu_ms_per_op", cpu.per_op(steps));
    report.latencies(&latencies);
    let total_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    report.set("throughput_per_s", latencies.len() as f64 / total_s.max(f64::MIN_POSITIVE));
    report.detail("cold_ms_p50", Value::Real(stats::percentile(&cold, 50.0).unwrap_or(0.0)));
    report.detail("cold_count", Value::Int(cold.len() as i64));
    for (name, samples) in &by_step {
        let p50 = stats::percentile(samples, 50.0).unwrap_or(0.0);
        report.detail(&format!("{name}_ms_p50"), Value::Real(p50));
        report.detail(&format!("{name}_count"), Value::Int(samples.len() as i64));
    }
    report.detail("store_bytes", Value::Int(proc::dir_bytes(&dir.join("cache")) as i64));

    // Oracles, untimed: checked outputs against a fresh in-process run of
    // the same files, and the base revision's verdicts under the dense
    // kernel against the sparse one.
    let mut references: BTreeMap<(String, String), String> = BTreeMap::new();
    for (what, design, stdout) in &checks {
        let key = files(design);
        if !references.contains_key(&key) {
            let reference = inproc::reference_doc(&key.0, &key.1, SolverKernel::Sparse)?;
            references.insert(key.clone(), reference);
        }
        let got = inproc::verdict_doc(&String::from_utf8_lossy(stdout));
        if got.as_ref() != Ok(&references[&key]) {
            report.fail(format!("{what}: CLI output differs from the in-process reference"));
        }
    }
    report.detail("checked_runs", Value::Int(checks.len() as i64));
    let (bd, csv) = files(&RailDesign::sysb(ctx.seed));
    let sparse = inproc::verdicts(&inproc::reference_doc(&bd, &csv, SolverKernel::Sparse)?)?;
    let dense = inproc::verdicts(&inproc::reference_doc(&bd, &csv, SolverKernel::Dense)?)?;
    if sparse != dense {
        report.fail("base sysb-e verdicts differ between the sparse and dense kernels");
    }
    Ok(report)
}

/// Replays, in-process as `decisive pipeline --cache` runs them, one cold
/// run (which fills the loop's cache, as the timed run's set-up does) and
/// the first [`REPLAY_STEPS`] edit steps.
fn replay_steps(ctx: &Ctx, dir: &Path, traced: bool) -> Result<(Replay, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let replay = Replay::new(traced);
    let cache = dir.join("cache");
    let mut script = EditScript::new(ctx.seed);
    for done in 0..=REPLAY_STEPS {
        let kind = if done == 0 { "cold" } else { script.next_step().name() };
        let request = replay.request(kind);
        let (bd, csv) = files(script.current());
        replay.time("bench", "write_inputs", || write_design(dir, script.current()))?;
        let input = inproc::load_bd(&bd, &csv, &replay)?;
        let (telemetry, counters) = replay.engine_telemetry();
        let mut engine = replay
            .time("engine", "open", || {
                Engine::builder().cache_dir(&cache).jobs(1).telemetry(telemetry).build()
            })
            .map_err(|e| e.to_string())?;
        let out = replay.time("engine", "pipeline", || {
            inproc::run_pipeline(&input, &mut engine, SolverKernel::Sparse)
        })?;
        replay.time("engine", "sync", || engine.save_cache(&cache)).map_err(|e| e.to_string())?;
        let document = replay.time("serve", "json_out", || output::to_json_string(&out))?;
        replay.engine_stats(engine.stats(), counters.map(|c| c.take()));
        replay.sample("serve.response_bytes", document.len() as f64);
        replay.time("bench", "measure", || {
            replay.sample("engine.store_bytes", proc::dir_bytes(&cache) as f64);
        });
        drop(request);
    }
    let wall_ms = replay.wall_ms();
    Ok((replay, wall_ms))
}

/// The traced run.
pub fn trace(ctx: &Ctx) -> Result<Report, String> {
    super::traced_run(ctx, |dir, traced| replay_steps(ctx, dir, traced))
}
