//! The four workloads. Each has a timed run (the program spawned as a
//! user runs it; end-to-end metrics) and a traced replay (the same
//! operations in-process; per-layer metrics).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use decisive::federation::Value;

use crate::report::{Report, PER_LAYER};
use crate::stats;
use crate::trace::Replay;

pub mod design_loop;
pub mod fleet_sweep;
pub mod montecarlo;
pub mod serve_mixed;

/// Set-ups per run; the median is `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// Jobs and workers the program runs with, and the harness's thread and
/// connection cap: the 2-core machine the baseline was taken on.
pub const JOBS: &str = "2";

/// What every workload needs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `decisive` binary.
    pub exe: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase (untraced) or replay budget (traced).
    pub seconds: f64,
    /// Directory for this run's files; the run deletes it at the end.
    pub work: PathBuf,
    /// Where a traced run writes its Chrome trace.
    pub trace_path: PathBuf,
}

impl Ctx {
    /// The timed phase's deadline, counted from now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["design-loop", "fleet-sweep", "montecarlo", "serve-mixed"];

/// Runs workload `name`, timed or traced.
pub fn run(name: &str, ctx: &Ctx, traced: bool) -> Result<Report, String> {
    match (name, traced) {
        ("design-loop", false) => design_loop::run(ctx),
        ("design-loop", true) => design_loop::trace(ctx),
        ("fleet-sweep", false) => fleet_sweep::run(ctx),
        ("fleet-sweep", true) => fleet_sweep::trace(ctx),
        ("montecarlo", false) => montecarlo::run(ctx),
        ("montecarlo", true) => montecarlo::trace(ctx),
        ("serve-mixed", false) => serve_mixed::run(ctx),
        ("serve-mixed", true) => serve_mixed::trace(ctx),
        _ => Err(format!("unknown workload `{name}` (one of {})", NAMES.join(", "))),
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, each into a fresh directory
/// under the run's work area, records the median wall time as `setup_s`
/// and returns the last set-up (earlier ones are dropped, which stops any
/// process they started).
pub fn repeated_setup<T>(
    ctx: &Ctx,
    report: &mut Report,
    mut setup: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(PathBuf, T), String> {
    // Page the binary in first, so the first set-up pays no more for
    // that than the others.
    let _ = std::process::Command::new(&ctx.exe).arg("--version").output();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        let dir = ctx.work.join(format!("rep{rep}"));
        let started = Instant::now();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let made = setup(&dir)?;
        times.push(started.elapsed().as_secs_f64());
        if let Some((old_dir, old)) = last.replace((dir, made)) {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    report.set("setup_s", stats::median(&times).unwrap_or(0.0));
    report.detail("setup_s_each", Value::list(times.iter().map(|&t| Value::Real(t))));
    Ok(last.expect("at least one set-up"))
}

/// Measures the CPU time spawned processes spend in the timed phase:
/// start it before the first timed operation, finish it after the last.
#[derive(Debug)]
pub struct CpuMeter(f64);

impl CpuMeter {
    /// Starts counting.
    pub fn start() -> CpuMeter {
        CpuMeter(crate::proc::children_usage().cpu_ms)
    }

    /// CPU milliseconds per operation over the `ops` operations timed
    /// since [`CpuMeter::start`].
    pub fn per_op(self, ops: usize) -> f64 {
        (crate::proc::children_usage().cpu_ms - self.0) / ops.max(1) as f64
    }
}

/// Writes `text` to `path`.
pub fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The traced run of a workload. `replay(dir, traced)` replays the
/// workload's fixed slice in-process under `dir` and returns the replay
/// with its wall time; it runs once with spans, which give the split,
/// the per-layer metrics and the Chrome trace, and once without, and the
/// difference is the tracing overhead.
pub fn traced_run(
    ctx: &Ctx,
    replay: impl Fn(&Path, bool) -> Result<(Replay, f64), String>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let (traced, traced_ms) = replay(&ctx.work.join("traced"), true)?;
    let spans = traced.drain();
    let (_, untraced_ms) = replay(&ctx.work.join("untraced"), false)?;
    report.set("replay.overhead_pct", 100.0 * (traced_ms - untraced_ms) / untraced_ms);
    report.detail("replay_traced_ms", Value::Real(traced_ms));
    report.detail("replay_untraced_ms", Value::Real(untraced_ms));
    traced.report_split(&spans, traced_ms, &mut report);
    report.attempted = traced.ops();
    layer_metrics(&mut report, &traced);
    write(&ctx.trace_path, &spans.to_chrome_json())?;
    eprintln!("# trace: {} span(s) written to {}", spans.spans.len(), ctx.trace_path.display());
    Ok(report)
}

/// Fills every per-layer metric the workload has not set itself from the
/// samples of its replay: `…_p50` and `…_max` of the named samples, the
/// median otherwise; 0 for a call the replay never made.
fn layer_metrics(report: &mut Report, replay: &Replay) {
    for &(name, _) in PER_LAYER.iter() {
        if report.metrics.contains_key(name) {
            continue;
        }
        let value = if let Some(samples) = name.strip_suffix("_p50") {
            replay.percentile(samples, 50.0)
        } else if let Some(samples) = name.strip_suffix("_max") {
            replay.max(samples)
        } else {
            replay.median(name)
        };
        report.set(name, value);
    }
}
