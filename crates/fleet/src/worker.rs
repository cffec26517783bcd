//! The worker side of the fleet: a line protocol over stdio.
//!
//! A worker is the `decisive` binary re-executed with the hidden
//! `fleet-worker` verb. It reads one task per line on stdin, analyses the
//! model with a private single-threaded engine over a process-wide shared
//! artefact store (so repeated models are cache hits *within* the worker),
//! and answers with exactly one row line on stdout. Everything that can go
//! wrong deterministically — parse failure, pipeline error, a panic inside
//! an analysis pass — becomes a `failed` row, not a dead process; only the
//! genuinely non-deterministic deaths (segfault, abort, OOM, kill) are
//! left to the supervisor's process-level containment.

use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use decisive_core::metrics;
use decisive_core::request::{AnalysisOp, AnalysisRequest, RunSpec};
use decisive_engine::{Engine, OpArtifact, SharedStore};
use decisive_federation::json;
use decisive_workload::sets;

use crate::report::{status, FleetRow};
use crate::task::{FleetTask, TaskSource};

/// Environment hook for the chaos harness: when set, a worker handed a
/// task whose id contains the value *on its first attempt* calls
/// [`std::process::abort`] before analysing — simulating a model that
/// segfaults the process once and succeeds on retry. Deterministic (the
/// attempt counter travels on the wire), so interrupted and uninterrupted
/// campaigns under the same hook converge to identical reports.
pub const ABORT_ONCE_ENV: &str = "DECISIVE_FLEET_ABORT_ONCE";

/// Environment hook simulating a poison model: a task whose id contains
/// the value aborts the worker on *every* attempt, which must end in
/// quarantine rather than a fleet hang or crash loop.
pub const POISON_ENV: &str = "DECISIVE_FLEET_POISON";

/// Environment hook simulating a hung solver: a task whose id contains
/// the value sleeps forever, which must trip the supervisor's per-model
/// deadline, not stall the fleet.
pub const HANG_ENV: &str = "DECISIVE_FLEET_HANG";

fn env_matches(var: &str, id: &str) -> bool {
    std::env::var(var).map(|needle| !needle.is_empty() && id.contains(&needle)).unwrap_or(false)
}

/// Analyses one task and reports the worker-side row fields (identity
/// subset plus wall time and cache traffic; the supervisor owns attempts
/// and shard). `op` selects the analysis: the full standard pipeline, or
/// a seeded Monte-Carlo campaign for `.bd` tasks. The spec's reliability
/// annex parses strictly — a fleet row must not silently degrade — and no
/// post-run `strict` check runs.
///
/// # Errors
///
/// The standardized error text for a deterministic analysis failure.
fn analyze(
    task: &FleetTask,
    op: AnalysisOp,
    spec: &RunSpec,
    store: &SharedStore,
) -> Result<FleetRow, String> {
    let op = match op {
        AnalysisOp::Analyze | AnalysisOp::Pipeline => AnalysisOp::Pipeline,
        AnalysisOp::MonteCarlo => AnalysisOp::MonteCarlo,
        AnalysisOp::Recommend => {
            return Err(format!("op `{}` is not a fleet operation", op.name()));
        }
    };
    let spec = RunSpec { strict: true, ..spec.clone() };
    let mut engine =
        Engine::builder().jobs(1).shared_store(store.clone()).build().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let output = match &task.source {
        TaskSource::File(path) => {
            engine.execute(&AnalysisRequest::new(op, path.to_string_lossy(), spec))
        }
        TaskSource::Workload { set, instance, seed } => {
            let set = sets::set_by_name(set).ok_or_else(|| format!("unknown set `{set}`"))?;
            let (model, _) = sets::instance_model(&set, *instance, *seed);
            engine.execute_model(op, &model, &task.id, &spec)
        }
    }
    .map_err(|e| e.to_string())?;
    let (spfm, spfm_half_width) = match &output.artifact {
        OpArtifact::MonteCarlo(report) => (Some(report.spfm.mean), Some(report.spfm.half_width)),
        _ => (output.fmea().map(|table| table.spfm()), None),
    };
    Ok(FleetRow {
        id: task.id.clone(),
        content_fp: task.content_fp,
        status: status::OK.to_owned(),
        spfm,
        spfm_half_width,
        asil: spfm.map(|spfm| metrics::achieved_asil(spfm).to_string()),
        elements: output.elements() as u64,
        error: None,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        attempts: 0,
        shard: 0,
        cache_hits: engine.stats().cache_hits() as u64,
        cache_misses: engine.stats().cache_misses() as u64,
    })
}

/// Handles one task line: chaos hooks, panic isolation, one row out.
fn handle_line(line: &str, store: &SharedStore) -> FleetRow {
    let parsed = json::parse(line)
        .map_err(|e| format!("bad task line: {e}"))
        .and_then(|v| FleetTask::from_wire(&v));
    let (task, attempt, op, spec) = match parsed {
        Ok(t) => t,
        Err(message) => {
            return FleetRow::failure("<unparsed>", 0, status::FAILED, message);
        }
    };
    if env_matches(POISON_ENV, &task.id) || (attempt == 0 && env_matches(ABORT_ONCE_ENV, &task.id))
    {
        std::process::abort();
    }
    if env_matches(HANG_ENV, &task.id) {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| analyze(&task, op, &spec, store)));
    match outcome {
        Ok(Ok(row)) => row,
        Ok(Err(message)) => FleetRow::failure(&task.id, task.content_fp, status::FAILED, message),
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic");
            FleetRow::failure(
                &task.id,
                task.content_fp,
                status::FAILED,
                format!("analysis panicked: {message}"),
            )
        }
    }
}

/// The worker main loop: the body of `decisive fleet-worker`. Returns the
/// process exit code (0 on orderly shutdown when the supervisor closes our
/// stdin).
pub fn run_worker() -> i32 {
    // Panics inside passes are caught per task; a panic that escapes to a
    // worker *thread* elsewhere must still kill the process so the
    // supervisor sees a death instead of a hang.
    let store = SharedStore::new();
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => return 1,
        };
        if line.trim().is_empty() {
            continue;
        }
        let row = handle_line(&line, &store);
        if writeln!(stdout, "{}", json::to_string(&row.to_value())).is_err()
            || stdout.flush().is_err()
        {
            // The supervisor went away; nothing sensible left to do.
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(task: &FleetTask) -> String {
        json::to_string(&task.to_wire(0, AnalysisOp::Pipeline, &RunSpec::default()))
    }

    #[test]
    fn workload_task_produces_an_ok_row() {
        let store = SharedStore::new();
        let task = FleetTask::for_workload("Set0", 0, 42);
        let row = handle_line(&wire(&task), &store);
        assert_eq!(row.status, status::OK, "{:?}", row.error);
        assert_eq!(row.id, "Set0#0");
        assert!(row.asil.is_some() && row.spfm.is_some());
        assert!(row.elements > 0);
    }

    #[test]
    fn repeated_task_hits_the_shared_store() {
        let store = SharedStore::new();
        let task = FleetTask::for_workload("Set0", 1, 42);
        let cold = handle_line(&wire(&task), &store);
        let warm = handle_line(&wire(&task), &store);
        assert!(cold.cache_misses > 0, "cold run misses");
        assert!(warm.cache_hits > cold.cache_hits, "second run reuses artefacts");
        assert_eq!(cold.identity_value(), warm.identity_value());
    }

    #[test]
    fn broken_model_is_a_failed_row_not_a_death() {
        let dir = std::env::temp_dir().join(format!("fleet_worker_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.json");
        std::fs::write(&path, "{ not json").unwrap();
        let store = SharedStore::new();
        let task = FleetTask::for_file(&path).unwrap();
        let row = handle_line(&wire(&task), &store);
        assert_eq!(row.status, status::FAILED);
        assert!(row.error.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn montecarlo_task_reports_mean_and_half_width() {
        let dir = std::env::temp_dir().join(format!("fleet_worker_mc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("supply.bd");
        let (diagram, _) = decisive_blocks::gallery::sensor_power_supply();
        std::fs::write(&path, decisive_blocks::text::to_text(&diagram)).unwrap();
        let store = SharedStore::new();
        let task = FleetTask::for_file(&path).unwrap();
        let spec = RunSpec { trials: 8, seed: 3, ..RunSpec::default() };
        let line = json::to_string(&task.to_wire(0, AnalysisOp::MonteCarlo, &spec));
        let row = handle_line(&line, &store);
        assert_eq!(row.status, status::OK, "{:?}", row.error);
        assert!(row.spfm.is_some());
        assert!(row.spfm_half_width.is_some(), "montecarlo rows carry a CI half-width");
        // Same seed → identical identity, chaos-style.
        let again = handle_line(&line, &store);
        assert_eq!(row.identity_value(), again.identity_value());
        // Workload sources have no injection campaign to sample.
        let workload = FleetTask::for_workload("Set0", 0, 1);
        let bad = json::to_string(&workload.to_wire(0, AnalysisOp::MonteCarlo, &spec));
        let row = handle_line(&bad, &store);
        assert_eq!(row.status, status::FAILED);
        assert!(row.error.as_deref().unwrap().contains(".bd"), "{:?}", row.error);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unparseable_line_is_reported_not_fatal() {
        let store = SharedStore::new();
        let row = handle_line("][", &store);
        assert_eq!(row.status, status::FAILED);
        assert_eq!(row.id, "<unparsed>");
    }
}
