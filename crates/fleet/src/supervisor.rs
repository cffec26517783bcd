//! The fleet supervisor: shards tasks across worker *processes*, contains
//! their deaths, and journals every terminal row.
//!
//! Containment is the point. An analysis that panics is already a typed
//! `failed` row (the worker catches it); what the supervisor adds is
//! process-level isolation for the failures no in-process handler can
//! catch — segfault, abort, OOM kill, a hung solver. Each worker slot owns
//! one child process; a death or deadline overrun kills and respawns only
//! that child, retries the model with exponential backoff, and a model
//! that keeps killing workers is quarantined with a terminal row instead
//! of crash-looping the campaign.
//!
//! Durability rides on the PR 7 segmented store: every terminal row is
//! appended and fsynced *before* it counts as done, so `kill -9` of the
//! supervisor itself loses at most in-flight work — `--resume` replays the
//! journal, keeps rows whose content fingerprint still matches, and
//! re-runs only the rest.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use decisive_core::request::{AnalysisOp, RunSpec};
use decisive_engine::fingerprint::Hasher;
use decisive_engine::obs::metrics::DurationHistogram;
use decisive_engine::obs::Telemetry;
use decisive_engine::{atomic_write, ArtifactKind, SegmentStore, StoreOptions, StoreRecovery};
use decisive_federation::{json, Value};

use crate::report::{status, FleetReport, FleetRow};
use crate::task::FleetTask;

/// Name of the live status document the supervisor atomically rewrites on
/// every terminal row (and that `decisive serve` surfaces on request).
pub const STATUS_FILE: &str = "FLEET_STATUS.json";

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Worker processes (supervisor slots).
    pub workers: usize,
    /// Per-model wall-clock deadline enforced by the supervisor.
    pub deadline_ms: u64,
    /// Retry policy for worker deaths and deadline overruns. Deterministic
    /// analysis failures are terminal immediately — retrying them could
    /// only burn time and (worse) make resumed reports diverge.
    pub retry: RetryPolicy,
    /// A model whose worker dies this many times is quarantined.
    pub poison_kills: u32,
    /// Journal directory (segmented store + status file).
    pub journal: PathBuf,
    /// Keep journaled rows whose content fingerprint still matches instead
    /// of starting the campaign over.
    pub resume: bool,
    /// Which analysis every task runs (`pipeline` by default,
    /// `montecarlo` for stochastic sweeps over `.bd` designs).
    pub op: AnalysisOp,
    /// The unified run spec handed to every worker (mission time,
    /// reliability override, solver kernel, trials, seed).
    pub spec: RunSpec,
    /// The binary to re-exec with `fleet-worker` (normally
    /// `std::env::current_exe()`).
    pub worker_exe: PathBuf,
}

impl FleetOptions {
    /// Defaults for a campaign journaling under `journal` and re-execing
    /// `worker_exe`.
    pub fn new(journal: impl Into<PathBuf>, worker_exe: impl Into<PathBuf>) -> FleetOptions {
        FleetOptions {
            workers: 4,
            deadline_ms: 30_000,
            retry: RetryPolicy::backoff(2, 10.0),
            poison_kills: 2,
            journal: journal.into(),
            resume: false,
            op: AnalysisOp::Pipeline,
            spec: RunSpec::default(),
            worker_exe: worker_exe.into(),
        }
    }
}

/// How the supervisor retries a model whose worker died or overran its
/// deadline: up to [`RetryPolicy::max_retries`] extra attempts, each
/// preceded by an exponential backoff delay with deterministic jitter.
///
/// Jitter is derived from the repository's standard content [`Hasher`]
/// over `(salt, attempt)` rather than a random source, so a given
/// (task, attempt) pair always backs off by the same amount — campaigns
/// replay deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure. `0` fails fast.
    pub max_retries: usize,
    /// Backoff before the first retry, in milliseconds. `0` never sleeps.
    pub base_ms: f64,
    /// Multiplier applied per further retry (`base * factor^attempt`).
    pub factor: f64,
    /// Upper bound on one backoff delay, in milliseconds.
    pub max_ms: f64,
    /// Fraction of each delay subject to jitter, in `[0, 1]`: the delay is
    /// scaled by a deterministic factor drawn from `[1 - jitter, 1]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    /// One retry without backoff.
    fn default() -> Self {
        RetryPolicy { max_retries: 1, base_ms: 0.0, factor: 2.0, max_ms: 30_000.0, jitter: 0.5 }
    }
}

impl RetryPolicy {
    /// No retries at all: the first death is terminal.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// A policy with `max_retries` attempts backing off exponentially from
    /// `base_ms` (factor 2, jittered, capped by the default `max_ms`).
    pub fn backoff(max_retries: usize, base_ms: f64) -> Self {
        RetryPolicy { max_retries, base_ms: base_ms.max(0.0), ..RetryPolicy::default() }
    }

    /// The backoff before retry `attempt` (0-based) of the task identified
    /// by `salt`. Deterministic: same `(policy, attempt, salt)` ⇒ same
    /// delay.
    pub fn delay_ms(&self, attempt: usize, salt: u64) -> f64 {
        if self.base_ms <= 0.0 {
            return 0.0;
        }
        let raw = self.base_ms * self.factor.max(1.0).powi(attempt.min(63) as i32);
        let capped = raw.min(self.max_ms.max(self.base_ms));
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter <= 0.0 {
            return capped;
        }
        let digest = Hasher::new().write_u64(salt).write_u64(attempt as u64).finish().0;
        // Top 53 bits → a uniform unit interval, exactly representable.
        let unit = (digest >> 11) as f64 / (1u64 << 53) as f64;
        capped * (1.0 - jitter * unit)
    }
}

/// Why a worker stopped producing a row for the task it was handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Death {
    /// The child process exited or was killed.
    Died,
    /// The per-model deadline expired (the supervisor killed the child).
    DeadlineExceeded,
}

/// What the supervisor does next after a worker death.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    /// Re-enqueue with the given backoff.
    Retry { delay_ms: f64 },
    /// Write this terminal row and move on.
    Terminal(FleetRow),
}

/// Pure decision function for a death: quarantine beats retry beats a
/// terminal crash/timeout row. The produced error strings are free of
/// exit codes and timings on purpose — terminal rows are part of the
/// report identity, and a resumed campaign must reproduce them verbatim.
fn after_death(
    task: &FleetTask,
    attempt: u32,
    kills: u32,
    death: Death,
    options: &FleetOptions,
) -> Verdict {
    if kills >= options.poison_kills {
        return Verdict::Terminal(FleetRow::failure(
            &task.id,
            task.content_fp,
            status::QUARANTINED,
            format!("killed {kills} worker(s); quarantined, never rescheduled"),
        ));
    }
    if (attempt as usize) < options.retry.max_retries {
        return Verdict::Retry {
            delay_ms: options.retry.delay_ms(attempt as usize, task.journal_key().0),
        };
    }
    let (code, error) = match death {
        Death::Died => (status::CRASHED, format!("worker died on all {} attempt(s)", attempt + 1)),
        Death::DeadlineExceeded => (
            status::TIMEOUT,
            format!(
                "deadline of {} ms exceeded on all {} attempt(s)",
                options.deadline_ms,
                attempt + 1
            ),
        ),
    };
    Verdict::Terminal(FleetRow::failure(&task.id, task.content_fp, code, error))
}

/// One queued unit: the task plus its retry state.
struct QueueItem {
    task: FleetTask,
    attempt: u32,
    kills: u32,
}

/// A live worker process with its line-reader thread.
struct WorkerProc {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<String>,
}

impl WorkerProc {
    fn spawn(options: &FleetOptions) -> Result<WorkerProc, String> {
        let mut child = Command::new(&options.worker_exe)
            .arg("fleet-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", options.worker_exe.display()))?;
        let stdin = child.stdin.take().ok_or("worker stdin unavailable")?;
        let stdout = child.stdout.take().ok_or("worker stdout unavailable")?;
        let (tx, rx) = std::sync::mpsc::channel();
        // Detached on purpose: the thread ends when the child's stdout
        // closes (death or orderly exit), and the receiver observes that
        // as a disconnect.
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if tx.send(line.trim_end().to_owned()).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        Ok(WorkerProc { child, stdin, rx })
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Reaps an already-dead child (after a channel disconnect).
    fn reap(mut self) {
        let _ = self.child.wait();
    }
}

/// Shared campaign state the slot threads append into.
struct Shared<'a> {
    queue: Mutex<VecDeque<QueueItem>>,
    rows: Mutex<Vec<FleetRow>>,
    latency: Mutex<Vec<DurationHistogram>>,
    journal: &'a SegmentStore,
    options: &'a FleetOptions,
    telemetry: &'a Telemetry,
    total: usize,
    resumed: usize,
}

impl Shared<'_> {
    /// Journals a terminal row (append + fsync *before* it counts),
    /// records it, and rewrites the status file.
    fn finish(&self, row: FleetRow) -> Result<(), String> {
        let key = decisive_engine::fingerprint::Hasher::new().write_str(&row.id).finish();
        self.journal
            .append(ArtifactKind::FleetRow, key, &row.id, &row.to_value())
            .and_then(|_| self.journal.sync())
            .map_err(|e| format!("journal {}: {e}", row.id))?;
        self.telemetry.count("fleet.completed", 1);
        if row.status != status::OK {
            self.telemetry.count(&format!("fleet.{}", row.status), 1);
        }
        let mut rows = self.rows.lock().unwrap();
        rows.push(row);
        let snapshot = status_snapshot(&rows, self.total, self.resumed);
        // Write while still holding the rows lock: `atomic_write` stages
        // through a fixed `.tmp` sibling, so concurrent slot threads would
        // race each other's rename — and an older snapshot must never
        // overwrite a newer one.
        let path = self.options.journal.join(STATUS_FILE);
        let written = atomic_write(&path, &json::to_string(&snapshot));
        drop(rows);
        written.map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(())
    }
}

/// The live status document: aggregate counts only, cheap to rewrite on
/// every terminal row and safe to read concurrently (atomic rename).
fn status_snapshot(rows: &[FleetRow], total: usize, resumed: usize) -> Value {
    let count = |s: &str| rows.iter().filter(|r| r.status == s).count() as i64;
    Value::record([
        ("total", Value::Int(total as i64)),
        ("completed", Value::Int(rows.len() as i64)),
        ("resumed", Value::Int(resumed as i64)),
        ("ok", Value::Int(count(status::OK))),
        ("failed", Value::Int(count(status::FAILED))),
        ("crashed", Value::Int(count(status::CRASHED))),
        ("timeout", Value::Int(count(status::TIMEOUT))),
        ("quarantined", Value::Int(count(status::QUARANTINED))),
    ])
}

/// Splits `tasks` into rows restorable from the journal (content
/// fingerprint still matches) and tasks that must (re-)run.
fn partition_resumable(
    journal: &SegmentStore,
    tasks: Vec<FleetTask>,
) -> (Vec<FleetRow>, Vec<FleetTask>) {
    let mut restored = Vec::new();
    let mut pending = Vec::new();
    for task in tasks {
        let row = journal
            .get(ArtifactKind::FleetRow, task.journal_key())
            .and_then(|(_, value)| FleetRow::from_value(&value).ok())
            .filter(|row| row.content_fp == task.content_fp);
        match row {
            Some(row) => restored.push(row),
            None => pending.push(task),
        }
    }
    (restored, pending)
}

/// One slot's loop: feed tasks to a (re)spawned worker until the queue
/// drains. Returns the first journal/spawn error, if any.
fn slot_loop(slot: u32, shared: &Shared<'_>) -> Result<(), String> {
    let mut worker: Option<WorkerProc> = None;
    let deadline = Duration::from_millis(shared.options.deadline_ms.max(1));
    loop {
        let Some(item) = shared.queue.lock().unwrap().pop_front() else { break };
        let _span = shared.telemetry.span(format!("fleet.task {}", item.task.id), "fleet");
        let proc = match worker.take() {
            Some(proc) => proc,
            None => {
                shared.telemetry.count("fleet.spawns", 1);
                WorkerProc::spawn(shared.options)?
            }
        };
        let started = Instant::now();
        let (proc, outcome) = dispatch(proc, &item, shared, deadline);
        match outcome {
            Ok(mut row) => {
                worker = proc; // Keep the worker (and its warm cache).
                row.attempts = item.attempt + 1;
                row.shard = slot;
                let wall = started.elapsed().as_secs_f64() * 1e3;
                // Worker-side wall time when it reported one, else ours.
                if row.wall_ms <= 0.0 {
                    row.wall_ms = wall;
                }
                shared.latency.lock().unwrap()[slot as usize].record_ms(wall);
                shared.telemetry.duration_ms("fleet.task_ms", wall);
                shared.finish(row)?;
            }
            Err(death) => {
                debug_assert!(proc.is_none(), "a dead worker is never kept");
                // Only genuine worker deaths count toward quarantine: a
                // deadline kill is the *supervisor's* doing, and a slow
                // model is a timeout, not a poison pill.
                let kills = item.kills + u32::from(matches!(death, Death::Died));
                shared.telemetry.count(
                    match death {
                        Death::Died => "fleet.worker_deaths",
                        Death::DeadlineExceeded => "fleet.deadline_kills",
                    },
                    1,
                );
                match after_death(&item.task, item.attempt, kills, death, shared.options) {
                    Verdict::Retry { delay_ms } => {
                        shared.telemetry.count("fleet.retries", 1);
                        if delay_ms > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(delay_ms / 1e3));
                        }
                        shared.queue.lock().unwrap().push_back(QueueItem {
                            task: item.task,
                            attempt: item.attempt + 1,
                            kills,
                        });
                    }
                    Verdict::Terminal(row) => shared.finish(row)?,
                }
            }
        }
    }
    if let Some(WorkerProc { mut child, stdin, rx }) = worker {
        drop(stdin); // EOF → orderly worker exit.
        drop(rx);
        let _ = child.wait();
    }
    Ok(())
}

/// Sends one task and waits for its row, the deadline, or the worker's
/// death. Returns the worker only when it is still alive and trusted.
fn dispatch(
    mut proc: WorkerProc,
    item: &QueueItem,
    shared: &Shared<'_>,
    deadline: Duration,
) -> (Option<WorkerProc>, Result<FleetRow, Death>) {
    let line =
        json::to_string(&item.task.to_wire(item.attempt, shared.options.op, &shared.options.spec));
    if writeln!(proc.stdin, "{line}").is_err() || proc.stdin.flush().is_err() {
        proc.reap();
        return (None, Err(Death::Died));
    }
    match proc.rx.recv_timeout(deadline) {
        Ok(answer) => match json::parse(&answer).ok().and_then(|v| FleetRow::from_value(&v).ok()) {
            Some(row) => (Some(proc), Ok(row)),
            None => {
                // A worker talking garbage is as good as dead.
                proc.kill();
                (None, Err(Death::Died))
            }
        },
        Err(RecvTimeoutError::Timeout) => {
            proc.kill();
            (None, Err(Death::DeadlineExceeded))
        }
        Err(RecvTimeoutError::Disconnected) => {
            proc.reap();
            (None, Err(Death::Died))
        }
    }
}

/// Runs a campaign over `tasks` and returns the aggregate report.
///
/// # Errors
///
/// Journal I/O failures, worker spawn failures, or an unopenable journal
/// directory. Worker deaths and model failures are *not* errors — they
/// are rows.
pub fn run_fleet(
    tasks: Vec<FleetTask>,
    options: &FleetOptions,
    telemetry: &Telemetry,
) -> Result<FleetReport, String> {
    let started = Instant::now();
    let _campaign = telemetry.span("fleet.campaign", "fleet");
    if !options.resume && options.journal.exists() {
        std::fs::remove_dir_all(&options.journal)
            .map_err(|e| format!("{}: {e}", options.journal.display()))?;
    }
    std::fs::create_dir_all(&options.journal)
        .map_err(|e| format!("{}: {e}", options.journal.display()))?;
    let (journal, recovery): (SegmentStore, StoreRecovery) = SegmentStore::open(
        options.journal.join("journal"),
        StoreOptions::default(),
        telemetry.clone(),
    )
    .map_err(|e| e.to_string())?;
    if !recovery.is_clean() {
        telemetry.count("fleet.journal_repairs", 1);
    }

    let total = tasks.len();
    let (restored, pending) =
        if options.resume { partition_resumable(&journal, tasks) } else { (Vec::new(), tasks) };
    telemetry.count("fleet.tasks", pending.len() as u64);
    telemetry.count("fleet.resumed", restored.len() as u64);
    let resumed = restored.len();
    let workers = options.workers.max(1);

    let state = Shared {
        queue: Mutex::new(
            pending.into_iter().map(|task| QueueItem { task, attempt: 0, kills: 0 }).collect(),
        ),
        rows: Mutex::new(restored),
        latency: Mutex::new(vec![DurationHistogram::new(); workers]),
        journal: &journal,
        options,
        telemetry,
        total,
        resumed,
    };
    let shared = &state;

    let errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..workers as u32).map(|slot| scope.spawn(move || slot_loop(slot, shared))).collect();
        handles
            .into_iter()
            .filter_map(|h| match h.join() {
                Ok(Ok(())) => None,
                Ok(Err(message)) => Some(message),
                Err(_) => Some("supervisor slot panicked".to_owned()),
            })
            .collect()
    });
    if let Some(first) = errors.into_iter().next() {
        return Err(first);
    }

    let mut rows = state.rows.into_inner().unwrap();
    rows.sort_by(|a, b| a.id.cmp(&b.id));
    let report = FleetReport {
        rows,
        workers,
        wall_s: started.elapsed().as_secs_f64(),
        resumed,
        shard_latency: state.latency.into_inner().unwrap(),
    };
    // Final status snapshot (the per-row writes already happened).
    let snapshot = status_snapshot(&report.rows, total, resumed);
    let path = options.journal.join(STATUS_FILE);
    atomic_write(&path, &json::to_string(&snapshot))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options() -> FleetOptions {
        let dir = std::env::temp_dir().join(format!("fleet_sup_{}", std::process::id()));
        FleetOptions::new(dir, "/nonexistent/decisive")
    }

    #[test]
    fn poison_beats_retry_beats_terminal() {
        let task = FleetTask::for_workload("Set0", 0, 1);
        let opts = options(); // poison_kills 2, max_retries 2
        match after_death(&task, 0, 1, Death::Died, &opts) {
            Verdict::Retry { .. } => {}
            v => panic!("first death retries, got {v:?}"),
        }
        match after_death(&task, 1, 2, Death::Died, &opts) {
            Verdict::Terminal(row) => assert_eq!(row.status, status::QUARANTINED),
            v => panic!("second kill quarantines, got {v:?}"),
        }
        let mut exhausted = opts.clone();
        exhausted.poison_kills = 99;
        match after_death(&task, 2, 1, Death::DeadlineExceeded, &exhausted) {
            Verdict::Terminal(row) => {
                assert_eq!(row.status, status::TIMEOUT);
                assert!(row.error.as_deref().unwrap().contains("3 attempt(s)"));
            }
            v => panic!("spent budget is terminal, got {v:?}"),
        }
    }

    #[test]
    fn backoff_delays_are_deterministic_capped_and_growing() {
        let policy = RetryPolicy { max_retries: 8, base_ms: 10.0, ..RetryPolicy::default() };
        let first = policy.delay_ms(0, 42);
        assert_eq!(first, policy.delay_ms(0, 42), "same (attempt, salt) ⇒ same delay");
        assert!((5.0..=10.0).contains(&first), "jitter stays within [1-j, 1]·base: {first}");
        assert_ne!(policy.delay_ms(0, 42), policy.delay_ms(0, 43), "salt decorrelates jobs");
        let late = policy.delay_ms(20, 42);
        assert!(late <= policy.max_ms, "cap holds: {late}");
        let no_jitter = RetryPolicy { jitter: 0.0, ..policy.clone() };
        assert_eq!(no_jitter.delay_ms(2, 9), 40.0, "base·factor² without jitter");
        assert_eq!(RetryPolicy::default().delay_ms(0, 1), 0.0, "default never sleeps");
    }

    #[test]
    fn terminal_death_rows_are_timing_free() {
        let task = FleetTask::for_workload("Set1", 2, 3);
        let mut opts = options();
        opts.poison_kills = 1;
        let a = after_death(&task, 0, 1, Death::Died, &opts);
        let b = after_death(&task, 0, 1, Death::Died, &opts);
        assert_eq!(a, b, "verdicts are pure functions of their inputs");
    }

    #[test]
    fn resume_partition_honours_content_fingerprints() {
        let dir = std::env::temp_dir().join(format!("fleet_resume_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (journal, _) =
            SegmentStore::open(&dir, StoreOptions::default(), Telemetry::noop()).unwrap();
        let done = FleetTask::for_workload("Set0", 0, 7);
        let edited = FleetTask::for_workload("Set0", 1, 7);
        let fresh = FleetTask::for_workload("Set0", 2, 7);
        for task in [&done, &edited] {
            let row = FleetRow::failure(&task.id, task.content_fp, status::FAILED, "x".into());
            journal
                .append(ArtifactKind::FleetRow, task.journal_key(), &task.id, &row.to_value())
                .unwrap();
        }
        // Simulate an edit: same id, different content fingerprint.
        let mut edited_now = edited.clone();
        edited_now.content_fp ^= 1;
        let (restored, pending) =
            partition_resumable(&journal, vec![done.clone(), edited_now, fresh.clone()]);
        assert_eq!(restored.len(), 1, "only the untouched row is restorable");
        assert_eq!(restored[0].id, done.id);
        let ids: Vec<&str> = pending.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, ["Set0#1", "Set0#2"]);
        drop(journal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_snapshot_counts_by_status() {
        let rows = vec![
            FleetRow::failure("a", 0, status::FAILED, "x".into()),
            FleetRow::failure("b", 0, status::QUARANTINED, "y".into()),
        ];
        let snap = status_snapshot(&rows, 5, 1);
        assert_eq!(snap.get("total").and_then(Value::as_i64), Some(5));
        assert_eq!(snap.get("completed").and_then(Value::as_i64), Some(2));
        assert_eq!(snap.get("failed").and_then(Value::as_i64), Some(1));
        assert_eq!(snap.get("quarantined").and_then(Value::as_i64), Some(1));
    }
}
