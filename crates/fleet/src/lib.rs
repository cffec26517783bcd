//! Fault-tolerant ecosystem-scale analysis sweeps.
//!
//! The paper's workflow analyses one model at a time; this crate scales it
//! to thousands — every model file under a directory tree plus scaled
//! instances of the Table VI workload sets — while surviving everything a
//! fleet of real models throws at a solver: crashes, hangs, poison inputs,
//! and the death of the supervisor itself.
//!
//! The design splits into three layers:
//!
//! - [`task`]: what a unit of work is — a model identified by a stable id
//!   and a *content* fingerprint, discovered from disk or generated
//!   deterministically from a workload set.
//! - [`worker`]: the process boundary — `decisive fleet-worker` reads task
//!   lines on stdin, runs each through
//!   [`decisive_engine::Engine::execute`] and answers row lines on
//!   stdout, converting every deterministic failure (bad model, pipeline
//!   error, panic) into a typed `failed` row.
//! - [`supervisor`]: the campaign — shards tasks over worker processes,
//!   kills and respawns on deadline or death, retries with exponential
//!   backoff, quarantines poison models, and journals every terminal row
//!   through the crash-safe segmented store so `--resume` re-runs only
//!   unfinished work.
//!
//! The invariant the chaos harness enforces end to end: a campaign that is
//! interrupted anywhere — workers killed, supervisor killed — and resumed
//! produces a report whose *identity* (per-model verdicts, ASIL histogram,
//! failure taxonomy) is byte-identical to an uninterrupted run.

pub mod report;
pub mod supervisor;
pub mod task;
pub mod worker;

pub use report::{FleetReport, FleetRow};
pub use supervisor::{run_fleet, FleetOptions, RetryPolicy, STATUS_FILE};
pub use task::{discover, workload_tasks, FleetTask, TaskSource};
pub use worker::run_worker;
