//! decisive-engine: incremental analysis with content-addressed caching and
//! a parallel job scheduler.
//!
//! The DECISIVE flow is iterative by design — analyse, refine the
//! architecture, analyse again. This crate makes the "again" cheap: every
//! derived artefact that costs more to compute than to serve is cached
//! under a fingerprint of exactly the inputs it depends on, so a re-run
//! after an edit recomputes only those whose inputs actually changed, and
//! independent recomputations run on a bounded worker pool. The cheap
//! rest (graph rows, the monitor set, the risk log) is computed on every
//! run.
//!
//! Layering:
//!
//! - [`fingerprint`] — the stable 64-bit content hasher;
//! - [`model_fp`] — what gets hashed for each artefact kind;
//! - [`cache`] — [`SharedStore`], each engine's one content-addressed
//!   artefact store (clones share it), and its portable v3 snapshot codec;
//! - [`store`] — the crash-safe segmented append-only log behind a durable
//!   [`SharedStore`], the only persistence (incremental durability,
//!   frame-level quarantine);
//! - [`scheduler`] — the deterministic parallel job runner;
//! - [`stats`] — per-phase observability counters;
//! - [`pass`] — the typed [`AnalysisPass`] abstraction: each analysis
//!   (graph FMEA, injection, FTA, monitors, HARA, assurance) as one
//!   composable pass sharing a single store/deadline/degradation path;
//! - [`pipeline`] — the validated pass DAG executed with cross-pass
//!   parallelism ([`Engine::run_pipeline`]);
//! - [`engine`] — the [`Engine`] gluing it all together, with
//!   [`Engine::verify_against_full`] and
//!   [`Engine::verify_pipeline_against_full`] as the soundness escape
//!   hatches;
//! - [`execute`] — [`Engine::execute`], the one executor for the four
//!   analysis ops the CLI, the daemon and the fleet worker share.

pub mod cache;
pub mod engine;
pub mod error;
pub mod execute;
pub mod fingerprint;
pub mod model_fp;
pub mod pass;
pub mod pipeline;
pub mod scheduler;
pub mod stats;
pub mod store;

pub use cache::{ArtifactKind, SharedStore};
pub use engine::{Engine, EngineBuilder, EngineConfig, FtaSubtreeSummary};
pub use execute::{OpArtifact, OpOutput};

/// The telemetry substrate, re-exported so engine users configure
/// [`EngineBuilder::telemetry`] without a separate dependency.
pub use decisive_obs as obs;
pub use error::{EngineError, Result};
pub use fingerprint::Fingerprint;
pub use pass::{
    AnalysisPass, ArtifactId, AssurancePass, FtaPass, GraphFmeaPass, HaraPass, InjectionFmeaPass,
    MonitorPass, MonteCarloPass, PassArtifact, PassContext, PipelineInput, RecommendPass, WorkItem,
};
pub use pipeline::{PassStatus, Pipeline, PipelineRun};
pub use scheduler::Scheduler;
pub use stats::{EngineStats, PhaseStats};
pub use store::{
    atomic_write, CompactionSummary, SegmentStore, StoreHealth, StoreOptions, StoreRecovery,
    MANIFEST_FILE, STORE_DIR, STORE_QUARANTINE_FILE,
};
