//! The typed pass layer: every analysis the engine knows how to run —
//! graph FMEA, injection FMEA, FTA subtrees, monitor synthesis, HARA risk
//! logging, assurance-case evaluation — is an [`AnalysisPass`] producing a
//! [`PassArtifact`] from content-addressed inputs. The incremental cache,
//! per-job deadlines, campaign health and degraded-mode reporting live in
//! **one** code path (`PassContext::run_keyed`) instead of one copy per
//! analysis. Phases whose artefact costs about as much to serve from the
//! store as to compute — graph rows, the monitor set, the risk log and
//! Monte-Carlo trials — compute on every run through one timing helper
//! (`PassContext::run_uncached`).
//!
//! Passes declare their dependencies by id ([`AnalysisPass::depends_on`]);
//! the [`crate::pipeline::Pipeline`] runner schedules them as a DAG with
//! cross-pass parallelism on the shared worker budget.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

use serde::{DeserializeOwned, Serialize};

use decisive_assurance::report::{CAMPAIGN_LOCATION, FMEA_LOCATION, FTA_LOCATION};
use decisive_assurance::{
    pipeline_case, pipeline_report, AssuranceReport, PipelineEvidence, Status,
};
use decisive_blocks::BlockDiagram;
use decisive_core::campaign::{CampaignHealth, CaseOutcome, CaseReport};
use decisive_core::degraded::DegradedModeReport;
use decisive_core::fmea::graph::{self, ContainerFacts, GraphConfig};
use decisive_core::fmea::injection::{self, InjectionConfig};
use decisive_core::fmea::{FmeaRow, FmeaTable};
use decisive_core::monitor::RuntimeMonitor;
use decisive_core::montecarlo::{self, MonteCarloReport, TrialMetrics};
use decisive_core::patterns::{self, RecommendationReport};
use decisive_core::reliability::ReliabilityDb;
use decisive_core::CoreError;
use decisive_federation::{DriverRegistry, Value};
use decisive_hara::{HazardLog, RiskAssessmentPolicy, RiskLog};
use decisive_ssam::architecture::{Component, Fit};
use decisive_ssam::base::IntegrityLevel;
use decisive_ssam::id::Idx;
use decisive_ssam::model::SsamModel;

use crate::cache::{ArtifactKind, SharedStore};
use crate::engine::{EngineConfig, FtaSubtreeSummary};
use crate::error::{EngineError, Result};
use crate::fingerprint::{Fingerprint, Hasher};
use crate::model_fp;
use crate::scheduler::{BatchError, Scheduler};
use crate::stats::PhaseStats;

/// The stable ids of the standard passes, for wiring dependencies.
pub mod ids {
    /// Graph FMEA over the architecture model (Algorithm 1).
    pub const GRAPH: &str = "graph-fmea";
    /// Fault-injection FMEA over the block diagram (supervised campaign).
    pub const INJECTION: &str = "injection-fmea";
    /// Per-container fault-subtree quantification.
    pub const FTA: &str = "fta";
    /// Runtime monitor synthesis.
    pub const MONITORS: &str = "monitors";
    /// HARA risk log derived from FMEA rows.
    pub const HARA: &str = "hara";
    /// Assurance-case generation and evaluation.
    pub const ASSURANCE: &str = "assurance";
    /// Monte-Carlo campaign: the injection verdicts re-weighted under
    /// perturbed reliability models.
    pub const MONTECARLO: &str = "montecarlo";
    /// Safety-pattern recommendation over uncovered failure modes.
    pub const RECOMMEND: &str = "recommend";
}

/// Content-addressed identity of one cached artefact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactId {
    /// The artefact namespace.
    pub kind: ArtifactKind,
    /// The input fingerprint serving as cache key.
    pub key: Fingerprint,
}

/// One keyed unit of work inside a pass phase.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// The artefact this item produces.
    pub id: ArtifactId,
    /// The model element the artefact is derived for (a container,
    /// candidate or system name), stored with the entry.
    pub owner: String,
    /// Human-readable label for deadline / degraded-mode reporting.
    pub label: String,
}

/// The typed output of one pass.
#[derive(Debug, Clone, PartialEq)]
pub enum PassArtifact {
    /// A graph FMEA table.
    Fmea(FmeaTable),
    /// An injection FMEA table plus the campaign-health verdict.
    Injection {
        /// The merged FMEA table.
        table: FmeaTable,
        /// Supervisor classification of the whole sweep.
        health: CampaignHealth,
    },
    /// Quantified FTA subtrees, one per container.
    FtaSummaries(Vec<FtaSubtreeSummary>),
    /// A synthesised runtime monitor set.
    Monitor(RuntimeMonitor),
    /// A HARA risk log.
    RiskLog(RiskLog),
    /// An evaluated assurance case.
    Assurance(AssuranceReport),
    /// Interval estimates of a Monte-Carlo injection campaign.
    MonteCarlo(MonteCarloReport),
    /// A ranked safety-pattern recommendation report.
    Recommend(RecommendationReport),
    /// Free-form artefact for custom passes.
    Opaque(Value),
}

impl PassArtifact {
    /// Short artefact-type name for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            PassArtifact::Fmea(_) => "fmea-table",
            PassArtifact::Injection { .. } => "injection-table",
            PassArtifact::FtaSummaries(_) => "fta-summaries",
            PassArtifact::Monitor(_) => "monitor-set",
            PassArtifact::RiskLog(_) => "risk-log",
            PassArtifact::Assurance(_) => "assurance-report",
            PassArtifact::MonteCarlo(_) => "montecarlo-report",
            PassArtifact::Recommend(_) => "recommendation-report",
            PassArtifact::Opaque(_) => "opaque",
        }
    }

    /// The FMEA table carried by this artefact, if any.
    pub fn fmea_table(&self) -> Option<&FmeaTable> {
        match self {
            PassArtifact::Fmea(table) | PassArtifact::Injection { table, .. } => Some(table),
            _ => None,
        }
    }

    /// The campaign health carried by this artefact, if any.
    pub fn campaign_health(&self) -> Option<&CampaignHealth> {
        match self {
            PassArtifact::Injection { health, .. } => Some(health),
            _ => None,
        }
    }

    /// The FTA subtree summaries, if this is an FTA artefact.
    pub fn fta_summaries(&self) -> Option<&[FtaSubtreeSummary]> {
        match self {
            PassArtifact::FtaSummaries(s) => Some(s),
            _ => None,
        }
    }

    /// The monitor set, if this is a monitor artefact.
    pub fn monitor(&self) -> Option<&RuntimeMonitor> {
        match self {
            PassArtifact::Monitor(m) => Some(m),
            _ => None,
        }
    }

    /// The risk log, if this is a HARA artefact.
    pub fn risk_log(&self) -> Option<&RiskLog> {
        match self {
            PassArtifact::RiskLog(log) => Some(log),
            _ => None,
        }
    }

    /// The assurance report, if this is an assurance artefact.
    pub fn assurance(&self) -> Option<&AssuranceReport> {
        match self {
            PassArtifact::Assurance(report) => Some(report),
            _ => None,
        }
    }

    /// The Monte-Carlo report, if this is a Monte-Carlo artefact.
    pub fn montecarlo(&self) -> Option<&MonteCarloReport> {
        match self {
            PassArtifact::MonteCarlo(report) => Some(report),
            _ => None,
        }
    }

    /// The recommendation report, if this is a recommendation artefact.
    pub fn recommendation(&self) -> Option<&RecommendationReport> {
        match self {
            PassArtifact::Recommend(report) => Some(report),
            _ => None,
        }
    }

    /// Semantic equality, ignoring wall-clock noise: campaign timing
    /// (slowest cases, per-case wall time) legitimately differs between a
    /// warm and a cold run of the *same* inputs, so pipeline verification
    /// compares everything but the clocks.
    pub fn equivalent(&self, other: &PassArtifact) -> bool {
        match (self, other) {
            (
                PassArtifact::Injection { table: a, health: ha },
                PassArtifact::Injection { table: b, health: hb },
            ) => a == b && campaign_equivalent(ha, hb),
            _ => self == other,
        }
    }
}

/// Campaign equality over the semantic fields only (counters, strategy
/// histogram, failed cases) — `slowest` and the embedded degradation
/// snapshot carry timing noise.
fn campaign_equivalent(a: &CampaignHealth, b: &CampaignHealth) -> bool {
    a.total == b.total
        && a.converged == b.converged
        && a.recovered == b.recovered
        && a.unsolvable == b.unsolvable
        && a.panicked == b.panicked
        && a.skipped == b.skipped
        && a.strategy_histogram == b.strategy_histogram
        && a.failed_cases == b.failed_cases
}

/// Everything a pipeline iteration can analyse. Passes pull what they need
/// and fail with a typed [`EngineError::Pipeline`] when an input they
/// require is absent.
#[derive(Debug, Clone)]
pub struct PipelineInput<'a> {
    /// The architecture model (graph FMEA, FTA, monitors).
    pub model: Option<&'a SsamModel>,
    /// The analysis root within `model`.
    pub top: Option<Idx<Component>>,
    /// The block diagram (injection FMEA).
    pub diagram: Option<&'a BlockDiagram>,
    /// Reliability data resolving the diagram's components.
    pub reliability: Option<&'a ReliabilityDb>,
    /// Injection sweep configuration.
    pub injection: InjectionConfig,
    /// FTA mission time in hours.
    pub mission_hours: f64,
    /// Hazard log grounding the HARA assessment, when one exists.
    pub hazards: Option<&'a HazardLog>,
    /// Fallback s/e/c assumptions for the HARA assessment.
    pub policy: RiskAssessmentPolicy,
    /// Monte-Carlo trial count.
    pub trials: usize,
    /// Monte-Carlo master seed — together with the trial index this fully
    /// determines every sampling decision, making reports bitwise
    /// reproducible across thread counts and cache states.
    pub seed: u64,
}

impl Default for PipelineInput<'_> {
    fn default() -> Self {
        PipelineInput {
            model: None,
            top: None,
            diagram: None,
            reliability: None,
            injection: InjectionConfig::default(),
            mission_hours: 10_000.0,
            hazards: None,
            policy: RiskAssessmentPolicy::default(),
            trials: montecarlo::DEFAULT_TRIALS,
            seed: 0,
        }
    }
}

impl<'a> PipelineInput<'a> {
    /// An empty input (every pass needing data will fail until the
    /// builders below provide it).
    pub fn new() -> Self {
        PipelineInput::default()
    }

    /// Input for model-side passes (graph FMEA, FTA, monitors, HARA).
    pub fn for_model(model: &'a SsamModel, top: Idx<Component>) -> Self {
        PipelineInput::new().with_model(model).with_top(top)
    }

    /// Input for the injection path.
    pub fn for_diagram(diagram: &'a BlockDiagram, reliability: &'a ReliabilityDb) -> Self {
        PipelineInput::new().with_diagram(diagram, reliability)
    }

    /// Sets the architecture model.
    pub fn with_model(mut self, model: &'a SsamModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Sets the analysis root.
    pub fn with_top(mut self, top: Idx<Component>) -> Self {
        self.top = Some(top);
        self
    }

    /// Sets the block diagram and its reliability data.
    pub fn with_diagram(
        mut self,
        diagram: &'a BlockDiagram,
        reliability: &'a ReliabilityDb,
    ) -> Self {
        self.diagram = Some(diagram);
        self.reliability = Some(reliability);
        self
    }

    /// Sets the injection configuration.
    pub fn with_injection_config(mut self, config: InjectionConfig) -> Self {
        self.injection = config;
        self
    }

    /// Sets the FTA mission time.
    pub fn with_mission_hours(mut self, hours: f64) -> Self {
        self.mission_hours = hours;
        self
    }

    /// Sets the hazard log backing the HARA assessment.
    pub fn with_hazards(mut self, hazards: &'a HazardLog) -> Self {
        self.hazards = Some(hazards);
        self
    }

    /// Sets the Monte-Carlo trial count.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the Monte-Carlo master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The execution context handed to [`AnalysisPass::run`]: configuration,
/// the engine's artefact store, the pipeline input, resolved dependency artefacts,
/// and the per-pass observability sinks the runner merges back into the
/// engine afterwards.
pub struct PassContext<'a> {
    pub(crate) config: &'a EngineConfig,
    pub(crate) workers: usize,
    pub(crate) cache: &'a SharedStore,
    pub(crate) input: &'a PipelineInput<'a>,
    pub(crate) deps: HashMap<&'static str, Arc<PassArtifact>>,
    /// The engine's degraded-mode report as of pipeline start; campaign
    /// health absorbs `baseline + this pass's own degradation`.
    pub(crate) baseline_degraded: DegradedModeReport,
    pub(crate) phases: Vec<PhaseStats>,
    pub(crate) degraded: DegradedModeReport,
    pub(crate) campaign: Option<CampaignHealth>,
    pub(crate) telemetry: decisive_obs::Telemetry,
}

impl<'a> PassContext<'a> {
    /// The pipeline input.
    pub fn input(&self) -> &PipelineInput<'a> {
        self.input
    }

    /// The artefact of an upstream pass this pass depends on.
    ///
    /// # Errors
    ///
    /// [`EngineError::Pipeline`] when `id` was not declared in
    /// [`AnalysisPass::depends_on`] (or its pass did not run).
    pub fn dep(&self, id: &str) -> Result<&PassArtifact> {
        self.deps.get(id).map(Arc::as_ref).ok_or_else(|| {
            EngineError::Pipeline(format!("dependency artefact `{id}` is not available"))
        })
    }

    /// Like [`PassContext::dep`], but hands out the shared handle so the
    /// artefact can outlive a later mutable borrow of the context (e.g.
    /// across a `PassContext::run_keyed` call).
    pub fn dep_arc(&self, id: &str) -> Result<Arc<PassArtifact>> {
        self.deps.get(id).cloned().ok_or_else(|| {
            EngineError::Pipeline(format!("dependency artefact `{id}` is not available"))
        })
    }

    fn scheduler(&self, label: &str) -> Scheduler {
        let scheduler = Scheduler::new(self.workers).with_telemetry(self.telemetry.clone(), label);
        match self.config.deadline_ms {
            Some(ms) => scheduler.with_deadline_ms(ms),
            None => scheduler,
        }
    }

    /// THE unified incremental phase: looks every [`WorkItem`] up in the
    /// cache, recomputes the misses as one scheduled batch (honouring the
    /// worker budget and per-job deadline), persists fresh results under
    /// their keys, classifies timed-out jobs into the degraded-mode
    /// report, and records a [`PhaseStats`] entry — the single code path
    /// that previously existed as four copies in `engine.rs`.
    ///
    /// `items` derives the work items, keys included, inside the phase's
    /// clock and span, so the phase's time counts its key hashing.
    /// `decode` maps a cached artefact to the in-memory result, `encode`
    /// the reverse; `prepare` builds batch-shared state and runs only when
    /// at least one item missed (e.g. lowering the nominal circuit).
    pub(crate) fn run_keyed<T, A, P>(
        &mut self,
        phase_name: &str,
        items: impl FnOnce() -> Vec<WorkItem>,
        decode: impl Fn(usize, A) -> T,
        prepare: impl FnOnce(&[usize]) -> Result<P>,
        compute: impl Fn(&P, usize) -> decisive_core::Result<T> + Sync,
        encode: impl Fn(usize, &T) -> A,
    ) -> Result<Vec<T>>
    where
        T: Send,
        A: Serialize + DeserializeOwned,
        P: Sync,
    {
        let start = Instant::now();
        let instrumented = self.telemetry.enabled();
        let _phase_span =
            instrumented.then(|| self.telemetry.span(format!("phase:{phase_name}"), "phase"));
        let items = items();
        let mut phase = PhaseStats::new(phase_name);
        phase.jobs_total = items.len();
        let mut merged: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
        let mut misses: Vec<usize> = Vec::new();
        // Counters are accumulated per artefact kind and flushed once —
        // the lookup loop is the warm-path hot loop, so it must not pay a
        // sink update (or a name allocation) per item.
        let mut hit_tags: HashMap<&'static str, u64> = HashMap::new();
        let mut miss_tags: HashMap<&'static str, u64> = HashMap::new();
        for (i, item) in items.iter().enumerate() {
            match self.cache.get::<A>(item.id.kind, item.id.key) {
                Some(artifact) => {
                    phase.cache_hits += 1;
                    if instrumented {
                        *hit_tags.entry(item.id.kind.tag()).or_insert(0) += 1;
                    }
                    merged[i] = Some(decode(i, artifact));
                }
                None => {
                    phase.cache_misses += 1;
                    if instrumented {
                        *miss_tags.entry(item.id.kind.tag()).or_insert(0) += 1;
                    }
                    misses.push(i);
                }
            }
        }
        for (tag, n) in &hit_tags {
            self.telemetry.count(&format!("cache.{tag}.hits"), *n);
        }
        for (tag, n) in &miss_tags {
            self.telemetry.count(&format!("cache.{tag}.misses"), *n);
        }
        phase.jobs_executed = misses.len();
        if !misses.is_empty() {
            // `recomputed` = misses that reach the batch; it diverges
            // from `misses` only when `prepare` fails first.
            for (tag, n) in &miss_tags {
                self.telemetry.count(&format!("cache.{tag}.recomputed"), *n);
            }
            let prep = prepare(&misses)?;
            let jobs: Vec<_> = misses
                .iter()
                .map(|&i| {
                    let prep = &prep;
                    let compute = &compute;
                    move || compute(prep, i)
                })
                .collect();
            let out = self.scheduler(phase_name).run_batch(&jobs).map_err(
                |BatchError::JobFailed { index }| EngineError::JobFailed {
                    index,
                    phase: phase_name.to_owned(),
                },
            )?;
            phase.retries = out.retries;
            phase.max_job_ms = out.max_job_ms;
            phase.timed_out = out.timed_out.len();
            for &slow in &out.timed_out {
                self.degraded
                    .timed_out_jobs
                    .push(format!("{phase_name}/{}", items[misses[slow]].label));
            }
            for (&i, result) in misses.iter().zip(out.results) {
                let fresh = result?;
                let item = &items[i];
                self.cache.put(item.id.kind, item.id.key, &item.owner, &encode(i, &fresh))?;
                merged[i] = Some(fresh);
            }
            // Incremental durability: with a durable store every artefact
            // this pass just computed is committed (fsynced) before the
            // pass reports done, so a crash between passes loses nothing
            // already paid for.
            self.cache.sync_durable()?;
        }
        phase.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        self.phases.push(phase);
        Ok(merged.into_iter().map(|t| t.expect("every work item resolved")).collect())
    }

    /// A phase that computes all its `units` on every run, in one
    /// sequential call with no store lookup and no scheduler batch: times
    /// `compute` under a `phase:<name>` span and records a [`PhaseStats`]
    /// entry with every unit executed and no hits or misses.
    pub(crate) fn run_uncached<T>(
        &mut self,
        phase_name: &str,
        units: usize,
        compute: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let start = Instant::now();
        let _phase_span = self
            .telemetry
            .enabled()
            .then(|| self.telemetry.span(format!("phase:{phase_name}"), "phase"));
        let out = compute()?;
        self.phases.push(PhaseStats {
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            jobs_total: units,
            jobs_executed: units,
            ..PhaseStats::new(phase_name)
        });
        Ok(out)
    }
}

/// One composable analysis step: a typed transformation from
/// content-addressed inputs (and upstream artefacts) to a
/// [`PassArtifact`], with declared dependencies so the
/// [`crate::pipeline::Pipeline`] can schedule it.
pub trait AnalysisPass: Send + Sync {
    /// Stable pass id (also the artefact name in [`crate::pipeline::PipelineRun`]).
    fn id(&self) -> &'static str;

    /// Ids of the passes whose artefacts this pass consumes.
    fn depends_on(&self) -> &[&'static str] {
        &[]
    }

    /// The cache namespaces this pass reads and writes (for
    /// `decisive passes` cache-status reporting).
    fn kinds(&self) -> &[ArtifactKind] {
        &[]
    }

    /// Executes the pass.
    ///
    /// # Errors
    ///
    /// Passes return typed [`EngineError`]s; the pipeline runner marks
    /// dependents of a failed pass as skipped instead of cascading panics.
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassArtifact>;
}

/// `view` of the artefact that upstream pass `source` handed pass `pass`,
/// or a typed error naming the artefact `what` it expected and the one it
/// got.
fn expect_upstream<'a, T: ?Sized>(
    artifact: &'a PassArtifact,
    view: fn(&'a PassArtifact) -> Option<&'a T>,
    what: &str,
    pass: &str,
    source: &str,
) -> Result<&'a T> {
    view(artifact).ok_or_else(|| {
        EngineError::Pipeline(format!(
            "pass `{pass}` expects {what} from `{source}`, got {}",
            artifact.kind_name()
        ))
    })
}

fn missing_input(pass: &str, what: &str) -> EngineError {
    EngineError::Pipeline(format!("pass `{pass}` requires {what}, which the input does not carry"))
}

// ----------------------------------------------------------------------
// Shared artefact codecs and helpers (moved here from `engine.rs`)
// ----------------------------------------------------------------------

/// Persistable form of [`ContainerFacts`]: component identity by name.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub(crate) struct FactsArtifact {
    critical: Vec<String>,
    on_some_path: Vec<String>,
}

impl FactsArtifact {
    fn from_facts(model: &SsamModel, facts: &ContainerFacts) -> FactsArtifact {
        let names = |set: &std::collections::HashSet<Idx<Component>>| {
            let mut v: Vec<String> =
                set.iter().map(|&c| model.components[c].core.name.value().to_owned()).collect();
            v.sort_unstable();
            v
        };
        FactsArtifact { critical: names(&facts.critical), on_some_path: names(&facts.on_some_path) }
    }

    fn to_facts(&self, model: &SsamModel, container: Idx<Component>) -> ContainerFacts {
        let critical: std::collections::HashSet<&str> =
            self.critical.iter().map(String::as_str).collect();
        let on_some: std::collections::HashSet<&str> =
            self.on_some_path.iter().map(String::as_str).collect();
        let mut facts = ContainerFacts {
            critical: std::collections::HashSet::new(),
            on_some_path: std::collections::HashSet::new(),
        };
        for &child in &model.components[container].children {
            let name = model.components[child].core.name.value();
            if critical.contains(name) {
                facts.critical.insert(child);
            }
            if on_some.contains(name) {
                facts.on_some_path.insert(child);
            }
        }
        facts
    }
}

/// Persisted form of one injection row: the FMEA verdict *plus* how the
/// campaign supervisor classified the case, so a warm cache reproduces the
/// full [`CampaignHealth`] report without re-simulating anything.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub(crate) struct InjectionArtifact {
    row: FmeaRow,
    outcome: CaseOutcome,
    iterations: usize,
}

/// Pre-order list of analysed containers: `top` and every non-atomic
/// descendant, in the recursion order of Algorithm 1.
pub(crate) fn collect_containers(model: &SsamModel, top: Idx<Component>) -> Vec<Idx<Component>> {
    let mut out = Vec::new();
    fn walk(model: &SsamModel, container: Idx<Component>, out: &mut Vec<Idx<Component>>) {
        out.push(container);
        for &child in &model.components[container].children {
            if !model.components[child].is_atomic() {
                walk(model, child, out);
            }
        }
    }
    walk(model, top, &mut out);
    out
}

/// The `(container, child)` work list in table order: each child's own
/// rows, immediately followed by its subtree's (Algorithm 1 line 14).
pub(crate) fn flatten_work(
    model: &SsamModel,
    container: Idx<Component>,
    out: &mut Vec<(Idx<Component>, Idx<Component>)>,
) {
    for &child in &model.components[container].children {
        out.push((container, child));
        if !model.components[child].is_atomic() {
            flatten_work(model, child, out);
        }
    }
}

/// Persisted form of one fault subtree: its structure — the basic events
/// and minimal cut sets, which depend on the container's wiring and
/// failure-mode names alone ([`model_fp::fault_tree_fingerprint`]) — plus
/// the degraded-mode note its MOCUS run left, so a warm run reports the
/// same degradation as the cold one. Every run quantifies it with the
/// model's current FITs, mode shares and mission time
/// ([`FtaArtifact::summary`]). A frame of another shape, such as the
/// quantified `{summary, note}` of older stores, does not decode as this
/// one and is recomputed once.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub(crate) struct FtaArtifact {
    /// `false` when the subtree could not be synthesised or minimised;
    /// it then quantifies as a zeroed summary.
    analysable: bool,
    /// Each basic event's source, in node order, as positions: the
    /// member ([`model_fp::fault_tree_members`]) and the failure mode
    /// within it that `build_fault_tree` resolved the event from. The key
    /// fixes both positions.
    events: Vec<(usize, usize)>,
    /// The minimal cut sets as indices into `events`, in MOCUS order.
    cut_sets: Vec<Vec<usize>>,
    note: Option<String>,
}

impl FtaArtifact {
    /// Synthesises one container's fault subtree and runs one bounded
    /// MOCUS over it. Synthesis failures (no input→output paths, path-cap
    /// overflow) stay a silent unanalysable subtree — expected for leaf
    /// containers — while a MOCUS failure on a *built* tree leaves a
    /// degraded-mode note.
    fn compute(
        model: &SsamModel,
        container: Idx<Component>,
        members: &[Idx<Component>],
        max_paths: usize,
    ) -> FtaArtifact {
        let unanalysable = |note| FtaArtifact {
            analysable: false,
            events: Vec::new(),
            cut_sets: Vec::new(),
            note,
        };
        let Ok(synthesised) = decisive_fta::build_fault_tree(model, container, max_paths) else {
            return unanalysable(None);
        };
        let tree = &synthesised.tree;
        let cut_sets = match tree.try_minimal_cut_sets(decisive_fta::MOCUS_BUDGET) {
            Ok(cut_sets) => cut_sets,
            Err(e) => {
                let name = model.components[container].core.name.value();
                return unanalysable(Some(format!(
                    "fta subtree `{name}` could not be quantified: {e}"
                )));
            }
        };
        // Every path runs through relationship endpoints, all members.
        let mut position = vec![usize::MAX; model.components.len()];
        for (i, &member) in members.iter().enumerate().rev() {
            position[member.index()] = i;
        }
        let events = synthesised
            .sources
            .iter()
            .map(|&(component, mode)| {
                let modes = &model.components[component].failure_modes;
                let mode = modes.iter().position(|&m| m == mode).expect("a mode of its component");
                (position[component.index()], mode)
            })
            .collect();
        // Basic events are numbered in node order, so a cut set — ordered
        // by node id — lists its event indices ascending.
        let mut event_index = vec![usize::MAX; tree.len()];
        for (i, (node, _, _)) in tree.basic_events().enumerate() {
            event_index[node.raw() as usize] = i;
        }
        let cut_sets = cut_sets
            .iter()
            .map(|cs| cs.iter().map(|node| event_index[node.raw() as usize]).collect())
            .collect();
        FtaArtifact { analysable: true, events, cut_sets, note: None }
    }

    /// The subtree quantified with the model's current FITs, mode shares
    /// and `mission_hours`: an event's probability is its component's FIT
    /// times its mode's share over the mission, and the top probability is
    /// [`decisive_fta::rare_event_probability`] over the cut sets — the
    /// arithmetic of `FaultTree::top_probability`. Events render as
    /// `component:mode`.
    fn summary(
        &self,
        model: &SsamModel,
        container: Idx<Component>,
        members: &[Idx<Component>],
        mission_hours: f64,
    ) -> FtaSubtreeSummary {
        let container = model.components[container].core.name.value().to_owned();
        if !self.analysable {
            return unanalysable_summary(container);
        }
        let (probabilities, names): (Vec<f64>, Vec<String>) = self
            .events
            .iter()
            .map(|&(member, mode)| {
                let c = &model.components[members[member]];
                let fm = &model.failure_modes[c.failure_modes[mode]];
                let fit = c.fit.unwrap_or(Fit::ZERO) * fm.distribution;
                let name = format!("{}:{}", c.core.name.value(), fm.core.name.value());
                (fit.failure_probability(mission_hours), name)
            })
            .unzip();
        let Ok(top_probability) = decisive_fta::rare_event_probability(&self.cut_sets, |&e| {
            Ok::<_, Infallible>(probabilities[e])
        });
        let named =
            |cs: &Vec<usize>| -> Vec<String> { cs.iter().map(|&e| names[e].clone()).collect() };
        FtaSubtreeSummary {
            container,
            analysable: true,
            top_probability,
            single_points: self
                .cut_sets
                .iter()
                .filter(|cs| cs.len() == 1)
                .flat_map(named)
                .collect(),
            minimal_cut_sets: self.cut_sets.iter().map(named).collect(),
        }
    }
}

/// The zeroed summary of a container whose subtree could not be analysed.
fn unanalysable_summary(container: String) -> FtaSubtreeSummary {
    FtaSubtreeSummary {
        container,
        analysable: false,
        top_probability: 0.0,
        single_points: Vec::new(),
        minimal_cut_sets: Vec::new(),
    }
}

// ----------------------------------------------------------------------
// Standard passes
// ----------------------------------------------------------------------

/// Algorithm 1 as a pass: container path facts, the criticality chain and
/// per-component rows, merged into one FMEA table. The facts are cached
/// per container under its topology; the rows are computed from them on
/// every run, which costs less than serving them from the store.
#[derive(Debug, Default, Clone, Copy)]
pub struct GraphFmeaPass;

impl AnalysisPass for GraphFmeaPass {
    fn id(&self) -> &'static str {
        ids::GRAPH
    }

    fn kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::GraphFacts]
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassArtifact> {
        let model = ctx.input.model.ok_or_else(|| missing_input(self.id(), "a model"))?;
        let top = ctx.input.top.ok_or_else(|| missing_input(self.id(), "an analysis root"))?;
        let graph_config = GraphConfig::default();

        // Phase 1: container path facts.
        let containers = collect_containers(model, top);
        let items = || {
            let config_fp = model_fp::graph_config_fingerprint(model, &graph_config);
            containers
                .iter()
                .map(|&container| {
                    let key = Hasher::new()
                        .write_str("graph-facts")
                        .write_fingerprint(model_fp::topology_fingerprint(model, container))
                        .write_fingerprint(config_fp)
                        .finish();
                    let name = model.components[container].core.name.value().to_owned();
                    WorkItem {
                        id: ArtifactId { kind: ArtifactKind::GraphFacts, key },
                        owner: name.clone(),
                        label: name,
                    }
                })
                .collect()
        };
        let facts_list = ctx.run_keyed(
            "graph-facts",
            items,
            |i, artifact: FactsArtifact| artifact.to_facts(model, containers[i]),
            |_| Ok(()),
            |_: &(), i| graph::container_facts(model, containers[i], &graph_config),
            |_, facts| FactsArtifact::from_facts(model, facts),
        )?;
        let facts: HashMap<Idx<Component>, ContainerFacts> =
            containers.iter().copied().zip(facts_list).collect();

        // Criticality chain: a container is critical iff every enclosing
        // container is critical and it sits on all paths one level up.
        let mut critical_flag: HashMap<Idx<Component>, bool> = HashMap::new();
        critical_flag.insert(top, true);
        for &container in &containers {
            let flag = critical_flag[&container];
            for &child in &model.components[container].children {
                if !model.components[child].is_atomic() {
                    critical_flag
                        .insert(child, flag && facts[&container].critical.contains(&child));
                }
            }
        }

        // Phase 2: per-component rows, in table order.
        let mut work: Vec<(Idx<Component>, Idx<Component>)> = Vec::new();
        flatten_work(model, top, &mut work);
        let table = ctx.run_uncached("graph-rows", work.len(), || {
            let mut table = FmeaTable::new(model.components[top].core.name.value());
            for &(container, child) in &work {
                let (flag, facts) = (critical_flag[&container], &facts[&container]);
                for row in graph::component_rows(model, child, flag, facts, &graph_config) {
                    table.push(row);
                }
            }
            Ok(table)
        })?;
        Ok(PassArtifact::Fmea(table))
    }
}

/// The supervised fault-injection sweep as a pass: the steps of
/// `injection::run_supervised` — `validate`, `nominal` and
/// `analyse_candidate_supervised` — with every row cached. Rows are keyed
/// by the whole-circuit digest plus candidate content, solver ladder and
/// kernel, the campaign circuit breaker is enforced on every run (warm or
/// cold), and the health report is published for downstream passes.
/// Cases are scheduled through `run_keyed`, whose long-lived worker
/// threads each carry a thread-local `SolverWorkspace` (inside
/// `analyse_candidate_supervised`), so every case a worker solves reuses
/// the same symbolic layouts and factorization buffers.
#[derive(Debug, Default, Clone, Copy)]
pub struct InjectionFmeaPass;

impl AnalysisPass for InjectionFmeaPass {
    fn id(&self) -> &'static str {
        ids::INJECTION
    }

    fn kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::InjectionRow]
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassArtifact> {
        let diagram =
            ctx.input.diagram.ok_or_else(|| missing_input(self.id(), "a block diagram"))?;
        let reliability =
            ctx.input.reliability.ok_or_else(|| missing_input(self.id(), "reliability data"))?;
        let config = ctx.input.injection.clone();
        injection::validate(&config)?;
        let candidates = injection::candidates(diagram, reliability);
        let items = || {
            let circuit_fp = model_fp::serialized_fingerprint(diagram, "block-diagram");
            let solver = &config.campaign.solver;
            candidates
                .iter()
                .map(|candidate| {
                    let key = Hasher::new()
                        .write_str("injection-row")
                        .write_fingerprint(circuit_fp)
                        .write_fingerprint(model_fp::candidate_fingerprint(candidate))
                        .write_f64(config.threshold)
                        .write_bool(solver.damped)
                        .write_bool(solver.gmin_stepping)
                        .write_bool(solver.source_stepping)
                        .write_u64(solver.budget as u64)
                        .write_str(solver.kernel.tag())
                        .finish();
                    WorkItem {
                        id: ArtifactId { kind: ArtifactKind::InjectionRow, key },
                        owner: candidate.name.clone(),
                        label: format!("{}/{}", candidate.name, candidate.mode.name),
                    }
                })
                .collect()
        };
        let results = ctx.run_keyed(
            "injection-rows",
            items,
            |i, artifact: InjectionArtifact| {
                let candidate = &candidates[i];
                let report = CaseReport {
                    case: format!("{}/{}", candidate.name, candidate.mode.name),
                    outcome: artifact.outcome,
                    iterations: artifact.iterations,
                    wall_ms: 0.0, // served from the cache, not re-solved
                };
                (artifact.row, report)
            },
            // Lower and solve the nominal circuit once, only when at least
            // one candidate actually needs simulating.
            |_| Ok(injection::nominal(diagram, &config)?),
            |(lowered, nominal), i| {
                Ok(injection::analyse_candidate_supervised(
                    &candidates[i],
                    lowered,
                    nominal,
                    &config,
                ))
            },
            |_, (row, report)| InjectionArtifact {
                row: row.clone(),
                outcome: report.outcome.clone(),
                iterations: report.iterations,
            },
        )?;

        let (mut rows, reports): (Vec<FmeaRow>, Vec<CaseReport>) = results.into_iter().unzip();
        // Row keys ignore FIT and mode share, so a cached row carries the
        // numbers of whichever run computed it: stamp the current ones.
        for (i, (row, candidate)) in rows.iter_mut().zip(&candidates).enumerate() {
            montecarlo::restamp(row, candidate, i)?;
        }
        let mut health = CampaignHealth::from_reports(&reports);
        let mut degradation = ctx.baseline_degraded.clone();
        degradation.merge(&ctx.degraded);
        health.absorb_degradation(&degradation);
        // Keep the report visible even when the breaker aborts the run —
        // it is exactly then that the operator needs the failed-case list.
        ctx.campaign = Some(health.clone());
        health.enforce(&config.campaign).map_err(EngineError::Core)?;

        let mut table = FmeaTable::new(diagram.name());
        for row in rows {
            table.push(row);
        }
        Ok(PassArtifact::Injection { table, health })
    }
}

/// Per-container fault-subtree quantification as a pass. Each subtree's
/// structure — basic events and minimal cut sets — is cached under what
/// synthesis reads ([`model_fp::fault_tree_fingerprint`]) and the path
/// cap; every run quantifies it with the current FITs, mode shares and
/// mission time, so an edit to those re-runs no MOCUS.
#[derive(Debug, Default, Clone, Copy)]
pub struct FtaPass;

impl AnalysisPass for FtaPass {
    fn id(&self) -> &'static str {
        ids::FTA
    }

    fn kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::FtaSubtree]
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassArtifact> {
        let model = ctx.input.model.ok_or_else(|| missing_input(self.id(), "a model"))?;
        let top = ctx.input.top.ok_or_else(|| missing_input(self.id(), "an analysis root"))?;
        let mission_hours = ctx.input.mission_hours;
        if !(mission_hours > 0.0 && mission_hours.is_finite()) {
            return Err(EngineError::Core(CoreError::InvalidParameter {
                message: format!("mission time must be positive and finite, got {mission_hours}"),
            }));
        }
        let max_paths = GraphConfig::default().max_paths;
        let containers = collect_containers(model, top);
        let members: Vec<Vec<Idx<Component>>> =
            containers.iter().map(|&c| model_fp::fault_tree_members(model, c)).collect();
        let items = || {
            containers
                .iter()
                .zip(&members)
                .map(|(&container, members)| {
                    let key = Hasher::new()
                        .write_str("fta-subtree")
                        .write_fingerprint(model_fp::fault_tree_fingerprint(
                            model, container, members,
                        ))
                        .write_u64(max_paths as u64)
                        .finish();
                    let name = model.components[container].core.name.value().to_owned();
                    WorkItem {
                        id: ArtifactId { kind: ArtifactKind::FtaSubtree, key },
                        owner: name.clone(),
                        label: name,
                    }
                })
                .collect()
        };
        let quantify = |i: usize, structure: FtaArtifact| {
            let summary = structure.summary(model, containers[i], &members[i], mission_hours);
            (structure, summary)
        };
        let subtrees = ctx.run_keyed(
            "fta-subtrees",
            items,
            quantify,
            |_| Ok(()),
            |_: &(), i| {
                let structure = FtaArtifact::compute(model, containers[i], &members[i], max_paths);
                Ok(quantify(i, structure))
            },
            |_, (structure, _)| structure.clone(),
        )?;
        let mut summaries = Vec::with_capacity(subtrees.len());
        for (FtaArtifact { note, .. }, summary) in subtrees {
            ctx.degraded.notes.extend(note);
            summaries.push(summary);
        }
        Ok(PassArtifact::FtaSummaries(summaries))
    }
}

/// Runtime monitor synthesis as a pass, generated on every run: it walks
/// the same IO nodes a key over them would.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonitorPass;

impl AnalysisPass for MonitorPass {
    fn id(&self) -> &'static str {
        ids::MONITORS
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassArtifact> {
        let model = ctx.input.model.ok_or_else(|| missing_input(self.id(), "a model"))?;
        let monitor = ctx.run_uncached("monitor-set", 1, || Ok(RuntimeMonitor::generate(model)))?;
        Ok(PassArtifact::Monitor(monitor))
    }
}

/// HARA risk-log pass: assesses every FMEA failure mode of an upstream
/// FMEA-producing pass against the hazard log (or the fallback policy)
/// and derives the per-mode ASIL, on every run: the assessment costs less
/// than serving the log from the store.
#[derive(Debug, Clone)]
pub struct HaraPass {
    deps: [&'static str; 1],
}

impl HaraPass {
    /// A HARA pass consuming the FMEA table of the pass named `source`.
    pub fn new(source: &'static str) -> Self {
        HaraPass { deps: [source] }
    }
}

impl Default for HaraPass {
    fn default() -> Self {
        HaraPass::new(ids::GRAPH)
    }
}

impl AnalysisPass for HaraPass {
    fn id(&self) -> &'static str {
        ids::HARA
    }

    fn depends_on(&self) -> &[&'static str] {
        &self.deps
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassArtifact> {
        let source = ctx.dep_arc(self.deps[0])?;
        let table = expect_upstream(
            &source,
            PassArtifact::fmea_table,
            "an FMEA table",
            self.id(),
            self.deps[0],
        )?;
        let (hazards, policy) = (ctx.input.hazards, ctx.input.policy);
        let log = ctx.run_uncached("risk-log", 1, || {
            Ok(RiskLog::assess(
                format!("{} risk log", table.system),
                table
                    .rows
                    .iter()
                    .map(|r| (r.component.as_str(), r.failure_mode.as_str(), r.safety_related)),
                hazards,
                &policy,
            ))
        })?;
        Ok(PassArtifact::RiskLog(log))
    }
}

/// The Monte-Carlo campaign as a pass over the `injection-fmea` verdict
/// table. Every trial perturbs the reliability model (lognormal FIT,
/// Dirichlet-style shares, seeded per trial from the master seed) and
/// re-weights the one table with the drawn numbers
/// ([`montecarlo::reweight`]): a verdict depends only on the circuit, the
/// block and the failure mode, so a campaign simulates once, in the
/// upstream pass — which also enforces the breaker, publishes the
/// campaign health and serves its rows from the cache when warm. Trials
/// are pure arithmetic, folded in trial-index order, so the report is
/// bitwise identical across worker counts and warm/cold caches.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonteCarloPass;

impl AnalysisPass for MonteCarloPass {
    fn id(&self) -> &'static str {
        ids::MONTECARLO
    }

    fn depends_on(&self) -> &[&'static str] {
        &[ids::INJECTION]
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassArtifact> {
        let diagram =
            ctx.input.diagram.ok_or_else(|| missing_input(self.id(), "a block diagram"))?;
        let reliability =
            ctx.input.reliability.ok_or_else(|| missing_input(self.id(), "reliability data"))?;
        let trials = ctx.input.trials;
        if trials == 0 {
            return Err(EngineError::Core(CoreError::InvalidParameter {
                message: "a Monte-Carlo campaign needs at least one trial".to_owned(),
            }));
        }
        let seed = ctx.input.seed;
        let source = ctx.dep_arc(ids::INJECTION)?;
        let verdicts = expect_upstream(
            &source,
            PassArtifact::fmea_table,
            "an FMEA table",
            self.id(),
            ids::INJECTION,
        )?;

        let samples = ctx.run_uncached("mc-trials", trials, || {
            // One working copy: every trial re-stamps every row of it.
            let mut table = verdicts.clone();
            (0..trials)
                .map(|trial| {
                    let drawn =
                        montecarlo::perturb(reliability, &mut montecarlo::trial_rng(seed, trial));
                    montecarlo::reweight(&mut table, &injection::candidates(diagram, &drawn))?;
                    Ok(TrialMetrics::of(&table))
                })
                .collect::<Result<Vec<TrialMetrics>>>()
        })?;
        Ok(PassArtifact::MonteCarlo(MonteCarloReport::from_trials(seed, &samples)))
    }
}

/// Safety-pattern recommendation as a pass: matches the built-in pattern
/// catalog (comparison monitor, redundant channel, watchdog, range check)
/// against the failure modes an upstream FMEA left uncovered, scores the
/// candidate deployments with the Pareto search, and reports them ranked
/// by projected SPFM with the metric deltas of each.
#[derive(Debug, Clone)]
pub struct RecommendPass {
    deps: [&'static str; 1],
}

impl RecommendPass {
    /// A recommendation pass consuming the FMEA table of the pass named
    /// `source`.
    pub fn new(source: &'static str) -> Self {
        RecommendPass { deps: [source] }
    }
}

impl Default for RecommendPass {
    fn default() -> Self {
        RecommendPass::new(ids::INJECTION)
    }
}

impl AnalysisPass for RecommendPass {
    fn id(&self) -> &'static str {
        ids::RECOMMEND
    }

    fn depends_on(&self) -> &[&'static str] {
        &self.deps
    }

    fn kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::Recommendation]
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassArtifact> {
        let source = ctx.dep_arc(self.deps[0])?;
        let table = expect_upstream(
            &source,
            PassArtifact::fmea_table,
            "an FMEA table",
            self.id(),
            self.deps[0],
        )?;
        let items = || {
            let key = Hasher::new()
                .write_str("recommendation")
                .write_fingerprint(model_fp::serialized_fingerprint(table, "fmea-table"))
                .finish();
            vec![WorkItem {
                id: ArtifactId { kind: ArtifactKind::Recommendation, key },
                owner: table.system.clone(),
                label: table.system.clone(),
            }]
        };
        let mut reports = ctx.run_keyed(
            "recommendation",
            items,
            |_, report: RecommendationReport| report,
            |_| Ok(()),
            |_: &(), _| patterns::recommend(table),
            |_, report| report.clone(),
        )?;
        Ok(PassArtifact::Recommend(reports.pop().expect("one recommendation item")))
    }
}

/// Assurance-case pass: generates the standard pipeline GSN case from the
/// FMEA, FTA and HARA artefacts (plus campaign health when the source is
/// the injection pass), registers the artefacts with the federation layer
/// and evaluates every evidence query.
#[derive(Debug, Clone)]
pub struct AssurancePass {
    deps: [&'static str; 3],
}

impl AssurancePass {
    /// An assurance pass arguing over the FMEA table of `source` (plus
    /// the FTA and HARA artefacts).
    pub fn new(source: &'static str) -> Self {
        AssurancePass { deps: [source, ids::FTA, ids::HARA] }
    }
}

impl Default for AssurancePass {
    fn default() -> Self {
        AssurancePass::new(ids::GRAPH)
    }
}

impl AnalysisPass for AssurancePass {
    fn id(&self) -> &'static str {
        ids::ASSURANCE
    }

    fn depends_on(&self) -> &[&'static str] {
        &self.deps
    }

    fn kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::AssuranceCase]
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassArtifact> {
        let source = ctx.dep_arc(self.deps[0])?;
        let table = expect_upstream(
            &source,
            PassArtifact::fmea_table,
            "an FMEA table",
            self.id(),
            self.deps[0],
        )?;
        let campaign = source.campaign_health();
        let fta = ctx.dep_arc(ids::FTA)?;
        let subtree_summaries = expect_upstream(
            &fta,
            PassArtifact::fta_summaries,
            "FTA summaries",
            self.id(),
            ids::FTA,
        )?;
        let hara = ctx.dep_arc(ids::HARA)?;
        let risk =
            expect_upstream(&hara, PassArtifact::risk_log, "a risk log", self.id(), ids::HARA)?;
        let target = risk.highest_asil().unwrap_or(IntegrityLevel::Qm);
        let subtrees: Vec<(String, bool, Vec<String>)> = subtree_summaries
            .iter()
            .map(|s| (s.container.clone(), s.analysable, s.single_points.clone()))
            .collect();
        let evidence =
            PipelineEvidence { system: &table.system, target, subtrees: &subtrees, campaign };

        let items = || {
            let mut h = Hasher::new();
            h.write_str("assurance-case");
            h.write_fingerprint(model_fp::serialized_fingerprint(table, "fmea-table"));
            h.write_fingerprint(model_fp::serialized_fingerprint(
                subtree_summaries,
                "fta-summaries",
            ));
            h.write_fingerprint(model_fp::serialized_fingerprint(risk, "risk-log"));
            // Only the semantic campaign fields: wall-clock noise (slowest
            // cases, degradation snapshots) must not break warm cache hits.
            match campaign {
                Some(health) => {
                    h.write_bool(true);
                    h.write_u64(health.total as u64);
                    h.write_u64(health.converged as u64);
                    h.write_u64(health.recovered as u64);
                    h.write_u64(health.unsolvable as u64);
                    h.write_u64(health.panicked as u64);
                    h.write_u64(health.skipped as u64);
                    for (strategy, count) in &health.strategy_histogram {
                        h.write_str(strategy);
                        h.write_u64(*count as u64);
                    }
                    for case in &health.failed_cases {
                        h.write_str(case);
                    }
                }
                None => {
                    h.write_bool(false);
                }
            }
            // The generated case — its statements and evidence queries — keys
            // the report too, so a changed generator recomputes stored reports.
            match pipeline_case(&evidence) {
                Ok(case) => h
                    .write_bool(true)
                    .write_fingerprint(model_fp::serialized_fingerprint(&case, "assurance-case")),
                Err(e) => h.write_bool(false).write_str(&e.to_string()),
            };
            vec![WorkItem {
                id: ArtifactId { kind: ArtifactKind::AssuranceCase, key: h.finish() },
                owner: table.system.clone(),
                label: table.system.clone(),
            }]
        };
        let mut reports = ctx.run_keyed(
            "assurance-case",
            items,
            |_, report: AssuranceReport| report,
            |_| Ok(()),
            |_: &(), _| {
                let registry = DriverRegistry::with_defaults();
                registry.memory().register(FMEA_LOCATION, table.to_value());
                registry.memory().register(
                    FTA_LOCATION,
                    Value::List(
                        subtree_summaries
                            .iter()
                            .map(|s| {
                                Value::record([
                                    ("Container", Value::from(s.container.as_str())),
                                    (
                                        "Analysable",
                                        Value::from(if s.analysable { "Yes" } else { "No" }),
                                    ),
                                    ("Top_Probability", Value::Real(s.top_probability)),
                                    ("Single_Points", Value::Int(s.single_points.len() as i64)),
                                ])
                            })
                            .collect(),
                    ),
                );
                if let Some(health) = campaign {
                    registry.memory().register(
                        CAMPAIGN_LOCATION,
                        Value::list([Value::record([
                            ("Total", Value::Int(health.total as i64)),
                            ("Converged", Value::Int(health.converged as i64)),
                            ("Recovered", Value::Int(health.recovered as i64)),
                            ("Unsolvable", Value::Int(health.unsolvable as i64)),
                            ("Panicked", Value::Int(health.panicked as i64)),
                            ("Skipped", Value::Int(health.skipped as i64)),
                        ])]),
                    );
                }
                Ok(pipeline_report(&evidence, &registry))
            },
            |_, report| report.clone(),
        )?;
        let report = reports.pop().expect("one assurance item");
        if let Status::Error(e) = &report.overall {
            ctx.degraded.notes.push(format!("assurance case evaluation errored: {e}"));
        }
        Ok(PassArtifact::Assurance(report))
    }
}
