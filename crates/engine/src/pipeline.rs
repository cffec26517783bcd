//! The pass-manager pipeline: an [`AnalysisPass`] DAG validated for
//! well-formedness (unique ids, known dependencies, no cycles) and
//! executed with **cross-pass parallelism** — independent passes run
//! concurrently on the shared worker budget while dependents wait for
//! their upstream artefacts. [`Engine::run_pipeline`] is the only pass
//! runner: the engine's `analyze_*` wrappers run one- and two-pass
//! pipelines through it.
//!
//! One full DECISIVE iteration (paper Fig. 2) is [`Pipeline::standard`]:
//!
//! ```text
//! graph-fmea ──┬─▶ hara ───▶ assurance
//! injection ───┤               ▲
//! fta ─────────┴───────────────┘
//! monitors
//! ```
//!
//! (with `hara`/`assurance` consuming the injection table instead when the
//! block-diagram path is analysed).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use decisive_core::campaign::CampaignHealth;
use decisive_core::degraded::DegradedModeReport;
use decisive_core::fmea::FmeaTable;
use decisive_core::monitor::RuntimeMonitor;
use decisive_hara::RiskLog;

use decisive_assurance::AssuranceReport;

use crate::cache::ArtifactKind;
use crate::engine::{Engine, FtaSubtreeSummary};
use crate::error::{EngineError, Result};
use crate::pass::{
    ids, AnalysisPass, AssurancePass, FtaPass, GraphFmeaPass, HaraPass, InjectionFmeaPass,
    MonitorPass, PassArtifact, PassContext, PipelineInput,
};
use crate::stats::PhaseStats;

/// An ordered collection of passes forming a dependency DAG.
#[derive(Default)]
pub struct Pipeline {
    passes: Vec<Box<dyn AnalysisPass>>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.passes.iter().map(|p| p.id())).finish()
    }
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Builder-style registration.
    pub fn with(mut self, pass: impl AnalysisPass + 'static) -> Self {
        self.push(pass);
        self
    }

    /// Registers a pass. Registration order is the tie-break order for
    /// scheduling and the merge order for stats and degraded-mode notes.
    pub fn push(&mut self, pass: impl AnalysisPass + 'static) {
        self.passes.push(Box::new(pass));
    }

    /// The registered passes, in registration order.
    pub fn passes(&self) -> &[Box<dyn AnalysisPass>] {
        &self.passes
    }

    /// The full DECISIVE iteration: graph FMEA, optional injection FMEA,
    /// FTA subtrees, runtime monitors, the HARA risk log and the
    /// assurance case. With `with_injection`, HARA and the assurance case
    /// argue over the injection table (the measured path); without, over
    /// the graph table.
    pub fn standard(with_injection: bool) -> Self {
        let primary = if with_injection { ids::INJECTION } else { ids::GRAPH };
        let mut pipeline = Pipeline::new().with(GraphFmeaPass);
        if with_injection {
            pipeline.push(InjectionFmeaPass);
        }
        pipeline
            .with(FtaPass)
            .with(MonitorPass)
            .with(HaraPass::new(primary))
            .with(AssurancePass::new(primary))
    }

    /// Checks the DAG is well-formed and returns a topological order of
    /// pass indices (dependencies first; registration order breaks ties).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownDependency`] when a dependency is not in the
    /// pipeline, [`EngineError::Pipeline`] on duplicate ids or a
    /// dependency cycle.
    pub fn validate(&self) -> Result<Vec<usize>> {
        let mut index_of: HashMap<&str, usize> = HashMap::new();
        for (i, pass) in self.passes.iter().enumerate() {
            if index_of.insert(pass.id(), i).is_some() {
                return Err(EngineError::Pipeline(format!("duplicate pass id `{}`", pass.id())));
            }
        }
        let mut indegree = vec![0usize; self.passes.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); self.passes.len()];
        for (i, pass) in self.passes.iter().enumerate() {
            for dep in pass.depends_on() {
                let Some(&d) = index_of.get(dep) else {
                    return Err(EngineError::UnknownDependency {
                        pass: pass.id().to_owned(),
                        dependency: (*dep).to_owned(),
                    });
                };
                indegree[i] += 1;
                dependents[d].push(i);
            }
        }
        // Kahn's algorithm; the ready set is scanned in registration
        // order, keeping the result deterministic.
        let mut order = Vec::with_capacity(self.passes.len());
        let mut emitted = vec![false; self.passes.len()];
        loop {
            let next = (0..self.passes.len()).find(|&i| !emitted[i] && indegree[i] == 0);
            match next {
                Some(i) => {
                    emitted[i] = true;
                    order.push(i);
                    for &dependent in &dependents[i] {
                        indegree[dependent] -= 1;
                    }
                }
                None => break,
            }
        }
        if order.len() != self.passes.len() {
            let stuck = (0..self.passes.len())
                .find(|&i| !emitted[i])
                .map(|i| self.passes[i].id())
                .unwrap_or("?");
            return Err(EngineError::Pipeline(format!(
                "dependency cycle involving pass `{stuck}`"
            )));
        }
        Ok(order)
    }
}

/// The artefacts of one pipeline execution, keyed by pass id in
/// registration order.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    results: Vec<(String, Arc<PassArtifact>)>,
}

impl PipelineRun {
    /// The artefact of the pass named `id`, when it ran.
    pub fn artifact(&self, id: &str) -> Option<&PassArtifact> {
        self.results.iter().find(|(name, _)| name == id).map(|(_, a)| a.as_ref())
    }

    /// All `(pass id, artefact)` pairs, in registration order.
    pub fn artifacts(&self) -> impl Iterator<Item = (&str, &PassArtifact)> {
        self.results.iter().map(|(name, a)| (name.as_str(), a.as_ref()))
    }

    /// The primary FMEA table: the injection table when the injection
    /// pass ran, the graph table otherwise.
    pub fn fmea(&self) -> Option<&FmeaTable> {
        self.artifact(ids::INJECTION)
            .or_else(|| self.artifact(ids::GRAPH))
            .and_then(PassArtifact::fmea_table)
    }

    /// The quantified FTA subtrees, when the FTA pass ran.
    pub fn fta(&self) -> Option<&[FtaSubtreeSummary]> {
        self.artifact(ids::FTA).and_then(PassArtifact::fta_summaries)
    }

    /// The runtime monitor set, when the monitor pass ran.
    pub fn monitor(&self) -> Option<&RuntimeMonitor> {
        self.artifact(ids::MONITORS).and_then(PassArtifact::monitor)
    }

    /// The HARA risk log, when the HARA pass ran.
    pub fn risk_log(&self) -> Option<&RiskLog> {
        self.artifact(ids::HARA).and_then(PassArtifact::risk_log)
    }

    /// The evaluated assurance case, when the assurance pass ran.
    pub fn assurance(&self) -> Option<&AssuranceReport> {
        self.artifact(ids::ASSURANCE).and_then(PassArtifact::assurance)
    }

    /// The Monte-Carlo report, when the Monte-Carlo pass ran.
    pub fn montecarlo(&self) -> Option<&decisive_core::montecarlo::MonteCarloReport> {
        self.artifact(ids::MONTECARLO).and_then(PassArtifact::montecarlo)
    }

    /// The recommendation report, when the recommendation pass ran.
    pub fn recommendation(&self) -> Option<&decisive_core::patterns::RecommendationReport> {
        self.artifact(ids::RECOMMEND).and_then(PassArtifact::recommendation)
    }
}

/// Cache status of one pass, as shown by `decisive passes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStatus {
    /// The pass id.
    pub id: String,
    /// Ids of the passes it consumes.
    pub depends_on: Vec<String>,
    /// Cache namespaces it reads and writes.
    pub kinds: Vec<ArtifactKind>,
    /// Cached entries currently held across those namespaces.
    pub cached_entries: usize,
}

/// Everything one finished pass hands back to the merge step.
struct PassOutcome {
    artifact: Option<Arc<PassArtifact>>,
    error: Option<EngineError>,
    skipped: Option<String>,
    phases: Vec<PhaseStats>,
    degraded: DegradedModeReport,
    campaign: Option<CampaignHealth>,
}

/// Shared scheduler state of one pipeline execution.
struct DagState {
    indegree: Vec<usize>,
    ready: Vec<usize>,
    done: Vec<Option<PassOutcome>>,
    completed: usize,
}

impl Engine {
    /// Executes `pipeline` over `input` with cross-pass parallelism: the
    /// worker budget ([`crate::engine::EngineConfig::jobs`]) is split
    /// between concurrent passes and the batches inside each pass.
    /// Artefacts flow along the validated DAG; a failing pass marks its
    /// dependents skipped (recorded in the degraded-mode report) and the
    /// first error — in registration order — is returned after every
    /// runnable pass finished, so stats, campaign health and cache
    /// contents stay complete even on failure.
    ///
    /// # Errors
    ///
    /// [`EngineError::Pipeline`] on a malformed DAG, otherwise the first
    /// failing pass's error.
    pub fn run_pipeline(
        &mut self,
        pipeline: &Pipeline,
        input: &PipelineInput<'_>,
    ) -> Result<PipelineRun> {
        let order = pipeline.validate()?;
        let passes = pipeline.passes();
        let n = passes.len();
        if n == 0 {
            return Ok(PipelineRun { results: Vec::new() });
        }
        let config = self.config.clone();
        let baseline_degraded = self.degraded.clone();
        let telemetry = self.telemetry.clone();
        let store_quarantined = self.store_quarantined();
        let cache = self.cache.clone();

        let mut index_of: HashMap<&str, usize> = HashMap::new();
        for (i, pass) in passes.iter().enumerate() {
            index_of.insert(pass.id(), i);
        }
        // Split the budget: up to `pass_workers` passes in flight, each
        // with `intra` workers for its own batches. A pass sits one level
        // below its deepest dependency; no more passes are in flight than
        // the widest level holds, so a chain gives each pass the whole
        // budget instead of idling workers reserved for its dependents.
        let mut level = vec![0usize; n];
        for &i in &order {
            level[i] =
                passes[i].depends_on().iter().map(|d| level[index_of[d]] + 1).max().unwrap_or(0);
        }
        let mut width = vec![0usize; n];
        for &l in &level {
            width[l] += 1;
        }
        let widest = width.into_iter().max().unwrap_or(1);
        let pass_workers = config.jobs.min(widest).max(1);
        let intra = (config.jobs / pass_workers).max(1);
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, pass) in passes.iter().enumerate() {
            for dep in pass.depends_on() {
                indegree[i] += 1;
                dependents[index_of[dep]].push(i);
            }
        }
        // The ready stack is kept sorted descending so `pop` yields the
        // lowest registration index first — deterministic under 1 worker.
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        ready.reverse();
        let state = Mutex::new(DagState {
            indegree,
            ready,
            done: (0..n).map(|_| None).collect(),
            completed: 0,
        });
        let turnstile = Condvar::new();

        crossbeam::scope(|scope| {
            for _ in 0..pass_workers {
                scope.spawn(|| {
                    // DAG workers are fresh threads: install the engine's
                    // telemetry handle so passes (and the solver code
                    // under them) record onto the shared timeline.
                    let _telemetry = decisive_obs::set_current(telemetry.clone());
                    loop {
                        let idx = {
                            let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
                            loop {
                                if let Some(idx) = guard.ready.pop() {
                                    break idx;
                                }
                                if guard.completed == n {
                                    return;
                                }
                                guard = turnstile.wait(guard).unwrap_or_else(|e| e.into_inner());
                            }
                        };
                        let pass = &passes[idx];
                        // Collect upstream artefacts; a failed or skipped
                        // dependency skips this pass too.
                        let mut deps: HashMap<&'static str, Arc<PassArtifact>> = HashMap::new();
                        let mut skipped = None;
                        {
                            let guard = state.lock().unwrap_or_else(|e| e.into_inner());
                            for dep in pass.depends_on() {
                                let outcome = guard.done[index_of[*dep]]
                                    .as_ref()
                                    .expect("dependency completed before dependent");
                                match &outcome.artifact {
                                    Some(artifact) => {
                                        deps.insert(*dep, Arc::clone(artifact));
                                    }
                                    None => {
                                        skipped = Some(format!(
                                            "pass `{}` skipped: upstream pass `{dep}` {}",
                                            pass.id(),
                                            if outcome.skipped.is_some() {
                                                "was skipped"
                                            } else {
                                                "failed"
                                            }
                                        ));
                                    }
                                }
                            }
                        }
                        let outcome = match skipped {
                            Some(reason) => PassOutcome {
                                artifact: None,
                                error: None,
                                skipped: Some(reason),
                                phases: Vec::new(),
                                degraded: DegradedModeReport::new(),
                                campaign: None,
                            },
                            None => {
                                let mut ctx = PassContext {
                                    config: &config,
                                    workers: intra,
                                    cache: &cache,
                                    input,
                                    deps,
                                    baseline_degraded: baseline_degraded.clone(),
                                    phases: Vec::new(),
                                    degraded: DegradedModeReport::new(),
                                    campaign: None,
                                    telemetry: telemetry.clone(),
                                };
                                let result = {
                                    let _span = telemetry.enabled().then(|| {
                                        telemetry.span(format!("pass:{}", pass.id()), "pass")
                                    });
                                    // A panic must not end this worker: a
                                    // pass it never records leaves every
                                    // other worker waiting for it.
                                    catch_unwind(AssertUnwindSafe(|| pass.run(&mut ctx)))
                                        .unwrap_or_else(|_| {
                                            Err(EngineError::Pipeline(format!(
                                                "pass `{}` panicked",
                                                pass.id()
                                            )))
                                        })
                                };
                                let PassContext { phases, degraded, campaign, .. } = ctx;
                                match result {
                                    Ok(artifact) => PassOutcome {
                                        artifact: Some(Arc::new(artifact)),
                                        error: None,
                                        skipped: None,
                                        phases,
                                        degraded,
                                        campaign,
                                    },
                                    Err(e) => PassOutcome {
                                        artifact: None,
                                        error: Some(e),
                                        skipped: None,
                                        phases,
                                        degraded,
                                        campaign,
                                    },
                                }
                            }
                        };
                        let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
                        guard.done[idx] = Some(outcome);
                        guard.completed += 1;
                        for &dependent in &dependents[idx] {
                            guard.indegree[dependent] -= 1;
                            if guard.indegree[dependent] == 0 {
                                guard.ready.push(dependent);
                            }
                        }
                        // Keep the ready queue in registration order so
                        // single-worker execution is deterministic.
                        guard.ready.sort_unstable_by(|a, b| b.cmp(a));
                        drop(guard);
                        turnstile.notify_all();
                    }
                });
            }
        })
        .map_err(|_| EngineError::Pipeline("a pipeline worker panicked".to_owned()))?;
        self.note_store_rot(store_quarantined);

        // Merge sinks in registration order — independent of the actual
        // interleaving, so stats and notes are reproducible.
        let mut state = state.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut results = Vec::new();
        let mut first_error = None;
        for (i, pass) in passes.iter().enumerate() {
            let outcome = state.done[i].take().expect("every pass completed");
            for phase in outcome.phases {
                self.stats.record(phase);
            }
            self.degraded.merge(&outcome.degraded);
            if let Some(campaign) = outcome.campaign {
                self.last_campaign = Some(campaign);
            }
            if let Some(reason) = outcome.skipped {
                self.degraded.notes.push(reason);
            }
            if let Some(e) = outcome.error {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
            if let Some(artifact) = outcome.artifact {
                results.push((pass.id().to_owned(), artifact));
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(PipelineRun { results }),
        }
    }

    /// Whole-pipeline verification (the escape hatch of
    /// [`Engine::verify_against_full`], widened to every artefact): runs
    /// the pipeline warm on this engine, then cold on a fresh engine with
    /// an empty cache, and compares artefact by artefact with
    /// [`PassArtifact::equivalent`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Verification`] when any warm artefact diverges from
    /// its cold recomputation; otherwise as [`Engine::run_pipeline`].
    pub fn verify_pipeline_against_full(
        &mut self,
        pipeline: &Pipeline,
        input: &PipelineInput<'_>,
    ) -> Result<PipelineRun> {
        let warm = self.run_pipeline(pipeline, input)?;
        let mut cold_engine = Engine::new(self.config().clone());
        let cold = cold_engine.run_pipeline(pipeline, input)?;
        for (id, artifact) in warm.artifacts() {
            let reference = cold.artifact(id).ok_or_else(|| {
                EngineError::Verification(format!(
                    "pipeline pass `{id}`: present warm but absent from the cold run"
                ))
            })?;
            if !artifact.equivalent(reference) {
                return Err(EngineError::Verification(format!(
                    "pipeline pass `{id}`: warm artefact diverges from the cold recomputation"
                )));
            }
        }
        Ok(warm)
    }

    /// The DAG listing backing `decisive passes`: every pass in
    /// topological order with its dependencies, cache namespaces, and how
    /// many cache entries those namespaces currently hold.
    ///
    /// # Errors
    ///
    /// [`EngineError::Pipeline`] when the pipeline is malformed.
    pub fn pipeline_status(&self, pipeline: &Pipeline) -> Result<Vec<PassStatus>> {
        let order = pipeline.validate()?;
        Ok(order
            .into_iter()
            .map(|i| {
                let pass = &pipeline.passes()[i];
                PassStatus {
                    id: pass.id().to_owned(),
                    depends_on: pass.depends_on().iter().map(|d| (*d).to_owned()).collect(),
                    kinds: pass.kinds().to_vec(),
                    cached_entries: pass
                        .kinds()
                        .iter()
                        .map(|&k| self.cache.keys_of_kind(k).len())
                        .sum(),
                }
            })
            .collect())
    }
}
