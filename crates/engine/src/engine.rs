//! The incremental analysis engine: ties the content-addressed cache, the
//! model fingerprints and the parallel scheduler together and re-derives
//! the repository's analysis artefacts — graph FMEA tables, injection FMEA
//! tables, FTA subtree quantifications and runtime monitor sets —
//! recomputing only the cached work whose inputs changed.
//!
//! Each analysis is an [`crate::pass::AnalysisPass`], and
//! [`Engine::run_pipeline`] (in [`crate::pipeline`]) is the only code that
//! runs one: it executes a pass DAG with cross-pass parallelism. The
//! `analyze_*` methods below are thin wrappers that run a one- or
//! two-pass pipeline and clone their artefact out of the run. Front ends
//! run the four analysis ops through [`Engine::execute`] (in
//! [`crate::execute`]).

use serde::{Deserialize, Serialize};

use decisive_obs::Telemetry;

use decisive_blocks::BlockDiagram;
use decisive_core::campaign::CampaignHealth;
use decisive_core::degraded::DegradedModeReport;
use decisive_core::fmea::graph::{self, GraphConfig};
use decisive_core::fmea::injection::InjectionConfig;
use decisive_core::fmea::FmeaTable;
use decisive_core::impact::{self, ImpactReport};
use decisive_core::monitor::RuntimeMonitor;
use decisive_core::montecarlo::MonteCarloReport;
use decisive_core::patterns::RecommendationReport;
use decisive_core::reliability::ReliabilityDb;
use decisive_ssam::architecture::Component;
use decisive_ssam::id::Idx;
use decisive_ssam::model::SsamModel;

use crate::cache::SharedStore;
use crate::error::{EngineError, Result};
use crate::pass::{
    FtaPass, GraphFmeaPass, InjectionFmeaPass, MonitorPass, MonteCarloPass, PipelineInput,
    RecommendPass,
};
use crate::pipeline::Pipeline;
use crate::stats::EngineStats;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Worker threads for job batches; `1` runs inline.
    pub jobs: usize,
    /// Per-job wall-clock deadline in milliseconds. Jobs that exceed it
    /// keep their results but are classified as timed-out in the phase
    /// stats and the degraded-mode report. `None` disables the deadline.
    pub deadline_ms: Option<f64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            deadline_ms: None,
        }
    }
}

impl EngineConfig {
    /// A configuration with an explicit worker count.
    pub fn with_jobs(jobs: usize) -> Self {
        EngineConfig { jobs: jobs.max(1), ..EngineConfig::default() }
    }
}

/// Quantified fault subtree of one container (see `Engine::analyze_fta`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FtaSubtreeSummary {
    /// Container component name.
    pub container: String,
    /// `false` when the container had no input→output paths to analyse
    /// (or exceeded the path cap); the numeric fields are then zeroed.
    pub analysable: bool,
    /// Top-event probability over the mission time.
    pub top_probability: f64,
    /// Basic events forming singleton minimal cut sets.
    pub single_points: Vec<String>,
    /// Minimal cut sets, by basic event name.
    pub minimal_cut_sets: Vec<Vec<String>>,
}

/// The incremental analysis engine.
///
/// # Examples
///
/// ```
/// use decisive_core::case_study;
/// use decisive_engine::{Engine, EngineConfig};
///
/// let (model, top) = case_study::ssam_model();
/// let mut engine = Engine::new(EngineConfig::with_jobs(2));
/// let cold = engine.analyze_graph(&model, top).unwrap();
/// let warm = engine.analyze_graph(&model, top).unwrap();
/// assert_eq!(cold, warm);
/// let facts = engine.stats().phase("graph-facts").unwrap();
/// assert_eq!(facts.cache_misses, 0, "second run serves the container facts");
/// ```
#[derive(Debug, Default)]
pub struct Engine {
    pub(crate) config: EngineConfig,
    pub(crate) cache: SharedStore,
    pub(crate) stats: EngineStats,
    pub(crate) last_campaign: Option<CampaignHealth>,
    pub(crate) degraded: DegradedModeReport,
    pub(crate) telemetry: Telemetry,
}

/// Step-by-step [`Engine`] construction — the documented way to configure
/// an engine. `Engine::new` remains a shortcut for an in-memory engine.
///
/// # Examples
///
/// ```
/// use decisive_core::case_study;
/// use decisive_engine::Engine;
/// use decisive_obs::Telemetry;
///
/// let (telemetry, sink) = Telemetry::recording();
/// let mut engine = Engine::builder()
///     .jobs(2)
///     .deadline_ms(30_000.0)
///     .telemetry(telemetry)
///     .build()
///     .unwrap();
/// let (model, top) = case_study::ssam_model();
/// engine.analyze_graph(&model, top).unwrap();
/// let report = sink.drain();
/// assert!(report.counters["cache.graph-facts.misses"] > 0);
/// assert!(report.counters["scheduler.jobs"] > 0, "the facts phase ran its jobs");
/// ```
#[derive(Debug, Default)]
pub struct EngineBuilder {
    config: EngineConfig,
    cache_dir: Option<std::path::PathBuf>,
    shared: Option<SharedStore>,
    telemetry: Telemetry,
}

impl EngineBuilder {
    /// Sets the worker-thread budget (clamped to at least one).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.config.jobs = jobs.max(1);
        self
    }

    /// Sets the per-job wall-clock deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: f64) -> Self {
        self.config.deadline_ms = Some(ms.max(0.0));
        self
    }

    /// Opens the durable store under `dir` at [`EngineBuilder::build`]
    /// time — the engine's persistence. Cannot be combined with
    /// [`EngineBuilder::shared_store`].
    pub fn cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Makes the engine's store a handle onto `shared`, so sibling
    /// engines built over clones of one [`SharedStore`] deduplicate
    /// artefacts by fingerprint. This is how the analysis daemon
    /// multiplexes sessions and a fleet worker reuses work across models.
    /// Cannot be combined with [`EngineBuilder::cache_dir`].
    pub fn shared_store(mut self, shared: SharedStore) -> Self {
        self.shared = Some(shared);
        self
    }

    /// Sets the telemetry sink every analysis reports spans, counters and
    /// histograms to. Defaults to the free no-op handle.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builds the engine, opening the durable store when
    /// [`EngineBuilder::cache_dir`] was set.
    ///
    /// # Errors
    ///
    /// [`EngineError::ConflictingStores`] when both a cache directory and
    /// a shared store were set; otherwise the store's error when the
    /// cache directory exists but cannot be opened (corruption is
    /// quarantined, not fatal).
    pub fn build(self) -> Result<Engine> {
        let mut engine = Engine::new(self.config);
        engine.telemetry = self.telemetry;
        match (self.cache_dir, self.shared) {
            (Some(dir), None) => {
                // Persistence lives in the segmented append-only store
                // under `dir/store/`, recovered by one index scan (values
                // load lazily on first hit).
                let (shared, recovery) = SharedStore::open_durable(
                    &dir,
                    crate::store::StoreOptions::default(),
                    engine.telemetry.clone(),
                )?;
                engine.stats.quarantined_entries += recovery.quarantined_frames;
                engine.degraded.quarantined_cache_entries += recovery.quarantined_frames;
                engine.degraded.notes.extend(recovery.notes.iter().cloned());
                engine.cache = shared;
            }
            (Some(_), Some(_)) => return Err(EngineError::ConflictingStores),
            (None, Some(shared)) => engine.cache = shared,
            (None, None) => {}
        }
        Ok(engine)
    }
}

impl Engine {
    /// The builder — the single documented construction path; see
    /// [`EngineBuilder`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An engine with an empty in-memory store (shortcut over
    /// [`Engine::builder`]).
    pub fn new(config: EngineConfig) -> Self {
        Engine { config, ..Engine::default() }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The telemetry handle analyses report through (no-op by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine's artefact store: in memory, durable under
    /// [`EngineBuilder::cache_dir`], or a handle onto the store given to
    /// [`EngineBuilder::shared_store`].
    pub fn cache(&self) -> &SharedStore {
        &self.cache
    }

    /// Observability counters accumulated so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Clears the counters (the cache keeps its contents).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Clears all per-run state — stats, the degraded-mode report and the
    /// last campaign-health report — while keeping the cache warm. The
    /// analysis daemon calls this between requests so each response
    /// reports exactly its own run, as a fresh CLI invocation would.
    pub fn reset_run_state(&mut self) {
        self.stats = EngineStats::default();
        self.degraded = DegradedModeReport::new();
        self.last_campaign = None;
    }

    /// The health report of the most recent supervised injection campaign
    /// ([`Engine::analyze_injection`]), cold or warm: cached injection
    /// rows carry their outcomes, so a warm run rebuilds the same report.
    /// `None` before any campaign.
    pub fn campaign_health(&self) -> Option<&CampaignHealth> {
        self.last_campaign.as_ref()
    }

    /// Everything this engine substituted, quarantined or abandoned so
    /// far instead of failing. Empty for pristine runs.
    pub fn degraded_report(&self) -> &DegradedModeReport {
        &self.degraded
    }

    /// Frames the durable store behind this engine has quarantined so
    /// far, rot caught on read included; 0 without one.
    pub(crate) fn store_quarantined(&self) -> u64 {
        self.cache.durable().map_or(0, |log| log.health().quarantined_frames)
    }

    /// Records the frames the store quarantined since `before` — rot
    /// caught when a frame was served — as degradation, exactly like rot
    /// caught when the store opened.
    pub(crate) fn note_store_rot(&mut self, before: u64) {
        let rotten = self.store_quarantined().saturating_sub(before) as usize;
        if rotten > 0 {
            self.stats.quarantined_entries += rotten;
            self.degraded.quarantined_cache_entries += rotten;
            self.degraded.notes.push(format!(
                "{rotten} stored artefact(s) failed verification when read; quarantined and recomputed"
            ));
        }
    }

    /// Commits the durable store: fsyncs whatever the passes appended
    /// since their last commit (every completed pass already commits its
    /// own artefacts). `dir` is not consulted — the store commits where
    /// [`EngineBuilder::cache_dir`] opened it.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotDurable`] when the engine has no durable store;
    /// [`EngineError::Store`] on fsync failure.
    pub fn save_cache(&self, _dir: impl AsRef<std::path::Path>) -> Result<()> {
        if !self.cache.is_durable() {
            return Err(EngineError::NotDurable);
        }
        self.cache.sync_durable()
    }

    // ------------------------------------------------------------------
    // Graph path (S8)
    // ------------------------------------------------------------------

    /// Runs the graph FMEA of Algorithm 1 incrementally: container path
    /// facts are fetched from the cache when their topology fingerprints
    /// match and recomputed in parallel otherwise, and every component's
    /// rows are computed from them. The merged table is identical — rows,
    /// order and all — to [`graph::run`]. (Thin wrapper over
    /// [`crate::pass::GraphFmeaPass`].)
    ///
    /// # Errors
    ///
    /// Propagates analysis errors and scheduler failures.
    pub fn analyze_graph(&mut self, model: &SsamModel, top: Idx<Component>) -> Result<FmeaTable> {
        let input = PipelineInput::for_model(model, top);
        let run = self.run_pipeline(&Pipeline::new().with(GraphFmeaPass), &input)?;
        run.fmea().cloned().ok_or_else(|| no_artifact("graph FMEA"))
    }

    /// Re-analyses after a model revision: diffs `old` against `new` into
    /// an impact report, then runs [`Engine::analyze_graph`] on the new
    /// revision. Content addressing decides what recomputes: containers
    /// whose topology is unchanged serve their facts from the cache.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    pub fn rerun(
        &mut self,
        old: &SsamModel,
        new: &SsamModel,
        new_top: Idx<Component>,
    ) -> Result<(FmeaTable, ImpactReport)> {
        let report = impact::diff_models(old, new);
        let table = self.analyze_graph(new, new_top)?;
        Ok((table, report))
    }

    /// The escape hatch: runs the incremental analysis *and* the
    /// from-scratch [`graph::run`], failing loudly if they differ in any
    /// row. Use it to validate a cache of unknown provenance. (For the
    /// whole-pipeline variant see
    /// [`Engine::verify_pipeline_against_full`].)
    ///
    /// # Errors
    ///
    /// [`EngineError::Verification`] on divergence, otherwise as
    /// [`Engine::analyze_graph`].
    pub fn verify_against_full(
        &mut self,
        model: &SsamModel,
        top: Idx<Component>,
    ) -> Result<FmeaTable> {
        let incremental = self.analyze_graph(model, top)?;
        let full = graph::run(model, top, &GraphConfig::default())?;
        if incremental != full {
            return Err(EngineError::Verification(format!(
                "{} incremental vs {} full rows, verdict disagreement {:.4}",
                incremental.rows.len(),
                full.rows.len(),
                incremental.disagreement(&full),
            )));
        }
        Ok(incremental)
    }

    // ------------------------------------------------------------------
    // Injection path (S7)
    // ------------------------------------------------------------------

    /// Runs the fault-injection FMEA incrementally under full campaign
    /// supervision. Rows are keyed by the whole-circuit digest plus the
    /// candidate's own content and the solver ladder configuration — any
    /// circuit edit invalidates every row (a fault's effect depends on the
    /// entire network), while re-analyses of an unchanged circuit are pure
    /// cache hits and skip simulation entirely.
    ///
    /// Each cached artefact carries its supervisor classification, so the
    /// [`CampaignHealth`] report (see [`Engine::campaign_health`]) covers
    /// hits and misses alike, and the campaign circuit breaker is enforced
    /// on every run — a warm cache full of unsolvable rows still aborts.
    /// (Thin wrapper over [`crate::pass::InjectionFmeaPass`].)
    ///
    /// # Errors
    ///
    /// Same conditions as `injection::run_supervised` — including
    /// [`decisive_core::CoreError::CampaignAborted`] when the breaker
    /// trips — plus scheduler failures.
    pub fn analyze_injection(
        &mut self,
        diagram: &BlockDiagram,
        reliability: &ReliabilityDb,
        config: &InjectionConfig,
    ) -> Result<FmeaTable> {
        let input =
            PipelineInput::for_diagram(diagram, reliability).with_injection_config(config.clone());
        let run = self.run_pipeline(&Pipeline::new().with(InjectionFmeaPass), &input)?;
        run.fmea().cloned().ok_or_else(|| no_artifact("injection FMEA"))
    }

    /// Runs the Monte-Carlo campaign: `trials` seeded draws of the
    /// perturbed reliability model, aggregated into mean + 95 % CI on
    /// SPFM / LFM / PMHF. A two-pass pipeline (injection → Monte-Carlo):
    /// the supervised injection sweep runs once — warm rows are cache
    /// hits, and its campaign health is published as by
    /// [`Engine::analyze_injection`] — and each trial re-weights its
    /// verdict table with the drawn numbers. The report is bitwise
    /// identical for the same `(inputs, seed, trials)` across thread
    /// counts and warm/cold caches. (Thin wrapper over
    /// [`crate::pass::MonteCarloPass`].)
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::analyze_injection`], plus
    /// [`decisive_core::CoreError::InvalidParameter`] for zero trials.
    pub fn analyze_montecarlo(
        &mut self,
        diagram: &BlockDiagram,
        reliability: &ReliabilityDb,
        config: &InjectionConfig,
        trials: usize,
        seed: u64,
    ) -> Result<MonteCarloReport> {
        let input = PipelineInput::for_diagram(diagram, reliability)
            .with_injection_config(config.clone())
            .with_trials(trials)
            .with_seed(seed);
        let pipeline = Pipeline::new().with(InjectionFmeaPass).with(MonteCarloPass);
        let run = self.run_pipeline(&pipeline, &input)?;
        run.montecarlo().cloned().ok_or_else(|| no_artifact("montecarlo"))
    }

    /// Runs the safety-pattern recommendation step on the injection FMEA
    /// of `diagram`: a two-pass pipeline (injection → recommend) whose
    /// second stage matches the built-in pattern catalog against every
    /// uncovered failure mode and ranks Pareto-optimal deployments by
    /// projected SPFM. (Thin wrapper over [`crate::pass::RecommendPass`].)
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::analyze_injection`], plus pipeline
    /// failures.
    pub fn analyze_recommend(
        &mut self,
        diagram: &BlockDiagram,
        reliability: &ReliabilityDb,
        config: &InjectionConfig,
    ) -> Result<RecommendationReport> {
        let input =
            PipelineInput::for_diagram(diagram, reliability).with_injection_config(config.clone());
        let pipeline = Pipeline::new().with(InjectionFmeaPass).with(RecommendPass::default());
        let run = self.run_pipeline(&pipeline, &input)?;
        run.recommendation().cloned().ok_or_else(|| no_artifact("recommendation"))
    }

    // ------------------------------------------------------------------
    // FTA subtrees (S14) and monitor sets (S15)
    // ------------------------------------------------------------------

    /// Quantifies the fault subtree of every container. Each subtree's
    /// minimal cut sets are cached per container under what synthesis
    /// reads — wiring and failure-mode names, not FITs, mode shares or the
    /// mission time — and quantified with the current numbers on every
    /// run, so a FIT edit re-runs no MOCUS. Containers without
    /// input→output paths (or beyond the path cap) come back with
    /// `analysable: false`. (Thin wrapper over [`crate::pass::FtaPass`].)
    ///
    /// # Errors
    ///
    /// Propagates scheduler and cache failures.
    pub fn analyze_fta(
        &mut self,
        model: &SsamModel,
        top: Idx<Component>,
        mission_hours: f64,
    ) -> Result<Vec<FtaSubtreeSummary>> {
        let input = PipelineInput::for_model(model, top).with_mission_hours(mission_hours);
        let run = self.run_pipeline(&Pipeline::new().with(FtaPass), &input)?;
        run.fta().map(<[FtaSubtreeSummary]>::to_vec).ok_or_else(|| no_artifact("fta"))
    }

    /// Generates the runtime monitor of `model`, on every call: the limited
    /// IO nodes and their dynamic context. (Thin wrapper over
    /// [`crate::pass::MonitorPass`].)
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn monitors(&mut self, model: &SsamModel) -> Result<RuntimeMonitor> {
        let input = PipelineInput::new().with_model(model);
        let run = self.run_pipeline(&Pipeline::new().with(MonitorPass), &input)?;
        run.monitor().cloned().ok_or_else(|| no_artifact("monitor"))
    }
}

/// The error of a pipeline run that succeeded without the artefact its
/// `analyze_*` wrapper returns.
fn no_artifact(pass: &str) -> EngineError {
    EngineError::Pipeline(format!("{pass} pass produced no artefact"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decisive_core::case_study;
    use decisive_ssam::architecture::Fit;

    #[test]
    fn incremental_equals_full_on_the_case_study() {
        let (model, top) = case_study::ssam_model();
        let mut engine = Engine::new(EngineConfig::with_jobs(1));
        let table = engine.verify_against_full(&model, top).unwrap();
        assert!((table.spfm() - 0.0538).abs() < 5e-4);
    }

    /// A warm store's run executes no job of a store-backed phase and
    /// misses nothing; the phases that compute on every run execute all
    /// their units, with no hits and no misses.
    fn assert_warm(stats: &EngineStats) {
        assert_eq!(stats.cache_misses(), 0, "{stats:?}");
        for phase in stats.phases.iter().filter(|p| p.jobs_executed > 0) {
            assert_eq!((phase.cache_hits, phase.cache_misses), (0, 0), "{phase:?}");
        }
    }

    #[test]
    fn fit_edit_recomputes_rows_from_cached_facts() {
        let (old, old_top) = case_study::ssam_model();
        let (mut new, new_top) = case_study::ssam_model();
        let mut engine = Engine::new(EngineConfig::with_jobs(2));
        engine.analyze_graph(&old, old_top).unwrap();

        let d1 = new.component_by_name("D1").unwrap();
        new.components[d1].fit = Some(Fit::new(20.0));
        engine.reset_stats();
        let (table, report) = engine.rerun(&old, &new, new_top).unwrap();
        assert!(report.requires_reanalysis());
        let facts = engine.stats().phase("graph-facts").unwrap();
        assert_eq!(facts.jobs_executed, 0, "topology unchanged");
        assert_eq!(facts.cache_hits, facts.jobs_total);
        assert_eq!(table, graph::run(&new, new_top, &GraphConfig::default()).unwrap());
    }

    #[test]
    fn shared_store_serves_a_second_engine_without_recomputing() {
        let (model, top) = case_study::ssam_model();
        let shared = SharedStore::new();
        let mut first = Engine::builder().jobs(1).shared_store(shared.clone()).build().unwrap();
        let cold = first.analyze_graph(&model, top).unwrap();
        assert!(first.stats().jobs_executed() > 0, "first engine does the work");

        let mut second = Engine::builder().jobs(1).shared_store(shared.clone()).build().unwrap();
        let warm = second.analyze_graph(&model, top).unwrap();
        assert_eq!(cold, warm);
        assert_warm(second.stats());
        assert!(shared.shared_hits() > 0);
    }

    #[test]
    fn a_cache_dir_and_a_shared_store_do_not_combine() {
        let dir = std::env::temp_dir().join(format!("decisive_engine_both_{}", std::process::id()));
        let built = Engine::builder().cache_dir(&dir).shared_store(SharedStore::new()).build();
        assert!(matches!(built, Err(EngineError::ConflictingStores)), "{built:?}");
        assert!(!dir.exists(), "nothing is opened on the way to the error");
    }

    #[test]
    fn save_cache_commits_a_durable_store_and_refuses_without_one() {
        let dir = std::env::temp_dir().join(format!("decisive_engine_save_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let in_memory = Engine::new(EngineConfig::with_jobs(1));
        assert!(matches!(in_memory.save_cache(&dir), Err(EngineError::NotDurable)));
        assert!(!dir.exists(), "nothing is written");
        let durable = Engine::builder().jobs(1).cache_dir(&dir).build().unwrap();
        durable.save_cache(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_run_state_keeps_the_cache_warm() {
        let (model, top) = case_study::ssam_model();
        let mut engine = Engine::new(EngineConfig::with_jobs(1));
        engine.analyze_graph(&model, top).unwrap();
        engine.reset_run_state();
        assert!(engine.stats().phases.is_empty());
        assert!(engine.campaign_health().is_none());
        engine.analyze_graph(&model, top).unwrap();
        assert_warm(engine.stats());
        assert!(engine.stats().cache_hits() > 0, "cache survived the reset");
    }

    #[test]
    fn monitor_pass_equals_generate() {
        let (model, _) = case_study::ssam_model();
        let mut engine = Engine::new(EngineConfig::with_jobs(1));
        for _ in ["first", "second"] {
            let monitor = engine.monitors(&model).unwrap();
            assert!(!monitor.checks().is_empty());
            assert_eq!(monitor, RuntimeMonitor::generate(&model));
        }
        let phase = engine.stats().phase("monitor-set").unwrap();
        assert_eq!((phase.jobs_executed, phase.cache_hits, phase.cache_misses), (1, 0, 0));
    }

    /// A component whose parent link names a container that does not list
    /// it (a model the validator flags) still takes part in that
    /// container's fault tree, cold and warm.
    #[test]
    fn fta_reaches_a_member_its_container_does_not_list() {
        use decisive_ssam::architecture::{ComponentKind, FailureNature};
        let (mut model, top) = case_study::ssam_model();
        let mut x1 = Component::new("X1", ComponentKind::Hardware);
        x1.parent = Some(top);
        x1.fit = Some(Fit::new(5.0));
        let x1 = model.add_component(x1);
        model.add_failure_mode(x1, "Open", FailureNature::LossOfFunction, 1.0);
        // In parallel with D1: X1 and D1 form a cut set together.
        let dc1 = model.component_by_name("DC1").unwrap();
        let l1 = model.component_by_name("L1").unwrap();
        model.connect(dc1, x1);
        model.connect(x1, l1);

        let synthesised = decisive_fta::build_fault_tree(&model, top, 10_000).unwrap();
        let tree = &synthesised.tree;
        let cut_sets = tree.minimal_cut_sets();
        let names: Vec<Vec<String>> = cut_sets
            .iter()
            .map(|cs| cs.iter().map(|&e| tree.node(e).name().to_owned()).collect())
            .collect();
        assert!(names.contains(&vec!["D1:Open".to_owned(), "X1:Open".to_owned()]));
        let mut engine = Engine::new(EngineConfig::with_jobs(1));
        for _ in ["cold", "warm"] {
            let summaries = engine.analyze_fta(&model, top, 10_000.0).unwrap();
            assert_eq!(summaries[0].minimal_cut_sets, names);
            let expected = tree.top_probability(&cut_sets, 10_000.0).unwrap();
            assert_eq!(summaries[0].top_probability.to_bits(), expected.to_bits());
        }
        model.components[x1].fit = Some(Fit::new(50.0));
        let fresh = Engine::new(EngineConfig::with_jobs(1)).analyze_fta(&model, top, 10_000.0);
        assert_eq!(engine.analyze_fta(&model, top, 10_000.0).unwrap(), fresh.unwrap());
    }

    #[test]
    fn fta_subtrees_cache_by_content() {
        let (model, top) = case_study::ssam_model();
        let mut engine = Engine::new(EngineConfig::with_jobs(2));
        let cold = engine.analyze_fta(&model, top, 10_000.0).unwrap();
        assert!(cold.iter().any(|s| s.analysable));
        let warm = engine.analyze_fta(&model, top, 10_000.0).unwrap();
        assert_eq!(cold, warm);
        let phase = engine.stats().phase("fta-subtrees").unwrap();
        assert_eq!(phase.cache_misses, 0, "warm pass is pure hits");
        // The cut sets do not depend on the mission time: a new one is a
        // hit, quantified at that mission time.
        engine.reset_stats();
        let longer = engine.analyze_fta(&model, top, 20_000.0).unwrap();
        assert_eq!(engine.stats().phase("fta-subtrees").unwrap().cache_misses, 0);
        let fresh = Engine::new(EngineConfig::with_jobs(2)).analyze_fta(&model, top, 20_000.0);
        assert_eq!(longer, fresh.unwrap());
        let top_bits = |s: &[FtaSubtreeSummary]| -> Vec<u64> {
            s.iter().map(|s| s.top_probability.to_bits()).collect()
        };
        assert_ne!(top_bits(&longer), top_bits(&cold), "a longer mission is likelier to fail");
    }
}
