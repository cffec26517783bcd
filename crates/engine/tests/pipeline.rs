//! Pass-manager pipeline properties (ISSUE 4: pass-manager refactor).
//!
//! Two families of guarantees:
//!
//! - **Refactor equivalence** — the `analyze_*` wrappers, now thin
//!   one- and two-pass pipelines over [`decisive_engine::AnalysisPass`]
//!   implementations, still produce bitwise-identical artefacts to the
//!   from-scratch algorithms, cold and warm-after-edit alike.
//! - **DAG execution** — [`decisive_engine::Pipeline`] respects declared
//!   dependencies under every worker count, skips dependents of failed
//!   passes, and the whole-pipeline verifier catches nothing on a sound
//!   cache (warm == cold, artefact by artefact).

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use decisive_blocks::{gallery, BlockDiagram};
use decisive_core::campaign::CampaignHealth;
use decisive_core::case_study;
use decisive_core::fmea::graph::{self, GraphConfig};
use decisive_core::fmea::injection::{self, InjectionConfig};
use decisive_core::montecarlo::{self, MonteCarloReport, TrialMetrics};
use decisive_core::reliability::ReliabilityDb;
use decisive_core::request::RunSpec;
use decisive_engine::pass::ids;
use decisive_engine::{
    AnalysisPass, AssurancePass, Engine, EngineConfig, EngineError, FtaPass, GraphFmeaPass,
    HaraPass, InjectionFmeaPass, MonteCarloPass, PassArtifact, PassContext, Pipeline,
    PipelineInput, RecommendPass, SharedStore,
};
use decisive_federation::Value;
use decisive_obs::Telemetry;
use decisive_ssam::architecture::Fit;
use decisive_ssam::base::IntegrityLevel;
use decisive_workload::sets::chain_model;

// ----------------------------------------------------------------------
// Refactor equivalence (proptest)
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pass-based `analyze_graph` wrapper equals `graph::run` bit for
    /// bit on arbitrary chain models, both on the cold run and on the
    /// warm run after a random FIT edit — the refactor changed plumbing,
    /// not results.
    #[test]
    fn graph_wrapper_equals_direct_run_cold_and_warm(
        n in 2usize..8,
        edited in 0usize..8,
        fit in 1.0f64..500.0,
        jobs in 1usize..5,
    ) {
        let (model, top) = chain_model(n);
        let mut engine = Engine::new(EngineConfig::with_jobs(jobs));
        let cold = engine.analyze_graph(&model, top).expect("cold wrapper run");
        prop_assert_eq!(&cold, &graph::run(&model, top, &GraphConfig::default()).unwrap());

        let (mut new, new_top) = chain_model(n);
        let name = format!("c{}", edited % n);
        let idx = new.component_by_name(&name).expect("chain component");
        new.components[idx].fit = Some(Fit::new(fit));
        let warm = engine.analyze_graph(&new, new_top).expect("warm wrapper run");
        prop_assert_eq!(&warm, &graph::run(&new, new_top, &GraphConfig::default()).unwrap());
    }
}

// ----------------------------------------------------------------------
// DAG ordering under 1..=8 workers
// ----------------------------------------------------------------------

/// A pass that does no analysis: it records when it ran and returns an
/// opaque artefact, so dependency ordering is observable from outside.
#[derive(Debug)]
struct ProbePass {
    id: &'static str,
    deps: Vec<&'static str>,
    log: Arc<Mutex<Vec<&'static str>>>,
}

impl AnalysisPass for ProbePass {
    fn id(&self) -> &'static str {
        self.id
    }

    fn depends_on(&self) -> &[&'static str] {
        &self.deps
    }

    fn run(&self, _ctx: &mut PassContext<'_>) -> decisive_engine::Result<PassArtifact> {
        self.log.lock().unwrap().push(self.id);
        Ok(PassArtifact::Opaque(Value::Str(self.id.to_owned())))
    }
}

/// A diamond — `a` feeds `b` and `c`, which both feed `d` — executed at
/// every worker count from 1 to 8. Whatever the interleaving of `b` and
/// `c`, every declared edge must be respected and every pass must run
/// exactly once.
#[test]
fn diamond_dag_respects_dependencies_under_any_worker_count() {
    for jobs in 1..=8usize {
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let probe = |id: &'static str, deps: Vec<&'static str>| ProbePass {
            id,
            deps,
            log: Arc::clone(&log),
        };
        let pipeline = Pipeline::new()
            .with(probe("d", vec!["b", "c"]))
            .with(probe("b", vec!["a"]))
            .with(probe("a", vec![]))
            .with(probe("c", vec!["a"]));
        let mut engine = Engine::new(EngineConfig::with_jobs(jobs));
        let run = engine.run_pipeline(&pipeline, &PipelineInput::new()).expect("diamond runs");

        let order = log.lock().unwrap().clone();
        assert_eq!(order.len(), 4, "every pass ran exactly once with {jobs} worker(s)");
        let pos = |id| order.iter().position(|&p| p == id).unwrap();
        assert!(pos("a") < pos("b"), "a before b with {jobs} worker(s)");
        assert!(pos("a") < pos("c"), "a before c with {jobs} worker(s)");
        assert!(pos("b") < pos("d"), "b before d with {jobs} worker(s)");
        assert!(pos("c") < pos("d"), "c before d with {jobs} worker(s)");
        assert_eq!(
            run.artifact("d"),
            Some(&PassArtifact::Opaque(Value::Str("d".to_owned()))),
            "the sink's artefact is retrievable"
        );
    }
}

/// A pass whose declared dependency is missing from the pipeline is
/// rejected at validation, before anything executes.
#[test]
fn unknown_dependency_is_rejected_before_execution() {
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let pipeline = Pipeline::new().with(ProbePass {
        id: "lonely",
        deps: vec!["ghost"],
        log: Arc::clone(&log),
    });
    let mut engine = Engine::new(EngineConfig::with_jobs(1));
    let err = engine.run_pipeline(&pipeline, &PipelineInput::new()).unwrap_err();
    assert!(err.to_string().contains("ghost"), "error names the missing dependency: {err}");
    assert!(
        matches!(&err, EngineError::UnknownDependency { pass, dependency }
            if pass == "lonely" && dependency == "ghost"),
        "typed error: {err:?}"
    );
    assert!(log.lock().unwrap().is_empty(), "nothing ran");
}

/// A pass handed an upstream artefact of the wrong type fails with a
/// typed error naming the pass, what it expected, the upstream pass and
/// what that pass produced.
#[test]
fn a_wrongly_typed_upstream_artefact_is_a_typed_error() {
    let (model, top) = case_study::ssam_model();
    let input = PipelineInput::for_model(&model, top);
    let mut engine = Engine::new(EngineConfig::with_jobs(1));
    let hara_over_fta = Pipeline::new().with(FtaPass).with(HaraPass::new(ids::FTA));
    let err = engine.run_pipeline(&hara_over_fta, &input).unwrap_err();
    assert_eq!(
        err.to_string(),
        "pipeline: pass `hara` expects an FMEA table from `fta`, got fta-summaries"
    );

    let log = Arc::new(Mutex::new(Vec::new()));
    let opaque_fta = ProbePass { id: ids::FTA, deps: vec![], log };
    let assurance_over_probe = Pipeline::new()
        .with(GraphFmeaPass)
        .with(opaque_fta)
        .with(HaraPass::new(ids::GRAPH))
        .with(AssurancePass::new(ids::GRAPH));
    let err = engine.run_pipeline(&assurance_over_probe, &input).unwrap_err();
    assert_eq!(
        err.to_string(),
        "pipeline: pass `assurance` expects FTA summaries from `fta`, got opaque"
    );
}

/// A pass that panics in its own body, outside any scheduled job.
#[derive(Debug)]
struct PanicPass;

impl AnalysisPass for PanicPass {
    fn id(&self) -> &'static str {
        "panics"
    }

    fn run(&self, _ctx: &mut PassContext<'_>) -> decisive_engine::Result<PassArtifact> {
        panic!("the pass fails outside its jobs")
    }
}

/// A pass that panics fails the run with a typed error and leaves the
/// engine its store: the next analysis is served from the shared store
/// the engine was built over, without executing a job.
#[test]
fn a_panicking_pass_leaves_the_engine_its_store() {
    let (model, top) = case_study::ssam_model();
    let shared = SharedStore::new();
    let mut engine = Engine::builder().jobs(2).shared_store(shared).build().unwrap();
    engine.analyze_graph(&model, top).expect("priming run");
    let panicking = Pipeline::new().with(PanicPass);
    let err = engine.run_pipeline(&panicking, &PipelineInput::new()).unwrap_err();
    assert!(matches!(err, EngineError::Pipeline(_)), "{err:?}");
    engine.reset_run_state();
    engine.analyze_graph(&model, top).expect("analysis after the panic");
    assert_eq!(engine.stats().jobs_executed(), 0, "the engine lost its store to the panic");
}

/// A pass that panics beside an independent pass fails the run with a
/// typed error naming it; the independent pass still runs and the
/// dependent is skipped with a note. Two passes with no dependency get
/// two DAG workers, and a worker that died in the panicking pass used to
/// leave the other waiting for it forever, so the run goes on a helper
/// thread and the wait for it is bounded.
#[test]
fn a_panicking_pass_beside_a_running_one_fails_the_run_instead_of_hanging() {
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::default();
    let probe = |id, deps| ProbePass { id, deps, log: Arc::clone(&log) };
    let pipeline = Pipeline::new()
        .with(PanicPass)
        .with(probe("independent", vec![]))
        .with(probe("dependent", vec!["panics"]));
    let (done, outcome) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let mut engine = Engine::new(EngineConfig::with_jobs(2));
        let result = engine.run_pipeline(&pipeline, &PipelineInput::new());
        let _ = done.send((result.map(|_| ()), engine.degraded_report().notes.clone()));
    });
    let received = outcome.recv_timeout(Duration::from_secs(30));
    assert!(!matches!(received, Err(RecvTimeoutError::Timeout)), "run_pipeline hung");
    runner.join().expect("the run's thread does not panic");
    let (result, notes) = received.expect("the run sends its outcome");
    let err = result.unwrap_err();
    assert!(matches!(&err, EngineError::Pipeline(m) if m == "pass `panics` panicked"), "{err:?}");
    assert_eq!(
        *log.lock().unwrap(),
        ["independent"],
        "the independent pass ran, the dependent did not"
    );
    let skipped = "pass `dependent` skipped: upstream pass `panics` failed";
    assert!(notes.iter().any(|note| note == skipped), "{notes:?}");
}

// ----------------------------------------------------------------------
// End-to-end on the case study
// ----------------------------------------------------------------------

/// The standard model-side pipeline on the S32K/SSAM case study produces
/// every artefact — FMEA, FTA, monitors, risk log, assurance case — and
/// the risk log reaches the case study's documented ASIL-B target.
#[test]
fn standard_pipeline_covers_the_case_study() {
    let (model, top) = case_study::ssam_model();
    let hazards = case_study::hazard_log();
    let mut engine = Engine::new(EngineConfig::with_jobs(2));
    let input = PipelineInput::for_model(&model, top).with_hazards(&hazards);
    let run = engine.run_pipeline(&Pipeline::standard(false), &input).expect("pipeline");

    let table = run.fmea().expect("fmea artefact");
    assert!((table.spfm() - 0.0538).abs() < 5e-4, "same verdict as the pre-refactor engine");
    assert!(run.fta().is_some(), "fta artefact present");
    assert!(run.monitor().is_some(), "monitor artefact present");
    let risk = run.risk_log().expect("risk log artefact");
    assert_eq!(risk.highest_asil(), Some(IntegrityLevel::AsilB), "case-study ASIL target");
    let assurance = run.assurance().expect("assurance artefact");
    assert_eq!(assurance.total, assurance.satisfied + assurance.open.len());
}

/// Whole-pipeline verification after an edit: the warm artefacts (served
/// partly from cache) are equivalent to a cold engine's from-scratch run,
/// artefact by artefact — and the warm run really did hit the cache.
#[test]
fn warm_pipeline_after_edit_verifies_against_cold() {
    let (model, top) = case_study::ssam_model();
    let mut engine = Engine::new(EngineConfig::with_jobs(2));
    let pipeline = Pipeline::standard(false);
    engine.run_pipeline(&pipeline, &PipelineInput::for_model(&model, top)).expect("priming run");

    let (mut edited, edited_top) = case_study::ssam_model();
    let d1 = edited.component_by_name("D1").expect("case-study diode");
    edited.components[d1].fit = Some(Fit::new(20.0));
    engine.reset_stats();
    engine
        .verify_pipeline_against_full(&pipeline, &PipelineInput::for_model(&edited, edited_top))
        .expect("warm-after-edit run equals the cold recomputation");
    let rows = engine.stats().phase("graph-rows").expect("graph-rows phase ran");
    assert!(rows.cache_hits > 0, "the edit invalidated some rows, not all of them");
    assert_eq!(rows.jobs_executed, 1, "only the edited component's row recomputes");
}

// ----------------------------------------------------------------------
// Stochastic campaigns and recommendations (ISSUE 10)
// ----------------------------------------------------------------------

/// The reliability annex shipped with the brownout gallery model: both the
/// series resistor and the microcontroller carry stochastic FIT budgets, so
/// Monte-Carlo metrics genuinely vary from trial to trial.
const BROWNOUT_RELIABILITY: &str =
    "Component,FIT,Failure_Mode,Distribution\nResistor,5,Drift,1\nMC,300,RAM Failure,1\n";

fn brownout_db() -> ReliabilityDb {
    ReliabilityDb::from_csv_str(BROWNOUT_RELIABILITY).expect("brownout reliability annex")
}

/// The simulating route, kept only as a test oracle: every trial runs the
/// full supervised injection sweep on its own perturbed database.
fn simulated_montecarlo(
    diagram: &BlockDiagram,
    db: &ReliabilityDb,
    config: &InjectionConfig,
    trials: usize,
    seed: u64,
) -> MonteCarloReport {
    let samples: Vec<TrialMetrics> = (0..trials)
        .map(|trial| {
            let drawn = montecarlo::perturb(db, &mut montecarlo::trial_rng(seed, trial));
            let (table, _) =
                injection::run_supervised(diagram, &drawn, config).expect("trial sweep");
            TrialMetrics::of(&table)
        })
        .collect();
    MonteCarloReport::from_trials(seed, &samples)
}

/// A file under the repository's `data/` directory.
fn data(name: &str) -> String {
    let path = format!("{}/../../data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A seeded Monte-Carlo campaign is bitwise identical across scheduler
    /// thread counts and across warm/cold caches — and to the simulating
    /// route that re-runs the injection sweep on every perturbed database.
    /// The trial RNG is keyed by `(seed, trial index)` alone, the report
    /// folds samples in trial order, and a re-weighted verdict table is
    /// the table a fresh sweep would produce, so neither the worker
    /// count, cache hits nor re-weighting can move a single bit.
    #[test]
    fn seeded_montecarlo_is_bitwise_identical_across_threads_and_caches(
        jobs in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let (diagram, _) = gallery::brownout_threshold_supply();
        let db = brownout_db();
        let config = InjectionConfig::default();
        let trials = 8;

        let baseline = simulated_montecarlo(&diagram, &db, &config, trials, seed);

        let mut engine = Engine::new(EngineConfig::with_jobs(jobs));
        let cold = engine
            .analyze_montecarlo(&diagram, &db, &config, trials, seed)
            .expect("cold run");
        prop_assert_eq!(&cold, &baseline);

        let warm = engine
            .analyze_montecarlo(&diagram, &db, &config, trials, seed)
            .expect("warm run");
        prop_assert_eq!(&warm, &baseline);
    }
}

/// Confidence intervals tighten as the campaign grows: on the brownout
/// gallery model the PMHF half-width shrinks strictly from N=64 to N=256 to
/// N=1024 trials, and no metric's half-width ever widens. The three runs
/// share one engine, so the larger campaigns re-serve the verdict rows
/// from cache — exactly how an interactive refinement session would run.
#[test]
fn montecarlo_ci_half_widths_shrink_with_trial_count() {
    let (diagram, _) = gallery::brownout_threshold_supply();
    let db = brownout_db();
    let config = InjectionConfig::default();
    let mut engine = Engine::new(EngineConfig::with_jobs(4));

    let reports: Vec<_> = [64usize, 256, 1024]
        .iter()
        .map(|&trials| {
            engine
                .analyze_montecarlo(&diagram, &db, &config, trials, 7)
                .unwrap_or_else(|e| panic!("{trials}-trial campaign: {e}"))
        })
        .collect();

    for pair in reports.windows(2) {
        let (small, large) = (&pair[0], &pair[1]);
        assert!(
            large.pmhf.half_width < small.pmhf.half_width,
            "PMHF CI tightens: {} trials gave ±{}, {} trials gave ±{}",
            small.trials,
            small.pmhf.half_width,
            large.trials,
            large.pmhf.half_width
        );
        assert!(large.spfm.half_width <= small.spfm.half_width, "SPFM CI never widens");
        assert!(large.lfm.half_width <= small.lfm.half_width, "LFM CI never widens");
        assert!(large.pmhf.mean > 0.0, "the PMHF estimate is a real failure rate");
    }
}

/// The recommendation pass, run as a pipeline stage downstream of the
/// injection FMEA, proposes at least one deployment whose projected SPFM
/// meets ASIL B on a gallery model — the paper's iterate-until-compliant
/// loop closed mechanically.
#[test]
fn recommend_pass_reaches_asil_b_on_the_gallery_model() {
    let (diagram, _) = gallery::sensor_power_supply();
    let db = ReliabilityDb::paper_table_ii();
    let mut engine = Engine::new(EngineConfig::with_jobs(2));
    let input =
        PipelineInput::for_diagram(&diagram, &db).with_injection_config(InjectionConfig::default());
    let pipeline = Pipeline::new().with(InjectionFmeaPass).with(RecommendPass::default());
    let run = engine.run_pipeline(&pipeline, &input).expect("injection + recommend pipeline");

    let report = run.recommendation().expect("recommendation artefact");
    assert!(!report.uncovered.is_empty(), "the bare supply has uncovered failure modes");
    let compliant: Vec<_> = report.meeting(IntegrityLevel::AsilB).collect();
    assert!(
        !compliant.is_empty(),
        "at least one recommended deployment projects to ASIL B (baseline SPFM {})",
        report.baseline.spfm
    );
    for rec in &report.recommendations {
        assert!(
            rec.projected_spfm >= report.baseline.spfm - 1e-12,
            "a recommendation never degrades SPFM"
        );
    }
}

/// `MonteCarloPass` participates in a pipeline downstream of the injection
/// pass, and the engine wrapper equals the pipeline route bit for bit.
/// Without the injection pass the pipeline is rejected before anything
/// runs, with the typed unknown-dependency error.
#[test]
fn montecarlo_pass_runs_inside_a_pipeline() {
    let (diagram, _) = gallery::brownout_threshold_supply();
    let db = brownout_db();
    let input = PipelineInput::for_diagram(&diagram, &db)
        .with_injection_config(InjectionConfig::default())
        .with_trials(16)
        .with_seed(42);
    let mut engine = Engine::new(EngineConfig::with_jobs(2));
    let run = engine
        .run_pipeline(&Pipeline::new().with(InjectionFmeaPass).with(MonteCarloPass), &input)
        .expect("montecarlo pipeline");
    let via_pipeline = run.montecarlo().expect("montecarlo artefact").clone();

    let mut direct = Engine::new(EngineConfig::with_jobs(2));
    let via_wrapper = direct
        .analyze_montecarlo(&diagram, &db, &InjectionConfig::default(), 16, 42)
        .expect("wrapper run");
    assert_eq!(via_pipeline, via_wrapper, "pipeline and wrapper routes agree");
    assert_eq!(via_pipeline.trials, 16);
    assert_eq!(via_pipeline.seed, 42);

    let mut bare = Engine::new(EngineConfig::with_jobs(2));
    let err = bare.run_pipeline(&Pipeline::new().with(MonteCarloPass), &input).unwrap_err();
    assert!(
        matches!(&err, EngineError::UnknownDependency { pass, dependency }
            if pass == "montecarlo" && dependency == "injection-fmea"),
        "a lone Monte-Carlo pass is rejected: {err:?}"
    );
    assert!(bare.stats().phases.is_empty(), "nothing ran");
}

/// Goldens recorded from the simulating implementation (one injection
/// sweep per trial), compared bit for bit: `decisive montecarlo
/// data/power_supply.bd --trials 32 --seed 7`, and the same design with
/// `--reliability data/reliability.csv --trials 64 --seed 42`.
#[test]
fn montecarlo_reports_match_the_simulating_goldens() {
    let diagram = decisive_blocks::text::from_text(&data("power_supply.bd")).expect("design");
    let config = RunSpec::default().injection_config();
    let mut engine = Engine::new(EngineConfig::with_jobs(2));

    let table_ii = engine
        .analyze_montecarlo(&diagram, &ReliabilityDb::paper_table_ii(), &config, 32, 7)
        .expect("Table II campaign");
    let expected = |mean: f64, half_width: f64| montecarlo::CiEstimate { mean, half_width };
    assert_eq!(table_ii.trials, 32);
    assert_eq!(table_ii.seed, 7);
    assert_eq!(table_ii.spfm, expected(0.051362508322025074, 0.00533523920805851));
    assert_eq!(table_ii.lfm, expected(1.0, 0.0));
    assert_eq!(table_ii.pmhf, expected(3.191789648972507e-07, 2.4665066036432757e-08));

    let db = ReliabilityDb::from_csv_str(&data("reliability.csv")).expect("reliability annex");
    let annex = engine.analyze_montecarlo(&diagram, &db, &config, 64, 42).expect("annex campaign");
    assert_eq!(annex.spfm, expected(0.05817858775149025, 0.0038609766026214106));
    assert_eq!(annex.lfm, expected(1.0, 0.0));
    assert_eq!(annex.pmhf, expected(3.125960332503115e-07, 1.9146331721177948e-08));
}

/// A campaign simulates once, however many trials it draws: the solver
/// runs exactly as often for 64 trials as for one.
#[test]
fn montecarlo_solve_count_is_independent_of_the_trial_count() {
    let (diagram, _) = gallery::brownout_threshold_supply();
    let db = brownout_db();
    let solves = |trials: usize| {
        let (telemetry, sink) = Telemetry::recording();
        let mut engine = Engine::builder().jobs(2).telemetry(telemetry).build().expect("engine");
        engine
            .analyze_montecarlo(&diagram, &db, &InjectionConfig::default(), trials, 5)
            .expect("campaign");
        let trial_phase = engine.stats().phase("mc-trials").expect("trial phase recorded").clone();
        assert_eq!((trial_phase.jobs_total, trial_phase.jobs_executed), (trials, trials));
        sink.drain().counters.get("solver.solves").copied().unwrap_or(0)
    };
    let one = solves(1);
    assert!(one > 0, "the verdict sweep solves the circuit");
    assert_eq!(solves(64), one, "trials are arithmetic, not simulation");
}

/// The Monte-Carlo route publishes the campaign health of its verdict
/// sweep, exactly as the injection route does, so `--strict` sees failed
/// cases on `montecarlo` too.
#[test]
fn montecarlo_publishes_the_injection_campaign_health() {
    let (diagram, _) = gallery::brownout_threshold_supply();
    let db = brownout_db();
    let config = InjectionConfig::default();
    // Per-case wall clocks differ between runs; everything else must not.
    let semantic =
        |health: &CampaignHealth| CampaignHealth { slowest: Vec::new(), ..health.clone() };

    let mut injection_engine = Engine::new(EngineConfig::with_jobs(2));
    injection_engine.analyze_injection(&diagram, &db, &config).expect("injection");
    let expected = semantic(injection_engine.campaign_health().expect("injection health"));

    let mut mc_engine = Engine::new(EngineConfig::with_jobs(2));
    mc_engine.analyze_montecarlo(&diagram, &db, &config, 8, 1).expect("campaign");
    let health = mc_engine.campaign_health().expect("montecarlo publishes campaign health");
    assert_eq!(semantic(health), expected);
    assert!(health.total > 0);
}

/// Injection row keys ignore FIT and mode share: after a FIT-only edit the
/// standard `.bd` pipeline re-solves no injection case, and every
/// artefact still equals a cold run's on the edited inputs.
#[test]
fn fit_only_edit_re_solves_no_injection_row() {
    let (diagram, _) = gallery::sensor_power_supply();
    let pipeline = Pipeline::standard(true);
    let run = |engine: &mut Engine, db: &ReliabilityDb, verify: bool| {
        let mut model = decisive_blocks::to_ssam(&diagram);
        db.aggregate_into(&mut model);
        let top = model
            .components
            .iter()
            .find(|(_, c)| c.parent.is_none())
            .map(|(i, _)| i)
            .expect("top component");
        let input = PipelineInput::for_model(&model, top).with_diagram(&diagram, db);
        let run = if verify {
            engine.verify_pipeline_against_full(&pipeline, &input)
        } else {
            engine.run_pipeline(&pipeline, &input)
        };
        run.expect("pipeline").fmea().expect("injection table").clone()
    };

    let db = ReliabilityDb::paper_table_ii();
    let mut engine = Engine::new(EngineConfig::with_jobs(2));
    run(&mut engine, &db, false);

    let mut edited = db.clone();
    let mut diode = edited.get("Diode").expect("Table II diode").clone();
    diode.fit = decisive_ssam::architecture::Fit::new(diode.fit.value() * 4.0);
    edited.insert(diode);
    engine.reset_stats();
    let table = run(&mut engine, &edited, true);
    let rows = engine.stats().phase("injection-rows").expect("injection phase ran");
    assert_eq!(rows.jobs_executed, 0, "a FIT-only edit re-solves nothing");
    assert_eq!(rows.cache_hits, rows.jobs_total);
    let d1 = table.rows.iter().find(|r| r.component == "D1").expect("D1 row");
    assert_eq!(d1.fit, edited.get("Diode").unwrap().fit, "served rows carry the edited FIT");
}
