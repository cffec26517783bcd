//! End-to-end tests of the incremental analysis engine (`decisive-engine`):
//! cache persistence across engine instances, the incremental ≡ full
//! guarantee, the <10 % re-run bound on single-component edits at Set3
//! scale, and parallel/sequential result identity.

use decisive::blocks::gallery;
use decisive::core::campaign::CampaignHealth;
use decisive::core::fmea::graph::{self, GraphConfig};
use decisive::core::fmea::injection::{self, InjectionConfig};
use decisive::core::reliability::ReliabilityDb;
use decisive::core::request::{AnalysisOp, AnalysisRequest, RunSpec};
use decisive::core::{case_study, metrics};
use decisive::engine::fingerprint::Hasher;
use decisive::engine::obs::Telemetry;
use decisive::engine::{
    ArtifactKind, Engine, EngineConfig, EngineError, Pipeline, PipelineInput, SegmentStore,
    StoreOptions, STORE_DIR,
};
use decisive::federation::serde_bridge::{to_json_string, to_value};
use decisive::federation::Value;
use decisive::ssam::architecture::Fit;
use decisive::ssam::id::Arena;
use decisive::ssam::model::SsamModel;
use decisive::workload::sets::{chain_model, instance_model, ladder_model, set_by_name};

/// A scratch cache directory, unique per test, removed on drop.
struct TempCacheDir(std::path::PathBuf);

impl TempCacheDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("decisive_engine_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempCacheDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempCacheDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// An engine over `dir`'s durable store.
fn durable(dir: &TempCacheDir) -> Engine {
    Engine::builder().jobs(2).cache_dir(dir.path()).build().expect("store opens")
}

/// A persisted cache warms a brand-new engine instance, and the warmed
/// result passes `verify_against_full` — the cache survives "CLI
/// invocations" (here: engine lifetimes) without going stale or wrong.
#[test]
fn cache_persists_across_engine_instances() {
    let dir = TempCacheDir::new("persist");
    let (model, top) = case_study::ssam_model();

    let mut first = durable(&dir);
    let cold = first.analyze_graph(&model, top).expect("cold analysis");
    assert!(first.stats().cache_hits() == 0, "first run starts cold");
    first.save_cache(dir.path()).expect("save");
    drop(first);

    let mut second = durable(&dir);
    let warm = second.verify_against_full(&model, top).expect("verified warm analysis");
    assert_eq!(warm, cold);
    let rows = second.stats().phase("graph-rows").expect("rows phase");
    assert_eq!(rows.cache_misses, 0, "fully served from the persisted cache");
    assert_eq!(rows.jobs_executed, 0);
}

/// The headline incremental bound: a single-component FIT edit on the
/// Set3-scale chain (5689 model elements) re-runs fewer than 10 % of the
/// per-component jobs, and still produces exactly the full result.
#[test]
fn set3_single_edit_reruns_under_ten_percent_of_jobs() {
    let (old_model, old_top) = chain_model(1896);
    let (mut new_model, new_top) = chain_model(1896);
    let edited = new_model.component_by_name("c948").expect("mid-chain component");
    new_model.components[edited].fit = Some(Fit::new(99.0));

    let mut engine = Engine::new(EngineConfig::default());
    engine.analyze_graph(&old_model, old_top).expect("baseline analysis");
    engine.reset_stats();

    let (table, report) = engine.rerun(&old_model, &new_model, new_top).expect("rerun");
    assert!(report.requires_reanalysis());
    let rows = engine.stats().phase("graph-rows").expect("rows phase");
    assert!(
        rows.jobs_executed * 10 < rows.jobs_total,
        "{} of {} row jobs re-ran — not incremental",
        rows.jobs_executed,
        rows.jobs_total
    );
    assert_eq!(table, graph::run(&new_model, new_top, &GraphConfig::default()).expect("full run"),);
}

/// The parallel scheduler must not change results: 1-worker and 4-worker
/// engines and the plain sequential `graph::run` agree row-for-row (order
/// included) on a branchy redundancy ladder.
#[test]
fn parallel_and_sequential_schedules_agree() {
    let (model, top) = ladder_model(3, 4);
    let reference = graph::run(&model, top, &GraphConfig::default()).expect("reference");
    for jobs in [1, 4] {
        let mut engine = Engine::new(EngineConfig::with_jobs(jobs));
        let table = engine.analyze_graph(&model, top).expect("engine analysis");
        assert_eq!(table, reference, "{jobs}-worker schedule diverged");
    }
}

/// The injection path: the engine's cached fault-injection FMEA equals
/// `injection::run`, and a warm re-analysis of the unchanged circuit skips
/// every simulation.
#[test]
fn injection_rows_cache_and_match_direct_run() {
    let (diagram, _) = decisive::blocks::gallery::sensor_power_supply();
    let db = ReliabilityDb::paper_table_ii();
    let config = InjectionConfig::default();
    let direct = injection::run(&diagram, &db, &config).expect("direct run");

    let mut engine = Engine::new(EngineConfig::with_jobs(2));
    let cold = engine.analyze_injection(&diagram, &db, &config).expect("cold");
    assert_eq!(cold, direct);
    let warm = engine.analyze_injection(&diagram, &db, &config).expect("warm");
    assert_eq!(warm, direct);
    let phase = engine.stats().phase("injection-rows").expect("phase");
    assert_eq!(phase.cache_misses, 0, "warm pass simulates nothing");
    assert_eq!(phase.jobs_executed, 0);

    // Metrics ride along unchanged.
    let (md, mw) = (metrics::compute(&direct), metrics::compute(&warm));
    assert_eq!(md.achieved_asil, mw.achieved_asil);
    assert!((md.spfm - mw.spfm).abs() < 1e-12);
}

/// Campaign health covers cache hits and misses alike: a warm engine that
/// simulates nothing still reports the full outcome classification,
/// rebuilt from the outcomes cached with the injection rows.
#[test]
fn campaign_health_survives_cache_round_trips() {
    let dir = TempCacheDir::new("campaign");
    let (diagram, _) = decisive::blocks::gallery::sensor_power_supply();
    let db = ReliabilityDb::paper_table_ii();
    let config = InjectionConfig::default();

    let mut engine = durable(&dir);
    engine.analyze_injection(&diagram, &db, &config).expect("cold");
    let cold_health = engine.campaign_health().expect("cold health").clone();
    assert_eq!(cold_health.total, 9);
    assert_eq!(cold_health.unsolvable + cold_health.panicked, 0, "healthy design");
    engine.save_cache(dir.path()).expect("save");
    drop(engine);

    let mut warm = durable(&dir);
    warm.analyze_injection(&diagram, &db, &config).expect("warm");
    let phase = warm.stats().phase("injection-rows").expect("phase");
    assert_eq!(phase.cache_misses, 0, "warm pass simulates nothing");
    let warm_health = warm.campaign_health().expect("warm health");
    assert_eq!(warm_health.total, cold_health.total);
    assert_eq!(warm_health.converged, cold_health.converged);
    assert_eq!(warm_health.strategy_histogram, cold_health.strategy_histogram);
}

/// A subtree whose MOCUS outgrows the budget leaves the same degraded-mode
/// note on a warm run as on the cold one, because the note is cached with
/// the subtree's structure; and a frame holding a quantified
/// `{summary, note}`, the shape stores kept before subtrees were cached
/// by structure alone, is recomputed once rather than quarantined.
#[test]
fn fta_degradation_survives_cache_round_trips() {
    let dir = TempCacheDir::new("fta_note");
    let (model, top) = ladder_model(2, 8);
    let mut cold = durable(&dir);
    let summaries = cold.analyze_fta(&model, top, 10_000.0).expect("cold");
    let notes = cold.degraded_report().notes.clone();
    assert_eq!(
        notes,
        vec!["fta subtree `top` could not be quantified: cut-set expansion exceeded 50000 working sets"]
    );
    drop(cold);

    let mut warm = durable(&dir);
    assert_eq!(warm.analyze_fta(&model, top, 10_000.0).expect("warm"), summaries);
    assert_eq!(warm.stats().phase("fta-subtrees").expect("phase").cache_misses, 0);
    assert_eq!(warm.degraded_report().notes, notes, "a warm run reports the same degradation");
    drop(warm);

    let (store, _) =
        SegmentStore::open(dir.path().join(STORE_DIR), StoreOptions::default(), Telemetry::noop())
            .expect("store opens");
    let keys = store.keys_of_kind(ArtifactKind::FtaSubtree);
    assert!(!keys.is_empty());
    for &key in &keys {
        let (owner, _) = store.get(ArtifactKind::FtaSubtree, key).expect("frame");
        let summary = summaries.iter().find(|s| s.container == owner).expect("owner's summary");
        let note = notes.iter().find(|n| n.contains(&format!("`{owner}`")));
        let older = Value::record([
            ("summary", to_value(summary).expect("summary serialises")),
            ("note", note.map_or(Value::Null, |n| Value::from(n.as_str()))),
        ]);
        store.append(ArtifactKind::FtaSubtree, key, &owner, &older).expect("append");
    }
    store.sync().expect("sync");
    drop(store);

    let mut upgraded = durable(&dir);
    assert_eq!(upgraded.analyze_fta(&model, top, 10_000.0).expect("upgrade"), summaries);
    let phase = upgraded.stats().phase("fta-subtrees").expect("phase");
    assert_eq!(phase.cache_misses, keys.len(), "quantified summaries are recomputed");
    assert_eq!(upgraded.degraded_report().notes, notes);
    assert_eq!(upgraded.degraded_report().quarantined_cache_entries, 0);
}

/// The case study and four instances of each of Set1–Set4.
fn reorder_models() -> Vec<(String, SsamModel)> {
    let mut models = vec![("case-study".to_owned(), case_study::ssam_model().0)];
    for set in ["Set1", "Set2", "Set3", "Set4"] {
        let set = set_by_name(set).expect("a Table VI set");
        for instance in 0..4 {
            models.push((format!("{} {instance}", set.name), instance_model(&set, instance, 1).0));
        }
    }
    models
}

/// Path order numbers a fault tree's basic events and orders each cut
/// set, and paths follow the relationships in declaration order: with
/// every model's relationships reversed, a warm engine that analysed the
/// original serves what a fresh engine computes, not the original order.
#[test]
fn relationship_reorder_reaches_the_fta_of_a_warm_engine() {
    let mut changed = 0;
    for (name, model) in reorder_models() {
        let top = decisive::engine::execute::top_of(&model).expect("top component");
        let mut reversed = model.clone();
        let relationships: Vec<_> = model.relationships.iter().map(|(_, r)| r.clone()).collect();
        reversed.relationships = Arena::new();
        for relationship in relationships.into_iter().rev() {
            reversed.relationships.alloc(relationship);
        }
        let mut warm = Engine::builder().jobs(2).build().expect("in-memory engine");
        let original = warm.analyze_fta(&model, top, 10_000.0).expect("original");
        let served = warm.analyze_fta(&reversed, top, 10_000.0).expect("warm reversed");
        let mut fresh = Engine::builder().jobs(2).build().expect("in-memory engine");
        let cold = fresh.analyze_fta(&reversed, top, 10_000.0).expect("cold reversed");
        assert_eq!(served, cold, "{name}: a warm engine serves the original order");
        changed += usize::from(cold != original);
    }
    assert!(changed > 0, "reversing relationships reorders some cut sets");
}

/// Graph FMEA rows follow each component's failure modes in declaration
/// order: with one component's modes reversed, a warm engine that
/// analysed the original serves a fresh engine's table and subtrees.
#[test]
fn failure_mode_reorder_reaches_the_rows_of_a_warm_engine() {
    let mut changed = 0;
    for (name, model) in reorder_models() {
        let top = decisive::engine::execute::top_of(&model).expect("top component");
        let multi_mode = model.components.iter().filter(|(_, c)| c.failure_modes.len() > 1);
        for (component, _) in multi_mode {
            let mut reordered = model.clone();
            reordered.components[component].failure_modes.reverse();
            let mut warm = Engine::builder().jobs(2).build().expect("in-memory engine");
            let original = warm.analyze_graph(&model, top).expect("original");
            warm.analyze_fta(&model, top, 10_000.0).expect("original subtrees");
            let served = warm.analyze_graph(&reordered, top).expect("warm reordered");
            let cold = graph::run(&reordered, top, &GraphConfig::default()).expect("cold");
            let label = format!("{name} {}", model.components[component].core.name);
            assert_eq!(served, cold, "{label}: a warm engine serves the original row order");
            let subtrees = warm.analyze_fta(&reordered, top, 10_000.0).expect("warm subtrees");
            let mut fresh = Engine::builder().jobs(2).build().expect("in-memory engine");
            assert_eq!(subtrees, fresh.analyze_fta(&reordered, top, 10_000.0).expect("cold"));
            changed += usize::from(cold != original);
        }
    }
    assert!(changed > 0, "reversing a component's modes reorders its rows");
}

/// A cache directory carries no campaign report from one run into the
/// next: a graph-only pipeline in a directory where an injection campaign
/// ran reports no campaign health, as it does in a fresh directory.
#[test]
fn graph_pipeline_reports_no_campaign_left_by_an_earlier_run() {
    let dir = TempCacheDir::new("stale_campaign");
    let (diagram, _) = decisive::blocks::gallery::sensor_power_supply();
    let mut injection = Engine::builder().jobs(2).cache_dir(dir.path()).build().expect("open");
    injection
        .analyze_injection(&diagram, &ReliabilityDb::paper_table_ii(), &InjectionConfig::default())
        .expect("campaign");
    assert!(injection.campaign_health().is_some());
    injection.save_cache(dir.path()).expect("save");
    drop(injection);

    let (model, top) = case_study::ssam_model();
    let mut graph = Engine::builder().jobs(2).cache_dir(dir.path()).build().expect("reopen");
    graph
        .run_pipeline(&Pipeline::standard(false), &PipelineInput::for_model(&model, top))
        .expect("pipeline");
    assert_eq!(graph.campaign_health(), None, "no campaign ran in this engine");
}

/// The campaign circuit breaker trips through the engine path too: a
/// starved per-case budget makes the sweep mostly unsolvable, the run
/// aborts with `CampaignAborted`, and the health report survives the
/// abort for post-mortem inspection.
#[test]
fn engine_campaign_breaker_trips_on_starved_budget() {
    use decisive::circuit::SolverOptions;
    use decisive::core::campaign::CampaignConfig;
    use decisive::core::CoreError;
    use decisive::engine::EngineError;

    let (diagram, _) = decisive::blocks::gallery::sensor_power_supply();
    let db = ReliabilityDb::paper_table_ii();
    let config = InjectionConfig {
        campaign: CampaignConfig {
            max_unsolvable_fraction: 0.25,
            solver: SolverOptions { budget: 1, ..SolverOptions::default() },
            ..CampaignConfig::default()
        },
        ..InjectionConfig::default()
    };
    let mut engine = Engine::new(EngineConfig::with_jobs(2));
    let err = engine.analyze_injection(&diagram, &db, &config).expect_err("breaker");
    assert!(
        matches!(err, EngineError::Core(CoreError::CampaignAborted { total: 9, .. })),
        "got {err}"
    );
    let health = engine.campaign_health().expect("health survives the abort");
    assert!(health.failure_fraction() > 0.25);
    assert!(!health.failed_cases.is_empty());
}

/// A poisoned persisted cache (garbage over a store segment) is
/// quarantined and the run proceeds cold — the corruption is reported
/// through the degraded-mode channel instead of aborting the analysis.
#[test]
fn corrupt_cache_file_is_quarantined_and_run_proceeds() {
    let dir = TempCacheDir::new("corrupt");
    let (model, top) = case_study::ssam_model();
    let mut seed = durable(&dir);
    seed.analyze_graph(&model, top).expect("seed analysis");
    seed.save_cache(dir.path()).expect("save");
    drop(seed);
    let segment = dir.path().join(STORE_DIR).join("seg-000001.seg");
    std::fs::write(&segment, "{not a segment").expect("write");

    let mut engine = durable(&dir);
    assert!(engine.cache().is_empty(), "corrupt cache loads cold");
    assert_eq!(engine.degraded_report().quarantined_cache_entries, 1);
    assert!(engine.degraded_report().is_degraded());
    assert!(
        dir.path().join(STORE_DIR).join("seg-000001.seg.quarantined").exists(),
        "corrupt bytes are preserved for post-mortem"
    );
    // The analysis itself still runs and verifies against a from-scratch
    // pass.
    engine.verify_against_full(&model, top).expect("cold run verifies");
    assert!(engine.stats().jobs_executed() > 0, "the cold run recomputes");
}

/// Every work-item key the standard pipeline derives is pinned, over the
/// two `.bd` designs in `data/` (the brownout one with its reliability
/// annex), the case-study model and two Set3 instances, in three digests.
/// The keys of `graph-facts`, `injection-row` and `monitor-set` were
/// recorded before artefact digests were streamed instead of built as
/// values, so stores written before that change stay warm. The
/// `fta-subtree`, `risk-log` and `graph-row` keys were recorded when each
/// came to cover exactly what its artefact reads: subtree structure
/// without FITs, shares or mission time; the assessed rows, not the whole
/// table; failure modes in declaration order. The `assurance-case` keys
/// were recorded when the generated case (its statements and evidence
/// queries) joined the key: a change to the case generator must change
/// these keys, or stored reports of the old case would be served.
#[test]
fn pipeline_keys_match_the_recorded_digest() {
    let data = |file: &str| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../data")
            .join(file)
            .to_string_lossy()
            .into_owned()
    };
    let (mut h, mut exact, mut assurance) = (Hasher::new(), Hasher::new(), Hasher::new());
    let exact_kinds = [ArtifactKind::FtaSubtree, ArtifactKind::RiskLog, ArtifactKind::GraphRow];
    let mut kinds = std::collections::BTreeSet::new();
    let mut fold = |engine: &Engine| {
        let snapshot = engine.cache().to_value();
        let entries = snapshot.get("entries").and_then(Value::as_list).expect("snapshot entries");
        for entry in entries {
            let field = |name: &str| entry.get(name).and_then(Value::as_str).expect("entry field");
            kinds.insert(field("kind").to_owned());
            let into = if field("kind") == ArtifactKind::AssuranceCase.tag() {
                &mut assurance
            } else if exact_kinds.iter().any(|k| k.tag() == field("kind")) {
                &mut exact
            } else {
                &mut h
            };
            into.write_str(field("kind")).write_str(field("key")).write_str(field("owner"));
        }
    };
    let engine = || Engine::builder().jobs(1).build().expect("in-memory engine");

    let designs =
        [("brownout_threshold.bd", Some("brownout_reliability.csv")), ("power_supply.bd", None)];
    for (design, annex) in designs {
        let spec = RunSpec { reliability: annex.map(data), ..RunSpec::default() };
        let mut e = engine();
        e.execute(&AnalysisRequest::new(AnalysisOp::Pipeline, data(design), spec))
            .expect("pipeline on a design");
        fold(&e);
    }
    let set3 = set_by_name("Set3").expect("Set3");
    let models = [
        ("case-study", case_study::ssam_model().0),
        ("set3-1-0", instance_model(&set3, 0, 1).0),
        ("set3-2-1", instance_model(&set3, 1, 2).0),
    ];
    for (name, model) in &models {
        let mut e = engine();
        e.execute_model(AnalysisOp::Pipeline, model, name, &RunSpec::default())
            .expect("pipeline on a model");
        fold(&e);
    }
    let expected = [
        "assurance-case",
        "fta-subtree",
        "graph-facts",
        "graph-row",
        "injection-row",
        "monitor-set",
        "risk-log",
    ];
    assert_eq!(kinds.iter().map(String::as_str).collect::<Vec<_>>(), expected);
    assert_eq!(h.finish().to_string(), "d91a56afc48f43a5");
    assert_eq!(exact.finish().to_string(), "555e6bf77bc0e5e1");
    assert_eq!(assurance.finish().to_string(), "eddcc9180a022f8d");
}

/// Folds a campaign health report's semantic fields into `h`: the
/// counters, the strategy histogram and the failed cases, not the clocks.
fn fold_health(h: &mut Hasher, health: &CampaignHealth) {
    let counts = [
        health.total,
        health.converged,
        health.recovered,
        health.unsolvable,
        health.panicked,
        health.skipped,
    ];
    for n in counts {
        h.write_u64(n as u64);
    }
    for (strategy, count) in &health.strategy_histogram {
        h.write_str(strategy).write_u64(*count as u64);
    }
    h.write_u64(health.failed_cases.len() as u64);
    for case in &health.failed_cases {
        h.write_str(case);
    }
}

/// Folds one labelled result into `h`: the artefact's JSON, or the
/// error's text.
fn fold_result<T: serde::Serialize, E: std::fmt::Display>(
    h: &mut Hasher,
    label: &str,
    result: &Result<T, E>,
) {
    h.write_str(label);
    match result {
        Ok(artifact) => h.write_str(&to_json_string(artifact).expect("artefact serialises")),
        Err(e) => h.write_str(&format!("error: {e}")),
    };
}

/// Folds one `analyze_*` call and the run it left on `engine` into `h`:
/// the result, every phase's counters (not `wall_ms` or `max_job_ms`),
/// the campaign health's semantic fields and the degraded-mode report.
/// The run state is cleared afterwards, so each call reports only itself.
fn fold_engine_run<T: serde::Serialize>(
    h: &mut Hasher,
    engine: &mut Engine,
    label: &str,
    result: Result<T, EngineError>,
) {
    fold_result(h, label, &result);
    let stats = engine.stats();
    for phase in &stats.phases {
        h.write_str(&phase.name);
        let counts = [
            phase.jobs_total,
            phase.jobs_executed,
            phase.cache_hits,
            phase.cache_misses,
            phase.retries,
            phase.timed_out,
        ];
        for n in counts {
            h.write_u64(n as u64);
        }
    }
    h.write_u64(stats.invalidated_keys as u64).write_u64(stats.quarantined_entries as u64);
    match engine.campaign_health() {
        Some(health) => fold_health(h.write_bool(true), health),
        None => {
            h.write_bool(false);
        }
    }
    h.write_str(&to_json_string(engine.degraded_report()).expect("report serialises"));
    engine.reset_run_state();
}

/// What every `analyze_*` wrapper, `injection::run_supervised` and
/// `injection::run_dual_point` return is pinned by a digest recorded
/// before the wrappers ran through the pipeline runner and the core sweep
/// became sequential. Inputs: the case-study model,
/// `data/power_supply.bd`, `data/brownout_threshold.bd` with its
/// reliability annex and the gallery's redundant supply; each design is
/// analysed as a diagram and as its SSAM lowering, on engines of 1 and 4
/// workers. Cold and warm calls are both folded, and so are the errors
/// of an out-of-range threshold and breaker fraction.
#[test]
fn analysis_outputs_match_the_recorded_digest() {
    let data = |file: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data").join(file);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let bd = |file: &str| decisive::blocks::text::from_text(&data(file)).expect("design parses");
    let brownout_db =
        ReliabilityDb::from_csv_str(&data("brownout_reliability.csv")).expect("annex parses");
    let designs = [
        ("power_supply.bd", bd("power_supply.bd"), ReliabilityDb::paper_table_ii()),
        ("brownout_threshold.bd", bd("brownout_threshold.bd"), brownout_db),
        ("redundant-supply", gallery::redundant_power_supply().0, ReliabilityDb::paper_table_ii()),
    ];
    let mut models = vec![("case-study".to_owned(), case_study::ssam_model().0)];
    for (name, diagram, db) in &designs {
        let mut model = decisive::blocks::to_ssam(diagram);
        db.aggregate_into(&mut model);
        models.push((format!("{name} lowering"), model));
    }
    let config = InjectionConfig::default();
    let bad_threshold = InjectionConfig { threshold: 0.0, ..InjectionConfig::default() };
    let mut bad_breaker = InjectionConfig::default();
    bad_breaker.campaign.max_unsolvable_fraction = 2.0;

    let mut h = Hasher::new();
    let mut lines = Vec::new();
    let mut line = |h: &mut Hasher, what: String| lines.push(format!("{what} {}", h.finish()));
    for jobs in [1, 4] {
        for (name, model) in &models {
            let top = decisive::engine::execute::top_of(model).expect("top component");
            let mut e = Engine::builder().jobs(jobs).build().expect("in-memory engine");
            for pass in ["cold", "warm"] {
                let graph = e.analyze_graph(model, top);
                fold_engine_run(&mut h, &mut e, &format!("{name} graph {pass}"), graph);
            }
            let fta = e.analyze_fta(model, top, 10_000.0);
            fold_engine_run(&mut h, &mut e, &format!("{name} fta"), fta);
            let monitors = e.monitors(model);
            fold_engine_run(&mut h, &mut e, &format!("{name} monitors"), monitors);
            line(&mut h, format!("jobs {jobs} {name}"));
        }
        for (name, diagram, db) in &designs {
            let mut e = Engine::builder().jobs(jobs).build().expect("in-memory engine");
            for pass in ["cold", "warm"] {
                let table = e.analyze_injection(diagram, db, &config);
                fold_engine_run(&mut h, &mut e, &format!("{name} injection {pass}"), table);
            }
            let mc = e.analyze_montecarlo(diagram, db, &config, 32, 7);
            fold_engine_run(&mut h, &mut e, &format!("{name} montecarlo"), mc);
            let recommend = e.analyze_recommend(diagram, db, &config);
            fold_engine_run(&mut h, &mut e, &format!("{name} recommend"), recommend);
            for (what, bad) in [("threshold", &bad_threshold), ("breaker", &bad_breaker)] {
                let refused = e.analyze_injection(diagram, db, bad);
                fold_engine_run(&mut h, &mut e, &format!("{name} bad {what}"), refused);
            }
            line(&mut h, format!("jobs {jobs} {name} engine"));
        }
    }
    for (name, diagram, db) in &designs {
        let supervised = injection::run_supervised(diagram, db, &config);
        fold_result(&mut h, &format!("{name} supervised"), &supervised.as_ref().map(|r| &r.0));
        fold_health(&mut h, &supervised.expect("supervised sweep").1);
        let dual = injection::run_dual_point(diagram, db, &config).expect("dual-point campaign");
        fold_result(&mut h, &format!("{name} dual-point"), &Ok::<_, String>(&dual.table));
        for ((ca, ma), (cb, mb)) in &dual.latent_pairs {
            h.write_str(ca).write_str(ma).write_str(cb).write_str(mb);
        }
        for warning in &dual.pair_warnings {
            h.write_str(warning);
        }
        fold_health(&mut h, &dual.health);
        for (what, bad) in [("threshold", &bad_threshold), ("breaker", &bad_breaker)] {
            let refused = injection::run_supervised(diagram, db, bad).map(|r| r.0);
            fold_result(&mut h, &format!("{name} supervised bad {what}"), &refused);
            let refused = injection::run_dual_point(diagram, db, bad).map(|r| r.table);
            fold_result(&mut h, &format!("{name} dual-point bad {what}"), &refused);
        }
        line(&mut h, format!("{name} core"));
    }
    let digest = h.finish().to_string();
    if digest != "b4478a857b7bf6dc" {
        for line in &lines {
            eprintln!("{line}");
        }
    }
    assert_eq!(digest, "b4478a857b7bf6dc");
}

/// Drops the wall-clock fields (`wall_ms`, `max_job_ms`, `slowest`) from
/// a document, at every depth.
fn timeless(value: &mut Value) {
    match value {
        Value::Record(fields) => {
            fields
                .retain(|(name, _)| !matches!(name.as_str(), "wall_ms" | "max_job_ms" | "slowest"));
            fields.iter_mut().for_each(|(_, v)| timeless(v));
        }
        Value::List(items) => items.iter_mut().for_each(timeless),
        _ => {}
    }
}

/// Folds `document` (JSON text) into `h` without its wall-clock fields.
fn fold_timeless(h: &mut Hasher, label: &str, document: &str) {
    let mut value = decisive::federation::json::parse(document).expect("a JSON document");
    timeless(&mut value);
    h.write_str(label).write_str(&decisive::federation::json::to_string(&value));
}

/// Folds what one request left on `engine` into `h`: every phase's
/// counters, the invalidated and quarantined counts, and the run's
/// document without timings. The run state is cleared afterwards.
fn fold_traffic(
    h: &mut Hasher,
    engine: &mut Engine,
    label: &str,
    run: &decisive::engine::PipelineRun,
) {
    let stats = engine.stats();
    for phase in &stats.phases {
        h.write_str(&phase.name);
        let counts = [
            phase.jobs_total,
            phase.jobs_executed,
            phase.cache_hits,
            phase.cache_misses,
            phase.retries,
            phase.timed_out,
        ];
        for n in counts {
            h.write_u64(n as u64);
        }
    }
    h.write_u64(stats.invalidated_keys as u64).write_u64(stats.quarantined_entries as u64);
    let document = to_json_string(&decisive::output::PipelineOutput::new(run, engine))
        .expect("document serialises");
    fold_timeless(h, label, &document);
    engine.reset_run_state();
}

/// The cache traffic of the ways an engine meets its store is pinned by a
/// digest recorded while each engine still layered a private overlay over
/// its store: phase counters, invalidated and quarantined counts, and
/// every artefact without timings. Scenarios: one in-memory engine (the
/// brownout pipeline cold and warm, then a D1 FIT-edit `rerun` of the
/// case study); engines A, B and A again over one in-memory
/// `SharedStore`; a `cache_dir` engine cold, then a second one on the
/// same directory; and a daemon whose sessions `a` and `b` each send two
/// `pipeline` requests on one design. `shared_hits` is left out: it
/// counts lookups, and which lookups count changed with the overlay.
#[test]
fn store_traffic_matches_the_recorded_digest() {
    use decisive::engine::SharedStore;
    use decisive::serve::{Daemon, ServeOptions};

    let data = |file: &str| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../data")
            .join(file)
            .to_string_lossy()
            .into_owned()
    };
    let pipeline = |engine: &mut Engine, design: &str, annex: Option<&str>| {
        let spec = RunSpec { reliability: annex.map(data), ..RunSpec::default() };
        let request = AnalysisRequest::new(AnalysisOp::Pipeline, data(design), spec);
        match engine.execute(&request).expect("pipeline runs").artifact {
            decisive::engine::OpArtifact::Pipeline(run) => run,
            _ => unreachable!("a pipeline request yields a pipeline run"),
        }
    };
    let mut h = Hasher::new();

    // One in-memory engine.
    let mut solo = Engine::builder().jobs(2).build().expect("in-memory engine");
    for pass in ["cold", "warm"] {
        let run = pipeline(&mut solo, "brownout_threshold.bd", Some("brownout_reliability.csv"));
        fold_traffic(&mut h, &mut solo, &format!("solo brownout {pass}"), &run);
    }
    let (old, old_top) = case_study::ssam_model();
    let (mut new, new_top) = case_study::ssam_model();
    solo.analyze_graph(&old, old_top).expect("case study");
    solo.reset_run_state();
    let d1 = new.component_by_name("D1").expect("D1");
    new.components[d1].fit = Some(Fit::new(20.0));
    let (table, report) = solo.rerun(&old, &new, new_top).expect("rerun");
    h.write_str(&to_json_string(&table).expect("table")).write_str(&report.render());
    let rows = solo.stats().phase("graph-rows").expect("rows phase");
    h.write_u64(rows.jobs_executed as u64).write_u64(solo.stats().invalidated_keys as u64);

    // Engines A, B, then A again over one in-memory store.
    let shared = SharedStore::new();
    let over = || Engine::builder().jobs(2).shared_store(shared.clone()).build().expect("engine");
    let (mut a, mut b) = (over(), over());
    for (label, engine) in [("A", &mut a), ("B", &mut b)] {
        let run = pipeline(engine, "power_supply.bd", None);
        fold_traffic(&mut h, engine, &format!("shared {label}"), &run);
    }
    let run = pipeline(&mut a, "power_supply.bd", None);
    fold_traffic(&mut h, &mut a, "shared A again", &run);

    // A durable engine cold, then a second one on the same directory.
    let dir = TempCacheDir::new("traffic");
    for pass in ["cold", "warm"] {
        let mut engine = durable(&dir);
        let run = pipeline(&mut engine, "power_supply.bd", None);
        engine.save_cache(dir.path()).expect("commit");
        fold_traffic(&mut h, &mut engine, &format!("durable {pass}"), &run);
    }

    // A daemon: sessions `a` and `b`, two pipeline requests each.
    let options = ServeOptions { jobs: Some(2), ..ServeOptions::default() };
    let daemon = Daemon::new(options, Telemetry::noop()).expect("daemon");
    let design = data("brownout_threshold.bd");
    for (id, session) in ["a", "a", "b", "b"].into_iter().enumerate() {
        let line = format!(
            r#"{{"op":"pipeline","id":{id},"session":"{session}","path":{}}}"#,
            decisive::federation::json::to_string(&Value::from(design.as_str()))
        );
        let response = daemon.handle_line(&line).expect("one response line");
        fold_timeless(&mut h, &format!("daemon {id} {session}"), &response);
    }

    assert_eq!(h.finish().to_string(), "cef7c1a37f9f8f6d");
}
