//! Shared serde structs behind the CLI's `--format json` output *and* the
//! daemon wire protocol: one document shape per operation (`analyze`,
//! `pipeline`, `montecarlo`, `recommend`, `passes`), so scripts parse a
//! stable schema instead of scraping the text rendering. [`document`] is
//! the one mapping from an executed request to its document, so a daemon
//! response carries exactly what the equivalent CLI invocation prints.
//! Serialised through the federation JSON layer ([`to_json_string`]);
//! library users can embed them in their own reports.

use serde::Serialize;

use decisive_assurance::AssuranceReport;
use decisive_core::campaign::CampaignHealth;
use decisive_core::degraded::DegradedModeReport;
use decisive_core::fmea::FmeaTable;
use decisive_core::metrics;
use decisive_core::montecarlo::MonteCarloReport;
use decisive_core::patterns::RecommendationReport;
use decisive_engine::{
    Engine, EngineStats, FtaSubtreeSummary, OpArtifact, OpOutput, PassStatus, PipelineRun,
};
use decisive_federation::{serde_bridge, Value};
use decisive_hara::RiskLog;

/// FMEA metric summary shared by the analyze and pipeline documents (the
/// JSON form of the `# SPFM ...` text line).
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSummary {
    /// Single-point fault metric in `[0, 1]`.
    pub spfm: f64,
    /// The ASIL that SPFM achieves.
    pub achieved_asil: String,
    /// Total FIT of safety-related hardware.
    pub total_sr_fit: f64,
}

impl MetricsSummary {
    /// The summary of `table`.
    pub fn of(table: &FmeaTable) -> Self {
        let m = metrics::compute(table);
        MetricsSummary {
            spfm: m.spfm,
            achieved_asil: m.achieved_asil.to_string(),
            total_sr_fit: m.total_sr_fit.value(),
        }
    }
}

/// The `decisive analyze --format json` document (also used by the `.bd`
/// arm of `rerun`).
#[derive(Debug, Clone, Serialize)]
pub struct AnalyzeOutput {
    /// The analysed FMEA table.
    pub table: FmeaTable,
    /// SPFM summary of the table.
    pub metrics: MetricsSummary,
    /// Engine phase statistics.
    pub stats: EngineStats,
    /// Campaign health, for fault-injection analyses.
    pub campaign: Option<CampaignHealth>,
    /// Everything the run substituted or abandoned instead of failing.
    pub degraded: DegradedModeReport,
}

impl AnalyzeOutput {
    /// Bundles a finished analysis with the engine's observability state.
    pub fn new(table: FmeaTable, engine: &Engine) -> Self {
        AnalyzeOutput {
            metrics: MetricsSummary::of(&table),
            table,
            stats: engine.stats().clone(),
            campaign: engine.campaign_health().cloned(),
            degraded: engine.degraded_report().clone(),
        }
    }
}

/// The `decisive pipeline --format json` document.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineOutput {
    /// The primary FMEA table (injection when the campaign ran, graph
    /// otherwise).
    pub fmea: Option<FmeaTable>,
    /// SPFM summary of that table.
    pub metrics: Option<MetricsSummary>,
    /// Quantified FTA subtrees, one per container.
    pub fta: Vec<FtaSubtreeSummary>,
    /// Number of synthesised runtime checks.
    pub monitor_checks: usize,
    /// The HARA risk log.
    pub risk_log: Option<RiskLog>,
    /// The evaluated assurance case.
    pub assurance: Option<AssuranceReport>,
    /// Engine phase statistics.
    pub stats: EngineStats,
    /// Campaign health, for `.bd` designs.
    pub campaign: Option<CampaignHealth>,
    /// Everything the run substituted or abandoned instead of failing.
    pub degraded: DegradedModeReport,
}

impl PipelineOutput {
    /// Bundles a pipeline run with the engine's observability state.
    pub fn new(run: &PipelineRun, engine: &Engine) -> Self {
        let fmea = run.fmea().cloned();
        PipelineOutput {
            metrics: fmea.as_ref().map(MetricsSummary::of),
            fmea,
            fta: run.fta().map(<[FtaSubtreeSummary]>::to_vec).unwrap_or_default(),
            monitor_checks: run.monitor().map_or(0, |m| m.checks().len()),
            risk_log: run.risk_log().cloned(),
            assurance: run.assurance().cloned(),
            stats: engine.stats().clone(),
            campaign: engine.campaign_health().cloned(),
            degraded: engine.degraded_report().clone(),
        }
    }
}

/// The `decisive montecarlo --format json` document (and the daemon's
/// `montecarlo` op result).
#[derive(Debug, Clone, Serialize)]
pub struct MonteCarloOutput {
    /// The stochastic campaign report: trial count, seed, mean and 95 %
    /// confidence interval per metric.
    pub report: MonteCarloReport,
    /// Engine phase statistics: the verdict sweep's cache traffic
    /// (`injection-rows`) and the trial loop (`mc-trials`).
    pub stats: EngineStats,
    /// Everything the run substituted or abandoned instead of failing.
    pub degraded: DegradedModeReport,
}

impl MonteCarloOutput {
    /// Bundles a finished campaign with the engine's observability state.
    pub fn new(report: MonteCarloReport, engine: &Engine) -> Self {
        MonteCarloOutput {
            report,
            stats: engine.stats().clone(),
            degraded: engine.degraded_report().clone(),
        }
    }
}

/// The `decisive recommend --format json` document (and the daemon's
/// `recommend` op result).
#[derive(Debug, Clone, Serialize)]
pub struct RecommendOutput {
    /// The ranked recommendation report: baseline metrics, uncovered
    /// modes and candidate deployments with projected metric deltas.
    pub report: RecommendationReport,
    /// Engine phase statistics.
    pub stats: EngineStats,
    /// Everything the run substituted or abandoned instead of failing.
    pub degraded: DegradedModeReport,
}

impl RecommendOutput {
    /// Bundles a recommendation report with the engine's observability
    /// state.
    pub fn new(report: RecommendationReport, engine: &Engine) -> Self {
        RecommendOutput {
            report,
            stats: engine.stats().clone(),
            degraded: engine.degraded_report().clone(),
        }
    }
}

/// One pass row of the `decisive passes --format json` document.
#[derive(Debug, Clone, Serialize)]
pub struct PassSummary {
    /// The pass id.
    pub id: String,
    /// Ids of the passes it consumes.
    pub depends_on: Vec<String>,
    /// Cache namespace tags it reads and writes.
    pub artifact_kinds: Vec<String>,
    /// Cached entries currently held across those namespaces.
    pub cached_entries: usize,
}

/// The `decisive passes --format json` document.
#[derive(Debug, Clone, Serialize)]
pub struct PassesOutput {
    /// Every pass, in topological order.
    pub passes: Vec<PassSummary>,
}

impl PassesOutput {
    /// Converts the engine's pass-status listing.
    pub fn new(statuses: &[PassStatus]) -> Self {
        PassesOutput {
            passes: statuses
                .iter()
                .map(|s| PassSummary {
                    id: s.id.clone(),
                    depends_on: s.depends_on.clone(),
                    artifact_kinds: s.kinds.iter().map(|k| k.tag().to_owned()).collect(),
                    cached_entries: s.cached_entries,
                })
                .collect(),
        }
    }
}

/// The document of one executed request, with `engine`'s account of the
/// run: what `--format json` prints and what the daemon answers under
/// `result`.
///
/// # Errors
///
/// As [`to_json_string`].
pub fn document(output: OpOutput, engine: &Engine) -> Result<Value, String> {
    match output.artifact {
        OpArtifact::Fmea(table) => serde_bridge::to_value(&AnalyzeOutput::new(table, engine)),
        OpArtifact::Pipeline(run) => serde_bridge::to_value(&PipelineOutput::new(&run, engine)),
        OpArtifact::MonteCarlo(report) => {
            serde_bridge::to_value(&MonteCarloOutput::new(report, engine))
        }
        OpArtifact::Recommend(report) => {
            serde_bridge::to_value(&RecommendOutput::new(report, engine))
        }
    }
    .map_err(|e| e.to_string())
}

/// Serialises one of the output documents to a single-line JSON string
/// through the federation bridge.
///
/// # Errors
///
/// A human-readable message when the document cannot be represented as a
/// federation [`decisive_federation::Value`] (practically unreachable for
/// the types above).
pub fn to_json_string<T: Serialize>(output: &T) -> Result<String, String> {
    let value = serde_bridge::to_value(output).map_err(|e| e.to_string())?;
    Ok(decisive_federation::json::to_string(&value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decisive_core::case_study;
    use decisive_engine::Pipeline;

    #[test]
    fn analyze_output_serialises_to_one_json_line() {
        let (model, top) = case_study::ssam_model();
        let mut engine = Engine::builder().jobs(1).build().unwrap();
        let table = engine.analyze_graph(&model, top).unwrap();
        let json = to_json_string(&AnalyzeOutput::new(table, &engine)).unwrap();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"spfm\""));
        assert!(json.contains("\"stats\""));
        assert!(json.contains("\"cache_misses\""));
    }

    #[test]
    fn pipeline_output_covers_every_artefact() {
        let (model, top) = case_study::ssam_model();
        let mut engine = Engine::builder().jobs(2).build().unwrap();
        let input = decisive_engine::PipelineInput::for_model(&model, top);
        let run = engine.run_pipeline(&Pipeline::standard(false), &input).unwrap();
        let output = PipelineOutput::new(&run, &engine);
        assert!(output.fmea.is_some());
        assert!(output.metrics.is_some());
        assert!(!output.fta.is_empty());
        assert!(output.monitor_checks > 0);
        assert!(output.risk_log.is_some());
        assert!(output.assurance.is_some());
        let json = to_json_string(&output).unwrap();
        assert!(json.contains("\"assurance\""));
    }

    #[test]
    fn passes_output_lists_the_dag() {
        let engine = Engine::builder().build().unwrap();
        let statuses = engine.pipeline_status(&Pipeline::standard(true)).unwrap();
        let output = PassesOutput::new(&statuses);
        assert!(output.passes.iter().any(|p| p.id == "injection-fmea"));
        let json = to_json_string(&output).unwrap();
        assert!(json.contains("\"injection-row\""));
    }
}
