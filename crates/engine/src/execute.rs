//! The one executor for the four analysis ops. The CLI verbs, the serve
//! daemon and the fleet worker hand an [`AnalysisRequest`] to
//! [`Engine::execute`] and only parse requests and render the
//! [`OpOutput`], so an analysis gives one answer however it is invoked.
//!
//! Everything between the request and the engine artefact lives here:
//! loading the `.json` SSAM model or the `.bd` block diagram, the
//! top-component lookup, loading the reliability annex under
//! [`RunSpec::strict`], the pipeline shape and [`PipelineInput`] of each
//! op, and the `strict` verdict on the finished run
//! ([`Engine::enforce_strict`]).

use decisive_blocks::BlockDiagram;
use decisive_core::fmea::FmeaTable;
use decisive_core::montecarlo::MonteCarloReport;
use decisive_core::patterns::RecommendationReport;
use decisive_core::persist;
use decisive_core::reliability::ReliabilityDb;
use decisive_core::request::{AnalysisOp, AnalysisRequest, RunSpec};
use decisive_ssam::architecture::Component;
use decisive_ssam::id::Idx;
use decisive_ssam::model::SsamModel;

use crate::engine::Engine;
use crate::error::{EngineError, Result};
use crate::pass::PipelineInput;
use crate::pipeline::{Pipeline, PipelineRun};

/// The engine artefact one op produced.
#[derive(Debug)]
pub enum OpArtifact {
    /// `analyze`: the graph FMEA of an SSAM model, or the injection FMEA
    /// of a `.bd` design.
    Fmea(FmeaTable),
    /// `pipeline`: every pass artefact of the standard pipeline.
    Pipeline(PipelineRun),
    /// `montecarlo`: the stochastic campaign report.
    MonteCarlo(MonteCarloReport),
    /// `recommend`: the ranked safety-pattern deployments.
    Recommend(RecommendationReport),
}

/// The size of the analysed model, kept so callers can report it.
#[derive(Debug)]
enum ModelSize {
    /// The element count of the SSAM model the op analysed.
    Counted(usize),
    /// A `.bd` design analysed by fault injection alone, counted as its
    /// SSAM lowering only when asked.
    Diagram(BlockDiagram),
}

/// What [`Engine::execute`] produced: the op's artefact and the size of
/// the model it analysed. The engine's stats, campaign health and
/// degraded-mode report describe the run.
#[derive(Debug)]
pub struct OpOutput {
    /// The op's artefact.
    pub artifact: OpArtifact,
    size: ModelSize,
}

impl OpOutput {
    /// The FMEA table the op produced: `analyze`'s table, or the
    /// pipeline's primary one. `None` for `montecarlo` and `recommend`.
    pub fn fmea(&self) -> Option<&FmeaTable> {
        match &self.artifact {
            OpArtifact::Fmea(table) => Some(table),
            OpArtifact::Pipeline(run) => run.fmea(),
            OpArtifact::MonteCarlo(_) | OpArtifact::Recommend(_) => None,
        }
    }

    /// Elements of the SSAM model the op analysed. A `.bd` design counts
    /// as its SSAM lowering, with the reliability annex's failure modes
    /// aggregated in only for `pipeline`, the one op that analyses the
    /// lowering itself.
    pub fn elements(&self) -> usize {
        match &self.size {
            ModelSize::Counted(elements) => *elements,
            ModelSize::Diagram(diagram) => decisive_blocks::to_ssam(diagram).element_count(),
        }
    }
}

/// The top-level component of `model`: the first one without a parent.
/// Every front end analyses the model from there.
///
/// # Errors
///
/// [`EngineError::Input`] when every component has a parent.
pub fn top_of(model: &SsamModel) -> Result<Idx<Component>> {
    model
        .components
        .iter()
        .find(|(_, c)| c.parent.is_none())
        .map(|(i, _)| i)
        .ok_or_else(|| EngineError::Input("model has no top-level component".to_owned()))
}

/// Fails `montecarlo` and `recommend` on anything but a `.bd` design:
/// only a block diagram has an injection campaign to sample or cover.
fn reject_diagram_only(op: AnalysisOp, path: &str) -> Result<()> {
    match op {
        AnalysisOp::MonteCarlo | AnalysisOp::Recommend => {
            Err(EngineError::NotADiagram { op: op.name(), path: path.to_owned() })
        }
        AnalysisOp::Analyze | AnalysisOp::Pipeline => Ok(()),
    }
}

impl Engine {
    /// Runs one analysis request: loads the model at `request.path` — a
    /// `.bd` path is a block diagram analysed by fault injection with the
    /// reliability annex `request.spec` names, anything else an SSAM model
    /// in JSON (see [`Engine::execute_model`]) — and runs the op on it.
    /// Afterwards the engine's stats, campaign health and degraded-mode
    /// report describe the run, whether it succeeded or failed.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotADiagram`] for `montecarlo` or `recommend` on a
    /// non-`.bd` path, before anything is read;
    /// [`EngineError::Input`] or [`EngineError::Core`] when the model or
    /// the reliability annex cannot be loaded; otherwise the analysis
    /// error.
    pub fn execute(&mut self, request: &AnalysisRequest) -> Result<OpOutput> {
        let AnalysisRequest { op, path, spec } = request;
        if !path.ends_with(".bd") {
            reject_diagram_only(*op, path)?;
            return self.execute_model(*op, &persist::load_model(path)?, path, spec);
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| EngineError::Input(format!("{path}: {e}")))?;
        let diagram = decisive_blocks::text::from_text(&text)
            .map_err(|e| EngineError::Input(e.to_string()))?;
        let reliability = self.load_reliability(spec)?;
        let config = spec.injection_config();
        let artifact = match op {
            AnalysisOp::Analyze => {
                OpArtifact::Fmea(self.analyze_injection(&diagram, &reliability, &config)?)
            }
            AnalysisOp::Pipeline => {
                let mut model = decisive_blocks::to_ssam(&diagram);
                reliability.aggregate_into(&mut model);
                let input = PipelineInput::for_model(&model, top_of(&model)?)
                    .with_diagram(&diagram, &reliability)
                    .with_injection_config(config)
                    .with_mission_hours(spec.mission_hours_or_default());
                let run = self.run_pipeline(&Pipeline::standard(true), &input)?;
                return Ok(OpOutput {
                    artifact: OpArtifact::Pipeline(run),
                    size: ModelSize::Counted(model.element_count()),
                });
            }
            AnalysisOp::MonteCarlo => OpArtifact::MonteCarlo(self.analyze_montecarlo(
                &diagram,
                &reliability,
                &config,
                spec.trials,
                spec.seed,
            )?),
            AnalysisOp::Recommend => {
                OpArtifact::Recommend(self.analyze_recommend(&diagram, &reliability, &config)?)
            }
        };
        Ok(OpOutput { artifact, size: ModelSize::Diagram(diagram) })
    }

    /// [`Engine::execute`] on an SSAM model already in memory, such as a
    /// generated workload instance; `name` stands in for its path in
    /// errors. `analyze` runs the graph FMEA, `pipeline` the standard
    /// pipeline without the injection pass.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotADiagram`] for `montecarlo` and `recommend`,
    /// [`EngineError::Input`] when the model has no top-level component,
    /// otherwise the analysis error.
    pub fn execute_model(
        &mut self,
        op: AnalysisOp,
        model: &SsamModel,
        name: &str,
        spec: &RunSpec,
    ) -> Result<OpOutput> {
        reject_diagram_only(op, name)?;
        let top = top_of(model)?;
        let artifact = if op == AnalysisOp::Analyze {
            OpArtifact::Fmea(self.analyze_graph(model, top)?)
        } else {
            let input = PipelineInput::for_model(model, top)
                .with_mission_hours(spec.mission_hours_or_default());
            OpArtifact::Pipeline(self.run_pipeline(&Pipeline::standard(false), &input)?)
        };
        Ok(OpOutput { artifact, size: ModelSize::Counted(model.element_count()) })
    }

    /// The reliability annex `spec` names, or the paper's Table II when it
    /// names none. Under `spec.strict` any defect fails the request.
    /// Otherwise malformed rows degrade to the MIL-HDBK-338B defaults (one
    /// provenance warning each) and a missing file to Table II (one
    /// unresolved reference), all recorded in the degraded-mode report.
    fn load_reliability(&mut self, spec: &RunSpec) -> Result<ReliabilityDb> {
        let Some(csv) = spec.reliability.as_deref() else {
            return Ok(ReliabilityDb::paper_table_ii());
        };
        match std::fs::read_to_string(csv) {
            Ok(text) if spec.strict => Ok(ReliabilityDb::from_csv_str(&text)?),
            Ok(text) => {
                let load = ReliabilityDb::from_csv_str_lenient(&text, csv);
                self.degraded.substituted_fits.extend(load.substitutions);
                self.degraded.notes.extend(load.diagnostics.iter().map(ToString::to_string));
                Ok(load.db)
            }
            Err(e) if spec.strict => Err(EngineError::Input(format!("{csv}: {e}"))),
            Err(e) => {
                self.degraded
                    .unresolved_references
                    .push(format!("{csv}: {e}; used paper Table II defaults"));
                Ok(ReliabilityDb::paper_table_ii())
            }
        }
    }

    /// The `strict` verdict on the run just executed. Any unsolvable or
    /// panicked campaign case fails it, even though its row was
    /// conservatively classified, and so does any degradation
    /// (quarantined cache entries, substituted FITs, unresolved
    /// references, timed-out jobs). A pristine run without a campaign
    /// (the SSAM graph path) passes, and so does every run when `strict`
    /// is off.
    ///
    /// # Errors
    ///
    /// [`EngineError::Strict`] naming the failed cases or the number of
    /// degradations.
    pub fn enforce_strict(&self, strict: bool) -> Result<()> {
        if !strict {
            return Ok(());
        }
        if let Some(health) = self.campaign_health() {
            let failed = health.unsolvable + health.panicked;
            if failed > 0 {
                return Err(EngineError::Strict(format!(
                    "--strict: {failed} campaign case(s) unsolvable or panicked: {}",
                    health.failed_cases.join(", ")
                )));
            }
        }
        let degraded = self.degraded_report();
        if degraded.is_degraded() {
            return Err(EngineError::Strict(format!(
                "--strict: run degraded in {} way(s) (see degraded-mode report above)",
                degraded.degradation_count()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decisive_core::case_study;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("decisive_execute_{}_{name}", std::process::id()))
    }

    #[test]
    fn graph_models_refuse_the_diagram_only_ops_before_reading() {
        let mut engine = Engine::builder().jobs(1).build().unwrap();
        for op in [AnalysisOp::MonteCarlo, AnalysisOp::Recommend] {
            let request = AnalysisRequest::new(op, "/no/such/model.json", RunSpec::default());
            let err = engine.execute(&request).unwrap_err();
            assert!(matches!(err, EngineError::NotADiagram { .. }), "{err}");
            assert_eq!(
                err.to_string(),
                format!(
                    "`{}` needs a `.bd` block-diagram path, got `/no/such/model.json`",
                    op.name()
                )
            );
        }
    }

    #[test]
    fn a_loaded_model_executes_like_its_file() {
        let (model, _) = case_study::ssam_model();
        let path = scratch("model.json");
        persist::save_model(&model, &path).unwrap();
        let request =
            AnalysisRequest::new(AnalysisOp::Pipeline, path.to_str().unwrap(), RunSpec::default());
        let from_file = Engine::builder().jobs(1).build().unwrap().execute(&request).unwrap();
        let mut engine = Engine::builder().jobs(1).build().unwrap();
        let in_memory = engine
            .execute_model(AnalysisOp::Pipeline, &model, "memory", &RunSpec::default())
            .unwrap();
        assert_eq!(from_file.fmea(), in_memory.fmea());
        assert_eq!(from_file.elements(), in_memory.elements());
        assert!(engine.campaign_health().is_none(), "the graph path runs no campaign");
        engine.enforce_strict(true).expect("a pristine graph run passes strict");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn strict_fails_a_malformed_annex_that_lenient_substitutes() {
        let (diagram, _) = decisive_blocks::gallery::sensor_power_supply();
        let design = scratch("supply.bd");
        std::fs::write(&design, decisive_blocks::text::to_text(&diagram)).unwrap();
        let csv = scratch("fits.csv");
        std::fs::write(&csv, "Component,FIT,Failure_Mode,Distribution\nDiode,banana,Open,1\n")
            .unwrap();
        let spec = |strict| RunSpec {
            reliability: Some(csv.to_str().unwrap().to_owned()),
            strict,
            ..RunSpec::default()
        };
        let request = |strict| {
            AnalysisRequest::new(AnalysisOp::Analyze, design.to_str().unwrap(), spec(strict))
        };

        let mut lenient = Engine::builder().jobs(1).build().unwrap();
        lenient.execute(&request(false)).expect("lenient runs on the default FIT");
        assert!(!lenient.degraded_report().substituted_fits.is_empty());
        assert!(lenient.enforce_strict(false).is_ok());
        assert!(matches!(lenient.enforce_strict(true), Err(EngineError::Strict(_))));

        let mut strict = Engine::builder().jobs(1).build().unwrap();
        let err = strict.execute(&request(true)).unwrap_err();
        assert!(err.to_string().contains("FIT"), "{err}");
        std::fs::remove_file(&design).ok();
        std::fs::remove_file(&csv).ok();
    }
}
