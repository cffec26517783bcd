//! In-process routes into the program's crates: loading a design the way
//! the CLI does, and the reference pipeline the oracles compare CLI and
//! daemon output against.

use decisive::blocks::{text, to_ssam, BlockDiagram};
use decisive::circuit::SolverKernel;
use decisive::core::fmea::injection::InjectionConfig;
use decisive::core::reliability::ReliabilityDb;
use decisive::core::request::RunSpec;
use decisive::engine::{Engine, Pipeline, PipelineInput};
use decisive::federation::{json, Value};
use decisive::output::{self, PipelineOutput};
use decisive::ssam::architecture::Component;
use decisive::ssam::id::Idx;
use decisive::ssam::model::SsamModel;

use crate::trace::Replay;

/// FTA mission time every front end defaults to.
pub const MISSION_HOURS: f64 = 10_000.0;

/// A `.bd` design loaded the way the CLI's `pipeline` verb loads it.
#[derive(Debug)]
pub struct BdInput {
    /// The parsed diagram.
    pub diagram: BlockDiagram,
    /// The leniently parsed reliability data.
    pub db: ReliabilityDb,
    /// The SSAM model with aggregated FITs.
    pub model: SsamModel,
    /// Its top-level component.
    pub top: Idx<Component>,
}

/// The top-level component, as the CLI picks it.
pub fn top_of(model: &SsamModel) -> Result<Idx<Component>, String> {
    model
        .components
        .iter()
        .find(|(_, c)| c.parent.is_none())
        .map(|(i, _)| i)
        .ok_or_else(|| "model has no top-level component".to_owned())
}

/// Parses a design's two files the way the CLI does, timing each layer.
pub fn parse_bd(
    bd: &str,
    csv: &str,
    replay: &Replay,
) -> Result<(BlockDiagram, ReliabilityDb), String> {
    let diagram =
        replay.time("blocks", "parse", || text::from_text(bd)).map_err(|e| e.to_string())?;
    let db = replay.time("federation", "csv_parse", || {
        ReliabilityDb::from_csv_str_lenient(csv, "design.csv").db
    });
    Ok((diagram, db))
}

/// [`parse_bd`] plus the SSAM model the `pipeline` verb analyses.
pub fn load_bd(bd: &str, csv: &str, replay: &Replay) -> Result<BdInput, String> {
    let (diagram, db) = parse_bd(bd, csv, replay)?;
    let model = replay.time("blocks", "to_ssam", || {
        let mut model = to_ssam(&diagram);
        db.aggregate_into(&mut model);
        model
    });
    let top = top_of(&model)?;
    Ok(BdInput { diagram, db, model, top })
}

/// The injection configuration of a CLI run with `--solver <kernel>`.
pub fn injection_config(kernel: SolverKernel) -> InjectionConfig {
    RunSpec { solver: kernel, ..RunSpec::default() }.injection_config()
}

/// Runs the standard `.bd` pipeline on `engine`, as `decisive pipeline`
/// does.
pub fn run_pipeline(
    input: &BdInput,
    engine: &mut Engine,
    kernel: SolverKernel,
) -> Result<PipelineOutput, String> {
    let pipeline_input = PipelineInput::for_model(&input.model, input.top)
        .with_diagram(&input.diagram, &input.db)
        .with_injection_config(injection_config(kernel))
        .with_mission_hours(MISSION_HOURS);
    let run = engine
        .run_pipeline(&Pipeline::standard(true), &pipeline_input)
        .map_err(|e| e.to_string())?;
    Ok(PipelineOutput::new(&run, engine))
}

/// The reference document of a `.bd` design: a fresh, cache-less engine,
/// with volatile fields removed (see [`verdict_doc`]).
pub fn reference_doc(bd: &str, csv: &str, kernel: SolverKernel) -> Result<String, String> {
    let input = load_bd(bd, csv, &Replay::new(false))?;
    let mut engine = Engine::builder().jobs(2).build().map_err(|e| e.to_string())?;
    let out = run_pipeline(&input, &mut engine, kernel)?;
    verdict_doc(&output::to_json_string(&out)?)
}

/// A `pipeline --format json` document reduced to what must not change
/// between two runs of the same inputs: without `stats` (cache traffic
/// and timings), `campaign.slowest` (wall-clock ranking) and
/// `degraded.notes` (a warm run replays cached FTA subtrees without
/// re-emitting the note their cold computation left).
pub fn verdict_doc(document: &str) -> Result<String, String> {
    let value = json::parse(document).map_err(|e| format!("unparseable output: {e}"))?;
    let Value::Record(fields) = value else {
        return Err("output is not a JSON object".into());
    };
    let drop_key = |value: Value, key: &str| match value {
        Value::Record(inner) => {
            Value::Record(inner.into_iter().filter(|(k, _)| k != key).collect())
        }
        other => other,
    };
    let kept = fields
        .into_iter()
        .filter(|(k, _)| k != "stats")
        .map(|(k, v)| match k.as_str() {
            "campaign" => (k, drop_key(v, "slowest")),
            "degraded" => (k, drop_key(v, "notes")),
            _ => (k, v),
        })
        .collect();
    Ok(json::to_string(&Value::Record(kept)))
}

/// The `(component, mode, safety-related, impact)` verdict of every FMEA
/// row of a document.
pub fn verdicts(document: &str) -> Result<Vec<String>, String> {
    let value = json::parse(document).map_err(|e| format!("unparseable output: {e}"))?;
    let rows = value
        .get("fmea")
        .and_then(|f| f.get("rows"))
        .and_then(Value::as_list)
        .ok_or("output has no fmea rows")?;
    Ok(rows
        .iter()
        .map(|row| {
            let field = |k: &str| row.get(k).map(json::to_string).unwrap_or_default();
            format!(
                "{}/{}:{}:{}",
                field("component"),
                field("failure_mode"),
                field("safety_related"),
                field("impact")
            )
        })
        .collect())
}
