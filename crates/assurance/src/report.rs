//! Pipeline-facing assurance reporting: generate a query-backed case from
//! one DECISIVE iteration's artefacts (FMEA/FMEDA table, quantified FTA
//! subtrees, campaign health), evaluate it, and summarise the verdict.
//!
//! The pass manager registers its artefacts under the [`FMEA_LOCATION`],
//! [`FTA_LOCATION`] and [`CAMPAIGN_LOCATION`] memory keys, so the generated
//! case's evidence queries re-run against the *current* iteration — the
//! paper's §V-C automation loop, closed over the whole pipeline instead of
//! a single FMEDA artefact.

use serde::{Deserialize, Serialize};

use decisive_core::campaign::CampaignHealth;
use decisive_core::metrics;
use decisive_federation::DriverRegistry;
use decisive_ssam::base::IntegrityLevel;

use crate::case::{AssuranceCase, CaseError, EvidenceQuery};
use crate::eval::{evaluate, Status};
use crate::generate::spfm_query;

/// Memory-driver key the pipeline publishes the FMEA/FMEDA table under.
pub const FMEA_LOCATION: &str = "artefacts/fmeda";
/// Memory-driver key of the quantified FTA subtree records.
pub const FTA_LOCATION: &str = "artefacts/fta";
/// Memory-driver key of the campaign-health counter record.
pub const CAMPAIGN_LOCATION: &str = "artefacts/campaign";

/// The evidence one pipeline iteration offers to the case generator —
/// plain data, so the builder stays decoupled from the engine.
#[derive(Debug, Clone)]
pub struct PipelineEvidence<'a> {
    /// Name of the analysed system.
    pub system: &'a str,
    /// The integrity target the case argues against (normally the risk
    /// log's highest ASIL).
    pub target: IntegrityLevel,
    /// Per-container FTA results: `(container, analysable, single points)`.
    pub subtrees: &'a [(String, bool, Vec<String>)],
    /// Campaign health of the injection sweep, when one ran.
    pub campaign: Option<&'a CampaignHealth>,
}

/// Builds the standard pipeline assurance case: a root safety goal argued
/// over the architectural metric (SPFM against the target ASIL), the
/// fault-tree structure, and — when an injection campaign ran — campaign
/// health, each backed by an executable evidence query.
///
/// # Errors
///
/// Propagates [`CaseError`] from the structural builders (unreachable for
/// the fixed structure built here, but kept typed so pipeline passes
/// degrade instead of panicking).
pub fn pipeline_case(evidence: &PipelineEvidence<'_>) -> Result<AssuranceCase, CaseError> {
    let mut case = AssuranceCase::new(format!("{} safety case", evidence.system));
    let g1 = case.goal(
        "G1",
        format!("{} is acceptably safe to operate in its defined context", evidence.system),
    );
    case.set_root(g1);
    let c1 = case.context("C1", format!("target integrity level: {}", evidence.target));
    case.try_in_context(g1, c1)?;
    let analysable = evidence.subtrees.iter().filter(|(_, a, _)| *a).count();
    let single_points: usize = evidence.subtrees.iter().map(|(_, _, sp)| sp.len()).sum();
    let c2 = case.context(
        "C2",
        format!("{single_points} single-point event(s) across {analysable} analysable subtree(s)"),
    );
    case.try_in_context(g1, c2)?;
    let s1 = case.strategy(
        "S1",
        "argue over the architectural metric, the fault-tree structure and campaign health",
    );
    case.try_support(g1, s1)?;

    let spfm_target = metrics::spfm_target(evidence.target).unwrap_or(0.0);
    let g2 = case
        .goal("G2", format!("the single point fault metric meets the {} target", evidence.target));
    case.try_support(s1, g2)?;
    let sn2 = case.solution("Sn2", "generated FMEDA evaluated against Eq. 1");
    case.try_support(g2, sn2)?;
    case.try_attach_query(
        sn2,
        EvidenceQuery {
            model_kind: "memory".into(),
            location: FMEA_LOCATION.into(),
            expression: spfm_query(spfm_target),
        },
    )?;

    let g3 = case.goal("G3", "fault-tree analysis quantified the architecture");
    case.try_support(s1, g3)?;
    let sn3 = case.solution("Sn3", "at least one subtree was analysable");
    case.try_support(g3, sn3)?;
    case.try_attach_query(
        sn3,
        EvidenceQuery {
            model_kind: "memory".into(),
            location: FTA_LOCATION.into(),
            expression: "rows.select(r | r.Analysable = 'Yes').size() >= 1".into(),
        },
    )?;

    if evidence.campaign.is_some() {
        let g4 = case.goal("G4", "the fault-injection campaign is trustworthy");
        case.try_support(s1, g4)?;
        let sn4 = case.solution("Sn4", "no campaign case was unsolvable or panicked");
        case.try_support(g4, sn4)?;
        case.try_attach_query(
            sn4,
            EvidenceQuery {
                model_kind: "memory".into(),
                location: CAMPAIGN_LOCATION.into(),
                expression: "rows.exists(c | c.Unsolvable <= 0 and c.Panicked <= 0)".into(),
            },
        )?;
    }
    Ok(case)
}

/// The evaluated verdict of a pipeline assurance case, cacheable and
/// renderable by the CLI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssuranceReport {
    /// The generated case (structure plus queries).
    pub case: AssuranceCase,
    /// The root goal's status.
    pub overall: Status,
    /// Nodes evaluated satisfied.
    pub satisfied: usize,
    /// Total nodes in the case.
    pub total: usize,
    /// `(node id, status)` of every non-satisfied node, in node order.
    pub open: Vec<(String, String)>,
}

impl AssuranceReport {
    /// `true` when the root goal is satisfied.
    pub fn is_satisfied(&self) -> bool {
        self.overall == Status::Satisfied
    }

    /// A compact human-readable summary for the CLI.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# assurance case `{}`: {} ({}/{} node(s) satisfied)",
            self.case.name,
            status_text(&self.overall),
            self.satisfied,
            self.total,
        );
        for (id, status) in &self.open {
            let _ = writeln!(out, "#   open {id}: {status}");
        }
        out
    }
}

/// Evaluates `case` against `registry` and folds the result into an
/// [`AssuranceReport`].
pub fn report_for(case: &AssuranceCase, registry: &DriverRegistry) -> AssuranceReport {
    let evaluation = evaluate(case, registry);
    let mut satisfied = 0;
    let mut open = Vec::new();
    for (node, gsn) in case.nodes() {
        match evaluation.try_status(node) {
            Some(Status::Satisfied) => satisfied += 1,
            Some(status) => open.push((gsn.id.clone(), status_text(status))),
            None => open.push((gsn.id.clone(), "unevaluated".to_owned())),
        }
    }
    AssuranceReport {
        case: case.clone(),
        overall: evaluation.overall(),
        satisfied,
        total: case.len(),
        open,
    }
}

/// Generates and evaluates the pipeline case in one step; a builder error
/// degrades into an errored report instead of failing the pipeline.
pub fn pipeline_report(
    evidence: &PipelineEvidence<'_>,
    registry: &DriverRegistry,
) -> AssuranceReport {
    match pipeline_case(evidence) {
        Ok(case) => report_for(&case, registry),
        Err(e) => AssuranceReport {
            case: AssuranceCase::new(format!("{} safety case", evidence.system)),
            overall: Status::Error(e.to_string()),
            satisfied: 0,
            total: 0,
            open: vec![("G1".to_owned(), format!("error: {e}"))],
        },
    }
}

fn status_text(status: &Status) -> String {
    match status {
        Status::Satisfied => "satisfied".to_owned(),
        Status::Unsatisfied => "unsatisfied".to_owned(),
        Status::Undeveloped => "undeveloped".to_owned(),
        Status::Error(e) => format!("error: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decisive_federation::Value;

    fn subtrees() -> Vec<(String, bool, Vec<String>)> {
        vec![
            ("sensor_power_supply".to_owned(), true, vec!["D1:Open".to_owned()]),
            ("leaf".to_owned(), false, Vec::new()),
        ]
    }

    fn register_artefacts(registry: &DriverRegistry, spf_mc1: f64) {
        let row = |component: &str, fit: f64, spf: f64| {
            Value::record([
                ("Component", Value::from(component)),
                ("FIT", Value::Real(fit)),
                ("Safety_Related", Value::from("Yes")),
                ("Single_Point_Failure_Rate", Value::Real(spf)),
            ])
        };
        registry.memory().register(
            FMEA_LOCATION,
            Value::list([row("D1", 10.0, 3.0), row("L1", 15.0, 4.5), row("MC1", 300.0, spf_mc1)]),
        );
        registry.memory().register(
            FTA_LOCATION,
            Value::list([Value::record([
                ("Container", Value::from("sensor_power_supply")),
                ("Analysable", Value::from("Yes")),
                ("Top_Probability", Value::Real(1e-4)),
                ("Single_Points", Value::Int(1)),
            ])]),
        );
        registry.memory().register(
            CAMPAIGN_LOCATION,
            Value::list([Value::record([
                ("Total", Value::Int(9)),
                ("Converged", Value::Int(9)),
                ("Unsolvable", Value::Int(0)),
                ("Panicked", Value::Int(0)),
            ])]),
        );
    }

    #[test]
    fn refined_design_satisfies_the_generated_case() {
        let trees = subtrees();
        let health = CampaignHealth::default();
        let evidence = PipelineEvidence {
            system: "sensor_power_supply",
            target: IntegrityLevel::AsilB,
            subtrees: &trees,
            campaign: Some(&health),
        };
        let registry = DriverRegistry::with_defaults();
        register_artefacts(&registry, 3.0); // ECC deployed: SPFM 96.77 %
        let report = pipeline_report(&evidence, &registry);
        assert!(report.is_satisfied(), "open items: {:?}", report.open);
        assert_eq!(report.satisfied, report.total);
        assert!(report.render().contains("satisfied"));
    }

    /// A design with no safety-related FIT has SPFM 1.0 (as
    /// `FmeaTable::spfm` defines it), so its SPFM goal holds at any
    /// target instead of erroring on the zero denominator.
    #[test]
    fn a_design_without_safety_related_fit_meets_every_spfm_target() {
        let row = |component: &str, fit: f64, sr: &str| {
            Value::record([
                ("Component", Value::from(component)),
                ("FIT", Value::Real(fit)),
                ("Safety_Related", Value::from(sr)),
                ("Single_Point_Failure_Rate", Value::Real(0.0)),
            ])
        };
        let trees = subtrees();
        for (rows, target) in [
            (Value::list([row("D1", 10.0, "No"), row("L1", 15.0, "No")]), IntegrityLevel::AsilD),
            (Value::list([row("D1", 0.0, "Yes"), row("L1", 15.0, "No")]), IntegrityLevel::AsilB),
            (Value::list([]), IntegrityLevel::Qm),
        ] {
            let evidence =
                PipelineEvidence { system: "vacuous", target, subtrees: &trees, campaign: None };
            let registry = DriverRegistry::with_defaults();
            register_artefacts(&registry, 3.0);
            registry.memory().register(FMEA_LOCATION, rows);
            let report = pipeline_report(&evidence, &registry);
            assert!(report.is_satisfied(), "{target}: open items {:?}", report.open);
        }
    }

    #[test]
    fn unrefined_design_leaves_the_spfm_goal_open() {
        let trees = subtrees();
        let evidence = PipelineEvidence {
            system: "sensor_power_supply",
            target: IntegrityLevel::AsilB,
            subtrees: &trees,
            campaign: None,
        };
        let registry = DriverRegistry::with_defaults();
        register_artefacts(&registry, 300.0); // RAM failure uncovered
        let report = pipeline_report(&evidence, &registry);
        assert_eq!(report.overall, Status::Unsatisfied);
        assert!(report.open.iter().any(|(id, _)| id == "Sn2"));
        assert!(!report.case.render().contains("G4"), "no campaign goal without evidence");
    }
}
