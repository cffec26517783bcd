//! Assurance case generation from DECISIVE safety concepts.
//!
//! DECISIVE Step 5 says the produced artefacts "can be used to provide
//! contextual and evidential information in a (presumably model-based)
//! Assurance Case" — this module makes that step automatic: given the
//! synthesised [`SafetyConcept`] and the location of the published FMEDA
//! artefact, it generates the goal structure *with executable evidence
//! queries already attached*, so the case is born re-checkable.

use decisive_core::metrics;
use decisive_core::process::SafetyConcept;

use crate::case::{AssuranceCase, EvidenceQuery};

/// The Eq. 1 SPFM query over an exported FMEDA artefact, against `target`.
///
/// The denominator — each safety-related component's FIT, once — is
/// computed once, and a design where it is 0 (no safety-related FIT)
/// scores 1.0, as [`FmeaTable::spfm`](decisive_core::fmea::FmeaTable::spfm)
/// defines, instead of failing on a division by zero.
pub(crate) fn spfm_query(target: f64) -> String {
    format!(
        "[rows.select(r | r.Safety_Related = 'Yes').collect(r | [r.Component, r.FIT]).distinct() \
         .collect(p | p[1]).sum()].collect(d | if d = 0 then 1.0 else \
         1.0 - rows.collect(r | r.Single_Point_Failure_Rate).sum() / d endif).first() >= {target}"
    )
}

/// Generates a goal-structured assurance case from `concept`, with its
/// evidence bound to the FMEDA artefact at `(model_kind, location)`.
///
/// The structure follows the paper's §V-C example: a top safety claim,
/// argued over the safety goals, supported by the architectural-metric
/// evidence (the SPFM query) and one machine-checkable solution per
/// mechanism allocation.
///
/// # Examples
///
/// ```
/// use decisive_assurance::generate::case_from_concept;
/// use decisive_core::process::{DecisiveProcess, DesignModel, SystemDefinition};
/// use decisive_core::{case_study, mechanism::MechanismCatalog, reliability::ReliabilityDb};
///
/// # fn main() -> Result<(), decisive_core::CoreError> {
/// let (diagram, _) = decisive_blocks::gallery::sensor_power_supply();
/// let mut process = DecisiveProcess::new(
///     SystemDefinition::new("psu", "supply"),
///     case_study::hazard_log(),
///     DesignModel::Diagram(diagram),
/// )
/// .with_reliability(ReliabilityDb::paper_table_ii())
/// .with_catalog(MechanismCatalog::paper_table_iii());
/// let concept = process.run_to_target(10)?;
/// let case = case_from_concept(&concept, "memory", "artefacts/fmeda");
/// assert!(case.len() >= 5);
/// # Ok(())
/// # }
/// ```
pub fn case_from_concept(
    concept: &SafetyConcept,
    model_kind: &str,
    location: &str,
) -> AssuranceCase {
    let mut case = AssuranceCase::new(format!("{} safety case", concept.system));
    let g1 = case.goal(
        "G1",
        format!("{} is acceptably safe to operate in its defined context", concept.system),
    );
    let c1 = case.context("C1", format!("target integrity level: {}", concept.target));
    let c2 = case.context(
        "C2",
        format!(
            "DECISIVE iterations: {} (final SPFM {:.2}%)",
            concept.iterations.len(),
            concept.spfm * 100.0
        ),
    );
    case.in_context(g1, c1);
    case.in_context(g1, c2);
    case.set_root(g1);

    let s1 = case.strategy("S1", "Argue over each safety goal from the hazard analysis");
    case.support(g1, s1);
    for (i, goal) in concept.safety_goals.iter().enumerate() {
        let g = case.goal(format!("G1.{}", i + 1), goal.clone());
        case.support(s1, g);

        let s_metrics = case.strategy(
            format!("S1.{}", i + 1),
            "Argue over the architectural metrics of the refined design",
        );
        case.support(g, s_metrics);

        // The metric evidence (the paper's stored SPFM query).
        let g_spfm = case.goal(
            format!("G1.{}.1", i + 1),
            format!("the design meets the {} single point fault metric", concept.target),
        );
        case.support(s_metrics, g_spfm);
        let sn =
            case.solution(format!("Sn1.{}.1", i + 1), "generated FMEDA: SPFM meets the target");
        case.support(g_spfm, sn);
        let target = metrics::spfm_target(concept.target).unwrap_or(0.0);
        case.attach_query(
            sn,
            EvidenceQuery {
                model_kind: model_kind.to_owned(),
                location: location.to_owned(),
                expression: spfm_query(target),
            },
        );

        // One machine-checkable claim per mechanism allocation.
        for (j, allocation) in concept.allocations.iter().enumerate() {
            let g_alloc = case.goal(
                format!("G1.{}.{}", i + 1, j + 2),
                format!(
                    "`{}` is deployed on {} covering `{}`",
                    allocation.mechanism, allocation.component, allocation.failure_mode
                ),
            );
            case.support(s_metrics, g_alloc);
            let sn = case.solution(
                format!("Sn1.{}.{}", i + 1, j + 2),
                format!("FMEDA row shows {} on {}", allocation.mechanism, allocation.component),
            );
            case.support(g_alloc, sn);
            case.attach_query(sn, EvidenceQuery {
                model_kind: model_kind.to_owned(),
                location: location.to_owned(),
                expression: format!(
                    "rows.exists(r | r.Component = '{}' and r.Failure_Mode = '{}' and r.Safety_Mechanism = '{}')",
                    allocation.component, allocation.failure_mode, allocation.mechanism
                ),
            });
        }
    }
    case
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, Status};
    use decisive_core::process::{DecisiveProcess, DesignModel, SystemDefinition};
    use decisive_core::{case_study, mechanism::MechanismCatalog, reliability::ReliabilityDb};
    use decisive_federation::DriverRegistry;

    fn concept() -> SafetyConcept {
        let (diagram, _) = decisive_blocks::gallery::sensor_power_supply();
        let mut process = DecisiveProcess::new(
            SystemDefinition::new("power-supply", "sensor supply"),
            case_study::hazard_log(),
            DesignModel::Diagram(diagram),
        )
        .with_reliability(ReliabilityDb::paper_table_ii())
        .with_catalog(MechanismCatalog::paper_table_iii());
        process.run_to_target(10).expect("converges")
    }

    #[test]
    fn generated_case_evaluates_satisfied_on_the_real_artefact() {
        let concept = concept();
        let case = case_from_concept(&concept, "memory", "artefacts/fmeda");

        // Publish the actual refined FMEDA.
        let (diagram, _) = decisive_blocks::gallery::sensor_power_supply();
        let table = decisive_core::fmea::injection::run(
            &diagram,
            &ReliabilityDb::paper_table_ii(),
            &decisive_core::fmea::injection::InjectionConfig::default(),
        )
        .expect("fmea");
        let mut deployment = decisive_core::mechanism::Deployment::new();
        for a in &concept.allocations {
            deployment.deploy(
                a.component.clone(),
                a.failure_mode.clone(),
                decisive_core::mechanism::DeployedMechanism {
                    name: a.mechanism.clone(),
                    coverage: decisive_ssam::architecture::Coverage::new(a.coverage),
                    cost_hours: 0.0,
                },
            );
        }
        let fmeda = table.with_deployment(&deployment);
        let registry = DriverRegistry::with_defaults();
        registry.memory().register("artefacts/fmeda", fmeda.to_value());

        let evaluation = evaluate(&case, &registry);
        assert!(evaluation.is_satisfied(), "open: {:?}", evaluation.open_items());
    }

    #[test]
    fn generated_case_fails_on_the_unrefined_artefact() {
        let concept = concept();
        let case = case_from_concept(&concept, "memory", "artefacts/fmeda");
        let (diagram, _) = decisive_blocks::gallery::sensor_power_supply();
        let table = decisive_core::fmea::injection::run(
            &diagram,
            &ReliabilityDb::paper_table_ii(),
            &decisive_core::fmea::injection::InjectionConfig::default(),
        )
        .expect("fmea");
        let registry = DriverRegistry::with_defaults();
        registry.memory().register("artefacts/fmeda", table.to_value());
        let evaluation = evaluate(&case, &registry);
        assert_eq!(evaluation.overall(), Status::Unsatisfied);
        assert!(!evaluation.open_items().is_empty());
    }

    #[test]
    fn structure_covers_goals_and_allocations() {
        let concept = concept();
        let case = case_from_concept(&concept, "memory", "x");
        // 1 top + 1 strategy + per-goal (goal + strategy + spfm goal + spfm
        // solution) + per-allocation (goal + solution) + 2 contexts.
        let expected = 2
            + concept.safety_goals.len() * 4
            + concept.safety_goals.len() * concept.allocations.len() * 2
            + 2;
        assert_eq!(case.len(), expected);
        let text = case.render();
        assert!(text.contains("ECC"));
        assert!(text.contains("ASIL-B"));
    }
}
