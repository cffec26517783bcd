//! The paper's case study (§V): a sensor power-supply system developed as a
//! Safety Element out of Context, in both of SAME's representations — the
//! block-diagram path (§V-A, via [`decisive_blocks::gallery`]) and the
//! manually-modelled SSAM path (§V-B, built here).

use decisive_hara::{Controllability, Exposure, HazardLog, HazardousEvent, Severity};
use decisive_ssam::architecture::{Component, ComponentKind, IoDirection};
use decisive_ssam::base::IntegrityLevel;
use decisive_ssam::id::Idx;
use decisive_ssam::model::SsamModel;
use decisive_ssam::requirement::{Requirement, RequirementPackage};

use crate::reliability::ReliabilityDb;

/// The case study's hazard log: the single top-level hazard *H1: the power
/// supply fails unexpectedly*, assessed to ASIL-B.
pub fn hazard_log() -> HazardLog {
    let mut log = HazardLog::new("sensor-power-supply HARA");
    log.record(HazardousEvent {
        id: "H1".into(),
        description: "The power supply fails unexpectedly".into(),
        situation: "proximity sensor operating".into(),
        severity: Severity::S2,
        exposure: Exposure::E4,
        controllability: Controllability::C2,
        safety_goal: "The power supply shall not fail undetected".into(),
    });
    log
}

/// Builds the §V-B SSAM model of the power-supply system: functional flow
/// `DC1 → D1 → L1 → MC1 → CS1` with the filter capacitors hanging off the
/// stable source, requirements, the H1 hazard, and Table II reliability
/// data aggregated in (DECISIVE Steps 1–3 on the SSAM path).
///
/// Returns the model and its top-level component.
///
/// # Examples
///
/// ```
/// use decisive_core::{case_study, fmea::graph};
///
/// # fn main() -> Result<(), decisive_core::CoreError> {
/// let (model, top) = case_study::ssam_model();
/// let table = graph::run(&model, top, &graph::GraphConfig::default())?;
/// let sr: Vec<_> = table.safety_related_components().into_iter().collect();
/// assert_eq!(sr, vec!["D1", "L1", "MC1"]);
/// # Ok(())
/// # }
/// ```
pub fn ssam_model() -> (SsamModel, Idx<Component>) {
    let mut model = SsamModel::new("sensor-power-supply");

    // Step 1 — requirements and hazards.
    let req = model.add_requirement(Requirement::safety(
        "SR-1",
        "Readings at CS1 shall remain correct while the supply operates",
        IntegrityLevel::AsilB,
    ));
    let mut package = RequirementPackage::new("power-supply requirements");
    package.requirements.push(req);
    model.requirement_packages.push(package);
    hazard_log().to_ssam(&mut model);

    // Step 2 — architectural design (functional flow, Fig. 12).
    let mut top_component = Component::new("sensor-power-supply", ComponentKind::System);
    top_component.integrity = Some(IntegrityLevel::AsilB);
    let top = model.add_component(top_component);
    let child = |model: &mut SsamModel, name: &str, type_key: &str| {
        let mut c = Component::new(name, ComponentKind::Hardware);
        c.type_key = Some(type_key.to_owned());
        model.add_child_component(top, c)
    };
    let dc1 = child(&mut model, "DC1", "DCSource");
    let d1 = child(&mut model, "D1", "Diode");
    let l1 = child(&mut model, "L1", "Inductor");
    let c1 = child(&mut model, "C1", "Capacitor");
    let c2 = child(&mut model, "C2", "Capacitor");
    let mc1 = child(&mut model, "MC1", "MC");
    let cs1 = child(&mut model, "CS1", "CurrentSensor");
    let gnd1 = child(&mut model, "GND1", "Ground");

    model.connect(top, dc1);
    model.connect(dc1, d1);
    model.connect(d1, l1);
    model.connect(l1, mc1);
    model.connect(mc1, cs1);
    model.connect(cs1, top);
    // Filter capacitors across the stable source; ground is a dead end.
    model.connect(dc1, c1);
    model.connect(dc1, c2);
    model.connect(mc1, gnd1);

    // MC1 and CS1 are dynamic — runtime monitors can be generated for them
    // — and CS1 exposes the monitored reading with its admissible limits.
    model.components[mc1].dynamic = true;
    model.components[cs1].dynamic = true;
    let reading = model.add_io_node(cs1, "reading", IoDirection::Output);
    model.io_nodes[reading].value = Some(0.1);
    model.io_nodes[reading].lower_limit = Some(0.08);
    model.io_nodes[reading].upper_limit = Some(0.12);

    // Step 3 — aggregate Table II reliability data.
    ReliabilityDb::paper_table_ii().aggregate_into(&mut model);

    // Traceability (paper §II-C): the safety requirement is allocated to
    // the sensing chain, and loss-of-function failure modes associate with
    // H1 (Fig. 9's "Reference: Hazards").
    let h1 = model.hazards.indices().next().expect("H1 was recorded");
    for component in [d1, l1, mc1] {
        let loss_modes: Vec<_> = model
            .failure_modes_of(component)
            .filter(|(_, fm)| fm.nature.breaks_path())
            .map(|(i, _)| i)
            .collect();
        for fm in loss_modes {
            model.failure_modes[fm].hazards.push(h1);
        }
    }
    for component in [mc1, cs1] {
        model.requirements[req].core.cite(decisive_ssam::base::CiteRef::Component(component));
    }

    // The HARA-side mitigation decision, recorded as a control measure.
    let mut measure = decisive_ssam::hazard::ControlMeasure::new("deploy ECC on MC1");
    measure.mitigates.push(h1);
    measure.decision = Some(decisive_ssam::hazard::SafetyDecision {
        rationale: "MC1's RAM failure dominates the single-point failure rate; \
                    ECC reduces its residual contribution by 99%"
            .to_owned(),
    });
    measure.validation = Some(decisive_ssam::hazard::ValidationPlan {
        description: "re-run the automated FMEDA and check SPFM >= 90%".to_owned(),
        validated: false,
    });
    let measure = model.add_control_measure(measure);
    if let Some(package) = model.hazard_packages.first_mut() {
        package.measures.push(measure);
    }

    (model, top)
}

/// Builds the Table I example: a Phase Locked Loop with three failure
/// modes, their impact classification modelled as
/// [`FailureEffect`](decisive_ssam::architecture::FailureEffect)s
/// (lower frequency DVF, higher frequency IVF, jitter DVF), and the two
/// safety mechanisms of the table (time-out watchdog 70 % on lower
/// frequency, dual-core lockstep 99 % on jitter).
///
/// Returns the model and its top-level component.
pub fn pll_model() -> (SsamModel, Idx<Component>) {
    use decisive_ssam::architecture::{Coverage, FailureEffect, FailureImpact, FailureNature};
    use decisive_ssam::base::ElementCore;

    let mut model = SsamModel::new("pll");
    let top = model.add_component(Component::new("clocking", ComponentKind::System));
    let mut pll = Component::new("PLL", ComponentKind::Hardware);
    pll.type_key = Some("PLL".to_owned());
    pll.fit = Some(decisive_ssam::architecture::Fit::new(50.0));
    pll.safety_related = true;
    let pll = model.add_child_component(top, pll);
    model.connect(top, pll);
    model.connect(pll, top);

    let add_mode = |model: &mut SsamModel, name: &str, nature, dist: f64, impact| {
        let fm = model.add_failure_mode(pll, name, nature, dist);
        let effect = model
            .failure_effects
            .alloc(FailureEffect { core: ElementCore::named(format!("{name} effect")), impact });
        model.failure_modes[fm].effects.push(effect);
        fm
    };
    let lower = add_mode(
        &mut model,
        "lower frequency",
        FailureNature::LossOfFunction,
        0.401,
        FailureImpact::DirectViolation,
    );
    let _higher = add_mode(
        &mut model,
        "higher frequency",
        FailureNature::Erroneous,
        0.287,
        FailureImpact::IndirectViolation,
    );
    let jitter = add_mode(
        &mut model,
        "jitter",
        FailureNature::Erroneous,
        0.312,
        FailureImpact::DirectViolation,
    );
    model.deploy_safety_mechanism(pll, "time-out watchdog", lower, Coverage::new(0.70), 1.0);
    model.deploy_safety_mechanism(pll, "dual-core lockstep", jitter, Coverage::new(0.99), 6.0);
    (model, top)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_well_formed() {
        let (model, _) = ssam_model();
        let issues = decisive_ssam::validate::validate(&model);
        assert!(issues.is_empty(), "unexpected issues: {issues:?}");
    }

    #[test]
    fn hazard_log_targets_asil_b() {
        assert_eq!(hazard_log().highest_asil(), Some(IntegrityLevel::AsilB));
    }

    #[test]
    fn reliability_was_aggregated() {
        let (model, _) = ssam_model();
        let d1 = model.component_by_name("D1").unwrap();
        assert_eq!(model.components[d1].fit.map(|f| f.value()), Some(10.0));
        assert_eq!(model.components[d1].failure_modes.len(), 2);
        let cs1 = model.component_by_name("CS1").unwrap();
        assert!(model.components[cs1].failure_modes.is_empty(), "no Table II entry for sensors");
    }

    #[test]
    fn pll_model_reproduces_table_i() {
        use crate::fmea::graph::{self, GraphConfig};
        use crate::mechanism::Deployment;
        use decisive_ssam::architecture::FailureImpact;

        let (model, top) = pll_model();
        let deployment = Deployment::from_ssam(&model);
        let table = graph::run(&model, top, &GraphConfig::default())
            .expect("graph FMEA runs")
            .with_deployment(&deployment);
        assert_eq!(table.rows.len(), 3);
        let row = |mode: &str| table.rows.iter().find(|r| r.failure_mode == mode).expect("row");
        // Impacts come from the modelled effects, matching Table I.
        assert_eq!(row("lower frequency").impact, Some(FailureImpact::DirectViolation));
        assert_eq!(row("higher frequency").impact, Some(FailureImpact::IndirectViolation));
        assert_eq!(row("jitter").impact, Some(FailureImpact::DirectViolation));
        // Mechanisms and coverages as printed.
        assert_eq!(row("lower frequency").mechanism.as_deref(), Some("time-out watchdog"));
        assert_eq!(row("jitter").mechanism.as_deref(), Some("dual-core lockstep"));
        assert!(row("higher frequency").mechanism.is_none());
        // LFM: the uncovered IVF mode (28.7 % of 50 FIT) is latent.
        assert!((table.lfm() - (1.0 - 0.287)).abs() < 1e-9);
    }

    #[test]
    fn dynamic_component_and_monitored_limits_exist() {
        let (model, _) = ssam_model();
        assert_eq!(model.dynamic_components().count(), 2);
        let cs1 = model.component_by_name("CS1").unwrap();
        let node = model.components[cs1].io_nodes[0];
        assert!(model.io_nodes[node].violates_limits(0.2));
        assert!(!model.io_nodes[node].violates_limits(0.1));
    }
}
