//! Cross-route oracle for the assurance case's SPFM evidence: the Sn2
//! query the pipeline generates, evaluated by EQL over the published
//! FMEDA, must reach the verdict `FmeaTable::spfm` (paper Eq. 1) reaches
//! against the case's target — including on designs with no
//! safety-related FIT, whose SPFM is 1.0 by definition.

use std::path::Path;

use decisive::core::case_study;
use decisive::core::metrics::spfm_target;
use decisive::core::request::{AnalysisOp, AnalysisRequest, RunSpec};
use decisive::engine::{Engine, OpArtifact, OpOutput};
use decisive::ssam::base::IntegrityLevel;
use decisive::workload::sets::{instance_model, set_by_name};

/// Checks one pipeline run; returns whether its design was vacuous (no
/// safety-related FIT).
fn check(name: &str, output: &OpOutput) -> bool {
    let OpArtifact::Pipeline(run) = &output.artifact else { panic!("{name}: not a pipeline") };
    let table = run.fmea().expect("FMEA table");
    let target = run.risk_log().and_then(|log| log.highest_asil()).unwrap_or(IntegrityLevel::Qm);
    let report = run.assurance().expect("assurance report");
    let sn2 = report.open.iter().find(|(id, _)| id == "Sn2").map(|(_, status)| status.as_str());
    assert!(!sn2.is_some_and(|s| s.starts_with("error")), "{name}: Sn2 errored: {sn2:?}");
    let meets = table.spfm() >= spfm_target(target).unwrap_or(0.0);
    assert_eq!(
        sn2.is_none(),
        meets,
        "{name}: Sn2 {sn2:?} but SPFM {} against the {target} target",
        table.spfm()
    );
    let vacuous = table.rows.iter().filter(|r| r.safety_related).all(|r| r.fit.value() == 0.0);
    if vacuous {
        assert!(sn2.is_none(), "{name}: a vacuous design meets any target");
    }
    vacuous
}

#[test]
fn spfm_evidence_agrees_with_the_fmea_metric() {
    let spec = RunSpec::default();
    let mut vacuous = 0;
    let mut checked = 0;
    for set_name in ["Set1", "Set3"] {
        let set = set_by_name(set_name).expect("a Table VI set");
        for seed in [1, 2] {
            for instance in 0..12 {
                let (model, _) = instance_model(&set, instance, seed);
                let name = format!("{set_name} seed {seed} instance {instance}");
                let mut engine = Engine::builder().jobs(1).build().expect("engine");
                let output =
                    engine.execute_model(AnalysisOp::Pipeline, &model, &name, &spec).expect("run");
                vacuous += usize::from(check(&name, &output));
                checked += 1;
            }
        }
    }
    let (model, _) = case_study::ssam_model();
    let mut engine = Engine::builder().jobs(1).build().expect("engine");
    let output =
        engine.execute_model(AnalysisOp::Pipeline, &model, "case study", &spec).expect("run");
    check("case study", &output);

    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
    let mut designs: Vec<_> = std::fs::read_dir(&data)
        .expect("data directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bd"))
        .collect();
    designs.sort();
    assert!(!designs.is_empty());
    for design in designs {
        let path = design.to_string_lossy().into_owned();
        let mut engine = Engine::builder().jobs(1).build().expect("engine");
        let output = engine
            .execute(&AnalysisRequest::new(AnalysisOp::Pipeline, path.clone(), spec.clone()))
            .expect("run");
        check(&path, &output);
        checked += 1;
    }
    assert!(vacuous > 0, "no vacuous design among {checked} runs");
}
