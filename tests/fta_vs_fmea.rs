//! Integration test: FTA versus FMEA — the HiP-HOPS-style baseline
//! (generate the FMEA *from* fault trees) must agree with DECISIVE's direct
//! FMEA wherever both apply, and the quantitative FTA must order risks
//! consistently with the FMEDA's residual rates.

use std::collections::BTreeMap;

use decisive::core::fmea::graph::{self, GraphConfig};
use decisive::core::{case_study, mechanism::Deployment};
use decisive::engine::fingerprint::Hasher;
use decisive::engine::Engine;
use decisive::fta::{build_fault_tree, fmea_from_fault_tree, FaultTree, Gate};
use decisive::ssam::architecture::{Component, ComponentKind, FailureNature, Fit};
use decisive::ssam::id::Idx;
use decisive::ssam::model::SsamModel;
use decisive::workload::sets::{chain_model, instance_model, ladder_model, set_by_name};

/// The case study through both pipelines.
#[test]
fn baseline_agrees_on_the_case_study() {
    let (model, top) = case_study::ssam_model();
    let direct = graph::run(&model, top, &GraphConfig::default()).expect("direct FMEA");
    let synthesised = build_fault_tree(&model, top, 10_000).expect("tree synthesis");
    let via_fta = fmea_from_fault_tree(&synthesised, &model, top);
    assert_eq!(direct.disagreement(&via_fta), 0.0);
    assert!((direct.spfm() - via_fta.spfm()).abs() < 1e-12);
}

/// Chains: every component is a single point in both pipelines.
#[test]
fn baseline_agrees_on_chains() {
    for n in [1, 2, 5, 17] {
        let (model, top) = chain_model(n);
        let direct = graph::run(&model, top, &GraphConfig::default()).expect("direct FMEA");
        let synthesised = build_fault_tree(&model, top, 100_000).expect("tree synthesis");
        let via_fta = fmea_from_fault_tree(&synthesised, &model, top);
        assert_eq!(direct.disagreement(&via_fta), 0.0, "chain of {n}");
        assert_eq!(synthesised.tree.single_points().len(), n);
    }
}

/// Redundancy ladders: no single points in either pipeline; the fault tree
/// additionally quantifies the *pairs*.
#[test]
fn baseline_agrees_on_ladders() {
    let (model, top) = ladder_model(2, 3);
    let direct = graph::run(&model, top, &GraphConfig::default()).expect("direct FMEA");
    let synthesised = build_fault_tree(&model, top, 100_000).expect("tree synthesis");
    let via_fta = fmea_from_fault_tree(&synthesised, &model, top);
    assert_eq!(direct.disagreement(&via_fta), 0.0);
    assert!(direct.safety_related_components().is_empty());
    // FTA goes further than FMEA here: it sees the dual-point cut sets.
    let mcs = synthesised.tree.minimal_cut_sets();
    assert!(!mcs.is_empty());
    assert!(mcs.iter().all(|cs| cs.len() >= 2), "ladder has no single points");
}

/// "FTA and FMEA can be federated for quantitative system safety analysis"
/// (future work 1): deploying ECC lowers the MCU's FTA importance in step
/// with its FMEDA residual rate.
#[test]
fn quantified_fta_tracks_the_fmeda_refinement() {
    let (mut model, top) = case_study::ssam_model();
    let before = build_fault_tree(&model, top, 10_000).expect("synthesis");
    let q_before = before.tree.quantify(10_000.0);
    let mc1_event = before.event_of[&("MC1".to_owned(), "RAM Failure".to_owned())];
    let fv_before = q_before.fussell_vesely[&mc1_event];

    // Propagate the ECC deployment back into the SSAM model (paper §IV-D2)
    // — for quantification we model the covered share as a reduced rate.
    let mut deployment = Deployment::new();
    deployment.deploy(
        "MC1",
        "RAM Failure",
        decisive::core::mechanism::DeployedMechanism {
            name: "ECC".into(),
            coverage: decisive::ssam::architecture::Coverage::new(0.99),
            cost_hours: 2.0,
        },
    );
    deployment.apply_to_ssam(&mut model).expect("names resolve");
    // Residual modelling: scale the component FIT by the uncovered share.
    let mc1 = model.component_by_name("MC1").expect("MC1");
    model.components[mc1].fit = Some(Fit::new(300.0 * 0.01));
    let after = build_fault_tree(&model, top, 10_000).expect("synthesis");
    let q_after = after.tree.quantify(10_000.0);
    let mc1_event = after.event_of[&("MC1".to_owned(), "RAM Failure".to_owned())];
    let fv_after = q_after.fussell_vesely[&mc1_event];

    assert!(fv_before > 0.9, "uncovered MCU dominates: {fv_before}");
    assert!(fv_after < 0.5, "ECC demotes the MCU: {fv_after}");
    assert!(q_after.top_probability < q_before.top_probability);
}

/// Voting-gate trees model the SSAM 2oo3 tolerance type.
#[test]
fn voting_gates_match_tolerance_semantics() {
    let mut ft = FaultTree::new("2oo3 channel failure");
    let channels: Vec<_> = (0..3).map(|i| ft.basic(format!("ch{i}"), Fit::new(100.0))).collect();
    let top = ft.event("function lost", Gate::Voting { k: 2 }, channels);
    ft.set_top(top);
    let mcs = ft.minimal_cut_sets();
    assert_eq!(mcs.len(), 3, "three channel pairs");
    assert!(ft.single_points().is_empty());
    // Failure tolerance matches the SSAM ToleranceType.
    use decisive::ssam::architecture::ToleranceType;
    assert_eq!(ToleranceType::TwoOutOfThree.failures_tolerated(), 1);
    assert_eq!(mcs[0].len() as u8, ToleranceType::TwoOutOfThree.failures_tolerated() + 1);
}

/// Hand-built SSAM models with mixed series/parallel structure keep the
/// pipelines in agreement.
#[test]
fn mixed_topology_agreement() {
    let mut model = SsamModel::new("mixed");
    let top = model.add_component(Component::new("top", ComponentKind::System));
    let mk = |model: &mut SsamModel, name: &str| {
        let mut c = Component::new(name, ComponentKind::Hardware);
        c.fit = Some(Fit::new(10.0));
        let c = model.add_child_component(top, c);
        model.add_failure_mode(c, "Open", FailureNature::LossOfFunction, 1.0);
        c
    };
    // top → front → {left, right} → back → top
    let front = mk(&mut model, "front");
    let left = mk(&mut model, "left");
    let right = mk(&mut model, "right");
    let back = mk(&mut model, "back");
    model.connect(top, front);
    model.connect(front, left);
    model.connect(front, right);
    model.connect(left, back);
    model.connect(right, back);
    model.connect(back, top);
    let direct = graph::run(&model, top, &GraphConfig::default()).expect("direct FMEA");
    let synthesised = build_fault_tree(&model, top, 1_000).expect("synthesis");
    let via_fta = fmea_from_fault_tree(&synthesised, &model, top);
    assert_eq!(direct.disagreement(&via_fta), 0.0);
    let sr: Vec<_> = direct.safety_related_components().into_iter().collect();
    assert_eq!(sr, vec!["back", "front"], "series elements only");
}

/// Folds one cold `Engine::analyze_fta` run into `h`: every subtree's
/// container, `analysable`, top-probability bits, single points and named
/// cut sets, then the run's degraded-mode notes, which it returns.
fn digest_fta(h: &mut Hasher, model: &SsamModel, top: Idx<Component>) -> Vec<String> {
    let mut engine = Engine::builder().jobs(1).build().expect("in-memory engine");
    let summaries = engine.analyze_fta(model, top, 10_000.0).expect("fta pass");
    h.write_str(model.name.value());
    for s in &summaries {
        h.write_str(&s.container);
        h.write_u64(u64::from(s.analysable));
        h.write_u64(s.top_probability.to_bits());
        h.write_u64(s.single_points.len() as u64);
        for event in &s.single_points {
            h.write_str(event);
        }
        h.write_u64(s.minimal_cut_sets.len() as u64);
        for cut_set in &s.minimal_cut_sets {
            h.write_u64(cut_set.len() as u64);
            for event in cut_set {
                h.write_str(event);
            }
        }
    }
    let notes = engine.degraded_report().notes.clone();
    h.write_u64(notes.len() as u64);
    for note in &notes {
        h.write_str(note);
    }
    notes
}

/// The FTA pass's output is pinned bit for bit: a digest recorded before
/// MOCUS and tree synthesis were reworked, over Set3 fleet instances of
/// seeds 1 and 2 (the first two of each of the five redundant-bundle
/// widths) and a ladder whose expansion exceeds the MOCUS budget.
#[test]
fn fta_output_matches_the_recorded_digest() {
    let set3 = set_by_name("Set3").expect("Set3");
    let mut h = Hasher::new();
    for seed in [1, 2] {
        let mut picked: BTreeMap<usize, usize> = BTreeMap::new();
        for instance in 0..256 {
            let (model, top) = instance_model(&set3, instance, seed);
            let bundle = model
                .components
                .iter()
                .filter(|(_, c)| c.core.name.value().starts_with('r'))
                .count();
            let seen = picked.entry(bundle).or_insert(0);
            if *seen == 2 {
                continue;
            }
            *seen += 1;
            assert!(digest_fta(&mut h, &model, top).is_empty(), "seed {seed} instance {instance}");
            if picked.values().sum::<usize>() == 10 {
                break;
            }
        }
        assert_eq!(picked.len(), 5, "seed {seed} covers every bundle width: {picked:?}");
        assert!(picked.values().all(|&n| n == 2), "seed {seed}: {picked:?}");
    }
    let (ladder, top) = ladder_model(2, 8);
    assert_eq!(
        digest_fta(&mut h, &ladder, top),
        vec![
            "fta subtree `top` could not be quantified: cut-set expansion exceeded 50000 working sets"
                .to_owned()
        ]
    );
    assert_eq!(h.finish().to_string(), "6c491610af20f9f1");
}
