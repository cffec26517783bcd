//! Property-based tests over the toolchain's core invariants.

use proptest::prelude::*;

use decisive::circuit::{Circuit, Fault, NodeId};
use decisive::core::fmea::graph::{self, GraphAlgorithm, GraphConfig};
use decisive::core::fmea::{FmeaRow, FmeaTable};
use decisive::core::mechanism::{
    search, DeployedMechanism, Deployment, MechanismCatalog, MechanismSpec,
};
use decisive::core::metrics;
use decisive::engine::{Engine, EngineConfig, Pipeline, PipelineInput, PipelineRun};
use decisive::federation::{csv, json, Value};
use decisive::fta::{build_fault_tree, fmea_from_fault_tree};
use decisive::ssam::architecture::{
    Component, ComponentKind, Coverage, FailureImpact, FailureNature, Fit,
};
use decisive::ssam::base::LangString;
use decisive::ssam::model::SsamModel;
use decisive::workload::sets::{instance_model, set_by_name};

// ---------------------------------------------------------------------------
// Federation invariants
// ---------------------------------------------------------------------------

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(Value::Real),
        "[ -~]{0,20}".prop_map(Value::from),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_scalar().prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..4).prop_map(Value::record),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// JSON print → parse is the identity on every representable value.
    #[test]
    fn json_roundtrip(v in arb_value()) {
        let text = json::to_string(&v);
        let back = json::parse(&text).expect("printed JSON reparses");
        prop_assert_eq!(back, v);
    }

    /// CSV roundtrip over flat tables of typed cells.
    #[test]
    fn csv_roundtrip(rows in proptest::collection::vec(
        (any::<i64>(), -1e6f64..1e6, "[ -~&&[^,\"\r\n]]{0,12}"),
        1..8,
    )) {
        let table = Value::List(rows.iter().map(|(i, r, s)| Value::record([
            ("n", Value::Int(*i)),
            ("x", Value::Real(*r)),
            ("s", if s.trim().parse::<f64>().is_ok() || s.trim().is_empty() {
                // Avoid cells that would re-type on parse.
                Value::from("cell")
            } else {
                Value::from(s.as_str())
            }),
        ])).collect());
        let text = csv::to_string(&table);
        let back = csv::parse(&text).expect("printed CSV reparses");
        for (a, b) in table.as_list().unwrap().iter().zip(back.as_list().unwrap()) {
            prop_assert_eq!(a.get("n"), b.get("n"));
            let (ax, bx) = (a.get("x").unwrap().as_f64().unwrap(), b.get("x").unwrap().as_f64().unwrap());
            prop_assert!((ax - bx).abs() <= 1e-9 * ax.abs().max(1.0));
            prop_assert_eq!(a.get("s"), b.get("s"));
        }
    }
}

// ---------------------------------------------------------------------------
// Circuit invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// A series resistor chain obeys Ohm's law, and opening any element
    /// kills the current while shorting one only increases it.
    #[test]
    fn series_chain_obeys_ohm(
        resistances in proptest::collection::vec(1.0f64..10_000.0, 1..6),
        volts in 1.0f64..48.0,
        fault_at in 0usize..6,
    ) {
        let mut c = Circuit::new("chain");
        let top = c.node();
        let mut prev = top;
        c.add_voltage_source("V", top, NodeId::GROUND, volts).unwrap();
        let mut elements = Vec::new();
        for (i, r) in resistances.iter().enumerate() {
            let next = c.node();
            elements.push(c.add_resistor(format!("R{i}"), prev, next, *r).unwrap());
            prev = next;
        }
        let cs = c.add_current_sensor("CS", prev, NodeId::GROUND).unwrap();
        let total: f64 = resistances.iter().sum();
        let sol = c.dc().unwrap();
        let i_nominal = c.sensor_reading(&sol, cs).unwrap();
        prop_assert!((i_nominal - volts / total).abs() < 1e-6 * (volts / total).max(1.0));

        let target = elements[fault_at % elements.len()];
        let open = c.with_fault(target, Fault::Open).unwrap();
        let i_open = open.sensor_reading(&open.dc().unwrap(), cs).unwrap();
        prop_assert!(i_open.abs() < 1e-6, "open element must cut the chain, got {}", i_open);

        let short = c.with_fault(target, Fault::Short).unwrap();
        let i_short = short.sensor_reading(&short.dc().unwrap(), cs).unwrap();
        prop_assert!(i_short >= i_nominal - 1e-9, "short cannot reduce current");
    }
}

// ---------------------------------------------------------------------------
// FMEA invariants
// ---------------------------------------------------------------------------

fn arb_table() -> impl Strategy<Value = FmeaTable> {
    proptest::collection::vec(
        (
            0u8..6,        // component index
            1.0f64..500.0, // FIT
            0.01f64..1.0,  // distribution
            any::<bool>(), // safety related
            0.0f64..1.0,   // coverage
        ),
        1..12,
    )
    .prop_map(|rows| {
        let mut table = FmeaTable::new("prop");
        for (i, (comp, fit, dist, sr, cov)) in rows.into_iter().enumerate() {
            table.push(FmeaRow {
                component: format!("C{comp}"),
                type_key: Some("X".to_owned()),
                fit: Fit::new(fit),
                failure_mode: format!("FM{i}"),
                nature: FailureNature::LossOfFunction,
                distribution: dist,
                safety_related: sr,
                impact: None,
                mechanism: None,
                coverage: Coverage::new(cov),
                warning: None,
            });
        }
        table
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// SPFM always lands in [0, 1] — for any table shape. (The FIT
    /// denominator uses each component's total FIT, which can differ per
    /// row here; the metric still stays bounded because residuals never
    /// exceed the per-row mode FIT.)
    #[test]
    fn spfm_is_bounded(table in arb_table()) {
        // Harmonise per-component FIT so the table is self-consistent.
        let mut table = table;
        let mut fit_of = std::collections::HashMap::new();
        for row in &table.rows {
            fit_of.entry(row.component.clone()).or_insert(row.fit);
        }
        let mut share_count = std::collections::HashMap::new();
        for row in &table.rows {
            *share_count.entry(row.component.clone()).or_insert(0usize) += 1;
        }
        for row in &mut table.rows {
            row.fit = fit_of[&row.component];
            row.distribution = 1.0 / share_count[&row.component] as f64;
        }
        let spfm = table.spfm();
        prop_assert!((0.0..=1.0).contains(&spfm), "spfm = {}", spfm);
    }

    /// Deploying mechanisms can only improve (or preserve) the SPFM.
    #[test]
    fn deployment_is_monotone(table in arb_table(), cov in 0.0f64..1.0) {
        let base = table.with_deployment(&Deployment::new());
        let mut deployment = Deployment::new();
        for row in &base.rows {
            deployment.deploy(row.component.clone(), row.failure_mode.clone(), DeployedMechanism {
                name: "m".into(),
                coverage: Coverage::new(cov),
                cost_hours: 1.0,
            });
        }
        let refined = base.with_deployment(&deployment);
        prop_assert!(refined.spfm() + 1e-12 >= base.spfm());
    }

    /// The Pareto front is sorted by cost with strictly increasing SPFM.
    #[test]
    fn pareto_front_is_well_formed(table in arb_table(), specs in proptest::collection::vec(
        (0.1f64..1.0, 0.1f64..10.0), 1..4,
    )) {
        let mut catalog = MechanismCatalog::new();
        for (i, (cov, cost)) in specs.into_iter().enumerate() {
            for fm in table.rows.iter().map(|r| r.failure_mode.clone()) {
                catalog.push(MechanismSpec {
                    component_type: "X".into(),
                    failure_mode: fm,
                    name: format!("m{i}"),
                    coverage: Coverage::new(cov),
                    cost_hours: cost,
                });
            }
        }
        let base = table.with_deployment(&Deployment::new());
        let front = search::pareto_front(&base, &catalog).expect("dp front");
        prop_assert!(!front.is_empty());
        prop_assert_eq!(front[0].cost, 0.0);
        for pair in front.windows(2) {
            prop_assert!(pair[0].cost <= pair[1].cost);
            prop_assert!(pair[0].spfm < pair[1].spfm);
        }
    }
}

/// `table` made self-consistent for Eq. 1: every row of a component takes
/// the component's first FIT, and rows the FMEA cleared as not
/// safety-related are indirect violations, so LFM counts latent rates.
fn consistent(mut table: FmeaTable) -> FmeaTable {
    let mut fit_of = std::collections::HashMap::new();
    for row in &mut table.rows {
        row.fit = *fit_of.entry(row.component.clone()).or_insert(row.fit);
        row.impact = Some(if row.safety_related {
            FailureImpact::DirectViolation
        } else {
            FailureImpact::IndirectViolation
        });
    }
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Eq. 1 is a ratio of FIT sums, and PMHF is the residual FIT sum:
    /// scaling every FIT by `k` leaves SPFM and LFM unchanged and scales
    /// PMHF by `k`.
    #[test]
    fn scaling_every_fit_scales_only_pmhf(table in arb_table(), k in 0.01f64..100.0) {
        let base = consistent(table);
        let mut scaled = base.clone();
        for row in &mut scaled.rows {
            row.fit = Fit::new(row.fit.value() * k);
        }
        prop_assert!((scaled.spfm() - base.spfm()).abs() < 1e-12);
        prop_assert!((scaled.lfm() - base.lfm()).abs() < 1e-12);
        let (p, q) = (metrics::pmhf(&base), metrics::pmhf(&scaled));
        prop_assert!((q - k * p).abs() <= 1e-9 * (k * p).abs(), "pmhf {} -> {} under k = {}", p, q, k);
    }

    /// The metrics are sums over rows: listing the rows in another order
    /// changes none of SPFM, LFM and PMHF.
    #[test]
    fn row_order_changes_no_metric(
        table in arb_table(),
        keys in proptest::collection::vec(any::<u64>(), 12..13),
    ) {
        let base = consistent(table);
        let mut order: Vec<usize> = (0..base.rows.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut permuted = base.clone();
        permuted.rows = order.iter().map(|&i| base.rows[i].clone()).collect();
        prop_assert!((permuted.spfm() - base.spfm()).abs() < 1e-12);
        prop_assert!((permuted.lfm() - base.lfm()).abs() < 1e-12);
        let (p, q) = (metrics::pmhf(&base), metrics::pmhf(&permuted));
        prop_assert!((q - p).abs() <= 1e-9 * p.abs(), "pmhf {} -> {}", p, q);
    }

    /// Names identify components and failure modes, nothing more: an
    /// injective renaming of both leaves SPFM, LFM and PMHF bit for bit.
    #[test]
    fn renaming_changes_no_metric(
        table in arb_table(),
        prefix in "[a-z]{0,4}",
        keys in proptest::collection::vec(any::<u64>(), 6..7),
    ) {
        let base = consistent(table);
        // Components trade names by a permutation of `C0`..`C5`; modes
        // take a prefix and read backwards.
        let mut order: Vec<usize> = (0..6).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut renamed = base.clone();
        for row in &mut renamed.rows {
            let index: usize = row.component[1..].parse().expect("a generated component name");
            row.component = format!("C{}", order[index]);
            row.failure_mode = format!("{prefix}{}", row.failure_mode.chars().rev().collect::<String>());
        }
        prop_assert_eq!(renamed.spfm().to_bits(), base.spfm().to_bits());
        prop_assert_eq!(renamed.lfm().to_bits(), base.lfm().to_bits());
        prop_assert_eq!(metrics::pmhf(&renamed).to_bits(), metrics::pmhf(&base).to_bits());
    }
}

// ---------------------------------------------------------------------------
// Graph FMEA and FTA agreement on random DAGs
// ---------------------------------------------------------------------------

/// Builds a random layered DAG model from proptest-chosen edges.
fn dag_model(
    n: usize,
    edges: &[(usize, usize)],
) -> (SsamModel, decisive::ssam::id::Idx<Component>) {
    let mut model = SsamModel::new("dag");
    let top = model.add_component(Component::new("top", ComponentKind::System));
    let nodes: Vec<_> = (0..n)
        .map(|i| {
            let mut c = Component::new(format!("c{i}"), ComponentKind::Hardware);
            c.fit = Some(Fit::new(10.0));
            let c = model.add_child_component(top, c);
            model.add_failure_mode(c, "Open", FailureNature::LossOfFunction, 1.0);
            c
        })
        .collect();
    model.connect(top, nodes[0]);
    model.connect(nodes[n - 1], top);
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a < b {
            model.connect(nodes[a], nodes[b]);
        }
    }
    // Keep the backbone connected so at least one path exists.
    for w in nodes.windows(2) {
        model.connect(w[0], w[1]);
    }
    (model, top)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// The paper's Algorithm 1 (exhaustive paths) and the optimised
    /// cut-vertex variant agree on arbitrary DAG topologies — the
    /// correctness argument for the ablation.
    #[test]
    fn graph_algorithms_agree(
        n in 2usize..7,
        edges in proptest::collection::vec((0usize..7, 0usize..7), 0..12),
    ) {
        let (model, top) = dag_model(n, &edges);
        let exhaustive = graph::run(&model, top, &GraphConfig {
            algorithm: GraphAlgorithm::ExhaustivePaths,
            ..GraphConfig::default()
        }).expect("paths fit the cap");
        let cut = graph::run(&model, top, &GraphConfig::default()).expect("cut vertex runs");
        prop_assert_eq!(exhaustive.disagreement(&cut), 0.0);
    }

    /// The FTA-derived FMEA (HiP-HOPS baseline) agrees with the direct
    /// graph FMEA on arbitrary DAG topologies.
    #[test]
    fn fta_baseline_agrees_on_dags(
        n in 2usize..6,
        edges in proptest::collection::vec((0usize..6, 0usize..6), 0..8),
    ) {
        let (model, top) = dag_model(n, &edges);
        let direct = graph::run(&model, top, &GraphConfig::default()).expect("direct");
        let synthesised = build_fault_tree(&model, top, 1_000_000).expect("synthesis");
        let via_fta = fmea_from_fault_tree(&synthesised, &model, top);
        prop_assert_eq!(direct.disagreement(&via_fta), 0.0);
    }

    /// Minimal cut sets are pairwise incomparable (truly minimal).
    #[test]
    fn cut_sets_are_minimal(
        n in 2usize..6,
        edges in proptest::collection::vec((0usize..6, 0usize..6), 0..8),
    ) {
        let (model, top) = dag_model(n, &edges);
        let synthesised = build_fault_tree(&model, top, 1_000_000).expect("synthesis");
        let mcs = synthesised.tree.minimal_cut_sets();
        for (i, a) in mcs.iter().enumerate() {
            for (j, b) in mcs.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_subset(b), "cut set {:?} ⊆ {:?}", a, b);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental engine: random edit scripts never diverge from full re-analysis
// ---------------------------------------------------------------------------

/// One component of the editable chain. The `id` is stable across edits, so
/// removing a component does not rename the survivors — edits stay local.
#[derive(Debug, Clone)]
struct CompSpec {
    id: usize,
    fit: f64,
    mechanism: bool,
}

/// A random model edit, in the vocabulary of the paper's iterative loop.
#[derive(Debug, Clone)]
enum EditOp {
    AddComponent { fit: f64 },
    RemoveComponent { at: usize },
    FitDrift { at: usize, fit: f64 },
    DeployMechanism { at: usize },
}

fn arb_edit_op() -> impl Strategy<Value = EditOp> {
    prop_oneof![
        (1.0f64..200.0).prop_map(|fit| EditOp::AddComponent { fit }),
        (0usize..64).prop_map(|at| EditOp::RemoveComponent { at }),
        (0usize..64, 1.0f64..200.0).prop_map(|(at, fit)| EditOp::FitDrift { at, fit }),
        (0usize..64).prop_map(|at| EditOp::DeployMechanism { at }),
    ]
}

fn apply_edit(specs: &mut Vec<CompSpec>, next_id: &mut usize, op: &EditOp) {
    match op {
        EditOp::AddComponent { fit } => {
            specs.push(CompSpec { id: *next_id, fit: *fit, mechanism: false });
            *next_id += 1;
        }
        EditOp::RemoveComponent { at } => {
            // Keep a non-degenerate chain so the analysis stays meaningful.
            if specs.len() > 2 {
                let i = at % specs.len();
                specs.remove(i);
            }
        }
        EditOp::FitDrift { at, fit } => {
            let i = at % specs.len();
            specs[i].fit = *fit;
        }
        EditOp::DeployMechanism { at } => {
            let i = at % specs.len();
            specs[i].mechanism = true;
        }
    }
}

/// Builds the chain model described by `specs` (same shape as
/// `workload::sets::chain_model`, plus optional deployed mechanisms).
fn materialize_chain(specs: &[CompSpec]) -> (SsamModel, decisive::ssam::id::Idx<Component>) {
    let mut model = SsamModel::new("edit-chain");
    let top = model.add_component(Component::new("top", ComponentKind::System));
    let mut prev = None;
    for spec in specs {
        let mut c = Component::new(format!("c{}", spec.id), ComponentKind::Hardware);
        c.fit = Some(Fit::new(spec.fit));
        let c = model.add_child_component(top, c);
        let fm = model.add_failure_mode(c, "Open", FailureNature::LossOfFunction, 1.0);
        if spec.mechanism {
            model.deploy_safety_mechanism(c, "SM", fm, Coverage::new(0.9), 1.0);
        }
        match prev {
            None => model.connect(top, c),
            Some(p) => model.connect(p, c),
        };
        prev = Some(c);
    }
    if let Some(last) = prev {
        model.connect(last, top);
    }
    (model, top)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Applying an arbitrary edit script and re-analysing through the
    /// incremental engine's warm cache produces exactly the from-scratch
    /// result — rows, SPFM and achieved ASIL.
    #[test]
    fn incremental_rerun_matches_full_recomputation(
        base_n in 3usize..8,
        ops in proptest::collection::vec(arb_edit_op(), 1..10),
    ) {
        let mut specs: Vec<CompSpec> =
            (0..base_n).map(|id| CompSpec { id, fit: 10.0, mechanism: false }).collect();
        let mut next_id = base_n;
        let (old_model, old_top) = materialize_chain(&specs);
        for op in &ops {
            apply_edit(&mut specs, &mut next_id, op);
        }
        let (new_model, new_top) = materialize_chain(&specs);

        let mut engine = Engine::new(EngineConfig::with_jobs(2));
        engine.analyze_graph(&old_model, old_top).expect("baseline analysis");
        let (incremental, _report) =
            engine.rerun(&old_model, &new_model, new_top).expect("incremental rerun");
        let full = graph::run(&new_model, new_top, &GraphConfig::default()).expect("full run");
        prop_assert_eq!(&incremental, &full);

        let (mi, mf) = (metrics::compute(&incremental), metrics::compute(&full));
        prop_assert_eq!(mi.achieved_asil, mf.achieved_asil);
        prop_assert!((incremental.spfm() - full.spfm()).abs() < 1e-12);

        // And the built-in escape hatch agrees on the warm cache.
        let verified = engine.verify_against_full(&new_model, new_top).expect("verification");
        prop_assert_eq!(verified, full);
    }
}

/// Every artefact of a pipeline run by pass id, in `Debug` form: floats
/// print their shortest round-trip text, so equal text is equal bits.
fn artefact_texts(run: &PipelineRun) -> std::collections::BTreeMap<String, String> {
    run.artifacts().map(|(id, artefact)| (id.to_owned(), format!("{artefact:?}"))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// The FTA pass is keyed by exactly what synthesis reads — subtree
    /// structure — so random FIT, mode-share and mission-time edits on
    /// Set1 and Set3 instances and on the edit chain re-run no MOCUS on a
    /// warm engine, whose artefacts (the risk log, assessed on every run,
    /// included) still equal a fresh engine's bit for bit.
    #[test]
    fn numeric_edits_rerun_no_fta_or_hara_and_match_a_fresh_engine(
        which in 0usize..3,
        instance in 0u64..4,
        edits in proptest::collection::vec((0usize..1000, 0.0f64..500.0, 0.0f64..=1.0), 1..6),
        mission_hours in 1.0f64..1e6,
    ) {
        let (model, top) = match which {
            0 => instance_model(&set_by_name("Set1").expect("Set1"), instance, 1),
            1 => instance_model(&set_by_name("Set3").expect("Set3"), instance, 2),
            _ => materialize_chain(
                &(0..6).map(|id| CompSpec { id, fit: 10.0, mechanism: id % 2 == 0 }).collect::<Vec<_>>(),
            ),
        };
        let mut edited = model.clone();
        let components: Vec<_> = edited.components.indices().filter(|&c| c != top).collect();
        for &(at, fit, share) in &edits {
            let c = components[at % components.len()];
            edited.components[c].fit = Some(Fit::new(fit));
            let fm = edited.components[c].failure_modes[0];
            edited.failure_modes[fm].distribution = share;
        }
        let pipeline = Pipeline::standard(false);
        let mut warm = Engine::new(EngineConfig::with_jobs(2));
        warm.run_pipeline(&pipeline, &PipelineInput::for_model(&model, top)).expect("priming run");
        warm.reset_stats();
        let input = PipelineInput::for_model(&edited, top).with_mission_hours(mission_hours);
        let served = warm.run_pipeline(&pipeline, &input).expect("warm run");
        let fresh = Engine::new(EngineConfig::with_jobs(2))
            .run_pipeline(&pipeline, &input)
            .expect("fresh run");
        prop_assert_eq!(artefact_texts(&served), artefact_texts(&fresh));
        let executed = warm.stats().phase("fta-subtrees").expect("phase ran").jobs_executed;
        prop_assert!(executed == 0, "fta-subtrees executed {} job(s)", executed);
    }
}

/// Renaming every component changes no metric through the engine either:
/// rows are rebuilt on every run from container facts stored by component
/// name, so a warm engine that analysed the original must not hand the
/// renamed model the original's names. Every component takes the next
/// one's name (arena order, wrapping), an injective renaming that reuses
/// the original names; Set1 and Set3 instances.
#[test]
fn renaming_every_component_reaches_a_warm_engine() {
    for (set, seed) in [("Set1", 1), ("Set3", 2)] {
        let set = set_by_name(set).expect("a Table VI set");
        for instance in 0..3 {
            let (model, top) = instance_model(&set, instance, seed);
            let names: Vec<String> =
                model.components.iter().map(|(_, c)| c.core.name.value().to_owned()).collect();
            let mut renamed = model.clone();
            for (i, c) in renamed.components.indices().collect::<Vec<_>>().into_iter().enumerate() {
                renamed.components[c].core.name = LangString::new(&names[(i + 1) % names.len()]);
            }
            let label = format!("{} instance {instance}", set.name);
            let mut warm = Engine::new(EngineConfig::with_jobs(2));
            let original = warm.analyze_graph(&model, top).expect("original");
            let served = warm.analyze_graph(&renamed, top).expect("warm renamed");
            let fresh = Engine::new(EngineConfig::with_jobs(2))
                .analyze_graph(&renamed, top)
                .expect("fresh renamed");
            assert_eq!(served, fresh, "{label}: a warm engine serves a fresh engine's table");
            assert_ne!(served, original, "{label}: the rows carry the new names");
            assert_eq!(served.spfm().to_bits(), original.spfm().to_bits(), "{label}: SPFM");
            assert_eq!(served.lfm().to_bits(), original.lfm().to_bits(), "{label}: LFM");
        }
    }
}
