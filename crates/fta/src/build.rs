//! Fault tree synthesis from SSAM architecture models, and FMEA-table
//! generation from fault trees — the HiP-HOPS-style pipeline the paper
//! compares against ("FMEA tables can be generated from the fault trees",
//! §VII) and names as future work item 1.
//!
//! The synthesis uses the classic path-set dual: the function at the
//! container's boundary is lost iff **every** input→output path is broken,
//! and a path breaks when **any** of its components suffers a
//! loss-of-function failure. The resulting tree is `AND` over paths of
//! `OR` over the path components' loss events.

use std::collections::{HashMap, HashSet};

use decisive_core::fmea::{FmeaRow, FmeaTable};
use decisive_ssam::architecture::{Component, Coverage, FailureImpact, FailureMode, Fit};
use decisive_ssam::id::Idx;
use decisive_ssam::model::SsamModel;

use crate::tree::{FaultTree, Gate, NodeId};

/// Errors produced by fault tree synthesis.
#[derive(Debug, Clone, PartialEq)]
pub enum FtaError {
    /// The container has no input→output path to analyse.
    NoPaths {
        /// The container component's name.
        container: String,
    },
    /// Path enumeration exceeded the configured cap.
    TooManyPaths {
        /// The configured cap.
        max_paths: usize,
    },
    /// MOCUS expansion exceeded the configured working-set cap — the
    /// redundancy structure is too entangled for cut-set extraction at
    /// this budget.
    TooManyCutSets {
        /// The configured cap on the intermediate cut-set family.
        max_sets: usize,
    },
    /// The requested mission time cannot parameterise a failure
    /// probability.
    InvalidMissionTime {
        /// The offending value.
        mission_hours: f64,
    },
    /// A structural invariant of the tree was violated (dangling child or
    /// top reference, or a gate leaking into a cut set).
    MalformedTree {
        /// Human-readable description of the violation.
        message: String,
    },
}

impl std::fmt::Display for FtaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtaError::NoPaths { container } => {
                write!(f, "component `{container}` has no input→output paths")
            }
            FtaError::TooManyPaths { max_paths } => {
                write!(f, "path enumeration exceeded {max_paths} paths")
            }
            FtaError::TooManyCutSets { max_sets } => {
                write!(f, "cut-set expansion exceeded {max_sets} working sets")
            }
            FtaError::InvalidMissionTime { mission_hours } => {
                write!(f, "mission time must be positive and finite, got {mission_hours}")
            }
            FtaError::MalformedTree { message } => write!(f, "malformed fault tree: {message}"),
        }
    }
}

impl std::error::Error for FtaError {}

/// A synthesised tree plus the `(component, failure mode) → basic event`
/// correspondence needed to relate FTA results back to the model.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisedTree {
    /// The fault tree.
    pub tree: FaultTree,
    /// Basic event of each `(component name, failure mode name)`.
    pub event_of: HashMap<(String, String), NodeId>,
    /// The `(component, failure mode)` each basic event was resolved
    /// from, in node-id order. Where a `(component name, failure mode
    /// name)` pair repeats, the event carries the rate of the first one a
    /// path met.
    pub sources: Vec<(Idx<Component>, Idx<FailureMode>)>,
}

/// Synthesises the fault tree of losing `container`'s boundary function.
///
/// # Errors
///
/// Returns [`FtaError::NoPaths`] for containers without input→output flow
/// and [`FtaError::TooManyPaths`] past `max_paths`.
pub fn build_fault_tree(
    model: &SsamModel,
    container: Idx<Component>,
    max_paths: usize,
) -> Result<SynthesisedTree, FtaError> {
    let container_name = model.components[container].core.name.value().to_owned();
    let paths = enumerate_paths(model, container, max_paths)?;
    if paths.is_empty() {
        return Err(FtaError::NoPaths { container: container_name });
    }
    let mut tree = FaultTree::new(format!("loss of function at `{container_name}`"));
    let mut event_of: HashMap<(String, String), NodeId> = HashMap::new();
    let mut sources = Vec::new();
    // Each component's loss events, resolved the first time a path meets
    // it, so basic events are numbered in first-seen order.
    let mut loss_of: HashMap<Idx<Component>, Vec<NodeId>> = HashMap::new();
    // The last path (1-based) each node joined, so repeats are dropped
    // without scanning the path's events.
    let mut joined: Vec<usize> = Vec::new();
    let mut path_nodes = Vec::with_capacity(paths.len());
    for (i, path) in paths.iter().enumerate() {
        let mut loss_events = Vec::new();
        for &component in path {
            let events = loss_of.entry(component).or_insert_with(|| {
                let c = &model.components[component];
                model
                    .failure_modes_of(component)
                    .filter(|(_, fm)| fm.nature.breaks_path())
                    .map(|(mode, fm)| {
                        let key = (c.core.name.value().to_owned(), fm.core.name.value().to_owned());
                        *event_of.entry(key).or_insert_with_key(|key| {
                            sources.push((component, mode));
                            let fit = c.fit.unwrap_or(Fit::ZERO) * fm.distribution;
                            tree.basic(format!("{}:{}", key.0, key.1), fit)
                        })
                    })
                    .collect()
            });
            joined.resize(tree.len(), 0);
            for &event in events.iter() {
                if joined[event.raw() as usize] != i + 1 {
                    joined[event.raw() as usize] = i + 1;
                    loss_events.push(event);
                }
            }
        }
        path_nodes.push(tree.try_event(format!("path {} broken", i + 1), Gate::Or, loss_events)?);
    }
    let top =
        tree.try_event(format!("loss of function at `{container_name}`"), Gate::And, path_nodes)?;
    tree.try_set_top(top)?;
    Ok(SynthesisedTree { tree, event_of, sources })
}

/// All simple SRC→SINK paths through `container`'s children, as component
/// lists.
fn enumerate_paths(
    model: &SsamModel,
    container: Idx<Component>,
    max_paths: usize,
) -> Result<Vec<Vec<Idx<Component>>>, FtaError> {
    // Adjacency among children plus the container as both SRC and SINK.
    let mut succ: HashMap<Option<Idx<Component>>, Vec<Idx<Component>>> = HashMap::new();
    let mut to_sink: Vec<Idx<Component>> = Vec::new();
    for (_, rel) in model.relationships_within(container) {
        if rel.to == container {
            if rel.from != container {
                to_sink.push(rel.from);
            }
            continue;
        }
        let from = if rel.from == container { None } else { Some(rel.from) };
        succ.entry(from).or_default().push(rel.to);
    }
    let mut paths = Vec::new();
    let mut stack: Vec<Idx<Component>> = Vec::new();
    let mut on_path: std::collections::HashSet<Idx<Component>> = std::collections::HashSet::new();
    dfs(&succ, &to_sink, None, &mut stack, &mut on_path, &mut paths, max_paths)?;
    Ok(paths)
}

fn dfs(
    succ: &HashMap<Option<Idx<Component>>, Vec<Idx<Component>>>,
    to_sink: &[Idx<Component>],
    at: Option<Idx<Component>>,
    stack: &mut Vec<Idx<Component>>,
    on_path: &mut std::collections::HashSet<Idx<Component>>,
    paths: &mut Vec<Vec<Idx<Component>>>,
    max_paths: usize,
) -> Result<(), FtaError> {
    if let Some(component) = at {
        if to_sink.contains(&component) {
            if paths.len() >= max_paths {
                return Err(FtaError::TooManyPaths { max_paths });
            }
            paths.push(stack.clone());
        }
    }
    if let Some(nexts) = succ.get(&at) {
        for &next in nexts {
            if on_path.contains(&next) {
                continue;
            }
            on_path.insert(next);
            stack.push(next);
            dfs(succ, to_sink, Some(next), stack, on_path, paths, max_paths)?;
            stack.pop();
            on_path.remove(&next);
        }
    }
    Ok(())
}

/// Generates an FMEA table from a synthesised fault tree: a failure mode is
/// safety-related iff its basic event forms a singleton minimal cut set —
/// the HiP-HOPS-style FMEA-from-FTA baseline.
///
/// The minimal cut sets are computed once per call, and every row's
/// verdict and impact is looked up in them, so the baseline costs one
/// MOCUS run plus a pass over the failure modes.
pub fn fmea_from_fault_tree(
    synthesised: &SynthesisedTree,
    model: &SsamModel,
    container: Idx<Component>,
) -> FmeaTable {
    let cut_sets = synthesised.tree.minimal_cut_sets();
    let single_points: HashSet<NodeId> =
        cut_sets.iter().filter(|cs| cs.len() == 1).flatten().copied().collect();
    let in_some_cut: HashSet<NodeId> = cut_sets.iter().flatten().copied().collect();
    let mut table = FmeaTable::new(model.components[container].core.name.value());
    for component in model.descendants_of(container) {
        let c = &model.components[component];
        for (_, fm) in model.failure_modes_of(component) {
            let key = (c.core.name.value().to_owned(), fm.core.name.value().to_owned());
            let event = synthesised.event_of.get(&key);
            let safety_related = event.is_some_and(|e| single_points.contains(e));
            // Impact from the cut-set view: a single-point event directly
            // violates the goal; an event appearing only in multi-event cut
            // sets violates it with a second fault; an event in no cut set
            // (or unmodelled) has no effect on this top event.
            let impact = event.map(|e| {
                if single_points.contains(e) {
                    FailureImpact::DirectViolation
                } else if in_some_cut.contains(e) {
                    FailureImpact::IndirectViolation
                } else {
                    FailureImpact::NoEffect
                }
            });
            table.push(FmeaRow {
                component: key.0,
                type_key: c.type_key.clone(),
                fit: c.fit.unwrap_or(Fit::ZERO),
                failure_mode: key.1,
                nature: fm.nature.clone(),
                distribution: fm.distribution,
                safety_related,
                impact,
                mechanism: None,
                coverage: Coverage::NONE,
                warning: (!fm.nature.breaks_path()).then(|| {
                    format!(
                        "failure mode `{}` has nature `{}` — not represented in the loss-of-function fault tree",
                        fm.core.name, fm.nature
                    )
                }),
            });
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use decisive_core::case_study;
    use decisive_core::fmea::graph;

    #[test]
    fn case_study_tree_has_one_path_and_three_single_points() {
        let (model, top) = case_study::ssam_model();
        let synthesised = build_fault_tree(&model, top, 10_000).unwrap();
        let mcs = synthesised.tree.minimal_cut_sets();
        assert_eq!(mcs.len(), 3, "D1:Open, L1:Open, MC1:RAM Failure");
        assert!(mcs.iter().all(|s| s.len() == 1));
        let names = synthesised.tree.cut_sets_by_name();
        let flattened: Vec<&str> = names.iter().flatten().map(String::as_str).collect();
        assert!(flattened.contains(&"D1:Open"));
        assert!(flattened.contains(&"L1:Open"));
        assert!(flattened.contains(&"MC1:RAM Failure"));
    }

    /// The headline comparison: FMEA derived from the fault tree agrees
    /// with the direct graph FMEA (the paper's differentiator is that its
    /// "generation of FMEA does not rely on the existence of a fault tree";
    /// here we show both pipelines agree on the case study).
    #[test]
    fn fta_derived_fmea_matches_direct_graph_fmea() {
        let (model, top) = case_study::ssam_model();
        let synthesised = build_fault_tree(&model, top, 10_000).unwrap();
        let via_fta = fmea_from_fault_tree(&synthesised, &model, top);
        let direct = graph::run(&model, top, &graph::GraphConfig::default()).unwrap();
        assert_eq!(via_fta.disagreement(&direct), 0.0);
        assert!((via_fta.spfm() - direct.spfm()).abs() < 1e-12);
    }

    #[test]
    fn case_study_quantification_is_dominated_by_the_mcu() {
        let (model, top) = case_study::ssam_model();
        let synthesised = build_fault_tree(&model, top, 10_000).unwrap();
        let q = synthesised.tree.quantify(10_000.0);
        let mc1 = synthesised.event_of[&("MC1".to_owned(), "RAM Failure".to_owned())];
        let d1 = synthesised.event_of[&("D1".to_owned(), "Open".to_owned())];
        assert!(q.fussell_vesely[&mc1] > 0.9, "300 FIT dominates");
        assert!(q.fussell_vesely[&mc1] > q.fussell_vesely[&d1]);
        assert!(q.top_probability > 0.0 && q.top_probability < 1.0);
    }

    #[test]
    fn no_paths_is_an_error() {
        let mut model = SsamModel::new("m");
        let top = model.add_component(Component::new(
            "top",
            decisive_ssam::architecture::ComponentKind::System,
        ));
        assert!(matches!(build_fault_tree(&model, top, 100), Err(FtaError::NoPaths { .. })));
    }

    #[test]
    fn path_cap_is_enforced() {
        use decisive_ssam::architecture::ComponentKind;
        let mut model = SsamModel::new("wide");
        let top = model.add_component(Component::new("top", ComponentKind::System));
        // Three parallel single-hop paths; cap at 2.
        for i in 0..3 {
            let c = model
                .add_child_component(top, Component::new(format!("c{i}"), ComponentKind::Hardware));
            model.connect(top, c);
            model.connect(c, top);
        }
        assert!(matches!(
            build_fault_tree(&model, top, 2),
            Err(FtaError::TooManyPaths { max_paths: 2 })
        ));
        let ok = build_fault_tree(&model, top, 10).unwrap();
        // Redundant paths: the only cut sets need one event per path, but
        // with no failure modes modelled the paths cannot break at all.
        assert!(ok.tree.minimal_cut_sets().is_empty());
    }

    /// Events are keyed by `(component, failure mode)` name: two modes of
    /// one name, or two components of one name on a path, add one basic
    /// event to the path, numbered where the path first meets it.
    #[test]
    fn repeated_names_share_one_event_per_path() {
        use decisive_ssam::architecture::{ComponentKind, FailureNature};
        let mut model = SsamModel::new("twins");
        let top = model.add_component(Component::new("top", ComponentKind::System));
        let mut prev = top;
        let mut first_modes = Vec::new();
        for name in ["a", "b", "a"] {
            let c = model.add_child_component(top, Component::new(name, ComponentKind::Hardware));
            model.components[c].fit = Some(Fit::new(10.0));
            let first = model.add_failure_mode(c, "Open", FailureNature::LossOfFunction, 0.5);
            model.add_failure_mode(c, "Open", FailureNature::LossOfFunction, 0.5);
            model.connect(prev, c);
            first_modes.push((c, first));
            prev = c;
        }
        model.connect(prev, top);
        let synthesised = build_fault_tree(&model, top, 100).unwrap();
        let tree = &synthesised.tree;
        let names: Vec<&str> = tree.basic_events().map(|(_, name, _)| name).collect();
        assert_eq!(names, ["a:Open", "b:Open"]);
        assert_eq!(synthesised.sources, first_modes[..2], "the first `a` and mode a path met");
        let path = tree.nodes().find(|(_, n)| n.name() == "path 1 broken").unwrap().1;
        let crate::tree::Node::Event { children, .. } = path else { panic!("a gate") };
        let ids: Vec<u32> = children.iter().map(|c| c.raw()).collect();
        assert_eq!(ids, [0, 1]);
        assert_eq!(tree.single_points().len(), 2);
    }

    #[test]
    fn redundant_paths_produce_multi_event_cut_sets() {
        use decisive_ssam::architecture::{ComponentKind, FailureNature};
        let mut model = SsamModel::new("redundant");
        let top = model.add_component(Component::new("top", ComponentKind::System));
        for name in ["a", "b"] {
            let c = model.add_child_component(top, Component::new(name, ComponentKind::Hardware));
            model.components[c].fit = Some(Fit::new(10.0));
            model.add_failure_mode(c, "Open", FailureNature::LossOfFunction, 1.0);
            model.connect(top, c);
            model.connect(c, top);
        }
        let synthesised = build_fault_tree(&model, top, 100).unwrap();
        let mcs = synthesised.tree.minimal_cut_sets();
        assert_eq!(mcs.len(), 1);
        assert_eq!(mcs[0].len(), 2, "both redundant channels must fail");
        assert!(synthesised.tree.single_points().is_empty());
        // And the derived FMEA sees no single points either.
        let table = fmea_from_fault_tree(&synthesised, &model, top);
        assert!(table.safety_related_components().is_empty());
    }
}
