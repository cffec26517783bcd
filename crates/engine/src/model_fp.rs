//! Fingerprints of analysis *inputs*: per-component content, per-container
//! topology and fault-tree structure, analysis configuration, and
//! whole-diagram digests.
//!
//! Cache keys are derived from these, so two rules matter:
//!
//! 1. **Identity is the component name**, not the arena index — names
//!    survive persistence and model edits, indexes do not. Models with
//!    duplicate component names are not cacheable soundly (the SSAM
//!    validator flags them); the engine makes no attempt to distinguish
//!    same-named components.
//! 2. A fingerprint must cover **exactly** the inputs the keyed artefact is
//!    derived from: too little breaks correctness (stale hits), too much
//!    only costs hit rate.

use decisive_core::fmea::graph::{AnalysisScope, GraphAlgorithm, GraphConfig};
use decisive_core::fmea::injection::Candidate;
use decisive_ssam::architecture::Component;
use decisive_ssam::base::CiteRef;
use decisive_ssam::id::Idx;
use decisive_ssam::model::SsamModel;

use crate::fingerprint::{Fingerprint, Hasher};

/// Digest of one component's analysis-relevant content: name, type key,
/// FIT, failure modes (with natures, distributions, hazard associations,
/// affected components, modelled effects and cites) and deployed safety
/// mechanisms. Failure modes are hashed in declaration order, the order
/// `graph::component_rows` emits their rows in.
///
/// Deliberately excludes wiring — that belongs to the *container's*
/// topology fingerprint — so a FIT edit invalidates one component while a
/// rewire invalidates one container.
pub fn component_fingerprint(model: &SsamModel, component: Idx<Component>) -> Fingerprint {
    let c = &model.components[component];
    let mut h = Hasher::new();
    h.write_str("component");
    h.write_str(c.core.name.value());
    match &c.type_key {
        Some(key) => h.write_bool(true).write_str(key),
        None => h.write_bool(false),
    };
    h.write_opt_f64(c.fit.map(|f| f.value()));
    h.write_bool(c.dynamic);

    h.write_u64(c.failure_modes.len() as u64);
    for (_, fm) in model.failure_modes_of(component) {
        let mut m = Hasher::new();
        m.write_str(fm.core.name.value());
        m.write_str(&fm.nature.to_string());
        m.write_f64(fm.distribution);
        let mut hazards: Vec<&str> =
            fm.hazards.iter().map(|&hz| model.hazards[hz].core.name.value()).collect();
        hazards.sort_unstable();
        m.write_u64(hazards.len() as u64);
        for hz in hazards {
            m.write_str(hz);
        }
        let mut affected: Vec<&str> =
            fm.affected_components.iter().map(|&a| model.components[a].core.name.value()).collect();
        affected.sort_unstable();
        m.write_u64(affected.len() as u64);
        for a in affected {
            m.write_str(a);
        }
        m.write_u64(fm.effects.len() as u64);
        for &e in &fm.effects {
            let effect = &model.failure_effects[e];
            m.write_str(&effect.impact.to_string());
            for cite in &effect.core.cites {
                if let CiteRef::Component(cc) = cite {
                    m.write_str(model.components[*cc].core.name.value());
                }
            }
        }
        h.write_fingerprint(m.finish());
    }

    let mut mechanisms: Vec<Fingerprint> = c
        .safety_mechanisms
        .iter()
        .map(|&sm| {
            let m = &model.safety_mechanisms[sm];
            let mut s = Hasher::new();
            s.write_str(m.core.name.value());
            s.write_f64(m.coverage.value());
            s.write_str(model.failure_modes[m.covers].core.name.value());
            s.finish()
        })
        .collect();
    mechanisms.sort_unstable();
    h.write_u64(mechanisms.len() as u64);
    for fp in mechanisms {
        h.write_fingerprint(fp);
    }
    h.finish()
}

/// Digest of one container's internal wiring: its sorted child names and
/// the sorted name-level edge multiset (with the container itself playing
/// the boundary `SRC`/`SINK` roles).
///
/// This is exactly the input of `graph::container_facts`, so a FIT or
/// failure-mode edit leaves it unchanged and the cached facts stay valid.
pub fn topology_fingerprint(model: &SsamModel, container: Idx<Component>) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_str("topology");
    h.write_str(model.components[container].core.name.value());
    let mut children: Vec<&str> = model.components[container]
        .children
        .iter()
        .map(|&c| model.components[c].core.name.value())
        .collect();
    children.sort_unstable();
    h.write_u64(children.len() as u64);
    for child in children {
        h.write_str(child);
    }
    let mut edges: Vec<(String, String)> = model
        .relationships_within(container)
        .map(|(_, rel)| {
            let end = |c: Idx<Component>| {
                if c == container {
                    String::new() // boundary role, distinct from any child name
                } else {
                    model.components[c].core.name.value().to_owned()
                }
            };
            (end(rel.from), end(rel.to))
        })
        .collect();
    edges.sort_unstable();
    h.write_u64(edges.len() as u64);
    for (from, to) in edges {
        h.write_str(&from).write_str(&to);
    }
    h.finish()
}

/// The components a container's fault tree can draw basic events from, in
/// the order the FTA pass's stored subtrees refer to them by position: the
/// children in `children` order, then any component the container's
/// relationships reach that `children` does not list (a parent link the
/// container does not mirror, which the validator flags).
pub fn fault_tree_members(model: &SsamModel, container: Idx<Component>) -> Vec<Idx<Component>> {
    let mut members = model.components[container].children.clone();
    let mut listed = vec![false; model.components.len()];
    for &c in &members {
        listed[c.index()] = true;
    }
    for (_, rel) in model.relationships_within(container) {
        for end in [rel.from, rel.to] {
            if end != container && !std::mem::replace(&mut listed[end.index()], true) {
                members.push(end);
            }
        }
    }
    members
}

/// Digest of everything `decisive_fta::build_fault_tree` reads of one
/// container, in the order it reads it: the container's name, its
/// relationships in declaration order as `(from, to)` names (the container
/// itself playing the boundary role, as in [`topology_fingerprint`]), then
/// each of `members` ([`fault_tree_members`]) with its name and its
/// failure modes in declaration order (name, whether it breaks a path).
///
/// Path order numbers the basic events and orders each cut set, so
/// relationships are hashed unsorted. No FIT, mode share or mission time:
/// cut sets depend on structure alone, and the FTA pass quantifies them
/// with the current numbers on every run.
pub fn fault_tree_fingerprint(
    model: &SsamModel,
    container: Idx<Component>,
    members: &[Idx<Component>],
) -> Fingerprint {
    let name = |c: Idx<Component>| model.components[c].core.name.value();
    let end = |c: Idx<Component>| if c == container { "" } else { name(c) };
    let mut h = Hasher::new();
    h.write_str("fault-tree");
    h.write_str(name(container));
    for (_, rel) in model.relationships_within(container) {
        h.write_bool(true).write_str(end(rel.from)).write_str(end(rel.to));
    }
    h.write_bool(false);
    h.write_u64(members.len() as u64);
    for &member in members {
        h.write_str(name(member));
        h.write_u64(model.components[member].failure_modes.len() as u64);
        for (_, fm) in model.failure_modes_of(member) {
            h.write_str(fm.core.name.value()).write_bool(fm.nature.breaks_path());
        }
    }
    h.finish()
}

/// Digest of the graph analysis configuration (algorithm, path cap, scope).
pub fn graph_config_fingerprint(model: &SsamModel, config: &GraphConfig) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_str("graph-config");
    h.write_str(match config.algorithm {
        GraphAlgorithm::ExhaustivePaths => "paths",
        GraphAlgorithm::CutVertex => "cut",
    });
    h.write_u64(config.max_paths as u64);
    match config.scope {
        AnalysisScope::All => {
            h.write_str("all");
        }
        AnalysisScope::Hazard(hz) => {
            h.write_str("hazard").write_str(model.hazards[hz].core.name.value());
        }
    }
    h.finish()
}

/// Digest of one injection candidate's verdict inputs: block name, type
/// key, block kind, and the failure mode's name and nature.
///
/// Deliberately excludes the FIT and the mode share: a verdict does not
/// depend on them, and the injection pass re-stamps both onto every row
/// it serves (`montecarlo::restamp`), so a FIT-only edit re-solves
/// nothing.
pub fn candidate_fingerprint(candidate: &Candidate) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_str("candidate");
    h.write_str(&candidate.name);
    h.write_str(&candidate.type_key);
    h.write_str(&format!("{:?}", candidate.kind));
    h.write_str(&candidate.mode.name);
    h.write_str(&candidate.mode.nature.to_string());
    h.finish()
}

/// Digest of an arbitrary serialisable artefact through its federation
/// JSON form. Used for whole-circuit keys, where every element influences
/// every injection verdict, and for the FMEA tables, risk logs and FTA
/// summaries later passes are keyed by.
///
/// The JSON is streamed straight from the artefact
/// ([`serde_bridge::to_json_string`]) — the text building a federation
/// value and printing it gave, so keys are unchanged and older stores stay
/// warm.
///
/// [`serde_bridge::to_json_string`]: decisive_federation::serde_bridge::to_json_string
pub fn serialized_fingerprint<T: serde::Serialize + ?Sized>(
    artefact: &T,
    tag: &str,
) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_str(tag);
    match decisive_federation::serde_bridge::to_json_string(artefact) {
        Ok(text) => h.write_str(&text),
        Err(e) => h.write_str("unserialisable").write_str(&e.to_string()),
    };
    h.finish()
}

/// Digest of the monitor-relevant slice of a model: every limited IO node
/// with its owner, limits, and whether a dynamic component encloses it —
/// exactly the inputs of `RuntimeMonitor::generate`.
pub fn monitor_fingerprint(model: &SsamModel) -> Fingerprint {
    let mut entries: Vec<Fingerprint> = model
        .io_nodes
        .iter()
        .filter(|(_, node)| node.lower_limit.is_some() || node.upper_limit.is_some())
        .map(|(_, node)| {
            let owner = &model.components[node.owner];
            let mut dynamic_context = owner.dynamic;
            let mut cur = owner.parent;
            while let Some(p) = cur {
                if model.components[p].dynamic {
                    dynamic_context = true;
                    break;
                }
                cur = model.components[p].parent;
            }
            let mut h = Hasher::new();
            h.write_str(owner.core.name.value());
            h.write_str(node.core.name.value());
            h.write_opt_f64(node.lower_limit);
            h.write_opt_f64(node.upper_limit);
            h.write_bool(dynamic_context);
            h.finish()
        })
        .collect();
    entries.sort_unstable();
    let mut h = Hasher::new();
    h.write_str("monitor-set");
    h.write_u64(entries.len() as u64);
    for fp in entries {
        h.write_fingerprint(fp);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use decisive_core::case_study;
    use decisive_ssam::architecture::Fit;

    #[test]
    fn fit_edit_changes_only_that_component() {
        let (old, _) = case_study::ssam_model();
        let (mut new, _) = case_study::ssam_model();
        let d1 = new.component_by_name("D1").unwrap();
        new.components[d1].fit = Some(Fit::new(99.0));
        let d1_old = old.component_by_name("D1").unwrap();
        assert_ne!(component_fingerprint(&old, d1_old), component_fingerprint(&new, d1));
        let l1_old = old.component_by_name("L1").unwrap();
        let l1_new = new.component_by_name("L1").unwrap();
        assert_eq!(component_fingerprint(&old, l1_old), component_fingerprint(&new, l1_new));
        // Topology sees no change at all.
        let top_old = old
            .component_by_name("PSU")
            .or_else(|| old.components.iter().find(|(_, c)| c.parent.is_none()).map(|(i, _)| i));
        let top_new = new.components.iter().find(|(_, c)| c.parent.is_none()).map(|(i, _)| i);
        assert_eq!(
            topology_fingerprint(&old, top_old.unwrap()),
            topology_fingerprint(&new, top_new.unwrap())
        );
    }

    #[test]
    fn rewiring_changes_the_topology_digest() {
        let (old, old_top) = case_study::ssam_model();
        let (mut new, new_top) = case_study::ssam_model();
        let d1 = new.component_by_name("D1").unwrap();
        let c1 = new.component_by_name("C1").unwrap();
        new.connect(d1, c1);
        assert_ne!(topology_fingerprint(&old, old_top), topology_fingerprint(&new, new_top));
    }

    #[test]
    fn component_digest_follows_failure_mode_order() {
        let (model, _) = case_study::ssam_model();
        let mut reordered = model.clone();
        let d1 = model.component_by_name("D1").unwrap();
        reordered.components[d1].failure_modes.reverse();
        assert_ne!(
            component_fingerprint(&model, d1),
            component_fingerprint(&reordered, d1),
            "rows follow the modes' declaration order"
        );
    }

    #[test]
    fn fault_tree_digest_reads_structure_not_numbers() {
        let (model, top) = case_study::ssam_model();
        let digest = |m: &SsamModel| fault_tree_fingerprint(m, top, &fault_tree_members(m, top));
        let d1 = model.component_by_name("D1").unwrap();
        let mut numbers = model.clone();
        numbers.components[d1].fit = Some(Fit::new(99.0));
        let open = numbers.components[d1].failure_modes[0];
        numbers.failure_modes[open].distribution = 0.5;
        assert_eq!(digest(&numbers), digest(&model), "FIT and share edits keep the key");

        let mut reordered = model.clone();
        reordered.components[d1].failure_modes.reverse();
        assert_ne!(digest(&reordered), digest(&model), "mode order numbers the events");

        let mut rewired = model.clone();
        let relationships: Vec<_> = model.relationships.iter().map(|(_, r)| r.clone()).collect();
        rewired.relationships = decisive_ssam::id::Arena::new();
        for relationship in relationships.into_iter().rev() {
            rewired.relationships.alloc(relationship);
        }
        assert_eq!(topology_fingerprint(&rewired, top), topology_fingerprint(&model, top));
        assert_ne!(digest(&rewired), digest(&model), "path order follows declaration order");
    }

    #[test]
    fn candidate_digest_ignores_reliability_numbers() {
        use decisive_core::fmea::injection::candidates;
        use decisive_core::reliability::ReliabilityDb;
        let (diagram, _) = decisive_blocks::gallery::sensor_power_supply();
        let db = ReliabilityDb::paper_table_ii();
        let mut edited = db.clone();
        let mut diode = edited.get("Diode").unwrap().clone();
        diode.fit = Fit::new(diode.fit.value() * 3.0);
        diode.modes[0].distribution *= 0.5;
        edited.insert(diode);
        let digests = |db: &ReliabilityDb| -> Vec<Fingerprint> {
            candidates(&diagram, db).iter().map(candidate_fingerprint).collect()
        };
        assert_eq!(digests(&db), digests(&edited), "FIT and share edits keep every row key");
        let all = digests(&db);
        let distinct: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len(), "every (block, mode) keeps its own key");
    }

    #[test]
    fn config_scope_distinguishes_hazards() {
        let (model, _) = case_study::ssam_model();
        let all = graph_config_fingerprint(&model, &GraphConfig::default());
        let h1 = model.hazards.indices().next().unwrap();
        let scoped = graph_config_fingerprint(
            &model,
            &GraphConfig { scope: AnalysisScope::Hazard(h1), ..GraphConfig::default() },
        );
        assert_ne!(all, scoped);
    }
}
