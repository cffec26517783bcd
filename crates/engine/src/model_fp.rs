//! Fingerprints of analysis *inputs*: per-container topology and
//! fault-tree structure, analysis configuration, injection candidates, and
//! whole-artefact digests.
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
use decisive_ssam::id::Idx;
use decisive_ssam::model::SsamModel;

use crate::fingerprint::{Fingerprint, Hasher};

/// Digest of one container's internal wiring: its sorted child names and
/// the sorted name-level edge multiset (with the container itself playing
/// the boundary `SRC`/`SINK` roles).
///
/// This is exactly the input of `graph::container_facts`, so a FIT or
/// failure-mode edit leaves it unchanged and the cached facts stay valid.
/// The graph FMEA pass computes each component's rows from those facts on
/// every run.
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
