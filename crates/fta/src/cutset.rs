//! Minimal cut set extraction (MOCUS) and quantification.

use std::collections::BTreeSet;

use crate::build::FtaError;
use crate::tree::{FaultTree, Gate, Node, NodeId};

/// A cut set: a set of basic events whose joint occurrence fails the top
/// event.
pub type CutSet = BTreeSet<NodeId>;

/// Default cap on the intermediate cut-set family during MOCUS expansion,
/// used by [`FaultTree::try_quantify`] and the pipeline's FTA pass.
/// Redundancy structures whose product exceeds it (deep fully-connected
/// ladders are exponential even with absorption) surface as
/// [`FtaError::TooManyCutSets`] — a typed degradation, never a hang.
pub const MOCUS_BUDGET: usize = 50_000;

impl FaultTree {
    /// Computes the minimal cut sets of the top event using MOCUS-style
    /// top-down expansion followed by minimisation.
    ///
    /// Returns an empty vector when no top event is set. Voting gates
    /// `k/n` expand into OR-of-ANDs over all `k`-subsets of their inputs.
    pub fn minimal_cut_sets(&self) -> Vec<CutSet> {
        self.try_minimal_cut_sets(usize::MAX).expect("unbounded MOCUS cannot overflow")
    }

    /// [`FaultTree::minimal_cut_sets`] with a cap on the intermediate
    /// working family, for callers (the pipeline's FTA pass) that must
    /// stay responsive on adversarial redundancy structures.
    ///
    /// The expansion counts working sets the way the textbook MOCUS
    /// listing does — duplicates a voting gate concatenates included,
    /// products counted before they are deduplicated — so the cap trips
    /// on exactly the trees whose expansion would outgrow it. One call is
    /// all a caller needs: the single points are the singleton sets at
    /// the front of the result, and [`FaultTree::top_probability`]
    /// quantifies it.
    ///
    /// # Errors
    ///
    /// [`FtaError::TooManyCutSets`] when any intermediate family exceeds
    /// `max_sets`.
    pub fn try_minimal_cut_sets(&self, max_sets: usize) -> Result<Vec<CutSet>, FtaError> {
        let Some(top) = self.top() else {
            return Ok(Vec::new());
        };
        Ok(self.expand(top, max_sets)?.minimal())
    }

    /// The cut sets of `node`, absorbed but not fully minimised.
    fn expand(&self, node: NodeId, budget: usize) -> Result<Family, FtaError> {
        let too_many = || FtaError::TooManyCutSets { max_sets: budget };
        match self.node(node) {
            Node::Basic { .. } => Ok(Family { singles: vec![node.0], sets: Vec::new() }),
            Node::Event { gate, children, .. } => match gate {
                Gate::Or => {
                    let mut out = Family::default();
                    for &c in children {
                        out.append(self.expand(c, budget)?);
                        if out.len() > budget {
                            return Err(too_many());
                        }
                    }
                    out.dedup();
                    Ok(out)
                }
                Gate::And => {
                    let mut acc = Family::unit();
                    for &c in children {
                        acc = cross(&acc, &self.expand(c, budget)?, budget)?;
                    }
                    Ok(acc)
                }
                Gate::Voting { k } => {
                    // k-out-of-n failure: OR over all k-subsets ANDed. The
                    // subsets' products are concatenated, duplicates and
                    // all, as the budget counts them.
                    let mut out = Family::default();
                    for subset in combinations(children, *k as usize) {
                        let mut sets = Family::unit();
                        for c in subset {
                            sets = cross(&sets, &self.expand(c, budget)?, budget)?;
                        }
                        out.append(sets);
                        if out.len() > budget {
                            return Err(too_many());
                        }
                    }
                    out.singles.sort_unstable();
                    Ok(out)
                }
            },
        }
    }
}

/// An intermediate MOCUS family: its singleton sets kept apart as ids,
/// every other set (the empty one included) as an ascending id vector.
/// Like the list of cut sets it stands for, it may hold duplicates until
/// [`Family::dedup`]; [`Family::len`] counts them, because the budget
/// does.
#[derive(Debug, Clone, Default)]
struct Family {
    /// Ids of the singleton sets; ascending, repeats allowed, in every
    /// family `expand` returns.
    singles: Vec<u32>,
    /// The sets of every other size, each ascending.
    sets: Vec<Vec<u32>>,
}

impl Family {
    /// `{∅}`, the identity of the AND product.
    fn unit() -> Family {
        Family { singles: Vec::new(), sets: vec![Vec::new()] }
    }

    fn len(&self) -> usize {
        self.singles.len() + self.sets.len()
    }

    fn append(&mut self, other: Family) {
        self.singles.extend(other.singles);
        self.sets.extend(other.sets);
    }

    fn push(&mut self, set: Vec<u32>) {
        match set[..] {
            [single] => self.singles.push(single),
            _ => self.sets.push(set),
        }
    }

    /// Sorts and drops duplicate sets.
    fn dedup(&mut self) {
        self.singles.sort_unstable();
        self.singles.dedup();
        self.sets.sort_unstable();
        self.sets.dedup();
    }

    /// Removes duplicates and supersets, returning the minimal cut sets
    /// sorted by size then content (singletons — the single-point faults
    /// — first). Each survivor becomes a [`CutSet`] only here.
    fn minimal(mut self) -> Vec<CutSet> {
        self.dedup();
        // The empty set absorbs every other: the top event always fails.
        if self.sets.first().is_some_and(Vec::is_empty) {
            return vec![CutSet::new()];
        }
        let singles = &self.singles;
        let mut sets: Vec<Vec<u32>> = self
            .sets
            .into_iter()
            .filter(|s| s.iter().all(|e| singles.binary_search(e).is_err()))
            .collect();
        sets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        let mut kept: Vec<Vec<u32>> = Vec::new();
        for candidate in sets {
            // Distinct sets of one size never contain each other.
            let mut smaller = kept.iter().take_while(|m| m.len() < candidate.len());
            if !smaller.any(|m| is_subset(m, &candidate)) {
                kept.push(candidate);
            }
        }
        singles
            .iter()
            .map(std::slice::from_ref)
            .chain(kept.iter().map(Vec::as_slice))
            .map(|set| set.iter().map(|&e| NodeId(e)).collect())
            .collect()
    }
}

/// The absorption-aware AND product of two cut-set families; `acc` is
/// deduplicated, `child` may repeat sets.
///
/// An element that stands alone in *both* factors is a cut set of the
/// product on its own, and every product set containing it is a superset
/// — dropped here rather than left for the final minimisation. This is
/// the classical MOCUS absorption rule, and it is what keeps
/// series/parallel systems polynomial: the long series chain shared by
/// every path collapses to singletons on the first product instead of
/// appearing in a quadratic number of pairs. With both factors'
/// singletons held as ascending ids, finding those elements is one
/// sorted intersection, and the product's budget count — the absorbed
/// singletons plus one set per surviving pair, before deduplication — is
/// known before any pair is built.
fn cross(acc: &Family, child: &Family, budget: usize) -> Result<Family, FtaError> {
    let absorbed = intersect(&acc.singles, &child.singles);
    let live = |id: &u32| absorbed.binary_search(id).is_err();
    let acc_singles: Vec<u32> = acc.singles.iter().copied().filter(live).collect();
    let child_singles: Vec<u32> = child.singles.iter().copied().filter(live).collect();
    let acc_sets: Vec<&[u32]> =
        acc.sets.iter().map(Vec::as_slice).filter(|s| s.iter().all(live)).collect();
    let child_sets: Vec<&[u32]> =
        child.sets.iter().map(Vec::as_slice).filter(|s| s.iter().all(live)).collect();
    let pairs =
        (acc_singles.len() + acc_sets.len()).saturating_mul(child_singles.len() + child_sets.len());
    if pairs > 0 && absorbed.len().saturating_add(pairs) > budget {
        return Err(FtaError::TooManyCutSets { max_sets: budget });
    }
    let acc_live = acc_singles.iter().map(std::slice::from_ref).chain(acc_sets);
    let child_live: Vec<&[u32]> =
        child_singles.iter().map(std::slice::from_ref).chain(child_sets).collect();
    let mut out = Family { singles: absorbed, sets: Vec::new() };
    for a in acc_live {
        for c in &child_live {
            out.push(union(a, c));
        }
    }
    out.dedup();
    Ok(out)
}

/// The distinct ids present in both ascending lists.
fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if out.last() != Some(&a[i]) {
                    out.push(a[i]);
                }
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The ascending union of two ascending id sets.
fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Whether ascending `small` is a subset of ascending `big`.
fn is_subset(small: &[u32], big: &[u32]) -> bool {
    let mut rest = big.iter();
    small.iter().all(|e| rest.find(|&b| b >= e) == Some(e))
}

fn combinations(items: &[NodeId], k: usize) -> Vec<Vec<NodeId>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if items.len() < k {
        return Vec::new();
    }
    let mut out = Vec::new();
    let first = items[0];
    for mut rest in combinations(&items[1..], k - 1) {
        rest.insert(0, first);
        out.push(rest);
    }
    out.extend(combinations(&items[1..], k));
    out
}

/// Removes duplicate and superset cut sets, returning them sorted by size
/// then content (singletons — the single-point faults — first).
pub fn minimise(sets: Vec<CutSet>) -> Vec<CutSet> {
    let mut family = Family::default();
    for set in sets {
        family.push(set.iter().map(|e| e.0).collect());
    }
    family.minimal()
}

/// The textbook MOCUS expansion over `BTreeSet` cut sets that
/// [`FaultTree::try_minimal_cut_sets`] replaced, kept as the differential
/// oracle for its results and for where its budget trips.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn try_minimal_cut_sets(
        tree: &FaultTree,
        max_sets: usize,
    ) -> Result<Vec<CutSet>, FtaError> {
        let Some(top) = tree.top() else {
            return Ok(Vec::new());
        };
        let expanded = expand(tree, top, max_sets)?;
        Ok(minimise(expanded))
    }

    fn expand(tree: &FaultTree, node: NodeId, budget: usize) -> Result<Vec<CutSet>, FtaError> {
        match tree.node(node) {
            Node::Basic { .. } => Ok(vec![std::iter::once(node).collect()]),
            Node::Event { gate, children, .. } => match gate {
                Gate::Or => {
                    let mut out = Vec::new();
                    for &c in children {
                        out.extend(expand(tree, c, budget)?);
                        if out.len() > budget {
                            return Err(FtaError::TooManyCutSets { max_sets: budget });
                        }
                    }
                    out.sort();
                    out.dedup();
                    Ok(out)
                }
                Gate::And => {
                    let mut acc: Vec<CutSet> = vec![CutSet::new()];
                    for &c in children {
                        acc = cross(acc, &expand(tree, c, budget)?, budget)?;
                    }
                    Ok(acc)
                }
                Gate::Voting { k } => {
                    let k = *k as usize;
                    let mut out = Vec::new();
                    for subset in combinations(children, k) {
                        let mut sets: Vec<CutSet> = vec![CutSet::new()];
                        for c in subset {
                            sets = cross(sets, &expand(tree, c, budget)?, budget)?;
                        }
                        out.extend(sets);
                        if out.len() > budget {
                            return Err(FtaError::TooManyCutSets { max_sets: budget });
                        }
                    }
                    Ok(out)
                }
            },
        }
    }

    fn cross(acc: Vec<CutSet>, child: &[CutSet], budget: usize) -> Result<Vec<CutSet>, FtaError> {
        let singles: BTreeSet<NodeId> = acc
            .iter()
            .filter(|s| s.len() == 1)
            .filter_map(|s| s.first().copied())
            .filter(|x| child.iter().any(|c| c.len() == 1 && c.first() == Some(x)))
            .collect();
        let survives = |s: &CutSet| s.iter().all(|e| !singles.contains(e));
        let child_live: Vec<&CutSet> = child.iter().filter(|s| survives(s)).collect();
        let mut out: Vec<CutSet> = singles.iter().map(|&x| CutSet::from([x])).collect();
        for a in acc.iter().filter(|s| survives(s)) {
            for c in &child_live {
                let mut merged = a.clone();
                merged.extend(c.iter().copied());
                out.push(merged);
                if out.len() > budget {
                    return Err(FtaError::TooManyCutSets { max_sets: budget });
                }
            }
        }
        out.sort();
        out.dedup();
        Ok(out)
    }

    pub(super) fn minimise(mut sets: Vec<CutSet>) -> Vec<CutSet> {
        sets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        let mut minimal: Vec<CutSet> = Vec::new();
        for candidate in sets {
            if !minimal.iter().any(|m| m.is_subset(&candidate)) {
                minimal.push(candidate);
            }
        }
        minimal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decisive_ssam::architecture::Fit;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn fit() -> Fit {
        Fit::new(1.0)
    }

    /// A random tree: `basics` basic events, then one gate per spec —
    /// `(gate, k seed, child seeds)` — whose children are drawn from the
    /// nodes before it, so gates and events are shared. The last gate is
    /// the top event.
    fn random_tree(basics: usize, gates: &[(u8, u8, Vec<usize>)]) -> FaultTree {
        let mut ft = FaultTree::new("random");
        for i in 0..basics {
            ft.basic(format!("e{i}"), fit());
        }
        let mut top = NodeId(0);
        for (kind, k_seed, child_seeds) in gates {
            let earlier = ft.len();
            let children: Vec<NodeId> =
                child_seeds.iter().map(|&c| NodeId((c % earlier) as u32)).collect();
            let gate = match kind {
                0 => Gate::And,
                1 => Gate::Or,
                _ => Gate::Voting { k: 1 + k_seed % children.len() as u8 },
            };
            top = ft.event(format!("g{earlier}"), gate, children);
        }
        ft.set_top(top);
        ft
    }

    /// Whether `node` fails when exactly the basic events in `failed`
    /// (a bit mask over basic ids) fail.
    fn fails(ft: &FaultTree, node: NodeId, failed: u32) -> bool {
        match ft.node(node) {
            Node::Basic { .. } => failed & (1 << node.0) != 0,
            Node::Event { gate, children, .. } => {
                let down = children.iter().filter(|&&c| fails(ft, c, failed)).count();
                match gate {
                    Gate::And => down == children.len(),
                    Gate::Or => down > 0,
                    Gate::Voting { k } => down >= usize::from(*k),
                }
            }
        }
    }

    /// The minimal failing subsets over all `2^basics` assignments, sorted
    /// by size then content.
    fn brute_force_cut_sets(ft: &FaultTree, basics: usize) -> Vec<CutSet> {
        let top = ft.top().expect("top");
        let failing: Vec<u32> = (0..1u32 << basics).filter(|&m| fails(ft, top, m)).collect();
        let mut minimal: Vec<CutSet> = failing
            .iter()
            .filter(|&&m| (0..basics).all(|b| m & (1 << b) == 0 || !fails(ft, top, m & !(1 << b))))
            .map(|&m| (0..basics as u32).filter(|b| m & (1 << b) != 0).map(NodeId).collect())
            .collect();
        minimal.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        minimal
    }

    /// The smallest budget the reference expansion succeeds at; it fails
    /// at every smaller one, because its set counts do not depend on the
    /// budget.
    fn reference_threshold(ft: &FaultTree) -> usize {
        let (mut lo, mut hi) = (0usize, 1usize);
        while reference::try_minimal_cut_sets(ft, hi).is_err() {
            lo = hi;
            hi *= 2;
        }
        // Invariant: `hi` succeeds; `lo` fails unless it is 0.
        if reference::try_minimal_cut_sets(ft, lo).is_ok() {
            return lo;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if reference::try_minimal_cut_sets(ft, mid).is_ok() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// With each gate of `ft` as the top event in turn: (a) MOCUS finds
    /// exactly the brute-force minimal cut sets, in order, and (b) its
    /// budget trips at exactly the budgets the reference expansion's does.
    fn check_every_gate(mut ft: FaultTree, basics: usize, probe: usize) -> Result<(), String> {
        for gate in basics..ft.len() {
            ft.set_top(NodeId(gate as u32));
            let mcs = ft.minimal_cut_sets();
            prop_assert_eq!(&mcs, &brute_force_cut_sets(&ft, basics));
            prop_assert_eq!(&mcs, &reference::try_minimal_cut_sets(&ft, usize::MAX).unwrap());
            let threshold = reference_threshold(&ft);
            for budget in [threshold.saturating_sub(1), threshold, threshold + 1, probe, 0] {
                let ours = ft.try_minimal_cut_sets(budget);
                let theirs = reference::try_minimal_cut_sets(&ft, budget);
                prop_assert!(ours == theirs, "top {gate}, budget {budget}: {ours:?} vs {theirs:?}");
            }
        }
        Ok(())
    }

    fn gate_spec() -> impl Strategy<Value = (u8, u8, Vec<usize>)> {
        (0u8..3, 0u8..8, vec(0usize..64, 1..5))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random DAGs of And/Or/Voting gates over at most seven events.
        #[test]
        fn mocus_matches_brute_force_and_the_reference_budget(
            basics in 1usize..8,
            gates in vec(gate_spec(), 1..7),
            probe in 0usize..4096,
        ) {
            check_every_gate(random_tree(basics, &gates), basics, probe)?;
        }

        /// The shape tree synthesis builds — an AND over ORs that share
        /// events — where absorption does its work.
        #[test]
        fn mocus_matches_on_path_set_trees(
            basics in 1usize..8,
            paths in vec(vec(0usize..64, 1..6), 1..6),
            probe in 0usize..4096,
        ) {
            let mut gates: Vec<(u8, u8, Vec<usize>)> = paths
                .into_iter()
                .map(|path| (1, 0, path.into_iter().map(|e| e % basics).collect()))
                .collect();
            let top = (0, 0, (basics..basics + gates.len()).collect());
            gates.push(top);
            check_every_gate(random_tree(basics, &gates), basics, probe)?;
        }

        /// `minimise` agrees with the reference on arbitrary families.
        #[test]
        fn minimise_matches_the_reference(
            family in vec(vec(0u32..6, 0..4), 0..12),
        ) {
            let sets: Vec<CutSet> =
                family.iter().map(|s| s.iter().map(|&e| NodeId(e)).collect()).collect();
            prop_assert_eq!(minimise(sets.clone()), reference::minimise(sets));
        }
    }

    /// Absorbed singletons count toward the budget: AND(OR(a, b, c),
    /// OR(a, d, e)) keeps `{a}` and builds four pairs, five working sets.
    #[test]
    fn absorbed_singletons_count_toward_the_budget() {
        let mut ft = FaultTree::new("t");
        let e: Vec<NodeId> = (0..5).map(|i| ft.basic(format!("e{i}"), fit())).collect();
        let l = ft.event("l", Gate::Or, vec![e[0], e[1], e[2]]);
        let r = ft.event("r", Gate::Or, vec![e[0], e[3], e[4]]);
        let top = ft.event("top", Gate::And, vec![l, r]);
        ft.set_top(top);
        assert_eq!(ft.try_minimal_cut_sets(5).map(|mcs| mcs.len()), Ok(5));
        assert_eq!(ft.try_minimal_cut_sets(4), Err(FtaError::TooManyCutSets { max_sets: 4 }));
        assert_eq!(reference::try_minimal_cut_sets(&ft, 4), ft.try_minimal_cut_sets(4));
    }

    /// A voting gate's repeated sets count toward the budget where its
    /// family is used: 1-of-(a, a) yields `{a}` twice, so ANDing it with
    /// OR(b, c) builds four pairs.
    #[test]
    fn repeated_voting_sets_count_toward_the_budget() {
        let mut ft = FaultTree::new("t");
        let e: Vec<NodeId> = (0..3).map(|i| ft.basic(format!("e{i}"), fit())).collect();
        let vote = ft.event("vote", Gate::Voting { k: 1 }, vec![e[0], e[0]]);
        let or = ft.event("or", Gate::Or, vec![e[1], e[2]]);
        let top = ft.event("top", Gate::And, vec![or, vote]);
        ft.set_top(top);
        assert_eq!(ft.try_minimal_cut_sets(4).map(|mcs| mcs.len()), Ok(2));
        assert_eq!(ft.try_minimal_cut_sets(3), Err(FtaError::TooManyCutSets { max_sets: 3 }));
        assert_eq!(reference::try_minimal_cut_sets(&ft, 3), ft.try_minimal_cut_sets(3));
    }

    /// The budget counts working sets before deduplication: an AND of two
    /// disjoint three-event ORs builds nine pairs, so it fits a budget of
    /// nine and trips one of eight.
    #[test]
    fn the_budget_trips_on_the_ninth_working_set() {
        let mut ft = FaultTree::new("t");
        let left: Vec<NodeId> = (0..3).map(|i| ft.basic(format!("l{i}"), fit())).collect();
        let right: Vec<NodeId> = (0..3).map(|i| ft.basic(format!("r{i}"), fit())).collect();
        let l = ft.event("l", Gate::Or, left);
        let r = ft.event("r", Gate::Or, right);
        let top = ft.event("top", Gate::And, vec![l, r]);
        ft.set_top(top);
        assert_eq!(ft.try_minimal_cut_sets(9).map(|mcs| mcs.len()), Ok(9));
        assert_eq!(ft.try_minimal_cut_sets(8), Err(FtaError::TooManyCutSets { max_sets: 8 }));
        assert_eq!(reference::try_minimal_cut_sets(&ft, 8), ft.try_minimal_cut_sets(8));
    }

    #[test]
    fn or_of_basics_yields_singletons() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", fit());
        let b = ft.basic("b", fit());
        let top = ft.event("top", Gate::Or, vec![a, b]);
        ft.set_top(top);
        let mcs = ft.minimal_cut_sets();
        assert_eq!(mcs.len(), 2);
        assert!(mcs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn and_of_basics_yields_one_pair() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", fit());
        let b = ft.basic("b", fit());
        let top = ft.event("top", Gate::And, vec![a, b]);
        ft.set_top(top);
        let mcs = ft.minimal_cut_sets();
        assert_eq!(mcs.len(), 1);
        assert_eq!(mcs[0].len(), 2);
    }

    #[test]
    fn nested_tree_minimises_supersets() {
        // top = OR(a, AND(a, b)) — the AND branch is absorbed by {a}.
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", fit());
        let b = ft.basic("b", fit());
        let and = ft.event("and", Gate::And, vec![a, b]);
        let top = ft.event("top", Gate::Or, vec![a, and]);
        ft.set_top(top);
        let mcs = ft.minimal_cut_sets();
        assert_eq!(mcs.len(), 1);
        assert_eq!(mcs[0].len(), 1);
    }

    #[test]
    fn voting_gate_expands_k_subsets() {
        // 2oo3 failure: any two of three failing fails the top.
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", fit());
        let b = ft.basic("b", fit());
        let c = ft.basic("c", fit());
        let top = ft.event("top", Gate::Voting { k: 2 }, vec![a, b, c]);
        ft.set_top(top);
        let mcs = ft.minimal_cut_sets();
        assert_eq!(mcs.len(), 3);
        assert!(mcs.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn and_over_or_paths_structure() {
        // The path-set dual of a series/parallel system:
        // top = AND(OR(a, b), OR(a, c)) → mcs: {a}, {b, c}.
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", fit());
        let b = ft.basic("b", fit());
        let c = ft.basic("c", fit());
        let p1 = ft.event("p1", Gate::Or, vec![a, b]);
        let p2 = ft.event("p2", Gate::Or, vec![a, c]);
        let top = ft.event("top", Gate::And, vec![p1, p2]);
        ft.set_top(top);
        let mcs = ft.minimal_cut_sets();
        assert_eq!(mcs.len(), 2);
        assert_eq!(mcs[0].len(), 1, "singleton {{a}} first");
        assert_eq!(mcs[1].len(), 2);
    }

    #[test]
    fn no_top_event_yields_nothing() {
        let mut ft = FaultTree::new("t");
        ft.basic("a", fit());
        assert!(ft.minimal_cut_sets().is_empty());
    }

    #[test]
    fn combinations_counts() {
        let ids: Vec<NodeId> = (0..4).map(NodeId).collect();
        assert_eq!(combinations(&ids, 2).len(), 6);
        assert_eq!(combinations(&ids, 4).len(), 1);
        assert_eq!(combinations(&ids, 5).len(), 0);
        assert_eq!(combinations(&ids, 0).len(), 1);
    }
}
