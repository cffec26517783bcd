//! Quantitative fault tree analysis: top-event probability and importance
//! measures over the minimal cut sets.

use std::collections::BTreeMap;

use crate::build::FtaError;
use crate::cutset::CutSet;
use crate::tree::{FaultTree, Node, NodeId};

/// Quantification results for a fault tree over a mission time.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantification {
    /// Mission time in hours.
    pub mission_hours: f64,
    /// Top event probability (rare-event approximation over the minimal
    /// cut sets).
    pub top_probability: f64,
    /// Per-cut-set probability, aligned with the minimal cut set order.
    pub cut_set_probabilities: Vec<f64>,
    /// Fussell-Vesely importance per basic event: the share of the top
    /// probability flowing through cut sets containing the event.
    pub fussell_vesely: BTreeMap<NodeId, f64>,
    /// Birnbaum importance per basic event (rare-event approximation).
    pub birnbaum: BTreeMap<NodeId, f64>,
}

impl FaultTree {
    /// Quantifies the tree over `mission_hours` using the rare-event
    /// approximation `P(top) ≈ Σ P(cut set)`.
    ///
    /// # Panics
    ///
    /// Panics if `mission_hours` is not positive and finite. Fallible
    /// callers (e.g. pipeline passes) should use
    /// [`FaultTree::try_quantify`].
    pub fn quantify(&self, mission_hours: f64) -> Quantification {
        self.try_quantify(mission_hours).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Quantifies the tree, reporting bad inputs and structural violations
    /// as typed errors instead of panicking.
    ///
    /// # Errors
    ///
    /// [`FtaError::InvalidMissionTime`] when `mission_hours` is not
    /// positive and finite; [`FtaError::TooManyCutSets`] when MOCUS
    /// expansion exceeds [`crate::cutset::MOCUS_BUDGET`] working sets
    /// (adversarial redundancy structures degrade with a typed error
    /// instead of hanging); [`FtaError::MalformedTree`] when a cut set
    /// references a gate node (impossible for trees built through the safe
    /// constructors, but reachable from hand-deserialized trees).
    pub fn try_quantify(&self, mission_hours: f64) -> Result<Quantification, FtaError> {
        if !(mission_hours > 0.0 && mission_hours.is_finite()) {
            return Err(FtaError::InvalidMissionTime { mission_hours });
        }
        let mcs = self.try_minimal_cut_sets(crate::cutset::MOCUS_BUDGET)?;
        let p_of = |id: NodeId| self.event_probability(id, mission_hours);
        let cut_set_probabilities = mcs
            .iter()
            .map(|cs| cut_set_probability(cs.iter().copied(), p_of))
            .collect::<Result<Vec<f64>, FtaError>>()?;
        let top_probability = rare_event_sum(&cut_set_probabilities);

        let mut fussell_vesely = BTreeMap::new();
        let mut birnbaum = BTreeMap::new();
        for (id, _, _) in self.basic_events() {
            let through: f64 = mcs
                .iter()
                .zip(&cut_set_probabilities)
                .filter(|(cs, _)| cs.contains(&id))
                .map(|(_, p)| p)
                .sum();
            let fv = if top_probability > 0.0 { through / top_probability } else { 0.0 };
            fussell_vesely.insert(id, fv.min(1.0));
            // Birnbaum: ∂P(top)/∂p_i ≈ Σ over cut sets containing i of the
            // product of the *other* events' probabilities.
            let mut b = 0.0;
            for cs in mcs.iter().filter(|cs| cs.contains(&id)) {
                let mut product = 1.0;
                for &e in cs.iter().filter(|&&e| e != id) {
                    product *= p_of(e)?;
                }
                b += product;
            }
            birnbaum.insert(id, b.min(1.0));
        }
        Ok(Quantification {
            mission_hours,
            top_probability,
            cut_set_probabilities,
            fussell_vesely,
            birnbaum,
        })
    }

    /// The top-event probability over `mission_hours` from minimal cut
    /// sets the caller already holds (from
    /// [`FaultTree::try_minimal_cut_sets`]): the rare-event approximation
    /// [`FaultTree::try_quantify`] reports, without its importance
    /// measures or a second MOCUS run. Computed by
    /// [`rare_event_probability`].
    ///
    /// # Errors
    ///
    /// [`FtaError::InvalidMissionTime`] when `mission_hours` is not
    /// positive and finite; [`FtaError::MalformedTree`] when a cut set
    /// references a gate node.
    pub fn top_probability(
        &self,
        cut_sets: &[CutSet],
        mission_hours: f64,
    ) -> Result<f64, FtaError> {
        if !(mission_hours > 0.0 && mission_hours.is_finite()) {
            return Err(FtaError::InvalidMissionTime { mission_hours });
        }
        rare_event_probability(cut_sets, |&e| self.event_probability(e, mission_hours))
    }

    /// A basic event's failure probability over the mission.
    fn event_probability(&self, id: NodeId, mission_hours: f64) -> Result<f64, FtaError> {
        match self.node(id) {
            Node::Basic { fit, .. } => Ok(fit.failure_probability(mission_hours)),
            Node::Event { name, .. } => Err(FtaError::MalformedTree {
                message: format!(
                    "cut set references gate `{name}`; cut sets contain only basic events"
                ),
            }),
        }
    }

    /// Single-point basic events: those forming a singleton minimal cut set.
    pub fn single_points(&self) -> Vec<NodeId> {
        self.minimal_cut_sets()
            .into_iter()
            .filter_map(|cs| if cs.len() == 1 { cs.iter().next().copied() } else { None })
            .collect()
    }

    /// The minimal cut sets rendered with event names, for reports.
    pub fn cut_sets_by_name(&self) -> Vec<Vec<String>> {
        self.minimal_cut_sets()
            .iter()
            .map(|cs: &CutSet| cs.iter().map(|&e| self.node(e).name().to_owned()).collect())
            .collect()
    }
}

/// The top-event probability of `cut_sets` under the rare-event
/// approximation: a cut set's probability is the product of its events'
/// (`event_probability`), taken in cut-set order, and
/// `P(top) ≈ Σ P(cut set)`, capped at 1.
///
/// [`FaultTree::top_probability`] and [`FaultTree::try_quantify`] quantify
/// through the same arithmetic, so a caller holding the cut sets in
/// another form — event indices into a table of probabilities, say — gets
/// the same bits.
///
/// # Errors
///
/// The first error `event_probability` returns.
pub fn rare_event_probability<S, E, Error>(
    cut_sets: impl IntoIterator<Item = S>,
    mut event_probability: impl FnMut(E) -> Result<f64, Error>,
) -> Result<f64, Error>
where
    S: IntoIterator<Item = E>,
{
    let probabilities = cut_sets
        .into_iter()
        .map(|cs| cut_set_probability(cs, &mut event_probability))
        .collect::<Result<Vec<f64>, Error>>()?;
    Ok(rare_event_sum(&probabilities))
}

/// A cut set's probability: the product of its events', in cut-set order.
fn cut_set_probability<E, Error>(
    events: impl IntoIterator<Item = E>,
    event_probability: impl FnMut(E) -> Result<f64, Error>,
) -> Result<f64, Error> {
    events.into_iter().map(event_probability).product()
}

/// The rare-event approximation `P(top) ≈ Σ P(cut set)`, capped at 1.
/// Folds from +0.0: an empty `Iterator::<f64>::sum` is −0.0, which would
/// print a tree with no cut sets as a negative top probability. Every
/// probability is non-negative, so a non-empty sum keeps its bits.
fn rare_event_sum(cut_set_probabilities: &[f64]) -> f64 {
    cut_set_probabilities.iter().fold(0.0, |sum, p| sum + p).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Gate;
    use decisive_ssam::architecture::Fit;

    /// A series system: P(top) ≈ p1 + p2 for small probabilities.
    #[test]
    fn series_probability_adds() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", Fit::new(100.0));
        let b = ft.basic("b", Fit::new(200.0));
        let top = ft.event("top", Gate::Or, vec![a, b]);
        ft.set_top(top);
        let q = ft.quantify(10_000.0);
        let pa = Fit::new(100.0).failure_probability(10_000.0);
        let pb = Fit::new(200.0).failure_probability(10_000.0);
        assert!((q.top_probability - (pa + pb)).abs() < 1e-9);
    }

    /// A parallel system: P(top) = p1 * p2.
    #[test]
    fn parallel_probability_multiplies() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", Fit::new(100.0));
        let b = ft.basic("b", Fit::new(200.0));
        let top = ft.event("top", Gate::And, vec![a, b]);
        ft.set_top(top);
        let q = ft.quantify(10_000.0);
        let pa = Fit::new(100.0).failure_probability(10_000.0);
        let pb = Fit::new(200.0).failure_probability(10_000.0);
        assert!((q.top_probability - pa * pb).abs() < 1e-12);
        // Redundancy slashes risk by orders of magnitude.
        assert!(q.top_probability < pa / 100.0);
    }

    #[test]
    fn importance_measures_rank_the_dominant_event() {
        let mut ft = FaultTree::new("t");
        let weak = ft.basic("weak", Fit::new(1000.0));
        let strong = ft.basic("strong", Fit::new(1.0));
        let top = ft.event("top", Gate::Or, vec![weak, strong]);
        ft.set_top(top);
        let q = ft.quantify(10_000.0);
        assert!(q.fussell_vesely[&weak] > q.fussell_vesely[&strong]);
        // Birnbaum of events under a bare OR is 1 (they are single points).
        assert!((q.birnbaum[&weak] - 1.0).abs() < 1e-9);
        // FV sums to ~1 when cut sets are disjoint singletons.
        let total: f64 = q.fussell_vesely.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_points_are_singleton_cut_sets() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", Fit::new(1.0));
        let b = ft.basic("b", Fit::new(1.0));
        let c = ft.basic("c", Fit::new(1.0));
        let and = ft.event("and", Gate::And, vec![b, c]);
        let top = ft.event("top", Gate::Or, vec![a, and]);
        ft.set_top(top);
        assert_eq!(ft.single_points(), vec![a]);
        let names = ft.cut_sets_by_name();
        assert_eq!(names[0], vec!["a"]);
        assert_eq!(names[1], vec!["b", "c"]);
    }

    /// Cut sets held as indices into a probability table quantify to the
    /// bits `top_probability` gives on the tree.
    #[test]
    fn indexed_cut_sets_quantify_to_the_same_bits() {
        let mut ft = FaultTree::new("t");
        let fits = [3.0, 4.5, 300.0, 0.7];
        let events: Vec<NodeId> = fits.iter().map(|&f| ft.basic("e", Fit::new(f))).collect();
        let and = ft.event("and", Gate::And, vec![events[2], events[3]]);
        let top = ft.event("top", Gate::Or, vec![events[0], events[1], and]);
        ft.set_top(top);
        let cut_sets = ft.minimal_cut_sets();
        let indexed: Vec<Vec<usize>> =
            cut_sets.iter().map(|cs| cs.iter().map(|e| e.raw() as usize).collect()).collect();
        for hours in [1.0, 10_000.0, 1e9] {
            let p: Vec<f64> =
                fits.iter().map(|&f| Fit::new(f).failure_probability(hours)).collect();
            let Ok(top) =
                rare_event_probability(&indexed, |&e| Ok::<f64, std::convert::Infallible>(p[e]));
            assert_eq!(top.to_bits(), ft.top_probability(&cut_sets, hours).unwrap().to_bits());
        }
    }

    #[test]
    fn try_quantify_reports_bad_mission_time_as_typed_error() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", Fit::new(1.0));
        ft.set_top(a);
        match ft.try_quantify(f64::NAN) {
            Err(FtaError::InvalidMissionTime { mission_hours }) => assert!(mission_hours.is_nan()),
            other => panic!("expected InvalidMissionTime, got {other:?}"),
        }
        assert!(ft.try_quantify(10_000.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "mission time must be")]
    fn bad_mission_time_panics() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", Fit::new(1.0));
        ft.set_top(a);
        let _ = ft.quantify(-1.0);
    }
}
