//! Error types for the DECISIVE core.

use std::fmt;

/// Errors produced by the DECISIVE analysis engines.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A simulation invoked during fault-injection FMEA failed.
    Simulation(decisive_circuit::CircuitError),
    /// A block diagram could not be lowered or transformed.
    Diagram(decisive_blocks::DiagramError),
    /// Model federation (loading or querying external data) failed.
    Federation(decisive_federation::FederationError),
    /// The reliability model is missing data the analysis needs.
    MissingReliability {
        /// The component type key with no reliability entry.
        type_key: String,
    },
    /// A referenced component does not exist in the model.
    UnknownComponent {
        /// The component name that failed to resolve.
        name: String,
    },
    /// The safety-mechanism search space is too large to enumerate.
    SearchSpaceTooLarge {
        /// Number of combinations that enumeration would need.
        combinations: u128,
        /// The configured enumeration limit.
        limit: u128,
    },
    /// The iterative process exhausted its iteration budget without meeting
    /// the target integrity level.
    TargetNotReached {
        /// Iterations performed.
        iterations: usize,
        /// Best SPFM achieved.
        best_spfm: f64,
        /// The SPFM target that was not met.
        target_spfm: f64,
    },
    /// An analysis parameter was invalid.
    InvalidParameter {
        /// Description of the violation.
        message: String,
    },
    /// The fault-injection campaign tripped its failure-rate circuit
    /// breaker: too many cases were unsolvable for the table to be
    /// trustworthy.
    CampaignAborted {
        /// Unsolvable or panicked cases.
        failed: usize,
        /// Total cases supervised.
        total: usize,
        /// The configured maximum unsolvable fraction.
        limit: f64,
    },
    /// A verdict table does not line up with the injection candidates it
    /// is re-weighted against: the lengths differ, or a row's
    /// `component/mode` is not its candidate's.
    VerdictMismatch {
        /// Index of the first row that does not line up.
        row: usize,
        /// `component/mode` of that verdict row, `-` past the table's end.
        verdict: String,
        /// `component/mode` of that candidate, `-` past the list's end.
        candidate: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Simulation(e) => write!(f, "simulation failed: {e}"),
            CoreError::Diagram(e) => write!(f, "diagram error: {e}"),
            CoreError::Federation(e) => write!(f, "federation error: {e}"),
            CoreError::MissingReliability { type_key } => {
                write!(f, "no reliability data for component type `{type_key}`")
            }
            CoreError::UnknownComponent { name } => write!(f, "unknown component `{name}`"),
            CoreError::SearchSpaceTooLarge { combinations, limit } => write!(
                f,
                "safety mechanism search space has {combinations} combinations (limit {limit}); use the greedy or pareto search"
            ),
            CoreError::TargetNotReached { iterations, best_spfm, target_spfm } => write!(
                f,
                "target SPFM {target_spfm:.4} not reached after {iterations} iterations (best {best_spfm:.4})"
            ),
            CoreError::InvalidParameter { message } => write!(f, "invalid parameter: {message}"),
            CoreError::CampaignAborted { failed, total, limit } => write!(
                f,
                "fault campaign aborted: {failed}/{total} cases unsolvable (limit {:.0}%) — this signals a modelling bug, not physics",
                limit * 100.0
            ),
            CoreError::VerdictMismatch { row, verdict, candidate } => write!(
                f,
                "verdict row {row} (`{verdict}`) does not match injection candidate `{candidate}`"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Simulation(e) => Some(e),
            CoreError::Diagram(e) => Some(e),
            CoreError::Federation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<decisive_circuit::CircuitError> for CoreError {
    fn from(e: decisive_circuit::CircuitError) -> Self {
        CoreError::Simulation(e)
    }
}

impl From<decisive_blocks::DiagramError> for CoreError {
    fn from(e: decisive_blocks::DiagramError) -> Self {
        CoreError::Diagram(e)
    }
}

impl From<decisive_federation::FederationError> for CoreError {
    fn from(e: decisive_federation::FederationError) -> Self {
        CoreError::Federation(e)
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = CoreError::MissingReliability { type_key: "Diode".into() };
        assert!(e.to_string().contains("Diode"));
        assert!(e.source().is_none());
        let e = CoreError::Simulation(decisive_circuit::CircuitError::SingularMatrix { row: 1 });
        assert!(e.source().is_some());
        let e = CoreError::TargetNotReached { iterations: 3, best_spfm: 0.8, target_spfm: 0.9 };
        assert!(e.to_string().contains("3 iterations"));
    }
}
