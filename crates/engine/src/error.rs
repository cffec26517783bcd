//! Engine error types.

use decisive_core::CoreError;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Everything that can go wrong inside the incremental engine.
#[derive(Debug)]
pub enum EngineError {
    /// An underlying analysis failed.
    Core(CoreError),
    /// A scheduled job panicked twice (once plus the retry).
    JobFailed {
        /// Index of the failing job within its batch.
        index: usize,
        /// Which phase scheduled it.
        phase: String,
    },
    /// The run was cancelled through its [`crate::scheduler::CancelToken`].
    Cancelled,
    /// Cache persistence failed (I/O, parse, or serialisation).
    Cache(String),
    /// The segmented artifact store failed (I/O on append, fsync, or
    /// manifest swap). Corruption never raises this — it quarantines.
    Store(String),
    /// `verify_against_full` found a divergence between the incremental
    /// and the from-scratch result — a cache-soundness bug.
    Verification(String),
    /// The pass pipeline was misconfigured (duplicate ids, a dependency
    /// cycle) or a pass produced an artefact of an unexpected type.
    Pipeline(String),
    /// A pass depends on a pass the pipeline does not contain.
    UnknownDependency {
        /// The dependent pass.
        pass: String,
        /// The missing pass it depends on.
        dependency: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "{e}"),
            EngineError::JobFailed { index, phase } => {
                write!(f, "job {index} of phase `{phase}` panicked twice; giving up")
            }
            EngineError::Cancelled => write!(f, "analysis cancelled"),
            EngineError::Cache(message) => write!(f, "cache: {message}"),
            EngineError::Store(message) => write!(f, "artifact store: {message}"),
            EngineError::Verification(message) => {
                write!(f, "incremental result diverged from full recomputation: {message}")
            }
            EngineError::Pipeline(message) => write!(f, "pipeline: {message}"),
            EngineError::UnknownDependency { pass, dependency } => {
                write!(f, "pipeline: pass `{pass}` depends on unknown pass `{dependency}`")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}
