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
    /// An artefact could not be serialised, or a document is not a v3
    /// cache snapshot.
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
    /// A request's model or reliability annex could not be read or
    /// parsed (see [`Engine::execute`](crate::Engine::execute)).
    Input(String),
    /// `montecarlo` or `recommend` was asked of a model that is not a
    /// `.bd` block diagram: only a diagram has an injection campaign to
    /// sample or cover.
    NotADiagram {
        /// The op's name.
        op: &'static str,
        /// The model's path (or name, for a model already in memory).
        path: String,
    },
    /// A `strict` run left campaign cases unsolved or degraded (see
    /// [`Engine::enforce_strict`](crate::Engine::enforce_strict)).
    Strict(String),
    /// [`Engine::save_cache`](crate::Engine::save_cache) was called on an
    /// engine without a durable store to commit: the segmented store
    /// opened from a cache directory is the only persistence.
    NotDurable,
    /// The builder was given both a cache directory and a shared store. A
    /// cache directory opens a durable shared store of its own, so the
    /// two cannot be combined.
    ConflictingStores,
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
            EngineError::Input(message) | EngineError::Strict(message) => f.write_str(message),
            EngineError::NotADiagram { op, path } => {
                write!(f, "`{op}` needs a `.bd` block-diagram path, got `{path}`")
            }
            EngineError::NotDurable => {
                write!(f, "engine has no durable store to save: build it with a cache directory")
            }
            EngineError::ConflictingStores => {
                write!(f, "engine builder: `cache_dir` and `shared_store` cannot be combined")
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
