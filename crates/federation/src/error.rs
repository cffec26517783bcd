//! Error types for model federation.

use std::fmt;

/// Errors produced while loading, parsing or querying federated models.
#[derive(Debug, Clone, PartialEq)]
pub enum FederationError {
    /// A textual model failed to parse.
    Parse {
        /// Format being parsed (`"json"`, `"csv"`, `"eql"`, …).
        format: &'static str,
        /// 1-based line of the failure, when known.
        line: usize,
        /// 1-based column of the failure, when known.
        column: usize,
        /// What went wrong.
        message: String,
    },
    /// An EQL expression failed to evaluate.
    Eval {
        /// What went wrong.
        message: String,
    },
    /// No driver is registered for the requested model technology.
    UnknownDriver {
        /// The requested technology.
        kind: String,
    },
    /// The driver could not access the model at `location`.
    Load {
        /// The location that failed to load.
        location: String,
        /// What went wrong.
        message: String,
    },
    /// An eager model store exceeded its memory budget (the paper's EMF
    /// "memory overflow" failure mode, Table VI).
    MemoryOverflow {
        /// Bytes the load would have needed.
        required_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
    /// An element index was out of the store's range.
    OutOfRange {
        /// The requested index.
        index: u64,
        /// The store length.
        len: u64,
    },
}

impl FederationError {
    /// Shorthand for an evaluation error.
    pub fn eval(message: impl Into<String>) -> Self {
        FederationError::Eval { message: message.into() }
    }
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::Parse { format, line, column, message } => {
                write!(f, "{format} parse error at {line}:{column}: {message}")
            }
            FederationError::Eval { message } => write!(f, "eql evaluation error: {message}"),
            FederationError::UnknownDriver { kind } => {
                write!(f, "no model driver registered for technology `{kind}`")
            }
            FederationError::Load { location, message } => {
                write!(f, "failed to load model at `{location}`: {message}")
            }
            FederationError::MemoryOverflow { required_bytes, budget_bytes } => write!(
                f,
                "model too large for eager loading: needs {required_bytes} bytes, budget is {budget_bytes}"
            ),
            FederationError::OutOfRange { index, len } => {
                write!(f, "element index {index} out of range for store of length {len}")
            }
        }
    }
}

impl std::error::Error for FederationError {}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, FederationError>;

/// What kind of degradation a lenient load observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// A record was dropped because it failed to parse or validate.
    MalformedRecord,
    /// The document ended early; the records before the truncation point
    /// were kept.
    Truncated,
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            DiagnosticKind::MalformedRecord => "malformed record",
            DiagnosticKind::Truncated => "truncated input",
        };
        f.write_str(label)
    }
}

/// One recoverable problem observed during a lenient load (see
/// [`crate::csv::parse_lenient`]): which source it came from, where in
/// that source, and why the record was dropped or substituted.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationDiagnostic {
    /// The degradation category.
    pub kind: DiagnosticKind,
    /// The source being loaded (a file path, driver location, or format
    /// label such as `"csv"`).
    pub source: String,
    /// 1-based line in the source, when known (0 = whole document).
    pub line: usize,
    /// Human-readable reason the record could not be used.
    pub reason: String,
}

impl FederationDiagnostic {
    /// Builds a malformed-record diagnostic.
    pub fn malformed(source: impl Into<String>, line: usize, reason: impl Into<String>) -> Self {
        FederationDiagnostic {
            kind: DiagnosticKind::MalformedRecord,
            source: source.into(),
            line,
            reason: reason.into(),
        }
    }

    /// Builds a truncated-input diagnostic.
    pub fn truncated(source: impl Into<String>, line: usize, reason: impl Into<String>) -> Self {
        FederationDiagnostic {
            kind: DiagnosticKind::Truncated,
            source: source.into(),
            line,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for FederationDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {} ({})", self.source, self.reason, self.kind)
        } else {
            write!(f, "{}:{}: {} ({})", self.source, self.line, self.reason, self.kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        let e = FederationError::Parse {
            format: "json",
            line: 2,
            column: 7,
            message: "expected `:`".into(),
        };
        assert_eq!(e.to_string(), "json parse error at 2:7: expected `:`");
        let e = FederationError::MemoryOverflow { required_bytes: 100, budget_bytes: 10 };
        assert!(e.to_string().contains("100"));
        let e = FederationError::UnknownDriver { kind: "aadl".into() };
        assert!(e.to_string().contains("aadl"));
    }
}
