//! The wire protocol: line-delimited JSON, one request per input line,
//! exactly one response line per request.
//!
//! Requests are flat records — `op` selects the operation, `id` (any JSON
//! scalar) and `session` (a string, default `"default"`) are echoed back
//! so clients can interleave requests from several sessions over one
//! connection and still correlate responses. Run configuration (the
//! [`RunSpec`] fields `reliability`, `strict`, `mission_hours`, `solver`,
//! `trials`, `seed`) rides flat on the same record, parsed by the one
//! shared parser every front end uses:
//!
//! ```text
//! {"op":"analyze","id":7,"session":"alice","path":"model.json"}
//! {"op":"pipeline","path":"design.bd","reliability":"fits.csv","mission_hours":5000}
//! {"op":"montecarlo","path":"design.bd","trials":256,"seed":7}
//! {"op":"recommend","path":"design.bd"}
//! {"op":"status"}
//! {"op":"shutdown"}
//! ```
//!
//! Requests and responses carry a `"v"` protocol-version field; a request
//! without one speaks v1 (the only version so far), a request with any
//! other value is answered by a typed error instead of being
//! misinterpreted.
//!
//! Responses always carry `ok`; successful ones echo `id`/`session`/`op`
//! and wrap the operation's document (an [`crate::output::AnalyzeOutput`],
//! [`crate::output::PipelineOutput`], [`crate::output::MonteCarloOutput`],
//! [`crate::output::RecommendOutput`] or status record) under `result`,
//! failed ones carry a single human-readable `error` string. A malformed
//! line — junk bytes, a truncated frame, an unknown op — is answered by
//! exactly one `error` response and never terminates the daemon.

use decisive_core::request::{AnalysisOp, AnalysisRequest, RunSpec};
use decisive_federation::{json, Value};

/// The wire protocol version this daemon speaks: stamped on every
/// response, accepted (or defaulted) on every request, bumped on
/// incompatible changes.
pub const PROTOCOL_VERSION: i64 = 1;

/// The session requests land in when they name none.
pub const DEFAULT_SESSION: &str = "default";

/// Fields common to every request: the echoed correlation id and the
/// session the request operates in.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMeta {
    /// Client-chosen correlation id (any JSON scalar), echoed verbatim.
    pub id: Option<Value>,
    /// Session name; sessions are created on first use.
    pub session: String,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one analysis op (`analyze`, `pipeline`, `montecarlo`,
    /// `recommend`) — the daemon form of the CLI verb of the same name.
    Analysis {
        /// Correlation id and session.
        meta: RequestMeta,
        /// The op, the model path and the run configuration parsed off
        /// the request record.
        request: AnalysisRequest,
    },
    /// Report daemon state: sessions, shared-store size, dedup hits.
    Status {
        /// Correlation id and session.
        meta: RequestMeta,
    },
    /// Persist the shared store and stop the daemon (after responding).
    Shutdown {
        /// Correlation id and session.
        meta: RequestMeta,
    },
}

impl Request {
    /// The request's common fields.
    pub fn meta(&self) -> &RequestMeta {
        match self {
            Request::Analysis { meta, .. }
            | Request::Status { meta }
            | Request::Shutdown { meta } => meta,
        }
    }

    /// The operation name, as it appears in `op`.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Analysis { request, .. } => request.op.name(),
            Request::Status { .. } => "status",
            Request::Shutdown { .. } => "shutdown",
        }
    }
}

/// Why a line failed to parse as a request. Carries whatever correlation
/// context could still be salvaged, so even the error response points back
/// at the request that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// Salvaged correlation id, when the line was at least a JSON record.
    pub id: Option<Value>,
    /// Salvaged session name, likewise.
    pub session: Option<String>,
    /// Human-readable reason.
    pub message: String,
}

impl ProtocolError {
    fn bare(message: impl Into<String>) -> ProtocolError {
        ProtocolError { id: None, session: None, message: message.into() }
    }
}

/// Salvages `id` (scalars only — echoing a client-supplied list or record
/// back verbatim would let one junk line bloat the response stream).
fn salvage_id(value: &Value) -> Option<Value> {
    match value.get("id") {
        Some(id @ (Value::Bool(_) | Value::Int(_) | Value::Real(_) | Value::Str(_))) => {
            Some(id.clone())
        }
        _ => None,
    }
}

/// Parses one wire line into a [`Request`].
///
/// # Errors
///
/// [`ProtocolError`] on anything that is not exactly one valid request:
/// non-JSON bytes, truncated frames, non-record values, unknown `op`s,
/// missing or ill-typed fields. The error salvages `id`/`session` when the
/// line parsed far enough to contain them.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let value = json::parse(line).map_err(|e| ProtocolError::bare(format!("bad request: {e}")))?;
    if !matches!(value, Value::Record(_)) {
        return Err(ProtocolError::bare("bad request: expected a JSON object"));
    }
    let id = salvage_id(&value);
    let session = value.get("session").and_then(Value::as_str).map(str::to_owned);
    let err = |message: String| ProtocolError { id: id.clone(), session: session.clone(), message };

    if value.get("session").is_some() && session.is_none() {
        return Err(err("bad request: `session` must be a string".to_owned()));
    }
    match value.get("v") {
        None | Some(Value::Int(PROTOCOL_VERSION)) => {}
        Some(other) => {
            return Err(err(format!(
                "unsupported protocol version {other:?} (this daemon speaks v{PROTOCOL_VERSION}; \
                 omit `v` or send {PROTOCOL_VERSION})"
            )));
        }
    }
    let meta = RequestMeta {
        id: id.clone(),
        session: session.clone().unwrap_or_else(|| DEFAULT_SESSION.to_owned()),
    };
    let op = match value.get("op") {
        Some(Value::Str(op)) => op.clone(),
        Some(_) => return Err(err("bad request: `op` must be a string".to_owned())),
        None => return Err(err("bad request: missing `op`".to_owned())),
    };
    match op.as_str() {
        "status" => return Ok(Request::Status { meta }),
        "shutdown" => return Ok(Request::Shutdown { meta }),
        _ => {}
    }
    let Some(analysis) = AnalysisOp::parse(&op) else {
        return Err(err(format!(
            "unknown op `{op}` (analyze|pipeline|montecarlo|recommend|status|shutdown)"
        )));
    };
    let path = match value.get("path") {
        Some(Value::Str(path)) if !path.is_empty() => path.clone(),
        Some(_) => return Err(err(format!("bad request: `{op}` wants a string `path`"))),
        None => return Err(err(format!("bad request: `{op}` needs a `path`"))),
    };
    let spec = RunSpec::from_value(&value).map_err(|e| err(format!("bad request: {e}")))?;
    Ok(Request::Analysis { meta, request: AnalysisRequest::new(analysis, path, spec) })
}

/// Frames a successful response: the echoed correlation fields, the
/// request wall time and the operation's `result` document (compact JSON
/// text, spliced in unparsed as the last field), as one JSON line.
pub fn ok_response(meta: &RequestMeta, op: &str, wall_ms: f64, result: &str) -> String {
    let head = json::to_string(&Value::record([
        ("v", Value::Int(PROTOCOL_VERSION)),
        ("id", meta.id.clone().unwrap_or(Value::Null)),
        ("session", Value::from(meta.session.as_str())),
        ("op", Value::from(op)),
        ("ok", Value::Bool(true)),
        ("wall_ms", Value::Real(wall_ms)),
    ]));
    // `head` is a one-line record: its closing brace makes way for
    // `result`.
    format!("{},\"result\":{result}}}", &head[..head.len() - 1])
}

/// Frames an error response — the one-line answer to a malformed or
/// failed request.
pub fn error_response(id: Option<Value>, session: Option<&str>, message: &str) -> String {
    let mut fields = vec![
        ("v".to_owned(), Value::Int(PROTOCOL_VERSION)),
        ("id".to_owned(), id.unwrap_or(Value::Null)),
        ("ok".to_owned(), Value::Bool(false)),
        ("error".to_owned(), Value::from(message)),
    ];
    if let Some(session) = session {
        fields.insert(2, ("session".to_owned(), Value::from(session)));
    }
    json::to_string(&Value::Record(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_pipeline_request() {
        let req = parse_request(
            r#"{"v":1,"op":"pipeline","id":7,"session":"alice","path":"d.bd","reliability":"f.csv","mission_hours":5000}"#,
        )
        .unwrap();
        match req {
            Request::Analysis { meta, request } => {
                assert_eq!(meta.id, Some(Value::Int(7)));
                assert_eq!(meta.session, "alice");
                assert_eq!(request.op, AnalysisOp::Pipeline);
                assert_eq!(request.path, "d.bd");
                assert_eq!(request.spec.reliability.as_deref(), Some("f.csv"));
                assert_eq!(request.spec.mission_hours, Some(5000.0));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_the_stochastic_and_recommendation_ops() {
        let req =
            parse_request(r#"{"op":"montecarlo","path":"d.bd","trials":256,"seed":9}"#).unwrap();
        match req {
            Request::Analysis { request, .. } => {
                assert_eq!(request.op, AnalysisOp::MonteCarlo);
                assert_eq!(request.path, "d.bd");
                assert_eq!(request.spec.trials, 256);
                assert_eq!(request.spec.seed, 9);
            }
            other => panic!("wrong request: {other:?}"),
        }
        let req = parse_request(r#"{"op":"recommend","path":"d.bd"}"#).unwrap();
        assert_eq!(req.op(), "recommend");
        let err = parse_request(r#"{"op":"montecarlo","path":"d.bd","trials":0}"#).unwrap_err();
        assert!(err.message.contains("trials"), "{}", err.message);
    }

    #[test]
    fn protocol_version_is_enforced_and_echoed() {
        assert!(parse_request(r#"{"v":1,"op":"status"}"#).is_ok(), "explicit v1 accepted");
        assert!(parse_request(r#"{"op":"status"}"#).is_ok(), "absent v means v1");
        let err = parse_request(r#"{"v":2,"op":"status","id":4}"#).unwrap_err();
        assert!(err.message.contains("unsupported protocol version"), "{}", err.message);
        assert_eq!(err.id, Some(Value::Int(4)), "version errors still correlate");

        let meta = RequestMeta { id: None, session: "s".into() };
        let ok = json::parse(&ok_response(&meta, "status", 0.1, "null")).unwrap();
        assert_eq!(ok.get("v").and_then(Value::as_i64), Some(PROTOCOL_VERSION));
        let error = json::parse(&error_response(None, None, "boom")).unwrap();
        assert_eq!(error.get("v").and_then(Value::as_i64), Some(PROTOCOL_VERSION));
    }

    #[test]
    fn defaults_are_filled_in() {
        let req = parse_request(r#"{"op":"analyze","path":"m.json"}"#).unwrap();
        assert_eq!(req.meta().session, DEFAULT_SESSION);
        assert_eq!(req.meta().id, None);
        assert_eq!(req.op(), "analyze");
    }

    #[test]
    fn junk_and_truncated_lines_are_typed_errors() {
        for line in ["not json", "{\"op\":\"analyze\",\"path\":", "[1,2]", "42", "\"op\""] {
            let err = parse_request(line).unwrap_err();
            assert!(err.message.contains("bad request"), "{line}: {}", err.message);
        }
    }

    #[test]
    fn errors_salvage_correlation_context() {
        let err = parse_request(r#"{"op":"frobnicate","id":"x","session":"s1"}"#).unwrap_err();
        assert_eq!(err.id, Some(Value::Str("x".into())));
        assert_eq!(err.session.as_deref(), Some("s1"));
        assert!(err.message.contains("unknown op"));

        let err = parse_request(r#"{"op":"analyze","id":3}"#).unwrap_err();
        assert_eq!(err.id, Some(Value::Int(3)));
        assert!(err.message.contains("needs a `path`"));
    }

    #[test]
    fn structured_ids_are_not_echoed() {
        let err = parse_request(r#"{"op":"nope","id":{"a":1}}"#).unwrap_err();
        assert_eq!(err.id, None);
    }

    #[test]
    fn responses_are_single_json_lines() {
        let meta = RequestMeta { id: Some(Value::Int(1)), session: "s".into() };
        let result = Value::record([("x", Value::Int(1))]);
        let ok = ok_response(&meta, "status", 0.5, &json::to_string(&result));
        assert!(!ok.contains('\n'));
        let parsed = json::parse(&ok).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(parsed.get("id").and_then(Value::as_i64), Some(1));
        assert_eq!(parsed.get("result"), Some(&result));
        // The spliced frame is the text of the whole record.
        let whole = Value::record([
            ("v", Value::Int(PROTOCOL_VERSION)),
            ("id", Value::Int(1)),
            ("session", Value::from("s")),
            ("op", Value::from("status")),
            ("ok", Value::Bool(true)),
            ("wall_ms", Value::Real(0.5)),
            ("result", result),
        ]);
        assert_eq!(ok, json::to_string(&whole));

        let err = error_response(None, None, "boom");
        let parsed = json::parse(&err).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(parsed.get("error").and_then(Value::as_str), Some("boom"));
        assert!(matches!(parsed.get("id"), Some(Value::Null)));
    }
}
