//! The request loop: parse one line, dispatch it panic-isolated into the
//! addressed session, answer with exactly one response line.
//!
//! [`Daemon`] is transport-agnostic — [`Daemon::handle_line`] maps an
//! input line to an optional output line and is driven by the stdio loop
//! ([`run_stdio`]), the unix-socket accept loop ([`run_socket`]) and the
//! file watcher ([`crate::watch`]). Every failure mode of a request —
//! junk bytes, a missing model file, an analysis error, a panic — yields
//! one typed `error` response; nothing a client sends can terminate the
//! daemon (only `shutdown`, SIGINT or SIGTERM do).

use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use decisive_core::request::AnalysisRequest;
use decisive_engine::{SharedStore, StoreOptions, StoreRecovery};
use decisive_federation::{json, Value};
use decisive_obs::Telemetry;

use crate::interrupt;
use crate::output;
use crate::protocol::{self, Request, RequestMeta, PROTOCOL_VERSION};
use crate::session::{Session, SessionRegistry};

/// Daemon configuration, mirroring the engine-relevant CLI flags.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Worker threads per session engine (`None` = engine default).
    pub jobs: Option<usize>,
    /// Per-job deadline in milliseconds, forwarded to every session
    /// engine — this is what keeps one unsolvable request from stalling
    /// the daemon-wide design loop.
    pub deadline_ms: Option<f64>,
    /// Directory of the durable shared store: opened, with crash
    /// recovery, on start and committed after every request. `None`
    /// keeps the store purely in memory.
    pub cache_dir: Option<PathBuf>,
    /// Default reliability CSV for `.bd` analyses; requests may override
    /// it per call.
    pub reliability: Option<String>,
    /// Default FTA mission time in hours (10 000 when unset).
    pub mission_hours: Option<f64>,
    /// Close a socket connection that has been silent this long, after
    /// sending one typed error response. `None` keeps connections open
    /// indefinitely (the historical behaviour).
    pub idle_timeout_ms: Option<u64>,
    /// Path of a fleet campaign's live `FLEET_STATUS.json`; when set (and
    /// the file is readable) the `status` op embeds its counts under
    /// `fleet`, so one daemon doubles as the campaign's observer.
    pub fleet_status: Option<PathBuf>,
}

/// The analysis daemon: a session registry over one shared store, plus
/// the request counters.
#[derive(Debug)]
pub struct Daemon {
    options: ServeOptions,
    registry: SessionRegistry,
    telemetry: Telemetry,
    requests: AtomicU64,
    shutdown: AtomicBool,
    /// What store recovery found at startup (durable daemons only) —
    /// surfaced by the `status` op so clients can see repairs.
    recovery: Option<StoreRecovery>,
}

fn lock_session(session: &Arc<Mutex<Session>>) -> std::sync::MutexGuard<'_, Session> {
    // A panic inside a request poisons the session mutex; the run state
    // it guards is reset per request and the engine's store is a handle
    // no pass can take away, so recover the guard — the session stays
    // usable, warm and shared.
    match session.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = panic.downcast_ref::<&str>() {
        (*text).to_owned()
    } else if let Some(text) = panic.downcast_ref::<String>() {
        text.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

impl Daemon {
    /// Builds a daemon. With `options.cache_dir` set the shared store is
    /// backed by the durable segmented log under `<dir>/store/` — warm
    /// start is one index scan and every completed pass is durable
    /// immediately. Corrupt frames are quarantined by recovery, never
    /// fatal.
    ///
    /// # Errors
    ///
    /// A human-readable message when the cache directory exists but
    /// cannot be opened.
    pub fn new(options: ServeOptions, telemetry: Telemetry) -> Result<Daemon, String> {
        let (shared, recovery) = match &options.cache_dir {
            Some(dir) => {
                let (shared, recovery) =
                    SharedStore::open_durable(dir, StoreOptions::default(), telemetry.clone())
                        .map_err(|e| e.to_string())?;
                (shared, Some(recovery))
            }
            None => (SharedStore::new(), None),
        };
        let registry =
            SessionRegistry::new(shared, options.jobs, options.deadline_ms, telemetry.clone());
        Ok(Daemon {
            options,
            registry,
            telemetry,
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            recovery,
        })
    }

    /// The session registry (for status inspection and tests).
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// The cross-session shared artefact store.
    pub fn shared(&self) -> &SharedStore {
        self.registry.shared()
    }

    /// Lines handled so far (requests plus malformed lines).
    pub fn requests_handled(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// `true` once a `shutdown` request was accepted; the transport loops
    /// poll this and exit.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Commits the shared store (a no-op without a cache directory).
    /// Durable stores persisted every artefact as it was computed, so
    /// this is just the final fsync — there is no wholesale rewrite to
    /// lose. Idempotent; called by `shutdown` and by every transport loop
    /// on its way out.
    ///
    /// # Errors
    ///
    /// A human-readable message on I/O failure.
    pub fn persist(&self) -> Result<(), String> {
        if self.options.cache_dir.is_none() {
            return Ok(());
        }
        self.shared().sync_durable().map_err(|e| e.to_string())
    }

    /// Handles one wire line: `None` for blank input, otherwise exactly
    /// one response line. Panics inside the request are caught and
    /// reported as `error` responses — the daemon (and the session)
    /// survive any input.
    pub fn handle_line(&self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.telemetry.count("serve.requests", 1);
        let shared_hits_before = self.shared().shared_hits();
        let started = Instant::now();
        let response = match protocol::parse_request(line) {
            Err(e) => protocol::error_response(e.id, e.session.as_deref(), &e.message),
            Ok(request) => {
                let meta = request.meta().clone();
                let op = request.op();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut span = self.telemetry.span(format!("request:{op}"), "serve");
                    span.arg("session", meta.session.as_str());
                    self.dispatch(&request)
                }));
                match outcome {
                    Ok(Ok(result)) => {
                        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                        protocol::ok_response(&meta, op, wall_ms, &result)
                    }
                    Ok(Err(message)) => {
                        protocol::error_response(meta.id, Some(&meta.session), &message)
                    }
                    Err(panic) => protocol::error_response(
                        meta.id,
                        Some(&meta.session),
                        &format!("request panicked: {}", panic_message(panic.as_ref())),
                    ),
                }
            }
        };
        let shared_delta = self.shared().shared_hits().saturating_sub(shared_hits_before);
        if shared_delta > 0 {
            self.telemetry.count("serve.cache_shared_hits", shared_delta);
        }
        if self.shared().is_durable() {
            // Per-request durability plus opportunistic compaction. Both
            // are best-effort here: artefact writes already surfaced
            // their own errors in the response, and a failed compaction
            // never loses data (the manifest swap is the commit point).
            if self.shared().sync_durable().is_err() {
                self.telemetry.count("store.sync_errors", 1);
            }
            if self.shared().maybe_compact().is_err() {
                self.telemetry.count("store.compact_errors", 1);
            }
        }
        self.telemetry.duration_ms("serve.request_ms", started.elapsed().as_secs_f64() * 1e3);
        Some(response)
    }

    /// Runs one parsed request; `Ok` holds the JSON text of its `result`.
    fn dispatch(&self, request: &Request) -> Result<String, String> {
        match request {
            Request::Analysis { meta, request } => self.execute(meta, request),
            Request::Status { .. } => Ok(json::to_string(&self.status_value())),
            Request::Shutdown { .. } => {
                self.shutdown.store(true, Ordering::SeqCst);
                self.persist()?;
                Ok(json::to_string(&Value::record([("stopping", Value::Bool(true))])))
            }
        }
    }

    /// Runs one analysis op in the addressed session, as the CLI verb of
    /// the same name would, with the daemon's reliability annex and
    /// mission time standing in for those the request leaves unset. The
    /// `strict` verdict is checked before answering.
    fn execute(&self, meta: &RequestMeta, request: &AnalysisRequest) -> Result<String, String> {
        let session = self.registry.get_or_create(&meta.session)?;
        let mut session = lock_session(&session);
        session.requests += 1;
        let engine = &mut session.engine;
        // Each response reports exactly its own run, as a fresh CLI
        // invocation would; the shared store stays warm.
        engine.reset_run_state();
        let mut request = request.clone();
        let spec = &mut request.spec;
        spec.reliability = spec.reliability.take().or_else(|| self.options.reliability.clone());
        spec.mission_hours = spec.mission_hours.or(self.options.mission_hours);
        let output = engine.execute(&request).map_err(|e| e.to_string())?;
        engine.enforce_strict(request.spec.strict).map_err(|e| e.to_string())?;
        output::document(output, engine)
    }

    fn status_value(&self) -> Value {
        let sessions: Vec<Value> = self
            .registry
            .sessions()
            .iter()
            .map(|session| {
                let session = lock_session(session);
                Value::record([
                    ("name", Value::from(session.name.as_str())),
                    ("requests", Value::Int(session.requests as i64)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("protocol", Value::Int(PROTOCOL_VERSION)),
            ("requests_handled", Value::Int(self.requests_handled() as i64)),
            ("sessions", Value::List(sessions)),
            ("shared_entries", Value::Int(self.shared().len() as i64)),
            ("shared_hits", Value::Int(self.shared().shared_hits() as i64)),
        ];
        if let Some(health) = self.shared().durable_health() {
            fields.push(("store", health.to_value()));
        }
        if let Some(recovery) = &self.recovery {
            fields.push(("store_recovery", recovery.to_value()));
        }
        if let Some(path) = &self.options.fleet_status {
            // Read + parse best-effort: the campaign may not have started
            // yet, or may be mid-rewrite — status must never fail over it.
            let fleet = std::fs::read_to_string(path).ok().and_then(|text| json::parse(&text).ok());
            if let Some(fleet) = fleet {
                fields.push(("fleet", fleet));
            }
        }
        Value::record(fields)
    }
}

/// Drives a daemon from a line-oriented reader to a writer — the
/// stdin/stdout transport. Returns after a `shutdown` request, on EOF, or
/// when [`interrupt::interrupted`] trips (the reader thread is detached;
/// a blocked read never delays shutdown), persisting the shared store on
/// every path.
///
/// # Errors
///
/// I/O failure on the output side, or a failed final persist.
pub fn run_stdio<R, W>(daemon: &Daemon, input: R, mut output: W) -> std::io::Result<()>
where
    R: Read + Send + 'static,
    W: Write,
{
    let (sender, receiver) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        let reader = std::io::BufReader::new(input);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if sender.send(line).is_err() {
                break;
            }
        }
    });
    loop {
        if daemon.shutdown_requested() || interrupt::interrupted() {
            break;
        }
        match receiver.recv_timeout(std::time::Duration::from_millis(interrupt::POLL_MS)) {
            Ok(line) => {
                if let Some(response) = daemon.handle_line(&line) {
                    writeln!(output, "{response}")?;
                    output.flush()?;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    daemon.persist().map_err(std::io::Error::other)
}

/// Serves a daemon on a unix socket: a non-blocking accept loop, one
/// thread per connection, every connection multiplexing any number of
/// sessions. Returns after `shutdown`/interrupt, removing the socket file
/// and persisting the shared store.
///
/// # Errors
///
/// Socket setup or accept failure, or a failed final persist.
#[cfg(unix)]
pub fn run_socket(daemon: &Arc<Daemon>, path: &std::path::Path) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;

    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let mut workers = Vec::new();
    while !daemon.shutdown_requested() && !interrupt::interrupted() {
        match listener.accept() {
            Ok((stream, _)) => {
                let daemon = daemon.clone();
                workers.push(std::thread::spawn(move || serve_connection(&daemon, stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(interrupt::POLL_MS));
            }
            Err(e) => {
                std::fs::remove_file(path).ok();
                return Err(e);
            }
        }
    }
    for worker in workers {
        worker.join().ok();
    }
    std::fs::remove_file(path).ok();
    daemon.persist().map_err(std::io::Error::other)
}

/// One connection: reads newline-delimited frames with a short read
/// timeout (so a quiet connection still notices daemon shutdown), writes
/// one response line per frame.
#[cfg(unix)]
fn serve_connection(daemon: &Daemon, mut stream: std::os::unix::net::UnixStream) {
    stream.set_read_timeout(Some(std::time::Duration::from_millis(interrupt::POLL_MS))).ok();
    let idle_timeout = daemon.options.idle_timeout_ms.map(std::time::Duration::from_millis);
    let mut last_activity = std::time::Instant::now();
    let mut pending = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if daemon.shutdown_requested() || interrupt::interrupted() {
            return;
        }
        if let Some(limit) = idle_timeout {
            if last_activity.elapsed() >= limit {
                // One typed goodbye, then close — a silent client must
                // not pin a worker thread (and its fd) forever.
                let response = protocol::error_response(
                    None,
                    None,
                    &format!("idle timeout: no request in {} ms", limit.as_millis()),
                );
                let _ = writeln!(&mut stream, "{response}");
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                last_activity = std::time::Instant::now();
                pending.extend_from_slice(&chunk[..n]);
                while let Some(newline) = pending.iter().position(|&b| b == b'\n') {
                    let frame: Vec<u8> = pending.drain(..=newline).collect();
                    let line = String::from_utf8_lossy(&frame[..newline]);
                    if let Some(response) = daemon.handle_line(&line) {
                        if writeln!(stream, "{response}").is_err() {
                            return;
                        }
                    }
                    if daemon.shutdown_requested() {
                        return;
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decisive_core::persist;
    use decisive_federation::json;

    fn daemon() -> Daemon {
        Daemon::new(ServeOptions { jobs: Some(1), ..ServeOptions::default() }, Telemetry::noop())
            .unwrap()
    }

    fn model_file(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("decisive_serve_{}_{name}", std::process::id()));
        let (model, _) = decisive_core::case_study::ssam_model();
        persist::save_model(&model, &path).unwrap();
        path
    }

    #[test]
    fn blank_lines_are_ignored() {
        let daemon = daemon();
        assert_eq!(daemon.handle_line(""), None);
        assert_eq!(daemon.handle_line("   \t "), None);
        assert_eq!(daemon.requests_handled(), 0);
    }

    #[test]
    fn junk_yields_one_error_and_the_daemon_survives() {
        let daemon = daemon();
        let response = daemon.handle_line("definitely not json").unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(false));
        // Still serving after the junk.
        let response = daemon.handle_line(r#"{"op":"status"}"#).unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(daemon.requests_handled(), 2);
    }

    #[test]
    fn analyze_request_round_trips_and_warms_the_session() {
        let daemon = daemon();
        let path = model_file("analyze.json");
        let request =
            format!(r#"{{"op":"analyze","id":1,"session":"s1","path":"{}"}}"#, path.display());
        let response = daemon.handle_line(&request).unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true), "{response}");
        assert_eq!(parsed.get("id").and_then(Value::as_i64), Some(1));
        assert_eq!(parsed.get("session").and_then(Value::as_str), Some("s1"));
        let result = parsed.get("result").unwrap();
        assert!(result.get("metrics").is_some());
        // Second session, same model: served from the shared store.
        let request =
            format!(r#"{{"op":"analyze","id":2,"session":"s2","path":"{}"}}"#, path.display());
        let response = daemon.handle_line(&request).unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
        let stats = parsed.get("result").unwrap().get("stats").unwrap();
        let executed: i64 = stats
            .get("phases")
            .and_then(|p| match p {
                Value::List(items) => Some(
                    items
                        .iter()
                        .filter_map(|i| i.get("jobs_executed").and_then(Value::as_i64))
                        .sum(),
                ),
                _ => None,
            })
            .unwrap();
        assert_eq!(executed, 0, "zero recomputed artifacts in the second session");
        assert!(daemon.shared().shared_hits() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_error_response_not_a_death() {
        let daemon = daemon();
        let response =
            daemon.handle_line(r#"{"op":"pipeline","id":9,"path":"/no/such/model.json"}"#).unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(parsed.get("id").and_then(Value::as_i64), Some(9));
        assert!(parsed.get("error").and_then(Value::as_str).is_some());
        assert!(!daemon.shutdown_requested());
    }

    #[test]
    fn status_reports_sessions_and_shared_state() {
        let daemon = daemon();
        let path = model_file("status.json");
        daemon
            .handle_line(&format!(
                r#"{{"op":"analyze","session":"a","path":"{}"}}"#,
                path.display()
            ))
            .unwrap();
        let response = daemon.handle_line(r#"{"op":"status"}"#).unwrap();
        let parsed = json::parse(&response).unwrap();
        let result = parsed.get("result").unwrap();
        assert_eq!(result.get("protocol").and_then(Value::as_i64), Some(PROTOCOL_VERSION));
        assert!(result.get("shared_entries").and_then(Value::as_i64).unwrap() > 0);
        let Some(Value::List(sessions)) = result.get("sessions") else { panic!("sessions") };
        assert!(sessions.iter().any(|s| s.get("name").and_then(Value::as_str) == Some("a")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shutdown_sets_the_flag_and_persists() {
        let dir = std::env::temp_dir().join(format!("decisive_serve_shut_{}", std::process::id()));
        let daemon = Daemon::new(
            ServeOptions { jobs: Some(1), cache_dir: Some(dir.clone()), ..ServeOptions::default() },
            Telemetry::noop(),
        )
        .unwrap();
        let path = model_file("shutdown.json");
        daemon.handle_line(&format!(r#"{{"op":"analyze","path":"{}"}}"#, path.display())).unwrap();
        let response = daemon.handle_line(r#"{"op":"shutdown","id":"bye"}"#).unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
        assert!(daemon.shutdown_requested());
        // A fresh daemon over the same cache dir starts warm.
        let revived = Daemon::new(
            ServeOptions { jobs: Some(1), cache_dir: Some(dir.clone()), ..ServeOptions::default() },
            Telemetry::noop(),
        )
        .unwrap();
        assert!(!revived.shared().is_empty());
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_counters_and_latency_are_recorded() {
        let (telemetry, sink) = Telemetry::recording();
        let daemon =
            Daemon::new(ServeOptions { jobs: Some(1), ..ServeOptions::default() }, telemetry)
                .unwrap();
        let path = model_file("counters.json");
        let line = format!(r#"{{"op":"analyze","session":"x","path":"{}"}}"#, path.display());
        daemon.handle_line(&line).unwrap();
        let line = format!(r#"{{"op":"analyze","session":"y","path":"{}"}}"#, path.display());
        daemon.handle_line(&line).unwrap();
        let report = sink.drain();
        assert_eq!(report.counters.get("serve.requests"), Some(&2));
        assert_eq!(report.counters.get("serve.sessions"), Some(&2));
        assert!(report.counters.get("serve.cache_shared_hits").copied().unwrap_or(0) > 0);
        let latency = report.histograms.get("serve.request_ms").expect("latency histogram");
        assert_eq!(latency.count, 2);
        assert!(report.spans.iter().any(|s| s.name == "request:analyze"
            && s.args.iter().any(|(k, v)| k == "session" && v == "y")));
        std::fs::remove_file(&path).ok();
    }

    fn diagram_file(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("decisive_serve_{}_{name}.bd", std::process::id()));
        let (diagram, _) = decisive_blocks::gallery::sensor_power_supply();
        std::fs::write(&path, decisive_blocks::text::to_text(&diagram)).unwrap();
        path
    }

    #[test]
    fn montecarlo_request_is_seeded_and_repeatable() {
        let daemon = daemon();
        let path = diagram_file("mc");
        let request = format!(
            r#"{{"v":1,"op":"montecarlo","id":1,"session":"mc","path":"{}","trials":16,"seed":9}}"#,
            path.display()
        );
        let response = daemon.handle_line(&request).unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true), "{response}");
        assert_eq!(parsed.get("v").and_then(Value::as_i64), Some(PROTOCOL_VERSION));
        let report = parsed.get("result").unwrap().get("report").unwrap();
        assert_eq!(report.get("trials").and_then(Value::as_i64), Some(16));
        assert_eq!(report.get("seed").and_then(Value::as_i64), Some(9));
        let spfm = report.get("spfm").unwrap().clone();
        assert!(spfm.get("mean").is_some() && spfm.get("half_width").is_some());
        // Same seed again, warm session: bitwise-identical report.
        let again = daemon.handle_line(&request).unwrap();
        let reparsed = json::parse(&again).unwrap();
        assert_eq!(reparsed.get("result").unwrap().get("report").unwrap(), report);
        // Graph models have no injection campaign to sample.
        let model_path = model_file("mc_graph.json");
        let bad = format!(r#"{{"op":"montecarlo","path":"{}"}}"#, model_path.display());
        let response = daemon.handle_line(&bad).unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(false));
        assert!(parsed.get("error").and_then(Value::as_str).unwrap().contains(".bd"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&model_path).ok();
    }

    fn data(file: &str) -> String {
        format!("{}/../../data/{file}", env!("CARGO_MANIFEST_DIR"))
    }

    /// Answers one request and returns `(ok, error, result)`.
    fn answer(daemon: &Daemon, line: &str) -> (bool, Option<String>, Option<Value>) {
        let response = json::parse(&daemon.handle_line(line).unwrap()).unwrap();
        let ok = response.get("ok").and_then(Value::as_bool).unwrap();
        let error = response.get("error").and_then(Value::as_str).map(str::to_owned);
        (ok, error, response.get("result").cloned())
    }

    #[test]
    fn strict_requests_fail_on_a_malformed_reliability_annex() {
        let daemon = daemon();
        let csv =
            std::env::temp_dir().join(format!("decisive_serve_{}_banana.csv", std::process::id()));
        std::fs::write(
            &csv,
            "Component,FIT,Failure_Mode,Distribution\nResistor,5,Drift,1\nMC,banana,RAM Failure,1\n",
        )
        .unwrap();
        let request = |strict: &str| {
            format!(
                r#"{{"op":"analyze","path":"{}","reliability":"{}"{strict}}}"#,
                data("brownout_threshold.bd"),
                csv.display()
            )
        };
        let (ok, error, _) = answer(&daemon, &request(r#","strict":true"#));
        assert!(!ok);
        assert_eq!(
            error.as_deref(),
            Some("invalid parameter: reliability row 1: `FIT` must be numeric"),
            "the error `decisive analyze --strict` prints"
        );
        let (ok, error, result) = answer(&daemon, &request(""));
        assert!(ok, "{error:?}");
        let degraded = result.unwrap().get("degraded").cloned().unwrap();
        let Some(Value::List(substituted)) = degraded.get("substituted_fits") else {
            panic!("substituted_fits in {degraded:?}");
        };
        assert_eq!(substituted.len(), 1, "the lenient run substitutes the FIT");
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn strict_requests_pass_on_a_healthy_campaign() {
        let daemon = daemon();
        let line =
            format!(r#"{{"op":"analyze","path":"{}","strict":true}}"#, data("power_supply.bd"));
        let (ok, error, result) = answer(&daemon, &line);
        assert!(ok, "{error:?}");
        assert!(result.unwrap().get("campaign").is_some_and(|c| !matches!(c, Value::Null)));
    }

    #[test]
    fn recommend_request_ranks_candidate_deployments() {
        let daemon = daemon();
        let path = diagram_file("rec");
        let request = format!(r#"{{"op":"recommend","id":2,"path":"{}"}}"#, path.display());
        let response = daemon.handle_line(&request).unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true), "{response}");
        let report = parsed.get("result").unwrap().get("report").unwrap();
        let Some(Value::List(recs)) = report.get("recommendations") else {
            panic!("recommendations list in {response}");
        };
        assert!(!recs.is_empty());
        assert!(report.get("baseline").unwrap().get("spfm").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_protocol_version_is_rejected_with_context() {
        let daemon = daemon();
        let response = daemon.handle_line(r#"{"v":2,"op":"status","id":7,"session":"s"}"#).unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(parsed.get("id").and_then(Value::as_i64), Some(7));
        let error = parsed.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains("protocol version"), "{response}");
    }

    #[cfg(unix)]
    #[test]
    fn idle_connection_gets_one_typed_error_then_close() {
        let daemon = Arc::new(
            Daemon::new(
                ServeOptions {
                    jobs: Some(1),
                    idle_timeout_ms: Some(100),
                    ..ServeOptions::default()
                },
                Telemetry::noop(),
            )
            .unwrap(),
        );
        let (client, server) = std::os::unix::net::UnixStream::pair().unwrap();
        let worker = {
            let daemon = daemon.clone();
            std::thread::spawn(move || serve_connection(&daemon, server))
        };
        // Send nothing: the daemon must hang up on its own, with one
        // parseable error line first.
        let mut response = String::new();
        let mut reader = std::io::BufReader::new(&client);
        reader.read_line(&mut response).unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(false));
        assert!(
            parsed.get("error").and_then(Value::as_str).unwrap().contains("idle timeout"),
            "{response}"
        );
        response.clear();
        assert_eq!(reader.read_line(&mut response).unwrap(), 0, "connection closed after");
        worker.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn active_connection_outlives_the_idle_timeout() {
        let daemon = Arc::new(
            Daemon::new(
                ServeOptions {
                    jobs: Some(1),
                    idle_timeout_ms: Some(300),
                    ..ServeOptions::default()
                },
                Telemetry::noop(),
            )
            .unwrap(),
        );
        let (mut client, server) = std::os::unix::net::UnixStream::pair().unwrap();
        let worker = {
            let daemon = daemon.clone();
            std::thread::spawn(move || serve_connection(&daemon, server))
        };
        let mut reader_stream = client.try_clone().unwrap();
        // Keep requesting under the timeout: every response must be ok.
        for _ in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(150));
            writeln!(client, r#"{{"op":"status"}}"#).unwrap();
            let mut response = String::new();
            let mut reader = std::io::BufReader::new(&mut reader_stream);
            reader.read_line(&mut response).unwrap();
            let parsed = json::parse(&response).unwrap();
            assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true), "{response}");
        }
        drop(client);
        drop(reader_stream);
        worker.join().unwrap();
    }

    #[test]
    fn status_embeds_the_fleet_snapshot_when_configured() {
        let path =
            std::env::temp_dir().join(format!("decisive_serve_fleet_{}.json", std::process::id()));
        std::fs::write(&path, r#"{"total":5,"completed":3,"ok":2,"quarantined":1}"#).unwrap();
        let daemon = Daemon::new(
            ServeOptions {
                jobs: Some(1),
                fleet_status: Some(path.clone()),
                ..ServeOptions::default()
            },
            Telemetry::noop(),
        )
        .unwrap();
        let response = daemon.handle_line(r#"{"op":"status"}"#).unwrap();
        let parsed = json::parse(&response).unwrap();
        let fleet = parsed.get("result").unwrap().get("fleet").expect("fleet section");
        assert_eq!(fleet.get("total").and_then(Value::as_i64), Some(5));
        assert_eq!(fleet.get("quarantined").and_then(Value::as_i64), Some(1));
        // A missing file must not break status.
        std::fs::remove_file(&path).unwrap();
        let response = daemon.handle_line(r#"{"op":"status"}"#).unwrap();
        let parsed = json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
        assert!(parsed.get("result").unwrap().get("fleet").is_none());
    }
}
