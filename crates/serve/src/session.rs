//! The session registry: one warm [`Engine`] per named session, all
//! holding a handle onto a single cross-session [`SharedStore`].
//!
//! A *session* is an independent line of work — one designer, one model
//! revision stream — identified by the `session` field of a request and
//! created on first use. Each session's engine keeps its own stats and
//! run state, while the one store deduplicates artefacts across sessions
//! by content fingerprint: the second session to request an
//! already-analyzed model is served entirely from the store without
//! recomputing anything.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use decisive_engine::{Engine, SharedStore};
use decisive_obs::Telemetry;

/// One live session: its warm engine and a request count for `status`.
#[derive(Debug)]
pub struct Session {
    /// The session name requests address it by.
    pub name: String,
    /// The session's engine; its store is a handle onto the registry's
    /// shared store.
    pub engine: Engine,
    /// Requests dispatched into this session so far.
    pub requests: u64,
}

/// The registry mapping session names to live sessions.
///
/// Sessions are handed out as `Arc<Mutex<Session>>`: concurrent requests
/// to *different* sessions run in parallel (each locks only its own
/// session), concurrent requests to the *same* session serialise on its
/// mutex — a session is one logical stream of work.
#[derive(Debug)]
pub struct SessionRegistry {
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    shared: SharedStore,
    jobs: Option<usize>,
    deadline_ms: Option<f64>,
    telemetry: Telemetry,
}

impl SessionRegistry {
    /// A registry whose sessions run with the given engine settings and
    /// report through `telemetry`.
    pub fn new(
        shared: SharedStore,
        jobs: Option<usize>,
        deadline_ms: Option<f64>,
        telemetry: Telemetry,
    ) -> Self {
        SessionRegistry {
            sessions: Mutex::new(HashMap::new()),
            shared,
            jobs,
            deadline_ms,
            telemetry,
        }
    }

    /// The artefact store every session's engine holds a handle onto.
    pub fn shared(&self) -> &SharedStore {
        &self.shared
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().expect("session registry poisoned").len()
    }

    /// `true` before the first session is created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The named session, created (with a fresh engine over the shared
    /// store) on first use. Creation bumps the `serve.sessions` counter.
    ///
    /// # Errors
    ///
    /// A human-readable message when the engine cannot be built.
    pub fn get_or_create(&self, name: &str) -> Result<Arc<Mutex<Session>>, String> {
        let mut sessions = self.sessions.lock().expect("session registry poisoned");
        if let Some(session) = sessions.get(name) {
            return Ok(session.clone());
        }
        let mut builder =
            Engine::builder().shared_store(self.shared.clone()).telemetry(self.telemetry.clone());
        if let Some(jobs) = self.jobs {
            builder = builder.jobs(jobs);
        }
        if let Some(ms) = self.deadline_ms {
            builder = builder.deadline_ms(ms);
        }
        let engine = builder.build().map_err(|e| e.to_string())?;
        let session = Arc::new(Mutex::new(Session { name: name.to_owned(), engine, requests: 0 }));
        sessions.insert(name.to_owned(), session.clone());
        self.telemetry.count("serve.sessions", 1);
        Ok(session)
    }

    /// All live sessions, sorted by name (for deterministic `status`
    /// output).
    pub fn sessions(&self) -> Vec<Arc<Mutex<Session>>> {
        let sessions = self.sessions.lock().expect("session registry poisoned");
        let mut named: Vec<(&String, &Arc<Mutex<Session>>)> = sessions.iter().collect();
        named.sort_by(|a, b| a.0.cmp(b.0));
        named.into_iter().map(|(_, s)| s.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> SessionRegistry {
        SessionRegistry::new(SharedStore::new(), Some(1), None, Telemetry::noop())
    }

    #[test]
    fn sessions_are_created_once_and_shared_after() {
        let registry = registry();
        assert!(registry.is_empty());
        let a = registry.get_or_create("alice").unwrap();
        let again = registry.get_or_create("alice").unwrap();
        assert!(Arc::ptr_eq(&a, &again));
        registry.get_or_create("bob").unwrap();
        assert_eq!(registry.len(), 2);
        let names: Vec<String> =
            registry.sessions().iter().map(|s| s.lock().unwrap().name.clone()).collect();
        assert_eq!(names, ["alice", "bob"]);
    }

    #[test]
    fn session_engines_overlay_the_registry_shared_store() {
        let registry = registry();
        let session = registry.get_or_create("alice").unwrap();
        let session = session.lock().unwrap();
        let key = decisive_engine::fingerprint::Hasher::new().write_str("k").finish();
        registry.shared().put(decisive_engine::ArtifactKind::GraphRow, key, "D1", &1i64).unwrap();
        assert_eq!(session.engine.cache().len(), 1, "the session's store is the registry's");
    }

    #[test]
    fn session_creation_is_counted() {
        let (telemetry, sink) = Telemetry::recording();
        let registry = SessionRegistry::new(SharedStore::new(), Some(1), None, telemetry);
        registry.get_or_create("a").unwrap();
        registry.get_or_create("a").unwrap();
        registry.get_or_create("b").unwrap();
        assert_eq!(sink.drain().counters.get("serve.sessions"), Some(&2));
    }
}
