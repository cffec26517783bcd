//! decisive-serve: the persistent analysis daemon.
//!
//! The paper's core claim is that automated safety analysis is fast enough
//! to live *inside* the design loop. A one-shot CLI pays cold-start on
//! every invocation; this crate keeps the engine warm instead: a
//! long-running daemon accepts analysis requests over a line-delimited
//! JSON protocol (stdin/stdout or a unix socket), multiplexing many
//! independent model *sessions* against one cross-session
//! [`decisive_engine::SharedStore`] — each session analyses through its
//! own engine, and every engine's store is a handle onto that one store,
//! so two sessions working on overlapping models deduplicate artefacts by
//! fingerprint.
//!
//! Layering:
//!
//! - [`output`] — the typed result documents (`AnalyzeOutput`,
//!   `PipelineOutput`, …) shared with the CLI's `--format json` mode,
//!   and [`output::document`], the one mapping from an executed request
//!   to its document; on the wire they are the `result` field of a
//!   response;
//! - [`protocol`] — request parsing and response framing: one JSON value
//!   per line, every input line answered by exactly one output line;
//! - [`session`] — the session registry: named sessions, each a warm
//!   [`decisive_engine::Engine`] over the shared store;
//! - [`daemon`] — the request loop: panic-isolated dispatch
//!   ([`daemon::Daemon::handle_line`]) of analysis ops to
//!   [`decisive_engine::Engine::execute`], the stdio loop and the
//!   unix-socket accept loop;
//! - [`watch`] — `--watch`: re-runs the pipeline on model-file mtime
//!   change and streams the (incrementally computed) results;
//! - [`interrupt`] — SIGINT/SIGTERM handling: a process-wide flag the
//!   loops poll, so interrupted runs still flush traces and persist the
//!   shared store.
//!
//! # Protocol example
//!
//! ```text
//! → {"v":1,"op":"pipeline","id":1,"session":"alice","path":"design.bd"}
//! ← {"v":1,"id":1,"session":"alice","op":"pipeline","ok":true,"wall_ms":12.3,"result":{...}}
//! → {"op":"montecarlo","id":2,"session":"alice","path":"design.bd","trials":256,"seed":7}
//! ← {"v":1,"id":2,"session":"alice","op":"montecarlo","ok":true,"wall_ms":40.1,"result":{...}}
//! → {"op":"nonsense"}
//! ← {"v":1,"ok":false,"error":"unknown op `nonsense` (analyze|pipeline|montecarlo|recommend|status|shutdown)"}
//! ```
//!
//! Requests may carry `"v":1`; an absent `v` means v1, anything else is
//! rejected with a typed error.

#![warn(missing_docs)]

pub mod daemon;
pub mod interrupt;
pub mod output;
pub mod protocol;
pub mod session;
pub mod watch;

pub use daemon::{Daemon, ServeOptions};
pub use protocol::{ProtocolError, Request, RequestMeta, PROTOCOL_VERSION};
pub use session::{Session, SessionRegistry};
pub use watch::WatchOptions;
