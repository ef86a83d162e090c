//! # dna-serve — long-running differential analysis service
//!
//! The paper's pitch is that differential analysis makes change impact
//! cheap enough to answer *continuously*. This crate is the subsystem
//! that cashes that in: instead of one-shot load→replay→exit runs, a
//! server keeps live [`dna_core::DiffEngine`]s resident across epochs,
//! ingests `dna-io` change traces incrementally from a stream, and
//! answers queries — reachability, blast radius, report ranges, stats —
//! against the evolving state, never re-simulating from scratch on the
//! query path.
//!
//! One request path: every transport hands raw artifact text to the one
//! classifier, one engine-side handler applies the work it names, and
//! one of two executors (inline, or a thread per session) drives that.
//!
//! * [`session`] — [`Session`]: one live analysis (engine + optional
//!   from-scratch verification shadow + bounded epoch history);
//! * `classify.rs` — the only place an artifact is sniffed and a query
//!   parsed, plus the session-naming rule;
//! * [`engine`] — the engine-side handler, and the inline executor
//!   [`SessionManager`] (pipe mode, the concurrency tests' oracle);
//! * [`server`] — artifact framing, the inline serve loop over any
//!   `BufRead`/`Write` pair (stdio pipes), the engine-channel request
//!   type, file-tail ingest ([`follow_trace`]);
//! * [`router`] — the threaded executor: one panic-fenced engine thread
//!   *per session* behind the request channel — parallel bring-up and
//!   concurrent multi-session ingest with interleaved queries (each
//!   session's engine lives and dies on its own thread);
//! * [`view`] — the published-snapshot read path: after every applied
//!   epoch a session publishes an immutable [`QueryView`] behind an
//!   atomic version counter, so reader threads answer read-only
//!   queries (`read.rs`, the live session's own answer code) without
//!   ever touching an engine thread;
//! * [`subs`] — standing queries: per-session registries of
//!   materialized subscriptions re-evaluated from each commit's diff,
//!   plus the [`NotifyHub`] that fans pushed `notify` artifacts out to
//!   watching connections through bounded, drop-oldest queues (the engine
//!   never blocks on a slow consumer);
//! * [`net`] — the client edge: one accept loop and one connection
//!   loop for stdin, unix-socket and TCP clients alike (read-only
//!   queries answered straight from published views, everything else
//!   forwarded to the engine side, pushed notifies streamed to
//!   subscribers, inbound artifacts capped), and the one client
//!   ([`Endpoint`]) behind `dna query` / `dna watch` / `dna top`;
//! * [`obs`] — the telemetry query surface: `metrics` / `trace` /
//!   `health` / `history` queries answered from the process-global
//!   [`dna_obs`] registry and span ring, byte-identically on every
//!   transport.
//!
//! The wire protocol is `dna-io`'s `query`/`response` artifacts (see
//! `crates/io/FORMAT.md`); the `dna serve` / `dna query` subcommands in
//! `crates/cli` are thin shells over this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
pub mod engine;
pub mod net;
pub mod obs;
mod read;
pub mod router;
pub mod server;
pub mod session;
pub mod subs;
pub mod view;

/// Locks a mutex even when a previous holder panicked while holding
/// it. Every mutex in this crate guards data that is valid at each
/// instruction boundary — a pointer swap (view slots), one `Option`
/// assignment (session info lines), queue bookkeeping (subscription
/// registries, the notify hub), a socket writer whose connection is
/// torn down on its next I/O error anyway — so poison carries no
/// information, and must never turn one panic into a second: not a
/// `sessions` listing, not the ingest path, not the engine's publish
/// path, not a reader.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use engine::SessionManager;
pub use net::{serve_connection, Client, Edge, Endpoint, MAX_ARTIFACT_BYTES};
pub use router::Router;
pub use server::{
    follow_trace, handle_artifact, read_artifact, serve_stream, Request, ServeSummary,
};
pub use session::{
    checkpoint_file_name, coalesced_label, resolve_checkpoint_snapshot, Session, SessionConfig,
};
pub use subs::NotifyHub;
pub use view::{QueryView, ViewReader, ViewRegistry, ViewSlot};
