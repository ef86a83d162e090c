//! The one classifier: the only place an inbound artifact is sniffed
//! and a query parsed.
//!
//! Every transport — the pipe loop, the router (behind `--follow`
//! tails and forwarded requests) and the connection threads — calls
//! [`classify`] on the raw artifact text and acts on the [`Action`] it
//! returns: a telemetry reply already rendered from [`dna_obs`], a
//! `sessions` listing, work for one named session's engine, or a
//! rejection. Which session the work is for is decided by
//! [`Action::settle`], so the naming rule lives here too.

use crate::engine::Reply;
use dna_io::{Artifact, Checkpoint, QueryKind, Response, SessionInfo};
use net_model::Snapshot;

/// Engine-side work for one session — what [`crate::engine`] applies,
/// inline or on the session's own thread.
pub(crate) enum Work {
    /// (Re)open the session over an already-parsed snapshot, resuming
    /// the checkpoint when there is one (its snapshot source already
    /// resolved): startup preloads and streamed checkpoint artifacts.
    Load(Box<(Option<Checkpoint>, Snapshot)>),
    /// Parse raw snapshot artifact text, then (re)open over it. Raw
    /// text so the parse of a large artifact runs on the session's
    /// thread, never stalling the router (and with it other sessions).
    LoadText(String),
    /// Parse raw trace artifact text, then ingest it epoch by epoch.
    IngestText(String),
    /// Answer one query. A read-only kind (reach, reach-pair, blast,
    /// report, stats) may instead be answered from the session's
    /// published [`crate::QueryView`] — the connections' read path.
    Query(Box<QueryKind>),
}

/// Which session an [`Action::Engine`] is for.
pub(crate) enum Target {
    /// Opens or replaces the session, creating the name if absent:
    /// snapshot artifacts carry the stream binding, checkpoint
    /// artifacts the name recorded inside them.
    Open(Option<String>),
    /// The session must already exist: trace artifacts carry the
    /// stream binding, queries their own `session` line.
    Existing(Option<String>),
}

/// What to do with one inbound artifact.
pub(crate) enum Action {
    /// A telemetry query (`metrics`/`trace`/`health`/`history`),
    /// already answered: the rendered reply artifact. Telemetry is
    /// process-global, so it is answered where it is classified and
    /// never queues behind engine work.
    Obs(String),
    /// `sessions`: the executor lists the sessions it hosts.
    Sessions,
    /// Work for one session's engine.
    Engine { target: Target, work: Work },
    /// Answered with an `error` response; no session is touched
    /// (malformed or truncated artifacts, artifact kinds a server
    /// cannot ingest).
    Reject(String),
}

impl Action {
    /// Settles everything an executor answers without running engine
    /// work: `Err` is the finished reply, `Ok` names the session whose
    /// engine must run the work. `sessions` lists the executor's
    /// sessions; `default` and `exists` are its default session and
    /// session table, for the naming rule — an absent name falls back
    /// to the default (and, when opening, to `"main"`); a
    /// [`Target::Existing`] name must be in the table.
    pub(crate) fn settle(
        self,
        sessions: impl FnOnce() -> Vec<SessionInfo>,
        default: Option<&str>,
        exists: impl Fn(&str) -> bool,
    ) -> Result<(String, Work), Reply> {
        let error = |e: String| Err(Reply::Response(Response::Error(e)));
        let fallback = || default.map(str::to_string);
        match self {
            Action::Obs(reply) => Err(Reply::Raw(reply)),
            Action::Sessions => Err(Reply::Response(Response::Sessions(sessions()))),
            Action::Reject(e) => error(e),
            Action::Engine { target, work } => match target {
                Target::Open(name) => Ok((
                    name.or_else(fallback).unwrap_or_else(|| "main".into()),
                    work,
                )),
                Target::Existing(name) => match name.or_else(fallback) {
                    None => error("no session is open".into()),
                    Some(name) if exists(&name) => Ok((name, work)),
                    Some(name) => error(format!("unknown session {name:?}")),
                },
            },
        }
    }
}

/// A classified artifact: the [`Action`], plus — when the artifact was
/// a well-formed query — the `(session line, command keyword)` pair the
/// query-latency plane records it under.
pub(crate) struct Classified {
    pub(crate) action: Action,
    pub(crate) query: Option<(Option<String>, &'static str)>,
}

/// Classifies one inbound artifact. `stream_session` is the stream's
/// ingest binding for snapshot/trace artifacts (`None` = the default
/// session); queries and checkpoints name their own session.
pub(crate) fn classify(text: &str, stream_session: Option<&str>) -> Classified {
    let stream = || stream_session.map(str::to_string);
    let mut query = None;
    let action = match dna_io::sniff(text) {
        Err(e) => Action::Reject(e.to_string()),
        Ok((_, Artifact::Snapshot)) => Action::Engine {
            target: Target::Open(stream()),
            work: Work::LoadText(text.to_string()),
        },
        Ok((_, Artifact::Trace)) => Action::Engine {
            target: Target::Existing(stream()),
            work: Work::IngestText(text.to_string()),
        },
        // A streamed checkpoint resumes its own named session, so it is
        // parsed here: the target's name lives inside it. A streamed
        // artifact has no file, so `ref` snapshots resolve against the
        // server's working directory. Checkpoint loads are rare
        // (startup, recovery); the bring-up still runs engine-side.
        Ok((_, Artifact::Checkpoint)) => match dna_io::parse_checkpoint(text)
            .map_err(|e| e.to_string())
            .and_then(|c| Ok((crate::resolve_checkpoint_snapshot(&c, None)?, c)))
        {
            Ok((snapshot, ckpt)) => Action::Engine {
                target: Target::Open(Some(ckpt.session.clone())),
                work: Work::Load(Box::new((Some(ckpt), snapshot))),
            },
            Err(e) => Action::Reject(e),
        },
        Ok((_, Artifact::Query)) => match dna_io::parse_query(text) {
            Err(e) => Action::Reject(e.to_string()),
            Ok(q) => {
                query = Some((q.session.clone(), q.kind.name()));
                match crate::obs::obs_reply_for(&q) {
                    Some(reply) => Action::Obs(reply),
                    None if q.kind == QueryKind::Sessions => Action::Sessions,
                    None => Action::Engine {
                        target: Target::Existing(q.session),
                        work: Work::Query(Box::new(q.kind)),
                    },
                }
            }
        },
        Ok((
            _,
            kind @ (Artifact::Report
            | Artifact::Response
            | Artifact::Metrics
            | Artifact::Spans
            | Artifact::History
            | Artifact::Health
            | Artifact::Notify),
        )) => Action::Reject(format!("cannot serve a {kind} artifact")),
    };
    Classified { action, query }
}
