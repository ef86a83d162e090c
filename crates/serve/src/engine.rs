//! The engine side: the one handler that applies classified `Work`
//! to a session, and the inline executor around it.
//!
//! A `SessionCell` is one named session's engine-side state;
//! `SessionCell::apply` is the single engine-side handler. Two
//! executors drive it because each is needed: **inline**
//! ([`SessionManager`], every session on the caller's thread — pipe
//! mode, non-unix builds, and the sequential oracle the concurrency
//! tests compare against) and **per-session threads**
//! ([`crate::Router`], one cell per panic-fenced engine thread).

use crate::classify::{Action, Work};
use crate::session::{Session, SessionConfig};
use crate::subs::NotifyHub;
use crate::view::ViewSlot;
use dna_io::{parse_snapshot, parse_trace, write_response, Checkpoint, Response, SessionInfo};
use net_model::Snapshot;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one artifact is answered with: almost always a [`Response`],
/// but telemetry queries and standing-query commands reply with
/// pre-serialized artifacts of their own kinds (`metrics`, `notify`, …)
/// that must reach the client byte-exactly.
pub(crate) enum Reply {
    /// A `response` artifact, still typed.
    Response(Response),
    /// Any other reply artifact, already serialized.
    Raw(String),
}

impl Reply {
    /// The reply's wire text.
    pub(crate) fn into_text(self) -> String {
        match self {
            Reply::Response(response) => write_response(&response),
            Reply::Raw(text) => text,
        }
    }
}

/// One named session's engine-side state.
pub(crate) struct SessionCell {
    pub(crate) name: String,
    pub(crate) config: SessionConfig,
    /// Where the session publishes read views, when a socket door
    /// exists to read them.
    view: Option<Arc<ViewSlot>>,
    /// Where the session pushes standing-query deltas, when a socket
    /// door exists to watch them.
    hub: Option<Arc<NotifyHub>>,
    /// `None` until a load succeeds (and again after the router's
    /// panic fence drops a wrecked session).
    pub(crate) session: Option<Session>,
}

impl SessionCell {
    pub(crate) fn new(
        name: String,
        config: SessionConfig,
        view: Option<Arc<ViewSlot>>,
        hub: Option<Arc<NotifyHub>>,
    ) -> Self {
        SessionCell {
            name,
            config,
            view,
            hub,
            session: None,
        }
    }

    /// The `sessions` listing line; `None` until a load succeeded.
    pub(crate) fn info(&self) -> Option<SessionInfo> {
        self.session.as_ref().map(Session::info)
    }

    /// Drops the session and withdraws its published view — the state
    /// half of the router's panic fence (half-mutated state must never
    /// answer again).
    pub(crate) fn wreck(&mut self) {
        self.session = None;
        if let Some(view) = &self.view {
            view.clear();
            dna_obs::global()
                .counter_for("view_withdrawals", &self.name)
                .inc();
        }
    }

    /// (Re)opens the session over a snapshot — fresh, or resuming a
    /// checkpoint — wires its view slot and notify hub, and logs the
    /// load. A failed bring-up keeps the previous session.
    fn bring_up(&mut self, resume: Option<&Checkpoint>, snapshot: Snapshot) -> Response {
        let devices = snapshot.device_count() as u64;
        let links = snapshot.links.len() as u64;
        let opened = match resume {
            None => Session::open(&self.name, snapshot, self.config.clone()),
            Some(ckpt) => Session::resume(ckpt, snapshot, &self.config),
        };
        match opened {
            Ok(mut s) => {
                if let Some(view) = &self.view {
                    s.set_view_slot(Arc::clone(view));
                }
                if let Some(hub) = &self.hub {
                    s.set_notify_hub(Arc::clone(hub));
                }
                let session = s.name().to_string();
                let how = resume.map_or("loaded".to_string(), |ckpt| {
                    format!("resumed at epoch {}", ckpt.epochs)
                });
                dna_obs::log::info(&format!(
                    "dna serve: session {session:?} {how} ({devices} devices)"
                ));
                self.session = Some(s);
                Response::Loaded {
                    session,
                    devices,
                    links,
                }
            }
            Err(e) => Response::Error(e),
        }
    }

    /// Applies one unit of work to the session, returning the reply
    /// plus the number of change epochs applied (nonzero only for
    /// traces — including a trace whose reply is an error after a
    /// mid-stream failure).
    pub(crate) fn apply(&mut self, work: Work) -> (Reply, u64) {
        let (response, epochs) = match work {
            Work::Load(boxed) => {
                let (resume, snapshot) = *boxed;
                (self.bring_up(resume.as_ref(), snapshot), 0)
            }
            Work::LoadText(text) => match parse_snapshot(&text) {
                Ok(snapshot) => (self.bring_up(None, snapshot), 0),
                Err(e) => (Response::Error(e.to_string()), 0),
            },
            Work::IngestText(text) => match (parse_trace_timed(&text), self.session.as_mut()) {
                ((Err(e), _), _) => (Response::Error(e), 0),
                (_, None) => (unloaded(&self.name), 0),
                // The parse cost rides along so epoch lifecycle spans
                // start at the wire.
                ((Ok(trace), parse_ns), Some(s)) => match s.ingest_trace_timed(&trace, parse_ns) {
                    Ok((epochs, flows)) => (
                        Response::Ingested {
                            session: self.name.clone(),
                            epochs: epochs as u64,
                            flows: flows as u64,
                            total: s.epochs() as u64,
                        },
                        epochs as u64,
                    ),
                    Err((applied, e)) => (Response::Error(e), applied as u64),
                },
            },
            Work::Query(kind) => match &self.session {
                None => (unloaded(&self.name), 0),
                // Standing-query commands answer with notify artifacts;
                // everything else stays a `response`.
                Some(s) => match s.subscription_reply(&kind) {
                    Some(text) => return (Reply::Raw(text), 0),
                    None => (s.answer(&kind), 0),
                },
            },
        };
        (Reply::Response(response), epochs)
    }
}

fn unloaded(name: &str) -> Response {
    Response::Error(format!("session {name:?} has no loaded snapshot"))
}

/// Parses raw trace artifact text, returning the nanoseconds the parse
/// took alongside. Also the fault-injection hook behind
/// `DNA_SERVE_FAULT_LABEL`: a trace epoch whose scenario label equals
/// the variable's value panics here, on the engine side — behind the
/// router that is inside the panic fence, so what CI (and an operator
/// rehearsing an incident) gets is the real failure path: session
/// fenced and `failed` in health, server still serving.
pub(crate) fn parse_trace_timed(text: &str) -> (Result<dna_io::Trace, String>, u64) {
    let start = std::time::Instant::now();
    let trace = parse_trace(text).map_err(|e| e.to_string());
    if let (Ok(trace), Some(label)) = (&trace, fault_label()) {
        if trace
            .epochs
            .iter()
            .any(|e| e.label.as_deref() == Some(label))
        {
            panic!("fault injected: epoch label {label:?} (DNA_SERVE_FAULT_LABEL)");
        }
    }
    let parse_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    (trace, parse_ns)
}

/// The fault-injection label (`DNA_SERVE_FAULT_LABEL`, see
/// [`dna_obs::Env`]). This crate's unit tests get a fixed label instead
/// — the environment is process-global, and a latch cannot be re-armed
/// per test.
pub(crate) fn fault_label() -> Option<&'static str> {
    if cfg!(test) {
        return Some("deliberately poisoned (test hook)");
    }
    dna_obs::env().fault_label.as_deref()
}

/// The inline executor: owner of the server's named sessions when they
/// all live on the caller's thread.
pub struct SessionManager {
    cells: BTreeMap<String, SessionCell>,
    default: Option<String>,
    config: SessionConfig,
}

/// A bring-up reply as a `Result`: loads fail with `error` responses.
fn loaded(response: Response) -> Result<Response, String> {
    match response {
        Response::Error(e) => Err(e),
        loaded => Ok(loaded),
    }
}

impl SessionManager {
    /// An empty manager; sessions opened later inherit `config`.
    pub fn new(config: SessionConfig) -> Self {
        SessionManager {
            cells: BTreeMap::new(),
            default: None,
            config,
        }
    }

    /// The named session's cell, created (unloaded) if absent. The
    /// first name becomes the default target for unaddressed queries
    /// and stream ingest.
    fn cell(&mut self, name: &str) -> &mut SessionCell {
        if self.default.is_none() {
            self.default = Some(name.to_string());
        }
        let config = &self.config;
        self.cells
            .entry(name.to_string())
            .or_insert_with(|| SessionCell::new(name.to_string(), config.clone(), None, None))
    }

    /// Opens (or replaces) the named session over a snapshot.
    pub fn open(&mut self, name: &str, snapshot: Snapshot) -> Result<Response, String> {
        loaded(self.cell(name).bring_up(None, snapshot))
    }

    /// Opens (or replaces) a session by resuming a checkpoint; the
    /// session keeps the name recorded inside the artifact.
    pub fn resume_checkpoint(
        &mut self,
        ckpt: &Checkpoint,
        snapshot: Snapshot,
    ) -> Result<Response, String> {
        loaded(self.cell(&ckpt.session).bring_up(Some(ckpt), snapshot))
    }

    /// The default session's name, once one is open.
    pub fn default_session(&self) -> Option<&str> {
        self.default.as_deref()
    }

    /// Number of loaded sessions.
    pub fn session_count(&self) -> usize {
        self.cells.values().filter(|c| c.session.is_some()).count()
    }

    /// Direct access to a loaded session (tests, bench).
    pub fn session(&self, name: &str) -> Option<&Session> {
        self.cells.get(name)?.session.as_ref()
    }

    /// Runs one classified action to its reply, plus the number of
    /// change epochs it applied. Engine work runs right here, unfenced:
    /// an engine panic takes the inline server down with it.
    pub(crate) fn execute(&mut self, action: Action) -> (Reply, u64) {
        let sessions = || self.cells.values().filter_map(SessionCell::info).collect();
        let exists = |name: &str| self.cells.contains_key(name);
        match action.settle(sessions, self.default.as_deref(), exists) {
            Ok((name, work)) => self.cell(&name).apply(work),
            Err(reply) => (reply, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::handle_artifact;
    use dna_io::{write_query, write_trace, Query, QueryKind, Trace};
    use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

    fn ask(mgr: &mut SessionManager, session: Option<&str>, kind: QueryKind) -> Response {
        let q = write_query(&Query {
            session: session.map(str::to_string),
            kind,
        });
        handle_artifact(mgr, None, &q).0
    }

    #[test]
    fn partial_trace_failure_reports_applied_epochs() {
        let ft = fat_tree(4, Routing::Ebgp);
        let mut mgr = SessionManager::new(SessionConfig::default());
        mgr.open("p", ft.snapshot.clone()).unwrap();
        let mut gen = ScenarioGen::new(5);
        let good = gen
            .generate(&ft.snapshot, ScenarioKind::LinkFailure)
            .unwrap();
        let bad = net_model::ChangeSet::single(net_model::Change::DeviceDown("ghost".into()));
        let trace = Trace::from_changesets(vec![good, bad]);
        // The first epoch stays applied (stream semantics); the error
        // response must not hide that from the caller's accounting.
        let (resp, applied) = handle_artifact(&mut mgr, Some("p"), &write_trace(&trace));
        match resp {
            Response::Error(msg) => assert!(msg.contains("1 earlier epoch"), "{msg}"),
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(applied, 1);
        assert_eq!(mgr.session("p").unwrap().epochs(), 1);
    }

    #[test]
    fn manager_serves_multiple_named_sessions() {
        let ft4 = fat_tree(4, Routing::Ebgp);
        let ft4b = fat_tree(4, Routing::Ospf);
        let mut mgr = SessionManager::new(SessionConfig::default());
        mgr.open("a", ft4.snapshot).unwrap();
        mgr.open("b", ft4b.snapshot).unwrap();
        assert_eq!(mgr.default_session(), Some("a"));
        assert_eq!(mgr.session_count(), 2);
        // Ingest into the non-default session only.
        let mut gen = ScenarioGen::new(3);
        let cs = gen
            .generate(
                mgr.session("b").unwrap().snapshot(),
                ScenarioKind::LinkFailure,
            )
            .unwrap();
        let trace = Trace::from_changesets(vec![cs]);
        match handle_artifact(&mut mgr, Some("b"), &write_trace(&trace)) {
            (Response::Ingested { session, total, .. }, applied) => {
                assert_eq!(session, "b");
                assert_eq!(total, 1);
                assert_eq!(applied, 1);
            }
            (other, _) => panic!("expected ingested, got {other:?}"),
        }
        assert_eq!(mgr.session("a").unwrap().epochs(), 0);
        assert_eq!(mgr.session("b").unwrap().epochs(), 1);
        // Queries address sessions by name; unknown names are errors.
        match ask(&mut mgr, None, QueryKind::Sessions) {
            Response::Sessions(list) => {
                assert_eq!(
                    list.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
                    vec!["a", "b"]
                );
            }
            other => panic!("expected sessions, got {other:?}"),
        }
        assert!(matches!(
            ask(&mut mgr, Some("ghost"), QueryKind::Stats),
            Response::Error(_)
        ));
        match ask(&mut mgr, Some("b"), QueryKind::Stats) {
            Response::Stats(st) => assert_eq!((st.session.as_str(), st.epochs), ("b", 1)),
            other => panic!("expected stats, got {other:?}"),
        }
    }
}
