//! Per-session engine threads behind the request channel.
//!
//! The dataflow engine is thread-local by design. The router keeps the
//! outside contract simple (requests are raw artifact text plus a reply
//! channel — see [`crate::server::Request`]) and gives each session its
//! own engine thread: the router thread only classifies and routes;
//! session threads own their `SessionCell` (engine state never
//! crosses threads) and send serialized replies straight to the
//! requesting client. Two clients ingesting into different sessions
//! therefore run truly in parallel, with queries interleaving against
//! both, while per-session ordering is preserved by each session's
//! command channel. Session bring-up (the expensive initial analysis)
//! also parallelizes: opening N sessions at startup runs N engine
//! initializations concurrently.

use crate::classify::{classify, Work};
use crate::engine::{parse_trace_timed, Reply, SessionCell};
use crate::server::{Request, ServeSummary};
use crate::session::{Session, SessionConfig};
use crate::subs::NotifyHub;
use crate::view::{ViewRegistry, ViewSlot};
use dna_io::{Checkpoint, Response, SessionInfo};
use net_model::Snapshot;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};

/// One command on a session thread's channel. The reply is a
/// serialized reply artifact sent directly to the requesting client.
/// Split from the work payload so the session loop always holds the
/// reply sender *outside* the panic fence — whatever the engine does
/// to the payload, the client gets an answer.
struct SessionCmd {
    work: Work,
    reply: mpsc::Sender<String>,
    /// When the router queued this command — the engine thread turns
    /// it into the `ingest_queue_wait_us` histogram at pickup.
    enqueued: std::time::Instant,
    /// Change epochs this command *looks like* it carries (a cheap
    /// line scan of trace text, counted before the real parse). The
    /// router adds it to the `epochs_behind` gauge at enqueue; the
    /// engine thread subtracts the same stored number when the command
    /// finishes, so the gauge is symmetric and leak-free even when the
    /// parse later disagrees (or fails).
    epochs_hint: u64,
}

/// Counts the `epoch` lines of raw trace text — the enqueue-side hint
/// behind the `epochs_behind` gauge. A scan, not a parse: routing must
/// stay cheap, and the decrement uses the same stored hint, so an
/// imprecise count can never leak.
fn count_epoch_lines(text: &str) -> u64 {
    text.lines()
        .map(str::trim)
        .filter(|l| *l == "epoch" || l.starts_with("epoch "))
        .count() as u64
}

/// A running session thread.
struct SessionThread {
    tx: mpsc::Sender<SessionCmd>,
    /// Info line maintained by the session thread after every command
    /// (`None` until a load succeeded). Lets the router answer a
    /// `sessions` query without blocking behind in-flight engine work.
    info: Arc<Mutex<Option<SessionInfo>>>,
    /// Queue-side accounting handles (shared cells with the engine
    /// thread's own registration): the router marks work queued here,
    /// the session loop marks it picked up and done.
    acct: dna_obs::SessionAccounting,
    join: std::thread::JoinHandle<ServeSummary>,
}

impl SessionThread {
    /// Spawns the named session's engine thread. The cell is built on
    /// that thread: engine state is not `Send`, by design.
    fn spawn(
        name: String,
        config: SessionConfig,
        view: Option<Arc<ViewSlot>>,
        hub: Option<Arc<NotifyHub>>,
    ) -> Self {
        let (tx, rx) = mpsc::channel::<SessionCmd>();
        let info = Arc::new(Mutex::new(None));
        let shared = Arc::clone(&info);
        let acct = dna_obs::SessionAccounting::register(dna_obs::global(), &name);
        let join = std::thread::spawn(move || {
            session_loop(SessionCell::new(name, config, view, hub), rx, &shared)
        });
        SessionThread {
            tx,
            info,
            acct,
            join,
        }
    }

    /// Queues one command, marking it in the ingest-queue accounting;
    /// a send into a dead thread is unwound from the gauges before the
    /// error (carrying the command) is handed back.
    fn send(
        &self,
        work: Work,
        reply: mpsc::Sender<String>,
    ) -> Result<(), mpsc::SendError<SessionCmd>> {
        let epochs_hint = match &work {
            Work::IngestText(text) => count_epoch_lines(text),
            _ => 0,
        };
        let cmd = SessionCmd {
            work,
            reply,
            enqueued: std::time::Instant::now(),
            epochs_hint,
        };
        self.acct.queue_depth.add(1);
        self.acct.epochs_behind.add(epochs_hint);
        let result = self.tx.send(cmd);
        if result.is_err() {
            self.acct.queue_depth.sub(1);
            self.acct.epochs_behind.sub(epochs_hint);
        }
        result
    }
}

/// The engine loop of one session: processes its commands in order
/// until the router drops the channel. Counts what it answers (the
/// router counts only what it answers itself); the per-thread summaries
/// are summed at shutdown.
///
/// All engine work runs inside **the** panic fence: if the engine
/// panics, the session is marked **failed** — its state is dropped
/// (half-mutated state must never answer again), its published view is
/// withdrawn, the `sessions` listing carries a `failed` marker — and
/// this loop keeps answering, with errors, so one wedged session never
/// takes the server (or even this session's own clients) down with it.
/// A later snapshot load or checkpoint resume lifts the fence.
fn session_loop(
    mut cell: SessionCell,
    rx: mpsc::Receiver<SessionCmd>,
    info: &Mutex<Option<SessionInfo>>,
) -> ServeSummary {
    let name = cell.name.clone();
    let mut summary = ServeSummary::default();
    let mut failed: Option<String> = None;
    // Engine-side accounting handles: the same shared cells the router
    // bumps at enqueue. Registered while this loop runs, retired with
    // it — the health query's session list is exactly the sessions
    // whose engine loop is alive.
    let registry = dna_obs::global();
    let acct = dna_obs::SessionAccounting::register(registry, &name);
    // A command the coalescing drain pulled off the channel that turned
    // out not to be ingest work: processed on the next iteration, so
    // per-session command order is preserved exactly.
    let mut carry: Option<SessionCmd> = None;
    while let Some(cmd) = carry.take().or_else(|| rx.recv().ok()) {
        let SessionCmd {
            work,
            reply,
            enqueued,
            epochs_hint,
        } = cmd;
        // One beat per command-loop iteration: a live heartbeat with a
        // non-empty queue is the watchdog's proof the engine is moving.
        acct.beat();
        acct.queue_depth.sub(1);
        acct.queue_wait.observe(enqueued.elapsed());
        if matches!(work, Work::Load(_) | Work::LoadText(_)) {
            // A fresh load replaces whatever state the panic ruined.
            failed = None;
            acct.failed.set(0);
        }
        // Who is waiting on this iteration: the command's own client,
        // plus one per drained artifact. The enqueue-side hints come
        // off however the work ends — applied, failed mid-trace, or
        // panicked — so `epochs_behind` can never leak.
        let mut replies = vec![(reply, epochs_hint)];
        // Backlog epoch coalescing (--coalesce): if more ingest work is
        // already queued behind this ingest, the queue is deep — drain
        // it and merge the pooled epochs into commits of up to
        // `config.coalesce` epochs each (see `apply_ingest_batch`).
        // Draining stops at the first non-ingest command, carried into
        // the next iteration, so command order is preserved; each
        // drained artifact still gets its own reply. A lone ingest with
        // an empty queue takes the per-epoch path — coalescing never
        // touches a shallow queue. Bounded: drained artifacts' replies
        // are withheld until the whole batch commits, so one drain must
        // not swallow an unbounded flood.
        let mut batch: Vec<String> = Vec::new();
        let mut work = Some(work);
        let drain = failed.is_none()
            && cell.config.coalesce >= 2
            && matches!(work, Some(Work::IngestText(_)));
        if drain {
            while replies.len() < 64 {
                match rx.try_recv() {
                    Ok(SessionCmd {
                        work: Work::IngestText(text),
                        reply,
                        enqueued,
                        epochs_hint,
                    }) => {
                        acct.queue_depth.sub(1);
                        acct.queue_wait.observe(enqueued.elapsed());
                        batch.push(text);
                        replies.push((reply, epochs_hint));
                    }
                    // Pulled but deliberately not processed here: its
                    // pick-up accounting runs when the next iteration
                    // takes it out of the carry slot.
                    Ok(other) => {
                        carry = Some(other);
                        break;
                    }
                    Err(_) => break,
                }
            }
            if !batch.is_empty() {
                if let Some(Work::IngestText(head)) = work.take() {
                    batch.insert(0, head);
                }
            }
        }
        // Engine-path queries are ringed under the "broker" scope.
        let query = match &work {
            Some(Work::Query(kind)) => Some((Some(name.clone()), kind.name())),
            _ => None,
        };
        let started = std::time::Instant::now();
        let outcome = if let Some(reason) = failed.clone() {
            Err(reason)
        } else {
            catch_unwind(AssertUnwindSafe(|| match work {
                Some(work) => vec![cell.apply(work)],
                None => apply_ingest_batch(&mut cell, &batch),
            }))
            .map_err(|payload| {
                cell.wreck();
                // Keep the session listed — operators must see the
                // wreck — but flagged, with the last known counters.
                let mut guard = crate::lock(info);
                let last = guard.take();
                *guard = Some(SessionInfo {
                    name: name.clone(),
                    epochs: last.as_ref().map_or(0, |i| i.epochs),
                    devices: last.as_ref().map_or(0, |i| i.devices),
                    verify: cell.config.verify,
                    failed: true,
                });
                drop(guard);
                summary.failures += 1;
                // The health query reads the fence off this gauge.
                acct.failed.set(1);
                failed.insert(panic_reason(payload.as_ref())).clone()
            })
        };
        let results = match outcome {
            Ok(results) => {
                crate::obs::record_query_span("broker", query, started.elapsed());
                // Publish the refreshed info line BEFORE acknowledging:
                // once a client holds our reply, a `sessions` listing
                // must already reflect the command it acknowledges.
                *crate::lock(info) = cell.info();
                results
            }
            // Fenced — just now, or by an earlier command: every client
            // of this iteration gets the failure answer, none may be
            // left hanging.
            Err(reason) => {
                let error = format!("session {name:?} failed: {reason}");
                let failure = || (Reply::Response(Response::Error(error.clone())), 0);
                replies.iter().map(|_| failure()).collect()
            }
        };
        for ((body, epochs), (reply, epochs_hint)) in results.into_iter().zip(replies) {
            acct.epochs_behind.sub(epochs_hint);
            summary.count(&body, epochs);
            // A client that hung up before its answer is not an engine
            // problem; drop the reply.
            let _ = reply.send(body.into_text());
        }
    }
    acct.retire(registry);
    summary
}

/// Applies a drained backlog of ingest artifacts with epoch coalescing
/// (the code inside the panic fence for the batched path). Every
/// artifact is parsed, then the epochs of all of them are pooled in
/// arrival order and merged into commits of up to `config.coalesce`
/// epochs each ([`Session::ingest_coalesced`]); the final engine state
/// is identical to ingesting them one by one. Returns one
/// `(response, epochs applied)` pair per artifact, in artifact order.
///
/// Error semantics mirror the sequential path per artifact: a failing
/// epoch skips the rest of **its** artifact (stream semantics) while
/// other artifacts' epochs continue, and its error reply counts the
/// artifact's earlier applied epochs. A merged commit is atomic, so on
/// failure it falls back to per-epoch ingest to recover exactly those
/// semantics. Replies report the session's epoch total at drain
/// completion (commit granularity — the N intermediate totals never
/// exist under coalescing).
fn apply_ingest_batch(cell: &mut SessionCell, texts: &[String]) -> Vec<(Reply, u64)> {
    // Per-artifact accounting, separate from the parsed traces so the
    // chunk loop can hold epoch borrows while it updates counters.
    #[derive(Default, Clone)]
    struct Acc {
        applied: usize,
        flows: usize,
        error: Option<String>,
    }
    /// Ingests a chunk per-epoch with sequential stream semantics: a
    /// failing epoch fails its artifact (skipping the artifact's later
    /// epochs) while other artifacts continue.
    fn seq_ingest(
        s: &mut Session,
        chunk: &[(usize, &dna_io::TraceEpoch)],
        parse_share: &[u64],
        acc: &mut [Acc],
    ) {
        for (ai, ep) in chunk {
            if acc[*ai].error.is_some() {
                continue;
            }
            match s.ingest_coalesced(&[*ep], parse_share[*ai]) {
                Ok(n) => {
                    acc[*ai].applied += 1;
                    acc[*ai].flows += n;
                }
                Err(e) => {
                    acc[*ai].error = Some(format!(
                        "{e} ({} earlier epoch(s) of this trace applied)",
                        acc[*ai].applied
                    ));
                }
            }
        }
    }
    let Some(s) = cell.session.as_mut() else {
        // No loaded snapshot: each artifact gets the sequential path's
        // answer (its parse error, or the unloaded-session error).
        return texts
            .iter()
            .map(|text| cell.apply(Work::IngestText(text.clone())))
            .collect();
    };
    let parsed: Vec<(Result<dna_io::Trace, String>, u64)> =
        texts.iter().map(|text| parse_trace_timed(text)).collect();
    let mut acc = vec![Acc::default(); parsed.len()];
    // The pooled epoch stream: (artifact, epoch) indices in arrival
    // order, with each artifact's parse cost amortized evenly across
    // its epochs like the sequential path does (`ingest_trace_timed`).
    let mut stream: Vec<(usize, usize)> = Vec::new();
    let mut parse_share = vec![0u64; parsed.len()];
    for (ai, (p, parse_ns)) in parsed.iter().enumerate() {
        if let Ok(t) = p {
            parse_share[ai] = parse_ns / t.epochs.len().max(1) as u64;
            stream.extend((0..t.epochs.len()).map(|ei| (ai, ei)));
        }
    }
    let max = cell.config.coalesce.max(1);
    let mut next = 0;
    while next < stream.len() {
        // Collect the next commit's epochs, skipping artifacts already
        // failed (their remaining epochs are dead under stream
        // semantics).
        let mut chunk: Vec<(usize, &dna_io::TraceEpoch)> = Vec::new();
        while next < stream.len() && chunk.len() < max {
            let (ai, ei) = stream[next];
            next += 1;
            if acc[ai].error.is_some() {
                continue;
            }
            let trace = parsed[ai].0.as_ref().expect("streamed artifacts parsed");
            chunk.push((ai, &trace.epochs[ei]));
        }
        match chunk.as_slice() {
            [] => {}
            many => {
                let epochs: Vec<&dna_io::TraceEpoch> = many.iter().map(|(_, ep)| *ep).collect();
                let parse_ns = many.iter().map(|(ai, _)| parse_share[*ai]).sum();
                match s.ingest_coalesced(&epochs, parse_ns) {
                    Ok(flows) => {
                        for (ai, _) in many {
                            acc[*ai].applied += 1;
                        }
                        // The merged commit's flow diffs belong to the
                        // commit, not any single epoch; they are
                        // attributed to the artifact that completed it.
                        let (last, _) = many.last().expect("non-empty chunk");
                        acc[*last].flows += flows;
                    }
                    // Atomic failure: nothing applied. Re-run the chunk
                    // per-epoch so partial-failure semantics (and the
                    // error attribution) match the sequential path.
                    Err(_) => seq_ingest(s, &chunk, &parse_share, &mut acc),
                }
            }
        }
    }
    let total = s.epochs() as u64;
    parsed
        .iter()
        .zip(acc)
        .map(|((p, _), a)| match (p, a.error) {
            (Err(e), _) => (Response::Error(e.clone()), 0),
            (Ok(_), Some(e)) => (Response::Error(e), a.applied as u64),
            (Ok(_), None) => (
                Response::Ingested {
                    session: cell.name.clone(),
                    epochs: a.applied as u64,
                    flows: a.flows as u64,
                    total,
                },
                a.applied as u64,
            ),
        })
        .map(|(response, epochs)| (Reply::Response(response), epochs))
        .collect()
}

/// A human-readable reason out of a panic payload (`panic!` with a
/// string literal or a formatted message covers effectively all of
/// std and this codebase).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}

/// The router: one engine thread per session, spawned on demand.
pub struct Router {
    config: SessionConfig,
    sessions: BTreeMap<String, SessionThread>,
    default: Option<String>,
    summary: ServeSummary,
    /// When attached (a socket door exists), every session thread gets
    /// a [`crate::ViewSlot`] from the registry and publishes a read
    /// view after each applied epoch — reader threads resolve slots
    /// through the same registry — and pushes notify artifacts through
    /// the hub to watching connections.
    published: Option<(Arc<ViewRegistry>, Arc<NotifyHub>)>,
}

impl Router {
    /// An empty router; sessions opened later inherit `config`.
    pub fn new(config: SessionConfig) -> Self {
        Router {
            config,
            sessions: BTreeMap::new(),
            default: None,
            summary: ServeSummary::default(),
            published: None,
        }
    }

    /// Attaches the view registry and notify hub the server's
    /// connections hold; sessions spawned from here on publish read
    /// views into the one and push standing-query deltas through the
    /// other.
    pub fn publishing(mut self, views: Arc<ViewRegistry>, hub: Arc<NotifyHub>) -> Self {
        self.published = Some((views, hub));
        self
    }

    /// Opens the named sessions concurrently — one engine thread each,
    /// all running their initial analysis in parallel — and waits for
    /// every bring-up to finish. The first name becomes the default
    /// stream target. On any failure the error is returned and the
    /// router is left without the failed session.
    pub fn preload(&mut self, snapshots: Vec<(String, Snapshot)>) -> Result<Vec<String>, String> {
        let load = |(name, snapshot)| (name, Work::Load(Box::new((None, snapshot))));
        self.preload_with(snapshots.into_iter().map(load))
    }

    /// [`Router::preload`] for checkpoints: every session resumes on
    /// its own engine thread concurrently — a server hosting N
    /// checkpointed sessions pays max-of-resumes, not sum — and the
    /// call returns once all of them are back. Each checkpoint's
    /// snapshot source must already be resolved (see
    /// [`crate::resolve_checkpoint_snapshot`]).
    pub fn preload_checkpoints(
        &mut self,
        checkpoints: Vec<(Checkpoint, Snapshot)>,
    ) -> Result<Vec<String>, String> {
        let resume = |(ckpt, snapshot): (Checkpoint, Snapshot)| {
            let name = ckpt.session.clone();
            (name, Work::Load(Box::new((Some(ckpt), snapshot))))
        };
        self.preload_with(checkpoints.into_iter().map(resume))
    }

    /// Records the default stream target, mirroring it into the view
    /// registry so readers resolve unaddressed queries the same way
    /// the router does.
    fn set_default(&mut self, name: Option<String>) {
        if let Some((views, _)) = &self.published {
            views.set_default(name.as_deref());
        }
        self.default = name;
    }

    /// Queues work on the named session's thread, spawned (with its
    /// view slot, when a registry is attached) if it does not exist
    /// yet. Send-or-answer: a dead thread is answered from here, so a
    /// client is never left hanging on a dead channel. A session name
    /// exists from the moment work is first routed to it: if that load
    /// then fails, the name keeps answering "no loaded snapshot" errors
    /// (and stays out of the `sessions` listing) until a later load
    /// succeeds.
    fn route(&mut self, name: String, work: Work, reply: mpsc::Sender<String>) {
        let (config, published) = (&self.config, &self.published);
        let thread = self.sessions.entry(name.clone()).or_insert_with(|| {
            let (view, hub) = published
                .as_ref()
                .map(|(views, hub)| (views.slot(&name), Arc::clone(hub)))
                .unzip();
            SessionThread::spawn(name.clone(), config.clone(), view, hub)
        });
        if let Err(mpsc::SendError(cmd)) = thread.send(work, reply) {
            let gone = Response::Error(format!("session {name:?}: engine thread is gone"));
            self.answer(&cmd.reply, Reply::Response(gone));
        }
        if self.default.is_none() {
            self.set_default(Some(name));
        }
    }

    /// Shared preload machinery: route one bring-up command per named
    /// session (spawning engine threads as needed, so every bring-up
    /// runs concurrently), then wait for all of them. On any failure
    /// the error is returned and the failed session is removed.
    fn preload_with(
        &mut self,
        cmds: impl Iterator<Item = (String, Work)>,
    ) -> Result<Vec<String>, String> {
        let mut pending = Vec::new();
        for (name, work) in cmds {
            let (reply_tx, reply_rx) = mpsc::channel();
            self.route(name.clone(), work, reply_tx);
            pending.push((name, reply_rx));
        }
        let mut loaded = Vec::new();
        for (name, reply_rx) in pending {
            let text = reply_rx
                .recv()
                .map_err(|_| format!("session {name:?}: bring-up thread died"))?;
            match dna_io::parse_response(&text) {
                Ok(Response::Error(e)) => {
                    self.remove(&name);
                    return Err(e);
                }
                Ok(_) => loaded.push(text),
                Err(e) => return Err(format!("session {name:?}: malformed load reply: {e}")),
            }
        }
        Ok(loaded)
    }

    fn remove(&mut self, name: &str) {
        if let Some(t) = self.sessions.remove(name) {
            drop(t.tx);
            if let Ok(s) = t.join.join() {
                self.summary.merge(&s);
            }
        }
        if self.default.as_deref() == Some(name) {
            let next = self.sessions.keys().next().cloned();
            self.set_default(next);
        }
    }

    /// Routes one request. The reply reaches the client from whichever
    /// thread answers; the router never blocks on engine work, and the
    /// classifier only sniffs snapshot/trace headers — full parsing of
    /// their bodies happens on the owning session's thread.
    fn dispatch(&mut self, req: Request) {
        let action = classify(&req.text, req.session.as_deref()).action;
        let exists = |name: &str| self.sessions.contains_key(name);
        match action.settle(|| self.session_infos(), self.default.as_deref(), exists) {
            Ok((name, work)) => self.route(name, work, req.reply),
            Err(reply) => self.answer(&req.reply, reply),
        }
    }

    /// Collects every session's info line (name-ordered; sessions whose
    /// load failed are omitted, sessions whose engine *panicked* are
    /// listed with a `failed` marker) from the per-thread caches, so a
    /// `sessions` query never stalls routing behind a session's
    /// in-flight engine work. The answer can trail commands still in a
    /// session's queue — the price of not blocking every other session
    /// behind the slowest one.
    fn session_infos(&self) -> Vec<SessionInfo> {
        self.sessions
            .values()
            .filter_map(|t| crate::lock(&t.info).clone())
            .collect()
    }

    /// Answers a request from the router thread itself.
    fn answer(&mut self, reply: &mpsc::Sender<String>, body: Reply) {
        self.summary.count(&body, 0);
        let _ = reply.send(body.into_text());
    }

    /// Runs the routing loop until every request sender is dropped,
    /// then drains the session threads and returns the summed summary.
    pub fn run(mut self, requests: mpsc::Receiver<Request>) -> ServeSummary {
        for req in requests {
            self.dispatch(req);
        }
        while let Some(name) = self.sessions.keys().next().cloned() {
            self.remove(&name);
        }
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::read_artifact;
    use dna_io::{parse_response, write_query, write_snapshot, write_trace, Query, QueryKind};
    use std::io::Cursor;
    use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

    fn ft4() -> Snapshot {
        fat_tree(4, Routing::Ebgp).snapshot
    }

    /// One client connection's worth of artifacts through the one
    /// connection loop, writing the replies to `out`.
    fn over_connection(tx: &mpsc::Sender<Request>, artifacts: String, out: &mut Vec<u8>) {
        let edge = crate::net::Edge::new(tx.clone());
        crate::net::serve_connection(&edge, "test", usize::MAX, Cursor::new(artifacts), out)
            .expect("connection served");
    }

    /// A trace whose one (empty) epoch carries the unit-test fault
    /// label: ingesting it panics the engine thread (see `crate::engine::fault_label`).
    fn poison_trace() -> String {
        write_trace(&dna_io::Trace {
            epochs: vec![dna_io::TraceEpoch {
                label: crate::engine::fault_label().map(str::to_string),
                changes: Default::default(),
            }],
        })
    }

    #[test]
    fn router_preloads_sessions_in_parallel_and_routes_queries() {
        let mut router = Router::new(SessionConfig::default());
        let loaded = router
            .preload(vec![
                ("a".into(), ft4()),
                ("b".into(), fat_tree(4, Routing::Ospf).snapshot),
            ])
            .expect("both sessions open");
        assert_eq!(loaded.len(), 2);
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || router.run(rx));
        let stream = format!(
            "{}{}{}",
            write_query(&Query {
                session: None,
                kind: QueryKind::Sessions,
            }),
            write_query(&Query {
                session: Some("b".into()),
                kind: QueryKind::Stats,
            }),
            write_query(&Query {
                session: Some("ghost".into()),
                kind: QueryKind::Stats,
            }),
        );
        let mut out = Vec::new();
        over_connection(&tx, stream, &mut out);
        drop(tx);
        let summary = handle.join().unwrap();
        assert_eq!(summary.artifacts, 3 + 2); // 2 loads + 3 queries
        assert_eq!(summary.queries, 2); // sessions + stats (loads and the error are not queries)
        assert_eq!(summary.errors, 1);
        let out = String::from_utf8(out).unwrap();
        let mut cursor = Cursor::new(out.into_bytes());
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Sessions(list) => {
                assert_eq!(
                    list.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
                    vec!["a", "b"]
                );
            }
            other => panic!("expected sessions, got {other:?}"),
        }
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Stats(s) => assert_eq!(s.session, "b"),
            other => panic!("expected stats, got {other:?}"),
        }
        assert!(matches!(
            parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap(),
            Response::Error(_)
        ));
    }

    #[test]
    fn streamed_snapshot_and_trace_reach_their_session() {
        let snap = ft4();
        let mut gen = ScenarioGen::new(11);
        let cs = gen.generate(&snap, ScenarioKind::LinkFailure).unwrap();
        let trace = dna_io::Trace::from_changesets(vec![cs]);
        let stream = format!(
            "{}{}{}",
            write_snapshot(&snap),
            write_trace(&trace),
            write_query(&Query {
                session: Some("main".into()),
                kind: QueryKind::Stats,
            }),
        );
        let router = Router::new(SessionConfig::default());
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || router.run(rx));
        let mut out = Vec::new();
        over_connection(&tx, stream, &mut out);
        drop(tx);
        let summary = handle.join().unwrap();
        assert_eq!(summary.artifacts, 3);
        assert_eq!(summary.epochs, 1);
        assert_eq!(summary.errors, 0);
        let out = String::from_utf8(out).unwrap();
        let mut cursor = Cursor::new(out.into_bytes());
        assert!(matches!(
            parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap(),
            Response::Loaded { .. }
        ));
        assert!(matches!(
            parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap(),
            Response::Ingested { epochs: 1, .. }
        ));
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Stats(s) => assert_eq!((s.session.as_str(), s.epochs), ("main", 1)),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    /// Regression for the panic fence: before it, a panicking session
    /// thread died with its reply channels and the whole serve loop
    /// came down with `join().expect(...)`. Now the panic is caught on
    /// the session's own thread — the session answers `failed` errors,
    /// the `sessions` listing flags it, the `health` query reports it
    /// **failed** (while the *server* stays ok — containment is the
    /// healthy outcome), every *other* session keeps serving, and a
    /// fresh snapshot load revives the name, flipping health back.
    ///
    /// Session names are unique to this test: the accounting gauges
    /// health reads live in the process-global registry, so names
    /// shared with other tests would race.
    #[test]
    fn panicked_session_is_fenced_and_server_keeps_serving() {
        use dna_io::HealthStatus;
        let fence_health = |text: &str| -> Vec<(String, HealthStatus, Option<String>)> {
            dna_io::parse_health(text)
                .expect("health artifact parses")
                .sessions
                .into_iter()
                .filter(|s| s.name.starts_with("fence-"))
                .map(|s| (s.name, s.status, s.reason))
                .collect()
        };
        let mut router = Router::new(SessionConfig::default());
        router
            .preload(vec![
                ("fence-a".into(), ft4()),
                ("fence-b".into(), fat_tree(4, Routing::Ospf).snapshot),
            ])
            .expect("both sessions open");
        // Deliberately poison session "fence-a"'s engine thread.
        let (ptx, prx) = mpsc::channel();
        router
            .sessions
            .get("fence-a")
            .unwrap()
            .send(Work::IngestText(poison_trace()), ptx)
            .expect("thread is live");
        match parse_response(&prx.recv().expect("fence answers the poisoned command")).unwrap() {
            Response::Error(msg) => {
                assert!(msg.contains("failed"), "{msg}");
                assert!(msg.contains("deliberately poisoned"), "{msg}");
            }
            other => panic!("expected error, got {other:?}"),
        }
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || router.run(rx));
        let stream = format!(
            "{}{}{}{}",
            write_query(&Query {
                session: None,
                kind: QueryKind::Sessions,
            }),
            write_query(&Query {
                session: Some("fence-a".into()),
                kind: QueryKind::Stats,
            }),
            write_query(&Query {
                session: Some("fence-b".into()),
                kind: QueryKind::Stats,
            }),
            write_query(&Query {
                session: None,
                kind: QueryKind::Health,
            }),
        );
        let mut out = Vec::new();
        over_connection(&tx, stream, &mut out);
        // A fresh snapshot load lifts the fence and revives the name
        // (an unaddressed snapshot targets the default session — the
        // first preloaded, "fence-a").
        let mut out2 = Vec::new();
        let stream2 = format!(
            "{}{}{}",
            write_snapshot(&ft4()),
            write_query(&Query {
                session: Some("fence-a".into()),
                kind: QueryKind::Stats,
            }),
            write_query(&Query {
                session: None,
                kind: QueryKind::Health,
            }),
        );
        over_connection(&tx, stream2, &mut out2);
        drop(tx);
        let summary = handle.join().unwrap();
        assert_eq!(summary.failures, 1, "exactly one fenced panic");
        let out = String::from_utf8(out).unwrap();
        let mut cursor = Cursor::new(out.into_bytes());
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Sessions(list) => {
                let flags: Vec<(&str, bool)> = list
                    .iter()
                    .filter(|s| s.name.starts_with("fence-"))
                    .map(|s| (s.name.as_str(), s.failed))
                    .collect();
                assert_eq!(flags, vec![("fence-a", true), ("fence-b", false)]);
            }
            other => panic!("expected sessions, got {other:?}"),
        }
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Error(msg) => assert!(msg.contains("failed"), "{msg}"),
            other => panic!("failed session must answer errors, got {other:?}"),
        }
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Stats(s) => assert_eq!(s.session, "fence-b"),
            other => panic!("healthy session must keep serving, got {other:?}"),
        }
        let health_text = read_artifact(&mut cursor).unwrap().unwrap();
        assert_eq!(
            fence_health(&health_text),
            vec![
                (
                    "fence-a".to_string(),
                    HealthStatus::Failed,
                    Some("panic".to_string())
                ),
                ("fence-b".to_string(), HealthStatus::Ok, None),
            ],
            "health must flip the fenced session to failed"
        );
        let out2 = String::from_utf8(out2).unwrap();
        let mut cursor = Cursor::new(out2.into_bytes());
        assert!(matches!(
            parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap(),
            Response::Loaded { .. }
        ));
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Stats(s) => assert_eq!((s.session.as_str(), s.epochs), ("fence-a", 0)),
            other => panic!("revived session must answer, got {other:?}"),
        }
        let revived = read_artifact(&mut cursor).unwrap().unwrap();
        assert_eq!(
            fence_health(&revived),
            vec![
                ("fence-a".to_string(), HealthStatus::Ok, None),
                ("fence-b".to_string(), HealthStatus::Ok, None),
            ],
            "a fresh load must lift the health fence"
        );
    }

    /// Regression for info-mutex poisoning: a reader that panicked
    /// while holding a session's info lock used to make every later
    /// `sessions` query panic in turn (`lock().expect("info mutex")`).
    /// The info cell is poison-proof now, for both the router's reads
    /// and the session thread's writes.
    #[test]
    fn poisoned_info_mutex_neither_kills_listing_nor_session() {
        let mut router = Router::new(SessionConfig::default());
        router
            .preload(vec![("a".into(), ft4())])
            .expect("session opens");
        let info = Arc::clone(&router.sessions.get("a").unwrap().info);
        let _ = std::thread::spawn(move || {
            let _guard = info.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(
            router.sessions.get("a").unwrap().info.is_poisoned(),
            "test must actually poison the mutex"
        );
        // Router-side read shrugs the poison off.
        let list = router.session_infos();
        assert_eq!(list.len(), 1);
        assert_eq!((list[0].name.as_str(), list[0].failed), ("a", false));
        // Session-side write (after answering a query) does too.
        let (qtx, qrx) = mpsc::channel();
        router
            .sessions
            .get("a")
            .unwrap()
            .send(Work::Query(Box::new(QueryKind::Stats)), qtx)
            .unwrap();
        match parse_response(&qrx.recv().unwrap()).unwrap() {
            Response::Stats(s) => assert_eq!(s.session, "a"),
            other => panic!("expected stats, got {other:?}"),
        }
        assert_eq!(router.session_infos().len(), 1);
    }

    /// The one panic fence, both shapes it guards. A single command and
    /// a `--coalesce` drained batch that panic must leave the same
    /// wreck behind: the session listed `failed`, its published view
    /// withdrawn, the `session_failed` gauge up, one fenced failure in
    /// the summary — and every waiting client answered with the same
    /// error. Every command is queued *before* the engine loop starts,
    /// so which ones the drain finds waiting is deterministic.
    #[test]
    fn fence_holds_for_single_commands_and_drained_batches() {
        let snap = ft4();
        let mut gen = ScenarioGen::new(23);
        let clean = write_trace(&dna_io::Trace::from_changesets(vec![gen
            .generate(&snap, ScenarioKind::LinkFailure)
            .unwrap()]));
        // Per shape: load, then a clean ingest, the poisoned one, and
        // another clean one queued behind it.
        let wreck = |name: &str, coalesce: usize| -> Vec<Response> {
            let config = SessionConfig {
                coalesce,
                ..SessionConfig::default()
            };
            let slot = Arc::new(ViewSlot::new());
            let (tx, rx) = mpsc::channel();
            let replies: Vec<mpsc::Receiver<String>> = [
                Work::Load(Box::new((None, snap.clone()))),
                Work::IngestText(clean.clone()),
                Work::IngestText(poison_trace()),
                Work::IngestText(clean.clone()),
            ]
            .into_iter()
            .map(|work| {
                let (reply, reply_rx) = mpsc::channel();
                tx.send(SessionCmd {
                    work,
                    reply,
                    enqueued: std::time::Instant::now(),
                    epochs_hint: 0,
                })
                .expect("queue open");
                reply_rx
            })
            .collect();
            let info = Arc::new(Mutex::new(None));
            let (shared, view, session) = (Arc::clone(&info), Arc::clone(&slot), name.to_string());
            let engine = std::thread::spawn(move || {
                session_loop(
                    SessionCell::new(session, config, Some(view), None),
                    rx,
                    &shared,
                )
            });
            let replies: Vec<Response> = replies
                .iter()
                .map(|rx| parse_response(&rx.recv().expect("every client is answered")).unwrap())
                .collect();
            // The wreck, observed while the engine loop is still alive.
            let listed = crate::lock(&info)
                .clone()
                .expect("a wrecked session stays listed");
            assert!(listed.failed, "{name}: listing must flag the wreck");
            assert!(slot.load().1.is_none(), "{name}: view must be withdrawn");
            let registry = dna_obs::global();
            assert_eq!(
                registry.gauge_for("session_failed", name).get(),
                1,
                "{name}"
            );
            assert_eq!(
                registry.counter_for("view_withdrawals", name).get(),
                1,
                "{name}"
            );
            drop(tx);
            let summary = engine.join().expect("the fence keeps the thread alive");
            assert_eq!(summary.failures, 1, "{name}: exactly one fenced panic");
            replies
        };
        let failure = |name: &str| {
            Response::Error(format!(
                "session {name:?} failed: fault injected: epoch label {:?} (DNA_SERVE_FAULT_LABEL)",
                crate::engine::fault_label().unwrap()
            ))
        };

        // Shape 1 — single commands: the clean ingest ahead of the
        // poison applies; the poison trips the fence; the one behind
        // it meets the fence already up.
        let single = wreck("wreck-single", 0);
        assert!(matches!(single[0], Response::Loaded { .. }), "{single:?}");
        assert!(
            matches!(single[1], Response::Ingested { epochs: 1, .. }),
            "{single:?}"
        );
        assert_eq!(single[2..], vec![failure("wreck-single"); 2]);

        // Shape 2 — a drained batch: the first ingest finds the other
        // two queued behind it and the three ride one batch, so the
        // panic fails all three clients — including the clean ingest
        // *ahead* of the poison, which proves the batch path ran.
        let batch = wreck("wreck-batch", 4);
        assert!(matches!(batch[0], Response::Loaded { .. }), "{batch:?}");
        assert_eq!(batch[1..], vec![failure("wreck-batch"); 3]);
    }
}
