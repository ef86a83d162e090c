//! The TCP front door: many concurrent clients over one listener.
//!
//! Wire format is the same artifact concatenation every other
//! transport speaks (see FORMAT.md "Framing on a stream") — the bytes
//! `dna dump` writes to a file can be piped over a socket unchanged,
//! and every inbound artifact maps to exactly one outbound reply.
//!
//! What makes this transport different from the unix-socket pump is
//! the **read path**: each connection thread holds the server's
//! [`ViewRegistry`] and answers read-only queries (reach, reach-pair,
//! blast, report, stats) straight from the session's latest published
//! [`crate::view::QueryView`] — one atomic version check on the fast
//! path, no engine-thread round trip, no serialization behind other
//! clients' ingest. Mutating artifacts (snapshot loads, traces,
//! checkpoints) and the queries a view cannot answer (`sessions`,
//! `checkpoint`, the standing-query commands) are forwarded to the
//! engine side over the usual [`Request`] channel. Responses are
//! byte-identical either way: views and sessions run the same answer
//! code and serialize through the same writer.
//!
//! **Pushed notifies.** A connection that subscribes (`subscribe …`)
//! is registered on the server's [`NotifyHub`]: a pusher thread drains
//! the connection's bounded notify queues onto the socket, so pushed
//! `notify` artifacts interleave *between* request replies (never
//! inside one — the socket writer is shared under a mutex and writes
//! whole artifacts). The engine never blocks on the socket: a slow
//! consumer overflows its own queue, the oldest artifacts drop, and the
//! stream resumes with a `resync` notify. One caveat is inherent to the
//! split: a commit that lands between the engine-side subscribe and the
//! hub registration below is delivered only by `notifications <id>`
//! polling, never pushed — subscribe before driving ingest when the
//! push stream must be gapless from epoch zero.

use crate::classify::{classify, Action, Classified, Target, Work};
use crate::server::{read_artifact, submit, Request};
use crate::subs::NotifyHub;
use crate::view::{ViewReader, ViewRegistry};
use dna_io::{write_response, QueryKind};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};

/// Accepts TCP connections forever, serving each on its own thread.
/// Holds a [`Request`] sender for as long as it runs, keeping the
/// engine side alive after stdin ends. Accept errors are transient
/// for a daemon: reported to stderr, and the loop keeps accepting.
pub fn tcp_accept_loop(
    requests: mpsc::Sender<Request>,
    listener: TcpListener,
    views: Arc<ViewRegistry>,
    hub: Arc<NotifyHub>,
) -> io::Result<()> {
    let connections = dna_obs::global().counter("tcp_connections");
    let accept_errors = dna_obs::global().counter("tcp_accept_errors");
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                accept_errors.inc();
                dna_obs::log::announce(&format!("dna serve: tcp accept failed (retrying): {e}"));
                std::thread::sleep(std::time::Duration::from_millis(50));
                continue;
            }
        };
        connections.inc();
        let requests = requests.clone();
        let views = Arc::clone(&views);
        let hub = Arc::clone(&hub);
        std::thread::spawn(move || {
            // A vanished client is its own problem; the server lives on.
            let _ = serve_connection(&requests, &views, &hub, stream);
        });
    }
}

/// Serves one TCP connection: artifacts in, replies out, until the
/// client closes its write half. Read-only queries are answered from
/// published views when one exists; everything else round-trips
/// through the engine side. A subscribe reply additionally registers
/// the connection on the hub and (once) spawns its pusher thread.
/// Returns the number of artifacts served.
pub fn serve_connection(
    requests: &mpsc::Sender<Request>,
    views: &ViewRegistry,
    hub: &Arc<NotifyHub>,
    stream: TcpStream,
) -> io::Result<u64> {
    // Replies and pushed notifies are small whole artifacts a client is
    // waiting on: Nagle + delayed ACK would stall a pipelining or
    // watching client ~40 ms per write.
    stream.set_nodelay(true)?;
    let mut input = io::BufReader::new(stream.try_clone()?);
    // The write half is shared with the pusher thread once the client
    // subscribes; both sides write whole artifacts under the lock, so
    // framing survives the interleaving.
    let writer = Arc::new(Mutex::new(io::BufWriter::new(stream)));
    let mut watcher: Option<u64> = None;
    let result = connection_loop(requests, views, hub, &mut input, &writer, &mut watcher);
    // Tear down the push registration (if any) however the loop ended;
    // the pusher thread wakes from its wait and exits.
    if let Some(w) = watcher {
        hub.unregister(w);
    }
    result
}

/// The request/reply half of one connection (see [`serve_connection`]).
fn connection_loop(
    requests: &mpsc::Sender<Request>,
    views: &ViewRegistry,
    hub: &Arc<NotifyHub>,
    input: &mut io::BufReader<TcpStream>,
    writer: &Arc<Mutex<io::BufWriter<TcpStream>>>,
    watcher: &mut Option<u64>,
) -> io::Result<u64> {
    // Per-connection view caches, keyed by slot identity (slots live
    // as long as the registry, so the pointer is a stable key): while
    // a session's version is unchanged, answering takes zero locks.
    let mut readers: BTreeMap<usize, ViewReader> = BTreeMap::new();
    let mut served = 0u64;
    while let Some(text) = read_artifact(input)? {
        let started = std::time::Instant::now();
        let Classified { action, query } = classify(&text, None);
        // Whether this artifact is a subscribe command — its reply (a
        // notify ack) carries the id to register on the hub.
        let mut subscribing = false;
        // Telemetry never needs a view (or even an open session), and a
        // read-only query is answered from the session's published
        // view when there is one; everything else — and every error
        // story — belongs to the engine side.
        let local = match action {
            Action::Obs(reply) => Some(reply),
            Action::Engine {
                target: Target::Existing(session),
                work: Work::Query(kind),
            } => {
                subscribing = matches!(*kind, QueryKind::Subscribe(_));
                answer_from_view(views, &mut readers, session.as_deref(), &kind)
            }
            _ => None,
        };
        let reply = match local {
            Some(reply) => {
                // Only an answer given right here is a "tcp" answer — a
                // query forwarded to the engine side is timed (and
                // ringed) there, under its own scope.
                crate::obs::record_query_span("tcp", query, started.elapsed());
                reply
            }
            None => {
                let Some(reply) = submit(requests, text, None).and_then(|rx| rx.recv().ok()) else {
                    break; // engine side shut down
                };
                reply
            }
        };
        if subscribing {
            // A successful subscribe acks with a notify naming the
            // (session, id) pair; errors parse as responses and fall
            // through. Register before writing the ack: once the
            // client reads it, the push stream is live.
            if let Ok(ack) = dna_io::parse_notify(&reply) {
                let w = *watcher.get_or_insert_with(|| {
                    let id = hub.register();
                    spawn_pusher(Arc::clone(hub), id, Arc::clone(writer));
                    id
                });
                hub.watch(w, &ack.session, ack.subscription);
            }
        }
        served += 1;
        let mut output = crate::lock(writer);
        output.write_all(reply.as_bytes())?;
        // One reply per artifact is the unit of interaction: flush
        // so clients are never left waiting on a full buffer.
        output.flush()?;
    }
    Ok(served)
}

/// Spawns the thread that drains one watcher's notify queues onto its
/// connection. Exits when the watcher is closed (connection gone) or
/// the socket write fails (client gone) — whichever comes first.
fn spawn_pusher(hub: Arc<NotifyHub>, watcher: u64, writer: Arc<Mutex<io::BufWriter<TcpStream>>>) {
    std::thread::spawn(move || {
        while let Some(batch) = hub.wait(watcher) {
            let mut output = crate::lock(&writer);
            let wrote = batch.iter().try_for_each(|artifact| {
                output
                    .write_all(artifact.as_bytes())
                    .and_then(|()| output.flush())
            });
            drop(output);
            if wrote.is_err() {
                hub.unregister(watcher);
                break;
            }
        }
    });
}

/// The snapshot read path: a query whose session resolves to a
/// published view, asking something the view can answer, is served
/// right here. `None` sends the artifact to the engine side — which
/// also owns every error story (unknown or failed sessions,
/// not-yet-loaded sessions), so wire behavior is identical on both
/// paths.
fn answer_from_view(
    views: &ViewRegistry,
    readers: &mut BTreeMap<usize, ViewReader>,
    session: Option<&str>,
    kind: &QueryKind,
) -> Option<String> {
    let slot = views.resolve(session)?;
    let reader = readers.entry(Arc::as_ptr(&slot) as usize).or_default();
    let view = reader.current(&slot)?;
    let response = view.answer(kind)?;
    views.note_served(view.session());
    Some(write_response(&response))
}

/// Sends one query artifact over TCP and reads back the one reply
/// artifact — the client side of [`tcp_accept_loop`], used by
/// `dna query --connect`.
pub fn query_tcp(addr: &str, query_text: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    (&stream).write_all(query_text.as_bytes())?;
    (&stream).flush()?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reader = io::BufReader::new(&stream);
    Ok(read_artifact(&mut reader)?.unwrap_or_default())
}
