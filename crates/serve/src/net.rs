//! The client edge: one accept loop, one connection loop, one client.
//!
//! Every byte-stream client — channel-mode stdin, a unix-socket
//! connection, a TCP connection — is the same thing: artifacts in, one
//! reply each out, served by [`serve_connection`]. Wire format is the
//! artifact concatenation every transport speaks (see FORMAT.md
//! "Framing on a stream") — the bytes `dna dump` writes to a file can
//! be piped over a socket unchanged.
//!
//! **The read path.** Each connection holds the server's
//! [`ViewRegistry`] and answers read-only queries (reach, reach-pair,
//! blast, report, stats) straight from the session's latest published
//! [`crate::view::QueryView`] — one atomic version check on the fast
//! path, no engine-thread round trip, no serialization behind other
//! clients' ingest. Mutating artifacts (snapshot loads, traces,
//! checkpoints) and the queries a view cannot answer (`sessions`,
//! `checkpoint`, the standing-query commands) are forwarded to the
//! engine side over the [`Request`] channel. Responses are
//! byte-identical either way: views and sessions run the same answer
//! code and serialize through the same writer. On a server whose
//! router publishes no views (no socket door) the registry is simply
//! empty and everything round-trips through the engine.
//!
//! **Pushed notifies.** A connection that subscribes (`subscribe …`)
//! is registered on the server's [`NotifyHub`]: a pusher thread drains
//! the connection's bounded notify queues onto its output, so pushed
//! `notify` artifacts interleave *between* request replies (never
//! inside one — the writer is shared under a mutex and writes whole
//! artifacts). The engine never blocks on a client: a slow consumer
//! overflows its own queue, the oldest artifacts drop, and the stream
//! resumes with a `resync` notify. One caveat is inherent to the
//! split: a commit that lands between the engine-side subscribe and the
//! hub registration below is delivered only by `notifications <id>`
//! polling, never pushed — subscribe before driving ingest when the
//! push stream must be gapless from epoch zero.
//!
//! **Limits.** Socket clients are untrusted: an inbound artifact
//! larger than [`MAX_ARTIFACT_BYTES`] is answered with one `error`
//! response and the connection is closed.

use crate::classify::{classify, Action, Classified, Target, Work};
use crate::server::{read_artifact, read_frame, submit, Frame, Request};
use crate::subs::NotifyHub;
use crate::view::{ViewReader, ViewRegistry};
use dna_io::{write_response, QueryKind, Response};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};

/// The largest inbound artifact a socket client may send. A k=10
/// fat-tree snapshot is 0.2 MB; nothing legitimate comes near this.
pub const MAX_ARTIFACT_BYTES: usize = 64 << 20;

/// What every connection holds of the server: the engine-side request
/// channel, the view registry it reads from and the hub it registers
/// pushes on. Holding one keeps the engine side alive.
#[derive(Clone)]
pub struct Edge {
    /// Where artifacts the connection cannot answer itself are sent.
    pub requests: mpsc::Sender<Request>,
    /// The published views (empty when the router publishes none).
    pub views: Arc<ViewRegistry>,
    /// The push fan-out (idle when the router pushes nothing).
    pub hub: Arc<NotifyHub>,
}

impl Edge {
    /// An edge over `requests` with a fresh (empty) view registry and
    /// notify hub — hand both to [`crate::Router::publishing`] to have
    /// sessions fill them.
    pub fn new(requests: mpsc::Sender<Request>) -> Self {
        Edge {
            requests,
            views: Arc::default(),
            hub: Arc::default(),
        }
    }
}

/// Accepts connections forever, serving each on its own thread.
/// `accept` yields one connection's read and write halves; `family`
/// (`tcp` | `unix`) prefixes the connection counters and is the scope
/// locally answered queries are timed under. Accept errors (EINTR, fd
/// exhaustion under load, ...) are transient for a daemon: they are
/// reported to stderr and the loop keeps accepting — one bad accept
/// must not leave a healthy-looking server deaf to new clients.
fn accept_loop<S: Read + Write + Send + 'static>(
    edge: Edge,
    family: &'static str,
    accept: impl Fn() -> io::Result<(S, S)>,
) -> ! {
    let connections = dna_obs::global().counter(&format!("{family}_connections"));
    let accept_errors = dna_obs::global().counter(&format!("{family}_accept_errors"));
    loop {
        let (input, output) = match accept() {
            Ok(halves) => halves,
            Err(e) => {
                accept_errors.inc();
                dna_obs::log::announce(&format!(
                    "dna serve: {family} accept failed (retrying): {e}"
                ));
                std::thread::sleep(std::time::Duration::from_millis(50));
                continue;
            }
        };
        connections.inc();
        let edge = edge.clone();
        std::thread::spawn(move || {
            // A vanished client is its own problem; the server lives on.
            let input = io::BufReader::new(input);
            let _ = serve_connection(&edge, family, MAX_ARTIFACT_BYTES, input, output);
        });
    }
}

/// Serves one connection: artifacts in, replies out, until the client
/// stops sending (or sends an artifact over `limit` bytes — answered
/// with an `error` naming the limit, then closed, because framing
/// cannot resync). Read-only queries are answered from published views
/// when one exists, timed under `scope`; everything else round-trips
/// through the engine side. A subscribe reply additionally registers
/// the connection on the hub and (once) starts its pusher thread.
/// Returns the number of artifacts served.
pub fn serve_connection(
    edge: &Edge,
    scope: &'static str,
    limit: usize,
    mut input: impl BufRead,
    output: impl Write + Send,
) -> io::Result<u64> {
    let hub = &*edge.hub;
    // The writer is shared with the pusher thread once the client
    // subscribes; both sides write whole artifacts under the lock, so
    // framing survives the interleaving.
    let writer = &Mutex::new(io::BufWriter::new(output));
    let write = |artifact: &str| {
        let mut output = crate::lock(writer);
        output.write_all(artifact.as_bytes())?;
        // One artifact is the unit of interaction: flush so clients
        // are never left waiting on a full buffer.
        output.flush()
    };
    // Per-connection view caches, keyed by slot identity (slots live
    // as long as the registry, so the pointer is a stable key): while
    // a session's version is unchanged, answering takes zero locks.
    let mut readers: BTreeMap<usize, ViewReader> = BTreeMap::new();
    let mut watcher: Option<u64> = None;
    std::thread::scope(|threads| {
        let mut serve = || -> io::Result<u64> {
            let mut served = 0u64;
            loop {
                let text = match read_frame(&mut input, limit)? {
                    Frame::Artifact(text) => text,
                    Frame::End => return Ok(served),
                    Frame::Oversized => {
                        write(&write_response(&Response::Error(format!(
                            "artifact exceeds the {limit}-byte limit; closing the connection"
                        ))))?;
                        return Ok(served + 1);
                    }
                };
                let started = std::time::Instant::now();
                let Classified { action, query } = classify(&text, None);
                // Whether this artifact is a subscribe command — its
                // reply (a notify ack) carries the id to register on
                // the hub.
                let mut subscribing = false;
                // Telemetry never needs a view (or even an open
                // session), and a read-only query is answered from the
                // session's published view when there is one;
                // everything else — and every error story — belongs to
                // the engine side.
                let local = match action {
                    Action::Obs(reply) => Some(reply),
                    Action::Engine {
                        target: Target::Existing(session),
                        work: Work::Query(kind),
                    } => {
                        subscribing = matches!(*kind, QueryKind::Subscribe(_));
                        answer_from_view(&edge.views, &mut readers, session.as_deref(), &kind)
                    }
                    _ => None,
                };
                let reply = match local {
                    Some(reply) => {
                        // Only an answer given right here is timed
                        // here — a query forwarded to the engine side
                        // is timed (and ringed) there, under its own
                        // scope.
                        crate::obs::record_query_span(scope, query, started.elapsed());
                        reply
                    }
                    None => {
                        match submit(&edge.requests, text, None).and_then(|rx| rx.recv().ok()) {
                            Some(reply) => reply,
                            None => return Ok(served), // engine side shut down
                        }
                    }
                };
                if subscribing {
                    // A successful subscribe acks with a notify naming
                    // the (session, id) pair; errors parse as responses
                    // and fall through. Register before writing the
                    // ack: once the client reads it, the push stream is
                    // live.
                    if let Ok(ack) = dna_io::parse_notify(&reply) {
                        let w = *watcher.get_or_insert_with(|| {
                            let id = hub.register();
                            // The pusher: drains this watcher's notify
                            // queues onto the connection until the
                            // watcher is closed (connection gone) or a
                            // write fails (client gone).
                            threads.spawn(move || {
                                while let Some(batch) = hub.wait(id) {
                                    if batch.iter().try_for_each(|a| write(a)).is_err() {
                                        hub.unregister(id);
                                        break;
                                    }
                                }
                            });
                            id
                        });
                        hub.watch(w, &ack.session, ack.subscription);
                    }
                }
                served += 1;
                write(&reply)?;
            }
        };
        let result = serve();
        // Tear down the push registration (if any) however the loop
        // ended; the pusher wakes from its wait, exits, and the scope
        // joins it.
        if let Some(w) = watcher {
            hub.unregister(w);
        }
        result
    })
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

/// Where a server listens and a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A unix-socket path (`--socket`).
    Unix(std::path::PathBuf),
    /// A TCP `host:port` (`--listen` / `--connect`).
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp {addr}"),
        }
    }
}

impl Endpoint {
    /// Opens a connection to a serving endpoint.
    pub fn connect(&self) -> io::Result<Client> {
        let (input, output): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                (Box::new(stream.try_clone()?), Box::new(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let stream = std::os::unix::net::UnixStream::connect(path)?;
                (Box::new(stream.try_clone()?), Box::new(stream))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => return Err(io::ErrorKind::Unsupported.into()),
        };
        Ok(Client {
            input: io::BufReader::new(input),
            output,
        })
    }

    /// Binds this endpoint and serves it from a background accept-loop
    /// thread; returns the endpoint as bound (TCP port 0 resolved to
    /// the port the OS picked). A unix path left behind by a dead
    /// server is reclaimed; one a live server still answers on is
    /// refused — deleting it would silently divert that server's
    /// clients here.
    pub fn listen(&self, edge: Edge) -> io::Result<Endpoint> {
        match self {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let bound = Endpoint::Tcp(listener.local_addr()?.to_string());
                let accept = move || {
                    let (stream, _) = listener.accept()?;
                    // Replies and pushed notifies are small whole
                    // artifacts a client is waiting on: Nagle + delayed
                    // ACK would stall a pipelining or watching client
                    // ~40 ms per write.
                    stream.set_nodelay(true)?;
                    Ok((stream.try_clone()?, stream))
                };
                std::thread::spawn(move || accept_loop(edge, "tcp", accept));
                Ok(bound)
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                if path.exists() {
                    if self.connect().is_ok() {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            "already served by a running instance",
                        ));
                    }
                    std::fs::remove_file(path)?;
                }
                let listener = std::os::unix::net::UnixListener::bind(path)?;
                let accept = move || {
                    let (stream, _) = listener.accept()?;
                    Ok((stream.try_clone()?, stream))
                };
                std::thread::spawn(move || accept_loop(edge, "unix", accept));
                Ok(self.clone())
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::ErrorKind::Unsupported.into()),
        }
    }

    /// The one-shot client: sends one artifact on a fresh connection
    /// and returns the one reply artifact (empty if the server closed
    /// without answering).
    pub fn query(&self, artifact: &str) -> io::Result<String> {
        let mut client = self.connect()?;
        client.send(artifact)?;
        Ok(client.recv()?.unwrap_or_default())
    }
}

/// One open client connection (see [`Endpoint::connect`]).
pub struct Client {
    input: io::BufReader<Box<dyn Read + Send>>,
    output: Box<dyn Write + Send>,
}

impl Client {
    /// Sends one artifact.
    pub fn send(&mut self, artifact: &str) -> io::Result<()> {
        self.output.write_all(artifact.as_bytes())?;
        self.output.flush()
    }

    /// Receives the next artifact — a reply or a pushed notify; `None`
    /// once the server has closed the connection.
    pub fn recv(&mut self) -> io::Result<Option<String>> {
        read_artifact(&mut self.input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_io::{parse_response, write_query, write_snapshot, Query};

    /// Engines never leave their session threads; only strings cross —
    /// a connection on another thread is served all the same.
    #[test]
    fn connection_requests_are_served_from_other_threads() {
        let snapshot = net_model::NetBuilder::new()
            .router("r1")
            .iface("r1", "lan", "192.168.1.1/24")
            .ospf_passive("r1", "lan", 1)
            .build();
        let (requests, rx) = mpsc::channel();
        let client = std::thread::spawn(move || {
            let stream = format!(
                "{}{}",
                write_snapshot(&snapshot),
                write_query(&Query {
                    session: Some("main".into()),
                    kind: QueryKind::Stats,
                })
            );
            let edge = Edge::new(requests);
            let mut out = Vec::new();
            let served =
                serve_connection(&edge, "test", usize::MAX, io::Cursor::new(stream), &mut out)
                    .unwrap();
            (served, out)
        });
        let summary = crate::Router::new(Default::default()).run(rx);
        let (served, out) = client.join().unwrap();
        assert_eq!(served, 2);
        assert_eq!(summary.artifacts, 2);
        assert_eq!(summary.errors, 0);
        let mut cursor = io::Cursor::new(out);
        let _loaded = read_artifact(&mut cursor).unwrap().unwrap();
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.session, "main");
                assert_eq!(s.epochs, 0);
                assert_eq!(s.devices, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    /// The cap in the loop itself: the oversized artifact is answered
    /// once, naming the limit, and nothing after it is served.
    #[test]
    fn oversized_artifact_ends_the_connection_with_one_error() {
        let stats = write_query(&Query {
            session: None,
            kind: QueryKind::Stats,
        });
        let (requests, _rx) = mpsc::channel();
        let edge = Edge::new(requests);
        let input = format!("; {}\n{stats}", "x".repeat(stats.len()));
        let mut out = Vec::new();
        let served =
            serve_connection(&edge, "test", stats.len(), io::Cursor::new(input), &mut out).unwrap();
        assert_eq!(served, 1);
        let mut cursor = io::Cursor::new(out);
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Error(msg) => assert!(msg.contains(&stats.len().to_string()), "{msg}"),
            other => panic!("expected an error, got {other:?}"),
        }
        assert_eq!(read_artifact(&mut cursor).unwrap(), None);
    }
}
