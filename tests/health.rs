//! The health & accounting plane, and transport parity, end to end:
//!
//! * `health` is a transport-level answer: the same registry state must
//!   render **byte-identically** over every transport — the pipe
//!   server, the router's engine channel (what connections and
//!   `--follow` tails forward to), and the TCP front door;
//! * the watchdog semantics hold under forced conditions: a saturated
//!   ingest queue degrades its session *and* the server rollup, while a
//!   failed (panic-fenced) session stays contained — listed `failed`,
//!   server still `ok`;
//! * `history` carries enough to derive real rates: two samples
//!   recorded around a live TCP ingest show a nonzero
//!   `epochs_applied` per-second rate for the ingesting session;
//! * transport parity holds for *everything*, not just `health`: one
//!   script — every `QueryKind`, every inbound artifact kind, a
//!   truncated artifact, unknown and absent session names — driven
//!   through pipe, router channel, TCP and a unix socket answers
//!   byte-identically.
//!
//! Everything lives in ONE test function: the registry, history ring
//! and span rings are process-global, so sequencing inside a single
//! `#[test]` is what makes the byte-identity assertions meaningful.

use dna_io::{
    parse_health, parse_history, write_query, write_trace, HealthStatus, Query, QueryKind, Trace,
};
use dna_serve::{
    read_artifact, serve_stream, Edge, Endpoint, Request, Router, Session, SessionConfig,
    SessionManager, ViewRegistry,
};
use std::io::{BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

const EPOCHS: usize = 4;

fn q(kind: QueryKind) -> String {
    write_query(&Query {
        session: None,
        kind,
    })
}

/// Converts a parsed wire `history` artifact back into the obs layer's
/// sample type so the same `dna_obs::rates` derivation the CLI renders
/// can be asserted against.
fn obs_samples(h: &dna_io::HistoryReport) -> Vec<dna_obs::Sample> {
    let rows = |rows: &[dna_io::SeriesRow]| {
        rows.iter()
            .map(|r| dna_obs::SeriesValue {
                name: r.name.clone(),
                session: r.session.clone(),
                value: r.value,
            })
            .collect()
    };
    h.samples
        .iter()
        .map(|s| dna_obs::Sample {
            t_ms: s.t_ms,
            counters: rows(&s.counters),
            gauges: rows(&s.gauges),
        })
        .collect()
}

/// Zeroes the three wall-clock fields of an `ok stats` reply (they
/// vary run to run by design — see FORMAT.md); every other reply
/// passes through untouched, so the comparison stays byte-exact.
fn without_timings(reply: String) -> String {
    match dna_io::parse_response(&reply) {
        Ok(dna_io::Response::Stats(mut s)) => {
            (s.cp_us, s.dp_us, s.total_us) = (0, 0, 0);
            dna_io::write_response(&dna_io::Response::Stats(s))
        }
        _ => reply,
    }
}

/// One artifact through the pipe transport: `serve_stream` over the
/// (persistent) inline manager.
fn via_pipe(mgr: &mut SessionManager, text: &str) -> String {
    let mut out = Vec::new();
    serve_stream(mgr, None, &mut Cursor::new(text.as_bytes()), &mut out).expect("pipe serve");
    String::from_utf8(out).expect("utf-8")
}

/// One artifact through a router's engine-side request channel.
fn via_channel(tx: &mpsc::Sender<Request>, text: &str) -> String {
    let (reply, reply_rx) = mpsc::channel();
    tx.send(Request {
        text: text.to_string(),
        session: None,
        reply,
    })
    .expect("router request");
    reply_rx.recv().expect("router reply")
}

/// A router (views and notify hub attached, as behind any socket
/// door) with `door` open in front of it; returns its request channel
/// and the bound endpoint.
fn socket_stack(door: Endpoint) -> (mpsc::Sender<Request>, Endpoint) {
    let views = Arc::new(ViewRegistry::new());
    let hub = Arc::new(dna_serve::NotifyHub::new());
    let router =
        Router::new(SessionConfig::default()).publishing(Arc::clone(&views), Arc::clone(&hub));
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || router.run(rx));
    let edge = Edge {
        requests: tx.clone(),
        views,
        hub,
    };
    (tx, door.listen(edge).expect("door opens"))
}

/// One artifact over a raw socket held open across calls (raw, so the
/// truncated-artifact row can half-close it). Strict request/reply
/// lockstep, so a fresh read buffer per reply loses nothing.
fn via_socket<S>(stream: &S, text: &str) -> String
where
    for<'a> &'a S: Read + Write,
{
    let mut wire = stream;
    wire.write_all(text.as_bytes()).expect("send over socket");
    read_artifact(&mut BufReader::new(stream))
        .expect("well-framed reply")
        .expect("one reply per artifact")
}

/// The parity table: every kind of thing a client can send, as
/// `(label, artifact text)` rows in script order. Mutating rows come
/// before the standing-query rows, so no commit lands after the
/// subscribe and nothing is pushed between replies.
fn parity_script(snapshot: &net_model::Snapshot, trace: &Trace) -> Vec<(String, String)> {
    use dna_io::SubscriptionSpec;
    let query = |session: Option<&str>, kind: QueryKind| {
        let label = format!("query {} (session {session:?})", kind.name());
        let text = write_query(&Query {
            session: session.map(str::to_string),
            kind,
        });
        (label, text)
    };
    let pair = || ("edge0_0".to_string(), "edge1_1".to_string());
    let (src, dst) = pair();
    let flow = net_model::Flow::tcp_to(net_model::ip("10.0.0.1"), 80);
    // A checkpoint artifact of a different session name, so resuming
    // it opens a second session next to "main".
    let mut donor = Session::open("par-ck", snapshot.clone(), SessionConfig::default())
        .expect("donor session opens");
    donor.ingest(&trace.epochs[0]).expect("donor ingests");
    let unservable = [
        ("report", dna_io::write_report(&Default::default())),
        (
            "response",
            dna_io::write_response(&dna_io::Response::Error("x".into())),
        ),
        ("metrics", dna_io::write_metrics(&Default::default())),
        ("spans", dna_io::write_spans(&Default::default())),
        ("history", dna_io::write_history(&Default::default())),
        ("health", dna_io::write_health(&Default::default())),
        (
            "notify",
            dna_io::write_notify(&dna_io::Notify {
                subscription: 1,
                session: "main".into(),
                events: Vec::new(),
            }),
        ),
    ];
    let mut rows = vec![
        // Absent session: nothing is open yet.
        query(None, QueryKind::Stats),
        ("trace, no session open".into(), write_trace(trace)),
        // Inbound snapshot and trace artifacts.
        ("snapshot".into(), dna_io::write_snapshot(snapshot)),
        ("trace".into(), write_trace(trace)),
        // Every query kind.
        query(
            None,
            QueryKind::Reach {
                src: src.clone(),
                flow,
            },
        ),
        query(None, QueryKind::ReachPair { src, dst }),
        query(Some("main"), QueryKind::Blast { last: 8 }),
        query(None, QueryKind::Report { from: 0, to: 2 }),
        query(None, QueryKind::Stats),
        query(None, QueryKind::Sessions),
        query(None, QueryKind::Checkpoint),
        // Narrowed to the session so the scrape is stable while the
        // row is in flight (answering only moves transport-scoped
        // query-latency series, which the narrowing drops).
        query(Some("main"), QueryKind::Metrics),
        query(None, QueryKind::TraceSpans { last: Some(4) }),
        query(None, QueryKind::Health),
        query(None, QueryKind::History { last: Some(1) }),
        // Unknown session name.
        query(Some("ghost"), QueryKind::Stats),
        query(Some("ghost"), QueryKind::Notifications { id: 1 }),
        // Inbound checkpoint artifact.
        (
            "checkpoint artifact".into(),
            dna_io::write_checkpoint(&donor.checkpoint_artifact()),
        ),
        query(Some("par-ck"), QueryKind::Stats),
        ("garbage".into(), "not an artifact\nend\n".into()),
    ];
    rows.extend(
        unservable
            .into_iter()
            .map(|(kind, text)| (format!("unservable {kind} artifact"), text)),
    );
    let (src, dst) = pair();
    rows.extend([
        query(
            None,
            QueryKind::Subscribe(SubscriptionSpec::ReachPair { src, dst }),
        ),
        query(None, QueryKind::Notifications { id: 1 }),
        query(None, QueryKind::Unsubscribe { id: 1 }),
        query(None, QueryKind::Unsubscribe { id: 1 }),
    ]);
    rows
}

#[test]
fn every_reply_is_byte_identical_on_every_transport() {
    let ft = fat_tree(4, Routing::Ebgp);
    let mut gen = ScenarioGen::new(71);
    let epochs: Vec<_> = gen
        .labeled_sequence(
            &ft.snapshot,
            &[ScenarioKind::LinkFailure, ScenarioKind::LinkRecovery],
            EPOCHS,
        )
        .into_iter()
        .map(|(kind, changes)| dna_io::TraceEpoch {
            label: Some(kind.to_string()),
            changes,
        })
        .collect();

    // A router with published views behind a real TCP listener.
    let views = Arc::new(ViewRegistry::new());
    let hub = Arc::new(dna_serve::NotifyHub::new());
    let mut router =
        Router::new(SessionConfig::default()).publishing(Arc::clone(&views), Arc::clone(&hub));
    router
        .preload(vec![("hp".into(), ft.snapshot.clone())])
        .expect("session opens");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || router.run(rx));
    let edge = Edge {
        requests: tx.clone(),
        views,
        hub,
    };
    let server = Endpoint::Tcp("127.0.0.1:0".into())
        .listen(edge)
        .expect("bind an ephemeral port");

    // ---- history, phase 1: a sample before any ingest. ----
    dna_obs::history().record(dna_obs::uptime_ms(), &dna_obs::global().snapshot(None));

    // Live ingest over TCP.
    let trace = Trace { epochs };
    let ack = server.query(&write_trace(&trace)).expect("trace over tcp");
    assert!(
        matches!(
            dna_io::parse_response(&ack).expect("ack parses"),
            dna_io::Response::Ingested { epochs: e, .. } if e == EPOCHS as u64
        ),
        "unexpected ingest ack:\n{ack}"
    );

    // ---- history, phase 2: a sample after, on a nonzero window. ----
    std::thread::sleep(std::time::Duration::from_millis(20));
    dna_obs::history().record(dna_obs::uptime_ms(), &dna_obs::global().snapshot(None));

    // ---- health, every transport, byte for byte. ----
    let health_q = q(QueryKind::Health);

    // 1. TCP front door (answered on the connection thread).
    let over_tcp = server.query(&health_q).expect("health over tcp");

    // 2. The router's engine-side request channel (what connections
    //    and `--follow` tails forward to).
    let (rtx, rrx) = mpsc::channel();
    tx.send(Request {
        text: health_q.clone(),
        session: None,
        reply: rtx,
    })
    .expect("router request");
    let over_router = rrx.recv().expect("router reply");

    // 3. The single-threaded pipe server. An empty manager: health is
    //    a transport-level answer and must not need an open session.
    let mut pipe_mgr = SessionManager::new(Default::default());
    let mut pipe_out = Vec::new();
    serve_stream(
        &mut pipe_mgr,
        None,
        &mut Cursor::new(health_q.clone().into_bytes()),
        &mut pipe_out,
    )
    .expect("pipe serve");
    let over_pipe = String::from_utf8(pipe_out).expect("utf-8");

    assert_eq!(over_tcp, over_router, "tcp vs router health bytes drifted");
    assert_eq!(over_tcp, over_pipe, "tcp vs pipe health bytes drifted");

    let healthy = parse_health(&over_tcp).expect("health parses");
    assert_eq!(healthy.server, HealthStatus::Ok);
    let hp = healthy
        .sessions
        .iter()
        .find(|s| s.name == "hp")
        .expect("the ingesting session is listed");
    assert_eq!((hp.status, hp.reason.as_deref()), (HealthStatus::Ok, None));

    // ---- forced degradation: a saturated ingest queue. ----
    let sat = dna_obs::SessionAccounting::register(dna_obs::global(), "hp-sat");
    sat.beat(); // fresh heartbeat: depth, not staleness, is the finding
    sat.queue_depth.set(65); // default DNA_OBS_QUEUE_DEPTH_WARN is 64
    let degraded = parse_health(&server.query(&health_q).expect("health")).expect("parses");
    assert_eq!(
        degraded.server,
        HealthStatus::Degraded,
        "a degraded session must degrade the server rollup"
    );
    let row = degraded
        .sessions
        .iter()
        .find(|s| s.name == "hp-sat")
        .expect("saturated session listed");
    assert_eq!(
        (row.status, row.reason.as_deref()),
        (HealthStatus::Degraded, Some("queue-depth"))
    );
    sat.retire(dna_obs::global());

    // ---- forced failure: a panic-fenced session stays contained. ----
    let dead = dna_obs::SessionAccounting::register(dna_obs::global(), "hp-dead");
    dead.failed.set(1);
    let contained = parse_health(&server.query(&health_q).expect("health")).expect("parses");
    assert_eq!(
        contained.server,
        HealthStatus::Ok,
        "a failed session is fenced off, not a server-level failure"
    );
    let row = contained
        .sessions
        .iter()
        .find(|s| s.name == "hp-dead")
        .expect("failed session listed");
    assert_eq!(
        (row.status, row.reason.as_deref()),
        (HealthStatus::Failed, Some("panic"))
    );
    dead.retire(dna_obs::global());

    // Retiring both restores the exact pre-fault bytes.
    let restored = server.query(&health_q).expect("health");
    assert_eq!(restored, over_tcp, "retired sessions must leave no residue");

    // ---- history --rates: the ingest shows up as a real rate. ----
    let dump = server
        .query(&q(QueryKind::History { last: None }))
        .expect("history over tcp");
    let report = parse_history(&dump).expect("dump is a canonical history artifact");
    assert!(
        report.samples.len() >= 2,
        "both recorded samples must be retained"
    );
    let rates = dna_obs::rates(&obs_samples(&report));
    let applied = rates
        .iter()
        .find(|r| r.name == "epochs_applied" && r.session.as_deref() == Some("hp"))
        .expect("the ingesting session has an epochs_applied rate");
    assert!(
        applied.per_second > 0.0,
        "a live ingest inside the window must derive a nonzero rate, got {}",
        applied.per_second
    );
    // `history 1` trims to the freshest sample (rates then degenerate).
    let tail = parse_history(
        &server
            .query(&q(QueryKind::History { last: Some(1) }))
            .expect("history tail"),
    )
    .expect("tail parses");
    assert_eq!(tail.samples.len(), 1);
    assert_eq!(
        tail.samples.last(),
        report.samples.last(),
        "the last-n window must be the dump's suffix"
    );

    // ---- transport parity for every kind, not just `health`. ----
    // Four independent stacks fed the same script, so their sessions
    // evolve identically: the inline manager behind the pipe loop, a
    // bare router driven over its request channel (what connections
    // and `--follow` tails talk to), and a router behind each socket
    // door, over one persistent connection apiece (one connection, so
    // the `*_connections` counters hold still while a row is in
    // flight).
    let mut pipe_mgr = SessionManager::new(SessionConfig::default());
    let (channel_tx, channel_rx) = mpsc::channel();
    std::thread::spawn(move || Router::new(SessionConfig::default()).run(channel_rx));
    let (_tcp_tx, tcp_door) = socket_stack(Endpoint::Tcp("127.0.0.1:0".into()));
    let Endpoint::Tcp(tcp_addr) = &tcp_door else {
        unreachable!("a TCP door binds a TCP endpoint");
    };
    let tcp = TcpStream::connect(tcp_addr).expect("connect");
    #[cfg(unix)]
    let unix = {
        let path = std::env::temp_dir().join(format!("dna-parity-{}.sock", std::process::id()));
        let _unix_stack = socket_stack(Endpoint::Unix(path.clone()));
        let stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        let _ = std::fs::remove_file(path);
        stream
    };
    for (label, text) in parity_script(&ft.snapshot, &trace) {
        let over_pipe = without_timings(via_pipe(&mut pipe_mgr, &text));
        let over_channel = without_timings(via_channel(&channel_tx, &text));
        let over_tcp = without_timings(via_socket(&tcp, &text));
        assert!(!over_pipe.is_empty(), "{label}: no reply");
        assert_eq!(over_pipe, over_channel, "{label}: pipe vs router channel");
        assert_eq!(over_pipe, over_tcp, "{label}: pipe vs tcp");
        #[cfg(unix)]
        assert_eq!(
            over_pipe,
            without_timings(via_socket(&unix, &text)),
            "{label}: pipe vs unix socket"
        );
    }
    // A truncated artifact can only end a stream: input stops mid
    // artifact and the partial text is answered as a typed error.
    let truncated = "dna-io v5 query\n  stats\n";
    let over_pipe = via_pipe(&mut pipe_mgr, truncated);
    assert!(
        matches!(
            dna_io::parse_response(&over_pipe),
            Ok(dna_io::Response::Error(_))
        ),
        "truncated artifact must answer a typed error:\n{over_pipe}"
    );
    assert_eq!(over_pipe, via_channel(&channel_tx, truncated), "truncated");
    let half_close = std::net::Shutdown::Write;
    (&tcp).write_all(truncated.as_bytes()).expect("send");
    tcp.shutdown(half_close).expect("close write half");
    let over_tcp = read_artifact(&mut BufReader::new(&tcp)).expect("framed");
    assert_eq!(
        Some(&over_pipe),
        over_tcp.as_ref(),
        "truncated: pipe vs tcp"
    );
    #[cfg(unix)]
    {
        (&unix).write_all(truncated.as_bytes()).expect("send");
        unix.shutdown(half_close).expect("close write half");
        let over_unix = read_artifact(&mut BufReader::new(&unix)).expect("framed");
        assert_eq!(
            Some(&over_pipe),
            over_unix.as_ref(),
            "truncated: pipe vs unix"
        );
    }
}
