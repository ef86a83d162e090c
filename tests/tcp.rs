//! The TCP front door, end to end: a router with published views
//! behind a real `TcpListener`, exercised by real `TcpStream` clients.
//!
//! Two pins:
//!
//! * the corpus service smoke driven over a socket produces the exact
//!   bytes the pipe transport pins (`corpus/service_smoke.expected.dna`)
//!   — with the read-only queries answered from published views, never
//!   touching the engine thread (asserted via the registry's served
//!   counter);
//! * eight concurrent TCP clients hammering reach/blast queries while
//!   a ninth ingests a live trace over the same listener only ever see
//!   answers equal to a sequential replay after *some* epoch prefix —
//!   the snapshot read path never exposes torn state;
//! * a subscribed connection's pushed notify stream (the `dna watch`
//!   wire pattern) carries exactly the events a poll-after-every-epoch
//!   client drains — changed commits push one artifact, unchanged
//!   commits push zero bytes;
//! * a pipelining client — two queries written back-to-back before
//!   either reply is read — gets both replies, byte-identical to two
//!   sequential round trips.

use dna_io::{write_query, write_trace, Query, QueryKind, Response, Trace, TraceEpoch};
use dna_serve::{
    query_tcp, read_artifact, tcp_accept_loop, Router, Session, SessionConfig, ViewRegistry,
};
use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

const EPOCHS: usize = 8;
const CHUNK: usize = 2;
const CLIENTS: usize = 8;
const ROUNDS: usize = 6;

/// Brings up a router (with the view registry attached) over the given
/// preloaded sessions and puts a TCP accept loop in front of it.
/// Returns the listener address and the shared registry. The router
/// and accept threads outlive the test body; the process reaps them.
fn serve_tcp(
    sessions: Vec<(String, net_model::Snapshot)>,
) -> (
    SocketAddr,
    Arc<ViewRegistry>,
    mpsc::Sender<dna_serve::Request>,
) {
    let views = Arc::new(ViewRegistry::new());
    let hub = Arc::new(dna_serve::NotifyHub::new());
    let mut router = Router::new(SessionConfig::default())
        .with_views(Arc::clone(&views))
        .with_notify_hub(Arc::clone(&hub));
    router.preload(sessions).expect("sessions open");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || router.run(rx));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let accept_tx = tx.clone();
    let accept_views = Arc::clone(&views);
    std::thread::spawn(move || tcp_accept_loop(accept_tx, listener, accept_views, hub));
    (addr, views, tx)
}

fn q(session: Option<&str>, kind: QueryKind) -> String {
    write_query(&Query {
        session: session.map(str::to_string),
        kind,
    })
}

/// The CI smoke's in-process twin over a real socket: the same corpus
/// artifact stream, byte-for-byte the same pinned responses — proving
/// the TCP transport (and the view read path answering its queries)
/// is indistinguishable on the wire from the single-threaded pipe
/// server that produced the golden file.
#[test]
fn tcp_responses_match_the_pinned_corpus_smoke() {
    let snapshot = dna_io::parse_snapshot(include_str!("corpus/ft4_failures.snap.dna"))
        .expect("corpus snapshot parses");
    let (addr, views, _tx) = serve_tcp(vec![("ft4_failures".into(), snapshot)]);
    let input = format!(
        "{}{}{}{}",
        include_str!("corpus/ft4_failures.trace.dna"),
        q(
            None,
            QueryKind::ReachPair {
                src: "edge0_0".into(),
                dst: "edge1_1".into(),
            }
        ),
        q(None, QueryKind::Blast { last: 8 }),
        q(None, QueryKind::Report { from: 0, to: 1 }),
    );
    let stream = TcpStream::connect(addr).expect("connect");
    (&stream)
        .write_all(input.as_bytes())
        .expect("send artifacts");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("close write half");
    let mut out = String::new();
    let mut reader = BufReader::new(&stream);
    while let Some(a) = read_artifact(&mut reader).expect("well-framed response") {
        out.push_str(&a);
    }
    assert_eq!(
        out,
        include_str!("corpus/service_smoke.expected.dna"),
        "TCP responses drifted from the pinned corpus smoke"
    );
    // All three queries were answered from published views — the trace
    // is the only artifact that reached the engine side.
    assert_eq!(views.served(), 3, "read path must serve the queries");
}

/// Pipelining: a client that writes two queries back-to-back, as two
/// separate socket writes, before reading anything gets both replies
/// in order — the same bytes two sequential round trips return. (The
/// server sets `TCP_NODELAY` on accepted connections; without it the
/// second reply waits ~40 ms on Nagle + the client's delayed ACK.)
#[test]
fn pipelined_queries_answer_like_sequential_round_trips() {
    let snapshot = dna_io::parse_snapshot(include_str!("corpus/ft4_failures.snap.dna"))
        .expect("corpus snapshot parses");
    let (addr, _views, _tx) = serve_tcp(vec![("pipe".into(), snapshot)]);
    let ack = query_tcp(
        &addr.to_string(),
        include_str!("corpus/ft4_failures.trace.dna"),
    )
    .expect("trace over tcp");
    assert!(ack.contains("ok ingested"), "unexpected ingest ack:\n{ack}");
    let first = q(
        None,
        QueryKind::ReachPair {
            src: "edge0_0".into(),
            dst: "edge1_1".into(),
        },
    );
    let second = q(Some("pipe"), QueryKind::Blast { last: 8 });
    let sequential = [
        query_tcp(&addr.to_string(), &first).expect("first round trip"),
        query_tcp(&addr.to_string(), &second).expect("second round trip"),
    ];

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    (&stream).write_all(first.as_bytes()).expect("first write");
    (&stream)
        .write_all(second.as_bytes())
        .expect("second write");
    let mut reader = BufReader::new(&stream);
    let pipelined = [(); 2].map(|()| {
        read_artifact(&mut reader)
            .expect("reply within the timeout")
            .expect("one reply per query")
    });
    assert_eq!(pipelined, sequential);
}

/// A subscribed TCP connection (the `dna watch` wire pattern): the
/// pushed notify stream must carry exactly the event bytes a client
/// polling `notifications <id>` after every commit collects — and
/// nothing at all for commits that didn't change the answer.
#[test]
fn watch_connection_streams_push_equal_to_poll() {
    let (snapshot, epochs) = workload();
    let (addr, _views, _tx) = serve_tcp(vec![("watch".into(), snapshot)]);
    let subscribe = q(
        Some("watch"),
        QueryKind::Subscribe(dna_io::SubscriptionSpec::Blast {
            device: "edge0_0".into(),
        }),
    );

    // The watcher: one persistent connection, subscribed first so the
    // push stream covers every commit from epoch zero.
    let watch_stream = TcpStream::connect(addr).expect("watch connects");
    watch_stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    (&watch_stream)
        .write_all(subscribe.as_bytes())
        .expect("send subscribe");
    let mut watch_reader = BufReader::new(&watch_stream);
    let ack = read_artifact(&mut watch_reader)
        .expect("well-framed ack")
        .expect("subscribe acks");
    let watch_id = dna_io::parse_notify(&ack)
        .expect("ack is a notify")
        .subscription;

    // The poller: a twin subscription on the same session, drained
    // after every single-epoch commit.
    let poll_ack = query_tcp(&addr.to_string(), &subscribe).expect("poll subscribe");
    let poll_id = dna_io::parse_notify(&poll_ack)
        .expect("ack is a notify")
        .subscription;
    let mut polled: Vec<dna_io::Notify> = Vec::new();
    for ep in &epochs {
        let trace = write_trace(&Trace {
            epochs: vec![ep.clone()],
        });
        let ack = query_tcp(&addr.to_string(), &trace).expect("epoch over tcp");
        assert!(
            matches!(
                dna_io::parse_response(&ack),
                Ok(Response::Ingested { epochs: 1, .. })
            ),
            "unexpected ingest ack:\n{ack}"
        );
        let batch = query_tcp(
            &addr.to_string(),
            &q(Some("watch"), QueryKind::Notifications { id: poll_id }),
        )
        .expect("poll over tcp");
        let n = dna_io::parse_notify(&batch).expect("poll answers with a notify");
        assert!(n.events.len() <= 1, "one commit queues at most one event");
        if !n.events.is_empty() {
            polled.push(n);
        }
    }

    // The pushed stream: one artifact per changed commit, in order.
    // (Ids differ between the two subscriptions; the *events* must
    // not.) A missing push trips the read timeout rather than hanging.
    let mut pushed: Vec<dna_io::Notify> = Vec::new();
    while pushed.len() < polled.len() {
        let artifact = read_artifact(&mut watch_reader)
            .expect("pushed artifact within the timeout")
            .expect("connection stays open");
        let n = dna_io::parse_notify(&artifact).expect("push is a notify");
        assert_eq!(n.subscription, watch_id);
        assert_eq!(n.events.len(), 1, "pushes carry one event per commit");
        pushed.push(n);
    }
    assert!(
        !polled.is_empty(),
        "workload must change the answer at least once"
    );
    assert!(
        polled.len() < epochs.len(),
        "workload must also contain suppressed (zero-byte) commits"
    );
    let pushed_events: Vec<_> = pushed.into_iter().flat_map(|n| n.events).collect();
    let polled_events: Vec<_> = polled.into_iter().flat_map(|n| n.events).collect();
    assert_eq!(
        pushed_events, polled_events,
        "pushed deltas must equal the poll-after-every-epoch stream"
    );
}

fn workload() -> (net_model::Snapshot, Vec<TraceEpoch>) {
    let ft = fat_tree(4, Routing::Ebgp);
    let mut gen = ScenarioGen::new(91);
    let labeled = gen.labeled_sequence(
        &ft.snapshot,
        &[ScenarioKind::LinkFailure, ScenarioKind::LinkRecovery],
        EPOCHS,
    );
    let epochs = labeled
        .into_iter()
        .map(|(kind, changes)| TraceEpoch {
            label: Some(kind.to_string()),
            changes,
        })
        .collect();
    (ft.snapshot, epochs)
}

/// Sequential oracle: the reach and blast responses after every epoch
/// prefix, plus the per-chunk ingest acknowledgements.
struct Oracle {
    reach: Vec<String>,
    blast: Vec<String>,
    acks: Vec<String>,
}

fn oracle(name: &str, snapshot: &net_model::Snapshot, epochs: &[TraceEpoch]) -> Oracle {
    let mut session =
        Session::open(name, snapshot.clone(), SessionConfig::default()).expect("session opens");
    let reach_kind = QueryKind::ReachPair {
        src: "edge0_0".into(),
        dst: "edge1_1".into(),
    };
    let blast_kind = QueryKind::Blast { last: EPOCHS };
    let mut reach = vec![dna_io::write_response(&session.answer(&reach_kind))];
    let mut blast = vec![dna_io::write_response(&session.answer(&blast_kind))];
    let mut acks = Vec::new();
    for chunk in epochs.chunks(CHUNK) {
        let mut flows = 0;
        for ep in chunk {
            flows += session.ingest(ep).expect("epoch applies");
            reach.push(dna_io::write_response(&session.answer(&reach_kind)));
            blast.push(dna_io::write_response(&session.answer(&blast_kind)));
        }
        acks.push(dna_io::write_response(&Response::Ingested {
            session: name.to_string(),
            epochs: chunk.len() as u64,
            flows: flows as u64,
            total: session.epochs() as u64,
        }));
    }
    Oracle { reach, blast, acks }
}

/// Eight TCP clients race read-only queries against a session that a
/// ninth connection is actively ingesting into — over the same
/// listener. Every raced answer must equal the sequential answer after
/// some epoch prefix, every ingest ack must be byte-identical to the
/// sequential ack, and the registry must prove the answers came from
/// published views rather than engine round trips.
#[test]
fn eight_tcp_clients_race_a_live_ingest() {
    let (snapshot, epochs) = workload();
    let oracle = oracle("live", &snapshot, &epochs);
    let (addr, views, _tx) = serve_tcp(vec![("live".into(), snapshot)]);

    // The ingesting client: one connection, trace artifacts in
    // CHUNK-epoch slices, reading back each acknowledgement.
    let writer = {
        let epochs = epochs.clone();
        std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("writer connects");
            let mut reader = BufReader::new(&stream);
            let mut acks = Vec::new();
            for chunk in epochs.chunks(CHUNK) {
                let trace = write_trace(&Trace {
                    epochs: chunk.to_vec(),
                });
                (&stream).write_all(trace.as_bytes()).expect("send trace");
                (&stream).flush().expect("flush trace");
                acks.push(
                    read_artifact(&mut reader)
                        .expect("well-framed ack")
                        .expect("one ack per trace"),
                );
            }
            acks
        })
    };
    // Eight racing readers, each on its own connection, each issuing a
    // fresh reach + blast query per round.
    let racers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..ROUNDS {
                    let reach = query_tcp(
                        &addr.to_string(),
                        &q(
                            Some("live"),
                            QueryKind::ReachPair {
                                src: "edge0_0".into(),
                                dst: "edge1_1".into(),
                            },
                        ),
                    )
                    .expect("reach over tcp");
                    let blast = query_tcp(
                        &addr.to_string(),
                        &q(Some("live"), QueryKind::Blast { last: EPOCHS }),
                    )
                    .expect("blast over tcp");
                    seen.push((reach, blast));
                }
                seen
            })
        })
        .collect();

    let acks = writer.join().expect("writer thread");
    assert_eq!(
        acks, oracle.acks,
        "ingest acks must match sequential replay"
    );
    let valid_reach: BTreeSet<&String> = oracle.reach.iter().collect();
    let valid_blast: BTreeSet<&String> = oracle.blast.iter().collect();
    let mut raced = 0u64;
    for racer in racers {
        for (reach, blast) in racer.join().expect("racer thread") {
            raced += 2;
            assert!(
                valid_reach.contains(&reach),
                "raced reach answer matches no sequential prefix state:\n{reach}"
            );
            assert!(
                valid_blast.contains(&blast),
                "raced blast answer matches no sequential prefix state:\n{blast}"
            );
        }
    }
    // After the writer's last ack the final view is already published
    // (views publish before the acknowledgement is sent), so a fresh
    // query must see exactly the all-epochs state.
    let final_reach = query_tcp(
        &addr.to_string(),
        &q(
            Some("live"),
            QueryKind::ReachPair {
                src: "edge0_0".into(),
                dst: "edge1_1".into(),
            },
        ),
    )
    .expect("final reach");
    assert_eq!(&final_reach, oracle.reach.last().unwrap());
    let final_blast = query_tcp(
        &addr.to_string(),
        &q(Some("live"), QueryKind::Blast { last: EPOCHS }),
    )
    .expect("final blast");
    assert_eq!(&final_blast, oracle.blast.last().unwrap());
    // Every raced query (plus the two closing ones) was answered from a
    // published view — the engine thread saw only the trace artifacts.
    assert_eq!(
        views.served(),
        raced + 2,
        "the snapshot read path must have served every query"
    );
}
