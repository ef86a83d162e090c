//! The socket front doors, end to end: a router with published views
//! behind a real listener, exercised by real socket clients.
//!
//! The pins:
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
//!   commits push zero bytes — over TCP and, byte-identically, over a
//!   unix socket;
//! * a pipelining client — two queries written back-to-back before
//!   either reply is read — gets both replies, byte-identical to two
//!   sequential round trips.

use dna_io::{write_query, write_trace, Query, QueryKind, Response, Trace, TraceEpoch};
use dna_serve::{Edge, Endpoint, Router, Session, SessionConfig, ViewRegistry};
use std::collections::BTreeSet;
use std::sync::{mpsc, Arc};
use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

const EPOCHS: usize = 8;
const CHUNK: usize = 2;
const CLIENTS: usize = 8;
const ROUNDS: usize = 6;

/// Brings up a router (views and notify hub attached) over the given
/// preloaded sessions and opens `door` in front of it. Returns the
/// bound endpoint and the shared registry. The router and accept
/// threads outlive the test body; the process reaps them.
fn serve_on(
    door: Endpoint,
    sessions: Vec<(String, net_model::Snapshot)>,
) -> (Endpoint, Arc<ViewRegistry>) {
    let views = Arc::new(ViewRegistry::new());
    let hub = Arc::new(dna_serve::NotifyHub::new());
    let mut router =
        Router::new(SessionConfig::default()).publishing(Arc::clone(&views), Arc::clone(&hub));
    router.preload(sessions).expect("sessions open");
    let (requests, rx) = mpsc::channel();
    std::thread::spawn(move || router.run(rx));
    let edge = Edge {
        requests,
        views: Arc::clone(&views),
        hub,
    };
    (door.listen(edge).expect("door opens"), views)
}

/// [`serve_on`] an ephemeral TCP port.
fn serve_tcp(sessions: Vec<(String, net_model::Snapshot)>) -> (Endpoint, Arc<ViewRegistry>) {
    serve_on(Endpoint::Tcp("127.0.0.1:0".into()), sessions)
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
    let (server, views) = serve_tcp(vec![("ft4_failures".into(), snapshot)]);
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
    let mut client = server.connect().expect("connect");
    client.send(&input).expect("send artifacts");
    let out: String = (0..4)
        .map(|_| client.recv().expect("well-framed").expect("one reply each"))
        .collect();
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
    let (server, _views) = serve_tcp(vec![("pipe".into(), snapshot)]);
    let ack = server
        .query(include_str!("corpus/ft4_failures.trace.dna"))
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
        server.query(&first).expect("first round trip"),
        server.query(&second).expect("second round trip"),
    ];

    let mut client = server.connect().expect("connect");
    client.send(&first).expect("first write");
    client.send(&second).expect("second write");
    let pipelined = [(); 2].map(|()| {
        client
            .recv()
            .expect("well-framed reply")
            .expect("one reply per query")
    });
    assert_eq!(pipelined, sequential);
}

/// A subscribed connection (the `dna watch` wire pattern): the pushed
/// notify stream must carry exactly the event bytes a client polling
/// `notifications <id>` after every commit collects — and nothing at
/// all for commits that didn't change the answer. The unix-socket door
/// runs the same connection loop, so its pushed bytes are the TCP
/// door's.
#[test]
fn watch_connection_streams_push_equal_to_poll() {
    let over_tcp = watch_vs_poll(Endpoint::Tcp("127.0.0.1:0".into()));
    #[cfg(unix)]
    {
        let path = std::env::temp_dir().join(format!("dna-watch-{}.sock", std::process::id()));
        let over_unix = watch_vs_poll(Endpoint::Unix(path.clone()));
        let _ = std::fs::remove_file(path);
        assert_eq!(over_unix, over_tcp, "unix pushes must be the TCP bytes");
    }
}

/// Runs the watch-vs-poll scenario behind `door`, asserting push ≡
/// poll; returns the pushed artifacts.
fn watch_vs_poll(door: Endpoint) -> Vec<String> {
    let (snapshot, epochs) = workload();
    let (server, _views) = serve_on(door, vec![("watch".into(), snapshot)]);
    let subscribe = q(
        Some("watch"),
        QueryKind::Subscribe(dna_io::SubscriptionSpec::Blast {
            device: "edge0_0".into(),
        }),
    );

    // The watcher: one persistent connection, subscribed first so the
    // push stream covers every commit from epoch zero.
    let mut watcher = server.connect().expect("watch connects");
    watcher.send(&subscribe).expect("send subscribe");
    let ack = watcher
        .recv()
        .expect("well-framed ack")
        .expect("subscribe acks");
    let watch_id = dna_io::parse_notify(&ack)
        .expect("ack is a notify")
        .subscription;

    // The poller: a twin subscription on the same session, drained
    // after every single-epoch commit.
    let poll_ack = server.query(&subscribe).expect("poll subscribe");
    let poll_id = dna_io::parse_notify(&poll_ack)
        .expect("ack is a notify")
        .subscription;
    let mut polled: Vec<dna_io::Notify> = Vec::new();
    for ep in &epochs {
        let trace = write_trace(&Trace {
            epochs: vec![ep.clone()],
        });
        let ack = server.query(&trace).expect("epoch over the socket");
        assert!(
            matches!(
                dna_io::parse_response(&ack),
                Ok(Response::Ingested { epochs: 1, .. })
            ),
            "unexpected ingest ack:\n{ack}"
        );
        let batch = server
            .query(&q(Some("watch"), QueryKind::Notifications { id: poll_id }))
            .expect("poll over the socket");
        let n = dna_io::parse_notify(&batch).expect("poll answers with a notify");
        assert!(n.events.len() <= 1, "one commit queues at most one event");
        if !n.events.is_empty() {
            polled.push(n);
        }
    }

    // The pushed stream: one artifact per changed commit, in order.
    // (Ids differ between the two subscriptions; the *events* must
    // not.)
    let mut pushed: Vec<String> = Vec::new();
    let mut pushed_events = Vec::new();
    while pushed.len() < polled.len() {
        let artifact = watcher
            .recv()
            .expect("well-framed push")
            .expect("connection stays open");
        let n = dna_io::parse_notify(&artifact).expect("push is a notify");
        assert_eq!(n.subscription, watch_id);
        assert_eq!(n.events.len(), 1, "pushes carry one event per commit");
        pushed_events.extend(n.events);
        pushed.push(artifact);
    }
    assert!(
        !polled.is_empty(),
        "workload must change the answer at least once"
    );
    assert!(
        polled.len() < epochs.len(),
        "workload must also contain suppressed (zero-byte) commits"
    );
    let polled_events: Vec<_> = polled.into_iter().flat_map(|n| n.events).collect();
    assert_eq!(
        pushed_events, polled_events,
        "pushed deltas must equal the poll-after-every-epoch stream"
    );
    pushed
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
    let (server, views) = serve_tcp(vec![("live".into(), snapshot)]);

    // The ingesting client: one connection, trace artifacts in
    // CHUNK-epoch slices, reading back each acknowledgement.
    let writer = {
        let (epochs, server) = (epochs.clone(), server.clone());
        std::thread::spawn(move || {
            let mut client = server.connect().expect("writer connects");
            let mut acks = Vec::new();
            for chunk in epochs.chunks(CHUNK) {
                let trace = write_trace(&Trace {
                    epochs: chunk.to_vec(),
                });
                client.send(&trace).expect("send trace");
                acks.push(
                    client
                        .recv()
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
            let server = server.clone();
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..ROUNDS {
                    let reach = server
                        .query(&q(
                            Some("live"),
                            QueryKind::ReachPair {
                                src: "edge0_0".into(),
                                dst: "edge1_1".into(),
                            },
                        ))
                        .expect("reach over tcp");
                    let blast = server
                        .query(&q(Some("live"), QueryKind::Blast { last: EPOCHS }))
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
    let final_reach = server
        .query(&q(
            Some("live"),
            QueryKind::ReachPair {
                src: "edge0_0".into(),
                dst: "edge1_1".into(),
            },
        ))
        .expect("final reach");
    assert_eq!(&final_reach, oracle.reach.last().unwrap());
    let final_blast = server
        .query(&q(Some("live"), QueryKind::Blast { last: EPOCHS }))
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

/// The robustness pin of the artifact cap: a client streaming an
/// artifact that never ends is answered with one `error` naming the
/// limit and hung up on — over TCP and over a unix socket — while a
/// second client's answers stay byte-identical throughout and `health`
/// stays `ok`.
#[test]
fn endless_artifact_is_refused_and_only_the_offender_is_hung_up_on() {
    let snapshot = dna_io::parse_snapshot(include_str!("corpus/ft4_failures.snap.dna"))
        .expect("corpus snapshot parses");
    let mut doors = vec![("cap-tcp", Endpoint::Tcp("127.0.0.1:0".into()))];
    #[cfg(unix)]
    let path = std::env::temp_dir().join(format!("dna-cap-{}.sock", std::process::id()));
    #[cfg(unix)]
    doors.push(("cap-unix", Endpoint::Unix(path.clone())));
    for (session, door) in doors {
        let (server, _views) = serve_on(door, vec![(session.into(), snapshot.clone())]);
        let probe = q(
            Some(session),
            QueryKind::ReachPair {
                src: "edge0_0".into(),
                dst: "edge1_1".into(),
            },
        );
        let answer = server.query(&probe).expect("probe before");
        assert!(
            answer.contains("ok reach"),
            "unexpected probe answer:\n{answer}"
        );
        let bystander = || {
            assert_eq!(server.query(&probe).expect("probe"), answer, "{server}");
            let health = server.query(&q(None, QueryKind::Health)).expect("health");
            let health = dna_io::parse_health(&health).expect("health parses");
            assert_eq!(health.server, dna_io::HealthStatus::Ok, "{server}");
        };

        // The offender: a trace header, then comment lines forever —
        // or until the server hangs up, whichever comes first.
        let offender = {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut client = server.connect().expect("offender connects");
                client.send("dna-io v1 trace\n").expect("header");
                let filler = format!("; {}\n", "x".repeat(1021)).repeat(1024);
                let mut sent = 0;
                while sent <= 2 * dna_serve::MAX_ARTIFACT_BYTES && client.send(&filler).is_ok() {
                    sent += filler.len();
                }
                (sent, client.recv(), client.recv())
            })
        };
        while !offender.is_finished() {
            bystander();
        }
        let (sent, reply, after) = offender.join().expect("offender thread");
        assert!(
            sent <= 2 * dna_serve::MAX_ARTIFACT_BYTES,
            "{server}: the server kept reading past the cap"
        );
        let reply = reply.expect("the refusal is readable").expect("one reply");
        match dna_io::parse_response(&reply).expect("refusal parses") {
            Response::Error(msg) => assert!(
                msg.contains(&dna_serve::MAX_ARTIFACT_BYTES.to_string()),
                "{server}: the refusal must name the limit: {msg}"
            ),
            other => panic!("{server}: expected an error, got {other:?}"),
        }
        assert!(
            !matches!(after, Ok(Some(_))),
            "{server}: the offender must be hung up on"
        );
        bystander();
    }
    #[cfg(unix)]
    let _ = std::fs::remove_file(path);
}
