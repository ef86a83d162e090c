//! Concurrent multi-session ingest: two sessions, each with its own
//! engine thread behind the router, ingest interleaved traces while a
//! third client races reachability queries against both. Everything
//! observable is pinned against sequential replay:
//!
//! * every response the ingesting clients see is byte-identical to the
//!   one sequential ingest produces;
//! * every racing query answer equals the sequential answer after
//!   *some* prefix of that session's epochs (ingest is atomic per
//!   trace artifact, so no torn state is ever visible);
//! * the final history/stats queries agree with a sequentially-built
//!   session byte-for-byte.

use dna_io::{
    parse_response, write_query, write_trace, Query, QueryKind, Response, Trace, TraceEpoch,
};
use dna_serve::{read_artifact, serve_connection, Edge, Request, Router, Session, SessionConfig};
use std::collections::BTreeSet;
use std::io::Cursor;
use std::sync::mpsc;
use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

const EPOCHS: usize = 8;
const CHUNK: usize = 2;

fn workload(routing: Routing, seed: u64) -> (net_model::Snapshot, Vec<TraceEpoch>) {
    let ft = fat_tree(4, routing);
    let mut gen = ScenarioGen::new(seed);
    let labeled = gen.labeled_sequence(
        &ft.snapshot,
        &[ScenarioKind::LinkFailure, ScenarioKind::LinkRecovery],
        EPOCHS,
    );
    assert_eq!(labeled.len(), EPOCHS);
    let epochs = labeled
        .into_iter()
        .map(|(kind, changes)| TraceEpoch {
            label: Some(kind.to_string()),
            changes,
        })
        .collect();
    (ft.snapshot, epochs)
}

fn reach_query(session: &str) -> String {
    write_query(&Query {
        session: Some(session.to_string()),
        kind: QueryKind::ReachPair {
            src: "edge0_0".into(),
            dst: "edge1_1".into(),
        },
    })
}

/// Sequential oracle for one session: the responses an unthreaded
/// server would produce — the ingest acknowledgements, the reach answer
/// after every epoch prefix, and the closing history queries.
struct Oracle {
    /// Reach response after 0, 1, ..., EPOCHS epochs.
    reach_by_prefix: Vec<String>,
    /// Ingest acknowledgement per CHUNK-epoch trace artifact.
    ingest_acks: Vec<String>,
    /// Closing blast + report responses.
    blast: String,
    report: String,
    epochs: usize,
}

fn oracle(name: &str, snapshot: &net_model::Snapshot, epochs: &[TraceEpoch]) -> Oracle {
    let mut session =
        Session::open(name, snapshot.clone(), SessionConfig::default()).expect("session opens");
    let reach = QueryKind::ReachPair {
        src: "edge0_0".into(),
        dst: "edge1_1".into(),
    };
    let mut reach_by_prefix = vec![dna_io::write_response(&session.answer(&reach))];
    let mut ingest_acks = Vec::new();
    for chunk in epochs.chunks(CHUNK) {
        let mut flows = 0;
        for ep in chunk {
            flows += session.ingest(ep).expect("epoch applies");
            reach_by_prefix.push(dna_io::write_response(&session.answer(&reach)));
        }
        ingest_acks.push(dna_io::write_response(&Response::Ingested {
            session: name.to_string(),
            epochs: chunk.len() as u64,
            flows: flows as u64,
            total: session.epochs() as u64,
        }));
    }
    Oracle {
        reach_by_prefix,
        ingest_acks,
        blast: dna_io::write_response(&session.answer(&QueryKind::Blast { last: EPOCHS })),
        report: dna_io::write_response(&session.answer(&QueryKind::Report {
            from: EPOCHS - 2,
            to: EPOCHS,
        })),
        epochs: session.epochs(),
    }
}

/// One ingesting client bound to its session the way a `--follow` tail
/// is (the request's `session` field — the wire has no such
/// side-channel): alternates CHUNK-epoch trace artifacts with a reach
/// query, returning the response artifacts it saw.
fn ingest_client(
    tx: mpsc::Sender<Request>,
    session: String,
    epochs: Vec<TraceEpoch>,
) -> std::thread::JoinHandle<Vec<String>> {
    std::thread::spawn(move || {
        let ask = |text: String| {
            let (reply, reply_rx) = mpsc::channel();
            tx.send(Request {
                text,
                session: Some(session.clone()),
                reply,
            })
            .expect("router request");
            reply_rx.recv().expect("router reply")
        };
        let mut seen = Vec::new();
        for chunk in epochs.chunks(CHUNK) {
            seen.push(ask(write_trace(&Trace {
                epochs: chunk.to_vec(),
            })));
            seen.push(ask(reach_query(&session)));
        }
        seen
    })
}

/// One client connection's worth of artifacts through the one
/// connection loop; returns the concatenated replies.
fn over_connection(tx: &mpsc::Sender<Request>, artifacts: String) -> String {
    let edge = Edge::new(tx.clone());
    let mut out = Vec::new();
    serve_connection(&edge, "test", usize::MAX, Cursor::new(artifacts), &mut out)
        .expect("connection served");
    String::from_utf8(out).expect("utf-8")
}

fn split_artifacts(text: &str) -> Vec<String> {
    let mut cursor = Cursor::new(text.as_bytes().to_vec());
    let mut out = Vec::new();
    while let Some(a) = read_artifact(&mut cursor).expect("well-framed") {
        out.push(a);
    }
    out
}

#[test]
fn concurrent_two_session_ingest_matches_sequential_replay() {
    let (snap_a, epochs_a) = workload(Routing::Ebgp, 77);
    let (snap_b, epochs_b) = workload(Routing::Ospf, 78);
    let oracle_a = oracle("a", &snap_a, &epochs_a);
    let oracle_b = oracle("b", &snap_b, &epochs_b);

    let mut router = Router::new(SessionConfig::default());
    router
        .preload(vec![("a".into(), snap_a), ("b".into(), snap_b)])
        .expect("parallel bring-up");
    let (tx, rx) = mpsc::channel();
    let engine = std::thread::spawn(move || router.run(rx));

    // Two ingesting clients run concurrently, one per session...
    let client_a = ingest_client(tx.clone(), "a".into(), epochs_a);
    let client_b = ingest_client(tx.clone(), "b".into(), epochs_b);
    // ...while a racer hammers reach queries against both.
    let racer = {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            for i in 0..40 {
                let q = reach_query(if i % 2 == 0 { "a" } else { "b" });
                seen.push((i % 2, over_connection(&tx, q)));
            }
            seen
        })
    };
    let got_a = client_a.join().expect("client a");
    let got_b = client_b.join().expect("client b");
    let raced = racer.join().expect("racer");

    // Ingest clients see exactly the sequential responses, in order:
    // per-session ordering is untouched by concurrency.
    for (oracle, got) in [(&oracle_a, &got_a), (&oracle_b, &got_b)] {
        assert_eq!(got.len(), EPOCHS / CHUNK * 2);
        for (i, chunk_pair) in got.chunks(2).enumerate() {
            assert_eq!(chunk_pair[0], oracle.ingest_acks[i], "ingest ack {i}");
            assert_eq!(
                chunk_pair[1],
                oracle.reach_by_prefix[(i + 1) * CHUNK],
                "reach after chunk {i}"
            );
        }
    }
    // Each raced answer equals the sequential answer after some epoch
    // prefix — never a torn or foreign state.
    for (which, response) in &raced {
        let oracle = if *which == 0 { &oracle_a } else { &oracle_b };
        let valid: BTreeSet<&String> = oracle.reach_by_prefix.iter().collect();
        assert!(
            valid.contains(response),
            "raced answer matches no sequential prefix state:\n{response}"
        );
    }
    // Closing queries: history and stats agree with sequential replay.
    let closing = format!(
        "{}{}{}{}",
        write_query(&Query {
            session: Some("a".into()),
            kind: QueryKind::Blast { last: EPOCHS },
        }),
        write_query(&Query {
            session: Some("a".into()),
            kind: QueryKind::Report {
                from: EPOCHS - 2,
                to: EPOCHS,
            },
        }),
        write_query(&Query {
            session: Some("b".into()),
            kind: QueryKind::Blast { last: EPOCHS },
        }),
        write_query(&Query {
            session: Some("b".into()),
            kind: QueryKind::Stats,
        }),
    );
    let closing = split_artifacts(&over_connection(&tx, closing));
    assert_eq!(closing[0], oracle_a.blast);
    assert_eq!(closing[1], oracle_a.report);
    assert_eq!(closing[2], oracle_b.blast);
    match parse_response(&closing[3]).expect("stats parses") {
        Response::Stats(s) => {
            assert_eq!(s.session, "b");
            assert_eq!(s.epochs as usize, oracle_b.epochs);
            assert_eq!(s.mismatches, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    drop(tx);
    let summary = engine.join().expect("router thread");
    assert_eq!(summary.epochs as usize, 2 * EPOCHS);
    assert_eq!(summary.errors, 0);
}
