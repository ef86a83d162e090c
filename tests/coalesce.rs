//! Backlog epoch coalescing (`--coalesce`): merging N pending epochs
//! into one dataflow commit must be invisible in the final engine view.
//! Pinned three ways:
//!
//! * a randomized sweep (chunk size × shard count × scenario seed)
//!   asserting the coalesced session's final view is byte-identical to
//!   sequential ingest, with the from-scratch shadow cross-checking
//!   every merged commit;
//! * a deterministic check of what coalescing *does* change — the one
//!   retained history record with the merged `coalesced(N): ...` label
//!   (FORMAT.md) and the `epochs_coalesced` / commit counters;
//! * a backlog smoke: a flooded router session with `coalesce` set
//!   drains its queue through the merge path, and every post-drain
//!   state query answer equals sequential replay byte-for-byte.

use dna_io::{
    parse_response, write_query, write_response, write_snapshot, write_trace, Query, QueryKind,
    Response, Trace, TraceEpoch,
};
use dna_serve::{read_artifact, serve_connection, Edge, Request, Router, Session, SessionConfig};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::mpsc;
use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

/// A k=4 fat-tree workload of `epochs` labeled change epochs.
fn workload(seed: u64, epochs: usize) -> (net_model::Snapshot, Vec<TraceEpoch>) {
    let ft = fat_tree(4, Routing::Ebgp);
    let mut gen = ScenarioGen::new(seed);
    let labeled = gen.labeled_sequence(
        &ft.snapshot,
        &[
            ScenarioKind::LinkFailure,
            ScenarioKind::LinkRecovery,
            ScenarioKind::AclInsert,
            ScenarioKind::AclRemove,
        ],
        epochs,
    );
    assert_eq!(labeled.len(), epochs);
    let epochs = labeled
        .into_iter()
        .map(|(kind, changes)| TraceEpoch {
            label: Some(kind.to_string()),
            changes,
        })
        .collect();
    (ft.snapshot, epochs)
}

/// State-derived queries whose answers may not depend on commit
/// granularity. (History queries — blast, report — legitimately differ:
/// a merged commit keeps one record, which is the documented trade.)
fn state_queries() -> Vec<QueryKind> {
    vec![
        QueryKind::ReachPair {
            src: "edge0_0".into(),
            dst: "edge1_1".into(),
        },
        QueryKind::ReachPair {
            src: "agg0_0".into(),
            dst: "edge1_0".into(),
        },
        QueryKind::ReachPair {
            src: "edge1_1".into(),
            dst: "edge0_0".into(),
        },
    ]
}

proptest! {
    // Each case pays four engine bring-ups (two sessions × verify
    // shadow); modest case count, wide parameter spread.
    #![proptest_config(ProptestConfig::with_cases_and_seed(8, 0xC0A7_E5CE))]

    /// Coalesced commits of N random epochs ≡ N sequential epochs —
    /// final engine view byte-identical, for any chunking and shards
    /// 1/2/4, with the from-scratch shadow auditing every merged
    /// commit.
    #[test]
    fn coalesced_commit_equals_sequential(
        seed in 0u64..1000,
        chunk in 2usize..=6,
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let (snapshot, epochs) = workload(seed, 8);
        let config = SessionConfig { verify: true, shards, ..Default::default() };
        let mut sequential =
            Session::open("c", snapshot.clone(), config.clone()).expect("session opens");
        for ep in &epochs {
            sequential.ingest(ep).expect("sequential ingest");
        }
        let mut coalesced = Session::open("c", snapshot, config).expect("session opens");
        for group in epochs.chunks(chunk) {
            let refs: Vec<&TraceEpoch> = group.iter().collect();
            coalesced.ingest_coalesced(&refs, 0).expect("coalesced ingest");
        }
        prop_assert_eq!(
            coalesced.mismatches(), 0,
            "from-scratch shadow disagreed with a merged commit"
        );
        prop_assert_eq!(coalesced.epochs(), sequential.epochs(), "stream epoch accounting");
        prop_assert_eq!(
            write_snapshot(coalesced.snapshot()),
            write_snapshot(sequential.snapshot()),
            "final engine view diverged (seed {}, chunk {}, shards {})",
            seed, chunk, shards
        );
        for q in state_queries() {
            prop_assert_eq!(
                write_response(&coalesced.answer(&q)),
                write_response(&sequential.answer(&q)),
                "answer diverged for {:?} (seed {}, chunk {}, shards {})",
                q, seed, chunk, shards
            );
        }
    }
}

/// What coalescing *does* change, deterministically: one retained
/// record carrying the merged label, the epoch counter still following
/// the stream, and the hot-path counters accounting the saved commits.
#[test]
fn merged_commit_history_record_and_counters() {
    let (snapshot, epochs) = workload(11, 5);
    let mut s =
        Session::open("coalesce-obs", snapshot, SessionConfig::default()).expect("session opens");
    let refs: Vec<&TraceEpoch> = epochs[..4].iter().collect();
    s.ingest_coalesced(&refs, 0).expect("merged commit applies");
    s.ingest(&epochs[4]).expect("tail epoch applies");
    assert_eq!(
        s.epochs(),
        5,
        "epoch accounting follows the stream, not commits"
    );

    // The merged label is the FORMAT.md shape: coalesced(N) plus the
    // constituent labels in arrival order, joined with " + ".
    let expected = format!(
        "coalesced(4): {} + {} + {} + {}",
        epochs[0].label.as_deref().unwrap(),
        epochs[1].label.as_deref().unwrap(),
        epochs[2].label.as_deref().unwrap(),
        epochs[3].label.as_deref().unwrap(),
    );
    assert_eq!(dna_serve::session::coalesced_label(&refs), expected);
    let report = write_response(&s.answer(&QueryKind::Report { from: 0, to: 5 }));
    assert!(
        report.contains(&expected),
        "history must carry the merged label:\n{report}"
    );
    // Two retained records: the merged one (anchored at epoch 0) and
    // the sequential tail (epoch 4).
    match s.answer(&QueryKind::Report { from: 0, to: 5 }) {
        Response::Report { epochs: recs } => {
            assert_eq!(recs.len(), 2, "one record per commit");
            assert_eq!(recs[0].0, 0, "merged record anchors at its first epoch");
            assert_eq!(recs[1].0, 4, "tail record keeps its stream index");
        }
        other => panic!("expected report, got {other:?}"),
    }

    let r = dna_obs::global();
    assert_eq!(
        r.counter_for("epochs_coalesced", "coalesce-obs").get(),
        3,
        "a 4-way merge saves three commits"
    );
    assert_eq!(
        r.counter_for("epochs_applied", "coalesce-obs").get(),
        2,
        "two commits total"
    );
    assert!(
        r.counter_for("dd_tuples", "coalesce-obs").get() > 0,
        "commit tuple-volume proxy advances"
    );
}

/// Backlog smoke: flood one router session with single-epoch trace
/// artifacts faster than it can commit them, with `coalesce` enabled.
/// The drain must engage the merge path, every artifact must be
/// acknowledged, and every post-drain state answer must equal
/// sequential replay byte-for-byte.
#[test]
fn backlog_drain_matches_sequential_replay() {
    const N: usize = 24;
    let (snapshot, epochs) = workload(42, N);
    let mut oracle =
        Session::open("f", snapshot.clone(), SessionConfig::default()).expect("session opens");
    for ep in &epochs {
        oracle.ingest(ep).expect("oracle ingest");
    }

    let mut router = Router::new(SessionConfig {
        coalesce: 4,
        ..Default::default()
    });
    router
        .preload(vec![("f".into(), snapshot)])
        .expect("bring-up");
    let (tx, rx) = mpsc::channel();

    // Flood: enqueue every epoch as its own trace artifact *before* the
    // router starts, so the session's ingest queue is deep from the
    // first pickup and the drain path engages.
    let mut replies = Vec::new();
    for ep in &epochs {
        let text = write_trace(&Trace {
            epochs: vec![ep.clone()],
        });
        let (reply_tx, reply_rx) = mpsc::channel();
        tx.send(Request {
            text,
            session: Some("f".into()),
            reply: reply_tx,
        })
        .expect("channel open");
        replies.push(reply_rx);
    }
    let engine = std::thread::spawn(move || router.run(rx));

    // Every artifact is individually acknowledged as applied, whatever
    // commit it rode in; the last acknowledgement totals the stream.
    let acks: Vec<String> = replies
        .into_iter()
        .map(|rx| rx.recv().expect("reply arrives"))
        .collect();
    let mut last_total = 0;
    for ack in &acks {
        match parse_response(ack).expect("ack parses") {
            Response::Ingested {
                session,
                epochs,
                total,
                ..
            } => {
                assert_eq!(session, "f");
                assert_eq!(epochs, 1, "each artifact carries one epoch");
                assert!(total as usize <= N);
                last_total = total;
            }
            other => panic!("expected ingest ack, got {other:?}"),
        }
    }
    assert_eq!(last_total as usize, N, "drain absorbed the whole stream");
    assert!(
        dna_obs::global().counter_for("epochs_coalesced", "f").get() > 0,
        "the flood never engaged the coalescing drain"
    );

    // Post-drain answers: state queries byte-identical to sequential
    // replay; stats agree on stream accounting and shadow verdicts.
    let mut queries = String::new();
    for q in state_queries() {
        queries.push_str(&write_query(&Query {
            session: Some("f".into()),
            kind: q,
        }));
    }
    queries.push_str(&write_query(&Query {
        session: Some("f".into()),
        kind: QueryKind::Stats,
    }));
    let mut out = Vec::new();
    let edge = Edge::new(tx.clone());
    serve_connection(&edge, "test", usize::MAX, Cursor::new(queries), &mut out).expect("served");
    drop(edge);
    let mut cursor = Cursor::new(out);
    let mut got = Vec::new();
    while let Some(a) = read_artifact(&mut cursor).expect("well-framed") {
        got.push(a);
    }
    for (q, answer) in state_queries().iter().zip(&got) {
        assert_eq!(
            answer,
            &write_response(&oracle.answer(q)),
            "post-drain answer diverged for {q:?}"
        );
    }
    match parse_response(&got[3]).expect("stats parses") {
        Response::Stats(s) => {
            assert_eq!(s.epochs as usize, N, "stats count stream epochs");
            assert_eq!(s.mismatches, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    drop(tx);
    let summary = engine.join().expect("router thread");
    assert_eq!(summary.epochs as usize, N);
    assert_eq!(summary.errors, 0);
}
