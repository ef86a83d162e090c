//! Failed-session error parity across transports: once a session's
//! engine thread has panicked and been fenced, *every* front door must
//! answer queries for it with the same `error` response — the failure
//! reason verbatim, byte-identical whether the query arrives over the
//! engine request channel (the path stdin pipes and unix-socket broker
//! clients share) or over TCP.
//!
//! The TCP path is the one that can drift: it normally answers
//! read-only queries from the session's published view without
//! touching the engine. The fence withdraws the view, so the query
//! MUST fall through to the engine side and surface the real reason —
//! never a stale answer, never a generic "unknown session".
//!
//! Lives in its own file because `DNA_SERVE_FAULT_LABEL` is
//! process-global: the injected fault must not leak into other tests'
//! router sessions.

use dna_io::{write_query, write_trace, Query, QueryKind, Trace, TraceEpoch};
use dna_serve::{Edge, Endpoint, NotifyHub, Request, Router, SessionConfig, ViewRegistry};
use std::sync::{mpsc, Arc};
use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

#[test]
fn failed_session_answers_identically_over_tcp_and_the_engine_channel() {
    std::env::set_var("DNA_SERVE_FAULT_LABEL", "inject-parity-fault");

    let ft = fat_tree(4, Routing::Ebgp);
    let mut gen = ScenarioGen::new(17);
    let changes = gen.labeled_sequence(&ft.snapshot, &[ScenarioKind::LinkFailure], 1);
    let trace = Trace {
        epochs: vec![TraceEpoch {
            label: Some("inject-parity-fault".into()),
            changes: changes.into_iter().next().expect("one epoch").1,
        }],
    };

    // The full `--listen` bring-up: router with views and a notify hub
    // behind a real TCP accept loop.
    let views = Arc::new(ViewRegistry::new());
    let hub = Arc::new(NotifyHub::new());
    let mut router =
        Router::new(SessionConfig::default()).publishing(Arc::clone(&views), Arc::clone(&hub));
    router
        .preload(vec![("fp".into(), ft.snapshot)])
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

    // Trip the fence: the labeled epoch panics the engine thread inside
    // its fence, and the ingest reply already carries the reason.
    let ack = server.query(&write_trace(&trace)).expect("trace over tcp");
    assert!(
        ack.contains("failed") && ack.contains("inject-parity-fault"),
        "fault must fence the session:\n{ack}"
    );

    let query = write_query(&Query {
        session: Some("fp".into()),
        kind: QueryKind::ReachPair {
            src: "edge0_0".into(),
            dst: "edge1_1".into(),
        },
    });
    // The engine request channel — what every connection forwards to
    // once it has no view to answer from.
    let (reply_tx, reply_rx) = mpsc::channel();
    tx.send(Request {
        text: query.clone(),
        session: None,
        reply: reply_tx,
    })
    .expect("engine side alive");
    let channel_reply = reply_rx.recv().expect("engine answers");
    // The TCP front door: its view was withdrawn by the fence, so the
    // query must fall through to the engine and return the same bytes.
    let tcp_reply = server.query(&query).expect("query over tcp");

    // Inside the response artifact the message is a quoted string, so
    // the session name's quotes arrive backslash-escaped.
    assert!(
        channel_reply.contains(r#"session \"fp\" failed:"#)
            && channel_reply.contains("inject-parity-fault"),
        "engine reply must carry the reason verbatim:\n{channel_reply}"
    );
    assert_eq!(
        tcp_reply, channel_reply,
        "failed-session errors must be byte-identical on TCP"
    );
}
