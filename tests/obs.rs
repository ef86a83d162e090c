//! The telemetry plane, end to end and under fire:
//!
//! * `metrics` and `trace` queries answered live over the TCP front
//!   door while the queried session is mid-ingest, coming back as
//!   canonical `metrics` / `spans` artifacts with the counters the
//!   ingest must have bumped;
//! * a property: registry counters are monotone — no interleaving of
//!   handle operations and scrapes ever shows a counter decreasing;
//! * a torture test: eight writer threads hammer one histogram while a
//!   reader scrapes it, and every scrape upholds the documented torn-
//!   read bound `count >= Σ buckets` (writers bump the count before
//!   the bucket; the scraper reads buckets before the count).

use dna_io::{parse_metrics, parse_spans, write_query, write_trace, Query, QueryKind, Trace};
use dna_serve::{Edge, Endpoint, Router, SessionConfig, ViewRegistry};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

const EPOCHS: usize = 6;

fn q(session: Option<&str>, kind: QueryKind) -> String {
    write_query(&Query {
        session: session.map(str::to_string),
        kind,
    })
}

/// A router with published views behind a real TCP listener (the same
/// bring-up `tests/tcp.rs` uses).
fn serve_tcp(sessions: Vec<(String, net_model::Snapshot)>) -> Endpoint {
    let views = Arc::new(ViewRegistry::new());
    let hub = Arc::new(dna_serve::NotifyHub::new());
    let mut router =
        Router::new(SessionConfig::default()).publishing(Arc::clone(&views), Arc::clone(&hub));
    router.preload(sessions).expect("sessions open");
    let (requests, rx) = mpsc::channel();
    std::thread::spawn(move || router.run(rx));
    let edge = Edge {
        requests,
        views,
        hub,
    };
    Endpoint::Tcp("127.0.0.1:0".into())
        .listen(edge)
        .expect("bind an ephemeral port")
}

fn counter_value(m: &dna_io::MetricsReport, name: &str, session: Option<&str>) -> Option<u64> {
    m.counters
        .iter()
        .find(|r| r.name == name && r.session.as_deref() == session)
        .map(|r| r.value)
}

/// Ingests a generated trace over TCP, then scrapes `metrics` and
/// `trace` over the same listener: the scrape must be a canonical
/// artifact whose counters reflect the ingest (epochs applied, views
/// published, connections accepted), and the span dump must carry one
/// lifecycle row per epoch with coherent timings.
///
/// The registry is process-global, and the sibling tests in this
/// binary run concurrently against their own `Registry` instances —
/// so every global assertion here is a lower bound, and the
/// session-scoped ones are exact (the session name is unique to this
/// test).
#[test]
fn telemetry_queries_answer_live_over_tcp() {
    let ft = fat_tree(4, Routing::Ebgp);
    let mut gen = ScenarioGen::new(23);
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
    let server = serve_tcp(vec![("obs-live".into(), ft.snapshot)]);

    let trace = write_trace(&Trace {
        epochs: epochs.clone(),
    });
    let ack = server.query(&trace).expect("trace over tcp");
    assert!(
        matches!(
            dna_io::parse_response(&ack).expect("ack parses"),
            dna_io::Response::Ingested { epochs: e, .. } if e == EPOCHS as u64
        ),
        "unexpected ingest ack:\n{ack}"
    );

    // Full scrape, no session filter.
    let scrape = server.query(&q(None, QueryKind::Metrics)).expect("metrics");
    let m = parse_metrics(&scrape).expect("scrape is a canonical metrics artifact");
    assert_eq!(
        counter_value(&m, "epochs_applied", Some("obs-live")),
        Some(EPOCHS as u64),
        "every ingested epoch must be counted"
    );
    assert!(
        counter_value(&m, "view_publishes", Some("obs-live")).unwrap_or(0) >= 1,
        "the ingest must have published at least one view"
    );
    assert!(
        counter_value(&m, "tcp_connections", None).unwrap_or(0) >= 2,
        "the trace and metrics connections must both be counted"
    );
    let apply = m
        .histograms
        .iter()
        .find(|h| h.name == "epoch_apply_us" && h.session.as_deref() == Some("obs-live"))
        .expect("epoch apply latency histogram exists");
    assert_eq!(apply.count, EPOCHS as u64);
    assert!(apply.count >= apply.buckets.iter().map(|(_, n)| n).sum::<u64>());

    // A session-scoped scrape keeps that session's series (and the
    // process-global ones), drops everything else.
    let scoped = server
        .query(&q(Some("obs-live"), QueryKind::Metrics))
        .expect("scoped metrics");
    let scoped = parse_metrics(&scoped).expect("scoped scrape parses");
    assert!(scoped
        .counters
        .iter()
        .all(|r| r.session.is_none() || r.session.as_deref() == Some("obs-live")));
    assert_eq!(
        counter_value(&scoped, "epochs_applied", Some("obs-live")),
        Some(EPOCHS as u64)
    );

    // The span ring holds one lifecycle row per epoch, in order, with
    // the stage timings this session actually went through.
    let dump = server
        .query(&q(Some("obs-live"), QueryKind::TraceSpans { last: None }))
        .expect("trace query");
    let spans = parse_spans(&dump).expect("dump is a canonical spans artifact");
    assert_eq!(spans.spans.len(), EPOCHS);
    for (i, s) in spans.spans.iter().enumerate() {
        assert_eq!(s.session, "obs-live");
        assert_eq!(s.epoch, i as u64);
        assert!(s.total_ns > 0, "epoch {i} recorded no wall-clock");
        assert!(s.changes > 0, "epoch {i} lost its change count");
        assert!(s.label.is_some(), "epoch {i} lost its scenario label");
    }
    // `trace 2` trims to the newest two rows.
    let tail = server
        .query(&q(
            Some("obs-live"),
            QueryKind::TraceSpans { last: Some(2) },
        ))
        .expect("trace tail");
    let tail = parse_spans(&tail).expect("tail parses");
    assert_eq!(
        tail.spans,
        spans.spans[EPOCHS - 2..].to_vec(),
        "the last-n window must be the dump's suffix"
    );
}

/// Eight concurrent TCP clients scrape `metrics` while the session
/// they are watching ingests a live trace: every scrape any client
/// ever sees must be a well-formed artifact whose histograms satisfy
/// `count >= Σ buckets` (no torn scrape overcounts buckets) and whose
/// counters are monotone from one scrape to the next on the same
/// connection-per-query client.
#[test]
fn eight_tcp_clients_scraping_metrics_never_see_torn_histograms() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 12;
    let ft = fat_tree(4, Routing::Ebgp);
    let mut gen = ScenarioGen::new(47);
    let epochs: Vec<_> = gen
        .labeled_sequence(
            &ft.snapshot,
            &[ScenarioKind::LinkFailure, ScenarioKind::LinkRecovery],
            8,
        )
        .into_iter()
        .map(|(kind, changes)| dna_io::TraceEpoch {
            label: Some(kind.to_string()),
            changes,
        })
        .collect();
    let server = serve_tcp(vec![("obs-race".into(), ft.snapshot)]);

    // One epoch per trace artifact maximizes the scrape/apply overlap.
    let ingest = server.clone();
    let writer = std::thread::spawn(move || {
        for ep in epochs {
            let trace = write_trace(&Trace { epochs: vec![ep] });
            let ack = ingest.query(&trace).expect("trace over tcp");
            assert!(ack.contains("ok ingested"), "bad ack:\n{ack}");
        }
    });
    let scrapers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut floors: std::collections::BTreeMap<(String, Option<String>), u64> =
                    std::collections::BTreeMap::new();
                for _ in 0..ROUNDS {
                    let text = server
                        .query(&q(None, QueryKind::Metrics))
                        .expect("metrics over tcp");
                    let m = parse_metrics(&text).expect("every scrape is well-formed");
                    for h in &m.histograms {
                        let bucketed: u64 = h.buckets.iter().map(|(_, n)| n).sum();
                        assert!(
                            h.count >= bucketed,
                            "torn scrape of {:?}: count {} < bucketed {bucketed}",
                            h.name,
                            h.count
                        );
                    }
                    for c in &m.counters {
                        let seen = floors
                            .entry((c.name.clone(), c.session.clone()))
                            .or_default();
                        assert!(*seen <= c.value, "counter {:?} went backwards", c.name);
                        *seen = c.value;
                    }
                }
            })
        })
        .collect();
    writer.join().expect("writer thread");
    for s in scrapers {
        s.join().expect("scraper thread");
    }
    // At rest, the session's apply histogram books balance exactly.
    let settled = server.query(&q(None, QueryKind::Metrics)).expect("metrics");
    let settled = parse_metrics(&settled).expect("parses");
    let apply = settled
        .histograms
        .iter()
        .find(|h| h.name == "epoch_apply_us" && h.session.as_deref() == Some("obs-race"))
        .expect("apply histogram");
    assert_eq!(apply.count, 8);
    assert_eq!(apply.buckets.iter().map(|(_, n)| n).sum::<u64>(), 8);
}

/// Eight writers hammer one histogram with observations spread across
/// every bucket while a reader scrapes continuously: each scrape must
/// satisfy `count >= Σ buckets` (the documented torn-read direction),
/// and after the writers join the totals must reconcile exactly.
#[test]
fn torn_histogram_scrapes_never_overcount_buckets() {
    const WRITERS: usize = 8;
    const OBS_PER_WRITER: u64 = 40_000;
    let reg = Arc::new(dna_obs::Registry::new());
    let done = Arc::new(AtomicBool::new(false));
    // The reader starts first and releases the writers only once its
    // first scrape is in: on a loaded box the eight writers could
    // otherwise finish before the reader is ever scheduled.
    let start = Arc::new(Barrier::new(WRITERS + 1));

    let reader = {
        let reg = Arc::clone(&reg);
        let done = Arc::clone(&done);
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            let h = reg.histogram("contended_us");
            let mut scrapes = 0u64;
            let mut last_count = 0u64;
            while !done.load(Ordering::SeqCst) {
                let snap = h.snapshot();
                let bucketed: u64 = snap.buckets.iter().sum();
                assert!(
                    snap.count >= bucketed,
                    "torn scrape shows more bucketed observations ({bucketed}) \
                     than counted ({})",
                    snap.count
                );
                assert!(snap.count >= last_count, "count went backwards");
                last_count = snap.count;
                scrapes += 1;
                if scrapes == 1 {
                    start.wait();
                }
            }
            scrapes
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let h = reg.histogram("contended_us");
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for i in 0..OBS_PER_WRITER {
                    // Sweep the observations across all bucket bounds
                    // (and the overflow bucket) so torn reads can land
                    // anywhere in the array.
                    let us = (i.wrapping_mul(7).wrapping_add(w as u64)) % 2_000_000;
                    h.observe_ns(us * 1_000);
                }
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer");
    }
    done.store(true, Ordering::SeqCst);
    let scrapes = reader.join().expect("reader");
    assert!(scrapes > 0, "the reader never got a scrape in");

    let total = WRITERS as u64 * OBS_PER_WRITER;
    let settled = reg.histogram("contended_us").snapshot();
    assert_eq!(settled.count, total);
    assert_eq!(
        settled.buckets.iter().sum::<u64>(),
        total,
        "at rest the books balance"
    );
}

/// One step of the monotonicity property: an operation against a
/// fresh registry, plus which counter it touches (if any).
#[derive(Debug, Clone)]
enum Op {
    Count {
        name: usize,
        session: Option<usize>,
        n: u64,
    },
    Gauge {
        name: usize,
        session: Option<usize>,
        set: bool,
        n: u64,
    },
    Observe {
        name: usize,
        ns: u64,
    },
    Scrape {
        session: Option<usize>,
    },
}

fn op() -> impl Strategy<Value = Op> {
    let name = 0usize..3;
    let session = prop::option::of(0usize..3);
    prop_oneof![
        (name.clone(), session.clone(), 0u64..100).prop_map(|(name, session, n)| Op::Count {
            name,
            session,
            n
        }),
        (name.clone(), session.clone(), any::<bool>(), 0u64..100).prop_map(
            |(name, session, set, n)| Op::Gauge {
                name,
                session,
                set,
                n
            }
        ),
        (name, 0u64..5_000_000).prop_map(|(name, ns)| Op::Observe { name, ns }),
        session.prop_map(|session| Op::Scrape { session }),
    ]
}

const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];
const SESSIONS: [&str; 3] = ["s0", "s1", "s2"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(64, 0x0B5_2026))]

    /// Counters only ever move up: across any interleaving of counter
    /// bumps, gauge movement, histogram observations and (filtered)
    /// scrapes, every counter value seen by any scrape — and every
    /// histogram count — is monotone non-decreasing series-by-series,
    /// and the final scrape equals the sum of the bumps.
    #[test]
    fn counters_are_monotone_under_any_interleaving(ops in prop::collection::vec(op(), 1..80)) {
        let reg = dna_obs::Registry::new();
        let mut expected: std::collections::BTreeMap<(usize, Option<usize>), u64> =
            std::collections::BTreeMap::new();
        let mut floor: std::collections::BTreeMap<(String, Option<String>), u64> =
            std::collections::BTreeMap::new();
        for o in &ops {
            match o {
                Op::Count { name, session, n } => {
                    let c = match session {
                        Some(s) => reg.counter_for(NAMES[*name], SESSIONS[*s]),
                        None => reg.counter(NAMES[*name]),
                    };
                    c.add(*n);
                    *expected.entry((*name, *session)).or_default() += n;
                }
                Op::Gauge { name, session, set, n } => {
                    let g = match session {
                        Some(s) => reg.gauge_for(NAMES[*name], SESSIONS[*s]),
                        None => reg.gauge(NAMES[*name]),
                    };
                    if *set { g.set(*n) } else { g.sub(*n) }
                }
                Op::Observe { name, ns } => reg.histogram(NAMES[*name]).observe_ns(*ns),
                Op::Scrape { session } => {
                    let snap = reg.snapshot(session.map(|s| SESSIONS[s]));
                    for c in &snap.counters {
                        let key = (c.name.clone(), c.session.clone());
                        let seen = floor.entry(key).or_default();
                        prop_assert!(c.value >= *seen, "counter {} went backwards", c.name);
                        *seen = c.value;
                    }
                    for h in &snap.histograms {
                        let key = (format!("hist:{}", h.name), h.session.clone());
                        let seen = floor.entry(key).or_default();
                        prop_assert!(h.snapshot.count >= *seen, "histogram {} count went backwards", h.name);
                        *seen = h.snapshot.count;
                    }
                }
            }
        }
        let final_snap = reg.snapshot(None);
        for ((name, session), want) in &expected {
            let got = final_snap
                .counters
                .iter()
                .find(|c| c.name == NAMES[*name]
                    && c.session.as_deref() == session.map(|s| SESSIONS[s]))
                .map(|c| c.value);
            prop_assert_eq!(got, Some(*want), "counter total must equal the sum of its bumps");
        }
    }
}
