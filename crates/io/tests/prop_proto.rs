//! Round-trip and robustness properties of the service protocol's
//! `query` / `response` wire records, mirroring the coverage
//! `prop_roundtrip.rs` gives snapshots, traces and reports:
//!
//! 1. **Lossless round-trips** — `parse(write(x)) == x` and a second
//!    trip is byte-identical, for arbitrary queries and responses,
//!    including quoting-hostile session/device names, empty outcome
//!    sets, and report payloads carrying arbitrary epoch diffs at
//!    arbitrary (increasing) absolute indices.
//! 2. **One grammar for wire and argv** — the words of a query's wire
//!    command line, handed to [`parse_query_args`] the way a shell
//!    hands `dna query` its argv, parse to the same query: a grammar
//!    extension cannot reach one front end and not the other.
//! 3. **Totality on bad input** — truncations and random character
//!    mutations produce typed [`IoError`]s, never panics.

use dna_core::FlowDiff;
use dna_io::{
    parse_metrics, parse_notify, parse_query, parse_query_args, parse_response, parse_spans,
    write_metrics, write_notify, write_query, write_response, write_spans, EpochDiff, HistogramRow,
    IoError, MetricsReport, Notify, NotifyEvent, Query, QueryKind, Response, SeriesRow,
    ServiceStats, SessionInfo, SpanReport, SpanRow, SubscriptionSpec,
};
use net_model::{Flow, Ipv4Addr};
use proptest::prelude::*;

/// Names drawn from a pool that exercises quoting: spaces, quotes,
/// backslashes, newlines, tabs, control and non-ASCII characters.
fn name() -> impl Strategy<Value = String> {
    const POOL: &[&str] = &[
        "r",
        "core",
        "agg edge",
        "q\"uote",
        "back\\slash",
        "new\nline",
        "tab\there",
        "uni—✓",
        "bell\u{7}",
        "",
    ];
    (0usize..POOL.len(), 0u32..3).prop_map(|(i, n)| format!("{}{}", POOL[i], n))
}

fn flow() -> impl Strategy<Value = Flow> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(s, d, proto, sp, dp)| Flow {
            src: Ipv4Addr(s),
            dst: Ipv4Addr(d),
            proto,
            src_port: sp,
            dst_port: dp,
        })
}

fn subscription_spec() -> impl Strategy<Value = SubscriptionSpec> {
    prop_oneof![
        (name(), flow()).prop_map(|(src, flow)| SubscriptionSpec::Reach { src, flow }),
        (name(), name()).prop_map(|(src, dst)| SubscriptionSpec::ReachPair { src, dst }),
        name().prop_map(|device| SubscriptionSpec::Blast { device }),
        (name(), name()).prop_map(|(src, dst)| SubscriptionSpec::NeverReach { src, dst }),
        (name(), flow()).prop_map(|(src, flow)| SubscriptionSpec::NoBlackhole { src, flow }),
    ]
}

fn query_kind() -> impl Strategy<Value = QueryKind> {
    prop_oneof![
        (name(), flow()).prop_map(|(src, flow)| QueryKind::Reach { src, flow }),
        (name(), name()).prop_map(|(src, dst)| QueryKind::ReachPair { src, dst }),
        any::<usize>().prop_map(|last| QueryKind::Blast { last }),
        (any::<usize>(), any::<usize>()).prop_map(|(from, to)| QueryKind::Report { from, to }),
        Just(QueryKind::Stats),
        Just(QueryKind::Sessions),
        Just(QueryKind::Checkpoint),
        Just(QueryKind::Metrics),
        prop::option::of(any::<usize>()).prop_map(|last| QueryKind::TraceSpans { last }),
        Just(QueryKind::Health),
        prop::option::of(any::<usize>()).prop_map(|last| QueryKind::History { last }),
        subscription_spec().prop_map(QueryKind::Subscribe),
        any::<u64>().prop_map(|id| QueryKind::Unsubscribe { id }),
        any::<u64>().prop_map(|id| QueryKind::Notifications { id }),
    ]
}

fn query() -> impl Strategy<Value = Query> {
    (prop::option::of(name()), query_kind()).prop_map(|(session, kind)| Query { session, kind })
}

fn outcome() -> impl Strategy<Value = data_plane::Outcome> {
    use data_plane::Outcome;
    prop_oneof![
        name().prop_map(Outcome::Delivered),
        name().prop_map(Outcome::External),
        name().prop_map(Outcome::Blackhole),
        name().prop_map(Outcome::Filtered),
        Just(Outcome::Loop),
    ]
}

fn flow_diff() -> impl Strategy<Value = FlowDiff> {
    (
        name(),
        prop::collection::vec(name(), 0..3),
        flow(),
        prop::collection::vec(outcome(), 0..3),
        prop::collection::vec(outcome(), 0..3),
    )
        .prop_map(|(src, headers, example, before, after)| FlowDiff {
            src,
            headers,
            example,
            before: before.into_iter().collect(),
            after: after.into_iter().collect(),
        })
}

fn epoch_diff() -> impl Strategy<Value = EpochDiff> {
    use control_plane::{FibAction, FibEntry, NextDevice, Proto, RibEntry};
    let prefix =
        (any::<u32>(), 0u8..=32).prop_map(|(a, l)| net_model::Ipv4Prefix::new(Ipv4Addr(a), l));
    let fib_action = prop_oneof![
        name().prop_map(|iface| FibAction::Deliver { iface }),
        (name(), name()).prop_map(|(iface, d)| FibAction::Forward {
            iface,
            next: NextDevice::Device(d)
        }),
        name().prop_map(|iface| FibAction::Forward {
            iface,
            next: NextDevice::External
        }),
        Just(FibAction::Drop),
    ];
    let proto = prop_oneof![
        Just(Proto::Connected),
        Just(Proto::Static),
        Just(Proto::BgpExternal),
        Just(Proto::Ospf),
        Just(Proto::BgpInternal),
    ];
    let weight = prop_oneof![Just(-2isize), Just(-1), Just(1), Just(2)];
    let fib_entry =
        (name(), prefix.clone(), fib_action.clone()).prop_map(|(device, prefix, action)| {
            FibEntry {
                device,
                prefix,
                action,
            }
        });
    let rib_entry = (name(), prefix, proto, any::<u64>(), fib_action).prop_map(
        |(device, prefix, proto, metric, action)| RibEntry {
            device,
            prefix,
            proto,
            metric,
            action,
        },
    );
    (
        prop::option::of(name()),
        prop::collection::vec((rib_entry, weight.clone()), 0..3),
        prop::collection::vec((fib_entry, weight), 0..3),
        prop::collection::vec(flow_diff(), 0..3),
    )
        .prop_map(|(label, rib, fib, flows)| EpochDiff {
            label,
            rib,
            fib,
            flows,
        })
}

/// Strictly increasing absolute indices for a report payload.
fn indexed_epochs() -> impl Strategy<Value = Vec<(usize, EpochDiff)>> {
    prop::collection::vec((1usize..1000, epoch_diff()), 0..3).prop_map(|gaps| {
        let mut index = 0usize;
        gaps.into_iter()
            .map(|(gap, ep)| {
                index += gap;
                (index, ep)
            })
            .collect()
    })
}

fn session_infos() -> impl Strategy<Value = Vec<SessionInfo>> {
    prop::collection::vec(
        (
            name(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            any::<bool>(),
        ),
        0..4,
    )
    .prop_map(|rows| {
        // Canonical payloads are name-sorted and duplicate-free.
        let m: std::collections::BTreeMap<String, (u64, u64, bool, bool)> = rows
            .into_iter()
            .map(|(name, epochs, devices, verify, failed)| {
                (name, (epochs, devices, verify, failed))
            })
            .collect();
        m.into_iter()
            .map(|(name, (epochs, devices, verify, failed))| SessionInfo {
                name,
                epochs,
                devices,
                verify,
                failed,
            })
            .collect()
    })
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        name().prop_map(Response::Error),
        (name(), any::<u64>(), any::<u64>()).prop_map(|(session, devices, links)| {
            Response::Loaded {
                session,
                devices,
                links,
            }
        }),
        (name(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(session, epochs, flows, total)| Response::Ingested {
                session,
                epochs,
                flows,
                total,
            }
        ),
        prop::collection::vec(outcome(), 0..4).prop_map(|o| Response::Reach {
            outcomes: o.into_iter().collect(),
        }),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec((name(), any::<u64>()), 0..4)
        )
            .prop_map(|(epochs, flows, devices)| Response::Blast {
                epochs,
                flows,
                devices: devices
                    .into_iter()
                    .collect::<std::collections::BTreeMap<_, _>>()
                    .into_iter()
                    .collect(),
            }),
        indexed_epochs().prop_map(|epochs| Response::Report { epochs }),
        (
            name(),
            prop::collection::vec(any::<u64>(), 12..=12usize),
            any::<bool>()
        )
            .prop_map(|(session, v, _)| {
                Response::Stats(ServiceStats {
                    session,
                    epochs: v[0],
                    retained: v[1],
                    retained_from: v[2],
                    devices: v[3],
                    links: v[4],
                    classes: v[5],
                    tuples: v[6],
                    flows: v[7],
                    mismatches: v[8],
                    cp_us: v[9],
                    dp_us: v[10],
                    total_us: v[11],
                })
            }),
        session_infos().prop_map(Response::Sessions),
        (name(), any::<u64>(), any::<u64>()).prop_map(|(session, epochs, bytes)| {
            Response::Checkpointed {
                session,
                epochs,
                bytes,
            }
        }),
    ]
}

/// Canonical series rows: `(name, scope)`-sorted and duplicate-free,
/// which is exactly how the registry's BTreeMap emits them.
fn series_rows() -> impl Strategy<Value = Vec<SeriesRow>> {
    prop::collection::vec((name(), prop::option::of(name()), any::<u64>()), 0..4).prop_map(|rows| {
        let m: std::collections::BTreeMap<(String, Option<String>), u64> = rows
            .into_iter()
            .map(|(name, session, value)| ((name, session), value))
            .collect();
        m.into_iter()
            .map(|((name, session), value)| SeriesRow {
                name,
                session,
                value,
            })
            .collect()
    })
}

/// Canonical bucket blocks: strictly-increasing bounds built from gap
/// accumulation, optionally closed by the overflow (`inf`) bucket.
fn buckets() -> impl Strategy<Value = Vec<(Option<u64>, u64)>> {
    (
        prop::collection::vec((1u64..10_000, any::<u64>()), 0..5),
        prop::option::of(any::<u64>()),
    )
        .prop_map(|(gaps, overflow)| {
            let mut bound = 0u64;
            let mut out: Vec<(Option<u64>, u64)> = gaps
                .into_iter()
                .map(|(gap, n)| {
                    bound += gap;
                    (Some(bound), n)
                })
                .collect();
            if let Some(n) = overflow {
                out.push((None, n));
            }
            out
        })
}

fn histogram_rows() -> impl Strategy<Value = Vec<HistogramRow>> {
    prop::collection::vec(
        (
            name(),
            prop::option::of(name()),
            prop::collection::vec(any::<u64>(), 5..=5usize),
            buckets(),
        ),
        0..3,
    )
    .prop_map(|rows| {
        let m: std::collections::BTreeMap<(String, Option<String>), (Vec<u64>, _)> = rows
            .into_iter()
            .map(|(name, session, v, b)| ((name, session), (v, b)))
            .collect();
        m.into_iter()
            .map(|((name, session), (v, buckets))| HistogramRow {
                name,
                session,
                count: v[0],
                sum_ns: v[1],
                p50_us: v[2],
                p95_us: v[3],
                p99_us: v[4],
                buckets,
            })
            .collect()
    })
}

fn metrics() -> impl Strategy<Value = MetricsReport> {
    (series_rows(), series_rows(), histogram_rows()).prop_map(|(counters, gauges, histograms)| {
        MetricsReport {
            counters,
            gauges,
            histograms,
        }
    })
}

fn spans() -> impl Strategy<Value = SpanReport> {
    prop::collection::vec(
        (
            name(),
            prop::collection::vec(any::<u64>(), 8..=8usize),
            prop::option::of(name()),
        ),
        0..4,
    )
    .prop_map(|rows| SpanReport {
        spans: rows
            .into_iter()
            .map(|(session, v, label)| SpanRow {
                session,
                epoch: v[0],
                parse_ns: v[1],
                cp_ns: v[2],
                dp_ns: v[3],
                publish_ns: v[4],
                total_ns: v[5],
                changes: v[6],
                flows: v[7],
                label,
            })
            .collect(),
    })
}

fn notify_event() -> impl Strategy<Value = NotifyEvent> {
    let outcomes = prop::collection::vec(outcome(), 0..4)
        .prop_map(|o| o.into_iter().collect::<std::collections::BTreeSet<_>>());
    prop_oneof![
        (any::<u64>(), outcomes.clone())
            .prop_map(|(epoch, outcomes)| NotifyEvent::Reach { epoch, outcomes }),
        (any::<u64>(), any::<u64>()).prop_map(|(epoch, flows)| NotifyEvent::Blast { epoch, flows }),
        (any::<u64>(), any::<bool>(), outcomes).prop_map(|(epoch, holds, outcomes)| {
            NotifyEvent::Invariant {
                epoch,
                holds,
                outcomes,
            }
        }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(epoch, dropped)| NotifyEvent::Resync { epoch, dropped }),
    ]
}

fn notify() -> impl Strategy<Value = Notify> {
    (
        any::<u64>(),
        name(),
        prop::collection::vec(notify_event(), 0..5),
    )
        .prop_map(|(subscription, session, events)| Notify {
            subscription,
            session,
            events,
        })
}

/// Splits a wire line into the words a shell would deliver as argv:
/// whitespace-separated, quoted tokens unescaped. Deliberately not the
/// library's lexer — an independent reading of FORMAT.md's quoting.
fn argv_words(line: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '"' {
            chars.next();
            let mut word = String::new();
            loop {
                match chars.next().expect("terminated string") {
                    '"' => break,
                    '\\' => match chars.next().expect("escape") {
                        'n' => word.push('\n'),
                        'r' => word.push('\r'),
                        't' => word.push('\t'),
                        'u' => {
                            assert_eq!(chars.next(), Some('{'));
                            let hex: String = chars.by_ref().take_while(|c| *c != '}').collect();
                            let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                            word.push(char::from_u32(code).expect("scalar value"));
                        }
                        literal => word.push(literal),
                    },
                    c => word.push(c),
                }
            }
            words.push(word);
        } else {
            let mut word = String::new();
            while let Some(c) = chars.next_if(|c| !c.is_whitespace()) {
                word.push(c);
            }
            words.push(word);
        }
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(96, 0xD9A_1003))]

    #[test]
    fn argv_grammar_is_the_wire_grammar(q in query()) {
        let text = write_query(&q);
        // The command is the line before the `end` sentinel (quoting
        // keeps every name on one line).
        let command = text.lines().rev().nth(1).expect("a command line");
        let kind = parse_query_args(&argv_words(command)).expect("argv words parse");
        prop_assert_eq!(kind, q.kind);
    }

    #[test]
    fn queries_round_trip(q in query()) {
        let text = write_query(&q);
        let back = parse_query(&text).expect("generated query parses");
        prop_assert_eq!(&back, &q);
        prop_assert_eq!(write_query(&back), text);
    }

    #[test]
    fn responses_round_trip(r in response()) {
        let text = write_response(&r);
        let back = parse_response(&text).expect("generated response parses");
        prop_assert_eq!(&back, &r);
        prop_assert_eq!(write_response(&back), text);
    }

    #[test]
    fn metrics_round_trip(m in metrics()) {
        let text = write_metrics(&m);
        let back = parse_metrics(&text).expect("generated scrape parses");
        prop_assert_eq!(&back, &m);
        prop_assert_eq!(write_metrics(&back), text);
    }

    #[test]
    fn spans_round_trip(r in spans()) {
        let text = write_spans(&r);
        let back = parse_spans(&text).expect("generated span dump parses");
        prop_assert_eq!(&back, &r);
        prop_assert_eq!(write_spans(&back), text);
    }

    #[test]
    fn notifies_round_trip(n in notify()) {
        let text = write_notify(&n);
        let back = parse_notify(&text).expect("generated notify parses");
        prop_assert_eq!(&back, &n);
        prop_assert_eq!(write_notify(&back), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(64, 0xD9A_1004))]

    /// Any strict line-prefix of a serialized response is rejected with
    /// a typed error — a truncated reply can never be mistaken for a
    /// complete one — and parsing never panics.
    #[test]
    fn response_truncations_yield_typed_errors(r in response(), cut in 0u32..10_000) {
        let text = write_response(&r);
        let lines: Vec<&str> = text.lines().collect();
        let keep = (cut as usize) % lines.len().max(1);
        let truncated = lines[..keep].join("\n");
        match parse_response(&truncated) {
            Ok(_) => prop_assert!(false, "strict prefix must not parse"),
            Err(IoError::Truncated { .. }) | Err(IoError::BadHeader(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {e:?}"),
        }
    }

    /// Same for queries.
    #[test]
    fn query_truncations_yield_typed_errors(q in query(), cut in 0u32..10_000) {
        let text = write_query(&q);
        let lines: Vec<&str> = text.lines().collect();
        let keep = (cut as usize) % lines.len().max(1);
        let truncated = lines[..keep].join("\n");
        match parse_query(&truncated) {
            Ok(_) => prop_assert!(false, "strict prefix must not parse"),
            Err(IoError::Truncated { .. }) | Err(IoError::BadHeader(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {e:?}"),
        }
    }

    /// And for notify deliveries.
    #[test]
    fn notify_truncations_yield_typed_errors(n in notify(), cut in 0u32..10_000) {
        let text = write_notify(&n);
        let lines: Vec<&str> = text.lines().collect();
        let keep = (cut as usize) % lines.len().max(1);
        let truncated = lines[..keep].join("\n");
        match parse_notify(&truncated) {
            Ok(_) => prop_assert!(false, "strict prefix must not parse"),
            Err(IoError::Truncated { .. }) | Err(IoError::BadHeader(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {e:?}"),
        }
    }

    /// And for the telemetry artifacts.
    #[test]
    fn telemetry_truncations_yield_typed_errors(
        m in metrics(),
        s in spans(),
        cut in 0u32..10_000,
    ) {
        for text in [write_metrics(&m), write_spans(&s)] {
            let lines: Vec<&str> = text.lines().collect();
            let keep = (cut as usize) % lines.len().max(1);
            let truncated = lines[..keep].join("\n");
            for result in [
                parse_metrics(&truncated).map(|_| ()),
                parse_spans(&truncated).map(|_| ()),
            ] {
                match result {
                    Ok(_) => prop_assert!(false, "strict prefix must not parse"),
                    Err(IoError::Truncated { .. })
                    | Err(IoError::BadHeader(_))
                    | Err(IoError::WrongArtifact { .. }) => {}
                    Err(e) => prop_assert!(false, "unexpected error kind: {e:?}"),
                }
            }
        }
    }

    /// Mutating one character anywhere in a serialized query or response
    /// either still parses (the mutation hit something benign, e.g.
    /// inside a quoted string) or fails with a typed error — never a
    /// panic.
    #[test]
    fn char_mutations_never_panic(
        q in query(),
        r in response(),
        m in metrics(),
        s in spans(),
        n in notify(),
        pos in any::<u32>(),
        repl in 1u8..128,
    ) {
        for text in [
            write_query(&q),
            write_response(&r),
            write_metrics(&m),
            write_spans(&s),
            write_notify(&n),
        ] {
            let mut bytes = text.into_bytes();
            if bytes.is_empty() {
                continue;
            }
            let idx = (pos as usize) % bytes.len();
            bytes[idx] = repl;
            // Skip the (rare) mutations that break UTF-8 inside a
            // multi-byte character; everything else must parse or fail
            // with a typed error, never panic.
            if let Ok(mutated) = String::from_utf8(bytes) {
                let _ = parse_query(&mutated);
                let _ = parse_response(&mutated);
                let _ = parse_metrics(&mutated);
                let _ = parse_spans(&mutated);
                let _ = parse_notify(&mutated);
            }
        }
    }
}
