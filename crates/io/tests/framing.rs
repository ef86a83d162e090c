//! The framing contract every artifact kind shares, checked once per
//! kind over [`ALL_ARTIFACTS`]. The body driver in `lex.rs` owns these
//! rules, so a kind cannot drift from them:
//!
//! * a missing `end` sentinel is [`IoError::Truncated`], naming it;
//! * a meaningful line after `end` is [`IoError::Parse`] at exactly
//!   that line, while blank and `;` lines after it are accepted;
//! * a wrong version is [`IoError::UnsupportedVersion`] and another
//!   kind's header is [`IoError::WrongArtifact`];
//! * an unterminated nested block is [`IoError::Truncated`], naming
//!   the block's terminator.

use dna_io::{
    artifact_version, validate, Artifact, Checkpoint, CheckpointConfig, CheckpointSource,
    CheckpointTotals, EpochDiff, HealthReport, HealthStatus, HistogramRow, HistoryReport,
    HistorySample, IoError, MetricsReport, Notify, NotifyEvent, Query, QueryKind, Report, Response,
    SeriesRow, SessionHealth, SpanReport, SpanRow, Trace, TraceEpoch, ALL_ARTIFACTS,
};
use net_model::{Change, ChangeSet, NetBuilder, RouteMap, Snapshot};

type Parse = fn(&str) -> Result<(), IoError>;

fn snapshot() -> Snapshot {
    NetBuilder::new()
        .router("r1")
        .iface("r1", "eth0", "10.0.0.1/31")
        .router("r2")
        .iface("r2", "eth0", "10.0.0.0/31")
        .link("r1", "eth0", "r2", "eth0")
        .build()
}

fn labeled_epoch() -> EpochDiff {
    EpochDiff {
        label: Some("link-failure".into()),
        ..Default::default()
    }
}

fn series(name: &str) -> Vec<SeriesRow> {
    vec![SeriesRow {
        name: name.into(),
        session: Some("s".into()),
        value: 3,
    }]
}

/// One kind's row of the table: a well-formed sample, the kind's own
/// parser, and the terminators of the nested blocks the sample opens.
fn kind(artifact: Artifact) -> (String, Parse, &'static [&'static str]) {
    match artifact {
        Artifact::Snapshot => (
            dna_io::write_snapshot(&snapshot()),
            |t| dna_io::parse_snapshot(t).map(drop),
            &[],
        ),
        Artifact::Trace => (
            dna_io::write_trace(&Trace {
                epochs: vec![TraceEpoch {
                    label: Some("policy".into()),
                    changes: ChangeSet::single(Change::SetRouteMap {
                        device: "r1".into(),
                        name: "rm".into(),
                        map: RouteMap::permit_all(),
                    }),
                }],
            }),
            |t| dna_io::parse_trace(t).map(drop),
            &["end-map"],
        ),
        Artifact::Report => (
            dna_io::write_report(&Report {
                epochs: vec![labeled_epoch()],
            }),
            |t| dna_io::parse_report(t).map(drop),
            &[],
        ),
        Artifact::Query => (
            dna_io::write_query(&Query {
                session: Some("s".into()),
                kind: QueryKind::Blast { last: 4 },
            }),
            |t| dna_io::parse_query(t).map(drop),
            &[],
        ),
        Artifact::Response => (
            dna_io::write_response(&Response::Blast {
                epochs: 2,
                flows: 3,
                devices: vec![("r1".into(), 2), ("r2".into(), 1)],
            }),
            |t| dna_io::parse_response(t).map(drop),
            &[],
        ),
        Artifact::Checkpoint => (
            dna_io::write_checkpoint(&Checkpoint {
                session: "s".into(),
                config: CheckpointConfig {
                    retain: 64,
                    retain_bytes: None,
                    verify: false,
                    shards: 1,
                },
                epochs: 5,
                mismatches: 0,
                totals: CheckpointTotals::default(),
                source: CheckpointSource::Inline(snapshot()),
                history: vec![(4, labeled_epoch())],
            }),
            |t| dna_io::parse_checkpoint(t).map(drop),
            &["end-snapshot", "end-history"],
        ),
        Artifact::Metrics => (
            dna_io::write_metrics(&MetricsReport {
                counters: series("epochs_applied"),
                gauges: series("ingest_queue_depth"),
                histograms: vec![HistogramRow {
                    name: "epoch_apply_us".into(),
                    session: None,
                    count: 2,
                    sum_ns: 9_000,
                    p50_us: 5,
                    p95_us: 5,
                    p99_us: 5,
                    buckets: vec![(Some(5), 2), (None, 0)],
                }],
            }),
            |t| dna_io::parse_metrics(t).map(drop),
            &["end-histogram"],
        ),
        Artifact::Spans => (
            dna_io::write_spans(&SpanReport {
                spans: vec![SpanRow {
                    session: "s".into(),
                    epoch: 0,
                    parse_ns: 1,
                    cp_ns: 2,
                    dp_ns: 3,
                    publish_ns: 4,
                    total_ns: 10,
                    changes: 1,
                    flows: 0,
                    label: Some("link-failure".into()),
                }],
            }),
            |t| dna_io::parse_spans(t).map(drop),
            &[],
        ),
        Artifact::History => (
            dna_io::write_history(&HistoryReport {
                samples: vec![HistorySample {
                    t_ms: 15_000,
                    counters: series("epochs_applied"),
                    gauges: series("ingest_queue_depth"),
                }],
            }),
            |t| dna_io::parse_history(t).map(drop),
            &["end-sample"],
        ),
        Artifact::Health => (
            dna_io::write_health(&HealthReport {
                server: HealthStatus::Degraded,
                sessions: vec![SessionHealth {
                    name: "s".into(),
                    status: HealthStatus::Degraded,
                    reason: Some("queue-depth".into()),
                }],
            }),
            |t| dna_io::parse_health(t).map(drop),
            &[],
        ),
        Artifact::Notify => (
            dna_io::write_notify(&Notify {
                subscription: 1,
                session: "s".into(),
                events: vec![NotifyEvent::Blast { epoch: 3, flows: 2 }],
            }),
            |t| dna_io::parse_notify(t).map(drop),
            &[],
        ),
    }
}

#[test]
fn every_kind_obeys_the_framing_contract() {
    for (i, &artifact) in ALL_ARTIFACTS.iter().enumerate() {
        let (sample, parse, nested) = kind(artifact);
        let lines = sample.lines().count();
        assert_eq!(parse(&sample), Ok(()), "{artifact}: sample parses");
        assert_eq!(validate(&sample), Ok(artifact), "{artifact}: validates");

        let unterminated = sample
            .strip_suffix("end\n")
            .expect("ends with the sentinel");
        match parse(unterminated) {
            Err(IoError::Truncated { expected }) => assert_eq!(
                expected,
                format!("end sentinel of the {artifact} artifact"),
                "{artifact}: missing end"
            ),
            other => panic!("{artifact}: missing end gave {other:?}"),
        }

        for (gap, at) in [("", lines + 1), ("\n; note\n  \n", lines + 4)] {
            let err = parse(&format!("{sample}{gap}stray \"line\"\n"));
            assert!(
                matches!(err, Err(IoError::Parse { line, .. }) if line == at),
                "{artifact}: content after end at line {at} gave {err:?}"
            );
        }
        assert_eq!(
            parse(&format!("{sample}\n; trailing comment\n  \n")),
            Ok(()),
            "{artifact}: blank and comment lines after end"
        );

        let (_header, body) = sample.split_once('\n').expect("header line");
        assert_eq!(
            parse(&format!("dna-io v99 {artifact}\n{body}")),
            Err(IoError::UnsupportedVersion(99)),
            "{artifact}: wrong version"
        );
        let other = ALL_ARTIFACTS[(i + 1) % ALL_ARTIFACTS.len()];
        assert_eq!(
            parse(&format!(
                "dna-io v{} {other}\n{body}",
                artifact_version(other)
            )),
            Err(IoError::WrongArtifact {
                expected: artifact,
                found: other
            }),
            "{artifact}: another kind's header"
        );

        for terminator in nested {
            let at = sample
                .find(&format!("{terminator}\n"))
                .expect("sample opens the block");
            match parse(&sample[..at]) {
                Err(IoError::Truncated { expected }) => assert!(
                    expected.contains(terminator),
                    "{artifact}: unterminated block names {terminator}, got {expected:?}"
                ),
                other => panic!("{artifact}: unterminated {terminator} block gave {other:?}"),
            }
        }
    }
}
