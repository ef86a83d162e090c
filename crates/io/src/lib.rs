//! # dna-io — versioned wire format of the differential-analysis toolkit
//!
//! A self-contained, line-oriented text format (no external dependencies;
//! the vendored `serde` stub stays a marker-only stub) carrying every
//! artifact the workflow exchanges:
//!
//! * **snapshot** — a complete [`net_model::Snapshot`]: devices, configs,
//!   links, environment ([`write_snapshot`] / [`parse_snapshot`]);
//! * **trace** — an ordered stream of change epochs recordable from any
//!   `topo-gen` scenario ([`Trace`], [`write_trace`] / [`parse_trace`]);
//! * **report** — canonicalized per-epoch behavior diffs, byte-stable for
//!   golden tests and cross-analyzer verification ([`Report`],
//!   [`write_report`] / [`parse_report`]);
//! * **query** / **response** — the request/reply protocol `dna-serve`
//!   speaks over pipes, sockets and TCP ([`Query`], [`Response`]);
//! * **checkpoint** — a persisted live-session state for durable restarts
//!   ([`Checkpoint`]);
//! * **metrics** / **spans** / **history** / **health** — telemetry
//!   scrapes of the serve-side observability plane ([`MetricsReport`],
//!   [`SpanReport`], [`HistoryReport`], [`HealthReport`]);
//! * **notify** — pushed (or polled) deltas of a standing query
//!   ([`Notify`], [`write_notify`] / [`parse_notify`]).
//!
//! Every artifact starts with a `dna-io v<N> <kind>` header — versions are
//! per kind, see [`artifact_version`] — and ends with an `end` sentinel;
//! see `crates/io/FORMAT.md` for the full grammar. Every parser and
//! serializer is written in three shared primitives (FORMAT.md "Body
//! grammar"): one body driver that walks a block of lines to its
//! terminator (`end`, `end-histogram`, …) and owns truncation and the
//! nothing-after-`end` rule; keyed getters that read a keyword and its
//! value together (`-` for none, `on|off`, trailing optional markers,
//! strictly-sorted rows); and flat `keyword <u64>` rows whose field
//! names are declared once, in a table both directions walk.
//! [`validate`] checks an artifact of any kind. The format guarantees
//! exact round-trips (`parse(write(x)) == x`), canonical bytes (equal
//! values serialize identically) and total safety on malformed input:
//! wrong versions, wrong artifact kinds, truncations and garbage all
//! surface as typed [`IoError`]s, never panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod codec;
mod error;
mod lex;
mod notify;
mod obsfmt;
mod proto;
mod report;
mod snapshot;
mod tail;
mod trace;

use std::fmt;

pub use checkpoint::{
    parse_checkpoint, write_checkpoint, Checkpoint, CheckpointConfig, CheckpointSource,
    CheckpointTotals, ResumeCounters,
};
pub use codec::{artifact_version, FORMAT_VERSION};
pub use error::IoError;
pub use notify::{parse_notify, write_notify, Notify, NotifyEvent};
pub use obsfmt::{
    parse_health, parse_history, parse_metrics, parse_spans, write_health, write_history,
    write_metrics, write_spans, HealthReport, HealthStatus, HistogramRow, HistoryReport,
    HistorySample, MetricsReport, SeriesRow, SessionHealth, SpanReport, SpanRow,
};
pub use proto::{
    parse_query, parse_query_args, parse_response, write_query, write_response, Query, QueryKind,
    Response, ServiceStats, SessionInfo, SubscriptionSpec,
};
pub use report::{parse_report, write_report, EpochDiff, Report};
pub use snapshot::{parse_snapshot, write_snapshot};
pub use tail::TraceTail;
pub use trace::{parse_trace, write_trace, Trace, TraceEpoch};

/// The artifact kinds the format carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Artifact {
    /// A complete network snapshot.
    Snapshot,
    /// A stream of change epochs.
    Trace,
    /// Per-epoch behavior diffs.
    Report,
    /// A service request (`dna query` → `dna serve`).
    Query,
    /// A service reply (`dna serve` → `dna query`).
    Response,
    /// A persisted live-session state: config, snapshot (inline or by
    /// reference), applied-epoch counters and retained history.
    Checkpoint,
    /// A telemetry scrape: counters, gauges and latency histograms from
    /// the serve-side metrics registry (`dna query metrics`).
    Metrics,
    /// Epoch-lifecycle spans: per-epoch stage timings from the span
    /// recorder ring (`dna query trace`).
    Spans,
    /// Metrics history: timestamped samples of the registry's counters
    /// and gauges from the serve-side history ring (`dna query history`).
    History,
    /// A health classification of the server and each session
    /// (`dna query health`).
    Health,
    /// Standing-query deltas: pushed to subscribed connections on each
    /// changed commit, and the reply to the `subscribe` / `unsubscribe` /
    /// `notifications` commands (query v5).
    Notify,
}

/// Every artifact kind, in a stable order.
pub const ALL_ARTIFACTS: &[Artifact] = &[
    Artifact::Snapshot,
    Artifact::Trace,
    Artifact::Report,
    Artifact::Query,
    Artifact::Response,
    Artifact::Checkpoint,
    Artifact::Metrics,
    Artifact::Spans,
    Artifact::History,
    Artifact::Health,
    Artifact::Notify,
];

impl Artifact {
    /// The kind's header token (`dna-io v<N> <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Snapshot => "snapshot",
            Artifact::Trace => "trace",
            Artifact::Report => "report",
            Artifact::Query => "query",
            Artifact::Response => "response",
            Artifact::Checkpoint => "checkpoint",
            Artifact::Metrics => "metrics",
            Artifact::Spans => "spans",
            Artifact::History => "history",
            Artifact::Health => "health",
            Artifact::Notify => "notify",
        }
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reads the header of any artifact without parsing the body: returns the
/// declared `(version, kind)`. Useful for dispatch and error messages.
pub fn sniff(text: &str) -> Result<(u32, Artifact), IoError> {
    let (_, kind) = codec::read_header(text)?;
    Ok((artifact_version(kind), kind))
}

/// Validates an artifact of any kind — [`sniff`], then the declared
/// kind's parser — and returns the kind. For callers that relay an
/// artifact's bytes and only need to know they are well-formed.
pub fn validate(text: &str) -> Result<Artifact, IoError> {
    let (_, kind) = sniff(text)?;
    match kind {
        Artifact::Snapshot => parse_snapshot(text).map(drop),
        Artifact::Trace => parse_trace(text).map(drop),
        Artifact::Report => parse_report(text).map(drop),
        Artifact::Query => parse_query(text).map(drop),
        Artifact::Response => parse_response(text).map(drop),
        Artifact::Checkpoint => parse_checkpoint(text).map(drop),
        Artifact::Metrics => parse_metrics(text).map(drop),
        Artifact::Spans => parse_spans(text).map(drop),
        Artifact::History => parse_history(text).map(drop),
        Artifact::Health => parse_health(text).map(drop),
        Artifact::Notify => parse_notify(text).map(drop),
    }?;
    Ok(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::acl::{Acl, AclEntry, Action, FlowMatch, PortRange};
    use net_model::route::{RmAction, RmMatch, RmSet, RouteMapClause};
    use net_model::{
        ip, pfx, BgpConfig, BgpNeighbor, Change, ChangeSet, Endpoint, ExternalRoute, IfaceConfig,
        Link, NextHop, RouteAttrs, RouteMap, Snapshot, StaticRoute,
    };

    /// A snapshot exercising every construct of the grammar.
    fn kitchen_sink() -> Snapshot {
        let mut snap = Snapshot::default();
        let mut r1 = net_model::DeviceConfig::default();
        let mut ic = IfaceConfig::new(ip("10.0.0.1"), 31).with_ospf(3);
        ic.acl_in = Some("blo ck".into());
        ic.ospf.as_mut().unwrap().passive = true;
        r1.interfaces.insert("eth \"0\"".into(), ic);
        r1.interfaces
            .insert("lan".into(), IfaceConfig::new(ip("192.168.0.1"), 24));
        r1.static_routes.push(StaticRoute {
            prefix: pfx("0.0.0.0/0"),
            next_hop: NextHop::Ip(ip("10.0.0.0")),
            admin_distance: 5,
        });
        r1.static_routes.push(StaticRoute {
            prefix: pfx("203.0.113.0/24"),
            next_hop: NextHop::Discard,
            admin_distance: 1,
        });
        r1.bgp = Some(BgpConfig {
            asn: 65001,
            router_id: 7,
            neighbors: vec![BgpNeighbor {
                peer: ip("10.0.0.0"),
                remote_as: 65002,
                import_policy: Some("imp".into()),
                export_policy: None,
            }],
            networks: vec![pfx("192.168.0.0/24")],
        });
        let mut rm = RouteMap::default();
        rm.add(RouteMapClause {
            seq: 10,
            matches: vec![
                RmMatch::Prefix {
                    covering: pfx("10.0.0.0/8"),
                    ge: 16,
                    le: 24,
                },
                RmMatch::Community(77),
                RmMatch::AsPathContains(65000),
            ],
            action: RmAction::Permit,
            sets: vec![
                RmSet::LocalPref(200),
                RmSet::Med(5),
                RmSet::AddCommunity(1),
                RmSet::DeleteCommunity(2),
                RmSet::AsPathPrepend {
                    asn: 65009,
                    count: 3,
                },
            ],
        });
        rm.add(RouteMapClause {
            seq: 20,
            matches: vec![],
            action: RmAction::Deny,
            sets: vec![],
        });
        r1.route_maps.insert("imp".into(), rm);
        let mut acl = Acl::default();
        acl.add(AclEntry {
            seq: 10,
            action: Action::Deny,
            matches: FlowMatch {
                src: Some(pfx("172.16.0.0/12")),
                dst: None,
                proto: Some(6),
                src_ports: None,
                dst_ports: Some(PortRange { lo: 80, hi: 443 }),
            },
        });
        acl.add(AclEntry {
            seq: u32::MAX,
            action: Action::Permit,
            matches: FlowMatch::any(),
        });
        r1.acls.insert("blo ck".into(), acl);
        snap.devices.insert("r1".into(), r1);
        let mut r2 = net_model::DeviceConfig::default();
        r2.interfaces
            .insert("eth0".into(), IfaceConfig::new(ip("10.0.0.0"), 31));
        snap.devices.insert("r\n2".into(), r2);
        snap.links.push(Link::new(
            Endpoint::new("r1", "eth \"0\""),
            Endpoint::new("r\n2", "eth0"),
        ));
        snap.environment.down_links.insert(snap.links[0].clone());
        snap.environment.down_devices.insert("r\n2".into());
        snap.environment.external_routes.push(ExternalRoute {
            device: "r1".into(),
            peer: ip("10.0.0.0"),
            attrs: RouteAttrs {
                prefix: pfx("8.8.0.0/16"),
                local_pref: 120,
                as_path: vec![3356, 15169],
                med: 10,
                origin: 2,
                communities: [1, 2, 3].into_iter().collect(),
            },
        });
        snap
    }

    fn every_change() -> ChangeSet {
        let link = Link::new(Endpoint::new("a", "e0"), Endpoint::new("b", "e1"));
        let mut rm = RouteMap::default();
        rm.add(RouteMapClause {
            seq: 5,
            matches: vec![RmMatch::Community(9)],
            action: RmAction::Permit,
            sets: vec![RmSet::LocalPref(50)],
        });
        ChangeSet::of(vec![
            Change::LinkDown(link.clone()),
            Change::LinkUp(link),
            Change::DeviceDown("d zero".into()),
            Change::DeviceUp("d zero".into()),
            Change::AclEntryAdd {
                device: "a".into(),
                acl: "g".into(),
                entry: AclEntry {
                    seq: 30,
                    action: Action::Permit,
                    matches: FlowMatch::dst(pfx("1.2.3.0/24")),
                },
            },
            Change::AclEntryRemove {
                device: "a".into(),
                acl: "g".into(),
                seq: 30,
            },
            Change::SetAclIn {
                device: "a".into(),
                iface: "e0".into(),
                acl: Some("g".into()),
            },
            Change::SetAclOut {
                device: "a".into(),
                iface: "e0".into(),
                acl: None,
            },
            Change::SetRouteMap {
                device: "a".into(),
                name: "rm".into(),
                map: rm,
            },
            Change::StaticRouteAdd {
                device: "a".into(),
                route: StaticRoute {
                    prefix: pfx("10.9.0.0/16"),
                    next_hop: NextHop::Discard,
                    admin_distance: 200,
                },
            },
            Change::StaticRouteRemove {
                device: "a".into(),
                prefix: pfx("10.9.0.0/16"),
                next_hop: NextHop::Ip(ip("1.1.1.1")),
            },
            Change::BgpNetworkAdd {
                device: "a".into(),
                prefix: pfx("10.0.0.0/8"),
            },
            Change::BgpNetworkRemove {
                device: "a".into(),
                prefix: pfx("10.0.0.0/8"),
            },
            Change::ExternalAnnounce(ExternalRoute {
                device: "a".into(),
                peer: ip("9.9.9.9"),
                attrs: RouteAttrs::originated(pfx("5.0.0.0/8")),
            }),
            Change::ExternalWithdraw {
                device: "a".into(),
                peer: ip("9.9.9.9"),
                prefix: pfx("5.0.0.0/8"),
            },
            Change::SetOspfCost {
                device: "a".into(),
                iface: "e0".into(),
                cost: 12,
            },
        ])
    }

    #[test]
    fn snapshot_round_trip_kitchen_sink() {
        let snap = kitchen_sink();
        let text = write_snapshot(&snap);
        let back = parse_snapshot(&text).expect("parses");
        assert_eq!(back, snap);
        // Serialization is canonical: a second trip is byte-identical.
        assert_eq!(write_snapshot(&back), text);
    }

    #[test]
    fn trace_round_trip_every_change_kind() {
        let trace = Trace {
            epochs: vec![
                TraceEpoch {
                    label: Some("every kind".into()),
                    changes: every_change(),
                },
                TraceEpoch {
                    label: None,
                    changes: ChangeSet::default(),
                },
            ],
        };
        let text = write_trace(&trace);
        let back = parse_trace(&text).expect("parses");
        assert_eq!(back, trace);
        assert_eq!(write_trace(&back), text);
    }

    #[test]
    fn empty_artifacts_round_trip() {
        let snap = Snapshot::default();
        assert_eq!(parse_snapshot(&write_snapshot(&snap)).unwrap(), snap);
        let trace = Trace::default();
        assert_eq!(parse_trace(&write_trace(&trace)).unwrap(), trace);
        let report = Report::default();
        assert_eq!(parse_report(&write_report(&report)).unwrap(), report);
    }

    #[test]
    fn sniff_identifies_artifacts() {
        assert_eq!(
            sniff(&write_snapshot(&Snapshot::default())).unwrap(),
            (1, Artifact::Snapshot)
        );
        assert_eq!(
            sniff(&write_trace(&Trace::default())).unwrap(),
            (1, Artifact::Trace)
        );
        assert_eq!(
            sniff(&write_report(&Report::default())).unwrap(),
            (1, Artifact::Report)
        );
        assert!(matches!(sniff("nonsense"), Err(IoError::BadHeader(_))));
    }

    #[test]
    fn wrong_version_and_artifact_are_typed_errors() {
        assert!(matches!(
            parse_snapshot("dna-io v2 snapshot\nend\n"),
            Err(IoError::UnsupportedVersion(2))
        ));
        assert!(matches!(
            parse_snapshot("dna-io v1 trace\nend\n"),
            Err(IoError::WrongArtifact {
                expected: Artifact::Snapshot,
                found: Artifact::Trace
            })
        ));
        assert!(matches!(
            parse_trace("dna-io v1 report\nend\n"),
            Err(IoError::WrongArtifact { .. })
        ));
        assert!(matches!(parse_snapshot(""), Err(IoError::BadHeader(_))));
        assert!(matches!(
            parse_snapshot("garbage here\n"),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let text = write_snapshot(&kitchen_sink());
        // Drop the end sentinel (and progressively more).
        let lines: Vec<&str> = text.lines().collect();
        for keep in [lines.len() - 1, lines.len() / 2, 1] {
            let truncated = lines[..keep].join("\n");
            let err = parse_snapshot(&truncated).expect_err("truncated must fail");
            assert!(
                matches!(err, IoError::Truncated { .. }),
                "keep={keep}: {err:?}"
            );
        }
    }

    #[test]
    fn unknown_keywords_and_context_violations_error() {
        assert!(matches!(
            parse_snapshot("dna-io v1 snapshot\nfrobnicate\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        // iface outside a device section.
        assert!(matches!(
            parse_snapshot(
                "dna-io v1 snapshot\niface \"e\" 10.0.0.0/31 10.0.0.1 acl-in - acl-out - ospf -\nend\n"
            ),
            Err(IoError::Parse { line: 2, .. })
        ));
        // Change before the first epoch.
        assert!(matches!(
            parse_trace("dna-io v1 trace\ndevice-down \"x\"\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n; a comment\ndna-io v1 trace\n\nepoch label \"x\"\n  ; inline note\n  device-down \"d\"\nend\n";
        let trace = parse_trace(text).unwrap();
        assert_eq!(trace.epochs.len(), 1);
        assert_eq!(trace.epochs[0].label.as_deref(), Some("x"));
        assert_eq!(trace.epochs[0].changes.len(), 1);
    }

    #[test]
    fn trace_helpers() {
        let t = Trace::from_changesets(vec![every_change()]);
        assert_eq!(t.epochs.len(), 1);
        assert_eq!(t.change_count(), 16);
        let t = Trace::from_labeled(vec![("x".into(), ChangeSet::default())]);
        assert_eq!(t.epochs[0].label.as_deref(), Some("x"));
    }
}
