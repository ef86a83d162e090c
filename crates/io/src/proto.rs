//! The `query` and `response` artifacts: the request/reply protocol the
//! `dna-serve` service speaks over a line-oriented transport (stdio pipe
//! or unix socket).
//!
//! A query targets one named session of a running server and asks one
//! question: concrete-flow or endpoint-pair reachability on the *current*
//! (incrementally maintained) state, the blast radius of the last N
//! ingested epochs, a stored diff-report range, session statistics, or
//! the session list. Query v5 adds the standing-query commands
//! (`subscribe`, `unsubscribe`, `notifications`), which are answered
//! with `notify` artifacts instead of responses. A response is either
//! `error "…"` or `ok <kind>` with a kind-specific payload. Both
//! artifacts carry the same envelope, round-trip and never-panic
//! guarantees as snapshots, traces and reports (see
//! `crates/io/FORMAT.md`).

use crate::codec::{
    fmt_flow, fmt_outcomes, kvs, on_off, parse_flow, parse_header, parse_outcomes, W,
};
use crate::error::{perr, IoError};
use crate::lex::{quote, Cursor, Lines, Tok};
use crate::report::{write_epoch, EpochDiff, EpochsParser, IndexRule};
use crate::Artifact;
use data_plane::Outcome;
use net_model::Flow;
use std::collections::BTreeSet;

/// One service request: a question against one named session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Target session; `None` addresses the server's default session.
    pub session: Option<String>,
    /// The question.
    pub kind: QueryKind,
}

/// The questions the service answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryKind {
    /// Outcomes of a concrete flow injected at `src`, on current state.
    Reach {
        /// Source device.
        src: String,
        /// The packet to trace.
        flow: Flow,
    },
    /// Reachability between an endpoint pair: the server resolves `dst`
    /// to its canonical address (lowest-named interface) and traces a
    /// representative TCP flow from `src`.
    ReachPair {
        /// Source device.
        src: String,
        /// Destination device.
        dst: String,
    },
    /// Per-device flow-impact counts over the last `last` ingested epochs.
    Blast {
        /// Window size in epochs (clamped to the retained history).
        last: usize,
    },
    /// Stored behavior-diff reports for epochs `from..to` (half-open,
    /// absolute indices; clamped to the retained history).
    Report {
        /// First epoch index requested.
        from: usize,
        /// One past the last epoch index requested.
        to: usize,
    },
    /// Ingest counters, engine state sizes and cumulative stage timings.
    Stats,
    /// The server's session list.
    Sessions,
    /// Persist the session's state now: write an on-demand checkpoint
    /// (requires the server to run with a checkpoint directory).
    Checkpoint,
    /// Scrape the server's metrics registry (query v3). This is a
    /// server-level question — answered for every session at once; a
    /// `session` line narrows the scrape to that session's series. The
    /// reply is a `metrics` artifact, not a `response`.
    Metrics,
    /// Dump the epoch-lifecycle span ring (query v3), optionally
    /// truncated to the freshest `last` spans. Server-level like
    /// [`QueryKind::Metrics`]; a `session` line filters spans. The reply
    /// is a `spans` artifact.
    TraceSpans {
        /// Keep only the freshest `last` spans (`None` = the whole ring).
        last: Option<usize>,
    },
    /// Classify the server and every session as ok/degraded/failed
    /// (query v4). Server-level like [`QueryKind::Metrics`]; the reply
    /// is a `health` artifact.
    Health,
    /// Dump the metrics history ring (query v4), optionally truncated
    /// to the freshest `last` samples. Server-level like
    /// [`QueryKind::Metrics`]; a `session` line filters each sample's
    /// series. The reply is a `history` artifact.
    History {
        /// Keep only the freshest `last` samples (`None` = whole ring).
        last: Option<usize>,
    },
    /// Register a standing query on the session (query v5). The reply is
    /// a `notify` artifact echoing the assigned subscription id (zero
    /// events); subsequent commits that change the answer emit events.
    Subscribe(SubscriptionSpec),
    /// Remove a standing query by id (query v5). The reply is a `notify`
    /// artifact echoing the id (zero events).
    Unsubscribe {
        /// The subscription to remove.
        id: u64,
    },
    /// Drain the pending events of a subscription (query v5). The reply
    /// is a `notify` artifact with every event since the last drain —
    /// polled on any transport, its bytes match what a pushed TCP stream
    /// delivered for the same commits.
    Notifications {
        /// The subscription to drain.
        id: u64,
    },
}

/// The question a standing query keeps answering (query v5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscriptionSpec {
    /// Outcomes of a concrete flow injected at `src` (the standing form
    /// of [`QueryKind::Reach`]).
    Reach {
        /// Source device.
        src: String,
        /// The packet to trace.
        flow: Flow,
    },
    /// Endpoint-pair reachability: the server resolves `dst` to its
    /// canonical address at subscribe time (the standing form of
    /// [`QueryKind::ReachPair`]).
    ReachPair {
        /// Source device.
        src: String,
        /// Destination device.
        dst: String,
    },
    /// Blast radius of one device: an event whenever a commit produces
    /// flow diffs sourced at it.
    Blast {
        /// The device whose blast radius is watched.
        device: String,
    },
    /// Invariant: `src` must never reach `dst`. Violated while the
    /// traced representative flow is delivered at `dst`.
    NeverReach {
        /// Source device.
        src: String,
        /// Forbidden destination device.
        dst: String,
    },
    /// Invariant: the flow injected at `src` must never blackhole.
    NoBlackhole {
        /// Source device.
        src: String,
        /// The packet that must not blackhole.
        flow: Flow,
    },
}

impl QueryKind {
    /// The command's stable wire keyword (used to label query spans).
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Reach { .. } => "reach",
            QueryKind::ReachPair { .. } => "reach-pair",
            QueryKind::Blast { .. } => "blast",
            QueryKind::Report { .. } => "report",
            QueryKind::Stats => "stats",
            QueryKind::Sessions => "sessions",
            QueryKind::Checkpoint => "checkpoint",
            QueryKind::Metrics => "metrics",
            QueryKind::TraceSpans { .. } => "trace",
            QueryKind::Health => "health",
            QueryKind::History { .. } => "history",
            QueryKind::Subscribe(_) => "subscribe",
            QueryKind::Unsubscribe { .. } => "unsubscribe",
            QueryKind::Notifications { .. } => "notifications",
        }
    }
}

/// Session statistics (the `ok stats` payload). Counter fields are exact
/// and deterministic for a given snapshot + trace; the `*_us` cumulative
/// stage timings are wall-clock and vary run to run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Session name.
    pub session: String,
    /// Epochs ingested since the session opened.
    pub epochs: u64,
    /// Epochs currently retained in history.
    pub retained: u64,
    /// Absolute index of the oldest retained epoch.
    pub retained_from: u64,
    /// Devices in the current snapshot.
    pub devices: u64,
    /// Links in the current snapshot.
    pub links: u64,
    /// Live packet equivalence classes.
    pub classes: u64,
    /// Tuples held by the differential control-plane engine.
    pub tuples: u64,
    /// Cumulative flow diffs across all ingested epochs.
    pub flows: u64,
    /// Epochs on which the verification shadow disagreed (0 without
    /// `--verify`).
    pub mismatches: u64,
    /// Cumulative control-plane stage time, microseconds.
    pub cp_us: u64,
    /// Cumulative data-plane stage time, microseconds.
    pub dp_us: u64,
    /// Cumulative end-to-end apply time, microseconds.
    pub total_us: u64,
}

/// One row of the `ok sessions` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// Session name.
    pub name: String,
    /// Epochs ingested.
    pub epochs: u64,
    /// Devices in the session's current snapshot.
    pub devices: u64,
    /// Whether a from-scratch verification shadow is attached.
    pub verify: bool,
    /// Whether the session's engine thread died (panicked); a failed
    /// session stays listed but answers every request with an error.
    /// Encoded as a trailing `failed` marker, written only when set
    /// (response v3).
    pub failed: bool,
}

/// One service reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed (unknown session, bad range, parse error, ...).
    Error(String),
    /// A snapshot artifact (re)loaded a session.
    Loaded {
        /// Session that was (re)created.
        session: String,
        /// Devices in the loaded snapshot.
        devices: u64,
        /// Links in the loaded snapshot.
        links: u64,
    },
    /// A trace artifact was ingested incrementally.
    Ingested {
        /// Session that absorbed the epochs.
        session: String,
        /// Epochs applied from this artifact.
        epochs: u64,
        /// Flow diffs those epochs produced.
        flows: u64,
        /// Session epoch count after ingest.
        total: u64,
    },
    /// Answer to [`QueryKind::Reach`] / [`QueryKind::ReachPair`].
    Reach {
        /// Outcome set of the traced flow.
        outcomes: BTreeSet<Outcome>,
    },
    /// Answer to [`QueryKind::Blast`].
    Blast {
        /// Epochs actually covered (window clamped to history).
        epochs: u64,
        /// Total flow diffs in the window.
        flows: u64,
        /// Per-source-device flow-diff counts, name-sorted.
        devices: Vec<(String, u64)>,
    },
    /// Answer to [`QueryKind::Report`]: retained epochs of the range,
    /// under absolute indices.
    Report {
        /// `(absolute index, diff)` pairs, index-ascending.
        epochs: Vec<(usize, EpochDiff)>,
    },
    /// Answer to [`QueryKind::Stats`].
    Stats(ServiceStats),
    /// Answer to [`QueryKind::Sessions`], name-sorted.
    Sessions(Vec<SessionInfo>),
    /// Answer to [`QueryKind::Checkpoint`]: the session's state was
    /// durably written.
    Checkpointed {
        /// Session that was checkpointed.
        session: String,
        /// Epochs applied at the checkpoint.
        epochs: u64,
        /// Canonical size of the written checkpoint artifact.
        bytes: u64,
    },
}

// ---- write ------------------------------------------------------------

// The flat `<name> <u64>` runs of the response payload rows.
const LOADED_FIELDS: [&str; 2] = ["devices", "links"];
const INGESTED_FIELDS: [&str; 3] = ["epochs", "flows", "total"];
const CHECKPOINTED_FIELDS: [&str; 2] = ["epochs", "bytes"];
const BLAST_FIELDS: [&str; 2] = ["window", "flows"];
const STATS_SESSION_FIELDS: [&str; 3] = ["epochs", "retained", "from"];
const STATS_TOPOLOGY_FIELDS: [&str; 2] = ["devices", "links"];
const STATS_STATE_FIELDS: [&str; 2] = ["classes", "tuples"];
const STATS_WORK_FIELDS: [&str; 2] = ["flows", "mismatches"];
const STATS_TIME_FIELDS: [&str; 3] = ["cp-us", "dp-us", "total-us"];

/// Serializes a query.
pub fn write_query(q: &Query) -> String {
    let mut w = W::new(Artifact::Query);
    if let Some(s) = &q.session {
        w.line(1, &format!("session {}", quote(s)));
    }
    // `<device> <flow>`: the tail `reach` shares with the flow-carrying
    // subscription kinds (the write side of `parse_flow`).
    let flow_from = |src: &str, f: &Flow| format!("{} {}", quote(src), fmt_flow(f));
    let pair = |src: &str, dst: &str| format!("{} {}", quote(src), quote(dst));
    let line = match &q.kind {
        QueryKind::Reach { src, flow } => format!("reach {}", flow_from(src, flow)),
        QueryKind::ReachPair { src, dst } => format!("reach-pair {}", pair(src, dst)),
        QueryKind::Blast { last } => format!("blast {last}"),
        QueryKind::Report { from, to } => format!("report {from} {to}"),
        QueryKind::TraceSpans { last: Some(n) } => format!("trace {n}"),
        QueryKind::History { last: Some(n) } => format!("history {n}"),
        QueryKind::Subscribe(spec) => match spec {
            SubscriptionSpec::Reach { src, flow } => {
                format!("subscribe reach {}", flow_from(src, flow))
            }
            SubscriptionSpec::ReachPair { src, dst } => {
                format!("subscribe reach-pair {}", pair(src, dst))
            }
            SubscriptionSpec::Blast { device } => format!("subscribe blast {}", quote(device)),
            SubscriptionSpec::NeverReach { src, dst } => {
                format!("subscribe invariant never-reach {}", pair(src, dst))
            }
            SubscriptionSpec::NoBlackhole { src, flow } => {
                format!("subscribe invariant no-blackhole {}", flow_from(src, flow))
            }
        },
        QueryKind::Unsubscribe { id } => format!("unsubscribe {id}"),
        QueryKind::Notifications { id } => format!("notifications {id}"),
        // Every remaining command is its bare keyword.
        bare => bare.name().into(),
    };
    w.line(1, &line);
    w.finish()
}

/// Serializes a response.
pub fn write_response(r: &Response) -> String {
    let mut w = W::new(Artifact::Response);
    // The status line, then a `session "<name>" <fields>` payload row.
    let session_row = |w: &mut W, status: &str, session: &str, fields: &dyn std::fmt::Display| {
        w.line(0, status);
        w.line(1, &format!("session {} {fields}", quote(session)));
    };
    match r {
        Response::Error(msg) => w.line(0, &format!("error {}", quote(msg))),
        Response::Loaded {
            session,
            devices,
            links,
        } => {
            let fields = kvs(&LOADED_FIELDS, [*devices, *links]);
            session_row(&mut w, "ok loaded", session, &fields);
        }
        Response::Ingested {
            session,
            epochs,
            flows,
            total,
        } => {
            let fields = kvs(&INGESTED_FIELDS, [*epochs, *flows, *total]);
            session_row(&mut w, "ok ingested", session, &fields);
        }
        Response::Reach { outcomes } => {
            w.line(0, "ok reach");
            w.line(1, &format!("outcomes {}", fmt_outcomes(outcomes.iter())));
        }
        Response::Blast {
            epochs,
            flows,
            devices,
        } => {
            w.line(0, "ok blast");
            w.line(1, &kvs(&BLAST_FIELDS, [*epochs, *flows]).to_string());
            for (d, n) in devices {
                w.line(1, &format!("device {} flows {n}", quote(d)));
            }
        }
        Response::Report { epochs } => {
            w.line(0, "ok report");
            for (i, ep) in epochs {
                write_epoch(&mut w, *i, ep);
            }
        }
        Response::Stats(s) => {
            let fields = kvs(
                &STATS_SESSION_FIELDS,
                [s.epochs, s.retained, s.retained_from],
            );
            session_row(&mut w, "ok stats", &s.session, &fields);
            let mut row = |head: &str, fields: &dyn std::fmt::Display| {
                w.line(1, &format!("{head} {fields}"));
            };
            row(
                "topology",
                &kvs(&STATS_TOPOLOGY_FIELDS, [s.devices, s.links]),
            );
            row("state", &kvs(&STATS_STATE_FIELDS, [s.classes, s.tuples]));
            row("work", &kvs(&STATS_WORK_FIELDS, [s.flows, s.mismatches]));
            row(
                "time",
                &kvs(&STATS_TIME_FIELDS, [s.cp_us, s.dp_us, s.total_us]),
            );
        }
        Response::Sessions(list) => {
            w.line(0, "ok sessions");
            for s in list {
                w.line(
                    1,
                    &format!(
                        "session {} epochs {} devices {} verify {}{}",
                        quote(&s.name),
                        s.epochs,
                        s.devices,
                        on_off(s.verify),
                        if s.failed { " failed" } else { "" }
                    ),
                );
            }
        }
        Response::Checkpointed {
            session,
            epochs,
            bytes,
        } => {
            let fields = kvs(&CHECKPOINTED_FIELDS, [*epochs, *bytes]);
            session_row(&mut w, "ok checkpointed", session, &fields);
        }
    }
    w.finish()
}

// ---- parse ------------------------------------------------------------

/// Parses a query artifact (requires the `end` sentinel).
pub fn parse_query(text: &str) -> Result<Query, IoError> {
    let mut lines = parse_header(text, Artifact::Query)?;
    let mut session: Option<String> = None;
    let mut kind: Option<QueryKind> = None;
    lines.body("query", "end", |kw, c, _| {
        if kind.is_some() {
            return Err(perr(
                c.line,
                "a query carries exactly one command, after any session line",
            ));
        }
        if kw != "session" {
            kind = Some(parse_query_kind(kw, c)?);
        } else if session.is_some() {
            return Err(perr(c.line, "duplicate session line"));
        } else {
            session = Some(c.string("session name")?);
        }
        Ok(())
    })?;
    match kind {
        Some(kind) => Ok(Query { session, kind }),
        None => Err(IoError::Truncated {
            expected: "a query command before the end sentinel".into(),
        }),
    }
}

/// Parses a query command given as already-split words — a command
/// line's argv, e.g. `["reach-pair", "edge0_0", "edge1_1"]`. This is
/// the grammar of a query artifact's command line, not a second one:
/// the words run through the same parser, each satisfying a bare-word
/// or a quoted-string position alike.
pub fn parse_query_args<S: AsRef<str>>(args: &[S]) -> Result<QueryKind, IoError> {
    let words = args.iter().map(|a| Tok::Arg(a.as_ref().to_string()));
    let mut c = Cursor::new(words.collect(), 0);
    let cmd = c.word("a query command")?;
    let kind = parse_query_kind(&cmd, &mut c)?;
    c.finish()?;
    Ok(kind)
}

fn parse_query_kind(cmd: &str, c: &mut Cursor) -> Result<QueryKind, IoError> {
    match cmd {
        "reach" => Ok(QueryKind::Reach {
            src: c.string("source device")?,
            flow: parse_flow(c)?,
        }),
        "reach-pair" => Ok(QueryKind::ReachPair {
            src: c.string("source device")?,
            dst: c.string("destination device")?,
        }),
        "blast" => Ok(QueryKind::Blast {
            last: c.parse("window size")?,
        }),
        "report" => Ok(QueryKind::Report {
            from: c.parse("range start")?,
            to: c.parse("range end")?,
        }),
        "stats" => Ok(QueryKind::Stats),
        "sessions" => Ok(QueryKind::Sessions),
        "checkpoint" => Ok(QueryKind::Checkpoint),
        "metrics" => Ok(QueryKind::Metrics),
        "trace" => Ok(QueryKind::TraceSpans {
            last: c.trailing("", |c| c.parse("span count"))?,
        }),
        "health" => Ok(QueryKind::Health),
        "history" => Ok(QueryKind::History {
            last: c.trailing("", |c| c.parse("sample count"))?,
        }),
        "subscribe" => {
            let what = c.word("subscription kind")?;
            let spec = match what.as_str() {
                "reach" => SubscriptionSpec::Reach {
                    src: c.string("source device")?,
                    flow: parse_flow(c)?,
                },
                "reach-pair" => SubscriptionSpec::ReachPair {
                    src: c.string("source device")?,
                    dst: c.string("destination device")?,
                },
                "blast" => SubscriptionSpec::Blast {
                    device: c.string("device")?,
                },
                "invariant" => {
                    let which = c.word("invariant kind")?;
                    match which.as_str() {
                        "never-reach" => SubscriptionSpec::NeverReach {
                            src: c.string("source device")?,
                            dst: c.string("destination device")?,
                        },
                        "no-blackhole" => SubscriptionSpec::NoBlackhole {
                            src: c.string("source device")?,
                            flow: parse_flow(c)?,
                        },
                        other => {
                            return Err(perr(c.line, format!("unknown invariant kind {other:?}")))
                        }
                    }
                }
                other => return Err(perr(c.line, format!("unknown subscription kind {other:?}"))),
            };
            Ok(QueryKind::Subscribe(spec))
        }
        "unsubscribe" => Ok(QueryKind::Unsubscribe {
            id: c.parse("subscription id")?,
        }),
        "notifications" => Ok(QueryKind::Notifications {
            id: c.parse("subscription id")?,
        }),
        other => Err(perr(c.line, format!("unknown query command {other:?}"))),
    }
}

/// The next line of a fixed-shape payload: `session "<name>"` and the
/// row's flat fields.
fn session_row<const N: usize>(
    lines: &mut Lines<'_>,
    names: &[&str; N],
) -> Result<(String, [u64; N]), IoError> {
    let mut c = lines.line("a response payload line")?;
    let session = c.kv_string("session", "session name")?;
    let fields = c.kvs(names)?;
    c.finish()?;
    Ok((session, fields))
}

/// The next line of a fixed-shape payload: a `head` keyword and the
/// row's flat fields.
fn flat_row<const N: usize>(
    lines: &mut Lines<'_>,
    head: &str,
    names: &[&str; N],
) -> Result<[u64; N], IoError> {
    let mut c = lines.line("a response payload line")?;
    c.expect(head)?;
    let fields = c.kvs(names)?;
    c.finish()?;
    Ok(fields)
}

/// Parses a response artifact (requires the `end` sentinel).
pub fn parse_response(text: &str) -> Result<Response, IoError> {
    let mut lines = parse_header(text, Artifact::Response)?;
    let mut c = lines.line("a response status line")?;
    // The status line and any fixed-shape payload lines come first; the
    // body driver then takes the row-per-line payloads (blast devices,
    // sessions, report epochs) through `end`.
    let mut response = match c.word("error|ok")?.as_str() {
        "error" => Response::Error(c.string("error message")?),
        "ok" => {
            let kind = c.word("response kind")?;
            c.finish()?;
            match kind.as_str() {
                "loaded" => {
                    let (session, [devices, links]) = session_row(&mut lines, &LOADED_FIELDS)?;
                    Response::Loaded {
                        session,
                        devices,
                        links,
                    }
                }
                "ingested" => {
                    let (session, [epochs, flows, total]) =
                        session_row(&mut lines, &INGESTED_FIELDS)?;
                    Response::Ingested {
                        session,
                        epochs,
                        flows,
                        total,
                    }
                }
                "reach" => {
                    let mut c = lines.line("a response payload line")?;
                    c.expect("outcomes")?;
                    let outcomes = parse_outcomes(&mut c)?;
                    c.finish()?;
                    Response::Reach { outcomes }
                }
                "blast" => {
                    let mut c = lines.line("a response payload line")?;
                    let [epochs, flows] = c.kvs(&BLAST_FIELDS)?;
                    c.finish()?;
                    Response::Blast {
                        epochs,
                        flows,
                        devices: Vec::new(),
                    }
                }
                "report" => Response::Report { epochs: Vec::new() },
                "stats" => {
                    let mut s = ServiceStats::default();
                    (s.session, [s.epochs, s.retained, s.retained_from]) =
                        session_row(&mut lines, &STATS_SESSION_FIELDS)?;
                    [s.devices, s.links] =
                        flat_row(&mut lines, "topology", &STATS_TOPOLOGY_FIELDS)?;
                    [s.classes, s.tuples] = flat_row(&mut lines, "state", &STATS_STATE_FIELDS)?;
                    [s.flows, s.mismatches] = flat_row(&mut lines, "work", &STATS_WORK_FIELDS)?;
                    [s.cp_us, s.dp_us, s.total_us] =
                        flat_row(&mut lines, "time", &STATS_TIME_FIELDS)?;
                    Response::Stats(s)
                }
                "sessions" => Response::Sessions(Vec::new()),
                "checkpointed" => {
                    let (session, [epochs, bytes]) = session_row(&mut lines, &CHECKPOINTED_FIELDS)?;
                    Response::Checkpointed {
                        session,
                        epochs,
                        bytes,
                    }
                }
                other => return Err(perr(c.line, format!("unknown response kind {other:?}"))),
            }
        }
        other => {
            return Err(perr(
                c.line,
                format!("expected error or ok, found {other:?}"),
            ))
        }
    };
    c.finish()?;
    let mut report = EpochsParser::new(IndexRule::StrictlyIncreasing);
    lines.body("response", "end", |kw, c, _| match (&mut response, kw) {
        (Response::Blast { devices, .. }, "device") => {
            let d = c.string("device")?;
            let n = c.kv("flows", "flow count")?;
            c.ascending(devices.last().map(|(prev, _)| prev), &d, "device rows")?;
            devices.push((d, n));
            Ok(())
        }
        (Response::Sessions(list), "session") => {
            let name = c.string("session name")?;
            let epochs = c.kv("epochs", "epoch count")?;
            let devices = c.kv("devices", "device count")?;
            c.expect("verify")?;
            let s = SessionInfo {
                name,
                epochs,
                devices,
                verify: c.on_off()?,
                // Optional trailing failure marker (written only when
                // set, keeping healthy rows byte-stable).
                failed: c.trailing("failed", |_| Ok(()))?.is_some(),
            };
            c.ascending(list.last().map(|prev| &prev.name), &s.name, "session rows")?;
            list.push(s);
            Ok(())
        }
        (Response::Report { .. }, _) => report.line(kw, c),
        _ => Err(perr(
            c.line,
            format!("unexpected response payload keyword {kw:?}"),
        )),
    })?;
    if let Response::Report { epochs } = &mut response {
        *epochs = report.finish()?;
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::ip;

    fn roundtrip_query(q: &Query) {
        let text = write_query(q);
        let back = parse_query(&text).expect("query parses");
        assert_eq!(&back, q);
        assert_eq!(write_query(&back), text);
    }

    fn roundtrip_response(r: &Response) {
        let text = write_response(r);
        let back = parse_response(&text).expect("response parses");
        assert_eq!(&back, r);
        assert_eq!(write_response(&back), text);
    }

    #[test]
    fn queries_round_trip() {
        for kind in [
            QueryKind::Reach {
                src: "edge0_0".into(),
                flow: Flow {
                    src: ip("10.0.0.1"),
                    dst: ip("10.1.2.3"),
                    proto: 6,
                    src_port: 12345,
                    dst_port: 80,
                },
            },
            QueryKind::ReachPair {
                src: "edge 0".into(),
                dst: "co\"re".into(),
            },
            QueryKind::Blast { last: 16 },
            QueryKind::Report { from: 3, to: 9 },
            QueryKind::Stats,
            QueryKind::Sessions,
            QueryKind::Checkpoint,
            QueryKind::Metrics,
            QueryKind::TraceSpans { last: None },
            QueryKind::TraceSpans { last: Some(32) },
            QueryKind::Health,
            QueryKind::History { last: None },
            QueryKind::History { last: Some(8) },
            QueryKind::Subscribe(SubscriptionSpec::Reach {
                src: "edge0_0".into(),
                flow: Flow {
                    src: ip("10.0.0.1"),
                    dst: ip("10.1.2.3"),
                    proto: 17,
                    src_port: 5353,
                    dst_port: 53,
                },
            }),
            QueryKind::Subscribe(SubscriptionSpec::ReachPair {
                src: "edge 0".into(),
                dst: "co\"re".into(),
            }),
            QueryKind::Subscribe(SubscriptionSpec::Blast {
                device: "agg0_0".into(),
            }),
            QueryKind::Subscribe(SubscriptionSpec::NeverReach {
                src: "edge0_0".into(),
                dst: "edge1_1".into(),
            }),
            QueryKind::Subscribe(SubscriptionSpec::NoBlackhole {
                src: "edge0_0".into(),
                flow: Flow {
                    src: ip("10.0.0.1"),
                    dst: ip("10.1.2.3"),
                    proto: 6,
                    src_port: 40000,
                    dst_port: 443,
                },
            }),
            QueryKind::Unsubscribe { id: 7 },
            QueryKind::Notifications { id: 7 },
        ] {
            roundtrip_query(&Query {
                session: None,
                kind: kind.clone(),
            });
            roundtrip_query(&Query {
                session: Some("scenario a\n".into()),
                kind,
            });
        }
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_response(&Response::Error("no such session \"x\"".into()));
        roundtrip_response(&Response::Loaded {
            session: "main".into(),
            devices: 45,
            links: 162,
        });
        roundtrip_response(&Response::Ingested {
            session: "main".into(),
            epochs: 12,
            flows: 7,
            total: 76,
        });
        roundtrip_response(&Response::Reach {
            outcomes: BTreeSet::new(),
        });
        roundtrip_response(&Response::Reach {
            outcomes: [
                Outcome::Delivered("edge1_1".into()),
                Outcome::Filtered("agg 0".into()),
                Outcome::Loop,
            ]
            .into_iter()
            .collect(),
        });
        roundtrip_response(&Response::Blast {
            epochs: 8,
            flows: 21,
            devices: vec![("agg0_0".into(), 13), ("edge0_0".into(), 8)],
        });
        roundtrip_response(&Response::Report {
            epochs: vec![
                (
                    4,
                    EpochDiff {
                        label: Some("link-failure".into()),
                        ..Default::default()
                    },
                ),
                (6, EpochDiff::default()),
            ],
        });
        roundtrip_response(&Response::Stats(ServiceStats {
            session: "main".into(),
            epochs: 64,
            retained: 32,
            retained_from: 32,
            devices: 45,
            links: 162,
            classes: 127,
            tuples: 30276,
            flows: 211,
            mismatches: 0,
            cp_us: 120_000,
            dp_us: 40_000,
            total_us: 161_000,
        }));
        roundtrip_response(&Response::Checkpointed {
            session: "scenario a".into(),
            epochs: 48,
            bytes: 20_113,
        });
        roundtrip_response(&Response::Sessions(vec![
            SessionInfo {
                name: "a".into(),
                epochs: 2,
                devices: 20,
                verify: true,
                failed: false,
            },
            SessionInfo {
                name: "b".into(),
                epochs: 0,
                devices: 45,
                verify: false,
                failed: true,
            },
        ]));
    }

    #[test]
    fn session_failure_marker_is_canonical() {
        // The marker appears exactly when set; absent rows stay at the
        // pre-v3 byte shape.
        let text = write_response(&Response::Sessions(vec![SessionInfo {
            name: "a".into(),
            epochs: 1,
            devices: 2,
            verify: false,
            failed: true,
        }]));
        assert!(text.contains("verify off failed\n"), "{text:?}");
        let healthy = write_response(&Response::Sessions(vec![SessionInfo {
            name: "a".into(),
            epochs: 1,
            devices: 2,
            verify: false,
            failed: false,
        }]));
        assert!(!healthy.contains("failed"), "{healthy:?}");
        // Junk after the verify token is rejected, not ignored.
        let bad = "dna-io v3 response\nok sessions\n  session \"a\" epochs 1 devices 2 verify off wedged\nend\n";
        assert!(matches!(
            parse_response(bad),
            Err(IoError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn malformed_queries_are_typed_errors() {
        assert!(matches!(
            parse_query("dna-io v5 query\nend\n"),
            Err(IoError::Truncated { .. })
        ));
        assert!(matches!(
            parse_query("dna-io v5 query\n  stats\n"),
            Err(IoError::Truncated { .. })
        ));
        assert!(matches!(
            parse_query("dna-io v5 query\n  stats\n  sessions\nend\n"),
            Err(IoError::Parse { line: 3, .. })
        ));
        assert!(matches!(
            parse_query("dna-io v5 query\n  stats\n  session \"x\"\nend\n"),
            Err(IoError::Parse { line: 3, .. })
        ));
        assert!(matches!(
            parse_query("dna-io v5 query\n  frobnicate\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        // Junk after a trace span count or history sample count is
        // rejected, not ignored.
        assert!(matches!(
            parse_query("dna-io v5 query\n  trace 4 5\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_query("dna-io v5 query\n  history 4 5\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        // Unknown subscription shapes are rejected.
        assert!(matches!(
            parse_query("dna-io v5 query\n  subscribe frobnicate \"x\"\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_query("dna-io v5 query\n  subscribe invariant maybe \"x\" \"y\"\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        // Earlier query versions are rejected (strict equality): readers
        // that predate a keyword must fail closed, so writers may never
        // downgrade the header.
        assert!(matches!(
            parse_query("dna-io v2 query\n  stats\nend\n"),
            Err(IoError::UnsupportedVersion(2))
        ));
        assert!(matches!(
            parse_query("dna-io v3 query\n  health\nend\n"),
            Err(IoError::UnsupportedVersion(3))
        ));
        assert!(matches!(
            parse_query("dna-io v4 query\n  subscribe blast \"d\"\nend\n"),
            Err(IoError::UnsupportedVersion(4))
        ));
        assert!(matches!(
            parse_query("dna-io v3 response\nend\n"),
            Err(IoError::WrongArtifact { .. })
        ));
    }

    #[test]
    fn malformed_responses_are_typed_errors() {
        assert!(matches!(
            parse_response("dna-io v3 response\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_response("dna-io v3 response\nok reach\n"),
            Err(IoError::Truncated { .. })
        ));
        assert!(matches!(
            parse_response("dna-io v3 response\nok blast\n  window 1 flows 0\n"),
            Err(IoError::Truncated { .. })
        ));
        assert!(matches!(
            parse_response("dna-io v3 response\nok nonsense\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        // Unsorted payload rows are rejected (the encoding is canonical).
        let unsorted = "dna-io v3 response\nok blast\n  window 1 flows 2\n  device \"b\" flows 1\n  device \"a\" flows 1\nend\n";
        assert!(matches!(
            parse_response(unsorted),
            Err(IoError::Parse { line: 5, .. })
        ));
        // Out-of-order report payload epochs are rejected.
        let bad = "dna-io v3 response\nok report\nepoch 5\nepoch 3\nend\n";
        assert!(matches!(
            parse_response(bad),
            Err(IoError::Parse { line: 4, .. })
        ));
    }
}
