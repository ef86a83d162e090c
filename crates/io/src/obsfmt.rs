//! The telemetry artifacts: `metrics` (a scrape of the serve-side
//! registry — counters, gauges and latency histograms), `spans` (a dump
//! of the epoch-lifecycle span ring), `history` (timestamped samples of
//! the registry's counters and gauges from the history ring) and
//! `health` (an ok/degraded/failed classification of the server and
//! each session).
//!
//! All four are replies to telemetry query commands (`metrics` /
//! `trace` at query v3, `history` / `health` at v4): the server answers
//! those queries with one of these artifacts instead of a `response`,
//! which is why introducing them required no `response` bump — old
//! readers fail closed on the unknown kind token (`BadHeader`) rather
//! than misparse (see FORMAT.md "Versioning").
//!
//! Like every other kind, the encodings are canonical: series rows are
//! sorted by `(name, scope)` with the process-global scope before any
//! session scope, histogram buckets are bound-ascending with the
//! overflow bucket last, and parsers reject violations rather than
//! resort. Span rows keep recording (ring) order — chronological, not
//! sorted. Round-trips are exact and malformed input surfaces as typed
//! [`IoError`]s, never panics.

use crate::codec::{fmt_label, kvs, parse_header, W};
use crate::error::{perr, IoError};
use crate::lex::{quote, Cursor, Lines};
use crate::Artifact;

/// One counter or gauge sample: a named series, process-global or
/// labeled with the owning session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesRow {
    /// Metric name.
    pub name: String,
    /// Owning session; `None` for process-global series.
    pub session: Option<String>,
    /// Current value. Counters are monotonic; gauges move both ways.
    pub value: u64,
}

/// One latency histogram sample: fixed microsecond buckets plus
/// precomputed summary statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramRow {
    /// Metric name.
    pub name: String,
    /// Owning session; `None` for process-global series.
    pub session: Option<String>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Median upper-bound estimate, microseconds.
    pub p50_us: u64,
    /// 95th-percentile upper-bound estimate, microseconds.
    pub p95_us: u64,
    /// 99th-percentile upper-bound estimate, microseconds.
    pub p99_us: u64,
    /// Non-cumulative bucket counts as `(upper bound in us, count)`;
    /// `None` is the overflow (+inf) bucket, always last when present.
    /// Because a scrape races concurrent writers, `count` may exceed the
    /// bucket total (never the reverse): writers bump `count` before the
    /// bucket and readers sample buckets before `count`.
    pub buckets: Vec<(Option<u64>, u64)>,
}

/// A full scrape (the `metrics` artifact).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReport {
    /// Monotonic counters, `(name, scope)`-sorted.
    pub counters: Vec<SeriesRow>,
    /// Gauges, `(name, scope)`-sorted.
    pub gauges: Vec<SeriesRow>,
    /// Latency histograms, `(name, scope)`-sorted.
    pub histograms: Vec<HistogramRow>,
}

/// One epoch's lifecycle timings (a row of the `spans` artifact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// Owning session.
    pub session: String,
    /// Absolute 0-based epoch index within the session.
    pub epoch: u64,
    /// Artifact parse time attributed to this epoch, nanoseconds.
    pub parse_ns: u64,
    /// Control-plane commit stage, nanoseconds.
    pub cp_ns: u64,
    /// Data-plane delta stage, nanoseconds.
    pub dp_ns: u64,
    /// View publish stage, nanoseconds.
    pub publish_ns: u64,
    /// End-to-end apply wall-clock, nanoseconds.
    pub total_ns: u64,
    /// Primitive changes in the epoch.
    pub changes: u64,
    /// Flow-level diffs the epoch reported.
    pub flows: u64,
    /// The trace epoch's scenario label, when it carried one (written as
    /// a trailing marker only when present, keeping unlabeled rows
    /// byte-stable).
    pub label: Option<String>,
}

/// A span-ring dump (the `spans` artifact), oldest span first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanReport {
    /// Retained spans in recording order.
    pub spans: Vec<SpanRow>,
}

/// One timestamped registry sample of the `history` artifact.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistorySample {
    /// Milliseconds since server start (a monotone time base).
    pub t_ms: u64,
    /// Counters at sample time, `(name, scope)`-sorted.
    pub counters: Vec<SeriesRow>,
    /// Gauges at sample time, `(name, scope)`-sorted.
    pub gauges: Vec<SeriesRow>,
}

/// A history-ring dump (the `history` artifact), oldest sample first
/// with non-decreasing timestamps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistoryReport {
    /// Retained samples in recording order.
    pub samples: Vec<HistorySample>,
}

/// The health classification of the server or one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Operating normally.
    Ok,
    /// Alive but impaired (stale heartbeat, deep ingest queue, growing
    /// epoch lag).
    Degraded,
    /// The session's engine thread died (panic fence); it stays listed
    /// but answers every request with an error until reloaded.
    Failed,
}

impl HealthStatus {
    fn token(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Failed => "failed",
        }
    }
}

/// One session's row of the `health` artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionHealth {
    /// Session name.
    pub name: String,
    /// The classification.
    pub status: HealthStatus,
    /// A stable bare-token reason (`stale-heartbeat`, `queue-depth`,
    /// `epochs-behind`, `panic`), present exactly when the status is
    /// not [`HealthStatus::Ok`]. Tokens carry no numbers so a given
    /// registry state always renders byte-identically.
    pub reason: Option<String>,
}

/// A health classification (the `health` artifact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The server-level rollup: degraded when any session is degraded;
    /// failed sessions alone do *not* degrade the server (the panic
    /// fence isolating a session is the design working, not failing).
    pub server: HealthStatus,
    /// Per-session rows, name-sorted.
    pub sessions: Vec<SessionHealth>,
}

impl Default for HealthReport {
    fn default() -> Self {
        HealthReport {
            server: HealthStatus::Ok,
            sessions: Vec::new(),
        }
    }
}

// ---- write ------------------------------------------------------------

/// The flat `<name> <u64>` run of a histogram header, after its scope.
const HISTOGRAM_FIELDS: [&str; 5] = ["count", "sum-ns", "p50-us", "p95-us", "p99-us"];

/// The flat `<name> <u64>` run of a span row, after its session.
const SPAN_FIELDS: [&str; 7] = [
    "parse-ns",
    "cp-ns",
    "dp-ns",
    "publish-ns",
    "total-ns",
    "changes",
    "flows",
];

fn scope_token(session: &Option<String>) -> String {
    match session {
        None => "global".into(),
        Some(s) => format!("session {}", quote(s)),
    }
}

/// Serializes a metrics scrape.
pub fn write_metrics(m: &MetricsReport) -> String {
    let mut w = W::new(Artifact::Metrics);
    write_series(&mut w, 1, &m.counters, &m.gauges);
    for h in &m.histograms {
        let fields = [h.count, h.sum_ns, h.p50_us, h.p95_us, h.p99_us];
        w.line(
            1,
            &format!(
                "histogram {} {} {}",
                quote(&h.name),
                scope_token(&h.session),
                kvs(&HISTOGRAM_FIELDS, fields)
            ),
        );
        for (bound, n) in &h.buckets {
            let bound = bound.map_or_else(|| "inf".into(), |us| us.to_string());
            w.line(2, &format!("bucket {bound} {n}"));
        }
        w.line(2, "end-histogram");
    }
    w.finish()
}

/// Serializes a span-ring dump.
pub fn write_spans(r: &SpanReport) -> String {
    let mut w = W::new(Artifact::Spans);
    for s in &r.spans {
        let fields = [
            s.parse_ns,
            s.cp_ns,
            s.dp_ns,
            s.publish_ns,
            s.total_ns,
            s.changes,
            s.flows,
        ];
        w.line(
            1,
            &format!(
                "span {} session {} {}{}",
                s.epoch,
                quote(&s.session),
                kvs(&SPAN_FIELDS, fields),
                fmt_label(&s.label)
            ),
        );
    }
    w.finish()
}

/// Writes counter and gauge rows at `depth` (shared by the metrics and
/// history serializers).
fn write_series(w: &mut W, depth: usize, counters: &[SeriesRow], gauges: &[SeriesRow]) {
    for (kw, rows) in [("counter", counters), ("gauge", gauges)] {
        for r in rows {
            let (name, scope) = (quote(&r.name), scope_token(&r.session));
            w.line(depth, &format!("{kw} {name} {scope} {}", r.value));
        }
    }
}

/// Serializes a history-ring dump.
pub fn write_history(h: &HistoryReport) -> String {
    let mut w = W::new(Artifact::History);
    for s in &h.samples {
        w.line(1, &format!("sample {}", s.t_ms));
        write_series(&mut w, 2, &s.counters, &s.gauges);
        w.line(2, "end-sample");
    }
    w.finish()
}

/// Serializes a health classification.
pub fn write_health(h: &HealthReport) -> String {
    let mut w = W::new(Artifact::Health);
    w.line(1, &format!("server {}", h.server.token()));
    for s in &h.sessions {
        let reason = match &s.reason {
            Some(r) => format!(" reason {r}"),
            None => String::new(),
        };
        w.line(
            1,
            &format!("session {} {}{}", quote(&s.name), s.status.token(), reason),
        );
    }
    w.finish()
}

// ---- parse ------------------------------------------------------------

/// The canonical sort key of a series row: global scope first, then
/// session scopes name-ascending.
fn series_key<'a>(name: &'a str, session: &'a Option<String>) -> (&'a str, Option<&'a str>) {
    (name, session.as_deref())
}

/// Parses `<qname> global|session [<qsession>]` and returns the pair.
fn parse_scope(c: &mut Cursor) -> Result<(String, Option<String>), IoError> {
    let name = c.string("metric name")?;
    let session = if c.choice(&[("global", false), ("session", true)])? {
        Some(c.string("session name")?)
    } else {
        None
    };
    Ok((name, session))
}

/// Parses the rest of a `counter` / `gauge` row into its section,
/// enforcing the canonical `(name, scope)` order.
fn parse_series(c: &mut Cursor, rows: &mut Vec<SeriesRow>) -> Result<(), IoError> {
    let (name, session) = parse_scope(c)?;
    let value = c.parse("value")?;
    let prev = rows.last().map(|r| series_key(&r.name, &r.session));
    c.ascending(prev, series_key(&name, &session), "series rows")?;
    rows.push(SeriesRow {
        name,
        session,
        value,
    });
    Ok(())
}

/// Parses a metrics artifact (requires the `end` sentinel).
pub fn parse_metrics(text: &str) -> Result<MetricsReport, IoError> {
    let mut lines = parse_header(text, Artifact::Metrics)?;
    let mut m = MetricsReport::default();
    lines.body("metrics", "end", |kw, c, lines| match kw {
        "counter" => parse_series(c, &mut m.counters),
        "gauge" => parse_series(c, &mut m.gauges),
        "histogram" => {
            let (name, session) = parse_scope(c)?;
            let prev = m.histograms.last();
            let prev = prev.map(|h| series_key(&h.name, &h.session));
            c.ascending(prev, series_key(&name, &session), "histogram rows")?;
            let [count, sum_ns, p50_us, p95_us, p99_us] = c.kvs(&HISTOGRAM_FIELDS)?;
            c.finish()?;
            m.histograms.push(HistogramRow {
                name,
                session,
                count,
                sum_ns,
                p50_us,
                p95_us,
                p99_us,
                buckets: parse_buckets(lines)?,
            });
            Ok(())
        }
        other => Err(perr(c.line, format!("unknown metrics keyword {other:?}"))),
    })?;
    Ok(m)
}

/// Parses the bucket block of one histogram, through `end-histogram`.
fn parse_buckets(lines: &mut Lines<'_>) -> Result<Vec<(Option<u64>, u64)>, IoError> {
    let mut buckets: Vec<(Option<u64>, u64)> = Vec::new();
    lines.body("histogram", "end-histogram", |kw, c, _| {
        if kw != "bucket" {
            return Err(perr(
                c.line,
                format!("expected bucket lines or end-histogram, found {kw:?}"),
            ));
        }
        let tok = c.word("bucket bound")?;
        let bound = match tok.as_str() {
            "inf" => None,
            us => Some(
                us.parse::<u64>()
                    .map_err(|_| perr(c.line, format!("bad bucket bound {tok:?}")))?,
            ),
        };
        let n = c.parse("bucket count")?;
        // Bounds strictly increase, and the overflow (inf) bucket sorts
        // after every bound: nothing may follow it.
        let key = |b: Option<u64>| (b.is_none(), b);
        let prev = buckets.last().map(|(b, _)| key(*b));
        c.ascending(prev, key(bound), "bucket bounds")?;
        buckets.push((bound, n));
        Ok(())
    })?;
    Ok(buckets)
}

/// Parses a spans artifact (requires the `end` sentinel).
pub fn parse_spans(text: &str) -> Result<SpanReport, IoError> {
    let mut lines = parse_header(text, Artifact::Spans)?;
    let mut r = SpanReport::default();
    lines.body("spans", "end", |kw, c, _| {
        if kw != "span" {
            return Err(perr(c.line, format!("unknown spans keyword {kw:?}")));
        }
        let epoch = c.parse("epoch index")?;
        let session = c.kv_string("session", "session name")?;
        let [parse_ns, cp_ns, dp_ns, publish_ns, total_ns, changes, flows] = c.kvs(&SPAN_FIELDS)?;
        r.spans.push(SpanRow {
            session,
            epoch,
            parse_ns,
            cp_ns,
            dp_ns,
            publish_ns,
            total_ns,
            changes,
            flows,
            label: c.trailing("label", |c| c.string("epoch label"))?,
        });
        Ok(())
    })?;
    Ok(r)
}

/// Parses a history artifact (requires the `end` sentinel).
pub fn parse_history(text: &str) -> Result<HistoryReport, IoError> {
    let mut lines = parse_header(text, Artifact::History)?;
    let mut h = HistoryReport::default();
    lines.body("history", "end", |kw, c, lines| {
        if kw != "sample" {
            return Err(perr(c.line, format!("unknown history keyword {kw:?}")));
        }
        let mut s = HistorySample {
            t_ms: c.parse("sample timestamp")?,
            ..Default::default()
        };
        c.finish()?;
        if h.samples.last().is_some_and(|prev| prev.t_ms > s.t_ms) {
            return Err(perr(c.line, "sample timestamps must be non-decreasing"));
        }
        lines.body("sample", "end-sample", |kw, c, _| match kw {
            "counter" => parse_series(c, &mut s.counters),
            "gauge" => parse_series(c, &mut s.gauges),
            other => Err(perr(
                c.line,
                format!("expected series rows or end-sample, found {other:?}"),
            )),
        })?;
        h.samples.push(s);
        Ok(())
    })?;
    Ok(h)
}

fn parse_status(c: &mut Cursor) -> Result<HealthStatus, IoError> {
    c.choice(&[
        ("ok", HealthStatus::Ok),
        ("degraded", HealthStatus::Degraded),
        ("failed", HealthStatus::Failed),
    ])
}

/// Parses a health artifact (requires the `end` sentinel).
pub fn parse_health(text: &str) -> Result<HealthReport, IoError> {
    let mut lines = parse_header(text, Artifact::Health)?;
    let mut c = lines.line("the server status line")?;
    c.expect("server")?;
    let server = parse_status(&mut c)?;
    c.finish()?;
    let mut sessions: Vec<SessionHealth> = Vec::new();
    lines.body("health", "end", |kw, c, _| {
        if kw != "session" {
            return Err(perr(
                c.line,
                format!("expected session lines or end, found {kw:?}"),
            ));
        }
        let name = c.string("session name")?;
        let status = parse_status(c)?;
        let reason = c.trailing("reason", |c| c.word("reason token"))?;
        // The encoding is canonical: the reason marker appears exactly
        // when the status is not ok.
        if (status == HealthStatus::Ok) == reason.is_some() {
            return Err(perr(
                c.line,
                "a session names its reason exactly when it is not ok",
            ));
        }
        c.ascending(sessions.last().map(|s| &s.name), &name, "session rows")?;
        sessions.push(SessionHealth {
            name,
            status,
            reason,
        });
        Ok(())
    })?;
    Ok(HealthReport { server, sessions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> MetricsReport {
        MetricsReport {
            counters: vec![
                SeriesRow {
                    name: "epochs_applied".into(),
                    session: Some("a".into()),
                    value: 12,
                },
                SeriesRow {
                    name: "tcp_connections".into(),
                    session: None,
                    value: 3,
                },
            ],
            gauges: vec![SeriesRow {
                name: "view_served".into(),
                session: Some("scenario a".into()),
                value: 7,
            }],
            histograms: vec![HistogramRow {
                name: "epoch_apply_us".into(),
                session: Some("a".into()),
                count: 5,
                sum_ns: 9_000_000,
                p50_us: 1_000,
                p95_us: 2_500,
                p99_us: 2_500,
                buckets: vec![(Some(1_000), 3), (Some(2_500), 2), (None, 0)],
            }],
        }
    }

    fn sample_spans() -> SpanReport {
        SpanReport {
            spans: vec![
                SpanRow {
                    session: "a".into(),
                    epoch: 0,
                    parse_ns: 100,
                    cp_ns: 2_000,
                    dp_ns: 900,
                    publish_ns: 40,
                    total_ns: 3_100,
                    changes: 2,
                    flows: 1,
                    label: Some("link-failure".into()),
                },
                SpanRow {
                    session: "scenario b".into(),
                    epoch: 7,
                    parse_ns: 0,
                    cp_ns: 1,
                    dp_ns: 2,
                    publish_ns: 0,
                    total_ns: 3,
                    changes: 0,
                    flows: 0,
                    label: None,
                },
            ],
        }
    }

    #[test]
    fn metrics_round_trip() {
        for m in [MetricsReport::default(), sample_metrics()] {
            let text = write_metrics(&m);
            let back = parse_metrics(&text).expect("parses");
            assert_eq!(back, m);
            assert_eq!(write_metrics(&back), text, "canonical");
        }
    }

    #[test]
    fn spans_round_trip() {
        for r in [SpanReport::default(), sample_spans()] {
            let text = write_spans(&r);
            let back = parse_spans(&text).expect("parses");
            assert_eq!(back, r);
            assert_eq!(write_spans(&back), text, "canonical");
        }
    }

    #[test]
    fn global_scope_sorts_before_sessions() {
        // The same name at global and session scope is legal and ordered
        // global-first (None < Some in the registry's BTreeMap key).
        let m = MetricsReport {
            counters: vec![
                SeriesRow {
                    name: "queries_answered".into(),
                    session: None,
                    value: 9,
                },
                SeriesRow {
                    name: "queries_answered".into(),
                    session: Some("a".into()),
                    value: 4,
                },
            ],
            ..Default::default()
        };
        let text = write_metrics(&m);
        assert_eq!(parse_metrics(&text).unwrap(), m);
    }

    #[test]
    fn malformed_metrics_are_typed_errors() {
        assert!(matches!(
            parse_metrics("dna-io v1 metrics\n  frobnicate\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        // Unsorted series rows are rejected (the encoding is canonical).
        let unsorted =
            "dna-io v1 metrics\n  counter \"b\" global 1\n  counter \"a\" global 1\nend\n";
        assert!(matches!(
            parse_metrics(unsorted),
            Err(IoError::Parse { line: 3, .. })
        ));
        // A session row before the global row of the same name is unsorted.
        let scope_unsorted =
            "dna-io v1 metrics\n  counter \"a\" session \"s\" 1\n  counter \"a\" global 1\nend\n";
        assert!(matches!(
            parse_metrics(scope_unsorted),
            Err(IoError::Parse { line: 3, .. })
        ));
        // A histogram must be closed before the artifact ends.
        let open = "dna-io v1 metrics\n  histogram \"h\" global count 0 sum-ns 0 p50-us 0 p95-us 0 p99-us 0\nend\n";
        assert!(matches!(
            parse_metrics(open),
            Err(IoError::Parse { line: 3, .. })
        ));
        // Bucket bounds must increase; nothing follows the inf bucket.
        let bad_bounds = "dna-io v1 metrics\n  histogram \"h\" global count 0 sum-ns 0 p50-us 0 p95-us 0 p99-us 0\n    bucket 100 0\n    bucket 50 0\n    end-histogram\nend\n";
        assert!(matches!(
            parse_metrics(bad_bounds),
            Err(IoError::Parse { line: 4, .. })
        ));
        let after_inf = "dna-io v1 metrics\n  histogram \"h\" global count 0 sum-ns 0 p50-us 0 p95-us 0 p99-us 0\n    bucket inf 0\n    bucket 50 0\n    end-histogram\nend\n";
        assert!(matches!(
            parse_metrics(after_inf),
            Err(IoError::Parse { line: 4, .. })
        ));
    }

    fn sample_history() -> HistoryReport {
        HistoryReport {
            samples: vec![
                HistorySample {
                    t_ms: 1_000,
                    counters: vec![SeriesRow {
                        name: "epochs_applied".into(),
                        session: Some("a".into()),
                        value: 4,
                    }],
                    gauges: vec![SeriesRow {
                        name: "ingest_queue_depth".into(),
                        session: Some("a".into()),
                        value: 1,
                    }],
                },
                HistorySample {
                    t_ms: 2_000,
                    counters: vec![
                        SeriesRow {
                            name: "epochs_applied".into(),
                            session: Some("a".into()),
                            value: 9,
                        },
                        SeriesRow {
                            name: "tcp_connections".into(),
                            session: None,
                            value: 2,
                        },
                    ],
                    gauges: vec![],
                },
            ],
        }
    }

    fn sample_health() -> HealthReport {
        HealthReport {
            server: HealthStatus::Degraded,
            sessions: vec![
                SessionHealth {
                    name: "a".into(),
                    status: HealthStatus::Ok,
                    reason: None,
                },
                SessionHealth {
                    name: "b".into(),
                    status: HealthStatus::Degraded,
                    reason: Some("queue-depth".into()),
                },
                SessionHealth {
                    name: "scenario c".into(),
                    status: HealthStatus::Failed,
                    reason: Some("panic".into()),
                },
            ],
        }
    }

    #[test]
    fn history_round_trip() {
        for h in [HistoryReport::default(), sample_history()] {
            let text = write_history(&h);
            let back = parse_history(&text).expect("parses");
            assert_eq!(back, h);
            assert_eq!(write_history(&back), text, "canonical");
        }
        // Equal timestamps are legal (two ticks in the same millisecond).
        let flat = HistoryReport {
            samples: vec![
                HistorySample {
                    t_ms: 5,
                    ..Default::default()
                },
                HistorySample {
                    t_ms: 5,
                    ..Default::default()
                },
            ],
        };
        assert_eq!(parse_history(&write_history(&flat)).unwrap(), flat);
    }

    #[test]
    fn health_round_trip() {
        for h in [HealthReport::default(), sample_health()] {
            let text = write_health(&h);
            let back = parse_health(&text).expect("parses");
            assert_eq!(back, h);
            assert_eq!(write_health(&back), text, "canonical");
        }
    }

    #[test]
    fn malformed_history_is_a_typed_error() {
        // An open sample must be closed before the artifact ends.
        assert!(matches!(
            parse_history("dna-io v1 history\n  sample 10\n"),
            Err(IoError::Truncated { .. })
        ));
        assert!(matches!(
            parse_history("dna-io v1 history\n  sample 10\nend\n"),
            Err(IoError::Parse { line: 3, .. })
        ));
        // Timestamps may not go backwards.
        let backwards =
            "dna-io v1 history\n  sample 10\n    end-sample\n  sample 5\n    end-sample\nend\n";
        assert!(matches!(
            parse_history(backwards),
            Err(IoError::Parse { line: 4, .. })
        ));
        // Series rows inside a sample must be sorted, like a metrics scrape.
        let unsorted = "dna-io v1 history\n  sample 10\n    counter \"b\" global 1\n    counter \"a\" global 1\n    end-sample\nend\n";
        assert!(matches!(
            parse_history(unsorted),
            Err(IoError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn malformed_health_is_a_typed_error() {
        // The server line is mandatory and comes first.
        assert!(matches!(
            parse_health("dna-io v1 health\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_health("dna-io v1 health\n  server ok\n"),
            Err(IoError::Truncated { .. })
        ));
        assert!(matches!(
            parse_health("dna-io v1 health\n  server wedged\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        // The reason marker appears exactly when the status is not ok.
        let ok_with_reason =
            "dna-io v1 health\n  server ok\n  session \"a\" ok reason panic\nend\n";
        assert!(matches!(
            parse_health(ok_with_reason),
            Err(IoError::Parse { line: 3, .. })
        ));
        let failed_without = "dna-io v1 health\n  server ok\n  session \"a\" failed\nend\n";
        assert!(matches!(
            parse_health(failed_without),
            Err(IoError::Parse { line: 3, .. })
        ));
        // Session rows must be name-sorted (the encoding is canonical).
        let unsorted =
            "dna-io v1 health\n  server ok\n  session \"b\" ok\n  session \"a\" ok\nend\n";
        assert!(matches!(
            parse_health(unsorted),
            Err(IoError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn malformed_spans_are_typed_errors() {
        assert!(matches!(
            parse_spans("dna-io v1 spans\n  frobnicate\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        // Junk after the flows field must be the label marker or nothing.
        let junk = "dna-io v1 spans\n  span 0 session \"a\" parse-ns 0 cp-ns 0 dp-ns 0 publish-ns 0 total-ns 0 changes 0 flows 0 wedged\nend\n";
        assert!(matches!(
            parse_spans(junk),
            Err(IoError::Parse { line: 2, .. })
        ));
    }
}
