//! Epoch-lifecycle tracing: a bounded ring of per-epoch stage spans.
//!
//! Every applied epoch leaves one [`EpochSpan`] — where its wall-clock
//! went, stage by stage: artifact parse, control-plane commit,
//! data-plane delta, view publish — in a fixed-capacity ring, the
//! generalized successor of `dna-core`'s `EpochStats` window. The serve
//! layer serializes the ring as the `spans` artifact (`dna query
//! trace`); epochs slower than a configurable threshold are also
//! reported to the operator log the moment they happen.

use crate::log;
use crate::ring::Ring;
use std::sync::atomic::{AtomicU64, Ordering};

/// Spans retained by the process-global recorder.
pub const DEFAULT_SPAN_CAPACITY: usize = 512;

/// One applied epoch's lifecycle: identity plus per-stage wall-clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSpan {
    /// Owning session.
    pub session: String,
    /// Absolute 0-based epoch index within the session.
    pub epoch: u64,
    /// The trace epoch's scenario label, when it carried one.
    pub label: Option<String>,
    /// Artifact parse time attributed to this epoch (amortized evenly
    /// over the epochs of a multi-epoch trace artifact).
    pub parse_ns: u64,
    /// Control-plane commit stage.
    pub cp_ns: u64,
    /// Data-plane delta stage.
    pub dp_ns: u64,
    /// View publish (zero when no view slot is attached).
    pub publish_ns: u64,
    /// End-to-end apply wall-clock (parse + engine + publish + session
    /// bookkeeping).
    pub total_ns: u64,
    /// Primitive changes in the epoch.
    pub changes: u64,
    /// Flow-level diffs the epoch reported.
    pub flows: u64,
}

/// A bounded, thread-safe ring of [`EpochSpan`]s with a slow-epoch
/// alarm. Recording happens once per epoch (milliseconds apart), never
/// on a per-packet path.
pub struct SpanRecorder {
    slow_threshold_ns: AtomicU64,
    ring: Ring<EpochSpan>,
}

impl SpanRecorder {
    /// An enabled recorder retaining the freshest `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        SpanRecorder {
            slow_threshold_ns: AtomicU64::new(0),
            ring: Ring::new(capacity),
        }
    }

    /// A recorder that drops everything (the `DNA_OBS_DISABLED` form).
    pub fn disabled() -> Self {
        SpanRecorder {
            slow_threshold_ns: AtomicU64::new(0),
            ring: Ring::disabled(),
        }
    }

    /// Whether this recorder keeps anything.
    pub fn enabled(&self) -> bool {
        self.ring.enabled()
    }

    /// Sets the slow-epoch alarm: spans whose `total_ns` meets or
    /// exceeds the threshold are reported to the operator log as they
    /// are recorded. Zero (the default) disables the alarm.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::SeqCst);
    }

    /// The current slow-epoch threshold (0 = disabled).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::SeqCst)
    }

    /// Records one epoch span, evicting the oldest beyond capacity.
    pub fn record(&self, span: EpochSpan) {
        if !self.enabled() {
            return;
        }
        let threshold = self.slow_threshold_ns();
        if threshold > 0 && span.total_ns >= threshold {
            // Session and label are both in the line: with several
            // sessions ingesting concurrently, "epoch 12 was slow" is
            // useless without knowing whose epoch 12 — and of what.
            let label = match &span.label {
                Some(l) => format!(" label {l:?}"),
                None => String::new(),
            };
            log::info(&format!(
                "dna obs: slow epoch {} in session {:?}{label}: total {:.2?} (parse {:.2?} cp {:.2?} dp {:.2?} publish {:.2?})",
                span.epoch,
                span.session,
                std::time::Duration::from_nanos(span.total_ns),
                std::time::Duration::from_nanos(span.parse_ns),
                std::time::Duration::from_nanos(span.cp_ns),
                std::time::Duration::from_nanos(span.dp_ns),
                std::time::Duration::from_nanos(span.publish_ns),
            ));
        }
        self.ring.push(span, |_| true);
    }

    /// The retained spans, oldest first, optionally filtered to one
    /// session and truncated to the freshest `last`.
    pub fn snapshot(&self, session: Option<&str>, last: Option<usize>) -> Vec<EpochSpan> {
        let keep = |s: &EpochSpan| session.is_none_or(|want| s.session == want);
        self.ring.snapshot(last, |s| keep(s).then(|| s.clone()))
    }
}

/// One answered query's lifecycle: where it was answered, for whom,
/// and how long the answer took — the query-plane twin of
/// [`EpochSpan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpan {
    /// Answer path: `"tcp"` / `"unix"` / `"stdin"` (answered on that
    /// kind of connection — the published-view fast path and
    /// telemetry), `"broker"` (engine thread) or `"pipe"`
    /// (single-stream loop).
    pub transport: &'static str,
    /// Target session, when the query named (or resolved to) one.
    pub session: Option<String>,
    /// Query command keyword (`reach`, `blast`, `metrics`, ...).
    pub kind: &'static str,
    /// End-to-end answer wall-clock.
    pub total_ns: u64,
}

/// A bounded, thread-safe ring of [`QuerySpan`]s with a slow-query
/// alarm — the backing store of the slow-query log. Same shape as
/// [`SpanRecorder`], touched once per answered query.
pub struct QuerySpanRecorder {
    slow_threshold_ns: AtomicU64,
    ring: Ring<QuerySpan>,
}

impl QuerySpanRecorder {
    /// An enabled recorder retaining the freshest `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        QuerySpanRecorder {
            slow_threshold_ns: AtomicU64::new(0),
            ring: Ring::new(capacity),
        }
    }

    /// A recorder that drops everything (the `DNA_OBS_DISABLED` form).
    pub fn disabled() -> Self {
        QuerySpanRecorder {
            slow_threshold_ns: AtomicU64::new(0),
            ring: Ring::disabled(),
        }
    }

    /// Whether this recorder keeps anything.
    pub fn enabled(&self) -> bool {
        self.ring.enabled()
    }

    /// Sets the slow-query alarm: spans whose `total_ns` meets or
    /// exceeds the threshold are reported to the operator log as they
    /// are recorded. Zero (the default) disables the alarm.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::SeqCst);
    }

    /// The current slow-query threshold (0 = disabled).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::SeqCst)
    }

    /// Records one query span, evicting the oldest beyond capacity.
    pub fn record(&self, span: QuerySpan) {
        if !self.enabled() {
            return;
        }
        let threshold = self.slow_threshold_ns();
        if threshold > 0 && span.total_ns >= threshold {
            log::info(&format!(
                "dna obs: slow query {} in session {:?} via {}: {:.2?}",
                span.kind,
                span.session,
                span.transport,
                std::time::Duration::from_nanos(span.total_ns),
            ));
        }
        self.ring.push(span, |_| true);
    }

    /// The retained spans, oldest first, optionally filtered to one
    /// session and truncated to the freshest `last`.
    pub fn snapshot(&self, session: Option<&str>, last: Option<usize>) -> Vec<QuerySpan> {
        let keep = |s: &QuerySpan| session.is_none_or(|want| s.session.as_deref() == Some(want));
        self.ring.snapshot(last, |s| keep(s).then(|| s.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(session: &str, epoch: u64, total_ns: u64) -> EpochSpan {
        EpochSpan {
            session: session.to_string(),
            epoch,
            label: None,
            parse_ns: 1,
            cp_ns: 2,
            dp_ns: 3,
            publish_ns: 4,
            total_ns,
            changes: 1,
            flows: 0,
        }
    }

    #[test]
    fn ring_bounds_and_filters() {
        let rec = SpanRecorder::new(3);
        for i in 0..5 {
            rec.record(span(if i % 2 == 0 { "a" } else { "b" }, i, 10));
        }
        let all = rec.snapshot(None, None);
        assert_eq!(
            all.iter().map(|s| s.epoch).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest spans evict first"
        );
        let a = rec.snapshot(Some("a"), None);
        assert_eq!(a.iter().map(|s| s.epoch).collect::<Vec<_>>(), vec![2, 4]);
        let last = rec.snapshot(None, Some(2));
        assert_eq!(last.iter().map(|s| s.epoch).collect::<Vec<_>>(), vec![3, 4]);
        assert!(rec.snapshot(Some("missing"), None).is_empty());
    }

    #[test]
    fn disabled_recorder_drops_spans() {
        let rec = SpanRecorder::disabled();
        rec.record(span("a", 0, 10));
        assert!(rec.snapshot(None, None).is_empty());
    }

    #[test]
    fn slow_threshold_round_trips() {
        let rec = SpanRecorder::new(4);
        assert_eq!(rec.slow_threshold_ns(), 0);
        rec.set_slow_threshold_ns(5);
        assert_eq!(rec.slow_threshold_ns(), 5);
        // Recording a slow span must not panic or drop the span.
        rec.record(span("a", 0, 10));
        assert_eq!(rec.snapshot(None, None).len(), 1);
    }

    fn qspan(transport: &'static str, session: Option<&str>, total_ns: u64) -> QuerySpan {
        QuerySpan {
            transport,
            session: session.map(str::to_string),
            kind: "reach",
            total_ns,
        }
    }

    #[test]
    fn query_ring_bounds_and_filters() {
        let rec = QuerySpanRecorder::new(3);
        rec.record(qspan("pipe", Some("a"), 10));
        rec.record(qspan("tcp", Some("b"), 20));
        rec.record(qspan("tcp", Some("a"), 30));
        rec.record(qspan("broker", None, 40));
        let all = rec.snapshot(None, None);
        assert_eq!(
            all.iter().map(|s| s.total_ns).collect::<Vec<_>>(),
            vec![20, 30, 40],
            "oldest spans evict first"
        );
        let a = rec.snapshot(Some("a"), None);
        assert_eq!(a.iter().map(|s| s.total_ns).collect::<Vec<_>>(), vec![30]);
        let last = rec.snapshot(None, Some(1));
        assert_eq!(last[0].transport, "broker");
    }

    #[test]
    fn disabled_query_recorder_drops_spans() {
        let rec = QuerySpanRecorder::disabled();
        rec.record(qspan("tcp", None, 10));
        assert!(rec.snapshot(None, None).is_empty());
    }

    #[test]
    fn slow_query_threshold_logs_without_dropping() {
        let rec = QuerySpanRecorder::new(4);
        rec.set_slow_threshold_ns(5);
        rec.record(qspan("tcp", Some("s"), 10));
        assert_eq!(rec.snapshot(None, None).len(), 1);
    }
}
