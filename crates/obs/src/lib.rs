//! # dna-obs — the telemetry substrate of the reproduction
//!
//! Every long-running plane of the system (router ingest, session
//! engine threads, view publish/withdraw, the socket front doors,
//! checkpoint writes, the standing-query subscription plane) records
//! into one lock-cheap [`Registry`] of atomic counters, gauges and
//! fixed-bucket latency histograms, and every applied epoch leaves a
//! parse → control-plane → data-plane → view-publish span in a
//! bounded [`SpanRecorder`] ring. On top of the registry sit the
//! per-session accounting bundle ([`SessionAccounting`]: queue depth,
//! lag, heartbeat, failure and memory gauges — what the `health`
//! classification reads), a per-query span ring with slow-query
//! logging, and a fixed-capacity [`TimeSeries`] history of periodic
//! registry samples from which [`rates`] derives Δcounter/Δt at read
//! time. The serve layer exposes all of it as the `metrics` /
//! `spans` / `history` / `health` `dna-io` artifacts
//! (`dna query metrics|trace|history|health`); this crate owns only
//! the recording side and stays dependency-free so any crate may
//! instrument itself.
//!
//! Design rules:
//!
//! * **Lock-cheap hot path.** Registration (name → series lookup)
//!   takes a mutex once per handle; recording on a held handle is a
//!   handful of atomic adds. Callers on per-epoch paths keep handles.
//! * **Monotone counters.** [`Counter`] only moves up; [`Gauge`] may
//!   be set or adjusted. A scrape may be stale but never torn: a
//!   histogram snapshot always satisfies `count >= Σ bucket counts`
//!   (writers bump `count` *before* the bucket, readers read buckets
//!   *before* `count`).
//! * **Kill switch.** `DNA_OBS_DISABLED=1` in the environment turns
//!   the process-global registry and recorder into no-ops at first
//!   use — the lever the E12 overhead experiment measures against.
//!
//! The process-global entry points are [`global()`] and [`spans()`];
//! tests that need isolation build their own [`Registry`] /
//! [`SpanRecorder`] instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod env;
pub mod log;
mod ring;
mod span;
pub mod timeseries;

pub use env::{env, Env};
pub use span::{EpochSpan, QuerySpan, QuerySpanRecorder, SpanRecorder, DEFAULT_SPAN_CAPACITY};
pub use timeseries::{rates, RateRow, Sample, TimeSeries, DEFAULT_HISTORY_CAPACITY};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Upper bounds (microseconds) of the histogram's finite buckets; one
/// overflow bucket catches everything above the last bound. Spanning
/// 50µs..1s covers every latency this system records, from a view
/// publish to a cold sharded bring-up epoch.
pub const BUCKET_BOUNDS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// Buckets per histogram: the finite bounds plus the overflow bucket.
pub const BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// A series key: metric name plus an optional session label, so one
/// name (`epochs_applied`) fans out per session while process-wide
/// series (`tcp_connections`) stay unlabeled.
type Key = (String, Option<String>);

struct CounterInner {
    value: AtomicU64,
    enabled: bool,
}

/// A monotonically non-decreasing series handle. Cheap to clone; all
/// clones share the same cell.
#[derive(Clone)]
pub struct Counter(Arc<CounterInner>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if self.0.enabled {
            self.0.value.fetch_add(n, Ordering::SeqCst);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::SeqCst)
    }
}

/// A point-in-time series handle: may move in either direction.
#[derive(Clone)]
pub struct Gauge(Arc<CounterInner>);

impl Gauge {
    /// Sets the gauge to an absolute value.
    pub fn set(&self, v: u64) {
        if self.0.enabled {
            self.0.value.store(v, Ordering::SeqCst);
        }
    }

    /// Adjusts the gauge upward.
    pub fn add(&self, n: u64) {
        if self.0.enabled {
            self.0.value.fetch_add(n, Ordering::SeqCst);
        }
    }

    /// Adjusts the gauge downward (saturating at zero).
    pub fn sub(&self, n: u64) {
        if self.0.enabled {
            let _ = self
                .0
                .value
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                    Some(v.saturating_sub(n))
                });
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::SeqCst)
    }
}

struct HistogramInner {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    enabled: bool,
}

/// A fixed-bucket latency histogram handle. Observation order (count
/// before bucket) and snapshot order (buckets before count) together
/// guarantee `count >= Σ buckets` in every concurrent scrape.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one latency observation.
    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one latency observation in nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        if !self.0.enabled {
            return;
        }
        // Count first, bucket second: a reader that sees the bucket
        // increment is guaranteed to see the count increment too.
        self.0.count.fetch_add(1, Ordering::SeqCst);
        self.0.sum_ns.fetch_add(ns, Ordering::SeqCst);
        let us = ns / 1_000;
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKETS - 1);
        self.0.buckets[idx].fetch_add(1, Ordering::SeqCst);
    }

    /// A consistent point-in-time copy (buckets read before count, so
    /// the `count >= Σ buckets` invariant holds under concurrency).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *slot = b.load(Ordering::SeqCst);
        }
        let sum_ns = self.0.sum_ns.load(Ordering::SeqCst);
        let count = self.0.count.load(Ordering::SeqCst);
        HistogramSnapshot {
            count,
            sum_ns,
            buckets,
        }
    }
}

/// A scraped histogram: total count, total latency, per-bucket counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded (≥ the sum of `buckets` in any scrape).
    pub count: u64,
    /// Sum of all observed latencies, nanoseconds.
    pub sum_ns: u64,
    /// Per-bucket counts: one per [`BUCKET_BOUNDS_US`] entry plus the
    /// trailing overflow bucket.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// The bucket-resolution `q`-quantile in microseconds (`q` in
    /// 0..=1): the upper bound of the bucket holding the rank-`q`
    /// observation, saturating at the last finite bound for overflow.
    /// Zero when the histogram is empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return BUCKET_BOUNDS_US
                    .get(i)
                    .copied()
                    .unwrap_or(BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]);
            }
        }
        BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]
    }
}

/// One scraped counter or gauge value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesValue {
    /// Metric name.
    pub name: String,
    /// Session label, when the series is per-session.
    pub session: Option<String>,
    /// The value at scrape time.
    pub value: u64,
}

/// One scraped histogram with its identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramValue {
    /// Metric name.
    pub name: String,
    /// Session label, when the series is per-session.
    pub session: Option<String>,
    /// The scraped contents.
    pub snapshot: HistogramSnapshot,
}

/// A full registry scrape, every section sorted by (name, session) so
/// serializations downstream are canonical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<SeriesValue>,
    /// All gauges.
    pub gauges: Vec<SeriesValue>,
    /// All histograms.
    pub histograms: Vec<HistogramValue>,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<Key, Counter>,
    gauges: BTreeMap<Key, Gauge>,
    histograms: BTreeMap<Key, Histogram>,
}

/// The metrics registry: get-or-create series handles by name (and
/// optional session label), scrape them all as one sorted snapshot.
pub struct Registry {
    enabled: bool,
    inner: Mutex<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Recovers the guarded value whether or not another thread panicked
/// while holding the lock — registry state is atomics all the way
/// down, so there is no torn invariant to protect.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        Registry {
            enabled: true,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// A registry whose handles are all no-ops (the `DNA_OBS_DISABLED`
    /// form of the process-global registry).
    pub fn disabled() -> Self {
        Registry {
            enabled: false,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The process-wide counter named `name` (get-or-create).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_key(name, None)
    }

    /// The per-session counter `name{session}` (get-or-create).
    pub fn counter_for(&self, name: &str, session: &str) -> Counter {
        self.counter_key(name, Some(session))
    }

    fn counter_key(&self, name: &str, session: Option<&str>) -> Counter {
        let enabled = self.enabled;
        lock(&self.inner)
            .counters
            .entry((name.to_string(), session.map(str::to_string)))
            .or_insert_with(|| {
                Counter(Arc::new(CounterInner {
                    value: AtomicU64::new(0),
                    enabled,
                }))
            })
            .clone()
    }

    /// The process-wide gauge named `name` (get-or-create).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_key(name, None)
    }

    /// The per-session gauge `name{session}` (get-or-create).
    pub fn gauge_for(&self, name: &str, session: &str) -> Gauge {
        self.gauge_key(name, Some(session))
    }

    fn gauge_key(&self, name: &str, session: Option<&str>) -> Gauge {
        let enabled = self.enabled;
        lock(&self.inner)
            .gauges
            .entry((name.to_string(), session.map(str::to_string)))
            .or_insert_with(|| {
                Gauge(Arc::new(CounterInner {
                    value: AtomicU64::new(0),
                    enabled,
                }))
            })
            .clone()
    }

    /// The process-wide histogram named `name` (get-or-create).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_key(name, None)
    }

    /// The per-session histogram `name{session}` (get-or-create).
    pub fn histogram_for(&self, name: &str, session: &str) -> Histogram {
        self.histogram_key(name, Some(session))
    }

    fn histogram_key(&self, name: &str, session: Option<&str>) -> Histogram {
        let enabled = self.enabled;
        lock(&self.inner)
            .histograms
            .entry((name.to_string(), session.map(str::to_string)))
            .or_insert_with(|| {
                Histogram(Arc::new(HistogramInner {
                    count: AtomicU64::new(0),
                    sum_ns: AtomicU64::new(0),
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    enabled,
                }))
            })
            .clone()
    }

    /// Removes one series (counter, gauge and/or histogram under this
    /// key) from the registry, so future scrapes no longer list it.
    /// Handles already held keep working against the detached cells —
    /// removal is a scrape-visibility operation, never a data race.
    pub fn remove(&self, name: &str, session: Option<&str>) {
        let key: Key = (name.to_string(), session.map(str::to_string));
        let mut inner = lock(&self.inner);
        inner.counters.remove(&key);
        inner.gauges.remove(&key);
        inner.histograms.remove(&key);
    }

    /// Scrapes every registered series, optionally keeping only the
    /// series labeled with `session` (unlabeled process-wide series
    /// are always kept — a session-scoped scrape still wants them).
    pub fn snapshot(&self, session: Option<&str>) -> MetricsSnapshot {
        let keep = |k: &Key| match (session, &k.1) {
            (None, _) | (_, None) => true,
            (Some(want), Some(have)) => want == have,
        };
        let inner = lock(&self.inner);
        let series = |map: &BTreeMap<Key, Counter>| -> Vec<SeriesValue> {
            map.iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, c)| SeriesValue {
                    name: k.0.clone(),
                    session: k.1.clone(),
                    value: c.get(),
                })
                .collect()
        };
        let counters = series(&inner.counters);
        let gauges = inner
            .gauges
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, g)| SeriesValue {
                name: k.0.clone(),
                session: k.1.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = inner
            .histograms
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, h)| HistogramValue {
                name: k.0.clone(),
                session: k.1.clone(),
                snapshot: h.snapshot(),
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Per-session resource accounting: the gauge/histogram handles that
/// describe what one session *is costing the box right now*, resolved
/// once and shared by every plane that moves them (the router stamps
/// queue depth and wait, the engine thread beats the heartbeat, the
/// session layer maintains the byte gauges). Unlike the work counters
/// (`epochs_applied`, ...), which are a session's permanent record,
/// accounting series describe a live engine — so they are **torn down
/// with it**: [`SessionAccounting::retire`] removes them from scrapes
/// when the session's engine thread exits.
pub struct SessionAccounting {
    session: String,
    /// Ingest-queue depth: artifacts routed to the session's engine
    /// thread and not yet picked up (`ingest_queue_depth`).
    pub queue_depth: Gauge,
    /// Router→engine queue wait per command (`ingest_queue_wait_us`).
    pub queue_wait: Histogram,
    /// Change epochs enqueued but not yet applied (`epochs_behind`).
    pub epochs_behind: Gauge,
    /// Last engine-loop heartbeat, in [`uptime_ms`] time
    /// (`engine_heartbeat_ms`).
    pub heartbeat_ms: Gauge,
    /// 1 while the session is fenced off after an engine panic
    /// (`session_failed`).
    pub failed: Gauge,
    /// Canonical bytes of retained epoch history (`history_bytes`).
    pub history_bytes: Gauge,
    /// Estimated bytes of the last published query view (`view_bytes`).
    pub view_bytes: Gauge,
}

/// The accounting series names, in one place so registration and
/// teardown can never drift apart.
const ACCOUNTING_SERIES: [&str; 7] = [
    "ingest_queue_depth",
    "ingest_queue_wait_us",
    "epochs_behind",
    "engine_heartbeat_ms",
    "session_failed",
    "history_bytes",
    "view_bytes",
];

impl SessionAccounting {
    /// Resolves (get-or-create) the accounting series for `session` in
    /// `registry`. Multiple registrations for the same session share
    /// the same cells.
    pub fn register(registry: &Registry, session: &str) -> Self {
        SessionAccounting {
            session: session.to_string(),
            queue_depth: registry.gauge_for("ingest_queue_depth", session),
            queue_wait: registry.histogram_for("ingest_queue_wait_us", session),
            epochs_behind: registry.gauge_for("epochs_behind", session),
            heartbeat_ms: registry.gauge_for("engine_heartbeat_ms", session),
            failed: registry.gauge_for("session_failed", session),
            history_bytes: registry.gauge_for("history_bytes", session),
            view_bytes: registry.gauge_for("view_bytes", session),
        }
    }

    /// The session these series are labeled with.
    pub fn session(&self) -> &str {
        &self.session
    }

    /// Beats the heartbeat: records "the engine loop was here" at the
    /// current process uptime.
    pub fn beat(&self) {
        self.heartbeat_ms.set(uptime_ms());
    }

    /// Removes this session's accounting series from `registry`
    /// scrapes (the work counters stay — they are the session's
    /// record, not its live cost). Call when the engine thread exits.
    pub fn retire(&self, registry: &Registry) {
        for name in ACCOUNTING_SERIES {
            registry.remove(name, Some(&self.session));
        }
    }
}

/// Milliseconds since the process-wide monotonic epoch (first call
/// wins — every caller shares one [`std::time::Instant`] base). The
/// time base for heartbeats and history samples: wall-clock-free, so
/// Δt arithmetic never sees clock steps.
pub fn uptime_ms() -> u64 {
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_millis()
        .min(u64::MAX as u128) as u64
}

/// The process-global registry every subsystem records into. No-op
/// when `DNA_OBS_DISABLED` is set in the environment.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        if env().obs_disabled {
            Registry::disabled()
        } else {
            Registry::new()
        }
    })
}

/// The process-global epoch span recorder (the `dna query trace`
/// backing store). No-op under `DNA_OBS_DISABLED`. Its slow-epoch
/// threshold starts from `DNA_OBS_SLOW_EPOCH_MS` when set.
pub fn spans() -> &'static SpanRecorder {
    static GLOBAL: OnceLock<SpanRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let rec = if env().obs_disabled {
            SpanRecorder::disabled()
        } else {
            SpanRecorder::new(DEFAULT_SPAN_CAPACITY)
        };
        if let Some(ms) = env().slow_epoch_ms {
            rec.set_slow_threshold_ns(ms.saturating_mul(1_000_000));
        }
        rec
    })
}

/// The process-global query span recorder (the slow-query log's
/// backing store). No-op under `DNA_OBS_DISABLED`. Its slow-query
/// threshold starts from `DNA_OBS_SLOW_QUERY_US` when set.
pub fn query_spans() -> &'static QuerySpanRecorder {
    static GLOBAL: OnceLock<QuerySpanRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let rec = if env().obs_disabled {
            QuerySpanRecorder::disabled()
        } else {
            QuerySpanRecorder::new(DEFAULT_SPAN_CAPACITY)
        };
        if let Some(us) = env().slow_query_us {
            rec.set_slow_threshold_ns(us.saturating_mul(1_000));
        }
        rec
    })
}

/// The process-global metrics history ring (the `dna query history`
/// backing store). No-op under `DNA_OBS_DISABLED`. The serve layer's
/// metrics tick records into it; everyone else only reads.
pub fn history() -> &'static TimeSeries {
    static GLOBAL: OnceLock<TimeSeries> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        if env().obs_disabled {
            TimeSeries::disabled()
        } else {
            TimeSeries::new(DEFAULT_HISTORY_CAPACITY)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_move() {
        let r = Registry::new();
        let c = r.counter_for("epochs_applied", "s1");
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // The same key returns the same cell.
        assert_eq!(r.counter_for("epochs_applied", "s1").get(), 3);
        let g = r.gauge("depth");
        g.set(10);
        g.sub(3);
        g.add(1);
        assert_eq!(g.get(), 8);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauges saturate at zero");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for us in [10, 60, 60, 300, 2_000_000] {
            h.observe(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
        assert_eq!(s.buckets[0], 1, "10us lands in the 50us bucket");
        assert_eq!(s.buckets[1], 2, "60us lands in the 100us bucket");
        assert_eq!(s.buckets[BUCKETS - 1], 1, "2s overflows");
        assert_eq!(s.sum_ns, (10 + 60 + 60 + 300 + 2_000_000) * 1_000);
        assert_eq!(s.quantile_us(0.5), 100);
        assert_eq!(s.quantile_us(0.99), 1_000_000, "overflow saturates");
        assert_eq!(HistogramSnapshot::default_empty().quantile_us(0.5), 0);
    }

    impl HistogramSnapshot {
        fn default_empty() -> Self {
            HistogramSnapshot {
                count: 0,
                sum_ns: 0,
                buckets: [0; BUCKETS],
            }
        }
    }

    #[test]
    fn snapshot_is_sorted_and_filterable() {
        let r = Registry::new();
        r.counter_for("z", "b").inc();
        r.counter_for("a", "b").inc();
        r.counter("a").add(5);
        r.counter_for("a", "a").inc();
        let all = r.snapshot(None);
        let keys: Vec<(&str, Option<&str>)> = all
            .counters
            .iter()
            .map(|s| (s.name.as_str(), s.session.as_deref()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("a", None),
                ("a", Some("a")),
                ("a", Some("b")),
                ("z", Some("b"))
            ]
        );
        let only_b = r.snapshot(Some("b"));
        let keys: Vec<(&str, Option<&str>)> = only_b
            .counters
            .iter()
            .map(|s| (s.name.as_str(), s.session.as_deref()))
            .collect();
        // Process-wide series survive a session-scoped scrape.
        assert_eq!(keys, vec![("a", None), ("a", Some("b")), ("z", Some("b"))]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::disabled();
        let c = r.counter("n");
        c.add(5);
        let h = r.histogram("h");
        h.observe(Duration::from_millis(1));
        let g = r.gauge("g");
        g.set(9);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        // The series still exist (scrapes stay shape-stable).
        assert_eq!(r.snapshot(None).counters.len(), 1);
    }

    /// The torn-scrape invariant, hammered in-process: concurrent
    /// observers never let a snapshot's bucket total exceed its count.
    #[test]
    fn histogram_scrapes_are_never_torn() {
        let r = Registry::new();
        let h = r.histogram("race");
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        h.observe_ns((w * 1_000 + i) * 997);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        let s = h.snapshot();
                        let total: u64 = s.buckets.iter().sum();
                        assert!(
                            s.count >= total,
                            "torn scrape: count {} < bucket total {total}",
                            s.count
                        );
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 8_000);
    }

    #[test]
    fn removed_series_leave_scrapes_but_handles_survive() {
        let r = Registry::new();
        let c = r.counter_for("keep", "s");
        let g = r.gauge_for("drop", "s");
        g.set(7);
        r.remove("drop", Some("s"));
        let snap = r.snapshot(None);
        assert!(snap.gauges.is_empty(), "removed gauge no longer scraped");
        assert_eq!(snap.counters.len(), 1, "other series untouched");
        // The detached handle still works without panicking.
        g.set(9);
        assert_eq!(g.get(), 9);
        c.inc();
        assert_eq!(r.counter_for("keep", "s").get(), 1);
    }

    #[test]
    fn session_accounting_registers_and_retires_as_a_unit() {
        let r = Registry::new();
        let acct = SessionAccounting::register(&r, "sess");
        acct.queue_depth.set(3);
        acct.queue_wait.observe(Duration::from_micros(40));
        acct.epochs_behind.set(2);
        acct.beat();
        acct.failed.set(1);
        acct.history_bytes.set(1024);
        acct.view_bytes.set(2048);
        // The session's permanent record lives alongside.
        r.counter_for("epochs_applied", "sess").add(5);
        let snap = r.snapshot(Some("sess"));
        assert_eq!(snap.gauges.len(), 6, "six accounting gauges");
        assert_eq!(snap.histograms.len(), 1, "the queue-wait histogram");
        // Registration is shared: a second handle sees the same cells.
        assert_eq!(SessionAccounting::register(&r, "sess").queue_depth.get(), 3);
        acct.retire(&r);
        let snap = r.snapshot(None);
        assert!(snap.gauges.is_empty(), "accounting gauges retired");
        assert!(snap.histograms.is_empty(), "queue-wait histogram retired");
        assert_eq!(snap.counters.len(), 1, "work counters survive teardown");
    }

    #[test]
    fn uptime_is_monotone() {
        let a = uptime_ms();
        let b = uptime_ms();
        assert!(b >= a);
    }
}
