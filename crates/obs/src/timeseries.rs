//! Metrics history: a bounded ring of periodic registry snapshots.
//!
//! A `metrics` scrape is a point in time; the operator questions that
//! matter ("what changed in the last five minutes", "which session is
//! eating the box") need *history*. This module applies the system's
//! own standing-view idea to its telemetry: a fixed-capacity ring of
//! [`Sample`]s — timestamped copies of every counter and gauge —
//! recorded on the serve layer's metrics tick, scraped as the
//! `history` artifact, with **rate derivation at scrape time**
//! (Δcounter/Δt between samples, never stored).
//!
//! Histograms are deliberately not sampled: a sample is meant to be
//! small enough to record every few seconds forever, and the rates an
//! operator derives from history are counter deltas. The live
//! histogram summary is always one `metrics` query away.

use crate::ring::Ring;
use crate::{MetricsSnapshot, SeriesValue};

/// Samples retained by the process-global history ring. At the default
/// 15 s cadence this is over an hour of history in a few hundred KB.
pub const DEFAULT_HISTORY_CAPACITY: usize = 256;

/// One timestamped copy of the registry's counters and gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sample {
    /// Milliseconds since process start (see [`crate::uptime_ms`]) —
    /// a monotone time base, so Δt between samples is always sane.
    pub t_ms: u64,
    /// All counters at sample time, (name, session)-sorted.
    pub counters: Vec<SeriesValue>,
    /// All gauges at sample time, (name, session)-sorted.
    pub gauges: Vec<SeriesValue>,
}

/// One derived rate: a counter's Δvalue/Δt between two samples.
#[derive(Debug, Clone, PartialEq)]
pub struct RateRow {
    /// Counter name.
    pub name: String,
    /// Session label, when the series is per-session.
    pub session: Option<String>,
    /// Increments per second across the derivation window.
    pub per_second: f64,
}

/// A bounded, thread-safe ring of registry [`Sample`]s, touched once
/// per tick (seconds apart), never on a per-epoch or per-query path.
pub struct TimeSeries {
    ring: Ring<Sample>,
}

impl TimeSeries {
    /// An enabled ring retaining the freshest `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        TimeSeries {
            ring: Ring::new(capacity),
        }
    }

    /// A ring that drops everything (the `DNA_OBS_DISABLED` form).
    pub fn disabled() -> Self {
        TimeSeries {
            ring: Ring::disabled(),
        }
    }

    /// Whether this ring keeps anything.
    pub fn enabled(&self) -> bool {
        self.ring.enabled()
    }

    /// Records one sample of a registry scrape at `t_ms`, evicting the
    /// oldest beyond capacity. Samples must be recorded in time order;
    /// a sample older than the freshest retained one is dropped (the
    /// wire grammar promises non-decreasing timestamps).
    pub fn record(&self, t_ms: u64, snap: &MetricsSnapshot) {
        if !self.enabled() {
            return;
        }
        let sample = Sample {
            t_ms,
            counters: snap.counters.clone(),
            gauges: snap.gauges.clone(),
        };
        self.ring
            .push(sample, |freshest| freshest.is_none_or(|s| s.t_ms <= t_ms));
    }

    /// The retained samples, oldest first, optionally filtered to one
    /// session's series (process-wide series are always kept, exactly
    /// like a scoped `metrics` scrape) and truncated to the freshest
    /// `last` samples.
    pub fn snapshot(&self, session: Option<&str>, last: Option<usize>) -> Vec<Sample> {
        let keep = |s: &SeriesValue| match (session, &s.session) {
            (None, _) | (_, None) => true,
            (Some(want), Some(have)) => want == have,
        };
        self.ring.snapshot(last, |s| {
            Some(Sample {
                t_ms: s.t_ms,
                counters: s.counters.iter().filter(|r| keep(r)).cloned().collect(),
                gauges: s.gauges.iter().filter(|r| keep(r)).cloned().collect(),
            })
        })
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no samples yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Derives per-second counter rates between the first and last of
/// `samples` (Δcounter/Δt). Fewer than two samples — or a zero-width
/// window — derive nothing. Series absent from the first sample are
/// treated as starting at zero (they were registered mid-window);
/// counters are monotone, so deltas never go negative.
pub fn rates(samples: &[Sample]) -> Vec<RateRow> {
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return Vec::new();
    };
    let dt_ms = last.t_ms.saturating_sub(first.t_ms);
    if dt_ms == 0 {
        return Vec::new();
    }
    let base: std::collections::BTreeMap<(&str, Option<&str>), u64> = first
        .counters
        .iter()
        .map(|r| ((r.name.as_str(), r.session.as_deref()), r.value))
        .collect();
    last.counters
        .iter()
        .map(|r| {
            let before = base
                .get(&(r.name.as_str(), r.session.as_deref()))
                .copied()
                .unwrap_or(0);
            RateRow {
                name: r.name.clone(),
                session: r.session.clone(),
                per_second: r.value.saturating_sub(before) as f64 * 1_000.0 / dt_ms as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_at(reg: &Registry, ts: &TimeSeries, t_ms: u64) {
        ts.record(t_ms, &reg.snapshot(None));
    }

    #[test]
    fn ring_bounds_and_orders_samples() {
        let reg = Registry::new();
        let ts = TimeSeries::new(3);
        reg.counter("c").inc();
        for t in [10, 20, 30, 40] {
            sample_at(&reg, &ts, t);
        }
        let samples = ts.snapshot(None, None);
        assert_eq!(
            samples.iter().map(|s| s.t_ms).collect::<Vec<_>>(),
            vec![20, 30, 40],
            "oldest samples evict first"
        );
        // Out-of-order records are dropped, keeping timestamps
        // non-decreasing on the wire.
        sample_at(&reg, &ts, 5);
        assert_eq!(ts.snapshot(None, None).last().unwrap().t_ms, 40);
        let last = ts.snapshot(None, Some(2));
        assert_eq!(
            last.iter().map(|s| s.t_ms).collect::<Vec<_>>(),
            vec![30, 40]
        );
    }

    #[test]
    fn scoped_snapshot_keeps_globals_and_the_named_session() {
        let reg = Registry::new();
        let ts = TimeSeries::new(8);
        reg.counter("global_c").add(5);
        reg.counter_for("epochs_applied", "a").add(3);
        reg.counter_for("epochs_applied", "b").add(7);
        reg.gauge_for("depth", "a").set(2);
        sample_at(&reg, &ts, 100);
        let scoped = ts.snapshot(Some("a"), None);
        assert_eq!(scoped.len(), 1);
        let names: Vec<(&str, Option<&str>)> = scoped[0]
            .counters
            .iter()
            .map(|r| (r.name.as_str(), r.session.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![("epochs_applied", Some("a")), ("global_c", None)]
        );
        assert_eq!(scoped[0].gauges.len(), 1);
    }

    #[test]
    fn rates_derive_from_window_ends() {
        let reg = Registry::new();
        let ts = TimeSeries::new(8);
        let c = reg.counter_for("epochs_applied", "s");
        sample_at(&reg, &ts, 0);
        c.add(10);
        sample_at(&reg, &ts, 1_000);
        c.add(30);
        sample_at(&reg, &ts, 2_000);
        let derived = rates(&ts.snapshot(None, None));
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].name, "epochs_applied");
        assert_eq!(derived[0].session.as_deref(), Some("s"));
        assert!((derived[0].per_second - 20.0).abs() < 1e-9, "40 over 2s");
        // A series born mid-window rates from zero.
        reg.counter("late").add(4);
        sample_at(&reg, &ts, 4_000);
        let derived = rates(&ts.snapshot(None, None));
        let late = derived.iter().find(|r| r.name == "late").unwrap();
        assert!((late.per_second - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rates_need_two_samples_and_time() {
        assert!(rates(&[]).is_empty());
        let reg = Registry::new();
        let ts = TimeSeries::new(4);
        reg.counter("c").inc();
        sample_at(&reg, &ts, 50);
        assert!(rates(&ts.snapshot(None, None)).is_empty(), "one sample");
        sample_at(&reg, &ts, 50);
        assert!(
            rates(&ts.snapshot(None, None)).is_empty(),
            "zero-width window"
        );
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let reg = Registry::new();
        let ts = TimeSeries::disabled();
        reg.counter("c").inc();
        ts.record(10, &reg.snapshot(None));
        assert!(ts.snapshot(None, None).is_empty());
        assert!(ts.is_empty());
    }
}
