//! Standing queries: incrementally-maintained subscriptions and the
//! notify fan-out hub.
//!
//! A `subscribe …` query (wire grammar v5, see FORMAT.md) registers a
//! **materialized view** on its session: the question is resolved and
//! answered once at subscribe time, and from then on every applied
//! commit re-evaluates it *from the commit's own diff* — a commit whose
//! [`dna_io::EpochDiff`] does not intersect the subscription's support
//! produces zero work and zero bytes. When the answer changes, the
//! session appends one [`dna_io::NotifyEvent`] per commit to the
//! subscription's bounded poll queue and — when a [`NotifyHub`] is
//! attached (a socket door exists) — publishes a rendered `notify`
//! artifact to every watching connection.
//!
//! Delivery never blocks the engine: both the per-subscription poll
//! queue and each watcher's push queue are bounded, dropping the
//! *oldest* events on overflow and recording the gap. The next drain
//! then leads with a `resync` event so subscribers know to re-establish
//! state by polling. Because evaluation compares canonical answer sets
//! and events serialize canonically, a pushed stream and a
//! poll-after-every-epoch drain of the same subscription are
//! byte-identical (pinned by `tests/subs_equivalence.rs`).

use data_plane::Outcome;
use dna_io::{write_notify, Notify, NotifyEvent};
use net_model::Flow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};

/// Events retained per subscription for the `notifications <id>` poll.
/// Oldest events beyond the cap are dropped and surfaced as a `resync`.
pub(crate) const POLL_QUEUE_CAP: usize = 256;

/// Rendered artifacts queued per (watcher, subscription) on the push
/// path. A slow consumer overflows its own queue; the engine and
/// every other consumer are unaffected.
pub(crate) const WATCH_QUEUE_CAP: usize = 64;

/// What a subscription watches, with its resolution (device existence,
/// destination address) and last answer fixed at subscribe time.
pub(crate) enum SubKind {
    /// `subscribe reach` / `subscribe reach-pair`: notify when the
    /// outcome set of (src, flow) changes.
    Reach {
        /// Source device (validated at subscribe time).
        src: String,
        /// The concrete flow (reach-pair destinations resolve to their
        /// canonical TCP/80 flow once, at subscribe time).
        flow: Flow,
        /// The last answer delivered (or the subscribe-time baseline).
        last: BTreeSet<Outcome>,
    },
    /// `subscribe blast`: notify when a commit's diff contains flow
    /// changes sourced at the device.
    Blast {
        /// The watched source device.
        device: String,
    },
    /// `subscribe invariant …`: notify when the underlying outcome set
    /// changes, carrying the re-derived verdict.
    Invariant {
        /// Which invariant the verdict is derived under.
        check: InvariantCheck,
        /// Source device of the watched flow.
        src: String,
        /// The concrete flow under the invariant.
        flow: Flow,
        /// The last outcome set the verdict was derived from.
        last: BTreeSet<Outcome>,
    },
}

/// The verdict rule of an invariant subscription.
pub(crate) enum InvariantCheck {
    /// Violated iff the flow is delivered to the named device.
    NeverReach {
        /// The forbidden destination device.
        dst: String,
    },
    /// Violated iff any outcome is a blackhole.
    NoBlackhole,
}

impl InvariantCheck {
    /// Derives the verdict from an outcome set.
    pub(crate) fn holds(&self, outcomes: &BTreeSet<Outcome>) -> bool {
        match self {
            InvariantCheck::NeverReach { dst } => !outcomes
                .iter()
                .any(|o| matches!(o, Outcome::Delivered(d) if d == dst)),
            InvariantCheck::NoBlackhole => {
                !outcomes.iter().any(|o| matches!(o, Outcome::Blackhole(_)))
            }
        }
    }
}

/// One live subscription: its materialized view plus the bounded queue
/// the `notifications <id>` poll drains.
pub(crate) struct Subscription {
    pub(crate) kind: SubKind,
    pending: VecDeque<NotifyEvent>,
    /// Events dropped from `pending` since the last drain.
    dropped: u64,
    /// Commit index of the newest dropped event.
    drop_epoch: u64,
}

impl Subscription {
    fn new(kind: SubKind) -> Self {
        Subscription {
            kind,
            pending: VecDeque::new(),
            dropped: 0,
            drop_epoch: 0,
        }
    }

    /// Appends one event for the poll path, dropping the oldest pending
    /// event (recording the gap) when the bounded queue is full.
    pub(crate) fn push(&mut self, ev: NotifyEvent) {
        while self.pending.len() >= POLL_QUEUE_CAP {
            if let Some(old) = self.pending.pop_front() {
                self.dropped += 1;
                self.drop_epoch = self.drop_epoch.max(old.epoch());
            }
        }
        self.pending.push_back(ev);
    }

    /// Takes everything pending, led by a `resync` marker when events
    /// were dropped since the previous drain.
    fn drain(&mut self) -> Vec<NotifyEvent> {
        let mut events = Vec::with_capacity(self.pending.len() + 1);
        if self.dropped > 0 {
            events.push(NotifyEvent::Resync {
                epoch: self.drop_epoch,
                dropped: self.dropped,
            });
            self.dropped = 0;
            self.drop_epoch = 0;
        }
        events.extend(self.pending.drain(..));
        events
    }
}

/// The per-session table of standing queries. Lives inside a `Mutex`
/// on the session (subscribe/poll arrive on `&self` query paths while
/// evaluation runs on the ingest path); ids are per-session, starting
/// at 1, and never reused.
#[derive(Default)]
pub(crate) struct SubscriptionRegistry {
    next_id: u64,
    subs: BTreeMap<u64, Subscription>,
}

impl SubscriptionRegistry {
    /// Registers a materialized view, returning its fresh id.
    pub(crate) fn insert(&mut self, kind: SubKind) -> u64 {
        self.next_id += 1;
        self.subs.insert(self.next_id, Subscription::new(kind));
        self.next_id
    }

    /// Removes a subscription; `false` when the id is unknown.
    pub(crate) fn remove(&mut self, id: u64) -> bool {
        self.subs.remove(&id).is_some()
    }

    /// Drains a subscription's pending events; `None` for unknown ids.
    pub(crate) fn drain(&mut self, id: u64) -> Option<Vec<NotifyEvent>> {
        self.subs.get_mut(&id).map(Subscription::drain)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.subs.len()
    }

    /// Iterates the live subscriptions mutably (commit-tail evaluation
    /// updates each view's `last` answer in place).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut Subscription)> {
        self.subs.iter_mut().map(|(id, s)| (*id, s))
    }
}

/// One connection's registration on the hub.
struct Watcher {
    /// Set when the connection goes away; `wait` returns `None` and the
    /// pusher thread exits.
    closed: bool,
    /// Bounded artifact queues, one per watched (session, sub id).
    queues: BTreeMap<(String, u64), WatchQueue>,
}

#[derive(Default)]
struct WatchQueue {
    artifacts: VecDeque<(u64, String)>,
    dropped: u64,
    drop_epoch: u64,
}

/// The push-delivery fan-out between session engine threads and
/// connection threads. Engine threads call [`NotifyHub::publish`] after
/// a commit changed a subscription's answer — a bounded enqueue plus a
/// condvar signal, never a socket write, so a slow consumer can never
/// block ingest. Each subscribed connection runs a pusher thread
/// blocked in [`NotifyHub::wait`], draining its own queues onto its own
/// socket; overflow drops the oldest artifacts and the next drain leads
/// with a `resync` notify for the gapped subscription.
#[derive(Default)]
pub struct NotifyHub {
    inner: Mutex<BTreeMap<u64, Watcher>>,
    next_id: Mutex<u64>,
    ready: Condvar,
}

impl NotifyHub {
    /// An empty hub.
    pub fn new() -> Self {
        NotifyHub::default()
    }

    /// Registers a connection, returning its watcher id.
    pub fn register(&self) -> u64 {
        let mut next = crate::lock(&self.next_id);
        *next += 1;
        let id = *next;
        drop(next);
        crate::lock(&self.inner).insert(
            id,
            Watcher {
                closed: false,
                queues: BTreeMap::new(),
            },
        );
        id
    }

    /// Subscribes a watcher to pushes for (session, subscription id).
    pub fn watch(&self, watcher: u64, session: &str, sub: u64) {
        if let Some(w) = crate::lock(&self.inner).get_mut(&watcher) {
            w.queues.entry((session.to_string(), sub)).or_default();
        }
    }

    /// Removes a connection; its pusher thread (if blocked in
    /// [`NotifyHub::wait`]) wakes and exits.
    pub fn unregister(&self, watcher: u64) {
        if let Some(w) = crate::lock(&self.inner).get_mut(&watcher) {
            w.closed = true;
        }
        self.ready.notify_all();
    }

    /// Whether any watcher is subscribed to (session, sub) — lets the
    /// engine skip rendering artifacts nobody is listening for.
    pub fn wanted(&self, session: &str, sub: u64) -> bool {
        crate::lock(&self.inner)
            .values()
            .any(|w| !w.closed && w.queues.contains_key(&(session.to_string(), sub)))
    }

    /// Enqueues one rendered notify artifact for every watcher of
    /// (session, sub). Bounded: a full watcher queue drops its oldest
    /// artifact and records the gap. Never blocks on I/O.
    pub fn publish(&self, session: &str, sub: u64, epoch: u64, artifact: &str) {
        let key = (session.to_string(), sub);
        let mut inner = crate::lock(&self.inner);
        let mut delivered = false;
        for w in inner.values_mut() {
            if w.closed {
                continue;
            }
            let Some(q) = w.queues.get_mut(&key) else {
                continue;
            };
            while q.artifacts.len() >= WATCH_QUEUE_CAP {
                if let Some((e, _)) = q.artifacts.pop_front() {
                    q.dropped += 1;
                    q.drop_epoch = q.drop_epoch.max(e);
                }
            }
            q.artifacts.push_back((epoch, artifact.to_string()));
            delivered = true;
        }
        drop(inner);
        if delivered {
            self.ready.notify_all();
        }
    }

    /// Blocks until the watcher has artifacts to push (or was closed),
    /// then takes them in epoch order per subscription, prepending a
    /// `resync` notify for any subscription whose queue overflowed.
    /// Returns `None` once the watcher is closed and drained.
    pub fn wait(&self, watcher: u64) -> Option<Vec<String>> {
        let mut inner = crate::lock(&self.inner);
        loop {
            let w = inner.get_mut(&watcher)?;
            let mut out = Vec::new();
            for ((session, sub), q) in w.queues.iter_mut() {
                if q.dropped > 0 {
                    out.push(write_notify(&Notify {
                        subscription: *sub,
                        session: session.clone(),
                        events: vec![NotifyEvent::Resync {
                            epoch: q.drop_epoch,
                            dropped: q.dropped,
                        }],
                    }));
                    q.dropped = 0;
                    q.drop_epoch = 0;
                }
                out.extend(q.artifacts.drain(..).map(|(_, a)| a));
            }
            if !out.is_empty() {
                return Some(out);
            }
            if w.closed {
                inner.remove(&watcher);
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_queue_bounds_and_resyncs() {
        let mut reg = SubscriptionRegistry::default();
        let id = reg.insert(SubKind::Blast { device: "d".into() });
        assert_eq!(id, 1);
        let sub = reg.subs.get_mut(&id).expect("known id");
        for epoch in 0..(POLL_QUEUE_CAP as u64 + 3) {
            sub.push(NotifyEvent::Blast { epoch, flows: 1 });
        }
        let events = reg.drain(id).expect("known id");
        // Overflow dropped the 3 oldest; the drain leads with the gap.
        assert_eq!(events.len(), POLL_QUEUE_CAP + 1);
        assert_eq!(
            events[0],
            NotifyEvent::Resync {
                epoch: 2,
                dropped: 3
            }
        );
        assert_eq!(events[1].epoch(), 3);
        // A second drain is empty (and resync-free).
        assert_eq!(reg.drain(id).expect("known id"), Vec::new());
        assert!(reg.remove(id));
        assert!(!reg.remove(id));
        assert!(reg.drain(id).is_none());
    }

    #[test]
    fn invariant_verdicts() {
        let delivered: BTreeSet<Outcome> = [Outcome::Delivered("b".into())].into_iter().collect();
        let holed: BTreeSet<Outcome> = [Outcome::Blackhole("m".into())].into_iter().collect();
        let never = InvariantCheck::NeverReach { dst: "b".into() };
        assert!(!never.holds(&delivered));
        assert!(never.holds(&holed));
        let nb = InvariantCheck::NoBlackhole;
        assert!(nb.holds(&delivered));
        assert!(!nb.holds(&holed));
        assert!(never.holds(&BTreeSet::new()) && nb.holds(&BTreeSet::new()));
    }

    #[test]
    fn hub_fans_out_bounded_and_unblocks_on_close() {
        let hub = std::sync::Arc::new(NotifyHub::new());
        let w = hub.register();
        hub.watch(w, "s", 1);
        assert!(hub.wanted("s", 1));
        assert!(!hub.wanted("s", 2));
        // Overflow the watch queue: oldest artifacts drop, the drain
        // leads with a synthesized resync notify.
        for epoch in 0..(WATCH_QUEUE_CAP as u64 + 2) {
            hub.publish("s", 1, epoch, &format!("artifact-{epoch}"));
        }
        let batch = hub.wait(w).expect("artifacts pending");
        assert_eq!(batch.len(), WATCH_QUEUE_CAP + 1);
        let resync = dna_io::parse_notify(&batch[0]).expect("resync notify parses");
        assert_eq!(
            resync.events,
            vec![NotifyEvent::Resync {
                epoch: 1,
                dropped: 2
            }]
        );
        assert_eq!(batch[1], "artifact-2");
        // Publishing to an unwatched key delivers nothing.
        hub.publish("s", 2, 0, "ghost");
        hub.publish("other", 1, 0, "ghost");
        // Closing from another thread unblocks the waiter.
        let closer = std::sync::Arc::clone(&hub);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            closer.unregister(w);
        });
        assert_eq!(hub.wait(w), None);
        t.join().unwrap();
        assert!(!hub.wanted("s", 1));
    }
}
