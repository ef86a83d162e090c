//! Published query views: the lock-free snapshot read path.
//!
//! The engine is thread-local, so PR 5's router funnels *every* query
//! through the owning session's command channel — N clients querying
//! one session serialize behind its ingest. This module breaks that
//! coupling for the read-only queries: after every applied epoch the
//! session publishes an immutable [`QueryView`] — frozen packet-class
//! arena, FIB, reach sets, the retained history window, and the
//! cumulative stats — into a [`ViewSlot`]. Reader threads (the
//! connection loop, [`crate::net`]) answer reach / reach-pair / blast /
//! report / stats queries straight from the latest published view,
//! never touching the engine thread; only mutating requests (snapshot
//! loads, trace ingest, checkpoints) still route to it.
//!
//! The slot is an arc-swap in spirit, built from std primitives: a
//! version counter readers poll with one atomic load, and a mutex they
//! take only when the version moved. A reader that cached `(version,
//! Arc<QueryView>)` answers an unchanged session without any lock at
//! all; the mutex is held for a pointer clone, never for engine work.
//! The mutex is poison-proof by construction (`crate::lock` recovers
//! a poisoned guard) — a reader panic must never wedge publishing, nor
//! the reverse.

use crate::read::ReadState;
use data_plane::Outcome;
use dna_core::EngineView;
use dna_io::{EpochDiff, QueryKind, Response, ServiceStats};
use net_model::{Flow, Ipv4Addr};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An immutable, self-contained answer table for one session at one
/// epoch. Everything a read-only query needs is captured at publish
/// time; answering never reaches back into the live session, so the
/// engine thread and any number of readers proceed independently.
///
/// Answers are byte-identical to the live session's by construction:
/// [`QueryView::answer`] and `Session::answer` run the one
/// implementation in `read.rs` over their own state.
pub struct QueryView {
    pub(crate) session: String,
    pub(crate) engine: EngineView,
    /// Destination resolution index: device name → canonical
    /// (lowest-named interface) address, `None` for a device with no
    /// interfaces.
    pub(crate) devices: BTreeMap<String, Option<Ipv4Addr>>,
    /// The retained history window at capture time. `Arc` per epoch:
    /// publishing after epoch N shares N-1 diffs with the previous
    /// view instead of deep-copying the window every epoch.
    pub(crate) history: Vec<(usize, Arc<EpochDiff>)>,
    pub(crate) stats: ServiceStats,
}

impl QueryView {
    /// The session this view was published by.
    pub fn session(&self) -> &str {
        &self.session
    }

    /// Epochs applied when this view was captured.
    pub fn epochs(&self) -> u64 {
        self.stats.epochs
    }

    /// Answers a read-only query from the captured state; `None` for
    /// the kinds a view cannot answer (`sessions` is server-level,
    /// `checkpoint` mutates durable state, standing-query commands
    /// mutate the session) — those still route to the engine thread.
    pub fn answer(&self, kind: &QueryKind) -> Option<Response> {
        crate::read::answer(self, kind)
    }
}

impl ReadState for QueryView {
    fn device_addr(&self, device: &str) -> Option<Option<Ipv4Addr>> {
        self.devices.get(device).copied()
    }

    fn outcomes(&self, src: &str, flow: &Flow) -> Option<BTreeSet<Outcome>> {
        Some(self.engine.query(src, flow))
    }

    fn history(&self) -> impl DoubleEndedIterator<Item = (usize, &EpochDiff)> + ExactSizeIterator {
        self.history.iter().map(|(i, diff)| (*i, &**diff))
    }

    fn stats(&self) -> ServiceStats {
        self.stats.clone()
    }
}

/// One session's published-view cell. Writers ([`ViewSlot::publish`] /
/// [`ViewSlot::clear`]) swap the pointer and bump the version; readers
/// poll [`ViewSlot::version`] with a single atomic load and call
/// [`ViewSlot::load`] only when it moved (see [`ViewReader`] for the
/// cache that makes the fast path lock-free).
#[derive(Default)]
pub struct ViewSlot {
    /// Bumped after every pointer swap. Starts at 0 = nothing ever
    /// published, so a reader's initial cache (version 0, no view)
    /// is correct without a first load.
    version: AtomicU64,
    slot: Mutex<Option<Arc<QueryView>>>,
}

impl ViewSlot {
    /// An empty slot (no view published yet).
    pub fn new() -> Self {
        ViewSlot::default()
    }

    /// Publishes a new immutable view, replacing any previous one.
    pub fn publish(&self, view: Arc<QueryView>) {
        self.swap(Some(view));
    }

    /// Withdraws the published view (session failed or was replaced by
    /// one that has not published yet): readers fall back to routing
    /// through the engine thread, which owns the error story.
    pub fn clear(&self) {
        self.swap(None);
    }

    fn swap(&self, next: Option<Arc<QueryView>>) {
        let mut guard = crate::lock(&self.slot);
        let previous = std::mem::replace(&mut *guard, next);
        // Bump inside the guard: a reader that sees the new version is
        // guaranteed to load at least this view, never an older one.
        self.version.fetch_add(1, Ordering::Release);
        drop(guard);
        // Freed only now: when this was the last reference, dropping a
        // whole pset arena and reach map must not hold up `load`.
        drop(previous);
    }

    /// The current publish version — one atomic load, the whole cost
    /// of the read fast path when nothing changed.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Loads the current `(version, view)` pair through the mutex —
    /// the slow path, taken only when [`ViewSlot::version`] moved.
    pub fn load(&self) -> (u64, Option<Arc<QueryView>>) {
        let guard = crate::lock(&self.slot);
        // Version read under the guard pairs with the bump in
        // `publish`: the pair is always mutually consistent.
        (self.version.load(Ordering::Acquire), guard.clone())
    }
}

/// A per-reader cache over one [`ViewSlot`]: answers from the cached
/// `Arc<QueryView>` with zero locks while the slot's version is
/// unchanged, refreshing through the mutex only when an epoch was
/// published (or withdrawn) since the last look.
#[derive(Default)]
pub struct ViewReader {
    version: u64,
    view: Option<Arc<QueryView>>,
}

impl ViewReader {
    /// An empty cache (as if version 0 was observed).
    pub fn new() -> Self {
        ViewReader::default()
    }

    /// The freshest published view, refreshing the cache if the slot
    /// moved. `None` while nothing is published.
    pub fn current(&mut self, slot: &ViewSlot) -> Option<&Arc<QueryView>> {
        if slot.version() != self.version {
            let (version, view) = slot.load();
            self.version = version;
            self.view = view;
        }
        self.view.as_ref()
    }
}

/// The server-wide directory of view slots, shared between the router
/// (whose session threads publish) and every reader thread. Slots are
/// created eagerly when a session thread spawns and live as long as
/// the registry, so readers can hold an `Arc<ViewSlot>` without
/// worrying about session lifecycle.
#[derive(Default)]
pub struct ViewRegistry {
    inner: Mutex<RegistryInner>,
    /// Queries answered from published views (never routed to an
    /// engine thread). Observability hook: the TCP smoke test asserts
    /// it is nonzero, proving the read path actually served.
    served: AtomicU64,
}

#[derive(Default)]
struct RegistryInner {
    slots: BTreeMap<String, Arc<ViewSlot>>,
    default: Option<String>,
}

impl ViewRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ViewRegistry::default()
    }

    /// The named session's slot, created (empty) if absent.
    pub fn slot(&self, name: &str) -> Arc<ViewSlot> {
        let mut inner = crate::lock(&self.inner);
        Arc::clone(inner.slots.entry(name.to_string()).or_default())
    }

    /// Records which session unaddressed queries resolve to (the
    /// router's default stream target; first session opened).
    pub fn set_default(&self, name: Option<&str>) {
        crate::lock(&self.inner).default = name.map(str::to_string);
    }

    /// Resolves a query's (optional) session name to its slot, if one
    /// exists: `None` falls back to the default session. An unknown
    /// name returns `None` — the caller routes to the engine side,
    /// which owns the "unknown session" error.
    pub fn resolve(&self, session: Option<&str>) -> Option<Arc<ViewSlot>> {
        let inner = crate::lock(&self.inner);
        let name = session.or(inner.default.as_deref())?;
        inner.slots.get(name).map(Arc::clone)
    }

    /// Counts one query answered from the named session's published
    /// view: the instance counter (asserted by in-process tests that
    /// must not see each other's counts) and the process-global
    /// `view_served` gauge both move.
    pub fn note_served(&self, session: &str) {
        self.served.fetch_add(1, Ordering::Relaxed);
        dna_obs::global().gauge_for("view_served", session).add(1);
    }

    /// Queries answered from published views so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_view(session: &str, epochs: u64) -> Arc<QueryView> {
        let stats = ServiceStats {
            session: session.to_string(),
            epochs,
            retained: 0,
            retained_from: 0,
            devices: 0,
            links: 0,
            classes: 0,
            tuples: 0,
            flows: 0,
            mismatches: 0,
            cp_us: 0,
            dp_us: 0,
            total_us: 0,
        };
        Arc::new(QueryView {
            session: session.to_string(),
            engine: dna_core::DiffEngine::new(net_model::NetBuilder::new().router("r").build())
                .expect("one-router engine")
                .view(),
            devices: BTreeMap::new(),
            history: Vec::new(),
            stats,
        })
    }

    #[test]
    fn slot_versions_gate_reloads() {
        let slot = ViewSlot::new();
        let mut reader = ViewReader::new();
        // Nothing published: version 0, no view, no lock taken.
        assert_eq!(slot.version(), 0);
        assert!(reader.current(&slot).is_none());
        slot.publish(dummy_view("s", 1));
        assert_eq!(slot.version(), 1);
        assert_eq!(reader.current(&slot).expect("published").epochs(), 1);
        slot.publish(dummy_view("s", 2));
        assert_eq!(reader.current(&slot).expect("published").epochs(), 2);
        // Clearing withdraws the view and moves the version again.
        slot.clear();
        assert_eq!(slot.version(), 3);
        assert!(reader.current(&slot).is_none());
    }

    #[test]
    fn slot_survives_a_poisoned_mutex() {
        let slot = Arc::new(ViewSlot::new());
        slot.publish(dummy_view("s", 1));
        let poisoner = Arc::clone(&slot);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.slot.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(slot.slot.is_poisoned(), "test must actually poison");
        // Readers and writers both shrug the poison off.
        let (_, view) = slot.load();
        assert_eq!(view.expect("still published").epochs(), 1);
        slot.publish(dummy_view("s", 2));
        let mut reader = ViewReader::new();
        assert_eq!(reader.current(&slot).expect("published").epochs(), 2);
    }

    #[test]
    fn registry_resolves_names_and_default() {
        let reg = ViewRegistry::new();
        assert!(reg.resolve(None).is_none());
        assert!(reg.resolve(Some("a")).is_none());
        let a = reg.slot("a");
        a.publish(dummy_view("a", 3));
        // Named lookup finds the same slot object.
        let resolved = reg.resolve(Some("a")).expect("slot exists");
        assert_eq!(resolved.version(), a.version());
        // Unaddressed queries need a default.
        assert!(reg.resolve(None).is_none());
        reg.set_default(Some("a"));
        assert!(reg.resolve(None).is_some());
        assert!(reg.resolve(Some("ghost")).is_none());
        assert_eq!(reg.served(), 0);
        reg.note_served("a");
        assert_eq!(reg.served(), 1);
    }
}
