//! The data-plane verifier: per-atom forwarding resolution and network-wide
//! reachability, maintained incrementally under FIB and ACL-filter deltas.
//!
//! For every atom (packet equivalence class) the verifier knows, for every
//! source device, the set of possible [`Outcome`]s (delivery, external
//! exit, blackhole, ACL filtering, forwarding loop — sets because ECMP can
//! take different paths). An update dirties only the atoms whose behavior
//! could change: the atoms covered by the touched prefix or filter, plus
//! structural splits, whose untouched halves inherit their parent's results
//! — this is the differential data-plane half of the paper's pipeline.

use crate::atoms::{AtomChange, AtomId, AtomRegistry, PredId};
use crate::pset::{Pset, EMPTY, FULL};
use control_plane::{FibAction, FibEntry, NextDevice};
use net_model::{Acl, Flow, Ipv4Prefix, Snapshot};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Final fate of a packet class injected at some source device.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Outcome {
    /// Delivered into a connected subnet of this device.
    Delivered(String),
    /// Left the modeled network at this device (external peer / host next
    /// hop).
    External(String),
    /// Dropped at this device: null route or no matching route.
    Blackhole(String),
    /// Dropped by an ACL when crossing this device boundary.
    Filtered(String),
    /// Caught in a forwarding loop.
    Loop,
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Delivered(d) => write!(f, "delivered@{d}"),
            Outcome::External(d) => write!(f, "external@{d}"),
            Outcome::Blackhole(d) => write!(f, "blackhole@{d}"),
            Outcome::Filtered(d) => write!(f, "filtered@{d}"),
            Outcome::Loop => write!(f, "loop"),
        }
    }
}

/// Direction of an interface ACL.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Dir {
    /// Applied to packets entering the device on the interface.
    In,
    /// Applied to packets leaving the device on the interface.
    Out,
}

/// One filter (re)binding: the resolved ACL contents for an interface
/// direction (`None` clears the filter).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterChange {
    /// Device owning the interface.
    pub device: String,
    /// Interface name.
    pub iface: String,
    /// Direction.
    pub dir: Dir,
    /// New ACL contents (already resolved by name), or `None` to unbind.
    pub acl: Option<Acl>,
}

/// Resolved interface filters keyed by `(device, iface, direction)`: the
/// ACL contents each bound name resolves to (a name the device does not
/// define resolves to the empty ACL, i.e. deny-all).
pub type FilterBindings = BTreeMap<(String, String, Dir), Acl>;

/// The resolved filter bindings of the interfaces of `devices` in
/// `snapshot`.
pub fn filter_bindings(snapshot: &Snapshot, devices: &BTreeSet<&str>) -> FilterBindings {
    let mut out = FilterBindings::new();
    for &dev in devices {
        let Some(dc) = snapshot.devices.get(dev) else {
            continue;
        };
        for (ifname, ic) in &dc.interfaces {
            for (dir, name) in [(Dir::In, &ic.acl_in), (Dir::Out, &ic.acl_out)] {
                if let Some(name) = name {
                    let acl = dc.acls.get(name).cloned().unwrap_or_default();
                    out.insert((dev.to_string(), ifname.clone(), dir), acl);
                }
            }
        }
    }
    out
}

/// The filter rebindings that take a verifier from `before` to `after`:
/// one [`FilterChange`] per interface direction whose resolved contents
/// differ (`None` where a binding went away). Interfaces whose filter
/// did not change — including ones rebound to the ACL they already had —
/// yield nothing, so only the end state's predicates are ever registered.
pub fn filter_diff(mut before: FilterBindings, after: FilterBindings) -> Vec<FilterChange> {
    let change = |(device, iface, dir): (String, String, Dir), acl| FilterChange {
        device,
        iface,
        dir,
        acl,
    };
    let mut out = Vec::new();
    for (key, acl) in after {
        if before.remove(&key).as_ref() != Some(&acl) {
            out.push(change(key, Some(acl)));
        }
    }
    out.extend(before.into_keys().map(|key| change(key, None)));
    out
}

/// A batch of data-plane updates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DpUpdate {
    /// FIB entry insertions (+1) and removals (-1).
    pub fib: Vec<(FibEntry, isize)>,
    /// ACL filter rebindings.
    pub filters: Vec<FilterChange>,
}

/// Predicate releases deferred past delta computation by
/// [`DataPlane::apply_deferred`]; hand back to [`DataPlane::finish_update`].
#[must_use = "pass to DataPlane::finish_update or retired predicates leak"]
pub struct PendingReleases(Vec<PredId>);

/// One reachability change: for packets in `atom` injected at `src`, the
/// outcome set changed from `before` to `after`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReachDelta {
    /// Affected packet class. Valid while the producing update's partition
    /// is alive; see [`DataPlane::apply`] for when ids go stale.
    pub atom: AtomId,
    /// Source device.
    pub src: String,
    /// Outcomes before the update (empty set = device didn't exist).
    pub before: BTreeSet<Outcome>,
    /// Outcomes after the update.
    pub after: BTreeSet<Outcome>,
}

/// Per-device FIB state for one prefix.
struct PrefixEntry {
    pred: PredId,
    /// Actions with multiplicities (ECMP entries are distinct actions).
    actions: BTreeMap<FibAction, isize>,
}

type ReachMap = BTreeMap<String, BTreeSet<Outcome>>;

/// An immutable reachability view detached from the live verifier: the
/// frozen packet-class partition plus the per-class reach maps, captured
/// by [`DataPlane::reach_view`]. Fully owned data — clone it, move it
/// across threads, and answer queries while the verifier keeps mutating.
#[derive(Clone)]
pub struct ReachView {
    psets: crate::pset::FrozenPsets,
    /// Live atoms at capture time, in id order (the same order the live
    /// lookup scans), each with its packet set.
    atoms: Vec<(AtomId, Pset)>,
    reach: HashMap<AtomId, ReachMap>,
}

impl ReachView {
    /// Outcomes for packets of `flow` injected at `src` — identical to
    /// what [`DataPlane::query`] answered at capture time.
    pub fn query(&self, src: &str, flow: &Flow) -> BTreeSet<Outcome> {
        let (atom, _) = self
            .atoms
            .iter()
            .find(|(_, p)| self.psets.contains(*p, flow))
            .expect("atoms partition the full space");
        self.reach[atom].get(src).cloned().unwrap_or_default()
    }

    /// Number of packet equivalence classes captured.
    pub fn class_count(&self) -> usize {
        self.atoms.len()
    }
}

/// The incremental data-plane verifier. See the module docs.
pub struct DataPlane {
    reg: AtomRegistry,
    /// Sorted (comes from the snapshot's device BTreeMap), so a device's
    /// index is recovered by binary search — the reach DFS runs on indices
    /// instead of allocating `String` keys per step.
    devices: Vec<String>,
    /// `device -> iface -> (peer device, peer iface)` over physical links.
    /// Nested (rather than keyed by a `(String, String)` tuple) so the hot
    /// path can probe with borrowed `&str`s without building owned keys.
    link_map: HashMap<String, HashMap<String, (String, String)>>,
    /// Per-device FIB: prefix -> actions, with the prefix predicate.
    fibs: BTreeMap<String, BTreeMap<Ipv4Prefix, PrefixEntry>>,
    /// Compiled interface filters, per device; the inner list is small
    /// (a device's filtered interfaces) and scanned linearly with borrowed
    /// `&str` compares — again avoiding owned tuple keys per probe.
    filters: HashMap<String, Vec<(String, Dir, PredId)>>,
    /// Reachability per atom: source device -> outcomes.
    reach: HashMap<AtomId, ReachMap>,
}

/// Compiles an ACL to its permitted packet set (first-match, implicit
/// deny).
pub fn compile_acl(arena: &mut crate::pset::PsetArena, acl: &Acl) -> Pset {
    let mut allowed = EMPTY;
    let mut remaining = FULL;
    for e in &acl.entries {
        let m = arena.flow_match(&e.matches);
        let hit = arena.intersect(m, remaining);
        if e.action == net_model::Action::Permit {
            allowed = arena.union(allowed, hit);
        }
        remaining = arena.subtract(remaining, hit);
        if remaining == EMPTY {
            break;
        }
    }
    allowed
}

impl DataPlane {
    /// Creates a verifier for the given topology shell: device set, link
    /// map and initial ACL bindings come from the snapshot; the FIB starts
    /// empty and is loaded via [`DataPlane::apply`].
    pub fn new(snapshot: &Snapshot) -> Self {
        let devices: Vec<String> = snapshot.devices.keys().cloned().collect();
        let mut link_map: HashMap<String, HashMap<String, (String, String)>> = HashMap::new();
        for l in &snapshot.links {
            link_map
                .entry(l.a.device.clone())
                .or_default()
                .insert(l.a.iface.clone(), (l.b.device.clone(), l.b.iface.clone()));
            link_map
                .entry(l.b.device.clone())
                .or_default()
                .insert(l.b.iface.clone(), (l.a.device.clone(), l.a.iface.clone()));
        }
        let mut dp = DataPlane {
            reg: AtomRegistry::new(),
            devices,
            link_map,
            fibs: BTreeMap::new(),
            filters: HashMap::new(),
            reach: HashMap::new(),
        };
        // Initial reachability: single full atom, no routes anywhere.
        let initial: Vec<AtomId> = dp.reg.atom_ids().collect();
        for atom in initial {
            let map = dp.compute_reach(atom);
            dp.reach.insert(atom, map);
        }
        // Initial ACL bindings: the rebindings from no filters at all.
        let every = snapshot.devices.keys().map(String::as_str).collect();
        let update = DpUpdate {
            fib: Vec::new(),
            filters: filter_diff(FilterBindings::new(), filter_bindings(snapshot, &every)),
        };
        dp.apply(&update);
        dp
    }

    /// Number of live packet equivalence classes.
    pub fn atom_count(&self) -> usize {
        self.reg.atom_count()
    }

    /// Number of registered predicates.
    pub fn pred_count(&self) -> usize {
        self.reg.pred_count()
    }

    /// Interior decision-diagram nodes allocated (memory proxy).
    pub fn pset_nodes(&self) -> usize {
        self.reg.arena.node_count()
    }

    /// Human-readable description of an atom's header space.
    pub fn describe_atom(&self, atom: AtomId, limit: usize) -> Vec<String> {
        let p = self.reg.atom_pset(atom);
        self.reg.arena.describe(p, limit)
    }

    /// A concrete example packet of the atom.
    pub fn sample_atom(&self, atom: AtomId) -> Option<Flow> {
        self.reg.arena.sample(self.reg.atom_pset(atom))
    }

    /// Outcomes for packets of `flow` injected at `src`.
    pub fn query(&self, src: &str, flow: &Flow) -> BTreeSet<Outcome> {
        let atom = self.reg.atom_of_flow(flow);
        self.reach[&atom].get(src).cloned().unwrap_or_default()
    }

    /// Captures an immutable [`ReachView`] of the current reachability
    /// state: the frozen packet-class partition plus every per-class reach
    /// map. The view answers [`ReachView::query`] with exactly the outcomes
    /// [`DataPlane::query`] returns at this instant, without the verifier.
    pub fn reach_view(&self) -> ReachView {
        ReachView {
            psets: self.reg.arena.freeze(),
            atoms: self
                .reg
                .atom_ids()
                .map(|id| (id, self.reg.atom_pset(id)))
                .collect(),
            reach: self.reach.clone(),
        }
    }

    /// All live atoms.
    pub fn atoms(&self) -> Vec<AtomId> {
        self.reg.atom_ids().collect()
    }

    /// Outcomes for an atom injected at `src`.
    pub fn outcomes(&self, src: &str, atom: AtomId) -> BTreeSet<Outcome> {
        self.reach[&atom].get(src).cloned().unwrap_or_default()
    }

    /// Applies a batch of updates, returning the exact reachability changes.
    ///
    /// The returned [`ReachDelta::atom`] ids label packet classes *as
    /// partitioned during the update*; a class retired by the update (its
    /// last predicate released, its atoms merged) is reported but its id is
    /// dead afterwards — passing it to [`DataPlane::outcomes`] /
    /// [`DataPlane::describe_atom`] / [`DataPlane::sample_atom`] panics.
    /// Callers that need to inspect delta atoms must use
    /// [`DataPlane::apply_deferred`] and do so before
    /// [`DataPlane::finish_update`].
    pub fn apply(&mut self, update: &DpUpdate) -> Vec<ReachDelta> {
        let (deltas, pending) = self.apply_deferred(update);
        self.finish_update(pending);
        deltas
    }

    /// [`DataPlane::apply`] with predicate releases deferred: the returned
    /// deltas are computed while *both* the old and new predicates are
    /// registered, i.e. at the finest common refinement of the before and
    /// after partitions. Without deferral, releasing a predicate merges
    /// its atoms before the diff is taken, and a behavior change confined
    /// to one merged-away part is reported against the wrong baseline (or
    /// dropped entirely once the atom id dies). Callers may inspect /
    /// describe the delta atoms, then must pass the token to
    /// [`DataPlane::finish_update`].
    pub fn apply_deferred(&mut self, update: &DpUpdate) -> (Vec<ReachDelta>, PendingReleases) {
        let mut pending = PendingReleases(Vec::new());
        let mut dirty: BTreeSet<AtomId> = BTreeSet::new();
        // ---- FIB deltas ----
        for (entry, diff) in &update.fib {
            self.apply_fib_delta(entry, *diff, &mut dirty, &mut pending);
        }
        // ---- Filter changes ----
        for fc in &update.filters {
            let old = self
                .filters
                .get(fc.device.as_str())
                .and_then(|v| v.iter().find(|(i, d, _)| *i == fc.iface && *d == fc.dir))
                .map(|&(_, _, p)| p);
            // Register the new filter first so splits settle before we
            // compare memberships.
            let new = match &fc.acl {
                Some(acl) => {
                    let pset = compile_acl(&mut self.reg.arena, acl);
                    let (pred, changes) = self.reg.acquire(pset);
                    self.migrate(&changes, &mut dirty);
                    Some(pred)
                }
                None => None,
            };
            // Exactly the atoms whose pass/block flips change behavior:
            // symmetric difference of old and new memberships (an absent
            // filter behaves as "all atoms pass").
            let all: BTreeSet<AtomId> = self.reg.atom_ids().collect();
            let old_members: BTreeSet<AtomId> = match old {
                Some(p) => self.reg.atoms_of(p).collect(),
                None => all.clone(),
            };
            let new_members: BTreeSet<AtomId> = match new {
                Some(p) => self.reg.atoms_of(p).collect(),
                None => all.clone(),
            };
            dirty.extend(old_members.symmetric_difference(&new_members).copied());
            let entries = self.filters.entry(fc.device.clone()).or_default();
            entries.retain(|(i, d, _)| !(*i == fc.iface && *d == fc.dir));
            match new {
                Some(p) => entries.push((fc.iface.clone(), fc.dir, p)),
                None => {
                    if entries.is_empty() {
                        self.filters.remove(fc.device.as_str());
                    }
                }
            }
            if let Some(oldp) = old {
                pending.0.push(oldp);
            }
        }
        // Drop retired atoms that remained in the dirty set.
        let live: BTreeSet<AtomId> = self.reg.atom_ids().collect();
        dirty.retain(|a| live.contains(a));
        // The paper's incrementality claim in one number: classes
        // recomputed this update (vs. the full |atoms| a from-scratch
        // run would pay). No-op when telemetry is disabled.
        dna_obs::global()
            .counter("dp_dirty_classes")
            .add(dirty.len() as u64);
        // ---- Recompute dirty atoms and diff ----
        let mut deltas = Vec::new();
        for atom in dirty {
            let after = self.compute_reach(atom);
            let before = self.reach.insert(atom, after.clone()).unwrap_or_default();
            for dev in &self.devices {
                let b = before.get(dev).cloned().unwrap_or_default();
                let a = after.get(dev).cloned().unwrap_or_default();
                if b != a {
                    deltas.push(ReachDelta {
                        atom,
                        src: dev.clone(),
                        before: b,
                        after: a,
                    });
                }
            }
        }
        (deltas, pending)
    }

    /// Installs or retracts one FIB entry, tracking the atoms whose
    /// reachability is invalidated and the predicates retired by it.
    fn apply_fib_delta(
        &mut self,
        entry: &FibEntry,
        diff: isize,
        dirty: &mut BTreeSet<AtomId>,
        pending: &mut PendingReleases,
    ) {
        if diff == 0 {
            return;
        }
        let pset = self.reg.arena.dst_prefix(entry.prefix);
        let dev_fib = self.fibs.entry(entry.device.clone()).or_default();
        if diff > 0 {
            let pred = match dev_fib.get(&entry.prefix) {
                Some(pe) => pe.pred,
                None => {
                    let (pred, changes) = self.reg.acquire(pset);
                    self.migrate(&changes, dirty);
                    pred
                }
            };
            // Re-borrow after possible registry mutation.
            let dev_fib = self.fibs.entry(entry.device.clone()).or_default();
            let pe = dev_fib.entry(entry.prefix).or_insert(PrefixEntry {
                pred,
                actions: BTreeMap::new(),
            });
            *pe.actions.entry(entry.action.clone()).or_insert(0) += diff;
            dirty.extend(self.reg.atoms_of(pred));
        } else {
            let Some(pe) = dev_fib.get_mut(&entry.prefix) else {
                return; // removing a nonexistent entry: no-op
            };
            let pred = pe.pred;
            let count = pe.actions.entry(entry.action.clone()).or_insert(0);
            *count += diff;
            if *count <= 0 {
                pe.actions.remove(&entry.action);
            }
            dirty.extend(self.reg.atoms_of(pred));
            if pe.actions.is_empty() {
                dev_fib.remove(&entry.prefix);
                pending.0.push(pred);
            }
        }
    }

    /// Bulk baseline load of an initial FIB — the sharded bring-up
    /// seam. Ends in exactly the state of
    /// `apply(&DpUpdate { fib, filters: vec![] })` (same fibs, same
    /// partition, same reachability maps) but produces no deltas:
    /// instead of diffing each dirtied class against its pre-load
    /// outcomes, it recomputes reachability for *every* live class
    /// once, fanned out over up to `workers` scoped threads
    /// (`DataPlane::compute_reach` is read-only, and at baseline load
    /// essentially every class is dirty anyway).
    pub fn load_baseline(&mut self, fib: &[(FibEntry, isize)], workers: usize) {
        let mut dirty = BTreeSet::new();
        let mut pending = PendingReleases(Vec::new());
        for (entry, diff) in fib {
            self.apply_fib_delta(entry, *diff, &mut dirty, &mut pending);
        }
        // `dirty` only mattered for migrate bookkeeping: the full
        // recompute below covers every live atom regardless.
        drop(dirty);
        let atoms: Vec<AtomId> = self.reg.atom_ids().collect();
        let workers = workers.clamp(1, atoms.len().max(1));
        let maps: Vec<ReachMap> = if workers <= 1 {
            atoms.iter().map(|&a| self.compute_reach(a)).collect()
        } else {
            // One contiguous chunk per worker; results are stitched
            // back in atom order, so the merged state is independent of
            // scheduling.
            let chunk = atoms.len().div_ceil(workers);
            let me: &DataPlane = self;
            std::thread::scope(|s| {
                let handles: Vec<_> = atoms
                    .chunks(chunk)
                    .map(|part| {
                        s.spawn(move || {
                            part.iter()
                                .map(|&a| me.compute_reach(a))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("reach worker panicked"))
                    .collect()
            })
        };
        for (atom, map) in atoms.into_iter().zip(maps) {
            self.reach.insert(atom, map);
        }
        self.finish_update(pending);
    }

    /// Completes an [`DataPlane::apply_deferred`] call: releases retired
    /// predicates, merging atoms no longer distinguished. Merged parts are
    /// behaviorally identical by now (the dirty ones were recomputed
    /// against the after-state), so no further deltas can arise here.
    pub fn finish_update(&mut self, pending: PendingReleases) {
        let mut dirty: BTreeSet<AtomId> = BTreeSet::new();
        for pred in pending.0 {
            let changes = self.reg.release(pred);
            self.migrate(&changes, &mut dirty);
        }
        debug_assert!(
            dirty.is_empty(),
            "release-time merges must not create new dirty atoms"
        );
    }

    /// Migrates per-atom reachability across structural atom changes:
    /// children inherit their parent's results; merges keep one copy.
    fn migrate(&mut self, changes: &[AtomChange], dirty: &mut BTreeSet<AtomId>) {
        for ch in changes {
            match ch {
                AtomChange::Split {
                    parent,
                    inside,
                    outside,
                } => {
                    let map = self.reach.remove(parent).unwrap_or_default();
                    self.reach.insert(*inside, map.clone());
                    self.reach.insert(*outside, map);
                    if dirty.remove(parent) {
                        dirty.insert(*inside);
                        dirty.insert(*outside);
                    }
                }
                AtomChange::Merged { a, b, into } => {
                    let ma = self.reach.remove(a).unwrap_or_default();
                    let mb = self.reach.remove(b).unwrap_or_default();
                    // Merged atoms were behaviorally identical; if either
                    // was dirty the merged atom must be recomputed.
                    debug_assert!(ma == mb || dirty.contains(a) || dirty.contains(b));
                    self.reach.insert(*into, ma);
                    if dirty.remove(a) | dirty.remove(b) {
                        dirty.insert(*into);
                    }
                }
            }
        }
    }

    /// Longest-prefix-match resolution of an atom (by signature) at a
    /// device.
    fn actions_for(
        &self,
        device: &str,
        sig: &BTreeSet<PredId>,
    ) -> Option<&BTreeMap<FibAction, isize>> {
        let fib = self.fibs.get(device)?;
        // Prefixes sorted ascending; scan from most specific.
        let mut best: Option<(&Ipv4Prefix, &PrefixEntry)> = None;
        for (p, pe) in fib.iter() {
            if !sig.contains(&pe.pred) {
                continue;
            }
            match best {
                Some((bp, _)) if bp.len() >= p.len() => {}
                _ => best = Some((p, pe)),
            }
        }
        best.map(|(_, pe)| &pe.actions)
    }

    fn passes(&self, device: &str, iface: &str, dir: Dir, sig: &BTreeSet<PredId>) -> bool {
        match self
            .filters
            .get(device)
            .and_then(|v| v.iter().find(|(i, d, _)| i == iface && *d == dir))
        {
            None => true,
            Some(&(_, _, pred)) => sig.contains(&pred),
        }
    }

    /// Full reachability map of one atom (all sources).
    ///
    /// Memoized DFS with loop detection. Results computed while a cycle
    /// ancestor was on the stack are *tainted* (they'd miss the ancestor's
    /// other branches) and are not memoized — only complete, source-
    /// independent results enter the memo, keeping the memo sound.
    ///
    /// The DFS runs on device *indices* into the sorted `devices` vec, with
    /// flat per-index memo/stack vectors, and resolves the atom's signature
    /// once up front — the walk itself allocates no keys.
    fn compute_reach(&self, atom: AtomId) -> ReachMap {
        let sig = self.reg.atom_sig(atom);
        let n = self.devices.len();
        let mut on_stack = vec![false; n];
        let mut memo: Vec<Option<BTreeSet<Outcome>>> = vec![None; n];
        let mut map = ReachMap::new();
        for di in 0..n {
            let (out, _tainted) = self.visit(sig, di, &mut on_stack, &mut memo, 0);
            map.insert(self.devices[di].clone(), out);
        }
        map
    }

    /// One DFS step of [`DataPlane::compute_reach`]; returns the outcome
    /// set and whether it depended on a device still on the DFS stack.
    fn visit(
        &self,
        sig: &BTreeSet<PredId>,
        di: usize,
        on_stack: &mut Vec<bool>,
        memo: &mut Vec<Option<BTreeSet<Outcome>>>,
        depth: usize,
    ) -> (BTreeSet<Outcome>, bool) {
        if let Some(out) = &memo[di] {
            return (out.clone(), false);
        }
        if on_stack[di] {
            let mut s = BTreeSet::new();
            s.insert(Outcome::Loop);
            return (s, true);
        }
        debug_assert!(depth <= self.devices.len(), "path longer than device count");
        on_stack[di] = true;
        let dev = self.devices[di].as_str();
        let mut out = BTreeSet::new();
        let mut tainted = false;
        match self.actions_for(dev, sig) {
            None => {
                out.insert(Outcome::Blackhole(dev.to_string()));
            }
            Some(actions) if actions.is_empty() => {
                out.insert(Outcome::Blackhole(dev.to_string()));
            }
            Some(actions) => {
                for action in actions.keys().cloned().collect::<Vec<_>>() {
                    match &action {
                        FibAction::Drop => {
                            out.insert(Outcome::Blackhole(dev.to_string()));
                        }
                        FibAction::Deliver { iface } => {
                            if self.passes(dev, iface, Dir::Out, sig) {
                                out.insert(Outcome::Delivered(dev.to_string()));
                            } else {
                                out.insert(Outcome::Filtered(dev.to_string()));
                            }
                        }
                        FibAction::Forward { iface, next } => {
                            if !self.passes(dev, iface, Dir::Out, sig) {
                                out.insert(Outcome::Filtered(dev.to_string()));
                                continue;
                            }
                            match next {
                                NextDevice::External => {
                                    out.insert(Outcome::External(dev.to_string()));
                                }
                                NextDevice::Device(b) => {
                                    match self.link_map.get(dev).and_then(|m| m.get(iface.as_str()))
                                    {
                                        Some((peer, peer_if)) => {
                                            debug_assert_eq!(peer, b);
                                            if !self.passes(peer, peer_if, Dir::In, sig) {
                                                out.insert(Outcome::Filtered(b.clone()));
                                            } else if let Ok(bi) = self
                                                .devices
                                                .binary_search_by(|d| d.as_str().cmp(peer.as_str()))
                                            {
                                                let (sub, t) =
                                                    self.visit(sig, bi, on_stack, memo, depth + 1);
                                                tainted |= t;
                                                out.extend(sub);
                                            } else {
                                                // Link to a device outside the
                                                // snapshot: it has no FIB, so it
                                                // blackholes the traffic.
                                                out.insert(Outcome::Blackhole(b.clone()));
                                            }
                                        }
                                        // FIB points over an unknown link:
                                        // treat as blackhole.
                                        None => {
                                            out.insert(Outcome::Blackhole(dev.to_string()));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        on_stack[di] = false;
        if !tainted {
            memo[di] = Some(out.clone());
        }
        (out, tainted)
    }

    /// Semantic snapshot of all reachability state: `(atom, src) ->
    /// outcomes`. Used by tests to compare incremental maintenance against
    /// from-scratch recomputation.
    pub fn fingerprint(&self) -> BTreeMap<(AtomId, String), BTreeSet<Outcome>> {
        let mut out = BTreeMap::new();
        for (atom, map) in &self.reach {
            for (src, outcomes) in map {
                out.insert((*atom, src.clone()), outcomes.clone());
            }
        }
        out
    }

    /// From-scratch recomputation of every atom's reachability — the
    /// baseline the incremental path is benchmarked against, and the test
    /// oracle for incremental maintenance.
    pub fn recompute_all(&mut self) {
        let atoms: Vec<AtomId> = self.reg.atom_ids().collect();
        for atom in atoms {
            let map = self.compute_reach(atom);
            self.reach.insert(atom, map);
        }
    }
}
