//! The end-to-end differential analysis engine.
//!
//! [`DiffEngine`] chains the two incremental stages: a [`CpEngine`]
//! (differential control-plane simulation: changes → RIB/FIB deltas) and a
//! [`DataPlane`] verifier (FIB/ACL deltas → reachability deltas). One
//! [`DiffEngine::apply`] call answers the operator's question directly:
//! *exactly which flows behave differently after this change?*

use control_plane::{CpEngine, CpError, FibEntry, RibEntry};
use data_plane::{filter_bindings, filter_diff, DataPlane, DpUpdate, Outcome, ReachDelta};
use ddflow::Diff;
use net_model::{ChangeSet, Flow, ShardPlan, Snapshot};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Error from the differential pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum DnaError {
    /// Control-plane stage failed (bad change or non-convergence).
    ControlPlane(CpError),
    /// The base snapshot failed validation.
    InvalidSnapshot(String),
}

impl std::fmt::Display for DnaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnaError::ControlPlane(e) => write!(f, "control plane: {e}"),
            DnaError::InvalidSnapshot(s) => write!(f, "invalid snapshot: {s}"),
        }
    }
}

impl std::error::Error for DnaError {}

impl From<CpError> for DnaError {
    fn from(e: CpError) -> Self {
        DnaError::ControlPlane(e)
    }
}

/// One reachability difference, decorated for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowDiff {
    /// Source device.
    pub src: String,
    /// Human-readable header-space description of the affected class.
    pub headers: Vec<String>,
    /// A concrete example packet of the class.
    pub example: Flow,
    /// Outcomes before the change.
    pub before: BTreeSet<Outcome>,
    /// Outcomes after the change.
    pub after: BTreeSet<Outcome>,
}

/// Stage timings and work counters for one differential analysis.
#[derive(Debug, Clone, Default)]
pub struct DiffStats {
    /// Wall-clock spent in the differential control-plane stage.
    pub cp_time: Duration,
    /// Wall-clock spent in the differential data-plane stage.
    pub dp_time: Duration,
    /// Total wall-clock for the apply call.
    pub total_time: Duration,
    /// Tuples processed by the dataflow engine.
    pub cp_tuples: usize,
    /// Scheduled dataflow operators skipped because no input port received
    /// a batch this epoch (dirty-node scheduling in `ddflow`).
    pub nodes_skipped: usize,
    /// Packet classes whose reachability was recomputed.
    pub dirty_classes: usize,
}

/// Everything that changed, across all three layers.
#[derive(Debug, Clone, Default)]
pub struct BehaviorDiff {
    /// Route-level changes (+1 installed / -1 withdrawn).
    pub rib: Vec<(RibEntry, Diff)>,
    /// Forwarding-entry changes.
    pub fib: Vec<(FibEntry, Diff)>,
    /// End-to-end reachability changes.
    pub flows: Vec<FlowDiff>,
    /// Stage statistics.
    pub stats: DiffStats,
}

impl BehaviorDiff {
    /// Whether the change had any observable effect.
    pub fn is_noop(&self) -> bool {
        self.rib.is_empty() && self.fib.is_empty() && self.flows.is_empty()
    }
}

/// The incremental change-impact engine (the paper's system).
pub struct DiffEngine {
    cp: CpEngine,
    dp: DataPlane,
}

impl DiffEngine {
    /// Builds the engine: simulates the base snapshot's control plane,
    /// loads the resulting data plane, computes baseline reachability.
    /// Single-shard bring-up; see [`DiffEngine::with_shards`].
    pub fn new(snapshot: Snapshot) -> Result<Self, DnaError> {
        Self::with_shards(snapshot, 1)
    }

    /// [`DiffEngine::new`] through the sharded init pipeline: the
    /// snapshot is partitioned into `shards` device shards
    /// ([`ShardPlan::partition`]); per-shard fact encoding runs on one
    /// scoped worker thread each (overlapped with rule compilation),
    /// one merged dataflow commit produces the control-plane fixpoint,
    /// and the baseline data-plane load fans its reachability sweep out
    /// over the same number of workers. Observationally identical to
    /// the single-threaded path for every shard count.
    pub fn with_shards(snapshot: Snapshot, shards: usize) -> Result<Self, DnaError> {
        let problems = snapshot.validate();
        if !problems.is_empty() {
            return Err(DnaError::InvalidSnapshot(format!("{:?}", problems[0])));
        }
        let plan = ShardPlan::partition(&snapshot, shards);
        let mut cp = CpEngine::sharded(snapshot.clone(), ddflow::Config::default(), &plan)?;
        cp.drain_initial();
        let mut dp = DataPlane::new(&snapshot);
        let fib: Vec<(FibEntry, Diff)> = cp.fib().into_iter().map(|e| (e, 1)).collect();
        dp.load_baseline(&fib, plan.shard_count());
        Ok(DiffEngine { cp, dp })
    }

    /// The current snapshot (base plus every applied change set).
    pub fn snapshot(&self) -> &Snapshot {
        self.cp.snapshot()
    }

    /// Applies a change set incrementally and reports everything that
    /// changed. On error nothing is applied.
    pub fn apply(&mut self, changes: &ChangeSet) -> Result<BehaviorDiff, DnaError> {
        let t0 = Instant::now();
        // Both stages consume the same state difference over the devices
        // the epoch names: the control plane diffs their facts, the data
        // plane their resolved filter bindings (read here, before the
        // control plane advances the snapshot).
        let named = changes.devices();
        let before = filter_bindings(self.cp.snapshot(), &named);
        let cp_delta = self.cp.apply(changes)?;
        let cp_time = t0.elapsed();
        let t1 = Instant::now();
        let update = DpUpdate {
            fib: cp_delta.fib,
            filters: filter_diff(before, filter_bindings(self.cp.snapshot(), &named)),
        };
        // Deferred release keeps retiring atoms alive (and the partition at
        // its finest) until the deltas are decorated; see `apply_deferred`.
        let (reach, pending) = self.dp.apply_deferred(&update);
        let dp_time = t1.elapsed();
        let flows = self.decorate(reach);
        self.dp.finish_update(pending);
        Ok(BehaviorDiff {
            rib: cp_delta.rib,
            fib: update.fib,
            stats: DiffStats {
                cp_time,
                dp_time,
                total_time: t0.elapsed(),
                cp_tuples: cp_delta.stats.tuples_processed,
                nodes_skipped: cp_delta.stats.nodes_skipped,
                dirty_classes: flows
                    .iter()
                    .map(|f| (&f.headers, &f.example))
                    .collect::<BTreeSet<_>>()
                    .len(),
            },
            flows,
        })
    }

    fn decorate(&self, reach: Vec<ReachDelta>) -> Vec<FlowDiff> {
        reach
            .into_iter()
            .filter_map(|d| {
                let example = self.dp.sample_atom(d.atom)?;
                Some(FlowDiff {
                    src: d.src,
                    headers: self.dp.describe_atom(d.atom, 4),
                    example,
                    before: d.before,
                    after: d.after,
                })
            })
            .collect()
    }

    /// Current full FIB (decoded, sorted).
    pub fn fib(&self) -> Vec<FibEntry> {
        self.cp.fib()
    }

    /// Current full RIB (decoded, sorted).
    pub fn rib(&self) -> Vec<RibEntry> {
        self.cp.rib()
    }

    /// Outcomes for a concrete flow injected at `src`, on current state.
    pub fn query(&self, src: &str, flow: &Flow) -> BTreeSet<Outcome> {
        self.dp.query(src, flow)
    }

    /// One sample flow per live packet class (probe set for equivalence
    /// testing against the from-scratch baseline).
    pub fn probe_flows(&self) -> Vec<Flow> {
        self.dp
            .atoms()
            .into_iter()
            .filter_map(|a| self.dp.sample_atom(a))
            .collect()
    }

    /// Number of live packet equivalence classes.
    pub fn class_count(&self) -> usize {
        self.dp.atom_count()
    }

    /// Working-set counters `(engine tuples, atoms, pset nodes)` for the
    /// memory study (E6).
    pub fn state_size(&self) -> (usize, usize, usize) {
        (
            self.cp.state_tuples(),
            self.dp.atom_count(),
            self.dp.pset_nodes(),
        )
    }

    /// Captures an immutable [`EngineView`] of the current state: the
    /// reachability view, the decoded FIB and the working-set counters.
    /// The view is fully owned data — move it to reader threads and keep
    /// answering queries while the engine applies further epochs.
    pub fn view(&self) -> EngineView {
        EngineView {
            reach: self.dp.reach_view(),
            fib: self.cp.fib(),
            state: self.state_size(),
        }
    }
}

/// An immutable queryable view of a [`DiffEngine`]'s state at one epoch
/// boundary, captured by [`DiffEngine::view`]. Reach queries against the
/// view return exactly what [`DiffEngine::query`] answered at capture
/// time; the engine is free to mutate concurrently.
#[derive(Clone)]
pub struct EngineView {
    reach: data_plane::ReachView,
    fib: Vec<FibEntry>,
    state: (usize, usize, usize),
}

impl EngineView {
    /// Outcomes for a concrete flow injected at `src`, on captured state.
    pub fn query(&self, src: &str, flow: &Flow) -> BTreeSet<Outcome> {
        self.reach.query(src, flow)
    }

    /// The captured full FIB (decoded, sorted).
    pub fn fib(&self) -> &[FibEntry] {
        &self.fib
    }

    /// Number of packet equivalence classes at capture time.
    pub fn class_count(&self) -> usize {
        self.reach.class_count()
    }

    /// Working-set counters `(engine tuples, atoms, pset nodes)` at
    /// capture time.
    pub fn state_size(&self) -> (usize, usize, usize) {
        self.state
    }
}
