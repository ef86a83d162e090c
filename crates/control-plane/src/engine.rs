//! Differential control-plane engine: the stateful wrapper around the
//! rules program that tracks a snapshot mirror and turns [`ChangeSet`]s
//! into incremental RIB/FIB deltas.

use crate::relations::{device_set_facts, shard_facts, snapshot_facts, Fact};
use crate::rules::{build_program, CpHandles};
use crate::types::{FibEntry, RibEntry};
use ddflow::{CommitStats, Config, DdError, Diff, Runtime};
use net_model::{ApplyError, ChangeSet, ShardPlan, Snapshot};

/// Error from the differential control-plane engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CpError {
    /// A change referenced a missing element.
    Apply(ApplyError),
    /// A routing fixpoint failed to converge (e.g. a BGP policy dispute).
    Divergence(String),
}

impl std::fmt::Display for CpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpError::Apply(e) => write!(f, "cannot apply change: {e}"),
            CpError::Divergence(s) => write!(f, "routing did not converge: {s}"),
        }
    }
}

impl std::error::Error for CpError {}

impl From<ApplyError> for CpError {
    fn from(e: ApplyError) -> Self {
        CpError::Apply(e)
    }
}

impl From<DdError> for CpError {
    fn from(e: DdError) -> Self {
        CpError::Divergence(e.to_string())
    }
}

/// Incremental RIB/FIB changes produced by one [`CpEngine::apply`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpDelta {
    /// Route changes: `+1` installed, `-1` withdrawn.
    pub rib: Vec<(RibEntry, Diff)>,
    /// Forwarding changes: `+1` added, `-1` removed.
    pub fib: Vec<(FibEntry, Diff)>,
    /// Engine statistics for the commit.
    pub stats: CommitStats,
}

/// The differential control-plane simulator. Construction simulates the
/// base snapshot; each [`CpEngine::apply`] incrementally updates the
/// simulation and reports exactly what changed.
pub struct CpEngine {
    runtime: Runtime,
    handles: CpHandles,
    snapshot: Snapshot,
}

impl CpEngine {
    /// Builds the engine and runs the initial simulation of `snapshot`.
    pub fn new(snapshot: Snapshot) -> Result<Self, CpError> {
        Self::with_config(snapshot, Config::default())
    }

    /// [`CpEngine::new`] with an explicit engine configuration (iteration
    /// bounds for divergence detection).
    pub fn with_config(snapshot: Snapshot, config: Config) -> Result<Self, CpError> {
        let (program, handles) = build_program();
        let mut runtime = Runtime::with_config(program, config);
        for (rel, row) in snapshot_facts(&snapshot) {
            let h = handles.inputs[rel];
            runtime.insert(h, row);
        }
        runtime.commit()?;
        Ok(CpEngine {
            runtime,
            handles,
            snapshot,
        })
    }

    /// Sharded bring-up: fact encoding (per-device rows plus each
    /// shard's slice of the global environment) runs on one scoped
    /// worker thread per shard of `plan`, concurrently with rule
    /// compilation on the calling thread; the encoded rows are then fed
    /// into a single runtime and drained through one merged commit, so
    /// the resulting engine state is identical to [`CpEngine::new`]'s —
    /// the union of shard fact sets is a permutation of the unsharded
    /// fact set, and the commit consolidates input order away.
    pub fn sharded(snapshot: Snapshot, config: Config, plan: &ShardPlan) -> Result<Self, CpError> {
        if plan.shard_count() <= 1 {
            return Self::with_config(snapshot, config);
        }
        let (program, handles, rows) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..plan.shard_count())
                .map(|i| {
                    let snapshot = &snapshot;
                    s.spawn(move || shard_facts(snapshot, plan, i))
                })
                .collect();
            // Rule compilation overlaps the encoders.
            let (program, handles) = build_program();
            let rows: Vec<Vec<Fact>> = workers
                .into_iter()
                .map(|w| w.join().expect("shard encode worker panicked"))
                .collect();
            (program, handles, rows)
        });
        let mut runtime = Runtime::with_config(program, config);
        for (rel, row) in rows.into_iter().flatten() {
            let h = handles.inputs[rel];
            runtime.insert(h, row);
        }
        runtime.commit()?;
        Ok(CpEngine {
            runtime,
            handles,
            snapshot,
        })
    }

    /// The current snapshot (base snapshot plus all applied change sets).
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Applies a change set incrementally, returning the RIB/FIB deltas.
    ///
    /// Changes are validated against the evolving snapshot first; on error
    /// nothing is applied.
    pub fn apply(&mut self, changes: &ChangeSet) -> Result<CpDelta, CpError> {
        // The input delta is a state difference: the facts anchored at the
        // devices this epoch names, retracted as they stand before and
        // asserted as they stand after. `commit` consolidates the input,
        // so rows the epoch did not change cancel. The changes advance a
        // staging mirror (one snapshot clone per epoch), so an invalid
        // change aborts before anything reaches the runtime and the
        // engine stays untouched.
        let named = changes.devices();
        let before = device_set_facts(&self.snapshot, &named);
        let mut mirror = self.snapshot.clone();
        for change in &changes.changes {
            change.apply_to(&mut mirror)?;
        }
        let after = device_set_facts(&mirror, &named);
        let rows = before.into_iter().map(|f| (f, -1));
        for ((rel, row), diff) in rows.chain(after.into_iter().map(|f| (f, 1))) {
            self.runtime.update(self.handles.inputs[rel], row, diff);
        }
        let stats = self.runtime.commit()?;
        self.snapshot = mirror;
        // Drain both outputs (clears the delta buffers).
        let rib = self
            .runtime
            .drain(self.handles.rib)
            .into_iter()
            .map(|(v, d)| (crate::encode::dec_rib(&v), d))
            .collect();
        let fib = self
            .runtime
            .drain(self.handles.fib)
            .into_iter()
            .map(|(v, d)| (crate::encode::dec_fib(&v), d))
            .collect();
        Ok(CpDelta { rib, fib, stats })
    }

    /// Current full RIB (decoded).
    pub fn rib(&self) -> Vec<RibEntry> {
        let mut out: Vec<RibEntry> = self
            .runtime
            .output(self.handles.rib)
            .iter()
            .map(|(v, _)| crate::encode::dec_rib(v))
            .collect();
        out.sort();
        out
    }

    /// Current full FIB (decoded).
    pub fn fib(&self) -> Vec<FibEntry> {
        let mut out: Vec<FibEntry> = self
            .runtime
            .output(self.handles.fib)
            .iter()
            .map(|(v, _)| crate::encode::dec_fib(v))
            .collect();
        out.sort();
        out
    }

    /// Clears any pending (not yet drained) output deltas — call after
    /// construction if only deltas of subsequent changes are of interest.
    pub fn drain_initial(&mut self) -> (usize, usize) {
        let r = self.runtime.drain(self.handles.rib).len();
        let f = self.runtime.drain(self.handles.fib).len();
        (r, f)
    }

    /// Tuples held in engine state (working set), for the memory study.
    pub fn state_tuples(&self) -> usize {
        self.runtime.state_tuples()
    }
}
