//! # data-plane — packet-set algebra and incremental data-plane verification
//!
//! The second half of the differential pipeline: given per-device FIBs
//! (from the control-plane stage) and interface ACLs, the verifier
//! maintains network-wide reachability — per packet equivalence class and
//! per source device, the set of possible outcomes (delivered, external,
//! blackhole, filtered, loop).
//!
//! Components:
//! * [`pset`] — canonical interval decision diagrams over the 5-tuple
//!   header space (the header-space-analysis substrate);
//! * [`atoms`] — reference-counted packet equivalence classes with
//!   incremental split/merge (the Veriflow/APKeep role);
//! * [`verify`] — per-atom forwarding resolution (longest-prefix match +
//!   ACL edge filters) and memoized reachability, updated only for the
//!   classes an update actually touches.
//!
//! The from-scratch twin ([`DataPlane::recompute_all`]) doubles as the
//! benchmark baseline and the property-test oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atoms;
pub mod pset;
pub mod verify;

pub use atoms::{AtomChange, AtomId, AtomRegistry, PredId};
pub use pset::{FrozenPsets, Pset, PsetArena, EMPTY, FULL};
pub use verify::{
    compile_acl, filter_bindings, filter_diff, DataPlane, Dir, DpUpdate, FilterBindings,
    FilterChange, Outcome, PendingReleases, ReachDelta, ReachView,
};
