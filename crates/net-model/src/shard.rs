//! Device-shard partitioning of a snapshot.
//!
//! The differential pipeline's bring-up cost decomposes along the
//! network's device partition: per-device fact encoding, rule input
//! generation and baseline reachability are independent between devices
//! until the global routing fixpoint merges them. A [`ShardPlan`] is the
//! deterministic partition the sharded init pipeline fans out over —
//! every device lands in exactly one shard, and every global element
//! (link, failure, external route) is owned by exactly one shard (that
//! of its anchoring device), so the union of per-shard fact sets is a
//! permutation of the unsharded fact set.

use crate::snapshot::Snapshot;
use std::collections::BTreeMap;

/// A deterministic partition of a snapshot's devices into shards.
///
/// Construction balances shards by an estimate of per-device encoding
/// work (interfaces, routes, ACL entries, BGP sessions) rather than raw
/// device count, so fat edge devices don't pile into one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Device names per shard; each inner list is sorted, lists are
    /// disjoint, and their union is the snapshot's device set.
    groups: Vec<Vec<String>>,
    /// Reverse index: device name → shard index.
    owner: BTreeMap<String, usize>,
}

/// Work estimate used to balance shards: one unit per device plus one
/// per interface, static route, ACL entry, BGP neighbor and route-map
/// clause — the elements the encoder walks during bring-up.
fn device_weight(dc: &crate::config::DeviceConfig) -> usize {
    1 + dc.interfaces.len()
        + dc.static_routes.len()
        + dc.acls.values().map(|a| a.entries.len()).sum::<usize>()
        + dc.bgp.as_ref().map_or(0, |b| b.neighbors.len())
        + dc.route_maps
            .values()
            .map(|rm| rm.clauses.len())
            .sum::<usize>()
}

impl ShardPlan {
    /// Partitions `snapshot` into at most `shards` balanced shards
    /// (clamped to `[1, device_count]`; an empty snapshot yields one
    /// empty shard). Deterministic: longest-processing-time greedy over
    /// devices sorted by descending weight, name-tiebroken.
    pub fn partition(snapshot: &Snapshot, shards: usize) -> ShardPlan {
        let n = shards.clamp(1, snapshot.devices.len().max(1));
        let mut devices: Vec<(&String, usize)> = snapshot
            .devices
            .iter()
            .map(|(name, dc)| (name, device_weight(dc)))
            .collect();
        devices.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let mut groups: Vec<Vec<String>> = vec![Vec::new(); n];
        let mut loads = vec![0usize; n];
        for (name, weight) in devices {
            let lightest = (0..n).min_by_key(|&i| (loads[i], i)).expect("n >= 1");
            loads[lightest] += weight;
            groups[lightest].push(name.clone());
        }
        for g in &mut groups {
            g.sort();
        }
        ShardPlan::from_groups(groups)
    }

    /// Builds a plan from explicit device groups (tests, property
    /// checks). No validation against a snapshot: a device missing from
    /// every group is simply unowned — [`ShardPlan::owner_of`] falls
    /// back to shard 0 for it, and the sharded fact encoder has shard 0
    /// adopt such devices so partial plans still cover the snapshot.
    pub fn from_groups(groups: Vec<Vec<String>>) -> ShardPlan {
        let groups = if groups.is_empty() {
            vec![Vec::new()]
        } else {
            groups
        };
        let mut owner = BTreeMap::new();
        for (i, g) in groups.iter().enumerate() {
            for d in g {
                owner.entry(d.clone()).or_insert(i);
            }
        }
        ShardPlan { groups, owner }
    }

    /// Number of shards (at least 1).
    pub fn shard_count(&self) -> usize {
        self.groups.len()
    }

    /// The device groups, by shard index.
    pub fn groups(&self) -> &[Vec<String>] {
        &self.groups
    }

    /// The shard owning `device`; unknown devices fall back to shard 0
    /// so ownership is total (validation rejects dangling references
    /// before any engine sees them).
    pub fn owner_of(&self, device: &str) -> usize {
        self.owner.get(device).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetBuilder;

    fn snap() -> Snapshot {
        let mut b = NetBuilder::new();
        for i in 0..7 {
            let r = format!("r{i}");
            b = b.router(&r).iface(&r, "lan", &format!("10.{i}.0.1/24"));
        }
        b.build()
    }

    #[test]
    fn partition_covers_every_device_exactly_once() {
        let s = snap();
        for n in [1, 2, 3, 7, 50] {
            let plan = ShardPlan::partition(&s, n);
            assert!(plan.shard_count() >= 1 && plan.shard_count() <= 7);
            let mut all: Vec<&String> = plan.groups().iter().flatten().collect();
            all.sort();
            let expected: Vec<&String> = s.devices.keys().collect();
            assert_eq!(all, expected, "partition into {n} must cover all devices");
            for g in plan.groups() {
                assert!(g.windows(2).all(|w| w[0] < w[1]), "groups stay sorted");
                for d in g {
                    assert_eq!(&plan.groups()[plan.owner_of(d)], g);
                }
            }
        }
    }

    #[test]
    fn partition_is_deterministic_and_balanced() {
        let s = snap();
        let a = ShardPlan::partition(&s, 3);
        let b = ShardPlan::partition(&s, 3);
        assert_eq!(a, b);
        let sizes: Vec<usize> = a.groups().iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 7);
        assert!(sizes.iter().all(|&n| (2..=3).contains(&n)), "{sizes:?}");
    }

    #[test]
    fn degenerate_plans_are_total() {
        let empty = ShardPlan::partition(&Snapshot::default(), 4);
        assert_eq!(empty.shard_count(), 1);
        assert_eq!(empty.owner_of("ghost"), 0);
        let explicit = ShardPlan::from_groups(vec![]);
        assert_eq!(explicit.shard_count(), 1);
    }
}
