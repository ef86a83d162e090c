//! Input relations of the differential control-plane program.
//!
//! [`device_set_facts`] is the one encoder from snapshot state to base
//! facts: every fact is anchored at one device, and the encoder emits the
//! facts anchored at a given device set. [`snapshot_facts`] (all devices)
//! and [`shard_facts`] (one shard's devices) seed the program; an epoch's
//! input delta is `facts(after) − facts(before)` over the devices the
//! epoch names ([`net_model::ChangeSet::devices`]). Locality is what makes
//! the differential pipeline's input cost proportional to the change, not
//! the network — and because the delta is a state difference, no change
//! kind needs a hand-written translation.

use crate::encode::{enc_addr, enc_attrs, enc_prefix, enc_route_map};
use ddflow::Value;
use net_model::{Link, NextHop, Snapshot};
use std::collections::BTreeSet;

/// Names of all input relations, in a stable order.
pub const RELATIONS: &[&str] = &[
    "iface",
    "link",
    "down_link",
    "down_device",
    "static_route",
    "ospf_iface",
    "bgp_proc",
    "bgp_neighbor",
    "bgp_network",
    "route_map",
    "external_route",
];

/// One fact: `(relation name, row)`.
pub type Fact = (&'static str, Value);

fn enc_opt_name(n: &Option<String>) -> Value {
    match n {
        None => Value::Unit,
        Some(s) => Value::str(s),
    }
}

fn enc_next_hop(nh: &NextHop) -> Value {
    match nh {
        NextHop::Discard => Value::tuple(vec![Value::U32(0)]),
        NextHop::Ip(x) => Value::tuple(vec![Value::U32(1), enc_addr(*x)]),
    }
}

fn link_row(l: &Link) -> Value {
    Value::tuple(vec![
        Value::str(&l.a.device),
        Value::str(&l.a.iface),
        Value::str(&l.b.device),
        Value::str(&l.b.iface),
    ])
}

/// All base facts of a snapshot.
pub fn snapshot_facts(snap: &Snapshot) -> Vec<Fact> {
    device_set_facts(snap, &snap.devices.keys().map(String::as_str).collect())
}

/// The base facts of one shard: the facts anchored at the devices
/// `plan` assigns to it ([`net_model::ShardPlan::owner_of`], so shard 0
/// adopts devices no group claims and a hand-built partial plan still
/// yields the full fact multiset). The concatenation of every shard's
/// facts is a permutation of [`snapshot_facts`] — the property the
/// sharded bring-up relies on, pinned by
/// `sharded_facts_are_a_partition_of_snapshot_facts`.
pub fn shard_facts(snap: &Snapshot, plan: &net_model::ShardPlan, shard: usize) -> Vec<Fact> {
    let devices = snap
        .devices
        .keys()
        .map(String::as_str)
        .filter(|d| plan.owner_of(d) == shard)
        .collect();
    device_set_facts(snap, &devices)
}

/// The base facts anchored at `devices` — the one fact encoder. Every
/// fact has exactly one anchoring device: a device's configuration rows
/// anchor at it, links and down-links at their `a` endpoint, failures and
/// external routes at their device. Rows anchored at a name that is not
/// one of the snapshot's devices are not encoded: a valid snapshot links
/// no such name ([`Snapshot::validate`]), and a failure or external route
/// there joins nothing.
///
/// A change set can only alter facts anchored at the devices it names
/// ([`net_model::ChangeSet::devices`]), so an epoch's input delta is
/// `device_set_facts(after, D) − device_set_facts(before, D)`.
pub fn device_set_facts(snap: &Snapshot, devices: &BTreeSet<&str>) -> Vec<Fact> {
    let mut out: Vec<Fact> = Vec::new();
    for &dev in devices {
        if let Some(dc) = snap.devices.get(dev) {
            device_facts(dev, dc, &mut out);
        }
    }
    let env = &snap.environment;
    let named = |d: &str| devices.contains(d);
    for l in snap.links.iter().filter(|l| named(&l.a.device)) {
        out.push(("link", link_row(l)));
    }
    for l in env.down_links.iter().filter(|l| named(&l.a.device)) {
        out.push(("down_link", link_row(l)));
    }
    for d in env.down_devices.iter().filter(|d| named(d)) {
        out.push(("down_device", Value::str(d)));
    }
    for e in env.external_routes.iter().filter(|e| named(&e.device)) {
        out.push((
            "external_route",
            Value::tuple(vec![
                Value::str(&e.device),
                enc_addr(e.peer),
                enc_attrs(&e.attrs),
            ]),
        ));
    }
    out
}

/// Facts anchored at one device's configuration.
fn device_facts(dev: &str, dc: &net_model::DeviceConfig, out: &mut Vec<Fact>) {
    for (ifname, ic) in &dc.interfaces {
        out.push((
            "iface",
            Value::tuple(vec![
                Value::str(dev),
                Value::str(ifname),
                enc_prefix(ic.prefix),
                enc_addr(ic.addr),
            ]),
        ));
        if let Some(o) = &ic.ospf {
            out.push((
                "ospf_iface",
                Value::tuple(vec![
                    Value::str(dev),
                    Value::str(ifname),
                    Value::U32(o.cost),
                    Value::U32(o.area),
                    Value::Bool(o.passive),
                ]),
            ));
        }
    }
    for r in &dc.static_routes {
        out.push((
            "static_route",
            Value::tuple(vec![
                Value::str(dev),
                enc_prefix(r.prefix),
                enc_next_hop(&r.next_hop),
                Value::U32(r.admin_distance as u32),
            ]),
        ));
    }
    if let Some(bgp) = &dc.bgp {
        out.push((
            "bgp_proc",
            Value::tuple(vec![
                Value::str(dev),
                Value::U32(bgp.asn),
                Value::U32(bgp.router_id),
            ]),
        ));
        for n in &bgp.neighbors {
            out.push((
                "bgp_neighbor",
                Value::tuple(vec![
                    Value::str(dev),
                    enc_addr(n.peer),
                    Value::U32(n.remote_as),
                    enc_opt_name(&n.import_policy),
                    enc_opt_name(&n.export_policy),
                ]),
            ));
        }
        for &p in &bgp.networks {
            out.push((
                "bgp_network",
                Value::tuple(vec![Value::str(dev), enc_prefix(p)]),
            ));
        }
    }
    for (name, rm) in &dc.route_maps {
        out.push((
            "route_map",
            Value::tuple(vec![Value::str(dev), Value::str(name), enc_route_map(rm)]),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::{ip, DeviceConfig, Endpoint, IfaceConfig, RouteMap};

    fn snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        let mut r1 = DeviceConfig::default();
        r1.interfaces.insert(
            "eth0".into(),
            IfaceConfig::new(ip("10.0.0.1"), 31).with_ospf(3),
        );
        r1.route_maps.insert("rm".into(), RouteMap::permit_all());
        let mut r2 = DeviceConfig::default();
        r2.interfaces
            .insert("eth0".into(), IfaceConfig::new(ip("10.0.0.0"), 31));
        snap.devices.insert("r1".into(), r1);
        snap.devices.insert("r2".into(), r2);
        snap.links.push(Link::new(
            Endpoint::new("r1", "eth0"),
            Endpoint::new("r2", "eth0"),
        ));
        snap
    }

    #[test]
    fn snapshot_facts_cover_all_relations_present() {
        let snap = snapshot();
        let facts = snapshot_facts(&snap);
        let rels: std::collections::BTreeSet<&str> = facts.iter().map(|(r, _)| *r).collect();
        assert!(rels.contains("iface"));
        assert!(rels.contains("link"));
        assert!(rels.contains("ospf_iface"));
        assert!(rels.contains("route_map"));
        // 3 ifaces? two ifaces, one link, one ospf, one route map.
        assert_eq!(facts.iter().filter(|(r, _)| *r == "iface").count(), 2);
    }

    #[test]
    fn sharded_facts_are_a_partition_of_snapshot_facts() {
        let mut snap = snapshot();
        // Exercise every global-fact family, not just links.
        snap.environment.down_links.insert(snap.links[0].clone());
        snap.environment.down_devices.insert("r2".into());
        let sort_key = |f: &(String, Value)| (f.0.clone(), f.1.clone());
        let mut expected: Vec<(String, Value)> = snapshot_facts(&snap)
            .into_iter()
            .map(|(r, v)| (r.to_string(), v))
            .collect();
        expected.sort_by_key(sort_key);
        for n in [1, 2, 5] {
            let plan = net_model::ShardPlan::partition(&snap, n);
            let mut got: Vec<(String, Value)> = (0..plan.shard_count())
                .flat_map(|s| shard_facts(&snap, &plan, s))
                .map(|(r, v)| (r.to_string(), v))
                .collect();
            got.sort_by_key(sort_key);
            assert_eq!(got, expected, "shard facts diverge for {n} shards");
        }
        // A hand-built plan that fails to claim a device must still
        // cover it: shard 0 adopts the unowned remainder.
        let partial = net_model::ShardPlan::from_groups(vec![vec![], vec!["r1".into()]]);
        let mut got: Vec<(String, Value)> = (0..partial.shard_count())
            .flat_map(|s| shard_facts(&snap, &partial, s))
            .map(|(r, v)| (r.to_string(), v))
            .collect();
        got.sort_by_key(sort_key);
        assert_eq!(got, expected, "partial plan must not drop device facts");
    }
}
