//! Soundness of the epoch input delta. An epoch's input to both
//! incremental stages is the state difference of the devices it names
//! (`ChangeSet::devices`): the control plane diffs `device_set_facts`, the
//! data plane diffs `filter_bindings`. That locality is only sound if no
//! change touches state anchored at a device it does not name, so both
//! local diffs must equal the same diff taken over the whole network —
//! for every change set the scenario generator produces (fat-trees k=4/6,
//! eBGP and OSPF, mixed-kind batches of 1–3 changes), and for the change
//! kinds it never emits (outbound ACL bindings, external announcements
//! and withdrawals) on hand-written inputs.

use control_plane::relations::{device_set_facts, snapshot_facts, Fact};
use data_plane::{filter_bindings, filter_diff, Dir, FilterChange};
use ddflow::{Diff, Value};
use net_model::{
    ip, pfx, AclEntry, Action, Change, ChangeSet, ExternalRoute, FlowMatch, RouteAttrs, Snapshot,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use topo_gen::{fat_tree, Routing, ScenarioGen, ALL_SCENARIOS};

/// `after − before` as a consolidated multiset of fact deltas.
fn fact_diff(before: Vec<Fact>, after: Vec<Fact>) -> Vec<(&'static str, Value, Diff)> {
    let mut counts: BTreeMap<(&'static str, Value), Diff> = BTreeMap::new();
    let signed = before.into_iter().map(|f| (f, -1));
    for (fact, diff) in signed.chain(after.into_iter().map(|f| (f, 1))) {
        *counts.entry(fact).or_insert(0) += diff;
    }
    counts
        .into_iter()
        .filter(|(_, d)| *d != 0)
        .map(|((rel, row), d)| (rel, row, d))
        .collect()
}

/// Asserts both stages' local deltas for `changes` equal their
/// whole-network counterparts, and returns the data-plane rebindings.
fn assert_delta_sound(before: &Snapshot, changes: &ChangeSet) -> Vec<FilterChange> {
    let after = changes.apply(before).expect("generated changes apply");
    let named = changes.devices();
    assert_eq!(
        fact_diff(
            device_set_facts(before, &named),
            device_set_facts(&after, &named)
        ),
        fact_diff(snapshot_facts(before), snapshot_facts(&after)),
        "control-plane delta is not local to {named:?}: {changes:?}"
    );
    let every: BTreeSet<&str> = before.devices.keys().map(String::as_str).collect();
    let local = filter_diff(
        filter_bindings(before, &named),
        filter_bindings(&after, &named),
    );
    assert_eq!(
        local,
        filter_diff(
            filter_bindings(before, &every),
            filter_bindings(&after, &every)
        ),
        "data-plane delta is not local to {named:?}: {changes:?}"
    );
    local
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(24, 0xDE17_A5E7))]

    /// Generator walks: every epoch is a batch of 1–3 changes of
    /// independently drawn kinds, valid against the evolving snapshot.
    #[test]
    fn epoch_delta_is_the_named_devices_state_diff(
        k in prop_oneof![Just(4u32), Just(6)],
        ospf in any::<bool>(),
        seed in 0u64..10_000,
        batch in 1usize..=3,
    ) {
        let routing = if ospf { Routing::Ospf } else { Routing::Ebgp };
        let mut cur = fat_tree(k, routing).snapshot;
        let mut gen = ScenarioGen::new(seed);
        for epoch in 0..24 {
            let mut staged = cur.clone();
            let mut changes = Vec::new();
            for i in 0..batch {
                let kind = ALL_SCENARIOS[(seed as usize + epoch * 5 + i * 7) % ALL_SCENARIOS.len()];
                if let Some(cs) = gen.generate(&staged, kind) {
                    if let Ok(next) = cs.apply(&staged) {
                        staged = next;
                        changes.extend(cs.changes);
                    }
                }
            }
            if changes.is_empty() {
                continue;
            }
            assert_delta_sound(&cur, &ChangeSet::of(changes));
            cur = staged;
        }
    }
}

fn deny_then_permit(dst: &str) -> [AclEntry; 2] {
    [
        AclEntry {
            seq: 10,
            action: Action::Deny,
            matches: FlowMatch::dst(pfx(dst)),
        },
        AclEntry {
            seq: 20,
            action: Action::Permit,
            matches: FlowMatch::any(),
        },
    ]
}

#[test]
fn hand_inputs_cover_the_kinds_the_generator_never_emits() {
    let base = fat_tree(4, Routing::Ebgp).snapshot;
    let route = ExternalRoute {
        device: "core0".into(),
        peer: ip("192.0.2.1"),
        attrs: RouteAttrs::originated(pfx("198.51.100.0/24")),
    };
    let withdraw = Change::ExternalWithdraw {
        device: "core0".into(),
        peer: route.peer,
        prefix: route.attrs.prefix,
    };
    let mut acl_x: Vec<Change> = deny_then_permit("172.16.1.0/24")
        .into_iter()
        .map(|entry| Change::AclEntryAdd {
            device: "edge0_0".into(),
            acl: "x".into(),
            entry,
        })
        .collect();
    acl_x.push(Change::SetAclOut {
        device: "edge0_0".into(),
        iface: "up0".into(),
        acl: Some("x".into()),
    });
    let announced = ChangeSet::single(Change::ExternalAnnounce(route.clone()))
        .apply(&base)
        .unwrap();
    let bound = ChangeSet::of(acl_x.clone()).apply(&base).unwrap();
    let unbind = |acl: Option<&str>| Change::SetAclOut {
        device: "edge0_0".into(),
        iface: "up0".into(),
        acl: acl.map(str::to_string),
    };
    for (snap, changes) in [
        (&base, acl_x),
        (&base, vec![unbind(Some("undefined"))]),
        (&bound, vec![unbind(None)]),
        (&bound, vec![unbind(Some("x"))]),
        (&base, vec![Change::ExternalAnnounce(route.clone())]),
        (
            &base,
            vec![
                Change::ExternalAnnounce(route.clone()),
                Change::ExternalAnnounce(route.clone()),
            ],
        ),
        (&announced, vec![withdraw.clone()]),
        (
            &base,
            vec![Change::ExternalAnnounce(route.clone()), withdraw],
        ),
    ] {
        assert_delta_sound(snap, &ChangeSet::of(changes));
    }
}

/// Rebinding one interface twice in an epoch is one rebinding to the end
/// state: the intermediate ACL's predicate must never reach the verifier
/// (it would refine the packet classes the epoch reports on).
#[test]
fn double_rebind_is_one_filter_change_to_the_end_state() {
    let mut snap = fat_tree(4, Routing::Ospf).snapshot;
    let dc = snap.devices.get_mut("agg0_0").unwrap();
    for (name, dst) in [("a", "172.17.0.0/25"), ("b", "172.17.0.0/24")] {
        let acl = dc.acls.entry(name.into()).or_default();
        for e in deny_then_permit(dst) {
            acl.add(e);
        }
    }
    let bind = |acl: &str| Change::SetAclIn {
        device: "agg0_0".into(),
        iface: "down0".into(),
        acl: Some(acl.into()),
    };
    let rebinds = assert_delta_sound(&snap, &ChangeSet::of(vec![bind("a"), bind("b")]));
    assert_eq!(
        rebinds,
        vec![FilterChange {
            device: "agg0_0".into(),
            iface: "down0".into(),
            dir: Dir::In,
            acl: Some(snap.devices["agg0_0"].acls["b"].clone()),
        }]
    );
    let bound = ChangeSet::single(bind("b")).apply(&snap).unwrap();
    assert!(
        assert_delta_sound(&bound, &ChangeSet::single(bind("b"))).is_empty(),
        "rebinding an interface to its own ACL changes nothing"
    );
}
