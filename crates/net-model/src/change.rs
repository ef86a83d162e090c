//! Change sets: the unit of "what happened to the network".
//!
//! A [`ChangeSet`] is an ordered list of primitive [`Change`]s covering the
//! usual operational taxonomy: link/device failures and recoveries, ACL
//! edits, route-map edits, static route edits, BGP origination changes and
//! external announcement churn. [`ChangeSet::apply`] produces the modified
//! snapshot. The differential engine never interprets a change kind: its
//! input delta for an epoch is `facts(after) − facts(before)` restricted to
//! [`ChangeSet::devices`], the devices the epoch names. A change kind is
//! therefore fully defined by how it applies and which device it names.

use crate::acl::AclEntry;
use crate::config::{NextHop, StaticRoute};
use crate::ip::{Ipv4Addr, Ipv4Prefix};
use crate::route::RouteMap;
use crate::snapshot::{ExternalRoute, Link, Snapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One primitive configuration or environment change.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Change {
    /// Fail a link.
    LinkDown(Link),
    /// Recover a link.
    LinkUp(Link),
    /// Fail a device (all its links go down with it).
    DeviceDown(String),
    /// Recover a device.
    DeviceUp(String),
    /// Add an entry to a named ACL (creating the ACL if absent).
    AclEntryAdd {
        /// Device to edit.
        device: String,
        /// ACL name.
        acl: String,
        /// Entry to add.
        entry: AclEntry,
    },
    /// Remove an ACL entry by sequence number.
    AclEntryRemove {
        /// Device to edit.
        device: String,
        /// ACL name.
        acl: String,
        /// Sequence number to remove.
        seq: u32,
    },
    /// Bind or unbind an inbound ACL on an interface.
    SetAclIn {
        /// Device to edit.
        device: String,
        /// Interface name.
        iface: String,
        /// ACL name, or `None` to unbind.
        acl: Option<String>,
    },
    /// Bind or unbind an outbound ACL on an interface.
    SetAclOut {
        /// Device to edit.
        device: String,
        /// Interface name.
        iface: String,
        /// ACL name, or `None` to unbind.
        acl: Option<String>,
    },
    /// Replace (or create) a named route map.
    SetRouteMap {
        /// Device to edit.
        device: String,
        /// Route-map name.
        name: String,
        /// New contents.
        map: RouteMap,
    },
    /// Add a static route.
    StaticRouteAdd {
        /// Device to edit.
        device: String,
        /// Route to add.
        route: StaticRoute,
    },
    /// Remove a static route (matched on prefix + next hop).
    StaticRouteRemove {
        /// Device to edit.
        device: String,
        /// Destination prefix of the route to remove.
        prefix: Ipv4Prefix,
        /// Next hop of the route to remove.
        next_hop: NextHop,
    },
    /// Start originating a prefix in BGP (network statement).
    BgpNetworkAdd {
        /// Device to edit.
        device: String,
        /// Prefix to originate.
        prefix: Ipv4Prefix,
    },
    /// Stop originating a prefix in BGP.
    BgpNetworkRemove {
        /// Device to edit.
        device: String,
        /// Prefix to withdraw from origination.
        prefix: Ipv4Prefix,
    },
    /// An external peer announces a route.
    ExternalAnnounce(ExternalRoute),
    /// An external peer withdraws a previously announced route
    /// (matched on device + peer + prefix).
    ExternalWithdraw {
        /// Device that heard the announcement.
        device: String,
        /// Neighbor address.
        peer: Ipv4Addr,
        /// Announced prefix to withdraw.
        prefix: Ipv4Prefix,
    },
    /// Change the OSPF cost of an interface.
    SetOspfCost {
        /// Device to edit.
        device: String,
        /// Interface name.
        iface: String,
        /// New cost.
        cost: u32,
    },
}

impl fmt::Display for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Change::LinkDown(l) => write!(f, "link down: {l}"),
            Change::LinkUp(l) => write!(f, "link up: {l}"),
            Change::DeviceDown(d) => write!(f, "device down: {d}"),
            Change::DeviceUp(d) => write!(f, "device up: {d}"),
            Change::AclEntryAdd { device, acl, entry } => {
                write!(f, "{device}: acl {acl} += seq {}", entry.seq)
            }
            Change::AclEntryRemove { device, acl, seq } => {
                write!(f, "{device}: acl {acl} -= seq {seq}")
            }
            Change::SetAclIn { device, iface, acl } => {
                write!(f, "{device}[{iface}]: acl-in = {acl:?}")
            }
            Change::SetAclOut { device, iface, acl } => {
                write!(f, "{device}[{iface}]: acl-out = {acl:?}")
            }
            Change::SetRouteMap { device, name, .. } => {
                write!(f, "{device}: route-map {name} replaced")
            }
            Change::StaticRouteAdd { device, route } => {
                write!(f, "{device}: static {} added", route.prefix)
            }
            Change::StaticRouteRemove { device, prefix, .. } => {
                write!(f, "{device}: static {prefix} removed")
            }
            Change::BgpNetworkAdd { device, prefix } => {
                write!(f, "{device}: bgp network {prefix} added")
            }
            Change::BgpNetworkRemove { device, prefix } => {
                write!(f, "{device}: bgp network {prefix} removed")
            }
            Change::ExternalAnnounce(e) => {
                write!(
                    f,
                    "{}: external announce {} via {}",
                    e.device, e.attrs.prefix, e.peer
                )
            }
            Change::ExternalWithdraw {
                device,
                peer,
                prefix,
            } => {
                write!(f, "{device}: external withdraw {prefix} via {peer}")
            }
            Change::SetOspfCost {
                device,
                iface,
                cost,
            } => {
                write!(f, "{device}[{iface}]: ospf cost = {cost}")
            }
        }
    }
}

/// Error applying a change to a snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ApplyError {
    /// Referenced device does not exist.
    NoSuchDevice(String),
    /// Referenced interface does not exist on the device.
    NoSuchInterface {
        /// Device name.
        device: String,
        /// Interface name.
        iface: String,
    },
    /// Referenced link does not exist in the topology.
    NoSuchLink(Link),
    /// Element to remove was not present.
    NotPresent(String),
    /// Device has no BGP process configured.
    NoBgpProcess(String),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::NoSuchDevice(d) => write!(f, "no such device {d:?}"),
            ApplyError::NoSuchInterface { device, iface } => {
                write!(f, "no such interface {device}[{iface}]")
            }
            ApplyError::NoSuchLink(l) => write!(f, "no such link {l}"),
            ApplyError::NotPresent(what) => write!(f, "not present: {what}"),
            ApplyError::NoBgpProcess(d) => write!(f, "device {d:?} runs no BGP"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// An ordered list of changes applied atomically.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct ChangeSet {
    /// The changes, in application order.
    pub changes: Vec<Change>,
}

impl ChangeSet {
    /// A change set with a single change.
    pub fn single(change: Change) -> Self {
        ChangeSet {
            changes: vec![change],
        }
    }

    /// Builds a change set from a list.
    pub fn of(changes: Vec<Change>) -> Self {
        ChangeSet { changes }
    }

    /// Number of primitive changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether the change set is empty.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// The devices this set names, sorted and deduplicated: each change
    /// names the device its effect is anchored at. Applying the set can
    /// alter only state anchored at these devices, so an engine's input
    /// delta is the before/after difference of their state alone.
    pub fn devices(&self) -> BTreeSet<&str> {
        self.changes.iter().map(Change::device).collect()
    }

    /// Applies all changes to a copy of the snapshot, returning the modified
    /// snapshot. Fails (without partial effects visible to the caller) if
    /// any change references a missing element.
    pub fn apply(&self, snapshot: &Snapshot) -> Result<Snapshot, ApplyError> {
        let mut snap = snapshot.clone();
        for change in &self.changes {
            apply_one(&mut snap, change)?;
        }
        Ok(snap)
    }
}

impl Change {
    /// Applies this change to the snapshot **in place**. On error the
    /// snapshot is unchanged (each change validates before mutating), but
    /// callers sequencing several changes who need all-or-nothing semantics
    /// across the set should work on a copy — see [`ChangeSet::apply`].
    /// Incremental engines use this to advance a mirror snapshot one change
    /// at a time without cloning the whole snapshot per change.
    pub fn apply_to(&self, snap: &mut Snapshot) -> Result<(), ApplyError> {
        apply_one(snap, self)
    }

    /// The device this change's effect is anchored at: the edited
    /// device, a failed or recovered device, the device hearing an
    /// external route, or a link's first endpoint `a.device` (links and
    /// link failures are owned by their canonical first endpoint).
    fn device(&self) -> &str {
        match self {
            Change::LinkDown(l) | Change::LinkUp(l) => &l.a.device,
            Change::ExternalAnnounce(e) => &e.device,
            Change::DeviceDown(device)
            | Change::DeviceUp(device)
            | Change::AclEntryAdd { device, .. }
            | Change::AclEntryRemove { device, .. }
            | Change::SetAclIn { device, .. }
            | Change::SetAclOut { device, .. }
            | Change::SetRouteMap { device, .. }
            | Change::StaticRouteAdd { device, .. }
            | Change::StaticRouteRemove { device, .. }
            | Change::BgpNetworkAdd { device, .. }
            | Change::BgpNetworkRemove { device, .. }
            | Change::ExternalWithdraw { device, .. }
            | Change::SetOspfCost { device, .. } => device,
        }
    }
}

fn device_mut<'a>(
    snap: &'a mut Snapshot,
    name: &str,
) -> Result<&'a mut crate::config::DeviceConfig, ApplyError> {
    snap.devices
        .get_mut(name)
        .ok_or_else(|| ApplyError::NoSuchDevice(name.to_string()))
}

fn apply_one(snap: &mut Snapshot, change: &Change) -> Result<(), ApplyError> {
    match change {
        Change::LinkDown(l) => {
            if !snap.links.contains(l) {
                return Err(ApplyError::NoSuchLink(l.clone()));
            }
            snap.environment.down_links.insert(l.clone());
        }
        Change::LinkUp(l) => {
            if !snap.links.contains(l) {
                return Err(ApplyError::NoSuchLink(l.clone()));
            }
            snap.environment.down_links.remove(l);
        }
        Change::DeviceDown(d) => {
            if !snap.devices.contains_key(d) {
                return Err(ApplyError::NoSuchDevice(d.clone()));
            }
            snap.environment.down_devices.insert(d.clone());
        }
        Change::DeviceUp(d) => {
            if !snap.devices.contains_key(d) {
                return Err(ApplyError::NoSuchDevice(d.clone()));
            }
            snap.environment.down_devices.remove(d);
        }
        Change::AclEntryAdd { device, acl, entry } => {
            let dc = device_mut(snap, device)?;
            dc.acls.entry(acl.clone()).or_default().add(entry.clone());
        }
        Change::AclEntryRemove { device, acl, seq } => {
            let dc = device_mut(snap, device)?;
            let a = dc
                .acls
                .get_mut(acl)
                .ok_or_else(|| ApplyError::NotPresent(format!("acl {acl}")))?;
            a.remove_seq(*seq)
                .ok_or_else(|| ApplyError::NotPresent(format!("acl {acl} seq {seq}")))?;
        }
        Change::SetAclIn { device, iface, acl } => {
            let dc = device_mut(snap, device)?;
            let ic = dc
                .interfaces
                .get_mut(iface)
                .ok_or_else(|| ApplyError::NoSuchInterface {
                    device: device.clone(),
                    iface: iface.clone(),
                })?;
            ic.acl_in = acl.clone();
        }
        Change::SetAclOut { device, iface, acl } => {
            let dc = device_mut(snap, device)?;
            let ic = dc
                .interfaces
                .get_mut(iface)
                .ok_or_else(|| ApplyError::NoSuchInterface {
                    device: device.clone(),
                    iface: iface.clone(),
                })?;
            ic.acl_out = acl.clone();
        }
        Change::SetRouteMap { device, name, map } => {
            let dc = device_mut(snap, device)?;
            dc.route_maps.insert(name.clone(), map.clone());
        }
        Change::StaticRouteAdd { device, route } => {
            let dc = device_mut(snap, device)?;
            dc.static_routes.push(route.clone());
        }
        Change::StaticRouteRemove {
            device,
            prefix,
            next_hop,
        } => {
            let dc = device_mut(snap, device)?;
            let pos = dc
                .static_routes
                .iter()
                .position(|r| r.prefix == *prefix && r.next_hop == *next_hop)
                .ok_or_else(|| ApplyError::NotPresent(format!("static {prefix}")))?;
            dc.static_routes.remove(pos);
        }
        Change::BgpNetworkAdd { device, prefix } => {
            let dc = device_mut(snap, device)?;
            let bgp = dc
                .bgp
                .as_mut()
                .ok_or_else(|| ApplyError::NoBgpProcess(device.clone()))?;
            if !bgp.networks.contains(prefix) {
                bgp.networks.push(*prefix);
            }
        }
        Change::BgpNetworkRemove { device, prefix } => {
            let dc = device_mut(snap, device)?;
            let bgp = dc
                .bgp
                .as_mut()
                .ok_or_else(|| ApplyError::NoBgpProcess(device.clone()))?;
            let pos = bgp
                .networks
                .iter()
                .position(|p| p == prefix)
                .ok_or_else(|| ApplyError::NotPresent(format!("bgp network {prefix}")))?;
            bgp.networks.remove(pos);
        }
        Change::ExternalAnnounce(e) => {
            if !snap.devices.contains_key(&e.device) {
                return Err(ApplyError::NoSuchDevice(e.device.clone()));
            }
            snap.environment.external_routes.push(e.clone());
        }
        Change::ExternalWithdraw {
            device,
            peer,
            prefix,
        } => {
            let pos = snap
                .environment
                .external_routes
                .iter()
                .position(|e| e.device == *device && e.peer == *peer && e.attrs.prefix == *prefix)
                .ok_or_else(|| ApplyError::NotPresent(format!("external {prefix}")))?;
            snap.environment.external_routes.remove(pos);
        }
        Change::SetOspfCost {
            device,
            iface,
            cost,
        } => {
            let dc = device_mut(snap, device)?;
            let ic = dc
                .interfaces
                .get_mut(iface)
                .ok_or_else(|| ApplyError::NoSuchInterface {
                    device: device.clone(),
                    iface: iface.clone(),
                })?;
            let ospf = ic
                .ospf
                .as_mut()
                .ok_or_else(|| ApplyError::NotPresent(format!("ospf on {device}[{iface}]")))?;
            ospf.cost = *cost;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{Acl, AclEntry, Action, FlowMatch};
    use crate::config::{DeviceConfig, IfaceConfig};
    use crate::ip::{ip, pfx};
    use crate::snapshot::Endpoint;

    fn snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        let mut r1 = DeviceConfig::default();
        r1.interfaces.insert(
            "eth0".into(),
            IfaceConfig::new(ip("10.0.0.1"), 31).with_ospf(1),
        );
        r1.acls.insert("block".into(), Acl::default());
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
    fn apply_does_not_mutate_original() {
        let snap = snapshot();
        let cs = ChangeSet::single(Change::LinkDown(snap.links[0].clone()));
        let out = cs.apply(&snap).unwrap();
        assert!(snap.environment.down_links.is_empty());
        assert_eq!(out.environment.down_links.len(), 1);
        assert_eq!(out.up_links().count(), 0);
    }

    #[test]
    fn link_down_up_roundtrip() {
        let snap = snapshot();
        let link = snap.links[0].clone();
        let cs = ChangeSet::of(vec![
            Change::LinkDown(link.clone()),
            Change::LinkUp(link.clone()),
        ]);
        let out = cs.apply(&snap).unwrap();
        assert_eq!(out, snap);
    }

    #[test]
    fn unknown_references_error() {
        let snap = snapshot();
        let bad_link = Link::new(Endpoint::new("x", "e"), Endpoint::new("y", "e"));
        assert!(matches!(
            ChangeSet::single(Change::LinkDown(bad_link)).apply(&snap),
            Err(ApplyError::NoSuchLink(_))
        ));
        assert!(matches!(
            ChangeSet::single(Change::DeviceDown("ghost".into())).apply(&snap),
            Err(ApplyError::NoSuchDevice(_))
        ));
        assert!(matches!(
            ChangeSet::single(Change::SetOspfCost {
                device: "r2".into(),
                iface: "eth0".into(),
                cost: 5
            })
            .apply(&snap),
            Err(ApplyError::NotPresent(_)) // r2's eth0 has no OSPF
        ));
        assert!(matches!(
            ChangeSet::single(Change::BgpNetworkAdd {
                device: "r1".into(),
                prefix: pfx("1.0.0.0/8")
            })
            .apply(&snap),
            Err(ApplyError::NoBgpProcess(_))
        ));
    }

    #[test]
    fn acl_edits() {
        let snap = snapshot();
        let entry = AclEntry {
            seq: 10,
            action: Action::Deny,
            matches: FlowMatch::dst(pfx("10.0.0.0/8")),
        };
        let out = ChangeSet::of(vec![
            Change::AclEntryAdd {
                device: "r1".into(),
                acl: "block".into(),
                entry: entry.clone(),
            },
            Change::SetAclIn {
                device: "r1".into(),
                iface: "eth0".into(),
                acl: Some("block".into()),
            },
        ])
        .apply(&snap)
        .unwrap();
        let r1 = &out.devices["r1"];
        assert_eq!(r1.acls["block"].entries.len(), 1);
        assert_eq!(r1.interfaces["eth0"].acl_in.as_deref(), Some("block"));
        // Removing a nonexistent seq errors.
        assert!(matches!(
            ChangeSet::single(Change::AclEntryRemove {
                device: "r1".into(),
                acl: "block".into(),
                seq: 99
            })
            .apply(&out),
            Err(ApplyError::NotPresent(_))
        ));
    }

    #[test]
    fn static_route_add_remove() {
        let snap = snapshot();
        let route = StaticRoute {
            prefix: pfx("0.0.0.0/0"),
            next_hop: NextHop::Ip(ip("10.0.0.0")),
            admin_distance: 1,
        };
        let with = ChangeSet::single(Change::StaticRouteAdd {
            device: "r1".into(),
            route: route.clone(),
        })
        .apply(&snap)
        .unwrap();
        assert_eq!(with.devices["r1"].static_routes.len(), 1);
        let without = ChangeSet::single(Change::StaticRouteRemove {
            device: "r1".into(),
            prefix: route.prefix,
            next_hop: route.next_hop,
        })
        .apply(&with)
        .unwrap();
        assert_eq!(without, snap);
    }

    #[test]
    fn ospf_cost_change() {
        let snap = snapshot();
        let out = ChangeSet::single(Change::SetOspfCost {
            device: "r1".into(),
            iface: "eth0".into(),
            cost: 77,
        })
        .apply(&snap)
        .unwrap();
        assert_eq!(
            out.devices["r1"].interfaces["eth0"]
                .ospf
                .as_ref()
                .unwrap()
                .cost,
            77
        );
    }

    #[test]
    fn devices_are_the_sorted_deduplicated_anchors() {
        let snap = snapshot();
        // A link is anchored at its canonical first endpoint, r1.
        let cs = ChangeSet::of(vec![
            Change::DeviceDown("r2".into()),
            Change::LinkDown(snap.links[0].clone()),
            Change::SetAclIn {
                device: "r2".into(),
                iface: "eth0".into(),
                acl: None,
            },
        ]);
        assert_eq!(cs.devices().into_iter().collect::<Vec<_>>(), ["r1", "r2"]);
        assert!(ChangeSet::default().devices().is_empty());
    }

    #[test]
    fn changes_display_readably() {
        let snap = snapshot();
        let c = Change::LinkDown(snap.links[0].clone());
        assert!(c.to_string().contains("link down"));
    }
}
