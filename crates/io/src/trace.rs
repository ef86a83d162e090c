//! The `trace` artifact: an ordered stream of change epochs. Each epoch
//! is one [`net_model::ChangeSet`] (applied atomically by the analyzers)
//! with an optional label (e.g. the scenario kind that generated it).

use crate::codec::{
    fmt_acl_entry, fmt_label, fmt_link, fmt_opt_str, fmt_route_attrs, parse_acl_entry,
    parse_header, parse_link, parse_route_attrs, write_route_map, RouteMapBuilder, W,
};
use crate::error::{perr, IoError};
use crate::lex::{quote, Cursor, Lines};
use crate::snapshot::{fmt_next_hop, fmt_static_route, parse_next_hop, parse_static_route};
use crate::Artifact;
use net_model::{Change, ChangeSet, ExternalRoute};

/// One epoch of a change trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceEpoch {
    /// Optional label (scenario kind, operator note, ...).
    pub label: Option<String>,
    /// The changes applied atomically in this epoch.
    pub changes: ChangeSet,
}

/// A recorded stream of change epochs, replayable against a snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Epochs in application order.
    pub epochs: Vec<TraceEpoch>,
}

impl Trace {
    /// Wraps plain change sets as unlabeled epochs.
    pub fn from_changesets(sets: impl IntoIterator<Item = ChangeSet>) -> Self {
        Trace {
            epochs: sets
                .into_iter()
                .map(|changes| TraceEpoch {
                    label: None,
                    changes,
                })
                .collect(),
        }
    }

    /// Wraps labeled change sets (label, changes) as epochs.
    pub fn from_labeled(sets: impl IntoIterator<Item = (String, ChangeSet)>) -> Self {
        Trace {
            epochs: sets
                .into_iter()
                .map(|(label, changes)| TraceEpoch {
                    label: Some(label),
                    changes,
                })
                .collect(),
        }
    }

    /// Total number of primitive changes across all epochs.
    pub fn change_count(&self) -> usize {
        self.epochs.iter().map(|e| e.changes.len()).sum()
    }
}

/// Serializes a trace.
pub fn write_trace(trace: &Trace) -> String {
    let mut w = W::new(Artifact::Trace);
    for ep in &trace.epochs {
        w.line(0, &format!("epoch{}", fmt_label(&ep.label)));
        for ch in &ep.changes.changes {
            write_change(&mut w, ch);
        }
    }
    w.finish()
}

fn write_change(w: &mut W, ch: &Change) {
    match ch {
        Change::LinkDown(l) => w.line(1, &format!("link-down {}", fmt_link(l))),
        Change::LinkUp(l) => w.line(1, &format!("link-up {}", fmt_link(l))),
        Change::DeviceDown(d) => w.line(1, &format!("device-down {}", quote(d))),
        Change::DeviceUp(d) => w.line(1, &format!("device-up {}", quote(d))),
        Change::AclEntryAdd { device, acl, entry } => w.line(
            1,
            &format!(
                "acl-add {} {} {}",
                quote(device),
                quote(acl),
                fmt_acl_entry(entry)
            ),
        ),
        Change::AclEntryRemove { device, acl, seq } => w.line(
            1,
            &format!("acl-del {} {} {seq}", quote(device), quote(acl)),
        ),
        Change::SetAclIn { device, iface, acl } => w.line(
            1,
            &format!(
                "set-acl-in {} {} {}",
                quote(device),
                quote(iface),
                fmt_opt_str(acl)
            ),
        ),
        Change::SetAclOut { device, iface, acl } => w.line(
            1,
            &format!(
                "set-acl-out {} {} {}",
                quote(device),
                quote(iface),
                fmt_opt_str(acl)
            ),
        ),
        Change::SetRouteMap { device, name, map } => {
            w.line(
                1,
                &format!("set-route-map {} {}", quote(device), quote(name)),
            );
            write_route_map(w, 2, map);
            w.line(1, "end-map");
        }
        Change::StaticRouteAdd { device, route } => w.line(
            1,
            &format!("static-add {} {}", quote(device), fmt_static_route(route)),
        ),
        Change::StaticRouteRemove {
            device,
            prefix,
            next_hop,
        } => w.line(
            1,
            &format!(
                "static-del {} {prefix} {}",
                quote(device),
                fmt_next_hop(next_hop)
            ),
        ),
        Change::BgpNetworkAdd { device, prefix } => {
            w.line(1, &format!("bgp-net-add {} {prefix}", quote(device)))
        }
        Change::BgpNetworkRemove { device, prefix } => {
            w.line(1, &format!("bgp-net-del {} {prefix}", quote(device)))
        }
        Change::ExternalAnnounce(e) => w.line(
            1,
            &format!(
                "announce {} {} {}",
                quote(&e.device),
                e.peer,
                fmt_route_attrs(&e.attrs)
            ),
        ),
        Change::ExternalWithdraw {
            device,
            peer,
            prefix,
        } => w.line(1, &format!("withdraw {} {peer} {prefix}", quote(device))),
        Change::SetOspfCost {
            device,
            iface,
            cost,
        } => w.line(
            1,
            &format!("ospf-cost {} {} {cost}", quote(device), quote(iface)),
        ),
    }
}

/// Parses a trace artifact (requires the `end` sentinel).
pub fn parse_trace(text: &str) -> Result<Trace, IoError> {
    let mut lines = parse_header(text, Artifact::Trace)?;
    let mut trace = Trace::default();
    lines.body("trace", "end", |kw, c, lines| {
        if kw == "epoch" {
            trace.epochs.push(TraceEpoch {
                label: c.trailing("label", |c| c.string("epoch label"))?,
                changes: ChangeSet::default(),
            });
            return Ok(());
        }
        let Some(ep) = trace.epochs.last_mut() else {
            return Err(perr(c.line, format!("{kw} before the first epoch")));
        };
        ep.changes.changes.push(parse_change(kw, c, lines)?);
        Ok(())
    })?;
    Ok(trace)
}

/// Parses one change line (`set-route-map` also consumes its clause
/// block through `end-map`).
fn parse_change(kw: &str, c: &mut Cursor, lines: &mut Lines<'_>) -> Result<Change, IoError> {
    Ok(match kw {
        "link-down" => Change::LinkDown(parse_link(c)?),
        "link-up" => Change::LinkUp(parse_link(c)?),
        "device-down" => Change::DeviceDown(c.string("device")?),
        "device-up" => Change::DeviceUp(c.string("device")?),
        "acl-add" => Change::AclEntryAdd {
            device: c.string("device")?,
            acl: c.string("ACL name")?,
            entry: parse_acl_entry(c)?,
        },
        "acl-del" => Change::AclEntryRemove {
            device: c.string("device")?,
            acl: c.string("ACL name")?,
            seq: c.parse("entry seq")?,
        },
        "set-acl-in" => Change::SetAclIn {
            device: c.string("device")?,
            iface: c.string("interface")?,
            acl: c.opt_string("ACL name")?,
        },
        "set-acl-out" => Change::SetAclOut {
            device: c.string("device")?,
            iface: c.string("interface")?,
            acl: c.opt_string("ACL name")?,
        },
        "set-route-map" => {
            let device = c.string("device")?;
            let name = c.string("route-map name")?;
            c.finish()?;
            let mut rm = RouteMapBuilder::new();
            lines.body("set-route-map change", "end-map", |kw, c, _| {
                if rm.try_line(kw, c)? {
                    return Ok(());
                }
                Err(perr(
                    c.line,
                    format!("expected clause/match/set lines or end-map, found {kw:?}"),
                ))
            })?;
            Change::SetRouteMap {
                device,
                name,
                map: rm.finish(),
            }
        }
        "static-add" => Change::StaticRouteAdd {
            device: c.string("device")?,
            route: parse_static_route(c)?,
        },
        "static-del" => Change::StaticRouteRemove {
            device: c.string("device")?,
            prefix: c.prefix("static prefix")?,
            next_hop: parse_next_hop(c)?,
        },
        "bgp-net-add" => Change::BgpNetworkAdd {
            device: c.string("device")?,
            prefix: c.prefix("network prefix")?,
        },
        "bgp-net-del" => Change::BgpNetworkRemove {
            device: c.string("device")?,
            prefix: c.prefix("network prefix")?,
        },
        "announce" => Change::ExternalAnnounce(ExternalRoute {
            device: c.string("device")?,
            peer: c.ip("peer address")?,
            attrs: parse_route_attrs(c)?,
        }),
        "withdraw" => Change::ExternalWithdraw {
            device: c.string("device")?,
            peer: c.ip("peer address")?,
            prefix: c.prefix("withdrawn prefix")?,
        },
        "ospf-cost" => Change::SetOspfCost {
            device: c.string("device")?,
            iface: c.string("interface")?,
            cost: c.parse("ospf cost")?,
        },
        other => return Err(perr(c.line, format!("unknown trace keyword {other:?}"))),
    })
}
