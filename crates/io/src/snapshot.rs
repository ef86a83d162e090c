//! The `snapshot` artifact: a complete [`net_model::Snapshot`] — device
//! configurations, physical links, failure state and external
//! announcements — with exact round-trip guarantees
//! (`parse_snapshot(write_snapshot(s)) == s`).

use crate::codec::{
    fmt_acl_entry, fmt_link, fmt_opt_str, fmt_route_attrs, parse_acl_entry, parse_header,
    parse_link, parse_route_attrs, write_route_map, RouteMapBuilder, W,
};
use crate::error::{perr, IoError};
use crate::lex::{quote, Cursor, Lines};
use crate::Artifact;
use net_model::{
    BgpConfig, BgpNeighbor, DeviceConfig, ExternalRoute, IfaceConfig, NextHop, OspfIfaceConfig,
    Snapshot, StaticRoute,
};

/// Serializes a snapshot in canonical form (devices, interfaces, route
/// maps and ACLs in name order; vectors in their stored order).
pub fn write_snapshot(snap: &Snapshot) -> String {
    let mut w = W::new(Artifact::Snapshot);
    write_snapshot_body(&mut w, snap);
    w.finish()
}

/// Emits a snapshot's body lines (shared with the checkpoint artifact,
/// which embeds them between `snapshot inline` and `end-snapshot`).
pub(crate) fn write_snapshot_body(w: &mut W, snap: &Snapshot) {
    for (name, dc) in &snap.devices {
        w.line(0, &format!("device {}", quote(name)));
        for (ifname, ic) in &dc.interfaces {
            let ospf = match &ic.ospf {
                None => "-".to_string(),
                Some(o) => format!(
                    "{} {} {}",
                    o.cost,
                    o.area,
                    if o.passive { "passive" } else { "active" }
                ),
            };
            w.line(
                1,
                &format!(
                    "iface {} {} {} acl-in {} acl-out {} ospf {ospf}",
                    quote(ifname),
                    ic.prefix,
                    ic.addr,
                    fmt_opt_str(&ic.acl_in),
                    fmt_opt_str(&ic.acl_out),
                ),
            );
        }
        for sr in &dc.static_routes {
            w.line(1, &format!("static {}", fmt_static_route(sr)));
        }
        if let Some(bgp) = &dc.bgp {
            w.line(1, &format!("bgp {} {}", bgp.asn, bgp.router_id));
            for n in &bgp.neighbors {
                w.line(
                    2,
                    &format!(
                        "neighbor {} as {} import {} export {}",
                        n.peer,
                        n.remote_as,
                        fmt_opt_str(&n.import_policy),
                        fmt_opt_str(&n.export_policy),
                    ),
                );
            }
            for p in &bgp.networks {
                w.line(2, &format!("network {p}"));
            }
        }
        for (name, map) in &dc.route_maps {
            w.line(1, &format!("route-map {}", quote(name)));
            write_route_map(w, 2, map);
        }
        for (name, acl) in &dc.acls {
            w.line(1, &format!("acl {}", quote(name)));
            for e in &acl.entries {
                w.line(2, &format!("entry {}", fmt_acl_entry(e)));
            }
        }
    }
    for l in &snap.links {
        w.line(0, &format!("link {}", fmt_link(l)));
    }
    for l in &snap.environment.down_links {
        w.line(0, &format!("down-link {}", fmt_link(l)));
    }
    for d in &snap.environment.down_devices {
        w.line(0, &format!("down-device {}", quote(d)));
    }
    for e in &snap.environment.external_routes {
        w.line(
            0,
            &format!(
                "external {} {} {}",
                quote(&e.device),
                e.peer,
                fmt_route_attrs(&e.attrs)
            ),
        );
    }
}

/// Parser state: the device section being filled in, plus the sub-section
/// (route map) still accumulating clause lines.
struct SnapParser {
    snap: Snapshot,
    cur_device: Option<(String, DeviceConfig)>,
    cur_rm: Option<(String, RouteMapBuilder)>,
    cur_acl: Option<String>,
}

impl SnapParser {
    fn flush_rm(&mut self) {
        if let Some((name, b)) = self.cur_rm.take() {
            // `cur_rm` is only ever set while `cur_device` is.
            let (_, dc) = self.cur_device.as_mut().expect("route map inside device");
            dc.route_maps.insert(name, b.finish());
        }
    }

    fn flush_device(&mut self) {
        self.flush_rm();
        self.cur_acl = None;
        if let Some((name, dc)) = self.cur_device.take() {
            self.snap.devices.insert(name, dc);
        }
    }

    fn device_mut(&mut self, line: usize, kw: &str) -> Result<&mut DeviceConfig, IoError> {
        self.cur_device
            .as_mut()
            .map(|(_, dc)| dc)
            .ok_or_else(|| perr(line, format!("{kw} outside a device section")))
    }

    fn bgp_mut(&mut self, line: usize, kw: &str) -> Result<&mut BgpConfig, IoError> {
        let bgp = self.device_mut(line, kw)?.bgp.as_mut();
        bgp.ok_or_else(|| perr(line, format!("{kw} outside a bgp section")))
    }

    /// One body line of the snapshot grammar.
    fn line(&mut self, kw: &str, c: &mut Cursor) -> Result<(), IoError> {
        // Route-map clause lines bind tightest; anything else closes the map.
        if let Some((_, rm)) = self.cur_rm.as_mut() {
            if rm.try_line(kw, c)? {
                return Ok(());
            }
            self.flush_rm();
        }
        let line = c.line;
        match kw {
            "device" => {
                self.flush_device();
                let name = c.string("device name")?;
                if self.snap.devices.contains_key(&name) {
                    return Err(perr(line, format!("duplicate device {name:?}")));
                }
                self.cur_device = Some((name, DeviceConfig::default()));
            }
            "iface" => {
                let name = c.string("interface name")?;
                let prefix = c.prefix("interface prefix")?;
                let addr = c.ip("interface address")?;
                c.expect("acl-in")?;
                let acl_in = c.opt_string("ACL name")?;
                c.expect("acl-out")?;
                let acl_out = c.opt_string("ACL name")?;
                let cost = c.kv_opt("ospf", "ospf cost", |w| w.parse().ok())?;
                let ospf = match cost {
                    None => None,
                    Some(cost) => Some(OspfIfaceConfig {
                        cost,
                        area: c.parse("ospf area")?,
                        passive: c.choice(&[("active", false), ("passive", true)])?,
                    }),
                };
                let dc = self.device_mut(line, kw)?;
                if dc.interfaces.contains_key(&name) {
                    return Err(perr(line, format!("duplicate interface {name:?}")));
                }
                dc.interfaces.insert(
                    name,
                    IfaceConfig {
                        prefix,
                        addr,
                        acl_in,
                        acl_out,
                        ospf,
                    },
                );
            }
            "static" => {
                let route = parse_static_route(c)?;
                self.device_mut(line, kw)?.static_routes.push(route);
            }
            "bgp" => {
                let asn = c.parse("AS number")?;
                let router_id = c.parse("router id")?;
                let dc = self.device_mut(line, kw)?;
                if dc.bgp.is_some() {
                    return Err(perr(line, "duplicate bgp section"));
                }
                dc.bgp = Some(BgpConfig {
                    asn,
                    router_id,
                    neighbors: Vec::new(),
                    networks: Vec::new(),
                });
            }
            "neighbor" => {
                let peer = c.ip("peer address")?;
                let remote_as = c.kv("as", "remote AS")?;
                c.expect("import")?;
                let import_policy = c.opt_string("route-map name")?;
                c.expect("export")?;
                let export_policy = c.opt_string("route-map name")?;
                self.bgp_mut(line, kw)?.neighbors.push(BgpNeighbor {
                    peer,
                    remote_as,
                    import_policy,
                    export_policy,
                });
            }
            "network" => {
                let prefix = c.prefix("network prefix")?;
                self.bgp_mut(line, kw)?.networks.push(prefix);
            }
            "route-map" => {
                let name = c.string("route-map name")?;
                self.cur_acl = None;
                if self.device_mut(line, kw)?.route_maps.contains_key(&name) {
                    return Err(perr(line, format!("duplicate route map {name:?}")));
                }
                self.cur_rm = Some((name, RouteMapBuilder::new()));
            }
            "acl" => {
                let name = c.string("ACL name")?;
                let dc = self.device_mut(line, kw)?;
                if dc.acls.contains_key(&name) {
                    return Err(perr(line, format!("duplicate ACL {name:?}")));
                }
                dc.acls.insert(name.clone(), Default::default());
                self.cur_acl = Some(name);
            }
            "entry" => {
                let entry = parse_acl_entry(c)?;
                let acl_name = self
                    .cur_acl
                    .clone()
                    .ok_or_else(|| perr(line, "entry outside an acl section"))?;
                // Preserve file order exactly (serialization order is the
                // stored order, which `Acl::add` keeps seq-sorted anyway).
                self.device_mut(line, kw)?
                    .acls
                    .get_mut(&acl_name)
                    .expect("acl created when section opened")
                    .entries
                    .push(entry);
            }
            "link" => {
                self.flush_device();
                self.snap.links.push(parse_link(c)?);
            }
            "down-link" => {
                self.flush_device();
                let l = parse_link(c)?;
                self.snap.environment.down_links.insert(l);
            }
            "down-device" => {
                self.flush_device();
                let d = c.string("device name")?;
                self.snap.environment.down_devices.insert(d);
            }
            "external" => {
                self.flush_device();
                self.snap.environment.external_routes.push(ExternalRoute {
                    device: c.string("device")?,
                    peer: c.ip("peer address")?,
                    attrs: parse_route_attrs(c)?,
                });
            }
            other => return Err(perr(line, format!("unknown snapshot keyword {other:?}"))),
        }
        Ok(())
    }
}

/// Parses a snapshot artifact. The input must end with the `end`
/// sentinel; a missing sentinel reports [`IoError::Truncated`].
pub fn parse_snapshot(text: &str) -> Result<Snapshot, IoError> {
    let mut lines = parse_header(text, Artifact::Snapshot)?;
    parse_snapshot_body(&mut lines, "snapshot", "end")
}

/// Parses snapshot body lines through `terminator` (`end` for the
/// artifact itself, `end-snapshot` for a checkpoint's inline block).
pub(crate) fn parse_snapshot_body(
    lines: &mut Lines<'_>,
    what: &str,
    terminator: &str,
) -> Result<Snapshot, IoError> {
    let mut p = SnapParser {
        snap: Snapshot::default(),
        cur_device: None,
        cur_rm: None,
        cur_acl: None,
    };
    lines.body(what, terminator, |kw, c, _| p.line(kw, c))?;
    p.flush_device();
    Ok(p.snap)
}

/// Parses `<prefix> (via <ip> | discard) ad <u8>`.
pub(crate) fn parse_static_route(c: &mut Cursor) -> Result<StaticRoute, IoError> {
    Ok(StaticRoute {
        prefix: c.prefix("static prefix")?,
        next_hop: parse_next_hop(c)?,
        admin_distance: c.kv("ad", "admin distance")?,
    })
}

/// Parses `via <ip>` or `discard`.
pub(crate) fn parse_next_hop(c: &mut Cursor) -> Result<NextHop, IoError> {
    let w = c.word("via|discard")?;
    match w.as_str() {
        "via" => Ok(NextHop::Ip(c.ip("next hop address")?)),
        "discard" => Ok(NextHop::Discard),
        other => Err(perr(
            c.line,
            format!("expected via|discard, found {other:?}"),
        )),
    }
}

/// Formats a static-route tail (shared with the trace artifact).
pub(crate) fn fmt_static_route(sr: &StaticRoute) -> String {
    format!(
        "{} {} ad {}",
        sr.prefix,
        fmt_next_hop(&sr.next_hop),
        sr.admin_distance
    )
}

/// Formats `via <ip>` / `discard` (shared with the trace artifact).
pub(crate) fn fmt_next_hop(nh: &NextHop) -> String {
    match nh {
        NextHop::Ip(ip) => format!("via {ip}"),
        NextHop::Discard => "discard".to_string(),
    }
}
