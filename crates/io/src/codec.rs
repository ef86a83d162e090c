//! Shared sub-grammars: the artifact header, the line writer, the write
//! side of the keyed row primitives (`kvs`, `fmt_opt`, `fmt_label`,
//! `on_off` — their read side lives on [`Cursor`]) and the composite
//! encodings used by more than one artifact (ACL entries, route maps,
//! route attributes, FIB actions, outcomes).

use crate::error::{perr, IoError};
use crate::lex::{quote, Cursor, Lines};
use crate::Artifact;
use control_plane::{FibAction, FibEntry, NextDevice, Proto, RibEntry};
use data_plane::Outcome;
use net_model::acl::{AclEntry, Action, FlowMatch, PortRange};
use net_model::route::{RmAction, RmMatch, RmSet, RouteMapClause};
use net_model::{Endpoint, Flow, Link, RouteAttrs, RouteMap};
use std::fmt::{self, Write as _};

/// The base format version (snapshot, trace, report and checkpoint
/// artifacts). Kinds version independently — see [`artifact_version`]
/// and FORMAT.md "Versioning".
pub const FORMAT_VERSION: u32 = 1;

/// The grammar version of one artifact kind. The service protocol's
/// `query` kind is at v5 (v2 added the `checkpoint` command — new
/// keywords require a bump, since older readers reject unknown keywords
/// by design; v3 added the `metrics` and `trace` telemetry commands; v4
/// added the `health` and `history` commands; v5 added the `subscribe`,
/// `unsubscribe` and `notifications` standing-query commands) and
/// `response` is at v3 (v2 added the `ok checkpointed` payload; v3 added
/// the `failed` marker on `ok sessions` rows). The telemetry scrape
/// kinds `metrics`, `spans`, `history` and `health` and the
/// standing-query `notify` kind are new whole kinds, not extensions of
/// `response`, so introducing them bumped nothing else; every remaining
/// kind is still at its initial version.
pub fn artifact_version(kind: Artifact) -> u32 {
    match kind {
        Artifact::Query => 5,
        Artifact::Response => 3,
        Artifact::Snapshot
        | Artifact::Trace
        | Artifact::Report
        | Artifact::Checkpoint
        | Artifact::Metrics
        | Artifact::Spans
        | Artifact::History
        | Artifact::Health
        | Artifact::Notify => FORMAT_VERSION,
    }
}

/// Indented line writer for the canonical serializers.
pub(crate) struct W {
    out: String,
}

impl W {
    pub(crate) fn new(artifact: Artifact) -> Self {
        let mut w = W { out: String::new() };
        w.line(
            0,
            &format!("dna-io v{} {artifact}", artifact_version(artifact)),
        );
        w
    }

    pub(crate) fn line(&mut self, depth: usize, text: &str) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// Closes the artifact with the `end` sentinel and returns the text.
    pub(crate) fn finish(mut self) -> String {
        self.line(0, "end");
        self.out
    }
}

/// Reads the header line: magic, a version the declared kind is spoken
/// at, and the kind. Returns the body line iterator positioned after it.
pub(crate) fn read_header(text: &str) -> Result<(Lines<'_>, Artifact), IoError> {
    let mut lines = Lines::new(text);
    let Some(mut c) = lines.next_cursor()? else {
        return Err(IoError::BadHeader(String::new()));
    };
    let mut token = |what: &str| {
        c.word(what)
            .map_err(|_| IoError::BadHeader(format!("missing {what}")))
    };
    let magic = token("magic")?;
    if magic != "dna-io" {
        return Err(IoError::BadHeader(magic));
    }
    let vtok = token("version")?;
    let version: u32 = vtok
        .strip_prefix('v')
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| IoError::BadHeader(format!("bad version token {vtok:?}")))?;
    let kind = token("artifact kind")?;
    let Some(&found) = crate::ALL_ARTIFACTS.iter().find(|a| a.name() == kind) else {
        return Err(IoError::BadHeader(format!("unknown artifact {kind:?}")));
    };
    // Versions are per-kind: check against the version of the kind the
    // header *declares*, so a future-versioned artifact reports
    // UnsupportedVersion rather than a misleading kind mismatch.
    if version != artifact_version(found) {
        return Err(IoError::UnsupportedVersion(version));
    }
    c.finish()?;
    Ok((lines, found))
}

/// Reads the header and requires the `expected` artifact kind.
pub(crate) fn parse_header(text: &str, expected: Artifact) -> Result<Lines<'_>, IoError> {
    let (lines, found) = read_header(text)?;
    if found != expected {
        return Err(IoError::WrongArtifact { expected, found });
    }
    Ok(lines)
}

// ---- scalar encodings -------------------------------------------------

/// `-` for `None`, the value for `Some` (the write side of
/// [`Cursor::kv_opt`] and [`Cursor::opt_string`]).
pub(crate) fn fmt_opt<T: fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "-".into(), |v| v.to_string())
}

pub(crate) fn fmt_opt_str(s: &Option<String>) -> String {
    fmt_opt(s.as_deref().map(quote))
}

fn parse_ports(w: &str) -> Option<PortRange> {
    let (lo, hi) = w.split_once('-')?;
    Some(PortRange {
        lo: lo.parse().ok()?,
        hi: hi.parse().ok()?,
    })
}

pub(crate) fn fmt_u32_list(vs: &[u32]) -> String {
    if vs.is_empty() {
        "-".into()
    } else {
        vs.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// `on` | `off` (the write side of [`Cursor::on_off`]).
pub(crate) fn on_off(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

/// The trailing ` label "text"` marker of an epoch or span row: written
/// only when the label is set (read back by [`Cursor::trailing`]).
pub(crate) fn fmt_label(label: &Option<String>) -> String {
    label
        .as_deref()
        .map_or_else(String::new, |l| format!(" label {}", quote(l)))
}

/// A flat run of `<name> <u64>` pairs, space-separated, in the order of
/// the row's name table; [`Cursor::kvs`] reads the run back through the
/// same table, so a row's field names are stated once.
pub(crate) fn kvs<const N: usize>(
    names: &'static [&str; N],
    values: [u64; N],
) -> impl fmt::Display {
    struct Run<const N: usize>(&'static [&'static str; N], [u64; N]);
    impl<const N: usize> fmt::Display for Run<N> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for (i, (name, v)) in self.0.iter().zip(self.1).enumerate() {
                let sep = if i == 0 { "" } else { " " };
                write!(f, "{sep}{name} {v}")?;
            }
            Ok(())
        }
    }
    Run(names, values)
}

// ---- flows and links --------------------------------------------------

/// Formats a concrete flow's five tokens (shared by the `reach` query
/// family and the report grammar's `flow … example` line).
pub(crate) fn fmt_flow(f: &Flow) -> String {
    let (proto, sport, dport) = (f.proto, f.src_port, f.dst_port);
    format!("{} {} {proto} {sport} {dport}", f.src, f.dst)
}

/// Parses a concrete flow's five tokens.
pub(crate) fn parse_flow(c: &mut Cursor) -> Result<Flow, IoError> {
    Ok(Flow {
        src: c.ip("flow source address")?,
        dst: c.ip("flow destination address")?,
        proto: c.parse("flow protocol")?,
        src_port: c.parse("flow source port")?,
        dst_port: c.parse("flow destination port")?,
    })
}

/// Formats a link's four endpoint tokens (shared by the snapshot and
/// trace artifacts).
pub(crate) fn fmt_link(l: &Link) -> String {
    format!(
        "{} {} {} {}",
        quote(&l.a.device),
        quote(&l.a.iface),
        quote(&l.b.device),
        quote(&l.b.iface)
    )
}

/// Parses a link's four endpoint tokens, re-canonicalizing orientation.
pub(crate) fn parse_link(c: &mut Cursor) -> Result<Link, IoError> {
    let ad = c.string("device")?;
    let ai = c.string("interface")?;
    let bd = c.string("device")?;
    let bi = c.string("interface")?;
    Ok(Link::new(Endpoint::new(&ad, &ai), Endpoint::new(&bd, &bi)))
}

// ---- ACL entries ------------------------------------------------------

pub(crate) fn fmt_acl_entry(e: &AclEntry) -> String {
    let action = match e.action {
        Action::Permit => "permit",
        Action::Deny => "deny",
    };
    let ports = |r: Option<PortRange>| fmt_opt(r.map(|r| format!("{}-{}", r.lo, r.hi)));
    format!(
        "{} {action} src {} dst {} proto {} sport {} dport {}",
        e.seq,
        fmt_opt(e.matches.src),
        fmt_opt(e.matches.dst),
        fmt_opt(e.matches.proto),
        ports(e.matches.src_ports),
        ports(e.matches.dst_ports),
    )
}

pub(crate) fn parse_acl_entry(c: &mut Cursor) -> Result<AclEntry, IoError> {
    Ok(AclEntry {
        seq: c.parse("entry seq")?,
        action: c.choice(&[("permit", Action::Permit), ("deny", Action::Deny)])?,
        matches: FlowMatch {
            src: c.kv_opt("src", "src prefix", |w| w.parse().ok())?,
            dst: c.kv_opt("dst", "dst prefix", |w| w.parse().ok())?,
            proto: c.kv_opt("proto", "protocol", |w| w.parse().ok())?,
            src_ports: c.kv_opt("sport", "source port range", parse_ports)?,
            dst_ports: c.kv_opt("dport", "destination port range", parse_ports)?,
        },
    })
}

// ---- route attributes -------------------------------------------------

pub(crate) fn fmt_route_attrs(a: &RouteAttrs) -> String {
    let comms: Vec<u32> = a.communities.iter().copied().collect();
    format!(
        "{} lp {} med {} origin {} path {} comm {}",
        a.prefix,
        a.local_pref,
        a.med,
        a.origin,
        fmt_u32_list(&a.as_path),
        fmt_u32_list(&comms),
    )
}

pub(crate) fn parse_route_attrs(c: &mut Cursor) -> Result<RouteAttrs, IoError> {
    let prefix = c.prefix("route prefix")?;
    let local_pref = c.kv("lp", "local preference")?;
    let med = c.kv("med", "MED")?;
    let origin = c.kv("origin", "origin code")?;
    c.expect("path")?;
    let as_path = c.u32_list("AS path")?;
    c.expect("comm")?;
    let communities = c.u32_list("communities")?.into_iter().collect();
    Ok(RouteAttrs {
        prefix,
        local_pref,
        as_path,
        med,
        origin,
        communities,
    })
}

// ---- route maps -------------------------------------------------------

/// Emits the clause lines of a route map at `depth`.
pub(crate) fn write_route_map(w: &mut W, depth: usize, map: &RouteMap) {
    for cl in &map.clauses {
        let action = match cl.action {
            RmAction::Permit => "permit",
            RmAction::Deny => "deny",
        };
        w.line(depth, &format!("clause {} {action}", cl.seq));
        for m in &cl.matches {
            let text = match m {
                RmMatch::Prefix { covering, ge, le } => {
                    format!("match-prefix {covering} {ge} {le}")
                }
                RmMatch::Community(c) => format!("match-community {c}"),
                RmMatch::AsPathContains(asn) => format!("match-as-path {asn}"),
            };
            w.line(depth + 1, &text);
        }
        for s in &cl.sets {
            let text = match s {
                RmSet::LocalPref(v) => format!("set-local-pref {v}"),
                RmSet::Med(v) => format!("set-med {v}"),
                RmSet::AddCommunity(v) => format!("set-add-community {v}"),
                RmSet::DeleteCommunity(v) => format!("set-del-community {v}"),
                RmSet::AsPathPrepend { asn, count } => format!("set-prepend {asn} {count}"),
            };
            w.line(depth + 1, &text);
        }
    }
}

/// Incremental route-map parser: feed it every `clause` / `match-*` /
/// `set-*` line; anything else ends the map.
pub(crate) struct RouteMapBuilder {
    clauses: Vec<RouteMapClause>,
    cur: Option<RouteMapClause>,
}

impl RouteMapBuilder {
    pub(crate) fn new() -> Self {
        RouteMapBuilder {
            clauses: Vec::new(),
            cur: None,
        }
    }

    /// Consumes a line if its keyword belongs to the route-map grammar.
    /// Returns `Ok(true)` when consumed.
    pub(crate) fn try_line(&mut self, kw: &str, c: &mut Cursor) -> Result<bool, IoError> {
        if kw == "clause" {
            let seq = c.parse("clause seq")?;
            let action = c.choice(&[("permit", RmAction::Permit), ("deny", RmAction::Deny)])?;
            if let Some(done) = self.cur.take() {
                self.clauses.push(done);
            }
            self.cur = Some(RouteMapClause {
                seq,
                matches: Vec::new(),
                action,
                sets: Vec::new(),
            });
            return Ok(true);
        }
        if !matches!(
            kw,
            "match-prefix"
                | "match-community"
                | "match-as-path"
                | "set-local-pref"
                | "set-med"
                | "set-add-community"
                | "set-del-community"
                | "set-prepend"
        ) {
            return Ok(false);
        }
        let line = c.line;
        let cur = self
            .cur
            .as_mut()
            .ok_or_else(|| perr(line, format!("{kw} outside a clause")))?;
        match kw {
            "match-prefix" => {
                let covering = c.prefix("covering prefix")?;
                let ge = c.parse("ge bound")?;
                let le = c.parse("le bound")?;
                cur.matches.push(RmMatch::Prefix { covering, ge, le });
            }
            "match-community" => cur.matches.push(RmMatch::Community(c.parse("community")?)),
            "match-as-path" => cur
                .matches
                .push(RmMatch::AsPathContains(c.parse("AS number")?)),
            "set-local-pref" => cur
                .sets
                .push(RmSet::LocalPref(c.parse("local preference")?)),
            "set-med" => cur.sets.push(RmSet::Med(c.parse("MED")?)),
            "set-add-community" => cur.sets.push(RmSet::AddCommunity(c.parse("community")?)),
            "set-del-community" => cur.sets.push(RmSet::DeleteCommunity(c.parse("community")?)),
            "set-prepend" => {
                let asn = c.parse("AS number")?;
                let count = c.parse("prepend count")?;
                cur.sets.push(RmSet::AsPathPrepend { asn, count });
            }
            _ => unreachable!("keyword list above"),
        }
        Ok(true)
    }

    pub(crate) fn finish(mut self) -> RouteMap {
        if let Some(done) = self.cur.take() {
            self.clauses.push(done);
        }
        RouteMap {
            clauses: self.clauses,
        }
    }
}

// ---- FIB / RIB entries ------------------------------------------------

pub(crate) fn fmt_fib_action(a: &FibAction) -> String {
    match a {
        FibAction::Deliver { iface } => format!("deliver {}", quote(iface)),
        FibAction::Forward { iface, next } => match next {
            NextDevice::Device(d) => format!("forward {} dev {}", quote(iface), quote(d)),
            NextDevice::External => format!("forward {} external", quote(iface)),
        },
        FibAction::Drop => "drop".into(),
    }
}

pub(crate) fn parse_fib_action(c: &mut Cursor) -> Result<FibAction, IoError> {
    let w = c.word("fib action")?;
    match w.as_str() {
        "deliver" => Ok(FibAction::Deliver {
            iface: c.string("interface")?,
        }),
        "forward" => {
            let iface = c.string("interface")?;
            let next = c.word("next hop kind")?;
            match next.as_str() {
                "dev" => Ok(FibAction::Forward {
                    iface,
                    next: NextDevice::Device(c.string("next device")?),
                }),
                "external" => Ok(FibAction::Forward {
                    iface,
                    next: NextDevice::External,
                }),
                other => Err(perr(
                    c.line,
                    format!("expected dev|external, found {other:?}"),
                )),
            }
        }
        "drop" => Ok(FibAction::Drop),
        other => Err(perr(
            c.line,
            format!("expected deliver|forward|drop, found {other:?}"),
        )),
    }
}

pub(crate) fn fmt_fib_entry(e: &FibEntry) -> String {
    format!(
        "{} {} {}",
        quote(&e.device),
        e.prefix,
        fmt_fib_action(&e.action)
    )
}

pub(crate) fn parse_fib_entry(c: &mut Cursor) -> Result<FibEntry, IoError> {
    let device = c.string("device")?;
    let prefix = c.prefix("prefix")?;
    let action = parse_fib_action(c)?;
    Ok(FibEntry {
        device,
        prefix,
        action,
    })
}

pub(crate) fn fmt_proto(p: Proto) -> &'static str {
    match p {
        Proto::Connected => "connected",
        Proto::Static => "static",
        Proto::BgpExternal => "ebgp",
        Proto::Ospf => "ospf",
        Proto::BgpInternal => "ibgp",
    }
}

pub(crate) fn parse_proto(c: &mut Cursor) -> Result<Proto, IoError> {
    c.choice(&[
        ("connected", Proto::Connected),
        ("static", Proto::Static),
        ("ebgp", Proto::BgpExternal),
        ("ospf", Proto::Ospf),
        ("ibgp", Proto::BgpInternal),
    ])
}

pub(crate) fn fmt_rib_entry(e: &RibEntry) -> String {
    format!(
        "{} {} {} {} {}",
        quote(&e.device),
        e.prefix,
        fmt_proto(e.proto),
        e.metric,
        fmt_fib_action(&e.action)
    )
}

pub(crate) fn parse_rib_entry(c: &mut Cursor) -> Result<RibEntry, IoError> {
    let device = c.string("device")?;
    let prefix = c.prefix("prefix")?;
    let proto = parse_proto(c)?;
    let metric = c.parse("metric")?;
    let action = parse_fib_action(c)?;
    Ok(RibEntry {
        device,
        prefix,
        proto,
        metric,
        action,
    })
}

// ---- outcomes ---------------------------------------------------------

/// Formats an outcome set on one line (`-` when empty).
pub(crate) fn fmt_outcomes<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> String {
    let mut out = String::new();
    for o in outcomes {
        if !out.is_empty() {
            out.push(' ');
        }
        match o {
            Outcome::Delivered(d) => {
                let _ = write!(out, "delivered {}", quote(d));
            }
            Outcome::External(d) => {
                let _ = write!(out, "external {}", quote(d));
            }
            Outcome::Blackhole(d) => {
                let _ = write!(out, "blackhole {}", quote(d));
            }
            Outcome::Filtered(d) => {
                let _ = write!(out, "filtered {}", quote(d));
            }
            Outcome::Loop => out.push_str("loop"),
        }
    }
    if out.is_empty() {
        out.push('-');
    }
    out
}

/// Parses outcomes to the end of the line (`-` for the empty set).
pub(crate) fn parse_outcomes(
    c: &mut Cursor,
) -> Result<std::collections::BTreeSet<Outcome>, IoError> {
    let mut set = std::collections::BTreeSet::new();
    let mut first = true;
    while !c.at_end() {
        let w = c.word("outcome")?;
        if first && w == "-" {
            return Ok(set);
        }
        first = false;
        let o = match w.as_str() {
            "delivered" => Outcome::Delivered(c.string("device")?),
            "external" => Outcome::External(c.string("device")?),
            "blackhole" => Outcome::Blackhole(c.string("device")?),
            "filtered" => Outcome::Filtered(c.string("device")?),
            "loop" => Outcome::Loop,
            other => return Err(perr(c.line, format!("unknown outcome {other:?}"))),
        };
        set.insert(o);
    }
    Ok(set)
}
