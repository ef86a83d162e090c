//! Seeded inputs: the four workloads, their stationary change traces,
//! query mixes and subscription sets. Everything here is a pure function
//! of `(workload, seed)`; the server only ever sees the artifact text.

use dna_io::{Query, QueryKind, SubscriptionSpec, Trace, TraceEpoch};
use net_model::{Change, ChangeSet, Flow, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topo_gen::{fat_tree, FatTree, Routing, ScenarioGen, ScenarioKind};

/// How connection A paces its ingest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ingest {
    /// One epoch in flight; the next is sent when the ack is read.
    Closed,
    /// Sent on a schedule at this many epochs per second, acks or not.
    Open(u32),
}

/// When connection B, the closed-loop query client, runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reads {
    /// For the whole ingest window: reads race view republishing.
    DuringIngest,
    /// Alone, in the last tenth of the run, after ingest has stopped.
    AfterIngest,
}

/// Which standing queries connection W registers before the run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Watch {
    /// `blast <d>` on the edge switches of pod 0 only: enough pushed
    /// events to time, next to no evaluation work.
    Pod0,
    /// `blast <d>` on every device: config pushes touch one device each,
    /// so narrower sets would see too few events to time.
    EveryDevice,
    /// Three subscriptions per edge switch: `blast`, `reach-pair` to the
    /// same-index edge of the next pod, `invariant never-reach` a core.
    PerEdge,
}

/// One benchmark workload: a traffic mix against one fat-tree.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists (also in BENCHMARK.json).
    pub why: &'static str,
    /// Fat-tree arity (eBGP).
    pub k: u32,
    /// Forward change kinds, cycled in order; each is followed by its inverse.
    pub kinds: &'static [ScenarioKind],
    pub ingest: Ingest,
    pub reads: Reads,
    pub watch: Watch,
    /// Upper bound on epochs generated per second of a closed-loop
    /// ingest window (the window ends early if a faster server exhausts
    /// the trace).
    pub closed_cap_per_s: usize,
    /// Epochs replayed through every rig of the layer ladder.
    pub ladder_epochs: usize,
}

const ALL_PAIRS: &[ScenarioKind] = &[
    ScenarioKind::LinkFailure,
    ScenarioKind::DeviceFailure,
    ScenarioKind::PrefixWithdraw,
    ScenarioKind::AclInsert,
    ScenarioKind::StaticAdd,
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mix-ft6",
        why: "k=6, closed-loop ingest of all ten change kinds: control-plane/ddflow is most of each epoch, publish is small",
        k: 6,
        kinds: ALL_PAIRS,
        ingest: Ingest::Closed,
        reads: Reads::AfterIngest,
        watch: Watch::Pod0,
        closed_cap_per_s: 600,
        ladder_epochs: 400,
    },
    Workload {
        name: "smalldelta-ft8",
        why: "k=8, closed-loop acl/static edits: minimal delta on a large network, so every O(network) per-epoch step dominates",
        k: 8,
        kinds: &[ScenarioKind::AclInsert, ScenarioKind::StaticAdd],
        ingest: Ingest::Closed,
        reads: Reads::AfterIngest,
        watch: Watch::EveryDevice,
        closed_cap_per_s: 450,
        ladder_epochs: 300,
    },
    Workload {
        name: "reads-ft8",
        why: "k=8, saturating query client while ingest runs open loop at 20 epochs/s: the view read path under republish",
        k: 8,
        kinds: ALL_PAIRS,
        ingest: Ingest::Open(20),
        reads: Reads::DuringIngest,
        watch: Watch::EveryDevice,
        closed_cap_per_s: 0,
        ladder_epochs: 200,
    },
    Workload {
        name: "watch-ft6",
        why: "k=6, 54 standing queries pushed to a watcher while failures ingest open loop at 60 epochs/s: subs, NotifyHub, pusher",
        k: 6,
        kinds: &[
            ScenarioKind::LinkFailure,
            ScenarioKind::DeviceFailure,
            ScenarioKind::PrefixWithdraw,
        ],
        ingest: Ingest::Open(60),
        reads: Reads::AfterIngest,
        watch: Watch::PerEdge,
        closed_cap_per_s: 0,
        ladder_epochs: 400,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The label of the epoch that undoes `kind`.
fn inverse_label(kind: ScenarioKind) -> &'static str {
    match kind {
        ScenarioKind::LinkFailure => "link-recovery",
        ScenarioKind::DeviceFailure => "device-recovery",
        ScenarioKind::PrefixWithdraw => "prefix-announce",
        ScenarioKind::AclInsert => "acl-remove",
        ScenarioKind::StaticAdd => "static-remove",
        other => panic!("{other} is not a forward kind of any workload"),
    }
}

/// The exact inverse of a generated forward change set. `ScenarioGen`'s
/// own recovery kinds pick *any* opportunity (announce would originate a
/// fresh p2p prefix, acl-remove leaves the ACL bound), which drifts; the
/// inverse built from the change itself returns the snapshot to its base.
fn invert(forward: &ChangeSet) -> ChangeSet {
    let mut undo = Vec::new();
    for change in forward.changes.iter().rev() {
        undo.push(match change {
            Change::LinkDown(l) => Change::LinkUp(l.clone()),
            Change::DeviceDown(d) => Change::DeviceUp(d.clone()),
            Change::BgpNetworkRemove { device, prefix } => Change::BgpNetworkAdd {
                device: device.clone(),
                prefix: *prefix,
            },
            Change::AclEntryAdd { device, acl, entry } => Change::AclEntryRemove {
                device: device.clone(),
                acl: acl.clone(),
                seq: entry.seq,
            },
            Change::SetAclIn { device, iface, .. } => Change::SetAclIn {
                device: device.clone(),
                iface: iface.clone(),
                acl: None,
            },
            Change::StaticRouteAdd { device, route } => Change::StaticRouteRemove {
                device: device.clone(),
                prefix: route.prefix,
                next_hop: route.next_hop,
            },
            other => panic!("no inverse for {other}"),
        });
    }
    ChangeSet::of(undo)
}

/// The tier of a fat-tree device, from its generated name.
fn tier(device: &str) -> u8 {
    match device.as_bytes()[0] {
        b'c' => 0, // core
        b'a' => 1, // aggregation
        _ => 2,    // edge
    }
}

/// Which class of element a forward change touches: the tier of the
/// failed, edited or withdrawing device, or for a link the lower of its
/// two tiers' indices (edge-agg or agg-core).
fn stratum(forward: &ChangeSet) -> u8 {
    match &forward.changes[0] {
        Change::LinkDown(l) => tier(&l.a.device).min(tier(&l.b.device)),
        Change::DeviceDown(d) => tier(d),
        Change::BgpNetworkRemove { device, .. }
        | Change::AclEntryAdd { device, .. }
        | Change::StaticRouteAdd { device, .. } => tier(device),
        other => panic!("{other} is not a forward change of any workload"),
    }
}

/// The stratum the `n`-th forward change of `kind` must fall in. A
/// fat-tree has (k/2)^2 cores to k^2/2 aggregation and k^2/2 edge
/// switches, 1 : 2 : 2, and as many edge-agg as agg-core links; within
/// a tier every element is equivalent by symmetry. Drawing elements in
/// these proportions, in a fixed rotation, gives every seed the same
/// composition of cheap and dear changes: what a seed varies is which
/// element of a tier, in which pod. Left to chance, the tier counts of
/// a few dozen failures differ enough between seeds to move a run's
/// latencies by a quarter.
fn wanted_stratum(kind: ScenarioKind, n: usize) -> Option<u8> {
    match kind {
        ScenarioKind::LinkFailure => Some([1, 0][n % 2]),
        ScenarioKind::DeviceFailure | ScenarioKind::AclInsert | ScenarioKind::StaticAdd => {
            Some([0, 1, 2, 1, 2][n % 5])
        }
        // Only edge switches originate prefixes.
        _ => None,
    }
}

/// Everything one run sends, generated up front.
pub struct Inputs {
    pub tree: FatTree,
    /// Stationary paired-cycle trace: epoch `2i` is a forward change on
    /// the base snapshot, epoch `2i+1` its exact inverse.
    pub epochs: Vec<TraceEpoch>,
    /// Single-epoch trace artifacts, one per entry of `epochs`.
    pub epoch_texts: Vec<String>,
    /// The `subscribe` commands connection W sends, in order (ids 1..).
    pub subscriptions: Vec<SubscriptionSpec>,
}

impl Inputs {
    pub fn snapshot(&self) -> &Snapshot {
        &self.tree.snapshot
    }
}

pub fn generate(w: &Workload, seed: u64, epochs: usize) -> Inputs {
    let tree = fat_tree(w.k, Routing::Ebgp);
    let mut gen = ScenarioGen::new(seed);
    let mut out = Vec::with_capacity(epochs + 1);
    let mut i = 0;
    while out.len() < epochs {
        let kind = w.kinds[i % w.kinds.len()];
        let wanted = wanted_stratum(kind, i / w.kinds.len());
        i += 1;
        // Every pair ends where it started, so each forward change is
        // generated against the base snapshot; draws outside the wanted
        // stratum are discarded (a few per change).
        let forward = std::iter::repeat_with(|| {
            gen.generate(&tree.snapshot, kind)
                .unwrap_or_else(|| panic!("{kind} has no opportunity on a fat-tree"))
        })
        .take(10_000)
        .find(|cs| wanted.is_none_or(|s| stratum(cs) == s))
        .unwrap_or_else(|| panic!("{kind} never drew stratum {wanted:?}"));
        let undo = invert(&forward);
        out.push(TraceEpoch {
            label: Some(kind.to_string()),
            changes: forward,
        });
        out.push(TraceEpoch {
            label: Some(inverse_label(kind).to_string()),
            changes: undo,
        });
    }
    out.truncate(epochs);
    let epoch_texts = out
        .iter()
        .map(|e| {
            dna_io::write_trace(&Trace {
                epochs: vec![e.clone()],
            })
        })
        .collect();
    let subscriptions = subscriptions(w.watch, &tree);
    Inputs {
        tree,
        epochs: out,
        epoch_texts,
        subscriptions,
    }
}

fn subscriptions(watch: Watch, tree: &FatTree) -> Vec<SubscriptionSpec> {
    let blast = |d: &String| SubscriptionSpec::Blast { device: d.clone() };
    match watch {
        Watch::Pod0 => tree.edges[0].iter().map(blast).collect(),
        Watch::EveryDevice => tree.snapshot.devices.keys().map(blast).collect(),
        Watch::PerEdge => {
            let pods = tree.edges.len();
            let mut subs = Vec::new();
            for (p, pod) in tree.edges.iter().enumerate() {
                for (i, edge) in pod.iter().enumerate() {
                    subs.push(blast(edge));
                    subs.push(SubscriptionSpec::ReachPair {
                        src: edge.clone(),
                        dst: tree.edges[(p + 1) % pods][i].clone(),
                    });
                    subs.push(SubscriptionSpec::NeverReach {
                        src: edge.clone(),
                        dst: tree.cores[(p + i) % tree.cores.len()].clone(),
                    });
                }
            }
            subs
        }
    }
}

/// Epochs a default session retains for `report` and `blast`.
pub const RETAINED_EPOCHS: usize = 64;

/// The `n`-th of a series of `report` queries: one full change cycle
/// (every kind and its inverse once) out of the history retained
/// before epoch `acked`, the cycles taken round robin.
pub fn cycle_report(w: &Workload, acked: usize, n: usize) -> QueryKind {
    let cycle = 2 * w.kinds.len();
    let back = (n % (RETAINED_EPOCHS / cycle)) * cycle;
    QueryKind::Report {
        from: acked.saturating_sub(back + cycle),
        to: acked.saturating_sub(back),
    }
}

pub fn query_text(kind: QueryKind) -> String {
    dna_io::write_query(&Query {
        session: None,
        kind,
    })
}

fn reach_query(rng: &mut StdRng, tree: &FatTree) -> QueryKind {
    let edges: Vec<&String> = tree.edges.iter().flatten().collect();
    let src = edges[rng.gen_range(0..edges.len())].clone();
    let (_, subnet) = &tree.server_subnets[rng.gen_range(0..tree.server_subnets.len())];
    QueryKind::Reach {
        src,
        flow: Flow {
            src: net_model::Ipv4Addr(0),
            dst: subnet.nth_host(rng.gen_range(2u32..200)),
            proto: 6,
            src_port: rng.gen_range(1024u16..60000),
            dst_port: 80,
        },
    }
}

fn reach_pair_query(rng: &mut StdRng, tree: &FatTree) -> QueryKind {
    let edges: Vec<&String> = tree.edges.iter().flatten().collect();
    QueryKind::ReachPair {
        src: edges[rng.gen_range(0..edges.len())].clone(),
        dst: edges[rng.gen_range(0..edges.len())].clone(),
    }
}

/// Connection B's seeded mix, as artifact text: 74 % `reach`, 15 %
/// `reach-pair`, 10 % `blast` over the retained history, 1 % `stats`.
/// The client cycles through the returned pool.
///
/// No `report`: a reply carries whole epoch diffs, hundreds of times a
/// lookup's bytes, so with even 4 % of them the stream's latency and
/// rate measure report serialisation, and follow whichever devices
/// failed in the retained window. Reports are checked by the oracle and
/// timed per layer instead (`serve.*_answer_us.report`).
pub fn query_mix(tree: &FatTree, seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_7e_a5);
    (0..n)
        .map(|_| {
            query_text(match rng.gen_range(0u32..100) {
                0..=73 => reach_query(&mut rng, tree),
                74..=88 => reach_pair_query(&mut rng, tree),
                89..=98 => QueryKind::Blast {
                    last: RETAINED_EPOCHS,
                },
                _ => QueryKind::Stats,
            })
        })
        .collect()
}

/// The post-run oracle sample: 64 reach / reach-pair / blast queries
/// answered on the final state.
pub fn oracle_sample(tree: &FatTree, seed: u64) -> Vec<QueryKind> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0a_c1_e5);
    (0..64usize)
        .map(|i| match i % 4 {
            0 | 1 => reach_query(&mut rng, tree),
            2 => reach_pair_query(&mut rng, tree),
            _ => QueryKind::Blast {
                last: rng.gen_range(1usize..64),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in WORKLOADS {
            let a = generate(w, 7, 40);
            let b = generate(w, 7, 40);
            assert_eq!(a.epoch_texts, b.epoch_texts, "{}", w.name);
            assert_eq!(a.subscriptions, b.subscriptions);
            let c = generate(w, 8, 40);
            assert_ne!(a.epoch_texts, c.epoch_texts, "{}", w.name);
        }
        let w = &WORKLOADS[0];
        let tree = fat_tree(w.k, Routing::Ebgp);
        assert_eq!(query_mix(&tree, 3, 200), query_mix(&tree, 3, 200));
        assert_ne!(query_mix(&tree, 3, 200), query_mix(&tree, 4, 200));
    }

    /// Stationarity: along the whole trace at most one element is down
    /// or edited, and every pair returns every interface, route table,
    /// origination list and down-set to the base snapshot.
    #[test]
    fn traces_are_stationary_paired_cycles() {
        for w in WORKLOADS {
            let inputs = generate(w, 11, 120);
            let base = inputs.snapshot().clone();
            let mut cur = base.clone();
            for (i, epoch) in inputs.epochs.iter().enumerate() {
                cur = epoch
                    .changes
                    .apply(&cur)
                    .unwrap_or_else(|e| panic!("{} epoch {i}: {e}", w.name));
                let down = cur.environment.down_links.len() + cur.environment.down_devices.len();
                assert!(down <= 1, "{} epoch {i}: {down} elements down", w.name);
                if i % 2 == 1 {
                    assert_eq!(cur.environment, base.environment, "{} epoch {i}", w.name);
                    for (name, dc) in &cur.devices {
                        let b = &base.devices[name];
                        assert_eq!(dc.interfaces, b.interfaces, "{} epoch {i}", w.name);
                        assert_eq!(dc.static_routes, b.static_routes);
                        assert_eq!(dc.bgp, b.bgp);
                        assert!(dc.acls.values().all(|a| a.entries.is_empty()));
                    }
                }
            }
        }
    }

    /// Every seed draws the same number of changes from every tier.
    #[test]
    fn seeds_share_one_composition() {
        for w in WORKLOADS {
            let composition = |seed| {
                let mut counts = std::collections::BTreeMap::new();
                for epoch in generate(w, seed, 200).epochs.iter().step_by(2) {
                    let key = (epoch.label.clone(), stratum(&epoch.changes));
                    *counts.entry(key).or_insert(0usize) += 1;
                }
                counts
            };
            assert_eq!(composition(1), composition(2), "{}", w.name);
        }
    }

    #[test]
    fn retained_window_is_the_servers_default() {
        assert_eq!(RETAINED_EPOCHS, dna_serve::SessionConfig::default().retain);
    }

    #[test]
    fn per_edge_watch_registers_three_subscriptions_per_edge_switch() {
        let w = workload("watch-ft6").unwrap();
        let inputs = generate(w, 1, 2);
        assert_eq!(inputs.subscriptions.len(), 54);
    }
}
