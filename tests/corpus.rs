//! Scenario-corpus golden tests: a checked-in set of real-world-shaped
//! workloads — fat-tree fabrics and a WAN mesh under failure, recovery,
//! ACL, local-pref and origination churn — each pinned as a
//! (snapshot, trace, report) triple of `dna-io` fixtures. Every trace is
//! replayed through BOTH analyzers and must reproduce the checked-in
//! report **byte-for-byte**, making the corpus a regression net over the
//! wire format, the analyzers' semantics and their equivalence at once.
//! The same fixtures drive the CI service smoke (`dna serve` on a corpus
//! snapshot) and are stable inputs for `dna-serve` sessions.
//!
//! Regenerating after an intentional change (seeds are the fixture
//! names' contract — keep them):
//! ```sh
//! cd tests/corpus
//! dna dump --topo fat-tree --k 4 --routing ebgp --seed 1007 \
//!     --out ft4_failures.snap.dna --trace ft4_failures.trace.dna --epochs 8 \
//!     --scenarios link-failure,link-recovery,device-failure,device-recovery
//! dna dump --topo fat-tree --k 6 --routing ebgp --seed 1013 \
//!     --out ft6_policy.snap.dna --trace ft6_policy.trace.dna --epochs 12 \
//!     --scenarios acl-insert,acl-remove,local-pref-change,prefix-withdraw,prefix-announce
//! dna dump --topo wan --n 16 --shape mesh --extra 8 --max-cost 8 --seed 1023 \
//!     --out wan16_mixed.snap.dna --trace wan16_mixed.trace.dna --epochs 8 \
//!     --scenarios link-failure,device-failure,acl-insert,ospf-cost-change
//! for w in ft4_failures ft6_policy wan16_mixed; do
//!     dna diff $w.snap.dna $w.trace.dna --out $w.report.dna
//! done
//! ```
//!
//! `ft4_rebind` pins ACL rebinding edge cases on a k=4 OSPF fat-tree: an
//! interface rebound twice in one epoch (only the end state may shape the
//! reported packet classes), an interface rebound to the ACL it already
//! has (no effect), and an epoch editing several devices listed in
//! reverse name order. Its trace is hand-written; its report comes from
//! the from-scratch analyzer, the oracle:
//! ```sh
//! dna dump --topo fat-tree --k 4 --routing ospf --out ft4_rebind.snap.dna
//! dna diff ft4_rebind.snap.dna ft4_rebind.trace.dna --engine scratch \
//!     --out ft4_rebind.report.dna
//! ```

use dna_core::{ReplayMode, ReplaySession};
use dna_io::{
    parse_report, parse_snapshot, parse_trace, write_report, write_snapshot, write_trace,
    EpochDiff, Report,
};

struct Workload {
    name: &'static str,
    snapshot: &'static str,
    trace: &'static str,
    report: &'static str,
}

const CORPUS: &[Workload] = &[
    Workload {
        name: "ft4_failures",
        snapshot: include_str!("corpus/ft4_failures.snap.dna"),
        trace: include_str!("corpus/ft4_failures.trace.dna"),
        report: include_str!("corpus/ft4_failures.report.dna"),
    },
    Workload {
        name: "ft6_policy",
        snapshot: include_str!("corpus/ft6_policy.snap.dna"),
        trace: include_str!("corpus/ft6_policy.trace.dna"),
        report: include_str!("corpus/ft6_policy.report.dna"),
    },
    Workload {
        name: "wan16_mixed",
        snapshot: include_str!("corpus/wan16_mixed.snap.dna"),
        trace: include_str!("corpus/wan16_mixed.trace.dna"),
        report: include_str!("corpus/wan16_mixed.report.dna"),
    },
    Workload {
        name: "ft4_rebind",
        snapshot: include_str!("corpus/ft4_rebind.snap.dna"),
        trace: include_str!("corpus/ft4_rebind.trace.dna"),
        report: include_str!("corpus/ft4_rebind.report.dna"),
    },
];

#[test]
fn corpus_fixtures_are_canonical() {
    for w in CORPUS {
        let snap = parse_snapshot(w.snapshot).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(
            write_snapshot(&snap),
            w.snapshot,
            "{}: snapshot format drifted",
            w.name
        );
        assert!(
            snap.validate().is_empty(),
            "{}: snapshot must be valid",
            w.name
        );
        let trace = parse_trace(w.trace).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(write_trace(&trace), w.trace, "{}: trace drifted", w.name);
        assert!(!trace.epochs.is_empty(), "{}: empty trace", w.name);
        let report = parse_report(w.report).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(
            write_report(&report),
            w.report,
            "{}: report drifted",
            w.name
        );
        assert_eq!(
            report.epochs.len(),
            trace.epochs.len(),
            "{}: one report epoch per trace epoch",
            w.name
        );
    }
}

#[test]
fn corpus_reports_reproduced_by_both_analyzers() {
    for w in CORPUS {
        let snap = parse_snapshot(w.snapshot).expect("corpus snapshot parses");
        let trace = parse_trace(w.trace).expect("corpus trace parses");
        let mut session = ReplaySession::new(snap, ReplayMode::Both).expect("analyzers init");
        let mut differential = Report::default();
        let mut scratch = Report::default();
        for ep in &trace.epochs {
            let out = session.step(&ep.changes).expect("epoch applies");
            differential.epochs.push(EpochDiff::from_behavior(
                ep.label.clone(),
                out.differential.as_ref().unwrap(),
            ));
            scratch.epochs.push(EpochDiff::from_behavior(
                ep.label.clone(),
                out.scratch.as_ref().unwrap(),
            ));
        }
        assert_eq!(
            write_report(&differential),
            w.report,
            "{}: differential analyzer drifted from the corpus report",
            w.name
        );
        assert_eq!(
            write_report(&scratch),
            w.report,
            "{}: from-scratch analyzer drifted from the corpus report",
            w.name
        );
    }
}

#[test]
fn corpus_covers_the_headline_scenario_taxonomy() {
    // The corpus stays honest: failures AND recoveries, ACL edits,
    // policy (local-pref) churn and origination churn must all appear,
    // and at least one workload must produce visible flow diffs.
    let mut labels = std::collections::BTreeSet::new();
    let mut flow_diffs = 0usize;
    for w in CORPUS {
        let trace = parse_trace(w.trace).expect("parses");
        for ep in &trace.epochs {
            labels.extend(ep.label.clone());
        }
        let report = parse_report(w.report).expect("parses");
        flow_diffs += report.epochs.iter().map(|e| e.flows.len()).sum::<usize>();
    }
    for needed in [
        "link-failure",
        "link-recovery",
        "device-failure",
        "acl-insert",
        "local-pref-change",
        "prefix-withdraw",
        "ospf-cost-change",
    ] {
        assert!(labels.contains(needed), "corpus lost scenario {needed}");
    }
    assert!(
        flow_diffs > 50,
        "corpus reports should pin substantial flow churn, got {flow_diffs}"
    );
}
