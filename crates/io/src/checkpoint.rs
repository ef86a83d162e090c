//! The `checkpoint` artifact: a live `dna-serve` session's durable
//! state — enough to bring the session back after a restart (or a
//! `kill -9`) observationally identical to one that never stopped.
//!
//! A checkpoint carries the session's open-time configuration, its
//! *current* snapshot (the base plus every applied epoch — inline, or a
//! reference to a snapshot file for hand-authored checkpoints), the
//! applied-epoch counters, and the retained history of canonical
//! per-epoch diffs. Engine state itself is deliberately **not**
//! serialized: the analyzers guarantee that a fresh (sharded) bring-up
//! on the current snapshot reproduces the incremental engine's
//! observable behavior exactly (the E8 equivalence property), so the
//! snapshot *is* the engine state's durable form. Resume is therefore
//! bring-up plus a fast-forward of the counters and history.
//!
//! Same envelope, round-trip and never-panic guarantees as every other
//! artifact; see `crates/io/FORMAT.md` for the grammar.

use crate::codec::{fmt_opt, kvs, on_off, parse_header, W};
use crate::error::{perr, IoError};
use crate::lex::quote;
use crate::report::{write_epoch, EpochDiff, EpochsParser, IndexRule};
use crate::snapshot::{parse_snapshot_body, write_snapshot_body};
use crate::Artifact;
use net_model::Snapshot;

/// The session configuration a checkpoint restores on resume. Mirrors
/// the serve layer's session policy: every field here is observable in
/// the session's responses (retention bounds what history queries see;
/// verify attaches the cross-checking shadow), so resume must restore
/// them rather than take whatever the restarted server was passed.
/// `shards` is recorded for provenance but is *not* observable — a
/// resuming host may bring the engine up with any shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Maximum per-epoch diffs retained for history queries.
    pub retain: u64,
    /// Optional byte budget on the retained history's canonical size.
    pub retain_bytes: Option<u64>,
    /// Whether a from-scratch verification shadow is attached.
    pub verify: bool,
    /// Shard count the session was brought up with (provenance only).
    pub shards: u64,
}

/// Session-cumulative counters over every epoch ever applied. The four
/// count fields are exact and deterministic; the `*_ns` stage timings
/// are cumulative wall-clock (carried so a resumed session's `stats`
/// keeps counting from where the original left off, not from zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointTotals {
    /// Primitive changes applied.
    pub changes: u64,
    /// Route-level deltas reported.
    pub rib: u64,
    /// Forwarding-entry deltas reported.
    pub fib: u64,
    /// Flow-level reachability diffs reported.
    pub flows: u64,
    /// Cumulative control-plane stage time, nanoseconds.
    pub cp_ns: u64,
    /// Cumulative data-plane stage time, nanoseconds.
    pub dp_ns: u64,
    /// Cumulative end-to-end apply time, nanoseconds.
    pub total_ns: u64,
}

/// Where a checkpoint's snapshot lives.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointSource {
    /// The snapshot is embedded in the checkpoint artifact itself (what
    /// a live server writes: its current snapshot exists nowhere else).
    Inline(Snapshot),
    /// The snapshot is a separate `dna-io` snapshot file, referenced by
    /// path (resolved relative to the checkpoint file's directory).
    /// Useful for hand-authored epoch-0 checkpoints over an existing
    /// snapshot artifact.
    Ref(String),
}

/// One persisted session: everything `dna serve --resume` needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Session name.
    pub session: String,
    /// Open-time session policy, restored on resume.
    pub config: CheckpointConfig,
    /// Epochs applied when the checkpoint was taken.
    pub epochs: u64,
    /// Epochs on which the verification shadow disagreed.
    pub mismatches: u64,
    /// Session-cumulative counters.
    pub totals: CheckpointTotals,
    /// The session's current snapshot (inline or by reference).
    pub source: CheckpointSource,
    /// Retained history: `(absolute epoch index, canonical diff)`
    /// pairs, index-ascending, every index `< epochs`.
    pub history: Vec<(usize, EpochDiff)>,
}

/// A checkpoint's wire counters converted for in-memory session state:
/// every `u64` counter checked into `usize`, the retention bound clamped
/// to its documented minimum of 1. Produced by
/// [`Checkpoint::resume_counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeCounters {
    /// Epochs applied when the checkpoint was taken.
    pub epochs: usize,
    /// Primitive changes applied.
    pub changes: usize,
    /// Route-level deltas reported.
    pub rib: usize,
    /// Forwarding-entry deltas reported.
    pub fib: usize,
    /// Flow-level reachability diffs reported.
    pub flows: usize,
    /// History-retention bound (always ≥ 1).
    pub retain: usize,
    /// Optional byte budget on the retained history.
    pub retain_bytes: Option<usize>,
}

impl Checkpoint {
    /// Checked conversion of the wire counters into host-width session
    /// state. A counter too large for `usize` (possible on 32-bit
    /// targets, where `as usize` would silently truncate) and a history
    /// entry at or past the applied-epoch count (possible in a
    /// hand-constructed or corrupted value, parse re-checks it too) both
    /// surface as [`IoError::Invalid`] instead of being accepted.
    pub fn resume_counters(&self) -> Result<ResumeCounters, IoError> {
        fn conv(value: u64, what: &str) -> Result<usize, IoError> {
            usize::try_from(value).map_err(|_| IoError::Invalid {
                message: format!("checkpoint {what} counter {value} does not fit this host"),
            })
        }
        if let Some(&(last, _)) = self.history.last() {
            if last as u64 >= self.epochs {
                return Err(IoError::Invalid {
                    message: format!(
                        "checkpoint history epoch {last} is not below the applied epoch count {}",
                        self.epochs
                    ),
                });
            }
        }
        Ok(ResumeCounters {
            epochs: conv(self.epochs, "applied-epoch")?,
            changes: conv(self.totals.changes, "changes")?,
            rib: conv(self.totals.rib, "rib")?,
            fib: conv(self.totals.fib, "fib")?,
            flows: conv(self.totals.flows, "flows")?,
            retain: conv(self.config.retain, "retain")?.max(1),
            retain_bytes: self
                .config
                .retain_bytes
                .map(|b| conv(b, "retain-bytes"))
                .transpose()?,
        })
    }
}

// ---- write ------------------------------------------------------------

/// The flat `<name> <u64>` run of the `applied` line.
const APPLIED_FIELDS: [&str; 2] = ["epochs", "mismatches"];

/// The flat `<name> <u64>` run of the `totals` line, in
/// [`CheckpointTotals`] field order.
const TOTALS_FIELDS: [&str; 7] = [
    "changes", "rib", "fib", "flows", "cp-ns", "dp-ns", "total-ns",
];

/// Serializes a checkpoint in canonical form.
pub fn write_checkpoint(ck: &Checkpoint) -> String {
    let mut w = W::new(Artifact::Checkpoint);
    w.line(0, &format!("session {}", quote(&ck.session)));
    w.line(
        0,
        &format!(
            "config retain {} retain-bytes {} verify {} shards {}",
            ck.config.retain,
            fmt_opt(ck.config.retain_bytes),
            on_off(ck.config.verify),
            ck.config.shards
        ),
    );
    let applied = kvs(&APPLIED_FIELDS, [ck.epochs, ck.mismatches]);
    w.line(0, &format!("applied {applied}"));
    let t = &ck.totals;
    let totals = [
        t.changes, t.rib, t.fib, t.flows, t.cp_ns, t.dp_ns, t.total_ns,
    ];
    w.line(0, &format!("totals {}", kvs(&TOTALS_FIELDS, totals)));
    match &ck.source {
        CheckpointSource::Ref(path) => w.line(0, &format!("snapshot ref {}", quote(path))),
        CheckpointSource::Inline(snap) => {
            // Embed the snapshot's canonical body verbatim. No snapshot
            // body line is a bare `end`, so stream framing stays
            // unambiguous.
            w.line(0, "snapshot inline");
            write_snapshot_body(&mut w, snap);
            w.line(0, "end-snapshot");
        }
    }
    w.line(0, "history");
    for (i, ep) in &ck.history {
        write_epoch(&mut w, *i, ep);
    }
    w.line(0, "end-history");
    w.finish()
}

// ---- parse ------------------------------------------------------------

/// Parses a checkpoint artifact (requires the `end` sentinel). Every
/// metadata line must appear exactly once; history indices must be
/// strictly increasing and below the applied-epoch count.
pub fn parse_checkpoint(text: &str) -> Result<Checkpoint, IoError> {
    let mut lines = parse_header(text, Artifact::Checkpoint)?;
    let mut session: Option<String> = None;
    let mut config: Option<CheckpointConfig> = None;
    let mut applied: Option<[u64; 2]> = None;
    let mut totals: Option<CheckpointTotals> = None;
    let mut source: Option<CheckpointSource> = None;
    let mut history: Option<Vec<(usize, EpochDiff)>> = None;
    // Where the history bound can be violated: the `applied` line or the
    // last history `epoch` line, whichever comes later.
    let mut bound_line = 0;
    lines.body("checkpoint", "end", |kw, c, lines| match kw {
        "session" => set_once(&mut session, c.string("session name")?, c.line, kw),
        "config" => {
            let retain = c.kv("retain", "retention bound")?;
            let retain_bytes = c.kv_opt("retain-bytes", "byte budget", |w| w.parse().ok())?;
            c.expect("verify")?;
            let value = CheckpointConfig {
                retain,
                retain_bytes,
                verify: c.on_off()?,
                shards: c.kv("shards", "shard count")?,
            };
            set_once(&mut config, value, c.line, kw)
        }
        "applied" => {
            bound_line = c.line.max(bound_line);
            set_once(&mut applied, c.kvs(&APPLIED_FIELDS)?, c.line, kw)
        }
        "totals" => {
            let [changes, rib, fib, flows, cp_ns, dp_ns, total_ns] = c.kvs(&TOTALS_FIELDS)?;
            let value = CheckpointTotals {
                changes,
                rib,
                fib,
                flows,
                cp_ns,
                dp_ns,
                total_ns,
            };
            set_once(&mut totals, value, c.line, kw)
        }
        "snapshot" => {
            vacant(&source, c.line, kw)?;
            let value = match c.word("ref|inline")?.as_str() {
                "ref" => CheckpointSource::Ref(c.string("snapshot path")?),
                "inline" => {
                    c.finish()?;
                    let snap = parse_snapshot_body(lines, "inline snapshot", "end-snapshot")?;
                    CheckpointSource::Inline(snap)
                }
                other => {
                    return Err(perr(
                        c.line,
                        format!("expected ref|inline, found {other:?}"),
                    ))
                }
            };
            set_once(&mut source, value, c.line, kw)
        }
        "history" => {
            vacant(&history, c.line, kw)?;
            c.finish()?;
            let mut epochs = EpochsParser::new(IndexRule::StrictlyIncreasing);
            lines.body("history section", "end-history", |kw, c, _| {
                if kw == "epoch" {
                    bound_line = c.line.max(bound_line);
                }
                epochs.line(kw, c)
            })?;
            set_once(&mut history, epochs.finish()?, c.line, kw)
        }
        other => Err(perr(
            c.line,
            format!("unknown checkpoint keyword {other:?}"),
        )),
    })?;
    let missing = |what: &str| IoError::Truncated {
        expected: format!("a {what} line before the end sentinel"),
    };
    let [epochs, mismatches] = applied.ok_or_else(|| missing("applied"))?;
    let ck = Checkpoint {
        session: session.ok_or_else(|| missing("session"))?,
        config: config.ok_or_else(|| missing("config"))?,
        epochs,
        mismatches,
        totals: totals.ok_or_else(|| missing("totals"))?,
        source: source.ok_or_else(|| missing("snapshot"))?,
        history: history.ok_or_else(|| missing("history"))?,
    };
    if let Some((last, _)) = ck.history.last() {
        if *last as u64 >= ck.epochs {
            return Err(perr(
                bound_line,
                format!(
                    "history epoch {last} is not below the applied epoch count {}",
                    ck.epochs
                ),
            ));
        }
    }
    Ok(ck)
}

/// Every metadata line and section appears at most once.
fn vacant<T>(slot: &Option<T>, line: usize, what: &str) -> Result<(), IoError> {
    match slot {
        Some(_) => Err(perr(line, format!("duplicate {what} line"))),
        None => Ok(()),
    }
}

fn set_once<T>(slot: &mut Option<T>, value: T, line: usize, what: &str) -> Result<(), IoError> {
    vacant(slot, line, what)?;
    *slot = Some(value);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::{ip, NetBuilder};

    fn two_router_snapshot() -> Snapshot {
        NetBuilder::new()
            .router("r 1")
            .iface("r 1", "eth\"0", "10.0.0.1/31")
            .router("r2")
            .iface("r2", "eth0", "10.0.0.0/31")
            .link("r 1", "eth\"0", "r2", "eth0")
            .build()
    }

    fn sample(source: CheckpointSource) -> Checkpoint {
        Checkpoint {
            session: "scenario a\n".into(),
            config: CheckpointConfig {
                retain: 64,
                retain_bytes: Some(4096),
                verify: true,
                shards: 4,
            },
            epochs: 9,
            mismatches: 0,
            totals: CheckpointTotals {
                changes: 9,
                rib: 31,
                fib: 28,
                flows: 12,
                cp_ns: 120_000_400,
                dp_ns: 45_000_100,
                total_ns: 170_001_000,
            },
            source,
            history: vec![
                (
                    5,
                    EpochDiff {
                        label: Some("link-failure".into()),
                        ..Default::default()
                    },
                ),
                (
                    8,
                    EpochDiff {
                        label: None,
                        flows: vec![dna_core::FlowDiff {
                            src: "r 1".into(),
                            headers: vec!["dst=10.0.0.0..10.0.0.1".into()],
                            example: net_model::Flow::tcp_to(ip("10.0.0.0"), 80),
                            before: [data_plane::Outcome::Delivered("r2".into())].into(),
                            after: [data_plane::Outcome::Loop].into(),
                        }],
                        ..Default::default()
                    },
                ),
            ],
        }
    }

    #[test]
    fn inline_and_ref_checkpoints_round_trip() {
        for source in [
            CheckpointSource::Inline(two_router_snapshot()),
            CheckpointSource::Ref("runs/ft4.snap.dna".into()),
        ] {
            let ck = sample(source);
            let text = write_checkpoint(&ck);
            let back = parse_checkpoint(&text).expect("checkpoint parses");
            assert_eq!(back, ck);
            assert_eq!(write_checkpoint(&back), text, "canonical");
            assert_eq!(
                crate::sniff(&text).unwrap(),
                (1, Artifact::Checkpoint),
                "sniffable"
            );
        }
    }

    #[test]
    fn empty_history_and_default_snapshot_round_trip() {
        let mut ck = sample(CheckpointSource::Inline(Snapshot::default()));
        ck.history.clear();
        ck.epochs = 0;
        ck.totals = CheckpointTotals::default();
        let text = write_checkpoint(&ck);
        assert_eq!(parse_checkpoint(&text).unwrap(), ck);
    }

    #[test]
    fn truncations_are_typed_errors() {
        let text = write_checkpoint(&sample(CheckpointSource::Inline(two_router_snapshot())));
        let lines: Vec<&str> = text.lines().collect();
        for keep in 1..lines.len() {
            let truncated = lines[..keep].join("\n");
            let err = parse_checkpoint(&truncated).expect_err("truncated must fail");
            assert!(
                matches!(err, IoError::Truncated { .. } | IoError::Parse { .. }),
                "keep={keep}: {err:?}"
            );
        }
    }

    #[test]
    fn structural_violations_are_parse_errors() {
        // Duplicate metadata.
        let dup = "dna-io v1 checkpoint\nsession \"a\"\nsession \"b\"\nend\n";
        assert!(matches!(
            parse_checkpoint(dup),
            Err(IoError::Parse { line: 3, .. })
        ));
        // Unknown keyword.
        let unk = "dna-io v1 checkpoint\nfrobnicate\nend\n";
        assert!(matches!(
            parse_checkpoint(unk),
            Err(IoError::Parse { line: 2, .. })
        ));
        // History index at/above the applied count.
        let mut ck = sample(CheckpointSource::Ref("s.dna".into()));
        ck.epochs = 8; // history holds epoch 8

        // The error points at the offending history `epoch` line — or at
        // the `applied` line, when that is what comes later.
        let text = write_checkpoint(&ck);
        let line_of = |text: &str, prefix: &str| {
            let at = text.lines().position(|l| l.starts_with(prefix));
            at.expect("line present") + 1
        };
        let err = parse_checkpoint(&text).expect_err("index bound");
        let want = line_of(&text, "epoch 8");
        assert!(
            matches!(err, IoError::Parse { line, .. } if line == want),
            "{err:?}"
        );
        let applied_last = text.replace("applied epochs 8 mismatches 0\n", "").replace(
            "end-history\n",
            "end-history\napplied epochs 8 mismatches 0\n",
        );
        let err = parse_checkpoint(&applied_last).expect_err("index bound");
        let want = line_of(&applied_last, "applied");
        assert!(
            matches!(err, IoError::Parse { line, .. } if line == want),
            "{err:?}"
        );
    }

    #[test]
    fn inline_snapshot_errors_carry_real_line_numbers() {
        let good = write_checkpoint(&sample(CheckpointSource::Inline(two_router_snapshot())));
        // Corrupt the first snapshot body line (directly after the
        // `snapshot inline` marker) and expect the error to point at it.
        let marker = good.find("snapshot inline\n").unwrap();
        let bad_line_start = marker + "snapshot inline\n".len();
        let bad_line_no = good[..bad_line_start].lines().count() + 1;
        let mut bad = good[..bad_line_start].to_string();
        bad.push_str("garbage-keyword\n");
        bad.push_str(&good[bad_line_start..]);
        match parse_checkpoint(&bad) {
            Err(IoError::Parse { line, message }) => {
                assert_eq!(line, bad_line_no, "{message}");
                assert!(message.contains("garbage-keyword"), "{message}");
            }
            other => panic!("expected a located parse error, got {other:?}"),
        }
    }
}
