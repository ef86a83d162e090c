//! The `report` artifact: per-epoch [`dna_core::BehaviorDiff`]s in a
//! canonical, byte-stable encoding.
//!
//! Stage timings and work counters (`DiffStats`) are deliberately *not*
//! part of the wire format: they are engine-specific and nondeterministic,
//! while the report artifact exists to be diffed — between analyzers
//! (`dna replay --verify`), between runs (golden tests) and between
//! versions. Entries are canonically sorted, so two analyzers that agree
//! semantically produce byte-identical report files.

use crate::codec::{
    fmt_fib_entry, fmt_flow, fmt_label, fmt_outcomes, fmt_rib_entry, parse_fib_entry, parse_flow,
    parse_header, parse_outcomes, parse_rib_entry, W,
};
use crate::error::{perr, IoError};
use crate::lex::{quote, Cursor};
use crate::Artifact;
use control_plane::{FibEntry, RibEntry};
use ddflow::Diff;
use dna_core::{BehaviorDiff, FlowDiff};
use net_model::Flow;

/// One epoch's behavior diff, canonicalized for the wire.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpochDiff {
    /// Optional label (mirrors the trace epoch that produced it).
    pub label: Option<String>,
    /// Route-level changes, sorted.
    pub rib: Vec<(RibEntry, Diff)>,
    /// Forwarding-entry changes, sorted.
    pub fib: Vec<(FibEntry, Diff)>,
    /// Flow-level changes, sorted by (src, example, headers).
    pub flows: Vec<FlowDiff>,
}

impl EpochDiff {
    /// Canonicalizes a [`BehaviorDiff`]: sorts all three delta lists and
    /// drops the (nondeterministic) stats. Two semantically equal diffs
    /// map to identical `EpochDiff`s regardless of the analyzer's
    /// emission order.
    pub fn from_behavior(label: Option<String>, diff: &BehaviorDiff) -> Self {
        let mut rib = diff.rib.clone();
        rib.sort();
        let mut fib = diff.fib.clone();
        fib.sort();
        let flows = dna_core::sorted_flows(diff);
        EpochDiff {
            label,
            rib,
            fib,
            flows,
        }
    }

    /// Whether the epoch had any observable effect.
    pub fn is_noop(&self) -> bool {
        self.rib.is_empty() && self.fib.is_empty() && self.flows.is_empty()
    }
}

/// A multi-epoch behavior-diff report (one entry per replayed epoch).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Per-epoch diffs, in replay order.
    pub epochs: Vec<EpochDiff>,
}

/// Serializes a report.
pub fn write_report(report: &Report) -> String {
    let mut w = W::new(Artifact::Report);
    for (i, ep) in report.epochs.iter().enumerate() {
        write_epoch(&mut w, i, ep);
    }
    w.finish()
}

/// Emits one epoch block (`epoch <index>` plus its rib/fib/flow lines).
/// Shared by the report artifact and the `ok report` response payload,
/// which carries the same grammar under absolute epoch indices.
pub(crate) fn write_epoch(w: &mut W, index: usize, ep: &EpochDiff) {
    w.line(0, &format!("epoch {index}{}", fmt_label(&ep.label)));
    for (e, d) in &ep.rib {
        w.line(1, &format!("rib {d:+} {}", fmt_rib_entry(e)));
    }
    for (e, d) in &ep.fib {
        w.line(1, &format!("fib {d:+} {}", fmt_fib_entry(e)));
    }
    for f in &ep.flows {
        let (src, example) = (quote(&f.src), fmt_flow(&f.example));
        w.line(1, &format!("flow {src} example {example}"));
        for h in &f.headers {
            w.line(2, &format!("header {}", quote(h)));
        }
        w.line(2, &format!("before {}", fmt_outcomes(f.before.iter())));
        w.line(2, &format!("after {}", fmt_outcomes(f.after.iter())));
    }
}

fn parse_diff_weight(c: &mut Cursor) -> Result<Diff, IoError> {
    let w = c.word("delta weight")?;
    let stripped = w.strip_prefix('+').unwrap_or(&w);
    stripped
        .parse()
        .map_err(|_| perr(c.line, format!("bad delta weight {w:?}")))
}

/// In-progress flow record (before/after lines may still be pending).
struct FlowBuilder {
    src: String,
    example: Flow,
    headers: Vec<String>,
    before: Option<std::collections::BTreeSet<data_plane::Outcome>>,
    after: Option<std::collections::BTreeSet<data_plane::Outcome>>,
    line: usize,
}

impl FlowBuilder {
    fn finish(self) -> Result<FlowDiff, IoError> {
        let before = self
            .before
            .ok_or_else(|| perr(self.line, "flow record missing its before line"))?;
        let after = self
            .after
            .ok_or_else(|| perr(self.line, "flow record missing its after line"))?;
        Ok(FlowDiff {
            src: self.src,
            headers: self.headers,
            example: self.example,
            before,
            after,
        })
    }
}

/// How an epoch stream constrains its indices.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum IndexRule {
    /// Report artifact: indices are ordinals, consecutive from 0.
    ConsecutiveFromZero,
    /// Response payload: absolute indices of a history range — strictly
    /// increasing, starting anywhere.
    StrictlyIncreasing,
}

/// Incremental parser for the epoch-body sub-grammar (`epoch` / `rib` /
/// `fib` / `flow` / `header` / `before` / `after` lines), shared by the
/// report artifact, the `ok report` response payload and a checkpoint's
/// history section. Feed it every body line via [`EpochsParser::line`].
pub(crate) struct EpochsParser {
    rule: IndexRule,
    epochs: Vec<(usize, EpochDiff)>,
    cur: Option<(usize, EpochDiff)>,
    cur_flow: Option<FlowBuilder>,
}

impl EpochsParser {
    pub(crate) fn new(rule: IndexRule) -> Self {
        EpochsParser {
            rule,
            epochs: Vec::new(),
            cur: None,
            cur_flow: None,
        }
    }

    fn flush_flow(&mut self) -> Result<(), IoError> {
        if let Some(f) = self.cur_flow.take() {
            self.cur
                .as_mut()
                .expect("flow inside an epoch")
                .1
                .flows
                .push(f.finish()?);
        }
        Ok(())
    }

    fn flush_epoch(&mut self) -> Result<(), IoError> {
        self.flush_flow()?;
        if let Some(ep) = self.cur.take() {
            self.epochs.push(ep);
        }
        Ok(())
    }

    fn epoch_mut(&mut self, line: usize, kw: &str) -> Result<&mut EpochDiff, IoError> {
        let cur = self.cur.as_mut().map(|(_, ep)| ep);
        cur.ok_or_else(|| perr(line, format!("{kw} outside an epoch")))
    }

    /// Consumes one line of the epoch-body grammar; a keyword outside it
    /// is a parse error. The caller runs `Cursor::finish`.
    pub(crate) fn line(&mut self, kw: &str, c: &mut Cursor) -> Result<(), IoError> {
        let line = c.line;
        match kw {
            "epoch" => {
                self.flush_epoch()?;
                let index: usize = c.parse("epoch index")?;
                match self.rule {
                    IndexRule::ConsecutiveFromZero => {
                        if index != self.epochs.len() {
                            return Err(perr(
                                line,
                                format!(
                                    "epoch index {index} out of order (expected {})",
                                    self.epochs.len()
                                ),
                            ));
                        }
                    }
                    IndexRule::StrictlyIncreasing => {
                        let prev = self.epochs.last().map(|(i, _)| *i);
                        c.ascending(prev, index, "epoch indices")?;
                    }
                }
                let label = c.trailing("label", |c| c.string("epoch label"))?;
                self.cur = Some((
                    index,
                    EpochDiff {
                        label,
                        ..Default::default()
                    },
                ));
            }
            "rib" | "fib" => {
                self.flush_flow()?;
                let d = parse_diff_weight(c)?;
                if kw == "rib" {
                    let e = parse_rib_entry(c)?;
                    self.epoch_mut(line, kw)?.rib.push((e, d));
                } else {
                    let e = parse_fib_entry(c)?;
                    self.epoch_mut(line, kw)?.fib.push((e, d));
                }
            }
            "flow" => {
                self.flush_flow()?;
                self.epoch_mut(line, kw)?;
                let src = c.string("source device")?;
                c.expect("example")?;
                self.cur_flow = Some(FlowBuilder {
                    src,
                    example: parse_flow(c)?,
                    headers: Vec::new(),
                    before: None,
                    after: None,
                    line,
                });
            }
            "header" => {
                let h = c.string("header description")?;
                self.cur_flow
                    .as_mut()
                    .ok_or_else(|| perr(line, "header outside a flow record"))?
                    .headers
                    .push(h);
            }
            "before" | "after" => {
                let outcomes = parse_outcomes(c)?;
                let f = self
                    .cur_flow
                    .as_mut()
                    .ok_or_else(|| perr(line, format!("{kw} outside a flow record")))?;
                let slot = if kw == "before" {
                    &mut f.before
                } else {
                    &mut f.after
                };
                if slot.is_some() {
                    return Err(perr(line, format!("duplicate {kw} line in a flow record")));
                }
                *slot = Some(outcomes);
            }
            other => return Err(perr(line, format!("unknown epoch-body keyword {other:?}"))),
        }
        Ok(())
    }

    /// Completes any in-progress epoch and returns the indexed stream.
    pub(crate) fn finish(mut self) -> Result<Vec<(usize, EpochDiff)>, IoError> {
        self.flush_epoch()?;
        Ok(self.epochs)
    }
}

/// Parses a report artifact (requires the `end` sentinel).
pub fn parse_report(text: &str) -> Result<Report, IoError> {
    let mut lines = parse_header(text, Artifact::Report)?;
    let mut epochs = EpochsParser::new(IndexRule::ConsecutiveFromZero);
    lines.body("report", "end", |kw, c, _| epochs.line(kw, c))?;
    Ok(Report {
        epochs: epochs.finish()?.into_iter().map(|(_, ep)| ep).collect(),
    })
}
