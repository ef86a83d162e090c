//! The in-process reference every run is checked against: a
//! `dna_serve::Session` (a differential `ReplaySession` inside) fed the
//! same epochs, answering through the engine-side `Session::answer`
//! rather than the server's published-view read path, and drained by
//! `notifications` polls rather than pushes. The first warm-up epochs of
//! `mix-ft6` are additionally checked against the from-scratch analyzer.

use crate::gen::Inputs;
use crate::run::WARMUP_EPOCHS;
use dna_core::ScratchDiffer;
use dna_io::{EpochDiff, QueryKind, Response};
use dna_serve::{Session, SessionConfig};
use std::collections::BTreeMap;

/// What the server must have said, byte for byte.
pub struct Reference {
    /// `report 0 <warm-up>` right after the warm-up epochs.
    pub warm_report: String,
    /// The same report computed by `ScratchDiffer` (when requested).
    pub scratch_report: Option<String>,
    /// Final `stats`, without its wall-clock `time` line.
    pub stats: String,
    /// Final `report` over the retained window.
    pub report: String,
    /// Answers to the post-run query sample.
    pub answers: Vec<String>,
    /// Per subscription id, the concatenated poll drains.
    pub drains: BTreeMap<u64, String>,
    /// Total events across all drains.
    pub events: usize,
}

/// `ok stats` carries three cumulative wall-clock counters; everything
/// else in it is deterministic.
pub fn strip_time_line(stats: &str) -> String {
    stats
        .lines()
        .filter(|l| !l.trim_start().starts_with("time "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The `report <from> <to>` query covering the history a default
/// session retains after `epochs` epochs.
pub fn retained_window(epochs: usize) -> QueryKind {
    QueryKind::Report {
        from: epochs.saturating_sub(crate::gen::RETAINED_EPOCHS),
        to: epochs,
    }
}

fn answer(session: &Session, kind: &QueryKind) -> String {
    dna_io::write_response(&session.answer(kind))
}

/// Replays the first `epochs` epochs of `inputs` in process. This is
/// also the pre-flight: an epoch the engine rejects fails the run here
/// with its index.
pub fn reference(
    inputs: &Inputs,
    epochs: usize,
    sample: &[QueryKind],
    with_scratch: bool,
) -> Result<Reference, String> {
    let mut session = Session::open(
        crate::SESSION,
        inputs.snapshot().clone(),
        SessionConfig::default(),
    )?;
    for spec in &inputs.subscriptions {
        let ack = session
            .subscription_reply(&QueryKind::Subscribe(spec.clone()))
            .expect("subscribe is a subscription command");
        if !crate::client::is_notify(&ack) {
            return Err(format!("reference subscribe failed: {ack}"));
        }
    }
    let ids = 1..=inputs.subscriptions.len() as u64;
    let mut drains: BTreeMap<u64, String> = ids.clone().map(|id| (id, String::new())).collect();
    let mut events = 0;
    let mut warm_report = String::new();
    for (i, epoch) in inputs.epochs[..epochs].iter().enumerate() {
        session.ingest(epoch)?;
        for id in ids.clone() {
            let drained = session
                .subscription_reply(&QueryKind::Notifications { id })
                .expect("notifications is a subscription command");
            let n = event_epochs(&drained).count();
            if n > 0 {
                events += n;
                drains
                    .get_mut(&id)
                    .expect("id registered")
                    .push_str(&drained);
            }
        }
        if i + 1 == WARMUP_EPOCHS {
            warm_report = answer(
                &session,
                &QueryKind::Report {
                    from: 0,
                    to: WARMUP_EPOCHS,
                },
            );
        }
    }
    let scratch_report = with_scratch
        .then(|| scratch_report(inputs, WARMUP_EPOCHS.min(epochs)))
        .transpose()?;
    Ok(Reference {
        warm_report,
        scratch_report,
        stats: strip_time_line(&answer(&session, &QueryKind::Stats)),
        report: answer(&session, &retained_window(epochs)),
        answers: sample.iter().map(|k| answer(&session, k)).collect(),
        drains,
        events,
    })
}

fn scratch_report(inputs: &Inputs, epochs: usize) -> Result<String, String> {
    let mut scratch = ScratchDiffer::new(inputs.snapshot().clone()).map_err(|e| e.to_string())?;
    let mut diffs = Vec::with_capacity(epochs);
    for (i, epoch) in inputs.epochs[..epochs].iter().enumerate() {
        let diff = scratch
            .apply(&epoch.changes)
            .map_err(|e| format!("scratch epoch {i}: {e}"))?;
        diffs.push((i, EpochDiff::from_behavior(epoch.label.clone(), &diff)));
    }
    Ok(dna_io::write_response(&Response::Report { epochs: diffs }))
}

/// The commit indices of the `event` lines of a notify artifact.
pub fn event_epochs(notify: &str) -> impl Iterator<Item = u64> + '_ {
    notify
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("event "))
        .filter_map(|rest| rest.split(' ').next()?.parse().ok())
}

/// Events a `resync` line of a pushed notify says were dropped.
pub fn resync_dropped(notify: &str) -> u64 {
    notify
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("resync "))
        .filter_map(|rest| rest.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// The subscription id a notify artifact belongs to.
pub fn subscription_id(notify: &str) -> Option<u64> {
    notify
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("subscription "))?
        .split(' ')
        .next()?
        .parse()
        .ok()
}
