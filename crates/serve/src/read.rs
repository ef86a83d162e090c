//! The read-only query answers, written once.
//!
//! reach / reach-pair / blast / report / stats are answered from a
//! small borrowed [`ReadState`] that both the live
//! [`Session`](crate::Session) and the frozen
//! [`QueryView`](crate::QueryView) instantiate — so a published view
//! answers byte-identically to its session by construction (same
//! resolution rules, same error strings, one serializer).

use data_plane::Outcome;
use dna_io::{EpochDiff, QueryKind, Response, ServiceStats};
use net_model::{Flow, Ipv4Addr};
use std::collections::{BTreeMap, BTreeSet};

/// What the read-only queries need from the state they are answered
/// against.
pub(crate) trait ReadState {
    /// A device's canonical (lowest-named interface) address: `None`
    /// for an unknown device, `Some(None)` for one with no interfaces.
    fn device_addr(&self, device: &str) -> Option<Option<Ipv4Addr>>;
    /// The outcome set of `flow` injected at `src`; `None` when there
    /// is no live differential engine to ask.
    fn outcomes(&self, src: &str, flow: &Flow) -> Option<BTreeSet<Outcome>>;
    /// The retained history window, oldest epoch first, under absolute
    /// epoch indices.
    fn history(&self) -> impl DoubleEndedIterator<Item = (usize, &EpochDiff)> + ExactSizeIterator;
    /// The session's cumulative statistics.
    fn stats(&self) -> ServiceStats;
}

/// Answers a read-only query; `None` for every other kind (`sessions`
/// is server-level, `checkpoint` mutates durable state, telemetry is
/// answered by the classifier, standing-query commands mutate the
/// session's subscription registry).
pub(crate) fn answer(state: &impl ReadState, kind: &QueryKind) -> Option<Response> {
    let reach = |src: &str, flow: &Flow| match reach(state, src, flow) {
        Ok(outcomes) => Response::Reach { outcomes },
        Err(e) => Response::Error(e),
    };
    Some(match kind {
        QueryKind::Reach { src, flow } => reach(src, flow),
        QueryKind::ReachPair { src, dst } => match resolve_dst(state, dst) {
            Ok(flow) => reach(src, &flow),
            Err(e) => Response::Error(e),
        },
        QueryKind::Blast { last } => blast(state, *last),
        QueryKind::Report { from, to } => Response::Report {
            epochs: state
                .history()
                .filter(|(i, _)| from <= i && i < to)
                .map(|(i, diff)| (i, diff.clone()))
                .collect(),
        },
        QueryKind::Stats => Response::Stats(state.stats()),
        QueryKind::Sessions
        | QueryKind::Checkpoint
        | QueryKind::Metrics
        | QueryKind::TraceSpans { .. }
        | QueryKind::Health
        | QueryKind::History { .. }
        | QueryKind::Subscribe(_)
        | QueryKind::Unsubscribe { .. }
        | QueryKind::Notifications { .. } => return None,
    })
}

/// The outcome set of `flow` at `src`, or the protocol error.
pub(crate) fn reach(
    state: &impl ReadState,
    src: &str,
    flow: &Flow,
) -> Result<BTreeSet<Outcome>, String> {
    if state.device_addr(src).is_none() {
        return Err(format!("unknown source device {src:?}"));
    }
    state
        .outcomes(src, flow)
        .ok_or_else(|| "session has no live differential engine".to_string())
}

/// Resolves an endpoint-pair destination to a representative flow: a
/// TCP/80 packet to the canonical address of `dst`. Deterministic, so
/// responses are byte-stable.
pub(crate) fn resolve_dst(state: &impl ReadState, dst: &str) -> Result<Flow, String> {
    let addr = state
        .device_addr(dst)
        .ok_or_else(|| format!("unknown destination device {dst:?}"))?
        .ok_or_else(|| format!("destination device {dst:?} has no interfaces"))?;
    Ok(Flow::tcp_to(addr, 80))
}

fn blast(state: &impl ReadState, last: usize) -> Response {
    let history = state.history();
    let window = last.min(history.len());
    let mut flows = 0u64;
    let mut devices: BTreeMap<&str, u64> = BTreeMap::new();
    for (_, diff) in history.rev().take(window) {
        for f in &diff.flows {
            flows += 1;
            *devices.entry(&f.src).or_insert(0) += 1;
        }
    }
    Response::Blast {
        epochs: window as u64,
        flows,
        devices: devices
            .into_iter()
            .map(|(d, n)| (d.to_string(), n))
            .collect(),
    }
}
