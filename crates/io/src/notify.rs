//! The `notify` artifact: pushed (or polled) deltas of a standing query.
//!
//! A subscription (`subscribe …`, query v5) names a question the server
//! keeps answering incrementally; whenever an applied commit changes the
//! answer, the session emits one `notify` artifact carrying the
//! subscription id, the session name and the changed answers — one event
//! per commit, reusing the reach outcome grammar so pushed bytes are
//! directly comparable to polled `ok reach` payloads. The same artifact
//! answers `subscribe` / `unsubscribe` (zero events, echoing the id) and
//! the `notifications <id>` poll (all events since the last drain). A
//! `resync` event marks a gap: the bounded delivery queue overflowed and
//! `dropped` older events were discarded, so the subscriber should
//! re-poll full state.
//!
//! Like every artifact the encoding is canonical — events serialize in
//! order, outcome sets sort — so a pushed stream and a poll-after-every-
//! epoch drain of the same subscription are byte-identical.

use crate::codec::{fmt_outcomes, parse_header, parse_outcomes, W};
use crate::error::{perr, IoError};
use crate::lex::quote;
use crate::Artifact;
use data_plane::Outcome;
use std::collections::BTreeSet;

/// One delivery of standing-query deltas for a single subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notify {
    /// The subscription this delivery belongs to (per-session ids,
    /// assigned by the server at `subscribe` time, starting at 1).
    pub subscription: u64,
    /// The session that owns the subscription (resolved name, never the
    /// default-session shorthand).
    pub session: String,
    /// Changed answers, oldest first. Empty for subscribe/unsubscribe
    /// acknowledgements and for polls that drained nothing.
    pub events: Vec<NotifyEvent>,
}

/// One changed answer (or gap marker) of a standing query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NotifyEvent {
    /// A reach-like subscription (`reach`, `reach-pair`) changed its
    /// outcome set at the given commit.
    Reach {
        /// Absolute index of the commit that changed the answer (the
        /// first stream epoch of a coalesced commit).
        epoch: u64,
        /// The new outcome set, canonical (sorted).
        outcomes: BTreeSet<Outcome>,
    },
    /// A blast subscription observed flow diffs sourced at its device.
    Blast {
        /// Absolute index of the commit.
        epoch: u64,
        /// Flow diffs sourced at the subscribed device in this commit.
        flows: u64,
    },
    /// An invariant subscription re-evaluated to a changed outcome set.
    Invariant {
        /// Absolute index of the commit.
        epoch: u64,
        /// Whether the invariant holds under the new answer.
        holds: bool,
        /// The new outcome set the verdict was derived from.
        outcomes: BTreeSet<Outcome>,
    },
    /// The bounded delivery queue overflowed: `dropped` older events
    /// were discarded before this drain. Subscribers should treat the
    /// stream as gapped and re-establish state by polling.
    Resync {
        /// Absolute index of the newest commit whose event was dropped.
        epoch: u64,
        /// How many events were discarded.
        dropped: u64,
    },
}

impl NotifyEvent {
    /// The commit index the event is anchored to.
    pub fn epoch(&self) -> u64 {
        match self {
            NotifyEvent::Reach { epoch, .. }
            | NotifyEvent::Blast { epoch, .. }
            | NotifyEvent::Invariant { epoch, .. }
            | NotifyEvent::Resync { epoch, .. } => *epoch,
        }
    }
}

/// Serializes a notify artifact (canonical bytes).
pub fn write_notify(n: &Notify) -> String {
    let mut w = W::new(Artifact::Notify);
    w.line(
        1,
        &format!(
            "subscription {} session {}",
            n.subscription,
            quote(&n.session)
        ),
    );
    for ev in &n.events {
        let line = match ev {
            NotifyEvent::Reach { epoch, outcomes } => {
                format!("event {epoch} reach {}", fmt_outcomes(outcomes.iter()))
            }
            NotifyEvent::Blast { epoch, flows } => format!("event {epoch} blast {flows}"),
            NotifyEvent::Invariant {
                epoch,
                holds,
                outcomes,
            } => format!(
                "event {epoch} invariant {} {}",
                if *holds { "holds" } else { "violated" },
                fmt_outcomes(outcomes.iter())
            ),
            NotifyEvent::Resync { epoch, dropped } => {
                format!("resync {epoch} dropped {dropped}")
            }
        };
        w.line(1, &line);
    }
    w.finish()
}

/// Parses a notify artifact (requires the `end` sentinel).
pub fn parse_notify(text: &str) -> Result<Notify, IoError> {
    let mut lines = parse_header(text, Artifact::Notify)?;
    let mut c = lines.line("the subscription line of the notify artifact")?;
    let mut n = Notify {
        subscription: c.kv("subscription", "subscription id")?,
        session: c.kv_string("session", "session name")?,
        events: Vec::new(),
    };
    c.finish()?;
    lines.body("notify", "end", |kw, c, _| {
        n.events.push(match kw {
            "event" => {
                let epoch = c.parse("commit index")?;
                match c.word("event kind")?.as_str() {
                    "reach" => NotifyEvent::Reach {
                        epoch,
                        outcomes: parse_outcomes(c)?,
                    },
                    "blast" => NotifyEvent::Blast {
                        epoch,
                        flows: c.parse("flow count")?,
                    },
                    "invariant" => NotifyEvent::Invariant {
                        epoch,
                        holds: c.choice(&[("holds", true), ("violated", false)])?,
                        outcomes: parse_outcomes(c)?,
                    },
                    other => return Err(perr(c.line, format!("unknown event kind {other:?}"))),
                }
            }
            "resync" => NotifyEvent::Resync {
                epoch: c.parse("commit index")?,
                dropped: c.kv("dropped", "dropped count")?,
            },
            other => return Err(perr(c.line, format!("unknown notify keyword {other:?}"))),
        });
        Ok(())
    })?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Notify {
        Notify {
            subscription: 3,
            session: "scenario a".into(),
            events: vec![
                NotifyEvent::Reach {
                    epoch: 4,
                    outcomes: [
                        Outcome::Delivered("edge1_1".into()),
                        Outcome::Blackhole("agg 0".into()),
                        Outcome::Loop,
                    ]
                    .into_iter()
                    .collect(),
                },
                NotifyEvent::Blast { epoch: 5, flows: 7 },
                NotifyEvent::Invariant {
                    epoch: 6,
                    holds: false,
                    outcomes: [Outcome::Delivered("edge1_1".into())].into_iter().collect(),
                },
                NotifyEvent::Resync {
                    epoch: 9,
                    dropped: 12,
                },
                NotifyEvent::Reach {
                    epoch: 10,
                    outcomes: BTreeSet::new(),
                },
            ],
        }
    }

    #[test]
    fn notify_round_trips_canonically() {
        let n = sample();
        let text = write_notify(&n);
        let back = parse_notify(&text).expect("parses");
        assert_eq!(back, n);
        assert_eq!(write_notify(&back), text);
        // An acknowledgement (no events) round-trips too.
        let ack = Notify {
            subscription: 1,
            session: "s".into(),
            events: Vec::new(),
        };
        assert_eq!(parse_notify(&write_notify(&ack)).unwrap(), ack);
    }

    #[test]
    fn notify_body_lines_are_never_bare_end() {
        // Stream framing splits artifacts on exact `end` lines; every
        // body line of a notify is indented, so no payload can forge the
        // sentinel.
        let text = write_notify(&sample());
        let bare_ends = text.lines().filter(|l| l.trim() == "end").count();
        assert_eq!(bare_ends, 1);
        assert!(text.ends_with("\nend\n"));
    }

    #[test]
    fn malformed_notifies_are_typed_errors() {
        assert!(matches!(
            parse_notify("dna-io v1 notify\nend\n"),
            Err(IoError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_notify("dna-io v1 notify\n  subscription 1 session \"s\"\n"),
            Err(IoError::Truncated { .. })
        ));
        assert!(matches!(
            parse_notify("dna-io v1 notify\n"),
            Err(IoError::Truncated { .. })
        ));
        assert!(matches!(
            parse_notify(
                "dna-io v1 notify\n  subscription 1 session \"s\"\n  event 0 frobnicate\nend\n"
            ),
            Err(IoError::Parse { line: 3, .. })
        ));
        assert!(matches!(
            parse_notify(
                "dna-io v1 notify\n  subscription 1 session \"s\"\n  event 0 invariant maybe -\nend\n"
            ),
            Err(IoError::Parse { line: 3, .. })
        ));
    }
}
