//! The transport layer: a stream of `dna-io` artifacts in, a stream of
//! `response` artifacts out.
//!
//! The protocol is plain artifact concatenation — the same bytes `dna
//! dump` writes to files can be piped straight into a server. Framing
//! splits on the top-level `end` sentinel (see FORMAT.md "Framing on a
//! stream"); each inbound artifact is dispatched by kind:
//!
//! * **snapshot** → (re)loads the stream-target session;
//! * **trace**    → epochs are ingested incrementally into the
//!   stream-target session;
//! * **query**    → answered against its named (or default) session.
//!
//! Every inbound artifact produces exactly one outbound `response`, so
//! a client can correlate by position. Malformed input is answered with
//! `error` responses — the server never dies on bad bytes.
//!
//! Threading: the dataflow engine is deliberately thread-local (`Rc`
//! internals), so a [`SessionManager`] never crosses threads. The
//! single-stream loop ([`serve_stream`]) runs wherever the manager
//! lives; multi-client service runs behind the [`crate::Router`]:
//! connection threads ([`crate::net`]) and file tails
//! ([`follow_trace`]) exchange raw artifact text — plain `Send` strings
//! — with the engine side over the [`Request`] channel.

use crate::classify::{classify, Classified};
use crate::engine::{Reply, SessionManager};
use dna_io::Response;
use std::io::{self, BufRead, Write};
use std::sync::mpsc;

/// Counters of one serve loop, reported when its input ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Artifacts processed (including malformed ones).
    pub artifacts: u64,
    /// Queries answered.
    pub queries: u64,
    /// Change epochs ingested.
    pub epochs: u64,
    /// Error responses produced.
    pub errors: u64,
    /// Session engine threads that panicked and were fenced off (the
    /// session answers errors from then on; the server lives).
    pub failures: u64,
}

impl ServeSummary {
    /// Adds another loop's counters (used to sum per-session-thread
    /// summaries at router shutdown).
    pub fn merge(&mut self, other: &ServeSummary) {
        self.artifacts += other.artifacts;
        self.queries += other.queries;
        self.epochs += other.epochs;
        self.errors += other.errors;
        self.failures += other.failures;
    }

    pub(crate) fn count(&mut self, reply: &Reply, epochs_applied: u64) {
        self.artifacts += 1;
        // Epoch accounting comes from the session layer, not the
        // response kind: a trace failing mid-stream answers `error` yet
        // has applied its earlier epochs, and the summary must say so.
        self.epochs += epochs_applied;
        match reply {
            Reply::Response(Response::Error(_)) => self.errors += 1,
            Reply::Response(Response::Ingested { .. } | Response::Loaded { .. }) => {}
            // Every other `response` answers a query — as do the raw
            // replies (telemetry scrapes, notify artifacts).
            Reply::Response(_) | Reply::Raw(_) => self.queries += 1,
        }
    }
}

/// Reads one artifact's text off a stream: lines up to and including the
/// first whose trimmed content is exactly `end`. Returns `None` at end
/// of input (trailing blank/comment lines are not an artifact). Input
/// ending mid-artifact returns the partial text — parsing then reports
/// the truncation as a typed error.
pub fn read_artifact(input: &mut impl BufRead) -> io::Result<Option<String>> {
    Ok(match read_frame(input, usize::MAX)? {
        Frame::Artifact(text) => Some(text),
        Frame::Oversized | Frame::End => None,
    })
}

/// What [`read_frame`] found on the stream.
pub(crate) enum Frame {
    /// One artifact's text (partial when input ended mid-artifact).
    Artifact(String),
    /// The artifact outgrew the byte limit before its `end` line; the
    /// stream is now mid-artifact and cannot be framed any further.
    Oversized,
    /// End of input.
    End,
}

/// [`read_artifact`] with a byte ceiling: never buffers more than
/// `limit + 1` bytes, however long the artifact — or a single line of
/// it — runs.
pub(crate) fn read_frame(input: &mut impl BufRead, limit: usize) -> io::Result<Frame> {
    let mut buf = String::new();
    let mut meaningful = false;
    loop {
        let start = buf.len();
        // One byte past the limit tells "at the limit" from "over it".
        let room = ((limit - start) as u64).saturating_add(1);
        if io::Read::take(&mut *input, room).read_line(&mut buf)? == 0 {
            return Ok(if meaningful {
                Frame::Artifact(buf)
            } else {
                Frame::End
            });
        }
        if buf.len() > limit {
            return Ok(Frame::Oversized);
        }
        let trimmed = buf[start..].trim();
        meaningful |= !(trimmed.is_empty() || trimmed.starts_with(';'));
        if trimmed == "end" {
            return Ok(Frame::Artifact(buf));
        }
    }
}

/// Dispatches one inbound artifact on the manager's own thread,
/// returning the one `response` it maps to plus the number of change
/// epochs the artifact applied (nonzero only for traces — including a
/// trace whose response is an error after a mid-stream failure).
/// `stream_session` is the ingest target for snapshot/trace artifacts
/// (queries name their own session); `None` targets the manager's
/// default session. A query answered with another artifact kind
/// (telemetry, notifies) needs [`serve_stream`], not this typed face.
pub fn handle_artifact(
    mgr: &mut SessionManager,
    stream_session: Option<&str>,
    text: &str,
) -> (Response, u64) {
    match mgr.execute(classify(text, stream_session).action) {
        (Reply::Response(response), epochs) => (response, epochs),
        (Reply::Raw(_), epochs) => (
            Response::Error("the reply is not a response artifact; use serve_stream".into()),
            epochs,
        ),
    }
}

/// Runs one serve loop on the manager's own thread: artifacts from
/// `input`, replies to `output`, until end of input.
pub fn serve_stream(
    mgr: &mut SessionManager,
    stream_session: Option<&str>,
    input: &mut impl BufRead,
    output: &mut impl Write,
) -> io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    while let Some(text) = read_artifact(input)? {
        let started = std::time::Instant::now();
        let Classified { action, query } = classify(&text, stream_session);
        let (reply, epochs_applied) = mgr.execute(action);
        crate::obs::record_query_span("pipe", query, started.elapsed());
        summary.count(&reply, epochs_applied);
        output.write_all(reply.into_text().as_bytes())?;
        // One reply per artifact is the unit of interaction: flush so
        // pipe/socket clients are never left waiting on a full buffer.
        output.flush()?;
    }
    Ok(summary)
}

/// One request to the engine side: an inbound artifact's text and the
/// channel its serialized reply goes back on. Both sides are plain
/// strings, so requests cross threads even though the engine cannot.
pub struct Request {
    /// Raw artifact text as framed off the wire.
    pub text: String,
    /// Stream-target session for snapshot/trace artifacts (queries name
    /// their own). `None` targets the server's default session. Set by
    /// in-process feeders bound to a session (`--follow`); wire clients
    /// have no session side-channel and always send `None`.
    pub session: Option<String>,
    /// Where the serialized response artifact is sent.
    pub reply: mpsc::Sender<String>,
}

/// Ships one artifact to the engine side, returning the channel its
/// reply arrives on — `None` when the engine side has shut down.
pub(crate) fn submit(
    requests: &mpsc::Sender<Request>,
    text: String,
    session: Option<&str>,
) -> Option<mpsc::Receiver<String>> {
    let (reply, reply_rx) = mpsc::channel();
    let session = session.map(str::to_string);
    let sent = requests.send(Request {
        text,
        session,
        reply,
    });
    sent.is_ok().then_some(reply_rx)
}

/// How many shipped epochs a follower lets run ahead of their
/// acknowledgements: deep enough that a burst presents the engine a
/// real backlog (the `--coalesce` drain caps merges well below this),
/// bounded so a runaway writer cannot queue unbounded epochs in the
/// router.
const FOLLOW_WINDOW: usize = 32;

/// File-tail ingest (`dna serve --follow`): follows a growing trace
/// file, shipping each change epoch to the engine as a single-epoch
/// trace artifact the moment the epoch completes (see
/// [`dna_io::TraceTail`] — an epoch closes when the next `epoch` line
/// or the final `end` sentinel is written). Snapshot/trace ingest is
/// bound to `session` (`None` = the server's default session). Polls
/// the file every `poll`; returns the number of epochs shipped once
/// the trace's `end` sentinel arrives, or an error if the file turns
/// malformed (a follower cannot resynchronize past bad bytes) or the
/// engine goes away. Error *responses* (e.g. an epoch failing to
/// apply) are reported to stderr and do not stop the follow — later
/// epochs of a live stream may still apply.
///
/// Shipping is **pipelined**: up to `FOLLOW_WINDOW` epochs may be in
/// flight before the follower stops to collect acknowledgements, so a
/// burst appended to the tailed file reaches the engine back-to-back
/// instead of one round-trip at a time. That is what lets a fast
/// writer build a real ingest backlog — which `--coalesce` then drains
/// as merged commits — while the window bound keeps a runaway writer
/// from queueing unbounded epochs in the router. Acknowledgements are
/// always fully drained before the follower sleeps at a quiet EOF and
/// before it returns, so error reporting lags a stalled stream by at
/// most one poll, never indefinitely.
///
/// The follow survives **truncation and rotation** of the tailed file:
/// when, at EOF, the path's on-disk size has shrunk below what was
/// read or (on unix) the path's inode changed, the follower reopens
/// the path and frames the replacement as a fresh trace artifact from
/// its first byte (see `tail_rotated` / [`dna_io::TraceTail::rotate`]).
/// Epochs already shipped from the old file stand; epochs buffered but
/// never completed before the rotation are discarded with it.
pub fn follow_trace(
    requests: &mpsc::Sender<Request>,
    session: Option<&str>,
    path: &std::path::Path,
    poll: std::time::Duration,
) -> io::Result<u64> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut tail = dna_io::TraceTail::new();
    let mut carry: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut shipped = 0u64;
    // In-flight acknowledgements, oldest first (see the pipelining
    // note in the doc comment).
    let mut pending: std::collections::VecDeque<mpsc::Receiver<String>> =
        std::collections::VecDeque::new();
    let engine_gone = || io::Error::new(io::ErrorKind::BrokenPipe, "engine shut down mid-follow");
    let drain_one =
        |pending: &mut std::collections::VecDeque<mpsc::Receiver<String>>| -> io::Result<()> {
            let Some(rx) = pending.pop_front() else {
                return Ok(());
            };
            let response = rx.recv().map_err(|_| engine_gone())?;
            if let Ok(Response::Error(msg)) = dna_io::parse_response(&response) {
                // An epoch failing to apply outranks --quiet.
                dna_obs::log::announce(&format!("dna serve: follow {}: {msg}", path.display()));
            }
            Ok(())
        };
    // Bytes read from the currently-open file: a path whose on-disk
    // size drops below this was truncated (or replaced by a shorter
    // file) — the shrink half of rotation detection.
    let mut consumed = 0u64;
    loop {
        let n = file.read(&mut chunk)?;
        consumed += n as u64;
        let bad_trace = |e: dna_io::IoError| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        };
        let epochs = if n == 0 {
            // A final `end` sentinel without a trailing newline is a
            // complete trace (the batch parser accepts it); anything
            // else pending just waits for the writer.
            let flushed = tail.finish_eof().map_err(bad_trace)?;
            if flushed.is_empty() {
                // Quiet moment: collect every outstanding ack before
                // returning or sleeping, so errors surface promptly
                // and a finished follow leaves nothing in flight.
                while !pending.is_empty() {
                    drain_one(&mut pending)?;
                }
                if tail.finished() {
                    return Ok(shipped);
                }
                // At EOF with nothing new: the quiet moment to check
                // whether the tailed *path* still names the file we
                // hold open. A shrink or an inode change means the
                // writer rotated it — reopen and frame the replacement
                // as a fresh trace artifact from its first byte
                // (epochs already shipped from the old file stand).
                if tail_rotated(path, &file, consumed)? {
                    match std::fs::File::open(path) {
                        Ok(f) => {
                            dna_obs::log::info(&format!(
                                "dna serve: follow {}: file rotated; following the new file",
                                path.display()
                            ));
                            file = f;
                            tail.rotate();
                            carry.clear();
                            consumed = 0;
                        }
                        // The replacement vanished between the check
                        // and the open (rotation race); the next poll
                        // re-checks.
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {
                            std::thread::sleep(poll);
                        }
                        Err(e) => return Err(e),
                    }
                    continue;
                }
                std::thread::sleep(poll);
                continue;
            }
            flushed
        } else {
            carry.extend_from_slice(&chunk[..n]);
            // Feed only the valid UTF-8 prefix; a multi-byte character
            // split across reads waits in `carry` for its tail.
            let valid = match std::str::from_utf8(&carry) {
                Ok(s) => s.len(),
                Err(e) if e.error_len().is_none() => e.valid_up_to(),
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: invalid UTF-8: {e}", path.display()),
                    ))
                }
            };
            let text = std::str::from_utf8(&carry[..valid])
                .expect("validated prefix")
                .to_owned();
            carry.drain(..valid);
            tail.feed(&text).map_err(bad_trace)?
        };
        for epoch in epochs {
            let artifact = dna_io::write_trace(&dna_io::Trace {
                epochs: vec![epoch],
            });
            pending.push_back(submit(requests, artifact, session).ok_or_else(engine_gone)?);
            shipped += 1;
            while pending.len() >= FOLLOW_WINDOW {
                drain_one(&mut pending)?;
            }
        }
    }
}

/// Whether the tailed `path` no longer names the file the follower
/// holds open: either the on-disk size dropped below what was already
/// read (truncate-in-place, or a shorter replacement at the same
/// path), or — on unix — the path resolves to a different inode
/// (rename-style rotation, `logrotate`'s default). A path that is
/// momentarily *gone* is not yet a rotation: the writer may be mid
/// rename, so the follower keeps polling until the replacement lands.
fn tail_rotated(path: &std::path::Path, file: &std::fs::File, consumed: u64) -> io::Result<bool> {
    let on_disk = match std::fs::metadata(path) {
        Ok(m) => m,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    if on_disk.len() < consumed {
        return Ok(true);
    }
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        let open = file.metadata()?;
        if (open.dev(), open.ino()) != (on_disk.dev(), on_disk.ino()) {
            return Ok(true);
        }
    }
    #[cfg(not(unix))]
    let _ = file;
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_io::{parse_response, write_query, write_snapshot, write_trace, Query, QueryKind};

    fn one_router_snapshot() -> net_model::Snapshot {
        net_model::NetBuilder::new()
            .router("r1")
            .iface("r1", "lan", "192.168.1.1/24")
            .ospf_passive("r1", "lan", 1)
            .build()
    }

    #[test]
    fn framing_splits_concatenated_artifacts() {
        let a = "dna-io v1 trace\nepoch\nend\n";
        let b = "; comment\n\ndna-io v5 query\n  stats\nend\n";
        let mut input = io::Cursor::new(format!("{a}{b}\n; trailing\n").into_bytes());
        let first = read_artifact(&mut input).unwrap().unwrap();
        assert_eq!(first, a);
        let second = read_artifact(&mut input).unwrap().unwrap();
        assert_eq!(second, b);
        assert_eq!(read_artifact(&mut input).unwrap(), None);
    }

    #[test]
    fn framing_never_buffers_past_the_limit() {
        let artifact = "dna-io v5 query\n  stats\nend\n";
        let frame = |text: &str, limit| read_frame(&mut io::Cursor::new(text.as_bytes()), limit);
        // Exactly at the limit passes; one byte under it does not.
        assert!(matches!(
            frame(artifact, artifact.len()).unwrap(),
            Frame::Artifact(text) if text == artifact
        ));
        assert!(matches!(
            frame(artifact, artifact.len() - 1).unwrap(),
            Frame::Oversized
        ));
        // A line that never ends is cut off too, not read to its end.
        let mut endless = io::Cursor::new(vec![b'x'; 4096]);
        assert!(matches!(
            read_frame(&mut endless, 100).unwrap(),
            Frame::Oversized
        ));
        assert_eq!(endless.position(), 101, "one byte past the limit, no more");
    }

    #[test]
    fn truncated_stream_artifact_is_a_typed_error_response() {
        let mut input = io::Cursor::new(b"dna-io v5 query\n  stats\n".to_vec());
        let text = read_artifact(&mut input).unwrap().unwrap();
        let mut mgr = SessionManager::new(Default::default());
        let (r, epochs) = handle_artifact(&mut mgr, None, &text);
        assert!(matches!(r, Response::Error(_)));
        assert_eq!(epochs, 0);
    }

    #[test]
    fn serve_stream_answers_one_response_per_artifact() {
        let stream = format!(
            "{}{}{}",
            write_snapshot(&one_router_snapshot()),
            write_trace(&dna_io::Trace::default()),
            write_query(&Query {
                session: None,
                kind: QueryKind::Sessions,
            })
        );
        let mut mgr = SessionManager::new(Default::default());
        let mut out = Vec::new();
        let summary = serve_stream(
            &mut mgr,
            None,
            &mut io::Cursor::new(stream.into_bytes()),
            &mut out,
        )
        .unwrap();
        assert_eq!(summary.artifacts, 3);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.queries, 1);
        let out = String::from_utf8(out).unwrap();
        let mut cursor = io::Cursor::new(out.into_bytes());
        let loaded = parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap();
        assert!(matches!(loaded, Response::Loaded { devices: 1, .. }));
        let ingested = parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap();
        assert!(matches!(ingested, Response::Ingested { epochs: 0, .. }));
        let sessions = parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap();
        match sessions {
            Response::Sessions(list) => {
                assert_eq!(list.len(), 1);
                assert_eq!(list[0].name, "main");
            }
            other => panic!("expected sessions, got {other:?}"),
        }
    }
}
