//! One end-to-end run of one workload against the real server: cold
//! starts, three client roles over loopback TCP, post-run answers for
//! the oracle.
//!
//! Roles (one thread each, blocked most of the time): connection A
//! ingests single-epoch trace artifacts, closed or open loop; connection
//! B is one closed-loop query client sending bursts of queries,
//! concurrent with the ingest or after it; connection W registers the workload's standing
//! queries and then only reads pushes.

use crate::client::{self, Conn};
use crate::gen::{self, Ingest, Inputs, Reads, Workload};
use crate::oracle;
use crate::server::{Server, RESULTS_DIR};
use dna_io::QueryKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop epochs ingested before the measured window opens: fills
/// the server's retained history (64 epochs), so per-epoch publish cost
/// and memory are steady when timing starts.
pub const WARMUP_EPOCHS: usize = 64;
/// Queries connection B sends before the measured window opens.
const WARMUP_QUERIES: usize = 64;
/// How long W keeps reading after the last ack, for pushes in flight.
const PUSH_GRACE: Duration = Duration::from_millis(150);
/// Pause between B's bursts while ingest runs. Back to back, the client
/// and the server's connection thread would keep both vCPUs busy and
/// starve the engine thread (acks then take 15 ms or 700 ms by run).
const READ_THINK: Duration = Duration::from_millis(4);
/// Share of the run spent ingesting when the query client runs after it.
const INGEST_SHARE: f64 = 0.9;

/// What to run; `--smoke` shrinks these, the code path stays the same.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seconds: f64,
    pub cold_starts: usize,
}

/// Everything observed from outside the server during one run.
pub struct Observed {
    pub setup_s: Vec<f64>,
    /// Epochs the server acked, warm-up included: what the oracle replays.
    pub epochs_acked: usize,
    /// Ack latency of each measured epoch (send-or-due to reply read).
    pub ack_ms: Vec<f64>,
    /// Length of the measured ingest window.
    pub ingest_secs: f64,
    pub query_us: Vec<f64>,
    pub query_secs: f64,
    /// Per measured epoch that caused any push: its index and the time
    /// from send-or-due to the first push read.
    pub notify_ms: Vec<(usize, f64)>,
    /// Pushed artifacts in arrival order.
    pub pushes: Vec<String>,
    /// Open loop only: how late each send ran behind its due time.
    pub gen_late_ms: Vec<f64>,
    /// Open loop only: epochs sent but unacked just before the last send.
    pub backlog_at_end: usize,
    pub queries_sent: usize,
    pub error_replies: usize,
    pub rss_peak_mb: f64,
    /// Server CPU seconds and minor faults over the measured run.
    pub usage: crate::server::ProcUsage,
    pub warm_report: String,
    pub final_stats: String,
    pub final_report: String,
    pub sample_answers: Vec<String>,
}

/// Seconds of the run during which connection A ingests.
fn ingest_window(w: &Workload, seconds: f64) -> f64 {
    match w.reads {
        Reads::DuringIngest => seconds,
        Reads::AfterIngest => seconds * INGEST_SHARE,
    }
}

/// How many epochs to generate for a run of `seconds`.
pub fn planned_epochs(w: &Workload, seconds: f64) -> usize {
    let per_s = match w.ingest {
        Ingest::Closed => w.closed_cap_per_s as f64,
        Ingest::Open(rate) => rate as f64,
    };
    WARMUP_EPOCHS + (per_s * ingest_window(w, seconds)).ceil() as usize
}

pub fn write_snapshot(inputs: &Inputs, name: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    let path = Path::new(RESULTS_DIR).join(format!("{name}.snap.dna"));
    std::fs::write(&path, dna_io::write_snapshot(inputs.snapshot()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Spawn to first successful `stats` reply.
fn cold_start(exe: &Path, snapshot: &Path) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::spawn(exe, snapshot, false)?;
    let reply = Conn::connect(&server.addr)?.ask(&gen::query_text(QueryKind::Stats))?;
    if !reply.contains("ok stats") {
        return Err(format!("cold start: unexpected stats reply: {reply}"));
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reads one ingest ack and classifies it.
fn read_ack(conn: &mut Conn, errors: &mut usize) -> Result<Instant, String> {
    let reply = conn.recv()?.ok_or("server closed the ingest connection")?;
    let at = Instant::now();
    if !reply.contains("ok ingested") {
        *errors += 1;
    }
    Ok(at)
}

struct IngestLog {
    /// Send time (closed loop) or due time (open loop) per epoch index.
    starts: Vec<Instant>,
    acks: Vec<Instant>,
    gen_late_ms: Vec<f64>,
    backlog_at_end: usize,
    errors: usize,
}

/// Closed loop: one epoch in flight, until `deadline` or the trace ends.
fn ingest_closed(
    conn: &mut Conn,
    texts: &[String],
    deadline: Option<Instant>,
    log: &mut IngestLog,
) -> Result<(), String> {
    for text in texts {
        let start = Instant::now();
        if deadline.is_some_and(|d| start >= d) {
            break;
        }
        conn.send(text)?;
        let ack = read_ack(conn, &mut log.errors)?;
        log.starts.push(start);
        log.acks.push(ack);
    }
    Ok(())
}

/// Open loop: a sender thread writes each epoch at its due time whether
/// or not earlier ones were acked (it sleeps, never spins); this thread
/// reads the acks, on a connection in eager-ack mode. Latency is timed
/// from the due time.
fn ingest_open(
    conn: &mut Conn,
    texts: &[String],
    rate: u32,
    log: &mut IngestLog,
) -> Result<(), String> {
    let acked = AtomicUsize::new(0);
    let out = conn.sender();
    let period = Duration::from_secs_f64(1.0 / rate as f64);
    let t0 = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|s| {
        let sender = s.spawn(|| -> Result<(Vec<Instant>, Vec<f64>, usize), String> {
            let mut dues = Vec::with_capacity(texts.len());
            let mut late = Vec::with_capacity(texts.len());
            let mut backlog = 0;
            for (i, text) in texts.iter().enumerate() {
                let due = t0 + period * i as u32;
                let wait = due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                late.push(ms(Instant::now().saturating_duration_since(due)));
                backlog = i - acked.load(Ordering::Relaxed);
                out.send(text)?;
                dues.push(due);
            }
            Ok((dues, late, backlog))
        });
        let mut read = || -> Result<(), String> {
            for _ in texts {
                let ack = read_ack(conn, &mut log.errors)?;
                log.acks.push(ack);
                acked.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        };
        let read_result = read();
        if read_result.is_err() {
            // The sender may be blocked writing to a dead peer.
            conn.sender().close();
        }
        let (dues, late, backlog) = sender.join().expect("ingest sender panicked")?;
        read_result?;
        log.starts.extend(dues);
        log.gen_late_ms = late;
        log.backlog_at_end = backlog;
        Ok(())
    })
}

struct QueryLog {
    latencies_us: Vec<f64>,
    sent: usize,
    errors: usize,
    secs: f64,
}

/// When connection B stops asking.
enum Until<'a> {
    Count(usize),
    Deadline(Instant),
    Flag(&'a AtomicBool),
}

/// Queries connection B writes at once before reading their replies.
///
/// One query at a time, a round trip over loopback is two thread
/// wake-ups around a few microseconds of work, and on a small VM a
/// wake-up costs 5 or 20 us depending on where the scheduler put the two
/// threads: one-at-a-time latency read 15 or 50 us from run to run. A
/// burst pays the wake-ups once, so its round trip divided by its size
/// is what the server spends per query, steady to a few percent.
pub const QUERY_BURST: usize = 32;

/// Connection B: one closed-loop client sending bursts of
/// [`QUERY_BURST`] queries; the next burst goes out `think` after the
/// last reply of the previous one is read. One latency sample per
/// burst: its round trip divided by its size.
fn query_loop(
    conn: &mut Conn,
    pool: &[String],
    think: Duration,
    until: Until,
) -> Result<QueryLog, String> {
    let mut log = QueryLog {
        latencies_us: Vec::new(),
        sent: 0,
        errors: 0,
        secs: 0.0,
    };
    let began = Instant::now();
    let done = |sent: usize| match until {
        Until::Count(n) => sent >= n,
        Until::Deadline(at) => Instant::now() >= at,
        Until::Flag(stop) => stop.load(Ordering::Relaxed),
    };
    let mut burst = String::new();
    while !done(log.sent) {
        burst.clear();
        for text in pool
            .iter()
            .cycle()
            .skip(log.sent % pool.len())
            .take(QUERY_BURST)
        {
            burst.push_str(text);
        }
        let sent_at = Instant::now();
        conn.send(&burst)?;
        for _ in 0..QUERY_BURST {
            let reply = conn.recv()?.ok_or("server closed the query connection")?;
            if client::is_error(&reply) {
                log.errors += 1;
            }
        }
        log.latencies_us
            .push(sent_at.elapsed().as_secs_f64() * 1e6 / QUERY_BURST as f64);
        log.sent += QUERY_BURST;
        if !think.is_zero() {
            std::thread::sleep(think);
        }
    }
    log.secs = began.elapsed().as_secs_f64();
    Ok(log)
}

/// Connection W: registers the workload's standing queries, in order,
/// so subscription ids run from 1.
pub fn connect_watcher(addr: &str, inputs: &Inputs) -> Result<Conn, String> {
    let mut conn = Conn::connect(addr)?.eager_ack();
    for spec in &inputs.subscriptions {
        let ack = conn.ask(&gen::query_text(QueryKind::Subscribe(spec.clone())))?;
        if !client::is_notify(&ack) {
            return Err(format!("subscribe failed: {ack}"));
        }
    }
    Ok(conn)
}

/// Connection W after its subscriptions are registered: read pushes
/// until the connection is closed from outside.
fn watch_loop(conn: &mut Conn) -> Vec<(Instant, String)> {
    let mut pushes = Vec::new();
    while let Ok(Some(artifact)) = conn.recv() {
        pushes.push((Instant::now(), artifact));
    }
    pushes
}

pub fn run(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    plan: Plan,
    exe: &Path,
    sample: &[QueryKind],
) -> Result<Observed, String> {
    let snapshot = write_snapshot(inputs, w.name)?;
    let mut setup_s = Vec::with_capacity(plan.cold_starts);
    let mut server = None;
    for _ in 0..plan.cold_starts.max(1) {
        // One server at a time: the previous one is reaped first.
        drop(server.take());
        let (s, secs) = cold_start(exe, &snapshot)?;
        setup_s.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one cold start");

    let mut conn_w = connect_watcher(&server.addr, inputs)?;
    let w_sender = conn_w.sender();
    let mut conn_a = Conn::connect(&server.addr)?;
    if matches!(w.ingest, Ingest::Open(_)) {
        conn_a = conn_a.eager_ack();
    }
    let mut conn_b = Conn::connect(&server.addr)?.eager_ack();
    let pool = gen::query_mix(&inputs.tree, seed, 4096);
    let stop = AtomicBool::new(false);
    let mut log = IngestLog {
        starts: Vec::new(),
        acks: Vec::new(),
        gen_late_ms: Vec::new(),
        backlog_at_end: 0,
        errors: 0,
    };
    let texts = &inputs.epoch_texts;
    let warm = WARMUP_EPOCHS.min(texts.len());

    let usage_before = server.usage()?;
    let (pushes, queries, warm_report) = std::thread::scope(|s| {
        let watcher = s.spawn(move || watch_loop(&mut conn_w));
        let body = || -> Result<(QueryLog, String), String> {
            ingest_closed(&mut conn_a, &texts[..warm], None, &mut log)?;
            let warm_queries = query_loop(
                &mut conn_b,
                &pool,
                Duration::ZERO,
                Until::Count(WARMUP_QUERIES),
            )?;
            let warm_report = conn_b.ask(&gen::query_text(QueryKind::Report {
                from: 0,
                to: WARMUP_EPOCHS,
            }))?;
            let began = Instant::now();
            let run_end = began + Duration::from_secs_f64(plan.seconds);
            let (stop, pool) = (&stop, &pool);
            let mut ingest = || match w.ingest {
                Ingest::Closed => {
                    let deadline = began + Duration::from_secs_f64(ingest_window(w, plan.seconds));
                    ingest_closed(&mut conn_a, &texts[warm..], Some(deadline), &mut log)
                }
                Ingest::Open(rate) => ingest_open(&mut conn_a, &texts[warm..], rate, &mut log),
            };
            let mut queries = match w.reads {
                Reads::DuringIngest => {
                    let querier = s.spawn(move || {
                        query_loop(&mut conn_b, pool, READ_THINK, Until::Flag(stop))
                    });
                    let ingested = ingest();
                    stop.store(true, Ordering::Relaxed);
                    let queries = querier.join().expect("query client panicked")?;
                    ingested?;
                    std::thread::sleep(PUSH_GRACE);
                    queries
                }
                Reads::AfterIngest => {
                    ingest()?;
                    // At least the grace, so pushes in flight reach W.
                    let until = run_end.max(Instant::now() + PUSH_GRACE);
                    query_loop(&mut conn_b, pool, Duration::ZERO, Until::Deadline(until))?
                }
            };
            queries.errors += warm_queries.errors;
            queries.sent += warm_queries.sent;
            Ok((queries, warm_report))
        };
        let result = body();
        w_sender.close();
        let pushes = watcher.join().expect("watcher panicked");
        result.map(|(q, r)| (pushes, q, r))
    })?;

    let usage_after = server.usage()?;
    let usage = crate::server::ProcUsage {
        user_s: usage_after.user_s - usage_before.user_s,
        sys_s: usage_after.sys_s - usage_before.sys_s,
        minor_faults: usage_after.minor_faults - usage_before.minor_faults,
    };
    // Post-run answers on the now quiescent server.
    let epochs_acked = log.acks.len();
    let mut conn_c = Conn::connect(&server.addr)?;
    let final_stats = conn_c.ask(&gen::query_text(QueryKind::Stats))?;
    let final_report = conn_c.ask(&gen::query_text(oracle::retained_window(epochs_acked)))?;
    let sample_answers = sample
        .iter()
        .map(|k| conn_c.ask(&gen::query_text(k.clone())))
        .collect::<Result<Vec<_>, _>>()?;
    let rss_peak_mb = server.rss_peak_mb()?;
    drop(server);

    let measured = warm..epochs_acked;
    let ack_ms = measured
        .clone()
        .map(|i| ms(log.acks[i].saturating_duration_since(log.starts[i])))
        .collect();
    let ingest_secs = if measured.is_empty() {
        0.0
    } else {
        log.acks[epochs_acked - 1]
            .saturating_duration_since(log.starts[warm])
            .as_secs_f64()
    };
    // Commit index -> arrival of the first push it caused.
    let mut first_push: std::collections::BTreeMap<u64, Instant> = Default::default();
    for (at, artifact) in &pushes {
        for epoch in oracle::event_epochs(artifact) {
            first_push.entry(epoch).or_insert(*at);
        }
    }
    let notify_ms = first_push
        .iter()
        .map(|(e, at)| (*e as usize, at))
        .filter(|(e, _)| measured.contains(e))
        .map(|(e, at)| (e, ms(at.saturating_duration_since(log.starts[e]))))
        .collect();

    Ok(Observed {
        setup_s,
        epochs_acked,
        ack_ms,
        ingest_secs,
        query_us: queries.latencies_us,
        query_secs: queries.secs,
        notify_ms,
        pushes: pushes.into_iter().map(|(_, a)| a).collect(),
        gen_late_ms: log.gen_late_ms,
        backlog_at_end: log.backlog_at_end,
        queries_sent: queries.sent,
        error_replies: log.errors + queries.errors,
        rss_peak_mb,
        usage,
        warm_report,
        final_stats,
        final_report,
        sample_answers,
    })
}
