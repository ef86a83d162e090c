//! The traced run: per-layer metrics measured from outside the program.
//!
//! The same slice of the workload's trace is replayed through a ladder
//! of in-process rigs built only from public constructors, each one
//! layer taller than the one below:
//!
//! ```text
//! CpEngine::apply            control-plane (+ ddflow)
//! DiffEngine::apply, view()  + data-plane, + the freeze copy
//! ReplaySession::step        + replay bookkeeping
//! Session::ingest            + history, diff canonicalisation   (no view, no subs)
//!   .. with subscriptions    + standing-query evaluation and hub enqueue
//!   .. with a ViewSlot       + view publish
//! handle_artifact(text)      + trace parse and dispatch         (no view, no subs)
//! dna serve over TCP         + router, channels, socket
//! ```
//!
//! A layer's self time is the median over epochs of its rung minus the
//! rung below on the same epoch. Spans `{name, start, end, parent,
//! epoch}` are kept in memory and written to
//! `benchmark/results/trace-<workload>.jsonl` when the run ends. The
//! server's own telemetry is then read back through the public `trace`
//! and `metrics` queries as a cross-check of the same slice over TCP.

use crate::client::Conn;
use crate::gen::{self, Inputs, Workload};
use crate::json::{obj, Json};
use crate::metrics::Values;
use crate::run::{connect_watcher, write_snapshot, Plan};
use crate::server::{Server, RESULTS_DIR};
use crate::stats::median;
use control_plane::CpEngine;
use dna_core::{DiffEngine, ReplayMode, ReplaySession};
use dna_io::{QueryKind, TraceEpoch};
use dna_serve::{NotifyHub, Session, SessionConfig, SessionManager, ViewReader, ViewSlot};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One timed interval, as written to the spans file.
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    epoch: usize,
    start: Instant,
    end: Instant,
}

struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// Times `f` as one span and returns its result and microseconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        epoch: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            epoch,
            start,
            end,
        });
        (out, (end - start).as_secs_f64() * 1e6)
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(
                &obj([
                    ("name", s.name.into()),
                    ("start", us(s.start).into()),
                    ("end", us(s.end).into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("epoch", s.epoch.into()),
                ])
                .line(),
            );
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Median over epochs of `upper - lower`, epoch by epoch.
fn self_time(upper: &[f64], lower: &[f64]) -> f64 {
    let d: Vec<f64> = upper.iter().zip(lower).map(|(u, l)| u - l).collect();
    median(&d)
}

/// Per-epoch timings and counts of the in-process rigs.
#[derive(Default)]
struct Rungs {
    parse_trace: Vec<f64>,
    cp_apply: Vec<f64>,
    core_apply: Vec<f64>,
    core_view: Vec<f64>,
    core_step: Vec<f64>,
    ingest_plain: Vec<f64>,
    ingest_view: Vec<f64>,
    ingest_subs: Vec<f64>,
    handle: Vec<f64>,
    ack_bytes: Vec<f64>,
    cp_tuples: Vec<f64>,
    cp_nodes_skipped: Vec<f64>,
    rib_delta: Vec<f64>,
    fib_delta: Vec<f64>,
    flow_diffs: Vec<f64>,
    dirty_classes: Vec<f64>,
    /// The engine's own `DiffStats::dp_time`, to cross-check the rung
    /// difference against.
    dp_reported: Vec<f64>,
    cp_state_tuples: f64,
    classes: f64,
    pset_nodes: f64,
}

fn climb(
    inputs: &Inputs,
    slice: &[TraceEpoch],
    texts: &[String],
    trace: &mut Trace,
) -> Result<(Rungs, Session, Arc<ViewSlot>), String> {
    let snap = || inputs.snapshot().clone();
    let open = || Session::open(crate::SESSION, snap(), SessionConfig::default());
    let failed =
        |rig: &str, i: usize, err: &dyn std::fmt::Display| format!("{rig} epoch {i}: {err}");
    let mut r = Rungs::default();

    // One rig at a time, each through the whole slice with its working
    // set hot in cache, as the engine thread of a server has it. (Taking
    // the epochs rig by rig in turn was tried: whichever rig goes first
    // pays for warming code and allocator for the rest, and differences
    // between rungs stop meaning anything.)
    let mut cp = CpEngine::new(snap()).map_err(|e| e.to_string())?;
    for (i, ep) in slice.iter().enumerate() {
        let (delta, us) = trace.time("cp.apply", None, i, || cp.apply(&ep.changes));
        let delta = delta.map_err(|e| failed("CpEngine", i, &e))?;
        r.cp_apply.push(us);
        r.cp_tuples.push(delta.stats.tuples_processed as f64);
        r.cp_nodes_skipped.push(delta.stats.nodes_skipped as f64);
        r.rib_delta.push(delta.rib.len() as f64);
        r.fib_delta.push(delta.fib.len() as f64);
    }
    r.cp_state_tuples = cp.state_tuples() as f64;
    drop(cp);

    let mut engine = DiffEngine::new(snap()).map_err(|e| e.to_string())?;
    for (i, ep) in slice.iter().enumerate() {
        let (diff, us) = trace.time("core.apply", None, i, || engine.apply(&ep.changes));
        let diff = diff.map_err(|e| failed("DiffEngine", i, &e))?;
        r.core_apply.push(us);
        r.flow_diffs.push(diff.flows.len() as f64);
        r.dirty_classes.push(diff.stats.dirty_classes as f64);
        r.dp_reported.push(diff.stats.dp_time.as_secs_f64() * 1e6);
    }
    // The freeze copy is timed after the slice, not between applies,
    // where it would evict the engine's working set and inflate this
    // rung against the ones above it. Its cost follows the state's
    // size, which the stationary trace keeps constant.
    for i in 0..VIEW_COPIES {
        let (view, us) = trace.time("core.view", None, slice.len() + i, || engine.view());
        r.core_view.push(us);
        drop(view);
    }
    r.classes = engine.class_count() as f64;
    r.pset_nodes = engine.state_size().2 as f64;
    drop(engine);

    let mut replay =
        ReplaySession::new(snap(), ReplayMode::Differential).map_err(|e| e.to_string())?;
    for (i, ep) in slice.iter().enumerate() {
        let (out, us) = trace.time("core.step", None, i, || replay.step(&ep.changes));
        out.map_err(|e| failed("ReplaySession", i, &e))?;
        r.core_step.push(us);
    }
    drop(replay);

    let mut plain = open()?;
    for (i, ep) in slice.iter().enumerate() {
        let (out, us) = trace.time("serve.ingest", None, i, || plain.ingest(ep));
        out?;
        r.ingest_plain.push(us);
    }
    drop(plain);

    // Subscriptions without a view slot, so the rung below is the plain
    // session: a difference of two ~2 ms rungs resolves the ~0.1 ms that
    // evaluation costs, a difference of two ~6 ms rungs would not. The
    // hub has one watcher on every subscription, so events are rendered
    // and enqueued as for a TCP watcher (its bounded queues drop the
    // oldest; nothing needs to drain them).
    let mut with_subs = open()?;
    let hub = Arc::new(NotifyHub::new());
    let watcher = hub.register();
    with_subs.set_notify_hub(Arc::clone(&hub));
    for (n, spec) in inputs.subscriptions.iter().enumerate() {
        with_subs
            .subscription_reply(&QueryKind::Subscribe(spec.clone()))
            .ok_or("subscribe is a subscription command")?;
        hub.watch(watcher, crate::SESSION, n as u64 + 1);
    }
    for (i, ep) in slice.iter().enumerate() {
        let (out, us) = trace.time("serve.ingest+subs", None, i, || with_subs.ingest(ep));
        out?;
        r.ingest_subs.push(us);
    }
    drop(with_subs);

    let mut mgr = SessionManager::new(SessionConfig::default());
    mgr.open(crate::SESSION, snap())?;
    for (i, text) in texts.iter().enumerate() {
        let (parsed, us) = trace.time("io.parse_trace", Some("serve.handle"), i, || {
            dna_io::parse_trace(text)
        });
        parsed.map_err(|e| failed("parse_trace", i, &e))?;
        r.parse_trace.push(us);
        let ((response, _), us) = trace.time("serve.handle", None, i, || {
            dna_serve::handle_artifact(&mut mgr, None, text)
        });
        r.handle.push(us);
        let ack = dna_io::write_response(&response);
        if !ack.contains("ok ingested") {
            return Err(failed("handle_artifact", i, &ack));
        }
        r.ack_bytes.push(ack.len() as f64);
    }
    drop(mgr);

    // Last, the rig the query rungs keep using afterwards.
    let mut with_view = open()?;
    let slot = Arc::new(ViewSlot::new());
    with_view.set_view_slot(Arc::clone(&slot));
    for (i, ep) in slice.iter().enumerate() {
        let (out, us) = trace.time("serve.ingest+view", None, i, || with_view.ingest(ep));
        out?;
        r.ingest_view.push(us);
    }
    Ok((r, with_view, slot))
}

/// Per query kind: the two answer implementations, timed on the same
/// state; plus parse and serialise costs and reply sizes.
struct QueryRungs {
    view_us: BTreeMap<&'static str, Vec<f64>>,
    session_us: BTreeMap<&'static str, Vec<f64>>,
    parse_us: Vec<f64>,
    write_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    asked: usize,
    disagreements: usize,
}

/// `DiffEngine::view()` calls timed on the slice's final state.
const VIEW_COPIES: usize = 32;

/// `report` queries timed per layer, round robin over the retained cycles.
const REPORT_QUERIES: usize = 64;

const ANSWER_KINDS: [&str; 5] = ["reach", "reach-pair", "blast", "report", "stats"];

fn query_rungs(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    session: &Session,
    slot: &ViewSlot,
    trace: &mut Trace,
) -> Result<QueryRungs, String> {
    let mut q = QueryRungs {
        view_us: ANSWER_KINDS.iter().map(|k| (*k, Vec::new())).collect(),
        session_us: ANSWER_KINDS.iter().map(|k| (*k, Vec::new())).collect(),
        parse_us: Vec::new(),
        write_us: Vec::new(),
        reply_bytes: Vec::new(),
        asked: 0,
        disagreements: 0,
    };
    let mut reader = ViewReader::new();
    let view = Arc::clone(reader.current(slot).ok_or("no view was published")?);
    // Connection B's mix, then the `report` queries it leaves out.
    let epochs = session.epochs();
    let reports = (0..REPORT_QUERIES).map(|n| gen::query_text(gen::cycle_report(w, epochs, n)));
    let texts: Vec<String> = gen::query_mix(&inputs.tree, seed, 4096)
        .into_iter()
        .chain(reports)
        .collect();
    for (i, text) in texts.iter().enumerate() {
        let (parsed, us) = trace.time("io.parse_query", None, i, || dna_io::parse_query(text));
        let kind = parsed.map_err(|err| err.to_string())?.kind;
        q.parse_us.push(us);
        let name = kind.name();
        let (from_view, us) = trace.time("serve.view_answer", None, i, || view.answer(&kind));
        let from_view = from_view.ok_or_else(|| format!("a view cannot answer {name}"))?;
        q.view_us.get_mut(name).ok_or(name)?.push(us);
        let (from_session, us) =
            trace.time("serve.session_answer", None, i, || session.answer(&kind));
        q.session_us.get_mut(name).ok_or(name)?.push(us);
        let (reply, us) = trace.time("io.write_response", None, i, || {
            dna_io::write_response(&from_view)
        });
        q.write_us.push(us);
        q.reply_bytes.push(reply.len() as f64);
        q.asked += 1;
        if reply != dna_io::write_response(&from_session) {
            q.disagreements += 1;
        }
    }
    Ok(q)
}

/// What one closed-loop ingest of the slice over TCP showed.
struct TcpSlice {
    ack_us: Vec<f64>,
    errors: usize,
    /// Server-side stage timings read back through `trace` (when asked).
    spans: Option<dna_io::SpanReport>,
    /// `(notifies_pushed, notify_suppressed)` read back through `metrics`.
    subs: Option<(f64, f64)>,
}

fn tcp_slice(
    exe: &Path,
    snapshot: &Path,
    inputs: &Inputs,
    texts: &[String],
    obs_disabled: bool,
    mut trace: Option<&mut Trace>,
) -> Result<TcpSlice, String> {
    let server = Server::spawn(exe, snapshot, obs_disabled)?;
    let mut conn_w = connect_watcher(&server.addr, inputs)?;
    let w_sender = conn_w.sender();
    let mut conn_a = Conn::connect(&server.addr)?;
    let mut out = TcpSlice {
        ack_us: Vec::with_capacity(texts.len()),
        errors: 0,
        spans: None,
        subs: None,
    };
    std::thread::scope(|s| -> Result<(), String> {
        let watcher = s.spawn(move || while let Ok(Some(_)) = conn_w.recv() {});
        let mut ingest = || -> Result<(), String> {
            for (i, text) in texts.iter().enumerate() {
                let start = Instant::now();
                conn_a.send(text)?;
                let sent = Instant::now();
                let reply = conn_a
                    .recv()?
                    .ok_or("server closed the ingest connection")?;
                let end = Instant::now();
                if !reply.contains("ok ingested") {
                    out.errors += 1;
                }
                out.ack_us.push((end - start).as_secs_f64() * 1e6);
                if let Some(trace) = trace.as_deref_mut() {
                    for (name, parent, start, end) in [
                        ("tcp.epoch", None, start, end),
                        ("tcp.send", Some("tcp.epoch"), start, sent),
                        ("tcp.wait_ack", Some("tcp.epoch"), sent, end),
                    ] {
                        trace.spans.push(Span {
                            name,
                            parent,
                            epoch: i,
                            start,
                            end,
                        });
                    }
                }
            }
            Ok(())
        };
        let result = ingest();
        w_sender.close();
        watcher.join().expect("watcher panicked");
        result
    })?;
    if trace.is_some() {
        let spans = conn_a.ask(&gen::query_text(QueryKind::TraceSpans {
            last: Some(texts.len()),
        }))?;
        out.spans = Some(dna_io::parse_spans(&spans).map_err(|e| format!("trace reply: {e}"))?);
        let scrape = conn_a.ask(&gen::query_text(QueryKind::Metrics))?;
        let scrape = dna_io::parse_metrics(&scrape).map_err(|e| format!("metrics reply: {e}"))?;
        let counter = |name: &str| {
            scrape
                .counters
                .iter()
                .find(|c| c.name == name && c.session.as_deref() == Some(crate::SESSION))
                .map_or(0.0, |c| c.value as f64)
        };
        out.subs = Some((counter("notifies_pushed"), counter("notify_suppressed")));
    }
    Ok(out)
}

pub fn run(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    plan: Plan,
    exe: &Path,
) -> Result<crate::RunResult, String> {
    // The slice scales with the run length so `--smoke` stays short; at
    // the benchmark's own run length it is the workload's full ladder.
    let scaled = (w.ladder_epochs as f64 * plan.seconds / crate::RUN_SECONDS as f64) as usize;
    let len = scaled.clamp(8, w.ladder_epochs).min(inputs.epochs.len());
    let slice = &inputs.epochs[..len];
    let texts = &inputs.epoch_texts[..len];
    let mut trace = Trace {
        origin: Instant::now(),
        spans: Vec::new(),
    };

    let (r, session, slot) = climb(inputs, slice, texts, &mut trace)?;
    let q = query_rungs(w, inputs, seed, &session, &slot, &mut trace)?;
    drop(session);

    let snapshot = write_snapshot(inputs, w.name)?;
    let plain = tcp_slice(exe, &snapshot, inputs, texts, false, None)?;
    let traced = tcp_slice(exe, &snapshot, inputs, texts, false, Some(&mut trace))?;
    let no_obs = tcp_slice(exe, &snapshot, inputs, texts, true, None)?;
    trace.write(&Path::new(RESULTS_DIR).join(format!("trace-{}.jsonl", w.name)))?;

    let spans = traced.spans.as_ref().ok_or("traced slice has no spans")?;
    if spans.spans.len() != len {
        return Err(format!(
            "the server's span ring returned {} spans for {len} epochs",
            spans.spans.len()
        ));
    }
    let stage = |f: fn(&dna_io::SpanRow) -> u64| -> Vec<f64> {
        spans.spans.iter().map(|s| f(s) as f64 / 1e3).collect()
    };
    let (sp_parse, sp_cp, sp_dp, sp_publish, sp_total) = (
        stage(|s| s.parse_ns),
        stage(|s| s.cp_ns),
        stage(|s| s.dp_ns),
        stage(|s| s.publish_ns),
        stage(|s| s.total_ns),
    );
    let sp_unattributed: Vec<f64> = (0..len)
        .map(|i| sp_total[i] - sp_parse[i] - sp_cp[i] - sp_dp[i] - sp_publish[i])
        .collect();
    let (subs_events, subs_suppressed) = traced.subs.ok_or("traced slice has no counters")?;

    let ack_plain = median(&plain.ack_us);
    let ack_traced = median(&traced.ack_us);
    let dp_self = self_time(&r.core_apply, &r.cp_apply);
    let step_self = self_time(&r.core_step, &r.core_apply);
    let ingest_self = self_time(&r.ingest_plain, &r.core_step);
    let publish = self_time(&r.ingest_view, &r.ingest_plain);
    let subs = self_time(&r.ingest_subs, &r.ingest_plain);
    let handle = median(&r.handle);
    // Rungs below `handle_artifact` (which runs without view or subs).
    let ladder_sum =
        median(&r.parse_trace) + median(&r.cp_apply) + dp_self + step_self + ingest_self;
    let server_stages = median(&sp_parse) + median(&sp_cp) + median(&sp_dp) + median(&sp_publish);

    let mut values: Values = vec![
        ("io.parse_trace_us", median(&r.parse_trace)),
        ("io.parse_query_us", median(&q.parse_us)),
        ("io.write_response_us", median(&q.write_us)),
        ("io.ack_bytes", median(&r.ack_bytes)),
        ("io.reply_bytes", median(&q.reply_bytes)),
        ("cp.apply_us", median(&r.cp_apply)),
        ("cp.tuples", mean(&r.cp_tuples)),
        ("cp.nodes_skipped", mean(&r.cp_nodes_skipped)),
        ("cp.rib_delta", mean(&r.rib_delta)),
        ("cp.fib_delta", mean(&r.fib_delta)),
        ("cp.state_tuples", r.cp_state_tuples),
        ("core.apply_us", median(&r.core_apply)),
        ("core.dp_self_us", dp_self),
        ("core.step_us", median(&r.core_step)),
        ("core.step_self_us", step_self),
        ("core.view_us", median(&r.core_view)),
        ("dp.dirty_classes", mean(&r.dirty_classes)),
        ("dp.classes", r.classes),
        ("dp.pset_nodes", r.pset_nodes),
        ("core.flow_diffs", mean(&r.flow_diffs)),
        ("serve.ingest_us", median(&r.ingest_plain)),
        ("serve.ingest_self_us", ingest_self),
        ("serve.publish_us", publish),
        ("serve.subs_us", subs),
        ("subs.events", subs_events),
        ("subs.suppressed", subs_suppressed),
        ("serve.handle_us", handle),
        ("serve.transport_us", ack_plain - handle - publish - subs),
        (
            "ladder.closure_pct",
            (ladder_sum - handle).abs() / handle * 100.0,
        ),
        ("span.parse_us", median(&sp_parse)),
        ("span.cp_us", median(&sp_cp)),
        ("span.dp_us", median(&sp_dp)),
        ("span.publish_us", median(&sp_publish)),
        ("span.total_us", median(&sp_total)),
        ("span.unattributed_us", median(&sp_unattributed)),
        (
            "unattributed_pct",
            (ack_traced - server_stages) / ack_traced * 100.0,
        ),
        (
            "trace.overhead_pct",
            (ack_traced - ack_plain) / ack_plain * 100.0,
        ),
        ("obs.ack_delta_us", ack_plain - median(&no_obs.ack_us)),
    ];
    for (prefix, table) in [
        ("serve.view_answer_us.", &q.view_us),
        ("serve.session_answer_us.", &q.session_us),
    ] {
        for m in crate::metrics::PER_LAYER {
            if let Some(kind) = m.name.strip_prefix(prefix) {
                let samples = &table[kind];
                if samples.is_empty() {
                    return Err(format!("the query mix held no {kind} query"));
                }
                values.push((m.name, median(samples)));
            }
        }
    }

    let tcp_errors = plain.errors + traced.errors + no_obs.errors;
    let detail = obj([
        ("ladder_epochs", len.into()),
        ("queries", q.asked.into()),
        ("ack_p50_us_plain", ack_plain.into()),
        ("ack_p50_us_traced", ack_traced.into()),
        ("ack_p50_us_obs_disabled", median(&no_obs.ack_us).into()),
        ("ladder_sum_us", ladder_sum.into()),
        ("dp_time_reported_us", median(&r.dp_reported).into()),
        ("server_stage_sum_us", server_stages.into()),
        ("view_session_disagreements", q.disagreements.into()),
        ("tcp_error_replies", tcp_errors.into()),
        ("spans_written", trace.spans.len().into()),
    ]);
    Ok(crate::RunResult {
        values,
        attempted: 3 * len + q.asked,
        failed: tcp_errors + q.disagreements,
        overloaded: false,
        detail,
    })
}
