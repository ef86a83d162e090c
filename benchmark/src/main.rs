//! Client-observed service benchmark of the real `dna serve` binary.
//!
//! ```text
//! servicebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! servicebench [--seed <n>] [--seconds <s>] [--smoke]      # all workloads, both modes
//! servicebench --selfcheck [--seed <n>] [--seconds <s>]    # end-to-end set twice
//! ```
//!
//! Run from the root of a checkout. See `benchmark/README.md`.

mod client;
mod gen;
mod json;
mod ladder;
mod metrics;
mod oracle;
mod run;
mod server;
mod stats;

use gen::Workload;
use json::{obj, Json};
use metrics::{Values, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;

/// The session name the server and the in-process reference share (it
/// appears in `stats` and `notify` bytes).
pub const SESSION: &str = "bench";
/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
pub const RUN_SECONDS: usize = 12;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        selfcheck: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The outcome of one run in either mode.
pub struct RunResult {
    pub values: Values,
    pub attempted: usize,
    pub failed: usize,
    /// An open loop that did not offer the load it claims (see README).
    pub overloaded: bool,
    /// Everything worth keeping beside the metric values.
    pub detail: Json,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn plan(args: &Args) -> run::Plan {
    if args.smoke {
        run::Plan {
            seconds: 1.0,
            cold_starts: 2,
        }
    } else {
        run::Plan {
            seconds: args.seconds,
            cold_starts: 5,
        }
    }
}

/// Compares what the server said with the in-process reference.
fn judge(obs: &run::Observed, reference: &oracle::Reference) -> (usize, usize, Vec<String>) {
    let mut notes = Vec::new();
    let mut failed = obs.error_replies;
    if obs.error_replies > 0 {
        notes.push(format!("{} error replies", obs.error_replies));
    }
    let mut checks = 0;
    let mut check = |what: &str, got: &str, want: &str| {
        checks += 1;
        if got != want {
            failed += 1;
            notes.push(format!("{what} differs from the reference"));
        }
    };
    check("warm-up report", &obs.warm_report, &reference.warm_report);
    if let Some(scratch) = &reference.scratch_report {
        check("warm-up report (from scratch)", &obs.warm_report, scratch);
    }
    check(
        "final stats",
        &oracle::strip_time_line(&obs.final_stats),
        &reference.stats,
    );
    check("final report", &obs.final_report, &reference.report);
    for (i, (got, want)) in obs
        .sample_answers
        .iter()
        .zip(&reference.answers)
        .enumerate()
    {
        check(&format!("sample query {i}"), got, want);
    }
    // push == poll, per subscription, in bytes.
    let mut pushed: std::collections::BTreeMap<u64, String> = reference
        .drains
        .keys()
        .map(|id| (*id, String::new()))
        .collect();
    for artifact in &obs.pushes {
        let dropped = oracle::resync_dropped(artifact) as usize;
        if dropped > 0 {
            failed += dropped;
            notes.push(format!("resync dropped {dropped} notifies"));
        }
        match oracle::subscription_id(artifact).and_then(|id| pushed.get_mut(&id)) {
            Some(stream) => stream.push_str(artifact),
            None => {
                failed += 1;
                notes.push("push for an unknown subscription".into());
            }
        }
    }
    for (id, want) in &reference.drains {
        if pushed[id] != *want {
            failed += 1;
            notes.push(format!(
                "pushed stream of subscription {id} differs from its poll drain"
            ));
        }
    }
    let attempted = obs.epochs_acked + obs.queries_sent + reference.events + checks;
    (attempted, failed, notes)
}

fn need(samples: Option<stats::Summary>, what: &str) -> Result<stats::Summary, String> {
    samples.ok_or_else(|| format!("the run produced no {what} samples"))
}

fn end_to_end(w: &Workload, seed: u64, plan: run::Plan, exe: &Path) -> Result<RunResult, String> {
    let inputs = gen::generate(w, seed, run::planned_epochs(w, plan.seconds));
    let sample = gen::oracle_sample(&inputs.tree, seed);
    let obs = run::run(w, &inputs, seed, plan, exe, &sample)?;
    let reference = oracle::reference(&inputs, obs.epochs_acked, &sample, w.name == "mix-ft6")?;
    let (attempted, failed, notes) = judge(&obs, &reference);

    let ack = need(stats::summarize(obs.ack_ms.clone(), 95.0), "ack")?;
    let query = need(stats::summarize(obs.query_us.clone(), 95.0), "query")?;
    let notify = need(
        stats::summarize(obs.notify_ms.iter().map(|(_, v)| *v).collect(), 90.0),
        "notify",
    )?;
    let values: Values = vec![
        ("setup_s", stats::median(&obs.setup_s)),
        ("ack_iqm_ms", ack.iqm),
        ("ack_p95_ms", ack.tail),
        ("epochs_per_s", ack.n as f64 / obs.ingest_secs),
        ("query_iqm_us", query.iqm),
        ("query_p95_us", query.tail),
        (
            "query_per_s",
            (query.n * run::QUERY_BURST) as f64 / obs.query_secs,
        ),
        ("notify_iqm_ms", notify.iqm),
        ("notify_p90_ms", notify.tail),
        ("rss_peak_mb", obs.rss_peak_mb),
    ];
    // Per change kind: the workloads are mixtures, and a change to one
    // layer moves some kinds only.
    let by_kind = |samples: &mut dyn Iterator<Item = (usize, f64)>, tail: f64| {
        let mut kinds: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for (epoch, value) in samples {
            let label = inputs.epochs[epoch].label.as_deref().unwrap_or("-");
            kinds.entry(label).or_default().push(value);
        }
        Json::Obj(
            kinds
                .into_iter()
                .filter_map(|(kind, samples)| {
                    let s = stats::summarize(samples, tail)?;
                    let row = obj([
                        ("n", s.n.into()),
                        ("p50", s.p50.into()),
                        ("tail", s.tail.into()),
                    ]);
                    Some((kind.to_string(), row))
                })
                .collect(),
        )
    };
    let ack_by_kind = by_kind(
        &mut obs
            .ack_ms
            .iter()
            .enumerate()
            .map(|(i, v)| (run::WARMUP_EPOCHS + i, *v)),
        95.0,
    );
    let notify_by_kind = by_kind(&mut obs.notify_ms.iter().copied(), 90.0);
    // Ack latency over ten consecutive slices of the ingest window: flat
    // when the trace is stationary and no backlog builds.
    let ack_by_tenth = Json::Arr(
        obs.ack_ms
            .chunks(obs.ack_ms.len().div_ceil(10).max(1))
            .map(|c| stats::interquartile_mean(&stats::sorted(c.to_vec())).into())
            .collect(),
    );
    let gen_late_p95 = stats::summarize(obs.gen_late_ms.clone(), 95.0).map_or(0.0, |s| s.tail);
    // An open loop whose generator ran late or whose backlog grew did
    // not offer the load it claims; the numbers stand but are flagged.
    let overloaded = gen_late_p95 > 1.0 || obs.backlog_at_end > 1;
    let detail = obj([
        ("ack_p50_ms", ack.p50.into()),
        ("query_p50_us", query.p50.into()),
        ("notify_p50_ms", notify.p50.into()),
        ("ack_samples", ack.n.into()),
        ("ack_p95_supported", ack.tail_supported.into()),
        ("query_bursts", query.n.into()),
        ("query_p95_supported", query.tail_supported.into()),
        ("notify_samples", notify.n.into()),
        ("notify_p90_supported", notify.tail_supported.into()),
        ("notify_events", reference.events.into()),
        ("epochs_acked", obs.epochs_acked.into()),
        ("ack_iqm_ms_by_tenth", ack_by_tenth),
        ("ack_ms_by_kind", ack_by_kind),
        ("notify_ms_by_kind", notify_by_kind),
        ("gen_late_p95_ms", gen_late_p95.into()),
        ("backlog_at_end", obs.backlog_at_end.into()),
        ("overloaded", overloaded.into()),
        ("server_cpu_user_s", obs.usage.user_s.into()),
        ("server_cpu_sys_s", obs.usage.sys_s.into()),
        ("server_minor_faults", obs.usage.minor_faults.into()),
        (
            "setup_s_all",
            Json::Arr(obs.setup_s.iter().map(|s| (*s).into()).collect()),
        ),
        (
            "mismatches",
            Json::Arr(notes.iter().map(|n| n.as_str().into()).collect()),
        ),
    ]);
    Ok(RunResult {
        values,
        attempted,
        failed,
        overloaded,
        detail,
    })
}

fn traced(w: &Workload, seed: u64, plan: run::Plan, exe: &Path) -> Result<RunResult, String> {
    let inputs = gen::generate(w, seed, run::planned_epochs(w, plan.seconds));
    ladder::run(w, &inputs, seed, plan, exe)
}

fn print_run(w: &Workload, seed: u64, trace: bool, table: &[metrics::Metric], r: &RunResult) {
    println!(
        "workload {} seed {seed} mode {} ({:?} ingest, reads {:?}, watch {:?}, {} threads available)",
        w.name,
        if trace { "per-layer" } else { "end-to-end" },
        w.ingest,
        w.reads,
        w.watch,
        threads_available(),
    );
    println!("  why: {}", w.why);
    for m in table {
        if let Some(v) = metrics::value_of(&r.values, m.name) {
            println!("  {:<36} {:>14.4} {}", m.name, v, m.unit);
        }
    }
    println!("  detail {}", r.detail.line());
}

fn run_one(
    w: &Workload,
    seed: u64,
    trace: bool,
    plan: run::Plan,
    exe: &Path,
) -> Result<RunResult, String> {
    let r = if trace {
        traced(w, seed, plan, exe)?
    } else {
        end_to_end(w, seed, plan, exe)?
    };
    print_run(
        w,
        seed,
        trace,
        if trace { PER_LAYER } else { END_TO_END },
        &r,
    );
    Ok(r)
}

fn values_json(table: &[metrics::Metric], r: &RunResult, noise: Option<&Values>) -> Json {
    Json::Obj(
        table
            .iter()
            .filter_map(|m| {
                let v = metrics::value_of(&r.values, m.name)?;
                let mut fields = vec![
                    ("value".to_string(), Json::from(v)),
                    ("unit".to_string(), m.unit.into()),
                    ("better".to_string(), m.better.as_str().into()),
                ];
                if let Some(bound) = m.bound {
                    fields.push(("bound".to_string(), bound.into()));
                }
                if let Some(n) = noise.and_then(|ns| metrics::value_of(ns, m.name)) {
                    fields.push(("noise".to_string(), n.into()));
                }
                Some((m.name.to_string(), Json::Obj(fields)))
            })
            .collect(),
    )
}

fn write_results(
    file: &str,
    seed: u64,
    plan: run::Plan,
    workloads: Vec<(String, Json)>,
) -> Result<(), String> {
    let path = Path::new(server::RESULTS_DIR).join(file);
    let doc = obj([
        ("seed", (seed as usize).into()),
        ("seconds", plan.seconds.into()),
        ("cold_starts", plan.cold_starts.into()),
        ("threads_available", threads_available().into()),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::create_dir_all(server::RESULTS_DIR).map_err(|e| e.to_string())?;
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn workload_json(table: &[metrics::Metric], r: &RunResult, noise: Option<&Values>) -> Json {
    obj([
        ("correct", r.correct().into()),
        ("attempted", r.attempted.into()),
        ("failed", r.failed.into()),
        ("metrics", values_json(table, r, noise)),
        ("detail", r.detail.clone()),
    ])
}

/// All workloads, end-to-end then per-layer; writes `service.json` and
/// `layers.json`. Fails if any run is incorrect or overloaded.
fn suite(args: &Args, exe: &Path) -> Result<bool, String> {
    let plan = plan(args);
    let mut ok = true;
    for (trace, file, table) in [
        (false, "service.json", END_TO_END),
        (true, "layers.json", PER_LAYER),
    ] {
        let mut rows = Vec::new();
        for w in gen::WORKLOADS {
            let r = run_one(w, args.seed, trace, plan, exe)?;
            ok &= r.correct() && !r.overloaded;
            rows.push((w.name.to_string(), workload_json(table, &r, None)));
        }
        write_results(file, args.seed, plan, rows)?;
    }
    Ok(ok)
}

/// The end-to-end set twice back to back: prints each metric's relative
/// spread, stores it as `noise` in `service.json`, and fails when any
/// spread exceeds the metric's bound.
fn selfcheck(args: &Args, exe: &Path) -> Result<bool, String> {
    let plan = plan(args);
    let mut ok = true;
    let mut first = Vec::new();
    for w in gen::WORKLOADS {
        first.push(run_one(w, args.seed, false, plan, exe)?);
    }
    let mut rows = Vec::new();
    println!("selfcheck: relative spread between two back-to-back sets");
    for (w, a) in gen::WORKLOADS.iter().zip(&first) {
        let b = run_one(w, args.seed, false, plan, exe)?;
        ok &= a.correct() && b.correct() && !a.overloaded && !b.overloaded;
        let mut noise: Values = Vec::new();
        for m in END_TO_END {
            let find = |r: &RunResult| metrics::value_of(&r.values, m.name);
            let (Some(x), Some(y)) = (find(a), find(&b)) else {
                continue;
            };
            let spread = stats::rel_spread(x, y);
            let bound = m.bound.unwrap_or(f64::INFINITY);
            let verdict = if spread <= bound { "ok" } else { "OVER" };
            ok &= spread <= bound;
            println!(
                "  {:<16} {:<14} {:>12.4} {:>12.4}  spread {:>6.2}%  bound {:>5.1}%  {verdict}",
                w.name,
                m.name,
                x,
                y,
                spread * 100.0,
                bound * 100.0
            );
            noise.push((m.name, spread));
        }
        rows.push((
            w.name.to_string(),
            workload_json(END_TO_END, a, Some(&noise)),
        ));
    }
    write_results("service.json", args.seed, plan, rows)?;
    Ok(ok)
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let exe = server::build_dna()?;
    if args.selfcheck {
        let ok = selfcheck(&args, &exe)?;
        println!("selfcheck: {}", if ok { "within bounds" } else { "FAILED" });
        return Ok(exit_code(ok));
    }
    let Some(name) = &args.workload else {
        return Ok(exit_code(suite(&args, &exe)?));
    };
    let w = gen::workload(name).ok_or_else(|| {
        let known: Vec<&str> = gen::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let r = run_one(w, args.seed, args.trace, plan(&args), &exe)?;
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    // The result line is the last thing on stdout.
    println!(
        "{}",
        metrics::result_line(table, &r.values, r.correct(), r.attempted, r.failed)?
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servicebench: {e}");
            ExitCode::FAILURE
        }
    }
}
