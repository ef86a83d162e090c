//! The metric tables: every name the benchmark reports, with its unit
//! and direction, and for end-to-end metrics the share of the parent's
//! median by which a later change may worsen it. `BENCHMARK.json` is
//! this table written out (a test keeps the two equal).

use crate::json::{obj, Json};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound; end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a client of `dna serve` sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ack_iqm_ms", "ms", Lower, 0.25),
    e2e("ack_p95_ms", "ms", Lower, 0.25),
    e2e("epochs_per_s", "1/s", Higher, 0.25),
    e2e("query_iqm_us", "us", Lower, 0.25),
    e2e("query_p95_us", "us", Lower, 0.25),
    e2e("query_per_s", "1/s", Higher, 0.25),
    e2e("notify_iqm_ms", "ms", Lower, 0.25),
    e2e("notify_p90_ms", "ms", Lower, 0.25),
    e2e("rss_peak_mb", "MiB", Lower, 0.1),
];

/// The layer ladder, bottom rung first (see `ladder.rs`).
pub const PER_LAYER: &[Metric] = &[
    // dna-io
    layer("io.parse_trace_us", "us", Lower),
    layer("io.parse_query_us", "us", Lower),
    layer("io.write_response_us", "us", Lower),
    layer("io.ack_bytes", "B", Lower),
    layer("io.reply_bytes", "B", Lower),
    // control-plane (+ ddflow)
    layer("cp.apply_us", "us", Lower),
    layer("cp.tuples", "count", Lower),
    layer("cp.nodes_skipped", "count", Higher),
    layer("cp.rib_delta", "count", Lower),
    layer("cp.fib_delta", "count", Lower),
    layer("cp.state_tuples", "count", Lower),
    // dna-core / data-plane
    layer("core.apply_us", "us", Lower),
    layer("core.dp_self_us", "us", Lower),
    layer("core.step_us", "us", Lower),
    layer("core.step_self_us", "us", Lower),
    layer("core.view_us", "us", Lower),
    layer("dp.dirty_classes", "count", Lower),
    layer("dp.classes", "count", Lower),
    layer("dp.pset_nodes", "count", Lower),
    layer("core.flow_diffs", "count", Lower),
    // dna-serve
    layer("serve.ingest_us", "us", Lower),
    layer("serve.ingest_self_us", "us", Lower),
    layer("serve.publish_us", "us", Lower),
    layer("serve.subs_us", "us", Lower),
    layer("subs.events", "count", Lower),
    layer("subs.suppressed", "count", Higher),
    layer("serve.handle_us", "us", Lower),
    layer("serve.view_answer_us.reach", "us", Lower),
    layer("serve.view_answer_us.reach-pair", "us", Lower),
    layer("serve.view_answer_us.blast", "us", Lower),
    layer("serve.view_answer_us.report", "us", Lower),
    layer("serve.view_answer_us.stats", "us", Lower),
    layer("serve.session_answer_us.reach", "us", Lower),
    layer("serve.session_answer_us.reach-pair", "us", Lower),
    layer("serve.session_answer_us.blast", "us", Lower),
    layer("serve.session_answer_us.report", "us", Lower),
    layer("serve.session_answer_us.stats", "us", Lower),
    layer("serve.transport_us", "us", Lower),
    layer("ladder.closure_pct", "%", Lower),
    // dna-obs, read back through the public `trace` / `metrics` queries
    layer("span.parse_us", "us", Lower),
    layer("span.cp_us", "us", Lower),
    layer("span.dp_us", "us", Lower),
    layer("span.publish_us", "us", Lower),
    layer("span.total_us", "us", Lower),
    layer("span.unattributed_us", "us", Lower),
    layer("unattributed_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("obs.ack_delta_us", "us", Lower),
];

/// Measured values keyed by metric name, in table order.
pub type Values = Vec<(&'static str, f64)>;

pub fn value_of(values: &Values, name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the last holding every metric of `table`.
pub fn result_line(
    table: &[Metric],
    values: &Values,
    correct: bool,
    attempted: usize,
    failed: usize,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for m in table {
        let value = value_of(values, m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", m.name));
        }
        metrics.push((
            m.name.to_string(),
            obj([("value", value.into()), ("unit", m.unit.into())]),
        ));
    }
    Ok(obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
    .line())
}

/// `BENCHMARK.json`, generated from the tables and the workload list.
#[cfg(test)]
pub fn manifest(run_seconds: usize) -> Json {
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name".to_string(), Json::from(m.name)),
            ("unit".to_string(), m.unit.into()),
            ("better".to_string(), m.better.as_str().into()),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound".to_string(), bound.into()));
        }
        Json::Obj(fields)
    };
    obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::from)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec!["benchmark".into()])),
        ("run_seconds", run_seconds.into()),
        (
            "workloads",
            Json::Arr(
                crate::gen::WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse::parse;

    /// The checked-in manifest is the table, nothing else.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let expected = manifest(crate::RUN_SECONDS);
        assert!(
            parse(&on_disk).expect("BENCHMARK.json parses") == expected,
            "BENCHMARK.json is stale; it should read:\n{}",
            expected.pretty()
        );
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(crate::gen::WORKLOADS.iter().map(|w| w.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!names[..i].contains(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((2..=8).contains(&crate::gen::WORKLOADS.len()));
        assert!(crate::gen::WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(manifest(crate::RUN_SECONDS).pretty().len() <= 64 * 1024);
    }

    #[test]
    fn result_line_carries_exactly_the_contract_keys() {
        let values: Values = END_TO_END.iter().map(|m| (m.name, 1.25)).collect();
        let line = result_line(END_TO_END, &values, true, 10, 0).unwrap();
        assert!(!line.contains('\n'));
        let Json::Obj(fields) = parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &fields[3].1 else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics[0].1,
            obj([("value", 1.25.into()), ("unit", "s".into())])
        );
        let missing: Values = values[1..].to_vec();
        assert!(result_line(END_TO_END, &missing, true, 10, 0).is_err());
    }
}
