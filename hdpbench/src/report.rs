//! The metric table and the run document.
//!
//! Every run writes one `hdpbench-run-v1` document, reads it back and
//! checks it against this module's schema before printing its `result`
//! object as the last line of standard output. The metric names and
//! units here are the ones `BENCHMARK.json` declares; a test keeps the
//! two in step.

use crate::json::Value;
use std::path::{Path, PathBuf};

/// Schema identifier of a run document.
pub const RUN_SCHEMA: &str = "hdpbench-run-v1";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["video", "jobs-warm", "jobs-cold"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("metagen.generate_ms", "ms"),
    ("metagen.instantiate_us", "us"),
    ("hdl.validate_us", "us"),
    ("synth.synthesize_ms", "ms"),
    ("synth.catalog_load_ms", "ms"),
    ("synth.select_us", "us"),
    ("sim.build_ms", "ms"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.dut_eval_ms", "ms"),
    ("sim.device_eval_ms", "ms"),
    ("sim.sched_other_ms", "ms"),
    ("sim.cycles", "count"),
    ("sim.settles", "count"),
    ("sim.evals", "count"),
    ("sim.ops_executed", "count"),
    ("sim.fallback_settles", "count"),
    ("wire.parse_us", "us"),
    ("service.lookup_us", "us"),
    ("service.build_us", "us"),
    ("service.execute_us", "us"),
    ("service.publish_us", "us"),
    ("service.render_us", "us"),
    ("service.stats_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.resident_mb", "MiB"),
    ("server.transport_us", "us"),
    ("traced.ops_per_s", "1/s"),
];

/// The metric table a run prints: end-to-end untraced, per-layer traced.
#[must_use]
pub fn metric_table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The outcome of one run: operation accounting plus named values.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Every checked output matched its independent reference.
    pub correct: bool,
    /// Operations attempted (timed-region requests, frames' lines…).
    pub attempted: u64,
    /// Operations that returned an error or did not complete.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The `result` object: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, with the metrics of `table` in table order. A
    /// metric the run did not set is reported as 0 (a layer this
    /// workload never calls).
    #[must_use]
    pub fn to_value(&self, table: &[(&str, &str)]) -> Value {
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (
                    name.to_owned(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        #[allow(clippy::cast_precision_loss)]
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }
}

/// Identity of one run, stored beside its result.
#[derive(Debug, Clone)]
pub struct RunId {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested timed-region length.
    pub seconds: u64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// `std::thread::available_parallelism` on the host.
    pub host_threads: usize,
}

/// Renders the full run document.
#[must_use]
pub fn document(id: &RunId, result: &RunResult) -> Value {
    #[allow(clippy::cast_precision_loss)]
    Value::Obj(vec![
        ("schema".into(), Value::Str(RUN_SCHEMA.into())),
        ("workload".into(), Value::Str(id.workload.clone())),
        ("seed".into(), Value::Num(id.seed as f64)),
        ("seconds".into(), Value::Num(id.seconds as f64)),
        ("trace".into(), Value::Bool(id.trace)),
        ("host_threads".into(), Value::Num(id.host_threads as f64)),
        ("result".into(), result.to_value(metric_table(id.trace))),
    ])
}

/// Where a run's document goes under `dir`.
#[must_use]
pub fn document_path(dir: &Path, id: &RunId) -> PathBuf {
    dir.join(format!(
        "{}-seed{}-{}.json",
        id.workload,
        id.seed,
        if id.trace { "traced" } else { "untraced" }
    ))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .map(|pairs| pairs.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default()
}

/// Checks a run document against the schema: exact key sets, types,
/// a known workload, the metric table of its mode with matching units,
/// finite values, and `failed <= attempted` with `attempted >= 1`.
///
/// # Errors
///
/// Every violation found, one line each.
pub fn validate_document(doc: &Value) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let want = [
        "schema",
        "workload",
        "seed",
        "seconds",
        "trace",
        "host_threads",
        "result",
    ];
    if keys(doc) != want {
        errs.push(format!("document keys {:?}, want {want:?}", keys(doc)));
    }
    if doc.get("schema").and_then(Value::as_str) != Some(RUN_SCHEMA) {
        errs.push(format!("schema is not {RUN_SCHEMA}"));
    }
    if !doc
        .get("workload")
        .and_then(Value::as_str)
        .is_some_and(|w| WORKLOADS.contains(&w))
    {
        errs.push("workload is not one of the benchmark's workloads".into());
    }
    for key in ["seed", "seconds", "host_threads"] {
        if doc.get(key).and_then(Value::as_u64).is_none() {
            errs.push(format!("{key} is not a whole number"));
        }
    }
    let Some(trace) = doc.get("trace").and_then(Value::as_bool) else {
        errs.push("trace is not a boolean".into());
        return Err(errs);
    };
    match doc.get("result") {
        Some(result) => {
            if let Err(mut e) = validate_result(result, trace) {
                errs.append(&mut e);
            }
        }
        None => errs.push("result missing".into()),
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Checks the printed `result` object on its own.
///
/// # Errors
///
/// Every violation found, one line each.
pub fn validate_result(result: &Value, trace: bool) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let want = ["correct", "attempted", "failed", "metrics"];
    if keys(result) != want {
        errs.push(format!("result keys {:?}, want {want:?}", keys(result)));
    }
    if result.get("correct").and_then(Value::as_bool).is_none() {
        errs.push("result.correct is not a boolean".into());
    }
    let attempted = result.get("attempted").and_then(Value::as_u64);
    let failed = result.get("failed").and_then(Value::as_u64);
    match (attempted, failed) {
        (Some(a), Some(f)) if a >= 1 && f <= a => {}
        _ => errs.push(format!(
            "attempted/failed must be whole numbers with attempted >= 1 and failed <= attempted, got {attempted:?}/{failed:?}"
        )),
    }
    let table = metric_table(trace);
    let metrics = result.get("metrics");
    let names = metrics.map(keys).unwrap_or_default();
    let want_names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
    if names != want_names {
        errs.push(format!(
            "result.metrics names {names:?}, want {want_names:?}"
        ));
    }
    for &(name, unit) in table {
        let Some(m) = metrics.and_then(|m| m.get(name)) else {
            continue;
        };
        if keys(m) != ["value", "unit"] {
            errs.push(format!("metrics.{name} keys {:?}", keys(m)));
        }
        if m.get("unit").and_then(Value::as_str) != Some(unit) {
            errs.push(format!("metrics.{name}.unit is not `{unit}`"));
        }
        match m.get("value").and_then(Value::as_f64) {
            Some(v) if v.is_finite() && v >= 0.0 => {}
            other => errs.push(format!(
                "metrics.{name}.value {other:?} is not a finite number >= 0"
            )),
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Writes the document, reads it back from disk, validates what was
/// read and returns the `result` line to print.
///
/// # Errors
///
/// I/O failures, a document that does not read back identically, or
/// schema violations.
pub fn write_and_check(dir: &Path, id: &RunId, result: &RunResult) -> Result<String, String> {
    let doc = document(id, result);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = document_path(dir, id);
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let back = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if back != doc {
        return Err(format!("{} does not read back as written", path.display()));
    }
    validate_document(&back).map_err(|errs| format!("{}: {}", path.display(), errs.join("; ")))?;
    Ok(back
        .get("result")
        .expect("validated document has a result")
        .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(trace: bool) -> (RunId, RunResult) {
        let id = RunId {
            workload: "video".into(),
            seed: 3,
            seconds: 2,
            trace,
            host_threads: 2,
        };
        let mut r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            values: Vec::new(),
        };
        for (name, _) in metric_table(trace) {
            r.set(name, 1.25);
        }
        (id, r)
    }

    #[test]
    fn documents_validate_in_both_modes() {
        for trace in [false, true] {
            let (id, r) = sample(trace);
            validate_document(&document(&id, &r)).unwrap();
        }
    }

    #[test]
    fn schema_rejects_a_wrong_unit_a_missing_metric_and_bad_accounting() {
        let (id, r) = sample(false);
        let text = document(&id, &r).to_string();
        let bad_unit = text.replacen("\"unit\": \"s\"", "\"unit\": \"ms\"", 1);
        assert!(validate_document(&Value::parse(&bad_unit).unwrap()).is_err());
        let renamed = text.replacen("\"ops_per_s\"", "\"jobs_per_s\"", 1);
        assert!(validate_document(&Value::parse(&renamed).unwrap()).is_err());
        let mut over = r.clone();
        over.failed = 11;
        assert!(validate_document(&document(&id, &over)).is_err());
    }

    #[test]
    fn metric_table_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Value::parse(&text).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap().to_owned(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_owned(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
