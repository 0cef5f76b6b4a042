//! The service's JSON request/response layer.
//!
//! A request is one `hdp-conform-repro-v1` document per line — the
//! exact format the conformance engine's reproducers use
//! ([`hdp_conform::wire`]) — optionally extended with an `options`
//! object the wire parser ignores:
//!
//! ```json
//! {"schema": "hdp-conform-repro-v1", "design": {…}, "stimulus": {…},
//!  "options": {"mode": "lowered", "vcd": false,
//!              "telemetry": false, "verify": false}}
//! ```
//!
//! | option      | values                                            | default   |
//! |-------------|---------------------------------------------------|-----------|
//! | `mode`      | `lowered`, `event_driven`, `full_sweep`           | `lowered` |
//! | `vcd`       | return a VCD waveform (disables plan reuse)       | `false`   |
//! | `telemetry` | return a telemetry summary                        | `false`   |
//! | `verify`    | re-run cache-free under full sweep and compare    | `false`   |
//! | `span`      | return the job's per-stage server-side timeline   | `false`   |
//!
//! Mode names are [`SchedMode::label`]s; any other string is refused
//! with a [`WireError`] on `options.mode`.
//!
//! Besides job submissions, the layer answers two control verbs:
//!
//! * `{"verb": "stats"}` returns the service's live
//!   [`hdp-service-metrics-v1`](crate::metrics::METRICS_SCHEMA)
//!   snapshot — counters, cache state and latency histograms — as a
//!   single-line document.
//! * `{"verb": "select", "constraints": {…}}` answers a §3.4
//!   implementation-selection query against the server's
//!   characterisation catalog ([`hdp_synth::CharDb`], installed via
//!   [`Service::set_catalog`](crate::exec::Service::set_catalog)):
//!   the cheapest recorded target satisfying the constraints, as an
//!   [`hdp-service-select-v1`](SELECT_SCHEMA) document wrapping
//!   [`hdp_synth::Selection`]. Control verbs never count as jobs.
//!
//! A response is one `hdp-service-result-v1` JSON document per line:
//! `design_hash`, `cache` (`"hit"`/`"miss"`), `plan_installed`, the
//! output `ports`, the per-cycle `trace` of bit-strings, and the
//! optional `telemetry` / `vcd` / `verified` sections. Failures
//! produce `{"schema": "hdp-service-result-v1", "error": {…}}` with
//! the failing `stage` (`wire`, `build` or `sim`).

use crate::exec::{JobOptions, JobOutcome, ServiceError};
use crate::metrics::Counter;
use crate::obs::Stage;
use hdp_conform::wire::{self, WireError};
use hdp_conform::{Case, Json};
use hdp_sim::{SchedMode, SimStats};
use hdp_synth::{auto_select, SelectConstraints, Selection};
use std::time::Instant;

/// The schema identifier of every response document.
pub const RESULT_SCHEMA: &str = "hdp-service-result-v1";

/// The schema identifier of every `select` verb response document.
pub const SELECT_SCHEMA: &str = "hdp-service-select-v1";

/// Parses one submission line: the wire case plus the service
/// options.
///
/// # Errors
///
/// [`WireError`] for a malformed document, an unknown mode string or
/// a non-boolean flag.
pub fn parse_job(text: &str) -> Result<(Case, JobOptions), WireError> {
    let case = wire::parse_case(text)?;
    let doc = Json::parse(text).map_err(|detail| WireError::Syntax { detail })?;
    let mut opts = JobOptions::default();
    if let Some(options) = doc.get("options") {
        if let Some(mode) = options.get("mode") {
            let label = mode.as_str();
            opts.mode = label
                .and_then(SchedMode::parse)
                .ok_or_else(|| WireError::Field {
                    path: "options.mode".into(),
                    detail: format!("unknown mode {label:?}"),
                })?;
        }
        for (key, slot) in [
            ("vcd", &mut opts.vcd as &mut bool),
            ("telemetry", &mut opts.telemetry),
            ("verify", &mut opts.verify),
            ("span", &mut opts.span),
        ] {
            if let Some(v) = options.get(key) {
                *slot = v.as_bool().ok_or_else(|| WireError::Field {
                    path: format!("options.{key}"),
                    detail: "not a boolean".into(),
                })?;
            }
        }
    }
    Ok((case, opts))
}

fn stats_to_json(stats: &SimStats) -> Json {
    Json::Obj(vec![
        ("steps".to_owned(), Json::Num(stats.steps)),
        ("settles".to_owned(), Json::Num(stats.settles)),
        ("delta_passes".to_owned(), Json::Num(stats.passes)),
        ("total_evals".to_owned(), Json::Num(stats.total_evals())),
        ("total_toggles".to_owned(), Json::Num(stats.total_toggles())),
        (
            "lowered_settles".to_owned(),
            Json::Num(stats.lowered_settles),
        ),
        ("ops_executed".to_owned(), Json::Num(stats.ops_executed)),
        (
            "fallback_settles".to_owned(),
            Json::Num(stats.fallback_settles),
        ),
        ("plan_installs".to_owned(), Json::Num(stats.plan_installs)),
        (
            "fallback_causes".to_owned(),
            Json::Obj(
                stats
                    .fallback_cause_counts()
                    .map(|(cause, n)| (cause.label().to_owned(), Json::Num(n)))
                    .collect(),
            ),
        ),
    ])
}

/// Renders a completed job as a response document.
#[must_use]
pub fn outcome_to_json(out: &JobOutcome) -> String {
    let mut fields = vec![
        ("schema".to_owned(), Json::Str(RESULT_SCHEMA.into())),
        ("design_hash".to_owned(), Json::Str(out.design_hash.clone())),
        ("label".to_owned(), Json::Str(out.label.clone())),
        (
            "cache".to_owned(),
            Json::Str(if out.cache_hit { "hit" } else { "miss" }.into()),
        ),
        ("plan_installed".to_owned(), Json::Bool(out.plan_installed)),
        ("cycles".to_owned(), Json::Num(out.cycles as u64)),
        (
            "ports".to_owned(),
            Json::Arr(
                out.ports
                    .iter()
                    .map(|(name, width)| {
                        Json::Obj(vec![
                            ("name".to_owned(), Json::Str(name.clone())),
                            ("width".to_owned(), Json::Num(*width as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "trace".to_owned(),
            Json::Arr(
                out.trace
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|v| Json::Str(v.clone())).collect()))
                    .collect(),
            ),
        ),
    ];
    if let Some(stats) = &out.stats {
        fields.push(("telemetry".to_owned(), stats_to_json(stats)));
    }
    if let Some(vcd) = &out.vcd {
        fields.push(("vcd".to_owned(), Json::Str(vcd.clone())));
    }
    if let Some(verified) = out.verified {
        fields.push(("verified".to_owned(), Json::Bool(verified)));
    }
    if let Some(span) = &out.span {
        fields.push((
            "span".to_owned(),
            Json::Obj(vec![
                ("total_ns".to_owned(), Json::Num(span.total_ns())),
                (
                    "stages".to_owned(),
                    Json::Arr(
                        span.stages
                            .iter()
                            .map(|s| {
                                Json::Obj(vec![
                                    ("stage".to_owned(), Json::Str(s.stage.label().into())),
                                    ("ts_ns".to_owned(), Json::Num(s.ts_ns)),
                                    ("dur_ns".to_owned(), Json::Num(s.dur_ns)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("chrome_trace".to_owned(), Json::Str(span.chrome_trace())),
            ]),
        ));
    }
    Json::Obj(fields).to_string()
}

/// Renders a failed job as a response document.
#[must_use]
pub fn error_to_json(err: &ServiceError) -> String {
    let stage = match err {
        ServiceError::Wire(_) => "wire",
        ServiceError::Build { .. } => "build",
        ServiceError::Sim { .. } => "sim",
    };
    Json::Obj(vec![
        ("schema".to_owned(), Json::Str(RESULT_SCHEMA.into())),
        (
            "error".to_owned(),
            Json::Obj(vec![
                ("stage".to_owned(), Json::Str(stage.into())),
                ("message".to_owned(), Json::Str(err.to_string())),
            ]),
        ),
    ])
    .to_string()
}

/// Runs one submission line end to end against a service: parse,
/// execute, render. Infallible by construction — failures render as
/// error documents. The `{"verb": "stats"}` control line answers
/// with the live metrics snapshot instead of running a job.
#[must_use]
pub fn handle_line(service: &crate::exec::Service, line: &str) -> String {
    if let Some(response) = handle_verb(service, line) {
        return response;
    }
    let metrics = service.metrics();
    let sampled = metrics.mode().sampled();
    let parse_started = sampled.then(Instant::now);
    let parsed = parse_job(line);
    if let Some(started) = parse_started {
        metrics.record_stage_ns(Stage::Parse, elapsed_ns(started));
    }
    match parsed {
        Ok((case, opts)) => match service.run_case(&case, &opts) {
            Ok(outcome) => {
                let render_started = sampled.then(Instant::now);
                let response = outcome_to_json(&outcome);
                if let Some(started) = render_started {
                    metrics.record_stage_ns(Stage::Render, elapsed_ns(started));
                }
                response
            }
            Err(e) => error_to_json(&e),
        },
        Err(e) => {
            metrics.inc(Counter::ErrorsWire);
            error_to_json(&ServiceError::Wire(e))
        }
    }
}

/// Answers a control verb (`{"verb": "stats"}` or
/// `{"verb": "select"}`), or `None` when the line is a job
/// submission. The substring pre-check keeps the job path free of a
/// second parse attempt.
fn handle_verb(service: &crate::exec::Service, line: &str) -> Option<String> {
    if !line.contains("\"verb\"") {
        return None;
    }
    let doc = Json::parse(line).ok()?;
    match doc.get("verb").and_then(Json::as_str)? {
        "stats" => {
            service.metrics().inc(Counter::StatsRequests);
            Some(service.metrics_snapshot().to_json())
        }
        "select" => Some(answer_select(service, &doc)),
        other => {
            service.metrics().inc(Counter::ErrorsWire);
            Some(error_to_json(&ServiceError::Wire(WireError::Field {
                path: "verb".into(),
                detail: format!("unknown verb {other:?}"),
            })))
        }
    }
}

/// Answers one `select` verb request: parse the constraints, run
/// [`auto_select`] against the installed catalog, wrap the
/// [`Selection`] in a [`SELECT_SCHEMA`] document. A request counts as
/// a hit or a no-target only when it actually reached the optimiser —
/// malformed constraints and a missing catalog render as error
/// documents and count as neither, so
/// `select_hits + select_no_target <= select_requests` always holds.
fn answer_select(service: &crate::exec::Service, doc: &Json) -> String {
    let metrics = service.metrics();
    metrics.inc(Counter::SelectRequests);
    let bad = |path: &str, detail: String| {
        metrics.inc(Counter::ErrorsWire);
        error_to_json(&ServiceError::Wire(WireError::Field {
            path: path.into(),
            detail,
        }))
    };
    let Some(constraints_doc) = doc.get("constraints") else {
        return bad("constraints", "missing constraints object".into());
    };
    let constraints = match SelectConstraints::from_json(constraints_doc) {
        Ok(c) => c,
        Err(detail) => return bad("constraints", detail),
    };
    let Some(catalog) = service.catalog() else {
        return bad(
            "verb",
            "no characterisation catalog installed (serve with --catalog FILE)".into(),
        );
    };
    let selection = auto_select(&catalog, &constraints);
    metrics.inc(match selection {
        Selection::Target { .. } => Counter::SelectHits,
        Selection::NoTarget(_) => Counter::SelectNoTarget,
    });
    Json::Obj(vec![
        ("schema".to_owned(), Json::Str(SELECT_SCHEMA.into())),
        ("catalog_points".to_owned(), Json::Num(catalog.len() as u64)),
        ("constraints".to_owned(), constraints.to_json()),
        ("result".to_owned(), selection.to_json()),
    ])
    .to_string()
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Service;
    use hdp_conform::Stimulus;
    use hdp_metagen::sampler::{sample_spec, sample_spec_in, FAMILIES};
    use hdp_synth::board::Xsb300e;
    use hdp_synth::{characterize_spec, CharDb};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn small_catalog() -> CharDb {
        let mut rng = StdRng::seed_from_u64(5);
        let board = Xsb300e::new();
        let mut db = CharDb::new();
        for family in 0..FAMILIES.len() {
            let spec = sample_spec_in(&mut rng, family);
            let record = characterize_spec(&spec, &board).unwrap();
            let _ = db.append(record);
        }
        db
    }

    fn job_line(seed: u64, cycles: usize, options: &str) -> String {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = sample_spec(&mut rng);
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, cycles, &mut rng);
        let doc = wire::job_to_json(&Case { spec, stimulus });
        if options.is_empty() {
            doc
        } else {
            format!(
                "{},\"options\":{}}}",
                doc.strip_suffix('}').unwrap(),
                options
            )
        }
    }

    #[test]
    fn parses_options() {
        let line = job_line(
            3,
            4,
            "{\"mode\":\"event_driven\",\"vcd\":true,\"verify\":true}",
        );
        let (_, opts) = parse_job(&line).unwrap();
        assert_eq!(opts.mode, SchedMode::EventDriven);
        assert!(opts.vcd);
        assert!(opts.verify);
        assert!(!opts.telemetry);
    }

    #[test]
    fn defaults_to_lowered_mode() {
        let line = job_line(3, 4, "");
        let (_, opts) = parse_job(&line).unwrap();
        assert_eq!(opts, JobOptions::default());
        assert_eq!(opts.mode, SchedMode::Lowered);
    }

    #[test]
    fn parses_lowered_mode() {
        let line = job_line(3, 4, "{\"mode\":\"lowered\"}");
        let (_, opts) = parse_job(&line).unwrap();
        assert_eq!(opts.mode, SchedMode::Lowered);
    }

    #[test]
    fn rejects_removed_and_unknown_modes() {
        for mode in ["\"parallel\"", "\"compiled\"", "\"warp\"", "7"] {
            let line = job_line(3, 4, &format!("{{\"mode\":{mode}}}"));
            assert!(
                matches!(
                    parse_job(&line),
                    Err(WireError::Field { ref path, .. }) if path == "options.mode"
                ),
                "mode {mode} must be refused on options.mode"
            );
        }
    }

    #[test]
    fn handle_line_round_trips_a_job() {
        let service = Service::new(4);
        let line = job_line(21, 6, "{\"telemetry\":true}");
        let cold = handle_line(&service, &line);
        let warm = handle_line(&service, &line);
        let cold_doc = Json::parse(&cold).unwrap();
        let warm_doc = Json::parse(&warm).unwrap();
        assert_eq!(
            cold_doc.get("schema").and_then(Json::as_str),
            Some(RESULT_SCHEMA)
        );
        assert_eq!(cold_doc.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(warm_doc.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(cold_doc.get("trace"), warm_doc.get("trace"));
        assert!(cold_doc.get("telemetry").is_some());
    }

    #[test]
    fn select_verb_answers_from_the_catalog() {
        let service = Service::new(4);
        service.set_catalog(Arc::new(small_catalog()));
        let hit = handle_line(
            &service,
            "{\"verb\":\"select\",\"constraints\":{\"kind\":\"queue\"}}",
        );
        let doc = Json::parse(&hit).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SELECT_SCHEMA)
        );
        let result = doc.get("result").unwrap();
        assert_eq!(result.get("selected"), Some(&Json::Bool(true)));
        assert_eq!(result.get("kind").and_then(Json::as_str), Some("queue"));

        // An unachievable clock gets a structured no-target answer,
        // not an error document.
        let miss = handle_line(
            &service,
            "{\"verb\":\"select\",\"constraints\":{\"kind\":\"queue\",\"min_clk_khz\":10000000000}}",
        );
        let miss_doc = Json::parse(&miss).unwrap();
        assert!(miss_doc.get("error").is_none());
        assert_eq!(
            miss_doc.get("result").and_then(|r| r.get("selected")),
            Some(&Json::Bool(false))
        );

        let m = service.metrics();
        assert_eq!(m.get(Counter::SelectRequests), 2);
        assert_eq!(m.get(Counter::SelectHits), 1);
        assert_eq!(m.get(Counter::SelectNoTarget), 1);
        assert_eq!(m.get(Counter::JobsTotal), 0, "control verbs are not jobs");
        let snap = Json::parse(&service.metrics_snapshot().to_json()).unwrap();
        let problems = crate::metrics::validate_snapshot(&snap);
        assert!(
            problems.is_empty(),
            "snapshot invariants broke: {problems:?}"
        );
    }

    #[test]
    fn select_without_a_catalog_or_constraints_is_a_wire_error() {
        let service = Service::new(4);
        for line in [
            // No catalog installed.
            "{\"verb\":\"select\",\"constraints\":{\"kind\":\"queue\"}}",
            // Missing constraints object.
            "{\"verb\":\"select\"}",
        ] {
            let response = handle_line(&service, line);
            let doc = Json::parse(&response).unwrap();
            assert_eq!(
                doc.get("error")
                    .and_then(|e| e.get("stage"))
                    .and_then(Json::as_str),
                Some("wire"),
                "line {line:?} must fail at the wire stage"
            );
        }
        let m = service.metrics();
        assert_eq!(m.get(Counter::SelectRequests), 2);
        assert_eq!(
            m.get(Counter::SelectHits) + m.get(Counter::SelectNoTarget),
            0,
            "requests that never reach the optimiser count as neither"
        );
    }

    #[test]
    fn handle_line_reports_errors_as_documents() {
        let service = Service::new(4);
        let response = handle_line(&service, "not json at all");
        let doc = Json::parse(&response).unwrap();
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("stage"))
                .and_then(Json::as_str),
            Some("wire")
        );
    }
}
