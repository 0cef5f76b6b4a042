//! Per-job span tracing: the request-path timeline of one job.
//!
//! PR 3 gave the *simulator* a Chrome-trace exporter
//! ([`hdp_sim::SimStats::chrome_trace`]); this module gives the
//! *service* the same treatment. A [`SpanBuilder`] rides through
//! [`crate::Service::run_case`] stamping each stage boundary — cache
//! lookup, build, execute, publish, verify — and finishes into a
//! [`JobSpan`]: plain per-stage nanosecond data that renders as the
//! exact trace-event format the simulator uses, so a slow job's
//! server-side timeline loads in Perfetto next to its simulator
//! timeline.
//!
//! Stage timings are clock reads, so spans are only recorded when the
//! service samples ([`crate::metrics::ObsMode::Sampled`]) or the job
//! explicitly asks for its span (`options.span`). With sampling off
//! and no span requested, none of this module's code runs on the job
//! path.

use hdp_sim::{SimStats, TelemetryLevel, TraceEvent};
use std::time::Instant;

/// One stage of the service request path, in pipeline order.
///
/// `Queue` is recorded by the [server](crate::server) (accept →
/// worker pickup); `Parse` and `Render` by the [JSON
/// layer](crate::job); the rest by [`crate::Service::run_case`].
/// `Total` spans one whole `run_case` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Connection accepted → claimed by a worker thread.
    Queue,
    /// Wire document → [`hdp_conform::Case`] + options.
    Parse,
    /// Content-address hash plus the plan-cache lookup (lock held).
    CacheLookup,
    /// Metagen instantiation, netlist validation and simulator wiring
    /// (cold path; warm jobs only pay the template clone here).
    Build,
    /// The stimulus drive loop: pokes, settles, clock edges, trace
    /// capture.
    Execute,
    /// Plan export and cache publication after a cold run.
    Publish,
    /// The optional cache-free full-sweep verification re-run.
    Verify,
    /// Response JSON rendering.
    Render,
    /// The whole job execution (`run_case` entry to exit).
    Total,
}

impl Stage {
    /// Number of distinct stages.
    pub const COUNT: usize = 9;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Queue,
        Stage::Parse,
        Stage::CacheLookup,
        Stage::Build,
        Stage::Execute,
        Stage::Publish,
        Stage::Verify,
        Stage::Render,
        Stage::Total,
    ];

    /// Position of this stage in per-stage arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Stage::Queue => 0,
            Stage::Parse => 1,
            Stage::CacheLookup => 2,
            Stage::Build => 3,
            Stage::Execute => 4,
            Stage::Publish => 5,
            Stage::Verify => 6,
            Stage::Render => 7,
            Stage::Total => 8,
        }
    }

    /// Stable snake_case label used in metrics and JSON documents.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Parse => "parse",
            Stage::CacheLookup => "cache_lookup",
            Stage::Build => "build",
            Stage::Execute => "execute",
            Stage::Publish => "publish",
            Stage::Verify => "verify",
            Stage::Render => "render",
            Stage::Total => "total",
        }
    }
}

/// One recorded stage interval, relative to the span's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Which stage this interval covers.
    pub stage: Stage,
    /// Start, nanoseconds since the job span's epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// The finished server-side timeline of one job: plain data, ready to
/// render or aggregate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobSpan {
    /// Recorded stage intervals, in completion order (`Total` last).
    pub stages: Vec<StageSpan>,
}

impl JobSpan {
    /// Duration of one stage, if it was recorded.
    #[must_use]
    pub fn stage_ns(&self, stage: Stage) -> Option<u64> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.dur_ns)
    }

    /// Whole-job duration (the `Total` stage, or the latest stage end
    /// when `Total` was not recorded).
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.stage_ns(Stage::Total).unwrap_or_else(|| {
            self.stages
                .iter()
                .map(|s| s.ts_ns + s.dur_ns)
                .max()
                .unwrap_or(0)
        })
    }

    /// Renders the span as Chrome trace-event JSON — byte-compatible
    /// with [`hdp_sim::SimStats::chrome_trace`] (it *is* that
    /// exporter), so the server-side timeline opens in Perfetto /
    /// `chrome://tracing` exactly like a simulator profile.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let trace: Vec<TraceEvent> = self
            .stages
            .iter()
            .map(|s| TraceEvent {
                name: s.stage.label().to_owned(),
                cat: "service",
                ts_ns: s.ts_ns,
                dur_ns: s.dur_ns,
            })
            .collect();
        SimStats {
            level: TelemetryLevel::Full,
            trace,
            ..SimStats::default()
        }
        .chrome_trace()
    }
}

/// An opaque stage-start stamp handed out by [`SpanBuilder::mark`].
#[derive(Debug, Clone, Copy)]
pub struct SpanMark(Instant);

/// Accumulates stage intervals for one job.
#[derive(Debug)]
pub struct SpanBuilder {
    epoch: Instant,
    stages: Vec<StageSpan>,
}

impl Default for SpanBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanBuilder {
    /// A fresh span whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            stages: Vec::with_capacity(Stage::COUNT),
        }
    }

    /// Stamps the start of a stage.
    #[must_use]
    pub fn mark(&self) -> SpanMark {
        SpanMark(Instant::now())
    }

    /// Closes a stage opened with [`SpanBuilder::mark`].
    pub fn record(&mut self, stage: Stage, mark: SpanMark) {
        let ts_ns = ns_u64(mark.0.duration_since(self.epoch));
        let dur_ns = ns_u64(mark.0.elapsed());
        self.stages.push(StageSpan {
            stage,
            ts_ns,
            dur_ns,
        });
    }

    /// Finishes the span, appending a `Total` interval from the epoch
    /// to now.
    #[must_use]
    pub fn finish(mut self) -> JobSpan {
        let dur_ns = ns_u64(self.epoch.elapsed());
        self.stages.push(StageSpan {
            stage: Stage::Total,
            ts_ns: 0,
            dur_ns,
        });
        JobSpan {
            stages: self.stages,
        }
    }
}

/// Runs `f`, recording it under `stage` when a span is being built.
/// The `None` path is exactly `f()` — no clock reads.
pub fn timed<T>(span: &mut Option<SpanBuilder>, stage: Stage, f: impl FnOnce() -> T) -> T {
    match span {
        Some(builder) => {
            let mark = builder.mark();
            let result = f();
            builder.record(stage, mark);
            result
        }
        None => f(),
    }
}

fn ns_u64(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_labels_stable() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let labels: std::collections::HashSet<&str> =
            Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Stage::COUNT, "labels are unique");
    }

    #[test]
    fn span_builder_records_stages_and_total() {
        let mut builder = SpanBuilder::new();
        let mark = builder.mark();
        std::hint::black_box(0u64);
        builder.record(Stage::Execute, mark);
        let span = builder.finish();
        assert!(span.stage_ns(Stage::Execute).is_some());
        assert!(span.stage_ns(Stage::Build).is_none());
        let total = span.total_ns();
        assert!(total >= span.stage_ns(Stage::Execute).unwrap());
    }

    #[test]
    fn timed_records_only_when_building() {
        let mut none: Option<SpanBuilder> = None;
        assert_eq!(timed(&mut none, Stage::Build, || 7), 7);
        let mut some = Some(SpanBuilder::new());
        assert_eq!(timed(&mut some, Stage::Build, || 7), 7);
        let span = some.unwrap().finish();
        assert!(span.stage_ns(Stage::Build).is_some());
    }

    #[test]
    fn chrome_trace_is_the_sim_exporter_format() {
        let span = JobSpan {
            stages: vec![
                StageSpan {
                    stage: Stage::Execute,
                    ts_ns: 1_000,
                    dur_ns: 2_000,
                },
                StageSpan {
                    stage: Stage::Total,
                    ts_ns: 0,
                    dur_ns: 5_000,
                },
            ],
        };
        let json = span.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"cat\":\"service\""));
        assert!(json.contains("\"name\":\"execute\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
