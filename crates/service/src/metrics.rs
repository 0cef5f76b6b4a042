//! The service-wide metrics plane: monotonic counters, gauges and
//! fixed-bucket log2 latency histograms behind an atomics-only API.
//!
//! One [`MetricsRegistry`] lives inside every [`crate::Service`] and
//! is shared — lock-free — by all server workers and batch shards.
//! Three cost tiers, picked by [`ObsMode`]:
//!
//! * [`ObsMode::Disabled`] — nothing is recorded; the job path pays
//!   one predicted branch per would-be increment.
//! * [`ObsMode::Counters`] (the default) — monotonic counters only:
//!   a handful of relaxed atomic increments per job, **no clock
//!   reads**. This is the production fast path; the service bench
//!   gates its overhead below 5% (`obs_overhead_pct` in
//!   `BENCH_service.json`).
//! * [`ObsMode::Sampled`] — counters plus wall-clock stage timings:
//!   per-stage latency histograms, per-job [`crate::obs::JobSpan`]s,
//!   and per-job [`hdp_sim::SimStats`] absorption (jobs run at
//!   [`hdp_sim::TelemetryLevel::Counters`] so settle/op/fallback
//!   counters aggregate service-wide).
//!
//! Histograms use fixed log2 buckets (bucket *i* holds durations in
//! `[2^i, 2^(i+1))` ns), so p50/p90/p99 are derivable from the
//! snapshot with no dependencies and a bounded error of one octave.
//!
//! A [`MetricsSnapshot`] is the serialisable face: a versioned
//! [`METRICS_SCHEMA`] JSON document (the `stats` wire verb), a
//! Prometheus-style plain-text render ([`MetricsSnapshot::render_text`],
//! the `hdp-service metrics` CLI), and an invariant validator
//! ([`validate_snapshot`]) shared by the tests and the CI smoke job.

use crate::obs::Stage;
use hdp_conform::Json;
use hdp_sim::{FallbackCause, SchedMode, SimStats};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// The schema identifier of every metrics snapshot document.
pub const METRICS_SCHEMA: &str = "hdp-service-metrics-v1";

/// Log2 buckets per latency histogram. Bucket `i` holds durations in
/// `[2^i, 2^(i+1))` nanoseconds; the last bucket absorbs everything
/// above (`2^39` ns ≈ 9 minutes).
pub const HIST_BUCKETS: usize = 40;

/// Worker/shard slots tracked individually; higher indices fold into
/// the last slot.
pub const MAX_WORKER_SLOTS: usize = 64;

/// How much observability a [`crate::Service`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Record nothing.
    Disabled,
    /// Monotonic counters only — atomic increments, no clock reads.
    #[default]
    Counters,
    /// Counters plus stage timings, histograms, per-job spans and
    /// simulator-telemetry absorption.
    Sampled,
}

impl ObsMode {
    /// Whether any counters are recorded.
    #[must_use]
    pub fn enabled(self) -> bool {
        self != ObsMode::Disabled
    }

    /// Whether stage timings (clock reads) are recorded.
    #[must_use]
    pub fn sampled(self) -> bool {
        self == ObsMode::Sampled
    }

    /// Stable label used in snapshot documents.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ObsMode::Disabled => "disabled",
            ObsMode::Counters => "counters",
            ObsMode::Sampled => "sampled",
        }
    }

    /// Parses a CLI/label string (`disabled`/`off`, `counters`,
    /// `sampled`/`sample`).
    ///
    /// # Errors
    ///
    /// A message naming the accepted values.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "disabled" | "off" => Ok(ObsMode::Disabled),
            "counters" => Ok(ObsMode::Counters),
            "sampled" | "sample" => Ok(ObsMode::Sampled),
            other => Err(format!(
                "unknown obs mode `{other}` (expected off, counters or sample)"
            )),
        }
    }
}

/// Every monotonic counter the registry tracks. A dense enum (rather
/// than ad-hoc fields) so snapshots, renders and the
/// counter-of-counters overhead test all iterate one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Jobs that reached execution (exactly one cache lookup each).
    JobsTotal,
    /// Jobs that completed successfully.
    JobsOk,
    /// Jobs rejected before the cache lookup (bad family index).
    JobsRejected,
    /// Jobs that failed building the design.
    ErrorsBuild,
    /// Jobs that failed mid-simulation.
    ErrorsSim,
    /// Submissions that failed wire parsing (never became jobs).
    ErrorsWire,
    /// Jobs that installed a cached [`hdp_sim::CompiledPlan`].
    PlansInstalled,
    /// Jobs that requested a VCD waveform.
    JobsVcd,
    /// Jobs that requested cache-free verification.
    JobsVerify,
    /// Verification re-runs whose trace diverged (must stay 0).
    VerifyFailures,
    /// Jobs executed under [`SchedMode::Lowered`].
    ModeLowered,
    /// Jobs executed under [`SchedMode::EventDriven`].
    ModeEventDriven,
    /// Jobs executed under [`SchedMode::FullSweep`].
    ModeFullSweep,
    /// Simulator settles absorbed from per-job telemetry (sampled).
    SimSettles,
    /// Simulator delta passes absorbed from per-job telemetry.
    SimDeltaPasses,
    /// Lowered op-stream settles absorbed from per-job telemetry.
    SimLoweredSettles,
    /// Event-driven fallback settles absorbed from per-job telemetry.
    SimFallbackSettles,
    /// Word-level ops executed, absorbed from per-job telemetry.
    SimOpsExecuted,
    /// Plan installs observed by simulators (per-job telemetry).
    SimPlanInstalls,
    /// TCP connections accepted.
    ConnectionsTotal,
    /// `stats` verb requests served.
    StatsRequests,
    /// `select` verb requests received (including malformed ones).
    SelectRequests,
    /// `select` requests answered with a satisfying target.
    SelectHits,
    /// `select` requests answered with a structured no-target result.
    SelectNoTarget,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 24;

    /// Every counter, in table order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::JobsTotal,
        Counter::JobsOk,
        Counter::JobsRejected,
        Counter::ErrorsBuild,
        Counter::ErrorsSim,
        Counter::ErrorsWire,
        Counter::PlansInstalled,
        Counter::JobsVcd,
        Counter::JobsVerify,
        Counter::VerifyFailures,
        Counter::ModeLowered,
        Counter::ModeEventDriven,
        Counter::ModeFullSweep,
        Counter::SimSettles,
        Counter::SimDeltaPasses,
        Counter::SimLoweredSettles,
        Counter::SimFallbackSettles,
        Counter::SimOpsExecuted,
        Counter::SimPlanInstalls,
        Counter::ConnectionsTotal,
        Counter::StatsRequests,
        Counter::SelectRequests,
        Counter::SelectHits,
        Counter::SelectNoTarget,
    ];

    /// Stable snake_case name used in snapshot documents.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::JobsTotal => "jobs_total",
            Counter::JobsOk => "jobs_ok",
            Counter::JobsRejected => "jobs_rejected",
            Counter::ErrorsBuild => "errors_build",
            Counter::ErrorsSim => "errors_sim",
            Counter::ErrorsWire => "errors_wire",
            Counter::PlansInstalled => "plans_installed",
            Counter::JobsVcd => "jobs_vcd",
            Counter::JobsVerify => "jobs_verify",
            Counter::VerifyFailures => "verify_failures",
            Counter::ModeLowered => "mode_lowered",
            Counter::ModeEventDriven => "mode_event_driven",
            Counter::ModeFullSweep => "mode_full_sweep",
            Counter::SimSettles => "sim_settles",
            Counter::SimDeltaPasses => "sim_delta_passes",
            Counter::SimLoweredSettles => "sim_lowered_settles",
            Counter::SimFallbackSettles => "sim_fallback_settles",
            Counter::SimOpsExecuted => "sim_ops_executed",
            Counter::SimPlanInstalls => "sim_plan_installs",
            Counter::ConnectionsTotal => "connections_total",
            Counter::StatsRequests => "stats_requests",
            Counter::SelectRequests => "select_requests",
            Counter::SelectHits => "select_hits",
            Counter::SelectNoTarget => "select_no_target",
        }
    }

    /// The counter for one scheduler mode, named `mode_` followed by
    /// the mode's [`SchedMode::label`].
    #[must_use]
    pub fn for_mode(mode: SchedMode) -> Counter {
        match mode {
            SchedMode::Lowered => Counter::ModeLowered,
            SchedMode::EventDriven => Counter::ModeEventDriven,
            SchedMode::FullSweep => Counter::ModeFullSweep,
        }
    }
}

/// A fixed-bucket log2 latency histogram over relaxed atomics.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// The bucket index a duration falls into: `floor(log2(ns))`,
    /// clamped to the table.
    #[must_use]
    pub fn bucket_index(ns: u64) -> usize {
        (63 - ns.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    /// Exclusive upper bound of bucket `i` in nanoseconds
    /// (`u64::MAX` for the overflow bucket).
    #[must_use]
    pub fn bucket_bound(i: usize) -> u64 {
        if i + 1 >= HIST_BUCKETS {
            u64::MAX
        } else {
            1u64 << (i + 1)
        }
    }

    /// Records one duration.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// A plain-data copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of one [`LatencyHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sample count per log2 bucket (index = `floor(log2(ns))`).
    pub buckets: Vec<u64>,
    /// Sum of all recorded durations, nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Total recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The upper bound (ns) of the bucket containing the `q`-quantile
    /// sample (0 when the histogram is empty). Monotonic in `q`, so
    /// `quantile_ns(0.99) >= quantile_ns(0.5)` always holds.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return LatencyHistogram::bucket_bound(i);
            }
        }
        LatencyHistogram::bucket_bound(HIST_BUCKETS - 1)
    }

    /// Mean recorded duration in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count()).unwrap_or(0)
    }
}

/// Per-slot worker/shard activity in a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Cumulative busy wall-clock nanoseconds (0 below
    /// [`ObsMode::Sampled`]).
    pub busy_ns: u64,
    /// Items (connections for server workers, jobs for batch shards)
    /// processed.
    pub items: u64,
}

/// The live, shared metric state of one [`crate::Service`].
///
/// All mutation is relaxed atomics; `&self` everywhere. The mode is
/// fixed at construction, so the disabled/counters fast paths are a
/// plain branch on an immutable field.
#[derive(Debug)]
pub struct MetricsRegistry {
    mode: ObsMode,
    counters: [AtomicU64; Counter::COUNT],
    fallback_causes: [AtomicU64; FallbackCause::COUNT],
    stages: [LatencyHistogram; Stage::COUNT],
    queue_depth: AtomicU64,
    connections_active: AtomicU64,
    worker_busy_ns: [AtomicU64; MAX_WORKER_SLOTS],
    worker_items: [AtomicU64; MAX_WORKER_SLOTS],
    shard_busy_ns: [AtomicU64; MAX_WORKER_SLOTS],
    shard_items: [AtomicU64; MAX_WORKER_SLOTS],
}

impl MetricsRegistry {
    /// A registry recording at `mode`.
    #[must_use]
    pub fn new(mode: ObsMode) -> Self {
        Self {
            mode,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            fallback_causes: std::array::from_fn(|_| AtomicU64::new(0)),
            stages: std::array::from_fn(|_| LatencyHistogram::default()),
            queue_depth: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            worker_busy_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            worker_items: std::array::from_fn(|_| AtomicU64::new(0)),
            shard_busy_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            shard_items: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The recording mode fixed at construction.
    #[must_use]
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// Increments a counter by 1 (no-op when disabled).
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds to a counter (no-op when disabled).
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if self.mode.enabled() {
            self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of a counter.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Records one stage duration into its latency histogram. Callers
    /// only measure when [`ObsMode::sampled`] (or a job requested its
    /// span), so this records unconditionally unless disabled.
    pub fn record_stage_ns(&self, stage: Stage, ns: u64) {
        if self.mode.enabled() {
            self.stages[stage.index()].record(ns);
        }
    }

    /// Absorbs one job's simulator telemetry into the service-wide
    /// counters (sampled mode drives every job at
    /// [`hdp_sim::TelemetryLevel::Counters`] for exactly this).
    pub fn absorb_sim_stats(&self, stats: &SimStats) {
        if !self.mode.enabled() {
            return;
        }
        self.add(Counter::SimSettles, stats.settles);
        self.add(Counter::SimDeltaPasses, stats.passes);
        self.add(Counter::SimLoweredSettles, stats.lowered_settles);
        self.add(Counter::SimFallbackSettles, stats.fallback_settles);
        self.add(Counter::SimOpsExecuted, stats.ops_executed);
        self.add(Counter::SimPlanInstalls, stats.plan_installs);
        for (cause, n) in stats.fallback_cause_counts() {
            if n > 0 {
                self.fallback_causes[cause.index()].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// A connection was accepted and queued for a worker.
    pub fn connection_queued(&self) {
        if self.mode.enabled() {
            self.inc(Counter::ConnectionsTotal);
            self.queue_depth.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A worker claimed a queued connection; `wait_ns` is the queue
    /// wait when sampling measured it.
    pub fn connection_claimed(&self, wait_ns: Option<u64>) {
        if self.mode.enabled() {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            self.connections_active.fetch_add(1, Ordering::Relaxed);
            if let Some(ns) = wait_ns {
                self.stages[Stage::Queue.index()].record(ns);
            }
        }
    }

    /// A worker finished a connection.
    pub fn connection_closed(&self, worker: usize, busy_ns: Option<u64>) {
        if self.mode.enabled() {
            self.connections_active.fetch_sub(1, Ordering::Relaxed);
            let slot = worker.min(MAX_WORKER_SLOTS - 1);
            self.worker_items[slot].fetch_add(1, Ordering::Relaxed);
            if let Some(ns) = busy_ns {
                self.worker_busy_ns[slot].fetch_add(ns, Ordering::Relaxed);
            }
        }
    }

    /// A batch shard finished: `items` jobs over `busy_ns` of
    /// wall-clock (`busy_ns` 0 below sampled).
    pub fn record_shard(&self, shard: usize, busy_ns: u64, items: u64) {
        if self.mode.enabled() {
            let slot = shard.min(MAX_WORKER_SLOTS - 1);
            self.shard_busy_ns[slot].fetch_add(busy_ns, Ordering::Relaxed);
            self.shard_items[slot].fetch_add(items, Ordering::Relaxed);
        }
    }

    /// A plain-data copy of every counter, gauge and histogram.
    /// Cache-level fields are stitched in by
    /// [`crate::Service::metrics_snapshot`], which owns the cache.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = |busy: &[AtomicU64; MAX_WORKER_SLOTS],
                     items: &[AtomicU64; MAX_WORKER_SLOTS]| {
            let mut v: Vec<SlotSnapshot> = busy
                .iter()
                .zip(items)
                .map(|(b, i)| SlotSnapshot {
                    busy_ns: b.load(Ordering::Relaxed),
                    items: i.load(Ordering::Relaxed),
                })
                .collect();
            while v.last().is_some_and(|s| s.busy_ns == 0 && s.items == 0) {
                v.pop();
            }
            v
        };
        MetricsSnapshot {
            mode: self.mode.label().to_owned(),
            counters: Counter::ALL.iter().map(|&c| (c, self.get(c))).collect(),
            fallback_causes: FallbackCause::ALL
                .iter()
                .map(|&c| (c, self.fallback_causes[c.index()].load(Ordering::Relaxed)))
                .collect(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            cache: None,
            workers: slots(&self.worker_busy_ns, &self.worker_items),
            shards: slots(&self.shard_busy_ns, &self.shard_items),
            stages: Stage::ALL
                .iter()
                .map(|&s| (s, self.stages[s.index()].snapshot()))
                .collect(),
        }
    }

    /// Renders the current state as Prometheus-style plain text.
    #[must_use]
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// Cache-level fields of a snapshot (from
/// [`crate::PlanCache::stats`] plus the resident gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSection {
    /// Lookups that found a cached design.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// First-time insertions.
    pub insertions: u64,
    /// LRU evictions (cumulative — survives wraps).
    pub evictions: u64,
    /// Plans attached to already-cached designs.
    pub plan_attaches: u64,
    /// Estimated bytes ever inserted (cumulative).
    pub bytes_inserted: u64,
    /// Estimated bytes evicted (cumulative).
    pub bytes_evicted: u64,
    /// Estimated bytes currently resident (gauge).
    pub bytes_resident: u64,
    /// Designs currently cached (gauge).
    pub len: u64,
    /// Entry budget.
    pub capacity: u64,
}

/// A plain-data, serialisable snapshot of a service's metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The registry's [`ObsMode`] label.
    pub mode: String,
    /// Every monotonic counter, in table order.
    pub counters: Vec<(Counter, u64)>,
    /// Typed fallback-cause counters aggregated across jobs.
    pub fallback_causes: Vec<(FallbackCause, u64)>,
    /// Connections accepted but not yet claimed by a worker (gauge).
    pub queue_depth: u64,
    /// Connections currently being served (gauge).
    pub connections_active: u64,
    /// Cache counters and gauges (absent until stitched in by
    /// [`crate::Service::metrics_snapshot`]).
    pub cache: Option<CacheSection>,
    /// Per-server-worker activity.
    pub workers: Vec<SlotSnapshot>,
    /// Per-batch-shard activity.
    pub shards: Vec<SlotSnapshot>,
    /// Per-stage latency histograms, in [`Stage::ALL`] order.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of one counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == counter)
            .map_or(0, |(_, n)| *n)
    }

    /// The histogram of one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Option<&HistogramSnapshot> {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, h)| h)
    }

    /// Renders the versioned single-line JSON document served by the
    /// `stats` wire verb.
    #[must_use]
    pub fn to_json(&self) -> String {
        let obj = |pairs: Vec<(String, Json)>| Json::Obj(pairs);
        let counters = self
            .counters
            .iter()
            .map(|(c, n)| (c.name().to_owned(), Json::Num(*n)))
            .collect();
        let causes = self
            .fallback_causes
            .iter()
            .map(|(c, n)| (c.label().to_owned(), Json::Num(*n)))
            .collect();
        let slot_arr = |slots: &[SlotSnapshot]| {
            Json::Arr(
                slots
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("busy_ns".to_owned(), Json::Num(s.busy_ns)),
                            ("items".to_owned(), Json::Num(s.items)),
                        ])
                    })
                    .collect(),
            )
        };
        let histograms = Json::Obj(
            self.stages
                .iter()
                .map(|(stage, h)| {
                    let sparse: Vec<Json> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|&(_, &n)| n > 0)
                        .map(|(i, &n)| Json::Arr(vec![Json::Num(i as u64), Json::Num(n)]))
                        .collect();
                    (
                        stage.label().to_owned(),
                        obj(vec![
                            ("count".to_owned(), Json::Num(h.count())),
                            ("sum_ns".to_owned(), Json::Num(h.sum_ns)),
                            ("p50_ns".to_owned(), Json::Num(h.quantile_ns(0.50))),
                            ("p90_ns".to_owned(), Json::Num(h.quantile_ns(0.90))),
                            ("p99_ns".to_owned(), Json::Num(h.quantile_ns(0.99))),
                            ("buckets".to_owned(), Json::Arr(sparse)),
                        ]),
                    )
                })
                .collect(),
        );
        let mut fields = vec![
            ("schema".to_owned(), Json::Str(METRICS_SCHEMA.to_owned())),
            ("mode".to_owned(), Json::Str(self.mode.clone())),
            ("counters".to_owned(), Json::Obj(counters)),
            ("fallback_causes".to_owned(), Json::Obj(causes)),
            (
                "gauges".to_owned(),
                obj(vec![
                    ("queue_depth".to_owned(), Json::Num(self.queue_depth)),
                    (
                        "connections_active".to_owned(),
                        Json::Num(self.connections_active),
                    ),
                ]),
            ),
        ];
        if let Some(c) = &self.cache {
            fields.push((
                "cache".to_owned(),
                obj(vec![
                    ("hits".to_owned(), Json::Num(c.hits)),
                    ("misses".to_owned(), Json::Num(c.misses)),
                    ("insertions".to_owned(), Json::Num(c.insertions)),
                    ("evictions".to_owned(), Json::Num(c.evictions)),
                    ("plan_attaches".to_owned(), Json::Num(c.plan_attaches)),
                    ("bytes_inserted".to_owned(), Json::Num(c.bytes_inserted)),
                    ("bytes_evicted".to_owned(), Json::Num(c.bytes_evicted)),
                    ("bytes_resident".to_owned(), Json::Num(c.bytes_resident)),
                    ("len".to_owned(), Json::Num(c.len)),
                    ("capacity".to_owned(), Json::Num(c.capacity)),
                ]),
            ));
        }
        fields.push(("workers".to_owned(), slot_arr(&self.workers)));
        fields.push(("shards".to_owned(), slot_arr(&self.shards)));
        fields.push(("histograms".to_owned(), histograms));
        Json::Obj(fields).to_string()
    }

    /// Parses a snapshot document produced by
    /// [`MetricsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(METRICS_SCHEMA) {
            return Err(format!("not a {METRICS_SCHEMA} document"));
        }
        let num = |v: Option<&Json>, what: &str| {
            v.and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-numeric {what}"))
        };
        let counters_doc = doc.get("counters").ok_or("missing counters")?;
        let counters = Counter::ALL
            .iter()
            .map(|&c| num(counters_doc.get(c.name()), c.name()).map(|n| (c, n)))
            .collect::<Result<Vec<_>, _>>()?;
        let causes_doc = doc
            .get("fallback_causes")
            .ok_or("missing fallback_causes")?;
        let fallback_causes = FallbackCause::ALL
            .iter()
            .map(|&c| num(causes_doc.get(c.label()), c.label()).map(|n| (c, n)))
            .collect::<Result<Vec<_>, _>>()?;
        let gauges = doc.get("gauges").ok_or("missing gauges")?;
        let slots = |v: Option<&Json>| -> Result<Vec<SlotSnapshot>, String> {
            v.and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|s| {
                    Ok(SlotSnapshot {
                        busy_ns: num(s.get("busy_ns"), "slot busy_ns")?,
                        items: num(s.get("items"), "slot items")?,
                    })
                })
                .collect()
        };
        let hist_doc = doc.get("histograms").ok_or("missing histograms")?;
        let stages = Stage::ALL
            .iter()
            .map(|&stage| {
                let h = hist_doc
                    .get(stage.label())
                    .ok_or_else(|| format!("missing histogram {}", stage.label()))?;
                let mut buckets = vec![0u64; HIST_BUCKETS];
                for pair in h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
                    let pair = pair.as_arr().ok_or("bucket entry is not a pair")?;
                    let (i, n) = match pair {
                        [i, n] => (
                            num(Some(i), "bucket index")? as usize,
                            num(Some(n), "bucket count")?,
                        ),
                        _ => return Err("bucket entry is not a pair".to_owned()),
                    };
                    if i >= HIST_BUCKETS {
                        return Err(format!("bucket index {i} out of range"));
                    }
                    buckets[i] = n;
                }
                Ok((
                    stage,
                    HistogramSnapshot {
                        buckets,
                        sum_ns: num(h.get("sum_ns"), "sum_ns")?,
                    },
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let cache = match doc.get("cache") {
            None => None,
            Some(c) => Some(CacheSection {
                hits: num(c.get("hits"), "cache.hits")?,
                misses: num(c.get("misses"), "cache.misses")?,
                insertions: num(c.get("insertions"), "cache.insertions")?,
                evictions: num(c.get("evictions"), "cache.evictions")?,
                plan_attaches: num(c.get("plan_attaches"), "cache.plan_attaches")?,
                bytes_inserted: num(c.get("bytes_inserted"), "cache.bytes_inserted")?,
                bytes_evicted: num(c.get("bytes_evicted"), "cache.bytes_evicted")?,
                bytes_resident: num(c.get("bytes_resident"), "cache.bytes_resident")?,
                len: num(c.get("len"), "cache.len")?,
                capacity: num(c.get("capacity"), "cache.capacity")?,
            }),
        };
        Ok(MetricsSnapshot {
            mode: doc
                .get("mode")
                .and_then(Json::as_str)
                .ok_or("missing mode")?
                .to_owned(),
            counters,
            fallback_causes,
            queue_depth: num(gauges.get("queue_depth"), "queue_depth")?,
            connections_active: num(gauges.get("connections_active"), "connections_active")?,
            cache,
            workers: slots(doc.get("workers"))?,
            shards: slots(doc.get("shards"))?,
            stages,
        })
    }

    /// Renders the snapshot as Prometheus-style plain text
    /// (`# TYPE` comments, cumulative `_bucket{le=...}` histogram
    /// series).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# hdp-service metrics (mode {})", self.mode);
        for (c, n) in &self.counters {
            let _ = writeln!(out, "# TYPE hdp_service_{} counter", c.name());
            let _ = writeln!(out, "hdp_service_{} {n}", c.name());
        }
        out.push_str("# TYPE hdp_service_fallback_cause_total counter\n");
        for (c, n) in &self.fallback_causes {
            let _ = writeln!(
                out,
                "hdp_service_fallback_cause_total{{cause=\"{}\"}} {n}",
                c.label()
            );
        }
        out.push_str("# TYPE hdp_service_queue_depth gauge\n");
        let _ = writeln!(out, "hdp_service_queue_depth {}", self.queue_depth);
        out.push_str("# TYPE hdp_service_connections_active gauge\n");
        let _ = writeln!(
            out,
            "hdp_service_connections_active {}",
            self.connections_active
        );
        if let Some(c) = &self.cache {
            for (name, kind, value) in [
                ("cache_hits", "counter", c.hits),
                ("cache_misses", "counter", c.misses),
                ("cache_insertions", "counter", c.insertions),
                ("cache_evictions", "counter", c.evictions),
                ("cache_plan_attaches", "counter", c.plan_attaches),
                ("cache_bytes_inserted", "counter", c.bytes_inserted),
                ("cache_bytes_evicted", "counter", c.bytes_evicted),
                ("cache_bytes_resident", "gauge", c.bytes_resident),
                ("cache_entries", "gauge", c.len),
                ("cache_capacity", "gauge", c.capacity),
            ] {
                let _ = writeln!(out, "# TYPE hdp_service_{name} {kind}");
                let _ = writeln!(out, "hdp_service_{name} {value}");
            }
        }
        for (family, slots) in [("worker", &self.workers), ("shard", &self.shards)] {
            if slots.is_empty() {
                continue;
            }
            let _ = writeln!(out, "# TYPE hdp_service_{family}_busy_ns counter");
            let _ = writeln!(out, "# TYPE hdp_service_{family}_items counter");
            for (i, s) in slots.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "hdp_service_{family}_busy_ns{{{family}=\"{i}\"}} {}",
                    s.busy_ns
                );
                let _ = writeln!(
                    out,
                    "hdp_service_{family}_items{{{family}=\"{i}\"}} {}",
                    s.items
                );
            }
        }
        out.push_str("# TYPE hdp_service_stage_latency_ns histogram\n");
        for (stage, h) in &self.stages {
            if h.count() == 0 {
                continue;
            }
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let _ = writeln!(
                    out,
                    "hdp_service_stage_latency_ns_bucket{{stage=\"{}\",le=\"{}\"}} {cumulative}",
                    stage.label(),
                    LatencyHistogram::bucket_bound(i)
                );
            }
            let _ = writeln!(
                out,
                "hdp_service_stage_latency_ns_bucket{{stage=\"{}\",le=\"+Inf\"}} {cumulative}",
                stage.label()
            );
            let _ = writeln!(
                out,
                "hdp_service_stage_latency_ns_sum{{stage=\"{}\"}} {}",
                stage.label(),
                h.sum_ns
            );
            let _ = writeln!(
                out,
                "hdp_service_stage_latency_ns_count{{stage=\"{}\"}} {}",
                stage.label(),
                h.count()
            );
        }
        out
    }
}

/// Validates a snapshot document against the
/// [`METRICS_SCHEMA`] schema and its cross-counter invariants.
/// Returns a list of problems (empty = valid). Shared by the unit
/// tests, the integration suite and the CI `service-metrics-smoke`
/// job.
#[must_use]
pub fn validate_snapshot(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let snap = match MetricsSnapshot::from_json(doc) {
        Ok(snap) => snap,
        Err(e) => return vec![e],
    };
    let jobs = snap.counter(Counter::JobsTotal);
    if let Some(cache) = &snap.cache {
        if cache.hits + cache.misses != jobs {
            problems.push(format!(
                "cache hits {} + misses {} != jobs_total {jobs}",
                cache.hits, cache.misses
            ));
        }
        if cache.bytes_inserted < cache.bytes_evicted + cache.bytes_resident {
            problems.push(format!(
                "cache byte accounting: inserted {} < evicted {} + resident {}",
                cache.bytes_inserted, cache.bytes_evicted, cache.bytes_resident
            ));
        }
        if cache.len > cache.capacity {
            problems.push(format!(
                "cache len {} exceeds capacity {}",
                cache.len, cache.capacity
            ));
        }
    }
    let outcomes = snap.counter(Counter::JobsOk)
        + snap.counter(Counter::ErrorsBuild)
        + snap.counter(Counter::ErrorsSim);
    if outcomes != jobs {
        problems.push(format!(
            "job outcomes {outcomes} (ok + build errors + sim errors) != jobs_total {jobs}"
        ));
    }
    let by_mode: u64 = SchedMode::ALL
        .into_iter()
        .map(|m| snap.counter(Counter::for_mode(m)))
        .sum();
    if by_mode != jobs {
        problems.push(format!("jobs by mode {by_mode} != jobs_total {jobs}"));
    }
    if snap.counter(Counter::VerifyFailures) > 0 {
        problems.push("verify_failures is nonzero: cached execution diverged".to_owned());
    }
    // Select requests that were not malformed resolve to exactly one
    // of hit / no-target, so the two can never exceed the requests.
    let select_resolved = snap.counter(Counter::SelectHits) + snap.counter(Counter::SelectNoTarget);
    if select_resolved > snap.counter(Counter::SelectRequests) {
        problems.push(format!(
            "select hits {} + no-target {} exceed select_requests {}",
            snap.counter(Counter::SelectHits),
            snap.counter(Counter::SelectNoTarget),
            snap.counter(Counter::SelectRequests)
        ));
    }
    for (stage, h) in &snap.stages {
        let (p50, p99) = (h.quantile_ns(0.50), h.quantile_ns(0.99));
        if p99 < p50 {
            problems.push(format!("stage {} p99 {p99} < p50 {p50}", stage.label()));
        }
        let bucket_total: u64 = h.buckets.iter().sum();
        if bucket_total != h.count() {
            problems.push(format!("stage {} bucket sum mismatch", stage.label()));
        }
    }
    if snap.mode == ObsMode::Sampled.label() {
        if let Some(total) = snap.stage(Stage::Total) {
            if total.count() != jobs {
                problems.push(format!(
                    "sampled mode: total-stage histogram count {} != jobs_total {jobs}",
                    total.count()
                ));
            }
        }
        // Settle-counting causes reconcile with the absorbed simulator
        // counters; the others count components or steps.
        let settle_causes: u64 = snap
            .fallback_causes
            .iter()
            .filter(|(c, _)| c.counts_settles())
            .map(|(_, n)| n)
            .sum();
        if settle_causes != snap.counter(Counter::SimFallbackSettles) {
            problems.push(format!(
                "settle-shaped fallback causes {settle_causes} != sim_fallback_settles {}",
                snap.counter(Counter::SimFallbackSettles)
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 1);
        assert_eq!(LatencyHistogram::bucket_index(1024), 10);
        assert_eq!(
            LatencyHistogram::bucket_index(u64::MAX),
            HIST_BUCKETS - 1,
            "overflow clamps to the last bucket"
        );
    }

    #[test]
    fn histogram_quantiles_are_monotonic() {
        let h = LatencyHistogram::default();
        for ns in [10, 100, 1_000, 10_000, 100_000, 1_000_000] {
            h.record(ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        let p50 = snap.quantile_ns(0.50);
        let p90 = snap.quantile_ns(0.90);
        let p99 = snap.quantile_ns(0.99);
        assert!(p50 <= p90 && p90 <= p99, "p50 {p50} p90 {p90} p99 {p99}");
        assert!(snap.mean_ns() > 0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let snap = LatencyHistogram::default().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile_ns(0.99), 0);
        assert_eq!(snap.mean_ns(), 0);
    }

    #[test]
    fn counter_table_is_dense() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{} out of order", c.name());
        }
        let names: std::collections::HashSet<&str> =
            Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn mode_counters_are_named_by_mode_label() {
        for mode in SchedMode::ALL {
            assert_eq!(
                Counter::for_mode(mode).name(),
                format!("mode_{}", mode.label())
            );
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::new(ObsMode::Disabled);
        reg.inc(Counter::JobsTotal);
        reg.record_stage_ns(Stage::Execute, 1_000);
        reg.connection_queued();
        let snap = reg.snapshot();
        assert!(snap.counters.iter().all(|&(_, n)| n == 0));
        assert!(snap.stages.iter().all(|(_, h)| h.count() == 0));
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let reg = MetricsRegistry::new(ObsMode::Sampled);
        reg.inc(Counter::JobsTotal);
        reg.inc(Counter::JobsOk);
        reg.inc(Counter::ModeLowered);
        reg.record_stage_ns(Stage::Total, 5_000);
        reg.record_stage_ns(Stage::Execute, 3_000);
        reg.record_shard(0, 9_000, 1);
        let mut snap = reg.snapshot();
        snap.cache = Some(CacheSection {
            hits: 0,
            misses: 1,
            insertions: 1,
            bytes_inserted: 640,
            bytes_resident: 640,
            len: 1,
            capacity: 8,
            ..CacheSection::default()
        });
        let text = snap.to_json();
        assert!(!text.contains('\n'), "wire documents are single-line");
        let doc = Json::parse(&text).expect("snapshot parses");
        let back = MetricsSnapshot::from_json(&doc).expect("snapshot round-trips");
        assert_eq!(back, snap);
        assert_eq!(validate_snapshot(&doc), Vec::<String>::new());
    }

    #[test]
    fn validator_catches_reconciliation_breaks() {
        let reg = MetricsRegistry::new(ObsMode::Counters);
        reg.inc(Counter::JobsTotal); // no outcome, no mode, no cache lookup
        let mut snap = reg.snapshot();
        snap.cache = Some(CacheSection {
            capacity: 8,
            ..CacheSection::default()
        });
        let doc = Json::parse(&snap.to_json()).unwrap();
        let problems = validate_snapshot(&doc);
        assert!(
            problems.iter().any(|p| p.contains("jobs_total")),
            "unreconciled counters must be reported: {problems:?}"
        );
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let reg = MetricsRegistry::new(ObsMode::Sampled);
        reg.inc(Counter::JobsTotal);
        reg.record_stage_ns(Stage::Execute, 2_000);
        let text = reg.render_text();
        assert!(text.contains("# TYPE hdp_service_jobs_total counter"));
        assert!(text.contains("hdp_service_jobs_total 1"));
        assert!(
            text.contains("hdp_service_stage_latency_ns_bucket{stage=\"execute\",le=\"2048\"} 1")
        );
        assert!(text.contains("hdp_service_stage_latency_ns_count{stage=\"execute\"} 1"));
        assert!(text.contains("le=\"+Inf\"} 1"));
    }
}
