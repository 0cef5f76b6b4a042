//! Simulator telemetry: counters, activity profiles and trace export.
//!
//! The schedulers of [`crate::Simulator`] are instrumented with
//! lightweight counters that turn the simulator into a measuring
//! instrument: per-component evaluation counts and cumulative
//! evaluation time, per-settle delta-pass depth and wake-set sizes,
//! fallback causes of the lowered scheduler, and per-signal toggle
//! activity — the standard proxy for switching
//! power. Everything is gated on a [`TelemetryLevel`] carried as a
//! plain enum field: at [`TelemetryLevel::Off`] (the default) the hot
//! paths execute a single predicted-not-taken branch and touch no
//! counter memory, no clocks and no atomics.
//!
//! * [`TelemetryLevel::Counters`] — integer counters only. No clock
//!   reads; per-pass cost is a handful of increments proportional to
//!   activity.
//! * [`TelemetryLevel::Full`] — counters plus wall-clock spans
//!   (steps, settle passes, individual component evaluations),
//!   exportable as a Chrome trace-event JSON that loads in
//!   `chrome://tracing` and Perfetto.
//!
//! Snapshots are taken with [`crate::Simulator::stats`], which returns
//! a [`SimStats`]: a plain, serialisation-friendly struct with a
//! human-readable [`SimStats::report`] and a
//! [`SimStats::chrome_trace`] exporter.
//!
//! ## Cross-mode invariants
//!
//! Because every scheduling mode produces bit-identical signal traces,
//! the *settled toggle counts* ([`SignalStats::toggles`]) are
//! identical across `FullSweep` and `EventDriven`. `FullSweep`
//! evaluates every component in every pass by definition, so its eval
//! counts are the upper bound the event scheduler is measured against.
//!
//! [`crate::SchedMode::Lowered`] settles in a single rank walk, so it
//! has no delta passes to count per-pass activity against: each
//! lowered settle counts as one pass, toggles credit the *net*
//! per-settle value change (identical to the other modes except in
//! transient multi-pass oscillations that settle back to their
//! starting value), and eval/drive counts are lower by design — that
//! reduction is the mode's speedup, reported rather than hidden.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

/// How many passes of wake-set forensics are retained for
/// non-convergence diagnosis.
pub(crate) const WAKE_FORENSICS_DEPTH: usize = 4;

/// Soft cap on recorded trace events, so a long-running simulation at
/// [`TelemetryLevel::Full`] cannot grow without bound. Events beyond
/// the cap are dropped (and counted in [`SimStats::trace_dropped`]).
const TRACE_EVENT_CAP: usize = 1_000_000;

/// Why a settle (or a component's lowering, or a multi-rate step) left
/// the lowered scheduler's fast path.
///
/// Every fallback the lowered scheduler takes is counted under exactly
/// one of these causes — the typed,
/// aggregatable face of the free-text [`SimStats::notes`] strings,
/// which remain for human output. A service aggregating thousands of
/// jobs sums these counters per cause instead of string-matching
/// notes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackCause {
    /// The levelized plan was missing or stale, so the settle ran
    /// event-driven to (re)discover driver links before freezing a
    /// schedule. Every lowered-mode simulator pays at least one.
    Rebuild,
    /// A full re-evaluation was pending (reset, mode switch, device
    /// mutation), which the event scheduler handles.
    WakeAll,
    /// The design cannot be levelized (combinational cycle or
    /// [`crate::Sensitivity::Always`]); every settle permanently falls
    /// back to event-driven evaluation.
    NonLevelizable,
    /// A rank walk observed a `(signal, driver)` link the schedule was
    /// not built with; the settle re-ran event-driven and the schedule
    /// is rebuilt.
    StaleDriver,
    /// A component kept its interpreted `eval` on the lowered rank
    /// walk because its netlist shape cannot lower to a word-level op
    /// stream (counted once per component per lowering pass).
    LoweredComponent,
    /// A multi-rate step fired only a subset of the clock domains, so
    /// the lowered fast path surrendered its input memos (every lowered
    /// clocked unit is re-marked dirty even though its own domain may
    /// not have ticked) — the event-driven-shaped cost multiple clock
    /// domains impose on the lowered scheduler. Counted once per such
    /// step, not per settle.
    MultiDomain,
}

impl FallbackCause {
    /// Number of distinct causes (the length of [`FallbackCause::ALL`]).
    pub const COUNT: usize = 6;

    /// Every cause, in counter order.
    pub const ALL: [FallbackCause; FallbackCause::COUNT] = [
        FallbackCause::Rebuild,
        FallbackCause::WakeAll,
        FallbackCause::NonLevelizable,
        FallbackCause::StaleDriver,
        FallbackCause::LoweredComponent,
        FallbackCause::MultiDomain,
    ];

    /// Position of this cause in [`SimStats::fallback_causes`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FallbackCause::Rebuild => 0,
            FallbackCause::WakeAll => 1,
            FallbackCause::NonLevelizable => 2,
            FallbackCause::StaleDriver => 3,
            FallbackCause::LoweredComponent => 4,
            FallbackCause::MultiDomain => 5,
        }
    }

    /// Whether each count of this cause is one settle that fell back
    /// to the event scheduler. Exactly these causes sum to
    /// [`SimStats::fallback_settles`]; the others count components
    /// ([`FallbackCause::LoweredComponent`]) or steps
    /// ([`FallbackCause::MultiDomain`]).
    #[must_use]
    pub fn counts_settles(self) -> bool {
        match self {
            FallbackCause::Rebuild
            | FallbackCause::WakeAll
            | FallbackCause::NonLevelizable
            | FallbackCause::StaleDriver => true,
            FallbackCause::LoweredComponent | FallbackCause::MultiDomain => false,
        }
    }

    /// Stable snake_case label used in metrics and JSON documents.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FallbackCause::Rebuild => "rebuild",
            FallbackCause::WakeAll => "wake_all",
            FallbackCause::NonLevelizable => "non_levelizable",
            FallbackCause::StaleDriver => "stale_driver",
            FallbackCause::LoweredComponent => "lowered_component",
            FallbackCause::MultiDomain => "multi_domain",
        }
    }
}

/// Instrumentation level of a [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryLevel {
    /// No instrumentation: the hot paths pay one branch, nothing else.
    #[default]
    Off,
    /// Integer counters (evals, passes, wake sizes, toggles). No
    /// clock reads, no spans.
    Counters,
    /// Counters plus wall-clock timing and trace-event spans.
    Full,
}

impl TelemetryLevel {
    /// Whether any instrumentation is active.
    #[must_use]
    pub fn enabled(self) -> bool {
        self != TelemetryLevel::Off
    }

    /// Whether wall-clock spans are recorded.
    #[must_use]
    pub fn timed(self) -> bool {
        self == TelemetryLevel::Full
    }
}

/// One span in the recorded trace, in nanoseconds since the telemetry
/// epoch (the moment telemetry was enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (component instance, `cycle N`, `pass (N woken)`).
    pub name: String,
    /// Category: `step`, `pass` or `eval`.
    pub cat: &'static str,
    /// Start, nanoseconds since the telemetry epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Per-component counters in a [`SimStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentStats {
    /// The component's instance name.
    pub name: String,
    /// Number of `eval` calls.
    pub evals: u64,
    /// Number of settle passes that ran while this component was
    /// *not* evaluated — the event scheduler's savings over a sweep.
    pub skips: u64,
    /// Cumulative `eval` wall-clock time (0 below
    /// [`TelemetryLevel::Full`]).
    pub eval_ns: u64,
}

/// Per-signal activity counters in a [`SimStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalStats {
    /// The signal's name.
    pub name: String,
    /// Settled-value changes (one per delta pass in which the
    /// pass-final value differed from the pass-start value) — the
    /// switching-activity proxy. Bit-identical across scheduling
    /// modes.
    pub toggles: u64,
    /// Raw `drive` calls accepted by the bus (for the lowered walk,
    /// drives into its arena).
    pub drives: u64,
}

/// A telemetry snapshot of one [`crate::Simulator`].
///
/// Obtained from [`crate::Simulator::stats`]; all fields are plain
/// data. Empty (all zeros, empty vectors) when telemetry is
/// [`TelemetryLevel::Off`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// The level the counters were collected at.
    pub level: TelemetryLevel,
    /// Clock cycles executed ([`crate::Simulator::step`] calls).
    pub steps: u64,
    /// Settle invocations (two per step, plus explicit `settle`s).
    pub settles: u64,
    /// Total delta passes across all settles.
    pub passes: u64,
    /// Largest number of delta passes any single settle needed —
    /// convergence depth.
    pub max_passes: u64,
    /// Sum of wake-set sizes over all passes (components evaluated).
    pub total_wake: u64,
    /// Largest single-pass wake set.
    pub max_wake: u64,
    /// Per-component counters, in registration order.
    pub components: Vec<ComponentStats>,
    /// Per-signal activity, in declaration order.
    pub signals: Vec<SignalStats>,
    /// Lowered-mode settles that fell back to the event scheduler
    /// (build/validation settles, pending full re-evaluations,
    /// invalidated schedules, designs that cannot be levelized).
    pub fallback_settles: u64,
    /// Fallback events by typed cause, indexed by
    /// [`FallbackCause::index`]. The causes for which
    /// [`FallbackCause::counts_settles`] holds sum to
    /// [`SimStats::fallback_settles`]; the others count components
    /// ([`FallbackCause::LoweredComponent`]) or partial-firing steps
    /// ([`FallbackCause::MultiDomain`]), so they sit outside that sum.
    pub fallback_causes: [u64; FallbackCause::COUNT],
    /// Settles executed as a single rank walk with lowered op-stream
    /// execution ([`crate::SchedMode::Lowered`]).
    pub lowered_settles: u64,
    /// Word-level ops executed by lowered components across all
    /// lowered settles (memo-skipped walks contribute zero).
    pub ops_executed: u64,
    /// Levelized schedules installed from a cached [`crate::CompiledPlan`]
    /// ([`crate::Simulator::install_plan`]) instead of being levelized
    /// locally — the per-simulator face of a plan-cache hit.
    pub plan_installs: u64,
    /// Component count per levelized rank of the active schedule
    /// (index = rank; empty when no levelized schedule is active).
    pub compiled_ranks: Vec<u64>,
    /// One-line scheduler notes (fallback reasons, schedule
    /// invalidations), deduplicated.
    pub notes: Vec<String>,
    /// Component names of the last few wake sets, most recent last —
    /// forensics for [`crate::SimError::NoConvergence`]: on a
    /// non-converging settle these are the components still chasing
    /// each other.
    pub last_wake_sets: Vec<Vec<String>>,
    /// Recorded spans ([`TelemetryLevel::Full`] only).
    pub trace: Vec<TraceEvent>,
    /// Spans dropped after the recording cap was reached.
    pub trace_dropped: u64,
}

impl SimStats {
    /// Total component evaluations.
    #[must_use]
    pub fn total_evals(&self) -> u64 {
        self.components.iter().map(|c| c.evals).sum()
    }

    /// Total settled signal toggles — the design's switching activity.
    /// Bit-identical across all scheduling modes.
    #[must_use]
    pub fn total_toggles(&self) -> u64 {
        self.signals.iter().map(|s| s.toggles).sum()
    }

    /// Total accepted `drive` calls.
    #[must_use]
    pub fn total_drives(&self) -> u64 {
        self.signals.iter().map(|s| s.drives).sum()
    }

    /// The counter for one typed fallback cause.
    #[must_use]
    pub fn fallback_cause(&self, cause: FallbackCause) -> u64 {
        self.fallback_causes[cause.index()]
    }

    /// `(cause, count)` pairs in counter order, including zeros.
    pub fn fallback_cause_counts(&self) -> impl Iterator<Item = (FallbackCause, u64)> + '_ {
        FallbackCause::ALL
            .iter()
            .map(|&c| (c, self.fallback_causes[c.index()]))
    }

    /// Whether the snapshot carries no data (telemetry was off).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps == 0
            && self.settles == 0
            && self.passes == 0
            && self.components.is_empty()
            && self.signals.is_empty()
            && self.trace.is_empty()
    }

    /// Renders a human-readable report: totals, convergence depth,
    /// fallbacks, and the top components and signals by activity.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "simulator telemetry — level {:?}", self.level);
        if self.is_empty() {
            out.push_str("  (no data: telemetry is off)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "  steps {}  settles {}  delta passes {} (max {}/settle)",
            self.steps, self.settles, self.passes, self.max_passes
        );
        let mean_wake = if self.passes == 0 {
            0.0
        } else {
            self.total_wake as f64 / self.passes as f64
        };
        let _ = writeln!(
            out,
            "  evals {}  wake max {}  wake mean {mean_wake:.2}/pass  toggles {}  drives {}",
            self.total_evals(),
            self.max_wake,
            self.total_toggles(),
            self.total_drives(),
        );
        if self.lowered_settles > 0 || !self.compiled_ranks.is_empty() {
            let _ = writeln!(
                out,
                "  lowered: {} rank-walk settles, {} word ops executed, {} fallback settles, \
                 {} ranks (components per rank: {:?})",
                self.lowered_settles,
                self.ops_executed,
                self.fallback_settles,
                self.compiled_ranks.len(),
                self.compiled_ranks
            );
        }
        if self.fallback_causes.iter().any(|&n| n > 0) {
            let causes: Vec<String> = self
                .fallback_cause_counts()
                .filter(|&(_, n)| n > 0)
                .map(|(c, n)| format!("{} {n}", c.label()))
                .collect();
            let _ = writeln!(out, "  fallbacks by cause: {}", causes.join(", "));
        }
        if self.plan_installs > 0 {
            let _ = writeln!(
                out,
                "  lowered: {} schedule(s) installed from cached plans",
                self.plan_installs
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        let mut comps: Vec<&ComponentStats> = self.components.iter().collect();
        comps.sort_by(|a, b| b.evals.cmp(&a.evals).then_with(|| a.name.cmp(&b.name)));
        out.push_str("  components (by evals):\n");
        let _ = writeln!(
            out,
            "    {:<24} {:>10} {:>10} {:>12}",
            "name", "evals", "skips", "eval time"
        );
        for c in comps.iter().take(16) {
            let time = if c.eval_ns == 0 {
                "-".to_owned()
            } else {
                format!("{:.3} ms", c.eval_ns as f64 / 1e6)
            };
            let _ = writeln!(
                out,
                "    {:<24} {:>10} {:>10} {:>12}",
                c.name, c.evals, c.skips, time
            );
        }
        let mut sigs: Vec<&SignalStats> = self.signals.iter().filter(|s| s.drives > 0).collect();
        sigs.sort_by(|a, b| b.toggles.cmp(&a.toggles).then_with(|| a.name.cmp(&b.name)));
        out.push_str("  signals (by toggles):\n");
        let _ = writeln!(out, "    {:<24} {:>10} {:>10}", "name", "toggles", "drives");
        for s in sigs.iter().take(16) {
            let _ = writeln!(out, "    {:<24} {:>10} {:>10}", s.name, s.toggles, s.drives);
        }
        if !self.last_wake_sets.is_empty() {
            out.push_str("  last wake sets (oldest first):\n");
            for set in &self.last_wake_sets {
                let _ = writeln!(out, "    [{}]", set.join(", "));
            }
        }
        if !self.trace.is_empty() {
            let _ = writeln!(
                out,
                "  trace: {} spans recorded ({} dropped)",
                self.trace.len(),
                self.trace_dropped
            );
        }
        out
    }

    /// Renders the recorded spans as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}` object format), loadable in
    /// `chrome://tracing` and Perfetto. Timestamps are microseconds
    /// since the telemetry epoch.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 + self.trace.len() * 96);
        out.push_str("{\"traceEvents\":[\n");
        for (i, ev) in self.trace.iter().enumerate() {
            let sep = if i + 1 == self.trace.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3}}}{sep}",
                json_string(&ev.name),
                ev.cat,
                ev.ts_ns as f64 / 1e3,
                ev.dur_ns as f64 / 1e3,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Escapes a string as a JSON string literal (quotes included).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The live counter state owned by a [`crate::Simulator`].
///
/// All mutation is behind [`TelemetryLevel`] checks so the `Off` path
/// costs one branch.
#[derive(Debug, Default)]
pub(crate) struct Telemetry {
    pub(crate) level: TelemetryLevel,
    /// Time origin for spans; set when telemetry is enabled.
    epoch: Option<Instant>,
    pub(crate) steps: u64,
    pub(crate) settles: u64,
    pub(crate) passes: u64,
    pub(crate) max_passes: u64,
    pub(crate) total_wake: u64,
    pub(crate) max_wake: u64,
    pub(crate) comp_evals: Vec<u64>,
    pub(crate) comp_ns: Vec<u64>,
    pub(crate) fallback_settles: u64,
    pub(crate) fallback_causes: [u64; FallbackCause::COUNT],
    pub(crate) lowered_settles: u64,
    pub(crate) ops_executed: u64,
    pub(crate) plan_installs: u64,
    /// Deduplicated one-line scheduler notes (fallbacks,
    /// invalidations) surfaced in [`SimStats::notes`].
    pub(crate) notes: Vec<String>,
    /// Ring of the last few wake sets (component indices).
    pub(crate) wake_ring: VecDeque<Vec<usize>>,
    pub(crate) trace: Vec<TraceEvent>,
    pub(crate) trace_dropped: u64,
}

impl Telemetry {
    /// Whether any counters are collected.
    #[inline]
    pub(crate) fn on(&self) -> bool {
        self.level.enabled()
    }

    /// Whether spans are recorded.
    #[inline]
    pub(crate) fn timed(&self) -> bool {
        self.level.timed()
    }

    /// Switches the level, (re)arming the epoch when turning on.
    pub(crate) fn set_level(&mut self, level: TelemetryLevel) {
        self.level = level;
        if level.enabled() && self.epoch.is_none() {
            self.epoch = Some(Instant::now());
        }
    }

    /// Nanoseconds since the epoch (0 if telemetry never enabled).
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| {
            u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Grows the per-component counters to `n` components.
    pub(crate) fn ensure_components(&mut self, n: usize) {
        if self.comp_evals.len() < n {
            self.comp_evals.resize(n, 0);
            self.comp_ns.resize(n, 0);
        }
    }

    /// Records one component evaluation.
    #[inline]
    pub(crate) fn record_eval(&mut self, component: usize, dur_ns: u64) {
        self.comp_evals[component] += 1;
        self.comp_ns[component] += dur_ns;
    }

    /// Records one settle pass's wake-set size and forensics ring
    /// entry.
    pub(crate) fn record_pass(&mut self, wake: &[usize]) {
        self.passes += 1;
        let n = wake.len() as u64;
        self.total_wake += n;
        self.max_wake = self.max_wake.max(n);
        if self.wake_ring.len() == WAKE_FORENSICS_DEPTH {
            self.wake_ring.pop_front();
        }
        self.wake_ring.push_back(wake.to_vec());
    }

    /// Appends a span, honouring the recording cap.
    #[inline]
    pub(crate) fn push_span(&mut self, ev: TraceEvent) {
        if self.trace.len() < TRACE_EVENT_CAP {
            self.trace.push(ev);
        } else {
            self.trace_dropped += 1;
        }
    }

    /// Records one settle that fell back to the event scheduler,
    /// attributing it to a typed cause.
    #[inline]
    pub(crate) fn record_fallback_settle(&mut self, cause: FallbackCause) {
        self.fallback_settles += 1;
        self.fallback_causes[cause.index()] += 1;
    }

    /// Records a non-settle fallback event (e.g. one component kept
    /// interpreted evaluation on the lowered walk).
    #[inline]
    pub(crate) fn record_cause(&mut self, cause: FallbackCause) {
        self.fallback_causes[cause.index()] += 1;
    }

    /// Records a scheduler note, skipping exact duplicates so a
    /// recurring condition (e.g. a schedule invalidated every settle)
    /// produces one line, not thousands.
    pub(crate) fn note_once(&mut self, note: &str) {
        if !self.notes.iter().any(|n| n == note) {
            self.notes.push(note.to_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_is_default_and_disabled() {
        assert_eq!(TelemetryLevel::default(), TelemetryLevel::Off);
        assert!(!TelemetryLevel::Off.enabled());
        assert!(TelemetryLevel::Counters.enabled());
        assert!(!TelemetryLevel::Counters.timed());
        assert!(TelemetryLevel::Full.timed());
    }

    #[test]
    fn empty_stats_report_says_off() {
        let stats = SimStats::default();
        assert!(stats.is_empty());
        assert!(stats.report().contains("telemetry is off"));
        assert_eq!(stats.total_evals(), 0);
        assert_eq!(stats.total_toggles(), 0);
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let stats = SimStats {
            level: TelemetryLevel::Full,
            trace: vec![
                TraceEvent {
                    name: "step".into(),
                    cat: "step",
                    ts_ns: 1_000,
                    dur_ns: 2_500,
                },
                TraceEvent {
                    name: "u_fifo".into(),
                    cat: "eval",
                    ts_ns: 1_200,
                    dur_ns: 300,
                },
            ],
            ..SimStats::default()
        };
        let json = stats.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":0.300"));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "balanced braces");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn wake_ring_is_bounded() {
        let mut t = Telemetry::default();
        t.set_level(TelemetryLevel::Counters);
        for i in 0..10 {
            t.record_pass(&[i]);
        }
        assert_eq!(t.wake_ring.len(), WAKE_FORENSICS_DEPTH);
        assert_eq!(t.wake_ring.back().unwrap(), &vec![9]);
        assert_eq!(t.passes, 10);
    }

    #[test]
    fn report_lists_top_components_and_signals() {
        let stats = SimStats {
            level: TelemetryLevel::Counters,
            steps: 3,
            settles: 6,
            passes: 12,
            max_passes: 3,
            total_wake: 24,
            max_wake: 4,
            components: vec![
                ComponentStats {
                    name: "busy".into(),
                    evals: 10,
                    skips: 2,
                    eval_ns: 0,
                },
                ComponentStats {
                    name: "idle".into(),
                    evals: 1,
                    skips: 11,
                    eval_ns: 0,
                },
            ],
            signals: vec![SignalStats {
                name: "q".into(),
                toggles: 7,
                drives: 12,
            }],
            ..SimStats::default()
        };
        let report = stats.report();
        assert!(report.contains("busy"));
        assert!(report.contains("idle"));
        assert!(report.contains("q"));
        assert!(report.contains("delta passes 12"));
        let busy_pos = report.find("busy").unwrap();
        let idle_pos = report.find("idle").unwrap();
        assert!(busy_pos < idle_pos, "sorted by evals, busiest first");
    }
}
