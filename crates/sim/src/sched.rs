//! The clocked delta-cycle scheduler.
//!
//! Three interchangeable scheduling strategies share one set of
//! semantics (see [`SchedMode`]):
//!
//! * **Event-driven** (default) — components declare the signals their
//!   `eval` reads ([`crate::Sensitivity`]); each delta pass evaluates
//!   only the components sensitive to a signal that changed in the
//!   previous pass. Clocked components are additionally woken once
//!   after every clock edge, everything after reset.
//! * **Full sweep** — every component is evaluated in every delta
//!   pass. Retained as the executable reference model: the other
//!   schedulers are required (and property-tested) to produce
//!   bit-identical signal traces.
//! * **Lowered** — after a validation settle, the design is frozen
//!   ahead of time: components are levelized into static ranks by
//!   combinational depth, signals are flattened into a bit-packed
//!   `u64`-word arena, and every [`crate::NetlistComponent`] is
//!   translated into a flat word-level op stream executed straight
//!   against `u64` value/unknown/high-Z planes. Every subsequent
//!   settle is a single in-order walk of the rank schedule instead of
//!   a delta-cycle loop: no virtual `eval` dispatch, no `BusAccess`
//!   reads per net, no `LogicVector` materialisation between cells.
//!   Components that are not netlist interpreters (or whose shape
//!   cannot lower) keep their virtual `eval` on the same walk. Designs
//!   the levelizer cannot order (combinational cycles,
//!   [`Sensitivity::Always`]) fall back transparently — and
//!   permanently — to the event-driven scheduler; an invalidated
//!   schedule (newly discovered driver, added components) falls back
//!   for one settle and rebuilds.

use crate::compiled::{CompiledBus, CompiledPlan, CompiledSchedule, SignalArena};
use crate::lower::{exec_settle, LoweredProgram, LoweredScratch};
use crate::netlist_sim::NetlistComponent;
use crate::signal::{BusAccess as _, DRIVER_POKE};
use crate::telemetry::{
    ComponentStats, FallbackCause, SignalStats, SimStats, Telemetry, TelemetryLevel, TraceEvent,
};
use crate::{ClockDomain, Component, Sensitivity, SignalBus, SignalId, SimError, DEFAULT_CLOCK};
use hdp_hdl::LogicVector;
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

/// Maximum settle iterations before declaring non-convergence.
const DELTA_LIMIT: usize = 64;

/// How many oscillating signals a non-convergence report names.
const OSCILLATION_REPORT_CAP: usize = 8;

/// Incremental FNV-1a (64-bit) hasher for design signatures. Inputs
/// are length-prefixed, so distinct field sequences cannot collide by
/// concatenation.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Scheduling strategy of a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Evaluate only components sensitive to changed signals.
    #[default]
    EventDriven,
    /// Evaluate every component in every delta pass (reference mode).
    FullSweep,
    /// Ahead-of-time levelized evaluation with netlist interpreters
    /// lowered to flat word-level op streams. After a validation
    /// settle the design is frozen into a levelized schedule
    /// (components sorted into static ranks by longest combinational
    /// path) over a bit-packed signal arena, and each settle becomes
    /// one in-order walk — no delta-cycle loop, no per-pass wake
    /// bookkeeping. Each [`crate::NetlistComponent`] is translated
    /// once into a `Vec<LoweredOp>` over per-net `u64`
    /// value/unknown/high-Z planes, and its slot in the walk executes
    /// that straight-line stream — no per-cell virtual dispatch, no
    /// `BusAccess` facade between cells, no `LogicVector` allocation
    /// on the hot path. Clock edges, memory-port protocol checks and
    /// their error messages stay with the interpreter's `tick`, which
    /// samples the settled planes. Components that are not netlist
    /// interpreters — or whose shape cannot lower (e.g. inout ports) —
    /// keep their virtual `eval` on the same walk.
    ///
    /// Settled values, VCD traces, telemetry toggle totals and error
    /// reports are bit-identical to [`SchedMode::EventDriven`].
    ///
    /// Falls back transparently to the event-driven scheduler:
    /// *permanently* for designs that cannot be levelized — a
    /// combinational cycle, or any component declaring
    /// [`Sensitivity::Always`] (see
    /// [`Simulator::compile_fallback_reason`]) — and for *one settle*
    /// whenever the frozen schedule is invalidated (a drive by a
    /// component the schedule had not seen drive that signal, added
    /// components or signals, or direct device mutation through
    /// [`Simulator::component_mut`]), after which it rebuilds.
    Lowered,
}

impl SchedMode {
    /// Every mode, reference first.
    pub const ALL: [SchedMode; 3] = [
        SchedMode::FullSweep,
        SchedMode::EventDriven,
        SchedMode::Lowered,
    ];

    /// The mode's stable snake_case name, as spelled on the service
    /// wire, in metrics and in benchmark documents.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedMode::FullSweep => "full_sweep",
            SchedMode::EventDriven => "event_driven",
            SchedMode::Lowered => "lowered",
        }
    }

    /// The mode named by [`SchedMode::label`], or `None` for any other
    /// string.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.label() == label)
    }
}

/// Handle to a component instance owned by a [`Simulator`], returned
/// by [`Simulator::add_component`] and usable with
/// [`Simulator::component`] to inspect device state after a run (e.g.
/// the frames collected by a [`crate::devices::VideoOut`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(usize);

/// `Send` is a supertrait so a whole [`Simulator`] can move to another
/// thread (batch execution shards simulators over worker threads).
trait AnyComponent: Component + Send {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Component + Send + Any> AnyComponent for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The frozen state of [`SchedMode::Lowered`]: the schedule itself
/// (or the reason none could be built) plus the design snapshot it was
/// built from, so any later growth of the design is detected cheaply.
struct ActivePlan {
    /// `SignalBus::len` at build time.
    n_sigs: usize,
    /// Component count at build time.
    n_comps: usize,
    /// `SignalBus::driver_link_count` at build time. The count is
    /// monotonic, so any newly discovered `(signal, driver)` pair —
    /// including ones the compiled walk itself observes and records —
    /// invalidates the plan.
    links: usize,
    /// The levelized schedule, or the human-readable reason the design
    /// cannot be levelized (permanent event-driven fallback).
    sched: Result<CompiledSchedule, String>,
}

/// One component's lowered op-stream program plus its reusable scratch
/// planes. The program is behind an `Arc` so
/// [`Simulator::export_plan`] can ship it inside a [`CompiledPlan`]
/// without cloning the op stream.
struct LoweredUnit {
    prog: Arc<LoweredProgram>,
    scratch: LoweredScratch,
}

/// A synchronous single-clock simulator.
///
/// Owns the [`SignalBus`] and the component instances and advances
/// them cycle by cycle. See the crate-level example, and
/// [`SimBuilder`] for construction that freezes the event scheduler's
/// sensitivity tables before the first step.
#[derive(Default)]
pub struct Simulator {
    bus: SignalBus,
    components: Vec<Box<dyn AnyComponent>>,
    /// Values poked by the testbench, re-driven at the start of every
    /// settle iteration so they behave like external pad drivers.
    pokes: Vec<(SignalId, LogicVector)>,
    cycle: u64,
    mode: SchedMode,
    /// Sensitivity tables, valid while `tables_ready`.
    tables_ready: bool,
    /// signal index -> components sensitive to it.
    watchers: Vec<Vec<usize>>,
    /// Components evaluated in every pass: declared `Always` plus any
    /// promoted for sharing a signal with another driver.
    always: Vec<usize>,
    /// Components with clock-edge behaviour.
    clocked: Vec<usize>,
    /// Sticky co-driver promotions (survive table rebuilds).
    promoted: Vec<bool>,
    /// Components to wake at the next settle.
    seeds: Vec<usize>,
    /// Signals poked since the last settle (their watchers get woken).
    poked_signals: Vec<SignalId>,
    /// Wake every component at the next settle (reset, mode switch,
    /// late additions).
    wake_all: bool,
    /// Whether any component declared [`Sensitivity::Always`] — such
    /// components may read arbitrary signals, so no static evaluation
    /// order is safe and [`SchedMode::Lowered`] falls back for good.
    has_always: bool,
    /// Reusable wake/next buffers for the settle loops (hoisted out of
    /// the per-pass hot path to avoid allocator churn).
    scratch_wake: Vec<usize>,
    scratch_next: Vec<usize>,
    /// The frozen plan for [`SchedMode::Lowered`], built after a
    /// validation settle. `None` until the first lowered settle or
    /// after invalidation.
    compiled: Option<ActivePlan>,
    /// Per-component lowered op-stream programs, index-aligned with
    /// `components`. `None` entries evaluate through the virtual `eval`
    /// path on the rank walk (not a netlist interpreter, or a shape
    /// that cannot lower).
    lowered: Vec<Option<LoweredUnit>>,
    /// Whether `lowered` is current for the component set.
    lowered_ready: bool,
    /// Clock domains registered directly on the simulator with
    /// [`Simulator::add_clock_domain`] (testbench-level declarations),
    /// merged with component declarations into `domains`.
    extra_domains: Vec<ClockDomain>,
    /// The merged clock-domain table, valid while `domains_ready`:
    /// index 0 is always the default `clk`/period-1 domain, further
    /// entries in first-declaration order. A domain named by several
    /// components must carry one period everywhere.
    domains: Vec<ClockDomain>,
    /// Whether `domains` is current for the component set.
    domains_ready: bool,
    /// True when every merged domain has period 1: every step fires
    /// every domain and the tick phase takes the exact historical
    /// single-clock path.
    single_rate: bool,
    /// Telemetry counters (all mutation behind a level check; zero
    /// counter traffic at [`TelemetryLevel::Off`]).
    telemetry: Telemetry,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("signals", &self.bus.len())
            .field("components", &self.components.len())
            .field("cycle", &self.cycle)
            .field("mode", &self.mode)
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulator with the default (event-driven)
    /// scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty simulator with an explicit scheduling mode.
    #[must_use]
    pub fn with_mode(mode: SchedMode) -> Self {
        Simulator {
            mode,
            ..Self::default()
        }
    }

    /// The active scheduling mode.
    #[must_use]
    pub fn mode(&self) -> SchedMode {
        self.mode
    }

    /// Switches scheduling mode. Safe at any point: the next settle
    /// re-evaluates everything once to re-synchronise.
    pub fn set_mode(&mut self, mode: SchedMode) {
        if self.mode != mode {
            self.mode = mode;
            self.wake_all = true;
        }
    }

    /// Declares a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateSignal`] or a width error.
    pub fn add_signal(
        &mut self,
        name: impl Into<String>,
        width: usize,
    ) -> Result<SignalId, SimError> {
        let id = self.bus.add(name, width)?;
        if self.tables_ready {
            self.watchers.push(Vec::new());
        }
        Ok(id)
    }

    /// Adds a component instance, returning a handle for later
    /// inspection with [`Simulator::component`]. Components must be
    /// [`Send`] so a whole simulator can move between threads.
    ///
    /// Adding a component invalidates the frozen sensitivity tables;
    /// they are rebuilt lazily at the next settle. Prefer registering
    /// everything up front (see [`SimBuilder`]).
    pub fn add_component(&mut self, component: impl Component + Send + 'static) -> ComponentId {
        self.components.push(Box::new(component));
        self.tables_ready = false;
        self.lowered_ready = false;
        self.domains_ready = false;
        self.wake_all = true;
        ComponentId(self.components.len() - 1)
    }

    /// Declares a clock domain at the simulator level, e.g. for a
    /// testbench that drives [`Component::tick_domains`] semantics
    /// without a netlist. Component-declared domains (see
    /// [`Component::clock_domains`]) are merged in automatically; a
    /// name declared twice must carry the same period everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] for a zero period or a period
    /// conflict with an earlier declaration.
    pub fn add_clock_domain(
        &mut self,
        name: impl Into<String>,
        period: u64,
    ) -> Result<(), SimError> {
        let name = name.into();
        if period == 0 {
            return Err(SimError::Protocol {
                component: "simulator".into(),
                message: format!("clock domain `{name}` has period 0"),
            });
        }
        if name == DEFAULT_CLOCK && period != 1 {
            return Err(SimError::Protocol {
                component: "simulator".into(),
                message: "the default `clk` domain is fixed at period 1".into(),
            });
        }
        if let Some(prev) = self.extra_domains.iter().find(|d| d.name == name) {
            if prev.period != period {
                return Err(SimError::Protocol {
                    component: "simulator".into(),
                    message: format!(
                        "clock domain `{name}` redeclared with period {period} (was {})",
                        prev.period
                    ),
                });
            }
            return Ok(());
        }
        self.extra_domains.push(ClockDomain::new(name, period));
        self.domains_ready = false;
        Ok(())
    }

    /// The merged clock-domain table: the default `clk` first, then
    /// every domain declared by [`Simulator::add_clock_domain`] or a
    /// component, in first-declaration order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] if two declarations disagree on
    /// a domain's period.
    pub fn clock_domains(&mut self) -> Result<&[ClockDomain], SimError> {
        self.ensure_domains()?;
        Ok(&self.domains)
    }

    /// Rebuilds the merged domain table if stale.
    fn ensure_domains(&mut self) -> Result<(), SimError> {
        if self.domains_ready {
            return Ok(());
        }
        let mut domains = vec![ClockDomain::default_clock()];
        let merge = |domains: &mut Vec<ClockDomain>, d: ClockDomain, who: &str| match domains
            .iter()
            .find(|x| x.name == d.name)
        {
            Some(prev) if prev.period != d.period => Err(SimError::Protocol {
                component: who.to_owned(),
                message: format!(
                    "clock domain `{}` declared with period {} but already registered \
                         with period {}",
                    d.name, d.period, prev.period
                ),
            }),
            Some(_) => Ok(()),
            None => {
                if d.period == 0 {
                    return Err(SimError::Protocol {
                        component: who.to_owned(),
                        message: format!("clock domain `{}` has period 0", d.name),
                    });
                }
                domains.push(d);
                Ok(())
            }
        };
        for d in self.extra_domains.clone() {
            merge(&mut domains, d, "simulator")?;
        }
        for c in &self.components {
            for d in c.clock_domains() {
                merge(&mut domains, d, c.name())?;
            }
        }
        self.single_rate = domains.iter().all(|d| d.period == 1);
        self.domains = domains;
        self.domains_ready = true;
        Ok(())
    }

    /// Downcasts a component back to its concrete type, e.g. to read
    /// the frames a [`crate::devices::VideoOut`] collected.
    ///
    /// Returns `None` if the handle is stale or `T` is not the type
    /// that was added.
    #[must_use]
    pub fn component<T: Component + 'static>(&self, id: ComponentId) -> Option<&T> {
        // Explicit deref: `.as_any()` on the Box would resolve the
        // blanket impl for `Box<dyn AnyComponent>` itself.
        (**self.components.get(id.0)?).as_any().downcast_ref::<T>()
    }

    /// Mutable variant of [`Simulator::component`], e.g. to preload a
    /// [`crate::devices::Sram`] between runs.
    ///
    /// Mutating device state behind the scheduler's back is treated
    /// like a reset for wake-up purposes: every component is
    /// re-evaluated at the next settle.
    #[must_use]
    pub fn component_mut<T: Component + 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.wake_all = true;
        (**self.components.get_mut(id.0)?)
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// The number of clock cycles executed since the last reset.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Switches the telemetry level. Safe at any point; counters
    /// accumulated so far are retained. See [`TelemetryLevel`] for
    /// the overhead of each level.
    pub fn set_telemetry(&mut self, level: TelemetryLevel) {
        self.telemetry.set_level(level);
        self.telemetry.ensure_components(self.components.len());
        self.bus.set_telemetry(level.enabled());
    }

    /// The active telemetry level.
    #[must_use]
    pub fn telemetry_level(&self) -> TelemetryLevel {
        self.telemetry.level
    }

    /// Snapshots the telemetry counters into a [`SimStats`].
    ///
    /// Empty when telemetry is [`TelemetryLevel::Off`]. Cheap enough
    /// to call between runs; the counters keep accumulating.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        if !self.telemetry.on() {
            return SimStats::default();
        }
        let t = &self.telemetry;
        let components: Vec<ComponentStats> = self
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let evals = t.comp_evals.get(i).copied().unwrap_or(0);
                ComponentStats {
                    name: c.name().to_owned(),
                    evals,
                    skips: t.passes.saturating_sub(evals),
                    eval_ns: t.comp_ns.get(i).copied().unwrap_or(0),
                }
            })
            .collect();
        let signals: Vec<SignalStats> = (0..self.bus.len())
            .map(|slot| {
                let (name, toggles, drives) = self.bus.slot_telemetry(slot);
                SignalStats {
                    name: name.to_owned(),
                    toggles,
                    drives,
                }
            })
            .collect();
        let last_wake_sets: Vec<Vec<String>> = t
            .wake_ring
            .iter()
            .map(|set| {
                set.iter()
                    .map(|&i| {
                        self.components
                            .get(i)
                            .map_or_else(|| format!("component #{i}"), |c| c.name().to_owned())
                    })
                    .collect()
            })
            .collect();
        let compiled_ranks = self
            .compiled
            .as_ref()
            .and_then(|p| p.sched.as_ref().ok())
            .map(|s| s.rank_counts.clone())
            .unwrap_or_default();
        let mut notes = t.notes.clone();
        if let Some(reason) = self.compile_fallback_reason() {
            notes.push(format!(
                "lowered: permanently falling back to event-driven — {reason}"
            ));
        }
        SimStats {
            level: t.level,
            steps: t.steps,
            settles: t.settles,
            passes: t.passes,
            max_passes: t.max_passes,
            total_wake: t.total_wake,
            max_wake: t.max_wake,
            components,
            signals,
            fallback_settles: t.fallback_settles,
            fallback_causes: t.fallback_causes,
            lowered_settles: t.lowered_settles,
            ops_executed: t.ops_executed,
            plan_installs: t.plan_installs,
            compiled_ranks,
            notes,
            last_wake_sets,
            trace: t.trace.clone(),
            trace_dropped: t.trace_dropped,
        }
    }

    /// Immutable access to the signal bus (for monitors).
    #[must_use]
    pub fn bus(&self) -> &SignalBus {
        &self.bus
    }

    /// Reads a signal's current value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] for a stale id.
    pub fn peek(&self, id: SignalId) -> Result<LogicVector, SimError> {
        self.bus.read(id)
    }

    /// Drives a signal from the testbench with a defined integer value.
    ///
    /// The value persists (it is re-driven each settle pass) until the
    /// next `poke` of the same signal or [`Simulator::unpoke`].
    ///
    /// # Errors
    ///
    /// Returns width or unknown-signal errors.
    pub fn poke(&mut self, id: SignalId, value: u64) -> Result<(), SimError> {
        let width = self.bus.width(id)?;
        let v = LogicVector::from_u64(value, width).map_err(SimError::from)?;
        self.poke_vector(id, v)
    }

    /// Drives a signal from the testbench with an arbitrary logic value.
    ///
    /// # Errors
    ///
    /// Returns width or unknown-signal errors.
    pub fn poke_vector(&mut self, id: SignalId, value: LogicVector) -> Result<(), SimError> {
        if self.bus.width(id)? != value.width() {
            return Err(SimError::SignalWidth {
                signal: self.bus.name(id)?.to_owned(),
                expected: self.bus.width(id)?,
                found: value.width(),
            });
        }
        match self.pokes.iter_mut().find(|(s, _)| *s == id) {
            Some((_, v)) => *v = value,
            None => self.pokes.push((id, value)),
        }
        self.poked_signals.push(id);
        Ok(())
    }

    /// Stops driving a previously poked signal.
    ///
    /// The signal holds its last value until something else drives it.
    pub fn unpoke(&mut self, id: SignalId) {
        self.pokes.retain(|(s, _)| *s != id);
    }

    /// Applies synchronous reset to every component and settles.
    ///
    /// # Errors
    ///
    /// Propagates component errors and non-convergence.
    pub fn reset(&mut self) -> Result<(), SimError> {
        self.cycle = 0;
        for (i, c) in self.components.iter_mut().enumerate() {
            self.bus.set_driver(i);
            c.reset(&mut self.bus)?;
        }
        self.bus.set_driver(DRIVER_POKE);
        self.wake_all = true;
        self.settle()
    }

    /// Settles combinational logic to a fixpoint without advancing the
    /// clock. Useful after poking inputs mid-cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoConvergence`] on a zero-delay loop, or the
    /// first component error.
    pub fn settle(&mut self) -> Result<(), SimError> {
        match self.mode {
            SchedMode::FullSweep => self.settle_sweep(),
            SchedMode::EventDriven => self.settle_event(),
            SchedMode::Lowered => self.settle_lowered(),
        }
    }

    /// Reference settle: every component, every pass.
    fn settle_sweep(&mut self) -> Result<(), SimError> {
        // A full sweep subsumes any pending targeted wake-ups.
        self.seeds.clear();
        self.poked_signals.clear();
        self.wake_all = false;
        let telemetry_on = self.telemetry.on();
        if telemetry_on {
            self.telemetry.settles += 1;
            self.telemetry.ensure_components(self.components.len());
        }
        let mut pass_count: u64 = 0;
        for _ in 0..DELTA_LIMIT {
            self.bus.begin_pass();
            self.bus.set_driver(DRIVER_POKE);
            for (id, value) in &self.pokes {
                self.bus.drive(*id, *value)?;
            }
            for (i, c) in self.components.iter_mut().enumerate() {
                self.bus.set_driver(i);
                let started = self.telemetry.timed().then(Instant::now);
                c.eval(&mut self.bus)?;
                if telemetry_on {
                    let dur = started.map_or(0, |t| {
                        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
                    });
                    self.telemetry.record_eval(i, dur);
                }
            }
            if telemetry_on {
                pass_count += 1;
                self.telemetry.passes += 1;
                let n = self.components.len() as u64;
                self.telemetry.total_wake += n;
                self.telemetry.max_wake = self.telemetry.max_wake.max(n);
                self.bus.count_pass_toggles();
            }
            if !self.bus.any_changed() {
                if telemetry_on {
                    self.telemetry.max_passes = self.telemetry.max_passes.max(pass_count);
                }
                return Ok(());
            }
        }
        if telemetry_on {
            self.telemetry.max_passes = self.telemetry.max_passes.max(pass_count);
        }
        Err(self.no_convergence())
    }

    /// Collects the pending wake set (wake-all, seeds and poked-signal
    /// watchers) into `wake` and clears the pending state.
    fn collect_wake(&mut self, wake: &mut Vec<usize>) {
        wake.clear();
        if self.wake_all {
            wake.extend(0..self.components.len());
            self.seeds.clear();
        } else {
            wake.append(&mut self.seeds);
            for id in self.poked_signals.drain(..) {
                wake.extend_from_slice(&self.watchers[id.index()]);
            }
        }
        self.wake_all = false;
        self.poked_signals.clear();
    }

    /// Post-pass bookkeeping of the event-driven settle loop: promote
    /// co-drivers of newly shared signals and collect the next pass's
    /// wake set from the dirty slots.
    ///
    /// A signal that just gained a second driver needs all its drivers
    /// co-evaluated from now on, or per-pass resolution would see
    /// partial contributions.
    fn pass_followup(&mut self, next: &mut Vec<usize>) {
        next.clear();
        for slot in self.bus.take_new_shared() {
            for &d in self.bus.slot_drivers(slot) {
                if d != DRIVER_POKE && !self.promoted[d] {
                    self.promoted[d] = true;
                    self.always.push(d);
                    next.push(d);
                }
            }
        }
        for slot in self.bus.dirty_slots() {
            next.extend_from_slice(&self.watchers[slot]);
        }
    }

    /// Event-driven settle: evaluate only woken components.
    fn settle_event(&mut self) -> Result<(), SimError> {
        self.ensure_tables()?;
        // Reuse the wake/next buffers across settles: the settle loop
        // runs twice per clock cycle, and reallocating both vectors in
        // every pass showed up as allocator churn on long runs.
        let mut wake = std::mem::take(&mut self.scratch_wake);
        let mut next = std::mem::take(&mut self.scratch_next);
        self.collect_wake(&mut wake);
        let res = self.settle_event_loop(&mut wake, &mut next);
        wake.clear();
        next.clear();
        self.scratch_wake = wake;
        self.scratch_next = next;
        res
    }

    fn settle_event_loop(
        &mut self,
        wake: &mut Vec<usize>,
        next: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let telemetry_on = self.telemetry.on();
        if telemetry_on {
            self.telemetry.settles += 1;
            self.telemetry.ensure_components(self.components.len());
        }
        let mut pass_count: u64 = 0;
        for _ in 0..DELTA_LIMIT {
            self.bus.begin_pass();
            self.bus.set_driver(DRIVER_POKE);
            for (id, value) in &self.pokes {
                self.bus.drive(*id, *value)?;
            }
            // Components evaluate in registration order, exactly as the
            // full sweep would order them.
            wake.extend_from_slice(&self.always);
            wake.sort_unstable();
            wake.dedup();
            if telemetry_on {
                pass_count += 1;
                self.telemetry.record_pass(wake);
            }
            let pass_t0 = self.telemetry.timed().then(|| self.telemetry.now_ns());
            for &i in wake.iter() {
                self.bus.set_driver(i);
                let started = self.telemetry.timed().then(Instant::now);
                self.components[i].eval(&mut self.bus)?;
                if telemetry_on {
                    let dur = started.map_or(0, |t| {
                        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
                    });
                    self.telemetry.record_eval(i, dur);
                    if started.is_some() {
                        self.telemetry.push_span(TraceEvent {
                            name: self.components[i].name().to_owned(),
                            cat: "eval",
                            ts_ns: self.telemetry.now_ns().saturating_sub(dur),
                            dur_ns: dur,
                        });
                    }
                }
            }
            if let Some(t0) = pass_t0 {
                self.telemetry.push_span(TraceEvent {
                    name: format!("pass ({} woken)", wake.len()),
                    cat: "pass",
                    ts_ns: t0,
                    dur_ns: self.telemetry.now_ns().saturating_sub(t0),
                });
            }
            if telemetry_on {
                self.bus.count_pass_toggles();
            }
            self.pass_followup(next);
            if next.is_empty() {
                if telemetry_on {
                    self.telemetry.max_passes = self.telemetry.max_passes.max(pass_count);
                }
                return Ok(());
            }
            std::mem::swap(wake, next);
        }
        if telemetry_on {
            self.telemetry.max_passes = self.telemetry.max_passes.max(pass_count);
        }
        Err(self.no_convergence())
    }

    /// Lowered settle: one walk of the frozen rank schedule, with
    /// transparent event-driven fallback whenever the plan is missing,
    /// stale, unbuildable, or a full re-evaluation is pending.
    fn settle_lowered(&mut self) -> Result<(), SimError> {
        self.ensure_tables()?;
        self.ensure_lowered();
        let fresh = self.compiled.as_ref().is_some_and(|p| {
            p.n_sigs == self.bus.len()
                && p.n_comps == self.components.len()
                && p.links == self.bus.driver_link_count()
        });
        if !fresh {
            // (Re)build: run one full event-driven settle so the bus's
            // driver links record every writer the current state
            // exercises, then freeze the schedule from the settled
            // design.
            self.compiled = None;
            self.wake_all = true;
            if self.telemetry.on() {
                self.telemetry
                    .record_fallback_settle(FallbackCause::Rebuild);
            }
            self.settle_event()?;
            self.build_compiled();
            return Ok(());
        }
        if self.wake_all {
            // A full re-evaluation was requested (reset, mode switch,
            // device mutation): the event scheduler handles it with
            // identical semantics; the arena just needs a reload
            // before the next compiled walk.
            if let Some(Ok(sched)) = self.compiled.as_mut().map(|p| p.sched.as_mut()) {
                sched.arena_stale = true;
            }
            if self.telemetry.on() {
                self.telemetry
                    .record_fallback_settle(FallbackCause::WakeAll);
            }
            return self.settle_event();
        }
        let mut plan = self.compiled.take().expect("freshness implies a plan");
        let res = match &mut plan.sched {
            Err(_) => {
                // Permanent fallback (cycle / Always): event-driven
                // with the same observable semantics.
                if self.telemetry.on() {
                    self.telemetry
                        .record_fallback_settle(FallbackCause::NonLevelizable);
                }
                self.settle_event()
            }
            Ok(sched) => match self.run_compiled(sched) {
                Ok(true) => Ok(()),
                Ok(false) => {
                    // The walk observed a drive the schedule was not
                    // built with. Nothing was committed; record the
                    // links (bumping the link count so the stale plan
                    // is rebuilt next settle) and re-run this settle
                    // event-driven from the still-pending wake state.
                    sched.arena_stale = true;
                    for &(slot, driver) in &sched.new_links {
                        self.bus.note_driver(slot, driver);
                    }
                    if self.telemetry.on() {
                        self.telemetry
                            .record_fallback_settle(FallbackCause::StaleDriver);
                        self.telemetry.note_once(
                            "lowered: schedule invalidated by a newly discovered driver; \
                             settle re-ran event-driven and the schedule will be rebuilt",
                        );
                    }
                    self.settle_event()
                }
                Err(e) => {
                    sched.arena_stale = true;
                    for &(slot, driver) in &sched.new_links {
                        self.bus.note_driver(slot, driver);
                    }
                    Err(e)
                }
            },
        };
        self.compiled = Some(plan);
        res
    }

    /// Executes one settle as a single walk of the levelized schedule.
    ///
    /// Returns `Ok(true)` on success (changes committed to the bus),
    /// `Ok(false)` if the walk discovered a driver the schedule was
    /// not built with (nothing committed; caller falls back), or the
    /// first component error (nothing committed).
    ///
    /// Correctness of the single pass: every reader of a signal is
    /// ranked strictly above all of the signal's writers, and `eval`
    /// is required to be a pure function of signal values and
    /// registered state — so by the time a component evaluates, every
    /// input it can observe already has its fixpoint value, and one
    /// rank-ordered walk reaches the same fixpoint the delta loop
    /// would. Multi-driver resolution folds with the same
    /// first-drive-replaces / later-drives-resolve rule as the bus,
    /// and [`hdp_hdl::LogicVector::resolve`] is commutative and
    /// associative, so fold order cannot change settled values.
    fn run_compiled(&mut self, sched: &mut CompiledSchedule) -> Result<bool, SimError> {
        if sched.arena_stale {
            sched.arena.load_from(&self.bus);
            sched.arena_stale = false;
            // An event-driven settle (or reset / device mutation) ran
            // since the last walk: the lowered input memos may be
            // describing stale sequential state.
            for unit in self.lowered.iter_mut().flatten() {
                unit.scratch.dirty = true;
            }
        }
        sched.begin_settle();
        let telemetry_on = self.telemetry.on();
        if telemetry_on {
            self.telemetry.ensure_components(self.components.len());
        }
        let mut evaluated: Vec<usize> = Vec::new();
        {
            let Simulator {
                components,
                bus,
                pokes,
                watchers,
                always,
                seeds,
                poked_signals,
                telemetry,
                lowered,
                ..
            } = self;
            // Wake set: pending seeds (tick aftermath), watchers of
            // poked signals, and the always/promoted list. Peeked, not
            // drained — on fallback the event settle must still see
            // them.
            for &i in seeds.iter() {
                sched.wake(i);
            }
            for id in poked_signals.iter() {
                for &w in &watchers[id.index()] {
                    sched.wake(w);
                }
            }
            for &i in always.iter() {
                sched.wake(i);
            }
            // Testbench pokes land first, with replace semantics, just
            // as they open every event-driven pass.
            {
                let mut cb = CompiledBus {
                    sched: &mut *sched,
                    bus,
                    driver: DRIVER_POKE,
                    telemetry: telemetry_on,
                };
                for (id, value) in pokes.iter() {
                    cb.drive(*id, *value)?;
                }
            }
            let mut cursor = 0usize;
            while cursor < sched.changed.len() {
                let slot = sched.changed[cursor];
                cursor += 1;
                for &w in &watchers[slot] {
                    sched.wake(w);
                }
            }
            // The rank walk. Readers rank above writers, so waking a
            // watcher always targets a component later in the order.
            for k in 0..sched.order.len() {
                let i = sched.order[k] as usize;
                if !sched.is_woken(i) {
                    continue;
                }
                if telemetry_on {
                    evaluated.push(i);
                }
                let started = telemetry.timed().then(Instant::now);
                let mut lowered_ops = 0u64;
                let res = {
                    let mut cb = CompiledBus {
                        sched: &mut *sched,
                        bus,
                        driver: i,
                        telemetry: telemetry_on,
                    };
                    match lowered.get_mut(i).and_then(Option::as_mut) {
                        Some(unit) => {
                            let comp = (*components[i])
                                .as_any_mut()
                                .downcast_mut::<NetlistComponent>()
                                .expect("a lowered unit is built from a NetlistComponent");
                            exec_settle(&unit.prog, &mut unit.scratch, comp, &mut cb)
                                .map(|ops| lowered_ops = ops)
                        }
                        None => components[i].eval(&mut cb),
                    }
                };
                if telemetry_on {
                    let dur = started.map_or(0, |t| {
                        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
                    });
                    telemetry.record_eval(i, dur);
                    telemetry.ops_executed += lowered_ops;
                    if started.is_some() {
                        telemetry.push_span(TraceEvent {
                            name: components[i].name().to_owned(),
                            cat: "eval",
                            ts_ns: telemetry.now_ns().saturating_sub(dur),
                            dur_ns: dur,
                        });
                    }
                }
                res?;
                if sched.stale {
                    return Ok(false);
                }
                while cursor < sched.changed.len() {
                    let slot = sched.changed[cursor];
                    cursor += 1;
                    for &w in &watchers[slot] {
                        sched.wake(w);
                    }
                }
            }
        }
        // Commit: import the net per-settle changes onto the live bus
        // so peeks, VCD monitors and the tick phase observe them with
        // the usual dirty bookkeeping.
        self.bus.begin_pass();
        for idx in 0..sched.changed.len() {
            let slot = sched.changed[idx];
            let v = sched.arena.get(slot);
            if self.bus.read(SignalId(slot))? != v {
                self.bus.sync_compiled(slot, v, sched.changer[slot]);
            }
        }
        for (slot, n) in sched.take_drive_counts() {
            self.bus.add_drives(slot, n);
        }
        if telemetry_on {
            self.telemetry.settles += 1;
            self.telemetry.lowered_settles += 1;
            self.telemetry.record_pass(&evaluated);
            self.telemetry.max_passes = self.telemetry.max_passes.max(1);
            self.bus.count_pass_toggles();
        }
        self.seeds.clear();
        self.poked_signals.clear();
        Ok(true)
    }

    /// Freezes the current (settled) design into an active plan:
    /// levelizes the components if possible, records the reason if
    /// not, and snapshots the design shape for staleness detection.
    fn build_compiled(&mut self) {
        let plan = ActivePlan {
            n_sigs: self.bus.len(),
            n_comps: self.components.len(),
            links: self.bus.driver_link_count(),
            sched: self.try_levelize(),
        };
        self.compiled = Some(plan);
    }

    /// (Re)derives the per-component lowered op streams. Every
    /// [`NetlistComponent`] is translated once into a flat word-level
    /// program; anything else —
    /// or a netlist shape that cannot lower — keeps its virtual `eval`
    /// on the rank walk, with the reason recorded as a telemetry note.
    fn ensure_lowered(&mut self) {
        if self.lowered_ready && self.lowered.len() == self.components.len() {
            return;
        }
        let mut units = Vec::with_capacity(self.components.len());
        let mut fallbacks: Vec<String> = Vec::new();
        for c in &self.components {
            let unit = (**c)
                .as_any()
                .downcast_ref::<NetlistComponent>()
                .and_then(|nc| {
                    match LoweredProgram::try_lower(nc.netlist(), nc.lowered_wiring()) {
                        Ok(prog) => {
                            let scratch = LoweredScratch::new(&prog);
                            Some(LoweredUnit {
                                prog: Arc::new(prog),
                                scratch,
                            })
                        }
                        Err(reason) => {
                            fallbacks.push(format!(
                                "lowered: component `{}` keeps interpreted eval — {reason}",
                                c.name()
                            ));
                            None
                        }
                    }
                });
            units.push(unit);
        }
        self.lowered = units;
        self.lowered_ready = true;
        if self.telemetry.on() {
            for note in &fallbacks {
                self.telemetry.record_cause(FallbackCause::LoweredComponent);
                self.telemetry.note_once(note);
            }
        }
    }

    /// Attempts to levelize the design: writers per signal are the
    /// drivers the bus observed (the build settle evaluated every
    /// component once) unioned with each component's declared
    /// [`Component::drives`] — the declaration covers conditional
    /// drives that have not fired yet. Readers come from the
    /// sensitivity tables. Kahn's algorithm with longest-path ranks
    /// then orders components by combinational depth; any cycle (or an
    /// [`Sensitivity::Always`] component, whose reads are unknown)
    /// makes the design non-levelizable.
    fn try_levelize(&self) -> Result<CompiledSchedule, String> {
        let n = self.components.len();
        if self.has_always {
            let name = self
                .components
                .iter()
                .find(|c| matches!(c.sensitivity(), Sensitivity::Always))
                .map_or_else(|| "?".to_owned(), |c| c.name().to_owned());
            return Err(format!(
                "component `{name}` declares Sensitivity::Always (undeclared reads), \
                 so no static evaluation order is safe"
            ));
        }
        let mut writers: Vec<Vec<usize>> = vec![Vec::new(); self.bus.len()];
        for (s, ws) in writers.iter_mut().enumerate() {
            for &d in self.bus.slot_drivers(s) {
                if d != DRIVER_POKE && d < n {
                    ws.push(d);
                }
            }
        }
        for (i, c) in self.components.iter().enumerate() {
            if let Some(declared) = c.drives() {
                for id in declared {
                    if let Some(ws) = writers.get_mut(id.index()) {
                        if !ws.contains(&i) {
                            ws.push(i);
                        }
                    }
                }
            }
        }
        let mut indeg = vec![0usize; n];
        let mut edges: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (s, ws) in writers.iter().enumerate() {
            for &w in ws {
                for &r in &self.watchers[s] {
                    if r == w {
                        return Err(format!(
                            "combinational cycle: `{}` reads a signal it drives (`{}`)",
                            self.components[w].name(),
                            self.bus.name(SignalId(s)).unwrap_or("?")
                        ));
                    }
                    edges[w].push(u32::try_from(r).unwrap_or(u32::MAX));
                    indeg[r] += 1;
                }
            }
        }
        let mut rank = vec![0usize; n];
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut head = 0;
        while head < queue.len() {
            let w = queue[head];
            head += 1;
            for &r in &edges[w] {
                let r = r as usize;
                rank[r] = rank[r].max(rank[w] + 1);
                indeg[r] -= 1;
                if indeg[r] == 0 {
                    queue.push(r);
                }
            }
        }
        if queue.len() < n {
            let stuck: Vec<String> = (0..n)
                .filter(|&i| indeg[i] > 0)
                .take(4)
                .map(|i| format!("`{}`", self.components[i].name()))
                .collect();
            let extra = n - queue.len() - stuck.len().min(n - queue.len());
            let more = if extra > 0 {
                format!(" (+{extra} more)")
            } else {
                String::new()
            };
            return Err(format!(
                "combinational cycle through {}{more}",
                stuck.join(", ")
            ));
        }
        let mut order: Vec<u32> = (0..u32::try_from(n).unwrap_or(u32::MAX)).collect();
        order.sort_by_key(|&i| (rank[i as usize], i));
        let mut rank_counts = vec![0u64; rank.iter().copied().max().map_or(0, |m| m + 1)];
        for &r in &rank {
            rank_counts[r] += 1;
        }
        let arena = SignalArena::build(&self.bus);
        Ok(CompiledSchedule::new(arena, order, rank_counts))
    }

    /// Switches to [`SchedMode::Lowered`] and builds the schedule
    /// immediately (the build settle runs now rather than lazily at
    /// the next settle). Returns whether a levelized schedule is
    /// active; `false` means the design cannot be levelized and every
    /// settle will transparently use the event-driven scheduler — see
    /// [`Simulator::compile_fallback_reason`] for why. Results are
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates errors from the validation settle.
    pub fn compile(&mut self) -> Result<bool, SimError> {
        self.set_mode(SchedMode::Lowered);
        self.settle()?;
        // The wake-all fallback path defers the build to the next
        // settle; force it now so callers get a definitive answer.
        if self.compiled.is_none() {
            self.build_compiled();
        }
        Ok(self.compiled.as_ref().is_some_and(|p| p.sched.is_ok()))
    }

    /// Why [`SchedMode::Lowered`] permanently fell back to
    /// event-driven evaluation, if it did. `None` while a levelized
    /// schedule is active, or before one was ever built.
    #[must_use]
    pub fn compile_fallback_reason(&self) -> Option<&str> {
        self.compiled
            .as_ref()
            .and_then(|p| p.sched.as_ref().err().map(String::as_str))
    }

    /// A structural signature of the current design: an FNV-1a hash
    /// over every signal's name and width and every component's name,
    /// sensitivity, clocking and declared drives, all in declaration
    /// order. Two simulators built through the same construction
    /// sequence produce the same signature; signal *values* and
    /// simulation progress do not participate, so the signature is
    /// stable for a design's whole lifetime.
    ///
    /// This is the compatibility key for [`CompiledPlan`] reuse:
    /// [`Simulator::install_plan`] rejects a plan whose signature does
    /// not match the target simulator.
    #[must_use]
    pub fn design_signature(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.bus.len() as u64);
        for slot in 0..self.bus.len() {
            let id = SignalId(slot);
            h.str(self.bus.name(id).unwrap_or(""));
            h.u64(self.bus.width(id).unwrap_or(0) as u64);
        }
        h.u64(self.components.len() as u64);
        for c in &self.components {
            h.str(c.name());
            match c.sensitivity() {
                Sensitivity::Always => h.u64(u64::MAX),
                Sensitivity::Signals(mut sigs) => {
                    sigs.sort_unstable();
                    sigs.dedup();
                    h.u64(sigs.len() as u64);
                    for s in sigs {
                        h.u64(s.index() as u64);
                    }
                }
            }
            h.u64(u64::from(c.is_clocked()));
            match c.drives() {
                None => h.u64(u64::MAX),
                Some(mut drives) => {
                    drives.sort_unstable();
                    drives.dedup();
                    h.u64(drives.len() as u64);
                    for d in drives {
                        h.u64(d.index() as u64);
                    }
                }
            }
        }
        // Clock domains participate only when the design actually has
        // more than the implicit `clk`/1, so every pre-existing
        // signature (including pinned plan-cache keys) is unchanged.
        // The table is recomputed here rather than read from the cache
        // because the signature must not depend on whether
        // `ensure_domains` has run yet.
        let mut domains = vec![ClockDomain::default_clock()];
        let merge = |domains: &mut Vec<ClockDomain>, d: ClockDomain| {
            if !domains.iter().any(|x| x.name == d.name) {
                domains.push(d);
            }
        };
        for d in &self.extra_domains {
            merge(&mut domains, d.clone());
        }
        for c in &self.components {
            for d in c.clock_domains() {
                merge(&mut domains, d);
            }
        }
        if domains.len() > 1 {
            h.u64(domains.len() as u64);
            for d in &domains {
                h.str(&d.name);
                h.u64(d.period);
            }
        }
        h.finish()
    }

    /// Snapshots the active levelized schedule as a reusable
    /// [`CompiledPlan`]: the levelized order, the rank shape, the
    /// per-component op streams and every `(signal, driver)` link the
    /// bus has observed. `None` while no levelized schedule is active
    /// (mode is not [`SchedMode::Lowered`], [`Simulator::compile`] has
    /// not run, or the design permanently fell back to event-driven
    /// evaluation).
    ///
    /// The plan is plain data — hash it, cache it, ship it to another
    /// simulator of the same design via [`Simulator::install_plan`].
    #[must_use]
    pub fn export_plan(&self) -> Option<CompiledPlan> {
        let plan = self.compiled.as_ref()?;
        let sched = plan.sched.as_ref().ok()?;
        let mut links = Vec::new();
        for slot in 0..self.bus.len() {
            for &d in self.bus.slot_drivers(slot) {
                let driver = if d == DRIVER_POKE {
                    u32::MAX
                } else {
                    u32::try_from(d).unwrap_or(u32::MAX)
                };
                links.push((u32::try_from(slot).unwrap_or(u32::MAX), driver));
            }
        }
        // The per-component op streams ship too (cheap: `Arc` bumps),
        // so a warm install skips the lowering pass as well as
        // levelization.
        let lowered: Vec<Option<Arc<LoweredProgram>>> = if self.lowered.len() == plan.n_comps {
            self.lowered
                .iter()
                .map(|u| u.as_ref().map(|u| Arc::clone(&u.prog)))
                .collect()
        } else {
            Vec::new()
        };
        Some(CompiledPlan {
            signature: self.design_signature(),
            n_sigs: plan.n_sigs,
            n_comps: plan.n_comps,
            links,
            order: sched.order.clone(),
            rank_counts: sched.rank_counts.clone(),
            lowered,
        })
    }

    /// Installs a [`CompiledPlan`] exported from another simulator of
    /// the same design, switching this simulator to
    /// [`SchedMode::Lowered`] with the schedule already built — the
    /// validation levelization is skipped entirely. Call after all
    /// signals and components are registered (and before running);
    /// the recorded driver links are replayed onto the bus so the
    /// installed schedule ages exactly like a locally compiled one.
    ///
    /// Settled values, traces and telemetry toggle counts are
    /// bit-identical to a cold [`Simulator::compile`]: the installed
    /// schedule is the one a local compile would have produced.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PlanMismatch`] when the plan's structural
    /// signature or shape does not match this simulator's design.
    pub fn install_plan(&mut self, plan: &CompiledPlan) -> Result<(), SimError> {
        self.ensure_tables()?;
        if plan.n_sigs != self.bus.len() || plan.n_comps != self.components.len() {
            return Err(SimError::PlanMismatch {
                reason: format!(
                    "plan shape is {} signals / {} components, design has {} / {}",
                    plan.n_sigs,
                    plan.n_comps,
                    self.bus.len(),
                    self.components.len()
                ),
            });
        }
        let expected = self.design_signature();
        if plan.signature != expected {
            return Err(SimError::PlanMismatch {
                reason: format!(
                    "plan signature {:#018x} != design signature {expected:#018x}",
                    plan.signature
                ),
            });
        }
        if plan.order.len() != plan.n_comps {
            return Err(SimError::PlanMismatch {
                reason: format!(
                    "plan orders {} components, expected {}",
                    plan.order.len(),
                    plan.n_comps
                ),
            });
        }
        for &(slot, driver) in &plan.links {
            if slot as usize >= self.bus.len()
                || (driver != u32::MAX && driver as usize >= self.components.len())
            {
                return Err(SimError::PlanMismatch {
                    reason: format!("plan link ({slot}, {driver}) is out of range"),
                });
            }
        }
        // Replay the recorded driver links (deduplicated by the bus)
        // so shared-signal promotion and plan-staleness accounting
        // behave exactly as they would after a local validation
        // settle.
        for &(slot, driver) in &plan.links {
            let d = if driver == u32::MAX {
                DRIVER_POKE
            } else {
                driver as usize
            };
            self.bus.note_driver(slot as usize, d);
        }
        let arena = SignalArena::build(&self.bus);
        let sched = CompiledSchedule::new(arena, plan.order.clone(), plan.rank_counts.clone());
        self.compiled = Some(ActivePlan {
            n_sigs: plan.n_sigs,
            n_comps: plan.n_comps,
            links: self.bus.driver_link_count(),
            sched: Ok(sched),
        });
        // Adopt the plan's lowered op streams when it carries a
        // complete, still-matching set — the warm simulator then skips
        // its own lowering pass entirely.
        if plan.lowered.len() == self.components.len() {
            let mut units = Vec::with_capacity(plan.lowered.len());
            let mut compatible = true;
            for (i, prog) in plan.lowered.iter().enumerate() {
                match prog {
                    Some(prog) => {
                        let ok = (*self.components[i])
                            .as_any()
                            .downcast_ref::<NetlistComponent>()
                            .is_some_and(|nc| prog.matches(nc));
                        if !ok {
                            compatible = false;
                            break;
                        }
                        units.push(Some(LoweredUnit {
                            prog: Arc::clone(prog),
                            scratch: LoweredScratch::new(prog),
                        }));
                    }
                    None => units.push(None),
                }
            }
            if compatible {
                self.lowered = units;
                self.lowered_ready = true;
            }
        }
        self.set_mode(SchedMode::Lowered);
        if self.telemetry.on() {
            self.telemetry.plan_installs += 1;
            self.telemetry
                .note_once("lowered: schedule installed from a cached plan");
        }
        Ok(())
    }

    /// Builds the non-convergence report from the last pass's dirty set.
    fn no_convergence(&self) -> SimError {
        let oscillating = self
            .bus
            .dirty_slots()
            .iter()
            .take(OSCILLATION_REPORT_CAP)
            .map(|&slot| {
                let name = self
                    .bus
                    .name(SignalId(slot))
                    .unwrap_or("<unknown>")
                    .to_owned();
                let driver = match self.bus.last_changer(slot) {
                    DRIVER_POKE => "testbench".to_owned(),
                    i => self
                        .components
                        .get(i)
                        .map_or_else(|| format!("component #{i}"), |c| c.name().to_owned()),
                };
                format!("`{name}` (last driven by `{driver}`)")
            })
            .collect();
        SimError::NoConvergence {
            limit: DELTA_LIMIT,
            oscillating,
        }
    }

    /// Rebuilds the sensitivity tables if stale, validating every
    /// declared signal id.
    fn ensure_tables(&mut self) -> Result<(), SimError> {
        if self.tables_ready {
            return Ok(());
        }
        self.watchers = vec![Vec::new(); self.bus.len()];
        self.always.clear();
        self.clocked.clear();
        self.has_always = false;
        self.promoted.resize(self.components.len(), false);
        for (i, c) in self.components.iter().enumerate() {
            match c.sensitivity() {
                Sensitivity::Always => {
                    self.always.push(i);
                    self.has_always = true;
                }
                Sensitivity::Signals(mut signals) => {
                    if self.promoted[i] {
                        self.always.push(i);
                    }
                    // Dedup the declared list up front; the watcher
                    // vectors then never need a linear containment
                    // scan, which was quadratic on high-fan-in
                    // components.
                    signals.sort_unstable();
                    signals.dedup();
                    for s in signals {
                        self.watchers
                            .get_mut(s.index())
                            .ok_or(SimError::UnknownSignal { index: s.index() })?
                            .push(i);
                    }
                }
            }
            if c.is_clocked() {
                self.clocked.push(i);
            }
        }
        self.tables_ready = true;
        Ok(())
    }

    /// Executes one full clock cycle: settle, then clock edge.
    ///
    /// # Errors
    ///
    /// Propagates settle and component errors.
    pub fn step(&mut self) -> Result<(), SimError> {
        let telemetry_on = self.telemetry.on();
        let step_t0 = self.telemetry.timed().then(|| self.telemetry.now_ns());
        if telemetry_on {
            self.telemetry.steps += 1;
        }
        self.ensure_domains()?;
        // A step where every domain presents an edge takes the exact
        // historical tick path; a single-rate design (all periods 1)
        // always does, so the multi-domain machinery costs it nothing.
        let all_fire = self.single_rate || self.domains.iter().all(|d| d.fires_at(self.cycle));
        let firing_names: Vec<String> = if all_fire {
            Vec::new()
        } else {
            self.domains
                .iter()
                .filter(|d| d.fires_at(self.cycle))
                .map(|d| d.name.clone())
                .collect()
        };
        let firing: Vec<&str> = firing_names.iter().map(String::as_str).collect();
        self.settle()?;
        // Track tick-phase drives on a clean pass so their watchers can
        // be woken (no in-repo tick drives signals, but the contract
        // allows it).
        self.bus.begin_pass();
        match self.mode {
            SchedMode::FullSweep => {
                for (i, c) in self.components.iter_mut().enumerate() {
                    self.bus.set_driver(i);
                    if all_fire {
                        c.tick(&mut self.bus)?;
                    } else {
                        c.tick_domains(&mut self.bus, &firing)?;
                    }
                }
            }
            SchedMode::EventDriven | SchedMode::Lowered => {
                for idx in 0..self.clocked.len() {
                    let i = self.clocked[idx];
                    self.bus.set_driver(i);
                    if all_fire {
                        self.components[i].tick(&mut self.bus)?;
                    } else {
                        self.components[i].tick_domains(&mut self.bus, &firing)?;
                    }
                }
                // The edge changed registered state: wake every clocked
                // component, plus watchers of anything tick drove.
                self.seeds.extend_from_slice(&self.clocked);
                for slot in self.bus.dirty_slots() {
                    self.seeds.extend_from_slice(&self.watchers[slot]);
                }
                if self.mode == SchedMode::Lowered {
                    // Keep the arena coherent incrementally: a tick is
                    // allowed to drive signals directly on the bus, and
                    // reloading the whole arena every cycle would cost
                    // more than the rank walk saves.
                    if let Some(Ok(sched)) = self.compiled.as_mut().map(|p| p.sched.as_mut()) {
                        if !sched.arena_stale {
                            for slot in self.bus.dirty_slots() {
                                let v = self.bus.read(SignalId(slot))?;
                                sched.arena.set(slot, v);
                            }
                        }
                    }
                    // A clock edge advanced every clocked interpreter's
                    // sequential state, which a lowered program's input
                    // memo cannot see: force those op streams to re-run.
                    // On a partial-firing multi-rate step the memos are
                    // surrendered even for components whose domains sat
                    // out — the honest cost of domain filtering, counted
                    // once per such step as a fallback cause.
                    if !all_fire && telemetry_on {
                        self.telemetry.record_cause(FallbackCause::MultiDomain);
                    }
                    for idx in 0..self.clocked.len() {
                        let i = self.clocked[idx];
                        if let Some(unit) = self.lowered.get_mut(i).and_then(Option::as_mut) {
                            unit.scratch.dirty = true;
                        }
                    }
                }
            }
        }
        self.bus.set_driver(DRIVER_POKE);
        if telemetry_on {
            // The clock edge's drives land on their own pass; count the
            // settled changes before the post-edge settle resets the
            // dirty tracking. Tick order is identical in every mode, so
            // these toggles stay mode-identical too.
            self.bus.count_pass_toggles();
        }
        self.cycle += 1;
        // Settle again so post-edge outputs are observable immediately.
        let res = self.settle();
        if let Some(t0) = step_t0 {
            self.telemetry.push_span(TraceEvent {
                name: format!("cycle {}", self.cycle),
                cat: "step",
                ts_ns: t0,
                dur_ns: self.telemetry.now_ns().saturating_sub(t0),
            });
        }
        res
    }

    /// Executes `n` clock cycles.
    ///
    /// # Errors
    ///
    /// Propagates the first error; earlier cycles remain applied.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Runs until `predicate` returns `true` (checked after each cycle)
    /// or `max_cycles` elapse. Returns `true` if the predicate fired.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        mut predicate: impl FnMut(&SignalBus) -> bool,
    ) -> Result<bool, SimError> {
        for _ in 0..max_cycles {
            self.step()?;
            if predicate(&self.bus) {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Builder-style construction of a [`Simulator`].
///
/// Registers signals, components and initial pokes up front, then
/// [`SimBuilder::build`] freezes the event scheduler's sensitivity
/// tables once, validates every declared sensitivity against the
/// signal set, and applies power-on reset — so the returned simulator
/// never rebuilds tables mid-run.
///
/// ```
/// use hdp_sim::{SimBuilder, devices::FifoCore};
///
/// # fn main() -> Result<(), hdp_sim::SimError> {
/// let mut b = SimBuilder::new();
/// let push = b.signal("push", 1)?;
/// let pop = b.signal("pop", 1)?;
/// let wdata = b.signal("wdata", 8)?;
/// let rdata = b.signal("rdata", 8)?;
/// let empty = b.signal("empty", 1)?;
/// let full = b.signal("full", 1)?;
/// b.component(FifoCore::new("u_fifo", 4, 8, push, pop, wdata, rdata, empty, full));
/// b.poke(push, 0)?;
/// b.poke(pop, 0)?;
/// b.poke(wdata, 0)?;
/// let mut sim = b.build()?; // tables frozen, reset applied
/// assert_eq!(sim.peek(empty)?.to_u64(), Some(1));
/// sim.step()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SimBuilder {
    sim: Simulator,
}

impl SimBuilder {
    /// Starts an empty builder (event-driven mode).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts an empty builder with an explicit scheduling mode.
    #[must_use]
    pub fn with_mode(mode: SchedMode) -> Self {
        SimBuilder {
            sim: Simulator::with_mode(mode),
        }
    }

    /// Declares a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateSignal`] or a width error.
    pub fn signal(&mut self, name: impl Into<String>, width: usize) -> Result<SignalId, SimError> {
        self.sim.add_signal(name, width)
    }

    /// Registers a component.
    pub fn component(&mut self, component: impl Component + Send + 'static) -> ComponentId {
        self.sim.add_component(component)
    }

    /// Enables telemetry at `level` from the very first settle (the
    /// power-on reset in [`SimBuilder::build`] is already counted).
    pub fn telemetry(&mut self, level: TelemetryLevel) -> &mut Self {
        self.sim.set_telemetry(level);
        self
    }

    /// Sets an initial testbench drive, applied from the first settle.
    ///
    /// # Errors
    ///
    /// Returns width or unknown-signal errors.
    pub fn poke(&mut self, id: SignalId, value: u64) -> Result<(), SimError> {
        self.sim.poke(id, value)
    }

    /// Sets an initial testbench drive with an arbitrary logic value.
    ///
    /// # Errors
    ///
    /// Returns width or unknown-signal errors.
    pub fn poke_vector(&mut self, id: SignalId, value: LogicVector) -> Result<(), SimError> {
        self.sim.poke_vector(id, value)
    }

    /// Freezes the sensitivity tables, validates them, applies
    /// power-on reset and returns the ready simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] if a component declared
    /// sensitivity to a signal that does not exist, plus any reset or
    /// settle error.
    pub fn build(mut self) -> Result<Simulator, SimError> {
        self.sim.ensure_tables()?;
        self.sim.reset()?;
        Ok(self.sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BusAccess;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;


    /// A register: q <= d on every edge.
    struct Reg {
        name: String,
        d: SignalId,
        q: SignalId,
        state: u64,
    }

    impl Component for Reg {
        fn name(&self) -> &str {
            &self.name
        }
        fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
            bus.drive_u64(self.q, self.state)
        }
        fn tick(&mut self, bus: &mut SignalBus) -> Result<(), SimError> {
            self.state = bus.read_u64(self.d, &self.name)?;
            Ok(())
        }
        fn reset(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            self.state = 0;
            Ok(())
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![])
        }
    }

    /// Combinational +1.
    struct Inc {
        name: String,
        a: SignalId,
        y: SignalId,
        evals: Option<Arc<AtomicUsize>>,
    }

    impl Component for Inc {
        fn name(&self) -> &str {
            &self.name
        }
        fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
            if let Some(evals) = &self.evals {
                evals.fetch_add(1, Ordering::Relaxed);
            }
            let a = bus.read(self.a)?;
            if let Some(v) = a.to_u64() {
                bus.drive_u64(self.y, (v + 1) & 0xFF)?;
            }
            Ok(())
        }
        fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            Ok(())
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![self.a])
        }
        fn is_clocked(&self) -> bool {
            false
        }
    }

    fn counter_sim(mode: SchedMode) -> (Simulator, SignalId) {
        let mut sim = Simulator::with_mode(mode);
        let q = sim.add_signal("q", 8).unwrap();
        let d = sim.add_signal("d", 8).unwrap();
        sim.add_component(Reg {
            name: "r".into(),
            d,
            q,
            state: 0,
        });
        sim.add_component(Inc {
            name: "i".into(),
            a: q,
            y: d,
            evals: None,
        });
        sim.reset().unwrap();
        (sim, q)
    }

    #[test]
    fn counter_from_reg_and_inc() {
        // q -> inc -> d -> reg -> q : a classic counter loop broken by
        // the register.
        for mode in SchedMode::ALL {
            let (mut sim, q) = counter_sim(mode);
            assert_eq!(sim.peek(q).unwrap().to_u64(), Some(0));
            sim.run(5).unwrap();
            assert_eq!(sim.peek(q).unwrap().to_u64(), Some(5));
            assert_eq!(sim.cycle(), 5);
        }
    }

    #[test]
    fn poke_persists_across_cycles() {
        for mode in SchedMode::ALL {
            let mut sim = Simulator::with_mode(mode);
            let d = sim.add_signal("d", 8).unwrap();
            let q = sim.add_signal("q", 8).unwrap();
            sim.add_component(Reg {
                name: "r".into(),
                d,
                q,
                state: 0,
            });
            sim.reset().unwrap();
            sim.poke(d, 42).unwrap();
            sim.run(3).unwrap();
            assert_eq!(sim.peek(q).unwrap().to_u64(), Some(42));
        }
    }

    #[test]
    fn zero_delay_loop_is_detected() {
        // Two combinational inverters in a loop: y = x+1, x = y+1 never
        // converges.
        for mode in SchedMode::ALL {
            let mut sim2 = Simulator::with_mode(mode);
            let x2 = sim2.add_signal("x", 8).unwrap();
            let y2 = sim2.add_signal("y", 8).unwrap();
            sim2.add_component(Inc {
                name: "a".into(),
                a: x2,
                y: y2,
                evals: None,
            });
            sim2.add_component(Inc {
                name: "b".into(),
                a: y2,
                y: x2,
                evals: None,
            });
            // Seed the loop with a defined value so it oscillates.
            sim2.poke(x2, 0).unwrap();
            sim2.settle().ok(); // poked variant may resolve to X, that's fine
            sim2.unpoke(x2);
            let err = sim2.settle();
            // Either the loop oscillates (NoConvergence) or collapses to X
            // (converged); both are acceptable outcomes for an illegal
            // netlist, but an infinite hang is not. The poked case must not
            // hang either.
            match err {
                Ok(()) | Err(SimError::NoConvergence { .. }) => {}
                Err(other) => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn no_convergence_report_names_loop_signals() {
        // An unambiguous oscillator: y = x+1 and x = y+1 with defined
        // seed values and no poke interference after the first settle.
        let mut sim = Simulator::new();
        let x = sim.add_signal("x", 8).unwrap();
        let y = sim.add_signal("y", 8).unwrap();
        sim.add_component(Inc {
            name: "a".into(),
            a: x,
            y,
            evals: None,
        });
        sim.add_component(Inc {
            name: "b".into(),
            a: y,
            y: x,
            evals: None,
        });
        sim.poke(x, 0).unwrap();
        sim.settle().ok();
        sim.unpoke(x);
        if let Err(SimError::NoConvergence { oscillating, .. }) = sim.settle() {
            assert!(!oscillating.is_empty(), "report must name signals");
            let text = oscillating.join(", ");
            assert!(
                text.contains("`x`") || text.contains("`y`"),
                "report names the loop wires: {text}"
            );
            assert!(
                text.contains("`a`") || text.contains("`b`"),
                "report names the drivers: {text}"
            );
        }
    }

    #[test]
    fn run_until_fires_predicate() {
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 8).unwrap();
        let d = sim.add_signal("d", 8).unwrap();
        sim.add_component(Reg {
            name: "r".into(),
            d,
            q,
            state: 0,
        });
        sim.add_component(Inc {
            name: "i".into(),
            a: q,
            y: d,
            evals: None,
        });
        sim.reset().unwrap();
        let hit = sim
            .run_until(100, |bus| bus.read(q).unwrap().to_u64() == Some(10))
            .unwrap();
        assert!(hit);
        assert_eq!(sim.cycle(), 10);
    }

    #[test]
    fn run_until_gives_up() {
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 8).unwrap();
        sim.poke(q, 0).unwrap();
        let hit = sim
            .run_until(5, |bus| bus.read(q).unwrap().to_u64() == Some(1))
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn event_mode_skips_unaffected_components() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 8).unwrap();
        let y = sim.add_signal("y", 8).unwrap();
        let evals = Arc::new(AtomicUsize::new(0));
        sim.add_component(Inc {
            name: "i".into(),
            a,
            y,
            evals: Some(Arc::clone(&evals)),
        });
        sim.poke(a, 1).unwrap();
        sim.reset().unwrap();
        let after_reset = evals.load(Ordering::Relaxed);
        assert!(after_reset >= 1, "reset evaluates everything once");
        // Nothing the component is sensitive to changes across idle
        // cycles, and it is not clocked: zero further evaluations.
        sim.run(10).unwrap();
        assert_eq!(
            evals.load(Ordering::Relaxed),
            after_reset,
            "idle cycles must not re-eval"
        );
        // A poke on the watched signal wakes it again.
        sim.poke(a, 7).unwrap();
        sim.settle().unwrap();
        assert!(evals.load(Ordering::Relaxed) > after_reset);
        assert_eq!(sim.peek(y).unwrap().to_u64(), Some(8));
    }

    #[test]
    fn shared_signal_promotes_both_drivers() {
        /// Drives `bus_sig` with `value` while `sel == me`, else `Z`.
        struct TriState {
            name: String,
            sel: SignalId,
            bus_sig: SignalId,
            me: u64,
            value: u64,
        }
        impl Component for TriState {
            fn name(&self) -> &str {
                &self.name
            }
            fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
                if bus.read(self.sel)?.to_u64() == Some(self.me) {
                    bus.drive_u64(self.bus_sig, self.value)
                } else {
                    bus.drive(
                        self.bus_sig,
                        LogicVector::high_z(8).map_err(SimError::from)?,
                    )
                }
            }
            fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
                Ok(())
            }
            fn sensitivity(&self) -> Sensitivity {
                Sensitivity::Signals(vec![self.sel])
            }
            fn is_clocked(&self) -> bool {
                false
            }
        }
        for mode in SchedMode::ALL {
            let mut sim = Simulator::with_mode(mode);
            let sel = sim.add_signal("sel", 1).unwrap();
            let shared = sim.add_signal("shared", 8).unwrap();
            sim.add_component(TriState {
                name: "t0".into(),
                sel,
                bus_sig: shared,
                me: 0,
                value: 0x11,
            });
            sim.add_component(TriState {
                name: "t1".into(),
                sel,
                bus_sig: shared,
                me: 1,
                value: 0x22,
            });
            sim.poke(sel, 0).unwrap();
            sim.reset().unwrap();
            assert_eq!(sim.peek(shared).unwrap().to_u64(), Some(0x11));
            sim.poke(sel, 1).unwrap();
            sim.settle().unwrap();
            assert_eq!(sim.peek(shared).unwrap().to_u64(), Some(0x22));
            sim.poke(sel, 0).unwrap();
            sim.settle().unwrap();
            assert_eq!(sim.peek(shared).unwrap().to_u64(), Some(0x11));
        }
    }

    #[test]
    fn builder_freezes_tables_and_resets() {
        let mut b = SimBuilder::new();
        let q = b.signal("q", 8).unwrap();
        let d = b.signal("d", 8).unwrap();
        b.component(Reg {
            name: "r".into(),
            d,
            q,
            state: 3,
        });
        b.component(Inc {
            name: "i".into(),
            a: q,
            y: d,
            evals: None,
        });
        let mut sim = b.build().unwrap();
        // Reset applied by build: register state cleared and settled.
        assert_eq!(sim.peek(q).unwrap().to_u64(), Some(0));
        sim.run(4).unwrap();
        assert_eq!(sim.peek(q).unwrap().to_u64(), Some(4));
    }

    #[test]
    fn builder_rejects_unknown_sensitivity_signal() {
        struct Liar {
            bogus: SignalId,
        }
        impl Component for Liar {
            fn name(&self) -> &str {
                "liar"
            }
            fn eval(&mut self, _bus: &mut dyn BusAccess) -> Result<(), SimError> {
                Ok(())
            }
            fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
                Ok(())
            }
            fn sensitivity(&self) -> Sensitivity {
                Sensitivity::Signals(vec![self.bogus])
            }
        }
        let mut b = SimBuilder::new();
        b.component(Liar {
            bogus: SignalId(99),
        });
        assert!(matches!(
            b.build(),
            Err(SimError::UnknownSignal { index: 99 })
        ));
    }

    #[test]
    fn mode_switch_mid_run_stays_consistent() {
        let (mut sim, q) = counter_sim(SchedMode::EventDriven);
        sim.run(3).unwrap();
        sim.set_mode(SchedMode::FullSweep);
        sim.run(3).unwrap();
        sim.set_mode(SchedMode::Lowered);
        sim.run(3).unwrap();
        sim.set_mode(SchedMode::EventDriven);
        sim.run(3).unwrap();
        assert_eq!(sim.peek(q).unwrap().to_u64(), Some(12));
    }

    /// Builds `n` independent counters in one simulator.
    fn multi_counter_sim(mode: SchedMode, n: usize) -> (Simulator, Vec<SignalId>) {
        let mut sim = Simulator::with_mode(mode);
        let mut qs = Vec::new();
        for k in 0..n {
            let q = sim.add_signal(format!("q{k}"), 8).unwrap();
            let d = sim.add_signal(format!("d{k}"), 8).unwrap();
            sim.add_component(Reg {
                name: format!("r{k}"),
                d,
                q,
                state: 0,
            });
            sim.add_component(Inc {
                name: format!("i{k}"),
                a: q,
                y: d,
                evals: None,
            });
            qs.push(q);
        }
        sim.reset().unwrap();
        (sim, qs)
    }

    #[test]
    fn debug_format_mentions_counts() {
        let sim = Simulator::new();
        assert!(format!("{sim:?}").contains("components"));
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in SchedMode::ALL {
            assert_eq!(SchedMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(SchedMode::parse("parallel"), None);
        assert_eq!(SchedMode::parse("compiled"), None);
    }

    /// `y = a + 1` while `sel` is 1, else `y = 0`: a quiescent
    /// component that becomes half of a zero-delay oscillator when
    /// enabled. Two of these back to back oscillate forever.
    struct GatedInc {
        name: String,
        sel: SignalId,
        a: SignalId,
        y: SignalId,
    }

    impl Component for GatedInc {
        fn name(&self) -> &str {
            &self.name
        }
        fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
            if bus.read(self.sel)?.to_u64() == Some(1) {
                let a = bus.read(self.a)?.to_u64().unwrap_or(0);
                bus.drive_u64(self.y, (a + 1) & 0xFF)
            } else {
                bus.drive_u64(self.y, 0)
            }
        }
        fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            Ok(())
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![self.sel, self.a])
        }
        fn is_clocked(&self) -> bool {
            false
        }
    }

    /// `n` independent gated oscillator pairs, quiescent (all `sel`
    /// poked to 0) and settled after reset.
    fn oscillator_farm(mode: SchedMode, n: usize) -> (Simulator, Vec<SignalId>) {
        let mut sim = Simulator::with_mode(mode);
        let mut sels = Vec::new();
        for k in 0..n {
            let sel = sim.add_signal(format!("sel{k}"), 1).unwrap();
            let x = sim.add_signal(format!("x{k}"), 8).unwrap();
            let y = sim.add_signal(format!("y{k}"), 8).unwrap();
            sim.add_component(GatedInc {
                name: format!("a{k}"),
                sel,
                a: x,
                y,
            });
            sim.add_component(GatedInc {
                name: format!("b{k}"),
                sel,
                a: y,
                y: x,
            });
            sim.poke(sel, 0).unwrap();
            sels.push(sel);
        }
        sim.reset().unwrap();
        (sim, sels)
    }

    #[test]
    fn no_convergence_report_identical_across_modes() {
        // Eight independent oscillators, all enabled at once. The
        // resulting NoConvergence must name the same signals and
        // drivers in every mode: the report is built from the bus's
        // dirty set, which every scheduler keeps bit-identical.
        let n = 8;
        let mut reports = Vec::new();
        for mode in [
            SchedMode::EventDriven,
            SchedMode::FullSweep,
            SchedMode::Lowered,
        ] {
            let (mut sim, sels) = oscillator_farm(mode, n);
            for sel in &sels {
                sim.poke(*sel, 1).unwrap();
            }
            let err = sim.settle().unwrap_err();
            assert!(
                matches!(err, SimError::NoConvergence { .. }),
                "{mode:?}: expected NoConvergence, got {err}"
            );
            reports.push((mode, err));
        }
        let (ref_mode, reference) = &reports[0];
        for (mode, err) in &reports[1..] {
            assert_eq!(
                err, reference,
                "{mode:?} must report the same oscillation as {ref_mode:?}"
            );
        }
    }

    #[test]
    fn no_convergence_forensics_capture_wake_sets() {
        let (mut sim, sels) = oscillator_farm(SchedMode::EventDriven, 2);
        sim.set_telemetry(TelemetryLevel::Counters);
        for sel in &sels {
            sim.poke(*sel, 1).unwrap();
        }
        sim.settle().unwrap_err();
        let stats = sim.stats();
        assert_eq!(
            stats.last_wake_sets.len(),
            crate::telemetry::WAKE_FORENSICS_DEPTH
        );
        let last = stats.last_wake_sets.last().unwrap();
        assert!(
            last.iter()
                .any(|name| name.starts_with('a') || name.starts_with('b')),
            "forensics name the chasing components: {last:?}"
        );
    }

    #[test]
    fn telemetry_off_leaves_stats_empty() {
        let (mut sim, _) = counter_sim(SchedMode::EventDriven);
        sim.run(20).unwrap();
        assert_eq!(sim.telemetry_level(), TelemetryLevel::Off);
        let stats = sim.stats();
        assert!(stats.is_empty());
        assert_eq!(stats, SimStats::default());
    }

    #[test]
    fn telemetry_counters_accumulate() {
        let (mut sim, _) = counter_sim(SchedMode::EventDriven);
        sim.set_telemetry(TelemetryLevel::Counters);
        sim.run(10).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.steps, 10);
        assert!(
            stats.settles >= 20,
            "two settles per step: {}",
            stats.settles
        );
        assert!(stats.passes >= stats.settles);
        assert!(stats.total_evals() > 0);
        assert!(stats.total_toggles() > 0, "a counter toggles every cycle");
        assert!(stats.max_wake >= 1);
        let report = stats.report();
        assert!(report.contains('r') && report.contains('i'), "{report}");
        // Counters level records no spans.
        assert!(stats.trace.is_empty());
        let r = &stats.components[0];
        assert_eq!(r.name, "r");
        assert!(r.evals > 0);
        assert_eq!(r.eval_ns, 0, "no clock reads below Full");
    }

    #[test]
    fn telemetry_toggles_identical_across_all_modes() {
        let runs: Vec<SimStats> = [
            SchedMode::EventDriven,
            SchedMode::FullSweep,
            SchedMode::Lowered,
        ]
        .into_iter()
        .map(|mode| {
            let (mut sim, _) = multi_counter_sim(mode, 8);
            sim.set_telemetry(TelemetryLevel::Counters);
            sim.run(25).unwrap();
            sim.stats()
        })
        .collect();
        let reference = &runs[0];
        for stats in &runs[1..] {
            assert_eq!(stats.total_toggles(), reference.total_toggles());
            for (s, rs) in stats.signals.iter().zip(&reference.signals) {
                assert_eq!(
                    (s.name.as_str(), s.toggles),
                    (rs.name.as_str(), rs.toggles),
                    "settled toggle activity is mode-invariant"
                );
            }
        }
        // Drive counts are eval-proportional: strictly higher under
        // the full sweep (every component re-drives every pass).
        let (event, sweep) = (&runs[0], &runs[1]);
        assert!(sweep.total_drives() > event.total_drives());
    }

    #[test]
    fn telemetry_full_records_spans() {
        let (mut sim, _) = multi_counter_sim(SchedMode::EventDriven, 8);
        sim.set_telemetry(TelemetryLevel::Full);
        sim.run(5).unwrap();
        let stats = sim.stats();
        assert!(!stats.trace.is_empty());
        let cats: std::collections::HashSet<&str> = stats.trace.iter().map(|ev| ev.cat).collect();
        assert!(cats.contains("step"), "{cats:?}");
        assert!(cats.contains("eval"), "{cats:?}");
        assert!(
            stats.components.iter().any(|c| c.eval_ns > 0),
            "Full level accumulates eval time"
        );
        let json = stats.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn builder_telemetry_covers_reset() {
        let mut b = SimBuilder::new();
        let q = b.signal("q", 8).unwrap();
        let d = b.signal("d", 8).unwrap();
        b.component(Reg {
            name: "r".into(),
            d,
            q,
            state: 0,
        });
        b.component(Inc {
            name: "i".into(),
            a: q,
            y: d,
            evals: None,
        });
        b.telemetry(TelemetryLevel::Counters);
        let sim = b.build().unwrap();
        let stats = sim.stats();
        assert!(stats.settles > 0, "power-on reset settle is counted");
        assert!(stats.total_evals() > 0);
    }

    #[test]
    fn compile_levelizes_a_counter_and_reports_ranks() {
        let (mut sim, q) = counter_sim(SchedMode::Lowered);
        sim.set_telemetry(TelemetryLevel::Counters);
        assert!(sim.compile().unwrap(), "a registered counter levelizes");
        assert!(sim.compile_fallback_reason().is_none());
        sim.run(10).unwrap();
        assert_eq!(sim.peek(q).unwrap().to_u64(), Some(10));
        let stats = sim.stats();
        assert!(stats.lowered_settles > 0, "settles use the rank walk");
        // Reg (reads nothing) at rank 0, Inc (reads q) at rank 1.
        assert_eq!(stats.compiled_ranks, vec![1, 1]);
        assert!(
            stats.notes.is_empty(),
            "no fallback notes: {:?}",
            stats.notes
        );
        assert!(stats.report().contains("rank-walk settles"));
    }

    #[test]
    fn lowered_falls_back_permanently_on_combinational_cycle() {
        // The gated oscillator pair is a static cycle (a reads x and
        // drives y; b reads y and drives x) even while quiescent.
        let (mut sim, sels) = oscillator_farm(SchedMode::Lowered, 1);
        sim.set_telemetry(TelemetryLevel::Counters);
        assert!(!sim.compile().unwrap(), "a static cycle cannot levelize");
        let reason = sim.compile_fallback_reason().unwrap();
        assert!(reason.contains("combinational cycle"), "{reason}");
        // The fallback is transparent: runs keep working and results
        // are bit-identical to a plain event-driven simulation.
        let (mut reference, ref_sels) = oscillator_farm(SchedMode::EventDriven, 1);
        sim.run(5).unwrap();
        reference.run(5).unwrap();
        assert_eq!(
            sim.peek(sels[0]).unwrap(),
            reference.peek(ref_sels[0]).unwrap()
        );
        let stats = sim.stats();
        assert_eq!(stats.lowered_settles, 0, "no rank walks ever ran");
        assert!(stats.fallback_settles > 0);
        assert!(
            stats
                .notes
                .iter()
                .any(|n| n.contains("permanently falling back")),
            "stats must surface the reason: {:?}",
            stats.notes
        );
    }

    #[test]
    fn lowered_falls_back_permanently_on_always_sensitivity() {
        struct Sweeper {
            y: SignalId,
        }
        impl Component for Sweeper {
            fn name(&self) -> &str {
                "sweeper"
            }
            fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
                bus.drive_u64(self.y, 1)
            }
            fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
                Ok(())
            }
            // Default sensitivity: Sensitivity::Always.
        }
        let mut sim = Simulator::with_mode(SchedMode::Lowered);
        let y = sim.add_signal("y", 1).unwrap();
        sim.add_component(Sweeper { y });
        sim.reset().unwrap();
        assert!(!sim.compile().unwrap());
        let reason = sim.compile_fallback_reason().unwrap();
        assert!(reason.contains("Sensitivity::Always"), "{reason}");
        assert!(reason.contains("sweeper"), "{reason}");
        sim.run(3).unwrap();
        assert_eq!(sim.peek(y).unwrap().to_u64(), Some(1));
    }

    #[test]
    fn lowered_rebuilds_after_new_driver_discovery() {
        /// Drives `y` only while `en` is high — invisible to the
        /// schedule build when constructed with `en` low, and with no
        /// `drives()` declaration to warn the levelizer.
        struct LateDriver {
            en: SignalId,
            y: SignalId,
        }
        impl Component for LateDriver {
            fn name(&self) -> &str {
                "late"
            }
            fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
                if bus.read(self.en)?.to_u64() == Some(1) {
                    bus.drive_u64(self.y, 1)?;
                }
                Ok(())
            }
            fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
                Ok(())
            }
            fn sensitivity(&self) -> Sensitivity {
                Sensitivity::Signals(vec![self.en])
            }
            fn is_clocked(&self) -> bool {
                false
            }
        }
        let mut sim = Simulator::with_mode(SchedMode::Lowered);
        let en = sim.add_signal("en", 1).unwrap();
        let y = sim.add_signal("y", 1).unwrap();
        sim.add_component(LateDriver { en, y });
        sim.poke(en, 0).unwrap();
        sim.set_telemetry(TelemetryLevel::Counters);
        sim.reset().unwrap();
        assert!(
            sim.compile().unwrap(),
            "levelizes while the drive is hidden"
        );
        // Enabling the driver mid-run invalidates the schedule: the
        // walk aborts without committing, the settle re-runs
        // event-driven, and the link is recorded for the rebuild.
        sim.poke(en, 1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.peek(y).unwrap().to_u64(), Some(1));
        let notes = sim.stats().notes;
        assert!(
            notes.iter().any(|n| n.contains("newly discovered driver")),
            "{notes:?}"
        );
        // Next settle rebuilds the plan (event-driven), the one after
        // walks the rebuilt schedule.
        sim.settle().unwrap();
        let before = sim.stats().lowered_settles;
        sim.settle().unwrap();
        assert!(sim.stats().lowered_settles > before, "rank walks resume");
        assert!(sim.compile_fallback_reason().is_none());
    }

    #[test]
    fn lowered_vcd_trace_is_bit_identical_to_event_driven() {
        let render = |mode: SchedMode| -> String {
            let mut sim = Simulator::with_mode(mode);
            let q = sim.add_signal("q", 8).unwrap();
            let d = sim.add_signal("d", 8).unwrap();
            sim.add_component(Reg {
                name: "r".into(),
                d,
                q,
                state: 0,
            });
            sim.add_component(Inc {
                name: "i".into(),
                a: q,
                y: d,
                evals: None,
            });
            let rec = sim.add_component(crate::vcd::VcdRecorder::new("vcd", vec![q, d]));
            sim.reset().unwrap();
            if mode == SchedMode::Lowered {
                assert!(sim.compile().unwrap());
            }
            sim.run(8).unwrap();
            sim.component::<crate::vcd::VcdRecorder>(rec)
                .unwrap()
                .render(sim.bus())
        };
        assert_eq!(render(SchedMode::Lowered), render(SchedMode::EventDriven));
    }

    #[test]
    fn lowered_toggles_match_event_driven() {
        let runs: Vec<SimStats> = [SchedMode::EventDriven, SchedMode::Lowered]
            .into_iter()
            .map(|mode| {
                let (mut sim, _) = multi_counter_sim(mode, 8);
                sim.set_telemetry(TelemetryLevel::Counters);
                sim.run(25).unwrap();
                sim.stats()
            })
            .collect();
        let (reference, lowered) = (&runs[0], &runs[1]);
        assert_eq!(lowered.total_toggles(), reference.total_toggles());
        for (s, rs) in lowered.signals.iter().zip(&reference.signals) {
            assert_eq!(
                (s.name.as_str(), s.toggles),
                (rs.name.as_str(), rs.toggles),
                "settled toggle activity is mode-invariant"
            );
        }
    }

    /// The counter rig without reset, for plan-reuse tests that need
    /// two identically constructed simulators.
    fn unreset_counter_sim() -> (Simulator, SignalId) {
        let mut sim = Simulator::new();
        let q = sim.add_signal("q", 8).unwrap();
        let d = sim.add_signal("d", 8).unwrap();
        sim.add_component(Reg {
            name: "r".into(),
            d,
            q,
            state: 0,
        });
        sim.add_component(Inc {
            name: "i".into(),
            a: q,
            y: d,
            evals: None,
        });
        (sim, q)
    }

    #[test]
    fn design_signature_is_stable_and_structural() {
        let (a, _) = unreset_counter_sim();
        let (b, _) = unreset_counter_sim();
        assert_eq!(a.design_signature(), b.design_signature());
        assert_eq!(a.design_signature(), a.design_signature());
        // A structural difference (extra signal) changes the signature.
        let (mut c, _) = unreset_counter_sim();
        c.add_signal("extra", 1).unwrap();
        assert_ne!(a.design_signature(), c.design_signature());
    }

    #[test]
    fn exported_plan_installs_and_runs_bit_identically() {
        // Cold: compile locally, export the plan mid-run.
        let (mut cold, q_cold) = unreset_counter_sim();
        cold.set_telemetry(TelemetryLevel::Counters);
        cold.reset().unwrap();
        assert!(cold.compile().unwrap());
        let plan = cold.export_plan().expect("active schedule exports");
        assert_eq!(plan.components(), 2);
        assert!(!plan.rank_counts().is_empty());
        cold.run(9).unwrap();

        // Warm: same design, schedule installed instead of levelized.
        let (mut warm, q_warm) = unreset_counter_sim();
        warm.set_telemetry(TelemetryLevel::Counters);
        warm.install_plan(&plan).unwrap();
        assert_eq!(warm.mode(), SchedMode::Lowered);
        warm.reset().unwrap();
        warm.run(9).unwrap();
        assert_eq!(
            warm.peek(q_warm).unwrap(),
            cold.peek(q_cold).unwrap(),
            "installed plan settles bit-identically"
        );
        let stats = warm.stats();
        assert_eq!(stats.plan_installs, 1);
        assert!(
            stats.lowered_settles > 0,
            "the installed schedule actually ran rank walks"
        );
        // The plan survives the whole run: exporting again round-trips.
        let again = warm.export_plan().expect("plan still active");
        assert_eq!(again.signature(), plan.signature());
    }

    #[test]
    fn install_plan_rejects_a_foreign_design() {
        let (mut donor, _) = unreset_counter_sim();
        donor.reset().unwrap();
        assert!(donor.compile().unwrap());
        let plan = donor.export_plan().unwrap();

        // Same shape, different signal width: signature mismatch.
        let mut other = Simulator::new();
        let q = other.add_signal("q", 4).unwrap();
        let d = other.add_signal("d", 4).unwrap();
        other.add_component(Reg {
            name: "r".into(),
            d,
            q,
            state: 0,
        });
        other.add_component(Inc {
            name: "i".into(),
            a: q,
            y: d,
            evals: None,
        });
        let err = other.install_plan(&plan).unwrap_err();
        assert!(matches!(err, SimError::PlanMismatch { .. }), "{err}");

        // Different shape entirely.
        let mut tiny = Simulator::new();
        tiny.add_signal("s", 1).unwrap();
        let err = tiny.install_plan(&plan).unwrap_err();
        assert!(err.to_string().contains("plan shape"), "{err}");
    }

    /// A counter that advances only when its declared domain fires.
    struct DomainReg {
        name: String,
        domain: ClockDomain,
        q: SignalId,
        state: u64,
    }

    impl Component for DomainReg {
        fn name(&self) -> &str {
            &self.name
        }
        fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
            bus.drive_u64(self.q, self.state)
        }
        fn tick(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            self.state += 1;
            Ok(())
        }
        fn clock_domains(&self) -> Vec<ClockDomain> {
            vec![self.domain.clone()]
        }
        fn tick_domains(&mut self, bus: &mut SignalBus, firing: &[&str]) -> Result<(), SimError> {
            if firing.contains(&self.domain.name.as_str()) {
                self.tick(bus)
            } else {
                Ok(())
            }
        }
        fn reset(&mut self, _bus: &mut SignalBus) -> Result<(), SimError> {
            self.state = 0;
            Ok(())
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![])
        }
    }

    #[test]
    fn multi_domain_interleaving_is_mode_identical() {
        let run = |mode: SchedMode| -> Vec<(u64, u64)> {
            let mut sim = Simulator::with_mode(mode);
            let qf = sim.add_signal("q_fast", 8).unwrap();
            let qs = sim.add_signal("q_slow", 8).unwrap();
            sim.add_component(DomainReg {
                name: "fast".into(),
                domain: ClockDomain::default_clock(),
                q: qf,
                state: 0,
            });
            sim.add_component(DomainReg {
                name: "slow".into(),
                domain: ClockDomain::new("slow", 3),
                q: qs,
                state: 0,
            });
            sim.reset().unwrap();
            let mut trace = Vec::new();
            for _ in 0..12 {
                sim.step().unwrap();
                trace.push((
                    sim.peek(qf).unwrap().to_u64().unwrap(),
                    sim.peek(qs).unwrap().to_u64().unwrap(),
                ));
            }
            trace
        };
        let reference = run(SchedMode::FullSweep);
        // `slow` fires at t = 0, 3, 6, 9 — four edges in twelve steps.
        assert_eq!(reference[11], (12, 4));
        for mode in SchedMode::ALL {
            assert_eq!(run(mode), reference, "{mode:?}");
        }
    }

    #[test]
    fn clock_domain_period_conflict_is_reported() {
        let mut sim = Simulator::new();
        let qa = sim.add_signal("qa", 8).unwrap();
        let qb = sim.add_signal("qb", 8).unwrap();
        sim.add_component(DomainReg {
            name: "a".into(),
            domain: ClockDomain::new("wr", 2),
            q: qa,
            state: 0,
        });
        sim.add_component(DomainReg {
            name: "b".into(),
            domain: ClockDomain::new("wr", 3),
            q: qb,
            state: 0,
        });
        let err = sim.step().unwrap_err();
        assert!(err.to_string().contains("wr"), "{err}");
    }

    #[test]
    fn simulator_level_domain_declarations_validate() {
        let mut sim = Simulator::new();
        assert!(sim.add_clock_domain("rd", 0).is_err());
        assert!(sim.add_clock_domain("clk", 2).is_err());
        sim.add_clock_domain("rd", 3).unwrap();
        sim.add_clock_domain("rd", 3).unwrap(); // same-period redeclare is fine
        assert!(sim.add_clock_domain("rd", 4).is_err());
        let domains = sim.clock_domains().unwrap().to_vec();
        assert_eq!(domains.len(), 2);
        assert_eq!(domains[1], ClockDomain::new("rd", 3));
    }

    #[test]
    fn extra_domain_changes_design_signature() {
        let (sim_a, _) = counter_sim(SchedMode::EventDriven);
        let (mut sim_b, _) = counter_sim(SchedMode::EventDriven);
        let base = sim_a.design_signature();
        assert_eq!(base, sim_b.design_signature());
        sim_b.add_clock_domain("rd", 2).unwrap();
        assert_ne!(base, sim_b.design_signature());
    }
}
